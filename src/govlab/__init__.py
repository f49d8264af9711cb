"""Exact-arithmetic toolkit for 3Z+1 and 5Z+1 dynamics on trailing-ones forms."""

from .numerics import GovernorForm, decompose, governor_index, reconstruct, v2
from .dynamics import (
    RULE_3Z,
    RULE_5Z,
    OrbitLimits,
    OrbitTrace,
    Rule,
    StepKind,
    Termination,
    TerminationKind,
    check_closed_form,
    eval_closed_form,
    even_step,
    find_promotions,
    governor_trace,
    next_odd,
    odd_step,
    orbit,
    rule_for,
    verify_descent,
)
from .genealogy import (
    AncestorEntry,
    AncestorNode,
    ConditionSolution,
    ancestor_tree,
    even_ancestor,
    odd_ancestors,
    solve_ancestor_conditions,
)
from .cycles import (
    Classification,
    CycleRecord,
    Outcome,
    OutcomeTag,
    canonical_cycle,
    classify_cycle,
    detect_outcome,
    trivial_cycle_record,
)
from .scan import (
    CheckpointError, ScanReport, ScanState, checkpoint_load, checkpoint_save, scan_range,
)
from .claims import ClaimReport, ClaimResult, Verdict, list_claims, run_all, run_claim

__version__ = "0.1.0"
