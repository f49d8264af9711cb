"""Exact-arithmetic toolkit for qZ+1 dynamics on trailing-ones forms.

Names load on first use (PEP 562): `import govlab` runs no submodule, and
`govlab.scan_range` loads only the modules a scan runs.  _EXPORTS maps each
submodule to the public names it gives this package.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "numerics": ("GovernorForm", "decompose", "governor_index", "reconstruct", "v2"),
    "dynamics": (
        "RULE_3Z", "RULE_5Z", "OrbitLimits", "OrbitTrace", "Rule", "StepKind",
        "Termination", "TerminationKind", "even_step", "governor_trace", "next_odd",
        "odd_step", "orbit", "rule_for",
    ),
    "laws": ("check_closed_form", "eval_closed_form", "find_promotions", "verify_descent"),
    "genealogy": (
        "AncestorEntry", "AncestorNode", "ConditionSolution", "ancestor_tree",
        "even_ancestor", "odd_ancestors", "solve_ancestor_conditions",
    ),
    "cycles": (
        "Classification", "CycleRecord", "Outcome", "OutcomeTag", "canonical_cycle",
        "classify_cycle", "detect_outcome", "trivial_cycle_record",
    ),
    "scan": (
        "CheckpointError", "ScanReport", "ScanState", "checkpoint_load", "checkpoint_save",
        "scan_range",
    ),
    "claims": ("ClaimReport", "ClaimResult", "Verdict", "list_claims", "run_all", "run_claim"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:
        value = import_module(f"{__name__}.{name}")
    elif name in _MODULE_OF:
        value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _EXPORTS.keys() | _MODULE_OF.keys())
