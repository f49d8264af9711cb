"""Runnable claim registry: each entry turns one verified statement about the
qZ+1 dynamics into a bounded, reproducible check with structured evidence.

Verdicts are Pass, Fail, or Mismatch-Reported.  Mismatch-Reported is not a
failure: it marks successor-congruence rows whose stated low-order residues
disagree with exact replay, recorded with both values so the row can be
re-verified independently.  No verdict is a proof; every check is bounded by
its parameters and the bounds are part of the result.
"""

from __future__ import annotations

import enum
import json
import sys
import time
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable

from .cycles import Classification
from .dynamics import RULE_3Z, RULE_5Z, OrbitLimits, Rule, odd_orbit, orbit_values
from .genealogy import solve_ancestor_conditions
from .laws import find_promotions
from .numerics import governor_index, int_to_decimal, require, show
from .scan import ScanReport, scan_range

SCHEMA_VERSION = 1

# C2's successor note starts from 2^P + 1 with this P; it is not a parameter
_C2_SUCCESSOR_SAMPLE_EXPONENT = 20


class Verdict(enum.Enum):
    PASS = "pass"
    FAIL = "fail"
    MISMATCH_REPORTED = "mismatch_reported"


@dataclass(frozen=True)
class ClaimResult:
    claim_id: str
    params: dict
    verdict: Verdict
    evidence: dict
    runtime_seconds: float

    def to_doc(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "params": dict(self.params),
            "verdict": self.verdict.value,
            "evidence": self.evidence,
            "runtime_seconds": round(self.runtime_seconds, 3),
        }

    def canonical_doc(self) -> dict:
        doc = self.to_doc()
        del doc["runtime_seconds"]
        return doc


@dataclass(frozen=True)
class ClaimReport:
    results: tuple[ClaimResult, ...]

    def summary(self) -> dict[str, int]:
        out = {v.value: 0 for v in Verdict}
        for r in self.results:
            out[r.verdict.value] += 1
        return out

    def to_doc(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "govlab-claim-report",
            "results": [r.to_doc() for r in self.results],
            "summary": self.summary(),
        }

    def canonical_doc(self) -> dict:
        doc = self.to_doc()
        doc["results"] = [r.canonical_doc() for r in self.results]
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), sort_keys=True, indent=2) + "\n"

    @property
    def any_failed(self) -> bool:
        return any(r.verdict is Verdict.FAIL for r in self.results)


def _scan_evidence(report: ScanReport) -> dict:
    return {
        "range": {"lo": int_to_decimal(report.lo), "hi": int_to_decimal(report.hi)},
        "counts": dict(report.counts),
        "cycles": [c.to_doc() for c in report.cycles],
        "divergence_candidate_count": len(report.divergence_candidates),
    }


def _scan(params: dict, rule: Rule, scans: dict[tuple, ScanReport]) -> ScanReport:
    """The report of the scan params ask for, run unless scans already holds it.

    Reports are keyed by rule, range and limits, which decide every byte of
    a report; the worker count does not.
    """
    limits = OrbitLimits(max_steps=params["max_steps"], max_value_bits=params["max_value_bits"])
    key = (rule, params["lo"], params["hi"], limits)
    if key not in scans:
        scans[key] = scan_range(params["lo"], params["hi"], rule, limits, workers=params["workers"])
    return scans[key]


def _run_governor_census(report: ScanReport) -> tuple[Verdict, dict]:
    """C1 and C3: every odd cycle member has a trivial governor of the report's rule."""
    allowed = report.rule.trivial_indices
    violations = []
    for rec in report.cycles:
        for member, idx in rec.governor_indices:
            if idx not in allowed:
                violations.append(
                    {
                        "cycle_smallest_odd": int_to_decimal(rec.smallest_odd),
                        "member": int_to_decimal(member),
                        "governor_index": idx,
                        "allowed": sorted(allowed),
                    }
                )
    evidence = _scan_evidence(report)
    evidence["violations"] = violations
    return (Verdict.PASS if not violations else Verdict.FAIL), evidence


def _run_c2(report: ScanReport) -> tuple[Verdict, dict]:
    auxiliary = [
        c.to_doc() for c in report.cycles if c.classification is Classification.AUXILIARY
    ]
    evidence = _scan_evidence(report)
    evidence["auxiliary_cycles"] = auxiliary
    # successor bookkeeping note: from 2^P + 1 the odd step and one even step
    # land on 3*2^(P-1) + 2, which is congruent to 2 modulo 2^(P-1); the
    # one-term successor expression tracks only that low residue, the image
    # of the leading term being absorbed into the placeholder
    p = _C2_SUCCESSOR_SAMPLE_EXPONENT
    start = (1 << p) + 1
    val, _ = RULE_3Z.replay(start, "OE")
    evidence["successor_congruence_note"] = {
        "start": int_to_decimal(start),
        "steps": "OE",
        "computed_value": int_to_decimal(val),
        "stated_low": "2",
        "modulus_exponent": p - 1,
        "match": val % (1 << (p - 1)) == 2,
    }
    return (Verdict.PASS if not auxiliary else Verdict.FAIL), evidence


def _run_c4(report: ScanReport) -> tuple[Verdict, dict]:
    bound = 1 << 5
    oversized = [
        c.to_doc()
        for c in report.cycles
        if c.classification is Classification.AUXILIARY and c.smallest_odd >= bound
    ]
    evidence = _scan_evidence(report)
    evidence["bound"] = int_to_decimal(bound)
    evidence["oversized_auxiliary_cycles"] = oversized
    return (Verdict.PASS if not oversized else Verdict.FAIL), evidence


def _run_c5(params: dict) -> tuple[Verdict, dict]:
    a = require(params["a"], "C5 parameter a", 4)
    horizon = require(params["horizon"], "C5 parameter horizon", maximum=sys.maxsize - 1)
    x = (1 << a) + (1 << 3) + (1 << 2) - 1
    target = (1 << (a + 1)) - 1
    promotions = find_promotions(x, RULE_3Z, horizon)
    hit = [p for p in promotions if p.target == target and p.new_index == a + 1]

    # orbit prefix up to the target (or the horizon) as the replayable witness
    walk = []
    for v, k in islice(odd_orbit(x, RULE_3Z), horizon + 1):
        walk.append((v, k))
        if v == target:
            break
    evidence = {
        "start": int_to_decimal(x),
        "target": int_to_decimal(target),
        "promotions": [
            {
                "source": int_to_decimal(p.source),
                "target": int_to_decimal(p.target),
                "old_index": p.old_index,
                "new_index": p.new_index,
            }
            for p in promotions
        ],
        "witness_orbit_prefix": [int_to_decimal(v) for v in orbit_values(walk)],
        "odd_governor_sequence": [
            {"value": int_to_decimal(v), "index": governor_index(v)} for v, _ in walk
        ],
    }
    return (Verdict.PASS if hit else Verdict.FAIL), evidence


# Successor congruence families for 5Z+1.  Each starts from 2^Q plus a small
# odd tail and lists (step string, stated low residue, placeholder shift):
# after the steps, the exact value must be congruent to the stated residue
# modulo 2^(Q - shift).  The R4_Q5 and R4_Q6 rows are recorded as stated even
# though exact replay disagrees with them; see _run_c6.
SUCCESSOR_FAMILIES: tuple[tuple[str, int, tuple[tuple[str, int, int], ...]], ...] = (
    ("R2", 5, (("OE", 13, 1), ("OEOE", 33, 2), ("OEOEOE", 83, 3), ("OEOEOEOEEEEE", 13, 8))),
    ("R3", 9, (("OE", 23, 1),)),
    ("R4", 17, (("OE", 43, 1), ("OEOEEE", 27, 4), ("OEOEEEO", 136, 4))),
    ("R4_Q5", 49, (("OE", 123, 1), ("OEOE", 559, 2))),
    ("R4_Q6", 81, (("OE", 203, 1), ("OEOEEE", 95, 4))),
)


def _run_c6(params: dict) -> tuple[Verdict, dict]:
    # from 12 on, no family's stated residue collides with the placeholder
    q_exp = require(params["placeholder_exponent"], "C6 parameter placeholder_exponent", 12)
    rows = []
    any_mismatch = False
    for family, tail, family_rows in SUCCESSOR_FAMILIES:
        x = (1 << q_exp) + tail
        for steps, stated_low, shift in family_rows:
            value, broken = RULE_5Z.replay(x, steps)
            parity_ok = broken is None
            mod_exp = q_exp - shift
            residue = value % (1 << mod_exp)
            match = parity_ok and residue == stated_low
            any_mismatch = any_mismatch or not match
            rows.append(
                {
                    "family": family,
                    "start": int_to_decimal(x),
                    "steps": steps,
                    "stated_low": int_to_decimal(stated_low),
                    "modulus_exponent": mod_exp,
                    "computed_value": int_to_decimal(value),
                    "computed_residue": int_to_decimal(residue),
                    "computed_parity": "odd" if value % 2 else "even",
                    "stated_parity": "odd" if stated_low % 2 else "even",
                    "step_parities_respected": parity_ok,
                    "match": match,
                }
            )
    evidence = {"placeholder_exponent": q_exp, "rows": rows}
    return (Verdict.MISMATCH_REPORTED if any_mismatch else Verdict.PASS), evidence


def _run_c7(params: dict) -> tuple[Verdict, dict]:
    mu_max = params["mu_max"]
    i_max = params["i_max"]
    expected = {RULE_3Z: {(1, 1, 2)}, RULE_5Z: {(1, 2, 4), (2, 1, 1)}}
    per_rule = {}
    ok = True
    for rule, want in expected.items():
        found = solve_ancestor_conditions(rule, mu_max, i_max)
        exact = {(s.term_count, s.mu, s.i) for s in found} == want
        ok = ok and exact
        per_rule[rule.name] = {
            "solutions": [{"terms": s.term_count, "mu": s.mu, "i": s.i} for s in found],
            "expected": [{"terms": t, "mu": mu, "i": i} for t, mu, i in sorted(want)],
            "three_term_solutions": [
                {"terms": s.term_count, "mu": s.mu, "i": s.i} for s in found if s.term_count == 3
            ],
            "exact_match": exact,
        }
    evidence = {"bounds": {"mu_max": mu_max, "i_max": i_max}, "rules": per_rule}
    return (Verdict.PASS if ok else Verdict.FAIL), evidence


@dataclass(frozen=True)
class ClaimSpec:
    """A registered claim.  With scan_rule set, the runner takes the report
    of that rule's scan over the claim's range and limits; else its params."""

    claim_id: str
    title: str
    statement: str
    defaults: dict
    runner: Callable[..., tuple[Verdict, dict]]
    scan_rule: Rule | None = None


_SCAN_3Z_DEFAULTS = {
    "lo": 1,
    "hi": (1 << 20) - 1,
    "max_steps": 10**6,
    "max_value_bits": 256,
    "workers": 1,
}
_SCAN_5Z_DEFAULTS = {
    "lo": 1,
    "hi": (1 << 17) - 1,
    "max_steps": 10**5,
    "max_value_bits": 128,
    "workers": 1,
}

CLAIMS: tuple[ClaimSpec, ...] = (
    ClaimSpec(
        "C1",
        "3Z+1 cycle governor census",
        "Every cycle detected when scanning odd seeds up to the bound under "
        "3Z+1 has all of its odd members with governor index 1.",
        dict(_SCAN_3Z_DEFAULTS),
        _run_governor_census,
        RULE_3Z,
    ),
    ClaimSpec(
        "C2",
        "3Z+1 auxiliary cycle search",
        "Scanning odd seeds up to the bound under 3Z+1 finds no cycle other "
        "than the known trivial cycle 1 -> 4 -> 2.",
        dict(_SCAN_3Z_DEFAULTS),
        _run_c2,
        RULE_3Z,
    ),
    ClaimSpec(
        "C3",
        "5Z+1 cycle governor census",
        "Every cycle detected when scanning odd seeds up to the bound under "
        "5Z+1 has all of its odd members with governor index 1 or 2.",
        dict(_SCAN_5Z_DEFAULTS),
        _run_governor_census,
        RULE_5Z,
    ),
    ClaimSpec(
        "C4",
        "5Z+1 auxiliary cycle size bound",
        "Every auxiliary cycle found when scanning odd seeds up to the bound "
        "under 5Z+1 has its smallest odd member below 2^5.",
        dict(_SCAN_5Z_DEFAULTS),
        _run_c4,
        RULE_5Z,
    ),
    ClaimSpec(
        "C5",
        "governor promotion construction",
        "Under 3Z+1, the orbit of 2^a + 2^3 + 2^2 - 1 with a = 4 promotes an "
        "index-1 governor to the index-(a+1) governor 2^(a+1) - 1 = 31 within "
        "five odd-to-odd transitions.",
        {"a": 4, "horizon": 5},
        _run_c5,
    ),
    ClaimSpec(
        "C6",
        "5Z+1 successor congruences",
        "Replaying the prescribed O/E step strings from 2^Q plus a small odd "
        "tail reproduces the stated low-order residues modulo the shifted "
        "placeholder position; rows whose stated residues disagree with exact "
        "replay are reported with both values rather than failed.",
        {"placeholder_exponent": 20},
        _run_c6,
    ),
    ClaimSpec(
        "C7",
        "odd ancestor existence conditions",
        "The bounded solver for q*(2^mu - 1) + 1 = (2^2+2^1+2^0 | 2^1+2^0 | "
        "2^0) * 2^i finds exactly the one-term solution mu=1, i=2 for 3Z+1 "
        "and exactly the two-term mu=1, i=1 and one-term mu=2, i=4 solutions "
        "for 5Z+1, with no three-term solutions for either rule.",
        {"mu_max": 64, "i_max": 64},
        _run_c7,
    ),
)

_BY_ID = {spec.claim_id: spec for spec in CLAIMS}


def list_claims() -> list[tuple[str, str, str]]:
    """Fixed registry in stable order: (id, title, statement)."""
    return [(s.claim_id, s.title, s.statement) for s in CLAIMS]


def _spec(claim_id: str) -> ClaimSpec:
    spec = _BY_ID.get(claim_id)
    if spec is None:
        raise ValueError(f"unknown claim {show(claim_id)}; known: {sorted(_BY_ID)}")
    return spec


def check_overrides(overrides: object) -> dict[str, dict]:
    """Return overrides unchanged if they map known claim ids to objects of that
    claim's parameters with integer values; else raise ValueError naming the problem.
    """
    if not isinstance(overrides, dict):
        raise ValueError("parameter overrides must be an object keyed by claim id")
    for claim_id, params in overrides.items():
        spec = _spec(claim_id)
        if not isinstance(params, dict):
            raise ValueError(f"parameters for {claim_id} must be an object, got {show(params)}")
        for name, value in params.items():
            if name not in spec.defaults:
                raise ValueError(
                    f"unknown parameter {name!r} for {claim_id}; "
                    f"accepted: {sorted(spec.defaults)}"
                )
            if type(value) is not int:
                raise ValueError(
                    f"{claim_id} parameter {name} must be an integer, got {show(value)}"
                )
    return overrides


def claim_defaults(claim_id: str) -> dict:
    """The default parameters of one claim (a copy)."""
    return dict(_spec(claim_id).defaults)


def run_claims(
    claim_ids: Iterable[str], overrides: dict[str, dict] | None = None
) -> ClaimReport:
    """Run the claims in the given order, each with its defaults merged under
    overrides[claim id].

    Each distinct scan (rule, range and limits) runs once, in the first
    claim that needs it, and its report serves every later claim of this
    call; so a later claim's runtime_seconds covers only its own checks.
    """
    overrides = check_overrides(overrides or {})
    scans: dict[tuple, ScanReport] = {}
    results = []
    for claim_id in claim_ids:
        spec = _spec(claim_id)
        params = {**spec.defaults, **overrides.get(claim_id, {})}
        t0 = time.perf_counter()
        if spec.scan_rule is None:
            verdict, evidence = spec.runner(params)
        else:
            verdict, evidence = spec.runner(_scan(params, spec.scan_rule, scans))
        results.append(
            ClaimResult(
                claim_id=claim_id,
                params=params,
                verdict=verdict,
                evidence=evidence,
                runtime_seconds=time.perf_counter() - t0,
            )
        )
    return ClaimReport(results=tuple(results))


def run_claim(claim_id: str, params: dict | None = None) -> ClaimResult:
    """Run one claim with defaults merged under the given overrides."""
    overrides = None if params is None else {claim_id: params}
    return run_claims([claim_id], overrides).results[0]


def run_all(overrides: dict[str, dict] | None = None) -> ClaimReport:
    """Run C1..C7 with desk-scale defaults; overrides map claim id to params."""
    return run_claims([spec.claim_id for spec in CLAIMS], overrides)
