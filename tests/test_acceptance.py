"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All checks are exact; there are no tolerances anywhere.  Run with
`pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import os
import random

import pytest

from govlab.claims import Verdict, run_claim
from govlab.cycles import Classification, _OrbitMemo, _scan_chunk
from govlab.dynamics import RULE_3Z, RULE_5Z, OrbitLimits, orbit
from govlab.genealogy import solve_ancestor_conditions
from govlab.laws import check_closed_form, verify_descent
from govlab.numerics import decompose, governor_index, reconstruct
from govlab.scan import ScanState, checkpoint_save, scan_range

WORKERS = min(8, os.cpu_count() or 1)


def report(criterion: int, description: str, ok: bool) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"acceptance criterion {criterion} failed: {description}"


def random_odd(rng: random.Random, max_bits: int = 256) -> int:
    return rng.getrandbits(rng.randint(1, max_bits)) | 1


def test_criterion_1_3z_cycle_census():
    limits = OrbitLimits(max_steps=10**6, max_value_bits=256)
    rep = scan_range(1, (1 << 20) - 1, RULE_3Z, limits, workers=WORKERS)
    total = rep.counts["total"]
    ok = (
        total == 1 << 19
        and rep.counts["converged_trivial"] == total
        and all(c.classification is Classification.TRIVIAL for c in rep.cycles)
        and [c.smallest_odd for c in rep.cycles] == [1]
        and len(rep.divergence_candidates) == 0
    )
    report(1, "3Z+1 census below 2^20: all trivial, no auxiliary cycles, "
              "no divergence candidates", ok)


def test_criterion_2_5z_cycle_census():
    limits = OrbitLimits(max_steps=10**5, max_value_bits=128)
    rep = scan_range(1, (1 << 17) - 1, RULE_5Z, limits, workers=WORKERS)
    aux = [c for c in rep.cycles if c.classification is Classification.AUXILIARY]
    counts_ok = (
        rep.counts["total"] == 1 << 16
        and sum(v for k, v in rep.counts.items() if k != "total") == rep.counts["total"]
    )
    ok = (
        counts_ok
        and sorted(c.smallest_odd for c in aux) == [13, 17]
        and all(c.smallest_odd < (1 << 5) for c in aux)
        and all(
            idx in (1, 2) for c in rep.cycles for _, idx in c.governor_indices
        )
        and len(rep.divergence_candidates) > 0
        and len(rep.divergence_candidates)
        == rep.counts["undecided_step_limit"] + rep.counts["undecided_value_limit"]
    )
    report(2, "5Z+1 census below 2^17: auxiliary cycles exactly {13, 17}, both "
              "below 2^5, all indices in {1, 2}, divergence candidates reported "
              "as undecided", ok)


def test_criterion_3_descent_laws():
    rng = random.Random(0x600D5EED)
    violations = 0
    checked_3z = checked_5z = 0
    for _ in range(10**5):
        x = random_odd(rng)
        m = governor_index(x)
        if m >= 2:
            checked_3z += 1
            if not verify_descent(x, RULE_3Z).passed:
                violations += 1
        if m >= 3:
            checked_5z += 1
            if not verify_descent(x, RULE_5Z).passed:
                violations += 1
    ok = violations == 0 and checked_3z > 10**4 and checked_5z > 10**3
    report(3, f"descent laws on 10^5 random 256-bit odds "
              f"({checked_3z} above index 1, {checked_5z} above index 2): "
              f"{violations} violations", ok)


def test_criterion_4_closed_form_suites():
    suites = [
        ("T1_3Z", 5, 64, RULE_3Z),
        ("T1_5Z", 5, 64, RULE_5Z),
        ("T2_3Z", 3, 64, RULE_3Z),
        ("T2_5Z_ODD", 3, 64, RULE_5Z),
        ("T2_5Z_EVEN", 5, 64, RULE_5Z),
    ]
    mismatches = {
        name: check_closed_form(name, lo, hi, rule) for name, lo, hi, rule in suites
    }
    ok = all(not mm for mm in mismatches.values())
    report(4, "closed-form families replay exactly over their validity ranges", ok)


def test_criterion_5_ancestor_conditions():
    sols_3 = [(s.term_count, s.mu, s.i) for s in solve_ancestor_conditions(RULE_3Z, 64, 64)]
    sols_5 = [(s.term_count, s.mu, s.i) for s in solve_ancestor_conditions(RULE_5Z, 64, 64)]
    ok = sols_3 == [(1, 1, 2)] and sols_5 == [(1, 2, 4), (2, 1, 1)]
    report(5, "ancestor conditions: exactly {one-term mu=1,i=2} for 3Z+1 and "
              "{two-term mu=1,i=1; one-term mu=2,i=4} for 5Z+1, no three-term "
              "solutions", ok)


def test_criterion_6_promotion_construction():
    trace = orbit(27, RULE_3Z, OrbitLimits(max_steps=10**6, max_value_bits=256))
    odd_prefix = list(trace.odd_governors[:3])
    claim = run_claim("C5")
    ok = (
        odd_prefix == [(27, 2), (41, 1), (31, 5)]
        and claim.verdict is Verdict.PASS
    )
    report(6, "orbit of 27 passes 27 -> 41 -> 31 with governor indices "
              "2 -> 1 -> 5; promotion claim C5 passes", ok)


def test_criterion_7_successor_congruence_replay():
    claim = run_claim("C6", {"placeholder_exponent": 20})
    rows = claim.evidence["rows"]
    r2 = [r for r in rows if r["family"] == "R2"]
    mismatched = {(r["family"], r["steps"]) for r in rows if not r["match"]}
    ok = (
        claim.verdict is Verdict.MISMATCH_REPORTED
        and [r["computed_residue"] for r in r2] == ["13", "33", "83", "13"]
        and all(r["match"] for r in r2)
        and mismatched == {("R4_Q5", "OEOE"), ("R4_Q6", "OEOEEE")}
        and all(
            r["stated_low"] != r["computed_residue"]
            for r in rows
            if not r["match"]
        )
    )
    report(7, "successor congruences: R2 at Q=20 reproduces residues "
              "13, 33, 83, 13; the two sub-family rows are mismatch-reported "
              "with both values", ok)


def test_criterion_8_engineering_determinism(tmp_path):
    rng = random.Random(0xD15EA5E)
    roundtrip_failures = sum(
        1
        for _ in range(10**6)
        if reconstruct(decompose(x := random_odd(rng))) != x
    )

    limits = OrbitLimits(max_steps=10**5, max_value_bits=128)
    lo, hi, chunk = 1, (1 << 13) - 1, 1 << 9
    w1 = scan_range(lo, hi, RULE_5Z, limits, workers=1, chunk_size=chunk)
    w8 = scan_range(lo, hi, RULE_5Z, limits, workers=8, chunk_size=chunk)
    workers_identical = w1.to_json() == w8.to_json()

    # interrupt simulation: only chunks 0 and 5 done, then resume from file
    ckpt = str(tmp_path / "resume.ckpt")
    n_seeds = (hi - lo) // 2 + 1
    partial = ScanState(RULE_5Z, lo, hi, limits, chunk, {})
    for i in (0, 5):
        c_lo = lo + 2 * i * chunk
        c_hi = lo + 2 * (min((i + 1) * chunk, n_seeds) - 1)
        partial.completed[i] = _scan_chunk(i, c_lo, c_hi,
                                           _OrbitMemo(c_lo, c_hi, RULE_5Z, limits))
    checkpoint_save(partial, ckpt)
    resumed = scan_range(lo, hi, RULE_5Z, limits, workers=1, chunk_size=chunk,
                         checkpoint_path=ckpt)
    resume_identical = resumed.to_json() == w1.to_json()

    ok = roundtrip_failures == 0 and workers_identical and resume_identical
    report(8, f"decompose/reconstruct roundtrip on 10^6 values "
              f"({roundtrip_failures} failures); reports byte-identical for "
              f"workers 1 vs 8 and across checkpoint resume", ok)
