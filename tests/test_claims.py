import hashlib
import json
import tracemalloc
from dataclasses import replace

import pytest

from govlab import claims
from govlab.dynamics import RULE_3Z, RULE_5Z, OrbitLimits
from govlab.claims import (
    ClaimReport,
    Verdict,
    claim_defaults,
    list_claims,
    run_all,
    run_claim,
    run_claims,
)
from govlab.scan import scan_range

# small scan bounds so the full registry can run in unit-test time
SMALL_3Z = {"hi": (1 << 13) - 1, "max_steps": 10**5}
SMALL_5Z = {"hi": (1 << 13) - 1}


class TestRegistry:
    def test_listing_is_stable_and_complete(self):
        listed = list_claims()
        assert [c[0] for c in listed] == ["C1", "C2", "C3", "C4", "C5", "C6", "C7"]
        assert listed == list_claims()
        for _, title, statement in listed:
            assert title and statement

    def test_desk_scale_defaults(self):
        assert claim_defaults("C1")["hi"] == (1 << 20) - 1
        assert claim_defaults("C1")["max_steps"] == 10**6
        assert claim_defaults("C3")["hi"] == (1 << 17) - 1
        assert claim_defaults("C3")["max_steps"] == 10**5
        assert claim_defaults("C3")["max_value_bits"] == 128
        assert claim_defaults("C6")["placeholder_exponent"] == 20
        assert claim_defaults("C7") == {"mu_max": 64, "i_max": 64}

    def test_unknown_claim_rejected(self):
        with pytest.raises(ValueError):
            run_claim("C9")
        with pytest.raises(ValueError):
            claim_defaults("C0")

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError):
            run_claim("C7", {"bogus": 1})

    def test_non_integer_params_rejected(self):
        # run_claim and run_all share the CLI's check, so nothing is truncated
        with pytest.raises(ValueError):
            run_claim("C5", {"a": 4.7})
        with pytest.raises(ValueError):
            run_claim("C5", {"a": True})
        with pytest.raises(ValueError):
            run_all({"C6": 5})
        with pytest.raises(ValueError):
            run_all({"C6": {"placeholder_exponent": float("inf")}})


class TestScanClaims:
    def test_c1_passes_at_small_bound(self):
        res = run_claim("C1", SMALL_3Z)
        assert res.verdict is Verdict.PASS
        assert res.evidence["violations"] == []
        assert res.evidence["counts"]["total"] == 1 << 12

    def test_c2_passes_and_notes_successor_congruence(self):
        res = run_claim("C2", SMALL_3Z)
        assert res.verdict is Verdict.PASS
        assert res.evidence["auxiliary_cycles"] == []
        assert res.evidence["divergence_candidate_count"] == 0
        note = res.evidence["successor_congruence_note"]
        assert note["match"] is True
        assert note["steps"] == "OE"

    def test_c3_passes_at_small_bound(self):
        res = run_claim("C3", SMALL_5Z)
        assert res.verdict is Verdict.PASS
        smallest = {c["smallest_odd"] for c in res.evidence["cycles"]}
        assert smallest == {"1", "13", "17"}

    def test_c4_passes_at_small_bound(self):
        res = run_claim("C4", SMALL_5Z)
        assert res.verdict is Verdict.PASS
        assert res.evidence["oversized_auxiliary_cycles"] == []
        assert res.evidence["divergence_candidate_count"] > 0

    def test_3z_checks_fail_on_a_5z_census(self):
        # the 5Z+1 cycles hold members of governor index 2, and two of them
        # are auxiliary, so both 3Z+1 checks must fail on this report; C1's
        # runner takes its allowed governors from the report's rule
        report = replace(scan_range(1, 127, RULE_5Z, OrbitLimits(10**5, 128)), rule=RULE_3Z)
        verdict, evidence = claims._run_governor_census(report)
        assert verdict is Verdict.FAIL
        violations = [(v["member"], v["governor_index"]) for v in evidence["violations"]]
        assert violations == [("3", 2), ("83", 2), ("43", 2), ("27", 2)]
        assert all(v["allowed"] == [1] for v in evidence["violations"])
        verdict, evidence = claims._run_c2(report)
        assert verdict is Verdict.FAIL
        assert [c["smallest_odd"] for c in evidence["auxiliary_cycles"]] == ["13", "17"]


class TestPromotionClaim:
    def test_default_passes_with_expected_witness(self):
        res = run_claim("C5")
        assert res.verdict is Verdict.PASS
        assert res.evidence["witness_orbit_prefix"] == ["27", "82", "41", "124", "62", "31"]
        assert {"source": "41", "target": "31", "old_index": 1, "new_index": 5} in res.evidence[
            "promotions"
        ]
        seq = res.evidence["odd_governor_sequence"]
        assert [e["index"] for e in seq[:3]] == [2, 1, 5]

    def test_witness_walk_stops_at_the_target(self):
        # the witness ends at the target, 3 odd values in; the walk to it
        # must not hold the horizon's odd values first
        tracemalloc.start()
        try:
            res = run_claim("C5", {"horizon": 10**5})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.evidence["witness_orbit_prefix"] == ["27", "82", "41", "124", "62", "31"]
        assert peak < 256 * 1024

    def test_other_exponent_fails_honestly(self):
        res = run_claim("C5", {"a": 5})
        assert res.verdict is Verdict.FAIL
        # failure evidence still carries replayable witnesses
        assert res.evidence["witness_orbit_prefix"][0] == "43"
        assert res.evidence["target"] == "63"

    def test_too_small_exponent_rejected(self):
        with pytest.raises(ValueError):
            run_claim("C5", {"a": 3})


class TestSuccessorCongruences:
    def test_default_reports_the_two_known_mismatches(self):
        res = run_claim("C6")
        assert res.verdict is Verdict.MISMATCH_REPORTED
        rows = res.evidence["rows"]
        by_key = {(r["family"], r["steps"]): r for r in rows}
        r2 = [r for r in rows if r["family"] == "R2"]
        assert [r["computed_residue"] for r in r2] == ["13", "33", "83", "13"]
        assert all(r["match"] for r in r2)
        assert all(by_key[k]["match"] for k in (("R3", "OE"), ("R4", "OE"), ("R4", "OEOEEE"), ("R4", "OEOEEEO")))
        q5 = by_key[("R4_Q5", "OEOE")]
        assert q5["match"] is False
        assert (q5["stated_low"], q5["computed_residue"]) == ("559", "308")
        assert (q5["stated_parity"], q5["computed_parity"]) == ("odd", "even")
        q6 = by_key[("R4_Q6", "OEOEEE")]
        assert q6["match"] is False
        assert (q6["stated_low"], q6["computed_residue"]) == ("95", "127")

    def test_mismatch_evidence_is_replayable(self):
        res = run_claim("C6")
        for row in res.evidence["rows"]:
            value, _ = RULE_5Z.replay(int(row["start"]), row["steps"])
            assert str(value) == row["computed_value"]
            modulus = 1 << row["modulus_exponent"]
            assert str(value % modulus) == row["computed_residue"]

    def test_small_placeholder_rejected(self):
        with pytest.raises(ValueError):
            run_claim("C6", {"placeholder_exponent": 8})

    def test_replay_flags_a_step_against_parity(self):
        # replay goes on arithmetically, and names the value the step broke at
        assert RULE_5Z.replay(4, "O") == (21, 4)
        assert RULE_5Z.replay(3, "E") == (1, 3)
        assert RULE_5Z.replay(3, "OE") == (8, None)

    def test_replay_rejects_bad_step_chars(self):
        with pytest.raises(ValueError, match="only O and E, got 'X'"):
            RULE_5Z.replay(27, "OXE")

    @pytest.mark.parametrize(
        "exponent,digest",
        [
            (12, "5b481904a4a3eca6106f72fe6f5862c8ec52d8159226a53d90c5a36cf6038951"),
            (20, "7d0677e11943b272af279f60f81df47037c1458e895ffa8f96b5b91827aa672c"),
            (64, "446e4f0f10327441fb693a392fd5fdedef9e750d6385db5913e4cd1e28bc4793"),
        ],
    )
    def test_evidence_is_pinned(self, exponent, digest):
        report = run_claims(["C6"], {"C6": {"placeholder_exponent": exponent}})
        text = json.dumps(report.canonical_doc(), sort_keys=True, indent=2) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestConditionClaim:
    def test_passes_with_exact_sets(self):
        res = run_claim("C7")
        assert res.verdict is Verdict.PASS
        rules = res.evidence["rules"]
        assert rules["3Z+1"]["solutions"] == [{"terms": 1, "mu": 1, "i": 2}]
        assert rules["5Z+1"]["solutions"] == [
            {"terms": 1, "mu": 2, "i": 4},
            {"terms": 2, "mu": 1, "i": 1},
        ]
        assert rules["3Z+1"]["three_term_solutions"] == []
        assert rules["5Z+1"]["three_term_solutions"] == []

    def test_huge_mu_max_passes_with_the_same_sets(self):
        res = run_claim("C7", {"mu_max": 10**30})
        assert res.verdict is Verdict.PASS
        assert res.evidence["rules"] == run_claim("C7").evidence["rules"]


class TestReports:
    def test_run_all_with_small_bounds(self):
        report = run_all(
            {"C1": SMALL_3Z, "C2": SMALL_3Z, "C3": SMALL_5Z, "C4": SMALL_5Z}
        )
        verdicts = {r.claim_id: r.verdict for r in report.results}
        assert verdicts == {
            "C1": Verdict.PASS,
            "C2": Verdict.PASS,
            "C3": Verdict.PASS,
            "C4": Verdict.PASS,
            "C5": Verdict.PASS,
            "C6": Verdict.MISMATCH_REPORTED,
            "C7": Verdict.PASS,
        }
        assert report.summary() == {"pass": 6, "fail": 0, "mismatch_reported": 1}
        assert report.any_failed is False

    def test_reproducible_canonical_docs(self):
        a = run_claim("C6").canonical_doc()
        b = run_claim("C6").canonical_doc()
        assert a == b
        a = run_claim("C7").canonical_doc()
        b = run_claim("C7").canonical_doc()
        assert a == b

    def test_empty_override_is_default(self):
        a = ClaimReport(results=(run_claim("C7"),)).canonical_doc()
        b = ClaimReport(results=(run_claim("C7", {}),)).canonical_doc()
        assert a == b

    def test_doc_has_stable_field_names(self):
        doc = ClaimReport(results=(run_claim("C7"),)).to_doc()
        assert doc["kind"] == "govlab-claim-report"
        assert doc["schema_version"] == 1
        result = doc["results"][0]
        assert set(result) == {"claim_id", "params", "verdict", "evidence", "runtime_seconds"}


@pytest.fixture
def scans(monkeypatch):
    """Records (multiplier, lo, hi, limits) of every scan a claim runs."""
    calls = []
    scan_range = claims.scan_range

    def spy(lo, hi, rule, limits, **kwargs):
        calls.append((rule.multiplier, lo, hi, limits))
        return scan_range(lo, hi, rule, limits, **kwargs)

    monkeypatch.setattr(claims, "scan_range", spy)
    return calls


def one_by_one(overrides):
    """The report of C1..C7 run one claim at a time, each with its own scans."""
    return ClaimReport(
        results=tuple(run_claim(cid, overrides.get(cid)) for cid, _, _ in list_claims())
    )


class TestSharedScans:
    SAME = {"C1": SMALL_3Z, "C2": SMALL_3Z, "C3": SMALL_5Z, "C4": SMALL_5Z}

    def test_run_all_scans_each_range_once(self, scans):
        report = run_all(self.SAME)
        assert [(q, lo, hi) for q, lo, hi, _ in scans] == [(3, 1, 8191), (5, 1, 8191)]
        assert report.canonical_doc() == one_by_one(self.SAME).canonical_doc()

    def test_claims_with_other_limits_scan_again(self, scans):
        # C2's step budget leaves long 3Z+1 orbits undecided, which a report
        # shared with C1 by range alone would not show
        overrides = {"C1": SMALL_3Z, "C2": dict(SMALL_3Z, max_steps=60), "C4": {"hi": 4095}}
        report = run_claims(["C1", "C2", "C4", "C1"], overrides)
        assert [(q, hi, limits.max_steps) for q, _, hi, limits in scans] == [
            (3, 8191, 10**5), (3, 8191, 60), (5, 4095, 10**5),
        ]
        c2 = report.results[1]
        assert c2.evidence["divergence_candidate_count"] > 0
        assert c2.canonical_doc() == run_claim("C2", overrides["C2"]).canonical_doc()
        assert report.results[3].canonical_doc() == report.results[0].canonical_doc()

    def test_shared_reports_last_one_batch(self, scans):
        run_all(self.SAME)
        scans.clear()
        run_claim("C2", SMALL_3Z)
        run_claims(["C2"], {"C2": SMALL_3Z})
        assert len(scans) == 2
