import dataclasses
from itertools import islice

import pytest
from hypothesis import given
from hypothesis import strategies as st

from govlab.dynamics import (
    RULE_3Z,
    RULE_5Z,
    OrbitLimits,
    Rule,
    StepKind,
    TerminationKind,
    even_step,
    governor_trace,
    next_odd,
    odd_orbit,
    odd_step,
    orbit,
    orbit_values,
    rule_for,
    step_kind_of,
)
from govlab.laws import (
    CLOSED_FORM_FAMILIES,
    check_closed_form,
    eval_closed_form,
    find_promotions,
    verify_descent,
)
from govlab.numerics import governor_index, v2

odd_values = st.integers(min_value=0, max_value=(1 << 256) - 1).map(lambda n: 2 * n + 1)
rules = st.sampled_from([RULE_3Z, RULE_5Z])

GENEROUS = OrbitLimits(max_steps=10**6, max_value_bits=4096)


def mersenne_rule(j: int) -> Rule:
    """(2^j - 1)Z+1, whose trivial cycle is 1, 2^j, 2^(j-1), ..., 2."""
    return Rule((1 << j) - 1, (1, *(1 << i for i in range(j, 0, -1))))


RULE_7Z = mersenne_rule(3)


class TestRule:
    def test_constants(self):
        assert RULE_3Z.trivial_cycle == (1, 4, 2)
        assert RULE_3Z.trivial_indices == frozenset({1})
        assert RULE_3Z.descent_delta == 1
        assert RULE_5Z.trivial_cycle == (1, 6, 3, 16, 8, 4, 2)
        assert RULE_5Z.trivial_indices == frozenset({1, 2})
        assert RULE_5Z.descent_delta == 2

    def test_lookup(self):
        assert rule_for(3) is RULE_3Z
        assert rule_for(5) is RULE_5Z
        with pytest.raises(ValueError):
            rule_for(7)

    def test_cycle_replay_validation(self):
        with pytest.raises(ValueError):
            Rule(3, (1, 4, 3))
        with pytest.raises(ValueError):
            Rule(4, (1, 4, 2))

    def test_repeated_trivial_member_rejected(self):
        # the doubled 3Z+1 cycle steps closed, but a cycle lists each member once
        with pytest.raises(ValueError, match="cycle members must be distinct"):
            Rule(3, (1, 4, 2, 1, 4, 2))


class TestReplay:
    @given(odd_values, rules, st.integers(min_value=0, max_value=40))
    def test_parity_word_replays_the_steps(self, x, rule, n):
        values = [x]
        for _ in range(n):
            values.append(rule.step(values[-1]))
        word = "".join(step_kind_of(v).value for v in values[:-1])
        assert rule.replay(x, word) == (values[-1], None)

    def test_broken_is_the_first_value_against_its_step(self):
        # 7 takes O to 22 and E to 11; the next E meets odd 11 and floors it
        # to 5, and the last E meets odd 5 too, but only 11 is named
        assert RULE_3Z.replay(7, "OEEE") == (2, 11)
        assert RULE_3Z.replay(8, "O") == (25, 8)
        assert RULE_3Z.replay(7, "") == (7, None)


class TestSteps:
    def test_odd_step_examples(self):
        assert odd_step(7, RULE_3Z) == 22
        assert odd_step(1, RULE_3Z) == 4
        assert odd_step(9, RULE_5Z) == 46

    def test_even_step_examples(self):
        assert even_step(22) == 11
        assert even_step(4) == 2
        assert even_step(46) == 23

    def test_parity_guards(self):
        with pytest.raises(ValueError):
            odd_step(4, RULE_3Z)
        with pytest.raises(ValueError):
            even_step(7)

    @given(odd_values, rules)
    def test_odd_step_result_even(self, x, rule):
        assert odd_step(x, rule) % 2 == 0


class TestNextOdd:
    def test_examples(self):
        assert next_odd(7, RULE_3Z) == (11, 1)
        assert next_odd(1, RULE_3Z) == (1, 2)
        assert next_odd(35, RULE_5Z) == (11, 4)

    @given(odd_values, rules)
    def test_consistent_with_single_steps(self, x, rule):
        u, k = next_odd(x, rule)
        cur = odd_step(x, rule)
        for _ in range(k):
            cur = even_step(cur)
        assert cur == u
        assert u % 2 == 1
        assert k == v2(odd_step(x, rule))


class TestOddOrbit:
    def test_examples(self):
        assert list(islice(odd_orbit(7, RULE_3Z), 4)) == [(7, 0), (11, 1), (17, 1), (13, 2)]
        assert list(orbit_values([(7, 0), (11, 1), (17, 1)])) == [7, 22, 11, 34, 17]

    @given(odd_values, rules, st.integers(min_value=1, max_value=400))
    def test_matches_the_oracle_while_it_runs(self, x, rule, max_steps):
        values = [v for v, _ in orbit(x, rule, OrbitLimits(max_steps, 4096)).steps]
        odds = [v for v in values if v % 2]
        pairs = list(islice(odd_orbit(x, rule), len(odds)))
        assert [v for v, _ in pairs] == odds
        # the oracle's step prefix up to its last odd value
        last = max(i for i, v in enumerate(values) if v % 2)
        assert list(orbit_values(pairs)) == values[: last + 1]


class TestOrbit:
    def test_reaches_trivial(self):
        trace = orbit(27, RULE_3Z, GENEROUS)
        assert trace.termination.kind is TerminationKind.REACHED_TRIVIAL_CYCLE
        assert trace.steps[-1][0] in RULE_3Z.trivial_members

    def test_trace_step_consistency(self):
        trace = orbit(27, RULE_3Z, GENEROUS)
        values = [v for v, _ in trace.steps]
        for a, b in zip(values, values[1:]):
            assert b == (3 * a + 1 if a % 2 else a // 2)
        for v, kind in trace.steps:
            assert kind is (StepKind.O if v % 2 else StepKind.E)
        odd_seen = [(v, governor_index(v)) for v, _ in trace.steps if v % 2]
        assert list(trace.odd_governors) == odd_seen

    def test_enters_cycle(self):
        trace = orbit(13, RULE_5Z, GENEROUS)
        assert trace.termination.kind is TerminationKind.ENTERED_CYCLE
        odds = {v for v in trace.termination.cycle_members if v % 2}
        assert odds == {13, 33, 83}

    def test_value_limit(self):
        trace = orbit(7, RULE_5Z, OrbitLimits(max_steps=10**6, max_value_bits=64))
        assert trace.termination.kind is TerminationKind.VALUE_LIMIT
        assert trace.steps[-1][0].bit_length() > 64

    def test_step_limit(self):
        trace = orbit(27, RULE_3Z, OrbitLimits(max_steps=5, max_value_bits=4096))
        assert trace.termination.kind is TerminationKind.STEP_LIMIT
        assert len(trace.steps) == 6

    def test_trivial_member_seed_stops_immediately(self):
        trace = orbit(1, RULE_3Z, GENEROUS)
        assert trace.termination.kind is TerminationKind.REACHED_TRIVIAL_CYCLE
        assert trace.steps == ((1, StepKind.O),)

    def test_determinism(self):
        a = orbit(97, RULE_5Z, OrbitLimits(max_steps=500, max_value_bits=80))
        b = orbit(97, RULE_5Z, OrbitLimits(max_steps=500, max_value_bits=80))
        assert a == b

    def test_even_seed_rejected(self):
        with pytest.raises(ValueError):
            orbit(28, RULE_3Z, GENEROUS)


class TestGovernorTrace:
    def test_examples(self):
        assert governor_trace(63, RULE_3Z, 6) == [6, 5, 4, 3, 2, 1]
        assert governor_trace((1 << 9) - 1, RULE_5Z, 4) == [9, 7, 5, 3]
        assert governor_trace(1, RULE_3Z, 3) == [1, 1, 1]

    def test_length(self):
        assert len(governor_trace(9, RULE_5Z, 25)) == 25


class TestDescent:
    def test_examples(self):
        chk = verify_descent(27, RULE_3Z)
        assert (chk.expected_index, chk.observed_index, chk.passed) == (1, 1, True)
        chk = verify_descent(7, RULE_3Z)
        assert (chk.expected_index, chk.observed_index, chk.passed) == (2, 2, True)
        chk = verify_descent(127, RULE_5Z)
        assert (chk.expected_index, chk.observed_index, chk.passed) == (5, 5, True)
        assert chk.observed_even_steps == 2

    def test_precondition(self):
        with pytest.raises(ValueError):
            verify_descent(1, RULE_3Z)  # index 1 is trivial for 3Z+1
        with pytest.raises(ValueError):
            verify_descent(3, RULE_5Z)  # index 2 is trivial for 5Z+1

    @given(odd_values)
    def test_exact_descent_3z(self, x):
        if governor_index(x) >= 2:
            assert verify_descent(x, RULE_3Z).passed

    @given(odd_values)
    def test_exact_descent_5z(self, x):
        if governor_index(x) >= 3:
            assert verify_descent(x, RULE_5Z).passed

    @pytest.mark.parametrize("x", [7, 15, 31, 63, 1023])
    def test_7z_index_falls_to_v2_of_r_minus_1(self, x):
        # 7 - 1 = 2 * 3: one even step, then index min(m - 1, v2(3 - 1)) = 1,
        # not m - 1
        chk = verify_descent(x, RULE_7Z)
        assert (chk.expected_index, chk.observed_index, chk.index_exact) == (1, 1, True)
        assert chk.observed_even_steps == 1 and chk.passed

    def test_7z_tie_is_a_lower_bound(self):
        # at index 2, m - 1 = 1 = v2(3 - 1): 11 -> 78 -> 39 has index 3
        chk = verify_descent(11, RULE_7Z)
        assert (chk.expected_index, chk.observed_index, chk.index_exact) == (1, 3, False)
        assert chk.passed

    @given(st.sampled_from([2, 3, 4, 5, 8]), odd_values)
    def test_law_matches_next_odd_for_mersenne_multipliers(self, j, x):
        # q = 2^j - 1 has d = 1 and r = 2^(j-1) - 1, so v2(r - 1) = 1 for
        # j > 2: the next index is 1, or at least 1 at index 2
        rule = mersenne_rule(j)
        if governor_index(x) >= 2:
            chk = verify_descent(x, rule)
            assert chk.passed
            assert chk.expected_even_steps == 1 == v2(rule.multiplier * x + 1)

    @given(st.integers(min_value=3, max_value=256))
    def test_two_even_steps_after_trivial_form_3z(self, p):
        # from 2^P + 1 the odd step is followed by exactly two even steps
        assert v2(odd_step((1 << p) + 1, RULE_3Z)) == 2


class TestClosedForms:
    def test_eval_examples(self):
        assert dict(eval_closed_form("T1_3Z", 7))["E{3}"] == 431
        assert dict(eval_closed_form("T2_3Z", 5))["E^(2){m}"] == 25
        assert dict(eval_closed_form("T2_5Z_EVEN", 5))["E^(4){m/2}"] == 11

    def test_x_row_matches_param(self):
        assert dict(eval_closed_form("T1_5Z", 9))["X"] == (1 << 9) - 1
        assert dict(eval_closed_form("T2_5Z_EVEN", 8))["X"] == (1 << 8) + 3

    def test_range_rejection(self):
        for name, fam in CLOSED_FORM_FAMILIES.items():
            with pytest.raises(ValueError):
                eval_closed_form(name, fam.param_min - 1)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            eval_closed_form("T9_7Z", 10)

    def test_unknown_family_same_error_everywhere(self):
        # both entry points look the family up one way and list the known ones
        errors = []
        for call in (lambda: eval_closed_form("T9_7Z", 10),
                     lambda: check_closed_form("T9_7Z", 1, 2, RULE_3Z)):
            with pytest.raises(ValueError, match="known: ") as exc:
                call()
            errors.append(str(exc.value))
        assert errors[0] == errors[1]
        assert all(name in errors[0] for name in CLOSED_FORM_FAMILIES)

    @pytest.mark.parametrize(
        "family,lo,hi,rule",
        [
            ("T1_3Z", 5, 64, RULE_3Z),
            ("T1_5Z", 5, 64, RULE_5Z),
            ("T2_3Z", 3, 64, RULE_3Z),
            ("T2_5Z_ODD", 3, 64, RULE_5Z),
            ("T2_5Z_EVEN", 5, 64, RULE_5Z),
        ],
    )
    def test_no_mismatches_on_validity_range(self, family, lo, hi, rule):
        assert check_closed_form(family, lo, hi, rule) == []

    def test_empty_range_rejected(self):
        # param_hi below param_lo would check nothing and report the formulas exact
        with pytest.raises(ValueError, match="T1_3Z parameter m must be an integer >= 10, got 5"):
            check_closed_form("T1_3Z", 10, 5, RULE_3Z)

    def test_rule_pairing_enforced(self):
        with pytest.raises(ValueError):
            check_closed_form("T1_3Z", 5, 10, RULE_5Z)

    def test_mismatches_are_reported_with_their_reason(self, monkeypatch):
        fam = CLOSED_FORM_FAMILIES["T1_3Z"]

        def patched(row, **changes):
            def build(m):
                rows = fam.row_builder(m)
                rows[row] = dataclasses.replace(rows[row], **changes)
                return rows
            return dataclasses.replace(fam, row_builder=build)

        # E{1} predicts one more than the steps give
        e1 = fam.row_builder(5)[2].value
        monkeypatch.setitem(CLOSED_FORM_FAMILIES, "T1_3Z", patched(2, value=e1 + 1))
        found = check_closed_form("T1_3Z", 5, 5, RULE_3Z)
        assert [(f.param, f.label, f.predicted, f.actual, f.reason) for f in found] == [
            (5, "E{1}", e1 + 1, e1, "value")
        ]
        # O{1} claims an even step, but the X row 2^m - 1 is odd
        monkeypatch.setitem(CLOSED_FORM_FAMILIES, "T1_3Z", patched(1, steps="E"))
        found = check_closed_form("T1_3Z", 5, 6, RULE_3Z)
        assert [(f.param, f.label, f.actual, f.reason) for f in found] == [
            (m, "O{1}", (1 << m) - 1,
             f"row expects an E step but the value {(1 << m) - 1} takes an O step")
            for m in (5, 6)
        ]


class TestPromotions:
    def test_construction_witness(self):
        promos = find_promotions(27, RULE_3Z, 5)
        assert any(
            p.source == 41 and p.target == 31 and p.old_index == 1 and p.new_index == 5
            for p in promos
        )

    def test_pure_descent_has_none(self):
        assert find_promotions((1 << 20) - 1, RULE_3Z, 19) == []

    def test_trivial_cycle_has_none(self):
        assert find_promotions(1, RULE_3Z, 10) == []
