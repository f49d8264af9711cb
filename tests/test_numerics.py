import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from govlab import claims, cli
from govlab.cycles import detect_outcome
from govlab.dynamics import (
    RULE_3Z,
    OrbitLimits,
    Rule,
    governor_trace,
    next_odd,
    odd_orbit,
    orbit,
    rule_for,
)
from govlab.genealogy import (
    ConditionSolution,
    ancestor_tree,
    condition_equation_sides,
    even_ancestor,
    odd_ancestors,
    solve_ancestor_conditions,
)
from govlab.laws import check_closed_form, eval_closed_form, find_promotions
from govlab.numerics import (
    GovernorForm,
    decimal_to_int,
    decompose,
    governor_index,
    int_to_decimal,
    reconstruct,
    require,
    trailing_ones,
    v2,
)
from govlab.scan import CheckpointError, checkpoint_load, scan_range
from helpers import read_checkpoint_doc, write_checkpoint_doc

odd_naturals = st.integers(min_value=0, max_value=(1 << 512) - 1).map(lambda n: 2 * n + 1)


class TestV2:
    def test_examples(self):
        assert v2(12) == 2
        assert v2(1) == 0
        assert v2(2**10) == 10

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            v2(0)

    @given(st.integers(min_value=0, max_value=512), odd_naturals)
    def test_shifted_odd(self, k, u):
        assert v2(u << k) == k


class TestGovernorIndex:
    def test_examples(self):
        assert governor_index(27) == 2
        assert governor_index(7) == 3
        assert governor_index(13) == 1  # 13 = 0b1101, one trailing one
        assert governor_index(1) == 1

    def test_even_rejected(self):
        with pytest.raises(ValueError):
            governor_index(12)
        with pytest.raises(ValueError):
            governor_index(0)

    @given(odd_naturals)
    def test_three_routes_agree(self, x):
        # computational definition, direct bit run count, and string scan
        m = governor_index(x)
        assert m == v2(x + 1)
        assert m == trailing_ones(x)
        assert m == len(bin(x)) - len(bin(x).rstrip("1"))


class TestDecompose:
    def test_examples(self):
        assert decompose(27) == GovernorForm((3, 4), 2)
        assert decompose((1 << 9) - 1) == GovernorForm((), 9)
        assert decompose(11) == GovernorForm((3,), 2)

    def test_even_rejected(self):
        with pytest.raises(ValueError):
            decompose(28)

    @given(odd_naturals)
    def test_roundtrip(self, x):
        assert reconstruct(decompose(x)) == x

    @given(odd_naturals)
    def test_exponent_bound(self, x):
        form = decompose(x)
        if form.high_exponents:
            assert min(form.high_exponents) >= form.governor_index + 1

    @given(odd_naturals)
    @settings(max_examples=50)
    def test_high_exponents_are_the_upper_bits(self, x):
        form = decompose(x)
        rebuilt = sum(1 << e for e in form.high_exponents)
        assert rebuilt == x + 1 - (1 << form.governor_index)


class TestReconstruct:
    def test_examples(self):
        assert reconstruct(GovernorForm((3, 4), 2)) == 27
        assert reconstruct(GovernorForm((), 1)) == 1
        assert reconstruct(GovernorForm((5,), 1)) == 33

    def test_result_is_odd(self):
        assert reconstruct(GovernorForm((10, 20, 31), 4)) % 2 == 1

    def test_form_validation(self):
        with pytest.raises(ValueError):
            GovernorForm((2,), 2)  # high exponent equal to the index
        with pytest.raises(ValueError):
            GovernorForm((5, 4), 2)  # not ascending
        with pytest.raises(ValueError):
            GovernorForm((), 0)  # index must be positive
        with pytest.raises(ValueError):
            GovernorForm((1,), 2)  # high exponent below the index

    @pytest.mark.parametrize(
        "highs, index, message",
        [
            ((3, True), 2, "must be an integer >= 4, got True"),
            ((3, 4.0), 2, "must be an integer >= 4, got 4.0"),
            ((3, 3), 2, "must be an integer >= 4, got 3"),  # repeated
            ((3, 5, 4), 2, "must be an integer >= 6, got 4"),  # descending
            ((2, 5), 2, "must be an integer >= 3, got 2"),  # equal to the index
            ((1,), 2, "must be an integer >= 3, got 1"),  # below the index
            ((5, "6"), 2, "must be an integer >= 6, got '6'"),
        ],
        ids=["bool", "float", "repeated", "descending", "at-index", "below-index", "str"],
    )
    def test_rejected_exponent_is_named_with_its_bound(self, highs, index, message):
        # the one-pass check of the common case falls back to the loop that
        # names the first exponent out of order
        with pytest.raises(ValueError) as exc:
            GovernorForm(highs, index)
        assert str(exc.value) == f"GovernorForm high exponent {message}"


class TestTrailingOnes:
    def test_even_value(self):
        assert trailing_ones(8) == 0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            trailing_ones(0)


class TestDecimalStrings:
    def test_exact_past_the_digit_cap(self, least_digit_cap):
        rng = random.Random(7)
        values = [0, 1, -1, 10**600, 10**600 - 1, 2**1993, 2**1994, -(10**5000)]
        widths = [rng.randrange(1, 80000) for _ in range(60)]
        values += [rng.choice((1, -1)) * rng.getrandbits(w) for w in widths]
        texts = [int_to_decimal(v) for v in values]
        assert [decimal_to_int(t) for t in texts] == values
        with pytest.raises(ValueError):
            str(10**700)  # the cap holds: the helpers did not lift it
        assert sys.get_int_max_str_digits() == 640
        sys.set_int_max_str_digits(0)
        assert texts == [str(v) for v in values]
        assert [int(t) for t in texts] == values

    @given(st.integers(min_value=-(10**1500), max_value=10**1500))
    def test_round_trip(self, v):
        assert decimal_to_int(int_to_decimal(v)) == v

    @pytest.mark.parametrize(
        "text",
        ["", "-", "12.5", "0x1f", "1" * 5000 + "x", "1" * 3000 + " 1" * 1000, "--" + "1" * 5000,
         float("nan"), 42, 5.9, 1.0, True, b"12",
         # int() reads these, but int_to_decimal writes none of them
         " -7 ", "+3", "1_000", "007", "-0"],
    )
    def test_rejects_what_is_not_a_decimal_integer(self, text):
        with pytest.raises(ValueError):
            decimal_to_int(text)


class TestRequire:
    def test_returns_a_valid_value(self):
        assert require(1, "x") == 1
        assert require(7, "x", 7, odd=True) == 7
        assert require(-4, "x", -10) == -4

    @pytest.mark.parametrize(
        "value,minimum,odd,shown",
        [(0, 1, False, "0"), (4, 1, True, "4"), (3, 5, True, "3"), (True, 1, False, "True"),
         (3.0, 1, False, "3.0"), ("7", 1, False, "'7'"), (None, 1, False, "None"),
         ([7], 1, False, "a value of type list")],
    )
    def test_message_names_what_and_shows_value_and_minimum(self, value, minimum, odd, shown):
        with pytest.raises(ValueError) as exc:
            require(value, "thing", minimum, odd)
        kind = "an odd integer" if odd else "an integer"
        assert str(exc.value) == f"thing must be {kind} >= {minimum}, got {shown}"

    def test_maximum(self):
        assert require(5, "x", maximum=5) == 5
        with pytest.raises(ValueError) as exc:
            require(6, "thing", 2, maximum=5)
        assert str(exc.value) == "thing must be an integer in 2..5, got 6"


HUGE = 10**5000
HUGE_LO = HUGE + 1  # the least scan bound of the 5000-digit case
LIMITS = OrbitLimits(10, 64)

# (name in the message, minimum, odd, call with the checked value): every
# entry point whose checks go through require, one row per checked argument
ENTRY_POINTS = [
    ("v2 x", 1, False, v2),
    ("governor_index x", 1, True, governor_index),
    ("GovernorForm governor_index", 1, False, lambda v: GovernorForm((), v)),
    ("GovernorForm high exponent", 3, False, lambda v: GovernorForm((v,), 2)),
    ("decompose x", 1, True, decompose),
    ("trailing_ones x", 1, False, trailing_ones),
    ("Rule multiplier", 3, True, lambda v: Rule(v, (1, 4, 2))),
    ("rule_for multiplier", 1, False, rule_for),
    ("next_odd x", 1, True, lambda v: next_odd(v, RULE_3Z)),
    ("odd_orbit seed", 1, True, lambda v: next(odd_orbit(v, RULE_3Z))),
    ("OrbitLimits max_steps", 1, False, lambda v: OrbitLimits(v, 64)),
    ("OrbitLimits max_value_bits", 1, False, lambda v: OrbitLimits(10, v)),
    ("orbit seed", 1, True, lambda v: orbit(v, RULE_3Z, LIMITS)),
    ("governor_trace seed", 1, True, lambda v: governor_trace(v, RULE_3Z, 3)),
    ("governor_trace n_odd", 1, False, lambda v: governor_trace(27, RULE_3Z, v)),
    ("T1_3Z parameter m", 4, False, lambda v: eval_closed_form("T1_3Z", v)),
    ("T1_3Z parameter m", 4, False, lambda v: check_closed_form("T1_3Z", v, 6, RULE_3Z)),
    ("T1_3Z parameter m", 4, False, lambda v: check_closed_form("T1_3Z", 4, v, RULE_3Z)),
    ("find_promotions seed", 1, True, lambda v: find_promotions(v, RULE_3Z, 5)),
    ("find_promotions horizon", 1, False, lambda v: find_promotions(27, RULE_3Z, v)),
    ("even_ancestor x", 1, True, lambda v: even_ancestor(v, 3)),
    ("even_ancestor i", 1, False, lambda v: even_ancestor(5, v)),
    ("odd_ancestors x", 1, True, lambda v: odd_ancestors(v, RULE_3Z, 8)),
    ("odd_ancestors max_doublings", 1, False, lambda v: odd_ancestors(5, RULE_3Z, v)),
    ("ancestor_tree depth", 1, False, lambda v: ancestor_tree(5, RULE_3Z, v, 8)),
    ("condition_equation_sides mu", 1, False,
     lambda v: condition_equation_sides(RULE_3Z, ConditionSolution(1, v, 1))),
    ("solve_ancestor_conditions mu_max", 1, False, lambda v: solve_ancestor_conditions(RULE_3Z, v, 8)),
    ("solve_ancestor_conditions i_max", 1, False, lambda v: solve_ancestor_conditions(RULE_3Z, 8, v)),
    ("detect_outcome seed", 1, True, lambda v: detect_outcome(v, RULE_3Z, LIMITS)),
    ("scan_range lo", 1, True, lambda v: scan_range(v, HUGE_LO, RULE_3Z, LIMITS)),
    ("scan_range hi", HUGE_LO, True, lambda v: scan_range(HUGE_LO, v, RULE_3Z, LIMITS)),
    ("scan_range chunk_size", 1, False, lambda v: scan_range(1, 9, RULE_3Z, LIMITS, chunk_size=v)),
    ("scan_range workers", 1, False, lambda v: scan_range(1, 9, RULE_3Z, LIMITS, v)),
    ("C5 parameter a", 4, False, lambda v: claims.run_claim("C5", {"a": v})),
    ("C6 parameter placeholder_exponent", 12, False,
     lambda v: claims.run_claim("C6", {"placeholder_exponent": v})),
]


def _invalid_values(minimum, odd):
    """Below the minimum, even where odd is required, a bool, a float, and
    a 5000-digit value: even where odd is required, else far below."""
    values = [minimum - 2 if odd else minimum - 1]
    if odd:
        values.append(minimum + 1)
    values += [True, 3.0, 2 * HUGE if odd else -HUGE]
    return values


def _entry_point_cases():
    names = []  # a name checked by n earlier rows gets the suffix " n" in its ids
    for what, minimum, odd, call in ENTRY_POINTS:
        name = f"{what} {names.count(what)}" if what in names else what
        names.append(what)
        for i, value in enumerate(_invalid_values(minimum, odd)):
            yield pytest.param(what, call, value, id=f"{name}-{type(value).__name__}-{i}")


@pytest.mark.parametrize("what,call,value", list(_entry_point_cases()))
def test_entry_points_reject_invalid_values_by_name(least_digit_cap, what, call, value):
    with pytest.raises(ValueError) as exc:
        call(value)
    message = str(exc.value)
    # a bool or a float for C5 or C6 stops in check_overrides, which names
    # the parameter the same way
    assert what in message
    shown = int_to_decimal(value) if type(value) is int else repr(value)
    assert message.endswith(f"got {shown}")


# every entry point that hands a count to islice, whose stop is at most
# sys.maxsize: (name in the message, the largest count, call with the count)
COUNT_ENTRY_POINTS = [
    ("governor_trace n_odd", sys.maxsize, lambda v: governor_trace(27, RULE_3Z, v)),
    ("find_promotions horizon", sys.maxsize - 1, lambda v: find_promotions(27, RULE_3Z, v)),
    ("C5 parameter horizon", sys.maxsize - 1, lambda v: claims.run_claim("C5", {"horizon": v})),
]


@pytest.mark.parametrize("what,largest,call", COUNT_ENTRY_POINTS)
@pytest.mark.parametrize("past", [1, 10**20])
def test_counts_past_sys_maxsize_are_rejected_by_name(what, largest, call, past):
    value = largest + past
    with pytest.raises(ValueError) as exc:
        call(value)
    assert str(exc.value) == f"{what} must be an integer in 1..{largest}, got {value}"


@pytest.mark.parametrize(
    "overrides,message",
    [
        ({"C1": [HUGE]}, "parameters for C1 must be an object, got a value of type list"),
        ({"C1": {"hi": [HUGE]}}, "C1 parameter hi must be an integer, got a value of type list"),
    ],
)
def test_overrides_holding_huge_ints_are_described_by_type(least_digit_cap, overrides, message):
    # a container is shown by its type, so no int inside it meets the digit cap
    with pytest.raises(ValueError) as exc:
        claims.check_overrides(overrides)
    assert str(exc.value) == message


def test_checkpoint_with_huge_bounds_reports_its_bad_chunk(least_digit_cap, tmp_path, capsys):
    path = tmp_path / "huge.json"
    scan_range(HUGE_LO, HUGE_LO + 14, RULE_3Z, LIMITS, chunk_size=4, checkpoint_path=str(path))
    doc = read_checkpoint_doc(path)
    # every seed passes the 64-bit value cap, so each is a candidate
    doc["chunks"][1]["candidates"][0] = int_to_decimal(HUGE_LO - 2)
    write_checkpoint_doc(path, doc)
    bounds = f"{int_to_decimal(HUGE_LO + 8)}:{int_to_decimal(HUGE_LO + 14)}"
    message = (
        f"corrupt checkpoint {path}: chunk 1 candidates are not ascending odd seeds in {bounds}"
    )
    with pytest.raises(CheckpointError) as exc:
        checkpoint_load(str(path))
    assert str(exc.value) == message
    with pytest.raises(CheckpointError) as exc:
        scan_range(HUGE_LO, HUGE_LO + 14, RULE_3Z, LIMITS, chunk_size=4, checkpoint_path=str(path))
    assert str(exc.value) == message
    code = cli.main([
        "scan", "--rule", "3", "--odd-range",
        f"{int_to_decimal(HUGE_LO)}:{int_to_decimal(HUGE_LO + 14)}",
        "--step-limit", "10", "--value-limit-bits", "64", "--chunk-size", "4",
        "--checkpoint", str(path),
    ])
    out, err = capsys.readouterr()
    assert (code, out, err) == (cli.EXIT_IO, "", f"govlab: {message}\n")
