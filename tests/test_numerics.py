import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from govlab.numerics import (
    GovernorForm,
    decimal_to_int,
    decompose,
    governor_index,
    int_to_decimal,
    reconstruct,
    trailing_ones,
    v2,
)

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


class TestTrailingOnes:
    def test_even_value(self):
        assert trailing_ones(8) == 0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            trailing_ones(0)


@pytest.fixture
def least_digit_cap():
    """Sets this process's cap on int <-> str conversion to 640 digits, the
    least CPython allows, for the test; restores it afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):  # Python 3.10.0-3.10.6
        pytest.skip("this interpreter has no cap on int <-> str conversion")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(before)


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

    def test_parses_what_int_parses(self):
        for text in ("12", " -7 ", "+3", "1_000", 42):
            assert decimal_to_int(text) == int(text)

    @pytest.mark.parametrize(
        "text",
        ["", "-", "12.5", "0x1f", "1" * 5000 + "x", "1" * 3000 + " 1" * 1000, "--" + "1" * 5000,
         float("nan")],
    )
    def test_rejects_what_is_not_a_decimal_integer(self, text):
        with pytest.raises(ValueError):
            decimal_to_int(text)
