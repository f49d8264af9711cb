import sys

import pytest


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
