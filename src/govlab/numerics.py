"""Trailing-ones decomposition of odd integers, 2-adic valuation primitives,
exact int <-> decimal string conversion at any length, and the one integer
precondition of the package.

Every odd integer x splits uniquely as

    x = sum(2**M for M in high_exponents) + 2**m - 1

where m is the length of the maximal run of trailing one-bits (the governor
index) and every high exponent is strictly above m.  All arithmetic is exact;
Python ints carry arbitrary precision, so no width limits apply anywhere.

Every entry point of the package that takes a count, a bound or an odd value
checks it with require, which rejects anything but an int (bool included) at
or above a minimum, at or below a maximum where one is given, and odd where
asked, and shows the rejected value exactly at any length.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import lt


def v2(x: int) -> int:
    """2-adic valuation: exponent of the largest power of 2 dividing x (x >= 1)."""
    require(x, "v2 x")
    return (x & -x).bit_length() - 1


# CPython caps int <-> decimal str conversion at 4300 digits by default, and
# at no fewer than 640; pieces this long convert under any cap
_PIECE_DIGITS = 600
_PIECE_BITS = 1993  # 2^1993 < 10^600
# the decimal strings int_to_decimal writes
_DECIMAL = re.compile("0|-?[1-9][0-9]*")


def int_to_decimal(x: int) -> str:
    """str(x) at any length, without touching the interpreter's digit cap.

    A value too long for one conversion is split at a power of ten and its
    halves are converted on their own.
    """
    if x.bit_length() <= _PIECE_BITS:
        return str(x)
    if x < 0:
        return "-" + int_to_decimal(-x)
    k = x.bit_length() * 3 // 20  # about half of x's digits (log10 2 > 3/10)
    high, low = divmod(x, 10**k)
    return int_to_decimal(high) + int_to_decimal(low).zfill(k)


def decimal_to_int(text: str) -> int:
    """The int that int_to_decimal writes as text, at any length and under
    any digit cap.

    Only that canonical form is read: ASCII digits with no leading zero,
    after a minus sign for a negative value.  Any other str, and a value
    that is not a str, raises ValueError.
    """
    if not (isinstance(text, str) and _DECIMAL.fullmatch(text)):
        shown = show(text[:40] if isinstance(text, str) else text)  # a prefix of a long str
        raise ValueError(f"not a canonical decimal integer: {shown}")
    return -_digits_to_int(text[1:]) if text[0] == "-" else _digits_to_int(text)


def _digits_to_int(digits: str) -> int:
    if len(digits) <= _PIECE_DIGITS:
        return int(digits)
    k = len(digits) // 2
    return _digits_to_int(digits[:-k]) * 10**k + _digits_to_int(digits[-k:])


def show(value: object) -> str:
    """An int in exact decimal at any length (a bool as True or False), a
    str, float or None by repr, and any other value by its type name, so
    that no int inside a container is converted."""
    if isinstance(value, int):
        return int_to_decimal(value)
    if value is None or isinstance(value, (str, float)):
        return repr(value)
    return f"a value of type {type(value).__name__}"


def require(
    value: object, what: str, minimum: int = 1, odd: bool = False, maximum: int | None = None
) -> int:
    """Return value if it is an int, not a bool, at least minimum, at most
    maximum when one is given, and odd when odd is set; else raise
    ValueError naming what."""
    top = value if maximum is None else maximum
    if type(value) is int and minimum <= value <= top and (value & 1 or not odd):
        return value
    kind = "an odd integer" if odd else "an integer"
    bound = f">= {int_to_decimal(minimum)}"
    if maximum is not None:
        bound = f"in {int_to_decimal(minimum)}..{int_to_decimal(maximum)}"
    raise ValueError(f"{what} must be {kind} {bound}, got {show(value)}")


def governor_index(x: int) -> int:
    """Length of the maximal trailing run of one-bits of odd x.

    Computed as v2(x + 1), which equals the trailing-ones count: the run of
    ones carries into a single power of two when 1 is added.
    """
    require(x, "governor_index x", odd=True)
    return v2(x + 1)


@dataclass(frozen=True)
class GovernorForm:
    """Canonical decomposition of an odd integer.

    high_exponents: strictly ascending bit positions above the trailing run.
    governor_index: length m of the trailing run of one-bits (m >= 1).
    """

    high_exponents: tuple[int, ...]
    governor_index: int

    def __post_init__(self) -> None:
        prev = require(self.governor_index, "GovernorForm governor_index")
        highs = self.high_exponents
        # the common case in one pass: ints (no bool), strictly ascending
        # from above the index; the loop below runs only to raise
        if {*map(type, highs)} <= {int} and all(map(lt, (prev, *highs), highs)):
            return
        for e in highs:
            prev = require(e, "GovernorForm high exponent", prev + 1)


def decompose(x: int) -> GovernorForm:
    """Split odd x into its high bit positions and trailing-ones length.

    The bits of x + 1 are exactly {m} plus the high exponents of x, so the
    decomposition falls out of one increment: its lowest set bit is 2^m, the
    rest are the high exponents.
    """
    require(x, "decompose x", odd=True)
    # the set positions of x + 1, read from its binary digits lowest first
    m, *highs = [i for i, b in enumerate(bin(x + 1)[:1:-1]) if b == "1"]
    return GovernorForm(high_exponents=tuple(highs), governor_index=m)


def reconstruct(form: GovernorForm) -> int:
    """Rebuild the odd integer sum(2^M) + 2^m - 1 from its decomposition."""
    x = (1 << form.governor_index) - 1
    for e in form.high_exponents:
        x += 1 << e
    return x


def trailing_ones(x: int) -> int:
    """Count trailing one-bits of x by direct bit inspection (x >= 1).

    Independent of governor_index; kept as the cross-check route for the
    identity m = v2(x + 1).
    """
    require(x, "trailing_ones x")
    n = 0
    while x & 1:
        n += 1
        x >>= 1
    return n
