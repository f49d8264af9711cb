"""The paper's laws over qZ+1 orbits: the descent law, the closed-form
tables and promotions.

Tracking the governor index (trailing-ones length) of each odd value exposes
the descent law.  Write an odd x of index m as 2^m*y - 1 with y odd, and
q - 1 = 2^d*r with r odd.  For m > d, q*x + 1 = 2^d*(q*2^(m-d)*y - r), so
the transition takes exactly d even steps, and the next odd value
q*2^(m-d)*y - r has index v2(q*2^(m-d)*y - (r - 1)): m - d when r = 1
(3Z+1, 5Z+1), else min(m - d, v2(r - 1)) when those two differ, and at
least m - d when they are equal.
The closed-form families state the first rows of an orbit as exponent
formulas, checked here by replaying their step words; a promotion is a
transition whose index rises instead.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from itertools import islice, pairwise

from .dynamics import Rule, next_odd, odd_orbit
from .numerics import governor_index, int_to_decimal, require, v2


@dataclass(frozen=True)
class DescentCheck:
    """Result of auditing one odd-to-odd transition against the descent law.

    index_exact is False when the law only bounds the next index from
    below, by expected_index; passed then asks observed_index to reach it.
    """

    start: int
    start_index: int
    expected_index: int
    observed_index: int
    expected_even_steps: int
    observed_even_steps: int
    passed: bool
    index_exact: bool = True


def verify_descent(x: int, rule: Rule) -> DescentCheck:
    """Check the descent law at odd x with index m above the trivial range
    and above d = v2(q - 1).

    The next odd value must come after exactly d even steps.  With q - 1 =
    2^d*r, r odd, its index must be m - d when r = 1 (3Z+1: m - 1 after one
    even step; 5Z+1: m - 2 after two), else min(m - d, v2(r - 1)) when those
    differ, and at least m - d when they are equal.
    """
    m = governor_index(x)
    if m <= max(rule.trivial_indices):
        raise ValueError(
            f"descent law applies only above the trivial range: index {m} of "
            f"{int_to_decimal(x)} is within {sorted(rule.trivial_indices)}"
        )
    d = rule.descent_delta
    if m <= d:
        raise ValueError(
            f"descent law applies only above v2(q - 1) = {d}: index {m} of {int_to_decimal(x)}"
        )
    r = (rule.multiplier - 1) >> d
    expected, exact = m - d, True
    if r > 1:
        e = v2(r - 1)
        if e == expected:
            exact = False
        else:
            expected = min(expected, e)
    nxt, k = next_odd(x, rule)
    observed = governor_index(nxt)
    return DescentCheck(
        start=x,
        start_index=m,
        expected_index=expected,
        observed_index=observed,
        expected_even_steps=d,
        observed_even_steps=k,
        passed=(observed == expected if exact else observed >= expected) and k == d,
        index_exact=exact,
    )


# ---------------------------------------------------------------------------
# Closed-form families
# ---------------------------------------------------------------------------
#
# Each family gives the first rows of an orbit as exponent formulas in one
# parameter.  T1 families start from the all-ones value 2^m - 1 and exhibit
# pure descent; T2 families start from a trivial-governor value carrying one
# higher term 2^P and show how that term interacts.  The minimum parameter
# below is where the formulas stop colliding term-wise; smaller parameters
# are rejected rather than silently mis-verified.


@dataclass(frozen=True)
class ClosedFormRow:
    """One family row: the value predicted after replaying the O/E word
    steps from the previous row's value (steps is empty for the X row)."""

    label: str
    value: int
    steps: str = ""


@dataclass(frozen=True)
class ClosedFormFamily:
    name: str
    multiplier: int  # of the rule whose steps the rows take
    param_name: str
    param_min: int
    row_builder: object = field(repr=False)

    def rows(self, param: int) -> list[ClosedFormRow]:
        require(param, f"{self.name} parameter {self.param_name}", self.param_min)
        return self.row_builder(param)  # type: ignore[operator]


def _t1_3z(m: int) -> list[ClosedFormRow]:
    return [
        ClosedFormRow("X", (1 << m) - 1),
        ClosedFormRow("O{1}", (1 << (m + 1)) + (1 << m) - 2, "O"),
        ClosedFormRow("E{1}", (1 << m) + (1 << (m - 1)) - 1, "E"),
        ClosedFormRow("O{2}", (1 << (m + 2)) + (1 << (m - 1)) - 2, "O"),
        ClosedFormRow("E{2}", (1 << (m + 1)) + (1 << (m - 2)) - 1, "E"),
        ClosedFormRow(
            "O{3}",
            (1 << (m + 2)) + (1 << (m + 1)) + (1 << (m - 1)) + (1 << (m - 2)) - 2,
            "O",
        ),
        ClosedFormRow(
            "E{3}",
            (1 << (m + 1)) + (1 << m) + (1 << (m - 2)) + (1 << (m - 3)) - 1,
            "E",
        ),
    ]


def _t1_5z(m: int) -> list[ClosedFormRow]:
    return [
        ClosedFormRow("X", (1 << m) - 1),
        ClosedFormRow("O{1}", (1 << (m + 2)) + (1 << m) - 4, "O"),
        ClosedFormRow("E^(1){1}", (1 << (m + 1)) + (1 << (m - 1)) - 2, "E"),
        ClosedFormRow("E^(2){1}", (1 << m) + (1 << (m - 2)) - 1, "E"),
        ClosedFormRow("O{2}", (1 << (m + 2)) + (1 << (m + 1)) + (1 << (m - 2)) - 4, "O"),
        ClosedFormRow("E^(1){2}", (1 << (m + 1)) + (1 << m) + (1 << (m - 3)) - 2, "E"),
        ClosedFormRow("E^(2){2}", (1 << m) + (1 << (m - 1)) + (1 << (m - 4)) - 1, "E"),
    ]


def _t2_3z(p: int) -> list[ClosedFormRow]:
    return [
        ClosedFormRow("X", (1 << p) + 1),
        ClosedFormRow("O{m}", (1 << (p + 1)) + (1 << p) + 4, "O"),
        ClosedFormRow("E^(1){m}", (1 << p) + (1 << (p - 1)) + 2, "E"),
        ClosedFormRow("E^(2){m}", (1 << (p - 1)) + (1 << (p - 2)) + 1, "E"),
    ]


def _t2_5z_odd(p: int) -> list[ClosedFormRow]:
    return [
        ClosedFormRow("X", (1 << p) + 1),
        ClosedFormRow("O{(m+1)/2}", (1 << (p + 2)) + (1 << p) + 6, "O"),
        ClosedFormRow("E{(m+1)/2}", (1 << (p + 1)) + (1 << (p - 1)) + 3, "E"),
    ]


def _t2_5z_even(p: int) -> list[ClosedFormRow]:
    # only the fourth halving after the odd step is a listed row
    return [
        ClosedFormRow("X", (1 << p) + 3),
        ClosedFormRow("O{m/2}", (1 << (p + 2)) + (1 << p) + 16, "O"),
        ClosedFormRow("E^(4){m/2}", (1 << (p - 2)) + (1 << (p - 4)) + 1, "EEEE"),
    ]


CLOSED_FORM_FAMILIES = {
    "T1_3Z": ClosedFormFamily("T1_3Z", 3, "m", 4, _t1_3z),
    "T1_5Z": ClosedFormFamily("T1_5Z", 5, "m", 5, _t1_5z),
    "T2_3Z": ClosedFormFamily("T2_3Z", 3, "P", 3, _t2_3z),
    "T2_5Z_ODD": ClosedFormFamily("T2_5Z_ODD", 5, "P", 3, _t2_5z_odd),
    "T2_5Z_EVEN": ClosedFormFamily("T2_5Z_EVEN", 5, "P", 5, _t2_5z_even),
}


def _closed_form_family(family: str) -> ClosedFormFamily:
    try:
        return CLOSED_FORM_FAMILIES[family]
    except KeyError:
        raise ValueError(
            f"unknown closed-form family {family!r}; "
            f"known: {sorted(CLOSED_FORM_FAMILIES)}"
        ) from None


def eval_closed_form(family: str, param: int) -> list[tuple[str, int]]:
    """Evaluate one family's rows at the given parameter.

    Returns (row label, predicted value) pairs, starting with the X row.
    Rejects parameters below the family's validity threshold.
    """
    return [(row.label, row.value) for row in _closed_form_family(family).rows(param)]


@dataclass(frozen=True)
class ClosedFormMismatch:
    family: str
    param: int
    label: str
    predicted: int
    actual: int
    reason: str


def check_closed_form(
    family: str, param_lo: int, param_hi: int, rule: Rule
) -> list[ClosedFormMismatch]:
    """Replay each family row against the literal step functions.

    The oracle is direct iteration: starting from the X row, each successive
    row must be the value its step word replays to, and each step of the
    word must fit the parity of the value it applies to.  Returns all
    mismatches over param_lo..param_hi inclusive (an empty list means the
    formulas are exact on that range).
    """
    fam = _closed_form_family(family)
    if fam.multiplier != rule.multiplier:
        raise ValueError(f"{family} is a {fam.multiplier}Z+1 family, got rule {rule.name}")
    what = f"{fam.name} parameter {fam.param_name}"
    require(param_lo, what, fam.param_min)
    require(param_hi, what, param_lo)
    mismatches: list[ClosedFormMismatch] = []
    for param in range(param_lo, param_hi + 1):
        rows = fam.rows(param)
        cur = rows[0].value
        for row in rows[1:]:
            cur, broken = rule.replay(cur, row.steps)
            if broken is not None:
                takes, expects = ("O", "E") if broken % 2 else ("E", "O")
                cur, reason = broken, (
                    f"row expects an {expects} step but the value "
                    f"{int_to_decimal(broken)} takes an {takes} step"
                )
            elif cur == row.value:
                continue
            else:
                reason = "value"
            # the first mismatch ends the family's replay at this param
            mismatches.append(
                ClosedFormMismatch(family, param, row.label, row.value, cur, reason)
            )
            break
    return mismatches


@dataclass(frozen=True)
class Promotion:
    """An odd-to-odd transition whose governor index strictly increases."""

    source: int
    target: int
    old_index: int
    new_index: int


def find_promotions(x: int, rule: Rule, horizon: int) -> list[Promotion]:
    """Scan up to horizon odd-to-odd transitions for index increases."""
    require(x, "find_promotions seed", odd=True)
    require(horizon, "find_promotions horizon", maximum=sys.maxsize - 1)  # horizon + 1 is the stop
    indexed = ((v, governor_index(v)) for v, _ in islice(odd_orbit(x, rule), horizon + 1))
    return [Promotion(u, v, m, n) for (u, m), (v, n) in pairwise(indexed) if n > m]
