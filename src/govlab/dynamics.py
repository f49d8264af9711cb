"""qZ+1 step functions, orbit generation, descent laws, and closed-form tables.

The two supported rules are 3Z+1 and 5Z+1.  An orbit alternates odd steps
(x -> q*x + 1) and even steps (x -> x / 2).  Tracking the governor index
(trailing-ones length) of each odd value exposes the exact descent law: above
the trivial range the index drops by v2(q - 1) per odd-to-odd transition,
with exactly v2(q - 1) even steps in between.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice, pairwise
from typing import Iterable, Iterator

from .numerics import governor_index, int_to_decimal, require, show, v2


class StepKind(enum.Enum):
    """Which step function applies to a value: O for odd, E for even."""

    O = "O"
    E = "E"


def step_kind_of(x: int) -> StepKind:
    return StepKind.O if x % 2 else StepKind.E


@dataclass(frozen=True)
class Rule:
    """A qZ+1 rule with its known repeating cycle.

    trivial_cycle is replayed at construction: its members must be distinct,
    each must step to the next, and the last member must map to the first.
    The trivial governors, trivial_indices, are the governor indices of its
    odd members.
    """

    multiplier: int
    trivial_cycle: tuple[int, ...]

    def __post_init__(self) -> None:
        require(self.multiplier, "Rule multiplier", 3, odd=True)
        if not self.trivial_cycle:
            raise ValueError("trivial cycle must be nonempty")
        self.check_closed(self.trivial_cycle)

    def step(self, x: int) -> int:
        """One step of the rule: q*x + 1 for odd x, x / 2 for even x."""
        return self.multiplier * x + 1 if x % 2 else x // 2

    def replay(self, x: int, steps: str) -> tuple[int, int | None]:
        """Apply an O/E step word from x: O as q*v + 1, E as v // 2, whatever
        v's parity; returns (value, broken).

        broken is the first value whose parity its step does not fit, or None.
        Replay goes on arithmetically past it, so the divergence from a
        stated expression stays visible.
        """
        broken = None
        for ch in steps:
            if ch not in ("O", "E"):
                raise ValueError(f"step string may contain only O and E, got {ch!r}")
            odd = ch == "O"
            if broken is None and x % 2 != odd:
                broken = x
            x = self.multiplier * x + 1 if odd else x // 2
        return x, broken

    def check_closed(self, members: tuple[int, ...]) -> None:
        """Raise ValueError unless the members are distinct and each steps to
        the next, the last to the first."""
        if len(set(members)) != len(members):
            raise ValueError("cycle members must be distinct")
        n = len(members)
        for i, x in enumerate(members):
            succ = members[(i + 1) % n]
            expected = self.step(x)
            if succ != expected:
                raise ValueError(
                    f"not a closed cycle at position {i}: {show(x)} steps "
                    f"to {show(expected)}, list has {show(succ)}"
                )

    @property
    def descent_delta(self) -> int:
        """Exact per-transition index drop above the trivial range: v2(q - 1)."""
        return v2(self.multiplier - 1)

    # built once per rule: the scan kernel reads both for every seed
    @cached_property
    def trivial_members(self) -> frozenset[int]:
        return frozenset(self.trivial_cycle)

    @cached_property
    def trivial_odd_members(self) -> frozenset[int]:
        return frozenset(x for x in self.trivial_cycle if x % 2)

    @cached_property
    def trivial_indices(self) -> frozenset[int]:
        """The trivial governors: the governor indices of the trivial cycle's odd members."""
        return frozenset(map(governor_index, self.trivial_odd_members))

    @property
    def name(self) -> str:
        return f"{int_to_decimal(self.multiplier)}Z+1"


RULE_3Z = Rule(multiplier=3, trivial_cycle=(1, 4, 2))
RULE_5Z = Rule(multiplier=5, trivial_cycle=(1, 6, 3, 16, 8, 4, 2))

RULES = {3: RULE_3Z, 5: RULE_5Z}


def rule_for(multiplier: int) -> Rule:
    """Look up the rule of a multiplier in RULES."""
    try:
        return RULES[require(multiplier, "rule_for multiplier")]
    except KeyError:
        known = ", ".join(map(show, RULES))
        raise ValueError(f"unsupported multiplier {show(multiplier)}; supported: {known}") from None


def odd_step(x: int, rule: Rule) -> int:
    """q*x + 1 for odd x; the result is always even."""
    if x % 2 == 0:
        raise ValueError(f"odd_step requires an odd value, got {show(x)}")
    return rule.step(x)


def even_step(x: int) -> int:
    """x / 2 for even x."""
    if x % 2:
        raise ValueError(f"even_step requires an even value, got {show(x)}")
    return x // 2


def next_odd(x: int, rule: Rule) -> tuple[int, int]:
    """Accelerated odd-to-odd map: ((q*x + 1) / 2^k, k) with k = v2(q*x + 1)."""
    require(x, "next_odd x", odd=True)
    t = rule.step(x)
    k = v2(t)
    return t >> k, k


def odd_orbit(x: int, rule: Rule) -> Iterator[tuple[int, int]]:
    """The odd values v of x's orbit, seed first, as (v, k) with k the number
    of halvings that end at v (0 for the seed): the one loop over next_odd.
    The walk never ends; the caller takes as many values as it needs."""
    require(x, "odd_orbit seed", odd=True)
    k = 0
    while True:
        yield x, k
        x, k = next_odd(x, rule)


def orbit_values(pairs: Iterable[tuple[int, int]]) -> Iterator[int]:
    """Every value of the orbit whose odd_orbit pairs are given: v << k, ..., v."""
    for v, k in pairs:
        yield from (v << j for j in range(k, -1, -1))


@dataclass(frozen=True)
class OrbitLimits:
    """Bounds that turn an orbit into a finite computation.

    max_steps counts odd and even steps together; max_value_bits aborts the
    orbit when any produced value exceeds that bit length.
    """

    max_steps: int
    max_value_bits: int

    def __post_init__(self) -> None:
        require(self.max_steps, "OrbitLimits max_steps")
        require(self.max_value_bits, "OrbitLimits max_value_bits")


class TerminationKind(enum.Enum):
    REACHED_TRIVIAL_CYCLE = "reached_trivial_cycle"
    ENTERED_CYCLE = "entered_cycle"
    STEP_LIMIT = "step_limit"
    VALUE_LIMIT = "value_limit"


@dataclass(frozen=True)
class Termination:
    kind: TerminationKind
    # populated for ENTERED_CYCLE: the cycle members in orbit order,
    # starting from the first repeated value
    cycle_members: tuple[int, ...] | None = None


@dataclass(frozen=True)
class OrbitTrace:
    """Full record of an orbit under a rule.

    steps lists every value in order, starting with the seed, each tagged
    with the step kind that applies to it (so the kind string of the trace
    prefix reads as the orbit's O/E word).  odd_governors lists each odd
    value with its governor index in encounter order.
    """

    start: int
    rule: Rule
    steps: tuple[tuple[int, StepKind], ...]
    odd_governors: tuple[tuple[int, int], ...]
    termination: Termination


def orbit(x: int, rule: Rule, limits: OrbitLimits) -> OrbitTrace:
    """Iterate the step functions from odd x, recording every value.

    Termination, checked in this order at each value: membership in the
    trivial cycle; the step budget; then after producing a value, the value
    bit cap and repetition of an earlier value.  Limit breaches terminate
    the trace; they are never errors.
    """
    require(x, "orbit seed", odd=True)
    trivial = rule.trivial_members
    steps: list[tuple[int, StepKind]] = [(x, step_kind_of(x))]
    odd_governors: list[tuple[int, int]] = [(x, governor_index(x))]
    first_pos = {x: 0}
    cur = x
    taken = 0
    while True:
        if cur in trivial:
            term = Termination(TerminationKind.REACHED_TRIVIAL_CYCLE)
            break
        if taken == limits.max_steps:
            term = Termination(TerminationKind.STEP_LIMIT)
            break
        nxt = rule.step(cur)
        taken += 1
        steps.append((nxt, step_kind_of(nxt)))
        if nxt % 2:
            odd_governors.append((nxt, governor_index(nxt)))
        if nxt.bit_length() > limits.max_value_bits:
            term = Termination(TerminationKind.VALUE_LIMIT)
            break
        if nxt in first_pos:
            members = tuple(v for v, _ in steps[first_pos[nxt] : len(steps) - 1])
            term = Termination(TerminationKind.ENTERED_CYCLE, cycle_members=members)
            break
        first_pos[nxt] = len(steps) - 1
        cur = nxt
    return OrbitTrace(
        start=x,
        rule=rule,
        steps=tuple(steps),
        odd_governors=tuple(odd_governors),
        termination=term,
    )


def governor_trace(x: int, rule: Rule, n_odd: int) -> list[int]:
    """Governor indices of the first n_odd odd values of the orbit, seed first.

    The odd-to-odd map is total, so the trace always has exactly n_odd
    entries for a valid odd seed.
    """
    require(x, "governor_trace seed", odd=True)
    require(n_odd, "governor_trace n_odd", maximum=sys.maxsize)  # islice's largest stop
    return [governor_index(v) for v, _ in islice(odd_orbit(x, rule), n_odd)]


@dataclass(frozen=True)
class DescentCheck:
    """Result of auditing one odd-to-odd transition against the descent law."""

    start: int
    start_index: int
    expected_index: int
    observed_index: int
    expected_even_steps: int
    observed_even_steps: int
    passed: bool


def verify_descent(x: int, rule: Rule) -> DescentCheck:
    """Check the exact descent law at odd x with index above the trivial range.

    For 3Z+1 the next odd value must have index m - 1 after exactly one even
    step; for 5Z+1, index m - 2 after exactly two even steps.
    """
    m = governor_index(x)
    if m <= max(rule.trivial_indices):
        raise ValueError(
            f"descent law applies only above the trivial range: index {m} of "
            f"{int_to_decimal(x)} is within {sorted(rule.trivial_indices)}"
        )
    delta = rule.descent_delta
    nxt, k = next_odd(x, rule)
    observed = governor_index(nxt)
    expected = m - delta
    return DescentCheck(
        start=x,
        start_index=m,
        expected_index=expected,
        observed_index=observed,
        expected_even_steps=delta,
        observed_even_steps=k,
        passed=(observed == expected and k == delta),
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
