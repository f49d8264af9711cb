"""qZ+1 rules, step functions, orbits and governor traces.

A Rule is any odd multiplier q >= 3 with its known repeating cycle; RULES
names the two the paper studies, 3Z+1 and 5Z+1.  An orbit alternates odd
steps (x -> q*x + 1) and even steps (x -> x / 2).  The paper's laws over
these orbits (descent, closed forms, promotions) are in govlab.laws.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
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
        """The even steps of every odd-to-odd transition above the trivial
        range, v2(q - 1).  The governor index drops by as much when q - 1 is
        a power of two (3Z+1, 5Z+1); laws.verify_descent states the index
        law for every q."""
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
