"""Preimage enumeration for qZ+1 dynamics and the odd-ancestor condition solver.

An odd a is an ancestor of odd x at i doublings when q*a + 1 = 2^i * x: the
orbit of a reaches x through one odd step and exactly i even steps.  The
condition solver finds the small solution sets for which q*(2^mu - 1) + 1
collapses to one, two, or three adjacent powers of two; every solution has
mu <= max(v2(q - 1), 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .dynamics import Rule
from .numerics import governor_index, require, v2


class AncestorEntry(NamedTuple):
    doublings: int
    ancestor: int


def even_ancestor(x: int, i: int) -> int:
    """The even ancestor 2^i * x of odd x (i >= 1)."""
    require(x, "even_ancestor x", odd=True)
    return x << require(i, "even_ancestor i")


def odd_ancestors(x: int, rule: Rule, max_doublings: int) -> list[AncestorEntry]:
    """All (i, a) with q*a + 1 = 2^i * x and 1 <= i <= max_doublings, ascending in i.

    For i >= 1 the quotient (2^i * x - 1) / q is odd whenever it is integral
    (q*a + 1 even forces a odd), so divisibility is the whole test; the
    oddness is asserted rather than filtered.
    """
    require(x, "odd_ancestors x", odd=True)
    require(max_doublings, "odd_ancestors max_doublings")
    q = rule.multiplier
    out: list[AncestorEntry] = []
    for i in range(1, max_doublings + 1):
        t = (x << i) - 1
        if t % q == 0:
            a = t // q
            assert a % 2 == 1
            out.append(AncestorEntry(doublings=i, ancestor=a))
    return out


@dataclass(frozen=True)
class AncestorNode:
    """A node of the bounded ancestor tree.

    trivial_governor marks whether the node's governor index belongs to the
    rule's trivial index set.
    """

    value: int
    governor_index: int
    trivial_governor: bool
    children: tuple["AncestorNode", ...]


def ancestor_tree(x: int, rule: Rule, depth: int, max_doublings: int) -> AncestorNode:
    """Enumerate odd ancestors to the given depth.

    Values are unique within a level (each odd value has a single odd
    descendant one odd step away, so two parents cannot share a child), but
    a value may legitimately recur at different depths; no cross-level
    pruning is applied.  The tree is built with an explicit stack, not
    recursion, so any depth fits; == and repr of a deep tree still recurse.
    """
    require(depth, "ancestor_tree depth")

    def frame(value: int, level: int) -> tuple[int, Iterator[AncestorEntry], list[AncestorNode]]:
        entries = odd_ancestors(value, rule, max_doublings) if level < depth else []
        return value, iter(entries), []

    # one frame per level from the root: the value, its ancestors not yet
    # visited, and the nodes of those already built
    stack = [frame(x, 0)]
    while True:
        value, entries, children = stack[-1]
        entry = next(entries, None)
        if entry is not None:
            stack.append(frame(entry.ancestor, len(stack)))
            continue
        stack.pop()
        m = governor_index(value)
        node = AncestorNode(
            value=value,
            governor_index=m,
            trivial_governor=m in rule.trivial_indices,
            children=tuple(children),
        )
        if not stack:
            return node
        stack[-1][2].append(node)


@dataclass(frozen=True)
class ConditionSolution:
    """A solution of q*(2^mu - 1) + 1 = (2^2 + 2^1 + 2^0 | 2^1 + 2^0 | 2^0) * 2^i."""

    term_count: int
    mu: int
    i: int


_RHS_ODD_PART = {3: 7, 2: 3, 1: 1}
_TERM_COUNT = {odd: terms for terms, odd in _RHS_ODD_PART.items()}


def condition_equation_sides(rule: Rule, sol: ConditionSolution) -> tuple[int, int]:
    """Left and right side values of a solution's defining equation (mu >= 1,
    where 2^mu - 1 is odd and takes the odd step)."""
    lhs = rule.step((1 << require(sol.mu, "condition_equation_sides mu")) - 1)
    rhs = _RHS_ODD_PART[sol.term_count] << sol.i
    return lhs, rhs


def solve_ancestor_conditions(
    rule: Rule, mu_max: int, i_max: int
) -> list[ConditionSolution]:
    """Odd-ancestor existence conditions over 1 <= mu <= mu_max, 1 <= i <= i_max.

    Finds where q*(2^mu - 1) + 1 equals 2^(i+2) + 2^(i+1) + 2^i (three
    terms), 2^(i+1) + 2^i (two terms), or 2^i (one term).  The right sides
    are 7, 3 and 1 times 2^i, so for each mu the only candidate is
    i = v2(lhs) with odd part lhs >> i in {1, 3, 7}.

    No solution has mu > max(d, 2), where d = v2(q - 1), so the search stops
    there and the result is complete for any mu_max.  Write q - 1 = 2^d * r
    with r odd.  For mu > d, lhs = 2^d * (q * 2^(mu-d) - r) with the bracket
    odd, so i = d, and the odd part is at most 7 only if
    2^mu <= (7 + r) * 2^d / q = 7 * 2^d / q + (q - 1) / q < 7 + 1, since
    2^d < q: so mu <= 2.
    """
    require(mu_max, "solve_ancestor_conditions mu_max")
    require(i_max, "solve_ancestor_conditions i_max")
    out: list[ConditionSolution] = []
    for mu in range(1, min(mu_max, max(v2(rule.multiplier - 1), 2)) + 1):
        lhs = rule.step((1 << mu) - 1)
        i = v2(lhs)
        term_count = _TERM_COUNT.get(lhs >> i)
        if term_count is not None and 1 <= i <= i_max:
            out.append(ConditionSolution(term_count=term_count, mu=mu, i=i))
    out.sort(key=lambda s: (s.term_count, s.mu, s.i))
    return out
