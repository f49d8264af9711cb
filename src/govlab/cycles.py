"""Orbit outcome classification, cycle canonicalization, and the kernel of
the range scan.

detect_outcome walks the accelerated odd-to-odd map but reproduces the
step-for-step termination behaviour of dynamics.orbit exactly, including
terminations that fall inside an even run.  The range scan itself (chunk
layout, runner, report and checkpoints) is govlab.scan; this module gives it
the fold of one chunk, _scan_chunk, which pool workers run.

The scan kernel (walks, the orbit memo and the chunk fold) passes an
orbit's result as one (code, steps, peak) triple.  The code is 1 for a
step-limited result, 2 converged, 3 value-limited, and 4 + i for cycle i of
the memo's list of cycles met so far; 0 is no result.  Only detect_outcome
turns a result into the public Outcome, through _OrbitMemo.outcome.  The
chunk fold counts each class at its code minus 1, every cycle at 3:
COUNT_KEYS names the counts in code order.

A scan keeps an orbit memo in each process that runs its chunks, which also
carries the scan's rule and limits: a kind byte holding the result code,
steps and peak for each odd value of [base, top), in arrays indexed by
(v - base) >> 1.  top covers the scan's first 2^20 seeds from its first
seed lo.  base is 1 when [1, top) holds at most 2^20 odd values and the
odd values below lo are no more than the seeds the table holds, so a scan
that starts above 1 also keeps the values below its first seed; else base
is lo.  The table holds at most 2^20 entries (about 7 MB), and at most
twice the seeds it holds.  Code 0 marks an entry not yet filled.  Only
codes below 256 fit the byte and are written, which holds 252 cycles; a
cycle with a larger code is walked each time.  The memo is filled from every finished walk of every chunk the
process runs for the scan, not only from the seeds, and a seed whose entry
is already filled takes it without a walk.  The values below base and
from top on are held by no memo, but walks through them still end on the
entries of [base, top) that their orbits reach.

The walk.  _walker binds a memo's rule, limits and arrays once and
returns the walk, which reads and writes the table inside its own loop, by
index, with no call per lookup or per write.  _scan_chunk builds one walker
per chunk and detect_outcome one per call, over a memo that holds no value,
so no two calls share a cycle list.  The walker refers to its memo; the
memo never refers to a walker, so no reference cycle keeps a table alive
past its scan or call.

Write.  A walk writes odd values v on it that lie in [base, top): steps is
the walk's total minus v's step index, and peak is the largest bit length
from v on, a suffix maximum over (q*v + 1).bit_length() and the end of the
walk (the read entry's peak, when the walk ended on one).  A walk writes
from the first value in [base, top) after its seed that it goes on past,
plus the seed itself from its outcome, so a walk that goes on past no such
value writes one entry.  This is v's own result unless some value of the
walk before v lies on v's suffix; then v lies on a cycle.  So:

* a converged result is written: the only cycle it can reach is the
  trivial one, whose members end the walk before it goes on past them;
* a value-limit result is written: an orbit that passes the cap is not
  periodic;
* of a cycle result only the values before the cycle's entry point are
  written, never the cycle's members; an orbit that reaches a member from
  outside enters the cycle at its own entry point, not at the member;
* a step-limit result writes only its seed, whose own result it is: the
  other values' steps and peaks are cut short;
* a trivial odd member, as a seed, writes its own (converged, 0, bits).

Read.  When a walk reaches an odd value u in [base, top) that is neither a
trivial member nor one of its own earlier values, and u's entry is filled,
the orbit from there on is u's orbit, so the result is the prefix plus
u's: steps add, peaks take the maximum.  The trivial and repetition checks
come first, as in dynamics.orbit, so no walk reads a trivial member's
entry.  The entry is used only when the total stays within the step
budget; otherwise the walk goes on, which keeps the step-limit peak exact.
So no walk reads a step-limited entry either: it holds the whole budget,
and a walk reaches u after at least 2 steps.  Every entry a walk reads is
then written by the first three rules above, so u lies on no cycle, and no
value from before u can repeat after it.

A walk keeps one record, its seen map, which after the trivial odd members
lists the walk's odd values in orbit order, each with the valuation of the
run that entered it.  The write goes back through it from the walk's last
odd value, and a cycle's member list is read off it from the cycle's first
member on, with the run that closes the cycle.  The walk builds it at its
seed, as the trivial members followed by x, so every odd value the walk
reaches is looked up in the one map.

Lean walk.  Orbits of 5Z+1 grow on average (log2 5 > 2, Lagarias 1985),
and most seeds of a 5Z+1 census end at the value cap far above the memo.
At an odd value whose q*v + 1 is wider than the memo's gate, which puts v
at or past the memo's floor (at least top, past the trivial cycle's members
and at least 2^K), the walk hands the orbit to a lean walk.  That walk
keeps no seen map and reads no memo; it returns a result only when the
orbit passes the cap, and returns None when a value falls below the floor
or the step budget runs out, and then the walk goes on from where it
handed the orbit over.  The budget also ends a lean walk caught in a cycle
above the floor.  The walk then tries no lean walk until it reaches
an odd value in [base, top), which re-arms it: its next climb past the
gate hands over again.  detect_outcome's memo has an empty range, so its
walks go lean at most once.  An orbit that falls below a scan's first seed
re-arms the walk only when the scan's table starts at 1.  A result a lean
walk returns is the exact one, wherever the hand-over is:

* an orbit that passes the cap has not repeated a value before: from a
  repeat on it stays among values it has already produced, all within the
  cap.  It has met no trivial member either, because every member of the
  trivial cycle lies within the cap (the gate is below the cap only when
  the cap is wider than q times the floor).  And it has not run out of
  budget, because the odd value whose step passes the cap is reached within
  the budget.  So the orbit ends there as value-limited, whatever memo
  entries it passed: those hold the same orbit's exact result;
* the value that passes the cap is wider than every value before it, so
  its bit length is the orbit's peak, and also the peak of every suffix,
  which the walk writes without recomputing;
* a jump moves K = 8 Terras steps at once, T(v) = (q*v + 1) / 2 for odd v
  and v / 2 for even v (Terras 1976): for v = a*2^K + b, T^K(v) = q^c*a +
  T^K(b), which is K + c plain steps, with c the odd values among b, T(b),
  ..., T^(K-1)(b).  The table holds, for each residue b, a margin that
  bounds how much wider than v any value inside the jump can be, so a jump
  is taken only when v's bit length plus the margin is within the cap
  (below 2^(cap - M), M the table's widest margin, it is for every v, and
  one comparison shows it): no jump passes over a crossing, and the step
  at which the orbit passes the cap is found by plain steps.  A jump may
  pass a trivial member or a value of the memo's range; by the first
  point, that can end no orbit that passes the cap, and the lean walk
  returns nothing for any other orbit.

None of this depends on the step at which the orbit was handed over, only
on the orbit from there on, so a re-armed lean walk is exact too.  It may
repeat steps that an earlier lean walk of the same walk already took: that
walk compares with the floor only between jumps, so an orbit that dips
into [base, top) inside a jump and climbs again goes on lean past the dip,
and once that walk falls back, the exact walk re-arms at the dip.  Below
2^17 at the C3 limits those repeats are 20668 of the 12.6M steps that lean
walks take.

3Z+1 orbits shrink on average and every seed of a 3Z+1 census converges,
so a lean walk there would be thrown away: its gate is the cap, re-arming
sets the cap again, and the loop runs no extra test per transition.

Descent fill.  By the paper's successor mapping a seed climbs while its
governor index lies above the trivial governors, and falls once its index
reaches them.  The seeds that fall below themselves within three odd steps
form the classes of the descent words (_descent_words; Terras 1976, Everett
1977): every x = b mod 2^(K+1) takes odd steps of valuations k_1..k_d,
d <= 3, through climbing values u_1..u_(d-1) above x to u_d below x.  The
words of one step are the trivial governors' seeds (x = 1 mod 4 for 3Z+1,
x = 3 mod 8 for 5Z+1); 3Z+1's of two steps are x = 3 mod 16.  _scan_chunk
splits its range into blocks [x0, x1) whose one-step successors all lie
below x0 (x1 is about 4/3 x0 for 3Z+1, 8/5 x0 for 5Z+1), and before a
block's walks it fills, one class at a time in order of K, the class's
seeds whose u_d lies below x0 from u_d's entry.  u_i grows by
q^i * 2^(K+1-K_i) from one seed of a class to the next, so one extended
slice of each array writes a level: for x and for each u_i below top,
(code(u_d), steps(u_d) plus the k_l + 1 after u_i, the larger of peak(u_d)
and the widths of q*u_l + 1 from u_i on).

That is exactly what x's walk writes, only earlier.  The walk goes on past
u_1..u_(d-1), which are neither trivial nor repeated (each lies above x,
and x above u_d), and ends on the first of them whose entry is filled, or
on u_d, within the budget; it writes x and the values it goes on past that
lie in [base, top), each with the entry above, and a value it ends on
already holds that entry, its own result.  A walk of the block that
reaches a value the fill wrote ends there with the result it would have
had by going on, and writes what it would have written, less the values
from there on, which the fill wrote: going on, the walk would have followed
the same climbing values down to u_d.  So after each chunk the table is
the one the walks alone leave.  Two limits keep this so: the writes of a
level stop at top, as the walk writes no value from top on, and a class is
left to the walks when any q*u_i + 1 of its last seed is wider than the
gate, where the walk would go lean and, returning at the cap, write
nothing past u_i (for 3Z+1 the gate is the cap, where the walk ends).  A
class is also left to the walks when u_d's entry is empty, when u_d is at
most the trivial cycle's largest member (a trivial member ends the walk by
its own rule: 3Z+1 seed 5 takes 3 steps) or below base, or when x's steps
pass the budget; so is a block whose last q*x + 1 passes the cap, and a
class of fewer than _FILL_MIN_SEEDS seeds, which costs more to slice than
to walk.  The fill ends at the first K whose classes all hold fewer.

Fold.  _scan_chunk walks only the chunk's seeds below top whose entry is
empty at their turn, block by block after each block's descent fill, in
ascending order, so the memo fills exactly as a seed-by-seed fold would
fill it.  A seed whose entry is still empty after its own walk goes through
ChunkResult.add: a cycle member, or a seed whose cycle code passes the kind
byte.  No later walk writes such an entry: members are never written, nor
is a code past the byte.  Every other seed below top then holds its own
result, and the chunk folds them from its slice of the table: each class's
count from kinds.count of its codes, the divergence candidates from one
translate of the slice that selects the two undecided codes, and the maxima
from max over the steps and peaks slices.  No added seed is a candidate, so
the candidates come out in order.  The seeds from top on are walked and
added one by one.  The fold reads only the chunk's own seeds, so the
entries below the scan's first seed are never folded: they only end walks.

Every filled entry is its value's own result under the scan's rule and
limits, whichever walk wrote it, so the order in which chunks fill the
memo, and which process fills it, cannot change an outcome: chunk results,
checkpoints and report bytes do not depend on the worker count, the chunk
size or resumes.  On a checkpointed scan each chunk keeps its seeds'
entries below top (_OrbitMemo.table), with its cycle codes renumbered by
the chunk's own sorted cycles, for its checkpoint line; a resumed scan's
memo restores the loaded ones (_OrbitMemo.restore) before its first chunk
runs, and its walks fill the rest.  A restored entry is its value's own
result too, because the checkpoint's header fixes the rule and the limits,
and its codes name cycles by record, not by any process's numbering.  That
takes trust in the file: a table that agrees with its line's counts,
candidates and maxima but holds a false entry changes the results of other
chunks whose walks end on it, as a false line already changes the report.
A memo lives only as long as its scan (the in-process runner's local, or
the pool worker processes), because its entries hold only for one rule and
one set of limits.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass, field
from functools import cache
from itertools import chain, compress, count, islice, repeat
from operator import add
from typing import Callable

from .dynamics import OrbitLimits, Rule, TerminationKind, orbit_values
from .numerics import governor_index, int_to_decimal, require

# the outcome counts of a chunk, each at its class's result code minus 1
# (every cycle's at the first cycle code's); a report lists them in sorted
# order
COUNT_KEYS = (
    "undecided_step_limit",
    "converged_trivial",
    "undecided_value_limit",
    "entered_cycle",
)


class Classification(enum.Enum):
    TRIVIAL = "trivial"
    AUXILIARY = "auxiliary"


@dataclass(frozen=True)
class CycleRecord:
    """A cycle in canonical form: all_members starts at the smallest odd member."""

    odd_members: tuple[int, ...]
    all_members: tuple[int, ...]
    classification: Classification
    smallest_odd: int
    governor_indices: tuple[tuple[int, int], ...]

    def to_doc(self) -> dict:
        return {
            "smallest_odd": int_to_decimal(self.smallest_odd),
            "classification": self.classification.value,
            "odd_members": [int_to_decimal(v) for v in self.odd_members],
            "all_members": [int_to_decimal(v) for v in self.all_members],
            "governor_indices": [
                {"member": int_to_decimal(v), "index": m} for v, m in self.governor_indices
            ],
        }


def _is_cyclic_rotation(seq: tuple[int, ...], ref: tuple[int, ...]) -> bool:
    if len(seq) != len(ref):
        return False
    doubled = ref + ref
    n = len(ref)
    return any(doubled[i : i + n] == seq for i in range(n))


def classify_cycle(record: "CycleRecord", rule: Rule) -> Classification:
    """Trivial iff the member sequence is a rotation of the rule's trivial cycle."""
    return _classify_members(record.all_members, rule)


def _classify_members(members: tuple[int, ...], rule: Rule) -> Classification:
    if _is_cyclic_rotation(members, rule.trivial_cycle):
        return Classification.TRIVIAL
    return Classification.AUXILIARY


def canonical_cycle(members, rule: Rule) -> CycleRecord:
    """Validate a closed member list and rotate it to start at the smallest odd.

    Raises ValueError unless every member steps to the next one under the
    rule (the last wrapping to the first) and no member repeats.
    """
    members = tuple(members)
    if not members:
        raise ValueError("a cycle must have at least one member")
    rule.check_closed(members)
    odds = tuple(sorted(v for v in members if v % 2))
    # a closed cycle of only even values is impossible (halving decreases)
    assert odds
    smallest = odds[0]
    at = members.index(smallest)
    rotated = members[at:] + members[:at]
    return CycleRecord(
        odd_members=odds,
        all_members=rotated,
        classification=_classify_members(rotated, rule),
        smallest_odd=smallest,
        governor_indices=tuple((v, governor_index(v)) for v in rotated if v % 2),
    )


def trivial_cycle_record(rule: Rule) -> CycleRecord:
    return canonical_cycle(rule.trivial_cycle, rule)


class OutcomeTag(enum.Enum):
    CONVERGED_TRIVIAL = "converged_trivial"
    CYCLE = "cycle"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class Outcome:
    """Classification of one seed's orbit, with the stats the scanner folds."""

    tag: OutcomeTag
    cycle: CycleRecord | None = None
    undecided_reason: TerminationKind | None = None
    steps_taken: int = 0
    peak_bits: int = 0


def detect_outcome(x: int, rule: Rule, limits: OrbitLimits) -> Outcome:
    """Classify the orbit of odd seed x without materializing it.

    Mirrors dynamics.orbit exactly: at each value the checks run in the
    order trivial-membership, step budget, value production (bit cap,
    repetition).  Within an even run only three things can happen, each
    resolved arithmetically instead of value-by-value:

    * the run passes a trivial-cycle member, which forces the landing odd
      to be a trivial odd member (every even trivial member is odd-member
      times a power of two);
    * the orbit closes a cycle, which forces the landing odd to be a
      previously seen odd (the first repeated value is the cycle's entry
      point, `u << min(entry valuations)`);
    * the step budget runs out.

    Each run works out the step at which it would end the orbit, and one
    comparison with the budget decides whether the step limit comes first.
    """
    require(x, "detect_outcome seed", odd=True)
    memo = _OrbitMemo(1, -1, rule, limits)  # holds no value
    return memo.outcome(*_walker(memo)(x))


# the result code of an orbit, shared by walks, orbit memo entries and the
# chunk fold; code 0 is an entry of the memo that holds no result
_STEP_LIMIT, _TRIVIAL, _VALUE_LIMIT = 1, 2, 3
_CYCLE = 4  # plus the cycle's position in _OrbitMemo.cycles
# the public (tag, undecided reason) of a result, at min(code, _CYCLE) - 1;
# bound here once, as an enum member read through its class costs a
# descriptor call
_TAG_REASON = (
    (OutcomeTag.UNDECIDED, TerminationKind.STEP_LIMIT),
    (OutcomeTag.CONVERGED_TRIVIAL, None),
    (OutcomeTag.UNDECIDED, TerminationKind.VALUE_LIMIT),
    (OutcomeTag.CYCLE, None),
)
# the most entries an orbit memo holds, seeds and the values below its
# first seed together: about 7 MB with 32-bit steps and 16-bit peaks (17 MB
# with 64-bit ones), so the table stays bounded for any range
_MEMO_MAX_SEEDS = 1 << 20


def _walker(memo: _OrbitMemo) -> Callable[[int], tuple[int, int, int]]:
    """detect_outcome's loop under the memo's rule and limits, as a function
    from an odd seed to its (code, steps, peak).  A walk ends at a filled
    entry of the memo, tries a lean walk past the memo's gate, again after
    each return to the memo's range, and writes the results it determines.

    The rule, the limits and the table are bound here once, so build one
    walker per chunk or call, not per walk.  The walker holds the memo, and
    nothing may hold the walker on the memo: that would make a reference
    cycle, which keeps the table alive until the cyclic collector runs.
    """
    q = memo.rule.multiplier
    trivial = memo.rule.trivial_members
    trivial_odds = memo.rule.trivial_odd_members
    trivial_seen = dict.fromkeys(trivial_odds, -1)  # the head of every walk's seen map
    max_steps = memo.limits.max_steps
    cap = memo.limits.max_value_bits
    gate = memo.gate  # cap, or below it where a value past it may start a lean walk
    base, top = memo.base, memo.top
    kinds, entry_steps, entry_peaks = memo.kinds, memo.steps, memo.peaks

    def walk(x: int) -> tuple[int, int, int]:
        peak = x.bit_length()
        if x in trivial_odds:
            if x < top:  # no walk reads it: every walk finds x in seen first
                kinds[(x - base) >> 1], entry_peaks[(x - base) >> 1] = _TRIVIAL, peak
            return _TRIVIAL, 0, peak
        # seen maps an odd value to the valuation of the run that entered it
        # (0 for x), or to -1 for a trivial odd member, so that one lookup
        # tells the three runs apart.  It is the walk's only record: after the
        # trivial members it lists the walk's odd values in orbit order.
        seen = {**trivial_seen, x: 0}
        cur = x
        s = 0
        first = 0  # the first value after x in [base, top) that the walk goes on past
        entry = 0  # the first member of the cycle the walk closes
        tail = 0  # peak of the memo entry the walk ends on, or of its crossing of the cap
        lean_gate = gate
        while True:
            t = q * cur + 1
            bits = t.bit_length()
            if bits > peak:
                peak = bits
            if bits > lean_gate:
                if bits > cap:
                    code, steps, tail = _VALUE_LIMIT, s + 1, bits
                    break
                # cur is past the memo's floor: try whether the orbit passes
                # the cap without this loop's bookkeeping, once until the
                # orbit falls back into the memo's range
                lean_gate = cap
                lean = _lean_walk(cur, s, memo)
                if lean is not None:
                    code, steps, peak = lean
                    tail = peak
                    break
            # v2(t) inlined: a call per transition is a measurable share of this loop
            k = (t & -t).bit_length() - 1
            u = t >> k
            hit = seen.get(u)
            if hit is None:
                # u is neither trivial nor seen, so the orbit goes at least one step past it
                stop = s + k + 2
                if base <= u < top:
                    # Read: u's entry, when filled and within the budget after
                    # the stop - 1 steps to u
                    i = (u - base) >> 1
                    code = kinds[i]
                    if code and stop - 1 + entry_steps[i] <= max_steps:
                        steps = stop - 1 + entry_steps[i]
                        tail = entry_peaks[i]
                        if tail > peak:
                            peak = tail
                        break
                    if not first:
                        first = u
                    lean_gate = gate  # the next climb past the gate may go lean again
            elif hit < 0:
                # first trivial member along t, t>>1 .. t>>k; u itself guarantees one
                stop = s + 1 + next(j for j in range(k + 1) if (t >> j) in trivial)
            else:
                # second occurrence of the first repeated value u << min(entry valuations)
                stop = s + 1 + k - min(hit, k)
            if stop > max_steps:
                # write the seed's result only: the other values' steps and
                # peaks are cut short, and no walk reads the seed's entry
                code, steps, first = _STEP_LIMIT, max_steps, 0
                break
            if hit is not None:
                steps = stop
                if hit < 0:
                    code = _TRIVIAL
                else:
                    # odd values before u lead into the cycle; u and those
                    # after it are members, whose pairs in seen expand to
                    # the cycle's values from u on, closed by the run of k
                    # halvings back to u
                    entry = u
                    pairs = [*seen.items()]
                    members = orbit_values([(u, 0), *pairs[pairs.index((u, hit)) + 1 :], (u, k)])
                    code = memo.cycle_code(canonical_cycle([*members][:-1], memo.rule))
                    if u == x:  # x is a member, so no value of the walk is written
                        return code, steps, peak
                break
            s = stop - 1
            seen[u] = k
            cur = u
        # Write: seen ends with the walk's last odd value, at step s; a
        # cycle's members are entry and the values after it.  The seed is
        # written from the result; the values from the last one back to first
        # get steps minus their step index and their suffix peak, which starts
        # from tail.  Only codes that fit the kind byte are written.
        if code > 255:
            return code, steps, peak
        if x < top:
            i = (x - base) >> 1
            kinds[i] = code
            entry_steps[i] = steps
            entry_peaks[i] = peak
        if first:
            suffix = tail
            # a value-limited orbit's crossing is wider than every value before
            # it, so it is every suffix's peak
            bounded = code != _VALUE_LIMIT
            for v, k in reversed(seen.items()):
                if bounded:
                    bits = (q * v + 1).bit_length()
                    if bits > suffix:
                        suffix = bits
                if entry:  # v is a cycle member, entry the last of them
                    if v == entry:
                        entry = 0
                elif base <= v < top:
                    i = (v - base) >> 1
                    kinds[i] = code
                    entry_steps[i] = steps - s
                    entry_peaks[i] = suffix
                if v == first:
                    break
                s -= 1 + k
        return code, steps, peak

    return walk


# Terras steps per jump of the lean walk: T(v) = (q*v + 1) / 2 for odd v,
# v / 2 for even v
_JUMP = 8
_JUMP_MASK = (1 << _JUMP) - 1


@cache
def _jump_table(q: int) -> tuple[tuple[int, int, int, int], ...]:
    """(q^c, T^K(b), K + c, margin) for each residue b mod 2^K, K = _JUMP.

    c is the number of odd values among b, T(b), ..., T^(K-1)(b), which is
    the same for every v = a*2^K + b, so T^K(v) = q^c*a + T^K(b): K + c plain
    steps, c odd steps and K halvings.  Each value those steps produce is
    alpha*a + beta for v = a*2^K + b.  For a >= 1 it is at most max(alpha /
    2^K, (alpha + beta) / (2^K + b)) times v, so margin, the least m with
    both ratios at most 2^m for every such value, bounds how many bits wider
    than v any of them is.
    """
    table = []
    for b in range(1 << _JUMP):
        alpha, beta, c, margin = 1 << _JUMP, b, 0, 0
        for _ in range(_JUMP):
            if beta & 1:
                alpha, beta, c = q * alpha, q * beta + 1, c + 1
                while alpha > 1 << (margin + _JUMP) or alpha + beta > ((1 << _JUMP) + b) << margin:
                    margin += 1
            # alpha is even before the K-th halving, so halving is exact
            alpha, beta = alpha >> 1, beta >> 1
        table.append((q**c, beta, _JUMP + c, margin))
    return tuple(table)


@cache
def _widest_margin(q: int) -> int:
    """The largest margin of _jump_table(q)."""
    return max(margin for *_, margin in _jump_table(q))


def _lean_walk(x: int, s: int, memo: _OrbitMemo) -> tuple[int, int, int] | None:
    """The (code, steps, peak) of the orbit from odd x, reached at step s,
    when it passes the cap; None when a value falls below memo.floor or the
    step budget runs out first.

    The walk keeps no seen map and reads no memo: it moves K Terras steps
    at once whenever the table's margin shows that none of them can pass
    the cap, and one plain step otherwise.  The module docstring says why a
    crossing it finds is the exact result.
    """
    q = memo.rule.multiplier
    cap = memo.limits.max_value_bits
    max_steps = memo.limits.max_steps
    floor = memo.floor
    table = _jump_table(q)
    # below fast every entry's margin keeps a jump within the cap
    fast = 1 << max(cap - _widest_margin(q), 0)
    cur = x
    while True:
        mult, low, n, margin = table[cur & _JUMP_MASK]
        if cur < fast or cur.bit_length() + margin <= cap:
            cur = mult * (cur >> _JUMP) + low
            s += n
        elif cur & 1:
            cur = q * cur + 1
            s += 1
            if cur.bit_length() > cap:
                return _VALUE_LIMIT, s, cur.bit_length()
        else:
            k = (cur & -cur).bit_length() - 1
            cur >>= k
            s += k
        if s >= max_steps or cur < floor:
            return None


def peak_bound(rule: Rule, limits: OrbitLimits, v: int) -> int:
    """The most bits an orbit peak can have on a scan whose seeds are at most
    v: the bit length of some q*u + 1 with u under the cap or at most v has at
    most bits(q) + bits(u) bits."""
    return max(limits.max_value_bits, v.bit_length()) + rule.multiplier.bit_length()


def entry_typecodes(rule: Rule, limits: OrbitLimits, v: int) -> tuple[str, str]:
    """The array typecodes of the steps and peaks of table entries of values
    at most v: 'I' and 'H' when they hold max_steps and peak_bound, else 'q'
    (storing a value the typecode cannot hold raises OverflowError)."""
    return tuple(
        "q" if bound >> (8 * array(typecode).itemsize) else typecode
        for typecode, bound in (("I", limits.max_steps), ("H", peak_bound(rule, limits, v)))
    )


def _memo_top(lo: int, hi: int) -> int:
    """The first odd value past the orbit table of a scan of lo..hi: the
    table holds the scan's first _MEMO_MAX_SEEDS seeds."""
    return lo + 2 * min((hi - lo) // 2 + 1, _MEMO_MAX_SEEDS)


def _code_map(codes: dict[int, int]) -> bytes:
    """A translate table for kind bytes: the codes below _CYCLE are kept,
    each cycle code in codes becomes its value when both fit the byte, and
    every other becomes 0, no result."""
    table = bytearray(range(_CYCLE)) + bytes(256 - _CYCLE)
    for old, new in codes.items():
        if old < 256 and new < 256:
            table[old] = new
    return bytes(table)


def _as_typecode(values: array, typecode: str) -> array:
    return values if values.typecode == typecode else array(typecode, values)


class _OrbitMemo:
    """One scan's rule and limits, and the results of the odd values of
    [base, top), filled by the walks of the scan's chunks.

    Entry (v - base) >> 1 holds the result code, the steps taken and the
    peak bits of v's orbit; code 0 means no result yet.  The walks of
    _walker read and write the arrays directly.  top covers the first
    _MEMO_MAX_SEEDS seeds of lo..hi; base is 1 when the odd values below top
    are at most _MEMO_MAX_SEEDS and those below lo at most the seeds held,
    else lo.  The table is empty for detect_outcome's memo, whose lo is 1
    and hi -1.  The module docstring says which results are written, which
    are read, and why each is exact.
    """

    def __init__(
        self, lo: int, hi: int, rule: Rule, limits: OrbitLimits, tables: list[tuple] | None = None
    ) -> None:
        self.rule = rule
        self.limits = limits
        # the first odd value not held, and the first held: the values below
        # lo, which only end walks, are held when all of [1, top) fits the cap
        # and they are no more than the seeds held, so a few seeds far from 1
        # do not pay for a table down to 1
        self.top = _memo_top(lo, hi)
        fits = self.top >> 1 <= _MEMO_MAX_SEEDS and lo - 1 <= self.top - lo
        self.base = 1 if fits else lo
        n = (self.top - self.base) >> 1
        self.kinds = bytearray(n)
        if n:
            # an entry's steps are at most max_steps, its peak at most peak_bound
            steps, peaks = entry_typecodes(rule, limits, self.top)
            self.steps, self.peaks = array(steps, [0]) * n, array(peaks, [0]) * n
        else:  # detect_outcome's memo: nothing is read or written
            self.steps = self.peaks = ()
        self.cycles: list[CycleRecord] = []
        # a checkpointed scan's memo: its chunks keep their tables, and it
        # restores the loaded ones, each dropped once restored
        self.keep_tables = tables is not None
        while tables:
            self.restore(*tables.pop())
        # a lean walk runs on values from floor up: past the memo's range and
        # the trivial cycle, and from 2^K, where the jump margins hold.  Only
        # orbits of rules with q > 4 grow on average; for those, a walk whose
        # q*v + 1 is wider than gate (and not than the cap) is at v >= floor.
        q, cap = rule.multiplier, limits.max_value_bits
        self.floor = max(self.top, max(rule.trivial_cycle) + 1, 1 << _JUMP)
        self.gate = cap if q < 5 else min(cap, (q * self.floor).bit_length())

    def table(self, first: int, end: int, cycles: dict[int, CycleRecord]) -> tuple:
        """The entries of the odd values first..end - 2 of [base, top), as
        (codes, steps, peaks): kind bytes whose cycle codes are _CYCLE plus
        the cycle's position in sorted(cycles), and arrays of
        entry_typecodes(rule, limits, end - 2).  cycles must hold every
        cycle the entries' codes name."""
        a, b = (first - self.base) >> 1, (end - self.base) >> 1
        codes = bytes(self.kinds[a:b])
        if self.cycles:
            line = {odd: _CYCLE + i for i, odd in enumerate(sorted(cycles))}
            codes = codes.translate(_code_map({
                _CYCLE + i: line.get(rec.smallest_odd, 0) for i, rec in enumerate(self.cycles)
            }))
        steps, peaks = entry_typecodes(self.rule, self.limits, end - 2)
        return codes, _as_typecode(self.steps[a:b], steps), _as_typecode(self.peaks[a:b], peaks)

    def restore(self, first: int, cycles: list[CycleRecord], table: tuple) -> None:
        """Write a table of entries from first, as table returns it for the
        chunk whose cycles, in sorted order, are cycles; the entries must lie
        in [base, top)."""
        codes, steps, peaks = table
        if cycles:
            codes = codes.translate(_code_map({
                _CYCLE + i: self.cycle_code(rec) for i, rec in enumerate(cycles)
            }))
        a = (first - self.base) >> 1
        xs = slice(a, a + len(codes))
        self.kinds[xs] = codes
        self.steps[xs] = _as_typecode(steps, self.steps.typecode)
        self.peaks[xs] = _as_typecode(peaks, self.peaks.typecode)

    def cycle_code(self, record: CycleRecord) -> int:
        if record not in self.cycles:
            self.cycles.append(record)
        return _CYCLE + self.cycles.index(record)

    def outcome(self, code: int, steps: int, peak: int) -> Outcome:
        """The public form of a (code, steps, peak) result."""
        # positional fields and module-level members: building a frozen
        # dataclass is a large share of a detect_outcome call
        tag, reason = _TAG_REASON[(code if code < _CYCLE else _CYCLE) - 1]  # min() is a call
        cycle = self.cycles[code - _CYCLE] if code >= _CYCLE else None
        return Outcome(tag, cycle, reason, steps, peak)


# ---------------------------------------------------------------------------
# Chunk fold
# ---------------------------------------------------------------------------


@dataclass
class ChunkResult:
    """Fold of seed outcomes, built seed by seed and merged chunk by chunk.

    counts[min(code, _CYCLE) - 1] counts the seeds of a result code's class,
    named by COUNT_KEYS.  A chunk's result is fully determined by its
    bounds; merge is associative, so folding chunks in index order does not
    depend on how seeds were grouped.
    """

    index: int
    counts: list[int] = field(default_factory=lambda: [0] * len(COUNT_KEYS))
    cycles: dict[int, CycleRecord] = field(default_factory=dict)  # by smallest_odd
    candidates: list[int] = field(default_factory=list)  # undecided seeds, ascending
    max_excursion_bits: int = 0
    max_steps_observed: int = 0
    # the (codes, steps, peaks) of the seeds below the orbit table's top, as
    # _OrbitMemo.table returns them, kept only for a checkpoint
    table: tuple | None = None

    def add(self, seed: int, code: int, steps: int, peak: int, cycles: list[CycleRecord]) -> None:
        """Fold in the (code, steps, peak) result of one seed, after every
        seed below it; cycles maps cycle codes to their records."""
        self.counts[min(code, _CYCLE) - 1] += 1
        if code >= _CYCLE:
            cycle = cycles[code - _CYCLE]
            self.cycles.setdefault(cycle.smallest_odd, cycle)
        elif code != _TRIVIAL:
            self.candidates.append(seed)
        if peak > self.max_excursion_bits:
            self.max_excursion_bits = peak
        if steps > self.max_steps_observed:
            self.max_steps_observed = steps

    def merge(self, other: "ChunkResult") -> None:
        """Fold in the result of the seeds that follow this one's."""
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        for key, rec in other.cycles.items():
            self.cycles.setdefault(key, rec)
        self.candidates.extend(other.candidates)
        self.max_excursion_bits = max(self.max_excursion_bits, other.max_excursion_bits)
        self.max_steps_observed = max(self.max_steps_observed, other.max_steps_observed)


# 1 at the two undecided codes and 0 elsewhere: a slice of kind bytes
# translated by it selects the divergence candidates
_UNDECIDED_MASK = bytes(code in (_STEP_LIMIT, _VALUE_LIMIT) for code in range(256))


def _fold_table(chunk: ChunkResult, memo: _OrbitMemo, a: int, b: int) -> None:
    """Fold in the filled entries among the memo's entries a..b - 1 as
    ChunkResult.add of each would, in order; the seeds added to the chunk
    so far must include no candidate."""
    kinds = memo.kinds
    # code 0 holds no result; codes past the kind byte are never written
    for code in range(_STEP_LIMIT, min(_CYCLE + len(memo.cycles), 256)):
        n = kinds.count(code, a, b)
        if not n:
            continue
        chunk.counts[min(code, _CYCLE) - 1] += n
        if code >= _CYCLE:
            cycle = memo.cycles[code - _CYCLE]
            chunk.cycles.setdefault(cycle.smallest_odd, cycle)
    undecided = kinds[a:b].translate(_UNDECIDED_MASK)
    if 1 in undecided:  # compress steps through every seed, selected or not
        chunk.candidates += compress(range(memo.base + 2 * a, memo.base + 2 * b, 2), undecided)
    # views, not copies, of the wider arrays
    chunk.max_excursion_bits = max(chunk.max_excursion_bits, max(memoryview(memo.peaks)[a:b]))
    chunk.max_steps_observed = max(chunk.max_steps_observed, max(memoryview(memo.steps)[a:b]))


# the orbit memo of the scan whose chunks this pool worker process runs
_worker_memo: _OrbitMemo | None = None


def _init_worker(
    lo: int, hi: int, rule: Rule, limits: OrbitLimits, tables: list[tuple] | None = None
) -> None:
    global _worker_memo
    _worker_memo = _OrbitMemo(lo, hi, rule, limits, tables)


# the fewest seeds of a block, and of one of its residue classes, that the
# descent fill takes from the table: below that its slicing costs more than
# the walks it saves
_FILL_MIN_SEEDS = 8
# the most odd steps of a descent word
_WORD_MAX_ODD_STEPS = 3
# a block spans fewer integers than twice the table's seeds, so a class
# modulo more than this holds at most one seed of any block
_WORD_MAX_MODULUS = 2 * _MEMO_MAX_SEEDS


@cache
def _descent_words(q: int) -> tuple[tuple[int, int, tuple[tuple[int, int, int, int, int], ...]], ...]:
    """The descent words of q, as (K, b, levels), sorted by K.

    A word is a valuation sequence k_1..k_d, d at most _WORD_MAX_ODD_STEPS,
    whose prefixes climb (q^i > 2^K_i for i < d, K_i = k_1 + ... + k_i) and
    whose whole descends (q^d < 2^K, K = K_d); 2^(K+1) is at most
    _WORD_MAX_MODULUS.  The odd x whose first d odd steps have exactly these
    valuations are x = b mod 2^(K+1) (Terras 1976, Everett 1977): b is
    built backwards in the 2-adics, from u_d = 1 mod 2 through
    u_(i-1) = (2^k_i * u_i - 1) / q.  The i-th odd value after such an x is
    u_i = (q^i*x + c_i) >> K_i, with c_0 = 0 and c_i = q*c_(i-1) + 2^K_(i-1),
    so it grows by q^i * 2^(K+1-K_i) from one seed of the class to the next.
    levels holds, for i = 0..d, (q^i, c_i, K_i, q^i * 2^(K-K_i), the steps
    from u_i to u_d): the last two are u_i's stride in table entries and
    the sum of k_l + 1 for l > i.
    """
    words = []

    def extend(word: tuple[int, ...], K: int, qd: int) -> None:
        for k in count(1):
            if 2 << (K + k) > _WORD_MAX_MODULUS:
                return
            if q * qd < 1 << (K + k):
                words.append(word + (k,))
            elif len(word) + 1 < _WORD_MAX_ODD_STEPS:
                extend(word + (k,), K + k, q * qd)  # q^i is odd, so it never equals 2^K_i

    extend((), 0, 1)
    table = []
    for word in words:
        K = sum(word)
        b, e = 1, 1
        for k in reversed(word):
            e += k
            b = (((b << k) - 1) * pow(q, -1, 1 << e)) % (1 << e)
        levels, qi, ci, Ki = [], 1, 0, 0
        for i in range(len(word) + 1):
            levels.append((qi, ci, Ki, qi << (K - Ki), sum(word[i:]) + len(word) - i))
            if i < len(word):
                qi, ci, Ki = q * qi, q * ci + (1 << Ki), Ki + word[i]
        table.append((K, b, tuple(levels)))
    table.sort(key=lambda w: w[0])
    return tuple(table)


def _descent_fill(memo: _OrbitMemo, x0: int, end: int) -> int:
    """Fill the entries of the seeds of the block from x0 that fall below
    x0 within _WORD_MAX_ODD_STEPS odd steps, and those of their climbing
    values below top, from the entries where they land, one class of
    _descent_words at a time; returns the block's end, at most end.  The
    module docstring says which classes are left to the walks and why each
    entry written is its value's own result."""
    q = memo.rule.multiplier
    kmin = q.bit_length()  # the least k with 2^k > q, so that u < x
    # past the largest odd x with (q*x + 1) >> kmin below x0
    x1 = min(end, ((((x0 << kmin) - 2) // q - 1) | 1) + 2)
    if (x1 - x0) >> (kmin + 1) < _FILL_MIN_SEEDS:
        # the first class holds 1 in 2^kmin of the block's odd seeds; blocks
        # grow with x0, so walk up to 2*x0 and try again there
        return min(end, 2 * x0 + 1)
    if (q * (x1 - 2) + 1).bit_length() > memo.limits.max_value_bits:
        return x1
    base, top, gate = memo.base, memo.top, memo.gate
    least = max(base, max(memo.rule.trivial_cycle) + 1)  # the least landing value read
    room = memo.limits.max_steps
    kinds, steps, peaks = memo.kinds, memo.steps, memo.peaks
    for K, b, levels in _descent_words(q):
        m = 2 << K
        if (x1 - x0 + m - 1) // m < _FILL_MIN_SEEDS:  # no class of K or more is large enough
            return x1
        # the class's seeds in the block whose last value u_d lies below x0:
        # u_d grows by 2*q^d from one seed to the next, one table entry by q^d
        first = x0 + (b - x0) % m
        qd, cd, kd, _, _ = levels[-1]
        u = (qd * first + cd) >> kd
        n = min((x1 - 1 - first) // m, (x0 - 1 - u) // (2 * qd)) + 1
        j = (u - base) >> 1
        if n < _FILL_MIN_SEEDS or u < least or not kinds[j]:
            continue
        # no value the walk goes on past may start a lean walk or pass the cap
        last = first + (n - 1) * m
        if any((q * ((qi * last + ci) >> ki) + 1).bit_length() > gate for qi, ci, ki, *_ in levels[:-1]):
            continue
        us = slice(j, j + n * qd, qd)
        codes, walked = kinds[us], steps[us]
        if 0 in codes or max(walked) + levels[0][4] > room:
            continue
        tails = peaks[us]
        # each level's q*u_i + 1 has bits bits for the class's first narrow
        # seeds and bits + 1 after them (the block spans a factor of less
        # than 2^kmin / q < 2), so the widest of levels i..d-1 is wide for
        # the first split seeds and wide + 1 after them
        wide, split = 0, n
        for qi, ci, ki, stride, more in reversed(levels[:-1]):
            v = (qi * first + ci) >> ki  # the class's least u_i
            bits = (q * v + 1).bit_length()
            narrow = min(n, (((1 << bits) - 2) // q - v) // (2 * stride) + 1)
            if bits > wide:
                wide, split = bits, narrow
            elif bits == wide and narrow < split:
                split = narrow
            # the level's values below top; every seed is below top
            held = min(n, (top - 1 - v) // (2 * stride) + 1) if ki else n
            if held <= 0:
                continue
            i = (v - base) >> 1
            xs = slice(i, i + held * stride, stride)
            kinds[xs] = codes if held == n else codes[:held]
            steps[xs] = array(steps.typecode, map(add, islice(walked, held), repeat(more)))
            # a comprehension: map(max, ...) costs three times as much a seed
            pairs = zip(islice(tails, held), chain(repeat(wide, split), repeat(wide + 1)))
            peaks[xs] = array(peaks.typecode, [p if p > w else w for p, w in pairs])
    return x1


def _scan_chunk(index: int, lo: int, hi: int, memo: _OrbitMemo | None = None) -> ChunkResult:
    """Fold the chunk lo..hi of the scan that memo belongs to, reading and
    filling it; without one, the memo of the pool worker this runs in.  The
    module docstring says which seeds are filled from the entries where
    they land, which are walked, which are folded from the table and which go
    through ChunkResult.add.  On a checkpointed scan's memo, a chunk with
    seeds below the memo's top keeps their entries as its table."""
    memo = memo or _worker_memo
    walk = _walker(memo)
    chunk = ChunkResult(index)
    cycles = memo.cycles
    base = memo.base
    end = min(hi + 2, memo.top)  # the first seed not held by the table
    if lo < end:
        kinds = memo.kinds
        x0 = lo
        while x0 < end:
            x1 = _descent_fill(memo, x0, end)
            b = (x1 - base) >> 1
            i = kinds.find(0, (x0 - base) >> 1, b)
            while i >= 0:
                seed = base + 2 * i
                result = walk(seed)
                if not kinds[i]:  # a cycle member, or a cycle code past the kind byte
                    chunk.add(seed, *result, cycles)
                i = kinds.find(0, i + 1, b)
            x0 = x1
        _fold_table(chunk, memo, (lo - base) >> 1, (end - base) >> 1)
    for seed in range(max(lo, end), hi + 1, 2):
        chunk.add(seed, *walk(seed), cycles)
    if memo.keep_tables and lo < end:  # numbered by all of the chunk's cycles
        chunk.table = memo.table(lo, end, chunk.cycles)
    return chunk
