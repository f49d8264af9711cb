"""Orbit outcome classification, cycle canonicalization, and range scanning.

detect_outcome walks the accelerated odd-to-odd map but reproduces the
step-for-step termination behaviour of dynamics.orbit exactly, including
terminations that fall inside an even run.  scan_range partitions a seed
range into fixed-size chunks, classifies every odd seed, and folds chunk
results in index order so the report is independent of worker count and of
checkpoint interruptions.

The scan kernel (walks, the orbit memo and the chunk fold) passes an
orbit's result as one (code, steps, peak) triple.  The code is 0 for a
step-limited result, 1 converged, 2 value-limited, and 3 + i for cycle i of
the memo's list of cycles met so far.  Only detect_outcome turns a result
into the public Outcome, through _OrbitMemo.outcome.

A scan keeps an orbit memo in each process that runs its chunks, which also
carries the scan's rule and limits: a kind byte holding the result code,
steps and peak for each odd value of [lo, top), in arrays indexed by
(v - lo) >> 1, where lo is the scan's first seed and top covers its first
2^20 seeds (about 7 MB at most).  A step-limited result is never written,
so code 0 reads back as unknown, and only codes below 256 fit the byte and
are written; a cycle with a larger code is walked each time.  The memo is
filled from every finished walk of every chunk the process runs for the
scan, not only from the seeds, and a seed whose entry is already filled
takes it without a walk.  In a scan of more than 2^20 seeds, the values
from top on are held by no memo, but walks from them still end on the
entries below top that their orbits reach.

Write.  A walk that ends converged, value-limited or in a cycle records
each odd value v on it that lies in [lo, top): steps is the walk's total
minus v's step index, and peak is the largest bit length from v on, a
suffix maximum over (q*v + 1).bit_length() and the end of the walk (the
reused entry's peak, when the walk ended on one).  A walk records from the
first value in [lo, top) after its seed, plus the seed itself from its
outcome, so a walk that meets no such value writes one entry.  This is v's
own result unless some value of the walk before v lies on v's suffix; then
v lies on a cycle.  So:

* a converged result is written: the only cycle it can reach is the
  trivial one, and trivial members end the walk before they are recorded;
* a value-limit result is written: an orbit that passes the cap is not
  periodic;
* of a cycle result only the values before the cycle's entry point are
  written, never the cycle's members; an orbit that reaches a member from
  outside enters the cycle at its own entry point, not at the member;
* a step-limit result writes nothing: its steps and peak are cut short.

Read.  When a walk reaches an odd value u in [lo, top) that its own seen
map does not hold, and u's entry is filled, the orbit from there on is u's
orbit, so the result is the prefix plus u's: steps add, peaks take the
maximum.  By the rules above u lies on no cycle, so no value from before u
can repeat after it.  The entry is used only when the total stays within
the step budget; otherwise the walk goes on, which keeps the step-limit
peak exact.  The memo is read only after the seen map misses, so the
trivial and repetition checks come first, as in dynamics.orbit.

Lean walk.  Orbits of 5Z+1 grow on average (log2 5 > 2, Lagarias 1985),
and most seeds of a 5Z+1 census end at the value cap far above the memo.
Once per walk, at its first odd value whose q*v + 1 is wider than the
memo's gate, which puts v at or past the memo's floor (at least top, past
the trivial cycle's members and at least 2^K), the walk hands the orbit to
a lean walk.  That walk keeps no seen map and no order list and reads no
memo; it returns a result only when the orbit passes the cap, and returns
None when a value falls below the floor or the step budget runs out, and
then the walk goes on from where it handed the orbit over.  The budget also
ends a lean walk caught in a cycle above the floor.  A result it returns is
the exact one:

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
  which record writes without recomputing;
* a jump moves K = 8 Terras steps at once, T(v) = (q*v + 1) / 2 for odd v
  and v / 2 for even v (Terras 1976): for v = a*2^K + b, T^K(v) = q^c*a +
  T^K(b), which is K + c plain steps, with c the odd values among b, T(b),
  ..., T^(K-1)(b).  The table holds, for each residue b, a margin that
  bounds how much wider than v any value inside the jump can be, so a jump
  is taken only when v's bit length plus the margin is within the cap: no
  jump passes over a crossing, and the step at which the orbit passes the
  cap is found by plain steps.  A jump may pass a trivial member or a value
  of the memo's range; by the first point, that can end no orbit that
  passes the cap, and the lean walk returns nothing for any other orbit.

3Z+1 orbits shrink on average and every seed of a 3Z+1 census converges,
so a lean walk there would be thrown away: its gate is the cap, and the
loop runs no extra test per transition.

Every filled entry is its value's own result under the scan's rule and
limits, whichever walk wrote it, so the order in which chunks fill the
memo, and which process fills it, cannot change an outcome: chunk results,
checkpoints and report bytes do not depend on the worker count, the chunk
size or resumes.  A resumed scan starts with an empty memo, which its walks
fill over the whole range, completed chunks included.  A memo lives only as
long as its scan (the in-process runner's local, or the pool worker
processes), because its entries hold only for one rule and one set of
limits.  detect_outcome walks with a memo that holds no value.

The chunks left to run go through one runner: in this process when one is
left, else in a pool of min(workers, chunks left, CPU count) processes fed
lazily.  A checkpoint is written after each chunk and validated on load
against its own range and chunk size; a chunk that does not fit raises
CheckpointError.  Each write replaces the whole file atomically (a .tmp file
and os.replace) with the bytes of json.dump(state.to_doc(), sort_keys=True,
indent=2) and a newline, but a scan encodes each chunk's text only once, when
the chunk is loaded or finishes: a finished chunk's text never changes, so
the write joins the cached texts under a freshly encoded header.
"""

from __future__ import annotations

import enum
import json
import os
from array import array
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field, replace
from functools import cache
from itertools import islice
from typing import Iterable, Iterator

from .dynamics import OrbitLimits, Rule, TerminationKind, odd_orbit, orbit_values, rule_for
from .numerics import decimal_to_int, governor_index, int_to_decimal, require, show

SCHEMA_VERSION = 1

DEFAULT_CHUNK_SIZE = 1 << 16  # seeds per chunk

# outcome counts of a chunk and of a report, in this order
COUNT_KEYS = (
    "converged_trivial",
    "entered_cycle",
    "undecided_step_limit",
    "undecided_value_limit",
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

    @staticmethod
    def from_doc(doc: dict, rule: Rule) -> "CycleRecord":
        return canonical_cycle([decimal_to_int(v) for v in doc["all_members"]], rule)


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
    if len(set(members)) != len(members):
        raise ValueError("cycle members must be distinct")
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


def _expand_cycle(odds: list[int], rule: Rule) -> list[int]:
    """Full member list of a cycle given its odd members in orbit order."""
    return list(orbit_values(islice(odd_orbit(odds[0], rule), len(odds) + 1)))[:-1]


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
    memo = _OrbitMemo(x, x - 2, rule, limits)  # holds no value
    return memo.outcome(*_walk(x, memo))


# the result code of an orbit, shared by walks, orbit memo entries and the
# chunk fold; a step-limited result is never written to the memo, so its
# code 0 reads back as unknown
_STEP_LIMIT, _TRIVIAL, _VALUE_LIMIT = 0, 1, 2
_CYCLE = 3  # plus the cycle's position in _OrbitMemo.cycles
# about 7 MB with 32-bit steps and 16-bit peaks (17 MB with 64-bit ones):
# the table stays bounded for any range
_MEMO_MAX_SEEDS = 1 << 20


def _walk(x: int, memo: _OrbitMemo) -> tuple[int, int, int]:
    """detect_outcome's loop, as (code, steps, peak) under the memo's rule
    and limits; it also ends at a filled entry of the memo, tries a lean
    walk once past the memo's gate, and records the results the walk
    determines."""
    rule = memo.rule
    q = rule.multiplier
    trivial = rule.trivial_members
    trivial_odds = rule.trivial_odd_members
    max_steps = memo.limits.max_steps
    cap = memo.limits.max_value_bits
    gate = memo.gate  # cap, or below it where a value past it may start a lean walk
    lo, top = memo.lo, memo.top

    peak = x.bit_length()
    if x in trivial_odds:
        return _TRIVIAL, 0, peak
    # odd value -> valuation of the run that entered it (0 for x), or -1 for
    # a trivial odd member, so that one lookup tells the three runs apart
    seen: dict[int, int] = dict.fromkeys(trivial_odds, -1)
    seen[x] = 0
    order: list[int] = [x]
    cur = x
    s = 0
    first = 0  # position in order of the first value after x in [lo, top), once met
    tail = 0  # peak of the memo entry the walk ends on, or of its crossing of the cap
    while True:
        t = q * cur + 1
        bits = t.bit_length()
        if bits > peak:
            peak = bits
        if bits > gate:
            if bits > cap:
                code, steps, end, tail = _VALUE_LIMIT, s + 1, len(order), bits
                break
            # cur is past the memo's floor: once per walk, try whether the
            # orbit passes the cap without this loop's bookkeeping
            gate = cap
            lean = _lean_walk(cur, s, memo)
            if lean is not None:
                code, steps, peak = lean
                end, tail = len(order), peak
                break
        # v2(t) inlined: a call per transition is a measurable share of this loop
        k = (t & -t).bit_length() - 1
        u = t >> k
        hit = seen.get(u)
        if hit is None:
            # u is neither trivial nor seen, so the orbit goes at least one step past it
            stop = s + k + 2
            if lo <= u < top:
                if not first:
                    first = len(order)
                known = memo.reuse(u, stop - 1)
                if known is not None:
                    code, steps, tail = known
                    steps += stop - 1
                    peak = max(peak, tail)
                    end = len(order)
                    break
        elif hit < 0:
            # first trivial member along t>>1 .. t>>k; u itself guarantees one
            stop = s + 1 + next(j for j in range(1, k + 1) if (t >> j) in trivial)
        else:
            # second occurrence of the first repeated value u << min(entry valuations)
            stop = s + 1 + k - min(hit, k)
        if stop > max_steps:
            return _STEP_LIMIT, max_steps, peak
        if hit is not None:
            steps = stop
            if hit < 0:
                code, end = _TRIVIAL, len(order)
            else:
                # odd values before u lead into the cycle; u and those after it are members
                end = order.index(u)
                code = memo.cycle_code(canonical_cycle(_expand_cycle(order[end:], rule), rule))
            break
        s = stop - 1
        seen[u] = k
        order.append(u)
        cur = u
    memo.record(code, steps, peak, order, seen, s, first, end, tail)
    return code, steps, peak


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
    cur = x
    while True:
        mult, low, n, margin = table[cur & _JUMP_MASK]
        if cur.bit_length() + margin <= cap:
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


def _zeros(typecode: str, n: int, bound: int) -> array:
    """n zeros in an array of typecode if it holds 0..bound, else of 'q'
    (storing a value the typecode cannot hold raises OverflowError)."""
    if bound >> (8 * array(typecode).itemsize):
        typecode = "q"
    return array(typecode, [0]) * n


class _OrbitMemo:
    """One scan's rule and limits, and the results of the odd values of
    [lo, top), filled by the walks of the scan's chunks.

    Entry (v - lo) >> 1 holds the result code, the steps taken and the peak
    bits of v's orbit; code 0 means unknown.  The range covers the first
    _MEMO_MAX_SEEDS seeds of lo..hi, and is empty when hi is lo - 2.  The
    module docstring says which results are written and why each is exact.
    """

    def __init__(self, lo: int, hi: int, rule: Rule, limits: OrbitLimits) -> None:
        n = min((hi - lo) // 2 + 1, _MEMO_MAX_SEEDS)
        self.rule = rule
        self.limits = limits
        self.lo = lo
        self.top = lo + 2 * n  # the first odd value not held
        self.kinds = bytearray(n)
        if n:
            # an entry's steps are at most max_steps; its peak is the bit length
            # of some q*v + 1 with v under the cap or below top (q < 8)
            self.steps = _zeros("I", n, limits.max_steps)
            self.peaks = _zeros("H", n, max(limits.max_value_bits, self.top.bit_length()) + 8)
        else:  # detect_outcome's memo: nothing is read or written
            self.steps = self.peaks = ()
        self.cycles: list[CycleRecord] = []
        # a lean walk runs on values from floor up: past the memo's range and
        # the trivial cycle, and from 2^K, where the jump margins hold.  Only
        # orbits of rules with q > 4 grow on average; for those, a walk whose
        # q*v + 1 is wider than gate (and not than the cap) is at v >= floor.
        q, cap = rule.multiplier, limits.max_value_bits
        self.floor = max(self.top, max(rule.trivial_cycle) + 1, 1 << _JUMP)
        self.gate = cap if q < 5 else min(cap, (q * self.floor).bit_length())

    def cycle_code(self, record: CycleRecord) -> int:
        if record not in self.cycles:
            self.cycles.append(record)
        return _CYCLE + self.cycles.index(record)

    def outcome(self, code: int, steps: int, peak: int) -> Outcome:
        """The public form of a (code, steps, peak) result."""
        if code == _TRIVIAL:
            return Outcome(OutcomeTag.CONVERGED_TRIVIAL, steps_taken=steps, peak_bits=peak)
        if code >= _CYCLE:
            cycle = self.cycles[code - _CYCLE]
            return Outcome(OutcomeTag.CYCLE, cycle=cycle, steps_taken=steps, peak_bits=peak)
        reason = TerminationKind.STEP_LIMIT if code == _STEP_LIMIT else TerminationKind.VALUE_LIMIT
        return Outcome(
            OutcomeTag.UNDECIDED, undecided_reason=reason, steps_taken=steps, peak_bits=peak
        )

    def record(
        self,
        code: int,
        total: int,
        peak: int,
        order: list[int],
        seen: dict[int, int],
        s: int,
        first: int,
        end: int,
        tail: int,
    ) -> None:
        """Write the results a finished walk determines.

        order holds the walk's odd values, the last of them at step s; seen
        maps each to the valuation of the run that entered it.  Values from
        position end on are members of the result's cycle and are not
        written.  The seed order[0] is written from the result; the values
        from position first (0 when none lay in range) back from the end of
        the walk get the total minus their step index and their suffix peak,
        which starts from tail, the peak of an entry the walk ended on.
        Only codes that fit the kind byte are written.
        """
        if code > 255:
            return
        lo, top = self.lo, self.top
        kinds, steps, peaks = self.kinds, self.steps, self.peaks
        x = order[0]
        if end and x < top:
            i = (x - lo) >> 1
            kinds[i] = code
            steps[i] = total
            peaks[i] = peak
        if not first:
            return
        q = self.rule.multiplier
        peak = tail
        # a value-limited orbit's crossing is wider than every value before
        # it, so it is every suffix's peak
        bounded = code != _VALUE_LIMIT
        for j in range(len(order) - 1, first - 1, -1):
            v = order[j]
            if bounded:
                bits = (q * v + 1).bit_length()
                if bits > peak:
                    peak = bits
            if j < end and lo <= v < top:
                i = (v - lo) >> 1
                kinds[i] = code
                steps[i] = total - s
                peaks[i] = peak
            s -= 1 + seen[v]

    def reuse(self, u: int, prefix: int) -> tuple[int, int, int] | None:
        """The stored (code, steps, peak) of u, a value of the memo's range,
        for an orbit that reaches it after prefix steps, or None when its
        entry is unknown or would pass the step budget."""
        i = (u - self.lo) >> 1
        code = self.kinds[i]
        if code and prefix + self.steps[i] <= self.limits.max_steps:
            return code, self.steps[i], self.peaks[i]
        return None


def _chunk_outcomes(
    lo: int, hi: int, memo: _OrbitMemo
) -> Iterator[tuple[int, tuple[int, int, int]]]:
    """(seed, (code, steps, peak)) for the odd seeds lo..hi, ascending, with
    the memo of a scan that holds them; a seed that an earlier walk passed
    through takes its result from the memo, and each walk may end at a
    value whose result is known."""
    top = memo.top
    for seed in range(lo, hi + 1, 2):
        known = memo.reuse(seed, 0) if seed < top else None
        yield seed, known or _walk(seed, memo)


# ---------------------------------------------------------------------------
# Range scanning
# ---------------------------------------------------------------------------


@dataclass
class ChunkResult:
    """Fold of seed outcomes, built seed by seed and merged chunk by chunk.

    A chunk's result is fully determined by its bounds; merge is associative,
    so folding chunks in index order does not depend on how seeds were grouped.
    """

    index: int
    counts: list[int] = field(default_factory=lambda: [0] * len(COUNT_KEYS))
    cycles: dict[int, CycleRecord] = field(default_factory=dict)  # by smallest_odd
    candidates: list[int] = field(default_factory=list)  # undecided seeds, ascending
    max_excursion_bits: int = 0
    max_steps_observed: int = 0

    def add(self, seed: int, code: int, steps: int, peak: int, cycles: list[CycleRecord]) -> None:
        """Fold in the (code, steps, peak) result of one seed, after every
        seed below it; cycles maps cycle codes to their records."""
        if code == _TRIVIAL:
            slot = 0
        elif code >= _CYCLE:
            slot = 1
            cycle = cycles[code - _CYCLE]
            self.cycles.setdefault(cycle.smallest_odd, cycle)
        else:
            slot = 3 if code == _VALUE_LIMIT else 2
            self.candidates.append(seed)
        self.counts[slot] += 1
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

    def to_doc(self) -> dict:
        return {
            "index": self.index,
            "counts": dict(zip(COUNT_KEYS, self.counts)),
            "cycles": [self.cycles[k].to_doc() for k in sorted(self.cycles)],
            "candidates": [int_to_decimal(v) for v in self.candidates],
            "max_excursion_bits": self.max_excursion_bits,
            "max_steps_observed": self.max_steps_observed,
        }

    @staticmethod
    def from_doc(doc: dict, rule: Rule) -> "ChunkResult":
        cycles = (CycleRecord.from_doc(d, rule) for d in doc["cycles"])
        return ChunkResult(
            index=require(doc["index"], "chunk index", 0),
            counts=[require(doc["counts"][k], f"chunk count {k}", 0) for k in COUNT_KEYS],
            cycles={rec.smallest_odd: rec for rec in cycles},
            candidates=[decimal_to_int(v) for v in doc["candidates"]],
            max_excursion_bits=require(doc["max_excursion_bits"], "chunk max_excursion_bits", 0),
            max_steps_observed=require(doc["max_steps_observed"], "chunk max_steps_observed", 0),
        )


# the orbit memo of the scan whose chunks this pool worker process runs
_worker_memo: _OrbitMemo | None = None


def _init_worker(lo: int, hi: int, rule: Rule, limits: OrbitLimits) -> None:
    global _worker_memo
    _worker_memo = _OrbitMemo(lo, hi, rule, limits)


def _scan_chunk(index: int, lo: int, hi: int, memo: _OrbitMemo | None = None) -> ChunkResult:
    """Fold the chunk lo..hi of the scan that memo belongs to, reading and
    filling it; without one, the memo of the pool worker this runs in."""
    memo = memo or _worker_memo
    chunk = ChunkResult(index)
    cycles = memo.cycles
    for seed, (code, steps, peak) in _chunk_outcomes(lo, hi, memo):
        chunk.add(seed, code, steps, peak, cycles)
    return chunk


@dataclass(frozen=True)
class ScanReport:
    rule_multiplier: int
    lo: int
    hi: int
    limits: OrbitLimits
    counts: dict[str, int]
    cycles: tuple[CycleRecord, ...]
    divergence_candidates: tuple[int, ...]
    max_excursion_bits: int
    max_steps_observed: int
    schema_version: int = SCHEMA_VERSION

    def to_doc(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "kind": "govlab-scan-report",
            "rule": f"{self.rule_multiplier}Z+1",
            "range": {"lo": int_to_decimal(self.lo), "hi": int_to_decimal(self.hi)},
            "limits": {
                "max_steps": self.limits.max_steps,
                "max_value_bits": self.limits.max_value_bits,
            },
            "counts": dict(self.counts),
            "cycles": [c.to_doc() for c in self.cycles],
            "divergence_candidates": [int_to_decimal(v) for v in self.divergence_candidates],
            "stats": {
                "max_excursion_bits": self.max_excursion_bits,
                "max_steps_observed": self.max_steps_observed,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), sort_keys=True, indent=2) + "\n"


class CheckpointError(Exception):
    """Raised when a checkpoint file is unreadable or does not match the scan."""


@dataclass
class ScanState:
    """Scan identity plus the chunk results accumulated so far."""

    rule_multiplier: int
    lo: int
    hi: int
    limits: OrbitLimits
    chunk_size: int
    completed: dict[int, ChunkResult]

    def to_doc(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "govlab-scan-checkpoint",
            "rule": f"{self.rule_multiplier}Z+1",
            "multiplier": self.rule_multiplier,
            "range": {"lo": int_to_decimal(self.lo), "hi": int_to_decimal(self.hi)},
            "limits": {
                "max_steps": self.limits.max_steps,
                "max_value_bits": self.limits.max_value_bits,
            },
            "chunk_size": self.chunk_size,
            "chunks": [self.completed[i].to_doc() for i in sorted(self.completed)],
        }


def checkpoint_save(state: ScanState, path: str) -> None:
    """Atomically write the scan state as a self-describing JSON document."""
    texts = {i: _chunk_text(chunk) for i, chunk in state.completed.items()}
    _write_checkpoint(state, texts, path)


def _chunk_text(chunk: ChunkResult) -> str:
    """The chunk as an item of a checkpoint's chunk list: its own
    json.dumps(..., sort_keys=True, indent=2) text, indented to depth 2."""
    return json.dumps(chunk.to_doc(), sort_keys=True, indent=2).replace("\n", "\n    ")


def _write_checkpoint(state: ScanState, texts: dict[int, str], path: str) -> None:
    """Atomically write state, whose chunk i has the _chunk_text texts[i],
    as the bytes of json.dump(state.to_doc(), fh, sort_keys=True, indent=2)
    and a newline; only the header is encoded here."""
    header = json.dumps(replace(state, completed={}).to_doc(), sort_keys=True, indent=2)
    head, chunks, tail = header.partition('"chunks": []')
    if state.completed:
        items = ",\n    ".join(texts[i] for i in sorted(state.completed))
        chunks = f'"chunks": [\n    {items}\n  ]'
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(f"{head}{chunks}{tail}\n")
    os.replace(tmp, path)


def checkpoint_load(path: str) -> ScanState:
    """Load a checkpoint, raising CheckpointError on any structural problem,
    including a chunk that does not fit the checkpoint's own range and chunk size.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    except ValueError as exc:  # not JSON, or an int past the digit cap
        raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from exc
    try:
        if require(doc["schema_version"], "checkpoint schema_version") != SCHEMA_VERSION:
            raise CheckpointError(
                f"checkpoint schema_version {show(doc['schema_version'])} is not "
                f"{SCHEMA_VERSION}"
            )
        if doc.get("kind") != "govlab-scan-checkpoint":
            raise CheckpointError(f"{path} is not a scan checkpoint")
        rule = rule_for(doc["multiplier"])
        limits = OrbitLimits(
            max_steps=doc["limits"]["max_steps"],
            max_value_bits=doc["limits"]["max_value_bits"],
        )
        state = ScanState(
            rule_multiplier=rule.multiplier,
            lo=decimal_to_int(doc["range"]["lo"]),
            hi=decimal_to_int(doc["range"]["hi"]),
            limits=limits,
            chunk_size=doc["chunk_size"],
            completed={},
        )
        n_seeds, n_chunks = _layout(state.lo, state.hi, state.chunk_size)
        for chunk_doc in doc["chunks"]:
            chunk = ChunkResult.from_doc(chunk_doc, rule)
            _check_chunk(chunk, state.lo, n_seeds, state.chunk_size, n_chunks)
            if chunk.index in state.completed:
                raise ValueError(f"chunk {int_to_decimal(chunk.index)} appears twice")
            state.completed[chunk.index] = chunk
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from exc
    return state


def _layout(lo: int, hi: int, chunk_size: int) -> tuple[int, int]:
    """Seed count and chunk count of a scan, after checking its bounds."""
    require(lo, "scan_range lo", odd=True)
    require(hi, "scan_range hi", lo, odd=True)
    require(chunk_size, "scan_range chunk_size")
    n_seeds = (hi - lo) // 2 + 1
    return n_seeds, (n_seeds + chunk_size - 1) // chunk_size


def _chunk_bounds(lo: int, n_seeds: int, chunk_size: int, index: int) -> tuple[int, int]:
    first = index * chunk_size
    last = min(first + chunk_size, n_seeds) - 1
    return lo + 2 * first, lo + 2 * last


def _check_chunk(
    chunk: ChunkResult, lo: int, n_seeds: int, chunk_size: int, n_chunks: int
) -> None:
    """Raise ValueError unless the chunk's index, counts and candidates fit
    its seeds; from_doc has checked that they are not negative."""
    i = chunk.index
    if i >= n_chunks:
        raise ValueError(
            f"chunk index {int_to_decimal(i)} is outside 0..{int_to_decimal(n_chunks - 1)}"
        )
    chunk_name = f"chunk {int_to_decimal(i)}"
    c_lo, c_hi = _chunk_bounds(lo, n_seeds, chunk_size, i)
    n = (c_hi - c_lo) // 2 + 1  # len() of the seed range overflows past sys.maxsize
    if sum(chunk.counts) != n:
        counts = ", ".join(map(int_to_decimal, chunk.counts))
        raise ValueError(
            f"{chunk_name} counts [{counts}] do not add up to {int_to_decimal(n)} seeds"
        )
    cands = chunk.candidates
    if len(cands) != chunk.counts[2] + chunk.counts[3]:
        raise ValueError(f"{chunk_name} has {len(cands)} candidates, not one per undecided seed")
    seeds = range(c_lo, c_hi + 1, 2)
    if not all(v in seeds for v in cands) or any(a >= b for a, b in zip(cands, cands[1:])):
        raise ValueError(
            f"{chunk_name} candidates are not ascending odd seeds in "
            f"{int_to_decimal(c_lo)}:{int_to_decimal(c_hi)}"
        )


def _merge(state: ScanState, rule: Rule, n_chunks: int) -> ScanReport:
    total = ChunkResult(index=0)
    for i in range(n_chunks):
        total.merge(state.completed[i])
    if total.counts[0] > 0:
        # seeds reached the trivial cycle, so it was observed even though no
        # seed's outcome carries it as a CycleRecord
        triv = trivial_cycle_record(rule)
        total.cycles.setdefault(triv.smallest_odd, triv)
    counts = dict(zip(COUNT_KEYS, total.counts))
    counts["total"] = sum(total.counts)
    return ScanReport(
        rule_multiplier=rule.multiplier,
        lo=state.lo,
        hi=state.hi,
        limits=state.limits,
        counts=counts,
        cycles=tuple(total.cycles[k] for k in sorted(total.cycles)),
        divergence_candidates=tuple(total.candidates),
        max_excursion_bits=total.max_excursion_bits,
        max_steps_observed=total.max_steps_observed,
    )


def _run_chunks(
    tasks: Iterable[tuple], workers: int, scan: tuple[int, int, Rule, OrbitLimits]
) -> Iterator[ChunkResult]:
    """Run _scan_chunk on each (index, lo, hi) in tasks; yield results as they finish.

    scan is the (lo, hi, rule, limits) of the scan the chunks belong to; each
    process that runs chunks builds one orbit memo for it, which every chunk
    it runs reads and fills.  Workers are capped at the CPU count.  One
    worker runs the chunks in this process.  More run them in a pool of that
    size, which reads tasks lazily and holds at most 2 * workers chunks.
    """
    workers = min(workers, os.cpu_count() or 1)
    if workers <= 1:
        memo = None  # built with the first task, so no chunks left builds none
        for args in tasks:
            memo = memo or _OrbitMemo(*scan)
            yield _scan_chunk(*args, memo)
        return
    tasks = iter(tasks)
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=scan
    ) as pool:
        running: set = set()
        while True:
            for args in islice(tasks, 2 * workers - len(running)):
                running.add(pool.submit(_scan_chunk, *args))
            if not running:
                return
            done, running = wait(running, return_when=FIRST_COMPLETED)
            for fut in done:
                yield fut.result()


def scan_range(
    lo: int,
    hi: int,
    rule: Rule,
    limits: OrbitLimits,
    workers: int = 1,
    *,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    checkpoint_path: str | None = None,
) -> ScanReport:
    """Classify every odd seed in [lo, hi] and fold the results into a report.

    Chunks are computed in this process, or in a pool of up to `workers`
    processes when more than one chunk is left to run, each process with one
    orbit memo for the scan, and merged in index order; the report bytes do
    not depend on the worker count.  With
    checkpoint_path set, the state is rewritten after every completed chunk
    and a matching existing checkpoint is resumed.
    """
    require(workers, "scan_range workers")
    n_seeds, n_chunks = _layout(lo, hi, chunk_size)

    state = ScanState(
        rule_multiplier=rule.multiplier,
        lo=lo,
        hi=hi,
        limits=limits,
        chunk_size=chunk_size,
        completed={},
    )
    if checkpoint_path is not None and os.path.exists(checkpoint_path):
        loaded = checkpoint_load(checkpoint_path)
        if replace(loaded, completed={}) != state:
            raise CheckpointError(
                f"checkpoint {checkpoint_path} was written by a different scan "
                f"(rule/range/limits/chunk_size mismatch)"
            )
        state = loaded
    # the checkpoint text of each completed chunk, encoded once
    texts = {i: _chunk_text(chunk) for i, chunk in state.completed.items()}

    tasks = (
        (i, *_chunk_bounds(lo, n_seeds, chunk_size, i))
        for i in range(n_chunks)
        if i not in state.completed
    )
    workers = min(workers, n_chunks - len(state.completed))
    for chunk in _run_chunks(tasks, workers, (lo, hi, rule, limits)):
        state.completed[chunk.index] = chunk
        if checkpoint_path is not None:
            texts[chunk.index] = _chunk_text(chunk)
            _write_checkpoint(state, texts, checkpoint_path)
    return _merge(state, rule, n_chunks)
