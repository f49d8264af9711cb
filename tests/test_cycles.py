import base64
import concurrent.futures
import copy
import dataclasses
import gc
import hashlib
import json
import os
import re
import struct
import subprocess
import sys
import threading
import tracemalloc
import weakref
from array import array
from concurrent.futures import Future
from contextlib import closing
from itertools import compress, count, islice
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from govlab import cli, cycles, scan
from govlab.cycles import (
    COUNT_KEYS,
    ChunkResult,
    Classification,
    CycleRecord,
    OutcomeTag,
    _scan_chunk,
    canonical_cycle,
    classify_cycle,
    detect_outcome,
    trivial_cycle_record,
)
from govlab.dynamics import RULE_3Z, RULE_5Z, OrbitLimits, Rule, TerminationKind, odd_orbit
from govlab.numerics import governor_index
from govlab.scan import (
    CheckpointError,
    ScanState,
    _run_chunks,
    checkpoint_load,
    checkpoint_save,
    scan_range,
)
from helpers import (
    checkpoint_text,
    chunk_outcomes,
    classify_by_orbit,
    cycles_by_equation,
    fold_chunk,
    read_checkpoint_doc,
    replay_cycle_closed,
    write_checkpoint_doc,
)

GENEROUS = OrbitLimits(max_steps=10**6, max_value_bits=4096)
SCAN_LIMITS = OrbitLimits(max_steps=10**5, max_value_bits=128)

AUX_13 = [83, 416, 208, 104, 52, 26, 13, 66, 33, 166]
# 5Z+1 with the 13-cycle as its trivial cycle: 1 lies on a cycle of its own,
# and 5 -> 26 reaches the even trivial member 26 at its first transition
RULE_13 = Rule(5, tuple(AUX_13[6:] + AUX_13[:6]))
# the 7Z+1 map, whose trivial cycle is 1 -> 8 -> 4 -> 2 -> 1
RULE_7Z = Rule(7, (1, 8, 4, 2))

# the COUNT_KEYS name of each class that classify_by_orbit tags
COUNT_KEY_OF_TAG = {
    "converged_trivial": "converged_trivial",
    "cycle": "entered_cycle",
    "step_limit": "undecided_step_limit",
    "value_limit": "undecided_value_limit",
}


def counts_by_name(chunk):
    return dict(zip(COUNT_KEYS, chunk.counts))


def only(key, n):
    """Chunk counts by name with n seeds in key's class and none in the others."""
    return {k: n if k == key else 0 for k in COUNT_KEYS}


# a record no scan meets, to put before the cycles a memo meets
_PLACEHOLDER = CycleRecord((), (), Classification.AUXILIARY, 0, ())


@pytest.fixture
def cycle_codes_from_255(monkeypatch):
    """Every orbit memo built while this is active starts with placeholder
    cycles, so the first cycle a scan meets takes code 255, the last code
    the kind byte holds, and the second takes 256."""
    init = cycles._OrbitMemo.__init__

    def prefilled(memo, *args):
        init(memo, *args)
        memo.cycles += [_PLACEHOLDER] * (255 - cycles._CYCLE)

    monkeypatch.setattr(cycles._OrbitMemo, "__init__", prefilled)


def oracle_form(out):
    """An Outcome as the tuple classify_by_orbit returns."""
    if out.tag is OutcomeTag.CONVERGED_TRIVIAL:
        return ("converged_trivial", None, out.steps_taken, out.peak_bits)
    if out.tag is OutcomeTag.CYCLE:
        return ("cycle", out.cycle.all_members, out.steps_taken, out.peak_bits)
    return (out.undecided_reason.value, None, out.steps_taken, out.peak_bits)


class TestCanonicalCycle:
    def test_trivial_rotation(self):
        rec = canonical_cycle([4, 2, 1], RULE_3Z)
        assert rec.all_members == (1, 4, 2)
        assert rec.smallest_odd == 1
        assert rec.odd_members == (1,)
        assert rec.classification is Classification.TRIVIAL

    def test_aux_rotation(self):
        rec = canonical_cycle(AUX_13, RULE_5Z)
        assert rec.smallest_odd == 13
        assert rec.all_members[0] == 13
        assert rec.odd_members == (13, 33, 83)
        assert rec.governor_indices == ((13, 1), (33, 1), (83, 2))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            canonical_cycle([], RULE_3Z)

    def test_non_closed_rejected(self):
        with pytest.raises(ValueError):
            canonical_cycle([1, 4, 2, 8], RULE_3Z)
        with pytest.raises(ValueError):
            canonical_cycle([13, 66, 33], RULE_5Z)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            canonical_cycle([1, 4, 2, 1, 4, 2], RULE_3Z)


class TestClassify:
    def test_trivial_3z(self):
        assert (
            classify_cycle(trivial_cycle_record(RULE_3Z), RULE_3Z)
            is Classification.TRIVIAL
        )

    def test_aux_5z(self):
        rec = canonical_cycle(AUX_13, RULE_5Z)
        assert classify_cycle(rec, RULE_5Z) is Classification.AUXILIARY

    def test_trivial_5z(self):
        rec = canonical_cycle([3, 16, 8, 4, 2, 1, 6], RULE_5Z)
        assert rec.odd_members == (1, 3)
        assert classify_cycle(rec, RULE_5Z) is Classification.TRIVIAL


class TestDetectOutcome:
    def test_converged(self):
        out = detect_outcome(27, RULE_3Z, GENEROUS)
        assert out.tag is OutcomeTag.CONVERGED_TRIVIAL

    def test_cycle(self):
        out = detect_outcome(17, RULE_5Z, GENEROUS)
        assert out.tag is OutcomeTag.CYCLE
        assert set(out.cycle.odd_members) == {17, 27, 43}

    def test_value_limit(self):
        out = detect_outcome(7, RULE_5Z, OrbitLimits(10**6, 64))
        assert out.tag is OutcomeTag.UNDECIDED
        assert out.undecided_reason is TerminationKind.VALUE_LIMIT

    def test_even_seed_rejected(self):
        with pytest.raises(ValueError):
            detect_outcome(4, RULE_3Z, GENEROUS)

    @given(
        st.integers(min_value=0, max_value=4000).map(lambda n: 2 * n + 1),
        st.sampled_from([RULE_3Z, RULE_5Z]),
        st.integers(min_value=1, max_value=400),
        st.integers(min_value=2, max_value=48),
    )
    @settings(max_examples=400)
    def test_equivalent_to_full_orbit(self, seed, rule, max_steps, max_bits):
        # the accelerated classifier must agree with the step-by-step orbit
        # on outcome, canonical cycle, steps taken, and peak bit length
        limits = OrbitLimits(max_steps=max_steps, max_value_bits=max_bits)
        expected = classify_by_orbit(seed, rule, limits)
        assert oracle_form(detect_outcome(seed, rule, limits)) == expected


def capture_memos(monkeypatch):
    """The orbit memos built from now on, in order."""
    made = []
    init = cycles._OrbitMemo.__init__

    def spy(memo, *args):
        init(memo, *args)
        made.append(memo)

    monkeypatch.setattr(cycles._OrbitMemo, "__init__", spy)
    return made


def memo_entries(memo):
    """{value: oracle form of its entry} for every filled entry of an orbit memo."""
    return {
        memo.base + 2 * i: oracle_form(memo.outcome(code, memo.steps[i], memo.peaks[i]))
        for i, code in enumerate(memo.kinds)
        if code
    }


class Walk(NamedTuple):
    """One walk with a scan's orbit memo: its seed, the memo's kind bytes
    when it started, and (u, prefix, entry) when it ended on the filled
    entry of u after prefix steps, entry being the Outcome of u's own
    result, else None."""

    seed: int
    kinds: bytes
    read: tuple | None


# past every peak a test scan meets: a walk that ends on an entry holding
# _MARK + i returns that peak
_MARK = 1 << 40


def read_by_walk(walker, memo, seed):
    """(u, prefix, entry) for the entry that a walk from seed with memo, in
    its present state, ends on, or None; the walk, built by the walker
    factory, runs over a copy.

    The copy's peak of entry i is _MARK + i.  No peak steers a walk, so the
    copy's walk takes the same steps as one with memo, and a walk that ends
    on entry i returns its marked peak, the largest, and the prefix plus its
    steps."""
    probe = copy.copy(memo)
    probe.kinds, probe.cycles = bytearray(memo.kinds), list(memo.cycles)
    probe.steps = array("q", memo.steps)
    probe.peaks = array("q", range(_MARK, _MARK + len(memo.kinds)))
    _, steps, peak = walker(probe)(seed)
    if peak < _MARK:
        return None
    i = peak - _MARK
    entry = memo.outcome(memo.kinds[i], memo.steps[i], memo.peaks[i])
    return memo.base + 2 * i, steps - memo.steps[i], entry


@pytest.fixture
def walks(monkeypatch):
    """Records a Walk for every walk made with a scan's orbit memo, through
    a spy on the walker factory that wraps each walker it builds."""
    made = []
    walker = cycles._walker

    def spy(memo):
        walk = walker(memo)
        if memo.top == memo.base:  # detect_outcome walks with an empty memo
            return walk

        def logged(x):
            made.append(Walk(x, bytes(memo.kinds), read_by_walk(walker, memo, x)))
            return walk(x)

        return logged

    monkeypatch.setattr(cycles, "_walker", spy)
    return made


def walk_of(walks, seed):
    """The one Walk from seed."""
    (walk,) = [w for w in walks if w.seed == seed]
    return walk


class TestSeedMemo:
    """The chunk kernel, which ends an orbit at a value of its chunk that an
    earlier walk recorded, against the table-free detect_outcome and the
    step-by-step oracle."""

    @staticmethod
    def check_chunk(lo, hi, rule, limits):
        """Check every seed's outcome and every filled memo entry of the
        chunk; returns the outcomes by seed and the chunk's memo."""
        memo = cycles._OrbitMemo(lo, hi, rule, limits)
        outs = {seed: memo.outcome(*result) for seed, result in chunk_outcomes(lo, hi, memo)}
        assert list(outs) == list(range(lo, hi + 1, 2))
        for seed, out in outs.items():
            assert out == detect_outcome(seed, rule, limits), seed
            assert oracle_form(out) == classify_by_orbit(seed, rule, limits), seed
        # each entry is its value's own result, whichever walk wrote it
        for v, entry in memo_entries(memo).items():
            assert entry == oracle_form(detect_outcome(v, rule, limits)), v
        return outs, memo

    @given(
        st.sampled_from([RULE_3Z, RULE_5Z]),
        st.integers(min_value=0, max_value=3000).map(lambda n: 2 * n + 1),
        st.integers(min_value=1, max_value=96),
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=2, max_value=48),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_table_free_and_oracle(self, rule, lo, n_seeds, max_steps, max_bits):
        limits = OrbitLimits(max_steps=max_steps, max_value_bits=max_bits)
        self.check_chunk(lo, lo + 2 * (n_seeds - 1), rule, limits)

    @pytest.mark.parametrize(
        "rule, lo, hi, limits",
        [
            (RULE_3Z, 1, 999, GENEROUS),
            (RULE_3Z, 100001, 100999, GENEROUS),
            (RULE_5Z, 1, 1999, SCAN_LIMITS),
            (RULE_5Z, 1, 1999, OrbitLimits(max_steps=120, max_value_bits=40)),
            # 1 lies on a cycle of its own, which the walk from 1 closes at
            # its seed
            (RULE_13, 1, 1999, OrbitLimits(max_steps=10**5, max_value_bits=128)),
            (RULE_7Z, 1, 999, OrbitLimits(max_steps=200, max_value_bits=48)),
        ],
        ids=["3z-at-1", "3z-far-from-1", "5z-at-1", "5z-small-limits", "13-at-1", "7z-at-1"],
    )
    def test_every_entry_is_the_values_own_result(self, walks, rule, lo, hi, limits):
        # check_chunk compares each entry with detect_outcome
        outs, memo = self.check_chunk(lo, hi, rule, limits)
        entries = memo_entries(memo)
        # walks also write values of the chunk other than their own seed
        assert set(entries) - {w.seed for w in walks}
        # every step-limited seed's entry is filled, and only by its own walk
        step_limited = {v for v, o in outs.items() if o.undecided_reason is TerminationKind.STEP_LIMIT}
        assert step_limited <= set(entries) & {w.seed for w in walks}

    def test_every_outcome_class_is_reused(self, walks):
        # small limits make all four classes occur, and each reusable one is reused
        limits = OrbitLimits(max_steps=120, max_value_bits=40)
        outs, _ = self.check_chunk(1, 1999, RULE_5Z, limits)
        assert {oracle_form(o)[0] for o in outs.values()} == {
            "converged_trivial", "cycle", "step_limit", "value_limit",
        }
        reused = {oracle_form(w.read[2])[0] for w in walks if w.read}
        assert reused == {"converged_trivial", "cycle", "value_limit"}

    def test_value_reused_before_its_own_turn(self, walks):
        # 27's walk passes 91; seed 63 meets 91 at step 15, before 91's turn
        # as a seed, and ends there: 15 + 90 steps
        outs, _ = self.check_chunk(1, 99, RULE_3Z, GENEROUS)
        assert walk_of(walks, 63).read == (91, 15, outs[91])
        assert outs[63].steps_taken == 15 + outs[91].steps_taken == 105
        assert 91 not in {w.seed for w in walks}  # at its turn it is read off the table

    def test_seed_read_off_the_table(self, walks):
        # an earlier walk of the chunk passes 1331, so its entry is filled
        # before its turn and the seed takes it without a walk
        outs, memo = self.check_chunk(1, 1331, RULE_5Z, SCAN_LIMITS)
        assert 1331 not in {w.seed for w in walks}
        assert memo_entries(memo)[1331] == oracle_form(outs[1331])
        # in a chunk at 1 many seeds are read off the table
        assert len(walks) < 2 * len(outs) // 3

    @pytest.mark.parametrize(
        "rule, seed, u, prefix, total, max_bits",
        [
            # 7 -> ... -> 5 after 11 steps; 5 reaches 4 in 3 more
            (RULE_3Z, 7, 5, 11, 14, 64),
            # 11 -> 56 -> 28 -> 14 -> 7; 7 passes 24 bits 74 steps later
            (RULE_5Z, 11, 7, 4, 78, 24),
            # 63 meets 91, which 27's walk wrote, after 15 steps; 91 reaches 4 in 90
            (RULE_3Z, 63, 91, 15, 105, 64),
            # 9 -> 28 -> 14 -> 7 meets 7's entry at its first odd value; 7 reaches 4 in 14
            (RULE_3Z, 9, 7, 3, 17, 64),
        ],
    )
    def test_step_budget_edge(self, walks, rule, seed, u, prefix, total, max_bits):
        hi = max(seed, u)
        # a hit whose total is exactly the budget is used ...
        at_limit = OrbitLimits(max_steps=total, max_value_bits=max_bits)
        outs, _ = self.check_chunk(1, hi, rule, at_limit)
        assert walk_of(walks, seed).read == (u, prefix, outs[u])
        assert outs[seed].steps_taken == prefix + outs[u].steps_taken == total
        # ... one step over it walks on to the exact STEP_LIMIT result
        walks.clear()
        over = OrbitLimits(max_steps=total - 1, max_value_bits=max_bits)
        outs, _ = self.check_chunk(1, hi, rule, over)
        walk = walk_of(walks, seed)
        assert walk.kinds[(u - 1) >> 1] and walk.read is None  # u's entry is filled
        assert outs[seed].undecided_reason is TerminationKind.STEP_LIMIT

    def test_walk_goes_on_past_a_step_limited_entry(self, walks):
        # 937 -> 2812 -> 1406 -> 703 meets 703 after 3 steps; 703, 168 steps
        # from the trivial cycle, is step-limited at 150, and its own walk
        # has filled its entry
        limits = OrbitLimits(max_steps=150, max_value_bits=10**4)
        assert [v for v, _ in islice(odd_orbit(937, RULE_3Z), 2)] == [937, 703]
        outs, memo = self.check_chunk(1, 937, RULE_3Z, limits)
        assert memo_entries(memo)[703] == ("step_limit", None, 150, outs[703].peak_bits)
        walk = walk_of(walks, 937)
        assert walk.kinds[(703 - 1) >> 1] and walk.read is None
        assert outs[937] == detect_outcome(937, RULE_3Z, limits)
        assert outs[937].undecided_reason is TerminationKind.STEP_LIMIT

    def test_memo_records_a_bounded_prefix_of_the_chunk(self, monkeypatch, walks):
        monkeypatch.setattr(cycles, "_MEMO_MAX_SEEDS", 8)
        _, memo = self.check_chunk(1, 199, RULE_3Z, GENEROUS)
        assert len(memo.kinds) == len(memo.steps) == len(memo.peaks) == 8
        reads = [w.read[0] for w in walks if w.read]
        assert reads and all(u < 1 + 2 * 8 for u in reads)

    def test_cycle_members_are_not_reused(self, walks):
        # 1331 -> 6656 = 13 * 2^9 and 435 -> 2176 = 17 * 2^7 land on the cycle
        # members 13 and 17, but enter their cycles at 416 and 136: the
        # members' own results (entry at 13 and 17) would give wrong steps
        assert [v for v, _ in islice(odd_orbit(1331, RULE_5Z), 2)] == [1331, 13]
        assert [v for v, _ in islice(odd_orbit(435, RULE_5Z), 2)] == [435, 17]
        outs, _ = self.check_chunk(1, 1331, RULE_5Z, SCAN_LIMITS)
        # no walk finds a member's entry filled, so none ends on one
        for w in walks:
            assert w.kinds[(13 - 1) >> 1] == w.kinds[(17 - 1) >> 1] == 0
            assert w.read is None or w.read[0] not in (13, 17)
        assert outs[1331].steps_taken == 15 and outs[1331].cycle.smallest_odd == 13
        assert outs[435].steps_taken == 15 and outs[435].cycle.smallest_odd == 17
        assert outs[13].steps_taken == outs[17].steps_taken == 10

    def test_cycle_members_are_never_written(self):
        outs, memo = self.check_chunk(1, 1331, RULE_5Z, SCAN_LIMITS)
        members = {13, 33, 83, 17, 27, 43}
        assert {outs[v].cycle.smallest_odd for v in members} == {13, 17}
        assert all(memo.kinds[(v - 1) >> 1] == 0 for v in members)
        # values that lead into a cycle are written: 5 -> 26 -> 13 -> ... -> 83
        # -> 416 -> ... -> 26, whose second occurrence is step 11
        assert memo_entries(memo)[5] == ("cycle", outs[13].cycle.all_members, 11, 9)

    def test_cycle_codes_past_the_kind_byte_are_not_written(self, cycle_codes_from_255):
        # cycle 13 (met first, from seed 5) takes 255, the last code the kind
        # byte holds; cycle 17 takes 256
        outs, memo = self.check_chunk(1, 1331, RULE_5Z, SCAN_LIMITS)
        met = memo.cycles[255 - cycles._CYCLE :]
        assert [c.smallest_odd for c in met] == [13, 17]
        assert [memo.cycle_code(c) for c in met] == [255, 256]
        basins = {13: [], 17: []}
        for v, out in outs.items():
            if out.tag is OutcomeTag.CYCLE:
                basins[out.cycle.smallest_odd].append(memo.kinds[(v - 1) >> 1])
        assert 255 in basins[13] and set(basins[13]) <= {0, 255}
        assert basins[17] and set(basins[17]) == {0}
        report = scan_range(1, 1331, RULE_5Z, SCAN_LIMITS, chunk_size=100)
        assert report_form(report) == oracle_report(1, 1331, RULE_5Z, SCAN_LIMITS)
        assert [c.smallest_odd for c in report.cycles] == [1, 13, 17]


def oracle_report(lo, hi, rule, limits):
    """(counts by oracle tag, candidates, largest steps, largest peak) of the
    seeds lo..hi, read off their full orbits."""
    counts = dict.fromkeys(("converged_trivial", "cycle", "step_limit", "value_limit"), 0)
    candidates, steps, peak = [], 0, 0
    for seed in range(lo, hi + 1, 2):
        tag, _, taken, bits = classify_by_orbit(seed, rule, limits)
        counts[tag] += 1
        if tag in ("step_limit", "value_limit"):
            candidates.append(seed)
        steps, peak = max(steps, taken), max(peak, bits)
    return counts, tuple(candidates), steps, peak


def report_form(report):
    """A ScanReport in oracle_report's form."""
    c = report.counts
    counts = {
        "converged_trivial": c["converged_trivial"],
        "cycle": c["entered_cycle"],
        "step_limit": c["undecided_step_limit"],
        "value_limit": c["undecided_value_limit"],
    }
    stats = (report.max_steps_observed, report.max_excursion_bits)
    return (counts, report.divergence_candidates, *stats)


class TestScanMemo:
    """One orbit memo per scan and process, read and filled by all its chunks."""

    SMALL = OrbitLimits(max_steps=120, max_value_bits=40)

    @pytest.mark.parametrize(
        "rule, limits", [(RULE_3Z, GENEROUS), (RULE_5Z, SMALL)], ids=["3z", "5z-small-limits"]
    )
    def test_one_memo_for_a_serial_scan_holds_own_results(self, monkeypatch, rule, limits):
        memos = capture_memos(monkeypatch)
        scan_range(1, 1999, rule, limits, chunk_size=100)
        (memo,) = memos  # one table for the scan's 10 chunks
        assert (memo.base, memo.top) == (1, 2001)
        entries = memo_entries(memo)
        assert entries
        for v, entry in entries.items():
            assert entry == oracle_form(detect_outcome(v, rule, limits)), v

    @pytest.mark.parametrize(
        "rule, limits",
        [
            (RULE_3Z, GENEROUS),
            (RULE_5Z, SMALL),
            (RULE_7Z, OrbitLimits(max_steps=400, max_value_bits=40)),
        ],
        ids=["3z", "5z-small-limits", "7z"],
    )
    def test_a_window_above_1_holds_own_results_below_its_first_seed(
        self, monkeypatch, rule, limits
    ):
        # [1, 3001) fits the table, so it also holds the values below the
        # first seed that the scan's walks pass, each its own result
        memos = capture_memos(monkeypatch)
        report = scan_range(1001, 2999, rule, limits, chunk_size=100)
        (memo,) = memos
        assert (memo.base, memo.top) == (1, 3001)
        below = {v: e for v, e in memo_entries(memo).items() if v < 1001}
        assert below
        for v, entry in below.items():
            assert entry == oracle_form(detect_outcome(v, rule, limits)), v
        assert report_form(report) == oracle_report(1001, 2999, rule, limits)

    def test_walks_end_on_entries_below_the_first_seed(self, monkeypatch, walks):
        memos = capture_memos(monkeypatch)
        report = scan_range(4097, 8191, RULE_3Z, GENEROUS, chunk_size=512)
        assert memos[0].base == 1
        below = [w for w in walks if w.read and w.read[0] < 4097]
        # the first walk of the scan writes entries below 4097 that later walks end on
        assert below and min(w.seed for w in below) > walks[0].seed
        for w in below:
            u, _, entry = w.read
            assert w.kinds[(u - 1) >> 1]  # an earlier walk of the scan wrote it
            assert oracle_form(entry) == classify_by_orbit(u, RULE_3Z, GENEROUS)
        assert report_form(report) == oracle_report(4097, 8191, RULE_3Z, GENEROUS)

    @pytest.mark.parametrize(
        "rule, limits", [(RULE_3Z, GENEROUS), (RULE_5Z, SMALL)], ids=["3z", "5z-small-limits"]
    )
    def test_table_reaches_down_to_1_when_it_fits_the_cap(self, monkeypatch, rule, limits):
        monkeypatch.setattr(cycles, "_MEMO_MAX_SEEDS", 16)
        memos = capture_memos(monkeypatch)
        # top 33: [1, 33) holds 16 odd values, the cap, so the table starts at 1
        scan_range(17, 31, rule, limits, chunk_size=4)
        # one more seed pair: top 35, 17 odd values below it, so it starts at lo
        scan_range(17, 33, rule, limits, chunk_size=4)
        # a scan from 1 builds the table it always built
        scan_range(1, 99, rule, limits, chunk_size=4)
        assert [(m.base, m.top, len(m.kinds)) for m in memos] == [
            (1, 33, 16), (17, 35, 9), (1, 33, 16)
        ]
        for lo in range(1, 80, 2):
            for hi in range(lo, 120, 2):
                memo = cycles._OrbitMemo(lo, hi, rule, limits)
                assert memo.base in (1, lo) and memo.top == lo + 2 * min((hi - lo) // 2 + 1, 16)
                assert len(memo.kinds) == len(memo.steps) == (memo.top - memo.base) // 2 <= 16
                # the odd values below lo are no more than the seeds held
                below, held = (lo - 1) // 2, (memo.top - lo) // 2
                assert (memo.base == 1) == ((memo.top - 1) // 2 <= 16 and below <= held)
        for lo, hi in ((17, 31), (17, 33), (21, 199)):
            report = scan_range(lo, hi, rule, limits, chunk_size=4)
            assert report_form(report) == oracle_report(lo, hi, rule, limits)

    def test_a_few_seeds_far_from_1_hold_only_themselves(self):
        # [1, 2^21 + 1) fits the cap, but 2^20 - 1 odd values lie below the
        # one seed: the table starts at the seed and holds one entry
        limits = OrbitLimits(10**6, 256)
        one = cycles._OrbitMemo(2**21 - 1, 2**21 - 1, RULE_3Z, limits)
        assert (one.base, one.top, len(one.kinds)) == (2**21 - 1, 2**21 + 1, 1)
        # as many seeds as odd values below them: down to 1 again
        lo = 2**20 + 1
        wide = cycles._OrbitMemo(lo, 2**21 - 1, RULE_3Z, limits)
        assert (wide.base, len(wide.kinds)) == (1, 2**20)
        report = scan_range(2**21 - 1, 2**21 - 1, RULE_3Z, limits)
        assert report_form(report) == oracle_report(2**21 - 1, 2**21 - 1, RULE_3Z, limits)

    def test_chunk_ends_a_walk_on_an_earlier_chunks_entry(self, monkeypatch, walks):
        # (chunk index, kind bytes when the chunk started, walks made before it)
        starts = []
        scan_chunk = scan._scan_chunk

        def chunk_spy(index, *args):
            starts.append((index, bytes(args[-1].kinds), len(walks)))
            return scan_chunk(index, *args)

        monkeypatch.setattr(scan, "_scan_chunk", chunk_spy)
        scan_range(1, 4095, RULE_3Z, GENEROUS, chunk_size=512)
        assert [i for i, _, _ in starts] == list(range(4))
        # every later chunk ends walks on values an earlier chunk's walks wrote
        inherited = set()
        for (index, kinds, first), (_, _, after) in zip(starts, starts[1:] + [(0, b"", None)]):
            for w in walks[first:after]:
                if w.read and kinds[(w.read[0] - 1) >> 1]:
                    inherited.add(index)
        assert inherited == {1, 2, 3}

    def test_resume_reuses_values_of_completed_chunks(self, tmp_path, walks):
        path = str(tmp_path / "ckpt.json")
        scan_range(1, 2047, RULE_3Z, GENEROUS, chunk_size=128, checkpoint_path=path)
        state = checkpoint_load(path)
        half = {i: state.completed[i] for i in range(4)}
        checkpoint_save(dataclasses.replace(state, completed=half), path)
        walks.clear()
        resumed = scan_range(1, 2047, RULE_3Z, GENEROUS, chunk_size=128, checkpoint_path=path)
        assert min(w.seed for w in walks) > 1023  # completed chunks are not run again ...
        # ... but their values are filled and reused by the resumed chunks' walks
        assert any(w.read and w.read[0] < 1024 for w in walks)
        assert resumed.to_json() == scan_range(1, 2047, RULE_3Z, GENEROUS).to_json()

    @pytest.mark.parametrize(
        "first, second",
        [
            ((10**5, 40), (10**5, 64)),
            ((10**5, 64), (10**5, 40)),
            ((200, 64), (60, 64)),
            ((60, 64), (200, 64)),
        ],
        ids=["cap-up", "cap-down", "budget-down", "budget-up"],
    )
    def test_back_to_back_scans_with_other_limits(self, first, second):
        # the same range under other limits: a table kept from the first scan
        # would hand the second entries that hold only under the first's limits
        for limits in (OrbitLimits(*first), OrbitLimits(*second)):
            report = scan_range(1, 1023, RULE_5Z, limits, chunk_size=64)
            assert report_form(report) == oracle_report(1, 1023, RULE_5Z, limits)

    def test_pool_worker_chunks_share_the_worker_memo(self, monkeypatch):
        # what a pool worker does: the initializer builds the scan's memo,
        # then each chunk it runs, passed no memo, reads and fills that one
        monkeypatch.setattr(cycles, "_worker_memo", None)
        cycles._init_worker(1, 1023, RULE_5Z, SCAN_LIMITS)
        memo = cycles._worker_memo
        low = _scan_chunk(0, 1, 511)
        assert any(memo.kinds[256:])  # chunk 0's walks wrote values of chunk 1
        high = _scan_chunk(1, 513, 1023)
        assert cycles._worker_memo is memo
        assert (low, high) == (
            _scan_chunk(0, 1, 511, cycles._OrbitMemo(1, 511, RULE_5Z, SCAN_LIMITS)),
            _scan_chunk(1, 513, 1023, cycles._OrbitMemo(513, 1023, RULE_5Z, SCAN_LIMITS)),
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_memo_outlives_its_scan(self, monkeypatch, workers):
        made = []
        init = cycles._OrbitMemo.__init__

        def spy(memo, *args):
            init(memo, *args)
            made.append(weakref.ref(memo))

        monkeypatch.setattr(cycles._OrbitMemo, "__init__", spy)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # 2 workers start a pool on any host
        # the memo is freed on return, without the cyclic collector: nothing
        # it holds, such as a walker, refers back to it
        gc.collect()
        gc.disable()
        try:
            report = scan_range(1, 4095, RULE_5Z, SCAN_LIMITS, workers, chunk_size=256)
            # pool workers build theirs in their own processes
            assert len(made) == (workers == 1)
            assert all(ref() is None for ref in made)
        finally:
            gc.enable()
        assert cycles._worker_memo is None
        assert not any(isinstance(o, cycles._OrbitMemo) for o in gc.get_objects())
        assert report.to_json() == scan_range(1, 4095, RULE_5Z, SCAN_LIMITS).to_json()

    def test_detect_outcome_builds_one_memo_per_call(self, monkeypatch):
        made = []
        init = cycles._OrbitMemo.__init__

        def spy(memo, *args):
            init(memo, *args)
            assert memo.top == memo.base  # holds no value
            made.append(weakref.ref(memo))

        monkeypatch.setattr(cycles._OrbitMemo, "__init__", spy)
        # each call's memo, table and cycle list are freed on return without
        # the cyclic collector: the walker refers to the memo, never the
        # other way
        gc.collect()
        gc.disable()
        try:
            # 1331 enters cycle 13 and 435 cycle 17
            for seed, smallest in ((1331, 13), (435, 17), (1331, 13)):
                assert detect_outcome(seed, RULE_5Z, SCAN_LIMITS).cycle.smallest_odd == smallest
                assert made[-1]() is None
            assert len(made) == 3
        finally:
            gc.enable()

    def test_a_nested_detect_outcome_walks_with_a_memo_of_its_own(self, monkeypatch):
        # a call made while another walks, as from another thread, must not
        # share the other's cycle list
        canonical = cycles.canonical_cycle
        inner = []

        def nested(members, rule):
            record = canonical(members, rule)
            if record.smallest_odd == 13:  # the outer walk's cycle
                inner.append(detect_outcome(435, rule, SCAN_LIMITS))
            return record

        monkeypatch.setattr(cycles, "canonical_cycle", nested)
        memos = capture_memos(monkeypatch)
        out = detect_outcome(1331, RULE_5Z, SCAN_LIMITS)
        assert (out.cycle.smallest_odd, inner[0].cycle.smallest_odd) == (13, 17)
        assert len(memos) == 2

    def test_detect_outcome_from_threads(self):
        # threads that meet different cycles at once: a walker shared between
        # calls would hand one call the other's cycle code
        seeds = (1331, 435, 7)  # cycle 13, cycle 17, value-limited
        expected = {seed: detect_outcome(seed, RULE_5Z, SCAN_LIMITS) for seed in seeds}
        wrong = []

        def run():
            try:
                for _ in range(200):
                    for seed in seeds:
                        if detect_outcome(seed, RULE_5Z, SCAN_LIMITS) != expected[seed]:
                            wrong.append(seed)
            except Exception as exc:  # a code past the end of a cleared cycle list
                wrong.append(exc)

        threads = [threading.Thread(target=run) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    def test_chunks_past_the_memo_top_read_the_scan_memo(self, monkeypatch, walks):
        # with the cap at 32 seeds the scan's memo holds 1..63; the chunks
        # past it build no memo of their own, and their walks end on its entries
        monkeypatch.setattr(cycles, "_MEMO_MAX_SEEDS", 32)
        memos = capture_memos(monkeypatch)
        report = scan_range(1, 511, RULE_3Z, GENEROUS, chunk_size=16)
        assert [(m.base, m.top) for m in memos] == [(1, 65)]
        assert all(w.read[0] < 65 for w in walks if w.read)
        assert any(w.read for w in walks if w.seed >= 65)
        assert report_form(report) == oracle_report(1, 511, RULE_3Z, GENEROUS)

    def test_completed_resume_builds_no_memo(self, monkeypatch, tmp_path):
        path = str(tmp_path / "ckpt.json")
        full = scan_range(1, 1023, RULE_5Z, SCAN_LIMITS, chunk_size=128, checkpoint_path=path)
        memos = capture_memos(monkeypatch)
        again = scan_range(1, 1023, RULE_5Z, SCAN_LIMITS, chunk_size=128, checkpoint_path=path)
        assert memos == [] and again == full

    def test_narrow_arrays_follow_the_limits(self):
        memo = cycles._OrbitMemo(1, 99, RULE_3Z, SCAN_LIMITS)
        assert (memo.steps.typecode, memo.peaks.typecode) == ("I", "H")
        # a peak of 3Z+1 is at most 2 bits wider than the cap
        edge_limits = OrbitLimits(max_steps=2**32 - 1, max_value_bits=2**16 - 3)
        edge = cycles._OrbitMemo(1, 99, RULE_3Z, edge_limits)
        assert (edge.steps.typecode, edge.peaks.typecode) == ("I", "H")
        wide_limits = OrbitLimits(max_steps=2**32, max_value_bits=2**16 - 2)
        wide = cycles._OrbitMemo(1, 99, RULE_3Z, wide_limits)
        assert (wide.steps.typecode, wide.peaks.typecode) == ("q", "q")

    def test_wide_fallback(self):
        limits = OrbitLimits(max_steps=2**33, max_value_bits=70000)
        memo = cycles._OrbitMemo(1, 99, RULE_3Z, limits)
        assert (memo.steps.typecode, memo.peaks.typecode) == ("q", "q")
        report = scan_range(1, 999, RULE_3Z, limits, chunk_size=100)
        assert report_form(report) == oracle_report(1, 999, RULE_3Z, limits)

    def test_seeds_above_the_cap_fit_the_peak_array(self):
        # seeds of 70001 bits pass a 64-bit cap at their first step, so their
        # entries hold 70003-bit peaks, which a 16-bit peak array cannot
        lo = (1 << 70000) + 1
        limits = OrbitLimits(max_steps=10**5, max_value_bits=64)
        report = scan_range(lo, lo + 18, RULE_5Z, limits, chunk_size=4)
        assert report.counts["undecided_value_limit"] == 10
        assert report.max_excursion_bits == 70003

    def test_wide_multipliers_fit_the_peak_array(self):
        # q = 2^20 - 1 is 20 bits wide: seed 11 climbs to a 65527-bit value,
        # whose q*v + 1 of 65538 bits passes the cap and a 16-bit peak array
        q = 2**20 - 1
        rule = Rule(q, (1,) + tuple(2**j for j in range(20, 0, -1)))
        limits = OrbitLimits(10**5, 65527)
        report = scan_range(11, 11, rule, limits)
        assert report.max_excursion_bits == 65538
        assert report_form(report) == oracle_report(11, 11, rule, limits)


# 1 at the two undecided result codes: the kind bytes of the divergence candidates
UNDECIDED = bytes(code in (cycles._STEP_LIMIT, cycles._VALUE_LIMIT) for code in range(256))


def stays_empty(seed, memo):
    """Whether seed's own walk leaves its entry of memo empty: seed is a
    member of the cycle it enters, or that cycle's code passes the kind byte."""
    out = detect_outcome(seed, memo.rule, memo.limits)
    if out.tag is not OutcomeTag.CYCLE:
        return False
    return seed in out.cycle.odd_members or cycles._CYCLE + memo.cycles.index(out.cycle) > 255


def check_table_fold(lo, hi, chunk_size, rule, limits):
    """Fold every chunk of the scan of lo..hi with _scan_chunk and with the
    seed-by-seed reference fold, each over its own memo, and check that
    the chunks agree after each chunk, and the memos on every entry below
    the chunk's end; that each entry the descent fill wrote ahead of its
    chunk is the one the reference leaves, and that the memos agree once
    the last chunk is folded; and that below the memo's top only the seeds
    that stay_empty are added and the candidates come from the table;
    returns the chunks and the seeds that _scan_chunk folded with
    ChunkResult.add, in order."""
    state = ScanState(rule, lo, hi, limits, chunk_size, {})
    fast = cycles._OrbitMemo(lo, hi, rule, limits)
    ref = cycles._OrbitMemo(lo, hi, rule, limits)
    chunks, added = [], []
    ahead = {}  # index: the first entry seen past the end of a chunk
    add = ChunkResult.add

    def spy(chunk, seed, *result):
        added.append(seed)
        return add(chunk, seed, *result)

    def entries(memo, a, b):
        return list(zip(memo.kinds[a:b], memo.steps[a:b], memo.peaks[a:b]))

    for i in range(state.n_chunks):
        c_lo, c_hi = state.chunk_bounds(i)
        first_added = len(added)
        with mock.patch.object(ChunkResult, "add", spy):
            chunk = _scan_chunk(i, c_lo, c_hi, fast)
        assert chunk == fold_chunk(i, c_lo, c_hi, ref), (c_lo, c_hi)
        # below the chunk's end the walks and the fill leave the reference
        # fold's table; past it the fill may have written entries early
        end = (min(c_hi + 2, fast.top) - fast.base) >> 1
        assert entries(fast, 0, end) == entries(ref, 0, end), (c_lo, c_hi)
        for j, entry in enumerate(entries(fast, end, len(fast.kinds)), end):
            if entry[0]:
                ahead.setdefault(j, entry)
        # below top the empty entries are the added seeds, and the candidates
        # are the seeds whose kind byte is an undecided code
        held = range(c_lo, min(c_hi + 2, fast.top), 2)
        a = (c_lo - fast.base) >> 1
        held_kinds = fast.kinds[a : a + len(held)]
        empty = [x for x, kind in zip(held, held_kinds) if not kind]
        assert empty == [x for x in held if stays_empty(x, fast)], (c_lo, c_hi)
        assert empty == [x for x in added[first_added:] if x < fast.top]
        table_candidates = list(compress(held, held_kinds.translate(UNDECIDED)))
        assert [x for x in chunk.candidates if x < fast.top] == table_candidates
        chunks.append(chunk)
    # each entry written ahead is its value's own result, as the reference
    # fold writes it at the value's turn
    assert {j: entries(ref, j, j + 1)[0] for j in ahead} == ahead
    assert (fast.kinds, fast.steps, fast.peaks) == (ref.kinds, ref.steps, ref.peaks)
    assert fast.cycles == ref.cycles
    return chunks, added


class TestTableFold:
    """_scan_chunk, which walks only the seeds whose entry is empty and
    folds the rest from the memo's table, against ChunkResult.add of every
    seed's result."""

    @given(
        st.sampled_from([RULE_3Z, RULE_5Z, RULE_7Z]),
        st.integers(min_value=0, max_value=3000).map(lambda n: 2 * n + 1),
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=1, max_value=80),
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=2, max_value=48),
        st.sampled_from([None, 8, 40]),
    )
    # a table that starts at the first seed, under a window of several
    # chunks from 3001
    @example(RULE_5Z, 3001, 300, 64, 300, 48, None)
    # a table from 1 under a window of several chunks from 501: the descent
    # fill takes later chunks' seeds from the entries of earlier ones
    @example(RULE_3Z, 501, 300, 64, 300, 48, None)
    @settings(max_examples=200, deadline=None)
    def test_matches_the_seed_by_seed_fold(
        self, rule, lo, n_seeds, chunk_size, max_steps, max_bits, memo_cap
    ):
        # memo_cap None keeps the memo over the whole scan; 8 and 40 end it
        # inside the scan, often inside a chunk
        limits = OrbitLimits(max_steps=max_steps, max_value_bits=max_bits)
        cap = memo_cap or cycles._MEMO_MAX_SEEDS
        with mock.patch.object(cycles, "_MEMO_MAX_SEEDS", cap):
            check_table_fold(lo, lo + 2 * (n_seeds - 1), chunk_size, rule, limits)

    @pytest.mark.parametrize(
        "rule, limits",
        [(RULE_3Z, GENEROUS), (RULE_5Z, OrbitLimits(max_steps=120, max_value_bits=40))],
        ids=["3z", "5z-small-limits"],
    )
    def test_window_above_1_over_several_chunks(self, rule, limits):
        # the table holds 1..1999 too, whose entries end walks but are
        # folded into no chunk
        assert cycles._OrbitMemo(2001, 3999, rule, limits).base == 1
        chunks, _ = check_table_fold(2001, 3999, 250, rule, limits)
        assert len(chunks) == 4
        assert sum(sum(c.counts) for c in chunks) == 1000

    def test_trivial_odd_members_are_folded_from_the_table(self):
        # 1's own walk writes its entry, so no seed of the chunk is added
        [chunk], added = check_table_fold(1, 999, 1000, RULE_3Z, GENEROUS)
        assert added == []
        assert counts_by_name(chunk) == only("converged_trivial", 500)

    def test_cycle_members_are_added(self):
        # the seeds no entry holds are the members of 5Z+1's auxiliary
        # cycles at 13 and 17; its trivial odd members 1 and 3 are written
        [chunk], added = check_table_fold(1, 99, 50, RULE_5Z, SCAN_LIMITS)
        assert added == sorted({13, 33, 83, 17, 27, 43})
        assert sorted(chunk.cycles) == [13, 17]

    def test_step_limited_seeds_are_folded_from_the_table(self):
        # every class occurs; the step-limited and the value-limited
        # candidates come interleaved from one pass over the table
        limits = OrbitLimits(max_steps=120, max_value_bits=40)
        [chunk], added = check_table_fold(1, 1999, 1000, RULE_5Z, limits)
        assert all(chunk.counts)
        step_limited = [
            x for x in chunk.candidates
            if classify_by_orbit(x, RULE_5Z, limits)[0] == "step_limit"
        ]
        assert len(step_limited) == counts_by_name(chunk)["undecided_step_limit"]
        assert not set(step_limited) & set(added)
        assert step_limited != chunk.candidates[: len(step_limited)]  # interleaved
        assert chunk.candidates == sorted(chunk.candidates)

    def test_cycle_codes_past_the_kind_byte_are_added(self, cycle_codes_from_255):
        # cycle 13 is met first and takes code 255, which the byte holds;
        # cycle 17 takes 256, so every seed that enters it goes through add
        [chunk], added = check_table_fold(1, 1331, 1000, RULE_5Z, SCAN_LIMITS)
        enters_17 = [
            x for x in range(1, 1332, 2)
            if (c := detect_outcome(x, RULE_5Z, SCAN_LIMITS).cycle) and c.smallest_odd == 17
        ]
        assert enters_17 and set(enters_17) <= set(added)
        assert 5 not in added  # 5 enters cycle 13, whose code the byte holds
        assert {13, 17} <= set(chunk.cycles)

    def test_chunk_straddling_the_memo_top(self, monkeypatch):
        # the memo holds 1..15, all of them through the table; every seed
        # from 17 on goes through add
        monkeypatch.setattr(cycles, "_MEMO_MAX_SEEDS", 8)
        chunks, added = check_table_fold(1, 199, 60, RULE_3Z, GENEROUS)
        assert list(map(counts_by_name, chunks)) == [
            only("converged_trivial", 60), only("converged_trivial", 40)
        ]
        assert added == list(range(17, 200, 2))


def fill_block(x0, hi, rule, limits, lo=1):
    """The memo of the scan of lo..hi after the reference fold of its seeds
    below x0 and the descent fill of the block from x0, the block's end, and
    the seeds whose entries the fill wrote, each checked to hold its own
    result.  The seeds below x0 go through the reference fold, which, unlike
    _scan_chunk, fills no block past x0."""
    memo = cycles._OrbitMemo(lo, hi, rule, limits)
    if x0 > lo:
        fold_chunk(0, lo, x0 - 2, memo)
    before = [*zip(memo.kinds, memo.steps, memo.peaks)]
    x1 = cycles._descent_fill(memo, x0)
    after = [*zip(memo.kinds, memo.steps, memo.peaks)]
    changed = [memo.base + 2 * i for i, (a, b) in enumerate(zip(before, after)) if a != b]
    filled = [memo.base + 2 * i for i, (a, b) in enumerate(zip(before, after)) if a[0] != b[0]]
    assert changed == filled  # no steps or peak is written without its code
    entries = memo_entries(memo)
    for x in filled:
        assert entries[x] == oracle_form(detect_outcome(x, rule, limits)), x
    return memo, x1, filled


def descent_class(first, n, k):
    """The n seeds from first with v2(q*x + 1) = k: first + j*2^(k+1)."""
    return set(range(first, first + n * (2 << k), 2 << k))


class TestDescentFill:
    """The descent fill of _scan_chunk, which takes each seed that falls
    below its block within three odd steps, with its climbing values, from
    the entry where it lands, against the seed-by-seed fold and
    detect_outcome."""

    def test_most_descent_seeds_of_a_census_are_not_walked(self, monkeypatch):
        # a seed x = 1 mod 4 steps to (3x + 1) / 2^k < x, k >= 2; of the
        # 16384 such seeds below 2^16 only those below 255 and those of
        # classes of fewer than 8 seeds in their block are walked: 147.
        # The seeds that fall below their block after two or three odd
        # steps (x = 3 mod 16, x = 11, 23 mod 32) are taken too
        walked = []
        walker = cycles._walker

        def spy(memo):
            walk = walker(memo)
            return lambda x: walked.append(x) or walk(x)

        monkeypatch.setattr(cycles, "_walker", spy)
        report = scan_range(1, 65535, RULE_3Z, OrbitLimits(10**6, 256))
        assert report.counts["converged_trivial"] == 32768
        descents = [x for x in walked if x % 4 == 1]
        assert len(descents) < 16384 // 100
        # without the fill 8721 of the 17447 walks are of descent seeds, and
        # 8726 walks are of seeds that climb; 5132 of those are still walked,
        # 121 of them of the 4096 seeds x = 3 mod 16
        assert len(walked) - len(descents) == 5132
        assert len([x for x in walked if x % 16 == 3]) == 121

    @pytest.mark.parametrize(
        "lo, hi, rule, limits, base",
        [
            (1, 16383, RULE_3Z, OrbitLimits(10**6, 256), 1),
            # 1147 seeds pass the cap
            (1, 65535, RULE_3Z, OrbitLimits(10**6, 21), 1),
            # the blocks from 10923 on end at a seed whose q*x + 1 passes the cap
            (1, 16383, RULE_3Z, OrbitLimits(10**6, 15), 1),
            (1, 8191, RULE_5Z, OrbitLimits(10**5, 128), 1),
            (4097, 12287, RULE_3Z, GENEROUS, 1),
            (20001, 29999, RULE_3Z, GENEROUS, 20001),
        ],
        ids=["3z-c1-limits", "3z-cap-21", "3z-cap-15", "5z-c3-limits", "3z-table-from-1",
             "3z-table-from-lo"],
    )
    def test_a_serial_scan_walks_the_same_seeds_at_every_chunk_size(
        self, monkeypatch, lo, hi, rule, limits, base
    ):
        # the fill frontier starts each block where the one-chunk scan does,
        # however the chunks cut the blocks
        walked = []
        walker = cycles._walker

        def spy(memo):
            walk = walker(memo)
            return lambda x: walked.append(x) or walk(x)

        monkeypatch.setattr(cycles, "_walker", spy)
        assert cycles._OrbitMemo(lo, hi, rule, limits).base == base
        one_chunk = scan_range(lo, hi, rule, limits)
        expected, walked[:] = walked[:], []
        assert expected
        for chunk_size in (1, 37, 512):
            assert scan_range(lo, hi, rule, limits, chunk_size=chunk_size) == one_chunk
            assert walked == expected, chunk_size
            walked.clear()

    @pytest.mark.parametrize(
        "rule, seed, steps",
        [
            # 5 -> 16 -> 8 -> 4 ends at the trivial member 4 after 3 steps,
            # not 1 + 4 + steps(1)
            (RULE_3Z, 5, 3),
            (RULE_3Z, 21, 5),
            (RULE_3Z, 85, 7),
            (RULE_3Z, 341, 9),
            # 19 -> 96 -> ... -> 6, a member of 5Z+1's trivial cycle
            (RULE_5Z, 19, 5),
        ],
    )
    def test_successor_on_the_trivial_cycle(self, monkeypatch, rule, seed, steps):
        # with classes of a single seed filled too, a block from the seed
        # leaves it to its walk
        monkeypatch.setattr(cycles, "_FILL_MIN_SEEDS", 1)
        assert detect_outcome(seed, rule, SCAN_LIMITS).steps_taken == steps
        for x0 in range(max(3, seed - 8), seed + 2, 2):
            _, _, filled = fill_block(x0, 999, rule, SCAN_LIMITS)
            assert seed not in filled
        check_table_fold(1, 999, 64, rule, SCAN_LIMITS)

    def test_successor_at_or_below_the_trivial_cycle_is_not_read(self, monkeypatch):
        # 5Z+1 with the 13-cycle as its trivial cycle: with classes of 4 seeds
        # filled, 531 + 64j (k = 5) step to 83 + 10j, so 531 to the trivial
        # member 83, passing 166 after 5 steps, not 1 + 5 + steps(83)
        monkeypatch.setattr(cycles, "_FILL_MIN_SEEDS", 4)
        limits = OrbitLimits(10**4, 64)
        assert detect_outcome(531, RULE_13, limits).steps_taken == 5
        memo, x1, filled = fill_block(521, 2001, RULE_13, limits)
        assert x1 == 835
        assert all(memo.kinds[(83 + 10 * j - 1) >> 1] for j in range(5))
        assert not descent_class(531, 5, 5) & set(filled)
        check_table_fold(1, 2001, 1001, RULE_13, limits)

    def test_budget_edge(self):
        # the successors of 813 + 16j (k = 3, j < 17) are at most 127 - 4
        # steps from the trivial cycle, those of 257 + 8j (k = 2, j < 11) at
        # most 128 - 3: at max_steps 127 the first class is filled and the
        # second walked; at 128 both are filled
        for max_steps, walked_class in ((127, True), (128, False)):
            limits = OrbitLimits(max_steps, 256)
            memo, x1, filled = fill_block(809, 4095, RULE_3Z, limits)
            assert x1 == 1079
            at_edge = descent_class(813, 17, 3)
            assert at_edge & set(filled) and all(memo.kinds[(x - 1) >> 1] for x in at_edge)
            assert max(memo.steps[(x - 1) >> 1] for x in at_edge) == 127
            _, x1, filled = fill_block(255, 4095, RULE_3Z, limits)
            assert x1 == 341
            past = descent_class(257, 11, 2)
            assert bool(past & set(filled)) is not walked_class
            check_table_fold(1, 4095, 2048, RULE_3Z, limits)

    def test_cap_edge(self):
        # the block [2559, 3413): q*x + 1 has 13 bits below 2731 and 14 from
        # there on, so at a 13-bit cap its last seed passes the cap at its
        # first step and the block is walked; at 14 bits it is filled, on
        # both sides of 2731
        for cap in (13, 14):
            limits = OrbitLimits(10**6, cap)
            _, x1, filled = fill_block(2559, 4095, RULE_3Z, limits)
            assert x1 == 3413
            if cap == 13:
                assert filled == []
            else:
                assert min(filled) < 2731 < max(filled)
            check_table_fold(1, 4095, 2048, RULE_3Z, limits)

    def test_window_above_1_with_empty_successors(self):
        # the table of 2001..3999 reaches down to 1, but no walk has filled
        # an entry below 2001 when the first block's fill runs
        memo, x1, filled = fill_block(2001, 3999, RULE_3Z, GENEROUS, lo=2001)
        assert memo.base == 1 and x1 == 2669
        assert filled == []
        check_table_fold(2001, 3999, 1000, RULE_3Z, GENEROUS)

    def test_successor_below_a_table_that_starts_at_lo(self):
        # 3001..4999 holds fewer seeds than the odd values below it, so its
        # table starts at 3001: of the block [4001, 5001), only class k = 2
        # steps to values of the table
        memo, x1, filled = fill_block(4001, 4999, RULE_3Z, GENEROUS, lo=3001)
        assert memo.base == 3001 and x1 == 5001
        one_step = [x for x in filled if x % 4 == 1]
        assert one_step and all((3 * x + 1) % 8 == 4 for x in one_step)
        check_table_fold(3001, 4999, 1000, RULE_3Z, GENEROUS)

    def test_climbing_value_past_the_top(self, monkeypatch):
        # the table of 1..1023 ends at 513: the block [359, 479) takes the
        # seeds 371 + 32j, which climb to (3x + 1) / 2 >= 557 and fall to
        # (9x + 5) / 16 < 359, and writes no entry for the climbing values
        monkeypatch.setattr(cycles, "_MEMO_MAX_SEEDS", 256)
        monkeypatch.setattr(cycles, "_FILL_MIN_SEEDS", 2)
        memo, x1, filled = fill_block(359, 1023, RULE_3Z, GENEROUS)
        assert memo.top == 513 and x1 == 479
        climbers = descent_class(371, 4, 4)
        assert climbers & set(filled) and all(memo.kinds[(x - 1) >> 1] for x in climbers)
        assert min((3 * x + 1) // 2 for x in climbers) >= memo.top
        check_table_fold(1, 1023, 100, RULE_3Z, GENEROUS)

    def test_climbing_value_past_the_gate(self, monkeypatch):
        # 3089 climbs to 7723, whose 5x + 1 is wider than the gate, then
        # falls through 4827 to 3017.  The walk of 3089 goes lean at 7723
        # and passes the cap, so it writes no entry for 4827: the class is
        # left to the walks.  With the class filled, the table after the chunk
        # of 3061..3399 holds 4827 and the fold's does not
        monkeypatch.setattr(cycles, "_FILL_MIN_SEEDS", 1)
        limits = OrbitLimits(10**4, 25)
        memo, x1, filled = fill_block(3061, 5569, RULE_5Z, limits)
        assert (5 * 7723 + 1).bit_length() > memo.gate
        assert [v for v, _ in islice(odd_orbit(3089, RULE_5Z), 4)] == [3089, 7723, 4827, 3017]
        assert x1 > 3089 and 3089 not in filled
        check_table_fold(1, 5569, 170, RULE_5Z, limits)

    def test_budget_edge_of_a_climbing_class(self):
        # the seeds 819 + 32j (j < 9) climb to (3x + 1) / 2 and fall to
        # (9x + 5) / 16 < 809; the longest of them, 915, takes 127 steps:
        # at max_steps 126 the class is walked, at 127 filled with its
        # climbing values, which take two steps fewer
        climbers = descent_class(819, 9, 4)
        for max_steps in (126, 127):
            limits = OrbitLimits(max_steps, 256)
            memo, x1, filled = fill_block(809, 4095, RULE_3Z, limits)
            assert x1 == 1079
            if max_steps == 126:
                assert not climbers & set(filled)
            else:
                assert climbers & set(filled) and all(memo.kinds[(x - 1) >> 1] for x in climbers)
                assert max(memo.steps[(x - 1) >> 1] for x in climbers) == 127
                for x in climbers:
                    u = (3 * x + 1) // 2
                    assert memo.steps[(u - 1) >> 1] == memo.steps[(x - 1) >> 1] - 2
            check_table_fold(1, 4095, 2048, RULE_3Z, limits)


def valuation_word(x, rule, d):
    """The valuations of the first d odd steps from odd x, and the odd
    values they reach."""
    word, values = [], [x]
    for _ in range(d):
        t = rule.multiplier * values[-1] + 1
        k = (t & -t).bit_length() - 1
        word.append(k)
        values.append(t >> k)
    return tuple(word), values


def word_of(levels):
    """The valuations k_1..k_d of a _descent_words entry, from its K_i."""
    return tuple(b[2] - a[2] for a, b in zip(levels, levels[1:]))


class TestDescentWords:
    """_descent_words: the classes of the seeds that fall below themselves
    within three odd steps."""

    @pytest.mark.parametrize("rule", [RULE_3Z, RULE_5Z, RULE_7Z], ids=["3z", "5z", "7z"])
    def test_words(self, rule):
        q = rule.multiplier
        words = cycles._descent_words(q)
        assert [K for K, _, _ in words] == sorted(K for K, _, _ in words)
        for K, b, levels in words:
            word = word_of(levels)
            d = len(word)
            assert 1 <= d <= cycles._WORD_MAX_ODD_STEPS and sum(word) == K
            assert all(q**i > 1 << sum(word[:i]) for i in range(1, d)) and q**d < 1 << K
            assert 0 < b < 2 << K <= cycles._WORD_MAX_MODULUS and b % 2
        # 3Z+1: the one-step classes k >= 2, then (1, k >= 3), (1, 1, k >= 3)
        # and (1, 2, k >= 2), to K = 20
        if q == 3:
            assert [word_of(lv) for _, _, lv in words[:4]] == [(2,), (3,), (1, 3), (4,)]
            assert len(words) == 19 + 17 + 16 + 16

    @given(
        st.sampled_from([RULE_3Z, RULE_5Z, RULE_7Z]),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=2**64),
    )
    def test_each_seed_of_a_class_follows_its_word(self, rule, pick, j):
        q = rule.multiplier
        words = cycles._descent_words(q)
        K, b, levels = words[pick % len(words)]
        word = word_of(levels)
        c = levels[-1][1]
        # past c, q^d*x + c < 2^K * x
        x = b + (2 << K) * (j + c // (2 << K) + 1)
        seen, values = valuation_word(x, rule, len(word))
        assert seen == word
        assert all(v > x for v in values[1:-1]) and values[-1] < x
        for i, ((qi, ci, ki, stride, more), v) in enumerate(zip(levels, values)):
            assert v == (qi * x + ci) >> ki
            # the next seed of the class is 2^(K+1) on, and v moves by 2*stride
            assert (qi * (x + (2 << K)) + ci) >> ki == v + 2 * stride
            assert more == sum(k + 1 for k in word[i:])

    @pytest.mark.parametrize("rule", [RULE_3Z, RULE_5Z, RULE_7Z], ids=["3z", "5z", "7z"])
    def test_classes_partition_the_early_descents(self, rule):
        # every odd residue mod 2^12 whose orbit falls below it within three
        # odd steps, at valuations that residue fixes, lies in exactly one
        # class of a word with 2^(K+1) <= 2^12; every other residue in none
        q, bits = rule.multiplier, 12
        words = [(K, b) for K, b, _ in cycles._descent_words(q) if 2 << K <= 1 << bits]
        for r in range(1, 1 << bits, 2):
            # a seed of the residue far above every c_i, so that its values
            # compare with it as q^i with 2^K_i do
            word, values = valuation_word(r + (1 << (bits + 80)), rule, 3)
            ends = [i for i in range(1, 4) if values[i] < values[0]]
            descends = bool(ends) and sum(word[: ends[0]]) + 1 <= bits
            hits = [1 for K, b in words if r % (2 << K) == b]
            assert len(hits) == descends, r


class TestCountsByCode:
    """A chunk counts each class at its result code; a report lists the
    counts by name, in sorted order, and its bytes do not depend on where
    the fold keeps them."""

    @pytest.mark.parametrize(
        "rule,hi,limits,size,digest",
        [
            (RULE_3Z, 65535, OrbitLimits(10**6, 256), 773,
             "2f8fdd78844a6ec293354da27634ad7d9e967ae079e46bf96fd70ca225dc75be"),
            (RULE_5Z, 8191, OrbitLimits(10**5, 128), 47960,
             "b32da4c5624568968387b3a2aa68da4b0058ea216606ae298510d2f9773742d0"),
        ],
        ids=["3z-c1-limits", "5z-c3-limits"],
    )
    def test_report_bytes_match_the_golden_digest(self, rule, hi, limits, size, digest):
        report = scan_range(1, hi, rule, limits)
        text = report.to_json().encode()
        assert (len(text), hashlib.sha256(text).hexdigest()) == (size, digest)
        assert list(report.counts) == [
            "converged_trivial", "entered_cycle", "undecided_step_limit", "undecided_value_limit",
            "total",
        ]

    @pytest.mark.parametrize(
        "key,rule,seed,limits",
        [
            ("converged_trivial", RULE_3Z, 27, GENEROUS),
            ("entered_cycle", RULE_5Z, 5, SCAN_LIMITS),
            ("undecided_step_limit", RULE_5Z, 7, OrbitLimits(max_steps=10, max_value_bits=4096)),
            ("undecided_value_limit", RULE_5Z, 7, SCAN_LIMITS),
        ],
    )
    def test_added_seed_is_counted_under_its_class_name(self, key, rule, seed, limits):
        assert COUNT_KEY_OF_TAG[classify_by_orbit(seed, rule, limits)[0]] == key
        memo = cycles._OrbitMemo(seed, seed, rule, limits)
        chunk = ChunkResult(0)
        chunk.add(seed, *cycles._walker(memo)(seed), memo.cycles)
        assert counts_by_name(chunk) == only(key, 1)


@pytest.fixture
def leans(monkeypatch):
    """Records (x, s, result) for every lean walk, result None when it fell back."""
    calls = []
    lean = cycles._lean_walk

    def spy(x, s, memo):
        result = lean(x, s, memo)
        calls.append((x, s, result))
        return result

    monkeypatch.setattr(cycles, "_lean_walk", spy)
    return calls


def filled_memo(lo, n_seeds, rule, limits, lean=True):
    """The memo of a scan of n_seeds seeds from lo after all of them are
    classified; with lean False its walks never start a lean walk."""
    hi = lo + 2 * (n_seeds - 1)
    memo = cycles._OrbitMemo(lo, hi, rule, limits)
    if not lean:
        memo.gate = limits.max_value_bits
    for _ in chunk_outcomes(lo, hi, memo):
        pass
    return memo


class TestLeanWalk:
    """The lean walk of orbits past the memo, which ends only where it finds
    that the orbit passes the value cap, against the exact walk and the
    step-by-step oracle."""

    @pytest.mark.parametrize("rule", [RULE_3Z, RULE_5Z], ids=["3z", "5z"])
    def test_jump_table(self, rule):
        # K + c raw steps take a*2^K + b to q^c*a + T^K(b), and no value on
        # the way is wider than the start plus the entry's margin
        q, k = rule.multiplier, cycles._JUMP
        table = cycles._jump_table(q)
        assert len(table) == 1 << k
        for b, (mult, low, n, margin) in enumerate(table):
            c = n - k
            assert mult == q**c
            for a in (1, 2, 3, 5, 255, 256, 2**20 + 7, 3**40, 2**64 - 1):
                x = (a << k) + b
                v, widest, odd = x, 0, 0
                for _ in range(n):
                    odd += v % 2
                    v = rule.step(v)
                    widest = max(widest, v.bit_length())
                assert odd == c and v == mult * a + low, (b, a)
                assert widest <= x.bit_length() + margin, (b, a)

    @pytest.mark.parametrize("rule", [RULE_3Z, RULE_5Z], ids=["3z", "5z"])
    def test_margins_are_tight(self, rule):
        # some start comes within one bit of each entry's margin, so no
        # entry holds jumps back by more than a bit
        q, k = rule.multiplier, cycles._JUMP
        for b, (_, _, n, margin) in enumerate(cycles._jump_table(q)):
            reached = 0
            for x in ((1 << k) + b, (((1 << 40) - 1) >> k << k) + b, (1 << 60) + b):
                v = x
                for _ in range(n):
                    v = rule.step(v)
                    reached = max(reached, v.bit_length() - x.bit_length())
            assert reached >= margin - 1, b

    @given(
        st.sampled_from([RULE_3Z, RULE_5Z]),
        st.sampled_from([1, (1 << 18) + 1]),
        st.integers(min_value=16, max_value=256),
        st.integers(min_value=20, max_value=256),
        st.integers(min_value=0, max_value=1 << 12),
        st.sampled_from(["generous", "own", "one_below"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_exact_walk_and_oracle(self, rule, lo, n_seeds, cap, offset, budget):
        # seeds from floor * 2^K on, where every jump's values lie past the
        # memo and the trivial cycle, with memos filled by their scans' walks
        # (lean and exact); budgets at a value-limited seed's own steps_taken
        # and one below it; caps from below the gate's width up
        generous = OrbitLimits(max_steps=10**5, max_value_bits=cap)
        memo = filled_memo(lo, n_seeds, rule, generous)
        seed = (memo.floor << cycles._JUMP) + 2 * offset + 1
        out = classify_by_orbit(seed, rule, generous)
        if budget != "generous":
            steps = out[2] - (budget == "one_below")
            limits = OrbitLimits(max_steps=max(steps, 1), max_value_bits=cap)
            memo = filled_memo(lo, n_seeds, rule, limits)
            out = classify_by_orbit(seed, rule, limits)
        else:
            limits = generous
        exact = filled_memo(lo, n_seeds, rule, limits, lean=False)
        assert memo.gate <= cap and exact.gate == cap
        result = cycles._walker(memo)(seed)
        assert result == cycles._walker(exact)(seed)
        assert oracle_form(memo.outcome(*result)) == out
        assert oracle_form(detect_outcome(seed, rule, limits)) == out

    def test_budget_edge_of_a_value_limited_seed(self, leans):
        # 9's walk starts a lean walk at 573 after 14 steps, which passes 64
        # bits at step 732: a budget of 732 keeps that result, and at 731 the
        # lean walk falls back and the exact walk ends at the step limit
        for steps, reason in ((10**5, TerminationKind.VALUE_LIMIT),
                              (732, TerminationKind.VALUE_LIMIT),
                              (731, TerminationKind.STEP_LIMIT)):
            leans.clear()
            limits = OrbitLimits(max_steps=steps, max_value_bits=64)
            out = detect_outcome(9, RULE_5Z, limits)
            assert oracle_form(out) == classify_by_orbit(9, RULE_5Z, limits)
            assert (out.undecided_reason, out.steps_taken) == (reason, min(steps, 732))
            passed = reason is TerminationKind.VALUE_LIMIT
            assert leans == [(573, 14, (cycles._VALUE_LIMIT, 732, 66) if passed else None)]

    def test_fallbacks_end_on_memo_entries(self, leans, walks):
        # orbits that climb past the memo, fall back below it and end on an
        # entry: every seed's result matches the exact walk and the oracle
        memo = cycles._OrbitMemo(1, 2047, RULE_5Z, SCAN_LIMITS)
        results, fell_back = {}, 0
        for seed, result in chunk_outcomes(1, 2047, memo):
            results[seed] = result
            walked = walks and walks[-1].seed == seed
            if walked and leans and leans[-1][2] is None and walks[-1].read:
                fell_back += 1
            leans.clear()
        assert fell_back > 10
        exact = filled_memo(1, 1024, RULE_5Z, SCAN_LIMITS, lean=False)
        walk = cycles._walker(exact)
        for seed, result in results.items():
            assert result == walk(seed), seed
            out = oracle_form(memo.outcome(*result))
            assert out == classify_by_orbit(seed, RULE_5Z, SCAN_LIMITS), seed

    def test_a_walk_goes_lean_again_after_each_fall(self, leans, walks):
        # an orbit that falls back into the memo's range and climbs past the
        # gate again hands over to a new lean walk, from a later step; every
        # lean walk of a walk but its last fell back
        memo = cycles._OrbitMemo(1, 1023, RULE_5Z, SCAN_LIMITS)
        results, most = {}, 0
        for seed, result in chunk_outcomes(1, 1023, memo):
            results[seed] = result
            if walks and walks[-1].seed == seed:
                # the walks spy's probe, over a copy of the memo, makes the
                # same lean walks before the walk itself
                half = len(leans) // 2
                assert leans[:half] == leans[half:], seed
                ours = leans[:half]
                assert all(r is None for _, _, r in ours[:-1]), seed
                assert [s for _, s, _ in ours] == sorted({s for _, s, _ in ours}), seed
                most = max(most, len(ours))
            leans.clear()
        assert most >= 2
        exact = filled_memo(1, 512, RULE_5Z, SCAN_LIMITS, lean=False)
        walk = cycles._walker(exact)
        for seed, result in results.items():
            assert result == walk(seed), seed
            out = oracle_form(memo.outcome(*result))
            assert out == classify_by_orbit(seed, RULE_5Z, SCAN_LIMITS), seed

    def test_detect_outcome_goes_lean_at_most_once(self, leans):
        # detect_outcome's memo holds no value, so no fall re-arms its walk
        fell_back = 0
        for seed in range(1, 1024, 2):
            leans.clear()
            detect_outcome(seed, RULE_5Z, SCAN_LIMITS)
            assert len(leans) <= 1, seed
            fell_back += bool(leans) and leans[0][2] is None
        assert fell_back > 10

    def test_no_3z_walk_starts_a_lean_walk(self, leans):
        # 3Z+1 orbits shrink on average, so their gate is the cap itself
        for limits in (GENEROUS, SCAN_LIMITS, OrbitLimits(max_steps=300, max_value_bits=20)):
            assert cycles._OrbitMemo(1, 4095, RULE_3Z, limits).gate == limits.max_value_bits
            scan_range(1, 4095, RULE_3Z, limits, chunk_size=1000)
            scan_range((1 << 40) + 1, (1 << 40) + 999, RULE_3Z, limits)
            for seed in (27, 2**61 - 1, 3**50):
                detect_outcome(seed, RULE_3Z, limits)
        assert leans == []
        scan_range(1, 4095, RULE_5Z, SCAN_LIMITS)
        assert leans

    def test_small_caps_keep_the_gate_at_the_cap(self):
        # the gate never rises above the cap, which would skip its check; in
        # a scan below 2^10 the floor is 1025, whose 5*v + 1 has 13 bits, so
        # caps up to 13 start no lean walk and caps from 14 do
        for cap in range(2, 24):
            limits = OrbitLimits(max_steps=10**5, max_value_bits=cap)
            memo = cycles._OrbitMemo(1, 1023, RULE_5Z, limits)
            assert memo.gate == min(cap, 13)
            report = scan_range(1, 1023, RULE_5Z, limits, chunk_size=100)
            assert report_form(report) == oracle_report(1, 1023, RULE_5Z, limits), cap

    @given(
        st.sampled_from([RULE_7Z, RULE_5Z]),
        st.integers(min_value=8, max_value=40),
        st.sampled_from([60, 400, 10**4]),
    )
    # 7Z+1's widest jump margin is 16 bits, more than caps 14 and 15, where
    # its lean walks start below 2^10
    @example(RULE_7Z, 14, 60)
    @example(RULE_7Z, 15, 10**4)
    @settings(max_examples=40, deadline=None)
    def test_scan_at_small_caps_matches_the_oracle(self, rule, cap, max_steps):
        limits = OrbitLimits(max_steps=max_steps, max_value_bits=cap)
        report = scan_range(1, 1023, rule, limits, chunk_size=100)
        assert report_form(report) == oracle_report(1, 1023, rule, limits)


class TestScan:
    def test_against_per_seed_oracle(self):
        lo, hi = 1, 1023
        report = scan_range(lo, hi, RULE_5Z, SCAN_LIMITS, chunk_size=128)
        counts = {"converged_trivial": 0, "cycle": 0, "step_limit": 0, "value_limit": 0}
        cycles = {}
        candidates = []
        for seed in range(lo, hi + 1, 2):
            tag, members, _, _ = classify_by_orbit(seed, RULE_5Z, SCAN_LIMITS)
            counts[tag] += 1
            if tag == "cycle":
                cycles[min(v for v in members if v % 2)] = members
            if tag in ("step_limit", "value_limit"):
                candidates.append(seed)
        assert report.counts["converged_trivial"] == counts["converged_trivial"]
        assert report.counts["entered_cycle"] == counts["cycle"]
        assert report.counts["undecided_step_limit"] == counts["step_limit"]
        assert report.counts["undecided_value_limit"] == counts["value_limit"]
        assert report.divergence_candidates == tuple(candidates)
        found = {c.smallest_odd: c.all_members for c in report.cycles}
        expected = dict(cycles)
        if counts["converged_trivial"]:
            expected[1] = trivial_cycle_record(RULE_5Z).all_members
        assert found == expected

    def test_report_invariants(self):
        report = scan_range(1, 2047, RULE_5Z, SCAN_LIMITS, chunk_size=256)
        assert report.counts["total"] == 1024
        assert sum(v for k, v in report.counts.items() if k != "total") == 1024
        smallest = [c.smallest_odd for c in report.cycles]
        assert smallest == sorted(set(smallest))
        for rec in report.cycles:
            assert replay_cycle_closed(list(rec.all_members), RULE_5Z)
            for member, idx in rec.governor_indices:
                assert idx == governor_index(member)

    def test_trivial_cycle_reported_only_when_observed(self):
        # 5 -> 26 -> 13 enters the auxiliary cycle; nothing converges
        report = scan_range(5, 5, RULE_5Z, SCAN_LIMITS)
        assert [c.smallest_odd for c in report.cycles] == [13]
        report = scan_range(1, 1, RULE_5Z, SCAN_LIMITS)
        assert [c.smallest_odd for c in report.cycles] == [1]
        assert report.cycles[0].classification is Classification.TRIVIAL

    def test_worker_count_does_not_change_bytes(self):
        kwargs = dict(chunk_size=256)
        base = scan_range(1, 4095, RULE_5Z, SCAN_LIMITS, workers=1, **kwargs)
        for workers in (2, 4):
            other = scan_range(1, 4095, RULE_5Z, SCAN_LIMITS, workers=workers, **kwargs)
            assert other.to_json() == base.to_json()

    @pytest.mark.parametrize("rule", [RULE_3Z, RULE_5Z])
    def test_chunk_size_does_not_change_bytes(self, rule):
        # chunks fill the scan's memo in another order, and each pool worker
        # fills its own, so orbits end at different places; small limits make
        # all four outcome classes occur on 5Z+1
        limits = OrbitLimits(max_steps=120, max_value_bits=40)
        base = scan_range(1, 2047, rule, limits)
        for workers in (1, 2):
            for chunk_size in (1, 3, 100, 512):
                other = scan_range(1, 2047, rule, limits, workers, chunk_size=chunk_size)
                assert other.to_json() == base.to_json(), (workers, chunk_size)

    @pytest.mark.parametrize(
        "limits", [OrbitLimits(10**4, 64), OrbitLimits(1, 64)], ids=["c3-steps", "one-step"]
    )
    def test_another_trivial_cycle_against_the_oracle(self, limits):
        lo, hi = 1, 2047
        expected = {seed: classify_by_orbit(seed, RULE_13, limits) for seed in range(lo, hi + 1, 2)}
        for seed, oracle in expected.items():
            assert oracle_form(detect_outcome(seed, RULE_13, limits)) == oracle, seed
        one = scan_range(lo, hi, RULE_13, limits)
        assert report_form(one) == oracle_report(lo, hi, RULE_13, limits)
        met = {members for tag, members, _, _ in expected.values() if tag == "cycle"}
        if any(tag == "converged_trivial" for tag, *_ in expected.values()):
            met.add(trivial_cycle_record(RULE_13).all_members)
        assert {c.all_members for c in one.cycles} == met
        pooled = scan_range(lo, hi, RULE_13, limits, workers=2, chunk_size=256)
        assert pooled.to_json() == one.to_json()
        # the seed that meets an even trivial member after one step converges there
        assert expected[5] == ("converged_trivial", None, 1, 5)

    @pytest.mark.parametrize("max_steps", [1, 2, 3, 100])
    def test_seed_that_is_its_own_first_odd_value(self, max_steps):
        # under a rule whose trivial cycle is -1 -> -2 -> -1, 1 -> 4 -> 2 -> 1 is
        # a cycle of its own, and 1's first odd value is 1 (q + 1 = 2^2)
        rule = Rule(3, (-1, -2))
        limits = OrbitLimits(max_steps, 64)
        assert oracle_form(detect_outcome(1, rule, limits)) == classify_by_orbit(1, rule, limits)
        assert report_form(scan_range(1, 63, rule, limits)) == oracle_report(1, 63, rule, limits)

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            scan_range(2, 9, RULE_3Z, SCAN_LIMITS)
        with pytest.raises(ValueError):
            scan_range(9, 3, RULE_3Z, SCAN_LIMITS)

    def test_report_of_any_rule_names_it_by_its_multiplier(self):
        report = scan_range(1, 63, RULE_7Z, OrbitLimits(400, 40))
        assert report.rule is RULE_7Z
        assert json.loads(report.to_json())["rule"] == "7Z+1"


# rule, the most odd members enumerated, the scanned range and its limits
EQUATION_CASES = {
    "3z": (RULE_3Z, 8, 1, 4095, OrbitLimits(10**4, 64)),
    "5z": (RULE_5Z, 6, 1, 2047, OrbitLimits(10**4, 64)),
    "7z": (RULE_7Z, 6, 1, 999, OrbitLimits(200, 48)),
}


class TestCycleEquationOracle:
    """Scan reports against cycles_by_equation, which walks no orbit."""

    def test_enumerated_cycles(self):
        assert cycles_by_equation(3, 8) == {1: (1,)}
        assert cycles_by_equation(5, 6) == {1: (1, 3), 13: (13, 33, 83), 17: (17, 43, 27)}
        assert cycles_by_equation(7, 6) == {1: (1,)}

    @staticmethod
    def check(report, case):
        rule, max_odd, lo, hi, _ = case
        enumerated = cycles_by_equation(rule.multiplier, max_odd)
        listed = {c.smallest_odd: tuple(v for v in c.all_members if v % 2) for c in report.cycles}
        # every listed cycle is enumerated, with the same odd members in orbit order
        assert listed == {m: enumerated.get(m) for m in listed}
        # every enumerated cycle whose smallest member is a seed is listed
        assert {m for m in enumerated if lo <= m <= hi} <= listed.keys()

    @pytest.mark.parametrize("name", EQUATION_CASES)
    def test_serial_and_pool(self, name):
        rule, _, lo, hi, limits = case = EQUATION_CASES[name]
        serial = scan_range(lo, hi, rule, limits)
        self.check(serial, case)
        # (hi - lo) // 8 + 1 seeds is a quarter of the range: four chunks
        pooled = scan_range(lo, hi, rule, limits, workers=2, chunk_size=(hi - lo) // 8 + 1)
        self.check(pooled, case)

    @pytest.mark.parametrize("name", ["3z", "5z"])  # a checkpoint holds only these rules
    def test_resumed(self, name, tmp_path):
        rule, _, lo, hi, limits = case = EQUATION_CASES[name]
        path = tmp_path / "ckpt.jsonl"
        chunk_size = (hi - lo) // 8 + 1
        scan_range(lo, hi, rule, limits, chunk_size=chunk_size, checkpoint_path=str(path))
        doc = read_checkpoint_doc(path)
        doc["chunks"] = doc["chunks"][1::2]  # two of the four chunks
        write_checkpoint_doc(path, doc)
        resumed = scan_range(lo, hi, rule, limits, chunk_size=chunk_size, checkpoint_path=str(path))
        self.check(resumed, case)


VALIDATION_SCAN = (1, 1023, RULE_5Z, SCAN_LIMITS)  # four chunks of 128 seeds
VALIDATION_CLI = ["scan", "--rule", "5", "--odd-range", "1:1023", "--chunk-size", "128"]


def _rejected_everywhere(path, capsys, match=None):
    """The checkpoint at path is rejected by checkpoint_load, and by the
    VALIDATION_SCAN in chunks of 128 through scan_range and through the
    command line, which exits 3 and prints no report; the file is kept."""
    before = path.read_bytes()
    with pytest.raises(CheckpointError, match=match):
        checkpoint_load(str(path))
    with pytest.raises(CheckpointError, match=match):
        scan_range(*VALIDATION_SCAN, chunk_size=128, checkpoint_path=str(path))
    code = cli.main(VALIDATION_CLI + ["--checkpoint", str(path)])
    out, err = capsys.readouterr()
    assert (code, out) == (cli.EXIT_IO, "")
    assert "checkpoint" in err
    assert path.read_bytes() == before


class TestCheckpoint:
    @pytest.mark.parametrize("rule", [RULE_7Z, RULE_13], ids=["7z", "13-cycle"])
    def test_rule_a_header_cannot_name_is_not_checkpointed(self, tmp_path, rule):
        # a header names its rule by the multiplier, which loads as rule_for's rule
        path = tmp_path / "ckpt.json"
        with pytest.raises(ValueError, match=re.escape(rule.name)):
            scan_range(1, 255, rule, SCAN_LIMITS, chunk_size=64, checkpoint_path=str(path))
        assert list(tmp_path.iterdir()) == []

    def test_checkpoint_of_another_rule_is_not_merged(self, tmp_path):
        # two chunks of a 5Z+1 scan would pass for two of RULE_13's, whose
        # fresh scan of 1..255 sees 10 seeds converge and 16 enter a cycle
        path = tmp_path / "ckpt.json"
        scan_range(1, 255, RULE_5Z, SCAN_LIMITS, chunk_size=64, checkpoint_path=str(path))
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[:3]), encoding="utf-8")
        before = path.read_bytes()
        with pytest.raises(ValueError, match=re.escape(RULE_13.name)):
            scan_range(1, 255, RULE_13, SCAN_LIMITS, chunk_size=64, checkpoint_path=str(path))
        assert path.read_bytes() == before

    def _partial_state(self, lo, hi, chunk_size, indices):
        n_seeds = (hi - lo) // 2 + 1
        state = ScanState(RULE_5Z, lo, hi, SCAN_LIMITS, chunk_size, {})
        for i in indices:
            c_lo = lo + 2 * i * chunk_size
            c_hi = lo + 2 * (min((i + 1) * chunk_size, n_seeds) - 1)
            memo = cycles._OrbitMemo(c_lo, c_hi, RULE_5Z, SCAN_LIMITS)
            state.completed[i] = _scan_chunk(i, c_lo, c_hi, memo)
        return state

    # scans seeds of 70001 bits (21073 digits) with a checkpoint, in a fresh
    # interpreter; argv[1] "lift" lifts the digit cap first
    HUGE_SCAN = """
import hashlib, sys
if sys.argv[1] == "lift" and hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(0)
from govlab import RULE_5Z, OrbitLimits, checkpoint_load, scan_range
from govlab.scan import checkpoint_save
lo, limits, path = (1 << 70000) + 1, OrbitLimits(10**5, 64), sys.argv[2]
report = scan_range(lo, lo + 40, RULE_5Z, limits, chunk_size=4, checkpoint_path=path)
with open(path, encoding="utf-8") as fh:
    saved = fh.read()
state = checkpoint_load(path)
assert state.completed[3].candidates == [lo + 24, lo + 26, lo + 28, lo + 30]
checkpoint_save(state, path)
with open(path, encoding="utf-8") as fh:
    assert fh.read() == saved
resumed = scan_range(lo, lo + 40, RULE_5Z, limits, chunk_size=4, checkpoint_path=path)
assert resumed.to_json() == report.to_json()
for text in (report.to_json(), saved):
    print(hashlib.sha256(text.encode()).hexdigest())
"""

    def test_values_past_4300_digits_without_lifting_the_cap(self, tmp_path):
        # a process that keeps CPython's default cap on int <-> str
        # conversion writes, reads and resumes the same bytes as one that
        # lifts it
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        digests = []
        for mode in ("keep", "lift"):
            proc = subprocess.run(
                [sys.executable, "-c", self.HUGE_SCAN, mode, str(tmp_path / f"{mode}.json")],
                capture_output=True, text=True, env=env, timeout=300,
            )
            assert (proc.returncode, proc.stderr) == (0, "")
            digests.append(proc.stdout)
        assert digests[0] == digests[1] and len(digests[0].split()) == 2

    def test_resume_matches_uninterrupted(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        state = self._partial_state(1, 2047, 256, indices=(0, 3))
        checkpoint_save(state, path)
        resumed = scan_range(
            1, 2047, RULE_5Z, SCAN_LIMITS, chunk_size=256, checkpoint_path=path
        )
        uninterrupted = scan_range(1, 2047, RULE_5Z, SCAN_LIMITS, chunk_size=256)
        assert resumed.to_json() == uninterrupted.to_json()

    def test_state_roundtrip(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        state = self._partial_state(1, 1023, 128, indices=(0, 1))
        checkpoint_save(state, path)
        loaded = checkpoint_load(path)
        assert loaded == state

    def test_load_holds_one_line_at_a_time(self, tmp_path):
        # 64 chunk lines of about 2.8 kB: a load that held every line before
        # it parsed any would peak at the loaded state plus the whole file
        path = tmp_path / "ckpt.json"
        limits = OrbitLimits(10**5, 64)
        scan_range(1, 32767, RULE_5Z, limits, chunk_size=256, checkpoint_path=str(path))
        size = path.stat().st_size
        tracemalloc.start()
        try:
            state = checkpoint_load(str(path))
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(state.completed) == 64
        assert peak - retained < size / 2, (peak - retained, size)

    def test_completed_checkpoint_loads_directly(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        first = scan_range(
            1, 1023, RULE_5Z, SCAN_LIMITS, chunk_size=128, checkpoint_path=path
        )
        again = scan_range(
            1, 1023, RULE_5Z, SCAN_LIMITS, chunk_size=128, checkpoint_path=path
        )
        assert again.to_json() == first.to_json()

    def test_corrupt_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(CheckpointError):
            checkpoint_load(str(path))

    def test_version_mismatch_rejected(self, tmp_path, capsys):
        path = tmp_path / "ckpt.json"
        state = self._partial_state(1, 1023, 128, indices=(0,))
        checkpoint_save(state, str(path))
        doc = read_checkpoint_doc(path)
        for version in (1, 999):
            write_checkpoint_doc(path, dict(doc, schema_version=version))
            _rejected_everywhere(path, capsys, f"schema_version {version} is not 2")

    @pytest.mark.parametrize("cut", ["first-char", "middle", "before-newline"])
    def test_torn_last_line_is_dropped(self, tmp_path, capsys, cut):
        path = tmp_path / "ckpt.json"
        scan_range(*VALIDATION_SCAN, chunk_size=128, checkpoint_path=str(path))
        whole, done = path.read_text(encoding="utf-8"), checkpoint_load(str(path)).completed
        *kept, last = whole.splitlines(keepends=True)
        cut_at = {"first-char": 1, "middle": len(last) // 2, "before-newline": len(last) - 1}[cut]
        path.write_text("".join(kept) + last[:cut_at], encoding="utf-8")
        assert checkpoint_load(str(path)).completed == {i: done[i] for i in range(3)}
        # the resume reruns chunk 3 and leaves no fragment of the torn line
        code = cli.main(VALIDATION_CLI + ["--checkpoint", str(path)])
        out, _ = capsys.readouterr()
        assert (code, out) == (cli.EXIT_OK, scan_range(*VALIDATION_SCAN).to_json())
        assert path.read_text(encoding="utf-8") == whole

    def test_torn_last_line_longer_than_64_kib_is_cut_at_the_last_newline(self, tmp_path):
        # a line of 8192 seeds' table entries is over 2^16 bytes long
        args = (1, (1 << 16) - 1, RULE_3Z, SCAN_LIMITS)
        path = tmp_path / "ckpt.json"
        scan_range(*args, chunk_size=8192, checkpoint_path=str(path))
        whole = path.read_bytes()
        *kept, last = whole.splitlines(keepends=True)
        torn = last[:-10]
        assert len(torn) > 1 << 16
        path.write_bytes(b"".join(kept) + torn)
        report = scan_range(*args, chunk_size=8192, checkpoint_path=str(path))
        assert report.to_json() == scan_range(*args).to_json()
        assert path.read_bytes() == whole

    @pytest.mark.parametrize("where", ["header", "chunk line", "torn last line"])
    def test_line_not_utf8_exits_3(self, tmp_path, capsys, where):
        path = tmp_path / "ckpt.json"
        scan_range(*VALIDATION_SCAN, chunk_size=128, checkpoint_path=str(path))
        lines = path.read_bytes().splitlines(keepends=True)
        at = {"header": 0, "chunk line": 2, "torn last line": -1}[where]
        lines[at] = lines[at].replace(b'"', b'"\xff', 1)
        if where == "torn last line":
            lines[-1] = lines[-1][:-1]
        path.write_bytes(b"".join(lines))
        _rejected_everywhere(path, capsys, "corrupt checkpoint")

    @pytest.mark.parametrize(
        "form", ["empty", "v1", "v1-one-line", "torn-header", "header-not-json"]
    )
    def test_file_without_a_format_2_header_exits_3(self, tmp_path, capsys, form):
        path = tmp_path / "ckpt.json"
        scan_range(*VALIDATION_SCAN, chunk_size=128, checkpoint_path=str(path))
        doc = read_checkpoint_doc(path)
        v1 = dict(doc, schema_version=1)  # the layout format 1 wrote
        text = {
            "empty": "",
            "v1": json.dumps(v1, sort_keys=True, indent=2) + "\n",
            "v1-one-line": json.dumps(v1, sort_keys=True) + "\n",
            "torn-header": checkpoint_text(doc).split("\n")[0],
            "header-not-json": "{not json\n" + checkpoint_text(doc).split("\n", 1)[1],
        }[form]
        path.write_text(text, encoding="utf-8")
        _rejected_everywhere(path, capsys)

    def test_scan_identity_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        state = self._partial_state(1, 1023, 128, indices=(0,))
        checkpoint_save(state, path)
        with pytest.raises(CheckpointError):
            scan_range(1, 2047, RULE_5Z, SCAN_LIMITS, chunk_size=128, checkpoint_path=path)
        with pytest.raises(CheckpointError):
            scan_range(1, 1023, RULE_3Z, SCAN_LIMITS, chunk_size=128, checkpoint_path=path)
        with pytest.raises(CheckpointError):
            scan_range(1, 1023, RULE_5Z, SCAN_LIMITS, chunk_size=64, checkpoint_path=path)


HUGE_LO = (1 << 70000) + 1  # 70001 bits, past any digit cap
# the 5Z+1 cycles other than the trivial one
AUX_5Z = (canonical_cycle(AUX_13, RULE_5Z), canonical_cycle(
    [17, 86, 43, 216, 108, 54, 27, 136, 68, 34], RULE_5Z))


def _line(doc):
    return json.dumps(doc, sort_keys=True) + "\n"


def _checkpoint_json(state):
    """The bytes a checkpoint of state must have: its header, then each
    chunk in index order, one sort_keys json.dumps line each."""
    chunks = (scan._chunk_doc(state.completed[i]) for i in sorted(state.completed))
    return _line(state.to_doc()) + "".join(map(_line, chunks))


@st.composite
def _scan_states(draw):
    """A ScanState with any chunks, in any completion order, of made-up
    results: counts, cycle records, candidates and maxima (the writer does
    not check them); small bounds or 70001-bit ones."""
    rule = draw(st.sampled_from([RULE_3Z, RULE_5Z]))
    records = (trivial_cycle_record(rule),) + (AUX_5Z if rule is RULE_5Z else ())
    lo = draw(st.sampled_from([1, HUGE_LO])) + 2 * draw(st.integers(0, 100))
    chunk_size = draw(st.integers(1, 6))
    n_chunks = draw(st.integers(1, 12))
    order = draw(st.permutations(range(n_chunks)))
    completed = {}
    for i in order[: draw(st.integers(0, n_chunks))]:
        seeds = range(lo + 2 * i * chunk_size, lo + 2 * (i + 1) * chunk_size, 2)
        cycles_met = draw(st.lists(st.sampled_from(records)))
        completed[i] = ChunkResult(
            index=i,
            counts=draw(st.lists(st.integers(0, 10**6), min_size=4, max_size=4)),
            cycles={rec.smallest_odd: rec for rec in cycles_met},
            candidates=sorted(draw(st.sets(st.sampled_from(seeds)))),
            max_excursion_bits=draw(st.integers(0, 10**5)),
            max_steps_observed=draw(st.integers(0, 10**6)),
        )
    limits = OrbitLimits(draw(st.integers(1, 10**6)), draw(st.integers(1, 4096)))
    hi = lo + 2 * (n_chunks * chunk_size - 1)
    return ScanState(rule, lo, hi, limits, chunk_size, completed)


class TestCheckpointWriter:
    """A saved checkpoint is its state's header and chunk lines in index
    order; a scan's file holds every chunk finished so far."""

    @given(state=_scan_states())
    @settings(
        max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_save_writes_the_to_doc_encoding(self, least_digit_cap, tmp_path, state):
        path = tmp_path / "ckpt.json"
        checkpoint_save(state, str(path))
        assert path.read_text(encoding="utf-8") == _checkpoint_json(state)

    @pytest.mark.parametrize("workers", [1, 2])
    @given(data=st.data())
    @settings(
        max_examples=15, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_file_loads_to_the_chunks_finished_so_far(
        self, least_digit_cap, tmp_path, workers, data
    ):
        # 3Z+1 converges, 5Z+1 at a 128-bit cap meets cycles and candidates;
        # 70001-bit seeds are all candidates
        rule, limits = data.draw(st.sampled_from([(RULE_3Z, GENEROUS), (RULE_5Z, SCAN_LIMITS)]))
        lo = data.draw(st.sampled_from([1, 301, HUGE_LO]))
        n_seeds, chunk_size = data.draw(st.integers(1, 24)), data.draw(st.integers(1, 8))
        hi = lo + 2 * (n_seeds - 1)
        n_chunks = -(-n_seeds // chunk_size)
        chunks = {}
        for i in range(n_chunks):
            c_lo = lo + 2 * i * chunk_size
            c_hi = lo + 2 * (min((i + 1) * chunk_size, n_seeds) - 1)
            # a checkpointed scan's chunks keep their seeds' entries as their tables
            memo = cycles._OrbitMemo(c_lo, c_hi, rule, limits, [])
            chunks[i] = _scan_chunk(i, c_lo, c_hi, memo)
        path = tmp_path / "ckpt.json"
        path.unlink(missing_ok=True)
        done = data.draw(st.permutations(range(n_chunks)))[: data.draw(st.integers(0, n_chunks))]
        start = ScanState(rule, lo, hi, limits, chunk_size, {i: chunks[i] for i in done})
        if done or data.draw(st.booleans()):
            checkpoint_save(start, str(path))

        finished = list(done)
        run = scan._run_chunks

        def run_spy(*args):
            assert checkpoint_load(str(path)).completed == {i: chunks[i] for i in finished}
            for chunk in run(*args):
                yield chunk
                # the scan asks for the next chunk once it has appended this one
                finished.append(chunk.index)
                assert checkpoint_load(str(path)).completed == {i: chunks[i] for i in finished}

        with mock.patch.object(scan, "_run_chunks", run_spy):
            scan_range(lo, hi, rule, limits, workers, chunk_size=chunk_size,
                       checkpoint_path=str(path))
        assert sorted(finished) == list(range(n_chunks))
        if workers == 1:
            # one worker appends the new chunks in index order after the
            # loaded ones; a pool appends them in the order they finish
            new = (scan._chunk_doc(chunks[i]) for i in range(n_chunks) if i not in done)
            expected = _checkpoint_json(start) + "".join(map(_line, new))
            assert path.read_text(encoding="utf-8") == expected
            if sorted(done) == list(range(len(done))):  # no loaded chunk follows a new one
                final = ScanState(rule, lo, hi, limits, chunk_size, chunks)
                checkpoint_save(final, str(tmp_path / "final.json"))
                assert path.read_bytes() == (tmp_path / "final.json").read_bytes()

    @pytest.mark.parametrize(
        "rule, hi, limits, digest",
        [
            (RULE_3Z, 8191, OrbitLimits(10**6, 256),
             "fdf967ae4636bd9c80ab8a13a81411dd415154a88580100a6d55663cad829963"),
            (RULE_5Z, 4095, OrbitLimits(10**5, 128),
             "d64a15d810b026516c013a6835aee9d0f140d14c965c5f9eb98bbd64ba6ee1a4"),
        ],
        ids=["3z-c1-limits", "5z-c3-limits"],
    )
    def test_checkpoint_bytes_match_the_golden_digest(self, tmp_path, rule, hi, limits, digest):
        # the other writer tests compare the file with to_doc, which moves
        # with the writer; these digests pin the format 2 bytes of one worker
        path = tmp_path / "ckpt.json"
        scan_range(1, hi, rule, limits, chunk_size=256, checkpoint_path=str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_resume_encodes_each_chunk_once(self, tmp_path, monkeypatch):
        path = str(tmp_path / "ckpt.json")
        scan_range(1, 2047, RULE_5Z, SCAN_LIMITS, chunk_size=64, checkpoint_path=path)
        state = checkpoint_load(path)  # 16 chunks; keep every other one
        kept = {i: state.completed[i] for i in range(0, 16, 2)}
        checkpoint_save(dataclasses.replace(state, completed=kept), path)
        encoded = []
        chunk_doc = scan._chunk_doc
        monkeypatch.setattr(scan, "_chunk_doc", lambda c: encoded.append(c.index) or chunk_doc(c))
        scan_range(1, 2047, RULE_5Z, SCAN_LIMITS, chunk_size=64, checkpoint_path=path)
        # at most once per loaded chunk plus once per new one, not once per save
        assert len(encoded) == len(set(encoded)) <= 16
        assert checkpoint_load(path) == state

    def test_resume_encodes_only_the_chunks_it_runs(self, tmp_path, monkeypatch):
        path = str(tmp_path / "ckpt.json")
        scan_range(1, 2047, RULE_5Z, SCAN_LIMITS, chunk_size=64, checkpoint_path=path)
        state = checkpoint_load(path)  # 16 chunks; keep every other one
        kept = {i: state.completed[i] for i in range(0, 16, 2)}
        checkpoint_save(dataclasses.replace(state, completed=kept), path)
        encoded, saved = [], []
        chunk_doc, save = scan._chunk_doc, scan.checkpoint_save
        monkeypatch.setattr(scan, "_chunk_doc", lambda c: encoded.append(c.index) or chunk_doc(c))
        monkeypatch.setattr(scan, "checkpoint_save", lambda *a: saved.append(a) or save(*a))
        scan_range(1, 2047, RULE_5Z, SCAN_LIMITS, chunk_size=64, checkpoint_path=path)
        # the loaded lines are kept as they are; only a fresh scan saves its header
        assert encoded == list(range(1, 16, 2)) and saved == []
        assert checkpoint_load(path) == state
        Path(path).unlink()
        encoded.clear()
        scan_range(1, 2047, RULE_5Z, SCAN_LIMITS, chunk_size=64, checkpoint_path=path)
        assert encoded == list(range(16)) and len(saved) == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_lines_out_of_index_order_keep_their_order(self, tmp_path, monkeypatch, workers):
        # a pool appends lines in the order its chunks finish: a resume keeps
        # them where they are, truncates a torn last line in place, and
        # appends the chunks it runs after them
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        path = tmp_path / "ckpt.json"
        scan_range(*VALIDATION_SCAN, chunk_size=64, checkpoint_path=str(path))
        header, *lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        assert len(lines) == 8
        kept = header + "".join(lines[i] for i in (5, 0, 6, 3))
        path.write_text(kept + lines[1][:-40], encoding="utf-8")
        report = scan_range(
            *VALIDATION_SCAN, workers, chunk_size=64, checkpoint_path=str(path)
        )
        assert report == scan_range(*VALIDATION_SCAN)
        text = path.read_text(encoding="utf-8")
        assert text.startswith(kept)
        assert sorted(text[len(kept):].splitlines(keepends=True)) == sorted(
            lines[i] for i in (1, 2, 4, 7)
        )


def _append_chunk_40(doc):
    doc["chunks"].append(dict(doc["chunks"][0], index=40))


def _negative_index(doc):
    doc["chunks"][0]["index"] = -1


def _inflated_count(doc):
    doc["chunks"][0]["counts"]["converged_trivial"] += 1000


def _negative_count(doc):
    # the counts still add up to the chunk's seed count
    counts = doc["chunks"][0]["counts"]
    counts["converged_trivial"] += counts["entered_cycle"] + 1
    counts["entered_cycle"] = -1


def _candidate_out_of_bounds(doc):
    chunk = doc["chunks"][1]
    chunk["candidates"].append("999999")
    chunk["counts"]["undecided_value_limit"] += 1
    chunk["counts"]["converged_trivial"] -= 1


def _even_candidate(doc):
    cands = doc["chunks"][0]["candidates"]
    cands[0] = str(int(cands[0]) - 1)


def _descending_candidates(doc):
    doc["chunks"][0]["candidates"].reverse()


def _repeated_candidate(doc):
    cands = doc["chunks"][0]["candidates"]
    cands[1] = cands[0]


def _missing_candidate(doc):
    doc["chunks"][0]["candidates"].pop()


def _duplicate_index(doc):
    # index 0 twice and no index 1
    doc["chunks"][1] = dict(doc["chunks"][0])


# integer fields that int() would truncate or convert, and decimal fields
# that are not JSON strings
def _fractional_chunk_size(doc):
    doc["chunk_size"] += 0.9


def _fractional_index(doc):
    doc["chunks"][0]["index"] = 0.5


def _bool_max_steps_observed(doc):
    doc["chunks"][0]["max_steps_observed"] = True


def _string_max_steps(doc):
    doc["limits"]["max_steps"] = str(doc["limits"]["max_steps"])


def _fractional_candidate(doc):
    cands = doc["chunks"][0]["candidates"]
    cands[0] = int(cands[0]) + 0.9


def _float_lo(doc):
    doc["range"]["lo"] = 1.0


def _int_cycle_member(doc):
    cycle = doc["chunks"][0]["cycles"][0]
    cycle["all_members"] = [int(v) for v in cycle["all_members"]]


def _float_multiplier(doc):
    doc["multiplier"] = 5.0


def _rule_name_mismatch(doc):
    # the header names 3Z+1 over a 5Z+1 scan's multiplier and chunks
    doc["rule"] = "3Z+1"


def _signed_candidate(doc):
    # int() reads "+7" as 7; a decimal field must be a canonical decimal
    cands = doc["chunks"][0]["candidates"]
    cands[0] = "+" + cands[0]


# chunk 0 of VALIDATION_SCAN lists cycles 13 and 17 for its 13 seeds that
# entered a cycle; each corruption below keeps its counts adding up to 128
def _no_cycles_listed(doc):
    doc["chunks"][0]["cycles"] = []


def _cycles_listed_without_a_seed_entering_one(doc):
    counts = doc["chunks"][0]["counts"]
    counts["converged_trivial"] += counts["entered_cycle"]
    counts["entered_cycle"] = 0


def _more_cycles_than_seeds_entering_one(doc):
    counts = doc["chunks"][0]["counts"]
    counts["converged_trivial"] += counts["entered_cycle"] - 1
    counts["entered_cycle"] = 1


def _repeated_cycle(doc):
    cycles = doc["chunks"][0]["cycles"]
    cycles.append(cycles[0])


def _trivial_cycle_listed(doc):
    doc["chunks"][0]["cycles"].insert(0, trivial_cycle_record(RULE_5Z).to_doc())


# no seed takes more steps than the budget, and chunk 0's peak lies in
# [bits(255), cap + bits(5)] = [8, 131]: each seed's peak is at least its own
# bit length, and at most that of a 5*v + 1 with v under the cap
def _steps_past_the_budget(doc):
    doc["chunks"][0]["max_steps_observed"] = doc["limits"]["max_steps"] + 1


def _peak_past_the_cap(doc):
    doc["chunks"][0]["max_excursion_bits"] = doc["limits"]["max_value_bits"] + 4


def _peak_below_the_last_seed(doc):
    doc["chunks"][0]["max_excursion_bits"] = 7


class TestCheckpointValidation:
    """A checkpoint whose chunks disagree with its own range is rejected on load."""

    @pytest.mark.parametrize(
        "corrupt",
        [
            _append_chunk_40,
            _negative_index,
            _inflated_count,
            _negative_count,
            _candidate_out_of_bounds,
            _even_candidate,
            _descending_candidates,
            _repeated_candidate,
            _missing_candidate,
            _duplicate_index,
            _fractional_chunk_size,
            _fractional_index,
            _bool_max_steps_observed,
            _string_max_steps,
            _fractional_candidate,
            _float_lo,
            _int_cycle_member,
            _float_multiplier,
            _rule_name_mismatch,
            _signed_candidate,
            _no_cycles_listed,
            _cycles_listed_without_a_seed_entering_one,
            _more_cycles_than_seeds_entering_one,
            _repeated_cycle,
            _trivial_cycle_listed,
            _steps_past_the_budget,
            _peak_past_the_cap,
            _peak_below_the_last_seed,
        ],
    )
    def test_inconsistent_chunk_rejected(self, tmp_path, capsys, corrupt):
        path = tmp_path / "ckpt.json"
        scan_range(*VALIDATION_SCAN, chunk_size=128, checkpoint_path=str(path))
        doc = read_checkpoint_doc(path)
        corrupt(doc)
        write_checkpoint_doc(path, doc)
        _rejected_everywhere(path, capsys)

    def test_numbers_too_large_to_handle_rejected(self, tmp_path, capsys):
        path = tmp_path / "ckpt.json"
        scan_range(*VALIDATION_SCAN, chunk_size=128, checkpoint_path=str(path))
        doc = read_checkpoint_doc(path)
        # a chunk whose seed count is past sys.maxsize
        wide = dict(doc, range={"lo": "1", "hi": str(4 * 10**25 + 1)}, chunk_size=2 * 10**25)
        write_checkpoint_doc(path, wide)
        _rejected_everywhere(path, capsys, "do not add up")
        # a JSON int past the digit cap, which json rejects with a plain ValueError
        # (the command line lifts the cap, and then the chunk counts do not add up)
        text = checkpoint_text(doc).replace('"chunk_size": 128', '"chunk_size": ' + "9" * 5000)
        path.write_text(text, encoding="utf-8")
        _rejected_everywhere(path, capsys)

    def test_zero_chunk_size_rejected(self, tmp_path, capsys):
        path = tmp_path / "ckpt.json"
        checkpoint_save(ScanState(RULE_5Z, 1, 1023, SCAN_LIMITS, 128, {}), str(path))
        doc = read_checkpoint_doc(path)
        doc["chunk_size"] = 0
        write_checkpoint_doc(path, doc)
        _rejected_everywhere(path, capsys)

    def test_prefix_checkpoint_of_a_longer_scan_resumes(self, tmp_path):
        # a finished scan's chunks stay valid for a longer range whose chunk
        # boundaries agree, as when the range of a checkpoint is widened
        path = str(tmp_path / "ckpt.json")
        scan_range(1, 1023, RULE_5Z, SCAN_LIMITS, chunk_size=128, checkpoint_path=path)
        state = dataclasses.replace(checkpoint_load(path), hi=2047)
        checkpoint_save(state, path)
        resumed = scan_range(1, 2047, RULE_5Z, SCAN_LIMITS, chunk_size=128, checkpoint_path=path)
        uninterrupted = scan_range(1, 2047, RULE_5Z, SCAN_LIMITS, chunk_size=128)
        assert resumed.to_json() == uninterrupted.to_json()


def _table_arrays(chunk_doc):
    """The codes, steps and peaks of a chunk line's table, as a
    bytearray and arrays of 32-bit steps and 16-bit peaks, read as the
    little-endian bytes the file holds on any host."""
    table = chunk_doc["table"]
    codes = bytearray(base64.b64decode(table["codes"]))
    arrays = []
    for key, fmt in (("steps", "I"), ("peaks", "H")):
        raw = base64.b64decode(table[key])
        n = len(raw) // struct.calcsize("<" + fmt)
        arrays.append(array(fmt, struct.unpack(f"<{n}{fmt}", raw)))
    return codes, *arrays


def _set_table(chunk_doc, codes, steps, peaks):
    chunk_doc["table"] = {
        "codes": base64.b64encode(bytes(codes)).decode(),
        "steps": base64.b64encode(struct.pack(f"<{len(steps)}I", *steps)).decode(),
        "peaks": base64.b64encode(struct.pack(f"<{len(peaks)}H", *peaks)).decode(),
    }


def _edit_table(index, edit):
    """A corruption of VALIDATION_SCAN's chunk index: edit(codes, steps,
    peaks) changes the arrays of its table in place."""

    def corrupt(doc):
        chunk = doc["chunks"][index]
        codes, steps, peaks = _table_arrays(chunk)
        edit(codes, steps, peaks)
        _set_table(chunk, codes, steps, peaks)

    return corrupt


def _swap_codes(codes, a, b):
    """Swap the codes of the first seeds holding a and b."""
    i, j = codes.index(a), codes.index(b)
    codes[i], codes[j] = b, a


def _lower_the_largest(values):
    most = max(values)
    for i, v in enumerate(values):
        if v == most:
            values[i] = most - 1


def _snapshot_memos(monkeypatch):
    """(base, top, {value: oracle form of its entry}) of each orbit memo
    built from now on, as the memo holds it when built: restored entries
    only."""
    made = []
    init = cycles._OrbitMemo.__init__

    def spy(memo, *args):
        init(memo, *args)
        made.append((memo.base, memo.top, memo_entries(memo)))

    monkeypatch.setattr(cycles._OrbitMemo, "__init__", spy)
    return made


def _keep_chunk_lines(path, keep, strip=False):
    """Cut the checkpoint at path to its header and its first keep chunk
    lines; with strip, without their tables, as files before tables."""
    doc = read_checkpoint_doc(path)
    doc["chunks"] = doc["chunks"][:keep]
    if strip:
        for chunk in doc["chunks"]:
            chunk.pop("table", None)
    write_checkpoint_doc(path, doc)


class TestCheckpointTables:
    """A checkpointed chunk's line carries its seeds' orbit-table entries,
    which a resume restores into its orbit memo before any chunk runs."""

    @pytest.mark.parametrize(
        "corrupt",
        [
            _edit_table(0, lambda codes, steps, peaks: codes.pop()),
            _edit_table(0, lambda codes, steps, peaks: codes.append(2)),
            _edit_table(1, lambda codes, steps, peaks: steps.pop()),
            _edit_table(1, lambda codes, steps, peaks: peaks.append(peaks[0])),
            # chunk 0 lists two cycles, codes 4 and 5
            _edit_table(0, lambda codes, steps, peaks: codes.__setitem__(codes.index(4), 6)),
            _edit_table(1, lambda codes, steps, peaks: steps.__setitem__(0, 10**5 + 1)),
            # peak_bound is cap + bits(5) = 131
            _edit_table(1, lambda codes, steps, peaks: peaks.__setitem__(0, 132)),
            # a converged seed counted as entering a cycle
            _edit_table(0, lambda codes, steps, peaks: codes.__setitem__(codes.index(2), 4)),
            # an undecided seed and a converged one trade places
            _edit_table(1, lambda codes, steps, peaks: _swap_codes(codes, 2, 3)),
            _edit_table(1, lambda codes, steps, peaks: _lower_the_largest(steps)),
            _edit_table(1, lambda codes, steps, peaks: _lower_the_largest(peaks)),
            lambda doc: doc["chunks"][1]["table"].update(codes="not base64!"),
            lambda doc: doc["chunks"][1]["table"].pop("peaks"),
        ],
        ids=[
            "codes-cut-short", "codes-too-long", "steps-cut-short", "peaks-too-long",
            "code-past-the-cycles", "steps-past-max-steps", "peak-past-peak-bound",
            "counts-disagree", "candidates-disagree", "max-steps-disagree",
            "max-peak-disagrees", "not-base64", "no-peaks",
        ],
    )
    def test_inconsistent_table_rejected(self, tmp_path, capsys, corrupt):
        path = tmp_path / "ckpt.json"
        scan_range(*VALIDATION_SCAN, chunk_size=128, checkpoint_path=str(path))
        doc = read_checkpoint_doc(path)
        corrupt(doc)
        write_checkpoint_doc(path, doc)
        _rejected_everywhere(path, capsys)

    def test_table_past_the_top_rejected(self, tmp_path, capsys, monkeypatch):
        # with the table at 256 seeds, chunks 2 and 3 lie past its top
        monkeypatch.setattr(cycles, "_MEMO_MAX_SEEDS", 256)
        path = tmp_path / "ckpt.json"
        scan_range(*VALIDATION_SCAN, chunk_size=128, checkpoint_path=str(path))
        doc = read_checkpoint_doc(path)
        assert ["table" in chunk for chunk in doc["chunks"]] == [True, True, False, False]
        doc["chunks"][2]["table"] = doc["chunks"][1]["table"]
        write_checkpoint_doc(path, doc)
        _rejected_everywhere(path, capsys, "past the orbit table's top")

    def test_lines_hold_little_endian_entries_of_each_seed(self, tmp_path, monkeypatch):
        # the first seed from 3841 to enter a cycle enters 17's, so the memo
        # numbers that cycle first, and the line numbers 13's first
        path = tmp_path / "ckpt.json"
        memos = capture_memos(monkeypatch)
        scan_range(3841, 4351, RULE_5Z, SCAN_LIMITS, chunk_size=128, checkpoint_path=str(path))
        assert [c.smallest_odd for c in memos[0].cycles] == [17, 13]
        chunk = read_checkpoint_doc(path)["chunks"][0]  # no cycle member
        codes, steps, peaks = _table_arrays(chunk)
        for i, seed in enumerate(range(3841, 4096, 2)):
            out = detect_outcome(seed, RULE_5Z, SCAN_LIMITS)
            code = {"converged_trivial": 2, "cycle": 4, "undecided": 3}[out.tag.value]
            if out.tag is OutcomeTag.CYCLE:  # numbered by the line's sorted cycles
                smallest = [int(c["smallest_odd"]) for c in chunk["cycles"]]
                code += smallest.index(out.cycle.smallest_odd)
            assert (codes[i], steps[i], peaks[i]) == (code, out.steps_taken, out.peak_bits)

    def test_file_without_tables_resumes_to_the_same_report(self, tmp_path):
        path = tmp_path / "ckpt.json"
        scan_range(*VALIDATION_SCAN, chunk_size=128, checkpoint_path=str(path))
        _keep_chunk_lines(path, 2, strip=True)
        resumed = scan_range(*VALIDATION_SCAN, chunk_size=128, checkpoint_path=str(path))
        assert resumed.to_json() == scan_range(*VALIDATION_SCAN).to_json()
        # the loaded lines stay without tables, and the new ones have theirs
        assert ["table" in c for c in read_checkpoint_doc(path)["chunks"]] == [0, 0, 1, 1]

    def test_prefix_checkpoint_restores_into_a_table_from_1(self, tmp_path, monkeypatch):
        # as the resume benchmark makes its file: a shorter scan's, with hi
        # raised.  Its last chunk, 6017..6143, meets only 17's cycle, which
        # its line numbers first, and the chunk before it only 13's
        path = str(tmp_path / "ckpt.json")
        scan_range(1, 6143, RULE_5Z, SCAN_LIMITS, chunk_size=64, checkpoint_path=path)
        checkpoint_save(dataclasses.replace(checkpoint_load(path), hi=12287), path)
        expected = scan_range(1, 12287, RULE_5Z, SCAN_LIMITS).to_json()
        memos = _snapshot_memos(monkeypatch)
        resumed = scan_range(1, 12287, RULE_5Z, SCAN_LIMITS, chunk_size=64, checkpoint_path=path)
        assert resumed.to_json() == expected
        ((base, top, restored),) = memos
        assert (base, top) == (1, 12289)
        members = {v for c in AUX_5Z for v in c.odd_members}
        assert set(restored) == set(range(1, 6144, 2)) - members
        for seed, entry in restored.items():
            assert entry == oracle_form(detect_outcome(seed, RULE_5Z, SCAN_LIMITS))

    def test_far_window_restores_its_table_clipped_to_the_top(self, tmp_path, monkeypatch):
        # a table of 64 seeds from lo = 4097, far from 1, so base = lo; its
        # top 4225 cuts chunk 1 (4193..4287) after 16 seeds
        monkeypatch.setattr(cycles, "_MEMO_MAX_SEEDS", 64)
        lo, hi, path = 4097, 4607, tmp_path / "ckpt.json"
        scan_range(lo, hi, RULE_3Z, GENEROUS, chunk_size=48, checkpoint_path=str(path))
        doc = read_checkpoint_doc(path)
        assert [len(_table_arrays(c)[0]) if "table" in c else 0 for c in doc["chunks"]] == [
            48, 16, 0, 0, 0, 0]
        _keep_chunk_lines(path, 3)
        expected = scan_range(lo, hi, RULE_3Z, GENEROUS).to_json()
        memos = _snapshot_memos(monkeypatch)
        resumed = scan_range(lo, hi, RULE_3Z, GENEROUS, chunk_size=48, checkpoint_path=str(path))
        assert resumed.to_json() == expected
        ((base, top, restored),) = memos
        assert (base, top) == (lo, 4225)
        assert set(restored) == set(range(lo, top, 2))
        for seed, entry in restored.items():
            assert entry == oracle_form(detect_outcome(seed, RULE_3Z, GENEROUS))

    def test_5z_file_has_the_same_bytes_at_one_and_two_workers(self, tmp_path, monkeypatch):
        # each pool worker numbers the cycles it meets in its own order, 17's
        # first in the worker that starts at 3841 and 13's in the other; a
        # line numbers them by its own sorted cycles
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # 2 workers start a pool on any host
        files = []
        for workers in (1, 2):
            path = str(tmp_path / f"ckpt-{workers}.json")
            scan_range(3841, 5887, RULE_5Z, SCAN_LIMITS, workers, chunk_size=128,
                       checkpoint_path=path)
            checkpoint_save(checkpoint_load(path), path)  # in index order
            files.append(Path(path).read_bytes())
        assert files[0] == files[1]

    def test_resume_walks_only_what_the_tables_leave(self, tmp_path, walks):
        path = tmp_path / "ckpt.json"
        scan = (1, 4095, RULE_3Z, GENEROUS)  # 16 chunks of 128 seeds
        scan_range(*scan, chunk_size=128, checkpoint_path=str(path))
        whole = path.read_text(encoding="utf-8")
        counts = []
        for strip in (False, True):
            path.write_text(whole, encoding="utf-8")
            _keep_chunk_lines(path, 8, strip)
            walks.clear()
            resumed = scan_range(*scan, chunk_size=128, checkpoint_path=str(path))
            assert resumed.to_json() == scan_range(*scan).to_json()
            counts.append(len(walks))
            if not strip:
                # the entries below 2049 that the first walk finds filled are
                # the restored ones, and walks end on them
                restored = walks[0].kinds
                assert any(w.read and w.read[0] < 2049 and restored[w.read[0] >> 1] for w in walks)
        assert counts[0] < counts[1]


class TestChunkRunner:
    @staticmethod
    def _tasks(pulled: list[int]):
        """Unbounded chunks of 32 seeds; refuses to be read far ahead."""
        for i in count():
            pulled.append(i)
            if len(pulled) > 64:
                raise AssertionError("the runner read the task iterator too far ahead")
            yield (i, 1 + 64 * i, 63 + 64 * i)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pulls_tasks_lazily(self, workers):
        pulled: list[int] = []
        scan = (1, 64 * 64 - 1, RULE_5Z, SCAN_LIMITS)  # the 64 chunks _tasks yields at most
        with closing(_run_chunks(self._tasks(pulled), workers, scan)) as results:
            first = list(islice(results, 3))
        assert len(pulled) <= 3 + 2 * workers
        for chunk in first:
            i = chunk.index
            c_lo, c_hi = 1 + 64 * i, 63 + 64 * i
            memo = cycles._OrbitMemo(c_lo, c_hi, RULE_5Z, SCAN_LIMITS)
            assert chunk == _scan_chunk(i, c_lo, c_hi, memo)

    def test_pool_capped_at_cpu_count(self, monkeypatch):
        sizes: list[int] = []

        class InlinePool:
            """Stands in for ProcessPoolExecutor: records its size, starts no process."""

            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                fut = Future()
                fut.set_result(fn(*args))
                return fut

        # the runner imports the pool class where it starts one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(cycles, "_worker_memo", None)  # the initializer sets it here
        serial = scan_range(1, 2047, RULE_5Z, SCAN_LIMITS, chunk_size=64)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        # 16 chunks: three CPUs cap a thousand workers
        assert scan_range(1, 2047, RULE_5Z, SCAN_LIMITS, 1000, chunk_size=64) == serial
        # 2 chunks left: the chunk count caps them
        scan_range(1, 255, RULE_5Z, SCAN_LIMITS, 1000, chunk_size=64)
        assert sizes == [3, 2]
        # an unknown CPU count runs in this process
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert scan_range(1, 2047, RULE_5Z, SCAN_LIMITS, 1000, chunk_size=64) == serial
        assert sizes == [3, 2]
