import dataclasses
import json
from contextlib import closing
from itertools import count, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from govlab.cycles import (
    CheckpointError,
    Classification,
    OutcomeTag,
    ScanState,
    _run_chunks,
    _scan_chunk,
    canonical_cycle,
    checkpoint_load,
    checkpoint_save,
    classify_cycle,
    detect_outcome,
    scan_range,
    trivial_cycle_record,
)
from govlab.dynamics import RULE_3Z, RULE_5Z, OrbitLimits, TerminationKind
from govlab.numerics import governor_index
from helpers import classify_by_orbit, replay_cycle_closed

GENEROUS = OrbitLimits(max_steps=10**6, max_value_bits=4096)
SCAN_LIMITS = OrbitLimits(max_steps=10**5, max_value_bits=128)

AUX_13 = [83, 416, 208, 104, 52, 26, 13, 66, 33, 166]


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
        out = detect_outcome(seed, rule, limits)
        if out.tag is OutcomeTag.CONVERGED_TRIVIAL:
            got = ("converged_trivial", None, out.steps_taken, out.peak_bits)
        elif out.tag is OutcomeTag.CYCLE:
            got = ("cycle", out.cycle.all_members, out.steps_taken, out.peak_bits)
        else:
            got = (out.undecided_reason.value, None, out.steps_taken, out.peak_bits)
        assert got == expected


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

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            scan_range(2, 9, RULE_3Z, SCAN_LIMITS)
        with pytest.raises(ValueError):
            scan_range(9, 3, RULE_3Z, SCAN_LIMITS)


class TestCheckpoint:
    def _partial_state(self, lo, hi, chunk_size, indices):
        n_seeds = (hi - lo) // 2 + 1
        state = ScanState(5, lo, hi, SCAN_LIMITS, chunk_size, {})
        for i in indices:
            c_lo = lo + 2 * i * chunk_size
            c_hi = lo + 2 * (min((i + 1) * chunk_size, n_seeds) - 1)
            state.completed[i] = _scan_chunk(
                i, 5, c_lo, c_hi, SCAN_LIMITS.max_steps, SCAN_LIMITS.max_value_bits
            )
        return state

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
        assert loaded.to_doc() == state.to_doc()

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

    def test_version_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        state = self._partial_state(1, 1023, 128, indices=(0,))
        checkpoint_save(state, path)
        doc = json.loads(open(path, encoding="utf-8").read())
        doc["schema_version"] = 999
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with pytest.raises(CheckpointError):
            checkpoint_load(str(path))

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


class TestCheckpointValidation:
    """A checkpoint whose chunks disagree with its own range is rejected on load."""

    ARGS = (1, 1023, RULE_5Z, SCAN_LIMITS)  # four chunks of 128 seeds

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
        ],
    )
    def test_inconsistent_chunk_rejected(self, tmp_path, corrupt):
        path = tmp_path / "ckpt.json"
        scan_range(*self.ARGS, chunk_size=128, checkpoint_path=str(path))
        doc = json.loads(path.read_text(encoding="utf-8"))
        corrupt(doc)
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(CheckpointError):
            checkpoint_load(str(path))
        with pytest.raises(CheckpointError):
            scan_range(*self.ARGS, chunk_size=128, checkpoint_path=str(path))

    def test_zero_chunk_size_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        checkpoint_save(ScanState(5, 1, 1023, SCAN_LIMITS, 128, {}), str(path))
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["chunk_size"] = 0
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(CheckpointError):
            checkpoint_load(str(path))

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


class TestChunkRunner:
    @staticmethod
    def _tasks(pulled: list[int]):
        """Unbounded chunks of 32 seeds; refuses to be read far ahead."""
        for i in count():
            pulled.append(i)
            if len(pulled) > 64:
                raise AssertionError("the runner read the task iterator too far ahead")
            yield (i, 5, 1 + 64 * i, 63 + 64 * i, SCAN_LIMITS.max_steps, SCAN_LIMITS.max_value_bits)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pulls_tasks_lazily(self, workers):
        pulled: list[int] = []
        with closing(_run_chunks(self._tasks(pulled), workers)) as results:
            first = list(islice(results, 3))
        assert len(pulled) <= 3 + 2 * workers
        for chunk in first:
            i = chunk.index
            assert chunk == _scan_chunk(i, 5, 1 + 64 * i, 63 + 64 * i, 10**5, 128)
