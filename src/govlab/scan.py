"""Range scanning: the chunk layout, the chunk runner, the scan report and
the checkpoint format, of which this module is the only reader and writer.

scan_range runs any Rule, which its ScanState and ScanReport hold; it
splits a seed range into the chunks of the ScanState's layout, folds each
with cycles._scan_chunk, and merges the chunk results in index order, so
the report does not depend on the worker count or on checkpoint
interruptions.  The chunks left to run go through one runner: in this
process when one is left, else in a pool of min(workers, chunks left, CPU
count) processes fed lazily, each with one orbit memo for the scan.  The
memo holds the scan's first 2^20 seeds and, when every odd value below
them fits its 2^20 entries, the values below the first seed too, so a scan
that starts above 1 also ends walks on those (cycles says why that is
exact).

A checkpoint (format CHECKPOINT_VERSION) is a header line, the scan's
identity, then one line per completed chunk, each a sort_keys json.dumps.
A report and a header name the rule by Rule.name, its multiplier alone,
so only a scan of rule_for's rule for its multiplier is checkpointed.
A checkpointed scan rewrites the file once, atomically (a .tmp file and
os.replace), then appends and flushes one line per finished chunk.  On load
each line is parsed as it is read, so the load never holds the whole file;
a last line without its newline, a torn append, is dropped; the chunks are
validated against the header's rule, range, limits and chunk size, and a
chunk that does not fit raises CheckpointError.

The line of a chunk with seeds below the orbit table's top also carries
their table entries under "table": "codes", "steps" and "peaks", each the
base64 of a little-endian array, of widths that entry_typecodes gives for
the header's rule and limits and the table's last seed (1, 4 and 2 bytes,
or 8 for a wider bound), with the cycle codes numbered by the line's own
sorted "cycles".  The load checks a table against its line's counts,
candidates and maxima, and a resume restores every loaded table into the
orbit memo of each process that runs its chunks before the first chunk
runs (cycles says why a restored entry is its value's own result, and what
trust that takes).  Only a checkpointed scan copies the entries out, and
each chunk drops its copy once its line is written.  A line without a
table, from a file written before tables or of a chunk from the top on,
restores nothing.
"""

from __future__ import annotations

import json
import os
import sys
from array import array
from binascii import a2b_base64, b2a_base64
from bisect import bisect_left
from contextlib import closing, nullcontext
from dataclasses import dataclass, replace
from itertools import compress, islice
from typing import Iterable, Iterator

from .cycles import (
    _CYCLE, _UNDECIDED_MASK, COUNT_KEYS, ChunkResult, Classification, CycleRecord, _init_worker,
    _memo_top, _OrbitMemo, _scan_chunk, canonical_cycle, entry_typecodes, peak_bound,
    trivial_cycle_record,
)
from .dynamics import RULES, OrbitLimits, Rule, rule_for
from .numerics import decimal_to_int, int_to_decimal, require, show

SCHEMA_VERSION = 1  # of the scan report
CHECKPOINT_VERSION = 2  # of the checkpoint file

DEFAULT_CHUNK_SIZE = 1 << 16  # seeds per chunk


def _identity_doc(scan: ScanReport | ScanState) -> dict:
    """The rule, range and limits of a scan, as its report and its
    checkpoint header write them."""
    limits = scan.limits
    return {
        "rule": scan.rule.name,
        "range": {"lo": int_to_decimal(scan.lo), "hi": int_to_decimal(scan.hi)},
        "limits": {"max_steps": limits.max_steps, "max_value_bits": limits.max_value_bits},
    }


@dataclass(frozen=True)
class ScanReport:
    rule: Rule
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
            **_identity_doc(self),
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
    """Scan identity plus the chunk results accumulated so far; it owns the
    chunk layout, so its bounds are checked under scan_range's names."""

    rule: Rule
    lo: int
    hi: int
    limits: OrbitLimits
    chunk_size: int
    completed: dict[int, ChunkResult]

    def __post_init__(self) -> None:
        require(self.lo, "scan_range lo", odd=True)
        require(self.hi, "scan_range hi", self.lo, odd=True)
        require(self.chunk_size, "scan_range chunk_size")

    @property
    def n_chunks(self) -> int:
        return (self.hi - self.lo) // (2 * self.chunk_size) + 1

    def chunk_bounds(self, index: int) -> tuple[int, int]:
        """The first and last seed of chunk index, one of 0..n_chunks - 1."""
        first = self.lo + 2 * index * self.chunk_size
        return first, min(first + 2 * (self.chunk_size - 1), self.hi)

    def to_doc(self) -> dict:
        """The checkpoint header: the scan's identity, without its chunks."""
        return {
            "schema_version": CHECKPOINT_VERSION,
            "kind": "govlab-scan-checkpoint",
            **_identity_doc(self),
            "multiplier": self.rule.multiplier,
            "chunk_size": self.chunk_size,
        }


def _base64(values: array | bytes) -> str:
    """An array's items, or bytes, as the base64 of their little-endian bytes."""
    if isinstance(values, array) and sys.byteorder == "big":
        values = array(values.typecode, values)
        values.byteswap()
    return b2a_base64(values, newline=False).decode("ascii")


def _from_base64(text: str, typecode: str, n: int) -> array | bytes:
    """The n items of typecode, or n bytes for typecode "B", that _base64
    wrote as text; raises ValueError for any other text."""
    raw = a2b_base64(text)
    if b2a_base64(raw, newline=False) != text.encode("ascii"):  # a2b skips stray characters
        raise ValueError("a table field is not canonical base64")
    values = array(typecode)
    if len(raw) != n * values.itemsize:
        raise ValueError(f"a table field of {len(raw)} bytes holds no {n} entries")
    if typecode == "B":
        return raw
    values.frombytes(raw)
    if sys.byteorder == "big":
        values.byteswap()
    return values


def _chunk_doc(chunk: ChunkResult) -> dict:
    """A chunk result as a checkpoint line."""
    doc = {
        "index": chunk.index,
        "counts": dict(zip(COUNT_KEYS, chunk.counts)),
        "cycles": [chunk.cycles[k].to_doc() for k in sorted(chunk.cycles)],
        "candidates": [int_to_decimal(v) for v in chunk.candidates],
        "max_excursion_bits": chunk.max_excursion_bits,
        "max_steps_observed": chunk.max_steps_observed,
    }
    if chunk.table is not None:
        doc["table"] = dict(zip(("codes", "steps", "peaks"), map(_base64, chunk.table)))
    return doc


def _chunk_from_doc(doc: dict, rule: Rule) -> ChunkResult:
    """The chunk result of a _chunk_doc item; each cycle is rebuilt from its
    members and listed once, and each count and maximum must be an int >= 0."""
    cycles = [
        canonical_cycle([decimal_to_int(v) for v in d["all_members"]], rule) for d in doc["cycles"]
    ]
    chunk = ChunkResult(
        index=require(doc["index"], "chunk index", 0),
        counts=[require(doc["counts"][k], f"chunk count {k}", 0) for k in COUNT_KEYS],
        cycles={rec.smallest_odd: rec for rec in cycles},
        candidates=[decimal_to_int(v) for v in doc["candidates"]],
        max_excursion_bits=require(doc["max_excursion_bits"], "chunk max_excursion_bits", 0),
        max_steps_observed=require(doc["max_steps_observed"], "chunk max_steps_observed", 0),
    )
    if len(chunk.cycles) < len(cycles):
        raise ValueError(f"chunk {int_to_decimal(chunk.index)} lists a cycle twice")
    return chunk


def _line(doc: dict) -> str:
    """One line of a checkpoint file."""
    return json.dumps(doc, sort_keys=True) + "\n"


def checkpoint_save(state: ScanState, path: str) -> None:
    """Atomically write the scan state: its header line, then one line per
    completed chunk in index order."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(_line(state.to_doc()))
        for i in sorted(state.completed):
            fh.write(_line(_chunk_doc(state.completed[i])))
    os.replace(tmp, path)


def _complete_lines(path: str) -> Iterator[str]:
    """The lines of a checkpoint file that end in a newline, read one at a
    time; a read that fails raises CheckpointError."""
    try:
        with open(path, encoding="utf-8", newline="\n") as fh:
            for line in fh:
                # a line cut short by a kill is the last one, and it is never merged
                if line.endswith("\n"):
                    yield line
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc


def checkpoint_load(path: str) -> ScanState:
    """Load a checkpoint, raising CheckpointError on any structural problem,
    including a file of another format version, a rule name that is not its
    multiplier's and a chunk that does not fit the checkpoint's own range and
    chunk size.  A last line without its newline is dropped.  Each chunk
    line is parsed as it is read, so the load holds one line at a time.
    """
    with closing(_complete_lines(path)) as lines:
        header = next(lines, None)
        if header is None:
            raise CheckpointError(f"checkpoint {path} has no complete header line")
        try:
            doc = json.loads(header)
            if require(doc["schema_version"], "checkpoint schema_version") != CHECKPOINT_VERSION:
                raise CheckpointError(
                    f"checkpoint schema_version {show(doc['schema_version'])} is not "
                    f"{CHECKPOINT_VERSION}"
                )
            if doc.get("kind") != "govlab-scan-checkpoint":
                raise CheckpointError(f"{path} is not a scan checkpoint")
            rule = rule_for(doc["multiplier"])
            if doc["rule"] != rule.name:
                raise CheckpointError(
                    f"checkpoint rule {show(doc['rule'])} is not {rule.name}, its multiplier's"
                )
            limits = OrbitLimits(doc["limits"]["max_steps"], doc["limits"]["max_value_bits"])
            lo, hi = decimal_to_int(doc["range"]["lo"]), decimal_to_int(doc["range"]["hi"])
            state = ScanState(rule, lo, hi, limits, doc["chunk_size"], {})
            for line in lines:
                chunk_doc = json.loads(line)
                chunk = _chunk_from_doc(chunk_doc, rule)
                _check_chunk(chunk, state)
                if "table" in chunk_doc:
                    chunk.table = _table_from_doc(chunk_doc["table"], chunk, state)
                if chunk.index in state.completed:
                    raise ValueError(f"chunk {int_to_decimal(chunk.index)} appears twice")
                state.completed[chunk.index] = chunk
        # ValueError also covers a line that is not JSON, and an int past the digit cap
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from exc
    return state


def _check_chunk(chunk: ChunkResult, state: ScanState) -> None:
    """Raise ValueError unless the chunk's index, counts, candidates and
    cycles fit its seeds in state's layout; _chunk_from_doc has checked that
    its numbers are not negative."""
    i = chunk.index
    if i >= state.n_chunks:
        raise ValueError(
            f"chunk index {int_to_decimal(i)} is outside 0..{int_to_decimal(state.n_chunks - 1)}"
        )
    chunk_name = f"chunk {int_to_decimal(i)}"
    c_lo, c_hi = state.chunk_bounds(i)
    n = (c_hi - c_lo) // 2 + 1  # len() of the seed range overflows past sys.maxsize
    counts = dict(sorted(zip(COUNT_KEYS, chunk.counts)))
    if sum(counts.values()) != n:
        shown = ", ".join(map(int_to_decimal, counts.values()))
        raise ValueError(
            f"{chunk_name} counts [{shown}] do not add up to {int_to_decimal(n)} seeds"
        )
    cands = chunk.candidates
    if len(cands) != counts["undecided_step_limit"] + counts["undecided_value_limit"]:
        raise ValueError(f"{chunk_name} has {len(cands)} candidates, not one per undecided seed")
    seeds = range(c_lo, c_hi + 1, 2)
    if not all(v in seeds for v in cands) or any(a >= b for a, b in zip(cands, cands[1:])):
        raise ValueError(
            f"{chunk_name} candidates are not ascending odd seeds in "
            f"{int_to_decimal(c_lo)}:{int_to_decimal(c_hi)}"
        )
    # a chunk lists each auxiliary cycle its seeds enter, at least one seed
    # each; seeds that reach the trivial cycle are counted as converged
    entered, listed = counts["entered_cycle"], len(chunk.cycles)
    if listed > entered or (entered and not listed):
        raise ValueError(
            f"{chunk_name} lists {listed} cycles for {int_to_decimal(entered)} seeds "
            f"that entered one"
        )
    if any(c.classification is Classification.TRIVIAL for c in chunk.cycles.values()):
        raise ValueError(f"{chunk_name} lists the trivial cycle")
    # a seed's peak is at least its bit length and at most the peak_bound
    # that _OrbitMemo sizes its peaks by
    steps, peak, least = chunk.max_steps_observed, chunk.max_excursion_bits, c_hi.bit_length()
    most = peak_bound(state.rule, state.limits, c_hi)
    if steps > state.limits.max_steps or not least <= peak <= most:
        raise ValueError(
            f"{chunk_name} maxima of {int_to_decimal(steps)} steps and {int_to_decimal(peak)} "
            f"bits are past max_steps or outside {least}..{most} bits"
        )


def _table_from_doc(doc: dict, chunk: ChunkResult, state: ScanState) -> tuple:
    """The (codes, steps, peaks) of a chunk line's "table", which must hold
    one entry per seed of the chunk below the orbit table's top, with codes
    inside the line's cycles, and agree with the chunk's counts, candidates
    and maxima, which _check_chunk has checked; raises ValueError if not."""
    chunk_name = f"chunk {int_to_decimal(chunk.index)}"
    c_lo, c_hi = state.chunk_bounds(chunk.index)
    n = (min(c_hi + 2, _memo_top(state.lo, state.hi)) - c_lo) // 2
    if n <= 0:
        raise ValueError(f"{chunk_name} lies past the orbit table's top, so it holds no table")
    steps_type, peaks_type = entry_typecodes(state.rule, state.limits, c_lo + 2 * (n - 1))
    try:
        codes = _from_base64(doc["codes"], "B", n)
        steps = _from_base64(doc["steps"], steps_type, n)
        peaks = _from_base64(doc["peaks"], peaks_type, n)
    except ValueError as exc:
        raise ValueError(f"{chunk_name}: {exc}") from None
    if codes.translate(None, bytes(range(min(_CYCLE + len(chunk.cycles), 256)))):
        raise ValueError(f"{chunk_name} table holds a code past its {len(chunk.cycles)} cycles")
    # code 0 is a seed that went through ChunkResult.add: a cycle member, or
    # a cycle whose code passed the kind byte
    known = [codes.count(code) for code in range(1, _CYCLE)]
    whole = n == (c_hi - c_lo) // 2 + 1  # else the seeds from the top on hold no entry
    for found, count in zip([*known, n - sum(known)], chunk.counts):
        if found > count or (whole and found != count):
            raise ValueError(f"{chunk_name} table's counts disagree with its own")
    undecided = codes.translate(_UNDECIDED_MASK)
    found = list(compress(range(c_lo, c_lo + 2 * n, 2), undecided)) if 1 in undecided else []
    cands = chunk.candidates
    if found != cands[: bisect_left(cands, c_lo + 2 * n)]:
        raise ValueError(f"{chunk_name} table's candidates disagree with its own")
    # the table's maxima are the chunk's when it holds every seed's result
    for values, most in ((steps, chunk.max_steps_observed), (peaks, chunk.max_excursion_bits)):
        top = max(values)
        if top > most or (whole and top != most and 0 not in codes):
            raise ValueError(f"{chunk_name} table's maxima disagree with its own")
    return codes, steps, peaks


def _merge(state: ScanState) -> ScanReport:
    total = ChunkResult(index=0)
    for i in range(state.n_chunks):
        total.merge(state.completed[i])
    counts = dict(sorted(zip(COUNT_KEYS, total.counts)))
    if counts["converged_trivial"]:
        # seeds reached the trivial cycle, so it was observed even though no
        # seed's outcome carries it as a CycleRecord
        triv = trivial_cycle_record(state.rule)
        total.cycles.setdefault(triv.smallest_odd, triv)
    counts["total"] = sum(total.counts)
    return ScanReport(
        rule=state.rule,
        lo=state.lo,
        hi=state.hi,
        limits=state.limits,
        counts=counts,
        cycles=tuple(total.cycles[k] for k in sorted(total.cycles)),
        divergence_candidates=tuple(total.candidates),
        max_excursion_bits=total.max_excursion_bits,
        max_steps_observed=total.max_steps_observed,
    )


def _run_chunks(tasks: Iterable[tuple], workers: int, scan: tuple) -> Iterator[ChunkResult]:
    """Run _scan_chunk on each (index, lo, hi) in tasks; yield results as they finish.

    scan is the (lo, hi, rule, limits) of the scan the chunks belong to, and
    for a checkpointed scan the list of the loaded tables, each (first seed,
    sorted cycles, table) of a completed chunk; each process that runs
    chunks builds one orbit memo for it, with those tables restored, which
    every chunk it runs reads and fills, and on which each chunk keeps its
    own table.  Workers are capped at the CPU count.  One worker runs the
    chunks in this process.  More run them in a pool of that size, which
    reads tasks lazily and holds at most 2 * workers chunks.
    """
    workers = min(workers, os.cpu_count() or 1)
    if workers <= 1:
        memo = None  # built with the first task, so no chunks left builds none
        for args in tasks:
            memo = memo or _OrbitMemo(*scan)
            yield _scan_chunk(*args, memo)
        return
    # imported here, where a pool starts: it loads multiprocessing, which
    # costs every CLI command that runs no pool a share of its start-up
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

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
    not depend on the worker count.  With checkpoint_path set, a matching
    existing checkpoint is resumed, the file is rewritten once in index
    order, and each chunk that finishes is appended to it as one line, with
    its seeds' table entries; the loaded entries are restored into the
    orbit memo before the first chunk left runs.
    """
    require(workers, "scan_range workers")
    state = ScanState(rule, lo, hi, limits, chunk_size, {})
    if checkpoint_path is not None:
        if rule not in RULES.values():  # checkpoint_load reads only rule_for's rules
            cycle = ", ".join(map(int_to_decimal, rule.trivial_cycle))
            raise ValueError(f"a checkpoint cannot hold {rule.name} with trivial cycle ({cycle})")
        if os.path.exists(checkpoint_path):
            loaded = checkpoint_load(checkpoint_path)
            if replace(loaded, completed={}) != state:
                raise CheckpointError(
                    f"checkpoint {checkpoint_path} was written by a different scan "
                    f"(rule/range/limits/chunk_size mismatch)"
                )
            state = loaded
        # drops a torn last line, and writes the header of a fresh scan
        checkpoint_save(state, checkpoint_path)

    # the loaded tables, which the orbit memo restores before the first
    # chunk runs; a chunk keeps its own only until its line is written
    tables = []
    for i, chunk in state.completed.items():
        if chunk.table is not None:
            sorted_cycles = [chunk.cycles[k] for k in sorted(chunk.cycles)]
            tables.append((state.chunk_bounds(i)[0], sorted_cycles, chunk.table))
            chunk.table = None
    tasks = (
        (i, *state.chunk_bounds(i)) for i in range(state.n_chunks) if i not in state.completed
    )
    workers = min(workers, state.n_chunks - len(state.completed))
    with nullcontext() if checkpoint_path is None else open(
        checkpoint_path, "a", encoding="utf-8"
    ) as log:
        scan = (lo, hi, rule, limits, None if log is None else tables)
        for chunk in _run_chunks(tasks, workers, scan):
            state.completed[chunk.index] = chunk
            if log is not None:
                log.write(_line(_chunk_doc(chunk)))
                log.flush()
                chunk.table = None
    return _merge(state)
