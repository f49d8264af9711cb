"""Shared brute-force oracles for the test suite.

These deliberately avoid the fast paths under test: classification is read
off the full step-by-step orbit, cycle replay applies the raw step
functions one value at a time, cycles are enumerated from the cycle equation
alone, and the reference chunk fold adds its seeds one by one.  The
checkpoint reader and writer let a test edit a checkpoint file as one
document.
"""

from __future__ import annotations

import json
from itertools import combinations
from pathlib import Path

from govlab import cycles
from govlab.cycles import ChunkResult, canonical_cycle
from govlab.dynamics import OrbitLimits, Rule, TerminationKind, orbit


def classify_by_orbit(x: int, rule: Rule, limits: OrbitLimits):
    """Reference outcome tuple derived from the full orbit trace.

    Returns (tag, canonical_cycle_members_or_None, steps_taken, peak_bits)
    where tag is one of "converged_trivial", "cycle", "step_limit",
    "value_limit".
    """
    trace = orbit(x, rule, limits)
    steps_taken = len(trace.steps) - 1
    peak_bits = max(v.bit_length() for v, _ in trace.steps)
    kind = trace.termination.kind
    if kind is TerminationKind.REACHED_TRIVIAL_CYCLE:
        return ("converged_trivial", None, steps_taken, peak_bits)
    if kind is TerminationKind.ENTERED_CYCLE:
        record = canonical_cycle(trace.termination.cycle_members, rule)
        return ("cycle", record.all_members, steps_taken, peak_bits)
    return (kind.value, None, steps_taken, peak_bits)


def replay_cycle_closed(members, rule: Rule) -> bool:
    """Check closure of a member list by raw stepping, without canonical_cycle."""
    n = len(members)
    if n == 0:
        return False
    for i, v in enumerate(members):
        nxt = rule.multiplier * v + 1 if v % 2 else v // 2
        if nxt != members[(i + 1) % n]:
            return False
    return True


def cycles_by_equation(q: int, max_odd: int) -> dict[int, tuple[int, ...]]:
    """Every cycle of x -> (q*x + 1) / 2^v2(q*x + 1) on odd x >= 1 with at
    most max_odd odd members, as its smallest member -> its odd members in
    orbit order from there, found without walking any orbit.

    A cycle through odd x_0..x_(c-1), entered by runs of k_1..k_c halvings,
    with K_i = k_1 + ... + k_i and K = K_c, satisfies
    x_0 * (2^K - q^c) = sum over i < c of q^(c-1-i) * 2^(K_i)
    (Bohm & Sontacchi 1978; Steiner 1977), and 2^K, the product of the
    q + 1/x_i, lies in (q^c, (q+1)^c].  So each word k_1..k_c whose sum is in
    that range gives at most one x_0; it is kept when it is an odd integer
    whose replay follows the word through c distinct odd values.
    """
    found = {}
    for c in range(1, max_odd + 1):
        K = (q**c).bit_length()  # the least K with 2^K > q^c
        while 1 << K <= (q + 1) ** c:
            d = (1 << K) - q**c
            # K_1..K_(c-1) are any c - 1 distinct cuts of 1..K-1
            for cuts in combinations(range(1, K), c - 1):
                prefixes = (0, *cuts)
                total = 0
                for k_i in prefixes:
                    total = total * q + (1 << k_i)
                x, r = divmod(total, d)
                if r or not x & 1:
                    continue
                members = [x]
                for k_i, k_next in zip(prefixes, (*cuts, K)):
                    t = q * members[-1] + 1
                    k = k_next - k_i
                    if t & ((1 << k) - 1) or not (t >> k) & 1:
                        break
                    members.append(t >> k)
                else:
                    if members[-1] == x and len(set(members)) == c:
                        first = members.index(min(members))
                        found[min(members)] = tuple(members[first:-1] + members[:first])
            K += 1
    return found


def chunk_outcomes(lo, hi, memo):
    """(seed, (code, steps, peak)) for the odd seeds lo..hi, ascending, with
    the orbit memo of a scan that holds them; a seed whose entry an earlier
    walk filled takes its result from the memo, and each walk may end at a
    value whose result is known."""
    # cycles._walker is looked up per call, so that tests can spy on it
    walk = cycles._walker(memo)
    kinds, steps, peaks = memo.kinds, memo.steps, memo.peaks
    for seed in range(lo, hi + 1, 2):
        i = (seed - memo.base) >> 1
        if seed < memo.top and kinds[i]:
            yield seed, (kinds[i], steps[i], peaks[i])
        else:
            yield seed, walk(seed)


def fold_chunk(index, lo, hi, memo):
    """The reference fold of chunk lo..hi: ChunkResult.add of every seed's
    result, in ascending order, reading and filling the scan's memo."""
    chunk = ChunkResult(index)
    for seed, result in chunk_outcomes(lo, hi, memo):
        chunk.add(seed, *result, memo.cycles)
    return chunk


def read_checkpoint_doc(path) -> dict:
    """A checkpoint file as one document: its header line with its chunk
    lines, in file order, under "chunks"."""
    header, *chunks = map(json.loads, Path(path).read_text(encoding="utf-8").splitlines())
    return {**header, "chunks": chunks}


def checkpoint_text(doc: dict) -> str:
    """The checkpoint file of a read_checkpoint_doc document: the header
    without "chunks", then each chunk, one line each."""
    header = {k: v for k, v in doc.items() if k != "chunks"}
    return "".join(json.dumps(d) + "\n" for d in [header, *doc["chunks"]])


def write_checkpoint_doc(path, doc: dict) -> None:
    """Write a read_checkpoint_doc document back as a checkpoint file."""
    Path(path).write_text(checkpoint_text(doc), encoding="utf-8")
