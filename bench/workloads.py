"""The four census workloads.

Each workload makes its inputs from the benchmark seed, times one run of what
a user waits for, reduces the run's output to exact counts that must repeat
(`fingerprint`), checks the output against the known cycles and the
step-by-step oracle `govlab.orbit` (`problems`), and, in a traced run,
measures the layers it exercises (`probe`).  Only public govlab names are
used; `g` is the freshly imported `govlab` package.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

# every cycle a scan may report, by rule multiplier
KNOWN_CYCLES = {3: {1}, 5: {1, 13, 17}}
ORACLE_SAMPLE = 256
CLI_TIMEOUT_S = 170
REPEATS = 3  # back-to-back measurements per probe; probes report their median
OUTCOMES = ("converged_trivial", "entered_cycle", "undecided_step_limit", "undecided_value_limit")
# outcome classes timed per step and per seed; step-limited seeds do not occur
TIMED_CLASSES = (("trivial", 0), ("cycle", 1), ("value_limit", 3))


def window(seed: int, stream: str, n_seeds: int) -> tuple[int, int]:
    """Odd range of n_seeds seeds: from 1 for seed 0, else shifted by up to n_seeds/32.

    The shift changes which seeds are classified but keeps the work per run
    within about a percent, so runs with different seeds stay comparable.
    """
    shift = 0 if seed == 0 else random.Random(f"{stream}:{seed}").randrange(1, n_seeds // 32)
    lo = 1 + 2 * shift
    return lo, lo + 2 * (n_seeds - 1)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def timed(fn, *args, **kwargs):
    t0 = perf_counter()
    out = fn(*args, **kwargs)
    return perf_counter() - t0, out


def median_time(fn, repeats: int) -> float:
    return statistics.median(timed(fn)[0] for _ in range(repeats))


def scan_fingerprint(report, text: str) -> dict:
    return {
        "counts": [report.counts[k] for k in OUTCOMES],
        "report_bytes": len(text.encode("utf-8")),
        "report_sha256": sha256(text),
    }


def report_problems(g, report, rule, limits, n_seeds: int, label: str) -> list[str]:
    """Counts add up, cycles are known, and a seeded sample agrees with orbit()."""
    out = []
    counts = report.counts
    if counts["total"] != n_seeds or sum(counts[k] for k in OUTCOMES) != n_seeds:
        out.append(f"counts {counts} do not add up to {n_seeds} seeds")
    found = {c.smallest_odd for c in report.cycles}
    if not found <= KNOWN_CYCLES[rule.multiplier]:
        out.append(f"unknown cycles {sorted(found - KNOWN_CYCLES[rule.multiplier])}")
    candidates = set(report.divergence_candidates)
    if len(candidates) != counts["undecided_step_limit"] + counts["undecided_value_limit"]:
        out.append("divergence candidates do not match the undecided counts")
    undecided = {g.TerminationKind.STEP_LIMIT, g.TerminationKind.VALUE_LIMIT}
    rng = random.Random(f"{label}:oracle")
    for i in sorted(rng.sample(range(n_seeds), min(ORACLE_SAMPLE, n_seeds))):
        x = report.lo + 2 * i
        trace = g.orbit(x, rule, limits)
        term = trace.termination
        if (term.kind in undecided) != (x in candidates):
            out.append(f"seed {x}: orbit ends {term.kind.value}, candidate={x in candidates}")
        if term.kind is g.TerminationKind.ENTERED_CYCLE:
            smallest = min(v for v in term.cycle_members if v % 2)
            if smallest not in found:
                out.append(f"seed {x}: cycle {smallest} missing from the report")
        if term.kind is g.TerminationKind.REACHED_TRIVIAL_CYCLE and 1 not in found:
            out.append(f"seed {x}: trivial cycle missing from the report")
        steps = len(trace.steps) - 1
        peak = max(v.bit_length() for v, _ in trace.steps)
        if steps > report.max_steps_observed or peak > report.max_excursion_bits:
            out.append(f"seed {x}: {steps} steps / {peak} bits exceed the report's maxima")
    return out


class DetectTimer:
    """Times each detect_outcome call over the seeds of (lo, hi, rule, limits) scans.

    Call time, steps and seeds add up per outcome class over all passes; the
    exact counts of every pass must equal the first pass's.
    """

    def __init__(self, g, scans) -> None:
        self.g, self.scans = g, scans
        self.ns = [0, 0, 0, 0]
        self.steps = [0, 0, 0, 0]
        self.seeds = [0, 0, 0, 0]
        self.exact: dict | None = None
        self.problems: list[str] = []

    def run(self, tracer) -> float:
        """One pass; returns its summed call time in seconds."""
        g = self.g
        ns, steps, seeds = [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]
        detect = g.detect_outcome
        trivial, cycle = g.OutcomeTag.CONVERGED_TRIVIAL, g.OutcomeTag.CYCLE
        step_limit = g.TerminationKind.STEP_LIMIT
        with tracer.span("probe.detect_outcome"):
            for lo, hi, rule, limits in self.scans:
                for x in range(lo, hi + 1, 2):
                    t0 = perf_counter_ns()
                    out = detect(x, rule, limits)
                    t1 = perf_counter_ns()
                    tracer.record("cycles.detect_outcome", t0, t1)
                    if out.tag is trivial:
                        c = 0
                    elif out.tag is cycle:
                        c = 1
                    elif out.undecided_reason is step_limit:
                        c = 2
                    else:
                        c = 3
                    ns[c] += t1 - t0
                    steps[c] += out.steps_taken
                    seeds[c] += 1
        exact = {"outcomes": seeds, "steps_total": sum(steps)}
        if self.exact is None:
            self.exact = exact
        elif exact != self.exact:
            self.problems.append(f"detect_outcome pass gave {exact}, an earlier one {self.exact}")
        for total, part in ((self.ns, ns), (self.steps, steps), (self.seeds, seeds)):
            for c in range(4):
                total[c] += part[c]
        return sum(ns) / 1e9

    def metrics(self) -> dict:
        ns, steps, seeds = self.ns, self.steps, self.seeds
        out = {}
        for name, c in TIMED_CLASSES:
            out[f"cycles.detect_outcome.ns_per_step.{name}"] = ns[c] / steps[c] if steps[c] else 0
            out[f"cycles.detect_outcome.us_per_seed.{name}"] = (
                ns[c] / seeds[c] / 1000 if seeds[c] else 0
            )
        out["cycles.detect_outcome.steps_per_seed"] = self.exact["steps_total"] / sum(
            self.exact["outcomes"]
        )
        out["cycles.detect_outcome.steps_total"] = self.exact["steps_total"]
        for name, n in zip(OUTCOMES, self.exact["outcomes"]):
            out[f"cycles.outcomes.{name}"] = n
        return out

    def check(self, reports) -> list[str]:
        """The timed passes must classify exactly as the scans did."""
        scanned = [sum(r.counts[k] for r in reports) for k in OUTCOMES]
        if self.exact["outcomes"] != scanned:
            return self.problems + [
                f"detect_outcome counts {self.exact['outcomes']} differ from the scan's {scanned}"
            ]
        return self.problems


def count_chunks(g, path: Path, lo, hi, rule, limits, **scan_kwargs) -> int:
    """Chunks a scan is split into, read back from the checkpoint it writes."""
    path.unlink(missing_ok=True)
    g.scan_range(lo, hi, rule, limits, checkpoint_path=str(path), **scan_kwargs)
    n = len(g.checkpoint_load(str(path)).completed)
    path.unlink()
    return n


def to_json_metrics(tracer, reports) -> dict:
    with tracer.span("probe.ScanReport.to_json"):
        ms = sum(median_time(r.to_json, 9) for r in reports) * 1000
    size = sum(len(r.to_json().encode("utf-8")) for r in reports)
    return {"cycles.report.to_json_ms": ms, "cycles.report.bytes": size}


def pool_metrics(chunks: int, workers: int, pairs) -> dict:
    """From (wall at 1 worker, wall at `workers`) pairs measured back to back."""
    return {
        "cycles.pool.chunks": chunks,
        "cycles.pool.speedup": statistics.median(w1 / wn for w1, wn in pairs),
        "cycles.pool.overhead_s": statistics.median(
            wn - w1 / min(workers, chunks) for w1, wn in pairs
        ),
    }


class Census:
    """scan_range over one window with the default chunk size."""

    def __init__(self, name, multiplier, max_steps, max_value_bits, seeds, workers):
        self.name = name
        self.multiplier, self.max_steps, self.max_value_bits = multiplier, max_steps, max_value_bits
        self.seeds, self.workers = seeds, workers
        self.classified = seeds
        self.children = workers if workers > 1 else 0

    def prepare(self, g, seed: int, root: Path, out: Path) -> None:
        self.g, self.out = g, out
        self.rule = g.rule_for(self.multiplier)
        self.limits = g.OrbitLimits(max_steps=self.max_steps, max_value_bits=self.max_value_bits)
        self.lo, self.hi = window(seed, self.name, self.seeds)
        self.label = f"{self.name}:{seed}"
        # the first call pays any lazy set-up, so no timed run does
        g.scan_range(1, 63, self.rule, self.limits)

    def scan(self, tracer, workers: int):
        t0 = perf_counter()
        with tracer.span("cycles.scan_range"):
            report = self.g.scan_range(self.lo, self.hi, self.rule, self.limits, workers=workers)
        with tracer.span("cycles.ScanReport.to_json"):
            text = report.to_json()
        return perf_counter() - t0, (report, text)

    def run_once(self, tracer):
        return self.scan(tracer, self.workers)

    def fingerprint(self, result) -> dict:
        return scan_fingerprint(*result)

    def problems(self, result) -> list[str]:
        return report_problems(self.g, result[0], self.rule, self.limits, self.seeds, self.label)

    def probe(self, tracer, runs):
        g = self.g
        report, text = runs[0][1]
        timer = DetectTimer(g, [(self.lo, self.hi, self.rule, self.limits)])
        problems, folds, pairs = [], [], []
        # each repeat measures its quantities back to back, so that a change
        # in machine speed between them does not show as a difference
        for _ in range(REPEATS):
            texts = []
            if self.workers > 1:
                wall_n, (_, text_n) = self.scan(tracer, self.workers)
                texts.append(text_n)
            with tracer.span("probe.scan_range.workers_1"):
                wall_1, (_, text_1) = self.scan(tracer, 1)
            texts.append(text_1)
            folds.append(wall_1 - timer.run(tracer))
            if self.workers > 1:
                pairs.append((wall_1, wall_n))
            if any(t != text for t in texts):
                problems.append("a probe scan's report differs from the timed runs'")
        metrics = timer.metrics()
        metrics["cycles.fold_s"] = statistics.median(folds)
        with tracer.span("probe.chunk_count"):
            chunks = count_chunks(
                g, self.out / f"{self.name}.chunks.json", self.lo, self.hi, self.rule,
                self.limits, workers=self.workers,
            )
        metrics["cycles.pool.chunks"] = chunks
        if self.workers > 1:
            metrics.update(pool_metrics(chunks, self.workers, pairs))
        metrics.update(to_json_metrics(tracer, [report]))
        exact = dict(timer.exact, chunks=chunks)
        return metrics, exact, problems + timer.check([report])


class ResumeCheckpoint:
    """Resume a chunk_size=512 3Z+1 scan whose first half is checkpointed."""

    name = "resume-3z-checkpoint"
    seeds = 1 << 16
    classified = seeds // 2  # the first half is read from the checkpoint
    chunk_size = 512
    workers = 1
    children = 0

    def prepare(self, g, seed: int, root: Path, out: Path) -> None:
        self.g, self.out = g, out
        self.rule = g.RULE_3Z
        self.limits = g.OrbitLimits(max_steps=10**6, max_value_bits=256)
        self.lo, self.hi = window(seed, self.name, self.seeds)
        self.label = f"{self.name}:{seed}"
        self.mid = self.lo + self.seeds  # first seed of the second half of the chunks
        self.seed_path = out / f"{self.name}.half.json"
        self.path = out / f"{self.name}.json"
        first_half = out / f"{self.name}.first-half.json"
        first_half.unlink(missing_ok=True)
        g.scan_range(
            self.lo, self.mid - 2, self.rule, self.limits,
            chunk_size=self.chunk_size, checkpoint_path=str(first_half),
        )
        state = g.checkpoint_load(str(first_half))
        g.checkpoint_save(dataclasses.replace(state, hi=self.hi), str(self.seed_path))
        first_half.unlink()

    def run_once(self, tracer):
        shutil.copyfile(self.seed_path, self.path)
        t0 = perf_counter()
        with tracer.span("cycles.scan_range"):
            report = self.g.scan_range(
                self.lo, self.hi, self.rule, self.limits,
                chunk_size=self.chunk_size, checkpoint_path=str(self.path),
            )
        with tracer.span("cycles.ScanReport.to_json"):
            text = report.to_json()
        wall = perf_counter() - t0
        chunks = len(self.g.checkpoint_load(str(self.path)).completed)
        return wall, (report, text, self.path.stat().st_size, chunks)

    def fingerprint(self, result) -> dict:
        report, text, size, chunks = result
        fp = scan_fingerprint(report, text)
        fp["checkpoint_bytes"] = size
        fp["chunks"] = chunks
        return fp

    def problems(self, result) -> list[str]:
        return report_problems(self.g, result[0], self.rule, self.limits, self.seeds, self.label)

    def probe(self, tracer, runs):
        g = self.g
        report = runs[0][1][0]
        timer = DetectTimer(g, [(self.mid, self.hi, self.rule, self.limits)])
        problems, folds, overheads = [], [], []
        for _ in range(REPEATS):
            wall, result = self.run_once(tracer)
            if result[1] != runs[0][1][1]:
                problems.append("a probe resume's report differs from the timed runs'")
            with tracer.span("probe.scan_range.no_checkpoint"):
                wall_free, upper = timed(
                    g.scan_range, self.mid, self.hi, self.rule, self.limits,
                    chunk_size=self.chunk_size,
                )
            folds.append(wall_free - timer.run(tracer))
            overheads.append(wall / wall_free - 1)
        metrics = timer.metrics()
        metrics["cycles.fold_s"] = statistics.median(folds)
        metrics["cycles.checkpoint.overhead_frac"] = statistics.median(overheads)

        with tracer.span("probe.checkpoint_load"):
            metrics["cycles.checkpoint_load.ms"] = 1000 * median_time(
                lambda: g.checkpoint_load(str(self.seed_path)), 5
            )
        # replay the saves the resume makes: states holding chunks 0..k, for
        # each chunk k of the second half
        final = g.checkpoint_load(str(self.path))
        total = len(final.completed)
        first = len(g.checkpoint_load(str(self.seed_path)).completed)
        scratch = self.out / f"{self.name}.replay.json"
        save_s = 0.0
        with tracer.span("probe.checkpoint_save"):
            for k in range(first + 1, total + 1):
                state = dataclasses.replace(
                    final, completed={i: final.completed[i] for i in range(k)}
                )
                t0 = perf_counter()
                with tracer.span("cycles.checkpoint_save"):
                    g.checkpoint_save(state, str(scratch))
                save_s += perf_counter() - t0
        scratch.unlink()
        calls = total - first
        metrics["cycles.checkpoint_save.calls"] = calls
        metrics["cycles.checkpoint_save.total_s"] = save_s
        metrics["cycles.checkpoint_save.ms_per_call"] = 1000 * save_s / calls
        metrics["cycles.checkpoint.bytes"] = self.path.stat().st_size
        metrics["cycles.pool.chunks"] = total
        metrics.update(to_json_metrics(tracer, [report]))
        return metrics, dict(timer.exact), problems + timer.check([upper])


class ClaimsCli:
    """`python -m govlab.cli claims --all` with the C1-C4 ranges scaled down."""

    name = "claims-cli"
    seeds_3z = 1 << 14
    seeds_5z = 1 << 11
    classified = 2 * (seeds_3z + seeds_5z)  # C1..C4 each scan one range
    workers = 2
    children = 1 + workers  # the CLI process and its pool

    def prepare(self, g, seed: int, root: Path, out: Path) -> None:
        self.g, self.root, self.out = g, root, out
        self.label = f"{self.name}:{seed}"
        lo3, hi3 = window(seed, f"{self.name}:3z", self.seeds_3z)
        lo5, hi5 = window(seed, f"{self.name}:5z", self.seeds_5z)
        # the C1 and C3 default limits
        self.scans = {
            "C1": (lo3, hi3, g.RULE_3Z, g.OrbitLimits(max_steps=10**6, max_value_bits=256)),
            "C3": (lo5, hi5, g.RULE_5Z, g.OrbitLimits(max_steps=10**5, max_value_bits=128)),
        }
        r3 = {"lo": lo3, "hi": hi3}
        r5 = {"lo": lo5, "hi": hi5}
        params = {"C1": r3, "C2": r3, "C3": r5, "C4": r5}
        self.env = {k: v for k, v in os.environ.items() if k != "GOVLAB_WORKERS"}
        self.env["PYTHONPATH"] = str(root / "src")
        self.params = json.dumps(params, sort_keys=True)
        self.references = None
        proc = self.run_cli(self.cli("claims", "--list"))
        if proc.returncode != 0:
            raise RuntimeError(f"claims --list exited {proc.returncode}: {proc.stderr[-500:]}")

    @staticmethod
    def cli(*args: str) -> list[str]:
        return [sys.executable, "-m", "govlab.cli", *args]

    def claims_argv(self, workers: int) -> list[str]:
        return self.cli("claims", "--all", "--workers", str(workers), "--params", self.params)

    def run_cli(self, argv):
        return subprocess.run(
            argv, cwd=self.root, env=self.env, capture_output=True, text=True,
            timeout=CLI_TIMEOUT_S,
        )

    def run_once(self, tracer, workers=None):
        argv = self.claims_argv(workers or self.workers)
        t0 = perf_counter()
        with tracer.span("cli.claims"):
            proc = self.run_cli(argv)
        return perf_counter() - t0, proc

    def fingerprint(self, proc) -> dict:
        if proc.returncode != 0:
            return {"exit_code": proc.returncode}
        doc = json.loads(proc.stdout)
        for result in doc["results"]:
            del result["runtime_seconds"]
        canonical = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        return {
            "claims_sha256": sha256(canonical),
            "exit_code": 0,
            "summary": doc["summary"],
        }

    def reference_reports(self) -> dict:
        """In-process workers=1 scans of the C1 and C3 ranges."""
        if self.references is None:
            self.references = {cid: self.g.scan_range(*scan) for cid, scan in self.scans.items()}
        return self.references

    def problems(self, proc) -> list[str]:
        if proc.returncode != 0:
            return [f"claims exited {proc.returncode}: {proc.stderr[-500:]}"]
        doc = json.loads(proc.stdout)
        out = []
        if doc["summary"] != {"pass": 6, "fail": 0, "mismatch_reported": 1}:
            out.append(f"summary {doc['summary']}")
        evidence = {r["claim_id"]: r["evidence"] for r in doc["results"]}
        same_scan = ("counts", "cycles", "divergence_candidate_count", "range")
        for first, again in (("C1", "C2"), ("C3", "C4")):
            if any(evidence[first][k] != evidence[again][k] for k in same_scan):
                out.append(f"{again} scanned differently from {first}")
        for cid, report in self.reference_reports().items():
            ev = evidence[cid]
            lo, hi, rule, limits = self.scans[cid]
            if ev["counts"] != report.counts:
                out.append(f"{cid} counts {ev['counts']} differ from scan_range's")
            if [int(c["smallest_odd"]) for c in ev["cycles"]] != [
                c.smallest_odd for c in report.cycles
            ]:
                out.append(f"{cid} cycles differ from scan_range's")
            if ev["divergence_candidate_count"] != len(report.divergence_candidates):
                out.append(f"{cid} candidate count differs from scan_range's")
            n = (hi - lo) // 2 + 1
            out += report_problems(self.g, report, rule, limits, n, f"{self.label}:{cid}")
        return out

    def probe(self, tracer, runs):
        g = self.g
        timer = DetectTimer(g, list(self.scans.values()))
        folds, pairs = [], []
        for _ in range(REPEATS):
            with tracer.span("probe.scan_range.workers_1"):
                wall_1 = sum(timed(g.scan_range, *scan)[0] for scan in self.scans.values())
            folds.append(wall_1 - timer.run(tracer))
        problems = timer.check(list(self.reference_reports().values()))
        for _ in range(2):
            wall_n, proc_n = self.run_once(tracer)
            with tracer.span("probe.cli.claims.workers_1"):
                wall_1, proc_1 = self.run_once(tracer, 1)
            pairs.append((wall_1, wall_n))
            problems += self.problems(proc_n) + self.problems(proc_1)
            if self.fingerprint(proc_n) != self.fingerprint(runs[0][1]):
                problems.append("a probe claims run's report differs from the timed runs'")
        metrics = timer.metrics()
        metrics["cycles.fold_s"] = statistics.median(folds)
        with tracer.span("probe.chunk_count"):
            chunks = max(
                count_chunks(g, self.out / f"{self.name}.chunks.json", *scan, workers=self.workers)
                for scan in self.scans.values()
            )
        metrics.update(pool_metrics(chunks, self.workers, pairs))

        runtimes: dict[str, list[float]] = {}
        overheads = []
        for wall, proc in runs:
            results = json.loads(proc.stdout)["results"]
            for r in results:
                runtimes.setdefault(r["claim_id"], []).append(r["runtime_seconds"])
            overheads.append(wall - sum(r["runtime_seconds"] for r in results))
        claim_s = {cid: statistics.median(v) for cid, v in runtimes.items()}
        for cid, sec in claim_s.items():
            metrics[f"claims.{cid}.runtime_s"] = sec
        metrics["claims.repeat_scan_frac"] = (claim_s["C2"] + claim_s["C4"]) / sum(claim_s.values())
        metrics["cli.overhead_s"] = statistics.median(overheads)
        with tracer.span("probe.cli.claims_list"):
            metrics["cli.startup_s"] = median_time(
                lambda: self.run_cli(self.cli("claims", "--list")), 5
            )
        for rule in (g.RULE_3Z, g.RULE_5Z):
            with tracer.span("genealogy.solve_ancestor_conditions"):
                ms = 1000 * median_time(lambda: g.solve_ancestor_conditions(rule, 64, 64), 5)
            metrics[f"genealogy.solve_ancestor_conditions_ms.{rule.multiplier}z"] = ms
        metrics.update(to_json_metrics(tracer, list(self.reference_reports().values())))
        return metrics, dict(timer.exact, chunks=chunks), problems


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        # C1 limits, 2^15 seeds (below 2^16), one chunk, no pool
        Census("census-3z", 3, 10**6, 256, 1 << 15, 1),
        # C3 limits, 2^12 seeds (below 2^13): the default chunk holds the whole
        # range, so the second worker idles; the benchmark must show that
        Census("census-5z-pool", 5, 10**5, 128, 1 << 12, 2),
        ResumeCheckpoint(),
        ClaimsCli(),
    )
}
