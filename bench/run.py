#!/usr/bin/env python3
"""Census benchmark for govlab.

    python3 bench/run.py --workload census-3z --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all              # every workload, one after another
    python3 bench/run.py --desk-scale                # one-off desk-scale baselines

Run from anywhere; the checkout root is the parent of this directory and the
program is imported from its `src`.  A run prepares the workload several
times (`setup_s` is the median), then repeats the workload closed-loop, one
run at a time, for `--seconds`, checking every run's output.  Untraced runs
alternate with a fixed pure-Python reference loop, and `wall_s` and `setup_s`
are calibrated by it (see `calibrated`).  The last line
of stdout is one JSON object: `correct`, `attempted`, `failed` and the
metrics named in BENCHMARK.json (`end_to_end` with `--trace 0`, `per_layer`
with `--trace 1`).  Traced runs also write their spans to bench/out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from spans import NullTracer, Tracer
from workloads import OUTCOMES, WORKLOADS, sha256

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS = 6  # set-ups per run; setup_s is their median
MIN_RUNS = 3
REF_SHARE = 0.1  # reference-loop time after each untraced run, as a share of the run's wall
REF_SETUP_S = 0.1  # reference-loop time before each set-up
# Lower decile of reference_unit()'s time on a 2-vCPU Intel Xeon VM under
# CPython 3.11: the machine speed that calibrated times are expressed in.
REF_UNIT_S = 0.0014


def fresh_import():
    """Import govlab from the checkout's src, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "govlab" or n.startswith("govlab.")]:
        del sys.modules[name]
    g = importlib.import_module("govlab")
    if Path(g.__file__).resolve().parent != ROOT / "src" / "govlab":
        raise RuntimeError(f"govlab imported from {g.__file__}, not from this checkout")
    return g


def lower_decile(times: list[float]) -> float:
    return statistics.quantiles(times, n=10, method="inclusive")[0] if len(times) > 1 else times[0]


def reference_unit() -> int:
    """Fixed pure-Python work that uses no govlab code: the speed meter.

    It mixes what the workloads spend their time on: orbit steps on small
    and on 100-bit integers, and building and JSON-encoding a dict, so that
    contention for caches and memory slows it as it slows them.
    """
    steps = 0
    for x in range(1, 401, 2):
        n = x
        while n != 1:
            n = n >> 1 if n & 1 == 0 else 3 * n + 1
            steps += 1
    for x in range(1, 41, 2):
        n = (1 << 100) + x
        for _ in range(60):
            n = n >> 1 if n & 1 == 0 else 5 * n + 1
            steps += 1
    doc = {str(i): [i, i * i, str(i)] for i in range(600)}
    return steps + len(json.dumps(doc, sort_keys=True))


def reference_time(seconds: float) -> float:
    """Time per reference_unit() over at least `seconds` (and at least one unit)."""
    units = 0
    t0 = perf_counter()
    while True:
        reference_unit()
        units += 1
        elapsed = perf_counter() - t0
        if elapsed >= seconds:
            return elapsed / units


def calibrated(times: list[float], refs: list[float]) -> float:
    """Lower decile of `times`, rescaled from this run's machine speed to REF_UNIT_S's.

    The shared host's speed drifts: a vCPU runs the same code up to twice as
    slowly for phases of a second to minutes, and CPU time grows with wall
    time, so it is contention, not steal.  A run's lower decile skips phases
    shorter than the run; dividing by the reference loop's lower decile over
    the same run removes the drift of the machine's speed itself.  A change to
    govlab moves the workload's times and not the reference's.
    """
    return lower_decile(times) / lower_decile(refs) * REF_UNIT_S


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def load_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}


def write_json(path: Path, doc: dict) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    os.replace(tmp, path)


def drift(reference: dict, counts: dict) -> list[str]:
    return [
        f"{k} is {counts[k]!r}, expected {reference[k]!r}"
        for k in sorted(reference.keys() & counts.keys())
        if reference[k] != counts[k]
    ]


def peak_rss_mb(children: int) -> float:
    """Parent peak plus `children` times the largest child's peak (an upper bound)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children * child) / 1024


def run_workload(workload, seed: int, seconds: int, trace: bool, units: dict) -> dict:
    OUT.mkdir(exist_ok=True)
    setups = []  # each set-up's time over the reference time just before it

    def setup() -> None:
        ref = reference_time(REF_SETUP_S)
        t0 = perf_counter()
        workload.prepare(fresh_import(), seed, ROOT, OUT)
        setups.append((perf_counter() - t0) / ref)

    setup()

    # exact counts must repeat: against the counts committed for seed 0 and
    # against earlier runs of this seed in this checkout
    record_path = OUT / f"record-{workload.name}-seed{seed}.json"
    reference = load_json(record_path)
    if seed == 0:
        reference.update(load_json(HERE / "expected.json")[workload.name])
    pinned = bool(reference)

    null = NullTracer()
    tracer = Tracer() if trace else null
    walls, traced_walls, refs, runs = [], [], [], []
    checked: dict[str, list[str]] = {}
    attempted = failed = 0
    start = perf_counter()
    while True:
        # the set-ups are spread over the run, so that setup_s sees the same
        # machine conditions as the timed runs
        if perf_counter() - start >= len(setups) * seconds / SETUPS:
            setup()
        traced = trace and attempted % 2 == 1
        attempted += 1
        try:
            with (tracer if traced else null).span("run"):
                wall, result = workload.run_once(tracer if traced else null)
            counts = workload.fingerprint(result)
            key = json.dumps(counts, sort_keys=True)
            if key not in checked:
                checked[key] = workload.problems(result)
            if not pinned:
                reference.update(counts)
                pinned = True
            problems = checked[key] + drift(reference, counts)
        except Exception:
            problems = [traceback.format_exc()]
        if problems:
            failed += 1
            print(f"[{workload.name}] run {attempted} failed:", *problems[:5], sep="\n  ",
                  file=sys.stderr)
        else:
            (traced_walls if traced else walls).append(wall)
            if not trace:
                refs.append(reference_time(REF_SHARE * wall))
            if trace:  # kept for the probes; untraced runs keep none, so memory stays flat
                runs.append((wall, result))
        elapsed = perf_counter() - start
        ran = len(walls) + len(traced_walls)
        if elapsed >= seconds or (
            ran >= MIN_RUNS and elapsed + statistics.median(walls + traced_walls) > seconds
        ):
            break

    metrics = {}
    if walls and not trace:
        wall = calibrated(walls, refs)
        metrics = {
            "wall_s": wall,
            "seeds_per_s": workload.classified / wall,
            "peak_rss_mb": peak_rss_mb(workload.children),
            "setup_s": statistics.median(setups) * REF_UNIT_S,
        }
    elif walls and traced_walls:
        # layers this workload does not run read 0
        metrics = dict.fromkeys(units, 0)
        attempted += 1
        try:
            measured, exact, problems = workload.probe(tracer, runs)
            metrics.update(measured)
            problems += drift(reference, exact)
            reference.update(exact)
        except Exception:
            problems = [traceback.format_exc()]
        if problems:
            failed += 1
            print(f"[{workload.name}] probe failed:", *problems[:5], sep="\n  ", file=sys.stderr)
        metrics["cycles.pool.nproc"] = nproc()
        metrics["trace.overhead_frac"] = (
            lower_decile(traced_walls) / lower_decile(walls) - 1
        )
        tracer.write(OUT / f"spans-{workload.name}-seed{seed}.json.gz")
    if failed == 0:
        write_json(record_path, reference)

    missing = sorted(units.keys() - metrics.keys())
    if failed == 0 and missing:
        raise RuntimeError(f"{workload.name} measured no {missing}")
    print(f"[{workload.name}] seed {seed}, nproc {nproc()}, workers {workload.workers}, "
          f"{len(walls)} untraced + {len(traced_walls)} traced runs, {failed} of "
          f"{attempted} failed (failed_frac {failed / attempted:.4g})")
    if walls:
        print(f"  run wall s: lower decile {lower_decile(walls):.4f}, "
              f"median {statistics.median(walls):.4f}, min {min(walls):.4f}, "
              f"max {max(walls):.4f}, n {len(walls)}")
    if refs:
        print(f"  reference unit s: lower decile {lower_decile(refs):.5f} "
              f"(calibration factor {REF_UNIT_S / lower_decile(refs):.4f}), "
              f"median {statistics.median(refs):.5f}, n {len(refs)}")
    for name in sorted(units.keys() & metrics.keys()):
        print(f"  {name:<48} {metrics[name]:>14.6g} {units[name]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in sorted(units.keys() & metrics.keys())
        },
    }


def run_all(args) -> dict:
    """Each workload in its own process, so peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        print(*lines[:-1], sep="\n")
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited {proc.returncode}")
        doc = json.loads(lines[-1])
        combined["correct"] &= doc["correct"]
        combined["attempted"] += doc["attempted"]
        combined["failed"] += doc["failed"]
        for metric, value in doc["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


# the ROADMAP desk-scale baselines: (name, multiplier, max steps, max value bits, hi, workers)
DESK_SCALE = (
    ("C1-3z-below-2^20-workers-1", 3, 10**6, 256, (1 << 20) - 1, 1),
    ("C3C4-5z-below-2^17-workers-1", 5, 10**5, 128, (1 << 17) - 1, 1),
    ("C3C4-5z-below-2^17-workers-2", 5, 10**5, 128, (1 << 17) - 1, 2),
)


def desk_scale() -> dict:
    """One-off, non-gating: time the desk-scale censuses once each."""
    g = fresh_import()
    expected = load_json(HERE / "expected.json")["desk-scale"]
    cases = {}
    for name, q, steps, bits, hi, workers in DESK_SCALE:
        if workers > nproc():
            continue
        t0 = perf_counter()
        report = g.scan_range(1, hi, g.rule_for(q), g.OrbitLimits(steps, bits), workers=workers)
        text = report.to_json()
        wall = perf_counter() - t0
        counts = [report.counts[k] for k in OUTCOMES]
        cases[name] = {
            "wall_s": wall,
            "seeds_per_s": report.counts["total"] / wall,
            "counts": counts,
            "cycles": [c.smallest_odd for c in report.cycles],
            "matches_seed_commit": sha256(text) == expected[name.rsplit("-workers", 1)[0]],
        }
        print(f"{name}: {wall:.2f} s, counts {counts}, cycles {cases[name]['cycles']}, "
              f"report matches: {cases[name]['matches_seed_commit']}")
    return {"nproc": nproc(), "cases": cases}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--desk-scale", action="store_true",
                        help="time the desk-scale censuses once instead")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "govlab" / "__init__.py").is_file():
        print(f"bench: no govlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    if args.desk_scale:
        doc = desk_scale()
        print(json.dumps(doc, sort_keys=True))
        return 0 if all(c["matches_seed_commit"] for c in doc["cases"].values()) else 1

    if args.workload == "all":
        print(json.dumps(run_all(args), sort_keys=True))
        return 0
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"bench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if workload.workers > nproc():
        print(f"bench: {workload.name} needs {workload.workers} workers, "
              f"but only {nproc()} CPUs are available", file=sys.stderr)
        return 2
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in metrics}
    doc = run_workload(workload, args.seed, args.seconds, bool(args.trace), units)
    print(json.dumps(doc, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
