"""Command-line interface.

Verbs: orbit, trace-governor, ancestors, conditions, scan, claims.  Output is
line-delimited JSON records (or csv for traces); scan and claims emit a single
JSON report document.  All values print as decimal strings; --max-print-bits
replaces oversized bodies with an explicit elision marker.

Exit codes: 0 success, 1 claim failure detected, 2 usage error, 3 I/O error.
A reader that closes stdout early, as `govlab orbit ... | head -1` does,
ends any verb quietly: nothing on stderr and exit 0.  Every other OSError
exits 3.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from contextlib import contextmanager
from itertools import islice
from typing import Iterable

from .dynamics import RULES, OrbitLimits, odd_orbit, orbit, rule_for
from .numerics import decimal_to_int, governor_index, require
from .scan import DEFAULT_CHUNK_SIZE, CheckpointError, scan_range

# claims and genealogy are imported by the verbs that run them, so the other
# verbs never load them

EXIT_OK = 0
EXIT_CLAIM_FAILURE = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _positive_int(text: str, what: str = "value", minimum: int = 1, **checks) -> int:
    """An integer argument at least minimum that passes require's other checks."""
    try:
        return require(decimal_to_int(text), what, minimum, **checks)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


_odd_natural = functools.partial(_positive_int, odd=True)


def _odd_range(text: str) -> tuple[int, int]:
    lo_text, sep, hi_text = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}")
    lo = _odd_natural(lo_text, "LO")
    return lo, _odd_natural(hi_text, "HI", lo)


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="govlab",
        description="Exact-arithmetic toolkit for 3Z+1 and 5Z+1 dynamics",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_rule(p: argparse.ArgumentParser) -> None:
        p.add_argument("--rule", type=int, choices=sorted(RULES), default=3,
                       help="multiplier q of the qZ+1 rule (default 3)")

    def add_print_opts(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("records", "csv"), default="records",
                       help="records = line-delimited JSON (default)")
        p.add_argument("--max-print-bits", type=_positive_int, default=None,
                       help="elide value bodies over this bit length")

    p_orbit = sub.add_parser("orbit", help="iterate the step functions from a seed")
    add_rule(p_orbit)
    p_orbit.add_argument("--start", type=_odd_natural, required=True)
    p_orbit.add_argument("--step-limit", type=_positive_int, default=100_000)
    p_orbit.add_argument("--value-limit-bits", type=_positive_int, default=4096)
    add_print_opts(p_orbit)

    p_trace = sub.add_parser("trace-governor",
                             help="governor indices of the first odd values of an orbit")
    add_rule(p_trace)
    p_trace.add_argument("--start", type=_odd_natural, required=True)
    p_trace.add_argument("--count", type=functools.partial(_positive_int, maximum=sys.maxsize),
                         default=10, help="number of odd values, seed included (default 10)")
    add_print_opts(p_trace)

    p_anc = sub.add_parser("ancestors", help="odd preimages of a value")
    add_rule(p_anc)
    p_anc.add_argument("--start", type=_odd_natural, required=True)
    p_anc.add_argument("--max-doublings", type=_positive_int, default=8)
    p_anc.add_argument("--depth", type=_positive_int, default=1,
                       help="recursion depth; above 1 the output is a tree")
    add_print_opts(p_anc)

    p_cond = sub.add_parser("conditions", help="odd-ancestor existence condition solver")
    add_rule(p_cond)
    p_cond.add_argument("--mu-max", type=_positive_int, default=64)
    p_cond.add_argument("--i-max", type=_positive_int, default=64)
    add_print_opts(p_cond)

    p_scan = sub.add_parser("scan", help="classify every odd seed in a range")
    add_rule(p_scan)
    p_scan.add_argument("--odd-range", type=_odd_range, required=True, metavar="LO:HI")
    p_scan.add_argument("--step-limit", type=_positive_int, default=100_000)
    p_scan.add_argument("--value-limit-bits", type=_positive_int, default=128)
    # a string default goes through the type, so a bad GOVLAB_WORKERS exits 2;
    # only an unset or blank one means 1, and any other is parsed as given
    workers = os.environ.get("GOVLAB_WORKERS", "")
    if not workers.strip():
        workers = "1"
    workers_help = "worker processes (default: GOVLAB_WORKERS, else 1)"
    p_scan.add_argument("--workers", type=_positive_int, default=workers, help=workers_help)
    p_scan.add_argument("--chunk-size", type=_positive_int, default=DEFAULT_CHUNK_SIZE)
    p_scan.add_argument("--checkpoint", default=None, metavar="FILE",
                        help="resumable scan state file")

    p_claims = sub.add_parser("claims", help="run registered claim checks")
    group = p_claims.add_mutually_exclusive_group()
    group.add_argument("--all", action="store_true", help="run C1..C7 (default)")
    group.add_argument("--id", action="append", dest="ids", metavar="CLAIM",
                       help="run one claim (repeatable)")
    group.add_argument("--list", action="store_true", help="list the registry")
    p_claims.add_argument("--params", default=None, metavar="JSON",
                          help='per-claim overrides, e.g. {"C6": {"placeholder_exponent": 16}}')
    p_claims.add_argument("--workers", type=_positive_int, default=workers,
                          help=f"{workers_help}, for scan-backed claims")

    ns = parser.parse_args(argv)
    if "rule" in ns:
        ns.rule = rule_for(ns.rule)
    return ns


class _StdoutClosed(Exception):
    """The reader of stdout closed it before a verb wrote all its output."""


@contextmanager
def _stdout():
    """sys.stdout, for writes that report a closed reader as _StdoutClosed;
    the body must do no other I/O."""
    try:
        yield sys.stdout
    except BrokenPipeError as exc:
        raise _StdoutClosed from exc


def _fmt_value(v: int, max_print_bits: int | None) -> str:
    if max_print_bits is not None and v.bit_length() > max_print_bits:
        return f"<elided {v.bit_length()}-bit value>"
    return str(v)


def _emit_records(rows: Iterable[dict], fmt: str, columns: list[str]) -> None:
    """Print each row as it comes, after the csv header; a generator of rows
    is never held whole."""
    with _stdout() as out:
        if fmt == "records":
            for row in rows:
                out.write(json.dumps(row, sort_keys=True) + "\n")
        else:
            out.write(",".join(columns) + "\n")
            for row in rows:
                out.write(",".join(str(row.get(c, "")) for c in columns) + "\n")


def _cmd_orbit(ns: argparse.Namespace) -> int:
    limits = OrbitLimits(max_steps=ns.step_limit, max_value_bits=ns.value_limit_bits)
    trace = orbit(ns.start, ns.rule, limits)
    last = len(trace.steps) - 1

    def rows():
        # built as printed: a row's decimal string is larger than its value
        for i, (value, kind) in enumerate(trace.steps):
            row: dict = {"value": _fmt_value(value, ns.max_print_bits), "kind": kind.value}
            if value % 2:
                row["governor_index"] = governor_index(value)
            if i == last:
                row["termination"] = trace.termination.kind.value
                if trace.termination.cycle_members is not None:
                    row["cycle_members"] = [
                        _fmt_value(v, ns.max_print_bits) for v in trace.termination.cycle_members
                    ]
            yield row

    _emit_records(rows(), ns.format, ["value", "kind", "governor_index", "termination"])
    return EXIT_OK


def _cmd_trace_governor(ns: argparse.Namespace) -> int:
    odds = islice(odd_orbit(ns.start, ns.rule), ns.count)
    rows = (
        {"position": pos, "value": _fmt_value(v, ns.max_print_bits),
         "governor_index": governor_index(v)}
        for pos, (v, _) in enumerate(odds)
    )
    _emit_records(rows, ns.format, ["position", "value", "governor_index"])
    return EXIT_OK


def _cmd_ancestors(ns: argparse.Namespace) -> int:
    from .genealogy import ancestor_tree, odd_ancestors

    if ns.depth == 1:
        rows = (
            {"doublings": e.doublings,
             "ancestor": _fmt_value(e.ancestor, ns.max_print_bits),
             "governor_index": governor_index(e.ancestor)}
            for e in odd_ancestors(ns.start, ns.rule, ns.max_doublings)
        )
        _emit_records(rows, ns.format, ["doublings", "ancestor", "governor_index"])
        return EXIT_OK
    root = ancestor_tree(ns.start, ns.rule, ns.depth, ns.max_doublings)

    def rows():
        # preorder from a stack, children pushed last first: a tree may be
        # deeper than Python's recursion limit
        stack = [(root, 0, "")]
        while stack:
            node, depth, parent = stack.pop()
            value = _fmt_value(node.value, ns.max_print_bits)
            yield {"depth": depth,
                   "value": value,
                   "governor_index": node.governor_index,
                   "trivial_governor": node.trivial_governor,
                   "parent": parent}
            stack.extend((child, depth + 1, value) for child in reversed(node.children))

    _emit_records(rows(), ns.format,
                  ["depth", "value", "governor_index", "trivial_governor", "parent"])
    return EXIT_OK


def _cmd_conditions(ns: argparse.Namespace) -> int:
    from .genealogy import solve_ancestor_conditions

    rows = (
        {"terms": s.term_count, "mu": s.mu, "i": s.i}
        for s in solve_ancestor_conditions(ns.rule, ns.mu_max, ns.i_max)
    )
    _emit_records(rows, ns.format, ["terms", "mu", "i"])
    return EXIT_OK


def _cmd_scan(ns: argparse.Namespace) -> int:
    lo, hi = ns.odd_range
    limits = OrbitLimits(max_steps=ns.step_limit, max_value_bits=ns.value_limit_bits)
    report = scan_range(
        lo, hi, ns.rule, limits,
        workers=ns.workers,
        chunk_size=ns.chunk_size,
        checkpoint_path=ns.checkpoint,
    )
    with _stdout() as out:
        out.write(report.to_json())
    return EXIT_OK


def _cmd_claims(ns: argparse.Namespace) -> int:
    from . import claims as claims_mod

    if ns.list:
        rows = (
            {"claim_id": claim_id, "title": title, "statement": statement}
            for claim_id, title, statement in claims_mod.list_claims()
        )
        _emit_records(rows, "records", [])
        return EXIT_OK
    overrides: dict[str, dict] = {}
    if ns.params:
        try:
            overrides = claims_mod.check_overrides(json.loads(ns.params))
        except json.JSONDecodeError as exc:
            print(f"govlab claims: --params is not valid JSON: {exc}", file=sys.stderr)
            return EXIT_USAGE
    ids = ns.ids if ns.ids else [claim_id for claim_id, _, _ in claims_mod.list_claims()]
    per_claim: dict[str, dict] = {}
    for claim_id in ids:
        params = per_claim[claim_id] = dict(overrides.get(claim_id, {}))
        if "workers" in claims_mod.claim_defaults(claim_id):
            params.setdefault("workers", ns.workers)
    report = claims_mod.run_claims(ids, per_claim)
    with _stdout() as out:
        out.write(report.to_json())
    return EXIT_CLAIM_FAILURE if report.any_failed else EXIT_OK


_HANDLERS = {
    "orbit": _cmd_orbit,
    "trace-governor": _cmd_trace_governor,
    "ancestors": _cmd_ancestors,
    "conditions": _cmd_conditions,
    "scan": _cmd_scan,
    "claims": _cmd_claims,
}


def execute(ns: argparse.Namespace) -> int:
    try:
        code = _HANDLERS[ns.verb](ns)
        with _stdout() as out:  # a closed stdout shows here, not at the interpreter's exit
            out.flush()
        return code
    except _StdoutClosed:
        # the reader has what it wanted; stdout goes to os.devnull, so that
        # the interpreter's last flush of what is left raises nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except (CheckpointError, OSError) as exc:
        print(f"govlab: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, OverflowError) as exc:
        print(f"govlab: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main(argv: list[str] | None = None) -> int:
    # values are read and printed exactly at any size, so CPython's cap on
    # int <-> str conversion is lifted while the command runs and the
    # caller's cap put back after it (Python 3.10.0-3.10.6 have no cap)
    capped = hasattr(sys, "set_int_max_str_digits")
    if capped:
        cap = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        return execute(parse_args(sys.argv[1:] if argv is None else argv))
    finally:
        if capped:
            sys.set_int_max_str_digits(cap)


if __name__ == "__main__":
    sys.exit(main())
