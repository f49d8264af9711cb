import contextlib
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from govlab import claims, cli
from govlab.claims import ClaimReport, list_claims, run_claim
from govlab.dynamics import RULE_3Z, RULE_5Z, OrbitLimits, orbit
from govlab.genealogy import solve_ancestor_conditions
from govlab.numerics import int_to_decimal
from govlab.scan import CheckpointError, checkpoint_load, scan_range
from helpers import read_checkpoint_doc, write_checkpoint_doc


def run_cli(capsys, *args):
    """Run the CLI in-process; returns (exit_code, stdout, stderr)."""
    try:
        code = cli.main(list(args))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_even_start_rejected(self, capsys):
        code, _, err = run_cli(capsys, "orbit", "--start", "28")
        assert code == 2
        assert "odd" in err

    def test_unknown_verb_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 2

    def test_unknown_flag_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "orbit", "--start", "27", "--bogus", "1")
        assert code == 2

    def test_bad_rule_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "orbit", "--start", "27", "--rule", "7")
        assert code == 2

    @pytest.mark.parametrize("start", ["+7", "1_1", "007", " 27"])
    def test_non_canonical_start_rejected(self, capsys, start):
        # int() reads each of these; a CLI integer must be a canonical decimal
        code, out, err = run_cli(capsys, "trace-governor", "--start", start)
        assert (code, out) == (2, "")
        assert "canonical decimal" in err

    def test_bad_range_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "scan", "--rule", "5", "--odd-range", "9:3")
        assert code == 2
        code, _, _ = run_cli(capsys, "scan", "--rule", "5", "--odd-range", "2:8")
        assert code == 2

    def test_scan_example_parses(self):
        ns = cli.parse_args(
            ["scan", "--rule", "5", "--odd-range", "1:131071", "--value-limit-bits",
             "128", "--step-limit", "100000", "--workers", "4"]
        )
        assert ns.verb == "scan"
        assert ns.rule is RULE_5Z
        assert ns.odd_range == (1, 131071)
        assert ns.workers == 4

    def test_workers_default_from_env(self, monkeypatch, capsys):
        monkeypatch.setenv("GOVLAB_WORKERS", "3")
        ns = cli.parse_args(["scan", "--rule", "5", "--odd-range", "1:9"])
        assert ns.workers == 3
        for empty in ("", "  "):
            monkeypatch.setenv("GOVLAB_WORKERS", empty)
            assert cli.parse_args(["claims", "--list"]).workers == 1
        monkeypatch.delenv("GOVLAB_WORKERS")
        assert cli.parse_args(["scan", "--rule", "5", "--odd-range", "1:9"]).workers == 1
        # an invalid value is a usage error, like every other bad input
        # " 2 " too: --workers " 2 " is not a canonical decimal, and neither is the variable
        for bad in ("junk", "0", "-2", "1.5", " 2 "):
            monkeypatch.setenv("GOVLAB_WORKERS", bad)
            for verb in (["scan", "--rule", "5", "--odd-range", "1:9"], ["claims", "--list"]):
                code, out, err = run_cli(capsys, *verb)
                assert code == 2 and out == ""
                assert "--workers" in err
        # an explicit --workers needs no default
        monkeypatch.setenv("GOVLAB_WORKERS", "junk")
        ns = cli.parse_args(["scan", "--rule", "5", "--odd-range", "1:9", "--workers", "2"])
        assert ns.workers == 2


def run_python(*args):
    """Run a fresh interpreter with govlab's sources on its path; returns
    (exit_code, stdout, stderr)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def run_cli_process(*args):
    """Run the CLI in a fresh interpreter, which starts with CPython's
    default cap on int <-> str conversion; returns (exit_code, stdout, stderr)."""
    return run_python("-m", "govlab.cli", *args)


def test_no_pool_module_without_a_pool():
    # only a scan that starts a pool imports the process pool, which loads
    # multiprocessing; importing the CLI and a one-worker scan do not
    code = (
        "import contextlib, io, sys\n"
        "import govlab.cli\n"
        "pool = ('concurrent.futures.process', 'multiprocessing')\n"
        "print(sorted(m for m in pool if m in sys.modules))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    govlab.cli.main(['scan', '--rule', '3', '--odd-range', '1:999', '--chunk-size', '100',\n"
        "                   '--workers', '1'])\n"
        "print(sorted(m for m in pool if m in sys.modules))\n"
    )
    assert run_python("-c", code) == (0, "[]\n[]\n", "")


@pytest.fixture
def huge_int_strings():
    """Lifts this process's cap on int <-> str conversion for the test, so
    that it can write and read values of any size; restores it afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):  # Python 3.10.0-3.10.6
        yield
        return
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(before)


class TestDigitCap:
    """main lifts the cap on int <-> str conversion only while a command runs."""

    @pytest.fixture
    def cap(self):
        if not hasattr(sys, "set_int_max_str_digits"):  # Python 3.10.0-3.10.6
            pytest.skip("this interpreter has no cap on int <-> str conversion")
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        yield 5000
        sys.set_int_max_str_digits(before)

    def test_restored_after_success_usage_error_and_io_error(self, capsys, tmp_path, cap):
        ckpt = tmp_path / "scan.ckpt"
        ckpt.write_text("{", encoding="utf-8")
        runs = [
            ("claims", "--list"),
            ("orbit", "--start", "28"),
            ("scan", "--odd-range", "1:9", "--checkpoint", str(ckpt)),
        ]
        codes = []
        for args in runs:
            codes.append(run_cli(capsys, *args)[0])
            assert sys.get_int_max_str_digits() == cap
        assert codes == [0, 2, 3]

    def test_lifted_while_the_command_runs(self, capsys, cap):
        seed = (1 << 20000) - 1  # 6021 digits, past the cap
        code, out, err = run_cli(
            capsys, "trace-governor", "--start", int_to_decimal(seed), "--count", "1"
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["value"] == int_to_decimal(seed)
        assert sys.get_int_max_str_digits() == cap


class TestOrbitVerb:
    def test_record_stream_matches_library(self, capsys):
        code, out, _ = run_cli(capsys, "orbit", "--rule", "3", "--start", "27")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        trace = orbit(27, RULE_3Z, OrbitLimits(max_steps=100_000, max_value_bits=4096))
        assert len(rows) == len(trace.steps)
        for row, (value, kind) in zip(rows, trace.steps):
            assert row["value"] == str(value)
            assert row["kind"] == kind.value
            if value % 2:
                assert row["governor_index"] == len(bin(value)) - len(bin(value).rstrip("1"))
            else:
                assert "governor_index" not in row
        assert rows[-1]["termination"] == "reached_trivial_cycle"

    def test_golden_prefix(self, capsys):
        _, out, _ = run_cli(capsys, "orbit", "--rule", "3", "--start", "27")
        assert out.splitlines()[:3] == [
            '{"governor_index": 2, "kind": "O", "value": "27"}',
            '{"kind": "E", "value": "82"}',
            '{"governor_index": 1, "kind": "O", "value": "41"}',
        ]

    def test_csv_format(self, capsys):
        _, out, _ = run_cli(
            capsys, "orbit", "--rule", "3", "--start", "5", "--format", "csv"
        )
        lines = out.splitlines()
        assert lines[0] == "value,kind,governor_index,termination"
        assert lines[1] == "5,O,1,"
        assert lines[-1].endswith("reached_trivial_cycle")

    def test_value_elision(self, capsys):
        _, out, _ = run_cli(
            capsys, "orbit", "--rule", "3", "--start", str((1 << 40) + 1),
            "--max-print-bits", "16",
        )
        first = json.loads(out.splitlines()[0])
        assert first["value"] == "<elided 41-bit value>"

    def test_cycle_termination_record(self, capsys):
        _, out, _ = run_cli(capsys, "orbit", "--rule", "5", "--start", "13")
        last = json.loads(out.splitlines()[-1])
        assert last["termination"] == "entered_cycle"
        assert "13" in last["cycle_members"]

    def test_rows_are_printed_as_they_come(self):
        # every row held at once peaked at 2.35 times what the orbit alone
        # holds; printed one at a time they add a few rows' worth
        limits = OrbitLimits(max_steps=10_000, max_value_bits=100_000)
        args = ["orbit", "--rule", "5", "--start", "7", "--value-limit-bits", "100000",
                "--step-limit", "10000"]
        peaks = []
        for run in (lambda: cli.main(args), lambda: orbit(7, RULE_5Z, limits)):
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                tracemalloc.start()
                try:
                    run()
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        cli_peak, orbit_peak = peaks
        assert cli_peak <= 1.5 * orbit_peak

    @pytest.mark.parametrize("args, fmt, digest", [
        (["--rule", "5", "--start", "7", "--value-limit-bits", "100000", "--step-limit", "2000"],
         "records", "e51baafd679ef2cff9db39c7f72fce5cd428234aeaceae8db7a3387fa66f4bf0"),
        (["--rule", "5", "--start", "7", "--value-limit-bits", "100000", "--step-limit", "2000"],
         "csv", "ddbc4128443bc01961f558497738189d8d2feb216a38540e160734d1d7b87310"),
        (["--rule", "5", "--start", "13"],
         "records", "3e911f5fc83e2c20047d22d8030868cb87230d81d9996fc424dc5c6155f877f8"),
        (["--rule", "5", "--start", "13"],
         "csv", "53c41b0c39deda00b1d04b92e9f680243dc2ed33b23f3288703d9542ec4afb08"),
    ], ids=["value-limit-records", "value-limit-csv", "cycle-records", "cycle-csv"])
    def test_golden_digest(self, capsys, args, fmt, digest):
        code, out, err = run_cli(capsys, "orbit", *args, "--format", fmt)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_values_past_4300_digits_print_exactly(self, huge_int_strings):
        # 5 * (2^19998 + 1) + 1 has 20001 bits (6021 digits), so the orbit
        # passes the 20000-bit cap at its first step, as 7's does after
        # 187686 rows
        start = (1 << 19998) + 1
        code, out, err = run_cli_process(
            "orbit", "--rule", "5", "--start", str(start),
            "--value-limit-bits", "20000", "--step-limit", "1000000",
        )
        assert (code, err) == (0, "")
        last = json.loads(out.splitlines()[-1])
        assert last["termination"] == "value_limit"
        assert int(last["value"]) == 5 * start + 1
        assert int(last["value"]).bit_length() == 20001

    def test_start_past_4300_digits_accepted(self, huge_int_strings):
        start = 10**4400 + 1
        code, out, err = run_cli_process("orbit", "--rule", "3", "--start", str(start),
                                         "--step-limit", "2")
        assert (code, err) == (0, "")
        assert json.loads(out.splitlines()[0])["value"] == str(start)


class TestTraceVerb:
    def test_governor_trace_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "trace-governor", "--rule", "3", "--start", "63",
            "--count", "6", "--format", "csv",
        )
        assert code == 0
        assert out.splitlines() == [
            "position,value,governor_index",
            "0,63,6",
            "1,95,5",
            "2,143,4",
            "3,215,3",
            "4,323,2",
            "5,485,1",
        ]


    @pytest.mark.parametrize("fmt, expected", [
        ("records", [
            '{"governor_index": 3, "position": 0, "value": "7"}',
            '{"governor_index": 1, "position": 1, "value": "9"}',
            '{"governor_index": 3, "position": 2, "value": "23"}',
            '{"governor_index": 1, "position": 3, "value": "29"}',
            '{"governor_index": 1, "position": 4, "value": "73"}',
            '{"governor_index": 3, "position": 5, "value": "183"}',
            '{"governor_index": 1, "position": 6, "value": "229"}',
            '{"governor_index": 1, "position": 7, "value": "<elided 10-bit value>"}',
            '{"governor_index": 1, "position": 8, "value": "<elided 11-bit value>"}',
        ]),
        ("csv", [
            "position,value,governor_index",
            "0,7,3", "1,9,1", "2,23,3", "3,29,1", "4,73,1", "5,183,3", "6,229,1",
            "7,<elided 10-bit value>,1", "8,<elided 11-bit value>,1",
        ]),
    ])
    def test_streamed_rows_keep_their_bytes(self, capsys, fmt, expected):
        code, out, err = run_cli(
            capsys, "trace-governor", "--rule", "5", "--start", "7", "--count", "9",
            "--format", fmt, "--max-print-bits", "9",
        )
        assert (code, err) == (0, "")
        assert out == "".join(line + "\n" for line in expected)

    def test_rows_are_printed_as_they_come(self):
        # 10^5 rows held at once peaked near 27 MB under tracemalloc; printed
        # one at a time they need a few rows' worth
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                code = cli.main(
                    ["trace-governor", "--start", "27", "--count", "100000", "--format", "csv"]
                )
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peak < 1024 * 1024

    @pytest.mark.parametrize("count", [sys.maxsize + 1, 10**20])
    def test_count_past_sys_maxsize_rejected_by_name(self, capsys, count):
        code, out, err = run_cli(capsys, "trace-governor", "--start", "7", "--count", str(count))
        assert (code, out) == (2, "")
        assert err.endswith(
            f"argument --count: value must be an integer in 1..{sys.maxsize}, got {count}\n"
        )


class TestAncestorsVerb:
    def test_flat(self, capsys):
        code, out, _ = run_cli(
            capsys, "ancestors", "--rule", "3", "--start", "7", "--max-doublings", "4"
        )
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert [(r["doublings"], r["ancestor"]) for r in rows] == [(2, "9"), (4, "37")]

    def test_tree(self, capsys):
        code, out, _ = run_cli(
            capsys, "ancestors", "--rule", "3", "--start", "1",
            "--max-doublings", "8", "--depth", "2",
        )
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows[0] == {
            "depth": 0, "value": "1", "governor_index": 1,
            "trivial_governor": True, "parent": "",
        }
        level1 = {r["value"] for r in rows if r["depth"] == 1}
        assert level1 == {"1", "5", "21", "85"}

    def test_tree_deeper_than_the_recursion_limit(self, capsys):
        # 1 is its own ancestor at two doublings, so the tree is a chain of 1s
        code, out, err = run_cli(
            capsys, "ancestors", "--start", "1", "--max-doublings", "2", "--depth", "3000",
        )
        assert (code, err) == (0, "")
        rows = out.splitlines()
        assert len(rows) == 3001
        assert json.loads(rows[-1]) == {
            "depth": 3000, "value": "1", "governor_index": 1,
            "trivial_governor": True, "parent": "1",
        }

    @pytest.mark.parametrize("fmt, digest", [
        ("records", "ecd80bdbf1a4f64419ef59ed3981b56c36307ac3c879534eff3b9fc66bed6044"),
        ("csv", "578be895969c6c4272c17896208044c0b0adcdaf7ae5540e98b03313bf8de385"),
    ])
    def test_tree_bytes(self, capsys, fmt, digest):
        # rows in preorder, each node's ancestors in ascending doublings
        code, out, _ = run_cli(
            capsys, "ancestors", "--start", "1", "--max-doublings", "8",
            "--depth", "4", "--format", fmt,
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestConditionsVerb:
    def test_matches_library(self, capsys):
        code, out, _ = run_cli(capsys, "conditions", "--rule", "5")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        expected = [
            {"terms": s.term_count, "mu": s.mu, "i": s.i}
            for s in solve_ancestor_conditions(RULE_5Z, 64, 64)
        ]
        assert rows == expected
        assert rows == [{"terms": 1, "mu": 2, "i": 4}, {"terms": 2, "mu": 1, "i": 1}]


class TestScanVerb:
    def test_thin_adapter_over_library(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--rule", "5", "--odd-range", "1:511",
            "--step-limit", "100000", "--value-limit-bits", "128",
            "--chunk-size", "64",
        )
        assert code == 0
        report = scan_range(
            1, 511, RULE_5Z, OrbitLimits(100_000, 128), workers=1, chunk_size=64
        )
        assert out == report.to_json()

    def test_checkpoint_roundtrip(self, capsys, tmp_path):
        ckpt = str(tmp_path / "scan.ckpt")
        args = ["scan", "--rule", "5", "--odd-range", "1:511", "--chunk-size", "64",
                "--checkpoint", ckpt]
        code, out1, _ = run_cli(capsys, *args)
        assert code == 0
        code, out2, _ = run_cli(capsys, *args)
        assert code == 0
        assert out1 == out2

    def test_checkpoint_mismatch_is_io_error(self, capsys, tmp_path):
        ckpt = str(tmp_path / "scan.ckpt")
        run_cli(capsys, "scan", "--rule", "5", "--odd-range", "1:511",
                "--chunk-size", "64", "--checkpoint", ckpt)
        code, _, err = run_cli(
            capsys, "scan", "--rule", "5", "--odd-range", "1:1023",
            "--chunk-size", "64", "--checkpoint", ckpt,
        )
        assert code == 3
        assert "checkpoint" in err


    def test_inconsistent_checkpoint_is_io_error(self, capsys, tmp_path):
        ckpt = tmp_path / "scan.ckpt"
        args = ["scan", "--rule", "5", "--odd-range", "1:1023", "--chunk-size", "256",
                "--checkpoint", str(ckpt)]
        run_cli(capsys, *args)
        doc = read_checkpoint_doc(ckpt)
        doc["chunks"][0]["counts"]["converged_trivial"] += 1000
        write_checkpoint_doc(ckpt, doc)
        with pytest.raises(CheckpointError):
            checkpoint_load(str(ckpt))
        with pytest.raises(CheckpointError):
            scan_range(1, 1023, RULE_5Z, OrbitLimits(100_000, 128), chunk_size=256,
                       checkpoint_path=str(ckpt))
        code, out, err = run_cli(capsys, *args)
        assert code == 3
        assert out == ""
        assert "checkpoint" in err

    def test_killed_pool_scan_resumes_byte_identical(self, tmp_path):
        ckpt = tmp_path / "scan.ckpt"
        cmd = [sys.executable, "-m", "govlab.cli", "scan", "--rule", "5",
               "--odd-range", "1:16383", "--workers", "2", "--chunk-size", "256",
               "--checkpoint", str(ckpt)]
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        # a session of its own, so that SIGKILL reaches the pool workers too
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL,
                                start_new_session=True)
        try:
            deadline = time.monotonic() + 120
            # the header line is written first, then one line per finished chunk
            while proc.poll() is None and not (
                ckpt.exists() and ckpt.read_bytes().count(b"\n") > 1
            ):
                assert time.monotonic() < deadline, "no chunk was checkpointed"
                time.sleep(0.002)
            os.killpg(proc.pid, signal.SIGKILL)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=60)
        assert proc.returncode == -signal.SIGKILL
        assert 0 < len(checkpoint_load(str(ckpt)).completed) < 32
        resumed = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=600)
        assert resumed.returncode == 0, resumed.stderr
        uninterrupted = scan_range(1, 16383, RULE_5Z, OrbitLimits(100_000, 128), chunk_size=256)
        assert resumed.stdout == uninterrupted.to_json()


class TestClaimsVerb:
    def test_list(self, capsys):
        code, out, _ = run_cli(capsys, "claims", "--list")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert [r["claim_id"] for r in rows] == ["C1", "C2", "C3", "C4", "C5", "C6", "C7"]

    def test_single_claim_pass(self, capsys):
        code, out, _ = run_cli(capsys, "claims", "--id", "C7")
        assert code == 0
        doc = json.loads(out)
        assert doc["results"][0]["verdict"] == "pass"
        lib = run_claim("C7")
        assert doc["results"][0]["evidence"] == lib.evidence

    def test_mismatch_reported_is_not_failure(self, capsys):
        code, out, _ = run_cli(capsys, "claims", "--id", "C6")
        assert code == 0
        doc = json.loads(out)
        assert doc["results"][0]["verdict"] == "mismatch_reported"
        assert doc["summary"]["mismatch_reported"] == 1

    def test_failed_claim_exits_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "claims", "--id", "C5", "--params", '{"C5": {"a": 5}}'
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["results"][0]["verdict"] == "fail"

    def test_all_scans_each_range_once(self, capsys, monkeypatch):
        scans = []
        scan_range = claims.scan_range

        def spy(lo, hi, rule, limits, **kwargs):
            scans.append((rule.multiplier, lo, hi))
            return scan_range(lo, hi, rule, limits, **kwargs)

        monkeypatch.setattr(claims, "scan_range", spy)
        monkeypatch.delenv("GOVLAB_WORKERS", raising=False)
        small = {"C1": {"hi": 4095}, "C2": {"hi": 4095}, "C3": {"hi": 2047}, "C4": {"hi": 2047}}
        code, out, _ = run_cli(capsys, "claims", "--all", "--params", json.dumps(small))
        assert code == 0
        assert scans == [(3, 1, 4095), (5, 1, 2047)]
        # the same canonical bytes as running each claim with its own scan
        doc = json.loads(out)
        for result in doc["results"]:
            del result["runtime_seconds"]
        one_by_one = ClaimReport(
            results=tuple(run_claim(cid, small.get(cid)) for cid, _, _ in list_claims())
        )
        assert json.dumps(doc, sort_keys=True) == json.dumps(
            one_by_one.canonical_doc(), sort_keys=True
        )

    def test_bad_params_json(self, capsys):
        code, _, err = run_cli(capsys, "claims", "--id", "C7", "--params", "{oops")
        assert code == 2
        assert "JSON" in err

    def test_unknown_claim_id(self, capsys):
        code, _, err = run_cli(capsys, "claims", "--id", "C99")
        assert code == 2
        assert "unknown claim" in err

    @pytest.mark.parametrize(
        "params",
        [
            '{"C6": 5}',
            '{"C6": {"placeholder_exponent": 1e400}}',
            '{"C1": {"hi": 1e400}}',
            '{"C5": {"a": 4.7}}',
            '{"C5": {"a": 1000000000000000000000000000000}}',
            '{"C5": {"a": true}}',
            '{"C5": {"a": "4"}}',
            '{"C5": {"depth": 4}}',
            '{"C9": {}}',
            '{"C6": []}',
            '[1, 2]',
        ],
    )
    def test_malformed_params_exit_two(self, capsys, params):
        code, out, err = run_cli(capsys, "claims", "--id", "C5", "--params", params)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err


def cli_env():
    """The environment of a fresh interpreter with govlab's sources on its path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def first_line_then_close(*args):
    """Run the CLI in a fresh interpreter whose stdout reader takes one line
    and closes the pipe, as `| head -1` does; returns (exit_code, that line,
    stderr)."""
    proc = subprocess.Popen([sys.executable, "-m", "govlab.cli", *args], env=cli_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        line = proc.stdout.readline().decode()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stderr.close()
    return proc.returncode, line, err


class TestClosedStdout:
    # each prints more than a pipe and stdout's buffer hold, so the writer
    # is still writing when the reader closes
    @pytest.mark.parametrize(
        "args",
        [
            ["orbit", "--rule", "5", "--start", "7", "--step-limit", "5000",
             "--value-limit-bits", "100000"],
            ["ancestors", "--start", "7", "--depth", "3", "--max-doublings", "40"],
        ],
        ids=["orbit", "ancestors"],
    )
    def test_a_reader_that_stops_early_ends_the_verb_quietly(self, args):
        code, line, err = first_line_then_close(*args)
        assert (code, err) == (cli.EXIT_OK, "")
        assert json.loads(line)["value"] == "7"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_any_other_write_error_exits_3(self):
        # a full device is an I/O error, not a reader that stopped
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "govlab.cli", "orbit", "--start", "27"],
                                  env=cli_env(), stdout=full, stderr=subprocess.PIPE, text=True,
                                  timeout=120)
        assert proc.returncode == cli.EXIT_IO
        assert proc.stderr.startswith("govlab: [Errno 28]")
