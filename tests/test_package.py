"""The govlab package loads each submodule on first use, and a call loads only
the submodules it runs."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import govlab

SCAN_MODULES = ["govlab.cycles", "govlab.dynamics", "govlab.numerics", "govlab.scan"]


def loaded_after(code: str) -> list[str]:
    """The govlab submodules that a fresh interpreter holds after running code."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = code + (
        "\nimport sys\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('govlab.'))))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout.split()


class TestWhatLoads:
    def test_import_loads_no_submodule(self):
        assert loaded_after("import govlab") == []

    def test_a_scan_loads_only_the_scan_modules(self):
        code = (
            "import govlab\n"
            "govlab.scan_range(1, 63, govlab.RULE_3Z, govlab.OrbitLimits(10**6, 256))\n"
        )
        assert loaded_after(code) == SCAN_MODULES

    @pytest.mark.parametrize("argv", [
        ["scan", "--odd-range", "1:99"],
        ["orbit", "--start", "27"],
        ["trace-governor", "--start", "27"],
    ])
    def test_cli_verbs_load_no_claim_or_law_module(self, argv):
        code = (
            "import contextlib, io\n"
            "from govlab import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main({argv!r}) == 0\n"
        )
        assert loaded_after(code) == sorted(SCAN_MODULES + ["govlab.cli"])

    def test_a_submodule_resolves_after_a_bare_import(self):
        code = "import govlab\nassert govlab.cycles.__name__ == 'govlab.cycles'\n"
        assert loaded_after(code) == ["govlab.cycles", "govlab.dynamics", "govlab.numerics"]


class TestExports:
    def test_each_name_is_its_submodules_object(self):
        assert govlab.__all__
        for name in govlab.__all__:
            module = importlib.import_module(f"govlab.{govlab._MODULE_OF[name]}")
            value = getattr(govlab, name)
            assert value is getattr(module, name)
            # defined there, not re-exported from another submodule
            assert getattr(value, "__module__", module.__name__) == module.__name__
            assert name in dir(govlab)

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from govlab import *", namespace)
        for name in govlab.__all__:
            assert namespace[name] is getattr(govlab, name)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            govlab.no_such_name
