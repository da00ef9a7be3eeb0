"""What importing the package costs a fresh interpreter.

Every CLI run starts a new interpreter, so the package's import is paid
on each one. These modules cost milliseconds to import and the package
needs none of them: ``verify --suite all`` forks its combinatorial child
with ``os.fork`` and sends the reports back with ``marshal``, so no process
or pickling module is loaded either, at import or by the run. The child
runs with -I -S so that no environment variable or site .pth file can
preload them.

A well-formed command line is parsed without argparse, which also loads
gettext: argparse is imported only for help, --version and usage errors.

Every way of running the program goes through cli.run, which freezes the
start-up heap so that the collections at interpreter exit skip it; main,
which tests and the acceptance gate call in-process, leaves the collector
as it was.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import stanleypf
from stanleypf import cli

SRC = os.path.dirname(os.path.dirname(os.path.abspath(stanleypf.__file__)))

_REPORT = """
import json, sys
sys.path.insert(0, {src!r})
import {module}
{then}
print(json.dumps(sorted(m for m in sys.modules if m in {names!r} or m.startswith("stanleypf"))))
"""


HEAVY = (
    "dataclasses", "inspect", "typing", "contextlib",
    "multiprocessing", "concurrent", "pickle", "subprocess",
)


def _loaded_after_import(module, names, then=""):
    code = _REPORT.format(src=SRC, module=module, names=tuple(names), then=then)
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True, timeout=60
    ).stdout
    return set(json.loads(out.splitlines()[-1]))  # after whatever `then` printed


def test_cli_import_leaves_heavy_modules_unloaded():
    assert _loaded_after_import("stanleypf.cli", HEAVY) & set(HEAVY) == set()


def test_suite_all_leaves_heavy_modules_unloaded():
    then = "assert all(r.passed for r in stanleypf.verify.run_suite('all', 16, 8, 12))"
    assert _loaded_after_import("stanleypf.cli", HEAVY, then) & set(HEAVY) == set()


def test_package_import_loads_every_layer():
    # perfbench/tracer.py reads sys.modules["stanleypf.<layer>"] right after
    # `import stanleypf`, so the layers may not be imported lazily
    loaded = _loaded_after_import("stanleypf", ())
    assert {
        "stanleypf.partitions",
        "stanleypf.series_core",
        "stanleypf.stanley",
        "stanleypf.verify",
    } <= loaded


PARSING = ("argparse", "gettext", "locale")

WELL_FORMED = (
    ["table", "--stats", "t,u", "--max", "6", "--format", "csv"],
    ["export", "--stat", "t", "--max", "8", "--order", "20", "--format", "json"],
    ["partition", "--n", "4", "--show-hooks"],
    ["verify", "--suite", "all", "--order", "16", "--enum-bound", "8", "--oracle-bound", "12"],
)


def test_well_formed_commands_leave_argparse_unloaded():
    then = "\n".join(f"assert stanleypf.cli.main({argv!r}) == 0" for argv in WELL_FORMED)
    assert _loaded_after_import("stanleypf.cli", PARSING, then) & set(PARSING) == set()


def test_help_loads_argparse():
    # help, --version and usage errors all come from the argparse parser
    then = "assert stanleypf.cli.main(['--help']) == 0"
    assert "argparse" in _loaded_after_import("stanleypf.cli", PARSING, then)


# the permanent generation is empty at start-up before Python 3.12, which
# starts with a few hundred objects in it; count what is frozen after that
_FREEZE_REPORT = """
import atexit, gc, runpy, sys
at_start = gc.get_freeze_count()
sys.path.insert(0, {src!r})
import stanleypf.cli
for argv in {well_formed!r}:
    assert stanleypf.cli.main(argv) == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == (at_start, True), argv
sys.argv = ["stanleypf", *{export!r}]
atexit.register(lambda: print("frozen", gc.get_freeze_count() - at_start))
runpy.run_module("stanleypf", run_name="__main__", alter_sys=True)
"""


def test_program_entry_freezes_and_main_does_not():
    export = next(argv for argv in WELL_FORMED if argv[0] == "export")
    code = _FREEZE_REPORT.format(src=SRC, well_formed=WELL_FORMED, export=export)
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    label, count = proc.stdout.splitlines()[-1].split()  # the probe runs last, at exit
    assert label == "frozen" and int(count) > 0


ONE_ENTRY = (
    *WELL_FORMED,
    ["export", "--stat", "x", "--max", "3"],  # argparse refuses the choice
    ["table", "--max", "6", "--format", "bfile"],  # main refuses the format
    ["--version"],
    ["export", "--help"],
)


@pytest.mark.parametrize("argv", ONE_ENTRY, ids=" ".join)
def test_running_the_program_matches_main(argv, capsys, monkeypatch):
    # python -m stanleypf and python -m stanleypf.cli go through run, which
    # must print and exit exactly as main does in-process
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help and usage to it
    monkeypatch.delenv(cli.CACHE_ENV_VAR, raising=False)
    expected = (cli.main(argv), *capsys.readouterr())
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    for module in ("stanleypf", "stanleypf.cli"):
        proc = subprocess.run([sys.executable, "-m", module, *argv],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == expected, module


def test_console_script_is_run():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["stanleypf"]
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is cli.run
