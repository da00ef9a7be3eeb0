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
"""

import json
import os
import subprocess
import sys

import stanleypf

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
