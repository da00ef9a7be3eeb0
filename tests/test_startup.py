"""What importing the package costs a fresh interpreter.

Every CLI run starts a new interpreter, so the package's import is paid
on each one. These modules cost milliseconds to import and the package
needs none of them. The child runs with -I -S so that no environment
variable or site .pth file can preload them.
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
print(json.dumps(sorted(m for m in sys.modules if m in {names!r} or m.startswith("stanleypf"))))
"""


def _loaded_after_import(module, names):
    code = _REPORT.format(src=SRC, module=module, names=tuple(names))
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True, timeout=60
    ).stdout
    return set(json.loads(out))


def test_cli_import_leaves_heavy_modules_unloaded():
    heavy = ("dataclasses", "inspect", "typing", "contextlib")
    assert _loaded_after_import("stanleypf.cli", heavy) & set(heavy) == set()


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
