"""The benchmark's tracer wraps package functions by name.

``perfbench/tracer.py`` looks each name in its ``TRACED`` table up on the
module that defines it, and also rebinds ``stanley._parts_stream`` and
empties ``stanley._enumeration_counts``. A renamed function leaves the CLI
working but makes every traced benchmark run fail at set-up, so the names
are pinned here. The tracer's source is only parsed, never run, so
nothing is wrapped.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced_table():
    """The literal value of ``TRACED`` in the tracer's source."""
    tree = ast.parse(TRACER_PATH.read_text(), str(TRACER_PATH))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {TRACER_PATH}")


@pytest.mark.parametrize(
    "layer, name", [(layer, name) for layer, names in _traced_table().items() for name in names]
)
def test_traced_name_resolves(layer, name):
    module = importlib.import_module(f"stanleypf.{layer}")
    assert callable(getattr(module, name))


def test_oracle_stream_and_memo_resolve():
    from stanleypf import stanley

    assert callable(stanley._parts_stream)
    assert callable(stanley._enumeration_counts.cache_clear)
