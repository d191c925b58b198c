"""The benchmark's tracer patches mlz functions by name; every name it
lists in SPANNED must still exist, or the traced benchmark run fails."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _spanned() -> tuple:
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SPANNED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no SPANNED")


def test_every_spanned_function_resolves():
    spanned = _spanned()
    assert spanned
    importlib.import_module("mlz")
    for module, name in spanned:
        fn = getattr(importlib.import_module(f"mlz.{module}"), name, None)
        assert callable(fn), f"mlz.{module}.{name}"
