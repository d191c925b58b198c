"""The benchmark's tracer patches mlz functions by name; every name it
lists in SPANNED must still exist, or the traced benchmark run fails.  It
also wraps the `Matroid.rank_table` property and `HomogPoly.__init__`,
whose shapes are checked here too."""

import ast
import importlib
import inspect
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


def test_rank_table_is_a_property_cached_under_its_name():
    # the tracer wraps the property's getter and tells a build from a
    # cached read by the "rank_table" key of the matroid's cache
    from mlz.matroids import Matroid, uniform

    assert isinstance(vars(Matroid)["rank_table"], property)
    m = uniform(2, 4)
    assert "rank_table" not in m._cache
    table = m.rank_table
    assert m._cache["rank_table"] is table
    assert m.rank_table is table


def test_homog_poly_init_is_a_plain_function():
    # the tracer counts constructions by replacing HomogPoly.__init__
    from mlz.polynomials import HomogPoly

    init = vars(HomogPoly)["__init__"]
    assert inspect.isfunction(init)
    assert HomogPoly.__init__ is init
