"""The package keeps derived facts one way: `matroids.kept` stores a fact
in its object's `_cache` dict under the fact's name, and a module-level
memo is a `functools.cache`."""

import ast
from pathlib import Path

from mlz.matroids import Matroid, catalog, uniform, validate_bases
from mlz.morphisms import MorphismBases, morphism_bases, validate_morphism
from mlz.polynomials import HomogPoly, basis_poly
from mlz.verify import _fm, _fm_jet, _matroid_key, _pairs, _shared_rows, survey

SRC = Path(__file__).resolve().parents[1] / "src" / "mlz"

MATROID_FACTS = (
    "independent_masks",
    "rank_table",
    "closure_table",
    "loops",
    "cooccurrence",
    "parallel_decomposition",
    "flats",
    "indep_counts",
)
POLY_FACTS = ("plan", "gram", "grad_rank")
FAMILY_FACTS = (
    "levels",
    "polys",
    "levels_are_matroids",
    "eur_huh",
    "degeneracy",
)


def _kept_properties(cls) -> set:
    return {
        name
        for name, value in vars(cls).items()
        if isinstance(value, property) and hasattr(value.fget, "__wrapped__")
    }


def _assert_kept(obj, name: str, read) -> None:
    assert name not in obj._cache
    first = read()
    assert obj._cache[name] is first
    assert read() is first


def test_every_kept_fact_is_listed_and_keeps_its_docstring():
    assert _kept_properties(Matroid) == set(MATROID_FACTS)
    assert _kept_properties(HomogPoly) == set(POLY_FACTS)
    assert _kept_properties(MorphismBases) == set(FAMILY_FACTS)
    assert Matroid.rank_table.__doc__.startswith("rank(S) for every S")
    assert _fm.__doc__.startswith("f_M, kept on the matroid")


def test_matroid_facts_are_built_once_and_kept_under_their_names():
    # U(2,3) with 1 doubled by the parallel element 2, and the loop 5
    m = validate_bases(5, [[1, 3], [1, 4], [2, 3], [2, 4], [3, 4]])
    for name in MATROID_FACTS:
        _assert_kept(m, name, lambda: getattr(m, name))
    _assert_kept(m, "_fm", lambda: _fm(m))
    _assert_kept(m, "_fm_jet", lambda: _fm_jet(m))
    _assert_kept(m, "_matroid_key", lambda: _matroid_key(m))
    _assert_kept(m, "_pairs", lambda: _pairs(m))


def test_survey_drops_the_suite_facts_of_each_catalog_matroid():
    # f_M, its jet at (1, ..., 1) and the pair table live as long as one
    # matroid's rows; the seed key stays, since the morphism seeds read it
    survey(4, seed=1, morphisms=False)
    for n in range(1, 5):
        for m in catalog(n):
            for fact in ("_fm", "_fm_jet", "_pairs"):
                assert fact not in m._cache, (m, fact)
            assert "_matroid_key" in m._cache, m


def test_polynomial_facts_are_built_once_and_kept_under_their_names():
    p = basis_poly(uniform(2, 4))
    for name in POLY_FACTS:
        _assert_kept(p, name, lambda: getattr(p, name))


def test_family_facts_are_built_once_and_kept_under_their_names():
    # a fresh family, not the memoized one other tests may have filled
    m = uniform(3, 4)
    phi = validate_morphism(m, uniform(2, 2), (1, 1, 2, 2))
    family = morphism_bases(phi)
    for name in FAMILY_FACTS:
        _assert_kept(family, name, lambda: getattr(family, name))
    _assert_kept(family, "_shared_rows", lambda: _shared_rows(family))
    assert set(vars(family)) == {
        "source",
        "r_prime",
        "loops",
        "hyperplanes",
        "_cache",
    }


def _dict_attributes(init: ast.FunctionDef) -> set:
    """Attributes that `init` sets to a dict: by assignment, or through
    `object.__setattr__` as the frozen classes do."""
    names = set()
    for node in ast.walk(init):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            pairs = [
                (t.attr, node.value) for t in targets if isinstance(t, ast.Attribute)
            ]
        elif (
            isinstance(node, ast.Call)
            and ast.unparse(node.func) == "object.__setattr__"
            and isinstance(node.args[1], ast.Constant)
        ):
            pairs = [(node.args[1].value, node.args[2])]
        else:
            continue
        for name, value in pairs:
            if isinstance(value, (ast.Dict, ast.DictComp)) or (
                isinstance(value, ast.Call) and ast.unparse(value.func) == "dict"
            ):
                names.add(name)
    return names


def _dict_fields(cls: ast.ClassDef) -> set:
    """Fields of a dataclass body whose default factory is `dict`."""
    return {
        node.target.id
        for node in cls.body
        if isinstance(node, ast.AnnAssign)
        and isinstance(node.value, ast.Call)
        and any(
            kw.arg == "default_factory" and ast.unparse(kw.value) == "dict"
            for kw in node.value.keywords
        )
    }


def test_source_has_one_per_object_memo():
    # a fact is kept through `kept` and a module memo is `functools.cache`:
    # no `cached_property`, no `lru_cache`, no `_cached` helper, and no
    # `__init__` or dataclass field that gives an object a dict other than
    # its `_cache`
    offences = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.FunctionDef) and node.name == "__init__":
                for name in _dict_attributes(node) - {"_cache"}:
                    offences.append(f"{path.name}:{node.lineno} {name}")
            if isinstance(node, ast.ClassDef):
                for name in _dict_fields(node) - {"_cache"}:
                    offences.append(f"{path.name}:{node.lineno} {name}")
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.Name):
                names = {node.id}
            else:
                continue
            for name in names & {"cached_property", "lru_cache", "_cached"}:
                offences.append(f"{path.name}:{node.lineno} {name}")
    assert not offences
