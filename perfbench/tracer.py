"""Spans around mlz's public functions, installed from outside the package.

Each traced call records (name, start, end, parent) in flat arrays; the
per-layer metrics are derived from them when the round ends.  A function
is patched under every name that any loaded mlz module bound it to, since
modules import each other's functions with `from ... import`.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

# (module, function): each gets <module>.<function>.calls and .self_s.
SPANNED = (
    ("linalg", "char_poly"),
    ("linalg", "inertia"),
    ("linalg", "matrix_rank"),
    ("lefschetz", "hessian_matrix"),
    ("lefschetz", "gradient_rank"),
    ("lefschetz", "point_verdicts"),
    ("lefschetz", "lorentzian_witness"),
    ("polynomials", "partial"),
    ("polynomials", "evaluate"),
    ("polynomials", "linear_apply"),
    ("polynomials", "gradient_matrix"),
    ("morphisms", "validate_morphism"),
    ("morphisms", "morphism_bases"),
    ("morphisms", "morphism_poly"),
    ("morphisms", "degeneracy_class"),
    ("morphisms", "eur_huh_profile"),
    ("matroids", "check_exchange"),
    ("matroids", "validate_bases"),
    ("matroids", "catalog"),
    ("verify", "theorem_suite"),
    ("verify", "morphism_suite"),
    ("verify", "mason_basis_check"),
    ("verify", "mason_indep_check"),
    ("sampling", "derive"),
    ("cli", "run"),
)

# Functions whose share of calls answered from a cache is reported, read
# from the cache_info() of the function in the package (0 without a cache).
HIT_RATIOS = (
    ("lefschetz", "second_partials", "_second_partials_impl"),
    ("morphisms", "validate_morphism", "validate_morphism"),
    ("morphisms", "morphism_bases", "morphism_bases"),
    ("morphisms", "morphism_poly", "morphism_poly"),
    ("morphisms", "degeneracy_class", "degeneracy_class"),
    ("morphisms", "eur_huh_profile", "eur_huh_profile"),
)

# Metrics the workloads compute themselves, from their inputs and outputs.
EXTRAS = ("verify.jsonl_bytes", "morphisms.distinct_families_ratio")

LAYER_METRICS = (
    [f"{m}.{f}.{s}" for m, f in SPANNED for s in ("calls", "self_s")]
    + [
        "matroids.rank_table.builds",
        "matroids.rank_table.self_s",
        "verify.to_jsonl.self_s",
        "polynomials.HomogPoly.constructions",
        "morphisms.validate_morphism.rejected",
    ]
    + [f"{m}.{f}.hit_ratio" for m, f, _ in HIT_RATIOS]
    + list(EXTRAS)
    + ["trace.spans", "trace.overhead_s"]
)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bytes"):
        return "B"
    return "count"


class Tracer:
    """Span recorder for one round; install() patches the loaded mlz modules."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ix = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised: Counter = Counter()
        self.counted: Counter = Counter()
        self._stack = [-1]
        self._cache_owners: dict = {}

    def span(self, name: str, fn):
        """fn wrapped so that each call records a span under `name`."""
        nid = len(self.names)
        self.names.append(name)
        name_ix, parent, start, end = self.name_ix, self.parent, self.start, self.end
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(start)
            name_ix.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.raised[name] += 1
                raise
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        import mlz  # noqa: F401  -- loads every mlz module
        from mlz import matroids, polynomials

        for mod, label, attr in HIT_RATIOS:
            owner = getattr(sys.modules[f"mlz.{mod}"], attr, None)
            self._cache_owners[f"{mod}.{label}"] = owner
        modules = [
            m
            for key, m in sys.modules.items()
            if key == "mlz" or key.startswith("mlz.")
        ]
        for mod, fn in SPANNED:
            orig = getattr(sys.modules[f"mlz.{mod}"], fn)
            wrapper = self.span(f"{mod}.{fn}", orig)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapper)

        get_rank_table = matroids.Matroid.rank_table.fget
        build_rank_table = self.span("matroids.rank_table", get_rank_table)

        def rank_table(m):
            if "rank_table" in m._cache:
                return get_rank_table(m)
            return build_rank_table(m)

        matroids.Matroid.rank_table = property(rank_table)

        init = polynomials.HomogPoly.__init__
        counted = self.counted

        def counted_init(poly, *args, **kwargs):
            counted["polynomials.HomogPoly.constructions"] += 1
            init(poly, *args, **kwargs)

        polynomials.HomogPoly.__init__ = counted_init

    def metrics(self) -> dict:
        """calls, self time, raised calls and cache hit ratios, per name."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i in range(n):
            name = self.names[self.name_ix[i]]
            calls[name] += 1
            self_s[name] += end[i] - start[i] - child[i]
        out = {}
        for mod, fn in SPANNED:
            out[f"{mod}.{fn}.calls"] = calls[f"{mod}.{fn}"]
            out[f"{mod}.{fn}.self_s"] = self_s[f"{mod}.{fn}"]
        out["matroids.rank_table.builds"] = calls["matroids.rank_table"]
        out["matroids.rank_table.self_s"] = self_s["matroids.rank_table"]
        out["verify.to_jsonl.self_s"] = self_s["verify.to_jsonl"]
        constructions = "polynomials.HomogPoly.constructions"
        out[constructions] = self.counted[constructions]
        out["morphisms.validate_morphism.rejected"] = self.raised[
            "morphisms.validate_morphism"
        ]
        for key, owner in self._cache_owners.items():
            info = owner.cache_info() if hasattr(owner, "cache_info") else None
            looked_up = info.hits + info.misses if info else 0
            out[f"{key}.hit_ratio"] = info.hits / looked_up if looked_up else 0.0
        out["trace.spans"] = n
        return out

    def write(self, path: Path) -> None:
        """Spans as a JSON header line followed by the four raw arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": [["name", "H"], ["parent", "i"], ["start", "d"], ["end", "d"]],
            "clock": "perf_counter seconds",
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_ix, self.parent, self.start, self.end):
                arr.tofile(fh)
