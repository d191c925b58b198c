"""The three workloads: inputs from a seed, one timed round, output checks.

A workload object is built in a fresh interpreter (that is the set-up),
runs one round through mlz's public functions (the timed part) and then
checks what mlz returned against theory.py.  `item_ms` holds the time of
each item: one theorem_suite call, one morphism_suite call or one CLI query.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from time import perf_counter

from mlz import cli, verify
from mlz import matroids as mt
from mlz import morphisms as mo

import theory

# Labeled matroids on n = 1..5 elements (OEIS A058673).
LABELED_MATROIDS = {1: 2, 2: 5, 3: 16, 4: 68, 5: 406}


def _timed(fn, sink: list):
    def call(*args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            sink.append((perf_counter() - t0) * 1e3)

    return call


def _to_jsonl(report) -> bytes:
    """The bytes `mlz survey --format json` prints: one line per record."""
    return "".join(f"{line}\n" for line in report.to_jsonl_lines()).encode()


def _elements(n: int, b: int) -> list[int]:
    """The 1-based elements of a 0-based mask, as mlz's JSON lists them."""
    return [e + 1 for e in range(n) if b >> e & 1]


def _relabel(n: int, bases, perm) -> frozenset:
    return frozenset(
        theory.mask(perm[e] for e in range(n) if b >> e & 1) for b in bases
    )


def _matroid(n: int, bases) -> mt.Matroid:
    """A validated mlz matroid from 0-based basis masks."""
    return mt.validate_bases(n, [_elements(n, b) for b in bases])


class MatroidSurvey:
    """survey(5, seed, morphisms=False) serialized to JSONL, as a user runs it.

    Every theorem_suite call builds small Hessians at seeded points,
    Lorentzian-witness derivative trees and Mason rows for a distinct
    matroid.  The catalog is enumerated inside the timed part.
    """

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.item_ms: list[float] = []
        verify.theorem_suite = _timed(verify.theorem_suite, self.item_ms)

    def run(self, tracer) -> None:
        report = verify.survey(5, self.seed, morphisms=False)
        serialize = _to_jsonl
        if tracer is not None:
            serialize = tracer.span("verify.to_jsonl", _to_jsonl)
        self.jsonl = serialize(report)
        self.attempted = len(self.item_ms)
        self.failed = 0

    def digest(self) -> str:
        return hashlib.sha256(self.jsonl).hexdigest()

    def layer_extras(self) -> dict:
        return {
            "verify.jsonl_bytes": len(self.jsonl),
            "morphisms.distinct_families_ratio": 0.0,
        }

    def check(self) -> list[str]:
        errors = []
        records = [json.loads(line) for line in self.jsonl.decode().splitlines()]
        header, rows = records[0], [r for r in records[1:] if "status" in r]
        total = sum(LABELED_MATROIDS.values())
        if header["counterexamples"] != 0 or header["matroids"] != total:
            errors.append(f"survey header {header}")
        fails = [r for r in rows if r["status"] == "fail"]
        if fails:
            errors.append(f"{len(fails)} fail rows, first {fails[0]}")
        seen: dict[int, set] = {}
        for r in rows:
            _, n, idx = r["scope"].split(":")
            seen.setdefault(int(n), set()).add(int(idx))
        counts = {n: len(ix) for n, ix in seen.items()}
        if counts != LABELED_MATROIDS:
            errors.append(f"catalog counts {counts}, published {LABELED_MATROIDS}")

        reported = {
            (r["scope"], r["i"], r["j"], r["value"])
            for r in records
            if r.get("catalog") == "equality-basis-counts"
        }
        counted, predicted = set(), set()
        for n in LABELED_MATROIDS:
            for idx, (rank, bases) in enumerate(theory.enumerate_matroids(n)):
                if rank < 2:
                    continue
                loops = ~0
                for b in bases:
                    loops &= ~b
                two_classes = len(theory.parallel_classes(n, bases)) == 2
                for i, j in combinations(range(n), 2):
                    if loops >> i & 1 or loops >> j & 1:
                        continue
                    c_i = sum(1 for b in bases if b >> i & 1)
                    c_j = sum(1 for b in bases if b >> j & 1)
                    c_ij = sum(1 for b in bases if b >> i & 1 and b >> j & 1)
                    lhs = Fraction(len(bases) * c_ij)
                    key = (f"matroid:{n}:{idx}", i + 1, j + 1, str(lhs))
                    if lhs == 2 * (1 - Fraction(1, rank)) * c_i * c_j:
                        counted.add(key)
                    if two_classes and c_ij > 0:
                        predicted.add(key)
        if counted != predicted:
            errors.append(
                f"basis-count equality cases: {len(counted)} by counting, "
                f"{len(predicted)} by the two-parallel-classes predicate"
            )
        if reported != counted:
            errors.append(
                f"survey lists {len(reported)} basis-count equality cases, "
                f"counting gives {len(counted)} ({len(reported ^ counted)} differ)"
            )
        return errors


# Simple five-element sources, one per rank, as 0-based basis masks.  The
# seed relabels the two that are not symmetric, which picks one member of
# their isomorphism class: every seed then does the same amount of work.
_FIVE_ELEMENT_SOURCES = (
    # U(2,5)
    ([theory.mask(c) for c in combinations(range(5), 2)], False),
    # two 3-point lines {0,1,2} and {0,3,4} through a common point
    (
        [
            theory.mask(c)
            for c in combinations(range(5), 3)
            if set(c) not in ({0, 1, 2}, {0, 3, 4})
        ],
        True,
    ),
    # a triangle on {0,1,2} plus the coloops 3 and 4
    ([theory.mask((3, 4) + p) for p in combinations(range(3), 2)], True),
    # U(5,5)
    ([theory.mask(range(5))], False),
)


class MorphismSweep:
    """morphism_suite over every morphism from fixed sources to small targets.

    Sources: the 11 simple matroids on at most four elements and one
    simple five-element matroid of each rank 2 to 5.  Targets: all 23
    matroids on at most three elements.  Enumeration (validation) and the
    suites are timed; the inputs repeat basis families heavily.
    """

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        rng = random.Random(seed)
        small = [
            (n, bases)
            for n in range(1, 5)
            for rank, bases in theory.enumerate_matroids(n)
            if theory.is_simple(n, bases)
        ]
        five = []
        for bases, relabel in _FIVE_ELEMENT_SOURCES:
            perm = rng.sample(range(5), 5) if relabel else list(range(5))
            five.append((5, _relabel(5, bases, perm)))
        self.source_bases = small + five
        self.target_bases = [
            (n, bases)
            for n in range(1, 4)
            for rank, bases in theory.enumerate_matroids(n)
        ]
        self.sources = [_matroid(n, b) for n, b in self.source_bases]
        self.targets = [_matroid(n, b) for n, b in self.target_bases]
        self.item_ms: list[float] = []

    def run(self, tracer) -> None:
        self.maps = []
        self.fail_rows = []
        for si, source in enumerate(self.sources):
            for ti, target in enumerate(self.targets):
                for phi in mo.enumerate_morphisms(source, [target]):
                    t0 = perf_counter()
                    report = verify.morphism_suite(phi, self.seed)
                    self.item_ms.append((perf_counter() - t0) * 1e3)
                    self.maps.append((si, ti, phi.map))
                    self.fail_rows.extend(r for r in report.rows if r.status == "fail")
        self.attempted = len(self.item_ms)
        self.failed = 0

    def digest(self) -> None:
        return None

    def layer_extras(self) -> dict:
        families = {
            (self.source_bases[si][0], theory.morphism_family(
                self.source_bases[si][1], *self.target_bases[ti], [t - 1 for t in phi]
            ))
            for si, ti, phi in self.maps
        }
        return {
            "verify.jsonl_bytes": 0,
            "morphisms.distinct_families_ratio": len(families) / len(self.maps),
        }

    def check(self) -> list[str]:
        errors = []
        if self.fail_rows:
            errors.append(f"{len(self.fail_rows)} fail rows, first {self.fail_rows[0]}")
        found: dict[tuple, int] = {}
        for si, ti, _ in self.maps:
            found[si, ti] = found.get((si, ti), 0) + 1
        for si, (sn, sb) in enumerate(self.source_bases):
            for ti, (tn, tb) in enumerate(self.target_bases):
                expect = theory.morphism_count(sn, sb, tn, tb)
                if found.get((si, ti), 0) != expect:
                    errors.append(
                        f"source {si} -> target {ti}: enumerate_morphisms gave "
                        f"{found.get((si, ti), 0)} maps, brute force {expect}"
                    )
        return errors


def _wheel(spokes: int):
    edges = [(0, i + 1) for i in range(spokes)]
    edges += [(i + 1, (i + 1) % spokes + 1) for i in range(spokes)]
    return spokes + 1, edges


def _complete(v: int):
    return v, list(combinations(range(v), 2))


@dataclass
class _Part:
    """A matroid of the point-queries set, with its basis count by formula."""

    name: str
    n: int
    bases: frozenset
    count: int
    formula: str


def _uniform(r: int, n: int) -> _Part:
    bases = frozenset(theory.mask(c) for c in combinations(range(n), r))
    return _Part(f"U{r}_{n}", n, bases, math.comb(n, r), f"C({n},{r})")


def _graphic(name: str, graph, cayley: bool = False) -> _Part:
    vertices, edges = graph
    if cayley:
        count, formula = vertices ** (vertices - 2), "Cayley"
    else:
        count, formula = theory.kirchhoff(vertices, edges), "Kirchhoff"
    bases = theory.spanning_trees(vertices, edges)
    return _Part(name, len(edges), bases, count, formula)


def _direct_sum(a: _Part, b: _Part) -> _Part:
    bases = frozenset(x | y << a.n for x in a.bases for y in b.bases)
    return _Part(f"{a.name}+{b.name}", a.n + b.n, bases, a.count * b.count, "product")


def _point_queries_parts() -> list[_Part]:
    return [
        _uniform(3, 8),
        _uniform(2, 12),
        _uniform(4, 10),
        _uniform(3, 12),
        _graphic("W4", _wheel(4)),
        _uniform(4, 9),
        _graphic("K5", _complete(5), cayley=True),
        _graphic("W5", _wheel(5)),
        _direct_sum(_graphic("K4", _complete(4), cayley=True), _uniform(2, 5)),
        _direct_sum(_uniform(3, 6), _uniform(1, 3)),
    ]


# Inputs that should exit 2 with a one-line diagnostic.  They do not
# depend on the seed; each one that raises or exits otherwise is a failed
# operation.
_MALFORMED = (
    ("bad_zero.json", {"n": 3, "bases": [[0, 1]]}, []),
    ("bad_element.json", {"n": 3, "bases": [["a", 1]]}, []),
    ("bad_n.json", {"n": "x", "bases": [[1, 2]]}, []),
    ("bad_graph.json", {"vertices": 3, "edges": [[1, 2], [2, 5]]}, ["--graphic"]),
    (None, None, ["--uniform", "5,3"]),
)


@dataclass
class _Query:
    argv: list
    part: _Part | None = None
    point: tuple = ()
    pair: tuple = ()
    result: tuple = ()  # (exit code or exception, stdout, stderr)


class PointQueries:
    """CLI queries in-process through mlz.cli.run on matroids beyond the catalog.

    Few large objects: 8 to 12 elements, tens to hundreds of bases, so
    validation, 2^n rank tables and 9x9 to 13x13 Hessians dominate.
    """

    def __init__(self, seed: int, out_dir: Path):
        rng = random.Random(seed)
        qdir = out_dir / "point-queries"
        qdir.mkdir(parents=True, exist_ok=True)

        self.queries: list[_Query] = []

        def ask(part, argv, dim=0, pair=()):
            """Queue `mlz ARGV --at P` with a seeded point P of dim coordinates."""
            point = tuple(
                Fraction(rng.randint(1, 16), rng.randint(1, 16)) for _ in range(dim)
            )
            if point:
                argv = argv + ["--at", ",".join(str(v) for v in point)]
            self.queries.append(_Query(argv, part, point, pair))

        for part in _point_queries_parts():
            bases = _relabel(part.n, part.bases, rng.sample(range(part.n), part.n))
            part = _Part(part.name, part.n, bases, part.count, part.formula)
            path = qdir / f"{part.name}.json"
            path.write_text(json.dumps({
                "n": part.n,
                "bases": sorted(_elements(part.n, b) for b in bases),
            }))
            f, n = str(path), part.n
            ask(part, ["matroid-info", f])
            for what in ("hrr1", "slp1"):
                ask(part, ["check", what, f, "--kind", "basis"], n)
                ask(part, ["check", what, f, "--kind", "reduced"], n + 1)
            ask(part, ["hessian", f, "--kind", "basis"], n)
            ask(part, ["hessian", f, "--kind", "reduced"], n + 1)
            i, j = sorted(rng.sample(range(1, n + 1), 2))
            ask(part, ["mason", "basis", f, "--i", str(i), "--j", str(j)], n, (i, j))
            # Levels k + 1 < girth are left out: at a weighted point mlz
            # predicts equality there, where Newton's inequality is strict.
            rank = theory.popcount(next(iter(bases)))
            k = rng.randint(max(1, theory.girth(n, bases) - 1), rank)
            ask(part, ["mason", "indep", f, "--k", str(k)], n)
        self.valid = len(self.queries)
        for name, data, flags in _MALFORMED:
            argv = ["matroid-info"] + flags
            if name is not None:
                (qdir / name).write_text(json.dumps(data))
                argv.append(str(qdir / name))
            self.queries.append(_Query(argv))
        self.item_ms: list[float] = []

    def run(self, tracer) -> None:
        for q in self.queries:
            out, err = io.StringIO(), io.StringIO()
            t0 = perf_counter()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    code = cli.run(q.argv)
            except Exception as exc:  # a traceback and exit 1 from the real command
                code = f"{type(exc).__name__}: {exc}"
            self.item_ms.append((perf_counter() - t0) * 1e3)
            q.result = (code, out.getvalue(), err.getvalue())
        self.attempted = len(self.queries)
        self.failed = sum(
            1
            for q in self.queries[self.valid:]
            if not (q.result[0] == 2 and len(q.result[2].strip().splitlines()) == 1)
        )

    def digest(self) -> None:
        return None

    def layer_extras(self) -> dict:
        return {"verify.jsonl_bytes": 0, "morphisms.distinct_families_ratio": 0.0}

    def check(self) -> list[str]:
        errors = []
        for q in self.queries[: self.valid]:
            code, out, _ = q.result
            problem = "exit code %r" % (code,) if code != 0 else _check_query(q, out)
            if problem:
                errors.append(f"mlz {' '.join(q.argv)}: {problem}")
        return errors


def _fields(text: str) -> dict:
    return dict(tok.split("=", 1) for tok in text.split() if "=" in tok)


def _triple(text: str) -> tuple:
    return tuple(int(v) for v in text.strip("()").split(","))


def _check_query(q: _Query, out: str) -> str | None:
    part, n = q.part, q.part.n
    lines = out.splitlines()
    simple = theory.is_simple(n, part.bases)
    rank = theory.popcount(next(iter(part.bases)))
    cmd = q.argv[0]
    kind = q.argv[q.argv.index("--kind") + 1] if "--kind" in q.argv else None
    if cmd == "matroid-info":
        got = _fields(lines[0])
        expect = (n, rank, part.count)
        if (int(got["n"]), int(got["rank"]), int(got["bases"])) != expect:
            return (
                f"reports {lines[0]!r}, expected n={n} rank={rank} "
                f"bases={part.count} ({part.formula})"
            )
    elif cmd == "check":
        verdict, got = lines[0].split()[1], _fields(lines[0])
        ine = _triple(got["inertia"])
        if verdict != "true":
            return f"verdict {lines[0]!r}"
        grad_rank = int(got["grad_rank"])
        signature = (ine, grad_rank) == ((1, n - 1, 0), n)
        if kind == "basis" and simple and rank >= 2 and not signature:
            return f"{lines[0]!r}: expected inertia (1,{n - 1},0) and grad_rank {n}"
        if kind == "reduced" and ine[0] != 1:
            return f"{lines[0]!r}: not exactly one positive eigenvalue"
    elif cmd == "hessian":
        rows = [[Fraction(v) for v in line.split()] for line in lines[:-1]]
        printed = _triple(lines[-1].split("=", 1)[1])
        own = theory.inertia(rows)
        if own != printed:
            return f"printed inertia {printed}, elimination gives {own}"
        if kind == "basis":
            if rows != theory.basis_hessian(n, part.bases, q.point):
                return "Hessian entries differ from the term-by-term basis Hessian"
            if simple and rank >= 2 and printed != (1, n - 1, 0):
                return f"basis Hessian inertia {printed}, expected (1,{n - 1},0)"
        elif printed[0] != 1:
            return f"reduced Hessian inertia {printed}: not one positive eigenvalue"
    elif q.argv[1] == "basis":
        counts, verdict = _fields(lines[0]), _fields(lines[1])
        i, j = (e - 1 for e in q.pair)
        expect = (
            len(part.bases),
            sum(1 for b in part.bases if b >> i & 1),
            sum(1 for b in part.bases if b >> j & 1),
            sum(1 for b in part.bases if b >> i & 1 and b >> j & 1),
        )
        got = tuple(int(counts[k]) for k in ("|B|", "|Bi|", "|Bj|", "|Bij|"))
        if got != expect:
            return f"counts {got}, counting over the bases gives {expect}"
        if Fraction(verdict["lhs"]) > Fraction(verdict["rhs"]):
            return f"lhs > rhs in {lines[1]!r}"
    else:
        got = _fields(lines[0])
        if Fraction(got["lhs"]) > Fraction(got["rhs"]):
            return f"lhs > rhs in {lines[0]!r}"
    return None


WORKLOADS = {
    "matroid-survey": MatroidSurvey,
    "morphism-sweep": MorphismSweep,
    "point-queries": PointQueries,
}
