"""Command-line front end: exact reports over JSON matroid/morphism files.

Every number is printed exactly (integers or p/q).  Exit codes: 0 all
checks consistent, 1 a counterexample/failed check, 2 malformed input.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import matroids as mt
from . import morphisms as mo
from . import verify
from .lefschetz import (
    hessian_inertia,
    lorentzian_decide,
    lorentzian_witness,
    point_verdicts,
)
from .polynomials import (
    basis_poly,
    hessian_matrix,
    indep_poly,
    poly_json,
    poly_str,
    reduced_indep_poly,
)
from .sampling import derive, seeded_point


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors become a UsageError, so they
    end as one `error: ...` line and exit 2 like every malformed input."""

    def error(self, message):
        raise UsageError(message)


def _parse_rational(text: str) -> Fraction:
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational {text!r}: {exc}") from exc


def _seed(text: str) -> int:
    """A --seed value: an integer with 0 <= seed < 2^64.  The sampler reads
    a seed modulo 2^64 (`sampling.derive`), so a seed outside that range
    would print a header of its own over the rows of another seed."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not 0 <= seed < 1 << 64:
        raise argparse.ArgumentTypeError(f"seed must lie in 0..2^64-1, got {seed}")
    return seed


def _parse_point(text: str) -> tuple[Fraction, ...]:
    return tuple(_parse_rational(part) for part in text.split(","))


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"{path} does not hold a JSON object")
    return data


def _load_matroid(args) -> mt.Matroid:
    if getattr(args, "uniform", None):
        try:
            r, n = (int(v) for v in args.uniform.split(","))
        except ValueError as exc:
            raise UsageError(f"--uniform expects r,n: {exc}") from exc
        try:
            return mt.uniform(r, n)
        except mt.MatroidError as exc:
            raise UsageError(f"--uniform: {exc}") from exc
    if getattr(args, "graphic", None):
        data = _load_json(args.graphic)
        for key in ("vertices", "edges"):
            if key not in data:
                raise UsageError(f"graphic file misses field {key!r}")
        try:
            return mt.graphic(data["vertices"], data["edges"])
        except mt.MatroidError as exc:
            raise UsageError(f"invalid graph: {exc}") from exc
    if not args.file:
        raise UsageError("need a matroid file or --uniform/--graphic")
    data = _load_json(args.file)
    try:
        return mt.from_json_dict(data)
    except mt.MatroidError as exc:
        raise UsageError(f"invalid matroid: {exc}") from exc


_POLYS = {"basis": basis_poly, "indep": indep_poly, "reduced": reduced_indep_poly}


def _point_for(args, p) -> tuple[Fraction, ...]:
    if args.at is not None:
        point = _parse_point(args.at)
        if len(point) != len(p.active):
            raise UsageError(
                f"--at needs {len(p.active)} coordinates "
                f"(variables x{p.active[0]}..x{p.active[-1]}), got {len(point)}"
            )
        return point
    return (Fraction(1),) * len(p.active)


def _cmd_matroid_info(args) -> int:
    m = _load_matroid(args)
    pd = m.parallel_decomposition
    girth = m.girth  # before any output: above 15 elements it raises
    if args.format == "json":
        out = {
            "matroid": m.to_json_dict(),
            "rank": m.rank,
            "simple": m.is_simple,
            "loops": list(mt.elems_of(m.loops)),
            "parallel_classes": [list(mt.elems_of(c)) for c in pd.classes],
            "girth": "inf" if girth == float("inf") else girth,
            "indep_counts": list(m.indep_counts),
            "flats": [list(mt.elems_of(f)) for f in m.flats],
        }
        print(json.dumps(out, sort_keys=True))
    else:
        print(f"n={m.n} rank={m.rank} bases={len(m.bases)}")
        print(f"simple={str(m.is_simple).lower()} loops={list(mt.elems_of(m.loops))}")
        print(f"parallel classes={[list(mt.elems_of(c)) for c in pd.classes]}")
        print(f"girth={girth}")
        print(f"independent counts={list(m.indep_counts)}")
    return 0


def _cmd_poly(args) -> int:
    m = _load_matroid(args)
    p = _POLYS[args.kind](m)
    if args.format == "json":
        print(json.dumps(poly_json(p), sort_keys=True))
    else:
        print(poly_str(p))
    return 0


def _cmd_hessian(args) -> int:
    m = _load_matroid(args)
    p = _POLYS[args.kind](m)
    if p.degree < 2:
        raise UsageError(f"the {args.kind} polynomial has degree {p.degree} < 2")
    # the inertia comes from the plan's integer fill at the cleared
    # point, not from the rows, whose denominators it would clear again
    point = _point_for(args, p)
    rows = [[str(v) for v in row] for row in hessian_matrix(p, point)]
    ine = hessian_inertia(p, point)
    if args.format == "json":
        print(json.dumps({"rows": rows, "inertia": ine.to_json_dict()}, sort_keys=True))
    else:
        for row in rows:
            print(" ".join(row))
        print(f"inertia=({ine.pos},{ine.neg},{ine.zero})")
    return 0


def _cmd_check(args) -> int:
    m = _load_matroid(args)
    p = _POLYS[args.kind](m)
    if p.degree < 2:
        raise UsageError(f"the {args.kind} polynomial has degree {p.degree} < 2")
    if args.what == "lorentz-exact":
        if args.at is not None:
            raise UsageError("lorentz-exact is point-free and takes no --at")
        decided = lorentzian_decide(p)
        print(f"LORENTZ-EXACT: {str(decided).lower()}")
        return 0 if decided else 1
    if args.what == "lorentz-witness":
        if args.at is not None:
            points = [_point_for(args, p)]
        else:
            rng = derive(args.seed, len(p.active))
            points = [seeded_point(rng, len(p.active))[1] for _ in range(3)]
        try:
            rep = lorentzian_witness(p, points)
        except ValueError as exc:
            raise UsageError(f"--at: {exc}") from exc
        status = "pass" if rep.passed else "fail"
        line = (
            f"LORENTZ-WITNESS: {status} checked={rep.checked} "
            f"zero={rep.identically_zero} degree2={rep.exact_degree2} "
            f"sampled={rep.sampled}"
        )
        if args.at is None:  # the seed chose the points
            line += f" seed={args.seed}"
        print(line)
        return 0 if rep.passed else 1
    point = _point_for(args, p)
    v = point_verdicts(p, point)
    if not v.value_positive:
        print(f"{args.what.upper()}: inapplicable (value not positive)")
        return 1
    verdict = v.slp1 if args.what == "slp1" else v.hrr1
    ine = v.inertia
    print(
        f"{args.what.upper()}: {str(verdict).lower()} "
        f"inertia=({ine.pos},{ine.neg},{ine.zero}) grad_rank={v.grad_rank}"
    )
    return 0 if verdict else 1


def _cmd_mason(args) -> int:
    m = _load_matroid(args)
    point = _parse_point(args.at) if args.at is not None else None
    if args.what == "basis":
        try:
            rep = verify.mason_basis_check(m, args.i, args.j, point)
        except (ValueError, mt.MatroidError) as exc:
            raise UsageError(str(exc)) from exc
        print(
            f"counts |B|={rep.count_bases} |Bi|={rep.count_i} "
            f"|Bj|={rep.count_j} |Bij|={rep.count_ij}"
        )
        print(
            f"lhs={rep.lhs} rhs={rep.rhs} equal={str(rep.equal).lower()} "
            f"predicted_equal={str(rep.predicted_equal).lower()} "
            f"consistent={str(rep.consistent).lower()}"
            + ("" if rep.applicable else " (loop pair: not applicable)")
        )
        return 0 if rep.holds else 1
    try:
        rep = verify.mason_indep_check(m, args.k, point)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    print(
        f"k={rep.k} lhs={rep.lhs} rhs={rep.rhs} equal={str(rep.equal).lower()} "
        f"predicted_equal={str(rep.predicted_equal).lower()} "
        f"consistent={str(rep.consistent).lower()}"
    )
    return 0 if rep.holds else 1


def _load_morphism(args) -> mo.MatroidMorphism:
    data = _load_json(args.file)
    try:
        return mo.morphism_from_json_dict(data)
    except (mt.MatroidError, mo.MorphismError) as exc:
        raise UsageError(f"invalid morphism: {exc}") from exc


def _cmd_morphism(args) -> int:
    if args.what == "validate":
        phi = _load_morphism(args)
        print(
            f"valid morphism: n={phi.source.n} rank={phi.r} -> "
            f"target rank={phi.r_prime} phi-loops={list(mt.elems_of(phi.phi_loops))}"
        )
        return 0
    phi = _load_morphism(args)
    if args.what == "class":
        verdict = mo.degeneracy_class(phi)
        classes = "".join(sorted(verdict.classes)) or "-"
        if verdict.annihilator is None:
            print(f"classes={classes} annihilator=none")
        else:
            ann = ",".join(str(c) for c in verdict.annihilator)
            print(f"classes={classes} annihilator=({ann})")
        return 0
    entries = mo.eur_huh_profile(phi)
    if not entries:
        print("profile empty (no interior levels)")
        return 0
    bad = 0
    for e in entries:
        mark = "=" if e.equal else "<"
        if e.lhs > e.rhs:
            mark = ">"
            bad += 1
        print(f"k={e.k} lhs={e.lhs} {mark} rhs={e.rhs}")
    return 1 if bad else 0


def _cmd_survey(args) -> int:
    try:
        rep = verify.survey(args.n, seed=args.seed, morphisms=not args.no_morphisms)
    except mt.MatroidError as exc:
        raise UsageError(str(exc)) from exc
    if args.format == "json":
        for line in rep.to_jsonl_lines():
            print(line)
    elif args.format == "tsv":
        sys.stdout.write(rep.to_tsv())
    else:
        sys.stdout.write(rep.to_text())
    return 0 if rep.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mlz",
        description="exact matroid log-concavity checks and surveys",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_matroid_source(sp):
        sp.add_argument("file", nargs="?", help="matroid JSON file")
        sp.add_argument("--uniform", help="uniform matroid r,n instead of a file")
        sp.add_argument("--graphic", help="graph JSON file (vertices, edges)")

    sp = sub.add_parser("matroid-info", help="derived structure of a matroid")
    add_matroid_source(sp)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=_cmd_matroid_info)

    sp = sub.add_parser("poly", help="print a generating polynomial")
    add_matroid_source(sp)
    sp.add_argument("--kind", choices=tuple(_POLYS), default="basis")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=_cmd_poly)

    sp = sub.add_parser("hessian", help="exact Hessian and its inertia at a point")
    add_matroid_source(sp)
    sp.add_argument("--kind", choices=tuple(_POLYS), default="basis")
    sp.add_argument("--at", help="comma-separated rationals (p/q or integers)")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=_cmd_hessian)

    # `check` and `mason` name their variant in a subcommand of its own: a
    # positional variant followed by the optional file positional would
    # take both at once, leaving a file given after an option unparsed
    sp = sub.add_parser("check", help="degree-1 Lefschetz/Hodge-Riemann checks")
    variants = sp.add_subparsers(dest="what", required=True)
    for what in ("slp1", "hrr1", "lorentz-witness", "lorentz-exact"):
        vp = variants.add_parser(what)
        add_matroid_source(vp)
        vp.add_argument("--kind", choices=tuple(_POLYS), default="basis")
        vp.add_argument("--at", help="evaluation point (comma-separated rationals)")
        if what == "lorentz-witness":
            vp.add_argument(
                "--seed", type=_seed, default=1, help="seed for sampled points"
            )
        vp.set_defaults(func=_cmd_check)

    sp = sub.add_parser("mason", help="count log-concavity checks")
    variants = sp.add_subparsers(dest="what", required=True)
    for what in ("basis", "indep"):
        vp = variants.add_parser(what)
        add_matroid_source(vp)
        if what == "basis":
            vp.add_argument("--i", type=int, required=True, help="first element")
            vp.add_argument("--j", type=int, required=True, help="second element")
        else:
            vp.add_argument("--k", type=int, required=True, help="level")
        vp.add_argument("--at", help="positive weights (comma-separated rationals)")
        vp.set_defaults(func=_cmd_mason)

    sp = sub.add_parser("morphism", help="matroid morphism checks")
    sp.add_argument("what", choices=("validate", "class", "eurhuh"))
    sp.add_argument("file", help="morphism JSON file")
    sp.set_defaults(func=_cmd_morphism)

    sp = sub.add_parser("survey", help="exhaustive catalog verification")
    sp.add_argument("--n", type=int, required=True, help="max ground-set size")
    sp.add_argument("--seed", type=_seed, default=1)
    sp.add_argument("--format", choices=("text", "json", "tsv"), default="text")
    sp.add_argument(
        "--no-morphisms", action="store_true", help="skip the morphism sweep"
    )
    sp.set_defaults(func=_cmd_survey)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of `run`, built once per process: parsing keeps no state
    in it, and building it costs about twenty parses."""
    return build_parser()


def _attach_at_values(argv: list[str]) -> list[str]:
    """argv with `--at V` spelled `--at=V` when V starts with '-' and a
    digit: argparse takes such a V (unless it is one negative number) for
    an option and leaves --at without its value."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--at" and arg.startswith("-") and arg[1:2].isdigit():
            out[-1] = f"--at={arg}"
        else:
            out.append(arg)
    return out


def run(argv=None) -> int:
    argv = _attach_at_values(sys.argv[1:] if argv is None else list(argv))
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # --help
        return 2 if exc.code not in (0, None) else 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (UsageError, mt.MatroidError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run()
    except BrokenPipeError:
        # downstream consumer (head, less) closed the stream mid-report
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)


if __name__ == "__main__":
    main()
