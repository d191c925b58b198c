import contextlib
import functools
import io
import itertools
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlz.cli import run
from mlz.matroids import MatroidError, catalog, from_json_dict, uniform
from mlz.matroids import graphic as graphic_matroid
from mlz.morphisms import MorphismError, enumerate_morphisms, morphism_from_json_dict


@pytest.fixture()
def u23_file(tmp_path):
    path = tmp_path / "U2_3.json"
    path.write_text(json.dumps({"n": 3, "bases": [[1, 2], [1, 3], [2, 3]]}))
    return str(path)


@pytest.fixture()
def morphism_file(tmp_path):
    path = tmp_path / "phi.json"
    path.write_text(
        json.dumps(
            {
                "source": {"n": 3, "bases": [[1, 2, 3]]},
                "target": {"n": 1, "bases": [[1]]},
                "map": [1, 1, 1],
            }
        )
    )
    return str(path)


def test_poly_reduced_text(capsys, u23_file):
    assert run(["poly", u23_file, "--kind", "reduced"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "3*x0^2 + 2*x0*x1 + 2*x0*x2 + 2*x0*x3 + x1*x2 + x1*x3 + x2*x3"


def test_check_hrr1_line(capsys, u23_file):
    assert run(["check", "hrr1", u23_file, "--kind", "basis", "--at", "1,1,1"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "HRR1: true inertia=(1,2,0) grad_rank=3"


def test_check_slp1_reduced_rationals(capsys, u23_file):
    code = run(
        ["check", "slp1", u23_file, "--kind", "reduced", "--at", "0,1/2,1/2,3"]
    )
    assert code == 0
    assert capsys.readouterr().out.startswith("SLP1: true")


def test_check_lorentz_witness(capsys, u23_file):
    assert run(["check", "lorentz-witness", u23_file, "--kind", "indep"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("LORENTZ-WITNESS: pass")
    assert "seed=1" in out


@pytest.mark.parametrize(
    "kind, counts",
    [
        ("basis", "checked=55 zero=9 degree2=36 sampled=30"),
        ("indep", "checked=19448 zero=18237 degree2=256 sampled=2865"),
    ],
)
def test_lorentz_witness_counts_on_u49(capsys, tmp_path, kind, counts):
    # beyond the survey's n <= 5: U(4,9), with its degree-9 indep polynomial
    path = tmp_path / "U4_9.json"
    bases = [list(b) for b in itertools.combinations(range(1, 10), 4)]
    path.write_text(json.dumps({"n": 9, "bases": bases}))
    assert run(["check", "lorentz-witness", str(path), "--kind", kind]) == 0
    assert capsys.readouterr().out == f"LORENTZ-WITNESS: pass {counts} seed=1\n"


@pytest.mark.parametrize("at", [["--at", "0,1,1"], ["--at=-1,1,1"]])
def test_lorentz_witness_at_non_positive_point_exits_2(capsys, u23_file, at):
    assert run(["check", "lorentz-witness", u23_file] + at) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --at: witness points must be strictly positive\n"


def test_matroid_info_text(capsys, u23_file):
    assert run(["matroid-info", u23_file]) == 0
    out = capsys.readouterr().out
    assert "n=3 rank=2 bases=3" in out
    assert "girth=3" in out


def test_matroid_info_uniform_flag(capsys):
    assert run(["matroid-info", "--uniform", "2,3", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["matroid"] == {"n": 3, "bases": [[1, 2], [1, 3], [2, 3]]}
    assert data["rank"] == 2 and data["simple"] is True


def test_matroid_info_graphic_flag(capsys, tmp_path):
    graph = tmp_path / "triangle.json"
    graph.write_text(json.dumps({"vertices": 3, "edges": [[1, 2], [1, 3], [2, 3]]}))
    assert run(["matroid-info", "--graphic", str(graph), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["matroid"] == {"n": 3, "bases": [[1, 2], [1, 3], [2, 3]]}


def test_hessian_output(capsys, u23_file):
    assert run(["hessian", u23_file, "--kind", "reduced", "--at", "1,1,1,1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "6 2 2 2"
    assert out[-1] == "inertia=(1,2,1)"


def test_mason_basis_output(capsys, u23_file):
    assert run(["mason", "basis", u23_file, "--i", "1", "--j", "2"]) == 0
    out = capsys.readouterr().out
    assert "lhs=3 rhs=4" in out
    assert "consistent=true" in out


def test_mason_indep_output(capsys, u23_file):
    assert run(["mason", "indep", u23_file, "--k", "1"]) == 0
    out = capsys.readouterr().out
    assert "k=1" in out and "consistent=true" in out


def test_morphism_subcommands(capsys, morphism_file):
    assert run(["morphism", "validate", morphism_file]) == 0
    assert "valid morphism" in capsys.readouterr().out
    assert run(["morphism", "class", morphism_file]) == 0
    assert "classes=-" in capsys.readouterr().out
    assert run(["morphism", "eurhuh", morphism_file]) == 0
    assert "k=2 lhs=1 = rhs=1" in capsys.readouterr().out


def test_survey_tsv(capsys):
    assert run(["survey", "--n", "2", "--seed", "1", "--format", "tsv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("check\tpass")
    assert "counterexamples\t0" in out


def test_survey_json_deterministic(capsys):
    assert run(["survey", "--n", "2", "--seed", "3", "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert run(["survey", "--n", "2", "--seed", "3", "--format", "json"]) == 0
    assert capsys.readouterr().out == first


def test_python_dash_m_runs_the_cli(capsys):
    # `python -m mlz` prints the bytes that `cli.run` prints
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = ["survey", "--n", "2", "--seed", "1", "--format", "json"]
    proc = subprocess.run(
        [sys.executable, "-m", "mlz", *argv], env=env, capture_output=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert run(argv) == 0
    assert proc.stdout == capsys.readouterr().out.encode()


def test_exit_code_2_on_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 4, "bases": [[1, 2], [3, 4]]}))
    assert run(["poly", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "invalid matroid" in err
    missing = tmp_path / "missing-field.json"
    missing.write_text(json.dumps({"n": 4}))
    assert run(["poly", str(missing)]) == 2
    assert "bases" in capsys.readouterr().err


def test_exit_code_2_on_bad_point(capsys, u23_file):
    assert run(["check", "hrr1", u23_file, "--at", "1,1"]) == 2
    assert "coordinates" in capsys.readouterr().err


def test_exit_code_2_on_unknown_subcommand(capsys):
    assert run(["frobnicate"]) == 2


def test_round_trip_matroid_json(capsys, u23_file):
    assert run(["matroid-info", u23_file, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    from mlz.matroids import from_json_dict, uniform

    assert from_json_dict(data["matroid"]) == uniform(2, 3)


@pytest.mark.parametrize(
    "name, data, flags",
    [
        ("bad_zero.json", {"n": 3, "bases": [[0, 1]]}, []),
        ("bad_element.json", {"n": 3, "bases": [["a", 1]]}, []),
        ("bad_n.json", {"n": "x", "bases": [[1, 2]]}, []),
        ("bad_graph.json", {"vertices": 3, "edges": [[1, 2], [2, 5]]}, ["--graphic"]),
        (None, None, ["--uniform", "5,3"]),
        ("bad_repeat.json", {"n": 2, "bases": [[1, 1], [2, 2]]}, []),
        # girth needs a table over all 2^40 subsets; the size guard refuses it
        ("too_large.json", {"n": 40, "bases": [[1]]}, []),
        ("too_large.json", {"n": 40, "bases": [[1]]}, ["--format", "json"]),
    ],
)
def test_malformed_matroid_input_exits_2_with_one_line(tmp_path, capsys, name, data, flags):
    argv = ["matroid-info"] + flags
    if name is not None:
        path = tmp_path / name
        path.write_text(json.dumps(data))
        argv.append(str(path))
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["poly", "--kind", "indep"],
        ["poly", "--kind", "reduced"],
        ["hessian", "--kind", "indep", "--at", ",".join(["1"] * 41)],
    ],
)
def test_independent_sets_of_a_large_free_matroid_exit_2(tmp_path, capsys, argv):
    # 2^40 independent sets: the size guard refuses them before any is built
    path = tmp_path / "free40.json"
    path.write_text(json.dumps({"n": 40, "bases": [list(range(1, 41))]}))
    assert run(argv[:1] + [str(path)] + argv[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.err.startswith("error: ")


_U23 = {"n": 3, "bases": [[1, 2], [1, 3], [2, 3]]}
_POINT = {"n": 1, "bases": [[1]]}


@pytest.mark.parametrize(
    "data, field",
    [
        ({"source": [1], "target": _POINT, "map": [1, 1, 1]}, "source"),
        ({"source": _U23, "target": "U(1,1)", "map": [1, 1, 1]}, "target"),
        ({"source": {"n": 3}, "target": _POINT, "map": [1, 1, 1]}, "source"),
        ({"source": _U23, "target": _POINT, "map": "111"}, "map"),
        ({"source": _U23, "target": _POINT, "map": {"1": 1}}, "map"),
        ({"source": _U23, "target": _POINT, "map": ["a", 1, 1]}, "map"),
        ({"source": _U23, "target": _POINT, "map": [True, 1, 1]}, "map"),
        ({"source": _U23, "target": _POINT, "map": [1.0, 1, 1]}, "map"),
        ({"target": _POINT, "map": [1, 1, 1]}, "source"),
        ({"source": _U23, "map": [1, 1, 1]}, "target"),
        ({"source": _U23, "target": _POINT}, "map"),
    ],
)
def test_malformed_morphism_input_exits_2_with_one_line(tmp_path, capsys, data, field):
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(data))
    assert run(["morphism", "validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.err.startswith("error: invalid morphism: field ")
    assert repr(field) in captured.err


def test_mason_indep_weighted_below_girth_is_strict(capsys):
    argv = ["mason", "indep", "--uniform", "3,6", "--k", "1", "--at", "1,2,3,1,1,1"]
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert "lhs=32/15 rhs=9/4 equal=false" in out
    assert "predicted_equal=false consistent=true" in out


def test_morphism_class_with_source_loop_in_loop_preimage(tmp_path, capsys):
    # class B whose one loop-preimage element (3) is a loop of the source
    path = tmp_path / "phi.json"
    path.write_text(
        json.dumps(
            {
                "source": {"n": 3, "bases": [[1, 2]]},
                "target": {"n": 2, "bases": [[1]]},
                "map": [1, 1, 2],
            }
        )
    )
    assert run(["morphism", "class", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "classes=B annihilator=(0,0,0,1)\n"
    assert captured.err == ""


@pytest.mark.parametrize("what", ["slp1", "hrr1"])
def test_check_lines_and_exit_codes(capsys, u23_file, what):
    name = what.upper()
    assert run(["check", what, u23_file, "--at", "0,0,1"]) == 1
    assert capsys.readouterr().out == f"{name}: inapplicable (value not positive)\n"
    assert run(["check", what, u23_file, "--kind", "indep", "--at", "0,0,0,1"]) == 1
    assert capsys.readouterr().out == f"{name}: inapplicable (value not positive)\n"
    assert run(["check", what, u23_file, "--at", "1/2,2,3"]) == 0
    assert capsys.readouterr().out == f"{name}: true inertia=(1,2,0) grad_rank=3\n"
    # the reduced polynomial of U(2,3) has dependent partials: one zero
    # eigenvalue, matching the gradient rank 3 of its 4 variables
    assert run(["check", what, u23_file, "--kind", "reduced", "--at", "0,1,1,1"]) == 0
    assert capsys.readouterr().out == f"{name}: true inertia=(1,2,1) grad_rank=3\n"


@pytest.mark.parametrize(
    "kind, inertia",
    # the basis Hessian of U(3,8) is non-singular, so g is read off its
    # inertia; the reduced one has an annihilator, so g is the Gram rank
    [("basis", "(1,7,0)"), ("reduced", "(1,7,1)")],
)
def test_check_grad_rank_from_either_route(capsys, kind, inertia):
    for what in ("slp1", "hrr1"):
        assert run(["check", what, "--uniform", "3,8", "--kind", kind]) == 0
        out = capsys.readouterr().out
        assert out == f"{what.upper()}: true inertia={inertia} grad_rank=8\n"


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["frob"],
        ["survey"],
        ["poly", "U23", "--kind", "bogus"],
        ["mason", "basis", "U23", "--i", "x", "--j", "2"],
        ["check", "hrr1", "U23", "--at"],
        ["check", "slp1", "U23", "--seed", "3"],
        ["mason", "indep", "U23", "--k", "1", "--i", "1"],
    ],
)
def test_usage_errors_exit_2_with_one_line(capsys, u23_file, argv):
    argv = [u23_file if a == "U23" else a for a in argv]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, code",
    [
        (["check", "hrr1", "U23", "--kind", "basis"], 0),
        (["hessian", "U23"], 0),
        (["mason", "basis", "U23", "--i", "1", "--j", "2"], 2),
        (["mason", "indep", "U23", "--k", "1"], 2),
    ],
)
def test_at_value_with_a_leading_minus_reads_either_way(capsys, u23_file, argv, code):
    # `--at -1,2,3` is read as `--at=-1,2,3`, not as an option -1,2,3
    argv = [u23_file if a == "U23" else a for a in argv]
    assert run(argv + ["--at", "-1,2,3"]) == code
    spaced = capsys.readouterr()
    assert run(argv + ["--at=-1,2,3"]) == code
    assert capsys.readouterr() == spaced
    if code == 2:
        assert spaced.err == "error: weights must be strictly positive\n"
    else:
        assert spaced.out and not spaced.err


@pytest.mark.parametrize(
    "argv",
    [
        ["mason", "indep", "--uniform", "2,3", "--k", "1", "--at", "1,1"],
        ["mason", "basis", "--uniform", "2,3", "--i", "1", "--j", "2", "--at", "0,1"],
    ],
)
def test_mason_weights_of_the_wrong_length_name_the_count(capsys, argv):
    # the length is checked before the signs: `0,1` is short, whatever its signs
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: point needs 3 weights (one per element), got 2\n"


@pytest.mark.parametrize(
    "argv, code",
    [
        (["matroid-info", "--format", "json"], 0),
        (["poly", "--kind", "reduced"], 0),
        (["hessian", "--kind", "indep", "--at", "1,2,3,1/2"], 0),
        (["check", "slp1", "--kind", "basis"], 0),
        (["check", "hrr1", "--kind", "reduced", "--at", "0,1,1,1"], 0),
        (["check", "lorentz-witness", "--kind", "indep", "--seed", "3"], 0),
        (["check", "lorentz-exact", "--kind", "basis"], 0),
        (["check", "hrr1", "--at", "0,0,1"], 1),
        (["mason", "basis", "--i", "1", "--j", "2", "--at", "1,2,3"], 0),
        (["mason", "indep", "--k", "1"], 0),
        (["mason", "indep", "--k", "9"], 2),
    ],
)
def test_file_before_or_after_the_options_reads_the_same(capsys, u23_file, argv, code):
    split = 2 if argv[0] in ("check", "mason") else 1
    outcomes = []
    for order in (argv[:split] + [u23_file] + argv[split:], argv + [u23_file]):
        got = run(order)
        captured = capsys.readouterr()
        outcomes.append((got, captured.out, captured.err))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == code
    assert outcomes[0][1 if code < 2 else 2]


@pytest.mark.parametrize("argv", [["--help"], ["check", "--help"]])
def test_help_exits_0(capsys, argv):
    assert run(argv) == 0
    assert capsys.readouterr().out.startswith("usage: mlz")


@pytest.mark.parametrize(
    "argv",
    [
        ["hessian", "U23"],
        ["check", "hrr1", "U23"],
        ["check", "lorentz-witness", "U23"],
        ["mason", "basis", "U23", "--i", "1", "--j", "2"],
    ],
)
def test_empty_point_exits_2(capsys, u23_file, argv):
    argv = [u23_file if a == "U23" else a for a in argv]
    assert run(argv + ["--at", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: bad rational ''")


def test_hessian_at_fractional_point_text_and_json(capsys, u23_file):
    argv = ["hessian", u23_file, "--kind", "indep", "--at", "1/2,2/3,3,1"]
    rows = [
        ["37/3", "5", "8/3", "14/3"],
        ["5", "0", "1/2", "1/2"],
        ["8/3", "1/2", "0", "1/2"],
        ["14/3", "1/2", "1/2", "0"],
    ]
    assert run(argv) == 0
    assert capsys.readouterr().out == "".join(
        " ".join(row) + "\n" for row in rows
    ) + "inertia=(1,3,0)\n"
    assert run(argv + ["--format", "json"]) == 0
    assert capsys.readouterr().out == json.dumps(
        {"rows": rows, "inertia": {"pos": 1, "neg": 3, "zero": 0}}, sort_keys=True
    ) + "\n"


def test_hessian_inertia_is_taken_at_the_given_point(capsys, u23_file):
    # singular at (0, 1/2, 0, 1), unlike at (1, ..., 1)
    argv = ["hessian", u23_file, "--kind", "indep", "--at", "0,1/2,0,1"]
    assert run(argv) == 0
    assert capsys.readouterr().out == (
        "3 1 3/2 1/2\n1 0 0 0\n3/2 0 0 0\n1/2 0 0 0\ninertia=(1,1,2)\n"
    )


@pytest.mark.parametrize("kind", ["basis", "indep"])
def test_lorentz_exact_on_u49(capsys, tmp_path, kind):
    path = tmp_path / "U4_9.json"
    bases = [list(b) for b in itertools.combinations(range(1, 10), 4)]
    path.write_text(json.dumps({"n": 9, "bases": bases}))
    assert run(["check", "lorentz-exact", str(path), "--kind", kind]) == 0
    assert capsys.readouterr().out == "LORENTZ-EXACT: true\n"


def test_lorentz_exact_takes_no_point(capsys, u23_file):
    assert run(["check", "lorentz-exact", u23_file, "--at", "1,1,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: lorentz-exact is point-free and takes no --at\n"


def test_lorentz_witness_at_point_prints_no_seed(capsys, u23_file):
    # --at gives the point, so the seed chooses nothing and is not printed
    argv = ["check", "lorentz-witness", u23_file, "--kind", "indep", "--at", "1,1,1,1"]
    line = "LORENTZ-WITNESS: pass checked=5 zero=0 degree2=4 sampled=1\n"
    assert run(argv + ["--seed", "99"]) == 0
    assert capsys.readouterr().out == line
    assert run(argv) == 0
    assert capsys.readouterr().out == line


def test_one_parser_serves_a_sequence_of_runs(capsys, u23_file):
    # run() builds its parser once per process; each call must exit and
    # print as it does with a parser built for it alone
    from mlz import cli

    sequence = [
        ["poly", u23_file, "--kind", "bogus"],
        ["check", "hrr1", u23_file, "--kind", "basis", "--at", "1,1,1"],
        ["--help"],
        ["check", "--help"],
        ["check", "slp1", u23_file, "--kind", "reduced", "--at", "0,1/2,1/2,3"],
        ["frob"],
    ]

    def outcome(argv):
        code = run(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in sequence:
        cli._parser.cache_clear()
        fresh.append(outcome(argv))
    cli._parser.cache_clear()
    shared = [outcome(argv) for argv in sequence]
    assert cli._parser.cache_info().misses == 1
    assert shared == fresh
    assert [code for code, _, _ in shared] == [2, 0, 0, 0, 0, 2]


# -- property: every argument vector ends in 0, 1 or 2 ---------------------------------

_ELEMENT = st.one_of(
    st.integers(min_value=-1, max_value=7),
    st.sampled_from([True, None, 1.5, "1", [1]]),
)
_SIZE = st.one_of(st.integers(-1, 6), st.sampled_from([40, "3", None, 2.0]))
_JSON_VALUE = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 9), st.text(max_size=3)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=3), inner, max_size=3),
    ),
    max_leaves=6,
)


@functools.cache
def _morphisms() -> list:
    """The 2055 morphisms from catalog sources on at most three elements to
    targets on at most three."""
    targets = [t for tn in (1, 2, 3) for t in catalog(tn)]
    sources = [m for n in (1, 2, 3) for m in catalog(n)]
    return [phi for m in sources for phi in enumerate_morphisms(m, targets)]


@st.composite
def _matroid_data(draw):
    """A catalog matroid on at most five elements, or a drawn object that
    may or may not be one."""
    if draw(st.integers(0, 2)) < 2:
        n = draw(st.integers(min_value=1, max_value=5))
        return draw(st.sampled_from(catalog(n))).to_json_dict()
    data = {
        "n": draw(_SIZE),
        "bases": draw(
            st.one_of(st.lists(st.lists(_ELEMENT, max_size=4), max_size=4), _JSON_VALUE)
        ),
    }
    for key in draw(st.sets(st.sampled_from(["n", "bases"]), max_size=1)):
        del data[key]
    return data


@st.composite
def _morphism_data(draw):
    """A morphism between catalog matroids, or a drawn object that may or
    may not be one."""
    if draw(st.integers(0, 2)) < 2:
        return draw(st.sampled_from(_morphisms())).to_json_dict()
    data = {
        "source": draw(_matroid_data()),
        "target": draw(_matroid_data()),
        "map": draw(st.one_of(st.lists(_ELEMENT, max_size=6), _JSON_VALUE)),
    }
    for key in draw(st.sets(st.sampled_from(["source", "target", "map"]), max_size=1)):
        del data[key]
    return data


_GRAPH = st.fixed_dictionaries(
    {
        "vertices": st.one_of(st.integers(-1, 5), _JSON_VALUE),
        "edges": st.one_of(
            st.lists(st.lists(st.integers(-1, 6), min_size=2, max_size=3), max_size=6),
            _JSON_VALUE,
        ),
    }
)


def _file_text(draw, data_strategy) -> str:
    """JSON of a drawn object, mostly; else JSON that is not an object, or
    text that is not JSON."""
    kind = draw(st.sampled_from(["object"] * 5 + ["json", "text"]))
    if kind == "object":
        return json.dumps(draw(data_strategy))
    if kind == "json":
        return json.dumps(draw(_JSON_VALUE))
    return draw(st.text(max_size=12))


def _loaded(load, text: str):
    """What the package loads from this file text, or None where it
    refuses the text as input."""
    try:
        data = json.loads(text)
    except ValueError:
        return None
    if not isinstance(data, dict):
        return None
    try:
        return load(data)
    except (KeyError, MatroidError, MorphismError):
        return None


def _load_graph(data):
    return graphic_matroid(data["vertices"], data["edges"])


_INT_TEXT = st.sampled_from(list("1234") * 2 + ["0", "-1", "x", "1.5", "9" * 20])
_COORDINATE = st.sampled_from(
    ["1", "2", "1/2", "3/4", "5", "0", "1", "2", "-1", "x", "1/0", ""]
)


def _point_text(n):
    """--at values: mostly n or n + 1 coordinates (a basis or an x0-padded
    polynomial of a matroid on n elements), else any count or any text."""
    if n is None:
        sizes = st.integers(1, 7)
    else:
        sizes = st.sampled_from([n, n + 1, n + 1, n + 2])
    coordinates = sizes.flatmap(lambda k: st.lists(_COORDINATE, min_size=k, max_size=k))
    return st.one_of(coordinates.map(",".join), st.text(max_size=6))
# the real flags of each command, and values mostly in range
_KIND = st.sampled_from(["basis", "indep", "reduced"] * 3 + ["dual"])
_FORMAT = st.sampled_from(["text", "json"] * 3 + ["csv"])
_FLAGS = {
    "matroid-info": {"--format": _FORMAT},
    "poly": {"--kind": _KIND, "--format": _FORMAT},
    "hessian": {"--kind": _KIND, "--at": None, "--format": _FORMAT},
    "check": {"--kind": _KIND, "--at": None, "--seed": _INT_TEXT},
    "mason": {"--at": None},
}
_WHAT = {
    "check": ["slp1", "hrr1"] * 3 + ["lorentz-witness", "lorentz-exact", "slp2"],
    "mason": ["basis", "indep"] * 3 + ["both"],
}


@st.composite
def _cli_case(draw, folder):
    """(argv, rejected): an argument vector over the real commands and
    flags, and whether the package refuses its one matroid or morphism
    source."""
    command = draw(st.sampled_from(sorted(_FLAGS) + ["morphism", "survey", "bogus"]))
    argv = [command]
    if command == "bogus":
        argv += draw(st.lists(st.sampled_from(["--n", "1", "-x"]), max_size=2))
        return argv, False
    if command == "survey":
        argv += ["--n", draw(st.sampled_from(["-1", "0", "1", "2", "7", "two"]))]
        if draw(st.booleans()):
            argv += ["--seed", draw(_INT_TEXT)]
        if draw(st.booleans()):
            argv.append("--no-morphisms")
        if draw(st.booleans()):
            argv += ["--format", draw(st.sampled_from(["text", "json", "tsv", "xml"]))]
        return argv, False
    if command == "morphism":
        text = _file_text(draw, _morphism_data())
        path = folder / "phi.json"
        path.write_text(text)
        what = draw(st.sampled_from(["validate", "class", "eurhuh", "shape"]))
        argv += [what, str(path)]
        return argv, _loaded(morphism_from_json_dict, text) is None
    if command in _WHAT:
        argv.append(draw(st.sampled_from(_WHAT[command])))
    m = None
    given_source = []  # the matroid source, before or after the options
    source = draw(st.sampled_from(["file"] * 4 + ["uniform"] * 2 + ["graphic", "none"]))
    if source == "uniform":
        n = draw(st.integers(-1, 5))
        r = draw(st.integers(-1, max(n, 0)))
        text = draw(st.sampled_from([f"{r},{n}"] * 4 + [f"{n},{r}", f"{r}", "a,b"]))
        given_source = ["--uniform", text]
        try:
            m = uniform(*(int(v) for v in text.split(",")))
        except (TypeError, ValueError, MatroidError):
            pass
    elif source != "none":
        graphic = source == "graphic"
        text = _file_text(draw, _GRAPH if graphic else _matroid_data())
        path = folder / ("graph.json" if graphic else "matroid.json")
        path.write_text(text)
        given_source = ["--graphic", str(path)] if graphic else [str(path)]
        m = _loaded(_load_graph if graphic else from_json_dict, text)
    options = []
    if command == "mason":
        for flag in ("--i", "--j") if argv[1] == "basis" else ("--k",):
            if draw(st.integers(0, 5)):
                options += [flag, draw(_INT_TEXT)]
    flags = _FLAGS[command]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=2, unique=True)):
        value = draw(_point_text(m and m.n) if flags[flag] is None else flags[flag])
        options += [f"{flag}={value}"] if value.startswith("-") else [flag, value]
    if draw(st.booleans()):
        argv += given_source + options
    else:
        argv += options + given_source
    return argv, source != "none" and m is None


@pytest.fixture(scope="module")
def cli_folder(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-property")


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_any_argument_vector_exits_0_1_or_2(cli_folder, data):
    # malformed input, the matroid or morphism source above all, exits 2
    # with one `error:` line and never 1; nothing escapes as a traceback
    argv, rejected = data.draw(_cli_case(cli_folder))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    err = err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, (argv, err)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    if rejected:
        assert code != 1, (argv, out.getvalue(), err)
