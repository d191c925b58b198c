import itertools
import json

import pytest

from mlz.cli import run


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
    "argv",
    [
        [],
        ["frob"],
        ["survey"],
        ["poly", "U23", "--kind", "bogus"],
        ["mason", "basis", "U23", "--i", "x", "--j", "2"],
        # argparse reads -1,1,1 as an option, so --at has no value
        ["check", "hrr1", "U23", "--at", "-1,1,1"],
    ],
)
def test_usage_errors_exit_2_with_one_line(capsys, u23_file, argv):
    argv = [u23_file if a == "U23" else a for a in argv]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")


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
