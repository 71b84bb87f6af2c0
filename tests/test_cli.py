"""End-to-end CLI behavior through main(argv)."""
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

import weylrack
from weylrack.cache import ResultRecord
from weylrack.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, "--json", *argv)
    return code, json.loads(out)


def test_classes_text_and_json(capsys):
    code, out = run(capsys, "classes", "--group", "B", "--n", "2")
    assert code == 0 and "5 classes" in out
    code, data = run_json(capsys, "classes", "--group", "B", "--n", "3")
    assert code == 0
    assert data["count"] == 10
    assert sum(r["size"] for r in data["classes"]) == 48


def test_classes_single_rep(capsys):
    code, data = run_json(capsys, "classes", "--n", "3", "--rep", "000:(1 2)")
    assert code == 0 and data["count"] == 1
    assert data["classes"][0]["size"] * data["classes"][0]["centralizer_order"] == 48


@pytest.mark.parametrize("group,count,total", [("B", 185, 10_321_920), ("D", 100, 5_160_960)])
def test_classes_rank_8_sized_without_listing(capsys, group, count, total):
    # listing the elements by BFS would take minutes
    t0 = time.monotonic()
    code, data = run_json(capsys, "classes", "--group", group, "--n", "8")
    assert time.monotonic() - t0 < 2.0
    assert code == 0 and data["count"] == count
    assert sum(r["size"] for r in data["classes"]) == total


def test_typed_proven_and_exception(capsys):
    code, data = run_json(capsys, "typed", "--n", "5", "--rep", "00000:(1 2 3 4 5)")
    assert code == 0 and data["status"] == "ProvenTypeD"
    assert data["witness"] is not None
    code, data = run_json(capsys, "typed", "--n", "5", "--rep", "00000:(1 2)(3 4)(5)")
    assert code == 0 and data["status"] == "InExceptionList"


def test_typed_uses_cache(capsys, tmp_path):
    argv = ["--cache-dir", str(tmp_path), "typed", "--n", "5", "--rep", "00000:(1 2 3 4 5)"]
    code, data = run_json(capsys, *argv)
    assert code == 0 and data["cached"] is False
    code, data = run_json(capsys, *argv)
    assert code == 0 and data["cached"] is True


@pytest.mark.parametrize("edit", [
    lambda payload: 5,
    lambda payload: {"graded_dims": [1]},
    lambda payload: {**payload, "probe": 5},
])
def test_unprintable_cache_hit_is_recomputed(capsys, tmp_path, edit):
    # a checksummed line whose payload is not an object is skipped as
    # corrupt; one with a key missing or of the wrong type is a miss,
    # recomputed and appended
    argv = ["--cache-dir", str(tmp_path), "fk", "--n", "3"]
    code, fresh = run_json(capsys, *argv)
    path = tmp_path / "results.jsonl"
    rec = ResultRecord.from_line(path.read_text("utf-8"))
    rec.payload = edit(rec.payload)
    path.write_text(rec.to_line() + "\n", "utf-8")
    for cached in (False, True):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, data = run_json(capsys, *argv)
        assert code == 0 and data == {**fresh, "cached": cached}
        assert len(caught) == (not isinstance(rec.payload, dict))
    assert len(path.read_text("utf-8").splitlines()) == 2


def test_global_flags_after_subcommand(capsys, tmp_path):
    code, data = run_json(
        capsys, "typed", "--n", "5", "--rep", "00000:(1 2 3 4 5)",
        "--cache-dir", str(tmp_path),
    )
    assert code == 0
    assert (tmp_path / "results.jsonl").exists()


def test_sq_command(capsys):
    code, data = run_json(capsys, "sq", "--x", "01:(1 2)", "--y", "10:(1 2)")
    assert code == 0
    assert data["formulas_agree"] is True


def test_nichols_command(capsys):
    code, data = run_json(
        capsys, "nichols", "--group", "B", "--n", "2", "--rep", "11:()",
        "--char=-1,-1", "--max-degree", "6",
    )
    assert code == 0
    assert data["graded_dims"][0] == 1


def test_nichols_sign_character(capsys):
    # the rank-3 negative-diagonal class braids like a point with q = -1
    code, data = run_json(
        capsys, "nichols", "--n", "1", "--rep", "1:()", "--char", "-1",
        "--max-degree", "6",
    )
    assert code == 0
    assert data["graded_dims"] == [1, 1]
    assert data["terminated"] is True


def test_fk_command(capsys):
    code, data = run_json(capsys, "fk", "--n", "3", "--max-degree", "8")
    assert code == 0
    assert data["graded_dims"] == [1, 3, 4, 3, 1]
    assert data["engines_agree"] is True
    assert data["probe"]["status"] == "VanishesAtDegree"


def test_fk_json_payload(capsys):
    code, data = run_json(capsys, "fk", "--n", "3")
    assert code == 0
    assert sorted(data) == ["cached", "engines_agree", "graded_dims", "label", "probe", "total"]
    assert data["label"] == "E_3"


@pytest.mark.parametrize(
    "max_degree, status, degree", [("4", "StillGrowing", None), ("5", "VanishesAtDegree", 5)]
)
def test_fk_probe_boundary(capsys, max_degree, status, degree):
    # E_3 has dims [1, 3, 4, 3, 1]: the zero at degree 5 is seen only when
    # degree 5 is computed
    code, data = run_json(capsys, "fk", "--n", "3", "--max-degree", max_degree)
    assert code == 0
    assert data["probe"] == {"status": status, "degree": degree, "dims": [1, 3, 4, 3, 1]}


def test_fk_signs_file(capsys, tmp_path):
    signs = tmp_path / "signs.json"
    signs.write_text(json.dumps({"alpha": 1, "beta": 1, "gamma": -1, "lambda": 1}))
    code, data = run_json(
        capsys, "fk", "--n", "3", "--max-degree", "8", "--signs", str(signs)
    )
    assert code == 0 and data["total"] == 12


def test_verify_pass_and_fail_exit_codes(capsys):
    code, out = run(capsys, "verify", "--suite", "fk_dims", "--params", '{"max_n": 3}')
    assert code == 0 and "PASS" in out


def test_verify_json_deterministic(capsys):
    argv = ("verify", "--suite", "fk_dims", "--params", '{"max_n": 3}', "--seed", "5")
    _, a = run_json(capsys, *argv)
    _, b = run_json(capsys, *argv)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert a["seed"] == 5


def test_bad_group_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["classes", "--group", "Z", "--n", "2"])


def test_rank_mismatch_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["typed", "--n", "4", "--rep", "00000:(1 2 3 4 5)"])


@pytest.mark.parametrize(
    "argv",
    [
        ["classes", "--n", "0"],
        ["classes", "--n", "65"],
        ["fk", "--n", "3", "--max-degree", "0"],
        ["fk", "--n", "1"],
        ["nichols", "--n", "3", "--rep", "000:(1 2)", "--char", "sign", "--max-degree", "0"],
    ],
)
def test_out_of_range_arguments_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "is not" in err and "Traceback" not in err


def test_nichols_budget_exit_code(capsys):
    code = main(
        ["nichols", "--n", "3", "--rep", "000:(1 2)", "--char", "sign", "--budget", "10"]
    )
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.splitlines() == [
        "weylrack: degree-2 Nichols candidate entries exceeds its budget of 10 after dims [1, 6]"
    ]


def test_nichols_budget_exit_code_with_json(capsys):
    argv = ["--json", "nichols", "--n", "3", "--rep", "000:(1 2)", "--char", "sign",
            "--budget", "10"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert json.loads(captured.out) == {
        "error": "budget",
        "budget": "degree-2 Nichols candidate entries",
        "limit": 10,
        "dims": [1, 6],
    }
    assert captured.out == json.dumps(json.loads(captured.out), sort_keys=True, indent=2) + "\n"
    assert captured.err.splitlines() == [
        "weylrack: degree-2 Nichols candidate entries exceeds its budget of 10 after dims [1, 6]"
    ]


def test_typed_lifts_two_six_cycles_from_a_core(capsys):
    # the (6, 6) class of S_12 holds 6,652,800 > CLASS_BUDGET elements; the
    # lift reads the witness of the S_6 core (6), 120 elements, instead
    t0 = time.monotonic()
    code, data = run_json(capsys, "typed", "--n", "12", "--rep",
                          "000000000000:(1 2 3 4 5 6)(7 8 9 10 11 12)")
    assert time.monotonic() - t0 < 1.0
    assert code == 0 and data["status"] == "ProvenTypeD" and data["rule_tag"] == "sym_lift"


def test_typed_decides_a_twelve_cycle_by_its_power(capsys):
    # the 12-cycles of S_12 are 11! > CLASS_BUDGET elements; the power rule
    # lists no class: mu replaces the cycle by its fifth power
    code, data = run_json(capsys, "typed", "--n", "12", "--rep",
                          "000000000000:(1 2 3 4 5 6 7 8 9 10 11 12)")
    assert code == 0 and data["status"] == "ProvenTypeD"
    assert data["rule_tag"] == "cycle_power_fibers"
    assert (len(data["witness"]["R"]), len(data["witness"]["S"])) == (512, 512)


def test_typed_lifts_a_fixed_point_free_involution_class(capsys):
    # the (2^7) class of S_14 holds 135,135 elements; the lift scans only
    # its (2^5) core, the 945 elements of that class of S_10
    t0 = time.monotonic()
    code, data = run_json(capsys, "typed", "--n", "14", "--rep",
                          "00000000000000:(1 2)(3 4)(5 6)(7 8)(9 10)(11 12)(13 14)")
    assert time.monotonic() - t0 < 5.0
    assert code == 0 and data["status"] == "ProvenTypeD" and data["rule_tag"] == "sym_lift"


def test_classes_budget_exit_code(capsys):
    # B_40 has 9,035,539 classes; the reps are counted, not listed
    t0 = time.monotonic()
    code = main(["classes", "--group", "B", "--n", "40"])
    assert time.monotonic() - t0 < 1.0
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.splitlines() == [
        "weylrack: class list of B_40 (9035539 classes) exceeds its budget of 200000"
    ]


def test_fk_budget_exit_code(capsys):
    # E_4 relation rows hold 756 entries at degree 4
    code = main(["fk", "--n", "4", "--max-degree", "6", "--budget", "500"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    lines = captured.err.splitlines()
    assert lines == [
        "weylrack: degree-4 fk relation entries exceeds its budget of 500 after dims [1, 6, 19, 42]"
    ]
    code, data = run_json(capsys, "fk", "--n", "4", "--max-degree", "6", "--budget", "5000")
    assert code == 0 and data["graded_dims"] == [1, 6, 19, 42, 71, 96, 106]
    # the default budget admits E_6 degree 6: its last degree builds one label
    # block per class
    code, data = run_json(capsys, "fk", "--n", "6", "--max-degree", "6", "--engine", "linear")
    assert code == 0 and data["graded_dims"][-1] == 64432


@pytest.mark.parametrize(
    "argv",
    [
        ["classes", "--group", "D", "--n", "1"],
        ["typed", "--group", "D", "--n", "1", "--rep", "0:()"],
        ["nichols", "--group", "D", "--n", "1", "--rep", "0:()", "--char", "trivial"],
    ],
)
def test_d_rank_one_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--group D needs --n >= 2" in err and "Traceback" not in err


def _is_usage_error(line):
    # "weylrack: error: ..." from main, "weylrack <command>: error: ..." from argparse types
    return line.startswith("weylrack") and ": error: " in line


@pytest.mark.parametrize(
    "argv, message",
    [
        (["classes", "--n", "3", "--rep", "garbage"], "--rep: malformed element"),
        (["classes", "--group", "D", "--n", "3", "--rep", "100:(1 2)"], "not in D_3"),
        (["classes", "--n", "3", "--rep", "0000:(1 2)"], "--n disagrees"),
        (["typed", "--n", "3", "--rep", "000:(1 4)"], "--rep: cycle entry 4"),
        (["nichols", "--group", "S", "--n", "3", "--rep", "100:(1 2)", "--char", "sign"],
         "not in S_3"),
        (["nichols", "--n", "3", "--rep", "000:(1 2)", "--char", "bogus"], "--char: 'bogus'"),
        (["nichols", "--n", "3", "--rep", "000:(1 2)", "--char", "zeta0"], "--char: 'zeta0'"),
        (["nichols", "--n", "3", "--rep", "000:(1 2)", "--char", "2"], "--char: '2'"),
        (["sq", "--x", "01:(1 2)", "--y", "10:(1 3)"], "--y: cycle entry 3"),
        (["sq", "--x", "01:(1 2)", "--y", "100:(1 2)"], "share a rank"),
        (["verify", "--suite", "group_laws", "--params", "{bad json"], "--params:"),
        (["verify", "--suite", "group_laws", "--params", "[1]"], "--params: not a JSON object"),
        # the centralizer of (1 2) in S_3 is generated by (1 2), of order 2
        (["nichols", "--group", "S", "--n", "3", "--rep", "000:(1 2)", "--char", "zeta3"],
         "--char zeta3: not a character of the centralizer"),
    ]
    + [
        (["verify", "--suite", suite, "--params", params], f"--params: suite parameter '{key}'")
        for suite, params, key in [
            ("group_laws", '{"count": "a"}', "count"),
            ("group_laws", '{"max_n": true}', "max_n"),
            ("rack_axioms", '{"max_n": 1}', "max_n"),
            ("juxtaposition", '{"group": "Q"}', "group"),
            ("juxtaposition", '{"group": "D"}', "group"),
            ("type_d_witnesses", '{"cycle_signs": [32]}', "cycle_signs"),
            ("classification", '{"ranks": ["x"]}', "ranks"),
            ("classification", '{"ranks": 5}', "ranks"),
            ("classification", '{"groups": ["S"]}', "groups"),
            ("fk_dims", '{"max_n": 1.5}', "max_n"),
            # a key the suite does not read
            ("fk_dims", '{"maxn": 2}', "maxn"),
            # the classifier decides no class below rank 5
            ("classification", '{"ranks": [4]}', "ranks"),
            # above the largest rank the suite decides
            ("classification", '{"ranks": [17]}', "ranks"),
            # an empty list leaves the suite nothing to check
            ("classification", '{"ranks": []}', "ranks"),
            ("classification", '{"groups": []}', "groups"),
            ("type_d_witnesses", '{"cycle_signs": []}', "cycle_signs"),
        ]
    ],
)
def test_bad_values_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    lines = [line for line in captured.err.splitlines() if _is_usage_error(line)]
    assert len(lines) == 1 and message in lines[0]


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "No such file"),
        ("{bad json", "Expecting property name"),
        ("[1, 2]", "not a JSON object"),
        ('{"gamma": 2}', "gamma signs must be +1 or -1"),
        ('{"gamma": -1.0}', "gamma signs must be +1 or -1"),
        ('{"alpha": true}', "alpha signs must be +1 or -1"),
        ('{"gamma": {"1,2": -1}}', "no gamma sign for index (1, 3)"),
    ],
)
def test_bad_signs_files_are_usage_errors(capsys, tmp_path, content, message):
    signs = tmp_path / "signs.json"
    if content is not None:
        signs.write_text(content)
    with pytest.raises(SystemExit) as exc:
        main(["fk", "--n", "3", "--signs", str(signs)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    lines = [line for line in err.splitlines() if _is_usage_error(line)]
    assert "Traceback" not in err and len(lines) == 1
    assert f"--signs {signs}: " in lines[0] and message in lines[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["typed", "--n", "5", "--rep", "00000:(1 2 3 4 5)"],
        ["fk", "--n", "3"],
    ],
)
def test_cache_dir_naming_a_file_is_usage_error(capsys, tmp_path, argv):
    path = tmp_path / "not-a-directory"
    path.write_text("")
    with pytest.raises(SystemExit) as exc:
        main(["--cache-dir", str(path), *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    lines = [line for line in captured.err.splitlines() if _is_usage_error(line)]
    assert len(lines) == 1 and lines[0].startswith(f"weylrack: error: --cache-dir {path}: ")


def test_char_value_count_is_usage_error(capsys):
    # the class of 000:(1 2) in B_3 has a centralizer with 3 generators
    with pytest.raises(SystemExit) as exc:
        main(["nichols", "--n", "3", "--rep", "000:(1 2)", "--char", "1,1,1,1,1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    lines = [line for line in captured.err.splitlines() if _is_usage_error(line)]
    assert len(lines) == 1
    assert "5 values given" in lines[0] and "has 3 generators" in lines[0]


def test_char_roots_of_unity(capsys):
    # -1 and zeta2^1 name the same scalar, so both give the sign-character dims
    dims = []
    for char in ("-1", "zeta2", "zeta4^2"):
        code, data = run_json(
            capsys, "nichols", "--n", "1", "--rep", "1:()", "--char", char, "--max-degree", "4"
        )
        assert code == 0
        dims.append(data["graded_dims"])
    assert dims == [[1, 1]] * 3


def test_nichols_non_rational_character(capsys):
    code, data = run_json(
        capsys, "nichols", "--group", "S", "--n", "3", "--rep", "000:(1 2 3)",
        "--char", "zeta3^1", "--max-degree", "4",
    )
    assert code == 0
    assert data["graded_dims"] == [1, 2, 4, 6, 10]
    assert data["total"] == 23


@pytest.mark.parametrize("value", ["0", "-3", "x"])
@pytest.mark.parametrize("before", [True, False])
def test_budget_below_one_is_a_usage_error(capsys, value, before):
    argv = ["fk", "--n", "4"]
    argv = ["--budget", value, *argv] if before else [*argv, "--budget", value]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "argument --budget" in captured.err and "exceeds" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["classes", "--n", "3"],
        ["typed", "--n", "6", "--rep", "000000:(1 2 3 4)"],
        ["sq", "--x", "01:(1 2)", "--y", "10:(1 2)"],
        ["verify", "--suite", "group_laws"],
    ],
)
def test_budget_rejected_where_no_budget_is_read(capsys, argv):
    for placed in (["--budget", "5", *argv], [*argv, "--budget", "5"]):
        with pytest.raises(SystemExit) as exc:
            main(placed)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        (line,) = [line for line in captured.err.splitlines() if _is_usage_error(line)]
        assert "--budget applies only to nichols and fk" in line and argv[0] in line



def test_reader_closing_the_pipe_ends_the_command_quietly():
    # S_25 lists 1958 classes, about 300 KB: more than a pipe buffer holds
    env = {**os.environ, "PYTHONPATH": str(Path(weylrack.__file__).resolve().parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "weylrack.cli", "classes", "--group", "S", "--n", "25"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline().startswith(b"S_25: 1958 classes")
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 141
    assert "Traceback" not in err and "BrokenPipeError" not in err
