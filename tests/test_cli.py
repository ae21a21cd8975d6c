import json

import pytest

from ttolab.cli import main


def write_problem(tmp_path, problem, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(problem))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


Z2 = {"zeros": [[0.0, 0.0], [0.0, 0.0]]}


def test_classify_task(tmp_path, capsys):
    problem = {
        "u": Z2,
        "tasks": [{"kind": "classify",
                   "operator": {"matrix": [[[0, 0], [2, 0]], [[1, 0], [0, 0]]]}}],
    }
    code, out, _ = run(capsys, ["--input", write_problem(tmp_path, problem)])
    assert code == 0
    report = json.loads(out)
    result = report["results"][0]["result"]
    assert result["type"] == "alpha"
    assert result["value"][0] == pytest.approx(2.0, abs=1e-12)


def test_classify_non_tto_reports_cleanly(tmp_path, capsys):
    problem = {
        "u": Z2,
        "tasks": [{"kind": "classify",
                   "operator": {"matrix": [[[1, 0], [0, 0]], [[0, 0], [5, 0]]]}}],
    }
    code, out, _ = run(capsys, ["--input", write_problem(tmp_path, problem)])
    assert code == 0
    assert json.loads(out)["results"][0]["result"]["type"] == "not_a_tto"


def test_is_tto_with_symbol_operator(tmp_path, capsys):
    problem = {
        "u": Z2,
        "tasks": [{"kind": "is_tto",
                   "operator": {"symbol": {"analytic": [[0, 0], [1, 0]]}}}],
    }
    code, out, _ = run(capsys, ["--input", write_problem(tmp_path, problem)])
    assert code == 0
    result = json.loads(out)["results"][0]["result"]
    assert result["passed"] is True
    assert result["residual"] < 1e-12
    assert "symbol" in result


def test_clark_task(tmp_path, capsys):
    problem = {"u": Z2, "tasks": [{"kind": "clark", "alpha": [1.0, 0.0]}]}
    code, out, _ = run(capsys, ["--input", write_problem(tmp_path, problem)])
    assert code == 0
    result = json.loads(out)["results"][0]["result"]
    assert result["total_mass"] == pytest.approx(1.0)
    assert sorted(p[0] for p in result["points"]) == pytest.approx([-1.0, 1.0])


def test_verify_all_deterministic(tmp_path, capsys):
    problem = {"u": {"zeros": [[0.5, 0.0], [0.0, -0.3]]},
               "tasks": [{"kind": "verify_all"}]}
    path = write_problem(tmp_path, problem)
    code1, out1, _ = run(capsys, ["--input", path, "--trials", "5"])
    code2, out2, _ = run(capsys, ["--input", path, "--trials", "5"])
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["passed"] is True
    checks = report["results"][0]["result"]["checks"]
    assert all(c["passed"] for c in checks)


def test_exit_one_when_verification_fails(tmp_path, capsys):
    problem = {"u": Z2, "tasks": [{"kind": "verify_all"}]}
    code, out, _ = run(capsys, ["--input", write_problem(tmp_path, problem),
                                "--trials", "4", "--tol-scale", "1e-20"])
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_text_mode(tmp_path, capsys):
    problem = {"u": Z2, "tasks": [{"kind": "clark", "alpha": [1.0, 0.0]}]}
    code, out, _ = run(capsys, ["--input", write_problem(tmp_path, problem), "--text"])
    assert code == 0
    assert "clark:" in out and "overall: pass" in out


def test_output_file_written(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    problem = {"u": Z2, "output": str(out_path),
               "tasks": [{"kind": "clark", "alpha": [1.0, 0.0]}]}
    code, out, _ = run(capsys, ["--input", write_problem(tmp_path, problem)])
    assert code == 0
    assert json.loads(out_path.read_text())["passed"] is True


@pytest.mark.parametrize("output", [True, 7, ""], ids=["true", "integer", "empty"])
def test_schema_error_output_not_a_path(tmp_path, capsys, output):
    # a non-string output used to be opened as a file descriptor
    problem = {"u": Z2, "output": output,
               "tasks": [{"kind": "clark", "alpha": [1.0, 0.0]}]}
    code, out, err = run(capsys, ["--input", write_problem(tmp_path, problem)])
    assert code == 2
    assert out == ""
    assert "error:" in err and "output" in err


def test_unwritable_output_path(tmp_path, capsys):
    problem = {"u": Z2, "output": str(tmp_path / "absent" / "report.json"),
               "tasks": [{"kind": "clark", "alpha": [1.0, 0.0]}]}
    code, _, err = run(capsys, ["--input", write_problem(tmp_path, problem)])
    assert code == 2
    assert "error:" in err and "output" in err


def test_schema_error_missing_u(tmp_path, capsys):
    code, _, err = run(capsys, ["--input", write_problem(tmp_path, {"tasks": [{}]})])
    assert code == 2
    assert "error:" in err


def test_schema_error_bad_kind(tmp_path, capsys):
    problem = {"u": Z2, "tasks": [{"kind": "explode"}]}
    code, _, err = run(capsys, ["--input", write_problem(tmp_path, problem)])
    assert code == 2
    assert "kind" in err


def test_schema_error_wrong_matrix_shape(tmp_path, capsys):
    problem = {"u": Z2,
               "tasks": [{"kind": "is_tto", "operator": {"matrix": [[[0, 0]]]}}]}
    code, _, err = run(capsys, ["--input", write_problem(tmp_path, problem)])
    assert code == 2
    assert "2 x 2" in err


def test_schema_error_bad_complex_pair(tmp_path, capsys):
    problem = {"u": {"zeros": [[0.5, 0.0, 1.0]]}, "tasks": [{"kind": "verify_all"}]}
    code, _, err = run(capsys, ["--input", write_problem(tmp_path, problem)])
    assert code == 2


PAIR = '{"numerator": [[1, 0]], "denominator": [[2, 0]]}'
BIG = "1" + "0" * 400  # a JSON integer too large for a float


@pytest.mark.parametrize("symbol", [
    "5",
    '{"constant": [1]}',
    '{"rational_terms": [5]}',
    '{"rational_terms": [{"pair": %s, "clark_alpha": "x"}]}' % PAIR,
    '{"rational_terms": [{"pair": %s, "clark_alpha": [0.1]}]}' % PAIR,
    '{"analytic": [[%s, 0], [0, 0]]}' % BIG,
    '{"rational_terms": [{"pair": {"numerator": [[%s, 0]], "denominator": [[2, 0]]}}]}' % BIG,
    '{"analytic": [[true, 0], [0, 0]]}',
    '{"analytic": [[1, 0, 0], [0, 0]]}',
    '{"constant": [%s, 0]}' % ("1" + "0" * 5000),
], ids=["number", "short constant", "number term", "string alpha", "short alpha",
        "big analytic", "big numerator", "bool coordinate", "triple", "unparsable integer"])
def test_schema_error_malformed_symbol(tmp_path, capsys, symbol):
    # every pair goes through one strict reader: exit 2 with one error line
    path = tmp_path / "problem.json"
    path.write_text('{"u": %s, "tasks": [{"kind": "is_tto", "operator": {"symbol": %s}}]}'
                    % (json.dumps(Z2), symbol))
    code, out, err = run(capsys, ["--input", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_schema_error_operator_needs_one_source(tmp_path, capsys):
    problem = {"u": Z2, "tasks": [{"kind": "is_tto", "operator": {}}]}
    code, _, err = run(capsys, ["--input", write_problem(tmp_path, problem)])
    assert code == 2
    assert "matrix" in err and "symbol" in err


def test_schema_error_not_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, ["--input", str(path)])
    assert code == 2


def test_schema_error_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, ["--input", str(tmp_path / "absent.json")])
    assert code == 2


def test_schema_error_zero_near_boundary(tmp_path, capsys):
    problem = {"u": {"zeros": [[1.0, 0.0]]}, "tasks": [{"kind": "verify_all"}]}
    code, _, err = run(capsys, ["--input", write_problem(tmp_path, problem)])
    assert code == 2
    assert "Blaschke" in err


def _rational_symbol_task(numerator, denominator, clark_alpha=None):
    term = {"pair": {"numerator": numerator, "denominator": denominator}}
    if clark_alpha is not None:
        term["clark_alpha"] = clark_alpha
    return {"u": {"zeros": [[0.5, 0.0], [0.0, -0.3]]},
            "tasks": [{"kind": "is_tto",
                       "operator": {"symbol": {"rational_terms": [term]}}}]}


@pytest.mark.parametrize("problem", [
    {"u": Z2, "tasks": [{"kind": "is_tto",
                         "operator": {"matrix": [[[float("nan"), 0], [0, 0]],
                                                 [[1, 0], [0, 0]]]}}]},
    {"u": Z2, "tasks": [{"kind": "clark", "alpha": [float("nan"), 0.0]}]},
    {"u": {"zeros": [[0.5, float("inf")]]}, "tasks": [{"kind": "verify_all"}]},
    # an infinite denominator coefficient used to be scaled into a constant
    # denominator, and the zero operator was reported as passed
    _rational_symbol_task([[1, 0]], [[float("inf"), 0], [1, 0]]),
    _rational_symbol_task([[float("nan"), 0]], [[1, 0]]),
    _rational_symbol_task([[1, 0]], [[1, 0]], [float("nan"), 0]),
], ids=["nan matrix entry", "nan alpha", "infinite zero", "infinite rational denominator",
        "nan rational numerator", "nan clark_alpha"])
def test_schema_error_non_finite_number(tmp_path, capsys, problem):
    code, _, err = run(capsys, ["--input", write_problem(tmp_path, problem)])
    assert code == 2
    assert "error:" in err and "finite" in err


@pytest.mark.parametrize("problem", [
    _rational_symbol_task([[1, 0]], [[-0.6, -0.8], [1, 0]]),
    _rational_symbol_task([[1, 0]], [[-0.5, 0], [1, 0]], [0.0, 1.0]),
], ids=["pole on the circle", "unimodular clark_alpha"])
def test_rational_term_with_circle_poles_exits_1(tmp_path, capsys, problem):
    code, out, err = run(capsys, ["--input", write_problem(tmp_path, problem)])
    assert code == 1 and out == ""
    assert err.startswith("numerical failure: ") and "circle" in err, err


@pytest.mark.parametrize("alpha", [[0.5, 0.0], [0.0, 0.0], [2.0, 0.0]],
                         ids=["inside", "zero", "outside"])
def test_schema_error_clark_alpha_off_circle(tmp_path, capsys, alpha):
    # used to exit 1 as a numerical failure of clark_data
    problem = {"u": Z2, "tasks": [{"kind": "clark", "alpha": alpha}]}
    code, out, err = run(capsys, ["--input", write_problem(tmp_path, problem)])
    assert code == 2
    assert out == ""
    assert "error:" in err and "unimodular" in err


@pytest.mark.parametrize("kind", ["is_tto", "classify"])
def test_overflowing_operator_norm_is_a_numerical_failure(tmp_path, capsys, kind):
    # the norm overflowed to inf, the threshold with it, and is_tto passed
    huge = [[[1e308, 0.0]] * 2] * 2
    problem = {"u": {"zeros": [[0.5, 0.0], [0.0, -0.3]]},
               "tasks": [{"kind": kind, "operator": {"matrix": huge}}]}
    code, out, err = run(capsys, ["--input", write_problem(tmp_path, problem)])
    assert code == 1
    assert out == ""
    assert "numerical failure:" in err and "not finite" in err


@pytest.mark.parametrize("option, value", [
    ("--seed", "-1"),
    ("--trials", "0"),
    ("--tol-scale", "nan"),
    ("--tol-scale", "-1"),
    ("--tol-scale", "inf"),
])
def test_out_of_range_option_rejected(tmp_path, capsys, option, value):
    problem = {"u": Z2, "tasks": [{"kind": "verify_all"}]}
    with pytest.raises(SystemExit) as exc:
        main(["--input", write_problem(tmp_path, problem), option, value])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
