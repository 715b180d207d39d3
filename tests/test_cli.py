"""End-to-end runs of the command line interface through main()."""

import json

import pytest

from tsfrac.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def records(stdout):
    return [json.loads(line) for line in stdout.splitlines() if line]


def test_deriv_basic(capsys):
    code, out, _ = run(
        capsys,
        "deriv",
        "--scale", "grid(0,10,1)",
        "--fn", "t^2",
        "--order", "1/2",
        "--points", "3,5",
    )
    assert code == 0
    recs = records(out)
    assert [r["t"] for r in recs] == [3.0, 5.0]
    assert recs[0]["value"] == pytest.approx(5.0)
    assert recs[1]["value"] == pytest.approx(9.0)
    assert recs[0]["path"] == "exact-scattered"
    assert recs[0]["order"] == "1/2"


def test_deriv_kinds(capsys):
    for kind, want in (("nabla", 5.0), ("delta", 7.0), ("symmetric", 12.0 / 2.0**0.5)):
        code, out, _ = run(
            capsys,
            "deriv",
            "--scale", "grid(0,10,1)",
            "--fn", "t^2",
            "--order", "1/2",
            "--kind", kind,
            "--points", "3",
        )
        assert code == 0
        assert records(out)[0]["value"] == pytest.approx(want)


def test_deriv_bad_point_is_structured_error(capsys):
    code, out, _ = run(
        capsys,
        "deriv",
        "--scale", "grid(0,10,1)",
        "--fn", "t",
        "--order", "1/2",
        "--points", "3,4.5,7",
    )
    assert code == 1
    recs = records(out)
    assert len(recs) == 3
    assert recs[1]["error"] == "PointNotInScale"
    # the remaining points still get computed
    assert recs[2]["value"] == pytest.approx(1.0)


def test_deriv_unconverged_is_structured_error(capsys):
    code, out, _ = run(
        capsys,
        "deriv",
        "--scale", "interval(0,4)",
        "--fn", "sqrt(t)",
        "--order", "1/2",
        "--points", "1",
        "--tol", "1e-8",
        "--max-samples", "5",
    )
    assert code == 1
    assert records(out)[0]["error"] == "LimitDidNotConverge"


def test_deriv_dense_with_custom_limits(capsys):
    code, out, _ = run(
        capsys,
        "deriv",
        "--scale", "interval(0,4)",
        "--fn", "sqrt(t)",
        "--order", "1/2",
        "--points", "1",
        "--tol", "1e-7",
        "--max-samples", "80",
    )
    assert code == 0
    rec = records(out)[0]
    assert rec["path"] == "dense-limit"
    assert abs(rec["value"]) <= 1e-6


def test_bad_expression_reports_position(capsys):
    code, out, _ = run(
        capsys,
        "deriv",
        "--scale", "grid(0,10,1)",
        "--fn", "t +",
        "--order", "1/2",
        "--points", "3",
    )
    assert code == 1
    rec = records(out)[0]
    assert rec["error"] == "ExprSyntaxError"
    assert rec["position"] == 4


def test_integ(capsys):
    code, out, _ = run(
        capsys,
        "integ",
        "--scale", "grid(0,11,1)",
        "--fn", "t",
        "--beta", "1/2",
        "--a", "1",
        "--b", "10",
    )
    assert code == 0
    rec = records(out)[0]
    assert rec["value"] == pytest.approx(9.0, abs=1e-12)
    assert rec["beta"] == "1/2"
    assert rec["kind"] == "nabla"


def test_integ_beta_zero_and_one(capsys):
    for beta, want in (("0", 9.0), ("1", 54.0)):
        code, out, _ = run(
            capsys,
            "integ",
            "--scale", "grid(1,10,1)",
            "--fn", "t",
            "--beta", beta,
            "--a", "1",
            "--b", "10",
        )
        assert code == 0
        assert records(out)[0]["value"] == pytest.approx(want, abs=1e-12)


def test_integ_warning_stays_off_stdout(capsys):
    from tsfrac import EndpointAdjustedWarning

    with pytest.warns(EndpointAdjustedWarning):
        code, out, err = run(
            capsys,
            "integ",
            "--scale", "grid(1,10,1)",
            "--fn", "t",
            "--beta", "1/2",
            "--a", "1",
            "--b", "10",
        )
    assert code == 0
    recs = records(out)  # every stdout line is valid json
    assert len(recs) == 1


def test_integ_endpoint_error(capsys):
    code, out, _ = run(
        capsys,
        "integ",
        "--scale", "grid(0,10,1)",
        "--fn", "t",
        "--beta", "1/2",
        "--a", "0.5",
        "--b", "9",
    )
    assert code == 1
    assert records(out)[0]["error"] == "EndpointNotInScale"


def test_table_skips_out_of_domain_points(capsys):
    code, out, _ = run(
        capsys,
        "table",
        "--scale", "points(0,1,3)",
        "--fn", "t^2",
        "--order", "1/2",
    )
    assert code == 0
    recs = records(out)
    # 0 is a scattered minimum: not in the backward-difference domain
    assert [r["t"] for r in recs] == [1.0, 3.0]


def test_table_range_flags(capsys):
    code, out, _ = run(
        capsys,
        "table",
        "--scale", "grid(0,10,1)",
        "--fn", "t",
        "--order", "1/2",
        "--a", "4",
        "--b", "6",
    )
    assert code == 0
    assert [r["t"] for r in records(out)] == [4.0, 5.0, 6.0]


def test_classify(capsys):
    code, out, _ = run(
        capsys,
        "classify",
        "--scale", "union(interval(0,1),points(2,3))",
        "--points", "0,1,2",
    )
    assert code == 0
    recs = records(out)
    assert recs[0]["left_dense"] and recs[0]["right_dense"]
    assert recs[1]["left_dense"] and not recs[1]["right_dense"]
    assert recs[2]["in_nabla_domain"]
    assert not recs[2]["left_dense"]


def test_check_subcommand(capsys):
    code, out, _ = run(capsys, "check", "--suite", "linearity", "--trials", "5", "--seed", "1")
    assert code == 0
    rec = records(out)[0]
    assert rec["passed"] is True
    assert rec["failures"] == 0
    assert rec["trials"] == 5


def test_output_is_deterministic(capsys):
    argv = (
        "deriv",
        "--scale", "qgrid(2,0,6)",
        "--fn", "t^2 - t",
        "--order", "1/3",
        "--points", "2,4,8,16",
    )
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_csv_format(capsys):
    code, out, _ = run(
        capsys,
        "deriv",
        "--scale", "grid(0,10,1)",
        "--fn", "t",
        "--order", "1/2",
        "--points", "3,5",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    assert header == sorted(header)
    assert "value" in header
    assert len(lines) == 3


def test_table_format(capsys):
    code, out, _ = run(
        capsys,
        "deriv",
        "--scale", "grid(0,10,1)",
        "--fn", "t",
        "--order", "1/2",
        "--points", "3",
        "--format", "table",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert "value" in lines[0]


def test_json_numbers_are_finite(capsys):
    # allow_nan=False in the emitter means a non-finite value would raise
    # rather than print bare NaN; a normal run must stay clean
    code, out, _ = run(
        capsys,
        "table",
        "--scale", "grid(0,10,1)",
        "--fn", "exp(t)",
        "--order", "1/2",
    )
    assert code == 0
    for rec in records(out):
        for v in rec.values():
            if isinstance(v, float):
                assert v == v and abs(v) != float("inf")


def test_scale_parse_error(capsys):
    code, out, _ = run(
        capsys,
        "deriv",
        "--scale", "blob(1,2)",
        "--fn", "t",
        "--order", "1/2",
        "--points", "1",
    )
    assert code == 1
    assert records(out)[0]["error"] == "ExprSyntaxError"


def test_bad_order_is_structured(capsys):
    code, out, _ = run(
        capsys,
        "deriv",
        "--scale", "grid(0,10,1)",
        "--fn", "t",
        "--order", "5/4",
        "--points", "1",
    )
    assert code == 1
    assert records(out)[0]["error"] == "ValueError"


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--scale", "grid(0,10,1)", "--points=nan"),
        ("classify", "--scale", "grid(0,10,1)", "--points=1e400"),
        ("deriv", "--scale", "grid(0,10,1)", "--fn", "t", "--order", "1/2", "--points=nan"),
        ("integ", "--scale", "grid(0,10,1)", "--fn", "t", "--beta", "1/2", "--a=nan", "--b", "5"),
        ("integ", "--scale", "grid(0,10,1)", "--fn", "t", "--beta", "1/2", "--a", "1", "--b=-inf"),
        ("table", "--scale", "grid(0,10,1)", "--fn", "t", "--order", "1/2", "--a=nan"),
    ],
)
def test_non_finite_numbers_are_structured_errors(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 1
    [rec] = records(out)
    assert rec["error"] == "ValueError"
    assert "finite" in rec["message"]
