"""End-to-end runs of the command line interface through main()."""

import itertools
import json
import time

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
    [rec] = records(out)
    assert sorted(rec) == ["failures", "max_residual", "messages", "passed", "seed", "suite", "trials"]
    assert rec["passed"] is True
    assert rec["failures"] == 0
    assert rec["trials"] == 5
    assert rec["messages"] == [] and rec["suite"] == "linearity" and rec["seed"] == 1


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


@pytest.mark.parametrize("density", ["inf", "nan", "0", "-1"])
def test_table_bad_density_is_structured_error(capsys, density):
    code, out, _ = run(
        capsys,
        "table",
        "--scale", "interval(0,1)",
        "--fn", "t",
        "--order", "1",
        f"--density={density}",
    )
    assert code == 1
    [rec] = records(out)
    assert rec["error"] == "ValueError"
    assert "density" in rec["message"]


def test_deep_expression_is_structured_error(capsys):
    code, out, _ = run(
        capsys,
        "deriv",
        "--scale", "grid(0,10,1)",
        "--fn", "(" * 3000 + "t" + ")" * 3000,
        "--order", "1/2",
        "--points", "1",
    )
    assert code == 1
    [rec] = records(out)
    assert rec["error"] == "ExprSyntaxError"
    assert rec["position"] == 101


def test_long_flat_expression_gives_a_value(capsys):
    # 2,000 terms but no nesting: parsed and evaluated without recursion
    code, out, _ = run(
        capsys,
        "deriv",
        "--scale", "grid(0,10,1)",
        "--fn", "+".join(["t"] * 2000),
        "--order", "1",
        "--points", "3",
    )
    assert code == 0
    [rec] = records(out)
    assert rec["value"] == 2000.0
    assert rec["path"] == "exact-scattered"


@pytest.mark.parametrize(
    "error, argv",
    [
        ("ValueError", ("table", "--scale", "interval(0,1e9)", "--fn", "t", "--order", "1")),
        ("ValidationError", ("classify", "--scale", "grid(0,1e12,1)", "--points", "0")),
        (
            "ValidationError",
            ("classify", "--scale", "union(grid(0,999999,1),grid(1000000.5,1999999.5,1))", "--points", "0"),
        ),
    ],
)
def test_oversized_scales_are_structured_errors(capsys, error, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 1
    [rec] = records(out)
    assert rec["error"] == error


@pytest.mark.parametrize("command", ["deriv", "table"])
@pytest.mark.parametrize(
    "bad, error",
    [
        ("scale", "ExprSyntaxError"),
        ("fn", "ExprSyntaxError"),
        ("order", "ValueError"),
        ("limits", "ValueError"),
        ("points", "ValueError"),
    ],
)
def test_row_commands_report_the_first_bad_input(capsys, command, bad, error):
    # every input from ``bad`` on is broken; the first of them is reported
    order = ["scale", "fn", "order", "limits", "points"]
    broken = set(order[order.index(bad):])
    argv = [
        command,
        "--scale", "interval(0," if "scale" in broken else "grid(0,4,1)",
        "--fn", "t +" if "fn" in broken else "t",
        "--order", "2" if "order" in broken else "1/2",
        "--ratio", "2" if "limits" in broken else "0.5",
    ]
    argv += ["--points=nan" if "points" in broken else "--points=1"] if command == "deriv" else []
    argv += ["--a=nan"] if command == "table" and "points" in broken else []
    code, out, _ = run(capsys, *argv)
    assert code == 1
    [rec] = records(out)
    assert rec["error"] == error
    if bad == "limits":
        assert "ratio" in rec["message"]
    if bad == "points":
        assert "finite" in rec["message"]


def test_quadrature_flags_reach_the_config(capsys):
    argv = ("integ", "--scale", "interval(0,2)", "--fn", "t", "--beta", "1", "--a", "0", "--b", "2")
    code, out, _ = run(capsys, *argv, "--quad-abs-tol", "1e-9")
    assert code == 0 and records(out)[0]["value"] == pytest.approx(2.0)
    for flag in ("--quad-rel-tol", "--quad-abs-tol"):
        code, out, _ = run(capsys, *argv, flag, "0")
        assert code == 1 and records(out)[0]["error"] == "ValidationError"


def test_dense_side_with_under_three_samples_is_structured_error(capsys):
    code, out, _ = run(
        capsys,
        "deriv",
        "--scale", "interval(0,10)",
        "--fn", "t",
        "--order", "1",
        "--points", "3",
        "--ratio", "0.9999999999999999",
    )
    assert code == 1
    [rec] = records(out)
    assert rec["error"] == "LimitDidNotConverge"
    assert rec["message"].startswith("no scale points available")


@pytest.mark.parametrize(
    "flag, text, position",
    [
        ("--fn", "1e400*t", 1),
        ("--fn", "t+1e10000000", 3),
        ("--fn", "1" * 5000, 1),
        ("--scale", "interval(0,1e400)", 12),
        ("--scale", "interval(-1e100000000,0)", 11),
    ],
)
def test_out_of_range_literals_are_syntax_errors(capsys, flag, text, position):
    argv = {"--scale": "interval(0,10)", "--fn": "t"}
    argv[flag] = text
    start = time.perf_counter()
    code, out, _ = run(capsys, "deriv", *itertools.chain(*argv.items()), "--order", "1/2", "--points", "1")
    assert time.perf_counter() - start < 1.0  # 1e10000000 used to take ~10 s
    assert code == 1
    [rec] = records(out)
    assert rec["error"] == "ExprSyntaxError"
    assert rec["position"] == position


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--tol", "abc"], "tscale-frac deriv: argument --tol: invalid float value: 'abc'"),
        (["--max-samples", "2.5"], "argument --max-samples: invalid int value: '2.5'"),
        (["--bogus"], "tscale-frac: unrecognized arguments: --bogus"),
        (["--format", "csv", "--tol", "abc"], "argument --tol: invalid float value"),
    ],
)
def test_usage_error_is_structured_record(capsys, flags, message):
    code, out, err = run(
        capsys, "deriv", "--scale", "grid(0,10,1)", "--fn", "t", "--order", "1/2",
        "--points", "3", *flags,
    )
    assert code == 1
    assert err == ""
    # json even under --format csv: the flags could not be read
    [rec] = records(out)
    assert rec["error"] == "UsageError"
    assert message in rec["message"]


def test_missing_subcommand_is_structured_record(capsys):
    code, out, err = run(capsys)
    assert code == 1 and err == ""
    assert records(out)[0]["error"] == "UsageError"


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["deriv", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: tscale-frac deriv")
