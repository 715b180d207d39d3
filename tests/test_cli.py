"""End-to-end runs of the command line interface through main()."""

import argparse
import itertools
import json
import math
import time

import pytest

from tsfrac import SUITE_NAMES, LimitConfig, cli
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


def test_a_deriv_row_is_the_result_at_its_member(capsys, monkeypatch):
    # the row's t is the DerivResult's own: the point is snapped once, by the
    # derivative (four snaps for a nabla value on a grid, as in the library)
    from tsfrac import TimeScale

    snaps = []
    real = TimeScale.snap
    monkeypatch.setattr(TimeScale, "snap", lambda self, t: snaps.append(t) or real(self, t))
    code, out, _ = run(capsys, "deriv", "--scale", "grid(0,10,1)", "--fn", "t^2", "--order", "1/2", "--points", "3.0000000000001,3")
    assert code == 0 and len(snaps) == 8
    first, second = records(out)
    assert first == second and first["t"] == 3.0 and sorted(first) == ["err_est", "kind", "order", "path", "side", "t", "value"]


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


def test_syntax_error_record_says_what_was_expected(capsys):
    code, out, _ = run(capsys, "classify", "--scale", "points(1,,2)", "--points", "1")
    assert code == 1
    assert records(out) == [
        {"error": "ExprSyntaxError", "message": "expected a number, found ','", "position": 10, "expected": "a number"}
    ]


def test_unexpected_character_record_says_what_can_start_a_token(capsys):
    code, out, _ = run(capsys, "classify", "--scale", "points(1,,2)@", "--points", "1")
    assert code == 1
    assert records(out) == [
        {
            "error": "ExprSyntaxError",
            "message": "unexpected character '@'",
            "position": 13,
            "expected": "a number, a name, or one of + - * / ^ ( ) ,",
        }
    ]


def test_eval_domain_error_record_names_its_point(capsys):
    # an integral's record names the point where the integrand left its
    # domain; a derivative row names the point it was asked for
    code, out, _ = run(capsys, "integ", "--scale", "grid(0,4,1)", "--fn", "1/(t-2)", "--beta", "1", "--a", "0", "--b", "4")
    assert code == 1
    [rec] = records(out)
    assert (rec["error"], rec["t"]) == ("EvalDomainError", 2.0) and "node" not in rec
    code, out, _ = run(capsys, "deriv", "--scale", "grid(0,4,1)", "--fn", "1/(t-2)", "--order", "1", "--points", "3")
    assert code == 1
    assert [(r["error"], r["t"]) for r in records(out)] == [("EvalDomainError", 3.0)]


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
    assert records(out)[0]["error"] == "PointNotInScale"


def test_integ_with_no_samplable_endpoint_is_one_record(capsys):
    # at 1e21 an approach step is below the float spacing: no point to sample
    code, out, _ = run(
        capsys,
        "integ",
        "--scale", "interval(1e20,1e21)",
        "--fn", "t",
        "--beta", "1/2",
        "--a", "1e20",
        "--b", "1e21",
    )
    assert code == 1
    [rec] = records(out)
    assert rec["error"] == "LimitDidNotConverge"


def test_deriv_at_an_order_with_a_denominator_past_the_float_range(capsys):
    code, out, _ = run(
        capsys,
        "deriv",
        "--scale", "grid(0,10,1)",
        "--fn", "t^2",
        "--order", "1/" + "9" * 400,
        "--points", "5",
    )
    assert code == 0
    [rec] = records(out)
    assert rec["value"] == 9.0 and rec["path"] == "exact-scattered"


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


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_table_with_no_row_prints_nothing(capsys, fmt):
    # both points of points(0,1) are scattered extrema, outside the symmetric
    # domain, so the table has no row and no header either
    code, out, err = run(
        capsys,
        "table",
        "--scale", "points(0,1)",
        "--fn", "t",
        "--order", "1/2",
        "--kind", "symmetric",
        "--format", fmt,
    )
    assert (code, out, err) == (0, "", "")


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


@pytest.mark.parametrize(
    "scale, flags, missing",
    [
        ("interval(-inf,0)", [], "--a"),
        ("interval(-inf,0)", ["--b", "-1"], "--a"),
        ("union(grid(0,3,1),interval(5,inf))", [], "--b"),
        ("interval(-inf,inf)", ["--b", "1"], "--a"),
        ("interval(-inf,inf)", ["--a", "1"], "--b"),
    ],
)
def test_table_on_an_unbounded_scale_names_the_missing_end(capsys, scale, flags, missing):
    code, out, _ = run(capsys, "table", "--scale", scale, "--fn", "t", "--order", "1", *flags)
    assert code == 1
    assert records(out) == [{"error": "ValueError", "message": f"{missing} is needed: the scale is unbounded on that side"}]


def test_table_on_the_real_line_reads_the_range_it_is_given(capsys):
    code, out, _ = run(capsys, "table", "--scale", "interval(-inf,inf)", "--fn", "t", "--order", "1", "--a", "-1", "--b", "1", "--density", "1")
    assert code == 0 and [r["t"] for r in records(out)] == [-1.0, 0.0, 1.0]


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


def test_empty_point_entries_are_skipped(capsys):
    code, out, _ = run(capsys, "classify", "--scale", "interval(0,2)", "--points", "1,,2")
    assert code == 0
    assert [r["t"] for r in records(out)] == [1.0, 2.0]
    code, out, _ = run(capsys, "classify", "--scale", "interval(0,2)", "--points", ",")
    assert code == 1
    assert records(out) == [{"error": "ValueError", "message": "no points given"}]


def test_classify_reports_points_outside_the_scale(capsys):
    code, out, _ = run(capsys, "classify", "--scale", "interval(0,1)", "--points", "0.5,2")
    assert code == 1
    recs = records(out)
    assert recs[0]["t"] == 0.5 and recs[0]["in_symmetric_domain"]
    assert recs[1] == {"error": "PointNotInScale", "message": "t=2.0 is not in the scale", "t": 2.0}


def test_check_subcommand(capsys):
    code, out, _ = run(capsys, "check", "--suite", "linearity", "--trials", "5", "--seed", "1")
    assert code == 0
    [rec] = records(out)
    assert sorted(rec) == ["failures", "max_residual", "messages", "passed", "seed", "suite", "trials"]
    assert rec["passed"] is True
    assert rec["failures"] == 0
    assert rec["trials"] == 5
    assert rec["messages"] == [] and rec["suite"] == "linearity" and rec["seed"] == 1


_DERIV_KEYS = ["err_est", "kind", "order", "path", "side", "t", "value"]
_ERROR_KEYS = ["error", "message"]


@pytest.mark.parametrize(
    "argv, keys",
    [
        (["deriv", "--scale", "grid(0,10,1)", "--fn", "t^2", "--order", "1/2", "--points", "3"], _DERIV_KEYS),
        (["deriv", "--scale", "interval(0,1)", "--fn", "t^2", "--order", "1", "--points", "0.5"], _DERIV_KEYS),
        (["table", "--scale", "grid(0,3,1)", "--fn", "t", "--order", "1", "--a", "1", "--b", "1"], _DERIV_KEYS),
        (
            ["classify", "--scale", "grid(0,3,1)", "--points", "1"],
            ["class", "in_delta_domain", "in_nabla_domain", "in_symmetric_domain", "left_dense", "right_dense", "t"],
        ),
        (["integ", "--scale", "grid(0,10,1)", "--fn", "t", "--beta", "1/2", "--a", "1", "--b", "5"], ["a", "b", "beta", "kind", "value"]),
    ],
    ids=["exact-deriv", "dense-deriv", "table", "classify", "integ"],
)
def test_each_row_kind_has_exactly_its_keys(capsys, argv, keys):
    code, out, _ = run(capsys, *argv)
    [rec] = records(out)
    assert code == 0 and sorted(rec) == keys


@pytest.mark.parametrize(
    "error, argv, keys",
    [
        ("PointNotInScale", ["deriv", "--scale", "grid(0,10,1)", "--fn", "t", "--order", "1", "--points", "2.5"], ["t"]),
        # the node an EvalDomainError carries shows only in its message
        ("EvalDomainError", ["deriv", "--scale", "grid(0,10,1)", "--fn", "ln(t)", "--order", "1", "--points", "1"], ["t"]),
        (
            "LimitDidNotConverge",
            ["deriv", "--scale", "interval(0,1)", "--fn", "t^2", "--order", "1/2", "--points", "0.5"],
            ["samples_unavailable", "t"],
        ),
        (
            "SidedLimitsDisagree",
            ["deriv", "--scale", "interval(-1,1)", "--fn", "abs(t)", "--order", "1", "--points", "0"],
            ["left", "right", "t"],
        ),
        ("ExprSyntaxError", ["classify", "--scale", "points(1,,2)", "--points", "1"], ["expected", "position"]),
        ("UsageError", ["deriv", "--scale", "grid(0,10,1)"], []),
    ],
)
def test_each_error_record_has_exactly_its_keys(capsys, error, argv, keys):
    code, out, _ = run(capsys, *argv)
    [rec] = records(out)
    assert code == 1 and rec["error"] == error
    assert sorted(rec) == sorted(_ERROR_KEYS + keys)


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


def test_csv_and_table_of_classify_and_check(capsys):
    classify = ("classify", "--scale", "interval(0,1)", "--points", "0,2")
    code, out, _ = run(capsys, *classify, "--format", "csv")
    assert code == 1
    assert out.splitlines() == [
        "class,error,in_delta_domain,in_nabla_domain,in_symmetric_domain,left_dense,message,right_dense,t",
        '"left-dense, right-dense",,true,true,true,true,,true,0.0',
        ",PointNotInScale,,,,,t=2.0 is not in the scale,,2.0",
    ]
    code, out, _ = run(capsys, *classify, "--format", "table")
    assert code == 1
    header, ok, bad = out.splitlines()
    assert header.split() == ["class", "error", "in_delta_domain", "in_nabla_domain", "in_symmetric_domain",
                              "left_dense", "message", "right_dense", "t"]
    assert ok.startswith("left-dense, right-dense ") and ok.endswith(" 0.0")
    assert "PointNotInScale" in bad and bad.endswith(" 2.0")
    check = ("check", "--suite", "linearity", "--trials", "2")
    code, out, _ = run(capsys, *check, "--format", "csv")
    assert code == 0
    header, row = out.splitlines()
    assert header == "failures,max_residual,messages,passed,seed,suite,trials"
    assert row.startswith("0,") and row.endswith(",,true,0,linearity,2")
    code, out, _ = run(capsys, *check, "--format", "table")
    assert code == 0
    header, row = out.splitlines()
    assert header.split() == ["failures", "max_residual", "messages", "passed", "seed", "suite", "trials"]
    assert row.split()[2:] == ["true", "0", "linearity", "2"]


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


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--scale", "points(12)", "--points", "\u0661\u0662,1_2"),
        ("classify", "--scale", "points(12)", "--points", "1_2"),
        ("classify", "--scale", "points(12)", "--points", "12,\u00a0"),
        ("integ", "--scale", "grid(0,12,1)", "--fn", "t", "--beta", "1", "--a", "\u0660", "--b", "12"),
        ("integ", "--scale", "grid(0,12,1)", "--fn", "t", "--beta", "1", "--a", "0", "--b", "1_2"),
        ("integ", "--scale", "grid(0,12,1)", "--fn", "t", "--beta", "\u0661", "--a", "0", "--b", "12"),
        ("table", "--scale", "grid(0,12,1)", "--fn", "t", "--order", "1", "--b", "1 2"),
        ("deriv", "--scale", "grid(0,10,1)", "--fn", "t", "--order", "\u0661/\u0662", "--points", "3"),
        ("deriv", "--scale", "grid(0,10,1)", "--fn", "t", "--order", "1_0/20", "--points", "3"),
    ],
    ids=["arabic-point", "underscore-point", "nbsp-point", "arabic-a", "underscore-b", "arabic-beta",
         "split-b", "arabic-order", "underscore-order"],
)
def test_numbers_follow_the_grammar_number_rule(capsys, argv):
    # points, endpoints and orders are read as the grammars read a number:
    # ASCII digits, no '_' separators, whitespace only around the literal
    code, out, _ = run(capsys, *argv)
    assert code == 1
    [rec] = records(out)
    assert rec["error"] == "ValueError"


def test_numbers_may_carry_grammar_whitespace(capsys):
    code, out, _ = run(capsys, "classify", "--scale", "points(12, 13)", "--points", " 12,\t-13 ,13\n")
    assert [r.get("t") for r in records(out)] == [12.0, -13.0, 13.0] and code == 1
    code, out, _ = run(capsys, "integ", "--scale", "grid(0,12,1)", "--fn", "t", "--beta", " 1 / 1 ", "--a", " 0", "--b", "1.2e1 ")
    assert code == 0 and records(out)[0]["value"] == 78.0


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
    # inf and nan are no number of the grammars; 0 and -1 are, out of range
    if density in ("inf", "nan"):
        assert rec["error"] == "UsageError"
        assert rec["message"] == f"tscale-frac table: argument --density: invalid float value: '{density}'"
    else:
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
        "--tol", "0" if "limits" in broken else "1e-8",
    ]
    argv += ["--points=nan" if "points" in broken else "--points=1"] if command == "deriv" else []
    argv += ["--a=nan"] if command == "table" and "points" in broken else []
    code, out, _ = run(capsys, *argv)
    assert code == 1
    [rec] = records(out)
    assert rec["error"] == error
    if bad == "limits":
        assert "tol" in rec["message"]
    if bad == "points":
        assert "finite" in rec["message"]


@pytest.mark.parametrize("flag", ["--quad-rel-tol", "--quad-abs-tol"])
def test_quadrature_flags_are_usage_errors(capsys, flag):
    # the quadrature accuracy is fixed: there is no flag to set it
    argv = ("integ", "--scale", "interval(0,2)", "--fn", "t", "--beta", "1", "--a", "0", "--b", "2")
    code, out, _ = run(capsys, *argv, flag, "1e-6")
    assert code == 1
    [rec] = records(out)
    assert rec["error"] == "UsageError" and f"unrecognized arguments: {flag} 1e-6" in rec["message"]


@pytest.mark.parametrize("flag", ["--h0", "--ratio"])
def test_step_flags_are_usage_errors(capsys, flag):
    # the approach steps at dense points are fixed: there is no flag to set them
    argv = ("deriv", "--scale", "interval(0,4)", "--fn", "t", "--order", "1", "--points", "2")
    code, out, _ = run(capsys, *argv, flag, "0.5")
    assert code == 1
    [rec] = records(out)
    assert rec["error"] == "UsageError" and f"unrecognized arguments: {flag} 0.5" in rec["message"]


@pytest.mark.parametrize("word", ["inf", "Infinity", "nan"])
def test_infinite_tolerances_are_structured_errors(capsys, word):
    # the float words are no number of the grammars: --tol refuses them as it does abc
    argv = ("integ", "--scale", "interval(0,10)", "--fn", "sin(t)", "--beta", "1", "--a", "0", "--b", "3")
    code, out, _ = run(capsys, *argv, "--tol", word)
    assert code == 1
    [rec] = records(out)
    assert rec["error"] == "UsageError"
    assert rec["message"] == f"tscale-frac integ: argument --tol: invalid float value: '{word}'"


def test_dense_side_with_under_three_samples_is_structured_error(capsys):
    code, out, _ = run(
        capsys,
        "deriv",
        # the float spacing at 1e4 leaves one approach point on either side
        "--scale", "interval(9999.999999999998,10000.000000000002)",
        "--fn", "t",
        "--order", "1",
        "--points", "10000",
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


_DERIV_AT_1 = ["deriv", "--scale", "interval(0,4)", "--fn", "t", "--order", "1", "--points", "1"]


@pytest.mark.parametrize(
    "argv, message",
    [
        ([*_DERIV_AT_1, "--tol", "\u0661e-7"], "argument --tol: invalid float value: '\u0661e-7'"),
        ([*_DERIV_AT_1, "--max-samples", "\u0668\u0660"], "argument --max-samples: invalid int value: '\u0668\u0660'"),
        (["check", "--suite", "linearity", "--trials", "1_0"], "argument --trials: invalid int value: '1_0'"),
    ],
)
def test_numeric_flags_follow_the_grammar_number_rule(capsys, argv, message):
    # float() and int() accept any Unicode digit and _ separators; the
    # flags read numbers as the grammars do
    code, out, _ = run(capsys, *argv)
    assert code == 1
    [rec] = records(out)
    assert rec["error"] == "UsageError" and message in rec["message"]


_SUITES = (
    "linearity", "product", "quotient", "reconstruction", "integral-laws", "symmetric-relation", "order-lowering",
)


def test_unknown_suite_names_every_suite_in_order(capsys):
    code, out, _ = run(capsys, "check", "--suite", "bogus")
    assert code == 1
    [rec] = records(out)
    assert rec["error"] == "UsageError"
    # argparse lists the choices by repr; later patch releases list them by str
    prefix = "tscale-frac check: argument --suite: invalid choice: 'bogus' (choose from "
    assert rec["message"] in (f"{prefix}{', '.join(map(repr, _SUITES))})", f"{prefix}{', '.join(_SUITES)})")


def test_check_help_names_every_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--help"])
    assert exc.value.code == 0
    help_text = capsys.readouterr().out
    assert all(name in help_text for name in SUITE_NAMES)
    # the suites fix their own limits
    assert "--tol" not in help_text and "--max-samples" not in help_text


def test_missing_subcommand_is_structured_record(capsys):
    code, out, err = run(capsys)
    assert code == 1 and err == ""
    assert records(out)[0]["error"] == "UsageError"


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["deriv", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: tscale-frac deriv")


# -- one parser per process ------------------------------------------------

SCALE = ["--scale", "union(interval(0,1),grid(2,4,1))", "--fn", "sin(t)"]
DERIV = ["deriv", *SCALE, "--order", "1/2", "--points", "0.5,3"]
TABLE = ["table", *SCALE, "--order", "1/2"]
INTEG = ["integ", *SCALE, "--beta", "1/2", "--a", "0", "--b", "3"]
# each plain command follows one that sets the flags it leaves at their defaults
SEQUENCE = [
    [*DERIV, "--kind", "delta", "--tol", "1e-6", "--format", "csv"],
    DERIV,
    [*TABLE, "--density", "5"],
    TABLE,
    [*INTEG, "--max-samples", "10"],
    INTEG,
    [*DERIV, "--tol", "abc"],
    ["--help"],
    DERIV,
]


def run_sequence(capsys, monkeypatch):
    """(exit code, stdout, stderr, parsed flags) of each SEQUENCE command,
    run one after another through main."""
    parsed = []
    for name, command in cli._COMMANDS.items():
        def spy(args, command=command):
            parsed.append(dict(vars(args)))
            return command(args)

        monkeypatch.setitem(cli._COMMANDS, name, spy)
    results = []
    for argv in SEQUENCE:
        del parsed[:]
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = ("exit", exc.code)
        out = capsys.readouterr()
        results.append((code, out.out, out.err, parsed[:]))
    return results


def test_consecutive_main_calls_share_no_parsed_state(capsys, monkeypatch):
    assert cli._parser() is cli._parser()
    shared = run_sequence(capsys, monkeypatch)
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert shared == run_sequence(capsys, monkeypatch)

    _, out, _, [deriv] = shared[1]
    assert {rec["kind"] for rec in records(out) if "error" not in rec} == {"nabla"}
    assert cli._limit_config(argparse.Namespace(**deriv)) == LimitConfig()
    assert shared[3][3][0]["density"] == 33.0
    assert shared[5][3][0]["max_samples"] is None
    # the flags change the output, so a leaked one would show there too
    assert shared[2][1] != shared[3][1] and shared[0][1] != shared[1][1] and shared[4][1] != shared[5][1]
    usage, help_, after = shared[6:]
    assert usage[0] == 1 and records(usage[1])[0]["error"] == "UsageError"
    assert help_[0] == ("exit", 0) and help_[1].startswith("usage: tscale-frac")
    assert after[:3] == shared[1][:3]


def test_build_parser_returns_a_fresh_parser_main_does_not_use(capsys):
    p = cli.build_parser()
    assert p is not cli.build_parser() and p is not cli._parser()
    # a caller's change to its own parser stays with that parser
    p.set_defaults(format="csv")
    [subcommands] = [a for a in p._actions if isinstance(a, argparse._SubParsersAction)]
    for sub in subcommands.choices.values():
        sub.set_defaults(format="csv")
    argv = ["deriv", "--scale", "grid(0,10,1)", "--fn", "t", "--order", "1/2", "--points", "3"]
    assert p.parse_args(argv).format == "csv"
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert [rec["t"] for rec in records(out)] == [3.0]


@pytest.mark.parametrize(
    "order, kind, point",
    [("1/3", "delta", "-5"), ("1", "nabla", "5")],
)
def test_a_zero_dense_limit_prints_positive_zero(capsys, order, kind, point):
    # the one side sampled is where the definition's base is negative; its
    # quotient is a +0.0 difference over a positive power, printed as 0.0
    code, out, _ = run(
        capsys,
        "deriv",
        "--scale", "interval(-5,5)",
        "--fn", "7.25",
        "--order", order,
        "--kind", kind,
        f"--points={point}",
    )
    assert code == 0
    assert '"value": 0.0}' in out
    [rec] = records(out)
    assert rec["path"] == "dense-limit" and math.copysign(1.0, rec["value"]) == 1.0


@pytest.mark.parametrize(
    "scale, fn, order, kind, point, unavailable, message",
    [
        # two mirrored pairs: the points give them, the tiny interval none
        ("union(points(-0.002,-0.001,0.001,0.002),interval(-1e-13,1e-13))", "t", "1/2", "symmetric", "0",
         True, "only 2 symmetric pairs available near t=0.0"),
        # at the right end only the right side may be sampled, and it is empty
        ("interval(0,1)", "t", "1/2", "nabla", "1", True, "no scale points available on the right side"),
        # sqrt(h)/h grows without bound: the samples exist and do not settle
        ("interval(0,1)", "sqrt(t)", "1", "delta", "0", False, "right-side quotients did not settle"),
    ],
)
def test_limit_records_say_whether_samples_were_unavailable(capsys, scale, fn, order, kind, point, unavailable, message):
    code, out, _ = run(
        capsys, "deriv", "--scale", scale, "--fn", fn, "--order", order, "--kind", kind, "--points", point
    )
    assert code == 1
    [rec] = records(out)
    assert rec["error"] == "LimitDidNotConverge" and rec["message"].startswith(message)
    assert rec["samples_unavailable"] is unavailable
