"""Command-line behavior: payload shapes, exit codes, reproducibility."""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from copula_forge.cli import MAX_DRAWS, MAX_GRID, MAX_N_MAX, MAX_RESOLUTION, main
from copula_forge.copula import Copula
from copula_forge.generator import builtin


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def canonical(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# table1


def test_table1_human(capsys):
    code, out, err = run_main(capsys, ["table1", "--theta", "1.0"])
    assert code == 0 and err == ""
    assert "phi1" in out and "phi4" in out
    assert "agree at 1e-10: yes" in out
    assert "0.750000" in out  # sigma of phi1 at theta = 1


def test_table1_json_agrees_and_round_trips(capsys):
    code, out, _ = run_main(capsys, ["table1", "--theta", "-0.5", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"] is True
    assert payload["max_abs_difference"] <= 1e-10
    names = [row["generator"] for row in payload["rows"]]
    assert names == ["phi1", "phi2", "phi3", "phi4"]
    assert canonical(payload) == out  # re-render is byte identical


def test_table1_rejects_bad_theta(capsys):
    code, _, err = run_main(capsys, ["table1", "--theta", "1.5"])
    assert code == 2
    assert "theta" in err


# ---------------------------------------------------------------------------
# measures


def test_measures_closed_table(capsys):
    code, out, _ = run_main(
        capsys, ["measures", "--phi", "phi2", "--theta", "1.0"]
    )
    assert code == 0
    assert "sigma" in out and "closed_form" in out
    assert "0.333333" in out


def test_measures_both_json(capsys):
    code, out, _ = run_main(
        capsys,
        [
            "measures", "--phi", "phi4", "--theta", "0.5",
            "--method", "both", "--resolution", "128", "--format", "json",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) >= {"closed_form", "quadrature", "difference", "resolution"}
    for key in ("sigma", "tau", "rho"):
        assert payload["difference"][key] <= 1e-6
    assert payload["closed_form"]["rho"] == pytest.approx(
        0.5 * 48.0 / math.pi**4, abs=1e-12
    )
    assert canonical(payload) == out


def test_measures_quad_only(capsys):
    code, out, _ = run_main(
        capsys,
        [
            "measures", "--phi", "phi5", "--n", "4", "--theta", "1.0",
            "--method", "quad", "--resolution", "64", "--format", "json",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert "closed_form" not in payload
    # kinks of n = 4 sit on the 16th-panel boundaries, so even 64 nodes land
    assert payload["quadrature"]["tau"] == pytest.approx(
        8.0 * (0.25 - 1.0 / 48.0) ** 2, abs=1e-6
    )


def test_measures_builtin_argument_error(capsys):
    code, _, err = run_main(
        capsys, ["measures", "--phi", "phi5", "--theta", "0.5"]
    )
    assert code == 2
    assert "phi5" in err


def test_measures_theta_out_of_range(capsys):
    code, _, err = run_main(
        capsys, ["measures", "--phi", "phi2", "--theta", "3"]
    )
    assert code == 2
    assert "[-1, 1]" in err


def test_measures_expression_generator(capsys):
    code, out, _ = run_main(
        capsys,
        ["measures", "--phi-expr", "x*(1-x)", "--theta", "1.0", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["generator"] == "expr:x*(1-x)"
    assert payload["closed_form"]["tau"] == pytest.approx(2.0 / 9.0, abs=1e-12)


# ---------------------------------------------------------------------------
# validate


def test_validate_pass(capsys):
    code, out, _ = run_main(capsys, ["validate", "--phi", "phi1"])
    assert code == 0
    assert "overall: pass" in out


def test_validate_failure_exit_code_and_witness(capsys):
    code, out, _ = run_main(
        capsys, ["validate", "--phi-expr", "sin(pi*x)", "--format", "json"]
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["overall"] == "fail"
    by_name = {c["name"]: c for c in payload["checks"]}
    assert by_name["envelope"]["verdict"] == "fail"
    assert by_name["envelope"]["witness"][0] == pytest.approx(0.5)
    assert by_name["envelope"]["witness"][1] == pytest.approx(1.0)


def test_validate_syntax_error(capsys):
    code, _, err = run_main(
        capsys, ["validate", "--phi-expr", "min(x, 1-x", "--format", "json"]
    )
    assert code == 2
    payload = json.loads(err)
    assert payload["error"]["kind"] == "syntax"
    assert payload["error"]["offset"] == 11
    assert payload["error"]["expected"] == ["')'"]


@pytest.mark.parametrize(
    "source",
    ["(" * 200 + "x*(1-x)" + ")" * 200, "x*(1-x)" + "+0.0001*x*(1-x)" * 1500],
    ids=["parentheses", "chain"],
)
def test_validate_too_deep_is_a_syntax_error(capsys, source):
    code, out, err = run_main(
        capsys, ["validate", "--phi-expr", source, "--format", "json"]
    )
    assert code == 2 and out == ""
    payload = json.loads(err)
    assert payload["error"]["kind"] == "syntax"
    assert "deeper than" in payload["error"]["message"]


@pytest.mark.parametrize("source, offset", [("\u00b2", 1), ("x*(1-x)*0.5\u00b2", 9)])
def test_validate_superscript_digit_is_a_syntax_error(capsys, source, offset):
    code, out, err = run_main(capsys, ["validate", "--phi-expr", source])
    assert code == 2 and out == ""
    literal = source[offset - 1 :]
    assert err == f"error: malformed numeric literal {literal!r} at offset {offset}\n"
    code, out, err = run_main(capsys, ["validate", "--phi-expr", source, "--format", "json"])
    assert code == 2 and out == ""
    payload = json.loads(err)["error"]
    assert payload["kind"] == "syntax"
    assert payload["offset"] == offset and payload["expected"] == ["number"]


def test_validate_unknown_identifier(capsys):
    code, _, err = run_main(capsys, ["validate", "--phi-expr", "tan(x)"])
    assert code == 2
    assert "tan" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--phi-expr", "sin(pi*x)"],
        ["check", "--phi", "phi2", "--theta", "0.5"],
    ],
    ids=["validate", "check"],
)
def test_nan_tol_is_an_argument_error(capsys, argv):
    # so is a tolerance large enough to make the scans vacuous
    for tol in ("nan", "1e-3", "1e300", "inf"):
        code, out, err = run_main(capsys, [*argv, "--tol", tol, "--format", "json"])
        assert code == 2 and out == "", tol
        payload = json.loads(err)
        assert payload["error"]["kind"] == "argument"
        assert "--tol" in payload["error"]["message"]


def test_validate_domain_error_is_exit_one(capsys):
    code, _, err = run_main(capsys, ["validate", "--phi-expr", "1/x"])
    assert code == 1
    assert "x=0" in err


def test_check_domain_error_in_a_later_scan_is_exit_one(capsys):
    # phi passes validate (phi' is undefined at one node only), but phi'' is
    # undefined at x = 0, where the curvature scan probes it
    code, out, err = run_main(
        capsys,
        ["check", "--phi-expr", "x*(1-x)*sqrt(x)", "--theta", "0.5", "--format", "json"],
    )
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"]["kind"] == "domain"
    assert "x=0.0" in payload["error"]["message"]


# ---------------------------------------------------------------------------
# check


def test_check_validation_error_carries_report(capsys):
    code, _, err = run_main(
        capsys,
        ["check", "--phi-expr", "2*x*(1-x)", "--theta", "0.5", "--format", "json"],
    )
    assert code == 1
    payload = json.loads(err)
    assert payload["error"]["kind"] == "validation"
    assert payload["error"]["report"]["overall"] == "fail"


def test_check_human_output(capsys):
    code, out, _ = run_main(capsys, ["check", "--phi", "phi2", "--theta", "1.0"])
    assert code == 0
    assert "property" in out and "pqd" in out and "tp2" in out
    assert "holds" in out


def test_check_oracle_agreement_positive_theta(capsys):
    code, out, _ = run_main(
        capsys,
        [
            "check", "--phi", "phi3", "--theta", "1.0",
            "--oracle", "--format", "json",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    verdicts = payload["report"]["verdicts"]
    assert verdicts["pqd"]["status"] == "fails"
    assert verdicts["pfd"]["status"] == "holds"
    oracles = payload["oracles"]
    assert oracles["pqd"]["status"] == "fails"
    assert oracles["pqd"]["agrees"] is True
    assert oracles["tp2"]["agrees"] is True
    assert oracles["pfd"]["agrees"] is True
    assert oracles["pfd"]["difference"] <= 1e-6
    assert canonical(payload) == out


def test_check_oracle_negative_theta_not_comparable(capsys):
    code, out, _ = run_main(
        capsys,
        [
            "check", "--phi", "phi2", "--theta", "-0.5",
            "--oracle", "--format", "json",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["negative_dependence"] is True
    assert payload["oracles"]["pqd"]["agrees"] is None
    assert payload["oracles"]["tp2"]["agrees"] is None


def test_check_independence(capsys):
    code, out, _ = run_main(
        capsys, ["check", "--phi", "phi6", "--n", "2", "--theta", "0", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["verdicts"]["pqd"]["status"] == "holds"


# ---------------------------------------------------------------------------
# converge


def test_converge_human(capsys):
    code, out, _ = run_main(
        capsys, ["converge", "--theta", "1.0", "--n-max", "3"]
    )
    assert code == 0
    assert "0.362826" in out  # tau5 formula at n = 3
    assert "tau6_quadrature" in out


def test_converge_json(capsys):
    code, out, _ = run_main(
        capsys,
        ["converge", "--theta", "1.0", "--n-max", "3", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    rows = payload["rows"]
    assert [r["n"] for r in rows] == [1, 2, 3]
    assert rows[0]["tau6_quadrature"] is None
    assert rows[2]["tau5_formula"] == pytest.approx(
        8.0 * (0.25 - 1.0 / 27.0) ** 2, abs=1e-12
    )
    for row in rows:
        assert row["difference"] <= 1e-4
    assert canonical(payload) == out


# ---------------------------------------------------------------------------
# sample


def test_sample_csv_matches_library(capsys):
    code, out, _ = run_main(
        capsys,
        ["sample", "--phi", "phi2", "--theta", "0.9", "--n", "25", "--seed", "42"],
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "u,v"
    assert len(lines) == 26
    want = Copula(builtin("phi2"), 0.9).sample(25, 42).pairs
    for line, (u, v) in zip(lines[1:], want):
        su, sv = line.split(",")
        assert float(su) == u  # 17 significant digits round-trip exactly
        assert float(sv) == v


def test_sample_out_files_byte_identical(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        code, _, _ = run_main(
            capsys,
            [
                "sample", "--phi", "phi1", "--theta", "-1.0",
                "--n", "100", "--seed", "7", "--out", str(path),
            ],
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_sample_out_path_that_cannot_be_written(tmp_path, capsys, fmt, target):
    path = tmp_path / "no" / "such" / "dir.csv" if target == "missing-directory" else tmp_path
    code, out, err = run_main(
        capsys,
        [
            "sample", "--phi", "phi2", "--theta", "0.5", "--n", "3",
            "--format", fmt, "--out", str(path),
        ],
    )
    assert code == 2 and out == ""
    if fmt == "json":
        error = json.loads(err)["error"]
        assert error["kind"] == "argument"
        message = error["message"]
    else:
        assert err.startswith("error: ") and err.endswith("\n")
        message = err[len("error: ") : -1]
    assert message.startswith(f"cannot write --out {path}: ")
    assert not (tmp_path / "no").exists()


def test_sample_gen_n_flag(capsys):
    code, out, _ = run_main(
        capsys,
        [
            "sample", "--phi", "phi5", "--gen-n", "3", "--theta", "0.5",
            "--n", "5", "--seed", "1",
        ],
    )
    assert code == 0
    assert len(out.strip().split("\n")) == 6


def test_sample_json_round_trip(capsys):
    code, out, _ = run_main(
        capsys,
        [
            "sample", "--phi", "phi4", "--theta", "1.0",
            "--n", "10", "--seed", "3", "--format", "json",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 10 and payload["seed"] == 3
    assert len(payload["pairs"]) == 10
    assert canonical(payload) == out


def test_sample_rejects_zero_n(capsys):
    code, _, err = run_main(
        capsys,
        ["sample", "--phi", "phi2", "--theta", "0.5", "--n", "0", "--seed", "1"],
    )
    assert code == 2
    assert "--n" in err


_SIZE_ARGS = (
    (["validate", "--phi", "phi2"], "--grid", MAX_GRID),
    (["check", "--phi", "phi2", "--theta", "0.5"], "--grid", MAX_GRID),
    (["measures", "--phi", "phi2", "--theta", "0.5", "--method", "quad"],
     "--resolution", MAX_RESOLUTION),
    (["check", "--phi", "phi2", "--theta", "0.5", "--oracle"], "--resolution", MAX_RESOLUTION),
    (["converge", "--theta", "0.5"], "--resolution", MAX_RESOLUTION),
    (["converge", "--theta", "0.5"], "--n-max", MAX_N_MAX),
    (["sample", "--phi", "phi2", "--theta", "0.5"], "--n", MAX_DRAWS),
)


@pytest.mark.parametrize(
    "argv, flag, cap", _SIZE_ARGS, ids=[f"{a[0]}{f}" for a, f, _ in _SIZE_ARGS]
)
@pytest.mark.parametrize("value", ["cap+1", str(10**20)])
def test_sizes_above_their_cap_are_argument_errors(capsys, argv, flag, cap, value):
    # refused before anything of that size is allocated or looped over
    value = str(cap + 1) if value == "cap+1" else value
    code, out, err = run_main(capsys, [*argv, flag, value])
    assert code == 2 and out == ""
    assert err == f"error: {flag} must be at most {cap}\n"
    code, out, err = run_main(capsys, [*argv, flag, value, "--format", "json"])
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": {"kind": "argument", "message": f"{flag} must be at most {cap}"}
    }


_NUMERICS_FAILURES = (
    (["check", "--phi", "phi6", "--n", "514", "--theta", "0.5"], "OverflowError", "table"),
    (["validate", "--phi", "phi6", "--n", "1000000"], "OverflowError", "table"),
    (["validate", "--phi", "phi6", "--n", "100000000"], "ZeroDivisionError", "table"),
    (["sample", "--phi", "phi6", "--gen-n", "1200", "--theta", "0.5", "--n", "50"],
     "ZeroDivisionError", "csv"),
    (["measures", "--phi", "phi6", "--n", "1500", "--theta", "0.5"], "QuadratureError", "table"),
)


@pytest.mark.parametrize(
    "argv, error, text_format",
    _NUMERICS_FAILURES,
    ids=[" ".join(a[:5]) for a, _, _ in _NUMERICS_FAILURES],
)
def test_arithmetic_failures_exit_1_with_kind_numerics(capsys, argv, error, text_format):
    # phi6 at a large order overflows or divides by zero in its power sums,
    # or stalls the closed-form quadrature
    code, out, err = run_main(capsys, [*argv, "--format", text_format])
    assert code == 1 and out == ""
    assert err.startswith(f"error: {error}: ") and err.count("\n") == 1
    code, out, err = run_main(capsys, [*argv, "--format", "json"])
    assert code == 1 and out == ""
    payload = json.loads(err)["error"]
    assert payload["kind"] == "numerics"
    assert payload["message"].startswith(f"{error}: ")


def test_phi6_order_has_no_cap(capsys):
    # converge runs phi6 up to n = 1000; the orders that fail elsewhere are
    # reported as numerics errors, not refused
    code, out, _ = run_main(
        capsys, ["converge", "--theta", "0.5", "--n-max", "1000", "--resolution", "16"]
    )
    assert code == 0 and out


def test_sample_missing_n_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--phi", "phi2", "--theta", "0.5"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# grammar fuzz: every argv ends in exit 0, 1 or 2 with a message

_FUZZ_EXPRESSIONS = (
    "x*(1-x)",  # valid generators
    "x*(1-x)*ln(1+x)",
    "0.9*min(x,1-x)",
    "x*(1-x)*2^x/4",
    "0.7*sin(pi*x)",  # invalid generators
    "1.5*x*(1-x)",
    "x*(1-x)/(x-0.5)",  # undefined at a probed point
    "x*(1-x)*sqrt(x)",  # phi' undefined at x = 0
    "x*(1-x)*0.1/(x-0.25)*(x-0.25)",  # phi undefined at 0.25
    "x+",  # malformed
    "min(x, 1-x",
    "tan(x)",
    "\u00b2",
    "1e999*x",
    "(" * 200 + "x" + ")" * 200,
)
# valid and invalid values of each option, None leaving the option out.  A
# size lies well below its cap or above it, never near it.
_FUZZ_OPTIONS = {
    "--theta": (("0.5", "-1", "1", "0", "-0.3"), (None, "2", "nan", "inf", "-inf")),
    "--tol": ((None, "1e-4", "1e-12"), ("nan", "inf", "0", "1e-3")),
    "--grid": ((None, "3", "65", "1001"), ("0", str(10**7), str(10**20))),
    "--resolution": ((None, "16", "64"), ("8", str(10**5), str(10**20))),
    "--method": ((None, "closed", "quad", "both"), ()),
    "--n-max": ((None, "1", "3"), ("0", str(10**4), str(10**20))),
    "--n": (("1", "40", "500"), ("0", str(10**7))),
    "--seed": ((None, "0", str(2**64 - 1)), (str(2**64), "-1")),
}
_ORDERS = {"phi5": ("1", "2", "3", "7"), "phi6": ("2", "3", "7")}


@st.composite
def _fuzz_argv(draw, out_dir) -> list[str]:
    """An argv of one of the six commands.  Each option is invalid about one
    time in six; an expression is drawn from all of _FUZZ_EXPRESSIONS."""
    command = draw(
        st.sampled_from(["validate", "measures", "table1", "sample", "check", "converge"])
    )
    argv = [command]

    def pool(valid, invalid):
        return invalid if invalid and draw(st.integers(0, 5)) == 5 else valid

    def option(flag, values=None):
        value = draw(st.sampled_from(values or pool(*_FUZZ_OPTIONS[flag])))
        if value is not None:
            argv.append(f"{flag}={value}")  # '=' keeps '-inf' a value

    if command in ("validate", "measures", "sample", "check"):
        if draw(st.booleans()):
            name = draw(st.sampled_from([f"phi{k}" for k in range(1, 7)]))
            argv += ["--phi", name]
            orders = pool(_ORDERS.get(name, (None,)), ("-1", "0", "1", "2", None))
            option("--gen-n" if command == "sample" else "--n", orders)
        else:
            argv += ["--phi-expr", draw(st.sampled_from(_FUZZ_EXPRESSIONS))]
    if command != "validate":
        option("--theta")
    for flag, commands in (
        ("--grid", ("validate", "check")),
        ("--tol", ("validate", "check")),
        ("--resolution", ("measures", "check", "converge")),
        ("--method", ("measures",)),
        ("--n-max", ("converge",)),
        ("--n", ("sample",)),
        ("--seed", ("sample",)),
    ):
        if command in commands:
            option(flag)
    if command == "check" and draw(st.booleans()):
        argv.append("--oracle")
    if command == "sample":
        option("--out", pool((None, str(out_dir / "s.out")), (str(out_dir / "no" / "s.out"),)))
    option("--format", ("csv", "json") if command == "sample" else ("table", "json"))
    return argv


def _run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refused the argv
            return exc.code, out.getvalue(), err.getvalue(), False
    return code, out.getvalue(), err.getvalue(), True


@settings(
    max_examples=1000,
    deadline=None,
    derandomize=True,
    # the one output file is removed before every run
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_grammar_fuzz_exits_0_1_or_2_without_a_traceback(tmp_path, data):
    argv = data.draw(_fuzz_argv(tmp_path))
    (tmp_path / "s.out").unlink(missing_ok=True)
    code, out, err, parsed = _run_in_process(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err, argv
    if parsed and "--format=json" in argv:
        written = tmp_path / "s.out"
        documents = [out, err, written.read_text() if written.exists() else ""]
        for text in documents:
            if text:
                json.loads(text)  # the default parser: strict JSON is still open


# ---------------------------------------------------------------------------
# subprocess-level reproducibility


def _run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "copula_forge.cli", *args],
        capture_output=True,
        text=True,
    )


def test_cli_entry_point_via_interpreter():
    res = _run_cli(["table1", "--theta", "1.0", "--format", "json"])
    assert res.returncode == 0
    assert json.loads(res.stdout)["agree"] is True


def test_sample_bytes_stable_across_processes():
    args = [
        "sample", "--phi", "phi2", "--theta", "1.0",
        "--n", "50", "--seed", "42", "--format", "csv",
    ]
    first = _run_cli(args)
    second = _run_cli(args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


_IN_ONE_PROCESS = """
import contextlib, io, json, sys
from copula_forge.cli import main

runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    runs.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(runs))
"""


def test_reused_parser_matches_a_fresh_process_per_call():
    valid = ["sample", "--phi", "phi2", "--theta", "0.5", "--n", "5", "--seed", "3"]
    invalid = ["sample", "--phi", "phi2", "--n", "5"]  # --theta missing: exit 2
    sequence = [valid, invalid, ["--help"], valid]
    one = subprocess.run(
        [sys.executable, "-c", _IN_ONE_PROCESS, json.dumps(sequence)],
        capture_output=True, text=True, check=True,
    )
    fresh = [_run_cli(argv) for argv in sequence]
    want = [[res.returncode, res.stdout, res.stderr] for res in fresh]
    assert [code for code, _, _ in want] == [0, 2, 0, 0]
    assert json.loads(one.stdout) == want
