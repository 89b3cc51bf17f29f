"""Command-line frontend.

Subcommands: ``validate`` (generator validity report), ``measures``
(sigma/tau/rho by one or both routes), ``table1`` (the four catalog
families against their reference constants), ``sample`` (reproducible
draws as CSV or JSON), ``check`` (property classification, optionally with
definition-level oracles), and ``converge`` (the phi5/phi6 tau sequences).

Each command returns its exit code and a JSON-able payload, and one
renderer per command turns that payload alone into its table or CSV text.
``main`` writes the output in one place: the JSON document or the rendered
text, to stdout or to ``--out``.

Exit codes: 0 on success, 1 when a generator fails validation (or cannot
be evaluated on [0,1]) or a numerical step fails (kind ``numerics``), 2 on
argument errors, an ``--out`` path that cannot be written included.  With
``--format json`` errors are emitted as a JSON object on stderr.  Human
tables print floats with 6 decimals; CSV and JSON carry full precision.

The generator parameter for phi5/phi6 is ``--n`` everywhere except
``sample``, where ``--n`` is the draw count and the generator parameter is
``--gen-n``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Callable, Sequence

from .copula import Copula, ThetaRangeError
from .exprlang import (
    EvaluationDomainError,
    ExpressionSyntaxError,
    UnknownIdentifierError,
)
from .generator import (
    MAX_TOL,
    Generator,
    GeneratorValidationError,
    builtin,
    from_expression,
    validate,
)
from .measures import (
    closed_form_measures,
    quadrature_measures,
    tau_phi5,
)
from .properties import (
    PQD_GRID,
    TP2_GRID,
    dependence_profile,
    oracle_pfd,
    oracle_pqd,
    oracle_tp2,
    pfd_closed_form,
)

__all__ = ["main"]

_PI4 = math.pi**4

# reference constants for the four catalog families: sigma, tau, rho as
# functions of |theta| and theta
_TABLE1_ROWS: tuple[tuple[str, Callable, Callable, Callable], ...] = (
    ("phi1", lambda a, t: 0.75 * a, lambda a, t: 0.5 * t, lambda a, t: 0.75 * t),
    ("phi2", lambda a, t: a / 3.0, lambda a, t: 2.0 * t / 9.0, lambda a, t: t / 3.0),
    ("phi3", lambda a, t: 3.0 * a / 64.0, lambda a, t: 0.0, lambda a, t: 0.0),
    (
        "phi4",
        lambda a, t: 48.0 * a / _PI4,
        lambda a, t: 32.0 * t / _PI4,
        lambda a, t: 48.0 * t / _PI4,
    ),
)
_TABLE1_TOL = 1e-10

# upper bounds of the size arguments, refused before anything is allocated:
# one run at a cap stays under about 1 GB (the arrays of a scan grid or of a
# Gauss tensor grid, or a sample and its text), and --n-max bounds the
# number of quadratures of converge
MAX_GRID = 4_194_305  # 2^22 + 1 scan points
MAX_RESOLUTION = 4096  # quadrature nodes per axis
MAX_DRAWS = 1_000_000  # sample pairs
MAX_N_MAX = 1000


class _CliError(Exception):
    """Post-parse failure with an exit code and a JSON-able payload."""

    def __init__(self, code: int, kind: str, message: str, extra: dict | None = None):
        super().__init__(message)
        self.code = code
        self.kind = kind
        self.extra = extra or {}


# ---------------------------------------------------------------------------
# Argument plumbing


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process at the first main.

    Parsing leaves the parser unchanged, and argparse looks up sys.stdout and
    sys.stderr only when it prints, so redirected output still works.
    """
    parser = argparse.ArgumentParser(
        prog="copula-forge",
        description=(
            "Semiparametric bivariate copulas C(u,v) = uv + theta*phi(u)*phi(v): "
            "validation, measures, sampling, and property classification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def generator_args(sp: argparse.ArgumentParser, n_flag: str = "--n") -> None:
        group = sp.add_mutually_exclusive_group(required=True)
        group.add_argument(
            "--phi",
            choices=["phi1", "phi2", "phi3", "phi4", "phi5", "phi6"],
            help="builtin generator family",
        )
        group.add_argument(
            "--phi-expr",
            metavar="TEXT",
            help="generator as an expression in x, e.g. \"x*(1-x)\"",
        )
        sp.add_argument(
            n_flag,
            dest="gen_n",
            type=int,
            default=None,
            help="family parameter: required for phi5 (n >= 1) and phi6 (n >= 2)",
        )

    def format_arg(sp: argparse.ArgumentParser, choices=("table", "json")) -> None:
        sp.add_argument(
            "--format",
            choices=list(choices),
            default=choices[0],
            help=f"output format (default {choices[0]})",
        )

    def theta_arg(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--theta", type=float, required=True, help="theta in [-1, 1]")

    sp = sub.add_parser("validate", help="run the generator validity checks")
    generator_args(sp)
    sp.add_argument("--grid", type=int, default=4097, help="scan grid points")
    sp.add_argument("--tol", type=float, default=1e-9, help="scan tolerance")
    format_arg(sp)

    sp = sub.add_parser("measures", help="association measures sigma/tau/rho")
    generator_args(sp)
    theta_arg(sp)
    sp.add_argument(
        "--method",
        choices=["closed", "quad", "both"],
        default="closed",
        help="closed form, definitional quadrature, or both with differences",
    )
    sp.add_argument(
        "--resolution", type=int, default=512, help="quadrature nodes per axis"
    )
    format_arg(sp)

    sp = sub.add_parser("table1", help="catalog families against reference constants")
    theta_arg(sp)
    format_arg(sp)

    sp = sub.add_parser("sample", help="draw reproducible (u,v) pairs")
    generator_args(sp, n_flag="--gen-n")
    theta_arg(sp)
    sp.add_argument("--n", type=int, required=True, help="number of pairs")
    sp.add_argument("--seed", type=int, default=0, help="64-bit stream seed")
    sp.add_argument("--out", default=None, help="output path (default stdout)")
    format_arg(sp, choices=("csv", "json"))

    sp = sub.add_parser("check", help="symmetry/dependence/ordering classification")
    generator_args(sp)
    theta_arg(sp)
    sp.add_argument("--grid", type=int, default=1001, help="scan grid points")
    sp.add_argument("--tol", type=float, default=1e-9, help="scan tolerance")
    sp.add_argument(
        "--oracle",
        action="store_true",
        help="also run the definition-level oracles and report agreement",
    )
    sp.add_argument(
        "--resolution", type=int, default=256, help="oracle quadrature resolution"
    )
    format_arg(sp)

    sp = sub.add_parser("converge", help="phi5/phi6 tau sequences over n")
    theta_arg(sp)
    sp.add_argument("--n-max", type=int, default=16, help="largest n (>= 1)")
    sp.add_argument(
        "--resolution", type=int, default=256, help="quadrature nodes per axis"
    )
    format_arg(sp)

    return parser


def _make_generator(args: argparse.Namespace) -> Generator:
    if args.phi is not None:
        try:
            return builtin(args.phi, args.gen_n)
        except ValueError as err:
            raise _CliError(2, "argument", str(err)) from err
    try:
        return from_expression(args.phi_expr)
    except ExpressionSyntaxError as err:
        raise _CliError(
            2,
            "syntax",
            str(err),
            {"offset": err.offset, "expected": sorted(err.expected)},
        ) from err
    except UnknownIdentifierError as err:
        raise _CliError(2, "unknown-identifier", str(err)) from err


def _check_positive(name: str, value: int, minimum: int, maximum: int) -> None:
    if value < minimum:
        raise _CliError(2, "argument", f"{name} must be at least {minimum}")
    if value > maximum:
        raise _CliError(2, "argument", f"{name} must be at most {maximum}")


def _check_tol(tol: float) -> None:
    if not (0.0 < tol < MAX_TOL):  # also refuses NaN
        raise _CliError(2, "argument", f"--tol must be positive and below {MAX_TOL:g}")


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit_error(fmt: str, err: _CliError) -> None:
    if fmt == "json":
        payload = {"error": {"kind": err.kind, "message": str(err), **err.extra}}
        sys.stderr.write(_json_text(payload))
    else:
        sys.stderr.write(f"error: {err}\n")


def _render_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    lines = (headers, *rows)
    widths = [max(len(line[i]) for line in lines) for i in range(len(headers))]
    return "".join(
        "  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip() + "\n"
        for line in lines
    )


def _f6(x: float) -> str:
    return f"{x:.6f}"


def _fmt_witness(w) -> str:
    if w is None:
        return "-"
    if isinstance(w, (tuple, list)):
        return "(" + ", ".join(_fmt_witness(item) for item in w) + ")"
    if isinstance(w, float):
        return f"{w:.6g}"
    return str(w)


# ---------------------------------------------------------------------------
# Commands: each returns (exit code, payload), and its renderer turns that
# payload alone into the table or CSV text


def _cmd_validate(args: argparse.Namespace) -> tuple[int, dict]:
    _check_positive("--grid", args.grid, 3, MAX_GRID)
    _check_tol(args.tol)
    report = validate(_make_generator(args), grid_points=args.grid, tol=args.tol)
    return (0 if report.overall_pass else 1), report.to_dict()


def _render_validate(p: dict) -> str:
    rows = [
        (c["name"], c["verdict"], _fmt_witness(c["witness"]), c["note"])
        for c in p["checks"]
    ]
    return (
        f"generator: {p['generator']}\n"
        f"grid_points: {p['grid_points']}  tol: {p['tol']:g}  "
        f"certified: {'yes' if p['certified'] else 'no'}\n"
        + _render_table(("check", "verdict", "witness", "note"), rows)
        + f"overall: {p['overall']}\n"
    )


_MEASURES = ("sigma", "tau", "rho")


def _cmd_measures(args: argparse.Namespace) -> tuple[int, dict]:
    _check_positive("--resolution", args.resolution, 16, MAX_RESOLUTION)
    gen = _make_generator(args)
    cop = Copula(gen, args.theta)
    payload: dict = {"generator": gen.label, "theta": args.theta, "method": args.method}
    if args.method != "quad":
        closed = closed_form_measures(cop)
        payload["closed_form"] = {k: getattr(closed, k) for k in _MEASURES}
    if args.method != "closed":
        quad = quadrature_measures(cop, resolution=args.resolution)
        payload["quadrature"] = {k: getattr(quad, k) for k in _MEASURES}
        payload["resolution"] = args.resolution
    if args.method == "both":
        payload["difference"] = {
            k: abs(payload["closed_form"][k] - payload["quadrature"][k])
            for k in _MEASURES
        }
    return 0, payload


# (payload key, column title, cell format) of the measures table
_MEASURE_COLUMNS = (
    ("closed_form", "closed_form", _f6),
    ("quadrature", "quadrature", _f6),
    ("difference", "|difference|", lambda x: f"{x:.3e}"),
)


def _render_measures(p: dict) -> str:
    columns = [column for column in _MEASURE_COLUMNS if column[0] in p]
    rows = [
        (name, *(fmt(p[key][name]) for key, _, fmt in columns)) for name in _MEASURES
    ]
    headers = ("measure", *(title for _, title, _ in columns))
    return (
        f"generator: {p['generator']}  theta: {_f6(p['theta'])}\n"
        + _render_table(headers, rows)
    )


def _cmd_table1(args: argparse.Namespace) -> tuple[int, dict]:
    a = abs(args.theta)
    rows = []
    worst = 0.0
    for name, *references in _TABLE1_ROWS:
        m = closed_form_measures(Copula(builtin(name), args.theta))
        row = {"generator": name}
        for key, reference in zip(_MEASURES, references):
            row[key] = getattr(m, key)
            row[f"{key}_reference"] = reference(a, args.theta)
            worst = max(worst, abs(row[key] - row[f"{key}_reference"]))
        rows.append(row)
    return 0, {
        "theta": args.theta,
        "rows": rows,
        "max_abs_difference": worst,
        "tolerance": _TABLE1_TOL,
        "agree": worst <= _TABLE1_TOL,
    }


def _render_table1(p: dict) -> str:
    keys = [k for name in _MEASURES for k in (name, f"{name}_reference")]
    rows = [(r["generator"], *(_f6(r[k]) for k in keys)) for r in p["rows"]]
    headers = ("generator", "sigma", "sigma_ref", "tau", "tau_ref", "rho", "rho_ref")
    return (
        f"theta: {_f6(p['theta'])}\n"
        + _render_table(headers, rows)
        + f"max |difference|: {p['max_abs_difference']:.3e}  "
        f"(agree at {p['tolerance']:g}: {'yes' if p['agree'] else 'no'})\n"
    )


def _cmd_sample(args: argparse.Namespace) -> tuple[int, dict]:
    _check_positive("--n", args.n, 1, MAX_DRAWS)
    if not (0 <= args.seed < 2**64):
        raise _CliError(2, "argument", "--seed must fit in 64 bits")
    gen = _make_generator(args)
    pairs = Copula(gen, args.theta).sample(args.n, args.seed)
    return 0, {
        "generator": gen.label,
        "theta": args.theta,
        "n": pairs.n,
        "seed": pairs.seed,
        "pairs": pairs.pairs,
    }


def _render_sample(p: dict) -> str:
    return "u,v\n" + "".join(f"{u:.17g},{v:.17g}\n" for u, v in p["pairs"])


def _cmd_check(args: argparse.Namespace) -> tuple[int, dict]:
    _check_positive("--grid", args.grid, 3, MAX_GRID)
    _check_positive("--resolution", args.resolution, 16, MAX_RESOLUTION)
    _check_tol(args.tol)
    gen = _make_generator(args)
    cop = Copula(gen, args.theta)
    report = dependence_profile(gen, args.theta, grid=args.grid, tol=args.tol)
    payload: dict = {"report": report.to_dict()}
    if args.oracle:
        comparable = args.theta > 0.0
        oracles = payload["oracles"] = {}
        for key, verdict in (("pqd", oracle_pqd(cop)), ("tp2", oracle_tp2(cop))):
            same = verdict.status == report.verdicts[key].status
            oracles[key] = verdict.to_dict()
            oracles[key]["agrees"] = same if comparable else None
        cov = oracle_pfd(cop, lambda t: t, resolution=args.resolution)
        ref = pfd_closed_form(cop, lambda t: t)
        oracles["pfd"] = {
            "g": "t",
            "covariance": cov,
            "reference": ref,
            "difference": abs(cov - ref),
            "agrees": abs(cov - ref) <= 1e-6,
        }
    return 0, payload


def _yes_no(flag: bool | None) -> str:
    return "n/a" if flag is None else ("yes" if flag else "NO")


def _render_check(p: dict) -> str:
    r = p["report"]
    out = (
        f"generator: {r['label']}  theta: {_f6(r['theta'])}  "
        f"grid: {r['grid']}  tol: {r['tol']:g}"
    )
    if r["negative_dependence"]:
        out += "  [negative dependence semantics]"
    rows = [
        (key, v["status"], _fmt_witness(v["witness"]), v["note"])
        for key, v in r["verdicts"].items()  # in PROPERTY_KEYS order
    ]
    out += "\n" + _render_table(("property", "status", "witness", "note"), rows)
    if "oracles" in p:
        oracles = p["oracles"]
        labels = {"pqd": f"cdf grid {PQD_GRID}", "tp2": f"factorized {TP2_GRID}"}
        rows = [
            (
                f"{key} ({label})",
                oracles[key]["status"],
                _fmt_witness(oracles[key]["witness"]),
                _yes_no(oracles[key]["agrees"]),
            )
            for key, label in labels.items()
        ]
        pfd = oracles["pfd"]
        cov, ref = f"cov {pfd['covariance']:.6e}", f"ref {pfd['reference']:.6e}"
        rows.append(("pfd (g(t)=t)", cov, ref, _yes_no(pfd["agrees"])))
        out += _render_table(("oracle", "result", "witness", "agrees"), rows)
    return out


def _cmd_converge(args: argparse.Namespace) -> tuple[int, dict]:
    _check_positive("--n-max", args.n_max, 1, MAX_N_MAX)
    _check_positive("--resolution", args.resolution, 16, MAX_RESOLUTION)
    rows = []
    for n in range(1, args.n_max + 1):
        formula = tau_phi5(n, args.theta)
        quad5 = quadrature_measures(
            Copula(builtin("phi5", n), args.theta), resolution=args.resolution
        ).tau
        tau6 = None
        if n >= 2:
            tau6 = quadrature_measures(
                Copula(builtin("phi6", n), args.theta), resolution=args.resolution
            ).tau
        rows.append(
            {
                "n": n,
                "tau5_formula": formula,
                "tau5_quadrature": quad5,
                "difference": abs(formula - quad5),
                "tau6_quadrature": tau6,
            }
        )
    return 0, {"theta": args.theta, "resolution": args.resolution, "rows": rows}


def _render_converge(p: dict) -> str:
    rows = [
        (
            str(r["n"]),
            _f6(r["tau5_formula"]),
            _f6(r["tau5_quadrature"]),
            f"{r['difference']:.3e}",
            "-" if r["tau6_quadrature"] is None else _f6(r["tau6_quadrature"]),
        )
        for r in p["rows"]
    ]
    headers = (
        "n", "tau5_formula", "tau5_quadrature", "|difference|", "tau6_quadrature"
    )
    return (
        f"theta: {_f6(p['theta'])}  resolution: {p['resolution']}\n"
        + _render_table(headers, rows)
    )


_COMMANDS: dict[str, tuple[Callable, Callable[[dict], str]]] = {
    "validate": (_cmd_validate, _render_validate),
    "measures": (_cmd_measures, _render_measures),
    "table1": (_cmd_table1, _render_table1),
    "sample": (_cmd_sample, _render_sample),
    "check": (_cmd_check, _render_check),
    "converge": (_cmd_converge, _render_converge),
}


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    command, render = _COMMANDS[args.command]
    out_path = getattr(args, "out", None)  # only sample takes --out
    try:
        code, payload = command(args)
        text = _json_text(payload) if args.format == "json" else render(payload)
        if out_path is None:
            sys.stdout.write(text)
        else:
            try:
                with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
                    fh.write(text)
            except OSError as err:
                message = f"cannot write --out {out_path}: {err.strerror or err}"
                raise _CliError(2, "argument", message) from err
        return code
    except _CliError as err:
        failure = err
    except ThetaRangeError as err:
        failure = _CliError(2, "argument", str(err))
    except GeneratorValidationError as err:
        report = {"report": err.report.to_dict()}
        failure = _CliError(1, "validation", str(err), report)
    except EvaluationDomainError as err:
        # a generator undefined at a probe of from_expression or at a point
        # some later scan reads: reported like a validation failure
        failure = _CliError(1, "domain", str(err))
    except ArithmeticError as err:
        # a float overflow or zero division, or a quadrature or bisection
        # that gave out: the generator is defined, but this run cannot be done
        failure = _CliError(1, "numerics", f"{type(err).__name__}: {err}")
    _emit_error(args.format, failure)
    return failure.code


if __name__ == "__main__":
    sys.exit(main())
