"""Command-line frontend.

Subcommands: ``validate`` (generator validity report), ``measures``
(sigma/tau/rho by one or both routes), ``table1`` (the four catalog
families against their reference constants), ``sample`` (reproducible
draws as CSV or JSON), ``check`` (property classification, optionally with
definition-level oracles), and ``converge`` (the phi5/phi6 tau sequences).

Exit codes: 0 on success, 1 when a generator fails validation (or cannot
be evaluated on [0,1]), 2 on argument errors.  With ``--format json``
errors are emitted as a JSON object on stderr.  Human tables print floats
with 6 decimals; CSV and JSON carry full precision.

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

from .copula import Copula, ThetaRangeError, check_theta
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
    AssociationMeasures,
    closed_form_measures,
    quadrature_measures,
    tau_phi5,
)
from .properties import (
    PROPERTY_KEYS,
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
    except EvaluationDomainError as err:
        # parses but cannot be evaluated across [0,1]: a defective generator,
        # reported like a validation failure
        raise _CliError(1, "domain", str(err)) from err


def _theta_arg(theta: float) -> float:
    try:
        return check_theta(theta)
    except ThetaRangeError as err:
        raise _CliError(2, "argument", str(err)) from err


def _check_positive(name: str, value: int, minimum: int) -> None:
    if value < minimum:
        raise _CliError(2, "argument", f"{name} must be at least {minimum}")


def _check_tol(tol: float) -> None:
    if not (0.0 < tol < MAX_TOL):  # also refuses NaN
        raise _CliError(2, "argument", f"--tol must be positive and below {MAX_TOL:g}")


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _emit_json(payload: dict, out_path: str | None = None) -> None:
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", out_path)


def _emit_error(fmt: str, err: _CliError) -> None:
    if fmt == "json":
        payload = {"error": {"kind": err.kind, "message": str(err), **err.extra}}
        sys.stderr.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        sys.stderr.write(f"error: {err}\n")


def _render_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip()]
    for row in rows:
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        )
    return "\n".join(lines) + "\n"


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
# Commands


def _cmd_validate(args: argparse.Namespace) -> int:
    _check_positive("--grid", args.grid, 3)
    _check_tol(args.tol)
    gen = _make_generator(args)
    report = validate(gen, grid_points=args.grid, tol=args.tol)
    if args.format == "json":
        _emit_json(report.to_dict())
    else:
        rows = [
            (c.name, c.verdict, _fmt_witness(c.witness), c.note)
            for c in report.checks
        ]
        out = [
            f"generator: {report.label}",
            f"grid_points: {report.grid_points}  tol: {report.tol:g}  "
            f"certified: {'yes' if report.certified else 'no'}",
            _render_table(("check", "verdict", "witness", "note"), rows).rstrip("\n"),
            f"overall: {'pass' if report.overall_pass else 'fail'}",
        ]
        sys.stdout.write("\n".join(out) + "\n")
    return 0 if report.overall_pass else 1


def _measures_payload(m: AssociationMeasures) -> dict:
    return {"sigma": m.sigma, "tau": m.tau, "rho": m.rho}


def _cmd_measures(args: argparse.Namespace) -> int:
    _check_positive("--resolution", args.resolution, 16)
    gen = _make_generator(args)
    cop = Copula(gen, _theta_arg(args.theta))
    closed = quad = None
    if args.method in ("closed", "both"):
        closed = closed_form_measures(cop)
    if args.method in ("quad", "both"):
        quad = quadrature_measures(cop, resolution=args.resolution)
    payload: dict = {"generator": gen.label, "theta": args.theta, "method": args.method}
    if closed is not None:
        payload["closed_form"] = _measures_payload(closed)
    if quad is not None:
        payload["quadrature"] = _measures_payload(quad)
        payload["resolution"] = args.resolution
    if closed is not None and quad is not None:
        payload["difference"] = {
            "sigma": abs(closed.sigma - quad.sigma),
            "tau": abs(closed.tau - quad.tau),
            "rho": abs(closed.rho - quad.rho),
        }
    if args.format == "json":
        _emit_json(payload)
        return 0
    header = f"generator: {gen.label}  theta: {_f6(args.theta)}"
    names = ("sigma", "tau", "rho")
    if closed is not None and quad is not None:
        rows = [
            (
                name,
                _f6(getattr(closed, name)),
                _f6(getattr(quad, name)),
                f"{abs(getattr(closed, name) - getattr(quad, name)):.3e}",
            )
            for name in names
        ]
        table = _render_table(
            ("measure", "closed_form", "quadrature", "|difference|"), rows
        )
    else:
        only = closed if closed is not None else quad
        rows = [(name, _f6(getattr(only, name))) for name in names]
        table = _render_table(("measure", only.method), rows)
    sys.stdout.write(header + "\n" + table)
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    theta = _theta_arg(args.theta)
    a = abs(theta)
    rows_payload = []
    worst = 0.0
    for name, sigma_ref, tau_ref, rho_ref in _TABLE1_ROWS:
        m = closed_form_measures(Copula(builtin(name), theta))
        refs = (sigma_ref(a, theta), tau_ref(a, theta), rho_ref(a, theta))
        rows_payload.append(
            {
                "generator": name,
                "sigma": m.sigma,
                "sigma_reference": refs[0],
                "tau": m.tau,
                "tau_reference": refs[1],
                "rho": m.rho,
                "rho_reference": refs[2],
            }
        )
        worst = max(
            worst,
            abs(m.sigma - refs[0]),
            abs(m.tau - refs[1]),
            abs(m.rho - refs[2]),
        )
    agree = worst <= _TABLE1_TOL
    if args.format == "json":
        _emit_json(
            {
                "theta": theta,
                "rows": rows_payload,
                "max_abs_difference": worst,
                "tolerance": _TABLE1_TOL,
                "agree": agree,
            }
        )
        return 0
    rows = [
        (
            r["generator"],
            _f6(r["sigma"]),
            _f6(r["sigma_reference"]),
            _f6(r["tau"]),
            _f6(r["tau_reference"]),
            _f6(r["rho"]),
            _f6(r["rho_reference"]),
        )
        for r in rows_payload
    ]
    table = _render_table(
        ("generator", "sigma", "sigma_ref", "tau", "tau_ref", "rho", "rho_ref"), rows
    )
    footer = (
        f"max |difference|: {worst:.3e}  "
        f"(agree at {_TABLE1_TOL:g}: {'yes' if agree else 'no'})"
    )
    sys.stdout.write(f"theta: {_f6(theta)}\n" + table + footer + "\n")
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    _check_positive("--n", args.n, 1)
    if not (0 <= args.seed < 2**64):
        raise _CliError(2, "argument", "--seed must fit in 64 bits")
    gen = _make_generator(args)
    cop = Copula(gen, _theta_arg(args.theta))
    pairs = cop.sample(args.n, args.seed)
    if args.format == "json":
        payload = {
            "generator": gen.label,
            "theta": args.theta,
            "n": pairs.n,
            "seed": pairs.seed,
            "pairs": [[u, v] for u, v in pairs],
        }
        _emit_json(payload, args.out)
    else:
        lines = ["u,v"]
        lines.extend(f"{u:.17g},{v:.17g}" for u, v in pairs)
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    _check_positive("--grid", args.grid, 3)
    _check_positive("--resolution", args.resolution, 16)
    _check_tol(args.tol)
    gen = _make_generator(args)
    cop = Copula(gen, _theta_arg(args.theta))
    report = dependence_profile(gen, args.theta, grid=args.grid, tol=args.tol)
    payload: dict = {"report": report.to_dict()}
    if args.oracle:
        pqd = oracle_pqd(cop, grid=201)
        tp2 = oracle_tp2(cop, grid=101)
        cov = oracle_pfd(cop, lambda t: t, resolution=args.resolution)
        ref = pfd_closed_form(cop, lambda t: t)
        comparable = args.theta > 0.0
        payload["oracles"] = {
            "pqd": {
                **pqd.to_dict(),
                "agrees": (
                    pqd.status == report.verdicts["pqd"].status if comparable else None
                ),
            },
            "tp2": {
                **tp2.to_dict(),
                "agrees": (
                    tp2.status == report.verdicts["tp2"].status if comparable else None
                ),
            },
            "pfd": {
                "g": "t",
                "covariance": cov,
                "reference": ref,
                "difference": abs(cov - ref),
                "agrees": abs(cov - ref) <= 1e-6,
            },
        }
    if args.format == "json":
        _emit_json(payload)
        return 0
    head = (
        f"generator: {report.label}  theta: {_f6(report.theta)}  "
        f"grid: {report.grid}  tol: {report.tol:g}"
    )
    if report.negative_dependence:
        head += "  [negative dependence semantics]"
    rows = [
        (
            key,
            report.verdicts[key].status,
            _fmt_witness(report.verdicts[key].witness),
            report.verdicts[key].note,
        )
        for key in PROPERTY_KEYS
    ]
    out = head + "\n" + _render_table(("property", "status", "witness", "note"), rows)
    if args.oracle:
        oracles = payload["oracles"]

        def yn(flag) -> str:
            return "n/a" if flag is None else ("yes" if flag else "NO")

        orows = [
            (
                "pqd (cdf grid 201)",
                oracles["pqd"]["status"],
                _fmt_witness(oracles["pqd"]["witness"]),
                yn(oracles["pqd"]["agrees"]),
            ),
            (
                "tp2 (factorized 101)",
                oracles["tp2"]["status"],
                _fmt_witness(oracles["tp2"]["witness"]),
                yn(oracles["tp2"]["agrees"]),
            ),
            (
                "pfd (g(t)=t)",
                f"cov {oracles['pfd']['covariance']:.6e}",
                f"ref {oracles['pfd']['reference']:.6e}",
                yn(oracles["pfd"]["agrees"]),
            ),
        ]
        out += _render_table(("oracle", "result", "witness", "agrees"), orows)
    sys.stdout.write(out)
    return 0


def _cmd_converge(args: argparse.Namespace) -> int:
    _check_positive("--n-max", args.n_max, 1)
    _check_positive("--resolution", args.resolution, 16)
    theta = _theta_arg(args.theta)
    rows_payload = []
    for n in range(1, args.n_max + 1):
        formula = tau_phi5(n, theta)
        quad5 = quadrature_measures(
            Copula(builtin("phi5", n), theta), resolution=args.resolution
        ).tau
        tau6 = None
        if n >= 2:
            tau6 = quadrature_measures(
                Copula(builtin("phi6", n), theta), resolution=args.resolution
            ).tau
        rows_payload.append(
            {
                "n": n,
                "tau5_formula": formula,
                "tau5_quadrature": quad5,
                "difference": abs(formula - quad5),
                "tau6_quadrature": tau6,
            }
        )
    if args.format == "json":
        _emit_json(
            {"theta": theta, "resolution": args.resolution, "rows": rows_payload}
        )
        return 0
    rows = [
        (
            str(r["n"]),
            _f6(r["tau5_formula"]),
            _f6(r["tau5_quadrature"]),
            f"{r['difference']:.3e}",
            "-" if r["tau6_quadrature"] is None else _f6(r["tau6_quadrature"]),
        )
        for r in rows_payload
    ]
    table = _render_table(
        ("n", "tau5_formula", "tau5_quadrature", "|difference|", "tau6_quadrature"),
        rows,
    )
    sys.stdout.write(
        f"theta: {_f6(theta)}  resolution: {args.resolution}\n" + table
    )
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "measures": _cmd_measures,
    "table1": _cmd_table1,
    "sample": _cmd_sample,
    "check": _cmd_check,
    "converge": _cmd_converge,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _CliError as err:
        _emit_error(args.format, err)
        return err.code
    except GeneratorValidationError as err:
        cli_err = _CliError(
            1, "validation", str(err), {"report": err.report.to_dict()}
        )
        _emit_error(args.format, cli_err)
        return 1
    except EvaluationDomainError as err:
        # an expression undefined at a point some later scan probes
        _emit_error(args.format, _CliError(1, "domain", str(err)))
        return 1


if __name__ == "__main__":
    sys.exit(main())
