"""Generator functions phi and their validity checks.

A generator is a function phi on [0, 1] with phi(0) = phi(1) = 0 that is
1-Lipschitz (equivalently |phi'| <= 1 almost everywhere, equivalently
|phi(x)| <= min(x, 1-x)).  Exactly those functions make

    C(u, v) = u*v + theta * phi(u) * phi(v),   theta in [-1, 1]

a copula for every theta.  Six named families ship with the package:

    phi1        min(x, 1-x)                      sharpest admissible envelope
    phi2        x(1-x)                           the classic quadratic family
    phi3        x(1-x)(1-2x)                     sign-changing cubic
    phi4        sin(pi x)/pi                     smooth trigonometric
    phi5 (n>=1) antiderivative of clamp(-n(x-1/2), -1, 1): linear ramps of
                slope +-1 glued by a parabolic cap of width 2/n around 1/2;
                C^1 for every n and equal to the three-piece ramp/cap/ramp
                formula whenever the cap lies inside [0, 1] (n >= 2)
    phi6 (n>=2) 1 - (x^n + (1-x)^n)^(1/n)        smooth, increasing to phi1

phi5 and phi6 both converge to phi1 as n grows; phi5's cap joins and phi1's
midpoint are recorded as kink sets so that grid scans of derivatives can
skip the points where the relevant one-sided limits disagree.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .exprlang import (
    _KERNELS,
    EvaluationDomainError,
    Expression,
    compile_array,
    differentiate,
    evaluate,
    parse,
    to_source,
)
from .numerics import uniform_grid

__all__ = [
    "Generator",
    "GeneratorValidationError",
    "CheckResult",
    "ValidationReport",
    "BUILTIN_NAMES",
    "MAX_TOL",
    "builtin",
    "from_expression",
    "validate",
]

BUILTIN_NAMES = ("phi1", "phi2", "phi3", "phi4", "phi5", "phi6")

MAX_TOL = 1e-3  # validate refuses a tolerance this large or larger

Form = Callable  # a float to a float, or a 1-D float array to an array


class GeneratorValidationError(ValueError):
    """Raised when a copula is built on a generator that fails validation."""

    def __init__(self, report: "ValidationReport") -> None:
        failing = ", ".join(c.name for c in report.checks if c.verdict == "fail")
        super().__init__(
            f"generator {report.label!r} failed validation ({failing or 'unknown'})"
        )
        self.report = report


@dataclass(frozen=True, eq=False)
class Generator:
    """An immutable generator: phi and its first two derivatives, plus metadata.

    Each of `phi`, `phi_prime` and `phi_second` is one callable for floats
    and arrays.  Called with a float, it returns a float and raises
    EvaluationDomainError where the form is undefined.  Called with a 1-D
    float array, it returns an array, bit for bit the float results, with
    NaN where the float call raises.  A form picks its path with
    ``isinstance(x, np.ndarray)``, so an np.float64 takes the float path.
    `kinks` lists interior points where phi' or phi'' is discontinuous;
    evaluation of density-like quantities is refused there and grid scans
    skip them.  `certified_valid` marks the shipped builtins, whose validity
    is an algebraic fact rather than a grid observation.  The exact
    unit-interval integrals of phi and |phi| are carried as Fractions when the
    family is piecewise polynomial.
    """

    phi: Form
    phi_prime: Form
    phi_second: Form
    label: str
    n: int | None = None
    kinks: tuple[float, ...] = ()
    certified_valid: bool = False
    exact_integral: Fraction | None = None
    exact_abs_integral: Fraction | None = None
    source: str | None = None


def raise_at_nan(
    fn: Form, xs: np.ndarray, values: np.ndarray | None = None
) -> np.ndarray:
    """values (fn(xs) when omitted), once fn has been called at each NaN.

    The float calls go in index order, so the first point where fn raises
    EvaluationDomainError raises the error a point-by-point scan of xs meets
    first.  A form that returns NaN there leaves the NaN in place.
    """
    if values is None:
        values = fn(xs)
    for i in np.flatnonzero(np.isnan(values)).tolist():
        fn(float(xs[i]))
    return values


def _form(on_float: Callable, on_array: Callable, ndarray=np.ndarray) -> Form:
    def form(x):
        if isinstance(x, ndarray):
            return on_array(x)
        return on_float(x)

    return form


# ---------------------------------------------------------------------------
# Builtin catalog
#
# Each builtin writes phi, phi' and phi'' once, over a kit of operations, and
# reads them with two kits.  The float kit is math, Python's min and max and
# **.  The array kit keeps every bit of it: + - * /, sin and cos are numpy
# ufuncs, min and max are exprlang's kernels, which keep Python's tie rule,
# and every ** is Python's, point by point, because numpy's power does not
# round like it.  `on(mask, x, fn, rest)` is fn(x) where mask holds and rest
# elsewhere; fn sees only the points in the mask.


def _pow(base: np.ndarray, exponent: float) -> np.ndarray:
    return np.array([b**exponent for b in base.tolist()], dtype=float)


def _on(mask: np.ndarray, xs: np.ndarray, fn: Callable, rest: np.ndarray) -> np.ndarray:
    out = np.array(rest, dtype=float)
    out[mask] = fn(xs[mask])
    return out


_FLOATS = SimpleNamespace(
    sin=math.sin,
    cos=math.cos,
    min=min,
    max=max,
    pow=operator.pow,
    where=lambda cond, a, b: a if cond else b,
    full=lambda x, value: value,
    on=lambda mask, x, fn, rest: fn(x) if mask else rest,
)

_ARRAYS = SimpleNamespace(
    sin=np.sin,
    cos=np.cos,
    min=_KERNELS["min"],
    max=_KERNELS["max"],
    pow=_pow,
    where=np.where,
    full=lambda xs, value: np.full(np.shape(xs), value),
    on=_on,
)


def _forms(build: Callable, *args) -> dict[str, Form]:
    """phi, phi' and phi'' from build(*args, kit), read with both kits."""
    pairs = zip(build(*args, _FLOATS), build(*args, _ARRAYS))
    forms = (_form(on_float, on_array) for on_float, on_array in pairs)
    return dict(zip(("phi", "phi_prime", "phi_second"), forms))


def _phi1_forms(k) -> tuple[Callable, Callable, Callable]:
    return (
        lambda x: k.min(x, 1.0 - x),
        # left-derivative convention at the midpoint kink: slope +1 there
        lambda x: k.where(x <= 0.5, 1.0, -1.0),
        lambda x: k.full(x, 0.0),
    )


def _phi2_forms(k) -> tuple[Callable, Callable, Callable]:
    return (
        lambda x: x * (1.0 - x),
        lambda x: 1.0 - 2.0 * x,
        lambda x: k.full(x, -2.0),
    )


def _phi3_forms(k) -> tuple[Callable, Callable, Callable]:
    return (
        lambda x: x * (1.0 - x) * (1.0 - 2.0 * x),
        lambda x: 1.0 - 6.0 * x + 6.0 * x * x,
        lambda x: 12.0 * x - 6.0,
    )


def _phi4_forms(k) -> tuple[Callable, Callable, Callable]:
    pi, sin, cos = math.pi, k.sin, k.cos
    return (
        lambda x: sin(pi * x) / pi,
        lambda x: cos(pi * x),
        lambda x: -pi * sin(pi * x),
    )


def _phi5_forms(n: int, a: float, b: float, k) -> tuple[Callable, Callable, Callable]:
    """phi5 with its cap on (a, b): ramps of slope +-1 outside it."""
    half_n = 0.5 * n
    cap_base = a + half_n * (a - 0.5) ** 2  # value that makes the join continuous

    def cap(x):
        return cap_base - half_n * k.pow(x - 0.5, 2)

    def phi(x):
        # the cap's power runs on cap points only
        return k.on((a < x) & (x < b), x, cap, k.where(x <= a, x, 1.0 - x))

    def phi_prime(x):
        return k.min(1.0, k.max(-1.0, n * (0.5 - x)))

    def phi_second(x):
        # second derivative jumps at the joins; left-sided value reported
        return k.where((x <= a) | (x > b), 0.0, -float(n))

    return phi, phi_prime, phi_second


def _phi6_forms(n: int, k) -> tuple[Callable, Callable, Callable]:
    inv_n = 1.0 / n
    pw = k.pow

    def phi(x):
        s = pw(x, n) + pw(1.0 - x, n)
        return 1.0 - pw(s, inv_n)

    def phi_prime(x):
        s = pw(x, n) + pw(1.0 - x, n)
        p = pw(x, n - 1) - pw(1.0 - x, n - 1)
        return -pw(s, inv_n - 1.0) * p

    def phi_second(x):
        s = pw(x, n) + pw(1.0 - x, n)
        p = pw(x, n - 1) - pw(1.0 - x, n - 1)
        q = pw(x, n - 2) + pw(1.0 - x, n - 2)
        return -((inv_n - 1.0) * pw(s, inv_n - 2.0) * n * p * p + pw(s, inv_n - 1.0) * (n - 1) * q)

    return phi, phi_prime, phi_second


def _phi1() -> Generator:
    quarter = Fraction(1, 4)
    return Generator(
        **_forms(_phi1_forms),
        label="phi1",
        kinks=(0.5,),
        certified_valid=True,
        exact_integral=quarter,
        exact_abs_integral=quarter,
    )


def _phi2() -> Generator:
    sixth = Fraction(1, 6)
    return Generator(
        **_forms(_phi2_forms),
        label="phi2",
        certified_valid=True,
        exact_integral=sixth,
        exact_abs_integral=sixth,
    )


def _phi3() -> Generator:
    return Generator(
        **_forms(_phi3_forms),
        label="phi3",
        certified_valid=True,
        exact_integral=Fraction(0),
        exact_abs_integral=Fraction(1, 16),
    )


def _phi4() -> Generator:
    return Generator(**_forms(_phi4_forms), label="phi4", certified_valid=True)


def _phi5(n: int) -> Generator:
    # Antiderivative of clamp(-n(x - 1/2), -1, 1).  The cap spans
    # (1/2 - 1/n, 1/2 + 1/n) intersected with [0, 1]; outside it the slope
    # saturates at +-1 and phi coincides with min(x, 1-x).
    a = max(0.0, 0.5 - 1.0 / n)
    b = min(1.0, 0.5 + 1.0 / n)
    exact = Fraction(1, 12) if n == 1 else Fraction(1, 4) - Fraction(1, 3 * n * n)
    return Generator(
        **_forms(_phi5_forms, n, a, b),
        label=f"phi5[n={n}]",
        n=n,
        kinks=tuple(p for p in (a, b) if 0.0 < p < 1.0),
        certified_valid=True,
        exact_integral=exact,
        exact_abs_integral=exact,  # phi5 is nonnegative on [0, 1]
    )


def _phi6(n: int) -> Generator:
    return Generator(
        **_forms(_phi6_forms, n), label=f"phi6[n={n}]", n=n, certified_valid=True
    )


def builtin(name: str, n: int | None = None) -> Generator:
    """Construct one of the shipped generator families.

    phi5 takes an order n >= 1, phi6 an order n >= 2; the other four take no
    order argument.
    """
    if name not in BUILTIN_NAMES:
        raise ValueError(f"unknown builtin {name!r}; expected one of {BUILTIN_NAMES}")
    if name == "phi5":
        if n is None or n < 1:
            raise ValueError("phi5 requires an integer order n >= 1")
        return _phi5(int(n))
    if name == "phi6":
        if n is None or n < 2:
            raise ValueError("phi6 requires an integer order n >= 2")
        return _phi6(int(n))
    if n is not None:
        raise ValueError(f"{name} does not take an order argument")
    return {"phi1": _phi1, "phi2": _phi2, "phi3": _phi3, "phi4": _phi4}[name]()


# ---------------------------------------------------------------------------
# Expression-backed generators


def from_expression(expr: Expression | str) -> Generator:
    """Wrap a parsed expression as a generator.

    The expression is probed at x in {0, 0.5, 1}; a domain error there is
    raised immediately (the function cannot be a generator if it is not even
    defined on [0, 1]).  First and second derivatives are symbolic.  Each
    form walks its tree for a float (`evaluate`, which names the failing
    node) and runs its `compile_array` steps for an array, planned at the
    form's first array call, so a form never called with an array costs none.
    """
    if isinstance(expr, str):
        tree = parse(expr)
        source = expr.strip()
    else:
        tree = expr
        source = to_source(tree)
    d1 = differentiate(tree)
    d2 = differentiate(d1)
    for probe in (0.0, 0.5, 1.0):
        evaluate(tree, probe)  # propagate EvaluationDomainError
    forms = (_form(partial(evaluate, t), compile_array(t)) for t in (tree, d1, d2))
    return Generator(
        **dict(zip(("phi", "phi_prime", "phi_second"), forms)),
        label=f"expr:{source}",
        source=source,
    )


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one validity condition on the scan grid.

    witness is (x, measured value) for the violating point with the largest
    measured magnitude, present exactly when verdict == "fail".
    """

    name: str
    verdict: str  # "pass" | "fail" | "inconclusive"
    witness: tuple[float, float] | None
    note: str

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "verdict": self.verdict,
            "witness": list(self.witness) if self.witness else None,
            "note": self.note,
        }


@dataclass(frozen=True)
class ValidationReport:
    """Grid-level verdicts for the three generator conditions."""

    label: str
    grid_points: int
    tol: float
    certified: bool
    checks: tuple[CheckResult, ...]

    @property
    def overall_pass(self) -> bool:
        return all(c.verdict == "pass" for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "generator": self.label,
            "grid_points": self.grid_points,
            "tol": self.tol,
            "certified": self.certified,
            "checks": [c.to_dict() for c in self.checks],
            "overall": "pass" if self.overall_pass else "fail",
        }


def _check_endpoints(gen: Generator, tol: float) -> CheckResult:
    worst: tuple[float, float] | None = None
    for x in (0.0, 1.0):
        try:
            value = abs(gen.phi(x))
        except EvaluationDomainError:
            return CheckResult(
                "endpoints", "fail", (x, math.inf), f"phi undefined at x={x}"
            )
        if value > tol and (worst is None or value > worst[1]):
            worst = (x, value)
    if worst is not None:
        return CheckResult(
            "endpoints", "fail", worst, f"|phi| exceeds {tol} at an endpoint"
        )
    return CheckResult("endpoints", "pass", None, "phi(0) and phi(1) within tol of 0")


def _check_derivative_bound(
    gen: Generator, xs: np.ndarray, tol: float
) -> CheckResult:
    pts = xs[~np.isin(xs, gen.kinks)]
    d = np.abs(gen.phi_prime(pts))
    violations = d > 1.0 + tol  # False where phi' is undefined (NaN)
    if violations.any():
        i = int(np.argmax(np.where(violations, d, -math.inf)))  # first largest
        return CheckResult(
            "derivative_bound",
            "fail",
            (float(pts[i]), float(d[i])),
            "|phi'| exceeds 1 + tol (symbolic derivative)",
        )
    skipped = int(np.isnan(d).sum())
    if skipped > 8:
        return CheckResult(
            "derivative_bound",
            "inconclusive",
            None,
            f"derivative undefined at {skipped} grid points",
        )
    return CheckResult(
        "derivative_bound",
        "pass",
        None,
        "|phi'| <= 1 + tol on the grid (symbolic derivative)",
    )


def _check_envelope(gen: Generator, xs: np.ndarray, tol: float) -> CheckResult:
    values = np.abs(gen.phi(xs))
    undefined = np.isnan(values)
    if undefined.any():
        x = float(xs[np.argmax(undefined)])  # the first undefined point
        return CheckResult("envelope", "fail", (x, math.inf), f"phi undefined at x={x}")
    violations = values > np.minimum(xs, 1.0 - xs) + tol
    if violations.any():
        i = int(np.argmax(np.where(violations, values, -math.inf)))  # first largest
        return CheckResult(
            "envelope",
            "fail",
            (float(xs[i]), float(values[i])),
            "|phi(x)| exceeds min(x, 1-x) + tol",
        )
    return CheckResult("envelope", "pass", None, "|phi| within the triangular envelope")


def validate(gen: Generator, grid_points: int = 4097, tol: float = 1e-9) -> ValidationReport:
    """Scan the three generator conditions on a uniform grid.

    Verdicts are grid-level: a pass certifies the conditions at grid_points
    sample points within tol, nothing more.  The shipped builtins carry
    certified_valid=True because their validity is algebraic; the scan is
    still performed and reported.  Failures are report entries, not errors.
    tol must lie in (0, MAX_TOL): a large tolerance would make the
    derivative and envelope checks vacuous.
    """
    if grid_points < 3:
        raise ValueError("grid_points must be at least 3")
    if not (0.0 < tol < MAX_TOL):  # also refuses NaN
        raise ValueError(f"tol must be positive and below {MAX_TOL:g}")
    xs = uniform_grid(grid_points)
    checks = (
        _check_endpoints(gen, tol),
        _check_derivative_bound(gen, xs, tol),
        _check_envelope(gen, xs, tol),
    )
    return ValidationReport(
        label=gen.label,
        grid_points=grid_points,
        tol=tol,
        certified=gen.certified_valid,
        checks=checks,
    )
