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
from typing import Callable

import numpy as np

from .exprlang import (
    EvaluationDomainError,
    Expression,
    differentiate,
    evaluate,
    evaluate_array,
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

ArrayFn = Callable[[np.ndarray], np.ndarray]


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

    `kinks` lists interior points where phi' or phi'' is discontinuous;
    evaluation of density-like quantities is refused there and grid scans
    skip them.  `certified_valid` marks the shipped builtins, whose validity
    is an algebraic fact rather than a grid observation.  The exact
    unit-interval integrals of phi and |phi| are carried as Fractions when the
    family is piecewise polynomial.  `phi_array`, `phi_prime_array` and
    `phi_second_array` are optional array forms of phi, phi' and phi'', bit
    for bit the scalar form at every point, with NaN where the scalar form
    raises EvaluationDomainError; without one, `phi_values`,
    `derivative_values` or `second_derivative_values` call the scalar form
    point by point.  The builtins and expression generators carry all three.
    """

    phi: Callable[[float], float]
    phi_prime: Callable[[float], float]
    phi_second: Callable[[float], float]
    label: str
    n: int | None = None
    kinks: tuple[float, ...] = ()
    certified_valid: bool = False
    exact_integral: Fraction | None = None
    exact_abs_integral: Fraction | None = None
    source: str | None = None
    phi_array: ArrayFn | None = None
    phi_prime_array: ArrayFn | None = None
    phi_second_array: ArrayFn | None = None

    def derivative(self, x: float) -> float:
        return self.phi_prime(x)

    def second_derivative(self, x: float) -> float:
        return self.phi_second(x)

    def phi_values(self, xs: np.ndarray) -> np.ndarray:
        """phi at every point of the 1-D array xs; NaN where it is undefined."""
        if self.phi_array is not None:
            return self.phi_array(xs)
        return _map_points(self.phi, xs)

    def derivative_values(self, xs: np.ndarray) -> np.ndarray:
        """phi' at every point of the 1-D array xs; NaN where it is undefined."""
        if self.phi_prime_array is not None:
            return self.phi_prime_array(xs)
        return _map_points(self.phi_prime, xs)

    def second_derivative_values(self, xs: np.ndarray) -> np.ndarray:
        """phi'' at every point of the 1-D array xs; NaN where it is undefined."""
        if self.phi_second_array is not None:
            return self.phi_second_array(xs)
        return _map_points(self.phi_second, xs)


def raise_at_nan(
    fn: Callable[[float], float], xs: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """values, once the scalar form fn has been called at each of its NaNs.

    The calls go in index order, so the first point where fn raises
    EvaluationDomainError raises the error a point-by-point scan of xs meets
    first.  A scalar form that returns NaN there leaves the NaN in place.
    """
    for i in np.flatnonzero(np.isnan(values)).tolist():
        fn(float(xs[i]))
    return values


def _map_points(fn: Callable[[float], float], xs: np.ndarray) -> np.ndarray:
    """A scalar function over an array, NaN where it raises a domain error."""
    out = np.empty(len(xs))
    for i, x in enumerate(xs.tolist()):
        try:
            out[i] = fn(x)
        except EvaluationDomainError:
            out[i] = math.nan
    return out


# ---------------------------------------------------------------------------
# Builtin catalog
#
# Each builtin carries array forms that equal its scalar lambdas bit for bit:
# + - * /, sin and cos are numpy ufuncs, min and max copy Python's tie rule
# (the first argument unless the second is strictly smaller or larger), and
# every ** is Python's, point by point, because numpy's power does not round
# like it.


def _min(a, b):
    return np.where(b < a, b, a)


def _max(a, b):
    return np.where(b > a, b, a)


def _pow(base: np.ndarray, exponent: float) -> np.ndarray:
    return np.array([b**exponent for b in base.tolist()], dtype=float)


def _constant(value: float) -> ArrayFn:
    return lambda xs: np.full(np.shape(xs), value)


def _phi1() -> Generator:
    quarter = Fraction(1, 4)
    return Generator(
        phi=lambda x: min(x, 1.0 - x),
        # left-derivative convention at the midpoint kink: slope +1 there
        phi_prime=lambda x: 1.0 if x <= 0.5 else -1.0,
        phi_second=lambda x: 0.0,
        label="phi1",
        kinks=(0.5,),
        certified_valid=True,
        exact_integral=quarter,
        exact_abs_integral=quarter,
        phi_array=lambda xs: _min(xs, 1.0 - xs),
        phi_prime_array=lambda xs: np.where(xs <= 0.5, 1.0, -1.0),
        phi_second_array=_constant(0.0),
    )


def _phi2() -> Generator:
    sixth = Fraction(1, 6)
    # these forms serve arrays as they are
    phi = lambda x: x * (1.0 - x)
    phi_prime = lambda x: 1.0 - 2.0 * x
    return Generator(
        phi=phi,
        phi_prime=phi_prime,
        phi_second=lambda x: -2.0,
        label="phi2",
        certified_valid=True,
        exact_integral=sixth,
        exact_abs_integral=sixth,
        phi_array=phi,
        phi_prime_array=phi_prime,
        phi_second_array=_constant(-2.0),
    )


def _phi3() -> Generator:
    # these forms serve arrays as they are
    phi = lambda x: x * (1.0 - x) * (1.0 - 2.0 * x)
    phi_prime = lambda x: 1.0 - 6.0 * x + 6.0 * x * x
    phi_second = lambda x: 12.0 * x - 6.0
    return Generator(
        phi=phi,
        phi_prime=phi_prime,
        phi_second=phi_second,
        label="phi3",
        certified_valid=True,
        exact_integral=Fraction(0),
        exact_abs_integral=Fraction(1, 16),
        phi_array=phi,
        phi_prime_array=phi_prime,
        phi_second_array=phi_second,
    )


def _phi4() -> Generator:
    pi = math.pi
    return Generator(
        phi=lambda x: math.sin(pi * x) / pi,
        phi_prime=lambda x: math.cos(pi * x),
        phi_second=lambda x: -pi * math.sin(pi * x),
        label="phi4",
        certified_valid=True,
        phi_array=lambda xs: np.sin(pi * xs) / pi,
        phi_prime_array=lambda xs: np.cos(pi * xs),
        phi_second_array=lambda xs: -pi * np.sin(pi * xs),
    )


def _phi5(n: int) -> Generator:
    # Antiderivative of clamp(-n(x - 1/2), -1, 1).  The cap spans
    # (1/2 - 1/n, 1/2 + 1/n) intersected with [0, 1]; outside it the slope
    # saturates at +-1 and phi coincides with min(x, 1-x).
    a = max(0.0, 0.5 - 1.0 / n)
    b = min(1.0, 0.5 + 1.0 / n)
    half_n = 0.5 * n
    cap_base = a + half_n * (a - 0.5) ** 2  # value that makes the join continuous

    def phi(x: float) -> float:
        if x <= a:
            return x
        if x >= b:
            return 1.0 - x
        return cap_base - half_n * (x - 0.5) ** 2

    def phi_array(xs: np.ndarray) -> np.ndarray:
        out = np.where(xs <= a, xs, 1.0 - xs)
        cap = (xs > a) & (xs < b)
        out[cap] = cap_base - half_n * _pow(xs[cap] - 0.5, 2)
        return out

    def phi_prime(x: float) -> float:
        return min(1.0, max(-1.0, n * (0.5 - x)))

    def phi_second(x: float) -> float:
        # second derivative jumps at the joins; left-sided value reported
        if x <= a or x > b:
            return 0.0
        return -float(n)

    interior_kinks = tuple(p for p in (a, b) if 0.0 < p < 1.0)
    exact = Fraction(1, 12) if n == 1 else Fraction(1, 4) - Fraction(1, 3 * n * n)
    return Generator(
        phi=phi,
        phi_prime=phi_prime,
        phi_second=phi_second,
        label=f"phi5[n={n}]",
        n=n,
        kinks=interior_kinks,
        certified_valid=True,
        exact_integral=exact,
        exact_abs_integral=exact,  # phi5 is nonnegative on [0, 1]
        phi_array=phi_array,
        phi_prime_array=lambda xs: _min(1.0, _max(-1.0, n * (0.5 - xs))),
        phi_second_array=lambda xs: np.where((xs <= a) | (xs > b), 0.0, -float(n)),
    )


def _phi6_forms(n: int, pw: Callable) -> tuple[Callable, Callable, Callable]:
    """phi, phi' and phi'' of phi6, with every power taken by pw(base, exponent)."""
    inv_n = 1.0 / n

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


def _phi6(n: int) -> Generator:
    phi, phi_prime, phi_second = _phi6_forms(n, operator.pow)
    phi_array, phi_prime_array, phi_second_array = _phi6_forms(n, _pow)
    return Generator(
        phi=phi,
        phi_prime=phi_prime,
        phi_second=phi_second,
        label=f"phi6[n={n}]",
        n=n,
        certified_valid=True,
        phi_array=phi_array,
        phi_prime_array=phi_prime_array,
        phi_second_array=phi_second_array,
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
    defined on [0, 1]).  First and second derivatives are symbolic, and phi,
    phi' and phi'' come with array forms that evaluate the tree over whole
    grids.
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
    return Generator(
        phi=lambda x: evaluate(tree, x),
        phi_prime=lambda x: evaluate(d1, x),
        phi_second=lambda x: evaluate(d2, x),
        label=f"expr:{source}",
        source=source,
        phi_array=lambda xs: evaluate_array(tree, xs),
        phi_prime_array=lambda xs: evaluate_array(d1, xs),
        phi_second_array=lambda xs: evaluate_array(d2, xs),
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
    d = np.abs(gen.derivative_values(pts))
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
    values = np.abs(gen.phi_values(xs))
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
