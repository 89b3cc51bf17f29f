"""Shared numerical kernels: quadrature, bisection and the seeded random stream.

The random stream is the SplitMix64 generator, specified here so that an
independent implementation can reproduce every sample bit for bit:

    state  <- (state + 0x9E3779B97F4A7C15) mod 2^64      (advance)
    z      <- state
    z      <- (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9 mod 2^64
    z      <- (z XOR (z >> 27)) * 0x94D049BB133111EB mod 2^64
    output <- z XOR (z >> 31)                            (mix)

Doubles in [0, 1) take the top 53 bits of the output: (output >> 11) * 2^-53.
The state after k advances is seed + k * 0x9E3779B97F4A7C15 mod 2^64, so
draw k depends on (seed, k) alone and a whole run of draws is one array
computation (``RandomStream.next_floats``).

``integrate_1d`` is adaptive Simpson with explicit breakpoint splitting for
integrands with known kinks.  ``gauss_axis`` gives the nodes and weights of
a composite Gauss-Legendre rule on [0, 1] with panels on the builtins'
kinks; the 2-D integrals take the tensor product of one axis with itself
over a grid of cell values.
``eval_grid`` fills such a grid one call per cell.  No code of the package
calls it any more; it stays because the benchmark's per-layer tracer wraps
it, and goes once that tracer reads spans from inside the package.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "QuadratureError",
    "BracketError",
    "ConvergenceError",
    "RandomStream",
    "integrate_1d",
    "eval_grid",
    "gauss_axis",
    "uniform_grid",
    "legendre_rule",
    "bisect",
]


class QuadratureError(ArithmeticError):
    """Adaptive quadrature exhausted its recursion depth."""


class BracketError(ValueError):
    """Bisection target is not bracketed by the endpoint values."""


class ConvergenceError(ArithmeticError):
    """Iteration cap reached before the tolerance was met."""


# Simpson recursion depth cap: interval widths reach 1 ulp near depth 52
MAX_DEPTH = 50

# bisection stops at this residual or bracket width, and gives up after
# MAX_HALVINGS halvings; the scalar and lockstep quantile paths share both
QUANTILE_TOL = 1e-12
MAX_HALVINGS = 200


# ---------------------------------------------------------------------------
# 1-D adaptive Simpson


def integrate_1d(
    f: Callable[[float], float],
    a: float,
    b: float,
    abs_tol: float = 1e-12,
    breakpoints: Sequence[float] = (),
) -> float:
    """Integrate f over [a, b] to the absolute tolerance abs_tol.

    Interior breakpoints split the interval first so that integrands with
    known kinks are handled piecewise; adaptive bisection then drives each
    piece down to its share of abs_tol.  Raises QuadratureError if MAX_DEPTH
    is exhausted before the local error estimate falls under tolerance.
    """
    if not (abs_tol > 0.0):
        raise ValueError("abs_tol must be positive")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integration bounds must be finite")
    if a > b:
        raise ValueError("integration bounds must satisfy a <= b")
    if a == b:
        return 0.0
    cuts = sorted({a, b, *(p for p in breakpoints if a < p < b)})
    total = 0.0
    span = b - a
    for lo, hi in zip(cuts, cuts[1:]):
        local_tol = abs_tol * (hi - lo) / span
        total += _simpson_segment(f, lo, hi, local_tol, MAX_DEPTH)
    return total


def _simpson_rule(fa: float, fm: float, fb: float, width: float) -> float:
    return (width / 6.0) * (fa + 4.0 * fm + fb)


def _simpson_segment(f, a: float, b: float, tol: float, max_depth: int) -> float:
    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    whole = _simpson_rule(fa, fm, fb, b - a)
    return _simpson_refine(f, a, fa, m, fm, b, fb, whole, tol, max_depth)


def _simpson_refine(f, a, fa, m, fm, b, fb, whole, tol, depth) -> float:
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = _simpson_rule(fa, flm, fm, m - a)
    right = _simpson_rule(fm, frm, fb, b - m)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    if depth <= 0:
        raise QuadratureError(
            f"adaptive Simpson stalled on [{a!r}, {b!r}] (residual {delta!r})"
        )
    half = 0.5 * tol
    return _simpson_refine(f, a, fa, lm, flm, m, fm, left, half, depth - 1) + _simpson_refine(
        f, m, fm, rm, frm, b, fb, right, half, depth - 1
    )


# ---------------------------------------------------------------------------
# Gauss-Legendre rules and grids


def uniform_grid(points: int) -> np.ndarray:
    """The nodes i/(points-1) of [0, 1]: i times the step, the last exactly 1."""
    xs = np.arange(points) * (1.0 / (points - 1))
    xs[-1] = 1.0
    return xs


@functools.lru_cache(maxsize=32)
def legendre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order.

    numpy solves an eigenproblem for every rule, which costs more than most
    integrals that use it; the cached arrays are shared, so read-only.
    """
    xs, ws = np.polynomial.legendre.leggauss(order)
    xs.flags.writeable = False
    ws.flags.writeable = False
    return xs, ws


def gauss_axis(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite Gauss-Legendre rule on [0, 1].

    16 uniform panels put boundaries at every k/16, which covers all the
    derivative-kink abscissae of the piecewise builtins (1/2, and 1/2 +- 1/n
    for n in {2, 4, 8, 16}); Gauss rules stay spectrally accurate when the
    integrand is smooth inside each panel.  Falls back to a single panel
    when 16 does not divide the node count or the grid is too coarse.
    """
    panels = 16 if nodes % 16 == 0 and nodes >= 64 else 1
    per_panel = nodes // panels
    base_x, base_w = legendre_rule(per_panel)
    xs = np.empty(nodes, dtype=float)
    ws = np.empty(nodes, dtype=float)
    scale = 1.0 / (2.0 * panels)
    for k in range(panels):
        lo = k / panels
        sl = slice(k * per_panel, (k + 1) * per_panel)
        xs[sl] = lo + (base_x + 1.0) * scale
        ws[sl] = base_w * scale
    return xs, ws


def eval_grid(
    f: Callable[[float, float], float],
    xs: Sequence[float],
    ys: Sequence[float],
) -> np.ndarray:
    """Evaluate a scalar function on the cartesian grid xs x ys, cell by cell."""
    ylist = [float(y) for y in ys]
    vals = np.empty((len(xs), len(ylist)), dtype=float)
    for i, x in enumerate(xs):
        vals[i] = [f(float(x), y) for y in ylist]
    return vals


# ---------------------------------------------------------------------------
# Bisection


def bisect(f: Callable[[float], float], lo: float, hi: float, target: float) -> float:
    """Solve f(x) = target on [lo, hi] for a nondecreasing f.

    Stops when |f(mid) - target| or the bracket width drops to QUANTILE_TOL.
    Raises BracketError if target is outside [f(lo), f(hi)] and
    ConvergenceError if MAX_HALVINGS halvings were not enough.
    """
    if not (lo <= hi):
        raise ValueError("bisect needs lo <= hi")
    flo, fhi = f(lo), f(hi)
    if not (flo <= target <= fhi):
        raise BracketError(
            f"target {target!r} not bracketed: f({lo!r})={flo!r}, f({hi!r})={fhi!r}"
        )
    for _ in range(MAX_HALVINGS):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if abs(fmid - target) <= QUANTILE_TOL or (hi - lo) <= QUANTILE_TOL:
            return mid
        if fmid < target:
            lo = mid
        else:
            hi = mid
    raise ConvergenceError(f"bisection did not converge in {MAX_HALVINGS} iterations")


# ---------------------------------------------------------------------------
# Deterministic random stream

_GAMMA = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1


class RandomStream:
    """SplitMix64 stream: 64-bit add-and-mix, 53-bit doubles."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = int(seed) & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        """Uniform double in [0, 1) from the top 53 output bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def next_floats(self, count: int) -> np.ndarray:
        """The next `count` values of next_float, as one float64 array.

        Draw k is the mix of state + k * gamma, so the whole run is computed
        in uint64 arrays, whose arithmetic wraps modulo 2^64 as the spec's.
        """
        k = np.arange(1, count + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):
            z = np.uint64(self._state) + k * np.uint64(_GAMMA)
            z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_A)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_B)
        z ^= z >> np.uint64(31)
        self._state = (self._state + count * _GAMMA) & _MASK64
        return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53
