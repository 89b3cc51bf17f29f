"""Shared numerical kernels: quadrature, bisection and the seeded random stream.

The random stream is the SplitMix64 generator, specified here so that an
independent implementation can reproduce every sample bit for bit:

    state  <- (state + 0x9E3779B97F4A7C15) mod 2^64      (advance)
    z      <- state
    z      <- (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9 mod 2^64
    z      <- (z XOR (z >> 27)) * 0x94D049BB133111EB mod 2^64
    output <- z XOR (z >> 31)                            (mix)

Doubles in [0, 1) take the top 53 bits of the output: (output >> 11) * 2^-53.

Quadrature comes in two flavours.  ``integrate_1d`` is adaptive Simpson with
explicit breakpoint splitting for integrands with known kinks.
``integrate_2d`` is a composite tensor Gauss-Legendre rule over [0,1]^2:
``panels_per_axis`` uniform panels per axis with Gauss nodes inside each
panel.  Cell values fill one fixed-shape array that a single numpy pairwise
sum reduces, so the result depends only on the integrand and the rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "QuadratureConfig",
    "QuadratureError",
    "BracketError",
    "ConvergenceError",
    "RandomStream",
    "integrate_1d",
    "integrate_2d",
    "eval_grid",
    "gauss_axis",
    "aligned_panels",
    "bisect",
]


class QuadratureError(ArithmeticError):
    """Adaptive quadrature exhausted its recursion depth."""


class BracketError(ValueError):
    """Bisection target is not bracketed by the endpoint values."""


class ConvergenceError(ArithmeticError):
    """Iteration cap reached before the tolerance was met."""


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerance and grid policy shared by the quadrature routines.

    abs_tol bounds the absolute error target of integrate_1d and is split
    across subintervals.  max_depth caps Simpson recursion (never above 60:
    interval widths hit 1 ulp around depth 52 and further splitting is
    meaningless).  nodes_per_axis and panels_per_axis describe the 2-D rule;
    nodes_per_axis must divide evenly into the panels.
    """

    abs_tol: float = 1e-12
    max_depth: int = 50
    nodes_per_axis: int = 512
    panels_per_axis: int = 1

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0.0):
            raise ValueError("abs_tol must be positive")
        if not (1 <= self.max_depth <= 60):
            raise ValueError("max_depth must be in 1..60")
        if self.nodes_per_axis < 2:
            raise ValueError("nodes_per_axis must be at least 2")
        if self.panels_per_axis < 1:
            raise ValueError("panels_per_axis must be at least 1")
        if self.nodes_per_axis % self.panels_per_axis != 0:
            raise ValueError("nodes_per_axis must be divisible by panels_per_axis")


# ---------------------------------------------------------------------------
# 1-D adaptive Simpson


def integrate_1d(
    f: Callable[[float], float],
    a: float,
    b: float,
    config: QuadratureConfig | None = None,
    breakpoints: Sequence[float] = (),
) -> float:
    """Integrate f over [a, b] to the configured absolute tolerance.

    Interior breakpoints split the interval first so that integrands with
    known kinks are handled piecewise; adaptive bisection then drives each
    piece down to its share of abs_tol.  Raises QuadratureError if max_depth
    is exhausted before the local error estimate falls under tolerance.
    """
    cfg = config or QuadratureConfig()
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
        local_tol = cfg.abs_tol * (hi - lo) / span
        total += _simpson_segment(f, lo, hi, local_tol, cfg.max_depth)
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
# 2-D composite tensor Gauss-Legendre


def aligned_panels(nodes: int) -> int:
    """Panel count for unit-interval tensor grids built from ``nodes`` points.

    16 uniform panels put boundaries at every k/16, which covers all the
    derivative-kink abscissae of the piecewise builtins (1/2, and 1/2 +- 1/n
    for n in {2, 4, 8, 16}); Gauss rules stay spectrally accurate when the
    integrand is smooth inside each panel.  Falls back to a single panel
    when 16 does not divide the node count or the grid is too coarse.
    """
    if nodes % 16 == 0 and nodes >= 64:
        return 16
    return 1


def gauss_axis(nodes: int, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite Gauss-Legendre rule on [0, 1]."""
    per_panel = nodes // panels
    base_x, base_w = np.polynomial.legendre.leggauss(per_panel)
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


def integrate_2d(
    f: Callable[[float, float], float],
    config: QuadratureConfig | None = None,
) -> float:
    """Integrate f over the unit square with the configured composite rule."""
    cfg = config or QuadratureConfig()
    xs, ws = gauss_axis(cfg.nodes_per_axis, cfg.panels_per_axis)
    vals = eval_grid(f, xs, xs)
    weighted = vals * np.outer(ws, ws)
    return float(np.sum(weighted))


# ---------------------------------------------------------------------------
# Bisection


def bisect(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    target: float,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> float:
    """Solve f(x) = target on [lo, hi] for a nondecreasing f.

    Stops when |f(mid) - target| <= tol or the bracket width drops to tol.
    Raises BracketError if target is outside [f(lo), f(hi)] and
    ConvergenceError if max_iter halvings were not enough.
    """
    if not (lo <= hi):
        raise ValueError("bisect needs lo <= hi")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    flo, fhi = f(lo), f(hi)
    if not (flo <= target <= fhi):
        raise BracketError(
            f"target {target!r} not bracketed: f({lo!r})={flo!r}, f({hi!r})={fhi!r}"
        )
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if abs(fmid - target) <= tol or (hi - lo) <= tol:
            return mid
        if fmid < target:
            lo = mid
        else:
            hi = mid
    raise ConvergenceError(f"bisection did not converge in {max_iter} iterations")


# ---------------------------------------------------------------------------
# Deterministic random stream

_GAMMA = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1


class RandomStream:
    """SplitMix64 stream: 64-bit add-and-mix, 53-bit doubles, splittable."""

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

    def split(self) -> "RandomStream":
        """Child stream seeded from the next output; advances this stream."""
        return RandomStream(self.next_u64())
