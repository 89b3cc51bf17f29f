"""Association measures: Schweizer-Wolff sigma, Kendall tau, Spearman rho.

Two independent routes are kept deliberately separate:

* ``closed_form_measures`` uses the family's factorized forms

      sigma = 12*|theta| * (int |phi|)^2
      tau   =  8*theta   * (int phi)^2
      rho   = 12*theta   * (int phi)^2  =  1.5 * tau

  with the unit-interval integrals taken as exact rationals for the
  piecewise-polynomial builtins and by adaptive Simpson (abs tol 1e-12)
  otherwise.

* ``quadrature_measures`` evaluates the definitional double integrals

      sigma = 12 * int int |C(u,v) - uv|
      tau   =  4 * int int C(u,v) c(u,v) du dv - 1
      rho   = 12 * int int C(u,v) du dv - 3

  from the copula's cdf/density formulas on a composite tensor
  Gauss-Legendre grid and never touches the factorized forms, so the two
  routes cross-check each other.

``empirical_tau`` (Knight's O(n log n) inversion count, ties contribute
zero) and ``empirical_rho`` (Pearson correlation of average ranks) estimate
the same quantities from samples.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

import numpy as np

from .copula import Copula, SamplePairs, check_theta
from .numerics import gauss_axis, integrate_1d

__all__ = [
    "AssociationMeasures",
    "closed_form_measures",
    "quadrature_measures",
    "empirical_tau",
    "empirical_rho",
    "tau_phi5",
]


@dataclass(frozen=True)
class AssociationMeasures:
    """A (sigma, tau, rho) triple plus the route that produced it.

    For any valid member of the family: sigma in [0, 3/4], |tau| <= 1/2,
    |rho| <= 3/4, and rho = 1.5*tau (exact for method="closed_form" by
    construction, to quadrature accuracy otherwise).
    """

    sigma: float
    tau: float
    rho: float
    method: str  # "closed_form" | "quadrature"


# ---------------------------------------------------------------------------
# Closed-form route


def _generator_integrals(cop: Copula) -> tuple[float, float]:
    """(int phi, int |phi|) over [0, 1]: exact rationals when available.

    Simpson's arithmetic commutes exactly with negation, so where every
    value the first pass read keeps one sign, the |phi| pass would return
    plain or -plain bit for bit and is skipped.
    """
    gen = cop.gen
    if gen.exact_integral is not None and gen.exact_abs_integral is not None:
        return float(gen.exact_integral), float(gen.exact_abs_integral)
    signs = [False, False]  # a value read was > 0, < 0

    def phi(x: float) -> float:
        y = gen.phi(x)
        if y > 0.0:
            signs[0] = True
        elif y < 0.0:
            signs[1] = True
        return y

    plain = integrate_1d(phi, 0.0, 1.0, breakpoints=gen.kinks)
    if not signs[1]:
        return plain, plain
    if not signs[0]:
        return plain, -plain
    magnitude = integrate_1d(lambda x: abs(gen.phi(x)), 0.0, 1.0, breakpoints=gen.kinks)
    return plain, magnitude


def closed_form_measures(cop: Copula) -> AssociationMeasures:
    """sigma/tau/rho from the factorized one-dimensional forms.

    Parenthesization is chosen so that linearity in theta and the identity
    rho = 1.5*tau hold exactly in floating point, not just mathematically.
    """
    plain, magnitude = _generator_integrals(cop)
    sigma = abs(cop.theta) * (12.0 * magnitude * magnitude)
    tau = cop.theta * (8.0 * plain * plain)
    rho = 1.5 * tau
    return AssociationMeasures(sigma=sigma, tau=tau, rho=rho, method="closed_form")


# ---------------------------------------------------------------------------
# Definitional quadrature route


def quadrature_measures(cop: Copula, resolution: int = 512) -> AssociationMeasures:
    """sigma/tau/rho from their defining double integrals.

    Both C and c come from the copula's own cdf and density formulas on a
    resolution^2 composite Gauss-Legendre grid; nothing from the
    closed-form route is reused.
    """
    if resolution < 16:
        raise ValueError("resolution must be at least 16")
    xs, ws = gauss_axis(resolution)
    cgrid = cop.cdf_grid(xs)
    dgrid = cop.density_grid(xs)
    weights = np.outer(ws, ws)
    uv = np.outer(xs, xs)
    sigma = 12.0 * float(np.sum(weights * np.abs(cgrid - uv)))
    tau = 4.0 * float(np.sum(weights * cgrid * dgrid)) - 1.0
    rho = 12.0 * float(np.sum(weights * cgrid)) - 3.0
    return AssociationMeasures(sigma=sigma, tau=tau, rho=rho, method="quadrature")


# ---------------------------------------------------------------------------
# Empirical estimators


def _as_points(pairs: SamplePairs | Iterable[Sequence[float]]) -> list[tuple[float, float]]:
    raw = pairs.pairs if isinstance(pairs, SamplePairs) else pairs
    return [(float(u), float(v)) for u, v in raw]


def _merge_count(values: list[float]) -> int:
    """Number of strict inversions (i < j with values[i] > values[j])."""
    n = len(values)
    if n < 2:
        return 0
    buf = values
    tmp = [0.0] * n
    swaps = 0
    width = 1
    while width < n:
        for lo in range(0, n, 2 * width):
            mid = min(lo + width, n)
            hi = min(lo + 2 * width, n)
            i, j, k = lo, mid, lo
            while i < mid and j < hi:
                if buf[j] < buf[i]:
                    swaps += mid - i
                    tmp[k] = buf[j]
                    j += 1
                else:
                    tmp[k] = buf[i]
                    i += 1
                k += 1
            tmp[k:hi] = buf[i:mid] if i < mid else buf[j:hi]
        buf, tmp = tmp, buf
        width *= 2
    return swaps


def _tie_pairs(values: Iterable[Hashable]) -> int:
    """Number of pairs of equal items."""
    return sum(m * (m - 1) // 2 for m in Counter(values).values())


def empirical_tau(pairs: SamplePairs | Iterable[Sequence[float]]) -> float:
    """Sample Kendall tau-a; pairs tied in either coordinate contribute zero."""
    pts = _as_points(pairs)
    n = len(pts)
    if n < 2:
        raise ValueError("need at least two pairs")
    pts.sort()
    vs = [v for _, v in pts]
    tie_u = _tie_pairs(u for u, _ in pts)
    tie_v = _tie_pairs(vs)
    tie_uv = _tie_pairs(pts)
    discordant = _merge_count(vs)
    total = n * (n - 1) // 2
    concordant_minus_discordant = total - tie_u - tie_v + tie_uv - 2 * discordant
    return concordant_minus_discordant / total


def _average_ranks(values: list[float]) -> np.ndarray:
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)  # 1-based sorted position of each tie group's last item
    return (ends - 0.5 * (counts - 1))[group]  # the mean of the group's positions


def empirical_rho(pairs: SamplePairs | Iterable[Sequence[float]]) -> float:
    """Sample Spearman rho: Pearson correlation of average ranks."""
    pts = _as_points(pairs)
    if len(pts) < 2:
        raise ValueError("need at least two pairs")
    ru = _average_ranks([u for u, _ in pts])
    rv = _average_ranks([v for _, v in pts])
    du = ru - ru.mean()
    dv = rv - rv.mean()
    su = float(np.sqrt(np.sum(du * du)))
    sv = float(np.sqrt(np.sum(dv * dv)))
    if su == 0.0 or sv == 0.0:
        raise ValueError("rank variance is zero; rho undefined")
    return float(np.sum(du * dv)) / (su * sv)


# ---------------------------------------------------------------------------
# The phi5 tau sequence


def tau_phi5(n: int, theta: float) -> float:
    """Kendall tau of the phi5 family: 8*theta*(1/4 - 1/(3n^2))^2.

    Increases to theta/2 (the phi1 value) as n grows.
    """
    if not (n >= 1 and n % 1 == 0):  # refuses 2.5, nan and inf
        raise ValueError("n must be a positive integer")
    check_theta(theta)
    base = 0.25 - 1.0 / (3.0 * n * n)
    return 8.0 * theta * base * base
