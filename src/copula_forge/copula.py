"""The copula family C(u, v) = uv + theta * phi(u) * phi(v).

Everything here is exact algebra on top of a validated generator: the cdf is
the defining formula, the density is 1 + theta*phi'(u)*phi'(v), the
conditional distribution of V given U=u is v + theta*phi'(u)*phi(v), and
rectangle mass factorizes as (u2-u1)(v2-v1) + theta*(phi(u2)-phi(u1))*
(phi(v2)-phi(v1)).  The grid forms evaluate phi or phi' once per node of a
tensor grid and broadcast the same formulas, cell for cell bit-identical to
the pointwise methods.  Sampling inverts the conditional cdf by bisection, so a
(seed, n) pair reproduces the same sample bit for bit on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .generator import Generator, GeneratorValidationError, raise_at_nan, validate
from .numerics import RandomStream, bisect

__all__ = ["Copula", "SamplePairs", "KinkPointError", "ThetaRangeError"]

# the conditional quantile stops at this residual or bracket width, and
# gives up after MAX_HALVINGS halvings; the scalar and lockstep paths share both
QUANTILE_TOL = 1e-12
MAX_HALVINGS = 200


class ThetaRangeError(ValueError):
    """theta outside [-1, 1]; the family is not defined there."""


class KinkPointError(ValueError):
    """Derivative-based quantity requested exactly on a declared kink."""


def check_theta(theta: float) -> float:
    """theta as a float; ThetaRangeError outside [-1, 1], NaN included."""
    theta = float(theta)
    if not (-1.0 <= theta <= 1.0):
        raise ThetaRangeError(f"theta must lie in [-1, 1], got {theta!r}")
    return theta


@dataclass(frozen=True)
class SamplePairs:
    """An exact sample from a copula, with its provenance.

    pairs is a tuple of (u, v) coordinates in [0, 1]; seed and n are the
    arguments that produced it.  Draw order per pair: u first, then the
    conditional level w, both from one SplitMix64 stream seeded with `seed`.
    """

    pairs: tuple[tuple[float, float], ...]
    seed: int
    n: int

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return iter(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)


class Copula:
    """One member of the family: a validated generator plus theta.

    Construction rejects theta outside [-1, 1] (no clamping) and refuses
    generators that fail `validate` unless they are certified builtins.
    """

    __slots__ = ("gen", "theta")

    def __init__(self, gen: Generator, theta: float) -> None:
        theta = check_theta(theta)
        if not gen.certified_valid:
            report = validate(gen)
            if not report.overall_pass:
                raise GeneratorValidationError(report)
        self.gen = gen
        self.theta = theta

    # -- pointwise quantities ------------------------------------------------

    def cdf(self, u: float, v: float) -> float:
        """C(u, v) = uv + theta*phi(u)*phi(v)."""
        self._check_unit("u", u)
        self._check_unit("v", v)
        return u * v + self.theta * self.gen.phi(u) * self.gen.phi(v)

    def density(self, u: float, v: float) -> float:
        """c(u, v) = 1 + theta*phi'(u)*phi'(v), undefined on kink lines."""
        self._check_unit("u", u)
        self._check_unit("v", v)
        kinks = self.gen.kinks
        if u in kinks or v in kinks:
            raise KinkPointError(
                f"density undefined at a kink of {self.gen.label} (u={u!r}, v={v!r})"
            )
        return 1.0 + self.theta * self.gen.phi_prime(u) * self.gen.phi_prime(v)

    def conditional_cdf(self, u: float, v: float) -> float:
        """P(V <= v | U = u) = v + theta*phi'(u)*phi(v)."""
        self._check_unit("u", u)
        self._check_unit("v", v)
        if u in self.gen.kinks:
            raise KinkPointError(
                f"conditional cdf undefined at a kink of {self.gen.label} (u={u!r})"
            )
        return v + self.theta * self.gen.phi_prime(u) * self.gen.phi(v)

    def conditional_quantile(self, u: float, w: float) -> float:
        """Inverse of the conditional cdf in v, by bisection.

        The conditional cdf is nondecreasing in v (its v-derivative is the
        density), continuous, 0 at v=0 and 1 at v=1, so bisection to
        QUANTILE_TOL on the function value (or interval width) always lands.
        """
        self._check_unit("u", u)
        if not (0.0 <= w <= 1.0):
            raise ValueError(f"w must lie in [0, 1], got {w!r}")
        f = lambda v: self.conditional_cdf(u, v)
        # guard the exact-endpoint levels: phi(0)=phi(1)=0 only up to rounding
        if w <= f(0.0):
            return 0.0
        if w >= f(1.0):
            return 1.0
        return bisect(f, 0.0, 1.0, w, tol=QUANTILE_TOL, max_iter=MAX_HALVINGS)

    def rectangle_volume(self, u1: float, u2: float, v1: float, v2: float) -> float:
        """Mass of [u1,u2] x [v1,v2]; requires u1 <= u2 and v1 <= v2."""
        for name, val in (("u1", u1), ("u2", u2), ("v1", v1), ("v2", v2)):
            self._check_unit(name, val)
        if u1 > u2 or v1 > v2:
            raise ValueError("rectangle corners must be ordered")
        phi = self.gen.phi
        return (u2 - u1) * (v2 - v1) + self.theta * (phi(u2) - phi(u1)) * (
            phi(v2) - phi(v1)
        )

    # -- grid forms ------------------------------------------------------------

    def cdf_grid(self, xs: Sequence[float]) -> np.ndarray:
        """cdf on the tensor grid xs x xs, from phi once per node.

        Cell (i, j) equals cdf(xs[i], xs[j]) bit for bit: the products are
        formed in the same order, only broadcast.
        """
        nodes = self._grid_nodes(xs)
        phi = raise_at_nan(self.gen.phi, nodes)
        grid = np.multiply.outer(nodes, nodes)
        grid += np.multiply.outer(self.theta * phi, phi)
        return grid

    def density_grid(self, xs: Sequence[float]) -> np.ndarray:
        """density on the tensor grid xs x xs, from phi' once per node.

        A cell whose u or v node sits on a declared kink takes the density at
        both coordinates nudged one ulp upward; every other cell equals
        density(xs[i], xs[j]) bit for bit.
        """
        gen = self.gen
        nodes = self._grid_nodes(xs)
        slope = raise_at_nan(gen.phi_prime, nodes)
        grid = 1.0 + np.multiply.outer(self.theta * slope, slope)
        on_kink = np.isin(nodes, gen.kinks)
        if on_kink.any():
            up = np.nextafter(nodes, 1.0)
            nudged = raise_at_nan(gen.phi_prime, up)
            hit = np.logical_or.outer(on_kink, on_kink)
            grid[hit] = (1.0 + np.multiply.outer(self.theta * nudged, nudged))[hit]
        return grid

    # -- sampling --------------------------------------------------------------

    def sample(self, n: int, seed: int) -> SamplePairs:
        """Draw n exact pairs via conditional inversion.

        For each pair: u ~ U(0,1), w ~ U(0,1) (in that order), and v solves
        conditional_cdf(u, v) = w by bisection to QUANTILE_TOL.  A u that lands
        exactly on a declared kink is nudged one ulp toward 1.  All pairs are
        solved together, each with the exact steps of conditional_quantile.
        """
        if n < 0:
            raise ValueError("n must be nonnegative")
        draws = RandomStream(seed).next_floats(2 * n)
        u, w = draws[0::2], draws[1::2]
        u = np.where(np.isin(u, self.gen.kinks), np.nextafter(u, 1.0), u)
        v, undefined = self._lockstep_quantiles(u, w)
        us, ws, vs = u.tolist(), w.tolist(), v.tolist()
        # the scalar path raises the error the pair-by-pair loop raised first
        for i in np.flatnonzero(undefined).tolist():
            vs[i] = self.conditional_quantile(us[i], ws[i])
        return SamplePairs(tuple(zip(us, vs)), seed=seed, n=n)

    def _lockstep_quantiles(
        self, u: np.ndarray, w: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """conditional_quantile of every pair, bisected in lockstep.

        The conditional cdf v + (theta*phi'(u))*phi(v) keeps its operation
        order, and the guards, midpoints and stopping rule are those of
        conditional_quantile and numerics.bisect, so every solved v is
        bit-identical.  The mask marks pairs left unsolved: a NaN (where the
        scalar path raises a domain error) or still live after MAX_HALVINGS
        halvings.
        """
        gen = self.gen
        with np.errstate(over="ignore"):  # Python floats overflow to inf too
            a = self.theta * gen.phi_prime(u)
            phi0, phi1 = gen.phi(np.array([0.0, 1.0])).tolist()
            f0 = 0.0 + a * phi0
            f1 = 1.0 + a * phi1
            low = w <= f0
            high = ~low & (w >= f1)
            undefined = np.isnan(f0) | (~low & np.isnan(f1))
            v = np.where(high, 1.0, 0.0)
            live = np.flatnonzero(~(low | high | undefined))
            a, w = a[live], w[live]
            lo, hi = np.zeros(live.size), np.ones(live.size)
            for _ in range(MAX_HALVINGS):
                if not live.size:
                    break
                mid = 0.5 * (lo + hi)
                fmid = mid + a * gen.phi(mid)
                nan = np.isnan(fmid)
                stop = (np.abs(fmid - w) <= QUANTILE_TOL) | ((hi - lo) <= QUANTILE_TOL)
                undefined[live[nan]] = True
                v[live[stop]] = mid[stop]
                up = fmid < w
                lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
                keep = ~(stop | nan)
                live, a, w, lo, hi = live[keep], a[keep], w[keep], lo[keep], hi[keep]
        undefined[live] = True
        return v, undefined

    # -- helpers ---------------------------------------------------------------

    def _grid_nodes(self, xs: Sequence[float]) -> np.ndarray:
        nodes = np.array(xs, dtype=float)
        outside = np.flatnonzero(~((nodes >= 0.0) & (nodes <= 1.0)))  # NaN too
        if outside.size:
            self._check_unit("grid node", float(nodes[outside[0]]))
        return nodes

    @staticmethod
    def _check_unit(name: str, value: float) -> None:
        if not (0.0 <= value <= 1.0):
            raise ValueError(f"{name} must lie in [0, 1], got {value!r}")

    def __repr__(self) -> str:
        return f"Copula({self.gen.label}, theta={self.theta!r})"
