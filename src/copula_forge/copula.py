"""The copula family C(u, v) = uv + theta * phi(u) * phi(v).

Everything here is exact algebra on top of a validated generator: the cdf is
the defining formula, the density is 1 + theta*phi'(u)*phi'(v), the
conditional distribution of V given U=u is v + theta*phi'(u)*phi(v), and
rectangle mass factorizes as (u2-u1)(v2-v1) + theta*(phi(u2)-phi(u1))*
(phi(v2)-phi(v1)).  The grid forms evaluate phi or phi' once per node of a
tensor grid and broadcast the same formulas, cell for cell bit-identical to
the pointwise methods.  Sampling inverts the conditional cdf by bisection, so a
(seed, n) pair reproduces the same sample bit for bit on the same libm (on any
IEEE-754 platform for formulas without sin, cos, log or pow).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .generator import Generator, GeneratorValidationError, raise_at_nan, validate
from .numerics import MAX_HALVINGS, ConvergenceError, RandomStream, bisect

__all__ = ["Copula", "SamplePairs", "KinkPointError", "ThetaRangeError"]


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
        self._check_off_kink(u)
        return v + self.theta * self.gen.phi_prime(u) * self.gen.phi(v)

    def conditional_quantile(self, u: float, w: float) -> float:
        """Inverse of the conditional cdf in v, by bisection.

        The conditional cdf is nondecreasing in v (its v-derivative is the
        density), continuous, 0 at v=0 and 1 at v=1, so bisection to
        QUANTILE_TOL on the function value (or interval width) always lands.
        """
        self._check_unit("u", u)
        self._check_unit("w", w)
        self._check_off_kink(u)
        return self._quantiles(np.array([u], dtype=float), np.array([w], dtype=float)).item()

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
        solved together; each v is the one conditional_quantile gives its pair.
        """
        if n < 0:
            raise ValueError("n must be nonnegative")
        draws = RandomStream(seed).next_floats(2 * n)
        u, w = draws[0::2], draws[1::2]
        u = np.where(np.isin(u, self.gen.kinks), np.nextafter(u, 1.0), u)
        v = self._quantiles(u, w)
        return SamplePairs(tuple(zip(u.tolist(), v.tolist())), seed=seed, n=n)

    def _quantiles(self, u: np.ndarray, w: np.ndarray) -> np.ndarray:
        """conditional_quantile of each pair (u[i], w[i]), u off the kinks.

        The first unsolved pair raises what a pair-by-pair loop meets first:
        conditional_cdf's error where the solve read NaN (FloatingPointError
        if it reads NaN too), or ConvergenceError after MAX_HALVINGS halvings.
        """
        gen = self.gen
        with np.errstate(over="ignore"):  # Python floats overflow to inf too
            a = self.theta * gen.phi_prime(u)
            v, unsolved = bisect(lambda x, rows: x + a[rows] * gen.phi(x), w)
        bad = np.flatnonzero(unsolved)
        if bad.size:
            ui, vi = u[bad[0]].item(), v[bad[0]].item()
            if np.isnan(vi):
                raise ConvergenceError(f"bisection did not converge in {MAX_HALVINGS} iterations")
            self.conditional_cdf(ui, vi)
            raise FloatingPointError(f"conditional cdf read NaN at u={ui!r}, v={vi!r}")
        return v

    # -- helpers ---------------------------------------------------------------

    def _grid_nodes(self, xs: Sequence[float]) -> np.ndarray:
        nodes = np.array(xs, dtype=float)
        outside = np.flatnonzero(~((nodes >= 0.0) & (nodes <= 1.0)))  # NaN too
        if outside.size:
            self._check_unit("grid node", float(nodes[outside[0]]))
        return nodes

    def _check_off_kink(self, u: float) -> None:
        if u in self.gen.kinks:
            raise KinkPointError(
                f"conditional cdf undefined at a kink of {self.gen.label} (u={u!r})"
            )

    @staticmethod
    def _check_unit(name: str, value: float) -> None:
        if not (0.0 <= value <= 1.0):
            raise ValueError(f"{name} must lie in [0, 1], got {value!r}")

    def __repr__(self) -> str:
        return f"Copula({self.gen.label}, theta={self.theta!r})"
