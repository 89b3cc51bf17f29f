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

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .generator import Generator, GeneratorValidationError, validate
from .numerics import RandomStream, bisect

__all__ = ["Copula", "SamplePairs", "KinkPointError", "ThetaRangeError"]


class ThetaRangeError(ValueError):
    """theta outside [-1, 1]; the family is not defined there."""


class KinkPointError(ValueError):
    """Derivative-based quantity requested exactly on a declared kink."""


def _off_kink(u: float, kinks: tuple[float, ...]) -> float:
    """Nudge u one ulp upward if it sits exactly on a declared kink."""
    if u in kinks:
        return math.nextafter(u, 1.0)
    return u


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
        theta = float(theta)
        if math.isnan(theta) or not (-1.0 <= theta <= 1.0):
            raise ThetaRangeError(f"theta must lie in [-1, 1], got {theta!r}")
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
        return 1.0 + self.theta * self.gen.derivative(u) * self.gen.derivative(v)

    def conditional_cdf(self, u: float, v: float) -> float:
        """P(V <= v | U = u) = v + theta*phi'(u)*phi(v)."""
        self._check_unit("u", u)
        self._check_unit("v", v)
        if u in self.gen.kinks:
            raise KinkPointError(
                f"conditional cdf undefined at a kink of {self.gen.label} (u={u!r})"
            )
        return v + self.theta * self.gen.derivative(u) * self.gen.phi(v)

    def conditional_quantile(self, u: float, w: float, tol: float = 1e-12) -> float:
        """Inverse of the conditional cdf in v, by bisection.

        The conditional cdf is nondecreasing in v (its v-derivative is the
        density), continuous, 0 at v=0 and 1 at v=1, so bisection to `tol`
        on the function value (or interval width) always lands.
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
        return bisect(f, 0.0, 1.0, w, tol=tol, max_iter=200)

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
        """cdf on the tensor grid xs x xs, with one phi call per node.

        Cell (i, j) equals cdf(xs[i], xs[j]) bit for bit: the products are
        formed in the same order, only broadcast.
        """
        nodes = self._grid_nodes(xs)
        phi = np.array([self.gen.phi(x) for x in nodes])
        return np.multiply.outer(nodes, nodes) + np.multiply.outer(self.theta * phi, phi)

    def density_grid(self, xs: Sequence[float]) -> np.ndarray:
        """density on the tensor grid xs x xs, with one phi' call per node.

        A cell whose u or v node sits on a declared kink takes the density at
        both coordinates nudged one ulp upward; every other cell equals
        density(xs[i], xs[j]) bit for bit.
        """
        nodes = self._grid_nodes(xs)
        slope = np.array([self.gen.derivative(x) for x in nodes])
        grid = 1.0 + np.multiply.outer(self.theta * slope, slope)
        on_kink = np.array([x in self.gen.kinks for x in nodes], dtype=bool)
        if on_kink.any():
            up = [math.nextafter(x, 1.0) for x in nodes]
            nudged = np.array([self.gen.derivative(x) for x in up])
            hit = np.logical_or.outer(on_kink, on_kink)
            grid[hit] = (1.0 + np.multiply.outer(self.theta * nudged, nudged))[hit]
        return grid

    # -- sampling --------------------------------------------------------------

    def sample(self, n: int, seed: int) -> SamplePairs:
        """Draw n exact pairs via conditional inversion.

        For each pair: u ~ U(0,1), w ~ U(0,1) (in that order), and v solves
        conditional_cdf(u, v) = w by bisection to 1e-12.  A u that lands
        exactly on a declared kink is nudged one ulp toward 1.
        """
        if n < 0:
            raise ValueError("n must be nonnegative")
        stream = RandomStream(seed)
        kinks = self.gen.kinks
        out: list[tuple[float, float]] = []
        for _ in range(n):
            u = _off_kink(stream.next_float(), kinks)
            w = stream.next_float()
            out.append((u, self.conditional_quantile(u, w)))
        return SamplePairs(tuple(out), seed=seed, n=n)

    # -- helpers ---------------------------------------------------------------

    def _grid_nodes(self, xs: Sequence[float]) -> list[float]:
        nodes = [float(x) for x in xs]
        for x in nodes:
            self._check_unit("grid node", x)
        return nodes

    @staticmethod
    def _check_unit(name: str, value: float) -> None:
        if not (0.0 <= value <= 1.0):
            raise ValueError(f"{name} must lie in [0, 1], got {value!r}")

    def __repr__(self) -> str:
        return f"Copula({self.gen.label}, theta={self.theta!r})"
