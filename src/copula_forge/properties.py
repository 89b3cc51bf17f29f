"""Symmetry, positive-dependence, and ordering classification.

Verdicts are three-valued.  Grid scans of conditions on phi can certify
``fails`` (every fails verdict carries a witness that reproduces the
violation when plugged back into the defining inequality) but support
``holds`` only up to the stated grid and tolerance; ``inconclusive`` marks
conditions that are sufficient-only or scans that could not decide.

Two independent layers:

* the phi-condition scans of ``dependence_profile`` read all twelve
  verdicts off the generator: reflection identities about 1/2 for
  symmetry; sign constancy of phi for quadrant dependence and concordance
  ordering; monotonicity of phi(u)/u and phi(u)/(u-1) for tail
  monotonicity; curvature sign for stochastic increase, density total
  positivity and the stochastic-increase ordering.

* definition-level oracles (``oracle_pqd``, ``oracle_tp2``, ``oracle_pfd``)
  verify the same properties directly from cdf/density values, never from
  the phi conditions, so the two layers cross-check each other.

Positive-dependence semantics read theta > 0.  theta = 0 yields the
independence copula, where every property holds with equality.  For
theta < 0 the same phi-conditions classify the mirrored negative-dependence
analogues and the report carries a ``negative_dependence`` flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .copula import Copula, check_theta
from .generator import Generator, raise_at_nan
from .numerics import gauss_axis, legendre_rule, uniform_grid

__all__ = [
    "Verdict",
    "PropertyReport",
    "PROPERTY_KEYS",
    "dependence_profile",
    "oracle_pqd",
    "oracle_tp2",
    "oracle_pfd",
    "pfd_closed_form",
]

PROPERTY_KEYS = (
    "radial_symmetry",
    "joint_symmetry",
    "pfd",
    "pqd",
    "ltd",
    "rti",
    "si",
    "lcsd",
    "rcsi",
    "tp2",
    "concordance_ordered",
    "si_ordered",
)

_ORACLE_TOL = 1e-12
PQD_GRID = 201  # nodes per axis of the PQD oracle's uniform cdf grid
TP2_GRID = 101  # cell midpoints per axis of the TP2 oracle
PFD_NODES = 64  # Gauss nodes per piece of the PFD closed-form reference


@dataclass(frozen=True)
class Verdict:
    """Outcome of one property check.

    status is "holds", "fails", or "inconclusive"; fails always carries a
    witness (a point, a point pair, or a tuple of pairs, depending on the
    property).  method records which layer produced the verdict.
    """

    status: str
    witness: tuple | None = None
    note: str = ""
    method: str = "phi_condition"

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "witness": _listify(self.witness),
            "note": self.note,
            "method": self.method,
        }


def _listify(obj):
    if isinstance(obj, tuple):
        return [_listify(item) for item in obj]
    return obj


@dataclass(frozen=True)
class PropertyReport:
    """Bundle of verdicts for one (generator, theta) pair."""

    label: str
    theta: float
    grid: int
    tol: float
    negative_dependence: bool
    verdicts: dict[str, Verdict] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "theta": self.theta,
            "grid": self.grid,
            "tol": self.tol,
            "negative_dependence": self.negative_dependence,
            "verdicts": {k: self.verdicts[k].to_dict() for k in PROPERTY_KEYS},
        }


# ---------------------------------------------------------------------------
# The grid sample


class GridSample:
    """One generator read on one uniform grid, at one scan tolerance.

    Holds the nodes xs and the nodes off the declared kinks.  phi(xs),
    phi(1 - xs) and phi'' off the kinks are each one pass of the
    generator's forms over an array, made on first use, and so are the sign
    scans of phi and phi'' that pqd, si, tp2 and both orderings share.  NaN
    marks a node where the float call raises EvaluationDomainError; every scan
    passes what it reads to ``raise_at_nan`` in the order the point-by-point
    scans read it, so the first error they met is the one raised, and a NaN
    no scan reads raises nothing.
    """

    def __init__(self, gen: Generator, grid: int, tol: float) -> None:
        if grid < 3:
            raise ValueError("grid must be at least 3")
        if not (tol > 0.0):
            raise ValueError("tol must be positive")
        self.gen = gen
        self.tol = tol
        self.meta = f"grid={grid}, tol={tol:g}"
        self.xs = uniform_grid(grid)
        self.smooth_xs = self.xs[~np.isin(self.xs, gen.kinks)]

    @cached_property
    def phi(self) -> np.ndarray:
        return self.gen.phi(self.xs)

    @cached_property
    def mirrored(self) -> np.ndarray:
        return self.gen.phi(1.0 - self.xs)

    @cached_property
    def phi_signs(self) -> tuple[float | None, float | None]:
        """Earliest nodes with phi > tol and with phi < -tol."""
        raise_at_nan(self.gen.phi, self.xs, self.phi)
        return self._signs(self.xs, self.phi)

    @cached_property
    def curvature_signs(self) -> tuple[float | None, float | None]:
        """The same for phi'', kink abscissae excluded."""
        values = raise_at_nan(self.gen.phi_second, self.smooth_xs)
        return self._signs(self.smooth_xs, values)

    def _signs(self, xs: np.ndarray, values: np.ndarray) -> tuple[float | None, float | None]:
        firsts = (_first_index(values > self.tol), _first_index(values < -self.tol))
        return tuple(None if i is None else float(xs[i]) for i in firsts)


def _first_index(mask: np.ndarray) -> int | None:
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


_CURVATURE_HOW = "symbolic second derivative, kink abscissae excluded"


def _sign_verdict(
    pos: float | None,
    neg: float | None,
    holds_note: str,
    fails_note: str,
) -> Verdict:
    if pos is None or neg is None:
        return Verdict(status="holds", note=holds_note)
    return Verdict(status="fails", witness=(pos, neg), note=fails_note)


def _monotone_direction(rise, drop) -> str:
    if rise is None and drop is None:
        return "constant"
    return "nonincreasing" if rise is None else "nondecreasing"


def _curvature_shape(cpos, cneg, flat: str) -> str:
    """phi's shape where its curvature keeps one sign; flat names none."""
    if cpos is None and cneg is None:
        return flat
    return "concave" if cpos is None else "convex"


# ---------------------------------------------------------------------------
# Symmetry


def _symmetry(sample: GridSample) -> tuple[Verdict, Verdict]:
    """(radial, joint) symmetry verdicts from the reflection identities.

    The copula family is radially symmetric about (1/2, 1/2) iff
    phi(u) = phi(1-u) for all u (even) or phi(u) = -phi(1-u) for all u
    (odd); it is jointly symmetric iff the odd identity holds.
    """
    # The point-by-point scan read phi(1-u), then phi(u), node by node, and
    # stopped at the node where it held both witnesses: a NaN up to that
    # node raises, one past it was never read.
    xs, here, mirrored, tol = sample.xs, sample.phi, sample.mirrored, sample.tol
    with np.errstate(invalid="ignore", over="ignore"):  # as Python's float ops
        even = _first_index(np.abs(here - mirrored) > tol)
        odd = _first_index(np.abs(here + mirrored) > tol)
    stop = xs.size if even is None or odd is None else max(even, odd) + 1
    undefined = np.isnan(here[:stop]) | np.isnan(mirrored[:stop])
    for i in np.flatnonzero(undefined).tolist():
        u = float(xs[i])
        sample.gen.phi(1.0 - u)
        sample.gen.phi(u)
    even_viol, odd_viol = (None if i is None else float(xs[i]) for i in (even, odd))
    meta = sample.meta
    if even_viol is None and odd_viol is None:
        radial = Verdict(
            status="holds",
            note=f"phi satisfies both reflection identities about 1/2 ({meta})",
        )
    elif even_viol is None or odd_viol is None:
        which = "even" if even_viol is None else "odd"
        radial = Verdict(
            status="holds",
            note=f"phi satisfies the {which} reflection identity about 1/2 ({meta})",
        )
    else:
        radial = Verdict(
            status="fails",
            witness=(even_viol, odd_viol),
            note=(
                "neither reflection identity holds: "
                "|phi(u)-phi(1-u)| > tol at the first witness and "
                f"|phi(u)+phi(1-u)| > tol at the second ({meta})"
            ),
        )
    if odd_viol is None:
        joint = Verdict(
            status="holds",
            note=f"phi(u) = -phi(1-u) on the grid ({meta})",
        )
    else:
        joint = Verdict(
            status="fails",
            witness=(odd_viol,),
            note=f"|phi(u)+phi(1-u)| > tol at the witness ({meta})",
        )
    return radial, joint


# ---------------------------------------------------------------------------
# Dependence profile


def _ordering(sample: GridSample) -> tuple[Verdict, Verdict]:
    """(concordance, si) ordering verdicts for the family swept over theta.

    Concordance ordering holds iff phi keeps one sign.  The curvature
    condition for the stochastic-increase ordering is sufficient only, so
    that verdict is never "fails": a sign-changing curvature yields
    "inconclusive".
    """
    meta = sample.meta
    concordance = _sign_verdict(
        *sample.phi_signs,
        holds_note=f"phi keeps one sign, so the family is pointwise monotone in theta ({meta})",
        fails_note=(
            "phi takes both signs: witness = (u_pos, u_neg) with phi(u_pos) > tol "
            f"and phi(u_neg) < -tol, so C is not monotone in theta at (u_pos, u_neg) ({meta})"
        ),
    )
    cpos, cneg = sample.curvature_signs
    if cpos is None or cneg is None:
        shape = _curvature_shape(cpos, cneg, "constant-curvature")
        si = Verdict(
            status="holds",
            note=f"phi is {shape} ({_CURVATURE_HOW}; {meta}); sufficient for the ordering",
        )
    else:
        si = Verdict(
            status="inconclusive",
            note=(
                f"curvature changes sign (positive near u={cpos:g}, negative near "
                f"u={cneg:g}; {_CURVATURE_HOW}; {meta}); the convex-or-concave criterion is "
                "sufficient only, so failure cannot be certified"
            ),
        )
    return concordance, si


def _tail_verdict(sample: GridSample, vals: np.ndarray, ratio: str, suffix: str) -> Verdict:
    """Monotonicity of the tail ratio phi(u)/u or phi(u)/(u-1) on the grid.

    The witnesses are the earliest adjacent node pairs across which the
    ratio rises and falls by more than tol.
    """
    xs, tol = sample.xs, sample.tol
    with np.errstate(invalid="ignore"):  # inf - inf compares false, as in Python
        delta = np.diff(vals)
    rise, drop = (
        None if i is None else (float(xs[i]), float(xs[i + 1]))
        for i in (_first_index(delta > tol), _first_index(delta < -tol))
    )
    meta = sample.meta
    if rise is None or drop is None:
        return Verdict(
            status="holds",
            note=f"{ratio} is {_monotone_direction(rise, drop)} ({meta}){suffix}",
        )
    return Verdict(
        status="fails",
        witness=(rise, drop),
        note=(
            f"{ratio} is not monotone: it rises across the first pair "
            f"and falls across the second ({meta}){suffix}"
        ),
    )


def dependence_profile(
    gen: Generator, theta: float, grid: int = 1001, tol: float = 1e-9
) -> PropertyReport:
    """Classify all twelve symmetry/dependence/ordering properties.

    Every verdict in the report comes from conditions on phi (method
    "phi_condition"); use the oracle functions for definition-level
    cross-checks.  One grid sample serves every scan, and the curvature
    scan runs once for si, tp2 and si_ordered.
    """
    sample = GridSample(gen, grid, tol)
    check_theta(theta)
    xs, meta = sample.xs, sample.meta
    verdicts: dict[str, Verdict] = {}

    negative = theta < 0.0
    suffix = (
        " [theta < 0: the same condition classifies the mirrored"
        " negative-dependence analogue]"
        if negative
        else ""
    )

    if theta == 0.0:
        note = "theta = 0: independence copula, property holds with equality"
        for key in PROPERTY_KEYS[:-2]:  # all but the two orderings
            verdicts[key] = Verdict(status="holds", note=note)
    else:
        verdicts["radial_symmetry"], verdicts["joint_symmetry"] = _symmetry(sample)
        verdicts["pfd"] = Verdict(
            status="holds",
            note=(
                "cov(g(U), g(V)) = theta*(integral of g*phi')^2 for every "
                "square-integrable g, so the sign of theta settles it"
                + (
                    "; nonpositive for theta < 0 (mirrored analogue)"
                    if negative
                    else ""
                )
            ),
        )

        verdicts["pqd"] = _sign_verdict(
            *sample.phi_signs,
            holds_note=f"phi keeps one sign ({meta}){suffix}",
            fails_note=(
                "phi takes both signs: witness = (u_pos, u_neg) with "
                "phi(u_pos) > tol and phi(u_neg) < -tol, so "
                f"theta*phi(u_pos)*phi(u_neg) < 0 ({meta}){suffix}"
            ),
        )

        # phi(u)/u with the u -> 0 limit phi'(0+), and phi(u)/(u-1) with the
        # u -> 1 limit phi'(1-); phi(0) = phi(1) = 0 makes these continuous.
        phi = sample.phi
        with np.errstate(over="ignore"):  # Python's float division overflows to inf too
            ltd_vals = np.concatenate(([gen.phi_prime(0.0)], phi[1:] / xs[1:]))
            verdicts["ltd"] = _tail_verdict(sample, ltd_vals, "phi(u)/u", suffix)
            rti_vals = np.concatenate((phi[:-1] / (xs[:-1] - 1.0), [gen.phi_prime(1.0)]))
            verdicts["rti"] = _tail_verdict(sample, rti_vals, "phi(u)/(u-1)", suffix)

        cpos, cneg = sample.curvature_signs
        if cpos is None or cneg is None:
            shape = _curvature_shape(cpos, cneg, "affine-flat")
            verdicts["si"] = Verdict(
                status="holds",
                note=f"phi is {shape} ({_CURVATURE_HOW}; {meta}){suffix}",
            )
        else:
            verdicts["si"] = Verdict(
                status="fails",
                witness=(cpos, cneg),
                note=(
                    "second derivative takes both signs: witness = (u_pos, "
                    f"u_neg) ({_CURVATURE_HOW}; {meta}){suffix}"
                ),
            )

        for key, source, reason in (
            ("lcsd", "ltd", "equivalent to LTD in this family; "),
            ("rcsi", "rti", "equivalent to RTI in this family; "),
            ("tp2", "si", "density total positivity reduces to phi' monotone, i.e. the "
             "same curvature condition as SI; "),
        ):
            verdicts[key] = replace(verdicts[source], note=reason + verdicts[source].note)

    verdicts["concordance_ordered"], verdicts["si_ordered"] = _ordering(sample)

    return PropertyReport(
        label=gen.label,
        theta=theta,
        grid=grid,
        tol=tol,
        negative_dependence=negative,
        verdicts=verdicts,
    )


# ---------------------------------------------------------------------------
# Definition-level oracles


def oracle_pqd(cop: Copula) -> Verdict:
    """Check cdf(u,v) >= uv - 1e-12 on the PQD_GRID-node grid, straight from cdf.

    Tests the positive-quadrant inequality as stated, so for theta < 0 a
    sign-constant generator correctly fails here while the phi-condition
    verdict describes the mirrored property.
    """
    xs = uniform_grid(PQD_GRID)
    excess = cop.cdf_grid(xs)
    excess -= np.multiply.outer(xs, xs)
    below = excess < -_ORACLE_TOL
    if below.any():
        i, j = np.unravel_index(np.argmax(below), below.shape)  # first, row-major
        return Verdict(
            status="fails",
            witness=(float(xs[i]), float(xs[j])),
            note=f"cdf(u,v) < uv - {_ORACLE_TOL:g} at the witness (grid={PQD_GRID})",
            method="definition_oracle",
        )
    return Verdict(
        status="holds",
        note=f"cdf(u,v) >= uv - {_ORACLE_TOL:g} on the full grid (grid={PQD_GRID})",
        method="definition_oracle",
    )


def _first_ordered_pair(
    d: np.ndarray, breaks: Callable[[np.ndarray], np.ndarray]
) -> tuple[int, int] | None:
    """The first (i, j) with i < j, in row-major order, where breaks(d[i] - d[j])."""
    for i in range(d.size - 1):
        hits = np.flatnonzero(breaks(d[i] - d[i + 1 :]))
        if hits.size:
            return i, i + 1 + int(hits[0])
    return None


def oracle_tp2(cop: Copula) -> Verdict:
    """Exhaustive 2x2 total-positivity check of the density on TP2_GRID cells.

    The cross product c(u1,v1)c(u2,v2) - c(u1,v2)c(u2,v1) factors exactly as
    theta*(phi'(u1)-phi'(u2))*(phi'(v1)-phi'(v2)), so all pairs-of-pairs are
    covered by scanning the ordered pair differences of phi' on one axis:
    O(grid^2) instead of O(grid^4).  Grid nodes are cell midpoints, nudged
    off any declared kink abscissa.
    """
    gen = cop.gen
    xs = (np.arange(TP2_GRID) + 0.5) / TP2_GRID
    xs = np.where(np.isin(xs, gen.kinks), np.nextafter(xs, 1.0), xs)
    d = raise_at_nan(gen.phi_prime, xs)
    theta = cop.theta
    # min and max of d[i] - d[j] over i < j, through prefix extremes
    lo = float((np.minimum.accumulate(d)[:-1] - d[1:]).min())
    hi = float((np.maximum.accumulate(d)[:-1] - d[1:]).max())
    worst = min(theta * lo * lo, theta * lo * hi, theta * hi * hi)
    note_meta = f"grid={TP2_GRID}, factorized scan, tol={_ORACLE_TOL:g}"
    if worst >= -_ORACLE_TOL:
        return Verdict(
            status="holds",
            note=(
                "theta*(phi'(u1)-phi'(u2))*(phi'(v1)-phi'(v2)) >= -tol for all "
                f"u1<u2, v1<v2 ({note_meta})"
            ),
            method="definition_oracle",
        )
    # the first pair (u1, u2) in row-major order that some (v1, v2) breaks,
    # then the first such (v1, v2)
    witness = None
    first = _first_ordered_pair(
        d,
        lambda diff: (theta * diff * lo < -_ORACLE_TOL) | (theta * diff * hi < -_ORACLE_TOL),
    )
    if first is not None:
        scaled = theta * (d[first[0]] - d[first[1]])
        second = _first_ordered_pair(d, lambda diff: scaled * diff < -_ORACLE_TOL)
        witness = tuple(float(xs[k]) for k in (*first, *second))
    return Verdict(
        status="fails",
        witness=witness,
        note=(
            "witness = (u1, u2, v1, v2) with "
            f"c(u1,v1)c(u2,v2) - c(u1,v2)c(u2,v1) < -tol ({note_meta})"
        ),
        method="definition_oracle",
    )


def oracle_pfd(
    cop: Copula,
    g: Callable[[float], float],
    resolution: int = 512,
) -> float:
    """cov(g(U), g(V)) by 2-D quadrature against the copula density.

    Both moments come from the same density grid; nothing is taken from the
    closed form theta*(integral of g*phi')^2, which callers use as the
    independent reference.  For theta >= 0 the result must be >= -tol.
    """
    if resolution < 16:
        raise ValueError("resolution must be at least 16")
    xs, ws = gauss_axis(resolution)
    dgrid = cop.density_grid(xs)
    gu = np.array([g(float(x)) for x in xs])
    weights = np.outer(ws, ws)
    joint = float(np.sum(weights * np.outer(gu, gu) * dgrid))
    mean_u = float(np.sum(weights * gu[:, None] * dgrid))
    mean_v = float(np.sum(weights * gu[None, :] * dgrid))
    return joint - mean_u * mean_v


def pfd_closed_form(
    cop: Copula,
    g: Callable[[float], float],
    breakpoints: Sequence[float] = (),
) -> float:
    """The factorized covariance theta*(integral of g*phi')^2.

    The one-dimensional integral is taken piecewise between declared kink
    abscissae (plus any caller-supplied breakpoints of g) with a Gauss rule
    of PFD_NODES nodes, all strictly interior, so phi' is never sampled
    where it jumps.  Serves as the independent reference for ``oracle_pfd``.
    """
    gen = cop.gen
    interior = {k for k in (*gen.kinks, *breakpoints) if 0.0 < k < 1.0}
    cuts = [0.0, *sorted(interior), 1.0]
    base_x, base_w = legendre_rule(PFD_NODES)
    panels = [(0.5 * (a + b), 0.5 * (b - a)) for a, b in zip(cuts, cuts[1:])]
    xs = np.concatenate([mid + half * base_x for mid, half in panels])
    slopes = gen.phi_prime(xs).tolist()
    halves = [half for _, half in panels for _ in range(PFD_NODES)]
    weights = base_w.tolist() * len(panels)
    # a plain running sum, in node order: np.sum would pair the terms
    total = 0.0
    for x, w, half, slope in zip(xs.tolist(), weights, halves, slopes):
        gx = g(x)
        if math.isnan(slope):  # undefined: the float call raises its error
            slope = gen.phi_prime(x)
        total += w * half * gx * slope
    return cop.theta * (total * total)
