"""Symmetry, positive-dependence, and ordering classification.

Verdicts are three-valued.  Grid scans of conditions on phi can certify
``fails`` (every fails verdict carries a witness that reproduces the
violation when plugged back into the defining inequality) but support
``holds`` only up to the stated grid and tolerance; ``inconclusive`` marks
conditions that are sufficient-only or scans that could not decide.

Two independent layers:

* phi-condition scans (``symmetry_check``, ``dependence_profile``,
  ``ordering_check``) read the classification off the generator:
  reflection identities about 1/2 for symmetry; sign constancy of phi for
  quadrant dependence and concordance ordering; monotonicity of phi(u)/u
  and phi(u)/(u-1) for tail monotonicity; curvature sign for stochastic
  increase and density total positivity.

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
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .copula import Copula
from .generator import Generator
from .measures import density_grid
from .numerics import aligned_panels, gauss_axis

__all__ = [
    "Verdict",
    "PropertyReport",
    "PROPERTY_KEYS",
    "symmetry_check",
    "dependence_profile",
    "ordering_check",
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
# Grid scan helpers


def _check_scan_args(grid: int, tol: float) -> None:
    if grid < 3:
        raise ValueError("grid must be at least 3")
    if not (tol > 0.0):
        raise ValueError("tol must be positive")


def _uniform_grid(grid: int) -> list[float]:
    step = 1.0 / (grid - 1)
    xs = [i * step for i in range(grid)]
    xs[-1] = 1.0
    return xs


def _first_sign_violations(
    xs: Sequence[float], vals: Sequence[float], tol: float
) -> tuple[float | None, float | None]:
    """Earliest x with value > tol and earliest x with value < -tol."""
    pos = neg = None
    for x, v in zip(xs, vals):
        if pos is None and v > tol:
            pos = x
        if neg is None and v < -tol:
            neg = x
        if pos is not None and neg is not None:
            break
    return pos, neg


def _first_monotone_violations(
    xs: Sequence[float], vals: Sequence[float], tol: float
) -> tuple[tuple[float, float] | None, tuple[float, float] | None]:
    """Earliest adjacent rise pair and earliest adjacent drop pair."""
    rise = drop = None
    for i in range(len(xs) - 1):
        delta = vals[i + 1] - vals[i]
        if rise is None and delta > tol:
            rise = (xs[i], xs[i + 1])
        if drop is None and delta < -tol:
            drop = (xs[i], xs[i + 1])
        if rise is not None and drop is not None:
            break
    return rise, drop


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


def _curvature_scan(
    gen: Generator, xs: Sequence[float], tol: float
) -> tuple[float | None, float | None, str]:
    """Earliest points of positive / negative second derivative.

    Declared kink abscissae are excluded.
    """
    kinkset = set(gen.kinks)
    pts = [x for x in xs if x not in kinkset]
    vals = [gen.phi_second(x) for x in pts]
    pos, neg = _first_sign_violations(pts, vals, tol)
    return pos, neg, "symbolic second derivative, kink abscissae excluded"


# ---------------------------------------------------------------------------
# Symmetry


def symmetry_check(
    gen: Generator, grid: int = 1001, tol: float = 1e-9
) -> tuple[Verdict, Verdict]:
    """(radial, joint) symmetry verdicts from the reflection identities.

    The copula family is radially symmetric about (1/2, 1/2) iff
    phi(u) = phi(1-u) for all u (even) or phi(u) = -phi(1-u) for all u
    (odd); it is jointly symmetric iff the odd identity holds.
    """
    _check_scan_args(grid, tol)
    xs = _uniform_grid(grid)
    even_viol = odd_viol = None
    for u in xs:
        mirrored = gen.phi(1.0 - u)
        here = gen.phi(u)
        if even_viol is None and abs(here - mirrored) > tol:
            even_viol = u
        if odd_viol is None and abs(here + mirrored) > tol:
            odd_viol = u
        if even_viol is not None and odd_viol is not None:
            break
    meta = f"grid={grid}, tol={tol:g}"
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


def ordering_check(
    gen: Generator, grid: int = 1001, tol: float = 1e-9
) -> tuple[Verdict, Verdict]:
    """(concordance, si) ordering verdicts for the family swept over theta.

    Concordance ordering holds iff phi keeps one sign.  The curvature
    condition for the stochastic-increase ordering is sufficient only, so
    that verdict is never "fails": a sign-changing curvature yields
    "inconclusive".
    """
    _check_scan_args(grid, tol)
    xs = _uniform_grid(grid)
    phivals = [gen.phi(x) for x in xs]
    meta = f"grid={grid}, tol={tol:g}"
    pos, neg = _first_sign_violations(xs, phivals, tol)
    concordance = _sign_verdict(
        pos,
        neg,
        holds_note=f"phi keeps one sign, so the family is pointwise monotone in theta ({meta})",
        fails_note=(
            "phi takes both signs: witness = (u_pos, u_neg) with phi(u_pos) > tol "
            f"and phi(u_neg) < -tol, so C is not monotone in theta at (u_pos, u_neg) ({meta})"
        ),
    )
    cpos, cneg, how = _curvature_scan(gen, xs, tol)
    if cpos is None or cneg is None:
        shape = "constant-curvature"
        if cpos is None and cneg is not None:
            shape = "concave"
        elif cneg is None and cpos is not None:
            shape = "convex"
        si = Verdict(
            status="holds",
            note=f"phi is {shape} ({how}; {meta}); sufficient for the ordering",
        )
    else:
        si = Verdict(
            status="inconclusive",
            note=(
                f"curvature changes sign (positive near u={cpos:g}, negative near "
                f"u={cneg:g}; {how}; {meta}); the convex-or-concave criterion is "
                "sufficient only, so failure cannot be certified"
            ),
        )
    return concordance, si


def _holds_all(note: str) -> Callable[[], Verdict]:
    return lambda: Verdict(status="holds", note=note)


def dependence_profile(
    gen: Generator, theta: float, grid: int = 1001, tol: float = 1e-9
) -> PropertyReport:
    """Classify all twelve symmetry/dependence/ordering properties.

    Every verdict in the report comes from conditions on phi (method
    "phi_condition"); use the oracle functions for definition-level
    cross-checks.
    """
    _check_scan_args(grid, tol)
    if math.isnan(theta) or not (-1.0 <= theta <= 1.0):
        raise ValueError("theta must lie in [-1, 1]")
    xs = _uniform_grid(grid)
    meta = f"grid={grid}, tol={tol:g}"
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
        radial = Verdict(status="holds", note=note)
        joint = Verdict(status="holds", note=note)
    else:
        radial, joint = symmetry_check(gen, grid, tol)
    verdicts["radial_symmetry"] = radial
    verdicts["joint_symmetry"] = joint

    if theta == 0.0:
        note = "theta = 0: independence copula, property holds with equality"
        for key in ("pfd", "pqd", "ltd", "rti", "si", "lcsd", "rcsi", "tp2"):
            verdicts[key] = Verdict(status="holds", note=note)
    else:
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

        phivals = [gen.phi(x) for x in xs]
        pos, neg = _first_sign_violations(xs, phivals, tol)
        verdicts["pqd"] = _sign_verdict(
            pos,
            neg,
            holds_note=f"phi keeps one sign ({meta}){suffix}",
            fails_note=(
                "phi takes both signs: witness = (u_pos, u_neg) with "
                "phi(u_pos) > tol and phi(u_neg) < -tol, so "
                f"theta*phi(u_pos)*phi(u_neg) < 0 ({meta}){suffix}"
            ),
        )

        # phi(u)/u with the u -> 0 limit phi'(0+), and phi(u)/(u-1) with the
        # u -> 1 limit phi'(1-); phi(0) = phi(1) = 0 makes these continuous.
        ltd_vals = [gen.derivative(0.0)] + [gen.phi(x) / x for x in xs[1:]]
        rise, drop = _first_monotone_violations(xs, ltd_vals, tol)
        if rise is None or drop is None:
            verdicts["ltd"] = Verdict(
                status="holds",
                note=(
                    f"phi(u)/u is {_monotone_direction(rise, drop)} ({meta}){suffix}"
                ),
            )
        else:
            verdicts["ltd"] = Verdict(
                status="fails",
                witness=(rise, drop),
                note=(
                    "phi(u)/u is not monotone: it rises across the first pair "
                    f"and falls across the second ({meta}){suffix}"
                ),
            )

        rti_vals = [gen.phi(x) / (x - 1.0) for x in xs[:-1]] + [gen.derivative(1.0)]
        rise, drop = _first_monotone_violations(xs, rti_vals, tol)
        if rise is None or drop is None:
            verdicts["rti"] = Verdict(
                status="holds",
                note=(
                    f"phi(u)/(u-1) is {_monotone_direction(rise, drop)} ({meta}){suffix}"
                ),
            )
        else:
            verdicts["rti"] = Verdict(
                status="fails",
                witness=(rise, drop),
                note=(
                    "phi(u)/(u-1) is not monotone: it rises across the first "
                    f"pair and falls across the second ({meta}){suffix}"
                ),
            )

        cpos, cneg, how = _curvature_scan(gen, xs, tol)
        if cpos is None or cneg is None:
            shape = "concave" if cpos is None else "convex"
            if cpos is None and cneg is None:
                shape = "affine-flat"
            verdicts["si"] = Verdict(
                status="holds",
                note=f"phi is {shape} ({how}; {meta}){suffix}",
            )
        else:
            verdicts["si"] = Verdict(
                status="fails",
                witness=(cpos, cneg),
                note=(
                    "second derivative takes both signs: witness = (u_pos, "
                    f"u_neg) ({how}; {meta}){suffix}"
                ),
            )

        verdicts["lcsd"] = Verdict(
            status=verdicts["ltd"].status,
            witness=verdicts["ltd"].witness,
            note="equivalent to LTD in this family; " + verdicts["ltd"].note,
        )
        verdicts["rcsi"] = Verdict(
            status=verdicts["rti"].status,
            witness=verdicts["rti"].witness,
            note="equivalent to RTI in this family; " + verdicts["rti"].note,
        )
        verdicts["tp2"] = Verdict(
            status=verdicts["si"].status,
            witness=verdicts["si"].witness,
            note=(
                "density total positivity reduces to phi' monotone, i.e. the "
                "same curvature condition as SI; " + verdicts["si"].note
            ),
        )

    concordance, si_ordered = ordering_check(gen, grid, tol)
    verdicts["concordance_ordered"] = concordance
    verdicts["si_ordered"] = si_ordered

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


def oracle_pqd(cop: Copula, grid: int = 201) -> Verdict:
    """Check cdf(u,v) >= uv - 1e-12 on the full grid, straight from cdf.

    Tests the positive-quadrant inequality as stated, so for theta < 0 a
    sign-constant generator correctly fails here while the phi-condition
    verdict describes the mirrored property.
    """
    if grid < 2:
        raise ValueError("grid must be at least 2")
    xs = _uniform_grid(grid)
    below = cop.cdf_grid(xs) - np.multiply.outer(xs, xs) < -_ORACLE_TOL
    if below.any():
        i, j = np.unravel_index(np.argmax(below), below.shape)  # first, row-major
        return Verdict(
            status="fails",
            witness=(xs[i], xs[j]),
            note=f"cdf(u,v) < uv - {_ORACLE_TOL:g} at the witness (grid={grid})",
            method="definition_oracle",
        )
    return Verdict(
        status="holds",
        note=f"cdf(u,v) >= uv - {_ORACLE_TOL:g} on the full grid (grid={grid})",
        method="definition_oracle",
    )


def _pair_diff_extremes(d: Sequence[float]) -> tuple[float, float]:
    """min and max of d[i] - d[j] over ordered index pairs i < j."""
    lo = math.inf
    hi = -math.inf
    pref_min = pref_max = d[0]
    for j in range(1, len(d)):
        lo = min(lo, pref_min - d[j])
        hi = max(hi, pref_max - d[j])
        pref_min = min(pref_min, d[j])
        pref_max = max(pref_max, d[j])
    return lo, hi


def oracle_tp2(cop: Copula, grid: int = 101) -> Verdict:
    """Exhaustive 2x2 total-positivity check of the density on a grid.

    The cross product c(u1,v1)c(u2,v2) - c(u1,v2)c(u2,v1) factors exactly as
    theta*(phi'(u1)-phi'(u2))*(phi'(v1)-phi'(v2)), so all pairs-of-pairs are
    covered by scanning the ordered pair differences of phi' on one axis:
    O(grid^2) instead of O(grid^4).  Grid nodes are cell midpoints, nudged
    off any declared kink abscissa.
    """
    if grid < 2:
        raise ValueError("grid must be at least 2")
    kinkset = set(cop.gen.kinks)
    xs = []
    for k in range(grid):
        x = (k + 0.5) / grid
        if x in kinkset:
            x = math.nextafter(x, 1.0)
        xs.append(x)
    d = [cop.gen.derivative(x) for x in xs]
    theta = cop.theta
    lo, hi = _pair_diff_extremes(d)
    if lo > hi:  # grid too small for any ordered pair
        lo = hi = 0.0
    worst = min(theta * lo * lo, theta * lo * hi, theta * hi * hi)
    note_meta = f"grid={grid}, factorized scan, tol={_ORACLE_TOL:g}"
    if worst >= -_ORACLE_TOL:
        return Verdict(
            status="holds",
            note=(
                "theta*(phi'(u1)-phi'(u2))*(phi'(v1)-phi'(v2)) >= -tol for all "
                f"u1<u2, v1<v2 ({note_meta})"
            ),
            method="definition_oracle",
        )
    witness = None
    for i in range(len(xs)):
        if witness is not None:
            break
        for j in range(i + 1, len(xs)):
            d1 = d[i] - d[j]
            if theta * d1 * lo < -_ORACLE_TOL or theta * d1 * hi < -_ORACLE_TOL:
                for l in range(len(xs)):
                    if witness is not None:
                        break
                    for m in range(l + 1, len(xs)):
                        if theta * d1 * (d[l] - d[m]) < -_ORACLE_TOL:
                            witness = (xs[i], xs[j], xs[l], xs[m])
                            break
                break
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
    xs, ws = gauss_axis(resolution, aligned_panels(resolution))
    dgrid = density_grid(cop, xs)
    gu = np.array([g(float(x)) for x in xs])
    weights = np.outer(ws, ws)
    joint = float(np.sum(weights * np.outer(gu, gu) * dgrid))
    mean_u = float(np.sum(weights * gu[:, None] * dgrid))
    mean_v = float(np.sum(weights * gu[None, :] * dgrid))
    return joint - mean_u * mean_v


def pfd_closed_form(
    cop: Copula,
    g: Callable[[float], float],
    nodes: int = 64,
    breakpoints: Sequence[float] = (),
) -> float:
    """The factorized covariance theta*(integral of g*phi')^2.

    The one-dimensional integral is taken piecewise between declared kink
    abscissae (plus any caller-supplied breakpoints of g) with a Gauss rule
    whose nodes are strictly interior, so phi' is never sampled where it
    jumps.  Serves as the independent reference for ``oracle_pfd``.
    """
    gen = cop.gen
    interior = {k for k in (*gen.kinks, *breakpoints) if 0.0 < k < 1.0}
    cuts = [0.0, *sorted(interior), 1.0]
    base_x, base_w = np.polynomial.legendre.leggauss(nodes)
    total = 0.0
    for a, b in zip(cuts, cuts[1:]):
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        for t, w in zip(base_x, base_w):
            x = mid + half * float(t)
            total += float(w) * half * g(x) * gen.derivative(x)
    return cop.theta * (total * total)
