"""Copula construction, pointwise formulas, rectangles and exact sampling."""

from __future__ import annotations

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from copula_forge.copula import Copula, KinkPointError, SamplePairs, ThetaRangeError
from copula_forge.exprlang import EvaluationDomainError
from copula_forge.generator import GeneratorValidationError, builtin, from_expression
from copula_forge import numerics
from copula_forge.numerics import (
    MAX_HALVINGS,
    QUANTILE_TOL,
    ConvergenceError,
    RandomStream,
    gauss_axis,
)

from conftest import random_valid_expression_generators, with_hole

FGM = builtin("phi2")


# ---------------------------------------------------------------------------
# Construction


def test_rejects_theta_out_of_range():
    for bad in (3.0, -1.0000001, float("nan")):
        with pytest.raises(ThetaRangeError):
            Copula(FGM, bad)


def test_accepts_theta_endpoints():
    assert Copula(FGM, 1.0).theta == 1.0
    assert Copula(FGM, -1.0).theta == -1.0
    assert Copula(FGM, 0).theta == 0.0


def test_rejects_invalid_generator():
    with pytest.raises(GeneratorValidationError) as exc:
        Copula(from_expression("sin(pi*x)"), 0.5)
    assert not exc.value.report.overall_pass


def test_accepts_valid_expression_generator():
    cop = Copula(from_expression("x*(1-x)"), 0.5)
    assert cop.cdf(0.5, 0.5) == pytest.approx(0.28125, abs=1e-15)


def test_repr_mentions_label_and_theta():
    text = repr(Copula(FGM, 0.25))
    assert "phi2" in text and "0.25" in text


# ---------------------------------------------------------------------------
# Pointwise formulas


def test_cdf_values():
    cop = Copula(FGM, 1.0)
    assert cop.cdf(0.5, 0.5) == pytest.approx(0.3125, abs=1e-15)
    for u in (0.0, 0.3, 1.0):
        assert cop.cdf(u, 1.0) == pytest.approx(u, abs=1e-15)  # uniform margin
        assert cop.cdf(1.0, u) == pytest.approx(u, abs=1e-15)
        assert cop.cdf(u, 0.0) == 0.0
        assert cop.cdf(0.0, u) == 0.0


def test_cdf_rejects_out_of_square():
    cop = Copula(FGM, 0.5)
    with pytest.raises(ValueError):
        cop.cdf(1.5, 0.5)
    with pytest.raises(ValueError):
        cop.cdf(0.5, -0.1)


def test_density_values():
    cop = Copula(FGM, 1.0)
    assert cop.density(0.0, 0.0) == 2.0  # 1 + 1*1*1
    assert cop.density(0.5, 0.5) == 1.0
    neg = Copula(builtin("phi1"), -1.0)
    assert neg.density(0.1, 0.9) == 2.0  # 1 - (1)(-1)


def test_density_kink_refusal():
    cop = Copula(builtin("phi1"), 0.5)
    with pytest.raises(KinkPointError):
        cop.density(0.5, 0.25)
    with pytest.raises(KinkPointError):
        cop.density(0.25, 0.5)
    cop5 = Copula(builtin("phi5", 4), 0.5)
    with pytest.raises(KinkPointError):
        cop5.density(0.75, 0.1)
    # off-kink is fine
    assert cop.density(0.4999, 0.25) > 0.0


GRID_GENERATORS = (
    builtin("phi1"),
    builtin("phi2"),
    builtin("phi3"),
    builtin("phi4"),
    *(builtin("phi5", n) for n in (1, 2, 3, 4, 32)),
    *(builtin("phi6", n) for n in (2, 5)),
    random_valid_expression_generators(1)[0],
)


def _grid_nodes(gen, seed: int) -> list[float]:
    """Random nodes plus 0, 1/2, 1 and every kink."""
    stream = RandomStream(seed)
    nodes = [stream.next_float() for _ in range(40)]
    return sorted([*nodes, 0.0, 0.5, 1.0, *gen.kinks])


def _nudged_density(cop: Copula, u: float, v: float) -> float:
    """The pointwise density, with both coordinates nudged off a kink cell."""
    if u in cop.gen.kinks or v in cop.gen.kinks:
        return cop.density(math.nextafter(u, 1.0), math.nextafter(v, 1.0))
    return cop.density(u, v)


def test_grid_forms_match_scalar_cell_for_cell():
    for gen in GRID_GENERATORS:
        for seed, theta in enumerate((-1.0, -0.3, 0.5, 1.0)):
            cop = Copula(gen, theta)
            xs = _grid_nodes(gen, seed)
            cdf = np.array([[cop.cdf(u, v) for v in xs] for u in xs])
            density = np.array([[_nudged_density(cop, u, v) for v in xs] for u in xs])
            where = (gen.label, theta)
            # bit identical, not just close
            assert np.array_equal(cop.cdf_grid(xs), cdf), where
            assert np.array_equal(cop.density_grid(np.array(xs)), density), where


def test_grid_forms_reject_nodes_off_the_unit_interval():
    cop = Copula(FGM, 0.5)
    with pytest.raises(ValueError):
        cop.cdf_grid([0.5, 1.5])
    with pytest.raises(ValueError):
        cop.density_grid([-0.1, 0.5])


def test_conditional_cdf_values():
    cop = Copula(FGM, 1.0)
    # phi'(0) = 1, phi(0.5) = 0.25
    assert cop.conditional_cdf(0.0, 0.5) == pytest.approx(0.75, abs=1e-15)
    assert cop.conditional_cdf(0.5, 0.3) == pytest.approx(0.3, abs=1e-15)
    assert cop.conditional_cdf(0.2, 0.0) == 0.0
    assert cop.conditional_cdf(0.2, 1.0) == 1.0


def test_conditional_cdf_kink_refusal():
    cop = Copula(builtin("phi1"), 1.0)
    with pytest.raises(KinkPointError):
        cop.conditional_cdf(0.5, 0.3)


def test_conditional_quantile_round_trip():
    cop = Copula(FGM, 0.7)
    for u in (0.05, 0.3, 0.62, 0.97):
        for w in (0.01, 0.25, 0.5, 0.75, 0.99):
            v = cop.conditional_quantile(u, w)
            assert 0.0 <= v <= 1.0
            assert cop.conditional_cdf(u, v) == pytest.approx(w, abs=1e-10)


def test_conditional_quantile_known_value():
    # At u = 0 with theta = 1: w = v + phi(v); w = 0.75 inverts to v = 0.5.
    cop = Copula(FGM, 1.0)
    assert cop.conditional_quantile(0.0, 0.75) == pytest.approx(0.5, abs=1e-10)


def test_conditional_quantile_endpoint_levels():
    cop = Copula(FGM, 0.9)
    assert cop.conditional_quantile(0.3, 0.0) == 0.0
    assert cop.conditional_quantile(0.3, 1.0) == 1.0


def test_conditional_quantile_rejects_bad_level():
    cop = Copula(FGM, 0.9)
    with pytest.raises(ValueError):
        cop.conditional_quantile(0.3, 1.5)


def _scalar_quantile(cop: Copula, u: float, w: float) -> float:
    """The conditional quantile solved alone: endpoint guards, then halvings.

    The reference for every quantile the package computes: the guards catch
    the levels at or beyond the conditional cdf at 0 and 1, and each step
    halves [lo, hi] until the residual or the width is at most QUANTILE_TOL.
    """
    f = lambda v: cop.conditional_cdf(u, v)
    if w <= f(0.0):
        return 0.0
    if w >= f(1.0):
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(MAX_HALVINGS):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if abs(fmid - w) <= QUANTILE_TOL or (hi - lo) <= QUANTILE_TOL:
            return mid
        if fmid < w:
            lo = mid
        else:
            hi = mid
    raise ConvergenceError(f"bisection did not converge in {MAX_HALVINGS} iterations")


_QUANTILE_US = (0.0, 0.013, 0.3, 0.49, 0.62, 0.97, 1.0)
_QUANTILE_WS = (0.0, 1e-9, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0)

# SHA-256 of the hex of conditional_quantile over theta in (-1, 0.5, 1) and
# the grid above, taken while it was solved by a scalar bisection of its own
_QUANTILE_DIGESTS = {
    "phi1": "ee722686856d3143b856edbb268e3b5903c6fdd057d3a6d0f1b7096a1f301556",
    "phi2": "eaf58d2ced14a9455c3bd21121772c81cc702f502061f402beb096dc02238844",
    "phi3": "345aeb12e456e93d684bf818e72c6621c0412602df9145d59fe913ab7a0655b5",
    "phi4": "dcfba34fb23316b345e503c3963ef182d86521bfb8d160c805f35440f9f08a43",
    "phi5[n=3]": "8bb07709945d03c75e3c3899c66e6e874aac74d2dd5e079e1fa51efbce65c59d",
    "phi6[n=3]": "d9a3583dce5678771e3bef7b01728b4dac781cf1174b47a39e7e18c6f8c22146",
    "expr:x*(1-x)*sin(pi*x)/2": "0c461edcbbf94d9eddd51cdf3aafb689ae52147d3919c0b1a02a76fc22d55e3c",
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "gen",
    [builtin(name) for name in ("phi1", "phi2", "phi3", "phi4")]
    + [builtin("phi5", 3), builtin("phi6", 3), from_expression("x*(1-x)*sin(pi*x)/2")],
    ids=lambda g: g.label,
)
def test_conditional_quantile_hex_is_pinned(gen):
    lines = []
    for theta in (-1.0, 0.5, 1.0):
        cop = Copula(gen, theta)
        for u in _QUANTILE_US:
            for w in _QUANTILE_WS:
                v = cop.conditional_quantile(u, w)
                assert v.hex() == _scalar_quantile(cop, u, w).hex()
                lines.append(v.hex())
    digest = hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()
    assert digest == _QUANTILE_DIGESTS[gen.label]


def test_conditional_quantile_refusal_messages():
    cop = Copula(builtin("phi1"), 0.9)
    cases = (
        (0.5, 0.3, KinkPointError, "conditional cdf undefined at a kink of phi1 (u=0.5)"),
        (0.3, 1.5, ValueError, "w must lie in [0, 1], got 1.5"),
        (0.3, -0.0001, ValueError, "w must lie in [0, 1], got -0.0001"),
        (0.3, math.nan, ValueError, "w must lie in [0, 1], got nan"),
        (1.5, 0.3, ValueError, "u must lie in [0, 1], got 1.5"),
    )
    for u, w, kind, message in cases:
        with pytest.raises(kind) as exc:
            cop.conditional_quantile(u, w)
        assert type(exc.value) is kind
        assert str(exc.value) == message


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "field, hole, u, w, x",
    [
        ("phi_prime", lambda x: (0.3 < x) & (x < 0.4), 0.35, 0.5, 0.35),
        ("phi", lambda x: (0.3 < x) & (x < 0.4), 0.2, 0.35, 0.375),
        ("phi", lambda x: x >= 0.99, 0.2, 0.9, 1.0),
        ("phi", lambda x: x <= 0.0, 0.2, 0.9, 0.0),
    ],
    ids=["dphi-at-u", "phi-mid-walk", "phi-at-1", "phi-at-0"],
)
def test_conditional_quantile_domain_error_is_pinned(field, hole, u, w, x):
    fgm = builtin("phi2")
    gen = dataclasses.replace(fgm, label="banded", **{field: with_hole(getattr(fgm, field), hole)})
    cop = Copula(gen, 0.5)
    with pytest.raises(EvaluationDomainError) as exc:
        cop.conditional_quantile(u, w)
    assert str(exc.value) == f"test hole in 'x' at x={x!r}"
    assert exc.value.x == x


# ---------------------------------------------------------------------------
# Rectangle volumes


def test_rectangle_full_square_is_one():
    for theta in (-1.0, -0.3, 0.0, 0.8, 1.0):
        cop = Copula(FGM, theta)
        assert cop.rectangle_volume(0.0, 1.0, 0.0, 1.0) == pytest.approx(
            1.0, abs=1e-15
        )


def test_rectangle_independence_factorizes():
    cop = Copula(FGM, 0.0)
    assert cop.rectangle_volume(0.1, 0.4, 0.2, 0.9) == pytest.approx(
        0.3 * 0.7, abs=1e-15
    )


def test_rectangle_quadrant_value():
    # theta = -1: (1/2)(1/2) - phi(1/2)^2 = 0.25 - 0.0625
    cop = Copula(FGM, -1.0)
    assert cop.rectangle_volume(0.0, 0.5, 0.0, 0.5) == pytest.approx(
        0.1875, abs=1e-15
    )


def test_rectangle_matches_cdf_from_origin():
    cop = Copula(builtin("phi4"), 0.6)
    for u in (0.1, 0.5, 0.93):
        for v in (0.2, 0.77):
            want = cop.cdf(u, v)
            got = cop.rectangle_volume(0.0, u, 0.0, v)
            assert got == pytest.approx(want, abs=1e-15)


def test_rectangle_rejects_disordered_corners():
    cop = Copula(FGM, 0.5)
    with pytest.raises(ValueError):
        cop.rectangle_volume(0.5, 0.4, 0.0, 1.0)


def test_rectangle_additivity():
    cop = Copula(builtin("phi1"), 1.0)
    whole = cop.rectangle_volume(0.1, 0.9, 0.2, 0.8)
    left = cop.rectangle_volume(0.1, 0.4, 0.2, 0.8)
    right = cop.rectangle_volume(0.4, 0.9, 0.2, 0.8)
    assert whole == pytest.approx(left + right, abs=1e-15)


# ---------------------------------------------------------------------------
# Copula axioms on grids


def test_frechet_bounds_on_grid():
    for name, n in (("phi1", None), ("phi3", None), ("phi6", 8)):
        for theta in (-1.0, 1.0):
            cop = Copula(builtin(name, n), theta)
            for i in range(0, 201, 4):
                u = i / 200.0
                for j in range(0, 201, 4):
                    v = j / 200.0
                    c = cop.cdf(u, v)
                    lower = max(u + v - 1.0, 0.0)
                    upper = min(u, v)
                    assert lower - 1e-12 <= c <= upper + 1e-12, (name, theta, u, v)


def test_total_mass_by_quadrature():
    cop = Copula(builtin("phi1"), 1.0)
    xs, ws = gauss_axis(64)
    mass = float(np.sum(np.outer(ws, ws) * cop.density_grid(xs)))
    assert mass == pytest.approx(1.0, abs=1e-9)


def test_density_matches_cdf_second_difference():
    cop = Copula(builtin("phi4"), 0.8)
    h = 1e-5
    for u in (0.21, 0.5, 0.83):
        for v in (0.15, 0.66):
            mixed = (
                cop.cdf(u + h, v + h)
                - cop.cdf(u + h, v - h)
                - cop.cdf(u - h, v + h)
                + cop.cdf(u - h, v - h)
            ) / (4.0 * h * h)
            assert cop.density(u, v) == pytest.approx(mixed, abs=1e-5)


def test_conditional_cdf_matches_cdf_partial_difference():
    cop = Copula(builtin("phi4"), -0.7)
    h = 1e-6
    for u in (0.3, 0.62):
        for v in (0.25, 0.8):
            fd = (cop.cdf(u + h, v) - cop.cdf(u - h, v)) / (2.0 * h)
            assert cop.conditional_cdf(u, v) == pytest.approx(fd, abs=1e-5)


# ---------------------------------------------------------------------------
# Sampling


def test_sample_reproducible_bit_for_bit():
    cop = Copula(FGM, 0.9)
    a = cop.sample(200, seed=42)
    b = cop.sample(200, seed=42)
    assert a.pairs == b.pairs
    assert isinstance(a, SamplePairs)
    assert a.seed == 42 and a.n == 200 and len(a) == 200


def test_sample_different_seeds_differ():
    cop = Copula(FGM, 0.9)
    assert cop.sample(50, seed=1).pairs != cop.sample(50, seed=2).pairs


def test_sample_stays_in_unit_square():
    cop = Copula(builtin("phi1"), -1.0)
    for u, v in cop.sample(500, seed=7):
        assert 0.0 <= u <= 1.0
        assert 0.0 <= v <= 1.0


def test_sample_avoids_kink_abscissae():
    cop = Copula(builtin("phi1"), 1.0)
    for u, _ in cop.sample(2000, seed=11):
        assert u != 0.5


def test_sample_empty():
    cop = Copula(FGM, 0.5)
    assert cop.sample(0, seed=3).pairs == ()


def test_sample_rejects_negative_n():
    cop = Copula(FGM, 0.5)
    with pytest.raises(ValueError):
        cop.sample(-1, seed=3)


def _pair_by_pair(cop: Copula, n: int, seed: int) -> list[tuple[str, str]]:
    """The per-pair sampling loop: nudge u off a kink, then invert alone."""
    stream = RandomStream(seed)
    out = []
    for _ in range(n):
        u = stream.next_float()
        if u in cop.gen.kinks:
            u = math.nextafter(u, 1.0)
        w = stream.next_float()
        out.append((u.hex(), _scalar_quantile(cop, u, w).hex()))
    return out


def _hex_pairs(pairs) -> list[tuple[str, str]]:
    return [(u.hex(), v.hex()) for u, v in pairs]


_LOCKSTEP_GENERATORS = (
    [builtin(name) for name in ("phi1", "phi2", "phi3", "phi4")]
    + [builtin("phi5", n) for n in (1, 2, 3, 4, 7, 8)]
    + [builtin("phi6", n) for n in (2, 3, 5)]
    + [from_expression("x*(1-x)*ln(1+x)"), from_expression("0.9*min(x,1-x)")]
)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("gen", _LOCKSTEP_GENERATORS, ids=lambda g: g.label)
@pytest.mark.parametrize("theta", [-1.0, 0.0, 0.5, 1.0])
def test_sample_equals_pair_by_pair_inversion(gen, theta):
    cop = Copula(gen, theta)
    got = cop.sample(150, seed=31)
    assert isinstance(got.pairs, tuple)
    assert all(type(u) is float and type(v) is float for u, v in got.pairs)
    assert _hex_pairs(got) == _pair_by_pair(cop, 150, 31)


@pytest.mark.filterwarnings("error")
def test_sample_nudges_a_u_drawn_on_a_kink():
    seed = 2024
    first = RandomStream(seed).next_float()
    gen = dataclasses.replace(builtin("phi2"), label="phi2-kinked", kinks=(first,))
    cop = Copula(gen, 0.8)
    pairs = cop.sample(40, seed)
    assert pairs.pairs[0][0] == math.nextafter(first, 1.0)
    assert _hex_pairs(pairs) == _pair_by_pair(cop, 40, seed)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("field", ["phi", "phi_prime"])
def test_sample_domain_error_matches_pair_by_pair(field):
    fgm = builtin("phi2")
    band = with_hole(getattr(fgm, field), lambda x: (0.3 < x) & (x < 0.4))
    gen = dataclasses.replace(fgm, label="banded", **{field: band})
    cop = Copula(gen, 0.5)
    with pytest.raises(EvaluationDomainError) as scalar:
        _pair_by_pair(cop, 60, 5)
    with pytest.raises(EvaluationDomainError) as lockstep:
        cop.sample(60, seed=5)
    assert str(lockstep.value) == str(scalar.value)
    assert lockstep.value.x == scalar.value.x


@pytest.mark.filterwarnings("error")
def test_form_reading_nan_without_raising_raises_floating_point_error():
    fgm = builtin("phi2")
    band = lambda x: (0.3 < x) & (x < 0.4)

    def quiet(x):  # NaN in the band on both paths, never an error
        if isinstance(x, np.ndarray):
            return np.where(band(x), np.nan, fgm.phi(x))
        return math.nan if band(x) else fgm.phi(x)

    cop = Copula(dataclasses.replace(fgm, label="quiet", phi=quiet), 0.5)
    with pytest.raises(FloatingPointError) as exc:
        cop.conditional_quantile(0.2, 0.35)
    assert str(exc.value) == "conditional cdf read NaN at u=0.2, v=0.375"
    loud = Copula(dataclasses.replace(fgm, label="loud", phi=with_hole(fgm.phi, band)), 0.5)
    with pytest.raises(EvaluationDomainError) as first:
        loud.sample(60, seed=5)
    with pytest.raises(FloatingPointError) as exc:
        cop.sample(60, seed=5)
    assert str(exc.value).endswith(f", v={first.value.x!r}")


def test_pair_still_live_after_the_halving_cap_raises_convergence_error(monkeypatch):
    monkeypatch.setattr(numerics, "MAX_HALVINGS", 5)
    cop = Copula(FGM, 0.5)
    assert cop.conditional_quantile(0.3, 0.0) == 0.0
    with pytest.raises(ConvergenceError, match="bisection did not converge"):
        cop.conditional_quantile(0.3, 0.6)
    with pytest.raises(ConvergenceError, match="bisection did not converge"):
        cop.sample(10, seed=1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("gen", [FGM, from_expression("x*(1-x)*2^x/4")], ids=lambda g: g.label)
def test_sample_of_zero_pairs_is_empty(gen):
    assert Copula(gen, -1.0).sample(0, seed=2**64 - 1).pairs == ()


def test_sample_round_trips_conditional_cdf():
    # Each drawn v must invert its own conditional level: w recovered from
    # the stream is conditional_cdf(u, v) up to the bisection tolerance.
    from copula_forge.numerics import RandomStream

    cop = Copula(builtin("phi4"), 1.0)
    n = 50
    pairs = cop.sample(n, seed=123).pairs
    stream = RandomStream(123)
    for u, v in pairs:
        su = stream.next_float()
        w = stream.next_float()
        assert su == u  # phi4 has no kinks, no nudges
        assert cop.conditional_cdf(u, v) == pytest.approx(w, abs=1e-10)


def test_independence_sampling_matches_raw_stream():
    # theta = 0 makes the conditional cdf the identity, so v = w exactly
    # (up to the quantile solver's tolerance).
    cop = Copula(FGM, 0.0)
    from copula_forge.numerics import RandomStream

    stream = RandomStream(9)
    for u, v in cop.sample(20, seed=9):
        su, w = stream.next_float(), stream.next_float()
        assert u == su
        assert v == pytest.approx(w, abs=1e-10)
