"""Association measures: closed forms, quadrature route, empirical route."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from copula_forge.copula import Copula
from copula_forge.generator import builtin, from_expression
from copula_forge.measures import (
    AssociationMeasures,
    _average_ranks,
    _generator_integrals,
    closed_form_measures,
    empirical_rho,
    empirical_tau,
    quadrature_measures,
    tau_phi5,
)

from copula_forge.numerics import integrate_1d, uniform_grid

from conftest import brute_force_tau, random_valid_expression_generators

PI4 = math.pi**4

# (generator, sigma@theta=1, tau@theta=1, rho@theta=1)
REFERENCE_ROWS = (
    ("phi1", None, 0.75, 0.5, 0.75),
    ("phi2", None, 1.0 / 3.0, 2.0 / 9.0, 1.0 / 3.0),
    ("phi3", None, 3.0 / 64.0, 0.0, 0.0),
    ("phi4", None, 48.0 / PI4, 32.0 / PI4, 48.0 / PI4),
)


# ---------------------------------------------------------------------------
# Closed forms


def test_reference_values_at_unit_theta():
    for name, n, sigma, tau, rho in REFERENCE_ROWS:
        m = closed_form_measures(Copula(builtin(name, n), 1.0))
        assert m.sigma == pytest.approx(sigma, abs=1e-12), name
        assert m.tau == pytest.approx(tau, abs=1e-12), name
        assert m.rho == pytest.approx(rho, abs=1e-12), name
        assert m.method == "closed_form"


def test_reference_values_across_theta():
    for theta in (-1.0, -0.5, 0.5, 1.0):
        for name, n, sigma, tau, rho in REFERENCE_ROWS:
            m = closed_form_measures(Copula(builtin(name, n), theta))
            assert m.sigma == pytest.approx(abs(theta) * sigma, abs=1e-12)
            assert m.tau == pytest.approx(theta * tau, abs=1e-12)
            assert m.rho == pytest.approx(theta * rho, abs=1e-12)


def test_theta_scaling_exact_for_dyadic_theta():
    # Multiplying by a power of two commutes with rounding, so linearity in
    # theta is bit-exact at these values.
    for name, n in (("phi1", None), ("phi2", None), ("phi4", None), ("phi6", 4)):
        gen = builtin(name, n)
        unit = closed_form_measures(Copula(gen, 1.0))
        for theta in (-1.0, -0.5, 0.25, 0.5):
            m = closed_form_measures(Copula(gen, theta))
            assert m.tau == theta * unit.tau
            assert m.rho == theta * unit.rho
            assert m.sigma == abs(theta) * unit.sigma


def test_rho_is_exactly_one_and_a_half_tau():
    for name, n in (("phi1", None), ("phi3", None), ("phi5", 3), ("phi6", 5)):
        for theta in (-0.77, -0.2, 0.33, 1.0):
            m = closed_form_measures(Copula(builtin(name, n), theta))
            assert m.rho == 1.5 * m.tau  # bitwise


def test_independence_measures_vanish():
    m = closed_form_measures(Copula(builtin("phi2"), 0.0))
    assert m.sigma == 0.0
    assert m.tau == 0.0
    assert m.rho == 0.0


def test_sigma_nonnegative_and_even_in_theta():
    for name, n in (("phi2", None), ("phi3", None)):
        gen = builtin(name, n)
        plus = closed_form_measures(Copula(gen, 0.6))
        minus = closed_form_measures(Copula(gen, -0.6))
        assert plus.sigma == minus.sigma
        assert plus.sigma >= 0.0
        assert minus.tau == -plus.tau


def test_bounds_for_all_builtins():
    gens = [
        builtin("phi1"),
        builtin("phi2"),
        builtin("phi3"),
        builtin("phi4"),
        builtin("phi5", 1),
        builtin("phi5", 7),
        builtin("phi6", 2),
        builtin("phi6", 12),
    ]
    for gen in gens:
        for theta in (-1.0, -0.4, 0.0, 0.4, 1.0):
            m = closed_form_measures(Copula(gen, theta))
            bound = abs(theta)
            assert m.sigma <= 0.75 * bound + 1e-12
            assert abs(m.tau) <= 0.5 * bound + 1e-12
            assert abs(m.rho) <= 0.75 * bound + 1e-12


def _two_pass_integrals(gen) -> tuple[float, float]:
    """int phi and int |phi| by two full adaptive-Simpson passes."""
    plain = integrate_1d(gen.phi, 0.0, 1.0, breakpoints=gen.kinks)
    magnitude = integrate_1d(lambda x: abs(gen.phi(x)), 0.0, 1.0, breakpoints=gen.kinks)
    return plain, magnitude


def test_closed_form_integrals_match_two_simpson_passes_bit_for_bit():
    seeded = random_valid_expression_generators(100)
    quadrature_builtins = [
        dataclasses.replace(builtin(name, n), exact_integral=None, exact_abs_integral=None)
        for name, n in (("phi1", None), ("phi3", None), ("phi5", 3))
    ]
    gens = [
        builtin("phi4"),
        *(builtin("phi6", n) for n in range(2, 9)),
        *quadrature_builtins,
        *seeded,
        *(from_expression(f"-({g.source})") for g in seeded[:30]),
    ]
    signs = set()
    for gen in gens:
        got = _generator_integrals(Copula(gen, 0.5))
        assert [v.hex() for v in got] == [v.hex() for v in _two_pass_integrals(gen)], gen.label
        values = gen.phi(uniform_grid(1001))
        signs.add((bool((values > 0.0).any()), bool((values < 0.0).any())))
    # phi >= 0, phi <= 0 and sign-changing generators are all covered
    assert signs == {(True, False), (False, True), (True, True)}


def test_association_measures_are_frozen():
    m = closed_form_measures(Copula(builtin("phi2"), 1.0))
    assert m.method == "closed_form"
    assert isinstance(m, AssociationMeasures)
    with pytest.raises(AttributeError):
        m.tau = 0.0  # frozen


# ---------------------------------------------------------------------------
# tau for the ramp/cap family


def test_tau_phi5_matches_closed_form_route():
    for n in range(1, 11):
        gen = builtin("phi5", n)
        for theta in (-1.0, 0.3, 1.0):
            want = closed_form_measures(Copula(gen, theta)).tau
            assert tau_phi5(n, theta) == pytest.approx(want, abs=1e-10), n


def test_tau_phi5_known_values():
    assert tau_phi5(1, 1.0) == pytest.approx(8.0 * (1.0 / 12.0) ** 2, abs=1e-15)
    assert tau_phi5(2, 1.0) == pytest.approx(2.0 / 9.0, abs=1e-15)


def test_tau_phi5_limits_to_sharp_envelope():
    assert tau_phi5(100, 1.0) == pytest.approx(0.5, abs=1e-3)
    assert tau_phi5(100, 1.0) >= 0.49


def test_tau_phi5_argument_rules():
    with pytest.raises(ValueError):
        tau_phi5(0, 0.5)
    for bad in (2.5, math.nan, math.inf):
        with pytest.raises(ValueError, match=r"^n must be a positive integer$"):
            tau_phi5(bad, 0.5)
    assert tau_phi5(np.int64(3), 0.5) == tau_phi5(3, 0.5)
    with pytest.raises(ValueError):
        tau_phi5(3, 1.5)


# ---------------------------------------------------------------------------
# Quadrature route


def test_quadrature_matches_closed_form_smooth():
    for name, n in (("phi2", None), ("phi3", None), ("phi4", None), ("phi6", 4)):
        gen = builtin(name, n)
        for theta in (-1.0, 1.0):
            cop = Copula(gen, theta)
            ref = closed_form_measures(cop)
            quad = quadrature_measures(cop, resolution=256)
            assert quad.method == "quadrature"
            assert quad.sigma == pytest.approx(ref.sigma, abs=1e-6), name
            assert quad.tau == pytest.approx(ref.tau, abs=1e-6), name
            assert quad.rho == pytest.approx(ref.rho, abs=1e-6), name


def test_quadrature_matches_closed_form_kinked():
    for name, n in (("phi1", None), ("phi5", 4), ("phi5", 16)):
        gen = builtin(name, n)
        for theta in (-1.0, 1.0):
            cop = Copula(gen, theta)
            ref = closed_form_measures(cop)
            quad = quadrature_measures(cop, resolution=256)
            assert quad.sigma == pytest.approx(ref.sigma, abs=1e-4), name
            assert quad.tau == pytest.approx(ref.tau, abs=1e-4), name
            assert quad.rho == pytest.approx(ref.rho, abs=1e-4), name


def test_quadrature_panel_alignment_is_spectrally_accurate():
    # With panel boundaries on the kink lines the error collapses to
    # rounding noise even for the sharpest family.
    cop = Copula(builtin("phi1"), 1.0)
    ref = closed_form_measures(cop)
    quad = quadrature_measures(cop, resolution=512)
    assert quad.tau == pytest.approx(ref.tau, abs=1e-12)
    assert quad.sigma == pytest.approx(ref.sigma, abs=1e-12)


def test_quadrature_resolution_rule():
    cop = Copula(builtin("phi2"), 0.5)
    with pytest.raises(ValueError):
        quadrature_measures(cop, resolution=8)


# ---------------------------------------------------------------------------
# Empirical route


def test_empirical_tau_perfect_concordance():
    assert empirical_tau([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]) == 1.0
    assert empirical_tau([(1.0, 3.0), (2.0, 2.0), (3.0, 1.0)]) == -1.0


def test_empirical_tau_ties_contribute_zero():
    # pairs: {(1,1),(1,2)} tied in u; {(1,1),(2,3)} and {(1,2),(2,3)} concordant
    got = empirical_tau([(1.0, 1.0), (1.0, 2.0), (2.0, 3.0)])
    assert got == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_empirical_tau_matches_brute_force_with_ties():
    from copula_forge.numerics import RandomStream

    stream = RandomStream(31)
    pts = [
        (float(stream.next_u64() % 7), float(stream.next_u64() % 5))
        for _ in range(181)
    ]
    assert empirical_tau(pts) == pytest.approx(brute_force_tau(pts), abs=1e-14)


def test_empirical_tau_matches_brute_force_continuous():
    cop = Copula(builtin("phi2"), 1.0)
    pts = list(cop.sample(300, seed=5))
    assert empirical_tau(pts) == pytest.approx(brute_force_tau(pts), abs=1e-14)


def test_empirical_tau_matches_scipy_when_tie_free():
    scipy_stats = pytest.importorskip("scipy.stats")
    cop = Copula(builtin("phi4"), -1.0)
    pts = list(cop.sample(400, seed=17))
    us = [p[0] for p in pts]
    vs = [p[1] for p in pts]
    want = scipy_stats.kendalltau(us, vs).statistic
    assert empirical_tau(pts) == pytest.approx(want, abs=1e-12)


def test_empirical_rho_matches_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    cop = Copula(builtin("phi1"), 0.8)
    pts = list(cop.sample(400, seed=23))
    us = [p[0] for p in pts]
    vs = [p[1] for p in pts]
    want = scipy_stats.spearmanr(us, vs).statistic
    assert empirical_rho(pts) == pytest.approx(want, abs=1e-12)


def test_empirical_rho_with_ties_matches_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    from copula_forge.numerics import RandomStream

    stream = RandomStream(77)
    pts = [
        (float(stream.next_u64() % 6), float(stream.next_u64() % 9))
        for _ in range(120)
    ]
    us = [p[0] for p in pts]
    vs = [p[1] for p in pts]
    want = scipy_stats.spearmanr(us, vs).statistic
    assert empirical_rho(pts) == pytest.approx(want, abs=1e-12)


def _loop_average_ranks(values):
    """Average 1-based ranks, tie group by tie group over a stable sort."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def test_average_ranks_match_the_tie_group_loop_bit_for_bit():
    rng = np.random.default_rng(7)
    for size in (1, 2, 3, 10, 257):
        for _ in range(20):
            values = rng.choice([-0.0, 0.0, 0.25, 0.5, 1.0], size).tolist()
            values += rng.integers(0, 4, size).astype(float).tolist()
            want = [r.hex() for r in _loop_average_ranks(values)]
            assert [float(r).hex() for r in _average_ranks(values)] == want


def test_empirical_estimates_near_population_values():
    cop = Copula(builtin("phi2"), 1.0)
    pts = cop.sample(5000, seed=2)
    assert empirical_tau(pts) == pytest.approx(2.0 / 9.0, abs=0.05)
    assert empirical_rho(pts) == pytest.approx(1.0 / 3.0, abs=0.06)


def test_empirical_accepts_sample_pairs_object():
    cop = Copula(builtin("phi2"), 0.5)
    pairs = cop.sample(100, seed=4)
    assert empirical_tau(pairs) == empirical_tau(list(pairs))


def test_empirical_argument_rules():
    with pytest.raises(ValueError):
        empirical_tau([(0.5, 0.5)])
    with pytest.raises(ValueError):
        empirical_rho([])
    with pytest.raises(ValueError):
        empirical_rho([(1.0, 2.0), (1.0, 3.0)])  # zero variance in u


# ---------------------------------------------------------------------------
# Family trends


def test_phi6_tau_strictly_increasing_in_n():
    taus = [
        closed_form_measures(Copula(builtin("phi6", n), 1.0)).tau
        for n in (2, 3, 4, 8, 16)
    ]
    assert all(b > a for a, b in zip(taus, taus[1:]))
    assert taus[0] >= 2.0 / 9.0 - 1e-12
    assert taus[-1] < 0.5
