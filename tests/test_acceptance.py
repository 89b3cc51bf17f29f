"""Acceptance gate: one test per shipped guarantee, one printed line each.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the lines on
passing runs too; each line restates the guarantee and the measured worst
case).
"""

from __future__ import annotations

import hashlib
import math
import subprocess
import sys
import time

import numpy as np

from copula_forge.copula import Copula
from copula_forge.generator import builtin
from copula_forge.measures import (
    closed_form_measures,
    empirical_rho,
    empirical_tau,
    quadrature_measures,
    tau_phi5,
)
from copula_forge.numerics import gauss_axis, eval_grid
from copula_forge.properties import (
    dependence_profile,
    oracle_pfd,
    oracle_pqd,
    oracle_tp2,
    pfd_closed_form,
    symmetry_check,
)

from conftest import random_valid_expression_generators
from test_golden import QUADRATURE_DIGESTS

PI4 = math.pi**4

SMOOTH = (("phi2", None), ("phi3", None), ("phi4", None))
KINKED = (("phi1", None), ("phi5", 4))
FULL_CATALOG = (
    ("phi1", None),
    ("phi2", None),
    ("phi3", None),
    ("phi4", None),
    ("phi5", 2),
    ("phi5", 4),
    ("phi5", 8),
    ("phi5", 16),
    ("phi6", 2),
    ("phi6", 4),
    ("phi6", 8),
    ("phi6", 16),
)


def _verdict(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num}: {status} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------


def test_criterion_01_reference_table():
    rows = {
        "phi1": (lambda a, t: 0.75 * a, lambda a, t: 0.5 * t, lambda a, t: 0.75 * t),
        "phi2": (
            lambda a, t: a / 3.0,
            lambda a, t: 2.0 * t / 9.0,
            lambda a, t: t / 3.0,
        ),
        "phi3": (lambda a, t: 3.0 * a / 64.0, lambda a, t: 0.0, lambda a, t: 0.0),
        "phi4": (
            lambda a, t: 48.0 * a / PI4,
            lambda a, t: 32.0 * t / PI4,
            lambda a, t: 48.0 * t / PI4,
        ),
    }
    start = time.perf_counter()
    worst = 0.0
    for theta in (-1.0, -0.5, 0.5, 1.0):
        a = abs(theta)
        for name, (fs, ft, fr) in rows.items():
            m = closed_form_measures(Copula(builtin(name), theta))
            worst = max(
                worst,
                abs(m.sigma - fs(a, theta)),
                abs(m.tau - ft(a, theta)),
                abs(m.rho - fr(a, theta)),
            )
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        worst <= 1e-10 and elapsed < 1.0,
        f"closed forms vs reference constants: worst |diff| {worst:.2e} "
        f"(tol 1e-10), {elapsed:.2f}s (budget 1s)",
    )


def test_criterion_02_quadrature_agrees_with_closed_forms():
    start = time.perf_counter()
    worst_smooth = 0.0
    worst_kinked = 0.0
    for families, tol, is_smooth in ((SMOOTH, 1e-6, True), (KINKED, 1e-4, False)):
        for name, n in families:
            gen = builtin(name, n)
            for theta in (-1.0, 1.0):
                cop = Copula(gen, theta)
                ref = closed_form_measures(cop)
                quad = quadrature_measures(cop, resolution=512)
                diff = max(
                    abs(ref.sigma - quad.sigma),
                    abs(ref.tau - quad.tau),
                    abs(ref.rho - quad.rho),
                )
                if is_smooth:
                    worst_smooth = max(worst_smooth, diff)
                else:
                    worst_kinked = max(worst_kinked, diff)
    elapsed = time.perf_counter() - start
    _verdict(
        2,
        worst_smooth <= 1e-6 and worst_kinked <= 1e-4 and elapsed < 30.0,
        f"quadrature(512) vs closed form: smooth worst {worst_smooth:.2e} "
        f"(tol 1e-6), kinked worst {worst_kinked:.2e} (tol 1e-4), "
        f"{elapsed:.1f}s (budget 30s)",
    )


def test_criterion_03_measure_bounds():
    def bounded(m, theta) -> bool:
        cap = abs(theta)
        return (
            m.sigma <= 0.75 * cap + 1e-12
            and abs(m.tau) <= 0.5 * cap + 1e-12
            and abs(m.rho) <= 0.75 * cap + 1e-12
        )

    checked = 0
    ok = True
    for name, n in FULL_CATALOG:
        gen = builtin(name, n)
        for theta in (-1.0, -0.5, 0.5, 1.0):
            ok = ok and bounded(closed_form_measures(Copula(gen, theta)), theta)
            checked += 1
    randoms = random_valid_expression_generators(100, seed=2024)
    for gen in randoms:
        for theta in (-1.0, 1.0):
            ok = ok and bounded(closed_form_measures(Copula(gen, theta)), theta)
            checked += 1
    _verdict(
        3,
        ok and len(randoms) == 100,
        f"sigma <= 3|t|/4, |tau| <= |t|/2, |rho| <= 3|t|/4 (+1e-12) on "
        f"{checked} copulas: {len(FULL_CATALOG)} catalog generators and "
        f"100 seeded expression generators",
    )


def test_criterion_04_sampling_consistency():
    start = time.perf_counter()
    n, seed = 20_000, 424242
    results = []

    for name, theta, tau_want, rho_want in (
        ("phi2", 1.0, 2.0 / 9.0, 1.0 / 3.0),
        ("phi4", 1.0, 32.0 / PI4, 48.0 / PI4),
        ("phi2", 0.0, 0.0, 0.0),
    ):
        pts = Copula(builtin(name), theta).sample(n, seed)
        t_err = abs(empirical_tau(pts) - tau_want)
        r_err = abs(empirical_rho(pts) - rho_want)
        tau_tol, rho_tol = (0.03, 0.04) if theta != 0.0 else (0.03, 0.03)
        results.append((name, theta, t_err, tau_tol, r_err, rho_tol))
    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0 and all(
        te <= tt and re <= rt for _, _, te, tt, re, rt in results
    )
    detail = ", ".join(
        f"{name} t={theta:g}: tau err {te:.4f}/{tt}, rho err {re:.4f}/{rt}"
        for name, theta, te, tt, re, rt in results
    )
    _verdict(4, ok, f"n=2e4 seed {seed}: {detail}, {elapsed:.1f}s (budget 10s)")


def test_criterion_05_condition_verdicts_match_oracles():
    pairs_checked = 0
    ok = True
    catalog = (
        ("phi1", None),
        ("phi2", None),
        ("phi3", None),
        ("phi4", None),
        ("phi5", 1),
        ("phi5", 4),
        ("phi6", 2),
        ("phi6", 16),
    )
    for name, n in catalog:
        gen = builtin(name, n)
        for theta in (0.5, 1.0):
            cop = Copula(gen, theta)
            report = dependence_profile(gen, theta)
            ok = ok and oracle_pqd(cop).status == report.verdicts["pqd"].status
            ok = ok and oracle_tp2(cop).status == report.verdicts["tp2"].status
            pairs_checked += 2

    rep3 = dependence_profile(builtin("phi3"), 1.0)
    ok = ok and rep3.verdicts["pfd"].status == "holds"
    ok = ok and rep3.verdicts["pqd"].status == "fails"
    pqd3 = oracle_pqd(Copula(builtin("phi3"), 1.0))
    u, v = pqd3.witness
    cop3 = Copula(builtin("phi3"), 1.0)
    ok = ok and cop3.cdf(u, v) - u * v < -1e-12  # witness reproduces violation
    _verdict(
        5,
        ok,
        f"pqd/tp2 condition vs oracle verdicts equal on {pairs_checked} "
        f"(family, theta) pairs; sign-changing cubic: pfd holds, pqd fails, "
        f"oracle witness ({u:.3f}, {v:.3f}) re-verified against the cdf",
    )


def test_criterion_06_pfd_covariance_closed_form():
    lo, hi = 0.375, 0.625

    def smoothstep(t: float) -> float:
        if t <= lo:
            return 0.0
        if t >= hi:
            return 1.0
        s = (t - lo) / (hi - lo)
        return s * s * (3.0 - 2.0 * s)

    g_set = (
        ("t", lambda t: t, ()),
        ("t^2", lambda t: t * t, ()),
        ("sin(pi t)", lambda t: math.sin(math.pi * t), ()),
        ("smoothed step", smoothstep, (lo, hi)),
    )
    worst = 0.0
    lowest = 0.0
    combos = 0
    for name, n in FULL_CATALOG:
        gen = builtin(name, n)
        for theta in (0.0, 0.5, 1.0):
            cop = Copula(gen, theta)
            for _, g, brk in g_set:
                got = oracle_pfd(cop, g, resolution=256)
                ref = pfd_closed_form(cop, g, breakpoints=brk)
                worst = max(worst, abs(got - ref))
                lowest = min(lowest, got)
                combos += 1
    _verdict(
        6,
        worst <= 1e-6 and lowest >= -1e-10,
        f"covariance oracle vs theta*(integral g*phi')^2 on {combos} "
        f"(family, theta, g) combos: worst |diff| {worst:.2e} (tol 1e-6), "
        f"lowest value {lowest:.2e} (floor -1e-10)",
    )


def test_criterion_07_symmetry_classification():
    expected = (
        ("phi1", None, "fails"),
        ("phi2", None, "fails"),
        ("phi3", None, "holds"),
        ("phi4", None, "fails"),
        ("phi5", 4, "fails"),
        ("phi6", 3, "fails"),
    )
    ok = True
    for name, n, joint_want in expected:
        radial, joint = symmetry_check(builtin(name, n))
        ok = ok and radial.status == "holds" and joint.status == joint_want
    _verdict(
        7,
        ok,
        "radial symmetry holds for every family; joint symmetry only for "
        "the sign-changing cubic",
    )


def test_criterion_08_tau_sequences():
    worst = 0.0
    for n in range(1, 11):
        via_measures = closed_form_measures(Copula(builtin("phi5", n), 1.0)).tau
        worst = max(worst, abs(tau_phi5(n, 1.0) - via_measures))
    deep = tau_phi5(100, 1.0)

    taus6 = [
        closed_form_measures(Copula(builtin("phi6", n), 1.0)).tau
        for n in range(2, 33)
    ]
    increasing = all(b > a for a, b in zip(taus6, taus6[1:]))
    floor2 = taus6[0] >= 2.0 / 9.0 - 1e-12
    floor3 = all(t > 32.0 / PI4 for t in taus6[1:])
    deep6 = taus6[-1]
    ok = (
        worst <= 1e-10
        and deep >= 0.49
        and increasing
        and floor2
        and floor3
        and deep6 >= 0.45
    )
    _verdict(
        8,
        ok,
        f"ramp-family tau formula vs closed form: worst |diff| {worst:.2e} "
        f"(tol 1e-10), tau(n=100) = {deep:.4f} >= 0.49; smooth-envelope tau "
        f"strictly increasing over n in 2..32, tau(2) >= 2/9, tau(n>=3) > "
        f"32/pi^4, tau(32) = {deep6:.4f} >= 0.45",
    )


def test_criterion_09_copula_validity_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(20240816)
    min_volume = math.inf
    min_density = math.inf
    worst_mass = 0.0
    frechet_ok = True
    spot_ok = True

    xs_d = [k / 500.0 for k in range(501)]
    xs_f = [k / 200.0 for k in range(201)]
    q_nodes, q_weights = gauss_axis(256, 16)
    w_outer = np.outer(q_weights, q_weights)

    for name, n in FULL_CATALOG:
        gen = builtin(name, n)
        axis_d = [x for x in xs_d if x not in gen.kinks]
        deriv = np.array([gen.phi_prime(x) for x in axis_d])
        phi_f = np.array([gen.phi(x) for x in xs_f])
        uf = np.array(xs_f)

        for theta in (-1.0, 1.0):
            cop = Copula(gen, theta)

            # 1e5 seeded random rectangles, vectorized with a per-point check
            a = rng.random((4, 100_000))
            u1, u2 = np.minimum(a[0], a[1]), np.maximum(a[0], a[1])
            v1, v2 = np.minimum(a[2], a[3]), np.maximum(a[2], a[3])
            phi = gen.phi
            p_u1 = np.array([phi(x) for x in u1])
            p_u2 = np.array([phi(x) for x in u2])
            p_v1 = np.array([phi(x) for x in v1])
            p_v2 = np.array([phi(x) for x in v2])
            vols = (u2 - u1) * (v2 - v1) + theta * (p_u2 - p_u1) * (p_v2 - p_v1)
            min_volume = min(min_volume, float(vols.min()))
            for idx in rng.integers(0, 100_000, size=25):
                direct = cop.rectangle_volume(u1[idx], u2[idx], v1[idx], v2[idx])
                spot_ok = spot_ok and abs(direct - vols[idx]) <= 1e-15

            # density floor on the off-kink grid
            dens = 1.0 + theta * np.outer(deriv, deriv)
            min_density = min(min_density, float(dens.min()))
            for idx in rng.integers(0, len(axis_d), size=16):
                jdx = int(rng.integers(0, len(axis_d)))
                direct = cop.density(axis_d[idx], axis_d[jdx])
                spot_ok = spot_ok and abs(direct - dens[idx, jdx]) <= 1e-15

            # total mass via the composite rule over the actual density
            mass = float(np.sum(cop.density_grid(q_nodes) * w_outer))
            worst_mass = max(worst_mass, abs(mass - 1.0))

            # Frechet bounds on the 201x201 grid
            cgrid = np.outer(uf, uf) + theta * np.outer(phi_f, phi_f)
            lower = np.maximum(uf[:, None] + uf[None, :] - 1.0, 0.0)
            upper = np.minimum(uf[:, None], uf[None, :])
            frechet_ok = frechet_ok and bool(
                np.all(cgrid >= lower - 1e-12) and np.all(cgrid <= upper + 1e-12)
            )
            iidx = int(rng.integers(0, 201))
            jjdx = int(rng.integers(0, 201))
            direct = cop.cdf(uf[iidx], uf[jjdx])
            spot_ok = spot_ok and abs(direct - cgrid[iidx, jjdx]) <= 1e-15

    elapsed = time.perf_counter() - start
    ok = (
        min_volume >= -1e-12
        and min_density >= -1e-12
        and worst_mass <= 1e-9
        and frechet_ok
        and spot_ok
        and elapsed < 60.0
    )
    _verdict(
        9,
        ok,
        f"24 copulas: min rectangle volume {min_volume:.2e} (floor -1e-12) "
        f"over 1e5 draws each, min off-kink density {min_density:.2e}, "
        f"worst |mass - 1| {worst_mass:.2e} (tol 1e-9), Frechet bounds "
        f"{'hold' if frechet_ok else 'FAIL'}, grid values spot-checked "
        f"against the public evaluators, {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_10_determinism():
    def run(args):
        return subprocess.run(
            [sys.executable, "-m", "copula_forge.cli", *args],
            capture_output=True,
            text=True,
        )

    sample_args = [
        "sample", "--phi", "phi2", "--theta", "1.0",
        "--n", "1000", "--seed", "42",
    ]
    first = run(sample_args)
    second = run(sample_args)
    csv_ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and first.stdout.startswith("u,v\n")
        and len(first.stdout.strip().split("\n")) == 1001
    )

    quad_args = [
        "measures", "--phi", "phi1", "--theta", "1.0",
        "--method", "quad", "--resolution", "128", "--format", "json",
    ]
    quad = run(quad_args)
    quad_golden_ok = (
        quad.returncode == 0
        and hashlib.sha256(quad.stdout.encode("utf-8")).hexdigest()
        == QUADRATURE_DIGESTS["phi1@1"]
    )

    xs, _ = gauss_axis(128, 16)
    cop = Copula(builtin("phi4"), 1.0)
    grid_ok = np.array_equal(cop.density_grid(xs), eval_grid(cop.density, xs, xs))

    _verdict(
        10,
        csv_ok and quad_golden_ok and grid_ok,
        "two CLI sample runs (seed 42, n 1000) byte-identical; quadrature "
        "CLI output matches its pinned SHA-256; per-node density grid "
        "bit-identical to per-cell evaluation in process",
    )
