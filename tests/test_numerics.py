"""Quadrature, root finding, grid evaluation and the random stream."""

from __future__ import annotations

import math
import subprocess
import sys

import numpy as np
import pytest

from copula_forge.numerics import (
    BracketError,
    QuadratureConfig,
    QuadratureError,
    RandomStream,
    aligned_panels,
    bisect,
    eval_grid,
    gauss_axis,
    integrate_1d,
    integrate_2d,
)


# ---------------------------------------------------------------------------
# integrate_1d


def test_simpson_parabola_exact():
    # Simpson is exact through cubics, so the top-level estimate already wins.
    assert integrate_1d(lambda x: x * (1.0 - x), 0.0, 1.0) == pytest.approx(
        1.0 / 6.0, abs=1e-15
    )


def test_simpson_cubic_exact():
    f = lambda x: x**3 - 0.5 * x**2 + x
    assert integrate_1d(f, 0.0, 1.0) == pytest.approx(0.25 - 1.0 / 6.0 + 0.5, abs=1e-13)


def test_simpson_kink_with_breakpoint():
    got = integrate_1d(lambda x: min(x, 1.0 - x), 0.0, 1.0, breakpoints=(0.5,))
    assert got == pytest.approx(0.25, abs=1e-14)


def test_simpson_kink_without_breakpoint_still_converges():
    # |phi| style integrands are continuous; the kink only slows refinement.
    got = integrate_1d(lambda x: min(x, 1.0 - x), 0.0, 1.0)
    assert got == pytest.approx(0.25, abs=1e-11)


def test_simpson_sine_arch():
    got = integrate_1d(lambda x: math.sin(math.pi * x) / math.pi, 0.0, 1.0)
    assert got == pytest.approx(2.0 / math.pi**2, abs=1e-12)


def test_simpson_breakpoints_outside_range_ignored():
    got = integrate_1d(
        lambda x: x * x, 0.0, 1.0, breakpoints=(-1.0, 0.0, 1.0, 2.0)
    )
    assert got == pytest.approx(1.0 / 3.0, abs=1e-13)


def test_simpson_empty_interval():
    assert integrate_1d(lambda x: 1.0, 0.3, 0.3) == 0.0


def test_simpson_jump_discontinuity_raises():
    # A genuine jump defeats Richardson refinement: the straddling interval's
    # delta shrinks at the same rate as its tolerance share.
    cut = 1.0 / math.pi
    f = lambda x: 0.0 if x < cut else 1.0
    cfg = QuadratureConfig(abs_tol=1e-15)
    with pytest.raises(QuadratureError):
        integrate_1d(f, 0.0, 1.0, config=cfg)


def test_quadrature_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(max_depth=0)
    with pytest.raises(ValueError):
        QuadratureConfig(nodes_per_axis=10, panels_per_axis=4)


# ---------------------------------------------------------------------------
# Gauss grids and 2-D integration


def test_gauss_axis_weights_sum_to_one():
    for nodes, panels in ((16, 1), (64, 16), (512, 16)):
        xs, ws = gauss_axis(nodes, panels)
        assert xs.shape == ws.shape == (nodes,)
        assert np.all((xs > 0.0) & (xs < 1.0))
        assert np.all(np.diff(xs) > 0.0)
        assert ws.sum() == pytest.approx(1.0, abs=1e-14)


def test_aligned_panels_policy():
    assert aligned_panels(512) == 16
    assert aligned_panels(64) == 16
    assert aligned_panels(48) == 1  # not divisible by 16
    assert aligned_panels(32) == 1  # too coarse
    assert aligned_panels(100) == 1


def test_gauss_polynomial_exactness_single_panel():
    # n-node Gauss is exact through degree 2n-1 on each axis.
    n = 8
    cfg = QuadratureConfig(nodes_per_axis=n, panels_per_axis=1)
    got = integrate_2d(lambda u, v: (u**15) * (v**7), config=cfg)
    assert got == pytest.approx(1.0 / (16 * 8), abs=1e-12)


def test_composite_matches_single_panel_on_smooth():
    f = lambda u, v: math.exp(u) * math.cos(v)
    exact = (math.e - 1.0) * math.sin(1.0)
    one = integrate_2d(f, config=QuadratureConfig(nodes_per_axis=64, panels_per_axis=1))
    many = integrate_2d(f, config=QuadratureConfig(nodes_per_axis=64, panels_per_axis=16))
    assert one == pytest.approx(exact, abs=1e-13)
    assert many == pytest.approx(exact, abs=1e-13)


def test_integrate_2d_unit_mass():
    assert integrate_2d(lambda u, v: 1.0) == pytest.approx(1.0, abs=1e-13)


def test_eval_grid_layout():
    xs = [0.0, 0.5]
    ys = [0.25, 0.75, 1.0]
    grid = eval_grid(lambda u, v: 10.0 * u + v, xs, ys)
    assert grid.shape == (2, 3)
    assert grid[1, 2] == 10.0 * 0.5 + 1.0


def test_integrate_2d_bit_identical_across_processes():
    # Full-path determinism check: the same value printed by two separate
    # interpreter processes.
    code = (
        "import math\n"
        "from copula_forge.numerics import integrate_2d, QuadratureConfig\n"
        "cfg = QuadratureConfig(nodes_per_axis=128, panels_per_axis=16)\n"
        "val = integrate_2d(lambda u, v: math.sin(u) * math.exp(v), config=cfg)\n"
        "print(f'{val!r}')\n"
    )
    outs = []
    for _ in range(2):
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        outs.append(res.stdout)
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# bisect


def test_bisect_linear():
    assert bisect(lambda x: x, 0.0, 1.0, 0.3) == pytest.approx(0.3, abs=1e-12)


def test_bisect_cubic():
    got = bisect(lambda x: x**3, 0.0, 1.0, 1e-3)
    # The stopping rule bounds the residual, not the abscissa error.
    assert abs(got**3 - 1e-3) <= 1e-12


def test_bisect_endpoint_hits():
    assert bisect(lambda x: x, 0.0, 1.0, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert bisect(lambda x: x, 0.0, 1.0, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_bisect_bracket_violation():
    with pytest.raises(BracketError):
        bisect(lambda x: x, 0.0, 1.0, 2.0)


# ---------------------------------------------------------------------------
# RandomStream


def test_stream_deterministic():
    a = RandomStream(42)
    b = RandomStream(42)
    seq_a = [a.next_u64() for _ in range(64)]
    seq_b = [b.next_u64() for _ in range(64)]
    assert seq_a == seq_b
    assert all(0 <= z < 2**64 for z in seq_a)


def test_stream_floats_in_unit_interval():
    s = RandomStream(7)
    vals = [s.next_float() for _ in range(10_000)]
    assert all(0.0 <= v < 1.0 for v in vals)


def test_stream_mean_near_half():
    s = RandomStream(123456)
    n = 1_000_000
    total = 0.0
    for _ in range(n):
        total += s.next_float()
    assert abs(total / n - 0.5) < 0.002


def test_adjacent_seeds_uncorrelated():
    n = 100_000
    a = RandomStream(1)
    b = RandomStream(2)
    xs = np.array([a.next_float() for _ in range(n)])
    ys = np.array([b.next_float() for _ in range(n)])
    corr = np.corrcoef(xs, ys)[0, 1]
    assert abs(corr) < 0.05


def test_split_gives_independent_child():
    parent = RandomStream(99)
    child = parent.split()
    n = 100_000
    xs = np.array([parent.next_float() for _ in range(n)])
    ys = np.array([child.next_float() for _ in range(n)])
    corr = np.corrcoef(xs, ys)[0, 1]
    assert abs(corr) < 0.05


def test_split_advances_parent():
    a = RandomStream(5)
    b = RandomStream(5)
    a.split()
    b.next_u64()
    assert a.next_u64() == b.next_u64()
