"""Quadrature, root finding, grid evaluation and the random stream."""

from __future__ import annotations

import math
import subprocess
import sys

import numpy as np
import pytest

from copula_forge import numerics
from copula_forge.numerics import (
    QUANTILE_TOL,
    QuadratureError,
    RandomStream,
    bisect,
    eval_grid,
    gauss_axis,
    integrate_1d,
    legendre_rule,
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
    with pytest.raises(QuadratureError):
        integrate_1d(f, 0.0, 1.0, abs_tol=1e-15)


def test_integrate_1d_rejects_nonpositive_tolerance():
    for tol in (0.0, -1e-12, math.nan):
        with pytest.raises(ValueError):
            integrate_1d(lambda x: x, 0.0, 1.0, abs_tol=tol)


# ---------------------------------------------------------------------------
# Gauss grids: 2-D integrals as tensor products of one axis


def test_gauss_axis_weights_sum_to_one():
    for nodes in (16, 64, 512):
        xs, ws = gauss_axis(nodes)
        assert xs.shape == ws.shape == (nodes,)
        assert np.all((xs > 0.0) & (xs < 1.0))
        assert np.all(np.diff(xs) > 0.0)
        assert ws.sum() == pytest.approx(1.0, abs=1e-14)


def test_gauss_axis_panel_placement():
    # one Legendre rule per sixteenth of [0, 1], so that every k/16 is a
    # panel boundary, when 16 divides the node count and there are at least
    # 64 nodes; one panel over [0, 1] otherwise
    for nodes, panels in ((512, 16), (64, 16), (48, 1), (32, 1), (100, 1)):
        xs, ws = gauss_axis(nodes)
        per_panel = nodes // panels
        base_x, base_w = legendre_rule(per_panel)
        starts = np.repeat(np.arange(panels) / panels, per_panel)
        inside = np.tile((base_x + 1.0) / (2 * panels), panels)
        np.testing.assert_allclose(xs - starts, inside, rtol=0.0, atol=1e-15)
        assert np.array_equal(ws, np.tile(base_w, panels) / (2 * panels))


def _single_panel(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """The one-panel Gauss-Legendre rule on [0, 1]."""
    base_x, base_w = legendre_rule(nodes)
    return (base_x + 1.0) * 0.5, base_w * 0.5


def _tensor_gauss(f, rule: tuple[np.ndarray, np.ndarray]) -> float:
    """Integral of f(u, v) over the unit square by the tensor Gauss rule."""
    xs, ws = rule
    return float(np.sum(np.outer(ws, ws) * f(xs[:, None], xs[None, :])))


def test_gauss_polynomial_exactness_single_panel():
    # n-node Gauss is exact through degree 2n-1 on each axis.
    got = _tensor_gauss(lambda u, v: (u**15) * (v**7), _single_panel(8))
    assert got == pytest.approx(1.0 / (16 * 8), abs=1e-12)


def test_composite_matches_single_panel_on_smooth():
    f = lambda u, v: np.exp(u) * np.cos(v)
    exact = (math.e - 1.0) * math.sin(1.0)
    assert _tensor_gauss(f, _single_panel(64)) == pytest.approx(exact, abs=1e-13)
    assert _tensor_gauss(f, gauss_axis(64)) == pytest.approx(exact, abs=1e-13)


def test_tensor_gauss_unit_mass():
    for rule in (_single_panel(512), gauss_axis(512), gauss_axis(17)):
        got = _tensor_gauss(lambda u, v: np.ones_like(u * v), rule)
        assert got == pytest.approx(1.0, abs=1e-13)


def test_eval_grid_layout():
    xs = [0.0, 0.5]
    ys = [0.25, 0.75, 1.0]
    grid = eval_grid(lambda u, v: 10.0 * u + v, xs, ys)
    assert grid.shape == (2, 3)
    assert grid[1, 2] == 10.0 * 0.5 + 1.0


def test_tensor_gauss_bit_identical_across_processes():
    # Full-path determinism check: the same value printed by two separate
    # interpreter processes.
    code = (
        "import numpy as np\n"
        "from copula_forge.numerics import gauss_axis\n"
        "xs, ws = gauss_axis(128)\n"
        "cells = np.outer(np.sin(xs), np.exp(xs))\n"
        "val = float(np.sum(np.outer(ws, ws) * cells))\n"
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
    target = np.array([0.3, 0.7, 0.123456789])
    v, unsolved = bisect(lambda x, rows: x, target)
    assert not unsolved.any()
    assert np.all(np.abs(v - target) <= QUANTILE_TOL)


def test_bisect_cubic():
    target = np.array([1e-3, 0.7])
    v, unsolved = bisect(lambda x, rows: x**3, target)
    assert not unsolved.any()
    # The stopping rule bounds the residual, not the abscissa error.
    assert np.all(np.abs(v**3 - target) <= QUANTILE_TOL)
    # rows with different f share one call
    cubic = np.array([False, True, True, False])
    target = np.array([0.3, 1e-3, 0.7, 0.123456789])
    v, unsolved = bisect(lambda x, rows: np.where(cubic[rows], x**3, x), target)
    assert not unsolved.any()
    assert np.all(np.abs(np.where(cubic, v**3, v) - target) <= QUANTILE_TOL)


def test_bisect_endpoint_hits():
    v, unsolved = bisect(lambda x, rows: x, np.array([0.0, 0.25, 1.0]))
    assert not unsolved.any()
    assert v[[0, 2]].tolist() == [0.0, 1.0]
    # the ends come from the guards, not from halving towards them
    v, _ = bisect(lambda x, rows: 0.5 * x + 0.25, np.array([0.25, 0.75]))
    assert v.tolist() == [0.0, 1.0]


def test_bisect_bracket_violation():
    # A target beyond f(0) or f(1) cannot leave the bracket: the guards
    # return the nearer end and the row counts as solved.
    v, unsolved = bisect(lambda x, rows: x, np.array([-1.0, 2.0, 0.5]))
    assert not unsolved.any()
    assert v.tolist() == [0.0, 1.0, 0.5]
    v, unsolved = bisect(lambda x, rows: 0.5 * x + 0.25, np.array([0.0, 1.0]))
    assert not unsolved.any()
    assert v.tolist() == [0.0, 1.0]


def test_bisect_nan_band_leaves_the_row_unsolved_at_its_first_nan():
    shift = np.array([0.0, 0.2, 0.0, 0.0])
    target = np.array([0.35, 0.65, 0.9, 0.1])

    def f(x, rows):
        y = x + shift[rows]
        return np.where((0.3 < y) & (y < 0.4), np.nan, y)

    v, unsolved = bisect(f, target)
    assert unsolved.tolist() == [True, False, False, False]
    assert v[0] == 0.375  # mids 0.5, 0.25, then 0.375 in the band
    assert abs(v[1] + 0.2 - 0.65) <= QUANTILE_TOL
    # a NaN at an end is recorded at that end
    v, unsolved = bisect(lambda x, rows: np.where(x >= 1.0, np.nan, x), np.array([0.5, 0.0]))
    assert unsolved.tolist() == [True, False]
    assert v.tolist() == [1.0, 0.0]


def test_bisect_row_left_live_reads_nan(monkeypatch):
    monkeypatch.setattr(numerics, "MAX_HALVINGS", 5)
    v, unsolved = bisect(lambda x, rows: x, np.array([0.3, 0.5, 1.0]))
    assert unsolved.tolist() == [True, False, False]
    assert math.isnan(v[0]) and v[1:].tolist() == [0.5, 1.0]


def test_bisect_rows_equal_their_one_row_solves():
    rng = np.random.default_rng(7)
    slope = rng.uniform(-1.0, 1.0, 64)
    target = rng.uniform(0.0, 1.0, 64)
    target[:4] = (0.0, 1.0, 1e-300, 1.0 - 2.0**-53)
    f = lambda x, rows: x + slope[rows] * x * (1.0 - x)
    v, unsolved = bisect(f, target)
    assert not unsolved.any()
    for i in range(target.size):
        alone, _ = bisect(lambda x, rows: x + slope[i] * x * (1.0 - x), target[i : i + 1])
        assert v[i].hex() == alone[0].hex()


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", [0, 42, 2**63, 2**64 - 1])
@pytest.mark.parametrize("count", [0, 1, 7, 1000])
def test_next_floats_equals_next_float_calls(seed, count):
    a, b = RandomStream(seed), RandomStream(seed)
    got = a.next_floats(count)
    assert got.dtype == np.float64 and got.shape == (count,)
    assert got.tolist() == [b.next_float() for _ in range(count)]
    assert a.next_u64() == b.next_u64()  # same state afterwards
