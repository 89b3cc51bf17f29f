"""Builtin generator families, expression-backed generators, validation."""

from __future__ import annotations

import dataclasses
import hashlib
import math
from collections import Counter

import numpy as np
import pytest

from conftest import with_hole

from copula_forge.copula import Copula
from copula_forge.exprlang import EvaluationDomainError
from copula_forge.generator import (
    BUILTIN_NAMES,
    Generator,
    builtin,
    from_expression,
    validate,
)
from copula_forge.numerics import gauss_axis, legendre_rule, uniform_grid
from copula_forge.properties import dependence_profile

ALL_BUILTINS = [
    builtin("phi1"),
    builtin("phi2"),
    builtin("phi3"),
    builtin("phi4"),
    builtin("phi5", 1),
    builtin("phi5", 2),
    builtin("phi5", 4),
    builtin("phi5", 16),
    builtin("phi6", 2),
    builtin("phi6", 3),
    builtin("phi6", 16),
]


# ---------------------------------------------------------------------------
# Array forms of the builtins

ARRAY_FORM_BUILTINS = [
    builtin("phi1"),
    builtin("phi2"),
    builtin("phi3"),
    builtin("phi4"),
    *(builtin("phi5", n) for n in (1, 2, 3, 4, 7, 8, 32)),
    *(builtin("phi6", n) for n in (2, 3, 5, 8)),
]


def _array_form_points(gen: Generator) -> np.ndarray:
    """Scan grids and their mirrors, Gauss nodes, random points, kinks."""
    grids = [uniform_grid(1001), uniform_grid(4097)]
    gauss = [gauss_axis(nodes)[0] for nodes in (64, 128, 256)]
    # the nodes of pfd_closed_form: 64 per piece between the kinks
    cuts = [0.0, *gen.kinks, 1.0]
    base_x, _ = legendre_rule(64)
    pieces = [0.5 * (a + b) + 0.5 * (b - a) * base_x for a, b in zip(cuts, cuts[1:])]
    kinks = np.array(gen.kinks)
    return np.concatenate([
        *grids,
        *(1.0 - g for g in grids),
        *gauss,
        *pieces,
        np.random.default_rng(10).uniform(0.0, 1.0, 500),
        kinks,
        np.nextafter(kinks, 1.0),
    ])


# SHA-256 of the float results of phi, phi' and phi'' (little-endian
# float64, in that order) on _array_form_points, taken while each builtin
# still wrote its float and array forms separately.  A digest that moves
# means a formula changed.
FLOAT_FORM_DIGESTS = {
    "phi1": "99911c8ea79203a7bed91d792cc760d0c75dcbd2aeaa983e9d643ec4bc270c95",
    "phi2": "16afa06e5852bfde63c262c9151f54646c93f4afd71ef2fdbd6c6cff9c4ad308",
    "phi3": "28bfb5047286c5ee787c99385f4ad01349a9846badad36e4b0fbf3ae03d013b7",
    "phi4": "871d8f8720307fa784da273f48abd42627de7c7018c1be3fb2b326b60a798f57",
    "phi5[n=1]": "a69ce43b1bb80156ace6bbe682021923098a2b101d05bf9021294ec43389f737",
    "phi5[n=2]": "c6abb9d872b728ab7429d3801966efdd9e2d69a583fdacee7c7f4bb332b4d62d",
    "phi5[n=3]": "7c012e1eedd6c3fe524fb8f51fb7dbc1a5d65e99c4f802ee5d4736dc15099f81",
    "phi5[n=4]": "968e132bc34b7388f845c9d6831d09a802064f2b6102ea54ec2f39054b1279cf",
    "phi5[n=7]": "91f7ac69b59525cdfae3151d74d628f3d02606c939efc2e5829fb7f4285ba087",
    "phi5[n=8]": "cd93b55c7eb24e5271e3c53ed3f98de3cc71bd47c7a010ee1872c3cde68b4d8c",
    "phi5[n=32]": "c2aeeeaa57804c014364ae84da152e9cb30aedbf3e7dc96f5419e016b3fa23ed",
    "phi6[n=2]": "5b63f2dfffb4f51dd7cdc606701bbcfb150684af1c8856766720ef881e675609",
    "phi6[n=3]": "84b4b7c7f9472e608fef369a7a4449b54f12ed38c3fc19740840b7da25814a80",
    "phi6[n=5]": "993c136d555ce87c13565423f98e804c43f40379e2356f7f1b0e5a952b9c6cc6",
    "phi6[n=8]": "b3dc4b546f4e680d76a91607e832e8b9164c781d716a2050ae0329e576b0ef5d",
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("gen", ARRAY_FORM_BUILTINS, ids=lambda g: g.label)
def test_builtin_array_forms_equal_scalar_forms_bit_for_bit(gen):
    xs = _array_form_points(gen)
    digest = hashlib.sha256()
    for name, form in (("phi", gen.phi), ("phi'", gen.phi_prime), ("phi''", gen.phi_second)):
        got = form(xs)
        want = np.array([form(x) for x in xs.tolist()])
        assert got.dtype == np.float64 and got.shape == xs.shape, name
        differ = got.view(np.uint64) != want.view(np.uint64)  # sign of zero too
        assert not differ.any(), (name, xs[differ][:5].tolist())
        digest.update(want.astype("<f8").tobytes())
    assert digest.hexdigest() == FLOAT_FORM_DIGESTS[gen.label]


# ---------------------------------------------------------------------------
# Builtin values


def test_builtin_names_catalog():
    assert BUILTIN_NAMES == ("phi1", "phi2", "phi3", "phi4", "phi5", "phi6")


def test_phi1_values():
    g = builtin("phi1")
    assert g.phi(0.0) == 0.0
    assert g.phi(0.25) == 0.25
    assert g.phi(0.5) == 0.5
    assert g.phi(0.75) == 0.25
    assert g.phi(1.0) == 0.0
    assert g.kinks == (0.5,)
    assert g.phi_prime(0.25) == 1.0
    assert g.phi_prime(0.75) == -1.0
    assert g.phi_prime(0.5) == 1.0  # left slope kept at the kink


def test_phi2_values():
    g = builtin("phi2")
    assert g.phi(0.5) == 0.25
    assert g.phi_prime(0.0) == 1.0
    assert g.phi_prime(1.0) == -1.0
    assert g.kinks == ()


def test_phi3_values():
    g = builtin("phi3")
    assert g.phi(0.5) == 0.0
    assert g.phi(0.25) == pytest.approx(3.0 / 32.0, abs=1e-16)
    assert g.phi(0.75) == pytest.approx(-3.0 / 32.0, abs=1e-16)
    assert g.phi_prime(0.5) == pytest.approx(-0.5, abs=1e-15)


def test_phi4_values():
    g = builtin("phi4")
    assert g.phi(0.5) == pytest.approx(1.0 / math.pi, rel=1e-15)
    assert g.phi_prime(0.0) == 1.0
    assert g.phi_second(0.5) == pytest.approx(-math.pi, rel=1e-15)


def test_phi5_order_one_is_half_parabola():
    g = builtin("phi5", 1)
    for k in range(11):
        x = k / 10.0
        assert g.phi(x) == pytest.approx(0.5 * x * (1.0 - x), abs=1e-16)
    assert g.kinks == ()


def test_phi5_order_two_equals_phi2():
    g5 = builtin("phi5", 2)
    g2 = builtin("phi2")
    for k in range(101):
        x = k / 100.0
        assert g5.phi(x) == pytest.approx(g2.phi(x), abs=1e-15)


def test_phi5_piecewise_structure():
    g = builtin("phi5", 4)
    assert g.kinks == (0.25, 0.75)
    assert g.phi(0.1) == 0.1  # ramp
    assert g.phi(0.9) == pytest.approx(0.1, abs=1e-16)  # opposite ramp
    assert g.phi(0.5) == pytest.approx(0.375, abs=1e-15)  # parabolic cap peak


def test_phi5_c1_joins():
    for n in (2, 3, 4, 8, 16):
        g = builtin("phi5", n)
        for kink in g.kinks:
            eps = 1e-9
            left = g.phi_prime(kink - eps)
            right = g.phi_prime(kink + eps)
            assert abs(left - right) <= 1e-7 * n
            # value continuity at the join
            assert abs(g.phi(kink - eps) - g.phi(kink + eps)) <= 1e-8


def test_phi6_values():
    g = builtin("phi6", 2)
    assert g.phi(0.5) == pytest.approx(1.0 - 1.0 / math.sqrt(2.0), rel=1e-15)
    assert g.phi(0.0) == 0.0
    assert g.phi(1.0) == 0.0
    assert g.kinks == ()


def test_phi6_approaches_sharp_envelope():
    sharp = builtin("phi1")
    last = float("inf")
    for n in (2, 4, 8, 16, 32):
        g = builtin("phi6", n)
        sup = max(
            abs(g.phi(k / 1000.0) - sharp.phi(k / 1000.0)) for k in range(1001)
        )
        assert sup < last
        last = sup
    assert last < 0.02  # n = 32 is already close


def test_builtin_argument_rules():
    with pytest.raises(ValueError):
        builtin("phi5")
    with pytest.raises(ValueError):
        builtin("phi5", 0)
    with pytest.raises(ValueError):
        builtin("phi6")
    with pytest.raises(ValueError):
        builtin("phi6", 1)
    with pytest.raises(ValueError):
        builtin("phi2", 3)
    with pytest.raises(ValueError):
        builtin("phi9")


def test_builtin_metadata():
    for gen in ALL_BUILTINS:
        assert gen.certified_valid
    assert builtin("phi5", 4).n == 4
    assert builtin("phi6", 7).label == "phi6[n=7]"


# ---------------------------------------------------------------------------
# Expression-backed generators


def test_from_expression_matches_phi2():
    g = from_expression("x*(1-x)")
    ref = builtin("phi2")
    worst = max(abs(g.phi(k / 1000.0) - ref.phi(k / 1000.0)) for k in range(1001))
    assert worst <= 1e-15
    assert not g.certified_valid
    assert g.source == "x*(1-x)"
    assert g.label == "expr:x*(1-x)"


def test_from_expression_symbolic_derivatives():
    g = from_expression("x*(1-x)")
    assert g.phi_prime(0.25) == pytest.approx(0.5, abs=1e-15)
    assert g.phi_second(0.25) == pytest.approx(-2.0, abs=1e-13)


def test_from_expression_probe_domain_error():
    with pytest.raises(EvaluationDomainError):
        from_expression("1/x")


def test_from_expression_rejects_bad_syntax():
    from copula_forge.exprlang import ExpressionSyntaxError

    with pytest.raises(ExpressionSyntaxError):
        from_expression("min(x, 1-x")


# ---------------------------------------------------------------------------
# Validation


def test_all_builtins_validate():
    for gen in ALL_BUILTINS:
        report = validate(gen)
        assert report.overall_pass, (gen.label, report.to_dict())
        assert {c.name for c in report.checks} == {
            "endpoints",
            "derivative_bound",
            "envelope",
        }


def test_validate_report_shape():
    rep = validate(builtin("phi2"), grid_points=101, tol=1e-9)
    d = rep.to_dict()
    assert d["generator"] == "phi2"
    assert d["grid_points"] == 101
    assert d["tol"] == 1e-9
    assert d["certified"] is True
    assert d["overall"] == "pass"
    assert len(d["checks"]) == 3


def test_validate_rejects_sine_amplitude():
    rep = validate(from_expression("sin(pi*x)"))
    assert not rep.overall_pass
    by_name = {c.name: c for c in rep.checks}
    env = by_name["envelope"]
    assert env.verdict == "fail"
    x, value = env.witness
    assert x == pytest.approx(0.5, abs=1e-12)
    assert value == pytest.approx(1.0, abs=1e-12)
    der = by_name["derivative_bound"]
    assert der.verdict == "fail"
    wx, wval = der.witness
    assert wx == 0.0
    assert wval == pytest.approx(math.pi, abs=1e-12)


def test_validate_rejects_steep_parabola():
    rep = validate(from_expression("2*x*(1-x)"))
    by_name = {c.name: c for c in rep.checks}
    der = by_name["derivative_bound"]
    assert der.verdict == "fail"
    wx, wval = der.witness
    assert wx == 0.0
    assert wval == pytest.approx(2.0, abs=1e-12)


def test_validate_rejects_nonzero_endpoint():
    rep = validate(from_expression("x + 0.5"))
    by_name = {c.name: c for c in rep.checks}
    assert by_name["endpoints"].verdict == "fail"


def test_validate_accepts_zero_generator():
    rep = validate(from_expression("0*x"))
    assert rep.overall_pass


def test_validate_grid_argument_rules():
    with pytest.raises(ValueError):
        validate(builtin("phi2"), grid_points=2)
    for bad_tol in (0.0, -1e-9, float("nan"), 1e-3, 1e300, float("inf")):
        with pytest.raises(ValueError):
            validate(builtin("phi2"), tol=bad_tol)


def test_envelope_invariant_on_fine_grid():
    for gen in ALL_BUILTINS:
        for k in range(4097):
            x = k / 4096.0
            assert abs(gen.phi(x)) <= min(x, 1.0 - x) + 1e-12, (gen.label, x)


def test_symbolic_derivative_matches_finite_differences():
    h = 1e-6
    for gen in ALL_BUILTINS:
        for k in range(1, 200):
            x = k / 200.0 + 0.00137
            if x + h >= 1.0:
                continue
            if any(abs(x - kk) < 1e-3 for kk in gen.kinks):
                continue
            fd = (gen.phi(x + h) - gen.phi(x - h)) / (2.0 * h)
            assert gen.phi_prime(x) == pytest.approx(fd, abs=1e-5), (gen.label, x)


def test_envelope_names_the_first_undefined_node():
    # phi is undefined at the nodes 0.25 and 0.75 only
    gen = from_expression(
        "x*(1-x)*0.1/((x-0.25)*(x-0.75))*((x-0.25)*(x-0.75))"
    )
    envelope = validate(gen).checks[2]
    assert envelope.verdict == "fail"
    assert envelope.witness == (0.25, math.inf)


def test_derivative_bound_skips_kink_nodes_before_evaluating():
    # phi' is steep and undefined exactly on the declared kinks, nowhere else
    zero = lambda x: 0.0 * x
    slope = with_hole(lambda x: 5.0 * (x == 0.75), lambda x: x == 0.25)
    gen = Generator(
        phi=zero, phi_prime=slope, phi_second=zero, label="kinked", kinks=(0.25, 0.75)
    )
    assert validate(gen, grid_points=5).overall_pass
    assert not validate(dataclasses.replace(gen, kinks=()), grid_points=5).overall_pass


# ---------------------------------------------------------------------------
# One form per field: a replaced form serves every read


def _counted(gen: Generator, counts: Counter) -> Generator:
    """gen with each form wrapped, through dataclasses.replace, to count its points."""

    def counting(name, form):
        def points(x):
            counts[name] += np.size(x)
            return form(x)

        return points

    fields = ("phi", "phi_prime", "phi_second")
    return dataclasses.replace(gen, **{f: counting(f, getattr(gen, f)) for f in fields})


def _off_kinks(gen: Generator, grid: int) -> int:
    return int((~np.isin(uniform_grid(grid), gen.kinks)).sum())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "gen",
    [builtin("phi5", 4), from_expression("0.4*x*(1-x)*(1+sin(pi*x))")],
    ids=lambda g: g.label,
)
def test_replaced_forms_read_every_point(gen):
    counts = Counter()
    wrapped = _counted(gen, counts)
    assert validate(wrapped).to_dict() == validate(gen).to_dict()
    assert counts == {"phi": 2 + 4097, "phi_prime": _off_kinks(gen, 4097)}

    cop = Copula(wrapped, 0.5)
    counts.clear()
    assert cop.sample(50, seed=3) == Copula(gen, 0.5).sample(50, seed=3)
    # phi' once per u; phi at both ends, then once per pair and halving
    assert counts["phi_prime"] == 50 and counts["phi"] > 2 + 50 * 30

    counts.clear()
    profile = dependence_profile(wrapped, 0.5)
    assert profile.to_dict() == dependence_profile(gen, 0.5).to_dict()
    assert counts["phi"] >= 2 * 1001
    assert counts["phi_second"] == _off_kinks(gen, 1001)


@pytest.mark.filterwarnings("error")
def test_banded_phi2_raises_on_the_float_and_the_array_path():
    fgm = builtin("phi2")
    banded = dataclasses.replace(
        fgm, phi_prime=with_hole(fgm.phi_prime, lambda x: (0.3 < x) & (x < 0.4))
    )
    cop = Copula(banded, 0.5)
    with pytest.raises(EvaluationDomainError) as point:
        cop.density(0.35, 0.5)
    with pytest.raises(EvaluationDomainError) as grid:
        cop.density_grid([0.1, 0.35, 0.37])
    assert point.value.x == grid.value.x == 0.35
    # validate reads the band too: phi' is undefined at 409 of its nodes
    assert validate(banded).checks[1].verdict == "inconclusive"

