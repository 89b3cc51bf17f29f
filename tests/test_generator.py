"""Builtin generator families, expression-backed generators, validation."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from copula_forge.exprlang import EvaluationDomainError, Var
from copula_forge.generator import (
    BUILTIN_NAMES,
    Generator,
    builtin,
    from_expression,
    validate,
)

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
    assert g.derivative(0.25) == 1.0
    assert g.derivative(0.75) == -1.0
    assert g.derivative(0.5) == 1.0  # left slope kept at the kink


def test_phi2_values():
    g = builtin("phi2")
    assert g.phi(0.5) == 0.25
    assert g.derivative(0.0) == 1.0
    assert g.derivative(1.0) == -1.0
    assert g.kinks == ()


def test_phi3_values():
    g = builtin("phi3")
    assert g.phi(0.5) == 0.0
    assert g.phi(0.25) == pytest.approx(3.0 / 32.0, abs=1e-16)
    assert g.phi(0.75) == pytest.approx(-3.0 / 32.0, abs=1e-16)
    assert g.derivative(0.5) == pytest.approx(-0.5, abs=1e-15)


def test_phi4_values():
    g = builtin("phi4")
    assert g.phi(0.5) == pytest.approx(1.0 / math.pi, rel=1e-15)
    assert g.derivative(0.0) == 1.0
    assert g.second_derivative(0.5) == pytest.approx(-math.pi, rel=1e-15)


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
            left = g.derivative(kink - eps)
            right = g.derivative(kink + eps)
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
    assert g.derivative(0.25) == pytest.approx(0.5, abs=1e-15)
    assert g.second_derivative(0.25) == pytest.approx(-2.0, abs=1e-13)


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
            assert gen.derivative(x) == pytest.approx(fd, abs=1e-5), (gen.label, x)


def test_validate_maps_scalar_forms_without_array_forms():
    # the same generator with and without array forms: NaN at the node 0.25
    # comes from EvaluationDomainError on the point-by-point path
    gen = from_expression("x*(1-x)*0.1/(x-0.25)*(x-0.25)")
    bare = dataclasses.replace(gen, phi_array=None, phi_prime_array=None)
    xs = np.linspace(0.0, 1.0, 4097)
    for array_form, point_form in (
        (gen.phi_values(xs), bare.phi_values(xs)),
        (gen.derivative_values(xs), bare.derivative_values(xs)),
    ):
        assert np.array_equal(array_form, point_form, equal_nan=True)
    assert np.isnan(bare.phi_values(xs))[1024]
    assert validate(bare).to_dict() == validate(gen).to_dict()


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
    def slope(x: float) -> float:
        if x == 0.25:
            raise EvaluationDomainError("undefined", Var(), x)
        return 5.0 if x == 0.75 else 0.0

    gen = Generator(
        phi=lambda x: 0.0,
        phi_prime=slope,
        phi_second=lambda x: 0.0,
        label="kinked",
        kinks=(0.25, 0.75),
    )
    assert validate(gen, grid_points=5).overall_pass
    assert not validate(dataclasses.replace(gen, kinks=()), grid_points=5).overall_pass
