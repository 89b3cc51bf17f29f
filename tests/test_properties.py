"""Symmetry, dependence-property classification, orderings and oracles."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from conftest import with_hole

from copula_forge.copula import Copula
from copula_forge.exprlang import EvaluationDomainError
from copula_forge.generator import Generator, builtin, from_expression
from copula_forge.numerics import uniform_grid
from copula_forge.properties import (
    PROPERTY_KEYS,
    dependence_profile,
    oracle_pfd,
    oracle_pqd,
    oracle_tp2,
    pfd_closed_form,
)

DEPENDENCE_KEYS = ("pfd", "pqd", "ltd", "rti", "si", "lcsd", "rcsi", "tp2")


def _pair(gen, first: str, second: str, **scan):
    """Two verdicts of the theta = 1 profile."""
    verdicts = dependence_profile(gen, 1.0, **scan).verdicts
    return verdicts[first], verdicts[second]


def _symmetry(gen, **scan):
    return _pair(gen, "radial_symmetry", "joint_symmetry", **scan)


def _ordering(gen):
    return _pair(gen, "concordance_ordered", "si_ordered")


# ---------------------------------------------------------------------------
# Symmetry


def test_symmetry_classification_of_builtins():
    # phi3 is odd about 1/2 -> both symmetries; the rest are even -> radial
    # holds, joint fails.
    for name, n, want_joint in (
        ("phi1", None, False),
        ("phi2", None, False),
        ("phi3", None, True),
        ("phi4", None, False),
        ("phi5", 4, False),
        ("phi6", 3, False),
    ):
        radial, joint = _symmetry(builtin(name, n))
        assert radial.status == "holds", name
        assert joint.status == ("holds" if want_joint else "fails"), name


def test_joint_failure_witness_is_smallest_and_checkable():
    gen = builtin("phi2")
    _, joint = _symmetry(gen)
    (u,) = joint.witness
    assert u == pytest.approx(0.001, abs=1e-15)
    # re-check the defining identity phi(1-u) == -phi(u) actually breaks here
    assert abs(gen.phi(1.0 - u) + gen.phi(u)) > 1e-9


def test_zero_generator_is_fully_symmetric():
    zero_form = lambda x: 0.0 * x
    zero = Generator(phi=zero_form, phi_prime=zero_form, phi_second=zero_form, label="zero")
    radial, joint = _symmetry(zero)
    assert radial.status == "holds"
    assert joint.status == "holds"


def test_symmetry_argument_rules():
    with pytest.raises(ValueError):
        _symmetry(builtin("phi2"), grid=2)
    with pytest.raises(ValueError):
        _symmetry(builtin("phi2"), tol=0.0)


# ---------------------------------------------------------------------------
# Dependence profiles


def test_profile_report_shape():
    rep = dependence_profile(builtin("phi2"), 0.5)
    assert rep.label == "phi2"
    assert rep.theta == 0.5
    assert not rep.negative_dependence
    assert set(rep.verdicts) == set(PROPERTY_KEYS)
    d = rep.to_dict()
    assert list(d["verdicts"]) == list(PROPERTY_KEYS)
    for key in PROPERTY_KEYS:
        entry = d["verdicts"][key]
        assert entry["status"] in {"holds", "fails", "inconclusive"}
        assert "witness" in entry and "note" in entry
        assert entry["method"] in {"phi_condition", "definition_oracle"}


def test_sign_constant_families_have_all_properties():
    for name, n in (("phi1", None), ("phi2", None), ("phi4", None), ("phi5", 4),
                    ("phi6", 2)):
        rep = dependence_profile(builtin(name, n), 1.0)
        for key in DEPENDENCE_KEYS:
            assert rep.verdicts[key].status == "holds", (name, key)
        assert rep.verdicts["concordance_ordered"].status == "holds"
        assert rep.verdicts["si_ordered"].status == "holds"


def test_sign_changing_family_fails_everything_but_pfd():
    rep = dependence_profile(builtin("phi3"), 1.0)
    assert rep.verdicts["pfd"].status == "holds"
    for key in ("pqd", "ltd", "rti", "si", "lcsd", "rcsi", "tp2"):
        assert rep.verdicts[key].status == "fails", key
    assert rep.verdicts["concordance_ordered"].status == "fails"
    assert rep.verdicts["si_ordered"].status == "inconclusive"


def test_phi3_witnesses_are_recheckable():
    gen = builtin("phi3")
    rep = dependence_profile(gen, 1.0)

    pos, neg = rep.verdicts["pqd"].witness
    assert gen.phi(pos) > 1e-9 and gen.phi(neg) < -1e-9
    assert (pos, neg) == (pytest.approx(0.001), pytest.approx(0.501))

    rise, drop = rep.verdicts["ltd"].witness
    # phi(u)/u must be monotone; the witness shows one rise and one drop
    ratio = lambda x: gen.phi_prime(0.0) if x == 0.0 else gen.phi(x) / x
    assert ratio(rise[1]) > ratio(rise[0]) + 1e-9
    assert ratio(drop[1]) < ratio(drop[0]) - 1e-9

    rise, drop = rep.verdicts["rti"].witness
    ratio = lambda x: gen.phi_prime(1.0) if x == 1.0 else gen.phi(x) / (x - 1.0)
    assert ratio(rise[1]) > ratio(rise[0]) + 1e-9
    assert ratio(drop[1]) < ratio(drop[0]) - 1e-9

    cpos, cneg = rep.verdicts["si"].witness
    assert gen.phi_second(cpos) > 0.0
    assert gen.phi_second(cneg) < 0.0


def test_independence_reports_everything_holds():
    rep = dependence_profile(builtin("phi3"), 0.0)
    for key in ("radial_symmetry", "joint_symmetry") + DEPENDENCE_KEYS:
        assert rep.verdicts[key].status == "holds", key
    assert "independence" in rep.verdicts["pqd"].note
    # orderings describe the theta-indexed family, not the single member
    assert rep.verdicts["concordance_ordered"].status == "fails"
    assert rep.verdicts["si_ordered"].status == "inconclusive"


def test_negative_theta_sets_mirror_flag():
    rep = dependence_profile(builtin("phi2"), -0.8)
    assert rep.negative_dependence
    assert rep.verdicts["pqd"].status == "holds"  # same phi-condition
    assert "mirror" in rep.verdicts["pqd"].note


def test_equivalences_share_status():
    for name, n, theta in (("phi2", None, 1.0), ("phi3", None, 1.0), ("phi6", 5, 0.5)):
        rep = dependence_profile(builtin(name, n), theta)
        assert rep.verdicts["lcsd"].status == rep.verdicts["ltd"].status
        assert rep.verdicts["rcsi"].status == rep.verdicts["rti"].status
        assert rep.verdicts["tp2"].status == rep.verdicts["si"].status


def test_implication_chain_on_builtins():
    gens = [
        builtin("phi1"),
        builtin("phi2"),
        builtin("phi3"),
        builtin("phi4"),
        builtin("phi5", 1),
        builtin("phi5", 8),
        builtin("phi6", 2),
        builtin("phi6", 16),
    ]
    for gen in gens:
        for theta in (0.5, 1.0):
            rep = dependence_profile(gen, theta)
            holds = lambda k: rep.verdicts[k].status == "holds"
            if holds("tp2"):
                assert holds("si"), gen.label
            if holds("si"):
                assert holds("ltd") and holds("rti"), gen.label
            if holds("ltd") or holds("rti"):
                assert holds("pqd"), gen.label
            assert holds("pfd"), gen.label  # always, for theta >= 0


def test_pqd_means_cdf_monotone_in_theta():
    gen = builtin("phi2")
    thetas = (-0.5, 0.0, 0.5, 1.0)
    cops = [Copula(gen, t) for t in thetas]
    for i in range(0, 101, 5):
        u = i / 100.0
        for j in range(0, 101, 5):
            v = j / 100.0
            vals = [c.cdf(u, v) for c in cops]
            assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


def test_profile_argument_rules():
    with pytest.raises(ValueError):
        dependence_profile(builtin("phi2"), 1.5)
    with pytest.raises(ValueError):
        dependence_profile(builtin("phi2"), 0.5, grid=1)


# ---------------------------------------------------------------------------
# Orderings


def test_ordering_verdicts():
    conc, si = _ordering(builtin("phi2"))
    assert conc.status == "holds"
    assert si.status == "holds"

    conc3, si3 = _ordering(builtin("phi3"))
    assert conc3.status == "fails"
    assert conc3.witness == (pytest.approx(0.001), pytest.approx(0.501))
    assert si3.status == "inconclusive"
    assert "sufficient" in si3.note


def test_concordance_failure_witness_is_checkable():
    gen = builtin("phi3")
    conc, _ = _ordering(gen)
    pos, neg = conc.witness
    # a genuine sign change makes theta |-> C_theta(u, v) non-monotone
    lo = Copula(gen, 0.2)
    hi = Copula(gen, 0.9)
    assert hi.cdf(pos, neg) < lo.cdf(pos, neg)


def test_si_ordering_never_fails():
    for name, n in (("phi1", None), ("phi2", None), ("phi3", None),
                    ("phi4", None), ("phi5", 2), ("phi6", 4)):
        _, si = _ordering(builtin(name, n))
        assert si.status in {"holds", "inconclusive"}, name


# ---------------------------------------------------------------------------
# Oracles


def test_oracle_pqd_agrees_with_condition():
    for name, n in (("phi1", None), ("phi2", None), ("phi3", None),
                    ("phi4", None), ("phi5", 4), ("phi6", 2)):
        gen = builtin(name, n)
        for theta in (0.5, 1.0):
            want = dependence_profile(gen, theta).verdicts["pqd"].status
            got = oracle_pqd(Copula(gen, theta))
            assert got.status == want, (name, theta)
            assert got.method == "definition_oracle"


def test_oracle_pqd_witness():
    verdict = oracle_pqd(Copula(builtin("phi3"), 1.0))
    assert verdict.status == "fails"
    u, v = verdict.witness
    assert (u, v) == (pytest.approx(0.005), pytest.approx(0.505))
    cop = Copula(builtin("phi3"), 1.0)
    assert cop.cdf(u, v) - u * v < -1e-12


def test_oracle_tp2_agrees_with_condition():
    for name, n in (("phi1", None), ("phi2", None), ("phi3", None),
                    ("phi4", None), ("phi5", 4), ("phi6", 2)):
        gen = builtin(name, n)
        for theta in (0.5, 1.0):
            want = dependence_profile(gen, theta).verdicts["tp2"].status
            got = oracle_tp2(Copula(gen, theta))
            assert got.status == want, (name, theta)


def test_oracle_tp2_witness_is_a_genuine_violation():
    cop = Copula(builtin("phi3"), 1.0)
    verdict = oracle_tp2(cop)
    assert verdict.status == "fails"
    u1, u2, v1, v2 = verdict.witness
    assert u1 < u2 and v1 < v2
    cross = cop.density(u1, v1) * cop.density(u2, v2) - cop.density(
        u1, v2
    ) * cop.density(u2, v1)
    assert cross < 0.0


def test_oracle_pfd_value_for_quadratic_family():
    # E[g(U)g(V)] - E g(U) E g(V) = theta * (integral of g*phi')^2 = theta/36
    # for g(t) = t with the quadratic generator.
    cop = Copula(builtin("phi2"), 1.0)
    got = oracle_pfd(cop, lambda t: t, resolution=256)
    assert got == pytest.approx(1.0 / 36.0, abs=1e-6)


def test_oracle_pfd_matches_closed_form():
    g_list = (
        ("identity", lambda t: t, ()),
        ("square", lambda t: t * t, ()),
    )
    for name, n in (("phi1", None), ("phi2", None), ("phi3", None), ("phi5", 4)):
        gen = builtin(name, n)
        for theta in (0.0, 0.5, 1.0):
            cop = Copula(gen, theta)
            for _, g, brk in g_list:
                ref = pfd_closed_form(cop, g, breakpoints=brk)
                got = oracle_pfd(cop, g, resolution=256)
                assert got == pytest.approx(ref, abs=1e-6), (name, theta)
                assert ref >= -1e-15  # nonnegative covariance for theta >= 0


def test_pfd_closed_form_sharp_envelope_value():
    # integral of t * phi1'(t) = 1/8 - 3/8 = -1/4, squared -> 1/16
    cop = Copula(builtin("phi1"), 1.0)
    assert pfd_closed_form(cop, lambda t: t) == pytest.approx(1.0 / 16.0, abs=1e-14)


def test_pfd_closed_form_honors_extra_breakpoints():
    # a C^1 ramp with joins off the generator's own kink set
    lo, hi = 0.375, 0.625

    def smooth(t: float) -> float:
        if t <= lo:
            return 0.0
        if t >= hi:
            return 1.0
        s = (t - lo) / (hi - lo)
        return s * s * (3.0 - 2.0 * s)

    cop = Copula(builtin("phi1"), 1.0)
    with_brk = pfd_closed_form(cop, smooth, breakpoints=(lo, hi))
    against = oracle_pfd(cop, smooth, resolution=512)
    assert with_brk == pytest.approx(against, abs=1e-6)


def test_oracle_resolution_rules():
    cop = Copula(builtin("phi2"), 0.5)
    with pytest.raises(ValueError):
        oracle_pfd(cop, lambda t: t, resolution=8)


# ---------------------------------------------------------------------------
# One grid sample: array scans with the reads of the point-by-point scans


def _curvature_hole(x):
    return (0.2 < x) & (x < 0.3)


@pytest.mark.filterwarnings("error")
def test_profile_raises_the_first_error_in_read_order():
    # phi2 with phi' undefined at 1 and phi'' undefined on (0.2, 0.3)
    fgm = builtin("phi2")
    gen = Generator(
        phi=fgm.phi,
        phi_prime=with_hole(fgm.phi_prime, lambda x: x == 1.0),
        phi_second=with_hole(fgm.phi_second, _curvature_hole),
        label="holed",
    )
    # theta != 0: the symmetry scan, which runs first, reads only phi, and
    # the rti scan reads phi'(1) before the curvature scan runs
    with pytest.raises(EvaluationDomainError) as err:
        dependence_profile(gen, 0.5)
    assert err.value.x == 1.0
    # theta = 0 runs only the ordering scans, which read only phi and phi''
    with pytest.raises(EvaluationDomainError) as err:
        dependence_profile(gen, 0.0)
    assert err.value.x == 0.201


@pytest.mark.filterwarnings("error")
def test_profile_raises_where_only_phi_second_is_undefined():
    fgm = builtin("phi2")
    gen = dataclasses.replace(
        fgm,
        label="curvature-hole",
        phi_second=with_hole(fgm.phi_second, _curvature_hole),
    )
    for theta in (-1.0, 0.0, 0.5):
        with pytest.raises(EvaluationDomainError) as err:
            dependence_profile(gen, theta)
        assert err.value.x == 0.201


@pytest.mark.filterwarnings("error")
def test_profile_domain_probes():
    with pytest.raises(EvaluationDomainError, match=r"'1\.0/\(x-0\.001\)' at x=0\.001$"):
        dependence_profile(from_expression("x*(1-x)/4 + 0*(1/(x-0.001))"), 0.5)
    for theta in (0.0, 0.5):
        with pytest.raises(EvaluationDomainError) as err:
            dependence_profile(from_expression("x*(1-x)*sqrt(x)"), theta)
        assert err.value.x == 0.0
    # phi(1-0.9) is undefined, but the symmetry scan has both witnesses by then
    gen = from_expression("x*(1-x)*(2+x)/4 + 0*(1/(x-0.09999999999999998))")
    radial, joint = _symmetry(gen)
    assert radial.status == "fails" and joint.status == "fails"


@pytest.mark.filterwarnings("error")
def test_symmetry_scan_raises_at_a_hole_where_it_would_stop():
    # the scan reads phi(1-u) at node k before it compares there, so a hole
    # at the mirror of the node that completes its witnesses still raises
    base = "x*(1-x)*(2+x)/4"
    xs = uniform_grid(1001)
    on_grid = set(xs.tolist())
    k = next(k for k in range(2, 1000) if 1.0 - xs[k] not in on_grid)
    phi = from_expression(base).phi
    even = np.abs(phi(xs) - phi(1.0 - xs))
    tol = float(even[k - 1])  # the even identity first breaks at node k
    assert even[k] > tol and (even[:k] <= tol).all()
    hole = 1.0 - float(xs[k])  # read only as the mirror of node k
    probe = from_expression(f"{base} + 0*(1/(x-{hole!r}))")
    with pytest.raises(EvaluationDomainError) as err:
        _symmetry(probe, tol=tol)
    assert err.value.x == hole


@pytest.mark.filterwarnings("error")
def test_tail_monotonicity_counts_only_steps_beyond_tol():
    gen = builtin("phi2")
    xs = uniform_grid(1001)
    ratio = np.concatenate(([gen.phi_prime(0.0)], gen.phi(xs)[1:] / xs[1:]))
    steepest = float(-np.diff(ratio).min())  # phi(u)/u = 1 - u falls at every step
    at = dependence_profile(gen, 0.5, tol=steepest).verdicts["ltd"]
    below = dependence_profile(gen, 0.5, tol=float(np.nextafter(steepest, 0.0)))
    assert at.status == "holds" and at.note.startswith("phi(u)/u is constant")
    assert below.verdicts["ltd"].note.startswith("phi(u)/u is nonincreasing")


def _first_tp2_witness(d, xs, theta, tol=1e-12):
    """The point-by-point search: first (u1, u2) row-major, then (v1, v2)."""
    diffs = [d[i] - d[j] for i in range(len(d)) for j in range(i + 1, len(d))]
    lo, hi = min(diffs), max(diffs)
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            d1 = d[i] - d[j]
            if theta * d1 * lo < -tol or theta * d1 * hi < -tol:
                for l in range(len(d)):
                    for m in range(l + 1, len(d)):
                        if theta * d1 * (d[l] - d[m]) < -tol:
                            return (xs[i], xs[j], xs[l], xs[m])
    return None


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, n, theta", [("phi3", None, 1.0), ("phi2", None, -0.7),
                                            ("phi5", 4, -1.0), ("phi6", 3, -0.4)])
def test_oracle_tp2_witness_is_the_first_in_row_major_order(name, n, theta):
    cop = Copula(builtin(name, n), theta)
    xs = [(k + 0.5) / 101 for k in range(101)]
    xs = [np.nextafter(x, 1.0) if x in cop.gen.kinks else x for x in xs]
    d = [cop.gen.phi_prime(float(x)) for x in xs]
    verdict = oracle_tp2(cop)
    assert verdict.status == "fails"
    assert verdict.witness == _first_tp2_witness(d, xs, theta)
