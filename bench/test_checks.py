"""Each output check of the benchmark accepts the program's real output and
flags a deliberately wrong one.

    python3 -m pytest bench/test_checks.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import refs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from copula_forge import cli  # noqa: E402


def cli_output(argv):
    rc, out, err, _, raised = run.call(cli.main, argv)
    assert raised is None
    return rc, out, err


def test_splitmix64_matches_the_published_stream():
    # first outputs of SplitMix64 seeded with 0 (Vigna's reference code)
    stream = refs.SplitMix64(0)
    assert [stream.next_u64() for _ in range(2)] == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4]


def test_references_agree_with_table1():
    for name in ("phi1", "phi2", "phi3", "phi4"):
        got = refs.measures_from_integrals(0.7, *refs.integrals(refs.builtin_ref(name)))
        for key, value in refs.table1(name, 0.7).items():
            assert got[key] == pytest.approx(value, abs=1e-13)
    plain, magnitude = refs.integrals(refs.builtin_ref("phi5", 3))
    assert plain == pytest.approx(refs.phi5_integral(3), abs=1e-14) == magnitude


@pytest.mark.parametrize("name, n", [("phi1", None), ("phi2", None), ("phi3", None),
                                     ("phi4", None), ("phi5", 1), ("phi5", 3), ("phi6", 4)])
def test_reference_derivatives_match_differences(name, n):
    ref = refs.builtin_ref(name, n)
    x = np.linspace(0.013, 0.987, 75)
    x = x[np.min(np.abs(x[:, None] - np.array([*ref.kinks, 2.0])), axis=1) > 1e-3]
    h = 1e-6
    assert np.allclose((ref.phi(x + h) - ref.phi(x - h)) / (2 * h), ref.dphi(x), atol=1e-7)
    assert np.allclose((ref.dphi(x + h) - ref.dphi(x - h)) / (2 * h), ref.d2phi(x), atol=1e-5)
    assert ref.phi(np.array([0.0, 1.0])) == pytest.approx([0.0, 0.0], abs=1e-15)


def test_tau_off_by_1e_3_is_flagged():
    theta = 0.6
    ref = refs.reference_measures("phi2", None, theta, refs.builtin_ref("phi2"))
    argv = ["measures", "--phi", "phi2", "--theta", repr(theta), "--method", "both",
            "--resolution", "64", "--format", "json"]
    rc, out, err = cli_output(argv)
    check = workloads.check_measures(ref, 64)
    assert check(rc, out, err) is None
    doc = json.loads(out)
    for route in ("closed_form", "quadrature"):
        wrong = json.loads(out)
        wrong[route]["tau"] += 1e-3
        assert "tau" in check(rc, json.dumps(wrong), err)
    doc["closed_form"]["rho"] = 1.5 * doc["closed_form"]["tau"] + 1e-15
    assert check(rc, json.dumps(doc), err) is not None


def test_flipped_pqd_verdict_is_flagged():
    theta = 0.8
    argv = ["check", "--phi", "phi3", "--theta", repr(theta), "--oracle",
            "--resolution", "64", "--format", "json"]
    rc, out, err = cli_output(argv)
    check = workloads.check_property_report(refs.builtin_ref("phi3"), theta)
    assert check(rc, out, err) is None
    doc = json.loads(out)
    assert doc["report"]["verdicts"]["pqd"]["status"] == "fails"
    doc["report"]["verdicts"]["pqd"]["status"] = "holds"
    assert "pqd" in check(rc, json.dumps(doc), err)
    doc = json.loads(out)
    doc["oracles"]["tp2"]["agrees"] = False
    assert "tp2" in check(rc, json.dumps(doc), err)


def test_sample_pair_with_residual_1e_6_is_flagged():
    theta, n, seed = 0.9, 50, 12345
    ref = refs.builtin_ref("phi4")
    tau = refs.table1("phi4", theta)["tau"]
    argv = ["sample", "--phi", "phi4", "--theta", repr(theta), "--n", str(n), "--seed", str(seed)]
    rc, out, err = cli_output(argv)
    check = workloads.check_sample(ref, theta, n, seed, tau)
    assert check(rc, out, err) is None
    pairs = workloads.parse_csv(out)
    u, v = pairs[7]
    density = 1.0 + theta * float(ref.dphi(np.array(u)) * ref.dphi(np.array(v)))
    pairs[7, 1] = v + 1e-6 / density
    wrong = "u,v\n" + "".join(f"{a:.17g},{b:.17g}\n" for a, b in pairs)
    assert "residual" in check(rc, wrong, err)


def test_sample_check_regenerates_u_from_the_seed():
    theta, n, seed = 0.5, 20, 7
    ref = refs.builtin_ref("phi2")
    rc, out, err = cli_output(["sample", "--phi", "phi2", "--theta", repr(theta),
                               "--n", str(n), "--seed", str(seed + 1)])
    assert "seeded stream" in workloads.check_sample(ref, theta, n, seed, 2 * theta / 9)(rc, out, err)


def test_validate_pass_on_an_invalid_generator_is_flagged():
    rc, out, err = cli_output(["validate", "--phi-expr", "0.8*sin(pi*x)", "--format", "json"])
    check = workloads.check_validate(False)
    assert check(rc, out, err) is None
    doc = json.loads(out)
    doc["overall"] = "pass"
    for entry in doc["checks"]:
        entry["verdict"], entry["witness"] = "pass", None
    assert check(0, json.dumps(doc), "") is not None
    assert check(1, json.dumps(doc), "") is not None


def test_templates_the_program_does_not_resolve_are_redrawn():
    # phi'' > 0 only on [0, 0.005): the 101-point tp2 oracle misses it
    tp2 = refs.Template((0.1664661247906889, 0.8408464290584039, -0.8347044903759131,
                         -0.20572468446970626), 4.633954708525893)
    # a root of phi at 0.00052: adaptive Simpson misses the kink of |phi|
    simpson = refs.Template((0.0006007193340713535, -0.27576807764627054, 0.38075001499417427,
                             -0.2826378482649883), 2.9729678303347926)
    for template in (tp2, simpson):
        assert not workloads.is_resolved(template.ref())
    rng = refs.SplitMix64(5)
    assert all(workloads.is_resolved(workloads.resolved_template(rng).ref()) for _ in range(20))


def test_a_traceback_counts_as_a_wrong_answer():
    def crashing(argv):
        raise RecursionError("maximum recursion depth exceeded")

    op = workloads.Op(("validate",), workloads.check_nesting, known_fault=True)
    rc, out, err, _, raised = run.call(crashing, op.argv)
    assert "RecursionError" in run.verdict(op, rc, out, err, raised)
