"""The three workloads: operations drawn from a seed, and their output checks.

A workload is a function ``(rng, r) -> list[Op]`` that draws round ``r`` of
operations from the stream ``rng``.  Every round of a workload has the same
make-up: the same operation kinds, in the same numbers, with fresh theta,
seeds, orders and expression coefficients.  So every run attempts whole
rounds of the same operations, and the two known-fault operations of
``classify`` are the same share of every run.

Each ``Op`` carries the argv handed to ``copula_forge.cli.main`` and a
check that reads the exit code, stdout and stderr and returns ``None`` when
the output is right or a one-line reason when it is wrong.  The checks
compare against ``refs``, which imports nothing from ``copula_forge``, or
against a property the method must have; none compares against a saved
copy of an earlier output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

import refs

Check = Callable[[int, str, str], "str | None"]


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    check: Check
    known_fault: bool = False


# ---------------------------------------------------------------------------
# Tolerances

CLOSED_TOL = 1e-10

# Definitional quadrature against the references, by resolution.  The worst
# generators are phi5 with kinks at 1/2 +- 1/n off the 1/16 panel edges and
# templates whose |phi| kinks at a root: over phi5 n = 1..8 the largest
# error seen was 6.0e-5 at 64 nodes, 1.4e-5 at 96 and 8.1e-6 at 128; smooth
# generators land within 3e-9.  Each tolerance leaves a factor of 8 or more.
QUAD_TOL = {64: 5e-4, 96: 2e-4, 128: 1e-4}

# sample bisects v + theta*phi'(u)*phi(v) = w to 1e-12.  The reference
# re-evaluates the left side in its own arithmetic, which can round
# differently from the program's by a few ulp of 1.
RESIDUAL_TOL = 1e-12 + 8 * 2.0**-52

SCAN_TOL = 1e-9  # the CLI's default --tol for check and validate
SCAN_GRID = 1001  # the CLI's default --grid for check

# The pfd oracle of ``check`` integrates on 1/16-aligned Gauss panels and
# meets its 1e-6 agreement with the closed form only when phi' has no kink
# inside a panel; phi5 keeps its kinks on panel edges for these orders.
ALIGNED_PHI5_ORDERS = (1, 2, 4, 8, 16)


def _theta(rng: refs.SplitMix64, positive: bool = False) -> float:
    """|theta| in [0.1, 1], so no oracle sits at the independence copula."""
    magnitude = rng.between(0.1, 1.0)
    if positive or rng.uniform() < 0.5:
        return magnitude
    return -magnitude


def _fail_unless(rc: int, expected: int, err: str) -> str | None:
    if rc != expected:
        return f"exit {rc}, expected {expected}: {err.strip()[:200]}"
    return None


# ---------------------------------------------------------------------------
# quad: measures --method both, and converge


def _measure_errors(got: dict, ref: dict, tol: float, label: str) -> str | None:
    for key in ("sigma", "tau", "rho"):
        if not abs(got[key] - ref[key]) <= tol:
            return f"{label} {key} = {got[key]!r}, reference {ref[key]!r} (tol {tol:g})"
    if not abs(got["rho"] - 1.5 * got["tau"]) <= tol:
        return f"{label} rho != 1.5 tau"
    if not (got["sigma"] <= 0.75 + tol and abs(got["tau"]) <= 0.5 + tol):
        return f"{label} outside sigma <= 3/4, |tau| <= 1/2"
    return None


def check_measures(ref: dict, resolution: int) -> Check:
    def check(rc: int, out: str, err: str) -> str | None:
        bad = _fail_unless(rc, 0, err)
        if bad:
            return bad
        doc = json.loads(out)
        closed, quad = doc["closed_form"], doc["quadrature"]
        if closed["rho"] != 1.5 * closed["tau"]:
            return "closed_form rho != 1.5 tau exactly"
        return _measure_errors(closed, ref, CLOSED_TOL, "closed_form") or _measure_errors(
            quad, ref, QUAD_TOL[resolution], "quadrature"
        )

    return check


def check_converge(theta: float, n_max: int, resolution: int) -> Check:
    tol = QUAD_TOL[resolution]
    tau6 = {
        n: refs.measures_from_integrals(theta, *refs.integrals(refs.builtin_ref("phi6", n)))["tau"]
        for n in range(2, n_max + 1)
    }

    def check(rc: int, out: str, err: str) -> str | None:
        bad = _fail_unless(rc, 0, err)
        if bad:
            return bad
        rows = json.loads(out)["rows"]
        if [row["n"] for row in rows] != list(range(1, n_max + 1)):
            return "converge rows do not cover n = 1..n_max"
        for row in rows:
            n = row["n"]
            formula = 8.0 * theta * refs.phi5_integral(n) ** 2
            if not abs(row["tau5_formula"] - formula) <= 1e-12:
                return f"tau5_formula at n={n} is {row['tau5_formula']!r}, expected {formula!r}"
            if not abs(row["tau5_quadrature"] - formula) <= tol:
                return f"tau5_quadrature at n={n} off the formula by more than {tol:g}"
            if n == 1:
                if row["tau6_quadrature"] is not None:
                    return "tau6 reported at n=1"
            elif not abs(row["tau6_quadrature"] - tau6[n]) <= tol:
                return f"tau6_quadrature at n={n} off the reference by more than {tol:g}"
        return None

    return check


def _builtin_args(name: str, n: int | None, flag: str = "--n") -> list[str]:
    return ["--phi", name] + ([flag, str(n)] if n is not None else [])


PHI5_ORDERS = tuple(range(1, 9))
PHI6_ORDERS = tuple(range(2, 9))


def _cycle(orders: tuple[int, ...], k: int) -> int:
    return orders[k % len(orders)]


def _builtins(r: int) -> list[tuple[str, int | None]]:
    """phi1-phi4 once each, then two phi5 and two phi6 orders.

    Orders cycle with the round index rather than the seed, so runs of one
    length have the same make-up whatever the seed.
    """
    return [("phi1", None), ("phi2", None), ("phi3", None), ("phi4", None),
            ("phi5", _cycle(PHI5_ORDERS, 2 * r)), ("phi5", _cycle(PHI5_ORDERS, 2 * r + 1)),
            ("phi6", _cycle(PHI6_ORDERS, 2 * r)), ("phi6", _cycle(PHI6_ORDERS, 2 * r + 1))]


# Some drawn templates have a sign of phi or of phi'' that holds only on a
# stretch narrower than the program's coarser grids resolve.  The pqd
# oracle (201 nodes) and the tp2 oracle (101 cell midpoints) then disagree
# with the 1001-point phi scan, and the adaptive Simpson rule behind the
# closed forms misses a kink of |phi| next to an endpoint, by 1e-10 against
# its 1e-12 target.  Both depend on the drawn coefficients, so such
# templates are redrawn wherever they would be checked for these.
MIN_SIGN_STRETCH = 0.02
_FINE = np.linspace(0.0, 1.0, 20001)


def _sign_stretches_resolved(values: np.ndarray, xs: np.ndarray) -> bool:
    signs = np.sign(np.where(np.abs(values) <= SCAN_TOL, 0.0, values))
    signs = signs[signs != 0.0]
    edges = np.concatenate(([0.0], xs[np.abs(values) > SCAN_TOL][1:][np.diff(signs) != 0], [1.0]))
    return bool(np.all(np.diff(edges) >= MIN_SIGN_STRETCH))


def is_resolved(ref: refs.PhiRef) -> bool:
    """Every sign stretch of phi and of phi'' is at least MIN_SIGN_STRETCH wide."""
    return _sign_stretches_resolved(ref.phi(_FINE)[1:-1], _FINE[1:-1]) and (
        _sign_stretches_resolved(ref.d2phi(_FINE), _FINE)
    )


def resolved_template(rng: refs.SplitMix64, sign_changes: bool | None = None) -> refs.Template:
    """Draw templates until one is resolved and, unless ``sign_changes`` is
    None, its phi does (or does not) change sign on (0, 1)."""
    while True:
        template = refs.draw_template(rng)
        ref = template.ref()
        if (sign_changes is None or bool(ref.roots) == sign_changes) and is_resolved(ref):
            return template


def quad_round(rng: refs.SplitMix64, r: int) -> list[Op]:
    ops = []
    for i, (name, n) in enumerate(_builtins(r)):
        theta = _theta(rng)
        resolution = 128 if i % 2 == 0 else 96
        ref = refs.reference_measures(name, n, theta, refs.builtin_ref(name, n))
        argv = ["measures", *_builtin_args(name, n), "--theta", repr(theta),
                "--method", "both", "--resolution", str(resolution), "--format", "json"]
        ops.append(Op(tuple(argv), check_measures(ref, resolution)))
    for n_max in (2, 3):
        theta = _theta(rng)
        argv = ["converge", "--theta", repr(theta), "--n-max", str(n_max),
                "--resolution", "64", "--format", "json"]
        ops.append(Op(tuple(argv), check_converge(theta, n_max, 64)))
    for _ in range(3):
        template = resolved_template(rng)
        theta = _theta(rng)
        ref = refs.measures_from_integrals(theta, *refs.integrals(template.ref()))
        argv = ["measures", "--phi-expr", template.text, "--theta", repr(theta),
                "--method", "both", "--resolution", "64", "--format", "json"]
        ops.append(Op(tuple(argv), check_measures(ref, 64)))
    return ops


# ---------------------------------------------------------------------------
# sample: CSV draws


def parse_csv(out: str) -> np.ndarray:
    lines = out.splitlines()
    if not lines or lines[0] != "u,v":
        raise ValueError("missing u,v header")
    return np.array([[float(f) for f in line.split(",")] for line in lines[1:]])


def check_sample(ref: refs.PhiRef, theta: float, n: int, seed: int, tau: float) -> Check:
    stream = refs.SplitMix64(seed)
    levels = np.array([[stream.uniform(), stream.uniform()] for _ in range(n)])
    u_drawn, w = levels[:, 0], levels[:, 1]
    # a u drawn exactly on a kink of phi' is moved one ulp toward 1
    on_kink = np.isin(u_drawn, ref.kinks)
    u_expected = np.where(on_kink, np.nextafter(u_drawn, 1.0), u_drawn)
    tau_tol = 4.0 * refs.tau_se_bound(tau, n)

    def check(rc: int, out: str, err: str) -> str | None:
        bad = _fail_unless(rc, 0, err)
        if bad:
            return bad
        pairs = parse_csv(out)
        if pairs.shape != (n, 2):
            return f"expected {n} pairs, got shape {pairs.shape}"
        u, v = pairs[:, 0], pairs[:, 1]
        if not np.all((pairs >= 0.0) & (pairs <= 1.0)):
            return "a pair lies outside [0, 1]^2"
        if not np.array_equal(u, u_expected):
            i = int(np.argmax(u != u_expected))
            return f"pair {i}: u = {u[i]!r}, the seeded stream gives {u_expected[i]!r}"
        residual = np.abs(v + theta * ref.dphi(u) * ref.phi(v) - w)
        interior = (v > 0.0) & (v < 1.0)
        if np.any(interior & ~(residual <= RESIDUAL_TOL)):
            i = int(np.argmax(interior & ~(residual <= RESIDUAL_TOL)))
            return f"pair {i}: conditional-cdf residual {residual[i]:.3g} > 1e-12"
        empirical = refs.kendall_tau(u, v)
        if not abs(empirical - tau) <= tau_tol:
            return f"empirical tau {empirical:.4f} is more than 4 SE from {tau:.4f}"
        return None

    return check


def _sample_op(rng, gen_args: list[str], ref: refs.PhiRef, tau_of, n: int) -> Op:
    theta = _theta(rng)
    seed = rng.next_u64()
    tau = tau_of(theta)
    argv = ["sample", *gen_args, "--theta", repr(theta), "--n", str(n), "--seed", str(seed)]
    return Op(tuple(argv), check_sample(ref, theta, n, seed, tau))


def sample_round(rng: refs.SplitMix64, r: int) -> list[Op]:
    ops = []
    for i, (name, n) in enumerate(_builtins(r)):
        ref = refs.builtin_ref(name, n)
        tau_of = lambda theta, name=name, n=n, ref=ref: refs.reference_measures(
            name, n, theta, ref
        )["tau"]
        pairs = 250 + 10 * ((r + i) % 6)
        ops.append(_sample_op(rng, _builtin_args(name, n, "--gen-n"), ref, tau_of, pairs))
    for i in range(3):
        template = refs.draw_template(rng)
        ref = template.ref()
        plain = refs.integrals(ref)[0]
        pairs = 150 + 10 * ((r + i) % 4)
        ops.append(
            _sample_op(rng, ["--phi-expr", template.text], ref,
                       lambda theta: 8.0 * theta * plain * plain, pairs)
        )
    return ops


# ---------------------------------------------------------------------------
# classify: check --oracle and validate


def _grid(points: int) -> np.ndarray:
    xs = np.arange(points) / (points - 1)
    xs[-1] = 1.0
    return xs


def derived_verdicts(ref: refs.PhiRef, theta: float, grid: int = SCAN_GRID) -> dict:
    """pqd, radial and joint symmetry read off phi on the check grid.

    pqd holds iff phi keeps one sign; joint symmetry iff phi(u) = -phi(1-u);
    radial symmetry iff phi(u) = phi(1-u) or phi(u) = -phi(1-u).  theta = 0
    is the independence copula, where all three hold.
    """
    if theta == 0.0:
        return {"pqd": "holds", "radial_symmetry": "holds", "joint_symmetry": "holds"}
    xs = _grid(grid)
    phi, mirrored = ref.phi(xs), ref.phi(1.0 - xs)
    one_sign = not (np.any(phi > SCAN_TOL) and np.any(phi < -SCAN_TOL))
    odd = bool(np.all(np.abs(phi + mirrored) <= SCAN_TOL))
    even = bool(np.all(np.abs(phi - mirrored) <= SCAN_TOL))
    status = lambda ok: "holds" if ok else "fails"
    return {
        "pqd": status(one_sign),
        "radial_symmetry": status(even or odd),
        "joint_symmetry": status(odd),
    }


def check_property_report(ref: refs.PhiRef, theta: float) -> Check:
    expected = derived_verdicts(ref, theta)
    comparable = theta > 0.0

    def check(rc: int, out: str, err: str) -> str | None:
        bad = _fail_unless(rc, 0, err)
        if bad:
            return bad
        doc = json.loads(out)
        verdicts = doc["report"]["verdicts"]
        for key, status in expected.items():
            if verdicts[key]["status"] != status:
                return f"{key} is {verdicts[key]['status']}, phi says {status}"
        oracles = doc["oracles"]
        for key in ("pqd", "tp2"):
            agrees = oracles[key]["agrees"]
            if agrees is not (True if comparable else None):
                return f"oracle {key} agrees = {agrees!r} at theta {theta!r}"
        if oracles["pfd"]["agrees"] is not True:
            return f"oracle pfd differs from its closed form by {oracles['pfd']['difference']:.3g}"
        return None

    return check


def check_validate(valid: bool) -> Check:
    def check(rc: int, out: str, err: str) -> str | None:
        bad = _fail_unless(rc, 0 if valid else 1, err)
        if bad:
            return bad
        overall = json.loads(out)["overall"]
        if overall != ("pass" if valid else "fail"):
            return f"validate says {overall} on a generator that is {'valid' if valid else 'invalid'}"
        return None

    return check


def check_refused(rc: int, out: str, err: str) -> str | None:
    """A copula on an invalid generator is refused with a validation error."""
    bad = _fail_unless(rc, 1, err)
    if bad:
        return bad
    kind = json.loads(err)["error"]["kind"]
    return None if kind == "validation" else f"refused with kind {kind!r}, expected validation"


def check_nesting(rc: int, out: str, err: str) -> str | None:
    """A deep but valid expression passes, or is refused with a message."""
    if rc == 0:
        return check_validate(True)(rc, out, err)
    if rc == 2 and err.strip():
        return None
    return f"exit {rc} without a message"


# A generator that matches x*(1-x)/4 in value and slope at every node of the
# 4097-point validation grid, while its slope reaches 2.82 between nodes.
ALIASING_EXPR = "x*(1-x)/4 + 0.0001*(1-cos(8192*pi*x))"
NESTED_EXPR = "(" * 200 + "x*(1-x)" + ")" * 200


def _invalid_expr(rng: refs.SplitMix64, family: int) -> str:
    """Invalid by construction: |phi'(0)| = a*pi > 1, or b > 1."""
    if family == 0:
        return f"{rng.between(0.5, 1.0)!r}*sin(pi*x)"
    return f"{rng.between(1.2, 2.0)!r}*x*(1-x)"


def classify_round(rng: refs.SplitMix64, r: int) -> list[Op]:
    # The two known-fault operations vary only --tol with the round, so
    # their argv never repeats and never depends on the seed.
    fault_tol = repr(1e-9 * (1.0 + r / 4096.0))
    ops = [
        Op(("validate", "--phi-expr", NESTED_EXPR, "--tol", fault_tol, "--format", "json"),
           check_nesting, known_fault=True),
        Op(("validate", "--phi-expr", ALIASING_EXPR, "--tol", fault_tol, "--format", "json"),
           check_validate(False), known_fault=True),
    ]
    name, n = _builtins(r)[r % 8]
    argv = ["validate", *_builtin_args(name, n), "--tol", repr(rng.between(1e-10, 1e-9)),
            "--format", "json"]
    ops.append(Op(tuple(argv), check_validate(True)))
    argv = ["validate", "--phi-expr", _invalid_expr(rng, 0), "--format", "json"]
    ops.append(Op(tuple(argv), check_validate(False)))
    argv = ["check", "--phi-expr", _invalid_expr(rng, 1), "--theta", repr(_theta(rng)),
            "--oracle", "--format", "json"]
    ops.append(Op(tuple(argv), check_refused))
    # theta > 0 makes every oracle comparable and runs the pqd oracle over
    # its whole grid; one more check at theta < 0 covers the mirrored reading
    checks = [("phi1", None, 1.0), ("phi2", None, 1.0), ("phi3", None, 1.0), ("phi4", None, 1.0),
              ("phi5", _cycle(ALIGNED_PHI5_ORDERS, r), 1.0), ("phi6", _cycle(PHI6_ORDERS, r + 3), 1.0),
              (("phi1", "phi2", "phi4")[r % 3], None, -1.0)]
    for name, n, sign in checks:
        theta = sign * rng.between(0.1, 1.0)
        argv = ["check", *_builtin_args(name, n), "--theta", repr(theta), "--oracle",
                "--resolution", "128", "--format", "json"]
        ops.append(Op(tuple(argv), check_property_report(refs.builtin_ref(name, n), theta)))
    template = refs.draw_template(rng)
    argv = ["validate", "--phi-expr", template.text, "--format", "json"]
    ops.append(Op(tuple(argv), check_validate(True)))
    for sign_changes, positive in ((True, False), (False, True), (False, True), (False, True)):
        template = resolved_template(rng, sign_changes)
        theta = _theta(rng, positive=positive)
        argv = ["check", "--phi-expr", template.text, "--theta", repr(theta), "--oracle",
                "--resolution", "64", "--format", "json"]
        ops.append(Op(tuple(argv), check_property_report(template.ref(), theta)))
    return ops


WORKLOADS = {"quad": quad_round, "sample": sample_round, "classify": classify_round}
