"""Independent references for the benchmark's output checks.

Everything here is written from the definitions with ``math`` and ``numpy``
only; nothing is imported from ``copula_forge``, so a check built on these
functions cannot inherit a fault of the program it checks.

* ``SplitMix64``: the seeded stream the README of the library specifies,
  used to draw workload inputs and to regenerate the (u, w) levels of a
  ``sample`` run.
* ``builtin_ref`` / ``Template.ref``: phi, phi', phi'' of the six builtin
  families and of the valid-by-construction template, as numpy callables.
* ``integrals``: int phi and int |phi| over [0, 1] by a composite
  Gauss-Legendre rule split at the kinks of phi' and |phi|.
* ``kendall_tau`` and ``tau_se_bound`` for the sample checks.
* ``table1``: the paper's Table 1 constants for phi1-phi4, and
  ``phi5_integral`` for 1/4 - 1/(3 n^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 (Steele, Lea & Flood 2014) with 53-bit doubles in [0, 1)."""

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53

    def between(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.uniform()


Fn = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class PhiRef:
    """A generator as numpy callables.

    ``kinks`` are the interior points where phi' jumps (the program nudges a
    sampled u off them); ``roots`` are the interior sign changes of phi,
    where |phi| has a kink.
    """

    phi: Fn
    dphi: Fn
    d2phi: Fn
    kinks: tuple[float, ...] = ()
    roots: tuple[float, ...] = ()


def _phi5(n: int) -> PhiRef:
    # phi5 is the antiderivative of clamp(n(1/2 - x), -1, 1) from 0.
    if n == 1:
        # the cap covers [0, 1]: slope 1/2 - x, phi = x(1-x)/2
        return PhiRef(
            phi=lambda x: 0.5 * x * (1.0 - x),
            dphi=lambda x: 0.5 - x,
            d2phi=lambda x: np.full_like(x, -1.0),
        )
    a, b = 0.5 - 1.0 / n, 0.5 + 1.0 / n
    top = 0.5 - 0.5 / n  # phi(1/2): a plus the cap's rise n/2 * (1/n)^2

    def phi(x):
        cap = top - 0.5 * n * (x - 0.5) ** 2
        return np.where(x <= a, x, np.where(x >= b, 1.0 - x, cap))

    return PhiRef(
        phi=phi,
        dphi=lambda x: np.clip(n * (0.5 - x), -1.0, 1.0),
        d2phi=lambda x: np.where((x > a) & (x < b), -float(n), 0.0),
        kinks=tuple(k for k in (a, b) if 0.0 < k < 1.0),
    )


def _phi6(n: int) -> PhiRef:
    def parts(x):
        s = x**n + (1.0 - x) ** n
        p = x ** (n - 1) - (1.0 - x) ** (n - 1)
        q = x ** (n - 2) + (1.0 - x) ** (n - 2)
        return s, p, q

    def dphi(x):
        s, p, _ = parts(x)
        return -(s ** (1.0 / n - 1.0)) * p

    def d2phi(x):
        s, p, q = parts(x)
        return (n - 1) * (s ** (1.0 / n - 2.0) * p * p - s ** (1.0 / n - 1.0) * q)

    return PhiRef(
        phi=lambda x: 1.0 - (x**n + (1.0 - x) ** n) ** (1.0 / n),
        dphi=dphi,
        d2phi=d2phi,
    )


def builtin_ref(name: str, n: int | None = None) -> PhiRef:
    """The builtin family ``name`` (phi5 and phi6 take the order n)."""
    pi = math.pi
    if name == "phi1":
        return PhiRef(
            phi=lambda x: np.minimum(x, 1.0 - x),
            dphi=lambda x: np.where(x <= 0.5, 1.0, -1.0),
            d2phi=lambda x: np.zeros_like(x),
            kinks=(0.5,),
        )
    if name == "phi2":
        return PhiRef(
            phi=lambda x: x * (1.0 - x),
            dphi=lambda x: 1.0 - 2.0 * x,
            d2phi=lambda x: np.full_like(x, -2.0),
        )
    if name == "phi3":
        return PhiRef(
            phi=lambda x: x * (1.0 - x) * (1.0 - 2.0 * x),
            dphi=lambda x: 1.0 - 6.0 * x + 6.0 * x * x,
            d2phi=lambda x: 12.0 * x - 6.0,
            roots=(0.5,),
        )
    if name == "phi4":
        return PhiRef(
            phi=lambda x: np.sin(pi * x) / pi,
            dphi=lambda x: np.cos(pi * x),
            d2phi=lambda x: -pi * np.sin(pi * x),
        )
    if name == "phi5":
        return _phi5(n)
    if name == "phi6":
        return _phi6(n)
    raise ValueError(f"unknown builtin {name!r}")


# ---------------------------------------------------------------------------
# The valid-by-construction template
#
#     s * x*(1-x) * (c0 + c1*x + c2*x^2 + c3*sin(pi*x)),   c_i uniform in [-1, 1]
#
# x*(1-x) pins both endpoints to zero and s scales the peak of |phi'| on
# 2001 grid points to 0.8, far inside the unit slope bound.


def _template_parts(c):
    c0, c1, c2, c3 = c
    pi = math.pi

    def q(x):
        return c0 + c1 * x + c2 * x * x + c3 * np.sin(pi * x)

    def dq(x):
        return c1 + 2.0 * c2 * x + c3 * pi * np.cos(pi * x)

    def d2q(x):
        return 2.0 * c2 - c3 * pi * pi * np.sin(pi * x)

    return q, dq, d2q


def template_body_slope_peak(c) -> float:
    q, dq, _ = _template_parts(c)
    x = np.arange(2001) / 2000.0
    return float(np.max(np.abs((1.0 - 2.0 * x) * q(x) + x * (1.0 - x) * dq(x))))


@dataclass(frozen=True)
class Template:
    coeffs: tuple[float, float, float, float]
    scale: float

    @property
    def text(self) -> str:
        c0, c1, c2, c3 = self.coeffs
        body = f"x*(1-x)*({c0!r} + {c1!r}*x + {c2!r}*x*x + {c3!r}*sin(pi*x))"
        return f"{self.scale!r}*{body}"

    def ref(self) -> PhiRef:
        q, dq, d2q = _template_parts(self.coeffs)
        s = self.scale
        return PhiRef(
            phi=lambda x: s * (x * (1.0 - x) * q(x)),
            dphi=lambda x: s * ((1.0 - 2.0 * x) * q(x) + x * (1.0 - x) * dq(x)),
            d2phi=lambda x: s
            * (-2.0 * q(x) + 2.0 * (1.0 - 2.0 * x) * dq(x) + x * (1.0 - x) * d2q(x)),
            roots=_sign_changes(q),
        )


def draw_template(rng: SplitMix64) -> Template:
    c = tuple(2.0 * rng.uniform() - 1.0 for _ in range(4))
    return Template(coeffs=c, scale=0.8 / max(template_body_slope_peak(c), 1e-6))


def _sign_changes(f: Fn, points: int = 4001) -> tuple[float, ...]:
    """Interior roots where f changes sign, bracketed on a grid and bisected."""
    x = np.linspace(0.0, 1.0, points)
    y = f(x)
    roots = []
    for i in np.nonzero(np.sign(y[:-1]) * np.sign(y[1:]) < 0)[0]:
        lo, hi = float(x[i]), float(x[i + 1])
        flo = float(f(np.array(lo)))
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            fm = float(f(np.array(mid)))
            if (fm < 0.0) == (flo < 0.0):
                lo, flo = mid, fm
            else:
                hi = mid
            if hi - lo <= 4e-16:
                break
        roots.append(0.5 * (lo + hi))
    return tuple(roots)


# ---------------------------------------------------------------------------
# Integrals over [0, 1]

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(48)


def gauss(f: Fn, cuts: tuple[float, ...] = (), panels: int = 8) -> float:
    """Composite 48-point Gauss-Legendre rule on [0, 1], split at ``cuts``."""
    edges = sorted({0.0, 1.0, *(k for k in cuts if 0.0 < k < 1.0)})
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        for k in range(panels):
            lo = a + (b - a) * k / panels
            hi = a + (b - a) * (k + 1) / panels
            half = 0.5 * (hi - lo)
            total += half * float(np.dot(_GAUSS_W, f(lo + half * (_GAUSS_X + 1.0))))
    return total


def integrals(ref: PhiRef) -> tuple[float, float]:
    """(int phi, int |phi|) over [0, 1]."""
    cuts = ref.kinks + ref.roots
    return gauss(ref.phi, cuts), gauss(lambda x: np.abs(ref.phi(x)), cuts)


def measures_from_integrals(theta: float, plain: float, magnitude: float) -> dict:
    """sigma = 12|theta| (int |phi|)^2, tau = 8 theta (int phi)^2, rho = 12 theta (int phi)^2."""
    return {
        "sigma": 12.0 * abs(theta) * magnitude * magnitude,
        "tau": 8.0 * theta * plain * plain,
        "rho": 12.0 * theta * plain * plain,
    }


def table1(name: str, theta: float) -> dict:
    """The paper's Table 1: sigma, tau, rho of phi1-phi4 as functions of theta."""
    a = abs(theta)
    pi4 = math.pi**4
    rows = {
        "phi1": (0.75 * a, 0.5 * theta, 0.75 * theta),
        "phi2": (a / 3.0, 2.0 * theta / 9.0, theta / 3.0),
        "phi3": (3.0 * a / 64.0, 0.0, 0.0),
        "phi4": (48.0 * a / pi4, 32.0 * theta / pi4, 48.0 * theta / pi4),
    }
    sigma, tau, rho = rows[name]
    return {"sigma": sigma, "tau": tau, "rho": rho}


def phi5_integral(n: int) -> float:
    """int phi5 = 1/4 - 1/(3 n^2) up to sign (n = 1 gives -1/12 for +1/12;
    every measure uses the square), so tau = 8 theta (1/4 - 1/(3n^2))^2."""
    return 0.25 - 1.0 / (3.0 * n * n)


def reference_measures(name: str, n: int | None, theta: float, ref: PhiRef) -> dict:
    """sigma/tau/rho of a generator from the strongest available reference."""
    if name in ("phi1", "phi2", "phi3", "phi4"):
        return table1(name, theta)
    if name == "phi5":
        base = phi5_integral(n)
        return measures_from_integrals(theta, base, base)
    return measures_from_integrals(theta, *integrals(ref))


def kendall_tau(u: np.ndarray, v: np.ndarray) -> float:
    """Sample Kendall tau-a by enumerating all pairs; ties contribute zero."""
    n = len(u)
    s = np.sign(u[:, None] - u[None, :]) * np.sign(v[:, None] - v[None, :])
    return float(s.sum()) / (n * (n - 1))


def tau_se_bound(tau: float, n: int) -> float:
    """Hoeffding's bound on the standard error of tau-a: sqrt(2(1 - tau^2)/n).

    Kendall's tau-a is a degree-2 U-statistic with a kernel in {-1, 1}, so
    its variance is at most 2*zeta_2/n with zeta_2 = 1 - tau^2.  Checking
    against the bound rather than an estimate keeps a correct sampler from
    failing by chance over thousands of operations.
    """
    return math.sqrt(2.0 * (1.0 - tau * tau) / n)
