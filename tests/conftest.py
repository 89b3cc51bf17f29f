"""Shared helpers for the test suite."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from copula_forge.exprlang import EvaluationDomainError, Var, differentiate, evaluate_array, parse
from copula_forge.generator import Generator, from_expression
from copula_forge.numerics import RandomStream


def random_valid_expression_generators(count: int, seed: int = 2024) -> list[Generator]:
    """Seeded expression-backed generators that are valid by construction.

    Template: s * x*(1-x) * (c0 + c1*x + c2*x^2 + c3*sin(pi*x)).  The
    x*(1-x) factor pins both endpoints to zero; the scale s caps the grid
    maximum of |phi'| at 0.8, far inside the unit slope bound (the template
    is smooth, so between-node excursions stay below ~1e-3).  The peak slope
    is read in one array pass over the 2001 nodes k/2000, and each list is
    built once per session.
    """
    return list(_seeded_generators(count, seed))


@lru_cache(maxsize=None)
def _seeded_generators(count: int, seed: int) -> tuple[Generator, ...]:
    stream = RandomStream(seed)
    nodes = np.arange(2001) / 2000.0
    out: list[Generator] = []
    while len(out) < count:
        c = [2.0 * stream.next_float() - 1.0 for _ in range(4)]
        body = f"x*(1-x)*({c[0]!r} + {c[1]!r}*x + {c[2]!r}*x*x + {c[3]!r}*sin(pi*x))"
        slope = differentiate(parse(body))
        peak = float(np.abs(evaluate_array(slope, nodes)).max())
        scale = 0.8 / max(peak, 1e-6)
        out.append(from_expression(f"{scale!r}*{body}"))
    return tuple(out)


def with_hole(fn, hole):
    """The form fn, undefined wherever hole(x) holds.

    A float in the hole raises EvaluationDomainError; an array gets NaN
    there.  hole must accept a float and an array, as fn does.
    """

    def form(x):
        if isinstance(x, np.ndarray):
            return np.where(hole(x), np.nan, fn(x))
        if hole(x):
            raise EvaluationDomainError("test hole", Var(), x)
        return fn(x)

    return form


def brute_force_tau(points) -> float:
    """Kendall tau-a by quadratic pair enumeration; ties contribute zero."""
    pts = list(points)
    n = len(pts)
    net = 0
    for i in range(n):
        ui, vi = pts[i]
        for j in range(i + 1, n):
            s = (ui - pts[j][0]) * (vi - pts[j][1])
            if s > 0.0:
                net += 1
            elif s < 0.0:
                net -= 1
    return net / (n * (n - 1) / 2)
