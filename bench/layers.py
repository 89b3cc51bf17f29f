"""Per-layer timing for the traced run, from outside the program.

``Tracer.install`` replaces public names of the ``copula_forge`` modules
with timing or counting wrappers, in every ``copula_forge`` module that
holds them, so calls made through an imported name are caught too.  The
source files are not touched.  A span's self time is its duration minus
the time spent in the spans it called; a name that calls itself (the
recursive ``differentiate``) is timed at its outermost call only.

The phi point counts come from ``dataclasses.replace`` on the generators
that ``cli.builtin`` and ``cli.from_expression`` return: phi, phi' and phi''
are wrapped to add ``np.size`` of each argument, so the counts keep their
meaning when the program moves from scalars to arrays.

A name that no longer exists leaves its metrics reported as missing.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable

import numpy as np

# (module, attribute, span metric, count metric, count of one call)
_Count = Callable[[tuple, dict, object], float]


def _size(args: tuple, index: int) -> int:
    return int(np.size(args[index]))


def _nodes(args: tuple, kwargs: dict, result) -> int:
    """Nodes of an expression tree, walked without recursion."""
    count, todo = 0, [result]
    while todo:
        node = todo.pop()
        count += 1
        todo.extend(
            value
            for f in dataclasses.fields(node)
            if dataclasses.is_dataclass(value := getattr(node, f.name))
        )
    return count


SPANS: tuple[tuple[str, str, str, str | None, _Count | None], ...] = (
    ("copula_forge.cli", "main", "cli.self_ms", None, None),
    ("copula_forge.exprlang", "parse", "exprlang.parse_ms", "exprlang.nodes", _nodes),
    ("copula_forge.exprlang", "differentiate", "exprlang.differentiate_ms", "exprlang.nodes", _nodes),
    ("copula_forge.generator", "validate", "generator.validate_ms", None, None),
    ("copula_forge.copula", "Copula.__init__", "copula.init_ms", None, None),
    ("copula_forge.copula", "Copula.sample", "copula.sample_ms", "copula.pairs",
     lambda a, k, r: len(r)),
    ("copula_forge.numerics", "bisect", None, "numerics.bisect_calls", lambda a, k, r: 1),
    ("copula_forge.numerics", "eval_grid", "numerics.eval_grid_ms", "numerics.grid_cells",
     lambda a, k, r: _size(a, 1) * _size(a, 2)),
    ("copula_forge.numerics", "integrate_1d", "numerics.integrate_1d_ms", None, None),
    ("copula_forge.measures", "quadrature_measures", "measures.quadrature_ms", None, None),
    ("copula_forge.measures", "closed_form_measures", "measures.closed_form_ms", None, None),
    ("copula_forge.properties", "dependence_profile", "properties.profile_ms", None, None),
    ("copula_forge.properties", "oracle_pqd", "properties.oracle_pqd_ms", None, None),
    ("copula_forge.properties", "oracle_tp2", "properties.oracle_tp2_ms", None, None),
    ("copula_forge.properties", "oracle_pfd", "properties.oracle_pfd_ms", None, None),
    ("copula_forge.properties", "pfd_closed_form", "properties.pfd_closed_form_ms", None, None),
)

# generator constructors whose results get counting phi callables
_GENERATOR_FACTORIES = ("builtin", "from_expression")
_POINT_FIELDS = {
    "phi": "generator.phi_points",
    "phi_prime": "generator.dphi_points",
    "phi_second": "generator.d2phi_points",
}

# every per-layer metric: name -> unit
METRICS: dict[str, str] = {}
for _, _, _span, _count, _ in SPANS:
    if _span:
        METRICS[_span] = "ms"
    if _count:
        METRICS[_count] = "count"
METRICS["cli.out_bytes"] = "bytes"
for _metric in _POINT_FIELDS.values():
    METRICS[_metric] = "count"


class Tracer:
    """Self times (seconds) and counts, summed over every traced call."""

    def __init__(self) -> None:
        self.totals: dict[str, float] = defaultdict(float)
        self.missing: set[str] = set()
        self._stack: list[list[float]] = []  # child time of each open span
        self._open: set[str] = set()

    def count(self, metric: str, amount: float) -> None:
        self.totals[metric] += amount

    def _wrap(self, fn, span: str | None, counter: str | None, count_fn: _Count | None):
        tracer = self
        key = span or counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if key in tracer._open:  # recursive call: the outer span times it
                return fn(*args, **kwargs)
            if span is None:
                result = fn(*args, **kwargs)
                tracer.totals[counter] += count_fn(args, kwargs, result)
                return result
            tracer._open.add(key)
            children = [0.0]
            tracer._stack.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer._stack.pop()
                tracer._open.discard(key)
                tracer.totals[span] += elapsed - children[0]
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed
            if counter:
                tracer.totals[counter] += count_fn(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, span, counter, count_fn in SPANS:
            owner_path, _, name = f"{module_name}.{attr}".rpartition(".")
            try:
                owner = _resolve(owner_path)
                original = getattr(owner, name)
            except (ImportError, AttributeError):
                self.missing.update(m for m in (span, counter) if m)
                continue
            wrapper = self._wrap(original, span, counter, count_fn)
            if isinstance(owner, type):
                setattr(owner, name, wrapper)
            else:
                _replace_everywhere(original, wrapper)
        self._install_point_counters()

    def _install_point_counters(self) -> None:
        try:
            cli = importlib.import_module("copula_forge.cli")
            factories = {name: getattr(cli, name) for name in _GENERATOR_FACTORIES}
            fields = {f.name for f in dataclasses.fields(factories["builtin"]("phi2"))}
        except (ImportError, AttributeError, TypeError):
            self.missing.update(_POINT_FIELDS.values())
            return
        self.missing.update(m for f, m in _POINT_FIELDS.items() if f not in fields)
        counted = {f: m for f, m in _POINT_FIELDS.items() if f in fields}

        def counting(fn, metric):
            if fn is None:
                return None

            def points(x, *rest):
                self.totals[metric] += 1 if type(x) is float else np.size(x)
                return fn(x, *rest)

            return points

        def with_counters(factory):
            @functools.wraps(factory)
            def make(*args, **kwargs):
                gen = factory(*args, **kwargs)
                return dataclasses.replace(
                    gen, **{f: counting(getattr(gen, f), m) for f, m in counted.items()}
                )

            return make

        for name, factory in factories.items():
            setattr(cli, name, with_counters(factory))

    def per_op(self, ops: int) -> dict[str, dict]:
        """Every per-layer metric per operation; times in ms."""
        out = {}
        for metric, unit in METRICS.items():
            if metric in self.missing:
                out[metric] = {"value": None, "unit": unit, "missing": True}
                continue
            value = self.totals.get(metric, 0.0) / ops
            out[metric] = {"value": value * 1e3 if unit == "ms" else value, "unit": unit}
        return out


def _resolve(path: str):
    """A module, or a class inside one, from a dotted path."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:]:
            obj = getattr(obj, part)
        return obj
    raise ImportError(path)


def _replace_everywhere(original, wrapper) -> None:
    """Point every copula_forge module attribute bound to ``original`` at ``wrapper``."""
    for module_name, module in list(sys.modules.items()):
        if module_name != "copula_forge" and not module_name.startswith("copula_forge."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
