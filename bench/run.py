"""Benchmark of the copula-forge CLI: one workload per invocation.

    python3 bench/run.py --workload quad|sample|classify --seed N \
        --seconds S --trace 0|1

Run from the repository root.  The CLI is driven in-process through
``copula_forge.cli.main(argv)`` with stdout and stderr captured, in a closed
loop: one caller, one thread, each operation starting when the previous one
returns.  Operations come in whole rounds drawn from ``--seed`` (see
``workloads.py``) until they have been busy for ``--seconds`` and at least
``MIN_OPS`` have run; one round before that warms the process up and is
not counted.  Every output is checked; a wrong output of an operation
other than the known faults makes the run incorrect.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` the program's public functions are
wrapped (``layers.py``) and the metrics are per-layer self times and
counts per operation.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import refs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 7
MIN_OPS = 100  # so that at least 10 operations lie beyond op_p90_ms


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing copula_forge.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import copula_forge.cli"],
            env=env, check=True, timeout=120,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def call(main, argv) -> tuple[int | None, str, str, float, str | None]:
    """Run one CLI command; (exit code, stdout, stderr, seconds, exception)."""
    out, err = io.StringIO(), io.StringIO()
    raised = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback is a wrong answer, not a crash
            rc, raised = None, f"raised {type(exc).__name__}: {str(exc)[:120]}"
        elapsed = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), elapsed, raised


def verdict(op, rc, out, err, raised) -> str | None:
    if raised:
        return raised
    try:
        return op.check(rc, out, err)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output ({type(exc).__name__}: {exc})"


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    setup_s = measure_setup()
    sys.path.insert(0, str(SRC))
    import copula_forge.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"copula_forge imported from {cli.__file__}, not {SRC}")
    tracer = layers.Tracer() if trace else None
    if tracer:
        tracer.install()
    make_round = WORKLOADS[workload]
    rng = refs.SplitMix64(seed)

    def run_round(r):
        for op in make_round(rng, r):
            rc, out, err, elapsed, raised = call(cli.main, op.argv)
            yield op, out, elapsed, verdict(op, rc, out, err, raised)

    problems = []
    for op, _, _, problem in run_round(0):  # warm-up, checked but not counted
        if problem and not op.known_fault:
            problems.append(f"warm-up: {problem}: {' '.join(op.argv)[:200]}")
    if tracer:
        tracer.totals.clear()

    times, failed, seen = [], 0, set()
    first = None
    r = 0
    while sum(times) < seconds or len(times) < MIN_OPS:
        r += 1
        for op, out, elapsed, problem in run_round(r):
            if op.argv in seen:
                raise RuntimeError(f"argv repeated in one run: {op.argv}")
            seen.add(op.argv)
            times.append(elapsed)
            if not op.known_fault:
                first = first or (op, out)
            if tracer:
                tracer.count("cli.out_bytes", len(out.encode()))
            if problem:
                failed += 1
                if not op.known_fault:
                    problems.append(f"{problem}: {' '.join(op.argv)[:200]}")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layer_metrics = tracer.per_op(len(times)) if tracer else None

    # the same operation, run twice more, gives the same bytes
    op, out = first
    for _ in range(2):
        if call(cli.main, op.argv)[1] != out:
            problems.append(f"output changed when rerun: {' '.join(op.argv)[:200]}")
            break

    for line in problems[:10]:
        print(f"WRONG: {line}", file=sys.stderr)
    ops_per_s = len(times) / sum(times)
    print(
        f"{workload}: {len(times)} ops in {r} rounds, {sum(times):.2f} s busy, "
        f"{ops_per_s:.3f} ops/s, ops_failed {failed}"
        + (" (traced)" if trace else ""),
        flush=True,
    )
    if tracer:
        metrics = layer_metrics
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "op_p50_ms": {"value": float(np.percentile(times, 50)) * 1e3, "unit": "ms"},
            "op_p90_ms": {"value": float(np.percentile(times, 90)) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    return {
        "correct": not problems,
        "attempted": len(times),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "copula_forge" / "cli.py").is_file():
        print(f"error: no copula_forge sources under {SRC}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
