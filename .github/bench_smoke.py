"""Smoke test of the benchmark's output: every workload, traced and untraced.

    python3 .github/bench_smoke.py [--seconds S]

Run from the repository root.  For each workload of bench/run.py and for
--trace 0 and 1, one short run must end its stdout with a JSON object that
parses without NaN or Infinity constants, reports ``correct: true``, and
gives every metric as a finite number (none missing, none null).  Exits 1
and names the failing runs otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys

WORKLOADS = ("quad", "sample", "classify")


def _refuse_constant(name: str):
    raise ValueError(f"non-finite constant {name}")


def problems_of(stdout: str) -> list[str]:
    """What is wrong with one run's stdout; empty when it is a valid result."""
    lines = stdout.strip().splitlines()
    if not lines:
        return ["no output"]
    try:
        result = json.loads(lines[-1], parse_constant=_refuse_constant)
    except ValueError as err:
        return [f"last line is not a result: {err}"]
    if not isinstance(result, dict):
        return ["last line is not a JSON object"]
    problems = [] if result.get("correct") is True else ["correct is not true"]
    metrics = result.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        return problems + ["no metrics"]
    for name, metric in metrics.items():
        value = metric.get("value") if isinstance(metric, dict) else None
        if "missing" in metric or not _finite_number(value):
            problems.append(f"metric {name} is {metric!r}")
    return problems


def _finite_number(value) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", default="1", help="busy seconds per run")
    args = parser.parse_args(argv)
    failed = 0
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            argv = [
                sys.executable, "bench/run.py", "--workload", workload,
                "--seed", "1", "--seconds", args.seconds, "--trace", trace,
            ]
            run = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            problems = problems_of(run.stdout)
            if run.returncode != 0:
                problems.insert(0, f"exit {run.returncode}")
            status = "ok" if not problems else "FAIL"
            print(f"{workload} --trace {trace}: {status}")
            for problem in problems:
                print(f"  {problem}")
            if problems:
                failed += 1
                sys.stdout.write(run.stderr[-2000:])
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
