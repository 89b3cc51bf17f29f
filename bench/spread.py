"""Run-to-run spread of the benchmark: quartiles over several seeds.

    python3 bench/spread.py --workload classify --seeds 1-10 --seconds 30 [--trace 1]

Runs ``bench/run.py`` once per seed, one run at a time, appends each
result line to ``bench/out/<workload>[-trace].jsonl`` and prints, for each
metric, the median and the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median.  Every
run must report ``correct``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    log = out_dir / f"{args.workload}{'-trace' if args.trace else ''}.jsonl"
    results = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        result["seed"] = seed
        results.append(result)
        with log.open("a") as fh:
            fh.write(json.dumps(result) + "\n")
        print(proc.stdout.splitlines()[-2], f"seed {seed}", flush=True)
        if not result["correct"]:
            print(proc.stderr, file=sys.stderr)
            return 1
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share per run: {sorted(shares)}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        if None in values:
            print(f"{name:32s} missing")
            continue
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{name:32s} median {median:12.6g}  IQR/median {spread:7.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
