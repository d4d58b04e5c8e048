"""Steadiness check: run each workload ten times and compare the spread of
every end-to-end metric between runs with the metric's bound.

Run from the root of a source checkout::

    python3 bench/steady.py

Every workload in BENCHMARK.json runs with seeds 1..10 for ``run_seconds``
each, through the benchmark's own command. The spread is the distance
between the first and third quartiles of the runs' values
(``statistics.quantiles(values, n=4)``) as a share of their median; a metric
is steady when its spread is below a third of its bound. The share of failed
operations must be identical in every run of a workload. Exits 1 if anything
is not steady.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

RUNS = 10


def run_once(command, workload: str, seed: int, seconds: int) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in range(1, RUNS + 1):
            results.append(run_once(spec["command"], workload, seed, spec["run_seconds"]))
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in results[-1]["metrics"].items()), flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        if len(shares) != 1 or not all(r["correct"] for r in results):
            steady = False
        print(f"{workload}: failed share {sorted(shares)}, all correct {all(r['correct'] for r in results)}")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            s = spread(values)
            ok = s < metric["bound"] / 3
            steady &= ok
            print(
                f"  {metric['name']:16s} median {statistics.median(values):12.6g} {metric['unit']:6s}"
                f" spread {s:7.4f}  bound {metric['bound']:.3f}  {'ok' if ok else 'UNSTEADY'}"
            )
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
