"""Run the benchmark over ten seeds and summarise every metric.

    python3 perfbench/baseline.py > perfbench/baseline.json

For each workload of BENCHMARK.json, run.py runs for its ``run_seconds``
once per seed in ``SEEDS`` with ``--trace 0`` and once with ``--trace 1``
at ``TRACE_SEED``, one run at a time.  Each metric is reported
with its values in seed order, median, quartiles (``statistics.quantiles``
with n=4) and spread, the quartile distance as a share of the median.
Progress goes to standard error; the summary is printed as JSON.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = list(range(1, 11))
TRACE_SEED = 1


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of run.py; its result line, its provenance and its wall time."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    prov = next(line for line in lines if line.startswith("provenance: "))
    return {**json.loads(lines[-1]), "provenance": json.loads(prov[len("provenance: "):]),
            "wall_s": time.perf_counter() - start}


def summarise(runs: list[dict]) -> dict:
    out = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        entry = {"unit": first["unit"], "median": med, "values": values}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else 0.0)
        out[name] = entry
    return out


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    doc = {}
    for workload in (w["name"] for w in spec["workloads"]):
        entry = {}
        for trace, seeds in ((0, SEEDS), (1, [TRACE_SEED])):
            runs = []
            for seed in seeds:
                runs.append(run_once(workload, seed, spec["run_seconds"], trace))
                print(f"{workload} trace={trace} seed={seed} correct={runs[-1]['correct']}",
                      file=sys.stderr)
            entry["per_layer" if trace else "end_to_end"] = {
                "seeds": seeds,
                "all_correct": all(r["correct"] for r in runs),
                "failed": sum(r["failed"] for r in runs),
                "attempted": sum(r["attempted"] for r in runs),
                "metrics": summarise(runs),
                "run_wall_s": [r["wall_s"] for r in runs],
                "provenance": [r["provenance"] for r in runs],
            }
        doc[workload] = entry
    json.dump(doc, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
