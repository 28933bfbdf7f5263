"""Smoke test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload untraced and traced, with shrunken inputs and a single
cycle, and checks that each result line is correct and names every metric
of BENCHMARK.json with its unit.  Then corrupts one pinned digest and checks
that the run reports the failure, so the output check is not vacuous.
Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile

import run
import workloads


def result_of(argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(argv)
    if code != 0:
        raise AssertionError(f"run.py {' '.join(argv)} exited {code}")
    result = json.loads(buf.getvalue().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"unexpected result keys {sorted(result)}")
    return result


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads.SWEEP_POINTS = 2
    workloads.LONG_HORIZON = 0.3
    run.SETUP_REPEATS = 1
    run.DRAWS = 100
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            argv = ["--workload", workload, "--seed", "0", "--seconds", "0",
                    "--trace", str(trace)]
            result = result_of(argv)
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{argv}: not correct: {result}")
            emitted = result["metrics"]
            for metric in declared:
                got = emitted.get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{workload} trace={trace}: {metric['name']} "
                                    f"[{metric['unit']}] emitted as {got}")
            extra = set(emitted) - {m["name"] for m in declared}
            if extra:
                problems.append(f"{workload} trace={trace}: undeclared metrics {sorted(extra)}")
            print(f"{workload} trace={trace}: {len(emitted)} metrics, "
                  f"{result['attempted']} attempted, {result['failed']} failed")

    os.makedirs(run.OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT_DIR)
    pinned_path = run.PINNED
    try:
        with open(pinned_path, encoding="utf-8") as fh:
            pins = json.load(fh)
        digest = pins["fl-paper"][".csv"]
        pins["fl-paper"][".csv"] = ("0" if digest[0] != "0" else "1") + digest[1:]
        run.PINNED = os.path.join(scratch, "pinned.json")
        with open(run.PINNED, "w", encoding="utf-8") as fh:
            json.dump(pins, fh)
        result = result_of(["--workload", "long-adaptive", "--seed", "0", "--seconds", "0"])
        if result["correct"] or result["failed"] != 1:
            problems.append(f"corrupted pinned digest not reported: {result}")
        print(f"corrupted pin: correct={result['correct']}, failed={result['failed']}")
    finally:
        run.PINNED = pinned_path
        shutil.rmtree(scratch, ignore_errors=True)

    for problem in problems:
        print("FAIL " + problem, file=sys.stderr)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
