"""agrosim benchmark: one workload, one closed loop, one JSON result.

    python3 perfbench/run.py --workload cli-run --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py):

- ``cli-run``: each operation is a fresh ``agrosim run`` process, cycling
  through bs-adaptive-paper from a ``--config`` file, fl-paper and bs-paper.
- ``gain-sweep``: each operation is an in-process ``agrosim sweep`` over
  seeded gain grids, alternating bs-paper k1 and fl-paper k2.
- ``long-adaptive``: each operation is ``run_scenario`` of
  bs-adaptive-paper at a 4 s horizon, ``compute_metrics`` and ``to_csv``.

One client runs operations back to back for ``--seconds`` (whole cycles
over the workload's inputs), with BLAS/OpenMP pinned to one thread.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` a
separate run alternates plain and traced operations, probes every layer
and reports the per-layer metrics, writing spans and the cProfile split to
``.perfbench/trace-<workload>-seed<seed>.json``.  Scratch files live in a
temporary directory under ``.perfbench/`` that is removed at exit.  Every
time, end-to-end and per-layer, is in seconds at a reference machine speed
(see :class:`SpeedScale`).

Every run first checks the three presets at their default seed, each in a
fresh ``agrosim run`` process, against the SHA-256 digests in pinned.json,
then checks each operation's artifacts
against an in-process reference and against its own repeats; a mismatch
or an exception is a failed operation.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os
import sys

#: Pinned before numpy loads; child processes inherit it.
THREAD_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                     "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_ENV)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "agrosim", "__init__.py")):
    sys.exit(f"perfbench: no agrosim source at {os.path.join(SRC, 'agrosim')}")
sys.path.insert(0, SRC)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import agrosim  # noqa: E402
from agrosim import sim  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

if not os.path.abspath(agrosim.__file__).startswith(SRC + os.sep):
    sys.exit(f"perfbench: agrosim imported from {agrosim.__file__}, not from {SRC}")

OUT_DIR = os.path.join(ROOT, ".perfbench")
PINNED = os.path.join(HERE, "pinned.json")
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
#: Fresh interpreters timed per traced run for ``cli.import_s``.
SETUP_REPEATS = 5
#: Size of the calibration loop, and its wall time at the reference speed
#: (the median seen on a shared 2-core x86-64 host, Python 3.11).
CALIBRATION_LOOPS = 2000
CALIBRATION_REF_S = 0.016
#: ``NoiseStreams.draw`` calls per timed batch, and batches.
DRAWS, DRAW_BATCHES = 2000, 5

#: Metric name -> unit, as BENCHMARK.json declares them.
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class Ledger:
    """Attempted and failed operations, and the digests each input must
    reproduce: its reference's, then those of its first run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.expected: dict[str, dict] = {}
        self.first: dict[str, dict] = {}

    def run(self, key: str, op, digests):
        """Time ``op()``, then check ``digests()``; return the wall time, or
        None when the operation raised or its output mismatched."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            op()
            elapsed = time.perf_counter() - start
            got = digests()
        except Exception as exc:  # any error is a failed operation, reported by name
            self.failures.append(f"{key}: {type(exc).__name__}: {exc}")
            return None
        bad = [k for k, v in self.expected.get(key, {}).items() if got.get(k) != v]
        if self.first.setdefault(key, got) != got:
            bad.append("differs from its first run")
        if bad:
            self.failures.append(f"{key}: output mismatch: {', '.join(bad)}")
            return None
        return elapsed


def check_pinned(ledger: Ledger, workdir: str, pinned: dict, env: dict) -> None:
    """Run each preset at its default seed and compare with the pins.  The
    runs are child processes, so that this process's peak RSS is that of
    the workload alone."""
    out = os.path.join(workdir, "pinned")
    os.makedirs(out, exist_ok=True)
    for name, want in pinned.items():
        inp = workloads.Input(name, name, {})
        ledger.expected["pinned:" + name] = want
        ledger.run("pinned:" + name, lambda: workloads.run_process(inp, workdir, out, env),
                   lambda: workloads.digests(inp, out))


def _fresh_python(code: str, env: dict) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    return time.perf_counter() - start


def warm_up(ledger: Ledger, inputs, op, out: str) -> None:
    """One untimed pass: fills caches and checks every input against its
    in-process reference."""
    for inp in inputs:
        ledger.expected[inp.label] = workloads.reference(inp)
        ledger.run(inp.label, lambda: op(inp), lambda: workloads.digests(inp, out))


def calibrate() -> float:
    """Wall time of a fixed loop: half small numpy calls, half scalar float
    arithmetic, the two kinds of work a rollout does."""
    a, x, acc = np.arange(3.0), 0.1, 0.0
    start = time.perf_counter()
    for i in range(CALIBRATION_LOOPS):
        acc += float(np.clip(a * 1.0001 + 0.5, -2.0, 2.0)[0])
    for i in range(10 * CALIBRATION_LOOPS):
        x = x * 0.999 + 0.001 * math.sin(x + i)
        acc += x * x - 0.5 * x
    return time.perf_counter() - start


class SpeedScale:
    """Scales wall times to the reference machine speed.

    The calibration loop runs between consecutive timed calls; a call's
    time is multiplied by ``CALIBRATION_REF_S`` over the mean of the
    calibrations before and after it.  On a shared host the speed drifts by
    tens of percent over seconds, and the ratio follows it.  Every time the
    benchmark reports goes through one of these, so all are on one scale.
    """

    def __init__(self):
        self.last = calibrate()
        self.samples = [self.last]

    def factor(self) -> float:
        """The ratio for the call that ended just now."""
        before, self.last = self.last, calibrate()
        self.samples.append(self.last)
        return CALIBRATION_REF_S / (0.5 * (before + self.last))

    def __call__(self, elapsed: float) -> float:
        return elapsed * self.factor()


def end_to_end(name: str, seed: int, seconds: float, inputs, workdir: str, out: str,
               ledger: Ledger, env: dict):
    if name == "cli-run":
        def op(inp):
            workloads.run_process(inp, workdir, out, env)
    else:
        def op(inp):
            workloads.run_inprocess(inp, workdir, out)
    warm_up(ledger, inputs, op, out)
    setup_code = (f"import sys; sys.path[:0] = [{SRC!r}, {HERE!r}]; import agrosim, "
                  f"agrosim.cli, workloads; workloads.build({name!r}, {seed})")
    scale = SpeedScale()
    raw, times, setups, steps, cycles = [], [], [], 0, 0
    start = time.perf_counter()
    while cycles == 0 or time.perf_counter() - start < seconds:
        for inp in inputs:
            elapsed = ledger.run(inp.label, lambda: op(inp), lambda: workloads.digests(inp, out))
            scaled = scale(elapsed or 0.0)
            if elapsed is not None:
                raw.append(elapsed)
                times.append(scaled)
                steps += inp.steps
        # one fresh set-up per cycle, so that its samples span the run
        setups.append(scale(_fresh_python(setup_code, env)))
        cycles += 1
    window = time.perf_counter() - start
    who = resource.RUSAGE_CHILDREN if name == "cli-run" else resource.RUSAGE_SELF
    # p75: a run holds 30-60 operations, so p75 is the highest percentile
    # with about ten samples beyond it
    p50, p75 = np.percentile(times, [50, 75]) if times else (0.0, 0.0)
    busy = sum(times) or float("inf")
    metrics = {
        "op_s.p50": float(p50), "op_s.p75": float(p75),
        "ops_per_s": len(times) / busy, "sim_steps_per_s": steps / busy,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - len(ledger.failures) / ledger.attempted,
    }
    sizes = {"ops": len(times), "cycles": cycles, "setups": len(setups), "window_s": window,
             "calibration_s.p50": statistics.median(scale.samples),
             "unscaled": {"op_s.p50": float(np.median(raw)) if raw else 0.0,
                          "ops_per_s": len(raw) / window, "sim_steps_per_s": steps / window},
             "op_times_s": [round(t, 6) for t in raw]}
    return metrics, sizes


def _noise_draw_us(scale: SpeedScale) -> float:
    streams = sim.NoiseStreams(0)
    batches = []
    for _ in range(DRAW_BATCHES):
        start = time.perf_counter()
        for _ in range(DRAWS):
            streams.draw()
        batches.append(scale(time.perf_counter() - start) / DRAWS)
    return 1e6 * statistics.median(batches)


def traced(name: str, seconds: float, inputs, workdir: str, out: str, ledger: Ledger,
           env: dict):
    """Alternate plain and traced in-process operations, then probe every
    layer once, profile one operation and time the import."""
    def op(inp):
        workloads.run_inprocess(inp, workdir, out)

    def plain_op(inp):
        return scale(ledger.run(inp.label, lambda: op(inp),
                                lambda: workloads.digests(inp, out)) or 0.0)

    def traced_op(op_id, inp):
        with tracer.instrument():
            elapsed = ledger.run(inp.label, lambda: tracer.operation(op_id, "op", op, inp),
                                 lambda: workloads.digests(inp, out))
        tracer.factor[op_id] = scale.factor()
        return (elapsed or 0.0) * tracer.factor[op_id]

    warm_up(ledger, inputs, op, out)
    tracer = tracing.Tracer()
    scale = SpeedScale()
    plain, overhead, first_cycle, cycles = [], [], set(), 0
    op_id, start = 0, time.perf_counter()
    while cycles == 0 or time.perf_counter() - start < seconds:
        for inp in inputs:
            # alternate which of the pair runs first, so drift cancels
            if op_id % 2 == 0:
                base = plain_op(inp)
                spanned = traced_op(op_id, inp)
            else:
                spanned = traced_op(op_id, inp)
                base = plain_op(inp)
            if base and spanned:
                plain.append(base)
                overhead.append(spanned / base - 1.0)
            if cycles == 0:
                first_cycle.add(op_id)
            op_id += 1
        cycles += 1
    with tracer.instrument():
        tracer.operation("probe", "probe", workloads.probe_layers, inputs[0], workdir, out)
    tracer.factor["probe"] = scale.factor()
    split = tracing.profile_split(op, inputs[0])
    imports = [scale(_fresh_python("import agrosim.cli", env)) for _ in range(SETUP_REPEATS)]
    metrics = {
        "cli.import_s": statistics.median(imports),
        "sim.noise_draw_us": _noise_draw_us(scale),
        **tracing.layer_metrics(tracer, first_cycle),
        **{f"self_frac.{m}": split.get(m, 0.0) for m in tracing.PROFILED_MODULES},
        "trace.overhead_frac": statistics.median(overhead) if overhead else 0.0,
        "trace.base_op_ms": 1e3 * statistics.median(plain) if plain else 0.0,
        "trace.span_coverage": statistics.median(tracing.span_coverage(tracer, "op")),
    }
    artifact = {"spans": tracer.as_records(),
                "counts": [[op_key, name, n] for (op_key, name), n in tracer.counts.items()],
                "speed_factors": [[op_key, f] for op_key, f in tracer.factor.items()],
                "profile_split": split}
    sizes = {"ops": op_id * 2, "cycles": cycles, "window_s": time.perf_counter() - start,
             "calibration_s.p50": statistics.median(scale.samples)}
    return metrics, sizes, artifact


def _git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                          text=True)
    return proc.stdout.strip() or None


def _source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "agrosim")
    for entry in sorted(os.listdir(pkg)):
        if entry.endswith(".py"):
            with open(os.path.join(pkg, entry), "rb") as fh:
                h.update(entry.encode() + b"\0" + fh.read())
    return h.hexdigest()


def provenance(args, inputs) -> dict:
    return {
        "git_sha": _git_sha(), "src_sha256": _source_digest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()), "thread_env": THREAD_ENV,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": [inp.label for inp in inputs],
        "steps_per_cycle": sum(inp.steps for inp in inputs),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    inputs = workloads.build(args.workload, args.seed)
    prov = provenance(args, inputs)
    env = {**os.environ, "PYTHONPATH": SRC}
    with open(PINNED, encoding="utf-8") as fh:
        pinned = json.load(fh)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
    ledger = Ledger()
    try:
        check_pinned(ledger, workdir, pinned, env)
        out = workloads.prepare(inputs, workdir)
        if args.trace:
            metrics, sizes, artifact = traced(args.workload, args.seconds, inputs, workdir,
                                              out, ledger, env)
        else:
            metrics, sizes = end_to_end(args.workload, args.seed, args.seconds, inputs,
                                        workdir, out, ledger, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    prov.update(sizes, loadavg_end=list(os.getloadavg()))

    units = PER_LAYER if args.trace else END_TO_END
    for key in units:
        print(f"{key:<28} {metrics[key]:>16.6g} {units[key]}")
    if args.trace:
        artifact.update(provenance=prov, metrics=metrics)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(artifact, fh)
        print(f"trace: {os.path.relpath(path, ROOT)}")
    for failure in ledger.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print("provenance: " + json.dumps(prov))
    print(json.dumps({
        "correct": not ledger.failures, "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
