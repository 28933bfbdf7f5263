"""Workload inputs and operations of the agrosim benchmark.

A workload turns the seed into a fixed cycle of distinct inputs.  The seed
picks only gain values and disturbance seeds, never sizes, so the cost of a
cycle is the same for every seed.  Runs repeat whole cycles, so each input
appears equally often and the op-time percentiles stay inside one cost
cluster whatever the seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from agrosim import cli, config, presets, sim, svgchart

#: Gain values per sweep call.
SWEEP_POINTS = 4
#: Horizon of the long-adaptive scenario, s (4000 steps at the preset dt).
LONG_HORIZON = 4.0
#: Swept gain and its range per preset, around the paper's K1 = 20 and the
#: LQR-derived k2 = 122.65; every value in these ranges settles without
#: diverging.
SWEEP_GRIDS = {"bs-paper": ("k1", 10.0, 40.0), "fl-paper": ("k2", 60.0, 250.0)}


@dataclass
class Input:
    """One distinct operation input: a preset, its overrides and, for a
    sweep, the swept gain and its values."""

    label: str
    preset: str
    overrides: dict
    via_config: bool = False
    param: Optional[str] = None
    values: tuple = ()

    def __post_init__(self):
        self.config = presets.preset(self.preset, **self.overrides)
        #: a long-adaptive input, run through the library rather than the CLI
        self.long = "horizon" in self.overrides

    @property
    def steps(self) -> int:
        """RK4 steps one operation integrates."""
        return self.config.n_steps * max(1, len(self.values))

    def cli_args(self, workdir: str) -> list[str]:
        """Arguments of the ``agrosim`` command this input stands for."""
        if self.param is not None:
            return ["sweep", "--preset", self.preset, "--param", self.param,
                    "--values", ",".join(f"{v:.3f}" for v in self.values)]
        if self.via_config:
            return ["run", "--config", os.path.join(workdir, self.label + ".json")]
        return ["run", "--preset", self.preset]


def _disturbance_seeds(rng: np.random.Generator, n: int) -> list[int]:
    return [int(s) for s in rng.integers(1, 2**31 - 1, size=n)]


def build(name: str, seed: int) -> list[Input]:
    """The cycle of inputs of workload ``name`` for ``seed``."""
    rng = np.random.default_rng(seed)
    if name == "cli-run":
        (dseed,) = _disturbance_seeds(rng, 1)
        # the adaptive run goes first: it is the input the traced run profiles
        return [
            Input("bs-adaptive", "bs-adaptive-paper", {"seed": dseed}, via_config=True),
            Input("fl-paper", "fl-paper", {}),
            Input("bs-paper", "bs-paper", {}),
        ]
    if name == "gain-sweep":
        # a bs sweep costs about 1.25x an fl one; with two bs grids to one fl
        # grid the median lands inside the bs cluster, not in the gap between
        inputs = []
        for i, base in enumerate(("bs-paper", "fl-paper", "bs-paper")):
            param, lo, hi = SWEEP_GRIDS[base]
            values = tuple(sorted(round(v, 3) for v in rng.uniform(lo, hi, SWEEP_POINTS)))
            inputs.append(Input(f"{base}.{param}.{i}", base, {}, param=param, values=values))
        return inputs
    if name == "long-adaptive":
        return [Input(f"seed{s}", "bs-adaptive-paper", {"seed": s, "horizon": LONG_HORIZON})
                for s in _disturbance_seeds(rng, 3)]
    raise ValueError(f"unknown workload {name!r}")


def _sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def prepare(inputs: list[Input], workdir: str) -> str:
    """Write the config files that ``--config`` inputs read; return the
    directory the operations write their artifacts to."""
    for inp in inputs:
        if inp.via_config:
            with open(os.path.join(workdir, inp.label + ".json"), "w", encoding="utf-8") as fh:
                fh.write(config.serialize_config(inp.config))
    out = os.path.join(workdir, "out")
    os.makedirs(out, exist_ok=True)
    return out


def _clear(out: str) -> None:
    for entry in os.listdir(out):
        os.remove(os.path.join(out, entry))


def digests(inp: Input, out: str) -> dict[str, str]:
    """SHA-256 of each artifact an operation on ``inp`` wrote to ``out``;
    for a sweep also of its first row, which :func:`reference` recomputes."""
    if inp.param is not None:
        path = os.path.join(out, f"{inp.preset}.sweep.{inp.param}.metrics.json")
        with open(path, encoding="utf-8") as fh:
            first = json.load(fh)["runs"][0]
        return {"sweep.json": _sha256_file(path),
                "first_row": _sha256_text(json.dumps(first, sort_keys=True))}
    names = [".csv", ".metrics.json"] if inp.long else [".csv", ".metrics.json", ".svg"]
    return {ext: _sha256_file(os.path.join(out, inp.label + ext)) for ext in names}


def run_inprocess(inp: Input, workdir: str, out: str) -> None:
    """One operation in this process.

    ``agrosim`` commands go through ``cli.main`` with its table sent to
    /dev/null; a long-adaptive input is ``run_scenario``, a separate
    ``compute_metrics`` and ``to_csv``.
    """
    _clear(out)
    if inp.long:
        record, metrics = sim.run_scenario(inp.config)
        if sim.compute_metrics(record).to_dict() != metrics.to_dict():
            raise AssertionError("compute_metrics disagrees with run_scenario's metrics")
        record.to_csv(os.path.join(out, inp.label + ".csv"))
        with open(os.path.join(out, inp.label + ".metrics.json"), "w", encoding="utf-8") as fh:
            fh.write(json.dumps(metrics.to_dict(), indent=2) + "\n")
        return
    args = inp.cli_args(workdir) + ["--out", out]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        code = cli.main(args)
    if code != 0:
        raise RuntimeError(f"agrosim {' '.join(args)} exited {code}")


def run_process(inp: Input, workdir: str, out: str, env: dict) -> None:
    """One operation as a fresh ``agrosim`` process, started the way the
    console script starts it."""
    _clear(out)
    args = inp.cli_args(workdir) + ["--out", out]
    code = "import sys; from agrosim.cli import main; sys.exit(main())"
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"agrosim {' '.join(args)} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")


def probe_layers(inp: Input, workdir: str, out: str) -> None:
    """Call every public layer once on ``inp``, so that the traced run of
    each workload has spans of every layer, including those its operations
    skip: preset build, config parse, rollout, CSV, SVG and a two-point
    sweep."""
    presets.preset(inp.preset, **inp.overrides)
    path = os.path.join(workdir, "probe.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(config.serialize_config(inp.config))
    config.load_config(path)
    record, _ = sim.run_scenario(inp.config)
    record.to_csv(os.path.join(out, "probe.csv"))
    svgchart.render_svg([cli.attitude_chart({"": record}), cli.torque_chart({"": record})])
    k1 = float(inp.config.gains.k1[0])
    args = ["sweep", "--config", path, "--param", "k1", "--values", f"{k1:g},{1.1 * k1:g}",
            "--out", out]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        if cli.main(args) != 0:
            raise RuntimeError(f"agrosim {' '.join(args)} failed")


def reference(inp: Input) -> dict[str, str]:
    """Digests computed in this process by a path that bypasses the CLI:
    the CSV and metrics JSON of a run, or the first row of a sweep.  A
    long-adaptive operation already is that path: its repeats are checked
    against each other instead."""
    if inp.long:
        return {}
    if inp.param is not None:
        field = {"lambda": "lam"}.get(inp.param, inp.param)
        gains = dataclasses.replace(inp.config.gains, **{field: np.full(3, inp.values[0])})
        _, m = sim.run_scenario(dataclasses.replace(inp.config, gains=gains))
        return {"first_row": _sha256_text(json.dumps({"value": inp.values[0], **m.to_dict()},
                                                     sort_keys=True))}
    record, metrics = sim.run_scenario(inp.config)
    buf = io.StringIO()
    record.to_csv(buf)
    return {".csv": _sha256_text(buf.getvalue()),
            ".metrics.json": _sha256_text(json.dumps(metrics.to_dict(), indent=2) + "\n")}
