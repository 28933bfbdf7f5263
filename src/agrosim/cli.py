"""Scenario runner CLI.

    agrosim run --preset fl-paper --out results/
    agrosim run --config scenario.json --no-svg
    agrosim compare --preset fl-paper --preset bs-paper --out results/
    agrosim sweep --preset bs-paper --param k1 --values 5,10,20,40

Each run writes ``<name>.csv`` (full trajectory), ``<name>.metrics.json``
(settle times, peak torques, estimate-error RMS), and ``<name>.svg`` unless
``--no-svg`` is given; a sweep writes only its metrics JSON and takes no
``--no-svg``.  A sweep's values run on :func:`agrosim.workers.run`; a CSV
is written by the process that runs the command.  A sweep value computes
only its metrics: the rollout and the metrics of
:func:`agrosim.sim.run_scenario`, on the run's columns, with none of its
record.  No output depends on how many CPUs there are, and a failing
sweep reports the error of its first failing value, as a serial loop
would.  The argument parser is built once per
process.  The output directory defaults to ``$AGROSIM_OUT``, read as each
command is parsed, then (if that is unset or empty) the current directory.
``--dt``, ``--horizon`` and ``--seed`` are applied together, by
:func:`agrosim.presets.override`, to the preset or the ``--config`` file.
Every flag but ``--preset``, ``--config`` and ``--no-svg`` is taken at
most once: a repeat is an error, not a replacement of the value before it.
Exit status is 0 exactly when every requested artifact was written; each
artifact replaces its target only once it is complete
(:func:`agrosim.atomic.atomic_write`).  A failure, running out of memory
included, is reported as one ``agrosim: error:`` line with exit status 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from typing import Iterable, Iterator, Optional

import numpy as np

from . import sim, workers
from .atomic import atomic_write
from .control import GAIN_FIELDS
from .errors import AgroSimError, ComparisonInvalidError, ConfigError
from .presets import override, preset, preset_names
from .sim import Metrics, ScenarioConfig, TrajectoryRecord, run_scenario
from .svgchart import LineChart, save_svg


def attitude_chart(records: dict[str, TrajectoryRecord]) -> LineChart:
    chart = LineChart("Attitude", xlabel="time [s]", ylabel="angle [deg]")
    for label, rec in records.items():
        t, deg = rec.t.tolist(), np.rad2deg(rec.attitude).T.tolist()
        suffix = f" ({label})" if label else ""
        chart.add_series("roll" + suffix, t, deg[0])
        chart.add_series("pitch" + suffix, t, deg[1])
        chart.add_series("yaw" + suffix, t, deg[2])
    return chart


def torque_chart(records: dict[str, TrajectoryRecord]) -> LineChart:
    chart = LineChart("Applied body torque", xlabel="time [s]", ylabel="torque [N m]")
    for label, rec in records.items():
        t, u_sat = rec.t.tolist(), rec.u_sat.T.tolist()
        suffix = f" ({label})" if label else ""
        for axis, column in zip(("x", "y", "z"), u_sat):
            chart.add_series(f"tau_{axis}" + suffix, t, column)
    return chart


def estimate_chart(rec: TrajectoryRecord) -> LineChart:
    chart = LineChart("Disturbance estimate", xlabel="time [s]", ylabel="[rad/s^2]")
    t = rec.t.tolist()
    for name, column in (("|L|", rec.l_true), ("|L_hat|", rec.l_hat),
                         ("|L - L_hat|", rec.l_true - rec.l_hat)):
        chart.add_series(name, t, np.linalg.norm(column, axis=1).tolist())
    return chart


def _metrics_table(rows: Iterable[tuple[str, Metrics]]) -> str:
    def fmt_settle(v: float) -> str:
        return "not settled" if math.isnan(v) else f"{v:.3f} s"

    lines = [f"{'scenario':<22}{'settle roll':<14}{'settle pitch':<14}"
             f"{'peak |u| [N m]':<16}{'est err RMS':<12}"]
    for name, m in rows:
        lines.append(
            f"{name:<22}{fmt_settle(m.settle_time[0]):<14}"
            f"{fmt_settle(m.settle_time[1]):<14}"
            f"{np.max(m.peak_torque):<16.4f}{m.est_error_rms:<12.4g}"
        )
    return "\n".join(lines)


def _write_outputs(out_dir: str, base: str, records: dict[str, TrajectoryRecord], doc: dict,
                   table: Iterable[tuple[str, Metrics]], charts: list[LineChart]) -> None:
    """Write the CSVs, ``doc`` as ``<base>.metrics.json`` and, if there are
    charts, the SVG of one command, then print the metrics table of the
    ``(label, metrics)`` rows ``table`` and the paths written."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    base = os.path.join(out_dir, base)
    for label, rec in records.items():
        path = base + (f".{label}.csv" if len(records) > 1 else ".csv")
        rec.to_csv(path)
        written.append(path)
    path = base + ".metrics.json"
    with atomic_write(path) as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    written.append(path)
    if charts:
        path = base + ".svg"
        save_svg(charts, path)
        written.append(path)
    print(_metrics_table(table))
    for path in written:
        print(f"wrote {path}")


def cmd_run(name: str, cfg: ScenarioConfig, out_dir: str, svg: bool = True) -> int:
    """Execute one scenario and write its artifacts."""
    record, metrics = run_scenario(cfg)
    charts = []
    if svg:
        charts = [attitude_chart({"": record}), torque_chart({"": record})]
        if cfg.disturbance is not None:
            charts.append(estimate_chart(record))
    _write_outputs(out_dir, name, {name: record}, metrics.to_dict(), [(name, metrics)], charts)
    return 0


def cmd_compare(a: tuple[str, ScenarioConfig], b: tuple[str, ScenarioConfig],
                out_dir: str, svg: bool = True) -> int:
    """Run two named scenarios from the same initial/reference state and
    overlay their trajectories.

    Raises
    ------
    ComparisonInvalidError
        If the scenarios start from different states or track different
        references.
    """
    (name_a, cfg_a), (name_b, cfg_b) = a, b
    if cfg_a.initial != cfg_b.initial:
        raise ComparisonInvalidError(
            "scenarios start from different initial states; comparison is meaningless"
        )
    if cfg_a.reference != cfg_b.reference:
        raise ComparisonInvalidError("scenarios track different references")
    rec_a, met_a = run_scenario(cfg_a)
    rec_b, met_b = run_scenario(cfg_b)
    if name_a == name_b:
        name_a, name_b = name_a + "-a", name_b + "-b"
    records = {name_a: rec_a, name_b: rec_b}
    charts = [attitude_chart(records), torque_chart(records)] if svg else []
    _write_outputs(out_dir, f"{name_a}_vs_{name_b}", records,
                   {name_a: met_a.to_dict(), name_b: met_b.to_dict()},
                   [(name_a, met_a), (name_b, met_b)], charts)
    return 0


def cmd_sweep(name: str, base_cfg: ScenarioConfig, out_dir: str, param: str,
              values: list[float]) -> int:
    """Grid over one gain, all axes together, and tabulate the metrics.

    Every value's scenario is built, and so checked, before any is run."""
    if param not in GAIN_FIELDS:
        raise ConfigError(f"unknown sweep parameter {param!r}; choose from {sorted(GAIN_FIELDS)}")
    if not values:
        raise ConfigError("sweep needs at least one value")
    field = GAIN_FIELDS[param]
    if not hasattr(base_cfg.gains, field):
        raise ConfigError(
            f"parameter {param!r} does not apply to {type(base_cfg.gains).__name__}"
        )
    configs = [dataclasses.replace(base_cfg, gains=dataclasses.replace(base_cfg.gains,
                                                                       **{field: value}))
               for value in values]
    metrics = _sweep_metrics(configs)
    # repr tells any two values apart; %g does not (1e-07 and 1.00000001e-07)
    table = [(f"{param}={value!r}", m) for value, m in zip(values, metrics)]
    rows = [{"value": value, **m.to_dict()} for value, m in zip(values, metrics)]
    _write_outputs(out_dir, f"{name}.sweep.{param}", {}, {"parameter": param, "runs": rows},
                   table, [])
    return 0


def _sweep_metrics(configs: list[ScenarioConfig]) -> list[Metrics]:
    """The metrics of each scenario, in order, run on up to one forked
    worker per usable CPU (:func:`agrosim.workers.run`).

    Each worker runs a contiguous share and stops at its first failure
    (:func:`_run_share`).  The results are read in order and the first
    failure read is raised, as a serial loop would raise it, so the result
    does not depend on the number of workers; a child that ended before its
    share did fails at the first value it sent nothing for.  Every child is
    reaped before this returns or raises, and killed first if anything is
    raised.
    """
    metrics = []
    with workers.run(_run_share, configs) as results:
        try:
            for result in results:
                if isinstance(result, _FAILURES):
                    raise result
                metrics.append(result)
        except workers.WorkerDied as died:
            raise AgroSimError(f"sweep worker {died.pid} {died.how} "
                               "before sending all of its results") from None
    return metrics


#: What a sweep value's run may fail with, reported in the value's place: a
#: scenario's own errors, and running out of memory.
_FAILURES = (AgroSimError, MemoryError)


def _run_share(configs: list[ScenarioConfig]) -> Iterator:
    """Yield the Metrics of each scenario of ``configs``, up to its first
    failure (one of ``_FAILURES``), which is yielded in its place."""
    for config in configs:
        try:
            metrics = _sweep_value(config)
        except _FAILURES as exc:
            yield exc
            return
        yield metrics


def _sweep_value(config: ScenarioConfig) -> Metrics:
    """A sweep value's metrics: those of :func:`run_scenario`, failures
    included, from the run's columns, with no record built."""
    return sim.compute_metrics(sim._rows(config))


def _add_scenario_args(p: argparse.ArgumentParser) -> None:
    # every --preset and --config goes to one list, in command-line order,
    # as the (preset_name, config_path) pair that _scenario takes
    p.add_argument("--preset", action="append", dest="sources", type=lambda v: (v, None),
                   metavar="PRESET", help=f"named scenario: {', '.join(preset_names())}")
    p.add_argument("--config", action="append", dest="sources", type=lambda v: (None, v),
                   metavar="PATH", help="JSON scenario file (see README for the schema)")
    # each single-valued flag is a list too, so that main rejects a repeat (_SINGLE)
    p.add_argument("--out", action="append", metavar="DIR",
                   help="output directory (default: $AGROSIM_OUT or '.')")
    p.add_argument("--seed", action="append", type=int, help="override the disturbance seed")
    p.add_argument("--dt", action="append", type=float, help="override the integration step [s]")
    p.add_argument("--horizon", action="append", type=float, help="override the horizon [s]")


def _scenario(args, preset_name: Optional[str],
              config_path: Optional[str]) -> tuple[str, ScenarioConfig]:
    """The name and the scenario of one ``--preset`` or ``--config`` source,
    with the ``--dt``, ``--horizon`` and ``--seed`` overrides applied."""
    if preset_name is not None:
        return preset_name, preset(preset_name, dt=args.dt, horizon=args.horizon, seed=args.seed)
    from .config import load_config  # the schema, loaded only where a file is read

    name = os.path.splitext(os.path.basename(config_path))[0]
    return name, override(load_config(config_path), dt=args.dt, horizon=args.horizon,
                          seed=args.seed)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``main``'s parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="agrosim",
        description="Airborne attitude stabilization scenarios for a 4WIDS robot.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario")
    _add_scenario_args(p_run)

    p_cmp = sub.add_parser("compare", help="run two scenarios and overlay them")
    _add_scenario_args(p_cmp)

    # a sweep writes no SVG, so only run and compare take --no-svg; a repeat
    # of it asks for the same thing again, so it is not rejected
    for p in (p_run, p_cmp):
        p.add_argument("--no-svg", action="store_true", help="skip the SVG plot")

    p_sweep = sub.add_parser("sweep", help="grid over one gain")
    _add_scenario_args(p_sweep)
    p_sweep.add_argument("--param", action="append", required=True,
                         help=f"gain to sweep: {', '.join(sorted(GAIN_FIELDS))}")
    p_sweep.add_argument("--values", action="append", required=True,
                         help="comma-separated gain values, e.g. 5,10,20")
    return parser


#: The flags a command takes at most once.  Each is parsed into a list, so
#: that a second one is rejected by name rather than replacing the first.
_SINGLE = ("out", "seed", "dt", "horizon", "param", "values")


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    sources = args.sources or []
    try:
        for name in _SINGLE:
            given = getattr(args, name, None)
            if given is not None:
                if len(given) > 1:
                    raise ConfigError(f"--{name} given more than once")
                setattr(args, name, given[0])
        if args.out is None:  # read per command, not when the parser is built; empty is unset
            args.out = os.environ.get("AGROSIM_OUT") or "."
        if args.command == "compare":
            if len(sources) != 2:
                raise ConfigError("compare needs exactly two of --preset/--config")
            a, b = (_scenario(args, *source) for source in sources)
            return cmd_compare(a, b, args.out, not args.no_svg)
        if len(sources) != 1:
            raise ConfigError("exactly one of --preset or --config must be given")
        if args.command == "run":
            return cmd_run(*_scenario(args, *sources[0]), args.out, not args.no_svg)
        values = []
        for position, entry in enumerate(args.values.split(","), 1):
            if not entry.strip():
                raise ConfigError(f"--values entry {position} is empty, got {args.values!r}")
            try:
                values.append(float(entry))
            except ValueError:
                raise ConfigError(f"--values must be comma-separated numbers, got {args.values!r}")
        return cmd_sweep(*_scenario(args, *sources[0]), args.out, args.param, values)
    except (AgroSimError, OSError) as exc:
        print(f"agrosim: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy's says how much it could not allocate; a bare one says nothing
        print("agrosim: error: out of memory" + (f": {exc}" if str(exc) else ""),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
