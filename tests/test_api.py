"""The public surface of the package, pinned.

Adding or removing a top-level name is a deliberate change to this list,
so a wrapper that only the tests call does not creep back in unnoticed.
"""

import ast
import dataclasses
import inspect
import pathlib
import types

import pytest

import agrosim

PUBLIC_NAMES = [
    "AgroSimError",
    "AllocationSingularityError",
    "BodyState",
    "BsGains",
    "ComparisonInvalidError",
    "ConfigError",
    "DEFAULT_SETTLE_BAND",
    "DegenerateInertiaError",
    "DisturbanceBudgetError",
    "DisturbanceSpec",
    "DivergenceError",
    "EffectiveInertias",
    "FlGains",
    "InertiaSet",
    "InvalidParameterError",
    "InvalidWindowError",
    "LqrGains",
    "Metrics",
    "NoiseStreams",
    "Reference",
    "SINGULARITY_TOL",
    "ScenarioConfig",
    "SteeringConfig",
    "TrajectoryRecord",
    "WheelGeometry",
    "allocate_wheel_torques",
    "check_disturbance_budget",
    "compute_metrics",
    "effective_inertias",
    "estimate_error_metrics",
    "load_config",
    "lqr_double_integrator",
    "lyapunov",
    "parse_config",
    "preset",
    "preset_names",
    "reflected_inertia",
    "run_scenario",
    "serialize_config",
    "settle_time",
    "torque_jacobian",
]


def test_public_names_are_pinned():
    names = sorted(
        name for name in dir(agrosim)
        if not name.startswith("_") and not isinstance(getattr(agrosim, name), types.ModuleType)
    )
    assert names == PUBLIC_NAMES


#: The functions agrosim.kernel defines; it defines no classes.  closed_loop
#: takes a scenario's numbers and returns the rollout that records every row
#: of a run, so a second path to a row (a command-only helper, a per-step
#: function or a law factory beside the rollout) is a change to this list.
#: ``_function`` compiles the per-axis formulas into the rollout and into
#: drift's function, which demo 01 uses outside a run.  A row carries the
#: clamped command and e2, so no function beside the rollout computes either.
KERNEL_FUNCTIONS = [
    "_function",
    "closed_loop",
    "drift",
    "floats",
]


def test_config_names_resolve_from_the_package():
    # served by the package's __getattr__, so agrosim.config loads on first use
    from agrosim import config, control, parse_config
    from agrosim.config import GAIN_FIELDS

    assert agrosim.load_config is config.load_config
    assert parse_config is config.parse_config
    assert agrosim.serialize_config is config.serialize_config
    assert GAIN_FIELDS is control.GAIN_FIELDS
    assert {"load_config", "parse_config", "serialize_config"} <= set(dir(agrosim))
    with pytest.raises(AttributeError, match="module 'agrosim' has no attribute 'not_a_name'"):
        agrosim.not_a_name


#: The 3-vectors of a rollout row, in the order the rollout writes them:
#: the one statement of a run's columns, which ``sim._rows`` names and the
#: tests' ``rollout_rows`` reads.
KERNEL_ROW = ("attitude", "rate", "l_hat", "u_cmd", "u_sat", "l_true", "e2")


def test_kernel_surface_is_pinned():
    from agrosim import kernel

    assert kernel.ROW == KERNEL_ROW

    defined = {
        name: value for name, value in vars(kernel).items()
        if getattr(value, "__module__", None) == kernel.__name__
    }
    assert sorted(name for name, v in defined.items() if inspect.isfunction(v)) == KERNEL_FUNCTIONS
    assert [name for name, v in defined.items() if inspect.isclass(v)] == []


#: The option strings of each ``agrosim`` command.  A flag that nothing
#: sets, or a second way to name a scenario, is a change to this list.
CLI_OPTIONS = {
    "run": ["--config", "--dt", "--help", "--horizon", "--no-svg", "--out", "--preset",
            "--seed", "-h"],
    "compare": ["--config", "--dt", "--help", "--horizon", "--no-svg", "--out", "--preset",
                "--seed", "-h"],
    "sweep": ["--config", "--dt", "--help", "--horizon", "--out", "--param", "--preset",
              "--seed", "--values", "-h"],
}


def test_cli_manifest_is_pinned():
    import argparse

    from agrosim import cli

    (commands,) = [a for a in cli._parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    assert {name: sorted(o for a in p._actions for o in a.option_strings)
            for name, p in commands.choices.items()} == CLI_OPTIONS
    # --preset and --config append to one list of sources, in command-line
    # order, so no source is dropped or reordered
    for name, p in commands.choices.items():
        (dest,) = {a.dest for a in p._actions if {"--preset", "--config"} & set(a.option_strings)}
        extra = ["--param", "k1", "--values", "1"] if name == "sweep" else []
        args = p.parse_args(["--config", "a.json", "--preset", "fl-paper", "--config", "b.json"]
                            + extra)
        assert getattr(args, dest) == [(None, "a.json"), ("fl-paper", None), (None, "b.json")]


#: The fields of a scenario.  The type of ``gains`` is the controller, so a
#: second statement of it (a name, a flag) is a change to this list.
SCENARIO_FIELDS = [
    "inertias",
    "steering",
    "initial",
    "reference",
    "gains",
    "u_max",
    "dt",
    "horizon",
    "disturbance",
    "adaptation_enabled",
]


def test_scenario_fields_are_pinned():
    assert [f.name for f in dataclasses.fields(agrosim.ScenarioConfig)] == SCENARIO_FIELDS


def test_source_modules_use_every_import():
    # no linter runs on this package, so a simplification that deletes the
    # last use of an import is caught here; __init__ imports to re-export
    src = pathlib.Path(agrosim.__file__).parent
    unused = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    bound[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in bound.items()
                   if name not in used]
    assert unused == []


def test_only_workers_splits_work():
    # agrosim.workers alone decides how many workers there are, which
    # items each runs and where, so no other module counts CPUs, forks or
    # moves a process to a CPU
    src = pathlib.Path(agrosim.__file__).parent
    field = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}  # fork, os.fork, import
    named = []
    for path in sorted(src.glob("*.py")):
        if path.name == "workers.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = getattr(node, field.get(type(node), ""), None)
            if name in ("count", "fork", "sched_getaffinity", "sched_setaffinity"):
                named.append(f"{path.name}:{node.lineno} {name}")
    assert named == []


def test_every_error_survives_pickle():
    # scenarios run in worker processes send their failures back pickled
    import pickle

    from agrosim import errors

    args = {errors.AllocationSingularityError: (0.5, 0.5, 1e-6),
            errors.DivergenceError: (3, 0.003)}
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.AgroSimError)]
    assert len(classes) == 9
    for cls in classes:
        exc = cls(*args.get(cls, ("a message",)))
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls
        assert str(back) == str(exc)
        for attr in ("step", "t", "delta1", "delta2", "tol"):
            assert getattr(back, attr, None) == getattr(exc, attr, None)
