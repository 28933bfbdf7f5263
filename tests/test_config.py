import dataclasses
import importlib
import json
import math
import re
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import agrosim
from agrosim import (
    BodyState,
    BsGains,
    ConfigError,
    DisturbanceBudgetError,
    DisturbanceSpec,
    FlGains,
    InertiaSet,
    InvalidParameterError,
    Reference,
    ScenarioConfig,
    SteeringConfig,
    WheelGeometry,
    parse_config,
    run_scenario,
    serialize_config,
)
from agrosim.presets import (
    bs_adaptive_paper,
    bs_paper,
    fl_paper,
    override,
    paper_inertias,
    preset,
    preset_names,
)

README = Path(__file__).resolve().parents[1] / "README.md"


def test_minimal_preset_document():
    cfg = parse_config('{"preset": "fl-paper"}')
    assert cfg == fl_paper()


def test_preset_names_exist():
    assert set(preset_names()) == {"fl-paper", "bs-paper", "bs-adaptive-paper"}
    for name in preset_names():
        preset(name)


def test_preset_parameterizations_pinned():
    fl = preset("fl-paper")
    np.testing.assert_array_equal(fl.gains.k1, [19.9977] * 3)
    np.testing.assert_array_equal(fl.gains.k2, [122.6497] * 3)
    for cfg in (fl, preset("bs-paper"), preset("bs-adaptive-paper")):
        assert cfg.u_max == 32.1521
        assert cfg.dt == 1e-3 and cfg.horizon == 1.5
        np.testing.assert_allclose(
            cfg.initial.attitude, np.deg2rad([-22.5, 22.5, 0.0]), atol=1e-15)
        np.testing.assert_array_equal(cfg.initial.rate, 0.0)
        assert cfg.steering == SteeringConfig.isotropic()
        np.testing.assert_array_equal(cfg.inertias.j_body, [0.662, 0.940, 1.448])
        np.testing.assert_array_equal(
            cfg.inertias.j_wheel, [0.006565, 0.011689, 0.006565])
        np.testing.assert_array_equal(
            cfg.inertias.j_reflected, [0.3055, 0.4103, 0.7158])
        np.testing.assert_array_equal(cfg.reference.x_d, 0.0)

    bs = preset("bs-paper")
    np.testing.assert_array_equal(bs.gains.k1, [20.0] * 3)
    np.testing.assert_array_equal(bs.gains.k2, [1800.0] * 3)
    for w in (bs.gains.gamma, bs.gains.lam, bs.gains.sigma):
        np.testing.assert_array_equal(w, [1.0] * 3)
    assert not bs.adaptation_enabled and bs.disturbance is None

    ad = preset("bs-adaptive-paper")
    np.testing.assert_array_equal(ad.gains.k1, [10.0] * 3)
    np.testing.assert_array_equal(ad.gains.k2, [200.0] * 3)
    np.testing.assert_array_equal(ad.gains.sigma, [0.0005] * 3)
    assert ad.adaptation_enabled
    d = ad.disturbance
    np.testing.assert_allclose(d.offset, 0.15 * 32.1521, rtol=1e-15)
    np.testing.assert_allclose(d.sine_amp, 0.15 * 32.1521, rtol=1e-15)
    assert d.sine_freq == 2.0
    np.testing.assert_allclose(3.0 * d.noise_sigma, 0.05 * 32.1521, rtol=1e-12)


def test_preset_overrides():
    cfg = parse_config('{"preset": "bs-paper", "dt": 0.0005, "horizon": 2.0}')
    assert cfg.dt == 0.0005 and cfg.horizon == 2.0
    cfg = parse_config('{"preset": "bs-adaptive-paper", "seed": 99}')
    assert cfg.disturbance.seed == 99


def test_preset_rejects_inapplicable_override():
    with pytest.raises(ConfigError):
        parse_config('{"preset": "fl-paper", "seed": 3}')
    with pytest.raises(ConfigError):
        parse_config('{"preset": "fl-paper", "u_max": 10}')


def test_preset_seed_without_disturbance_is_a_config_error():
    with pytest.raises(ConfigError, match="seed applies only to scenarios with a disturbance"):
        preset("fl-paper", seed=3)


def test_negative_preset_seed_rejected():
    for seed in (-1, -(2**40)):
        with pytest.raises(InvalidParameterError, match=str(seed)):
            preset("bs-adaptive-paper", seed=seed)
        with pytest.raises(InvalidParameterError, match=str(seed)):
            parse_config(json.dumps({"preset": "bs-adaptive-paper", "seed": seed}))


def test_unknown_preset():
    with pytest.raises(ConfigError) as err:
        parse_config('{"preset": "nope"}')
    assert "nope" in str(err.value)


_FULL_DOC = {
    "controller": "backstepping",
    "gains": {"k1": 10.0, "k2": 200.0, "sigma": 0.0005},
    "steering": {"delta1": 45.0, "delta2": -45.0},
    "initial": {"attitude": [-22.5, 22.5, 0.0]},
    "u_max": 32.1521,
    "adaptation_enabled": True,
    "disturbance": {
        "offset": 4.0, "sine_amp": [4.0, 4.0, 0.0], "sine_freq": 2.0,
        "noise_sigma": 0.5, "seed": 7,
    },
}


def test_full_document_parses():
    cfg = parse_config(json.dumps(_FULL_DOC))
    assert isinstance(cfg.gains, BsGains)
    np.testing.assert_array_equal(cfg.gains.sigma, [0.0005] * 3)
    np.testing.assert_array_equal(cfg.gains.gamma, [1.0] * 3)  # default
    assert cfg.inertias == paper_inertias()  # default
    assert cfg.dt == 1e-3 and cfg.horizon == 1.5  # defaults
    assert cfg.disturbance.seed == 7
    np.testing.assert_array_equal(cfg.disturbance.offset, [4.0] * 3)


def test_degree_boundary():
    cfg = parse_config(json.dumps(_FULL_DOC))
    np.testing.assert_allclose(
        cfg.initial.attitude, [-0.39269908169872414, 0.39269908169872414, 0.0],
        atol=1e-12,
    )
    np.testing.assert_allclose(cfg.steering.delta1, np.pi / 4.0, atol=1e-12)


def test_unknown_keys_rejected_with_name():
    doc = dict(_FULL_DOC)
    doc["bogus_key"] = 1
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert "bogus_key" in str(err.value)

    doc = json.loads(json.dumps(_FULL_DOC))
    doc["gains"]["nope"] = 2.0
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert "nope" in str(err.value)

    # a backstepping weight is not an FL gain
    doc = {"controller": "fl", "gains": {"k1": 1.0, "k2": 2.0, "gamma": 1.0}, "u_max": 10.0}
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert "gains.'gamma'" in str(err.value)


def test_missing_required_key_named():
    with pytest.raises(ConfigError) as err:
        parse_config('{"controller": "fl", "u_max": 1.0}')
    assert "gains" in str(err.value)


def test_type_errors():
    with pytest.raises(ConfigError):
        parse_config("[1, 2, 3]")
    with pytest.raises(ConfigError):
        parse_config("{not json")
    doc = json.loads(json.dumps(_FULL_DOC))
    doc["u_max"] = "big"
    with pytest.raises(ConfigError):
        parse_config(json.dumps(doc))
    doc = json.loads(json.dumps(_FULL_DOC))
    doc["adaptation_enabled"] = "yes"
    with pytest.raises(ConfigError):
        parse_config(json.dumps(doc))
    # a bad value is named by its full dotted key
    doc = json.loads(json.dumps(_FULL_DOC))
    doc["inertias"] = {"j_body": 1.0, "j_wheel": 0.01, "j_reflected": 0.5,
                       "geometry": {"a": "x", "b": 0.3, "c": 0.05, "m_w": 2.0}}
    with pytest.raises(ConfigError, match=r"'inertias\.geometry\.a' must be a number, got 'x'"):
        parse_config(json.dumps(doc))
    # null stands for "none" only where there can be none: no geometry, no
    # disturbance, unlimited torque; the other objects reject it by name
    for key in ("inertias", "steering", "initial", "reference"):
        doc = json.loads(json.dumps(_FULL_DOC))
        doc[key] = None
        with pytest.raises(ConfigError, match=f"'{key}' must be an object, got None"):
            parse_config(json.dumps(doc))
    doc = json.loads(json.dumps(_FULL_DOC))
    doc.update(disturbance=None, u_max=None, adaptation_enabled=False)
    doc["inertias"] = {"j_body": 1.0, "j_wheel": 0.01, "j_reflected": 0.5, "geometry": None}
    cfg = parse_config(json.dumps(doc))
    assert cfg.disturbance is None and cfg.inertias.geometry is None and cfg.u_max == math.inf


@pytest.mark.parametrize("edit, key, rule", [
    ({"dt": math.nan}, "dt", "finite, got nan"),
    ({"disturbance": {**_FULL_DOC["disturbance"], "seed": 1.5}}, "disturbance.seed",
     "an integer, got 1.5"),
    ({"preset": 3}, "preset", "a string, got 3"),
    ({"disturbance": {**_FULL_DOC["disturbance"], "offset": [1, 2]}}, "disturbance.offset",
     r"a number or a list of 3 numbers, got \[1, 2\]"),
    ({"controller": "pd"}, "controller", "'fl' or 'backstepping', got 'pd'"),
    ({"angle_units": "grad"}, "angle_units", "'deg' or 'rad', got 'grad'"),
], ids=["nan", "seed", "preset", "offset", "controller", "angle_units"])
def test_schema_rejects_a_bad_value_by_its_dotted_key(edit, key, rule):
    doc = edit if "preset" in edit else {**_FULL_DOC, **edit}
    with pytest.raises(ConfigError, match=f"^'{re.escape(key)}' must be {rule}$"):
        parse_config(json.dumps(doc))


def test_invalid_parameter_propagates():
    doc = json.loads(json.dumps(_FULL_DOC))
    doc["u_max"] = -1.0
    with pytest.raises(InvalidParameterError):
        parse_config(json.dumps(doc))


def test_disturbance_budget_propagates():
    doc = json.loads(json.dumps(_FULL_DOC))
    doc["disturbance"]["offset"] = 0.5 * 32.1521
    with pytest.raises(DisturbanceBudgetError):
        parse_config(json.dumps(doc))


def test_angle_units_rad():
    doc = {
        "angle_units": "rad",
        "controller": "fl",
        "gains": {"k1": 1.0, "k2": 2.0},
        "initial": {"attitude": [0.5, 0.0, 0.0]},
        "u_max": 10.0,
    }
    cfg = parse_config(json.dumps(doc))
    assert cfg.initial.attitude[0] == 0.5


def test_omitted_fields_take_the_type_defaults():
    # whatever the angle units, a minimal document gets isotropic steering,
    # the ScenarioConfig step and horizon, the Reference bound and identity
    # backstepping weights
    for units in ("deg", "rad"):
        doc = {"angle_units": units, "controller": "backstepping",
               "gains": {"k1": 1.0, "k2": 2.0}, "u_max": 10.0}
        cfg = parse_config(json.dumps(doc))
        assert cfg.steering == SteeringConfig.isotropic()
        assert cfg == ScenarioConfig(
            inertias=paper_inertias(), steering=SteeringConfig.isotropic(),
            initial=BodyState.zero(), reference=Reference.zero(),
            gains=BsGains(1.0, 2.0), u_max=10.0,
        )


def test_readme_json_example_runs():
    text = README.read_text(encoding="utf-8")
    (example,) = re.findall(r"```json\n(.*?)```", text, re.S)
    cfg = override(parse_config(example), horizon=0.05)
    record, metrics = run_scenario(cfg)
    assert len(record) == 51
    assert np.isfinite(record.attitude).all()


def test_readme_names_only_bench_files_that_exist():
    # each README figure points at the benchmark record that measured it
    named = set(re.findall(r"BENCH_\w+\.json", README.read_text(encoding="utf-8")))
    assert named
    assert sorted(name for name in named if not (README.parent / name).is_file()) == []


def _resolves(dotted: str) -> bool:
    """Whether ``dotted`` names a module of the package, or a name in one,
    importing each module on the way as Python would."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 2):
        if not hasattr(obj, part):
            try:
                importlib.import_module(".".join(parts[:i]))
            except ImportError:
                return False
        try:
            obj = getattr(obj, part)
        except AttributeError:
            return False
    return True


def test_readme_code_references_resolve():
    # each backticked agrosim.<module>[.<name>...] (a call's arguments
    # aside) and <module>._<name> names code that exists
    text = README.read_text(encoding="utf-8")
    modules = {path.stem for path in Path(agrosim.__file__).parent.glob("*.py")}
    named = set(re.findall(r"`(agrosim(?:\.\w+)+)(?:\([^`]*\))?`", text))
    named |= {f"agrosim.{module}.{name}"
              for module, name in re.findall(r"`(\w+)\.(_\w+)`", text) if module in modules}
    assert "agrosim.workers.run" in named
    assert sorted(name for name in named if not _resolves(name)) == []


def test_round_trip_presets():
    for build in (fl_paper, bs_paper, bs_adaptive_paper):
        cfg = build()
        assert parse_config(serialize_config(cfg)) == cfg


def test_round_trip_with_geometry():
    geom = WheelGeometry(0.52, 0.32, 0.05, 2.0)
    inertias = InertiaSet.from_geometry(
        [0.662, 0.940, 1.448], [0.006565, 0.011689, 0.006565],
        geom, SteeringConfig.isotropic(), 0.7158,
    )
    cfg = ScenarioConfig(
        inertias=inertias,
        steering=SteeringConfig.isotropic(),
        initial=BodyState(np.array([0.1, -0.2, 0.05]), np.array([0.3, 0.0, -0.1])),
        reference=Reference(np.array([0.05, 0.0, 0.0]), 0.0, 0.0),
        gains=BsGains(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0]),
                      np.array([0.5, 0.5, 2.0]), np.array([1.5, 1.0, 1.0]),
                      np.array([0.1, 0.2, 0.3])),
        u_max=12.0,
        dt=2e-3,
        horizon=0.8,
        disturbance=DisturbanceSpec(np.array([1.0, 0.0, -1.0]), np.full(3, 0.5),
                                    3.0, np.array([0.1, 0.2, 0.3]),
                                    np.full(3, 0.05), seed=11),
        adaptation_enabled=True,
    )
    assert parse_config(serialize_config(cfg)) == cfg


def _vec3(lo, hi):
    return st.tuples(*[st.floats(lo, hi) for _ in range(3)]).map(np.array)


@st.composite
def _controllers(draw, u_max):
    """Gains, adaptation flag and an in-budget disturbance (or none)."""
    if draw(st.booleans()):
        return FlGains(draw(st.floats(0.1, 100.0)), draw(st.floats(0.1, 1000.0))), False, None
    gains = BsGains(draw(_vec3(0.1, 100.0)), draw(_vec3(0.1, 2000.0)),
                    draw(_vec3(0.1, 10.0)), draw(_vec3(0.1, 10.0)), draw(_vec3(1e-4, 10.0)))
    disturbance = None
    if draw(st.booleans()):
        budget = 32.1521 if math.isinf(u_max) else u_max
        disturbance = DisturbanceSpec(
            offset=draw(_vec3(-0.2 * budget, 0.2 * budget)),
            sine_amp=draw(_vec3(-0.2 * budget, 0.2 * budget)),
            sine_freq=draw(st.floats(0.0, 20.0)),
            sine_phase=draw(_vec3(-math.pi, math.pi)),
            noise_sigma=draw(_vec3(0.0, 0.05 * budget / 3.0)),
            seed=draw(st.integers(0, 2**32 - 1)),
        )
    return gains, draw(st.booleans()), disturbance


@st.composite
def _inertias(draw, steering):
    """Inertias with or without a wheel geometry, whose reflected roll and
    pitch entries it then gives."""
    j_body, j_wheel = draw(_vec3(0.1, 2.0)), draw(_vec3(1e-3, 0.05))
    if draw(st.booleans()):
        return InertiaSet(j_body, j_wheel, draw(_vec3(0.05, 1.0)))
    geometry = WheelGeometry(draw(st.floats(0.1, 1.0)), draw(st.floats(0.1, 1.0)),
                             draw(st.floats(0.0, 0.2)), draw(st.floats(0.5, 5.0)))
    return InertiaSet.from_geometry(j_body, j_wheel, geometry, steering,
                                    draw(st.floats(0.05, 1.0)))


@st.composite
def _references(draw):
    """A reference whose bound rho is at least its magnitude."""
    x_d, xd_dot, xd_ddot = (draw(_vec3(-1.0, 1.0)) for _ in range(3))
    total = float(x_d @ x_d + xd_dot @ xd_dot + xd_ddot @ xd_ddot)
    return Reference(x_d, xd_dot, xd_ddot, rho=total + draw(st.floats(0.0, 100.0)))


@given(
    att=st.tuples(*[st.floats(-0.7, 0.7) for _ in range(3)]),
    rate=st.tuples(*[st.floats(-2.0, 2.0) for _ in range(3)]),
    u_max=st.one_of(st.floats(0.5, 100.0), st.just(math.inf)),
    dt=st.floats(1e-4, 1e-2),
    n_steps=st.integers(1, 5000),
    data=st.data(),
)
@settings(max_examples=60)
def test_round_trip_random_fl_configs(att, rate, u_max, dt, n_steps, data):
    # FL and backstepping configs alike, with any steering, reference and
    # inertias (with or without geometry), so every key of the schema is
    # round-tripped; the horizon is a whole number of steps
    gains, adapt, disturbance = data.draw(_controllers(u_max))
    steering = data.draw(st.one_of(
        st.just(SteeringConfig.isotropic()),
        st.builds(SteeringConfig, st.floats(0.1, 1.4), st.floats(-1.4, -0.1)),
    ))
    cfg = ScenarioConfig(
        inertias=data.draw(_inertias(steering)),
        steering=steering,
        initial=BodyState(np.array(att), np.array(rate)),
        reference=data.draw(st.one_of(st.just(Reference.zero()), _references())),
        gains=gains,
        u_max=u_max,
        dt=dt,
        horizon=n_steps * dt,
        disturbance=disturbance,
        adaptation_enabled=adapt,
    )
    text = serialize_config(cfg)
    assert parse_config(text) == cfg
    doc = json.loads(text, parse_constant=_reject_non_standard)
    assert doc["u_max"] == (None if math.isinf(u_max) else u_max)


def _field_types(cls):
    """Each field of dataclass ``cls``, and the dataclasses it may hold."""
    hints = typing.get_type_hints(cls)
    return {f.name: [t for t in typing.get_args(hints[f.name]) or (hints[f.name],)
                     if dataclasses.is_dataclass(t)]
            for f in dataclasses.fields(cls)}


def test_schema_covers_every_field():
    # every object of the schema table has exactly the fields of the type it
    # builds, recursively from ScenarioConfig, so a field added to a type but
    # not to the schema fails here; angle_units and controller are no fields
    from agrosim.config import _SCENARIO, GAIN_FIELDS, _Object

    def covers(keys, cls):
        types = _field_types(cls)
        assert set(keys) == set(types), cls
        for name, held in types.items():
            kind = keys[name][0]
            if isinstance(kind, _Object):
                assert held == [kind.type]
                covers(kind.keys, kind.type)
            else:  # a value, or the gains, whose keys are GAIN_FIELDS
                assert name == "gains" or held == []
                for gains_type in held:
                    assert set(_field_types(gains_type)) <= set(GAIN_FIELDS.values())

    covers({k: v for k, v in _SCENARIO.items() if k not in ("angle_units", "controller")},
           ScenarioConfig)


def _reject_non_standard(token):
    raise ValueError(f"non-standard JSON token {token}")


def test_duplicate_keys_are_rejected():
    # JSON keeps the last of two equal keys, which would run a document other
    # than the one written: a key given twice is named by its dotted key
    with pytest.raises(ConfigError, match=r"^duplicate key 'preset'$"):
        parse_config('{"preset": "bs-paper", "preset": "fl-paper"}')
    with pytest.raises(ConfigError, match=r"^duplicate key 'horizon'$"):
        parse_config('{"preset": "bs-paper", "horizon": 0.5, "horizon": 1.0}')
    text = serialize_config(preset("bs-adaptive-paper"))
    nested = text.replace('"offset": [', '"offset": [0.0, 0.0, 0.0], "offset": [')
    assert nested.count('"offset"') == 2
    with pytest.raises(ConfigError, match=r"^duplicate key 'disturbance\.offset'$"):
        parse_config(nested)


def test_legacy_infinity_token_still_parses():
    text = serialize_config(preset("fl-paper"))
    legacy = text.replace('"u_max": 32.1521', '"u_max": Infinity')
    assert legacy != text
    assert parse_config(legacy).u_max == math.inf
