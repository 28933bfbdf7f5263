"""JSON scenario configuration: parsing, validation, serialization.

Hand-written documents use degrees for every angular quantity (steering
angles, attitudes, rates, reference signals, sine phases); torques are N m
and times seconds.  A document may either name a ``preset`` (optionally
overriding ``dt``, ``horizon``, ``seed``, applied by
:func:`agrosim.presets.preset`) or spell out a full scenario.  Unknown keys
are rejected with the offending key named.  An omitted optional field is not
passed on, so the type it belongs to supplies its default: the
:class:`~agrosim.sim.ScenarioConfig` step and horizon, the
:class:`~agrosim.control.Reference` bound, the identity backstepping weights
of :class:`~agrosim.control.BsGains`, and
:meth:`~agrosim.dynamics.SteeringConfig.isotropic` steering; the reference
robot inertias and a zero initial and reference state fill the rest.

``"controller"`` (:data:`CONTROLLER_FL` or :data:`CONTROLLER_BS`) selects
the gains type, which is the scenario's controller; ``"gains"`` takes the
keys of :data:`GAIN_FIELDS` whose fields that type has.

:func:`serialize_config` emits ``"angle_units": "rad"`` and raw internal
values, because degree/radian conversion is not bit-exact in floating point;
parsing such a document reproduces the original configuration exactly.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Any, Callable, Optional, Union

import numpy as np

from . import presets
from .control import BsGains, FlGains, Reference
from .dynamics import BodyState, InertiaSet, SteeringConfig, WheelGeometry
from .errors import ConfigError
from .sim import DisturbanceSpec, ScenarioConfig

#: The schema's ``controller`` names, and the gains type each one selects.
CONTROLLER_FL = "fl"
CONTROLLER_BS = "backstepping"
_GAINS_TYPES = {CONTROLLER_FL: FlGains, CONTROLLER_BS: BsGains}

#: The schema's ``gains`` keys, in document order, and the gains field each
#: one sets.
GAIN_FIELDS = {"k1": "k1", "k2": "k2", "gamma": "gamma", "lambda": "lam", "sigma": "sigma"}

_REQUIRED = object()


def _check_keys(obj: dict, allowed: set[str], context: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown key {context}{key!r}")


def _get(obj: dict, key: str, context: str, default: Any = _REQUIRED) -> Any:
    if key in obj:
        return obj[key]
    if default is _REQUIRED:
        raise ConfigError(f"missing required key {context}{key!r}")
    return default


def _given(obj: dict, keys: tuple[str, ...], context: str, convert: Callable) -> dict:
    """Keyword arguments for those of ``keys`` present in ``obj``, each value
    checked by ``convert(value, context + key)``."""
    return {key: convert(obj[key], context + key) for key in keys if key in obj}


def _number(value: Any, key: str, allow_inf: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key!r} must be a number, got {value!r}")
    v = float(value)
    if math.isnan(v) or (not allow_inf and math.isinf(v)):
        raise ConfigError(f"{key!r} must be finite, got {v!r}")
    return v


def _torque_limit(value: Any) -> float:
    """``u_max``: null means unlimited; the legacy token ``Infinity`` is
    still read."""
    return math.inf if value is None else _number(value, "u_max", allow_inf=True)


def _integer(value: Any, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key!r} must be an integer, got {value!r}")
    return value


def _boolean(value: Any, key: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{key!r} must be a boolean, got {value!r}")
    return value


def _vec3(value: Any, key: str) -> np.ndarray:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return np.full(3, _number(value, key))
    if isinstance(value, list) and len(value) == 3:
        return np.array([_number(v, f"{key}[{i}]") for i, v in enumerate(value)])
    raise ConfigError(f"{key!r} must be a number or a list of 3 numbers, got {value!r}")


def _obj(value: Any, key: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{key!r} must be an object, got {value!r}")
    return value


def _angle_scale(units: Any) -> Callable[[Any], Any]:
    """The conversion of schema angle values to radians for ``angle_units``."""
    if units == "deg":
        return np.deg2rad
    if units == "rad":
        return lambda x: x
    raise ConfigError(f"'angle_units' must be 'deg' or 'rad', got {units!r}")


def _parse_gains(doc: dict, gains_type: type) -> Union[FlGains, BsGains]:
    obj = _obj(_get(doc, "gains", ""), "gains")
    names = {f.name for f in dataclasses.fields(gains_type)}
    _check_keys(obj, {key for key, name in GAIN_FIELDS.items() if name in names}, "gains.")
    for key in ("k1", "k2"):
        _get(obj, key, "gains.")  # required by both types
    return gains_type(**{name: _vec3(obj[key], "gains." + key)
                         for key, name in GAIN_FIELDS.items() if key in obj})


def _parse_inertias(doc: dict) -> InertiaSet:
    if "inertias" not in doc:
        return presets.paper_inertias()
    obj = _obj(doc["inertias"], "inertias")
    _check_keys(obj, {"j_body", "j_wheel", "j_reflected", "geometry"}, "inertias.")
    geometry = None
    if obj.get("geometry") is not None:
        g = _obj(obj["geometry"], "inertias.geometry")
        _check_keys(g, {"a", "b", "c", "m_w"}, "inertias.geometry.")
        geometry = WheelGeometry(
            a=_number(_get(g, "a", "inertias.geometry."), "a"),
            b=_number(_get(g, "b", "inertias.geometry."), "b"),
            c=_number(_get(g, "c", "inertias.geometry."), "c"),
            m_w=_number(_get(g, "m_w", "inertias.geometry."), "m_w"),
        )
    return InertiaSet(
        j_body=_vec3(_get(obj, "j_body", "inertias."), "inertias.j_body"),
        j_wheel=_vec3(_get(obj, "j_wheel", "inertias."), "inertias.j_wheel"),
        j_reflected=_vec3(_get(obj, "j_reflected", "inertias."), "inertias.j_reflected"),
        geometry=geometry,
    )


def _parse_disturbance(doc: dict, to_rad: Callable[[Any], Any]) -> Optional[DisturbanceSpec]:
    if doc.get("disturbance") is None:
        return None
    obj = _obj(doc["disturbance"], "disturbance")
    _check_keys(
        obj,
        {"offset", "sine_amp", "sine_freq", "sine_phase", "noise_sigma", "seed"},
        "disturbance.",
    )
    return DisturbanceSpec(
        offset=_vec3(_get(obj, "offset", "disturbance.", 0.0), "disturbance.offset"),
        sine_amp=_vec3(_get(obj, "sine_amp", "disturbance.", 0.0), "disturbance.sine_amp"),
        sine_freq=_number(_get(obj, "sine_freq", "disturbance.", 0.0), "disturbance.sine_freq"),
        sine_phase=to_rad(
            _vec3(_get(obj, "sine_phase", "disturbance.", 0.0), "disturbance.sine_phase")
        ),
        noise_sigma=_vec3(
            _get(obj, "noise_sigma", "disturbance.", 0.0), "disturbance.noise_sigma"
        ),
        seed=_integer(_get(obj, "seed", "disturbance.", 0), "disturbance.seed"),
    )


_TOP_KEYS = {
    "angle_units", "controller", "gains", "inertias", "steering", "initial",
    "reference", "u_max", "dt", "horizon", "adaptation_enabled", "disturbance",
}
_PRESET_KEYS = {"preset", "dt", "horizon", "seed"}


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a JSON scenario document.

    Raises
    ------
    ConfigError
        For malformed JSON, unknown keys, wrong types, or missing fields.
    InvalidParameterError, DisturbanceBudgetError
        Propagated from scenario construction when a value violates an
        invariant (non-positive u_max, over-budget disturbance, ...).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("configuration document must be a JSON object")

    if "preset" in doc:
        _check_keys(doc, _PRESET_KEYS, "")
        name = doc["preset"]
        if not isinstance(name, str):
            raise ConfigError(f"'preset' must be a string, got {name!r}")
        return presets.preset(name, **_given(doc, ("dt", "horizon"), "", _number),
                              **_given(doc, ("seed",), "", _integer))

    _check_keys(doc, _TOP_KEYS, "")
    to_rad = _angle_scale(_get(doc, "angle_units", "", "deg"))

    controller = _get(doc, "controller", "")
    if controller not in (CONTROLLER_FL, CONTROLLER_BS):
        raise ConfigError(
            f"'controller' must be {CONTROLLER_FL!r} or {CONTROLLER_BS!r}, got {controller!r}"
        )

    steering = SteeringConfig.isotropic()
    if "steering" in doc:
        steering_obj = _obj(doc["steering"], "steering")
        _check_keys(steering_obj, {"delta1", "delta2"}, "steering.")
        steering = SteeringConfig(
            to_rad(_number(_get(steering_obj, "delta1", "steering."), "steering.delta1")),
            to_rad(_number(_get(steering_obj, "delta2", "steering."), "steering.delta2")),
        )

    initial_obj = _obj(_get(doc, "initial", "", {}), "initial")
    _check_keys(initial_obj, {"attitude", "rate"}, "initial.")
    initial = BodyState(
        to_rad(_vec3(_get(initial_obj, "attitude", "initial.", 0.0), "initial.attitude")),
        to_rad(_vec3(_get(initial_obj, "rate", "initial.", 0.0), "initial.rate")),
    )

    ref_obj = _obj(_get(doc, "reference", "", {}), "reference")
    _check_keys(ref_obj, {"x_d", "xd_dot", "xd_ddot", "rho"}, "reference.")
    reference = Reference(
        to_rad(_vec3(_get(ref_obj, "x_d", "reference.", 0.0), "reference.x_d")),
        to_rad(_vec3(_get(ref_obj, "xd_dot", "reference.", 0.0), "reference.xd_dot")),
        to_rad(_vec3(_get(ref_obj, "xd_ddot", "reference.", 0.0), "reference.xd_ddot")),
        **_given(ref_obj, ("rho",), "reference.", _number),
    )

    return ScenarioConfig(
        inertias=_parse_inertias(doc),
        steering=steering,
        initial=initial,
        reference=reference,
        gains=_parse_gains(doc, _GAINS_TYPES[controller]),
        u_max=_torque_limit(_get(doc, "u_max", "")),
        disturbance=_parse_disturbance(doc, to_rad),
        **_given(doc, ("dt", "horizon"), "", _number),
        **_given(doc, ("adaptation_enabled",), "", _boolean),
    )


def load_config(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def serialize_config(config: ScenarioConfig) -> str:
    """Serialize a scenario losslessly as standard JSON (angle_units is 'rad'
    on purpose: parse_config(serialize_config(c)) reconstructs c exactly;
    unlimited torque is written as ``"u_max": null``)."""
    gains = {key: list(getattr(config.gains, name)) for key, name in GAIN_FIELDS.items()
             if hasattr(config.gains, name)}
    controller = next(name for name, gains_type in _GAINS_TYPES.items()
                      if isinstance(config.gains, gains_type))

    inertias: dict[str, Any] = {
        "j_body": list(config.inertias.j_body),
        "j_wheel": list(config.inertias.j_wheel),
        "j_reflected": list(config.inertias.j_reflected),
    }
    if config.inertias.geometry is not None:
        g = config.inertias.geometry
        inertias["geometry"] = {"a": g.a, "b": g.b, "c": g.c, "m_w": g.m_w}

    disturbance = None
    if config.disturbance is not None:
        d = config.disturbance
        disturbance = {
            "offset": list(d.offset),
            "sine_amp": list(d.sine_amp),
            "sine_freq": d.sine_freq,
            "sine_phase": list(d.sine_phase),
            "noise_sigma": list(d.noise_sigma),
            "seed": d.seed,
        }

    doc = {
        "angle_units": "rad",
        "controller": controller,
        "gains": gains,
        "inertias": inertias,
        "steering": {"delta1": config.steering.delta1, "delta2": config.steering.delta2},
        "initial": {
            "attitude": list(config.initial.attitude),
            "rate": list(config.initial.rate),
        },
        "reference": {
            "x_d": list(config.reference.x_d),
            "xd_dot": list(config.reference.xd_dot),
            "xd_ddot": list(config.reference.xd_ddot),
            "rho": config.reference.rho,
        },
        "u_max": None if math.isinf(config.u_max) else config.u_max,
        "dt": config.dt,
        "horizon": config.horizon,
        "adaptation_enabled": config.adaptation_enabled,
        "disturbance": disturbance,
    }
    return json.dumps(doc, indent=2, allow_nan=False)
