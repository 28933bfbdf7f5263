"""JSON scenario configuration: parsing, validation, serialization.

A document either names a ``preset`` (optionally overriding ``dt``,
``horizon``, ``seed``, applied by :func:`agrosim.presets.preset`) or spells
out a full scenario.  The full-document schema is written once, in the
table ``_SCENARIO`` that :func:`parse_config` and :func:`serialize_config`
both read: for each key, its kind (number, integer, boolean, 3-vector,
angle, angle 3-vector, or an object of the type whose fields are its keys)
and the value an omitted key takes (required, a default, or left to the
type, which then supplies its own).  Unknown keys are rejected, and a bad
value is named by its full dotted key.  ``null`` is read only for
``inertias.geometry`` and ``disturbance`` (none) and ``u_max`` (unlimited).

Hand-written documents use degrees for every angular quantity (steering
angles, attitudes, rates, reference signals, sine phases); torques are N m
and times seconds.  ``"controller"`` (:data:`CONTROLLER_FL` or
:data:`CONTROLLER_BS`) selects the gains type, which is the scenario's
controller; ``"gains"`` takes the keys of
:data:`agrosim.control.GAIN_FIELDS` whose fields that type has.

:func:`serialize_config` emits ``"angle_units": "rad"`` and raw internal
values, because degree/radian conversion is not bit-exact in floating point;
parsing such a document reproduces the original configuration exactly.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Any, Callable, NamedTuple

import numpy as np

from . import presets
from .control import GAIN_FIELDS, BsGains, FlGains, Reference
from .dynamics import BodyState, InertiaSet, SteeringConfig, WheelGeometry
from .errors import ConfigError
from .sim import DisturbanceSpec, ScenarioConfig

#: The schema's ``controller`` names, and the gains type each one selects.
CONTROLLER_FL = "fl"
CONTROLLER_BS = "backstepping"
_GAINS_TYPES = {CONTROLLER_FL: FlGains, CONTROLLER_BS: BsGains}

_REQUIRED = object()  # an omitted key is an error
_TYPE = object()  # an omitted key is not passed on: the type's default applies


def _number(value: Any, key: str, allow_inf: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key!r} must be a number, got {value!r}")
    v = float(value)
    if math.isnan(v) or (not allow_inf and math.isinf(v)):
        raise ConfigError(f"{key!r} must be finite, got {v!r}")
    return v


def _torque_limit(value: Any, key: str) -> float:
    """``u_max``: null means unlimited; the legacy token ``Infinity`` is
    still read."""
    return math.inf if value is None else _number(value, key, allow_inf=True)


def _integer(value: Any, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key!r} must be an integer, got {value!r}")
    return value


def _boolean(value: Any, key: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{key!r} must be a boolean, got {value!r}")
    return value


def _string(value: Any, key: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{key!r} must be a string, got {value!r}")
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


def _same(value: Any) -> Any:
    return value


class _Document(dict):
    """A JSON object of a document, and a key it gives twice (None if none),
    which :func:`_read_keys` rejects: JSON would keep the last value."""

    repeated = None


def _document(pairs: list) -> _Document:
    obj = _Document(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        obj.repeated = next(key for i, key in enumerate(keys) if key in keys[:i])
    return obj


def _read_keys(keys: dict, obj: _Document, prefix: str, settings: dict) -> dict:
    """The keyword arguments that document object ``obj`` gives its type.

    ``keys`` maps each key to its kind and the value an omitted key takes:
    :data:`_REQUIRED`, :data:`_TYPE`, a document value read as if given, or
    a function that builds the value.  A key whose omitted value is None
    also reads ``null`` as None.  A setting's value goes into ``settings``
    (keyed by the setting), where the keys after it read it.
    """
    if obj.repeated is not None:
        raise ConfigError(f"duplicate key {prefix + obj.repeated!r}")
    for key in obj:
        if key not in keys:
            raise ConfigError(f"unknown key {prefix}{key!r}")
    values = {}
    for key, (kind, omitted) in keys.items():
        value = obj.get(key, omitted)
        if value is _REQUIRED:
            raise ConfigError(f"missing required key {prefix}{key!r}")
        if value is _TYPE:
            continue
        if callable(value):
            value = value()
        elif value is not None or omitted is not None:
            value = kind.read(value, prefix + key, settings)
        if isinstance(kind, _Setting):
            settings[kind] = value
        else:
            values[key] = value
    return values


class _Value(NamedTuple):
    """A key holding one value, checked by ``check(value, key)`` and, for an
    ``angle``, converted by the document's ``angle_units``; ``write`` gives
    the document value of a scenario's value."""

    check: Callable[[Any, str], Any]
    write: Callable[[Any], Any] = _same
    angle: bool = False

    def read(self, value: Any, key: str, settings: dict) -> Any:
        value = self.check(value, key)
        return settings[_UNITS](value) if self.angle else value


class _Object(NamedTuple):
    """A key holding an object: the type it builds and, per key, the key's
    kind and omitted value (see :func:`_read_keys`)."""

    type: type
    keys: dict

    def read(self, value: Any, key: str, settings: dict) -> Any:
        return self.type(**_read_keys(self.keys, _obj(value, key), key + ".", settings))

    def write(self, obj: Any) -> Any:
        """The document object of ``obj``, None for none; a key without a
        value (no geometry) is left out."""
        if obj is None:
            return None
        return {key: kind.write(getattr(obj, key)) for key, (kind, _) in self.keys.items()
                if getattr(obj, key) is not None}


class _Setting:
    """A top-level key that is no scenario field: its value names one of
    ``choices``, which the keys after it read, and ``write(config)`` names
    the choice a scenario is written with."""

    def __init__(self, choices: dict, write: Callable[[ScenarioConfig], str]):
        self.choices, self.write = choices, write

    def read(self, value: Any, key: str, settings: dict) -> Any:
        if not (isinstance(value, str) and value in self.choices):
            raise ConfigError(
                f"{key!r} must be {' or '.join(map(repr, self.choices))}, got {value!r}"
            )
        return self.choices[value]


class _Gains:
    """``gains``: the :data:`GAIN_FIELDS` keys whose fields the controller's
    gains type has, each a 3-vector, required where the field has no
    default."""

    def read(self, value: Any, key: str, settings: dict) -> Any:
        gains_type = settings[_CONTROLLER]
        omitted = {f.name: _REQUIRED if f.default is dataclasses.MISSING else _TYPE
                   for f in dataclasses.fields(gains_type)}
        keys = {k: (_VECTOR, omitted[name]) for k, name in GAIN_FIELDS.items() if name in omitted}
        given = _read_keys(keys, _obj(value, key), key + ".", settings)
        return gains_type(**{GAIN_FIELDS[k]: v for k, v in given.items()})

    def write(self, gains: Any) -> dict:
        return {key: list(getattr(gains, name)) for key, name in GAIN_FIELDS.items()
                if hasattr(gains, name)}


_NUMBER = _Value(_number)
_INTEGER = _Value(_integer)
_VECTOR = _Value(_vec3, list)
_ANGLE = _Value(_number, angle=True)
_ANGLES = _Value(_vec3, list, angle=True)
_UNITS = _Setting({"deg": np.deg2rad, "rad": _same}, lambda config: "rad")
_CONTROLLER = _Setting(_GAINS_TYPES, lambda config: next(
    name for name, gains_type in _GAINS_TYPES.items() if isinstance(config.gains, gains_type)))

#: The full-document schema, in document order.
_SCENARIO = {
    "angle_units": (_UNITS, "deg"),
    "controller": (_CONTROLLER, _REQUIRED),
    "gains": (_Gains(), _REQUIRED),
    "inertias": (_Object(InertiaSet, {
        "j_body": (_VECTOR, _REQUIRED), "j_wheel": (_VECTOR, _REQUIRED),
        "j_reflected": (_VECTOR, _REQUIRED),
        "geometry": (_Object(WheelGeometry, {
            "a": (_NUMBER, _REQUIRED), "b": (_NUMBER, _REQUIRED),
            "c": (_NUMBER, _REQUIRED), "m_w": (_NUMBER, _REQUIRED),
        }), None),
    }), presets.paper_inertias),
    "steering": (_Object(SteeringConfig, {
        "delta1": (_ANGLE, _REQUIRED), "delta2": (_ANGLE, _REQUIRED),
    }), SteeringConfig.isotropic),
    "initial": (_Object(BodyState, {
        "attitude": (_ANGLES, 0.0), "rate": (_ANGLES, 0.0),
    }), BodyState.zero),
    "reference": (_Object(Reference, {
        "x_d": (_ANGLES, 0.0), "xd_dot": (_ANGLES, 0.0),
        "xd_ddot": (_ANGLES, 0.0), "rho": (_NUMBER, _TYPE),
    }), Reference.zero),
    "u_max": (_Value(_torque_limit, lambda u: None if math.isinf(u) else u), _REQUIRED),
    "dt": (_NUMBER, _TYPE),
    "horizon": (_NUMBER, _TYPE),
    "adaptation_enabled": (_Value(_boolean), _TYPE),
    "disturbance": (_Object(DisturbanceSpec, {
        "offset": (_VECTOR, 0.0), "sine_amp": (_VECTOR, 0.0),
        "sine_freq": (_NUMBER, 0.0), "sine_phase": (_ANGLES, 0.0),
        "noise_sigma": (_VECTOR, 0.0), "seed": (_INTEGER, 0),
    }), None),
}

#: A preset document: the preset's name and its overrides.
_PRESET = {"preset": (_Value(_string), _REQUIRED), "dt": (_NUMBER, _TYPE),
           "horizon": (_NUMBER, _TYPE), "seed": (_INTEGER, _TYPE)}


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a JSON scenario document.

    Raises
    ------
    ConfigError
        For malformed JSON, duplicate or unknown keys, wrong types, or
        missing fields.
    InvalidParameterError, DisturbanceBudgetError
        Propagated from scenario construction when a value violates an
        invariant (non-positive u_max, over-budget disturbance, ...).
    """
    try:
        doc = json.loads(text, object_pairs_hook=_document)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("configuration document must be a JSON object")
    if "preset" in doc:
        overrides = _read_keys(_PRESET, doc, "", {})
        return presets.preset(overrides.pop("preset"), **overrides)
    return ScenarioConfig(**_read_keys(_SCENARIO, doc, "", {}))


def load_config(path: str) -> ScenarioConfig:
    """Parse the scenario document in the UTF-8 file at ``path``
    (:func:`parse_config`); a file that is not UTF-8 raises
    :class:`ConfigError`."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text at byte offset {exc.start} "
                          f"({exc.reason})") from None
    return parse_config(text)


def serialize_config(config: ScenarioConfig) -> str:
    """Serialize a scenario losslessly as standard JSON (angle_units is 'rad'
    on purpose: parse_config(serialize_config(c)) reconstructs c exactly;
    unlimited torque is written as ``"u_max": null``).  Every top-level key
    is written, ``"disturbance": null`` included."""
    doc = {key: kind.write(config if isinstance(kind, _Setting) else getattr(config, key))
           for key, (kind, _) in _SCENARIO.items()}
    return json.dumps(doc, indent=2, allow_nan=False)
