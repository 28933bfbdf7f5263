"""Named scenario presets and the one place scenario overrides are applied.

``fl-paper`` and ``bs-paper`` reproduce the reference airborne-recovery
comparison: isotropic steering, a throw-like initial attitude of
[-22.5, +22.5, 0] degrees, zero reference, a +/-32.1521 N m torque limit,
and the published gain sets; the type of a preset's gains is its
controller.  ``bs-adaptive-paper`` adds the disturbance study: softer
backstepping gains, the adaptation law enabled, and an offset + 2 rad/s
sine + Gaussian noise disturbance inside the 20/20/5 percent budget.  The
step and the horizon are the :class:`ScenarioConfig` defaults (1 ms, 1.5 s).

:func:`override` applies a ``dt``, ``horizon`` and disturbance ``seed``
override to any scenario; :func:`preset`, preset documents of
:mod:`agrosim.config` and the CLI's ``--dt``, ``--horizon`` and ``--seed``
all go through it.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from .control import BsGains, FlGains, Reference
from .dynamics import BodyState, InertiaSet, SteeringConfig
from .errors import ConfigError
from .sim import DisturbanceSpec, ScenarioConfig

#: Torque limit shared by all presets, N m.
PAPER_U_MAX = 32.1521

#: Published per-axis FL gains (velocity, position).
PAPER_FL_K1 = 19.9977
PAPER_FL_K2 = 122.6497

DEFAULT_SEED = 42


def paper_inertias() -> InertiaSet:
    """Chassis, wheel, and reflected inertias of the reference robot."""
    return InertiaSet(
        j_body=np.array([0.662, 0.940, 1.448]),
        j_wheel=np.array([0.006565, 0.011689, 0.006565]),
        j_reflected=np.array([0.3055, 0.4103, 0.7158]),
    )


def paper_initial_state() -> BodyState:
    return BodyState(np.deg2rad([-22.5, 22.5, 0.0]), 0.0)


def fl_paper() -> ScenarioConfig:
    """PD + feedback linearization with the published LQR-derived gains."""
    return ScenarioConfig(
        inertias=paper_inertias(),
        steering=SteeringConfig.isotropic(),
        initial=paper_initial_state(),
        reference=Reference.zero(),
        gains=FlGains(PAPER_FL_K1, PAPER_FL_K2),
        u_max=PAPER_U_MAX,
    )


def bs_paper() -> ScenarioConfig:
    """The fl-paper scenario under backstepping with the aggressive
    comparison gains (K1=20, K2=1800), adaptation off: the estimate stays
    frozen at zero."""
    return dataclasses.replace(fl_paper(), gains=BsGains(20.0, 1800.0))


def bs_adaptive_paper() -> ScenarioConfig:
    """Adaptive backstepping under the budgeted disturbance (K1=10, K2=200,
    Sigma=0.0005): offset and 2 rad/s sine at 15% of the limit each, noise
    sigma at u_max/60 so the 3-sigma extent sits on the 5% budget line."""
    return dataclasses.replace(
        bs_paper(),
        gains=BsGains(10.0, 200.0, sigma=0.0005),
        adaptation_enabled=True,
        disturbance=DisturbanceSpec(
            offset=0.15 * PAPER_U_MAX, sine_amp=0.15 * PAPER_U_MAX, sine_freq=2.0,
            sine_phase=0.0, noise_sigma=PAPER_U_MAX / 60.0, seed=DEFAULT_SEED,
        ),
    )


_PRESETS = {
    "fl-paper": fl_paper,
    "bs-paper": bs_paper,
    "bs-adaptive-paper": bs_adaptive_paper,
}


def preset_names() -> tuple[str, ...]:
    return tuple(_PRESETS)


def override(
    cfg: ScenarioConfig,
    dt: Optional[float] = None,
    horizon: Optional[float] = None,
    seed: Optional[int] = None,
) -> ScenarioConfig:
    """``cfg`` with the given step, horizon and disturbance seed.

    The overrides are applied in one replace, so a dt and a horizon that
    are valid only as a pair are checked as a pair.  ``None`` keeps the
    scenario's value.

    Raises
    ------
    ConfigError
        For a seed on a scenario without a disturbance.
    InvalidParameterError
        For an invalid step, horizon or seed.
    """
    changes = {}
    if dt is not None:
        changes["dt"] = dt
    if horizon is not None:
        changes["horizon"] = horizon
    if seed is not None:
        if cfg.disturbance is None:
            raise ConfigError("seed applies only to scenarios with a disturbance; this one has none")
        changes["disturbance"] = dataclasses.replace(cfg.disturbance, seed=seed)
    return dataclasses.replace(cfg, **changes) if changes else cfg


def preset(
    name: str,
    *,
    dt: Optional[float] = None,
    horizon: Optional[float] = None,
    seed: Optional[int] = None,
) -> ScenarioConfig:
    """The preset ``name``, with :func:`override` applied.

    Raises
    ------
    ConfigError
        For an unknown preset name, or a seed on a preset without a
        disturbance.
    """
    try:
        builder = _PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(_PRESETS)}"
        ) from None
    return override(builder(), dt=dt, horizon=horizon, seed=seed)
