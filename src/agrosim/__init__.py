"""Airborne attitude stabilization of a 4WIDS robot: dynamics, controllers,
and a deterministic closed-loop simulator.

The package splits along the problem structure:

- :mod:`agrosim.kernel` -- the closed-loop stage kernel on plain floats:
  drift term, both control laws, velocity error, adaptation law,
  disturbance torque, clamp and RK4 step, each written once.
- :mod:`agrosim.dynamics` -- state and inertia types, the effective
  inertias of the attitude equations, the wheel-torque Jacobian and its
  inverse (wheel allocation, vectorised over rows).
- :mod:`agrosim.control` -- gain and reference types for the
  PD + feedback-linearization and adaptive backstepping laws, the
  Lyapunov function V2 and the double-integrator LQR.
- :mod:`agrosim.sim` -- the scenario type, the fixed-step RK4 rollout with
  torque saturation and disturbance injection, trajectory recording,
  CSV output and metrics.
- :mod:`agrosim.presets` / :mod:`agrosim.config` -- named reference
  scenarios and the JSON configuration schema.  The schema's
  :func:`load_config`, :func:`parse_config` and :func:`serialize_config`
  are served from here, and :mod:`agrosim.config` is imported on first use
  of one of them.
- :mod:`agrosim.cli` -- the ``agrosim`` command (run / compare / sweep).
"""

from .control import (
    BsGains,
    FlGains,
    LqrGains,
    Reference,
    lqr_double_integrator,
    lyapunov,
)
from .dynamics import (
    SINGULARITY_TOL,
    BodyState,
    EffectiveInertias,
    InertiaSet,
    SteeringConfig,
    WheelGeometry,
    allocate_wheel_torques,
    effective_inertias,
    reflected_inertia,
    torque_jacobian,
)
from .errors import (
    AgroSimError,
    AllocationSingularityError,
    ComparisonInvalidError,
    ConfigError,
    DegenerateInertiaError,
    DisturbanceBudgetError,
    DivergenceError,
    InvalidParameterError,
    InvalidWindowError,
)
from .presets import preset, preset_names
from .sim import (
    DEFAULT_SETTLE_BAND,
    DisturbanceSpec,
    Metrics,
    NoiseStreams,
    ScenarioConfig,
    TrajectoryRecord,
    check_disturbance_budget,
    compute_metrics,
    estimate_error_metrics,
    run_scenario,
    settle_time,
)

__version__ = "0.1.0"

#: The names served from :mod:`agrosim.config`, which loads on first use.
_CONFIG_NAMES = ("load_config", "parse_config", "serialize_config")


def __getattr__(name: str):
    if name in _CONFIG_NAMES:
        from . import config

        return getattr(config, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_CONFIG_NAMES})
