"""Airborne attitude stabilization of a 4WIDS robot: dynamics, controllers,
and a deterministic closed-loop simulator.

The package splits along the problem structure:

- :mod:`agrosim.kernel` -- the closed-loop stage kernel on plain floats:
  drift term, both control laws, adaptation law, clamp and RK4 step,
  each written once.
- :mod:`agrosim.dynamics` -- rigid-body attitude equations, inertia
  bookkeeping, the wheel-torque Jacobian and its inverse (wheel
  allocation, vectorised over rows).
- :mod:`agrosim.control` -- gain and reference types, typed views of the
  PD + feedback-linearization and adaptive backstepping laws, the
  Lyapunov function V2 and the double-integrator LQR.
- :mod:`agrosim.sim` -- the scenario type, the fixed-step RK4 rollout with
  torque saturation and disturbance injection, trajectory recording,
  CSV output and metrics.
- :mod:`agrosim.presets` / :mod:`agrosim.config` -- named reference
  scenarios and the JSON configuration schema.
- :mod:`agrosim.cli` -- the ``agrosim`` command (run / compare / sweep).
"""

from .control import (
    BsGains,
    FlGains,
    LqrGains,
    Reference,
    adaptation_rate,
    bs_control,
    bs_velocity_error,
    fl_control,
    lqr_double_integrator,
    lyapunov,
)
from .dynamics import (
    SINGULARITY_TOL,
    BodyState,
    BodyTorque,
    EffectiveInertias,
    InertiaSet,
    SteeringConfig,
    WheelGeometry,
    allocate_wheel_torques,
    angular_acceleration,
    coriolis_acceleration,
    effective_inertias,
    input_gain,
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
from .config import load_config, parse_config, serialize_config
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
    saturate,
    settle_time,
)

__version__ = "0.1.0"
