"""Closed-loop simulation: fixed-step RK4, saturation, disturbances, metrics.

A scenario couples the airborne dynamics with one of the two controllers,
the one the type of its gains names (:class:`~agrosim.control.FlGains` or
:class:`~agrosim.control.BsGains`), and integrates the augmented state
[attitude, rate, L_hat] with classical RK4 at a fixed step.  The control
law and the deterministic disturbance component are evaluated at every
integrator stage, so the scheme keeps its fourth-order convergence against
the continuous closed loop; the Gaussian noise component is sampled once per
step and held across stages to keep runs reproducible and refinement studies
meaningful.

A run is one call of the scenario's rollout, which
:func:`agrosim.kernel.closed_loop` compiles once per structure and process:
one loop over the steps, each a straight-line float RK4 step with the four
control evaluations, one per stage, inlined; the first stage's command is
the one recorded.  The deterministic disturbance is evaluated at ``t``,
``t + dt/2`` and ``t + dt`` (the middle stages share one value).  The noise
of a run is drawn before the rollout, one ``standard_normal`` call per axis
stream (the same numbers as one draw per step); a run without a disturbance
draws none.  Every sample's row is recorded at the sample's time, the last
row included: it comes from one more step from the final state, whose next
state is discarded.  The rows are written in place into one flat
``array('d')`` sized for the whole run before the first step, so a horizon
too long for memory fails at once, and one vectorised check then finds the
first non-finite state (the step that diverged).  :func:`_rows` returns
the run's columns by the names of :data:`agrosim.kernel.ROW` (``attitude``,
``rate``, ``l_hat``, ``u_cmd``, ``u_sat``, ``l_true`` and, for backstepping
only, ``e2``), beside ``t`` and the ``reference``; the applied torque
``u_sat`` and e2 are the rollout's own, with no second clamp or e2.  A
record's fields bear the same names, so every metric function reads
either, and a sweep value stops at the columns, with no record built.
:func:`run_scenario` goes on to compute the wheel allocation
(:func:`agrosim.dynamics.allocate_wheel_torques`), V1 and V2
(:func:`agrosim.control.lyapunov`) vectorised over all rows, and builds the
record from them.  The horizon must be a whole number of steps.

:meth:`TrajectoryRecord.to_csv` formats the rows in the calling process,
a block of rows at a time in numpy (:func:`agrosim.csvtext.rows`, the exact
bytes of ``%.17g``), and writes each block as it is made, so the whole text
never sits in memory; a file target is written to a temporary file that
replaces the target only once it is complete.

Runs are deterministic: identical configuration (including the disturbance
seed) produces bit-identical trajectories and CSV output.  All state is
scenario-local, so independent scenarios can execute in parallel, as the
values of an ``agrosim sweep`` do (:mod:`agrosim.cli`).
"""

from __future__ import annotations

import math
import numbers
import os
import sys
from collections import namedtuple
from contextlib import nullcontext
from dataclasses import dataclass
from typing import IO, Iterator, Optional, Union

import numpy as np

from . import kernel
from .atomic import atomic_write
from .control import BsGains, FlGains, Reference, lyapunov
from .dynamics import (
    BodyState,
    InertiaSet,
    SteeringConfig,
    _ArrayEqMixin,
    _check_fields,
    _real,
    _vec3,
    allocate_wheel_torques,
    effective_inertias,
)
from .errors import (
    DisturbanceBudgetError,
    DivergenceError,
    InvalidParameterError,
    InvalidWindowError,
)

#: Fractions of the torque limit that the three disturbance components may
#: use: offset, sine amplitude, and the 3-sigma extent of the noise.
OFFSET_BUDGET = 0.20
SINE_BUDGET = 0.20
NOISE_BUDGET = 0.05

#: Default settling band: +/-2 degrees about the reference.
DEFAULT_SETTLE_BAND = np.deg2rad(2.0)

_BUDGET_SLACK = 1.0 + 1e-12  # absorb rounding when a spec sits exactly on budget


def _seed(seed) -> int:
    """``seed`` as an ``int``, if it is a non-negative integer (numpy
    integers included); anything else, a float such as 1.5 or a bool among
    them, is rejected rather than converted, as a scenario file's seed is."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise InvalidParameterError(
            f"disturbance seed must be a non-negative integer, got {seed!r}"
        )
    return int(seed)


@dataclass(frozen=True, eq=False)
class DisturbanceSpec(_ArrayEqMixin):
    """Torque disturbance: constant offset + sinusoid + Gaussian noise.

    Each component is a per-axis 3-vector in N m; the sinusoid shares one
    frequency (rad/s) with per-axis phases.  ``seed``, a non-negative
    integer, fixes the noise streams, one independent stream per axis.
    """

    offset: np.ndarray
    sine_amp: np.ndarray
    sine_freq: float
    sine_phase: np.ndarray
    noise_sigma: np.ndarray
    seed: int

    def __post_init__(self):
        _check_fields(self, _vec3, "finite", "offset", "sine_amp", "sine_phase")
        _check_fields(self, _vec3, "non-negative", "noise_sigma")
        _check_fields(self, _real, "non-negative", "sine_freq")
        object.__setattr__(self, "seed", _seed(self.seed))


def check_disturbance_budget(spec: DisturbanceSpec, u_max: float) -> None:
    """Enforce the 20/20/5 percent decomposition of the torque budget.

    Raises
    ------
    DisturbanceBudgetError
        Naming the offending component and its bound.
    """
    checks = (
        ("offset", np.abs(spec.offset).max(), OFFSET_BUDGET),
        ("sine_amp", np.abs(spec.sine_amp).max(), SINE_BUDGET),
        ("3*noise_sigma", 3.0 * spec.noise_sigma.max(), NOISE_BUDGET),
    )
    for name, value, frac in checks:
        bound = frac * u_max
        if value > bound * _BUDGET_SLACK:
            raise DisturbanceBudgetError(
                f"disturbance {name} = {value:g} N m exceeds {frac:.0%} of "
                f"u_max ({bound:g} N m)"
            )


class NoiseStreams:
    """Three independent per-axis Gaussian streams behind one seed, a
    non-negative integer (:class:`InvalidParameterError` otherwise)."""

    def __init__(self, seed: int):
        seeds = np.random.SeedSequence(_seed(seed)).spawn(3)
        self._gens = [np.random.default_rng(s) for s in seeds]

    def draw(self, size: Optional[int] = None) -> np.ndarray:
        """One standard-normal sample per axis (scale by sigma at the caller).

        With ``size``, an ``(size, 3)`` array: one ``standard_normal(size)``
        call per axis stream, which yields bit for bit the samples of
        ``size`` calls without it, stacked row by row.
        """
        if size is None:
            return np.array([g.standard_normal() for g in self._gens])
        return np.stack([g.standard_normal(size) for g in self._gens], axis=1)


#: Relative tolerance on ``horizon / dt`` being a whole number: absorbs the
#: rounding of decimal inputs such as 1.5 / 0.001.
_HORIZON_RTOL = 1e-9


@dataclass(frozen=True, eq=False)
class ScenarioConfig(_ArrayEqMixin):
    """Everything one closed-loop run depends on.

    The type of ``gains`` is the controller: :class:`FlGains` runs PD +
    feedback linearization, :class:`BsGains` backstepping, and
    ``adaptation_enabled`` requires BsGains.  ``u_max = math.inf`` disables
    saturation.  ``horizon`` must be a whole number of ``dt`` steps (to a
    relative tolerance of :data:`_HORIZON_RTOL`), so a run ends exactly at
    the horizon it was given, and ``horizon / dt`` finite and small enough
    that the run's table of rows can be sized.
    """

    inertias: InertiaSet
    steering: SteeringConfig
    initial: BodyState
    reference: Reference
    gains: Union[FlGains, BsGains]
    u_max: float
    dt: float = 1e-3
    horizon: float = 1.5
    disturbance: Optional[DisturbanceSpec] = None
    adaptation_enabled: bool = False

    def __post_init__(self):
        if not isinstance(self.gains, (FlGains, BsGains)):
            raise InvalidParameterError(
                f"gains must be FlGains or BsGains, got {type(self.gains).__name__}"
            )
        adapt = self.adaptation_enabled
        if not isinstance(adapt, (bool, np.bool_)):
            raise InvalidParameterError(f"adaptation_enabled must be a boolean, got {adapt!r}")
        object.__setattr__(self, "adaptation_enabled", bool(adapt))
        if self.adaptation_enabled and not isinstance(self.gains, BsGains):
            raise InvalidParameterError("adaptation requires the backstepping controller")
        _check_fields(self, _real, "positive or inf", "u_max")
        _check_fields(self, _real, "positive", "dt", "horizon")
        horizon, dt = self.horizon, self.dt
        if horizon < dt:
            raise InvalidParameterError(f"horizon must be >= dt, got {horizon}")
        steps = horizon / dt
        # a table of n + 1 rows of 3 * len(ROW) doubles (a backstepping row,
        # the widest) past sys.maxsize bytes cannot even be sized; below
        # that, a run too long for memory raises MemoryError at its allocation
        if not math.isfinite(steps) or (round(steps) + 1) * 3 * len(kernel.ROW) * 8 > sys.maxsize:
            raise InvalidParameterError(
                f"run too long to size: horizon = {horizon!r} s, dt = {dt!r} s, "
                f"horizon / dt = {steps!r} steps"
            )
        if abs(steps - round(steps)) > _HORIZON_RTOL * steps:
            raise InvalidParameterError(
                f"horizon {horizon!r} s is not a whole number of dt = {dt!r} s steps "
                f"(horizon / dt = {steps!r})"
            )
        dist = self.disturbance
        if dist is not None:
            # the rollout's sine argument om * t + ph grows with t, so the last
            # stage's, at n dt + dt, is the first to overflow; math.sin rejects it
            arg = dist.sine_freq * (self.n_steps * dt + dt)
            if not all(math.isfinite(arg + ph) for ph in dist.sine_phase.tolist()):
                raise InvalidParameterError(
                    f"disturbance sine argument overflows: sine_freq = {dist.sine_freq!r} "
                    f"rad/s, sine_phase = {dist.sine_phase.tolist()!r} rad, "
                    f"horizon = {horizon!r} s"
                )
            if math.isfinite(self.u_max):
                check_disturbance_budget(dist, self.u_max)

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))


def _loop(config: ScenarioConfig):
    """The RK4 rollout of one scenario (:func:`agrosim.kernel.closed_loop`)."""
    eff = effective_inertias(config.inertias, config.steering)
    return kernel.closed_loop(config.gains, config.reference, eff.j1, eff.j2, config.u_max,
                              config.dt, config.disturbance, config.adaptation_enabled)


#: Rows formatted together, and written at once, by :meth:`TrajectoryRecord.to_csv`;
#: each block is assembled from the record's columns in one buffer of this many rows.
_CSV_BLOCK = 256

#: The record's columns after ``t``, in CSV order: the field, its CSV
#: column names (one per axis, or one for a scalar series), and whether the
#: CSV writes it in degrees.
_COLUMNS = (
    ("attitude", ("phi", "theta", "psi"), True),
    ("rate", ("phi_dot", "theta_dot", "psi_dot"), True),
    ("u_cmd", ("u1_cmd", "u2_cmd", "u3_cmd"), False),
    ("u_sat", ("u1_sat", "u2_sat", "u3_sat"), False),
    ("wheel", ("tau1", "tau2", "tau_delta"), False),
    ("l_true", ("L1", "L2", "L3"), False),
    ("l_hat", ("Lhat1", "Lhat2", "Lhat3"), False),
    ("v1", ("V1",), False),
    ("v2", ("V2",), False),
)


@dataclass(frozen=True, eq=False)
class TrajectoryRecord(_ArrayEqMixin):
    """Time-indexed log of one closed-loop run.

    All series share the same length and a strictly uniform time grid.
    Angles and rates are stored in radians; :meth:`to_csv` converts to
    degrees for the on-disk convention.  ``v2`` is NaN for FL runs, where
    the backstepping Lyapunov function is not defined.
    """

    t: np.ndarray
    attitude: np.ndarray
    rate: np.ndarray
    u_cmd: np.ndarray
    u_sat: np.ndarray
    wheel: np.ndarray
    l_true: np.ndarray
    l_hat: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    reference: Reference

    def __post_init__(self):
        t = np.array(self.t, dtype=float)  # copies: the record freezes its arrays
        n = t.shape[0]
        if n < 2:
            raise InvalidParameterError("a trajectory needs at least two samples")
        steps = np.diff(t)
        if (steps <= 0.0).any():
            raise InvalidParameterError("time grid must be strictly increasing")
        # each time is off by up to half the spacing of doubles at the
        # grid's largest value, so an exact grid's steps differ by up to two
        if not np.allclose(steps, steps[0], rtol=1e-9,
                           atol=1e-15 + 4.0 * np.spacing(np.abs(t).max())):
            raise InvalidParameterError("time grid must have a constant step")
        object.__setattr__(self, "t", t)
        for name, csv, _ in _COLUMNS:
            arr = np.array(getattr(self, name), dtype=float)
            want = (n,) if len(csv) == 1 else (n, len(csv))
            if arr.shape != want:
                raise InvalidParameterError(f"{name} must have shape {want}, got {arr.shape}")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        t.flags.writeable = False

    def __len__(self) -> int:
        return self.t.shape[0]

    def error(self) -> np.ndarray:
        """Per-sample attitude error x_d - x, radians."""
        return self.reference.x_d[None, :] - self.attitude

    def to_csv(self, target: Union[str, os.PathLike, IO[str]]) -> None:
        """Write the record as CSV (angles in degrees, full precision).

        Column units: t [s]; phi..psi [deg]; phi_dot..psi_dot [deg/s];
        torque columns [N m]; L/Lhat [rad/s^2]; V1, V2 dimensionless.
        Every value is written as ``%.17g``, which reads back as the same
        double.  The rows are formatted in this process, in blocks of
        :data:`_CSV_BLOCK` rows (:func:`_csv_blocks`), each assembled from
        the record's columns and written as it is made, so the record is
        never copied whole.
        ``target`` is a path (a ``str`` or any :class:`os.PathLike`) or a
        text stream; a path is written through a temporary file beside it,
        so on failure any previous file there is left intact.
        """
        opened = (atomic_write(os.fspath(target)) if isinstance(target, (str, os.PathLike))
                  else nullcontext(target))
        with opened as fh:
            fh.write(",".join(["t", *(c for _, csv, _ in _COLUMNS for c in csv)]) + "\n")
            fh.writelines(_csv_blocks([(self.t, False)] + [(getattr(self, name), degrees)
                                                           for name, _, degrees in _COLUMNS]))


def _csv_blocks(columns: list[tuple[np.ndarray, bool]]) -> Iterator[str]:
    """CSV lines of the rows of ``columns`` side by side, :data:`_CSV_BLOCK`
    rows per string.

    ``columns`` holds ``(values, degrees)`` pairs of the same length: a
    series of shape (n,) or a group of shape (n, k), and whether it is
    written in degrees (``values`` in radians).  Each block is assembled in
    one reused buffer of :data:`_CSV_BLOCK` rows: a plain series is copied
    in, a degree series is converted into it by :func:`numpy.rad2deg`, the
    same ufunc, and so the same bits, as on the whole series.
    Each value is written as the bytes of ``"%.17g" % x`` (nan, inf and -0
    included), by :func:`agrosim.csvtext.rows`: 17 significant digits,
    which always read back as the same double, though not always the
    shortest such text (``0.1`` is written ``0.10000000000000001``).  It
    formats zero, NaN, inf and every ``1e-99 <= |x| < 1e17`` in numpy, so
    every value of the presets' CSVs, at 1.5 s and 4 s; only the rest (a
    value outside that range, or one too close to a rounding tie to call)
    is formatted one by one.
    """
    from . import csvtext  # its tables are built with the first CSV, not at import

    n = len(columns[0][0])
    groups = [(values.reshape(n, -1), degrees) for values, degrees in columns]  # a series: 1 wide
    edges = np.cumsum([0] + [values.shape[1] for values, _ in groups]).tolist()
    buf = np.empty((min(n, _CSV_BLOCK), edges[-1]))
    for start in range(0, n, _CSV_BLOCK):
        rows = slice(start, start + _CSV_BLOCK)
        block = buf[:min(n - start, _CSV_BLOCK)]
        for (values, degrees), lo, hi in zip(groups, edges, edges[1:]):
            if degrees:
                np.rad2deg(values[rows], out=block[:, lo:hi])
            else:
                block[:, lo:hi] = values[rows]
        yield csvtext.rows(block)


@dataclass(frozen=True, eq=False)
class Metrics(_ArrayEqMixin):
    """Summary numbers of a run.

    ``settle_time`` is per axis, NaN when the axis never enters and stays in
    the :data:`DEFAULT_SETTLE_BAND` band, which :meth:`to_dict` records as
    ``settle_band_rad``; ``peak_torque`` is the largest applied |torque| per
    axis; ``est_error_rms`` is the RMS disturbance-estimate error over the
    tail window; ``final_error`` is the signed attitude error at the horizon.
    """

    settle_time: np.ndarray
    peak_torque: np.ndarray
    est_error_rms: float
    final_error: np.ndarray

    def to_dict(self) -> dict:
        def _clean(v):
            return None if math.isnan(v) else v

        return {
            "settle_time_s": [_clean(float(v)) for v in self.settle_time],
            "peak_torque_nm": [float(v) for v in self.peak_torque],
            "est_error_rms": _clean(float(self.est_error_rms)),
            "final_error_rad": [float(v) for v in self.final_error],
            "settle_band_rad": float(DEFAULT_SETTLE_BAND),
        }


def settle_time(record: TrajectoryRecord, band: float = DEFAULT_SETTLE_BAND) -> np.ndarray:
    """Earliest time per axis after which |error| stays within ``band``, of
    a record or a run's columns (:func:`_rows`), read by attribute.

    Returns NaN for an axis that has not settled by the end of the record
    ("enter and stay" semantics: one late excursion resets the clock).  A
    NaN error counts as outside the band.
    """
    band = _real(band, "band", "positive or inf")
    err = np.abs(record.error())
    out = np.full(3, np.nan)
    for axis in range(3):
        outside = np.nonzero(~(err[:, axis] <= band))[0]
        idx = 0 if outside.size == 0 else outside[-1] + 1
        if idx < len(record.t):
            out[axis] = record.t[idx]
    return out


def estimate_error_metrics(record: TrajectoryRecord, window: tuple[float, float]) -> float:
    """RMS of ||L_true - L_hat|| over samples with t in ``window``, of a
    record or a run's columns.

    ``L_true`` is the acceleration-domain image of the injected torque
    disturbance, so the number compares like with like against the estimate.

    Raises
    ------
    InvalidParameterError
        If a bound is not a finite real number.
    InvalidWindowError
        If the window is not two bounds, or is empty, reversed, or beyond
        the recorded horizon.
    """
    try:
        t0, t1 = window
    except (TypeError, ValueError):
        raise InvalidWindowError(f"window must be two bounds (t0, t1), got {window!r}") from None
    t0, t1 = _real(t0, "window[0]"), _real(t1, "window[1]")
    if not t0 < t1:
        raise InvalidWindowError(f"window must satisfy t0 < t1, got [{t0}, {t1}]")
    t = record.t
    if t1 > t[-1] * (1.0 + 1e-12) + 1e-15:
        raise InvalidWindowError(f"window end {t1} exceeds recorded horizon {t[-1]}")
    mask = (t >= t0) & (t <= t1)
    if not mask.any():
        raise InvalidWindowError(f"window [{t0}, {t1}] contains no samples")
    err = record.l_true[mask] - record.l_hat[mask]
    return float(np.sqrt(np.mean(np.sum(err * err, axis=1))))


def compute_metrics(record: TrajectoryRecord) -> Metrics:
    """Standard metrics bundle of a record or a run's columns: settle times
    at :data:`DEFAULT_SETTLE_BAND` and the estimate-error RMS over the last
    third of the horizon.  A sweep value calls it on the columns, with no
    record built."""
    t_end = float(record.t[-1])
    return Metrics(
        settle_time=settle_time(record),
        peak_torque=np.abs(record.u_sat).max(axis=0),
        est_error_rms=estimate_error_metrics(record, (t_end * 2.0 / 3.0, t_end)),
        final_error=record.reference.x_d - record.attitude[-1],
    )


class _Run(namedtuple("_Run", ("t", "reference", *kernel.ROW), defaults=(None,))):
    """A run's columns (:func:`_rows`), named as a record's fields are; ``e2``
    is None for FL."""

    __slots__ = ()
    error = TrajectoryRecord.error


def _rows(config: ScenarioConfig) -> _Run:
    """Roll out a scenario: the columns of its rows, ``t``, ``reference``,
    ``attitude``, ``rate``, ``l_hat``, ``u_cmd``, ``u_sat``, ``l_true`` and
    ``e2`` (the backstepping velocity error, None for FL), read by name.

    This is :func:`run_scenario` up to its metrics, with each of its
    failures; every column but ``t`` and ``reference`` is a view of the
    rollout's table.
    """
    rollout = _loop(config)
    # fail fast: the wheel-torque log needs an invertible steering map
    allocate_wheel_torques(np.zeros(3), config.steering)

    n = config.n_steps
    dt = config.dt
    dist = config.disturbance
    # the held noise of every sample, drawn in one call per axis stream
    noise = None if dist is None else (
        dist.noise_sigma * NoiseStreams(dist.seed).draw(n + 1)).tolist()
    y = kernel.floats(config.initial.attitude) + kernel.floats(config.initial.rate) + kernel.ZERO
    # one row of 3-vectors per sample, in ROW's order
    table = np.frombuffer(rollout(0.0, n, y, noise)).reshape(n + 1, -1, 3)
    # row i's state is step i's result; the first non-finite one names the step
    diverged = ~np.isfinite(table[1:, :3]).all(axis=(1, 2))
    if diverged.any():
        i = int(diverged.argmax()) + 1
        raise DivergenceError(step=i, t=(i - 1) * dt + dt)
    return _Run(np.arange(n + 1) * dt, config.reference, *table.transpose(1, 0, 2))


def run_scenario(config: ScenarioConfig) -> tuple[TrajectoryRecord, Metrics]:
    """Roll out a scenario and summarize it (:func:`compute_metrics`).

    The noise of every step is drawn up front, and one call of the
    scenario's rollout runs every RK4 step of the augmented state
    (stage-evaluated and clamped control, deterministic disturbance at
    ``t``, ``t + dt/2`` and ``t + dt``, held noise) and records each
    sample's state, the unclamped and clamped command of its first stage,
    L_true and, for backstepping, e2.  Wheel torques realizing the applied
    body torque are logged for diagnostics.

    Raises
    ------
    AllocationSingularityError
        If wheel torques cannot be allocated at this steering configuration.
    DivergenceError
        If the state leaves the finite range, naming the failing step.  The
        check runs once, on the recorded states after the rollout, so a
        diverging run costs its full horizon: its arithmetic runs on in
        inf/nan, which Python floats do quietly.
    MemoryError
        If the run does not fit in memory.  Its noise and its rows are
        allocated before the first step, so a horizon far too long for
        memory fails at once.
    """
    run = _rows(config)
    e1 = run.error()
    if run.e2 is not None:
        v2 = lyapunov(e1, run.e2, run.l_true - run.l_hat, config.gains)
    else:
        v2 = np.full(len(run.t), np.nan)

    record = TrajectoryRecord(
        t=run.t, attitude=run.attitude, rate=run.rate, u_cmd=run.u_cmd, u_sat=run.u_sat,
        wheel=allocate_wheel_torques(run.u_sat, config.steering), l_true=run.l_true,
        l_hat=run.l_hat, v1=0.5 * np.sum(e1 * e1, axis=1), v2=v2, reference=run.reference,
    )
    return record, compute_metrics(record)
