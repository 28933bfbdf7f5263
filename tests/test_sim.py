import dataclasses
import errno
import io
import math
import os
import re
import sys
import tempfile
import warnings

import numpy as np
import pytest
from conftest import _assert_no_child_left, _open_fds, _usable_cpus, rollout_rows
from hypothesis import given, settings
from hypothesis import strategies as st

from agrosim import (
    AllocationSingularityError,
    BodyState,
    DisturbanceBudgetError,
    DisturbanceSpec,
    DivergenceError,
    FlGains,
    InvalidParameterError,
    InvalidWindowError,
    NoiseStreams,
    Reference,
    ScenarioConfig,
    SteeringConfig,
    TrajectoryRecord,
    check_disturbance_budget,
    effective_inertias,
    estimate_error_metrics,
    parse_config,
    run_scenario,
    serialize_config,
    settle_time,
    torque_jacobian,
)
from agrosim import kernel, sim
from agrosim.presets import (
    PAPER_U_MAX,
    bs_adaptive_paper,
    bs_paper,
    fl_paper,
    paper_inertias,
    preset,
)

ISO = SteeringConfig.isotropic()

#: Values that are no real number: each is rejected by name, not converted.
NOT_REAL = (True, np.False_, "0.5", object())


def _plain_config(**overrides) -> ScenarioConfig:
    base = dict(
        inertias=paper_inertias(),
        steering=ISO,
        initial=BodyState.zero(),
        reference=Reference.zero(),
        gains=FlGains(19.9977, 122.6497),
        u_max=PAPER_U_MAX,
        dt=1e-3,
        horizon=0.05,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def _record_from_error(t, err, reference=None):
    """Synthetic record with a prescribed per-axis error history."""
    n = len(t)
    reference = reference or Reference.zero()
    att = reference.x_d[None, :] - np.asarray(err, dtype=float)
    zeros = np.zeros((n, 3))
    return TrajectoryRecord(
        t=np.asarray(t, dtype=float), attitude=att, rate=zeros, u_cmd=zeros,
        u_sat=zeros, wheel=zeros, l_true=zeros, l_hat=zeros,
        v1=np.zeros(n), v2=np.zeros(n), reference=reference,
    )


# ---------------------------------------------------------------------------
# disturbance model
# ---------------------------------------------------------------------------

def _deterministic(spec, t):
    """Offset plus sinusoid at time ``t`` (no noise), as the loop evaluates it:
    the first L_true, ``g * (d(t) + 0)``, of a rollout from ``t`` under zero
    noise, with unit inertias, so that the input gain g is exactly 1."""
    rollout = kernel.closed_loop(FlGains(1.0, 1.0), Reference.zero(), (1.0, 1.0, 1.0),
                                 kernel.ZERO, math.inf, 1e-3, spec)
    return rollout_rows(rollout(t, 0, (0.0,) * 9, [kernel.ZERO]), 0)[0]["l_true"]


def test_disturbance_all_zero():
    spec = DisturbanceSpec(0.0, 0.0, 0.0, 0.0, 0.0, seed=0)
    for t in (0.0, 0.3, 2.0):
        assert (_deterministic(spec, t) == 0.0).all()


def test_disturbance_offset_only():
    spec = DisturbanceSpec(np.array([1.0, 0.0, 0.0]), np.zeros(3), 0.0,
                           np.zeros(3), np.zeros(3), seed=0)
    np.testing.assert_array_equal(_deterministic(spec, 5.0), [1.0, 0.0, 0.0])


def test_disturbance_sine_quarter_period():
    spec = DisturbanceSpec(np.zeros(3), np.array([0.0, 2.0, 0.0]), 2.0,
                           np.zeros(3), np.zeros(3), seed=0)
    np.testing.assert_allclose(
        _deterministic(spec, np.pi / 4.0), [0.0, 2.0, 0.0], atol=1e-15
    )


def test_disturbance_noise_deterministic_per_seed():
    spec = DisturbanceSpec(np.zeros(3), np.zeros(3), 0.0, np.zeros(3),
                           np.ones(3), seed=123)

    def sample(seed):
        return _deterministic(spec, 0.0) + spec.noise_sigma * NoiseStreams(seed).draw()

    a, b = sample(123), sample(123)
    np.testing.assert_array_equal(a, b)
    other = sample(124)
    assert not np.array_equal(a, other)


def test_noise_streams_are_per_axis_independent():
    s1, s2 = NoiseStreams(9), NoiseStreams(9)
    seq1 = np.array([s1.draw() for _ in range(50)])
    seq2 = np.array([s2.draw() for _ in range(50)])
    np.testing.assert_array_equal(seq1, seq2)
    # distinct axis streams: columns differ
    assert not np.array_equal(seq1[:, 0], seq1[:, 1])


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 123, 1016164991])
@pytest.mark.parametrize("n", [1, 2, 257, 4001])
def test_noise_block_draw_equals_sequential_draws(seed, n):
    block = NoiseStreams(seed).draw(n)
    streams = NoiseStreams(seed)
    stacked = np.array([streams.draw() for _ in range(n)])
    assert block.shape == (n, 3)
    assert np.array_equal(block.view(np.int64), stacked.view(np.int64))


def test_budget_boundaries():
    u = PAPER_U_MAX
    ok = DisturbanceSpec(np.full(3, 0.20 * u), np.full(3, 0.20 * u), 2.0,
                         np.zeros(3), np.full(3, u / 60.0), seed=0)
    check_disturbance_budget(ok, u)  # exactly on budget is allowed
    with pytest.raises(DisturbanceBudgetError):
        check_disturbance_budget(
            dataclasses.replace(ok, offset=np.full(3, 0.21 * u)), u)
    with pytest.raises(DisturbanceBudgetError):
        check_disturbance_budget(
            dataclasses.replace(ok, sine_amp=np.full(3, 0.5 * u)), u)
    with pytest.raises(DisturbanceBudgetError):
        check_disturbance_budget(
            dataclasses.replace(ok, noise_sigma=np.full(3, 0.02 * u)), u)


# ---------------------------------------------------------------------------
# saturation
# ---------------------------------------------------------------------------

def saturate(u, u_max):
    """The rollout's clamp of the commands ``u`` (a 3-vector or rows of
    them): the first row's c of a zero-step FL rollout from rest at the
    origin whose law commands exactly ``u``, with unit j1, no drift and
    ``xd_ddot = u``."""
    def clamp(row):
        ref = Reference(np.zeros(3), np.zeros(3), np.array(row, dtype=float), rho=1e13)
        rollout = kernel.closed_loop(FlGains(1.0, 1.0), ref, (1.0, 1.0, 1.0), kernel.ZERO,
                                     u_max, 1e-3)
        return rollout_rows(rollout(0.0, 0, (0.0,) * 9, None), 0)[0]["u_sat"]

    u = np.asarray(u, dtype=float)
    return clamp(u) if u.ndim == 1 else np.array([clamp(row) for row in u])


def test_saturate_examples():
    u_max = PAPER_U_MAX
    np.testing.assert_array_equal(
        saturate(np.array([10.0, -10.0, 0.0]), u_max), [10.0, -10.0, 0.0])
    np.testing.assert_array_equal(
        saturate(np.array([100.0, 0.0, 0.0]), u_max), [u_max, 0.0, 0.0])
    np.testing.assert_array_equal(
        saturate(np.array([-40.0, 40.0, -40.0]), u_max), [-u_max, u_max, -u_max])
    out = saturate(np.array([[100.0, 0.0, 0.0], [0.0, -100.0, 1.0]]), u_max)
    np.testing.assert_array_equal(out, [[u_max, 0.0, 0.0], [0.0, -u_max, 1.0]])


@given(u=st.tuples(*[st.floats(-1e6, 1e6) for _ in range(3)]),
       u_max=st.floats(1e-3, 1e3))
@settings(max_examples=200)
def test_saturate_clamp_property(u, u_max):
    out = saturate(np.array(u), u_max)
    assert (np.abs(out) <= u_max).all()
    untouched = np.abs(np.array(u)) <= u_max
    np.testing.assert_array_equal(out[untouched], np.array(u)[untouched])


def test_saturate_rejects_bad_limit():
    # the clamp's limit is the config's u_max, checked when the config is built
    with pytest.raises(InvalidParameterError):
        dataclasses.replace(preset("fl-paper"), u_max=0.0)
    for bad in (*NOT_REAL, "5"):
        with pytest.raises(InvalidParameterError, match=r"^u_max "):
            dataclasses.replace(preset("fl-paper"), u_max=bad)


# ---------------------------------------------------------------------------
# scenario configuration
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(InvalidParameterError):
        _plain_config(u_max=-1.0)
    with pytest.raises(InvalidParameterError):
        _plain_config(dt=0.0)
    with pytest.raises(InvalidParameterError):
        _plain_config(horizon=1e-4)  # horizon < dt
    with pytest.raises(InvalidParameterError, match="0.0015"):
        preset("fl-paper", horizon=0.0015)  # 1.5 steps
    with pytest.raises(InvalidParameterError, match="0.0007"):
        preset("fl-paper", dt=0.0007)  # 1.5 s is 2142.86 steps
    with pytest.raises(InvalidParameterError, match="dict"):
        _plain_config(gains={"k1": 19.9977, "k2": 122.6497})  # not a gains object
    with pytest.raises(InvalidParameterError):
        _plain_config(adaptation_enabled=True)  # fl cannot adapt
    with pytest.raises(DisturbanceBudgetError):
        _plain_config(disturbance=DisturbanceSpec(
            np.full(3, 0.5 * PAPER_U_MAX), np.zeros(3), 0.0, np.zeros(3),
            np.zeros(3), seed=0))
    # a bool or a numeric string is rejected, not converted: dt=True once ran at 1 s
    for bad in NOT_REAL:
        for name in ("u_max", "dt", "horizon"):
            with pytest.raises(InvalidParameterError, match=rf"^{name} "):
                dataclasses.replace(preset("fl-paper"), **{name: bad})
        with pytest.raises(InvalidParameterError, match=r"^dt "):
            dataclasses.replace(preset("fl-paper"), dt=bad, horizon=1.0)


def test_scenario_rejects_a_run_too_long_to_size():
    # n + 1 rows as wide as a backstepping row (the widest: a 0-step
    # rollout's one row) up to sys.maxsize bytes are sized (and may then run
    # out of memory); one step more, or a non-finite n, is rejected
    width = len(sim._loop(preset("bs-paper"))(0.0, 0, (0.0,) * 9, [kernel.ZERO]))
    rows = sys.maxsize // (width * 8)
    longest = float(rows - 1)
    while int(longest) + 1 > rows:
        longest = math.nextafter(longest, 0.0)
    assert _plain_config(horizon=longest, dt=1.0).n_steps + 1 <= rows
    too_long = math.nextafter(longest, math.inf)
    for horizon, dt, steps in [(too_long, 1.0, repr(too_long)), (1e308, 1e-10, "inf")]:
        with pytest.raises(InvalidParameterError, match=re.escape(
                f"run too long to size: horizon = {horizon!r} s, dt = {dt!r} s, "
                f"horizon / dt = {steps} steps")):
            _plain_config(horizon=horizon, dt=dt)


@pytest.mark.parametrize("field", ["offset", "sine_amp", "sine_freq", "sine_phase",
                                   "noise_sigma"])
@pytest.mark.parametrize("bad", NOT_REAL)
def test_disturbance_rejects_non_real(field, bad):
    kwargs = dict(offset=0.0, sine_amp=0.0, sine_freq=0.0, sine_phase=0.0, noise_sigma=0.0,
                  seed=0)
    kwargs[field] = bad if field == "sine_freq" else [0.0, 0.0, bad]
    entry = "" if field == "sine_freq" else r"\[2\]"
    with pytest.raises(InvalidParameterError, match=rf"^{field}{entry} "):
        DisturbanceSpec(**kwargs)


def test_disturbance_spreads_a_scalar():
    spec = DisturbanceSpec(1.0, 0.5, 2.0, 0.0, 0.1, seed=3)
    assert spec == DisturbanceSpec(np.full(3, 1.0), np.full(3, 0.5), 2.0, np.zeros(3),
                                   np.full(3, 0.1), seed=3)
    with pytest.raises(InvalidParameterError, match=r"^noise_sigma "):
        DisturbanceSpec(0.0, 0.0, 0.0, 0.0, -0.1, seed=0)


@pytest.mark.parametrize("freq, phase, horizon", [
    (1.7e308, 0.0, 1.5),
    (1e308, 1e308, 0.8),
], ids=["freq", "freq+phase"])
def test_scenario_rejects_a_disturbance_whose_sine_overflows(freq, phase, horizon):
    # math.sin raised "math domain error" from inside the rollout
    ad = preset("bs-adaptive-paper", horizon=horizon)
    dist = dataclasses.replace(ad.disturbance, sine_freq=freq, sine_phase=phase)
    with pytest.raises(InvalidParameterError,
                       match=r"sine argument overflows: sine_freq = .* sine_phase = .* horizon "):
        dataclasses.replace(ad, disturbance=dist)


def test_scenario_accepts_a_sine_argument_finite_at_the_last_stage():
    # at 0.7 s the last stage's argument is 1e308 * 0.701 + 1e308 < 1.8e308
    ad = preset("bs-adaptive-paper", horizon=0.7)
    cfg = dataclasses.replace(ad, disturbance=dataclasses.replace(
        ad.disturbance, sine_freq=1e308, sine_phase=1e308))
    record, _ = run_scenario(cfg)
    assert np.isfinite(record.l_true).all()


def test_adaptation_flag_must_be_boolean():
    # a truthy non-boolean would run with adaptation on and save a document
    # that does not load; a numpy boolean is stored as bool, as a numpy
    # integer seed is stored as int
    bs = preset("bs-paper")
    for flag in ("no", 1, 0, None, 1.0):
        with pytest.raises(InvalidParameterError, match=f"adaptation_enabled .*{flag!r}"):
            dataclasses.replace(bs, adaptation_enabled=flag)
    for flag in (np.True_, np.False_):
        cfg = dataclasses.replace(bs, adaptation_enabled=flag)
        assert type(cfg.adaptation_enabled) is bool and cfg.adaptation_enabled == flag
        assert parse_config(serialize_config(cfg)) == cfg


def test_scenario_is_unhashable():
    # equality compares arrays by value, so there is no hash to agree with it
    with pytest.raises(TypeError, match="unhashable type: 'ScenarioConfig'"):
        hash(preset("fl-paper"))


def test_config_allows_unlimited_torque():
    cfg = _plain_config(u_max=np.inf)
    rec, _ = run_scenario(cfg)
    np.testing.assert_array_equal(rec.u_cmd, rec.u_sat)


# ---------------------------------------------------------------------------
# single RK4 step
# ---------------------------------------------------------------------------

def test_step_zero_dynamics_is_identity():
    cfg = _plain_config()
    y = (0.0,) * 9
    out = rollout_rows(sim._loop(cfg)(0.0, 1, y, None), 1)[1]["y"]  # the second row's state
    np.testing.assert_array_equal(out, y)


def test_step_constant_torque_matches_kinematics():
    # a constant roll torque with the other rates at zero is an exact double
    # integrator; RK4 integrates the quadratic exactly
    cfg = _plain_config()
    eff = effective_inertias(cfg.inertias, cfg.steering)
    j1 = 0.662 + 0.3055 + 2.0 * 0.006565 * np.sqrt(2.0)
    tau = 3.7
    y0 = (0.25,) + (0.0,) * 8  # initial roll angle
    # FL with xd_dd = (1e6, 0, 0) commands far more roll torque than the limit
    # tau at every stage, so the clamp applies tau exactly, while pitch and
    # yaw rates, and so the drift, stay zero
    ref = Reference(np.zeros(3), np.zeros(3), np.array([1e6, 0.0, 0.0]), rho=1e13)
    rollout = kernel.closed_loop(cfg.gains, ref, eff.j1, eff.j2, tau, cfg.dt)
    out = rollout_rows(rollout(0.0, 1, y0, None), 1)[1]["y"]  # the second row's state
    dt = cfg.dt
    acc = tau / j1
    assert out[0] == pytest.approx(0.25 + 0.5 * acc * dt * dt, rel=1e-14)
    assert out[3] == pytest.approx(acc * dt, rel=1e-14)
    assert (out[[1, 2, 4, 5]] == 0.0).all()
    assert (out[6:] == 0.0).all()


# ---------------------------------------------------------------------------
# full scenarios
# ---------------------------------------------------------------------------

def test_equilibrium_regression_exact_zero():
    cfg = _plain_config(horizon=0.25)
    rec, metrics = run_scenario(cfg)
    assert (rec.attitude == 0.0).all()
    assert (rec.rate == 0.0).all()
    assert (rec.u_cmd == 0.0).all()
    assert (rec.u_sat == 0.0).all()
    assert (rec.wheel == 0.0).all()
    np.testing.assert_array_equal(metrics.settle_time, 0.0)


def test_runs_are_bit_deterministic():
    cfg = preset("bs-adaptive-paper", horizon=0.4)
    rec_a, _ = run_scenario(cfg)
    rec_b, _ = run_scenario(cfg)
    for name in ("t", "attitude", "rate", "u_cmd", "u_sat", "wheel",
                 "l_true", "l_hat", "v1", "v2"):
        np.testing.assert_array_equal(getattr(rec_a, name), getattr(rec_b, name))


def test_saturation_respected_everywhere():
    for cfg in (fl_paper(), bs_paper()):
        rec, _ = run_scenario(cfg)
        assert (np.abs(rec.u_sat) <= cfg.u_max).all()
        # commanded torque genuinely exceeds the limit early in the recovery
        assert np.abs(rec.u_cmd).max() > cfg.u_max


def test_wheel_allocation_consistency():
    cfg = preset("bs-paper", horizon=0.5)
    rec, _ = run_scenario(cfg)
    jac = torque_jacobian(cfg.steering)
    recovered = rec.wheel @ jac.T
    np.testing.assert_allclose(recovered, rec.u_sat, rtol=1e-9, atol=1e-12)


def test_recorded_disturbance_respects_budget():
    cfg = bs_adaptive_paper()
    rec, _ = run_scenario(cfg)
    spec = cfg.disturbance
    # reconstruct torque samples from the acceleration-domain log
    eff = effective_inertias(cfg.inertias, cfg.steering)
    tau = rec.l_true * eff.j1[None, :]
    det = spec.offset[None, :] + spec.sine_amp[None, :] * np.sin(
        spec.sine_freq * rec.t[:, None] + spec.sine_phase[None, :])
    noise = tau - det
    assert np.abs(spec.offset).max() <= 0.20 * cfg.u_max * (1 + 1e-12)
    assert np.abs(spec.sine_amp).max() <= 0.20 * cfg.u_max * (1 + 1e-12)
    # 6-sigma bound: a single sample beyond it has probability ~2e-9, and the
    # seeded record is fixed, so this is a deterministic check
    assert np.abs(noise).max() <= 6.0 * spec.noise_sigma.max()


def test_settle_regression_values():
    rec, metrics = run_scenario(fl_paper())
    np.testing.assert_allclose(metrics.settle_time, [0.323, 0.332, 0.0], atol=5e-4)
    rec, metrics = run_scenario(bs_paper())
    np.testing.assert_allclose(metrics.settle_time, [0.167, 0.326, 0.0], atol=5e-4)


def test_backstepping_lyapunov_descent_unsaturated():
    cfg = bs_paper()
    cfg = dataclasses.replace(cfg, u_max=np.inf)
    rec, _ = run_scenario(cfg)
    assert np.diff(rec.v2).max() <= 1e-9


def test_backstepping_error_convergence():
    # both error norms die out well inside the horizon, even torque-limited
    cfg = bs_paper()
    rec, _ = run_scenario(cfg)
    e1 = rec.error()
    e2 = -rec.rate + cfg.gains.k1[None, :] * e1
    assert np.linalg.norm(e1[-1]) < 1e-4
    assert np.linalg.norm(e2[-1]) < 1e-4
    settled = np.linalg.norm(e1, axis=1) < 1e-4
    assert settled[-1] and rec.t[np.argmax(settled)] < cfg.horizon / 2.0


def test_saturated_backstepping_overshoot_is_real():
    # torque-limited pitch recovery overshoots the band before re-entering;
    # pin the converged behavior so integrator changes get noticed
    rec, _ = run_scenario(bs_paper())
    pitch_deg = np.rad2deg(rec.attitude[:, 1])
    assert pitch_deg.min() == pytest.approx(-3.48, abs=0.02)


def test_divergence_raises_with_step_index():
    cfg = _plain_config(gains=FlGains(1.0, 1e12), u_max=np.inf,
                        initial=BodyState(np.deg2rad([-22.5, 22.5, 0.0]), np.zeros(3)),
                        horizon=0.2)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as err:
            run_scenario(cfg)
    assert err.value.step > 0
    assert "step" in str(err.value)


def test_divergence_raises_without_numpy_warnings():
    cfg = _plain_config(gains=FlGains(1.0, 1e12), u_max=np.inf,
                        initial=BodyState(np.deg2rad([-22.5, 22.5, 0.0]), np.zeros(3)),
                        horizon=0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as err:
            run_scenario(cfg)
    assert err.value.step == 5
    assert err.value.t == pytest.approx(0.005)


def test_singular_steering_fails_fast():
    cfg = _plain_config(steering=SteeringConfig(0.2, 0.2))
    with pytest.raises(AllocationSingularityError):
        run_scenario(cfg)


def test_fl_runs_have_nan_v2_and_bs_runs_do_not():
    rec_fl, _ = run_scenario(preset("fl-paper", horizon=0.05))
    assert np.isnan(rec_fl.v2).all()
    assert not np.isnan(rec_fl.v1).any()
    rec_bs, _ = run_scenario(preset("bs-paper", horizon=0.05))
    assert not np.isnan(rec_bs.v2).any()


# ---------------------------------------------------------------------------
# settle time and estimate metrics
# ---------------------------------------------------------------------------

def test_settle_time_rejects_bad_band():
    rec = _record_from_error(np.arange(3) * 1e-3, np.zeros((3, 3)))
    for bad in (0.0, math.nan, *NOT_REAL, "x"):
        with pytest.raises(InvalidParameterError, match=r"^band "):
            settle_time(rec, bad)
    np.testing.assert_array_equal(settle_time(rec, math.inf), 0.0)


def test_settle_time_zero_error():
    t = np.arange(101) * 1e-3
    rec = _record_from_error(t, np.zeros((101, 3)))
    np.testing.assert_array_equal(settle_time(rec, np.deg2rad(2.0)), 0.0)


def test_settle_time_exponential_crossing():
    t = np.arange(3001) * 1e-3
    err = np.zeros((3001, 3))
    err[:, 0] = np.deg2rad(22.5) * np.exp(-t)
    rec = _record_from_error(t, err)
    out = settle_time(rec, np.deg2rad(2.0))
    assert out[0] == pytest.approx(np.log(11.25), abs=2e-3)
    assert out[1] == 0.0 and out[2] == 0.0


def test_settle_time_never_settles():
    t = np.arange(201) * 1e-3
    err = np.zeros((201, 3))
    err[:, 1] = np.deg2rad(5.0) * np.sin(200.0 * t) + np.deg2rad(3.0)
    rec = _record_from_error(t, err)
    assert np.isnan(settle_time(rec, np.deg2rad(2.0))[1])


def test_settle_time_enter_and_stay_semantics():
    t = np.arange(11) * 0.1
    err = np.zeros((11, 3))
    err[:, 0] = np.deg2rad([10, 1, 1, 1, 5, 1, 1, 1, 1, 1, 1])  # late excursion
    rec = _record_from_error(t, err)
    assert settle_time(rec, np.deg2rad(2.0))[0] == pytest.approx(0.5)


def test_settle_time_counts_nan_as_outside_the_band():
    t = np.arange(11) * 0.1
    rec = _record_from_error(t, np.full((11, 3), np.nan))
    assert np.isnan(settle_time(rec)).all()
    err = np.zeros((11, 3))
    err[5:, 0] = np.nan  # a NaN tail on roll never settles
    out = settle_time(_record_from_error(t, err))
    assert np.isnan(out[0]) and out[1] == 0.0 and out[2] == 0.0


def test_estimate_error_metrics_trivial_cases():
    t = np.arange(101) * 1e-3
    zeros = np.zeros((101, 3))
    rec = _record_from_error(t, zeros)
    assert estimate_error_metrics(rec, (0.0, 0.1)) == 0.0

    c = np.array([1.0, 2.0, 2.0])
    rec2 = TrajectoryRecord(
        t=t, attitude=zeros, rate=zeros, u_cmd=zeros, u_sat=zeros, wheel=zeros,
        l_true=np.tile(c, (101, 1)), l_hat=zeros, v1=np.zeros(101),
        v2=np.zeros(101), reference=Reference.zero(),
    )
    assert estimate_error_metrics(rec2, (0.0, 0.1)) == pytest.approx(3.0, rel=1e-12)


def test_estimate_error_rms_regression_baseline():
    # golden value from the first verified adaptive run (seed 42); the bound
    # carries ~15% headroom so only a real regression trips it
    rec, _ = run_scenario(bs_adaptive_paper())
    rms = estimate_error_metrics(rec, (0.8, 1.2))
    assert rms == pytest.approx(0.8734, abs=2e-4)
    assert rms < 1.0


def test_estimate_error_metrics_invalid_windows():
    t = np.arange(101) * 1e-3
    zeros = np.zeros((101, 3))
    rec = _record_from_error(t, zeros)
    with pytest.raises(InvalidWindowError):
        estimate_error_metrics(rec, (0.05, 0.05))
    with pytest.raises(InvalidWindowError):
        estimate_error_metrics(rec, (0.0, 0.5))  # beyond horizon
    with pytest.raises(InvalidWindowError):
        estimate_error_metrics(rec, (0.00031, 0.00042))  # between samples
    with pytest.raises(InvalidWindowError):
        estimate_error_metrics(rec, (0.08, 0.02))  # reversed
    # a bound that is no finite real number is named, never converted
    for window, name in [(("0.05", "0.1"), "window[0]"), ((0.0, "0.1"), "window[1]"),
                         ((True, 0.1), "window[0]"), ((0.0, None), "window[1]"),
                         ((math.nan, 0.1), "window[0]"), ((0.0, math.inf), "window[1]"),
                         ((-math.inf, 0.1), "window[0]"), (("x", 0.1), "window[0]")]:
        with pytest.raises(InvalidParameterError, match=re.escape(name)):
            estimate_error_metrics(rec, window)
    # a window that is not two bounds is named, not cut short or indexed
    for window in [(0.1,), 0.5, (0.05, 0.1, 0.2), ()]:
        with pytest.raises(InvalidWindowError, match=re.escape(repr(window))):
            estimate_error_metrics(rec, window)


@pytest.mark.parametrize("name", ["fl-paper", "bs-paper", "bs-adaptive-paper"])
def test_run_columns_agree_with_the_record(name):
    # a run's columns and its record name the same series alike, so every
    # metric function reads either and gives the same bits
    config = preset(name, horizon=0.3)
    run = sim._rows(config)
    record, metrics = run_scenario(config)
    fields = {f.name for f in dataclasses.fields(TrajectoryRecord)}
    assert set(run._fields) - fields == {"e2"}
    assert run.reference == record.reference
    for column in set(run._fields) & fields - {"reference"}:
        assert getattr(run, column).tobytes() == getattr(record, column).tobytes(), column
    assert run.error().tobytes() == record.error().tobytes()
    assert (run.e2 is None) == (name == "fl-paper")
    assert settle_time(run).tobytes() == settle_time(record).tobytes()
    assert estimate_error_metrics(run, (0.1, 0.3)) == estimate_error_metrics(record, (0.1, 0.3))
    assert (sim.compute_metrics(run).to_dict() == sim.compute_metrics(record).to_dict()
            == metrics.to_dict())


# ---------------------------------------------------------------------------
# trajectory record and CSV
# ---------------------------------------------------------------------------

def test_record_rejects_irregular_grid():
    # a skipped sample, and one sample off by 1e-6 of dt on a 10^7-step grid
    late = (10**7 + np.arange(3)) * 1e-3
    late[1] += 1e-9
    zeros = np.zeros((3, 3))
    for t in (np.array([0.0, 1e-3, 3e-3]), late):
        with pytest.raises(InvalidParameterError):
            TrajectoryRecord(t=t, attitude=zeros, rate=zeros, u_cmd=zeros,
                             u_sat=zeros, wheel=zeros, l_true=zeros, l_hat=zeros,
                             v1=np.zeros(3), v2=np.zeros(3), reference=Reference.zero())


def test_record_rejects_a_short_or_falling_grid_and_a_misshapen_column():
    zeros = np.zeros((3, 3))
    columns = dict(attitude=zeros, rate=zeros, u_cmd=zeros, u_sat=zeros, wheel=zeros,
                   l_true=zeros, l_hat=zeros, v1=np.zeros(3), v2=np.zeros(3),
                   reference=Reference.zero())
    for t, message in ((np.array([0.0]), "at least two samples"),
                       (np.array([0.0, 2e-3, 1e-3]), "strictly increasing")):
        with pytest.raises(InvalidParameterError, match=message):
            TrajectoryRecord(t=t, **columns)
    with pytest.raises(InvalidParameterError,
                       match=re.escape("wheel must have shape (3, 3), got (3, 2)")):
        TrajectoryRecord(t=np.arange(3) * 1e-3, **{**columns, "wheel": np.zeros((3, 2))})


def test_record_accepts_the_grid_of_a_long_run():
    # run_scenario's grid, np.arange(n + 1) * dt: from about 10^7 steps its
    # steps differ by more than 1e-9 of dt, by the rounding of each time
    t = np.arange(10**7 - 2000, 10**7 + 1) * 1e-3
    rec = _record_from_error(t, np.zeros((len(t), 3)))
    assert np.array_equal(rec.t, t)


def test_csv_format_and_precision():
    rec, _ = run_scenario(preset("bs-adaptive-paper", horizon=0.02))
    buf = io.StringIO()
    rec.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == (
        "t,phi,theta,psi,phi_dot,theta_dot,psi_dot,"
        "u1_cmd,u2_cmd,u3_cmd,u1_sat,u2_sat,u3_sat,"
        "tau1,tau2,tau_delta,L1,L2,L3,Lhat1,Lhat2,Lhat3,V1,V2"
    )
    assert len(lines) == len(rec) + 1
    data = np.loadtxt(io.StringIO(buf.getvalue()), delimiter=",", skiprows=1)
    # angles serialized in degrees at full precision: exact round trip
    np.testing.assert_array_equal(data[:, 1:4], np.rad2deg(rec.attitude))
    np.testing.assert_array_equal(data[:, 4:7], np.rad2deg(rec.rate))
    np.testing.assert_array_equal(data[:, 16:19], rec.l_true)
    np.testing.assert_array_equal(data[:, 22], rec.v1)


_CSV_HEADER = (
    "t,phi,theta,psi,phi_dot,theta_dot,psi_dot,"
    "u1_cmd,u2_cmd,u3_cmd,u1_sat,u2_sat,u3_sat,"
    "tau1,tau2,tau_delta,L1,L2,L3,Lhat1,Lhat2,Lhat3,V1,V2"
)


def _csv_reference(rec: TrajectoryRecord) -> str:
    """The CSV text as the writer first formatted it: one f-string per
    value, one join per row, one string for the whole file."""
    data = np.column_stack([
        rec.t, np.rad2deg(rec.attitude), np.rad2deg(rec.rate), rec.u_cmd, rec.u_sat,
        rec.wheel, rec.l_true, rec.l_hat, rec.v1, rec.v2,
    ])
    lines = [_CSV_HEADER]
    lines.extend(",".join(f"{x:.17g}" for x in row) for row in data)
    return "\n".join(lines) + "\n"


_B = sim._CSV_BLOCK
_CSV_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072e-308,
                     1e308, -1e308, 1.7976931348623157e308]),
    st.floats(),
)


@given(n=st.sampled_from([2, _B - 1, _B, _B + 1, 2 * _B + 1]),
       pool=st.lists(_CSV_VALUES, min_size=1, max_size=24),
       dt=st.floats(1e-6, 1.0), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_csv_blocks_match_per_value_formatting(n, pool, dt, seed):
    rng = np.random.default_rng(seed)
    values = np.array(pool)

    def pick(*shape):
        return rng.choice(values, size=shape)

    rec = TrajectoryRecord(
        t=np.arange(n) * dt, attitude=pick(n, 3), rate=pick(n, 3), u_cmd=pick(n, 3),
        u_sat=pick(n, 3), wheel=pick(n, 3), l_true=pick(n, 3), l_hat=pick(n, 3),
        v1=pick(n), v2=pick(n), reference=Reference.zero(),
    )
    with np.errstate(over="ignore", invalid="ignore"):
        want = _csv_reference(rec)
        buf = io.StringIO()
        rec.to_csv(buf)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "rec.csv")
            rec.to_csv(path)
            with open(path, encoding="utf-8", newline="") as fh:
                on_disk = fh.read()
    assert buf.getvalue() == want
    assert on_disk == want


def test_csv_failed_write_keeps_previous_file(tmp_path, monkeypatch):
    rec, _ = run_scenario(preset("bs-adaptive-paper", horizon=0.6))
    assert len(rec) > sim._CSV_BLOCK
    path = tmp_path / "run.csv"
    path.write_text("previous\n", encoding="utf-8")
    blocks = sim._csv_blocks

    def first_block_then_fail(data):
        gen = blocks(data)
        yield next(gen)
        raise RuntimeError("formatter failed")

    monkeypatch.setattr(sim, "_csv_blocks", first_block_then_fail)
    with pytest.raises(RuntimeError, match="formatter failed"):
        rec.to_csv(str(path))
    assert path.read_text(encoding="utf-8") == "previous\n"
    assert os.listdir(tmp_path) == ["run.csv"]

    monkeypatch.setattr(sim, "_csv_blocks", blocks)
    rec.to_csv(str(path))
    buf = io.StringIO()
    rec.to_csv(buf)
    assert path.read_text(encoding="utf-8") == buf.getvalue()
    assert os.listdir(tmp_path) == ["run.csv"]


def test_csv_to_a_path_like_target(tmp_path, monkeypatch):
    rec, _ = run_scenario(preset("bs-adaptive-paper", horizon=0.6))
    path = tmp_path / "run.csv"
    rec.to_csv(str(path))
    want = path.read_bytes()
    path.unlink()
    rec.to_csv(path)
    assert path.read_bytes() == want

    def fail(data):
        raise RuntimeError("formatter failed")
        yield

    path.write_text("previous\n", encoding="utf-8")
    monkeypatch.setattr(sim, "_csv_blocks", fail)
    with pytest.raises(RuntimeError, match="formatter failed"):
        rec.to_csv(path)
    assert path.read_text(encoding="utf-8") == "previous\n"
    assert os.listdir(tmp_path) == ["run.csv"]


def _g17_lines(values: np.ndarray) -> str:
    return "".join(",".join(f"{x:.17g}" for x in row) + "\n" for row in values.tolist())


def _near_ties(q: int) -> list[float]:
    """Doubles ``v`` with ``v * 10**q`` in [1e16, 1e17), whose fractions lie
    from about 1e-10 to 1e-8 either side of one half.

    ``v = m * 2**-(s + q)`` for ``m`` in [2**52, 2**53), so ``v * 10**q`` is
    ``m * 5**q / 2**s``.  Two best rational approximations of ``5**q /
    2**s`` give steps ``k`` of ``m`` that move the fraction by little; ``m``
    is stepped to the nearest half, and the points 40 steps either side
    are kept."""
    from fractions import Fraction

    s = (2 ** 52 * 5 ** q // 10 ** 16).bit_length() - 1
    beta, half = Fraction(5 ** q, 2 ** s), Fraction(1, 2)
    m = 3 * 2 ** 51
    for bound in (2 ** 20, 2 ** 30):
        k = beta.limit_denominator(bound).denominator
        eta = k * beta % 1 - (k * beta % 1 > half)  # the fraction's move per step
        m += k * round((half - m * beta % 1) / eta)
    return [math.ldexp(m + i * k, -(s + q)) for i in range(-40, 41)]


def test_csv_text_at_the_formatter_boundaries():
    # csvtext formats zero, NaN, inf and 1e-99 <= |v| < 1e17 in numpy, with
    # 10**q split into exact factors below 1e-6, and the rest one by one;
    # every value must read as f"{v:.17g}", whichever path it takes
    tens = np.array([float(f"1e{e}") for e in range(-105, 21)])
    tens = np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)])
    ends = np.array([1e-6, 9.9999999999999995e-07, 1e17, 1e16, 2.0 ** 53, 1e-99, 1e-28])
    ends = np.concatenate([ends, np.nextafter(ends, 0.0), np.nextafter(ends, np.inf)])
    special = np.array([0.0, math.nan, math.inf, 5e-324, 2.2250738585072014e-308,
                        1.7976931348623157e308, 1000000000000000.25, 0.5])
    # NaN and inf of either sign among values formatted in numpy: "%.17g"
    # writes no sign for a NaN whose sign bit is set
    mixed = np.array([0.25, -math.nan, 1e-20, math.inf, -math.inf, math.nan, -3.5e-9, 7.0])
    assert np.signbit(mixed[1]) and "-nan" not in _g17_lines(mixed[None, :])
    halves = np.arange(-2000, 2000) + 0.5
    t = np.arange(10_001) * 0.001
    # a whole rounding remainder of 1/2, within the margin of csvtext, and
    # near it on either side, at every q that takes more than one factor
    ties = np.array([v for q in range(23, 117) for v in _near_ties(q)])
    assert f"{3 * 2.0 ** -24:.17g}" == "1.7881393432617188e-07" and 3 * 2.0 ** -24 in ties
    rng = np.random.default_rng(28)
    bits = rng.integers(0, 2**64, size=10**5, dtype=np.uint64)
    # and random bit patterns with decimal exponents from -101 to -6
    low = rng.integers(0, 2**64, size=10**5, dtype=np.uint64) & np.uint64(0x800F_FFFF_FFFF_FFFF)
    low |= rng.integers(1023 - 336, 1023 - 19, size=low.size, dtype=np.uint64) << np.uint64(52)
    values = np.concatenate([tens, ends, special, mixed, -tens, -ends, -special, halves, t,
                             ties, -ties, bits.view(np.float64), low.view(np.float64)])
    values = np.concatenate([values, np.zeros(-len(values) % 24)]).reshape(-1, 24)
    assert "9.9999999999999995e-07" in _g17_lines(ends[None, :])
    assert "".join(sim._csv_blocks(values)) == _g17_lines(values)


def test_preset_csv_values_lie_in_the_numpy_range(monkeypatch):
    # every finite value of the presets' CSVs, at 1.5 s and 4 s, is zero or in
    # the range csvtext formats in numpy, so none is formatted one by one
    from agrosim import csvtext

    lo, hi = 10.0 ** csvtext._P_MIN, 10.0 ** (csvtext._P_MAX + 1)
    tables = []
    monkeypatch.setattr(sim, "_csv_blocks", lambda data: tables.append(data) or iter(()))
    for name in ("fl-paper", "bs-paper", "bs-adaptive-paper"):
        for horizon in (None, 4.0):
            run_scenario(preset(name, horizon=horizon))[0].to_csv(io.StringIO())
    for data in tables:
        a = np.abs(data[np.isfinite(data)])
        assert np.all((a == 0.0) | ((a >= lo) & (a < hi)))
    assert len(tables) == 6 and max(len(data) for data in tables) == 4001


def test_long_adaptive_csv_matches_per_value_formatting():
    rec, _ = run_scenario(preset("bs-adaptive-paper", horizon=4.0))
    buf = io.StringIO()
    rec.to_csv(buf)
    assert buf.getvalue() == _csv_reference(rec)


# ---------------------------------------------------------------------------
# a CSV is written by the process that asks for it, whatever the CPUs
# ---------------------------------------------------------------------------

def _random_record(n, seed=0):
    rng = np.random.default_rng(seed)

    def pick(*shape):
        return rng.standard_normal(shape) * 10.0 ** rng.integers(-5, 6, size=shape)

    return TrajectoryRecord(
        t=np.arange(n) * 1e-3, attitude=pick(n, 3), rate=pick(n, 3), u_cmd=pick(n, 3),
        u_sat=pick(n, 3), wheel=pick(n, 3), l_true=pick(n, 3), l_hat=pick(n, 3),
        v1=pick(n), v2=pick(n), reference=Reference.zero(),
    )


def _csv_of(rec, tmp_path):
    """The CSV of ``rec`` written to a text stream and to a path, which must agree."""
    buf = io.StringIO()
    rec.to_csv(buf)
    path = tmp_path / "rec.csv"
    rec.to_csv(str(path))
    with open(path, encoding="utf-8", newline="") as fh:
        assert fh.read() == buf.getvalue()
    path.unlink()
    return buf.getvalue()


def test_csv_is_written_by_the_calling_process(monkeypatch):
    def no_fork():
        raise AssertionError("to_csv forked")

    rec = _random_record(4001)
    _usable_cpus(monkeypatch, 3)
    monkeypatch.setattr(os, "fork", no_fork)
    buf = io.StringIO()
    rec.to_csv(buf)
    assert buf.getvalue() == _csv_reference(rec)


# rows on either side of 8 and 12 blocks, and a part block past 13, on 1-3 CPUs
@pytest.mark.parametrize("n", [8 * _B - 1, 8 * _B, 8 * _B + 1, 12 * _B - 1, 12 * _B,
                               13 * _B + 7])
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_csv_output_does_not_depend_on_cpus(n, cpus, tmp_path, monkeypatch):
    rec = _random_record(n)
    real, forks = os.fork, []

    def counted_fork():
        forks.append(1)
        return real()

    _usable_cpus(monkeypatch, cpus)
    monkeypatch.setattr(os, "fork", counted_fork)
    assert _csv_of(rec, tmp_path) == _csv_reference(rec)
    assert forks == []


# to_csv needs neither a fork nor an unlinked temporary file: where they
# fail from the first call (0) or the second (1, tempfile), the CSV is the same
@pytest.mark.parametrize("module, name, calls_before_failing, error", [
    pytest.param(os, "fork", 0, BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable"),
                 id="0"),
    pytest.param(os, "fork", 1, BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable"),
                 id="1"),
    pytest.param(tempfile, "TemporaryFile", 1, OSError(errno.EMFILE, "Too many open files"),
                 id="tempfile"),
])
def test_csv_written_in_process_when_it_cannot_fork(module, name, calls_before_failing, error,
                                                    tmp_path, monkeypatch):
    fds = _open_fds()
    rec = _random_record(12 * _B + 1)
    real, calls = getattr(module, name), []

    def fail_when_out_of_resources(*args, **kwargs):
        calls.append(name)
        if len(calls) > calls_before_failing:
            raise error
        return real(*args, **kwargs)

    _usable_cpus(monkeypatch, 3)
    monkeypatch.setattr(module, name, fail_when_out_of_resources)
    path = tmp_path / "rec.csv"
    rec.to_csv(str(path))
    assert calls == []
    assert path.read_text(encoding="utf-8") == _csv_reference(rec)
    _assert_no_child_left(fds)


def test_metrics_to_dict_converts_nan():
    t = np.arange(201) * 1e-3
    err = np.zeros((201, 3))
    err[:, 0] = 1.0  # one radian forever: never settles
    rec = _record_from_error(t, err)
    from agrosim import compute_metrics
    m = compute_metrics(rec)
    d = m.to_dict()
    assert d["settle_time_s"][0] is None
    assert d["settle_time_s"][1] == 0.0


@pytest.mark.parametrize("seed", [-1, 1.5, 2.0, "3", None, True])
def test_disturbance_seed_must_be_a_non_negative_integer(seed):
    with pytest.raises(InvalidParameterError, match=re.escape(repr(seed))):
        DisturbanceSpec(0.0, 0.0, 0.0, 0.0, 0.0, seed)
    # the noise streams run the same check: 1.5 is not truncated to 1
    with pytest.raises(InvalidParameterError, match=re.escape(repr(seed))):
        NoiseStreams(seed)


def test_disturbance_seed_accepts_numpy_integers():
    spec = DisturbanceSpec(0.0, 0.0, 0.0, 0.0, 0.0, np.int64(7))
    assert spec.seed == 7 and type(spec.seed) is int
    assert np.array_equal(NoiseStreams(np.int64(7)).draw(4), NoiseStreams(7).draw(4))
