"""The float stage kernel against a numpy reference of the same formulas.

The reference below is the vectorised closed loop the kernel replaced: its
control laws, stage derivative, RK4 step and rollout loop, kept as they were
written for numpy 3-vectors.  Every array the kernel produces must equal the
reference bit for bit.  The reference evaluates the disturbance sine with
``math.sin``, as the kernel does, so the comparison does not depend on how
this host's numpy implements ``np.sin``.
"""

import builtins
import dataclasses
import linecache
import math
import struct
import traceback
import warnings

import numpy as np
import pytest
from conftest import rollout_rows
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from agrosim import (
    BodyState,
    BsGains,
    DisturbanceSpec,
    DivergenceError,
    FlGains,
    NoiseStreams,
    Reference,
    ScenarioConfig,
    SteeringConfig,
    effective_inertias,
    run_scenario,
    torque_jacobian,
)
from agrosim import kernel, sim
from agrosim.presets import PAPER_U_MAX, paper_inertias, preset

# ---------------------------------------------------------------------------
# numpy reference
# ---------------------------------------------------------------------------


def _coriolis_acceleration(rate, eff):
    r = np.asarray(rate, dtype=float)
    j1, j2 = eff.j1, eff.j2
    return np.array([
        j2[0] / j1[0] * r[1] * r[2],
        j2[1] / j1[1] * r[0] * r[2],
        j2[2] / j1[2] * r[0] * r[1],
    ])


def _fl_torque(att, rate, x_d, xd_dot, xd_ddot, k1, k2, j1, j2):
    e = x_d - att
    e_dot = xd_dot - rate
    v = xd_ddot + k1 * e_dot + k2 * e
    f = np.array([
        j2[0] / j1[0] * rate[1] * rate[2],
        j2[1] / j1[1] * rate[0] * rate[2],
        j2[2] / j1[2] * rate[0] * rate[1],
    ])
    return j1 * (v - f)


def _bs_velocity_error(att, rate, x_d, xd_dot, k1):
    return xd_dot - rate + k1 * (x_d - att)


def _bs_torque(att, rate, x_d, xd_dot, xd_ddot, l_hat, k1, k2, gamma, lam, j1, j2):
    e1 = x_d - att
    e1_dot = xd_dot - rate
    e2 = e1_dot + k1 * e1
    f = np.array([
        j2[0] / j1[0] * rate[1] * rate[2],
        j2[1] / j1[1] * rate[0] * rate[2],
        j2[2] / j1[2] * rate[0] * rate[1],
    ])
    return j1 * (gamma / lam * e1 - f - l_hat + xd_ddot + k1 * e1_dot + k2 * e2)


def _adaptation_rate(e2, lam, sigma):
    return -lam / sigma * e2


def _deterministic(spec, t):
    phase = spec.sine_freq * t + spec.sine_phase
    return spec.offset + spec.sine_amp * np.array([math.sin(x) for x in phase])


class _ReferenceLoop:
    """Precomputed arrays + stage derivative for one scenario."""

    def __init__(self, config):
        self.config = config
        self.eff = effective_inertias(config.inertias, config.steering)
        self.j1 = self.eff.j1
        self.j2 = self.eff.j2
        self.g = 1.0 / self.j1
        ref = config.reference
        self.x_d, self.xd_dot, self.xd_ddot = ref.x_d, ref.xd_dot, ref.xd_ddot
        self.u_max = config.u_max
        self.adapt = config.adaptation_enabled
        gains = config.gains
        if isinstance(config.gains, FlGains):
            self.torque = lambda att, rate, l_hat: _fl_torque(
                att, rate, self.x_d, self.xd_dot, self.xd_ddot,
                gains.k1, gains.k2, self.j1, self.j2)
        else:
            self.torque = lambda att, rate, l_hat: _bs_torque(
                att, rate, self.x_d, self.xd_dot, self.xd_ddot, l_hat,
                gains.k1, gains.k2, gains.gamma, gains.lam, self.j1, self.j2)
        if self.adapt:
            self._lam, self._sigma, self._k1 = gains.lam, gains.sigma, gains.k1
        dist = config.disturbance
        self.dist_torque = (lambda t: _deterministic(dist, t)) if dist is not None else None

    def command(self, y):
        return np.asarray(self.torque(y[0:3], y[3:6], y[6:9]), dtype=float)

    def derivative(self, t, y, noise):
        att, rate, l_hat = y[0:3], y[3:6], y[6:9]
        u = np.clip(self.torque(att, rate, l_hat), -self.u_max, self.u_max)
        tau = u + noise if self.dist_torque is None else u + self.dist_torque(t) + noise
        dy = np.empty(9)
        dy[0:3] = rate
        dy[3] = self.j2[0] / self.j1[0] * rate[1] * rate[2] + self.g[0] * tau[0]
        dy[4] = self.j2[1] / self.j1[1] * rate[0] * rate[2] + self.g[1] * tau[1]
        dy[5] = self.j2[2] / self.j1[2] * rate[0] * rate[1] + self.g[2] * tau[2]
        if self.adapt:
            e2 = _bs_velocity_error(att, rate, self.x_d, self.xd_dot, self._k1)
            dy[6:9] = _adaptation_rate(e2, self._lam, self._sigma)
        else:
            dy[6:9] = 0.0
        return dy

    def rk4_step(self, t, y, noise):
        dt = self.config.dt
        k1 = self.derivative(t, y, noise)
        k2 = self.derivative(t + dt / 2.0, y + dt / 2.0 * k1, noise)
        k3 = self.derivative(t + dt / 2.0, y + dt / 2.0 * k2, noise)
        k4 = self.derivative(t + dt, y + dt * k3, noise)
        return y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _reference_rollout(config):
    """Record arrays of one run, in TrajectoryRecord field order."""
    loop = _ReferenceLoop(config)
    n = config.n_steps
    dt = config.dt
    dist = config.disturbance
    streams = NoiseStreams(dist.seed) if dist is not None else None

    t_grid = np.arange(n + 1) * dt
    att = np.empty((n + 1, 3))
    rate = np.empty((n + 1, 3))
    u_cmd = np.empty((n + 1, 3))
    u_sat = np.empty((n + 1, 3))
    l_true = np.zeros((n + 1, 3))
    l_hat = np.zeros((n + 1, 3))

    y = np.concatenate([config.initial.attitude, config.initial.rate, np.zeros(3)])
    for k in range(n + 1):
        t = t_grid[k]
        att[k] = y[0:3]
        rate[k] = y[3:6]
        l_hat[k] = y[6:9]
        cmd = loop.command(y)
        u_cmd[k] = cmd
        u_sat[k] = np.clip(cmd, -config.u_max, config.u_max)
        noise = np.zeros(3)
        if dist is not None:
            noise = dist.noise_sigma * streams.draw()
            l_true[k] = loop.g * (_deterministic(dist, t) + noise)
        if k < n:
            y = loop.rk4_step(t, y, noise)
            if not np.isfinite(y).all():
                raise DivergenceError(step=k + 1, t=t + dt)

    jac = torque_jacobian(config.steering)
    wheel = np.empty((n + 1, 3))
    wheel[:, :2] = np.linalg.solve(jac[:2, :2], u_sat[:, :2].T).T
    wheel[:, 2] = u_sat[:, 2] / 4.0

    e1 = config.reference.x_d[None, :] - att
    v1 = 0.5 * np.sum(e1 * e1, axis=1)
    if isinstance(config.gains, BsGains):
        g = config.gains
        e2 = (config.reference.xd_dot[None, :] - rate) + g.k1[None, :] * e1
        l_err = l_true - l_hat
        v2 = 0.5 * (
            np.sum(e1 * (g.gamma[None, :] * e1), axis=1)
            + np.sum(e2 * (g.lam[None, :] * e2), axis=1)
            + np.sum(l_err * (g.sigma[None, :] * l_err), axis=1)
        )
    else:
        v2 = np.full(n + 1, np.nan)
    return {"t": t_grid, "attitude": att, "rate": rate, "u_cmd": u_cmd, "u_sat": u_sat,
            "wheel": wheel, "l_true": l_true, "l_hat": l_hat, "v1": v1, "v2": v2}


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


def _vec(lo, hi):
    return st.tuples(*[st.floats(lo, hi) for _ in range(3)]).map(np.array)


_STEERINGS = [SteeringConfig.isotropic(), SteeringConfig(0.3, -1.1), SteeringConfig(1.2, 0.1)]


@st.composite
def scenarios(draw):
    u_max = draw(st.one_of(st.floats(1.0, 60.0), st.just(math.inf)))
    controller = draw(st.sampled_from(["fl", "backstepping"]))
    if controller == "fl":
        gains = FlGains(draw(_vec(0.5, 60.0)), draw(_vec(0.5, 500.0)))
        adapt = False
    else:
        gains = BsGains(draw(_vec(0.5, 40.0)), draw(_vec(0.5, 2000.0)), draw(_vec(0.1, 10.0)),
                        draw(_vec(0.1, 10.0)), draw(_vec(1e-4, 10.0)))
        adapt = draw(st.booleans())
    disturbance = None
    if draw(st.booleans()):
        budget = PAPER_U_MAX if math.isinf(u_max) else u_max
        disturbance = DisturbanceSpec(
            offset=draw(_vec(-0.2 * budget, 0.2 * budget)),
            sine_amp=draw(_vec(-0.2 * budget, 0.2 * budget)),
            sine_freq=draw(st.floats(0.0, 20.0)),
            sine_phase=draw(_vec(-math.pi, math.pi)),
            noise_sigma=draw(_vec(0.0, 0.05 * budget / 3.0)),
            seed=draw(st.integers(0, 2**32 - 1)),
        )
    dt = draw(st.sampled_from([5e-4, 1e-3, 2e-3]))
    return ScenarioConfig(
        inertias=paper_inertias(),
        steering=draw(st.sampled_from(_STEERINGS)),
        initial=BodyState(draw(_vec(-0.8, 0.8)), draw(_vec(-3.0, 3.0))),
        reference=Reference(draw(_vec(-0.3, 0.3)), draw(_vec(-0.5, 0.5)), draw(_vec(-1.0, 1.0))),
        gains=gains,
        u_max=u_max,
        dt=dt,
        horizon=draw(st.integers(1, 50)) * dt,
        disturbance=disturbance,
        adaptation_enabled=adapt,
    )


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

# No explain phase: on a failure it reruns the example once per drawn value
# (about forty here) and took minutes and hundreds of MB before reporting.
_PROPERTY = settings(max_examples=150, deadline=None,
                     phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink])


@given(cfg=scenarios())
@_PROPERTY
def test_run_scenario_matches_numpy_reference_exactly(cfg):
    with np.errstate(all="ignore"):
        try:
            want = _reference_rollout(cfg)
        except DivergenceError as exc:
            want = exc.step
    try:
        record, _ = run_scenario(cfg)
    except DivergenceError as exc:
        assert exc.step == want
        return
    assert isinstance(want, dict), f"reference diverged at step {want}"
    for name, expected in want.items():
        got = getattr(record, name)
        assert np.array_equal(got, expected, equal_nan=True), name
        # array_equal takes -0.0 for +0.0, but the CSV writes it as -0
        zero = expected == 0.0
        assert np.array_equal(np.signbit(got[zero]), np.signbit(expected[zero])), name
    # the saturation bound holds on every row (a NaN command stays NaN)
    assert not (np.abs(record.u_sat) > cfg.u_max).any()
    assert np.array_equal(record.u_sat, np.clip(record.u_cmd, -cfg.u_max, cfg.u_max),
                          equal_nan=True)


def _one_step(cfg, t, y, noise):
    """The two rows of a one-step rollout of ``cfg`` from ``y`` at ``t``
    under the held ``noise``: the first row holds the commands, L_true and
    (backstepping) e2 at ``y``, the second row's state is the next state."""
    held = None if cfg.disturbance is None else [kernel.floats(noise)] * 2
    return rollout_rows(sim._loop(cfg)(t, 1, y, held), 1)


# The step properties compare with array_equal, which takes -0.0 for +0.0:
# y may hold L_hat = -0.0, which a rollout without adaptation keeps where the
# reference's update (-0.0 + dt/6 * 0.0) gives +0.0.  A run starts L_hat at
# +0.0, and the rollout property above checks the sign of every zero.
@given(cfg=scenarios(), y=st.tuples(*[st.floats(-2.0, 2.0) for _ in range(9)]),
       t=st.floats(0.0, 5.0), noise=_vec(-1.0, 1.0))
@_PROPERTY
def test_step_and_laws_match_numpy_reference_exactly(cfg, y, t, noise):
    if cfg.disturbance is None:
        noise = np.zeros(3)  # a rollout without a disturbance has no noise
    loop = _ReferenceLoop(cfg)
    y_next = _one_step(cfg, t, y, noise)[1]["y"]
    assert np.array_equal(y_next, loop.rk4_step(t, np.array(y), noise))

    # each formula on its own: the drift, the law as the first row's command
    # of a zero-step rollout without a torque limit, and the adaptation law
    # from a one-step adaptive rollout from rest at y's attitude and L_hat,
    # where a zero torque limit holds the plant, so all four stages see one e2
    att, rate, l_hat = np.array(y[0:3]), np.array(y[3:6]), np.array(y[6:9])
    ref, gains, eff = cfg.reference, cfg.gains, loop.eff
    assert np.array_equal(np.array(kernel.drift(eff.j1, eff.j2)(*y[3:6])),
                          _coriolis_acceleration(rate, eff))
    rollout = kernel.closed_loop(gains, ref, eff.j1, eff.j2, math.inf, cfg.dt)
    first = rollout_rows(rollout(t, 0, y, None), 0)[0]
    u = first["u_cmd"]
    if isinstance(cfg.gains, FlGains):
        assert np.array_equal(u, _fl_torque(att, rate, ref.x_d, ref.xd_dot, ref.xd_ddot,
                                             gains.k1, gains.k2, eff.j1, eff.j2))
    else:
        assert np.array_equal(u, _bs_torque(att, rate, ref.x_d, ref.xd_dot, ref.xd_ddot, l_hat,
                                            gains.k1, gains.k2, gains.gamma, gains.lam,
                                            eff.j1, eff.j2))
        e = first["e2"]
        assert np.array_equal(e, _bs_velocity_error(att, rate, ref.x_d, ref.xd_dot, gains.k1))
        rest = y[0:3] + kernel.ZERO + y[6:9]
        adaptive = kernel.closed_loop(gains, ref, eff.j1, eff.j2, 0.0, cfg.dt, None, True)
        at_rest, stepped = rollout_rows(adaptive(t, 1, rest, None), 1)
        l_rate = _adaptation_rate(at_rest["e2"], gains.lam, gains.sigma)
        assert np.array_equal(stepped["l_hat"],
                              l_hat + cfg.dt / 6.0 * (l_rate + 2.0 * l_rate + 2.0 * l_rate
                                                      + l_rate))


#: A state entry: in the range the finite property draws from, any float
#: (huge magnitudes that saturate every command, subnormals, +/-inf, NaN), or
#: a non-finite value outright, so each stage sees saturated and NaN commands.
_EDGE_ENTRY = st.one_of(st.floats(-2.0, 2.0), st.floats(),
                        st.sampled_from([math.nan, math.inf, -math.inf]))


@given(cfg=scenarios(), y=st.tuples(*[_EDGE_ENTRY for _ in range(9)]),
       t=st.floats(0.0, 5.0), noise=_vec(-1.0, 1.0))
@_PROPERTY
def test_step_matches_numpy_reference_at_edge_values(cfg, y, t, noise):
    # every term of every component must reach the result: a NaN or an inf
    # that a reordered or dropped term would lose shows here, where the
    # finite range of the property above can hide it
    if cfg.disturbance is None:
        noise = np.zeros(3)  # a rollout without a disturbance has no noise
    loop = _ReferenceLoop(cfg)
    first, second = _one_step(cfg, t, y, noise)
    y_next, u, l = second["y"], first["u_cmd"], first["l_true"]
    with np.errstate(all="ignore"):
        want = loop.rk4_step(t, np.array(y), noise)
        want_u = loop.command(np.array(y))
        want_l = (np.zeros(3) if loop.dist_torque is None
                  else loop.g * (loop.dist_torque(t) + noise))
        want_c = np.clip(want_u, -cfg.u_max, cfg.u_max)
    assert np.array_equal(y_next, want, equal_nan=True)
    assert np.array_equal(u, want_u, equal_nan=True)
    assert np.array_equal(l, want_l, equal_nan=True)
    # the row's applied command is the clamp of its command, NaN and +/-inf
    # included, and a backstepping row's e2 is the velocity error at y
    assert np.array_equal(first["u_sat"], want_c, equal_nan=True)
    if isinstance(cfg.gains, BsGains):
        att, rate = np.array(y[0:3]), np.array(y[3:6])
        ref = cfg.reference
        with np.errstate(all="ignore"):
            want_z = _bs_velocity_error(att, rate, ref.x_d, ref.xd_dot, cfg.gains.k1)
        assert np.array_equal(first["e2"], want_z, equal_nan=True)


# ---------------------------------------------------------------------------
# the compiled rollout
# ---------------------------------------------------------------------------


def _bs_adaptive(k1=6.0, k2=30.0, u_max=PAPER_U_MAX, horizon=0.05):
    return ScenarioConfig(
        inertias=paper_inertias(),
        steering=SteeringConfig.isotropic(),
        initial=BodyState(np.deg2rad([-22.5, 22.5, 0.0]), np.zeros(3)),
        reference=Reference.zero(),
        gains=BsGains(np.full(3, k1), np.full(3, k2), np.ones(3), np.ones(3), np.full(3, 0.1)),
        u_max=u_max,
        dt=1e-3,
        horizon=horizon,
        disturbance=DisturbanceSpec(offset=np.array([0.5, -0.3, 0.2]),
                                    sine_amp=np.array([0.4, 0.4, 0.1]), sine_freq=6.0,
                                    sine_phase=np.zeros(3), noise_sigma=np.full(3, 0.05), seed=3),
        adaptation_enabled=True,
    )


def test_scenarios_of_one_structure_share_one_compiled_step(monkeypatch):
    first = sim._loop(_bs_adaptive(k1=6.0))
    compiled, real_compile = [], builtins.compile

    def counting_compile(*args, **kwargs):
        compiled.append(args[1])
        return real_compile(*args, **kwargs)

    monkeypatch.setattr(builtins, "compile", counting_compile)
    second = sim._loop(_bs_adaptive(k1=9.0))
    assert compiled == []
    assert second.__code__ is first.__code__
    assert _constants(second)["p0"] == 9.0 and _constants(first)["p0"] == 6.0
    y, noise = (0.1,) * 9, [kernel.ZERO] * 2
    assert second(0.0, 1, y, noise) != first(0.0, 1, y, noise)


def _constants(rollout):
    """A rollout's constants by name, as its first line binds them to locals."""
    names = linecache.getlines(rollout.__code__.co_filename)[1].split("=")[0]
    return dict(zip(names.replace(",", " ").split(), rollout.__globals__["K"], strict=True))


def test_compiled_step_names_its_structure_in_tracebacks():
    rollout = sim._loop(_bs_adaptive())
    name = "<agrosim.kernel rollout: bs+adaptation+disturbance>"
    assert rollout.__code__.co_filename == name
    try:
        rollout(0.0, 1, (0.0,) * 9, None)  # no noise, which a disturbance needs
    except TypeError as exc:
        frame = traceback.extract_tb(exc.__traceback__)[-1]
    assert (frame.filename, frame.name, frame.line) == (name, "rollout", "n0, n1, n2 = noise[k]")
    # every formula line is there to read, e.g. the backstepping law
    assert "u0 = m0 * (((((gl0 * e0 - f0) - l0)" in "".join(linecache.getlines(name))


@pytest.mark.parametrize("name,compiled", [
    ("fl-paper", {"rollout: fl"}),
    ("bs-paper", {"rollout: bs"}),
    ("bs-adaptive-paper", {"rollout: bs+adaptation+disturbance"}),
])
def test_a_run_compiles_only_its_rollout(name, compiled, monkeypatch):
    # no drift function, and no second e2 for a backstepping run's V2 column
    monkeypatch.setattr(kernel, "_CODE", {})
    run_scenario(preset(name, horizon=0.05))
    assert set(kernel._CODE) == compiled


def test_divergence_on_the_disturbance_path_matches_the_reference():
    # the loop runs on past the step where the state left the finite range,
    # through math.sin and the clamp, and the check after it names that step
    cfg = _bs_adaptive(k2=1e12, u_max=math.inf, horizon=0.2)
    with np.errstate(all="ignore"), pytest.raises(DivergenceError) as want:
        _reference_rollout(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as got:
            run_scenario(cfg)
    assert (got.value.step, got.value.t) == (want.value.step, want.value.t)
    assert 1 < got.value.step < cfg.n_steps


@pytest.mark.parametrize("name", ["fl-paper", "bs-paper", "bs-adaptive-paper"])
def test_columns_a_run_never_integrates_are_positive_zero(name):
    # without adaptation L_hat is never integrated and without a disturbance
    # L_true is the literal 0.0; the reference's updates give +0.0 on every
    # row, and the CSV would write a -0.0 as -0
    base = preset(name, horizon=0.2)
    for cfg in (base, dataclasses.replace(base, disturbance=None),
                dataclasses.replace(base, adaptation_enabled=False)):
        record, _ = run_scenario(cfg)
        for column, zero in ((record.l_hat, not cfg.adaptation_enabled),
                             (record.l_true, cfg.disturbance is None)):
            if zero:
                assert (column == 0.0).all() and not np.signbit(column).any()


@pytest.mark.parametrize("name", ["fl-paper", "bs-paper"])
def test_rows_are_copied_bit_for_bit(name):
    # array_equal takes -0.0 for +0.0 and one NaN for another: the bytes of
    # the state a rollout starts from, and of an L_hat it never integrates,
    # must reach the rows as they are, sign and NaN payload included
    nan, negative_nan = (struct.unpack("d", struct.pack("Q", bits))[0]
                         for bits in (0x7FF8_0000_DEAD_BEEF, 0xFFF8_0000_0000_0123))
    y = (0.1, -0.0, negative_nan, 0.2, 0.0, -0.3, -0.0, nan, 1.5)
    rows = rollout_rows(sim._loop(preset(name))(0.0, 2, y, None), 2)
    assert len(rows) == 3
    assert ("e2" in rows[0]) == (name == "bs-paper")  # only a backstepping row has e2
    assert rows[0]["y"].tobytes() == struct.pack("9d", *y)
    for row in rows:
        assert row["l_hat"].tobytes() == struct.pack("3d", *y[6:9])
