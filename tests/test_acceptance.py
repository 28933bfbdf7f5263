"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see every line.  Each test
asserts its criterion at the stated tolerance; the printed line carries the
measured numbers either way.
"""

import dataclasses
import io
import time

import numpy as np
import pytest

from agrosim import (
    BodyState,
    DisturbanceSpec,
    FlGains,
    Reference,
    ScenarioConfig,
    SteeringConfig,
    allocate_wheel_torques,
    estimate_error_metrics,
    lqr_double_integrator,
    run_scenario,
    settle_time,
    torque_jacobian,
)
from agrosim.presets import (
    PAPER_U_MAX,
    bs_adaptive_paper,
    bs_paper,
    fl_paper,
    paper_inertias,
    paper_initial_state,
)

from conftest import underdamped_error

SETTLE_DEADLINE = 0.30
BAND_DEG = 2.0
# the abstract: both controllers "stabilized the system within 250 milliseconds"
CLAIM_DEADLINE = 0.25
CLAIM_BAND_DEG = 5.0


def _report(criterion: int, ok: bool, detail: str) -> str:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


@pytest.fixture(scope="module")
def fl_run():
    t0 = time.perf_counter()
    record, metrics = run_scenario(fl_paper())
    return record, metrics, time.perf_counter() - t0


@pytest.fixture(scope="module")
def bs_run():
    t0 = time.perf_counter()
    record, metrics = run_scenario(bs_paper())
    return record, metrics, time.perf_counter() - t0


@pytest.fixture(scope="module")
def adaptive_run():
    record, metrics = run_scenario(bs_adaptive_paper())
    return record, metrics


def test_criterion_1_settling_reproduction(fl_run, bs_run):
    _, fl_metrics, fl_elapsed = fl_run
    _, bs_metrics, bs_elapsed = bs_run
    settles = {
        "fl roll": fl_metrics.settle_time[0],
        "fl pitch": fl_metrics.settle_time[1],
        "bs roll": bs_metrics.settle_time[0],
        "bs pitch": bs_metrics.settle_time[1],
    }
    runtime_ok = fl_elapsed < 1.0 and bs_elapsed < 1.0
    settle_ok = all(np.isfinite(v) and v <= SETTLE_DEADLINE for v in settles.values())
    detail = (
        ", ".join(f"{k} {v:.3f} s" for k, v in settles.items())
        + f"; runtimes {fl_elapsed:.2f}/{bs_elapsed:.2f} s (limit {SETTLE_DEADLINE} s, band +/-{BAND_DEG} deg)"
    )
    line = _report(1, settle_ok and runtime_ok, detail)
    assert runtime_ok, line
    assert settle_ok, line


def test_abstract_250ms_claim(fl_run, bs_run, adaptive_run):
    # the abstract names no band; at criterion 1's +/-2 deg the claim fails
    # (above), and +/-5 deg, enter and stay, is the band the claim holds at
    runs = {"fl": fl_run[0], "bs": bs_run[0], "bs-adaptive": adaptive_run[0]}
    settles = {name: settle_time(rec, np.deg2rad(CLAIM_BAND_DEG))[:2]
               for name, rec in runs.items()}
    ok = all((v < CLAIM_DEADLINE).all() for v in settles.values())
    detail = ", ".join(f"{name} roll/pitch {r:.3f}/{p:.3f} s" for name, (r, p) in settles.items())
    line = (f"ABSTRACT 250 ms: {'PASS' if ok else 'FAIL'} - {detail} "
            f"(limit {CLAIM_DEADLINE} s, band +/-{CLAIM_BAND_DEG} deg)")
    print(line)
    assert ok, line


def test_abstract_robustness_contrast(adaptive_run):
    # the abstract: FL "does not guarantee stability" under disturbance, and
    # adaptive backstepping compensates for it.  The three runs share
    # bs-adaptive-paper's disturbance, seed and torque limit; the residual is
    # the largest |error| once the transient is over (t >= 1 s)
    adaptive = bs_adaptive_paper()
    runs = {
        "fl + disturbance": run_scenario(
            dataclasses.replace(fl_paper(), disturbance=adaptive.disturbance))[0],
        "bs, adaptation off": run_scenario(
            dataclasses.replace(adaptive, adaptation_enabled=False))[0],
        "bs, adaptive": adaptive_run[0],
    }
    residual = {name: np.rad2deg(np.abs(rec.error()[rec.t >= 1.0]).max(axis=0))
                for name, rec in runs.items()}
    fl_outside = bool((residual["fl + disturbance"][:2] > BAND_DEG).all())
    ratio = residual["bs, adaptation off"] / residual["bs, adaptive"]
    ok = fl_outside and bool((ratio >= 5.0).all())
    detail = "; ".join(f"{name} {r:.3f}/{p:.3f}/{y:.3f} deg"
                       for name, (r, p, y) in residual.items())
    line = (f"ABSTRACT robustness: {'PASS' if ok else 'FAIL'} - max |error| at t >= 1 s "
            f"(roll/pitch/yaw): {detail}; adaptation gains x{ratio.min():.1f} at least "
            f"(needs fl roll/pitch outside +/-{BAND_DEG} deg, adaptive 5x below non-adaptive)")
    print(line)
    assert ok, line


def test_settle_times_are_not_a_step_size_artifact(fl_run, bs_run, adaptive_run):
    # criterion 1's miss belongs to the model: a 4x finer step moves no
    # +/-2 deg settle time of any preset (every axis) by as much as 2 ms
    runs = {"fl": (fl_paper, fl_run[1]), "bs": (bs_paper, bs_run[1]),
            "bs-adaptive": (bs_adaptive_paper, adaptive_run[1])}
    moves = {}
    for name, (build, coarse) in runs.items():
        fine = run_scenario(dataclasses.replace(build(), dt=0.00025))[1]
        moves[name] = np.abs(fine.settle_time - coarse.settle_time).max()
    ok = all(move < 0.002 for move in moves.values())
    detail = ", ".join(f"{name} {move * 1e3:.2f} ms" for name, move in moves.items())
    line = (f"REFINEMENT: {'PASS' if ok else 'FAIL'} - largest +/-{BAND_DEG} deg settle "
            f"time move from dt = 1 ms to 0.25 ms: {detail} (limit 2 ms)")
    print(line)
    assert ok, line


def test_criterion_2_saturation_respected(fl_run, bs_run):
    peaks = {}
    ok = True
    for name, (record, _, _) in (("fl", fl_run), ("bs", bs_run)):
        peak = np.abs(record.u_sat).max()
        peaks[name] = peak
        ok = ok and bool((np.abs(record.u_sat) <= PAPER_U_MAX).all())
    detail = ", ".join(f"{k} peak |u| = {v:.4f} N m" for k, v in peaks.items())
    line = _report(2, ok, detail + f" (limit {PAPER_U_MAX})")
    assert ok, line


def test_criterion_3_fl_exactness():
    gains = FlGains(19.9977, 122.6497)
    rng = np.random.default_rng(2718)
    worst = 0.0
    for _ in range(10):
        att0 = rng.uniform(-np.pi / 4.0, np.pi / 4.0, 3)
        rate0 = rng.uniform(-2.0, 2.0, 3)
        cfg = ScenarioConfig(
            inertias=paper_inertias(),
            steering=SteeringConfig.isotropic(),
            initial=BodyState(att0, rate0),
            reference=Reference.zero(),
            gains=gains,
            u_max=np.inf,
        )
        record, _ = run_scenario(cfg)
        err_sim = record.error()
        for axis in range(3):
            expected = underdamped_error(
                record.t, 19.9977, 122.6497, -att0[axis], -rate0[axis]
            )
            worst = max(worst, float(np.abs(err_sim[:, axis] - expected).max()))
    ok = worst <= 1e-6
    line = _report(3, ok, f"max |simulated - analytic| = {worst:.3e} rad (tol 1e-6)")
    assert ok, line


def test_criterion_4_lyapunov_descent():
    cfg = dataclasses.replace(bs_paper(), u_max=np.inf)  # the descent law's domain
    record, _ = run_scenario(cfg)
    max_increase = float(np.diff(record.v2).max())
    ok = max_increase <= 1e-9
    line = _report(4, ok, f"max per-step V2 increase = {max_increase:.3e} (tol 1e-9)")
    assert ok, line


def test_criterion_5_adaptive_tracking(adaptive_run):
    record, _ = adaptive_run
    tail = record.t >= 0.5
    att_max_deg = float(np.abs(np.rad2deg(record.attitude[tail])).max())
    rms = estimate_error_metrics(record, (0.7, 1.2))
    peak = float(np.linalg.norm(record.l_true, axis=1).max())
    ratio = rms / peak
    ok = att_max_deg <= BAND_DEG and ratio < 0.15
    line = _report(
        5, ok,
        f"max |attitude| after 0.5 s = {att_max_deg:.3f} deg (tol {BAND_DEG}); "
        f"estimate-error RMS [0.7, 1.2] = {rms:.3f} = {ratio:.1%} of peak |L| (tol 15%)",
    )
    assert ok, line


def test_criterion_6_constant_disturbance_convergence():
    base = bs_adaptive_paper()
    constant_only = DisturbanceSpec(
        offset=np.full(3, 0.15 * PAPER_U_MAX), sine_amp=np.zeros(3), sine_freq=0.0,
        sine_phase=np.zeros(3), noise_sigma=np.zeros(3), seed=0,
    )
    cfg = dataclasses.replace(base, disturbance=constant_only)
    record, _ = run_scenario(cfg)
    final_err = float(np.linalg.norm(record.l_true[-1] - record.l_hat[-1]))
    norm_l = float(np.linalg.norm(record.l_true[-1]))
    ratio = final_err / norm_l
    ok = ratio < 0.02
    line = _report(
        6, ok,
        f"|L - L_hat| at t = 1.5 s is {ratio:.2e} of |L| = {norm_l:.3f} rad/s^2 (tol 0.02)",
    )
    assert ok, line


def test_criterion_7_oracle_equivalences():
    # allocation round trip, 1000 non-singular random configurations
    rng = np.random.default_rng(7)
    alloc_worst = 0.0
    count = 0
    while count < 1000:
        d1, d2 = rng.uniform(-np.pi, np.pi, 2)
        steering = SteeringConfig(d1, d2)
        if steering.is_singular(1e-3):
            continue
        count += 1
        tau = rng.uniform(-50.0, 50.0, 3)
        wheel = allocate_wheel_torques(tau, steering)
        recovered = torque_jacobian(steering) @ wheel
        denom = max(float(np.abs(tau).max()), 1e-12)
        alloc_worst = max(alloc_worst, float(np.abs(recovered - tau).max()) / denom)
    alloc_ok = alloc_worst <= 1e-9

    # Riccati residual of the closed-form LQR over a weight grid
    def riccati_residual(q_pos, q_vel, r):
        g = lqr_double_integrator(q_pos, q_vel, r)
        p12, p22 = g.k2 * r, g.k1 * r
        P = np.array([[p12 * p22 / r, p12], [p12, p22]])
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        B = np.array([[0.0], [1.0]])
        res = A.T @ P + P @ A - P @ B @ B.T @ P / r + np.diag([q_pos, q_vel])
        return float(np.abs(res).max()) / max(q_pos, q_vel, 1.0)

    riccati_worst = max(
        riccati_residual(q_pos, q_vel, r)
        for q_pos in (1e-2, 1.0, 16.5, 5299.4)
        for q_vel in (0.0, 1.0, 100.0)
        for r in (6.407e-5, 1.0, 10.0)
    )
    riccati_ok = riccati_worst <= 1e-9

    # RK4 self-convergence on the torque-unconstrained recovery transient
    def attitude_at(dt):
        cfg = ScenarioConfig(
            inertias=paper_inertias(),
            steering=SteeringConfig.isotropic(),
            initial=paper_initial_state(),
            reference=Reference.zero(),
            gains=FlGains(19.9977, 122.6497),
            u_max=np.inf,
            dt=dt,
            horizon=0.2,
        )
        record, _ = run_scenario(cfg)
        return record.attitude

    ref = attitude_at(1e-5)
    err_2ms = float(np.abs(attitude_at(2e-3) - ref[::200]).max())
    err_1ms = float(np.abs(attitude_at(1e-3)[::2] - ref[::200]).max())
    slope = np.log2(err_2ms / err_1ms)
    slope_ok = slope >= 3.5

    # equilibrium regression: exactly zero, bit for bit
    cfg0 = ScenarioConfig(
        inertias=paper_inertias(), steering=SteeringConfig.isotropic(),
        initial=BodyState.zero(), reference=Reference.zero(),
        gains=FlGains(19.9977, 122.6497), u_max=PAPER_U_MAX,
        horizon=0.25,
    )
    rec0, _ = run_scenario(cfg0)
    equil_ok = bool(
        (rec0.attitude == 0.0).all() and (rec0.rate == 0.0).all()
        and (rec0.u_sat == 0.0).all()
    )

    ok = alloc_ok and riccati_ok and slope_ok and equil_ok
    line = _report(
        7, ok,
        f"allocation round trip worst rel err {alloc_worst:.2e} (tol 1e-9); "
        f"Riccati residual {riccati_worst:.2e} (tol 1e-9); "
        f"RK4 slope {slope:.2f} (min 3.5); equilibrium exact: {equil_ok}",
    )
    assert ok, line


def test_criterion_8_determinism_byte_identical_csv():
    cfg = bs_adaptive_paper()
    outputs = []
    for _ in range(2):
        record, _ = run_scenario(cfg)
        buf = io.StringIO()
        record.to_csv(buf)
        outputs.append(buf.getvalue().encode())
    ok = outputs[0] == outputs[1]
    line = _report(8, ok, f"two runs, {len(outputs[0])} bytes each, identical: {ok}")
    assert ok, line
