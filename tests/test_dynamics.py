import math
import re

import numpy as np
import pytest
from conftest import rollout_rows
from hypothesis import given, settings
from hypothesis import strategies as st

from agrosim import (
    AllocationSingularityError,
    BodyState,
    DegenerateInertiaError,
    DisturbanceSpec,
    EffectiveInertias,
    FlGains,
    InertiaSet,
    InvalidParameterError,
    Reference,
    SteeringConfig,
    WheelGeometry,
    allocate_wheel_torques,
    effective_inertias,
    reflected_inertia,
    torque_jacobian,
)
from agrosim import kernel
from agrosim.presets import paper_inertias

ISO = SteeringConfig.isotropic()

finite_angles = st.floats(-np.pi, np.pi, allow_nan=False)

#: Values that are no real number: each is rejected by name, not converted.
NOT_REAL = (True, np.False_, "0.5", object())
small_floats = st.floats(-10.0, 10.0, allow_nan=False)


@pytest.fixture(scope="module")
def eff_paper():
    return effective_inertias(paper_inertias(), ISO)


# ---------------------------------------------------------------------------
# reflected inertia
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m_w,b,d1,d2", [(1.0, 1.0, 0.0, 0.0), (2.5, 0.4, 0.7, -1.1)])
def test_reflected_inertia_offset_free_wheels(m_w, b, d1, d2):
    # c = 0 removes the steering dependence entirely: J_mWxx = m_w b^2
    j_xx, _ = reflected_inertia(WheelGeometry(1.0, b, 0.0, m_w), SteeringConfig(d1, d2))
    assert j_xx == pytest.approx(m_w * b**2, rel=1e-14)


def test_reflected_inertia_direct_evaluation():
    j_xx, _ = reflected_inertia(WheelGeometry(1.0, 1.0, 0.1, 1.0), SteeringConfig(0.0, 0.0))
    assert j_xx == pytest.approx(1.44, rel=1e-12)  # 2 ((0.6)^2 + (0.6)^2)


def test_reflected_inertia_reproduces_reference_values():
    # invert the isotropic-steering formulas for a geometry that lands on the
    # reference values, then check the forward map recovers them
    target_xx, target_yy = 0.3055, 0.4103
    m_w, c = 2.0, 0.05
    half_b = np.sqrt(target_xx / (4.0 * m_w)) - c / np.sqrt(2.0)
    half_a = (
        np.sqrt(target_yy / (2.0 * m_w) - (half_b - c / np.sqrt(2.0)) ** 2)
        - c / np.sqrt(2.0)
    )
    geom = WheelGeometry(2.0 * half_a, 2.0 * half_b, c, m_w)
    j_xx, j_yy = reflected_inertia(geom, ISO)
    assert j_xx == pytest.approx(target_xx, abs=1e-3)
    assert j_yy == pytest.approx(target_yy, abs=1e-3)
    # far tighter in practice: the inversion is exact up to roundoff
    assert j_xx == pytest.approx(target_xx, rel=1e-12)
    assert j_yy == pytest.approx(target_yy, rel=1e-12)


def test_wheel_geometry_rejects_bad_values():
    with pytest.raises(InvalidParameterError):
        WheelGeometry(1.0, 1.0, 0.1, 0.0)
    with pytest.raises(InvalidParameterError):
        WheelGeometry(1.0, 1.0, 0.1, -2.0)
    with pytest.raises(InvalidParameterError):
        WheelGeometry(-0.1, 1.0, 0.1, 1.0)
    for i, name in enumerate(("a", "b", "c", "m_w")):
        for bad in NOT_REAL:
            args = [1.0, 1.0, 0.1, 1.0]
            args[i] = bad
            with pytest.raises(InvalidParameterError, match=rf"^{name} "):
                WheelGeometry(*args)


# ---------------------------------------------------------------------------
# effective inertias
# ---------------------------------------------------------------------------

def test_effective_inertias_reference_values(eff_paper):
    c45 = np.cos(np.pi / 4.0)
    expected_phi1 = 0.662 + 0.3055 + 2.0 * 0.006565 * (c45 + c45)
    assert eff_paper.j1[0] == pytest.approx(expected_phi1, rel=1e-14)
    assert eff_paper.j1[0] == pytest.approx(0.98607, abs=5e-6)
    # sine terms cancel at isotropic steering
    assert eff_paper.j1[1] == pytest.approx(0.940 + 0.4103, abs=1e-12)
    assert eff_paper.j1[2] == 1.448
    assert eff_paper.j2[0] == pytest.approx(0.940 - 1.448 - 0.3055, rel=1e-14)
    assert eff_paper.j2[1] == pytest.approx(-0.662 + 1.448 - 0.4103, rel=1e-14)
    assert eff_paper.j2[2] == pytest.approx(-0.278, rel=1e-12)


def test_effective_inertias_degenerate():
    # large wheel inertia with both steering angles at -90 deg drives the
    # pitch divisor negative
    bad = InertiaSet(
        j_body=np.array([0.1, 0.1, 0.1]),
        j_wheel=np.array([1.0, 1.0, 1.0]),
        j_reflected=np.array([0.1, 0.1, 0.1]),
    )
    with pytest.raises(DegenerateInertiaError):
        effective_inertias(bad, SteeringConfig(-np.pi / 2.0, -np.pi / 2.0))


def test_effective_inertias_geometry_cross_check():
    geom = WheelGeometry(0.52, 0.32, 0.05, 2.0)
    inertias = InertiaSet.from_geometry(
        j_body=[0.662, 0.940, 1.448],
        j_wheel=[0.006565, 0.011689, 0.006565],
        geometry=geom,
        steering=ISO,
        j_reflected_zz=0.7158,
    )
    j_xx, j_yy = reflected_inertia(geom, ISO)
    assert inertias.j_reflected[0] == pytest.approx(j_xx, rel=1e-9)
    assert inertias.j_reflected[1] == pytest.approx(j_yy, rel=1e-9)
    effective_inertias(inertias, ISO)  # consistent, must not raise

    tampered = InertiaSet(
        inertias.j_body, inertias.j_wheel,
        inertias.j_reflected * np.array([1.001, 1.0, 1.0]), geom,
    )
    with pytest.raises(InvalidParameterError):
        effective_inertias(tampered, ISO)


def test_inertia_set_rejects_non_positive():
    with pytest.raises(InvalidParameterError):
        InertiaSet(np.array([0.0, 1.0, 1.0]), np.ones(3), np.ones(3))
    with pytest.raises(InvalidParameterError):
        InertiaSet(np.ones(3), np.array([1.0, -1.0, 1.0]), np.ones(3))
    for i, name in enumerate(("j_body", "j_wheel", "j_reflected")):
        for bad in NOT_REAL:
            args = [np.ones(3)] * 3
            args[i] = [1.0, bad, 1.0]  # a bool entry is not upcast with its neighbours
            with pytest.raises(InvalidParameterError, match=rf"^{name}\[1\] "):
                InertiaSet(*args)
    with pytest.raises(InvalidParameterError, match=r"^j_reflected\[2\] "):
        InertiaSet.from_geometry(np.ones(3), np.ones(3), WheelGeometry(0.5, 0.3, 0.05, 2.0),
                                 ISO, j_reflected_zz="0.7")


# ---------------------------------------------------------------------------
# angular acceleration xdd = f(x, xd) + g(x) u, as the kernel loop builds it
# ---------------------------------------------------------------------------

def _drift(eff, rate):
    """The gyroscopic drift f: the accelerations under zero torque."""
    return np.array(kernel.drift(eff.j1, eff.j2)(*rate))


def _input_gain(eff):
    """The diagonal of g, acceleration per unit body torque: the first L_true
    of a zero-step rollout under a unit offset torque and zero noise,
    ``g * (1 + 0)``."""
    unit = DisturbanceSpec(1.0, 0.0, 0.0, 0.0, 0.0, seed=0)
    rollout = kernel.closed_loop(FlGains(1.0, 1.0), Reference.zero(), eff.j1, eff.j2,
                                 math.inf, 1e-3, unit)
    return rollout_rows(rollout(0.0, 0, (0.0,) * 9, [kernel.ZERO]), 0)[0]["l_true"]


def test_equilibrium_is_exact(eff_paper):
    acc = _drift(eff_paper, np.zeros(3))
    assert (acc == 0.0).all()


def test_coriolis_only_roll_axis(eff_paper):
    acc = _drift(eff_paper, np.array([0.0, 1.0, 1.0]))
    assert acc[0] == pytest.approx(eff_paper.j2[0] / eff_paper.j1[0], rel=1e-14)
    assert acc[0] == pytest.approx(-0.82499, abs=5e-6)
    assert acc[1] == 0.0 and acc[2] == 0.0


def test_unit_acceleration_scaling(eff_paper):
    torque = np.array([eff_paper.j1[0], 0.0, 0.0])
    acc = _drift(eff_paper, np.zeros(3)) + _input_gain(eff_paper) * torque
    np.testing.assert_allclose(acc, [1.0, 0.0, 0.0], atol=1e-15)


@given(r=small_floats, axis=st.integers(0, 2), zero_axis=st.integers(0, 1))
@settings(max_examples=100)
def test_coriolis_product_structure(eff_paper, r, axis, zero_axis):
    # with torque off, each axis acceleration vanishes whenever either of the
    # other two rates is zero
    rate = np.zeros(3)
    others = [i for i in range(3) if i != axis]
    rate[others[zero_axis]] = r
    acc = _drift(eff_paper, rate)
    assert acc[axis] == 0.0


def test_input_gain_is_inverse_j1(eff_paper):
    np.testing.assert_allclose(_input_gain(eff_paper) * eff_paper.j1, 1.0, rtol=1e-15)


# ---------------------------------------------------------------------------
# torque Jacobian and allocation
# ---------------------------------------------------------------------------

def test_jacobian_zero_steering():
    jac = torque_jacobian(SteeringConfig(0.0, 0.0))
    np.testing.assert_allclose(
        jac, [[0.0, 0.0, 0.0], [-2.0, 2.0, 0.0], [0.0, 0.0, 4.0]], atol=1e-15
    )


def test_jacobian_isotropic():
    jac = torque_jacobian(ISO)
    s2 = np.sqrt(2.0)
    np.testing.assert_allclose(
        jac, [[s2, s2, 0.0], [-s2, s2, 0.0], [0.0, 0.0, 4.0]], atol=1e-15
    )


@given(d1=finite_angles, d2=finite_angles)
@settings(max_examples=200)
def test_jacobian_determinant(d1, d2):
    jac = torque_jacobian(SteeringConfig(d1, d2))
    det = np.linalg.det(jac[:2, :2])
    assert det == pytest.approx(4.0 * np.sin(d1 - d2), abs=1e-12)


def test_allocation_yaw_decouples():
    tau1, tau2, tau_delta = allocate_wheel_torques(np.array([0.0, 0.0, 4.0]), ISO)
    assert tau1 == 0.0 and tau2 == 0.0
    assert tau_delta == 1.0


def test_allocation_isotropic_solution():
    s2 = np.sqrt(2.0)
    tau1, tau2, _ = allocate_wheel_torques(np.array([s2, s2, 0.0]), ISO)
    assert tau1 == pytest.approx(0.0, abs=1e-15)
    assert tau2 == pytest.approx(1.0, rel=1e-14)


def test_allocation_singular_raises():
    steering = SteeringConfig(np.deg2rad(30.0), np.deg2rad(30.0))
    with pytest.raises(AllocationSingularityError) as err:
        allocate_wheel_torques(np.array([1.0, 0.0, 0.0]), steering)
    assert "delta1" in str(err.value)


@pytest.mark.parametrize("shape", [(), (2,), (4,), (2, 5), (2, 3, 3)])
def test_allocation_rejects_other_shapes(shape):
    # once (4,) allocated a torque that was never asked for and (2, 5)
    # returned uninitialised memory in its last two columns
    with pytest.raises(InvalidParameterError, match=re.escape(f"got {shape}")):
        allocate_wheel_torques(np.ones(shape), ISO)


def test_allocation_round_trip_seeded():
    rng = np.random.default_rng(7)
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
        np.testing.assert_allclose(recovered, tau, rtol=1e-9, atol=1e-12)


@given(d1=finite_angles, d2=finite_angles,
       tau=st.tuples(small_floats, small_floats, small_floats))
@settings(max_examples=200)
def test_allocation_round_trip_property(d1, d2, tau):
    steering = SteeringConfig(d1, d2)
    body = np.array(tau)
    if steering.is_singular(1e-3):
        return
    wheel = allocate_wheel_torques(body, steering)
    recovered = torque_jacobian(steering) @ wheel
    np.testing.assert_allclose(recovered, body, rtol=1e-9, atol=1e-9)
    # a block of rows allocates each row (one multi-right-hand-side solve,
    # which may round differently from the one-row solve in the last bit)
    rows = np.stack([body, 2.0 * body, -body])
    recovered = allocate_wheel_torques(rows, steering) @ torque_jacobian(steering).T
    np.testing.assert_allclose(recovered, rows, rtol=1e-9, atol=1e-9)


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------

def test_steering_singularity_flag():
    assert SteeringConfig(0.3, 0.3).is_singular()
    assert not ISO.is_singular()
    assert SteeringConfig(0.0, 1e-7).is_singular(tol=1e-6)


def test_steering_rejects_non_finite():
    with pytest.raises(InvalidParameterError):
        SteeringConfig(np.nan, 0.0)
    for bad in NOT_REAL:
        with pytest.raises(InvalidParameterError, match=r"^delta1 "):
            SteeringConfig(bad, 0.0)
        with pytest.raises(InvalidParameterError, match=r"^delta2 "):
            SteeringConfig(0.0, bad)


def test_steering_from_degrees_checks_before_converting():
    # a valid angle converts exactly as np.deg2rad does
    assert SteeringConfig.from_degrees(30.0, -45.0) == SteeringConfig(np.deg2rad(30.0),
                                                                      np.deg2rad(-45.0))
    for bad in (*NOT_REAL, "x", math.nan, math.inf):
        with pytest.raises(InvalidParameterError, match=r"^delta1_deg "):
            SteeringConfig.from_degrees(bad, -45.0)
        with pytest.raises(InvalidParameterError, match=r"^delta2_deg "):
            SteeringConfig.from_degrees(45.0, bad)


def test_state_arrays_are_read_only():
    state = BodyState(np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        state.attitude[0] = 1.0


def test_construction_does_not_freeze_caller_arrays():
    arr = np.zeros(3)
    state = BodyState(arr, np.zeros(3))
    arr[0] = 5.0  # the stored value is a copy; the caller's array stays live
    assert state.attitude[0] == 0.0


def test_body_state_rejects_bad_shapes():
    with pytest.raises(InvalidParameterError):
        BodyState(np.zeros(2), np.zeros(3))
    with pytest.raises(InvalidParameterError):
        BodyState(np.array([np.inf, 0.0, 0.0]), np.zeros(3))
    for bad in NOT_REAL:
        with pytest.raises(InvalidParameterError, match=r"^attitude\[0\] "):
            BodyState([bad, 0.0, 0.0], np.zeros(3))
        with pytest.raises(InvalidParameterError, match=r"^rate\[2\] "):
            BodyState(np.zeros(3), (0.0, 0.0, bad))
    with pytest.raises(InvalidParameterError, match=r"^rate\[0\] "):
        BodyState(np.zeros(3), np.array([False, True, False]))


def test_body_state_spreads_a_scalar():
    assert BodyState(0.0, 0.0) == BodyState.zero()
    state = BodyState(0.1, np.int64(2))
    np.testing.assert_array_equal(state.attitude, [0.1, 0.1, 0.1])
    assert state.rate.dtype == float and (state.rate == 2.0).all()
    with pytest.raises(ValueError):
        state.attitude[0] = 1.0  # a spread scalar is frozen too


def test_effective_inertias_type_validates():
    with pytest.raises(DegenerateInertiaError):
        EffectiveInertias(np.array([1.0, 0.0, 1.0]), np.zeros(3))
    for bad in NOT_REAL:
        with pytest.raises(InvalidParameterError, match=r"^j1\[0\] "):
            EffectiveInertias([bad, 1.0, 1.0], np.zeros(3))
        with pytest.raises(InvalidParameterError, match=r"^j2\[0\] "):
            EffectiveInertias(np.ones(3), [bad, 0.0, 0.0])
