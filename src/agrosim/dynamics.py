"""Airborne rigid-body attitude dynamics of a 4WIDS robot.

The chassis is reoriented in flight by the reaction torques of its four
steerable drive wheels.  With the steering angles frozen and torques applied
cross-symmetrically (tau_1 = -tau_3, tau_2 = -tau_4), the attitude dynamics
reduce to three coupled second-order equations

    phi_dd   = (J_phi2   * theta_d * psi_d + tau_x) / J_phi1
    theta_dd = (J_theta2 * phi_d   * psi_d + tau_y) / J_theta1
    psi_dd   = (J_psi2   * phi_d   * theta_d + tau_z) / J_psi1

or in vector form ``xdd = f(x, xd) + g(x) u`` with diagonal ``g = 1/J1``.
This module owns the inertia bookkeeping that yields the constants J1 and
J2 (:func:`effective_inertias`) and the Jacobian maps between body torques
and wheel/steering torques.  The equations themselves are written once, on
floats, in :mod:`agrosim.kernel`: the drift term f is
:func:`agrosim.kernel.drift`, and the input gain ``g`` is applied inside
each step of the rollout that :func:`agrosim.kernel.closed_loop` returns,
which also records L_true as ``g`` times the injected torque.

Every scenario type checks its values with :func:`_real` (a real number)
and :func:`_vec3` (a 3-vector; a real number is spread over all three axes),
each under a condition such as "positive".  A bool, a numeric string or any
other non-real value is rejected by name, never converted.

Angles are radians throughout; the command-line layer converts from degrees.
All values are immutable after construction and all functions are pure, so
everything here is safe to share across threads.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    AllocationSingularityError,
    DegenerateInertiaError,
    InvalidParameterError,
)

#: Steering configurations with |sin(delta1 - delta2)| below this lose
#: roll/pitch torque authority and cannot be inverted.
SINGULARITY_TOL = 1e-6

#: Relative tolerance between stored reflected inertias and the values
#: their wheel geometry gives (:meth:`InertiaSet.check_geometry_consistency`).
_GEOMETRY_RTOL = 1e-9

#: The conditions :func:`_real` and :func:`_vec3` enforce, by the words
#: their errors use.
_CONDITIONS = {
    "finite": math.isfinite,
    "positive": lambda v: math.isfinite(v) and v > 0.0,
    "non-negative": lambda v: math.isfinite(v) and v >= 0.0,
    "positive or inf": lambda v: v > 0.0,
}


def _real(value, name: str, condition: str = "finite") -> float:
    """``value`` as a float, if it is a real number (a numpy number or a 0-d
    array of one included, a bool not) that meets ``condition``, one of
    :data:`_CONDITIONS`."""
    if type(value) is not float:  # a float, the common case, needs no kind check
        if isinstance(value, np.ndarray) and value.shape == ():
            value = value[()]
        if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
            raise InvalidParameterError(f"{name} must be a real number, got {value!r}")
        value = float(value)
    if not _CONDITIONS[condition](value):
        raise InvalidParameterError(f"{name} must be {condition}, got {value!r}")
    return value


def _vec3(value, name: str, condition: str = "finite") -> np.ndarray:
    """``value`` as a new read-only array of three floats: a real number is
    spread over all three axes, and each entry of a list, tuple or array of
    three is checked by :func:`_real` on its own, so a bool among them is
    rejected, not upcast."""
    entries = value.tolist() if isinstance(value, np.ndarray) else value
    if not isinstance(entries, (list, tuple)):
        entries = (_real(entries, name, condition),) * 3
    elif len(entries) == 3:
        entries = [_real(x, f"{name}[{i}]", condition) for i, x in enumerate(entries)]
    else:
        raise InvalidParameterError(f"{name} needs 1 or 3 real numbers, got {len(entries)}")
    v = np.array(entries)
    v.flags.writeable = False
    return v


def _check_fields(obj, check, condition: str, *names: str) -> None:
    """Store each named field of the frozen dataclass ``obj`` as ``check``
    (:func:`_real` or :func:`_vec3`) returns it under ``condition``."""
    for name in names:
        object.__setattr__(obj, name, check(getattr(obj, name), name, condition))


class _ArrayEqMixin:
    """Value equality for frozen dataclasses that hold numpy arrays."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        for f in fields(self):
            a, b = getattr(self, f.name), getattr(other, f.name)
            if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
                if not np.array_equal(a, b):
                    return False
            elif a != b:
                return False
        return True

    __hash__ = None  # unhashable, like the numpy arrays its equality compares


@dataclass(frozen=True)
class SteeringConfig:
    """Frozen steering angles, measured from the forward driving direction.

    Cross-symmetry (delta1 = delta3, delta2 = delta4) is implicit: only the
    two independent angles are stored.  ``delta1 = +45 deg, delta2 = -45 deg``
    is the isotropic configuration that equalizes roll and pitch authority.
    """

    delta1: float
    delta2: float

    def __post_init__(self):
        _check_fields(self, _real, "finite", "delta1", "delta2")

    @classmethod
    def from_degrees(cls, delta1_deg: float, delta2_deg: float) -> "SteeringConfig":
        return cls(np.deg2rad(_real(delta1_deg, "delta1_deg")),
                   np.deg2rad(_real(delta2_deg, "delta2_deg")))

    @classmethod
    def isotropic(cls) -> "SteeringConfig":
        return cls(np.pi / 4.0, -np.pi / 4.0)

    def is_singular(self, tol: float = SINGULARITY_TOL) -> bool:
        return abs(np.sin(self.delta1 - self.delta2)) < tol


@dataclass(frozen=True)
class WheelGeometry:
    """Wheel-module placement: track ``a``, wheelbase ``b``, steering offset
    ``c`` (all m) and per-module mass ``m_w`` (kg)."""

    a: float
    b: float
    c: float
    m_w: float

    def __post_init__(self):
        _check_fields(self, _real, "non-negative", "a", "b", "c")
        _check_fields(self, _real, "positive", "m_w")


def reflected_inertia(geometry: WheelGeometry, steering: SteeringConfig) -> tuple[float, float]:
    """Chassis inertia contributed by the wheel masses about roll and pitch.

        J_mWxx = 2 m_w ((b/2 + c cos d1)^2 + (b/2 + c cos d2)^2)
        J_mWyy = 2 m_w ((a/2 + c sin d1)^2 + (b/2 + c sin d2)^2)

    The mixed a/b dependence of the second expression is implemented exactly
    as modelled; see the package docs for the asymmetry note.

    Returns
    -------
    (J_mWxx, J_mWyy) : tuple of float, kg m^2
    """
    a, b, c, m_w = geometry.a, geometry.b, geometry.c, geometry.m_w
    d1, d2 = steering.delta1, steering.delta2
    j_xx = 2.0 * m_w * ((b / 2.0 + c * np.cos(d1)) ** 2 + (b / 2.0 + c * np.cos(d2)) ** 2)
    j_yy = 2.0 * m_w * ((a / 2.0 + c * np.sin(d1)) ** 2 + (b / 2.0 + c * np.sin(d2)) ** 2)
    return float(j_xx), float(j_yy)


@dataclass(frozen=True, eq=False)
class InertiaSet(_ArrayEqMixin):
    """Inertia data for the airborne model.

    Parameters
    ----------
    j_body : (3,) array
        Chassis principal inertias [J_Bxx, J_Byy, J_Bzz], kg m^2.
    j_wheel : (3,) array
        Wheel inertias [J_Wxx, J_Wyy, J_Wzz] about the wheel axes, kg m^2.
    j_reflected : (3,) array
        Reflected inertias [J_mWxx, J_mWyy, J_mWzz] from the offset wheel
        masses, kg m^2.  The zz entry is carried for completeness but does
        not enter the airborne equations.
    geometry : WheelGeometry, optional
        When supplied, the roll/pitch reflected entries must agree with
        :func:`reflected_inertia` for the steering configuration in use
        (checked by :func:`effective_inertias`).
    """

    j_body: np.ndarray
    j_wheel: np.ndarray
    j_reflected: np.ndarray
    geometry: WheelGeometry | None = None

    def __post_init__(self):
        _check_fields(self, _vec3, "positive", "j_body", "j_wheel", "j_reflected")

    @classmethod
    def from_geometry(
        cls,
        j_body,
        j_wheel,
        geometry: WheelGeometry,
        steering: SteeringConfig,
        j_reflected_zz: float,
    ) -> "InertiaSet":
        """Build an inertia set whose roll/pitch reflected entries are
        computed from the wheel geometry at the given steering angles."""
        j_xx, j_yy = reflected_inertia(geometry, steering)
        return cls(j_body, j_wheel, (j_xx, j_yy, j_reflected_zz), geometry)

    def check_geometry_consistency(self, steering: SteeringConfig) -> None:
        """Raise if stored roll/pitch reflected inertias disagree with the
        geometry-derived values beyond a relative :data:`_GEOMETRY_RTOL`
        (no-op without geometry)."""
        if self.geometry is None:
            return
        j_xx, j_yy = reflected_inertia(self.geometry, steering)
        for stored, computed, name in (
            (self.j_reflected[0], j_xx, "J_mWxx"),
            (self.j_reflected[1], j_yy, "J_mWyy"),
        ):
            if abs(stored - computed) > _GEOMETRY_RTOL * max(abs(computed), 1e-300):
                raise InvalidParameterError(
                    f"{name} = {stored!r} inconsistent with geometry value "
                    f"{computed!r} at steering ({steering.delta1!r}, {steering.delta2!r})"
                )


@dataclass(frozen=True, eq=False)
class EffectiveInertias(_ArrayEqMixin):
    """Per-axis inertia constants of the simplified attitude equations.

    ``j1`` holds the divisors [J_phi1, J_theta1, J_psi1] and ``j2`` the
    Coriolis coefficients [J_phi2, J_theta2, J_psi2].  The j1 entries must be
    strictly positive; every controller divides by them.
    """

    j1: np.ndarray
    j2: np.ndarray

    def __post_init__(self):
        _check_fields(self, _vec3, "finite", "j1", "j2")
        if not (self.j1 > 0.0).all():
            raise DegenerateInertiaError(
                f"effective inertia divisors must be positive, got {self.j1}")


def effective_inertias(inertias: InertiaSet, steering: SteeringConfig) -> EffectiveInertias:
    """Collapse body, wheel, and reflected inertias into the six constants
    of the simplified equations of motion.

        J_phi1   = J_Bxx + J_mWxx + 2 J_Wxx (cos d1 + cos d2)
        J_theta1 = J_Byy + J_mWyy + 2 J_Wxx (sin d1 + sin d2)
        J_psi1   = J_Bzz
        J_phi2   = J_Byy - J_Bzz - J_mWxx
        J_theta2 = -J_Bxx + J_Bzz - J_mWyy
        J_psi2   = J_Bxx - J_Byy

    Raises
    ------
    DegenerateInertiaError
        If any divisor comes out non-positive.
    InvalidParameterError
        If the inertia set carries a geometry that contradicts its stored
        reflected inertias at these steering angles.
    """
    inertias.check_geometry_consistency(steering)
    jb, jw, jm = inertias.j_body, inertias.j_wheel, inertias.j_reflected
    d1, d2 = steering.delta1, steering.delta2
    j1 = np.array([
        jb[0] + jm[0] + 2.0 * jw[0] * (np.cos(d1) + np.cos(d2)),
        jb[1] + jm[1] + 2.0 * jw[0] * (np.sin(d1) + np.sin(d2)),
        jb[2],
    ])
    j2 = np.array([
        jb[1] - jb[2] - jm[0],
        -jb[0] + jb[2] - jm[1],
        jb[0] - jb[1],
    ])
    return EffectiveInertias(j1, j2)


@dataclass(frozen=True, eq=False)
class BodyState(_ArrayEqMixin):
    """Attitude [phi, theta, psi] (rad) and body rates (rad/s).

    Near-hover small-rotation kinematics identify the Euler-angle rates with
    the body rates, so this is the whole 6-dimensional simulation state.
    No angle wrapping is applied: the stabilization task regulates to zero.
    """

    attitude: np.ndarray
    rate: np.ndarray

    def __post_init__(self):
        _check_fields(self, _vec3, "finite", "attitude", "rate")

    @classmethod
    def zero(cls) -> "BodyState":
        return cls(0.0, 0.0)


def torque_jacobian(steering: SteeringConfig) -> np.ndarray:
    """Map from (tau1, tau2, tau_delta) to body torques (tau_x, tau_y, tau_z).

        [[ 2 sin d1, -2 sin d2, 0],
         [-2 cos d1,  2 cos d2, 0],
         [       0,         0,  4]]

    The upper-left 2x2 block has determinant 4 sin(d1 - d2); roll/pitch
    authority vanishes when the steering angles coincide.
    """
    d1, d2 = steering.delta1, steering.delta2
    return np.array([
        [2.0 * np.sin(d1), -2.0 * np.sin(d2), 0.0],
        [-2.0 * np.cos(d1), 2.0 * np.cos(d2), 0.0],
        [0.0, 0.0, 4.0],
    ])


def allocate_wheel_torques(tau, steering: SteeringConfig) -> np.ndarray:
    """Invert :func:`torque_jacobian`: wheel and steering torques realizing
    requested body torques.

    ``tau`` is one body torque [tau_x, tau_y, tau_z] (shape (3,)) or one per
    row (shape (n, 3)); the result has the same shape and holds
    [tau1, tau2, tau_delta] per row.  ``tau1`` drives the 1/3 wheel pair and
    ``tau2`` the 2/4 pair, the opposite wheel of each pair receiving the
    negated value (cross-symmetric application); ``tau_delta`` is applied at
    all four steering joints.  Yaw decouples (tau_delta = tau_z / 4); roll
    and pitch come from the 2x2 solve, which requires
    |sin(d1 - d2)| >= :data:`SINGULARITY_TOL`.

    Raises
    ------
    AllocationSingularityError
        If the steering configuration is singular at :data:`SINGULARITY_TOL`.
    InvalidParameterError
        If ``tau`` has any other shape.
    """
    if steering.is_singular():
        raise AllocationSingularityError(steering.delta1, steering.delta2, SINGULARITY_TOL)
    tau = np.asarray(tau, dtype=float)
    if tau.ndim not in (1, 2) or tau.shape[-1] != 3:
        raise InvalidParameterError(f"tau must have shape (3,) or (n, 3), got {tau.shape}")
    rows = np.atleast_2d(tau)
    jac = torque_jacobian(steering)
    wheel = np.empty(rows.shape)
    wheel[:, :2] = np.linalg.solve(jac[:2, :2], rows[:, :2].T).T
    wheel[:, 2] = rows[:, 2] / 4.0
    return wheel.reshape(tau.shape)
