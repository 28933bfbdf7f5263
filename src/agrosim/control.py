"""Attitude controllers: PD + feedback linearization and adaptive backstepping.

Both controllers act on the simplified dynamics ``xdd = f(x, xd) + g(x) u``
from :mod:`agrosim.dynamics` and emit *unsaturated* body torques; torque
limiting and wheel allocation happen downstream in the simulation layer.

Feedback linearization cancels f exactly and imposes the linear error
dynamics ``e_dd + k1 e_d + k2 e = 0`` per axis through the pseudo-input
``v = xd_dd + k1 ed + k2 e``.

The backstepping controller treats the rate as a virtual control with
stabilizing function ``U_v = xd_d + K1 e1`` and drives the deviation
``e2 = U_v - xd`` to zero with

    U_B = g^-1 (Lam^-1 Gam e1 - f - L_hat + xd_dd + K1 e1_d + K2 e2)

while the disturbance estimate follows the adaptation law
``L_hat_dot = -Sig^-1 Lam e2``.  All gain matrices are positive diagonal and
stored as 3-vectors; a scalar gain means "that scalar on every axis".

This module holds the gain and reference types the controllers are
configured with.  The laws themselves, e2 and the adaptation law are written
once, on floats, in :mod:`agrosim.kernel`, whose
:func:`~agrosim.kernel.closed_loop` builds a run's rollout from these types.
:func:`lyapunov` is the backstepping Lyapunov function V2, evaluated
vectorised over the rows of a trajectory, and :func:`lqr_double_integrator`
a closed-form gain design for the FL error dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import _ArrayEqMixin, _check_fields, _real, _vec3
from .errors import InvalidParameterError

#: Default bound on ||x_d||^2 + ||xd_d||^2 + ||xd_dd||^2 for references.
DEFAULT_REFERENCE_BOUND = 100.0

#: The gain keys of the scenario schema and of ``agrosim sweep --param``, in
#: document order, and the gains field each one sets.
GAIN_FIELDS = {"k1": "k1", "k2": "k2", "gamma": "gamma", "lambda": "lam", "sigma": "sigma"}


@dataclass(frozen=True, eq=False)
class FlGains(_ArrayEqMixin):
    """Per-axis feedback-linearization gains.

    ``k1`` (1/s) weights the velocity error and ``k2`` (1/s^2) the position
    error.  Positive entries make ``e_dd + k1 e_d + k2 e = 0`` Hurwitz, so
    anything else is rejected at construction.
    """

    k1: np.ndarray
    k2: np.ndarray

    def __post_init__(self):
        _check_fields(self, _vec3, "positive", "k1", "k2")


@dataclass(frozen=True, eq=False)
class BsGains(_ArrayEqMixin):
    """Backstepping gains K1, K2 and Lyapunov weights Gamma, Lambda, Sigma,
    each a positive diagonal stored as a 3-vector; the weights default to
    the identity."""

    k1: np.ndarray
    k2: np.ndarray
    gamma: np.ndarray = 1.0
    lam: np.ndarray = 1.0
    sigma: np.ndarray = 1.0

    def __post_init__(self):
        _check_fields(self, _vec3, "positive", "k1", "k2", "gamma", "lam", "sigma")


@dataclass(frozen=True, eq=False)
class Reference(_ArrayEqMixin):
    """Desired attitude trajectory sample (x_d, xd_d, xd_dd).

    The combined squared magnitude must stay under ``rho`` (boundedness
    assumption of the stability analysis; configurable).  The sample is held
    for the whole run: x_d never integrates ``xd_dot``, so a non-zero rate or
    acceleration demand leaves the body at rest at an offset from x_d, where
    the laws' terms balance.  Under FL that offset is ``x - x_d = (k1 xd_dot
    + xd_ddot) / k2``: fl-paper with ``xd_dot = [0.1, 0, 0]`` rad/s ends at
    roll +0.0163 rad, not turning at 0.1 rad/s.
    """

    x_d: np.ndarray
    xd_dot: np.ndarray
    xd_ddot: np.ndarray
    rho: float = DEFAULT_REFERENCE_BOUND

    def __post_init__(self):
        _check_fields(self, _vec3, "finite", "x_d", "xd_dot", "xd_ddot")
        _check_fields(self, _real, "finite", "rho")
        total = sum(float(v @ v) for v in (self.x_d, self.xd_dot, self.xd_ddot))
        if total > self.rho:
            raise InvalidParameterError(
                f"reference magnitude {total:g} exceeds bound rho = {self.rho:g}"
            )

    @classmethod
    def zero(cls) -> "Reference":
        return cls(0.0, 0.0, 0.0)


def lyapunov(e1: np.ndarray, e2: np.ndarray, l_err: np.ndarray, gains: BsGains) -> np.ndarray:
    """Backstepping Lyapunov function

        V2 = 1/2 e1' Gam e1 + 1/2 e2' Lam e2 + 1/2 Lt' Sig Lt

    with the attitude error e1, the velocity error e2 and the estimation
    error Lt = L - L_hat, each an array of shape (3,) or (n, 3); the sums
    run over the last axis, so rows give one value each.

    Raises
    ------
    InvalidParameterError
        If ``gains`` is not :class:`BsGains`.
    """
    if not isinstance(gains, BsGains):
        raise InvalidParameterError(f"lyapunov needs BsGains, got {type(gains).__name__}")
    return 0.5 * (
        np.sum(e1 * (gains.gamma * e1), axis=-1)
        + np.sum(e2 * (gains.lam * e2), axis=-1)
        + np.sum(l_err * (gains.sigma * l_err), axis=-1)
    )


class LqrGains(NamedTuple):
    """Double-integrator LQR result, ordered (position gain, velocity gain)."""

    k2: float
    k1: float


def lqr_double_integrator(q_pos: float, q_vel: float, r: float) -> LqrGains:
    """Closed-form continuous LQR for the plant xdd = v.

    Minimizes the cost integral of ``q_pos e^2 + q_vel ed^2 + r v^2``; the
    algebraic Riccati equation gives

        k2 = sqrt(q_pos / r)
        k1 = sqrt((q_vel + 2 sqrt(q_pos r)) / r)

    so the closed loop ``e_dd + k1 e_d + k2 e = 0`` is always Hurwitz.

    Raises
    ------
    InvalidParameterError
        Unless ``q_pos`` and ``r`` are positive and ``q_vel`` non-negative
        finite real numbers (a bool is not one).
    """
    q_pos = _real(q_pos, "position weight q_pos", "positive")
    q_vel = _real(q_vel, "velocity weight q_vel", "non-negative")
    r = _real(r, "control weight r", "positive")
    k2 = np.sqrt(q_pos / r)
    k1 = np.sqrt((q_vel + 2.0 * np.sqrt(q_pos * r)) / r)
    return LqrGains(float(k2), float(k1))
