"""Closed-loop stage kernel on plain Python floats.

This module is the one place where the gyroscopic drift term ``f``, the
feedback-linearization and backstepping control laws, the adaptation law,
the torque clamp, the disturbance torque and the classical RK4 step are
written.  The simulator in :mod:`agrosim.sim` runs on it, and anything else
that needs one of these (a test, a demo, the V2 column of a record) calls
the function here rather than a copy of it.  :func:`closed_loop` is the one
entry point of a run: its step returns the next state together with the
unclamped command and L_true at the step's start, so every recorded row,
the last included, comes from one call of it.

Layout: a 3-vector is a tuple of three floats and the augmented state
``[attitude, rate, L_hat]`` a tuple of nine.  Every constant (gains,
inertias, reference, disturbance) is converted to ``float`` once, when a law
or a step is built, together with the ratios the laws use (``j2/j1``,
``1/j1``, ``gamma/lam``, ``-lam/sigma``, ``dt/2``, ``dt/6``).  On 3-vectors
a numpy call costs far more than the arithmetic it does, and on 9-tuples a
``zip`` comprehension costs more than the nine sums it builds, so the RK4
step unpacks the state and each stage derivative into named floats and
writes every stage state and the final combination as one 9-tuple.  A step
takes about 6 µs (FL) to 10 µs (adaptive backstepping) on a 2-core x86-64
host (see the README's Performance section).  The state operands see only
``+``, ``-``, ``*`` and unpacking, so the same step can run on arrays of
many scenarios at once.

Bit-identity: every expression evaluates the formula in its docstring in
the order numpy evaluates the vectorised form, left to right (e.g.
``(xd_dd + k1 e_d) + k2 e``), and IEEE-754 double arithmetic on Python
floats is that of numpy float64, so results are bit-for-bit those of the
vectorised formulas.  The one transcendental function, the disturbance sine,
is :func:`math.sin`.

Python float arithmetic raises no warning when it overflows: a diverging
loop yields ``inf``/``nan`` quietly and the caller decides what to report.

Nothing here holds mutable state; everything built is safe to share.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

#: Three floats, one per body axis.
Vec = tuple[float, float, float]
#: Nine floats: attitude, rate, disturbance estimate L_hat.
State = tuple[float, ...]
#: A control law: (state, drift f at that state, velocity error e2 at that
#: state or None) -> unclamped torque.
Law = Callable[[State, Vec, Optional[Vec]], Vec]

ZERO: Vec = (0.0, 0.0, 0.0)


def floats(v) -> Vec:
    """A 3-vector (array, list or tuple) as three Python floats."""
    a, b, c = v
    return float(a), float(b), float(c)


def drift(j1, j2) -> Callable[[float, float, float], Vec]:
    """Gyroscopic drift term f(xd) of the attitude dynamics: per axis,
    ``f_i = j2_i / j1_i * (product of the other two rates)``."""
    c0, c1, c2 = (float(b) / float(a) for a, b in zip(j1, j2))

    def f(r0: float, r1: float, r2: float) -> Vec:
        return c0 * r1 * r2, c1 * r0 * r2, c2 * r0 * r1

    return f


def fl_law(k1, k2, j1, x_d, xd_dot, xd_ddot) -> Law:
    """PD + feedback linearization ``u = j1 * (v - f)`` with the pseudo-input
    ``v = xd_dd + k1 e_d + k2 e``, ``e = x_d - x``, ``e_d = xd_d - xd``."""
    p0, p1, p2 = floats(k1)
    q0, q1, q2 = floats(k2)
    m0, m1, m2 = floats(j1)
    x0, x1, x2 = floats(x_d)
    v0, v1, v2 = floats(xd_dot)
    w0, w1, w2 = floats(xd_ddot)

    def law(y: State, f: Vec, e: Optional[Vec]) -> Vec:
        a0, a1, a2, r0, r1, r2, _, _, _ = y
        f0, f1, f2 = f
        return (
            m0 * (((w0 + p0 * (v0 - r0)) + q0 * (x0 - a0)) - f0),
            m1 * (((w1 + p1 * (v1 - r1)) + q1 * (x1 - a1)) - f1),
            m2 * (((w2 + p2 * (v2 - r2)) + q2 * (x2 - a2)) - f2),
        )

    return law


def velocity_error(k1, x_d, xd_dot) -> Callable[[State], Vec]:
    """Backstepping velocity error ``e2 = (xd_d - xd) + K1 (x_d - x)``: the
    deviation of the rate from the virtual control."""
    k0, k1_, k2_ = floats(k1)
    x0, x1, x2 = floats(x_d)
    v0, v1, v2 = floats(xd_dot)

    def e2(y: State) -> Vec:
        a0, a1, a2, r0, r1, r2, _, _, _ = y
        return (v0 - r0) + k0 * (x0 - a0), (v1 - r1) + k1_ * (x1 - a1), (v2 - r2) + k2_ * (x2 - a2)

    return e2


def bs_law(k1, k2, gamma, lam, j1, x_d, xd_dot, xd_ddot) -> Law:
    """Adaptive backstepping
    ``u = j1 * (gamma/lam e1 - f - L_hat + xd_dd + K1 e1_d + K2 e2)`` with
    ``e1 = x_d - x``, ``e1_d = xd_d - xd`` and e2 from :func:`velocity_error`,
    summed left to right.  The law takes e2 as its third argument, so that a
    stage which also feeds e2 to the adaptation law computes it once."""
    k0, k1_, k2_ = floats(k1)
    s0, s1, s2 = floats(k2)
    c0, c1, c2 = (float(g) / float(m) for g, m in zip(gamma, lam))
    m0, m1, m2 = floats(j1)
    x0, x1, x2 = floats(x_d)
    v0, v1, v2 = floats(xd_dot)
    w0, w1, w2 = floats(xd_ddot)

    def law(y: State, f: Vec, e: Vec) -> Vec:
        a0, a1, a2, r0, r1, r2, l0, l1, l2 = y
        f0, f1, f2 = f
        z0, z1, z2 = e
        return (
            m0 * (((((c0 * (x0 - a0) - f0) - l0) + w0) + k0 * (v0 - r0)) + s0 * z0),
            m1 * (((((c1 * (x1 - a1) - f1) - l1) + w1) + k1_ * (v1 - r1)) + s1 * z1),
            m2 * (((((c2 * (x2 - a2) - f2) - l2) + w2) + k2_ * (v2 - r2)) + s2 * z2),
        )

    return law


def adaptation(lam, sigma) -> Callable[[Vec], Vec]:
    """Adaptation law ``L_hat_dot = -lam/sigma * e2``, per axis."""
    c0, c1, c2 = (-float(m) / float(s) for m, s in zip(lam, sigma))

    def rate(e: Vec) -> Vec:
        e0, e1, e2 = e
        return c0 * e0, c1 * e1, c2 * e2

    return rate


def disturbance(offset, sine_amp, sine_freq, sine_phase) -> Callable[[float], Vec]:
    """Deterministic disturbance torque ``offset + amp * sin(freq t + phase)``."""
    o0, o1, o2 = floats(offset)
    b0, b1, b2 = floats(sine_amp)
    p0, p1, p2 = floats(sine_phase)
    w = float(sine_freq)
    sin = math.sin

    def torque(t: float) -> Vec:
        s = w * t
        return o0 + b0 * sin(s + p0), o1 + b1 * sin(s + p1), o2 + b2 * sin(s + p2)

    return torque


def closed_loop(
    law: Law,
    j1,
    j2,
    u_max: float,
    dt: float,
    dist: Optional[Callable[[float], Vec]] = None,
    e2: Optional[Callable[[State], Vec]] = None,
    l_rate: Optional[Callable[[Vec], Vec]] = None,
) -> Callable[[float, State, Vec], tuple[State, Vec, Vec]]:
    """The RK4 step of the augmented state, ``step(t, y, noise) -> (y_next,
    u, l)``: every recorded row of a run comes from one call.

    At every stage the velocity error ``e2`` (if given) is computed once and
    fed to the law and, when ``l_rate`` (the adaptation law) is given, to
    the L_hat derivative; without ``l_rate`` L_hat has zero derivative.  The
    command is clamped to ``[-u_max, u_max]`` (NaN passes through, as with
    ``np.clip``), the deterministic disturbance and the held noise are
    added, and the rates follow ``f + g * tau`` with the input gain
    ``g = 1/j1``.  A step evaluates ``dist`` once at each of ``t``,
    ``t + dt/2`` and ``t + dt``.

    Besides ``y_next`` the step returns ``u``, the unclamped command at
    ``y`` (its first stage evaluates it), and ``l = g * (dist(t) + noise)``,
    L_true at ``t``: the acceleration-domain image of the injected torque,
    which the adaptive law's L_hat estimates.  Without ``dist``, ``l`` is
    ZERO.
    """
    f = drift(j1, j2)
    g0, g1, g2 = (1.0 / float(a) for a in j1)
    hi = float(u_max)
    lo = -hi
    dt = float(dt)
    h = dt / 2.0
    s6 = dt / 6.0

    def stage(y: State, d: Vec, n: Vec) -> tuple[State, Vec]:
        r0, r1, r2 = y[3], y[4], y[5]
        f0, f1, f2 = fy = f(r0, r1, r2)
        e = None if e2 is None else e2(y)
        u = law(y, fy, e)
        u0, u1, u2 = u
        u0 = hi if u0 > hi else lo if u0 < lo else u0
        u1 = hi if u1 > hi else lo if u1 < lo else u1
        u2 = hi if u2 > hi else lo if u2 < lo else u2
        n0, n1, n2 = n
        if dist is None:
            t0, t1, t2 = u0 + n0, u1 + n1, u2 + n2
        else:
            d0, d1, d2 = d
            t0, t1, t2 = (u0 + d0) + n0, (u1 + d1) + n1, (u2 + d2) + n2
        p0, p1, p2 = ZERO if l_rate is None else l_rate(e)
        return (r0, r1, r2, f0 + g0 * t0, f1 + g1 * t1, f2 + g2 * t2, p0, p1, p2), u

    def step(t: float, y: State, n: Vec) -> tuple[State, Vec, Vec]:
        # y + h * k per component, then y + dt/6 * (((k1 + 2 k2) + 2 k3) + k4)
        if dist is None:
            da = dh = db = l = ZERO
        else:
            da, dh, db = dist(t), dist(t + h), dist(t + dt)
            (d0, d1, d2), (n0, n1, n2) = da, n
            l = g0 * (d0 + n0), g1 * (d1 + n1), g2 * (d2 + n2)
        y0, y1, y2, y3, y4, y5, y6, y7, y8 = y
        k1, u = stage(y, da, n)
        a0, a1, a2, a3, a4, a5, a6, a7, a8 = k1
        k2, _ = stage((y0 + h * a0, y1 + h * a1, y2 + h * a2, y3 + h * a3, y4 + h * a4,
                       y5 + h * a5, y6 + h * a6, y7 + h * a7, y8 + h * a8), dh, n)
        b0, b1, b2, b3, b4, b5, b6, b7, b8 = k2
        k3, _ = stage((y0 + h * b0, y1 + h * b1, y2 + h * b2, y3 + h * b3, y4 + h * b4,
                       y5 + h * b5, y6 + h * b6, y7 + h * b7, y8 + h * b8), dh, n)
        c0, c1, c2, c3, c4, c5, c6, c7, c8 = k3
        k4, _ = stage((y0 + dt * c0, y1 + dt * c1, y2 + dt * c2, y3 + dt * c3, y4 + dt * c4,
                       y5 + dt * c5, y6 + dt * c6, y7 + dt * c7, y8 + dt * c8), db, n)
        w0, w1, w2, w3, w4, w5, w6, w7, w8 = k4
        return (
            y0 + s6 * (((a0 + 2.0 * b0) + 2.0 * c0) + w0),
            y1 + s6 * (((a1 + 2.0 * b1) + 2.0 * c1) + w1),
            y2 + s6 * (((a2 + 2.0 * b2) + 2.0 * c2) + w2),
            y3 + s6 * (((a3 + 2.0 * b3) + 2.0 * c3) + w3),
            y4 + s6 * (((a4 + 2.0 * b4) + 2.0 * c4) + w4),
            y5 + s6 * (((a5 + 2.0 * b5) + 2.0 * c5) + w5),
            y6 + s6 * (((a6 + 2.0 * b6) + 2.0 * c6) + w6),
            y7 + s6 * (((a7 + 2.0 * b7) + 2.0 * c7) + w7),
            y8 + s6 * (((a8 + 2.0 * b8) + 2.0 * c8) + w8),
        ), u, l

    return step
