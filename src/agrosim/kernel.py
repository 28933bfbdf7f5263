"""Closed-loop stage kernel on plain Python floats.

This module is the one place where the gyroscopic drift term ``f``, the
feedback-linearization and backstepping control laws, the tracking errors,
the velocity error e2, the adaptation law, the disturbance torque, the
torque clamp and the classical RK4 step are written: each once, as a
per-axis expression over named floats (``_DRIFT``, ``_FL``, ...).
:func:`closed_loop`, the one entry point of a run, takes a scenario's
numbers and assembles the expressions into one function that runs a whole
rollout: a loop over the steps whose body is one straight-line RK4 step
with all four stages inlined.  The state stays in local floats from one
step to the next, and each sample's row, the 3-vectors of :data:`ROW`
(attitude, rate, l_hat, the unclamped and clamped command u_cmd and u_sat,
l_true and, for backstepping only, the velocity error e2), is written in
place by one ``struct.pack_into`` into an ``array('d')`` sized for the
whole run before the first step: one call per step, none per stage, law or
axis.  So the record's applied torque and the e2 of its V2 column are the
rollout's own numbers, not a second clamp or e2.  Outside a run only
:func:`drift` is compiled, one expression, for demo 01.

Compiling: the source of a function depends only on its structure, never
on a scenario's numbers.  A rollout has one of six structures (FL or
backstepping, the latter with or without adaptation, each with or without
a disturbance).  Each is compiled on first use, once per process, under a
filename that names it (e.g. ``<agrosim.kernel rollout:
bs+adaptation+disturbance>``, registered with :mod:`linecache`, so a
traceback or a profile shows the formula line), and every later function of
that structure shares the code object: ``types.FunctionType(code, consts)``
binds the scenario's constants as the function's globals, and a rollout
copies them into locals in its first line, once per call.  Nothing is
compiled at import.  The constants (gains, inertias, reference, disturbance,
and the ratios ``j2/j1``, ``1/j1``, ``gamma/lam``, ``-lam/sigma``, ``dt/2``,
``dt/6``) are converted to ``float`` once, when a function is built.

Live terms only: a rollout without adaptation never integrates L_hat, whose
derivative is zero; it keeps the L_hat it starts from, a run's +0.0, which
the RK4 update ``0.0 + dt/6 * 0.0`` would give again.  One without a
disturbance has no noise list: its noise operand is the literal ``0.0`` and
its L_true is 0.0 in every row.  Each stage computes the errors ``x_d - x``
and ``xd_d - xd`` once per axis, for the law and e2 alike.

Layout: a 3-vector is a tuple of three floats and the augmented state
``[attitude, rate, L_hat]`` a tuple of nine.  :func:`drift`'s function sees
only ``+ - *`` and unpacking on its operands, so it also runs on arrays of
many rows at once.

Bit-identity: every expression evaluates its formula in the order numpy
evaluates the vectorised form, left to right (e.g.
``(xd_dd + k1 e_d) + k2 e``), and keeps every term that can change a bit of
a run, zero noise included (``u + 0.0`` turns ``-0.0`` into ``0.0``).
IEEE-754 double arithmetic on Python floats is that of numpy float64, so
results are bit-for-bit those of the vectorised formulas.  The one
transcendental function, the disturbance sine, is :func:`math.sin`.

Python float arithmetic raises no warning when it overflows: a diverging
loop yields ``inf``/``nan`` quietly and the caller decides what to report.
"""

from __future__ import annotations

import linecache
import math
import struct
from array import array
from types import CodeType, FunctionType
from typing import Callable, Optional, Sequence, Union

from .control import BsGains, FlGains, Reference

#: Three floats, one per body axis.
Vec = tuple[float, float, float]
#: Nine floats: attitude, rate, disturbance estimate L_hat.
State = tuple[float, ...]

ZERO: Vec = (0.0, 0.0, 0.0)

#: The 3-vectors of a rollout row, in the order the rollout writes them; an
#: FL row ends before ``e2``, which backstepping alone computes.
ROW = ("attitude", "rate", "l_hat", "u_cmd", "u_sat", "l_true", "e2")

# Every formula of the closed loop, per axis {i} ({j}, {k}: the other two, in
# order).  The operands: the state a (attitude), r (rate), l (L_hat), the
# drift f, the errors e = x_d - x and ed = xd_dot - xd, the velocity error z,
# the command u and the held noise n.  The constants: fc = j2/j1, m = j1, x,
# v, w = x_d, xd_dot, xd_ddot, p, q = k1, k2, gl = gamma/lam, ls =
# -lam/sigma, o, b, ph = offset, sine amplitude and phase, om = sine
# frequency, g = 1/j1, and hi, lo = +/-u_max.
_DRIFT = "fc{i} * r{j} * r{k}"
_E1 = "x{i} - a{i}"
_E1D = "v{i} - r{i}"
_FL = "m{i} * (((w{i} + p{i} * ed{i}) + q{i} * e{i}) - f{i})"
_E2 = "ed{i} + p{i} * e{i}"
_BS = "m{i} * (((((gl{i} * e{i} - f{i}) - l{i}) + w{i}) + p{i} * ed{i}) + q{i} * z{i})"
_RATE = "ls{i} * z{i}"
_TORQUE = "o{i} + b{i} * sin(om * {t} + ph{i})"
_CLAMP = "hi if u{i} > hi else lo if u{i} < lo else u{i}"
_UNPACK = "    a0, a1, a2, r0, r1, r2, l0, l1, l2 = y"

#: The fields of each axis in a per-axis line.
_AXES = ({"i": 0, "j": 1, "k": 2}, {"i": 1, "j": 0, "k": 2}, {"i": 2, "j": 0, "k": 1})

#: The code object of each function :func:`_function` compiled in this
#: process so far, by name.
_CODE: dict[str, CodeType] = {}


def _function(name: str, source: Callable[[], list[str]], env: dict) -> FunctionType:
    """The function whose source lines ``source()`` returns (a line with
    ``{i}`` stands for one per axis), with ``env`` as its globals.  Only the
    first call for ``name`` in a process calls ``source`` and compiles its
    text; later calls share that code object."""
    code = _CODE.get(name)
    if code is None:
        text = "".join(line.format_map(axis) + "\n" for line in source()
                       for axis in (_AXES if "{i}" in line else _AXES[:1]))
        filename = f"<agrosim.kernel {name}>"
        linecache.cache[filename] = (len(text), None, text.splitlines(True), filename)
        code = _CODE[name] = compile(text, filename, "exec").co_consts[0]
    return FunctionType(code, env)


def floats(v) -> Vec:
    """A 3-vector (array, list or tuple) as three Python floats."""
    a, b, c = v
    return float(a), float(b), float(c)


def drift(j1, j2) -> Callable[[float, float, float], Vec]:
    """Gyroscopic drift term f(xd) of the attitude dynamics: per axis,
    ``f_i = j2_i / j1_i * (product of the other two rates)``."""
    return _function("drift", lambda: ["def f(r0, r1, r2):", "    f{i} = " + _DRIFT,
                                       "    return f0, f1, f2"],
                     {f"fc{i}": float(b) / float(a) for i, (a, b) in enumerate(zip(j1, j2))})


def closed_loop(
    gains: Union[FlGains, BsGains],
    reference: Reference,
    j1,
    j2,
    u_max: float,
    dt: float,
    disturbance=None,
    adapt: bool = False,
) -> Callable[[float, int, State, Optional[Sequence[Vec]]], array]:
    """The RK4 rollout of the augmented state, ``rollout(t0, n, y, noise) ->
    rows``: the ``n + 1`` samples, at ``t0 + k * dt`` for k = 0..n, of the
    run that starts from the nine floats ``y`` at ``t0``.

    ``rows`` is one ``array('d')`` of ``w * (n + 1)`` floats, allocated
    once before the first step (a run too long for memory raises
    ``MemoryError`` there), with one row of ``w`` floats per sample, written
    in place by one ``pack_into`` that copies each double bit for bit.  A
    row is the 3-vectors of :data:`ROW`, ``w = 3 * len(ROW)`` floats, less
    ``e2`` for FL: the state (attitude, rate, L_hat); ``u_cmd``, the
    unclamped command at that state, and ``u_sat``, the clamped one (the
    first stage of the step from it evaluates both); ``l_true = g * (d(t)
    + noise)`` at ``t``: the acceleration-domain image of the injected
    torque, which the adaptive law's L_hat estimates; and ``e2``, the
    velocity error at that state.  A run's applied torque and the e2 of its
    V2 column are read from these rows; apart from the rollout, only
    :func:`drift` is compiled.  The last row comes from one more step, whose
    next state is discarded.  ``noise`` holds the held noise of every
    sample, ``n + 1`` 3-vectors; without ``disturbance`` it is not read
    (pass None), the noise is 0.0 and ``l_true`` is 0.0 in every row.

    The type of ``gains`` picks the law, PD + feedback linearization
    (:class:`~agrosim.control.FlGains`) or backstepping
    (:class:`~agrosim.control.BsGains`), as :mod:`agrosim.control` states
    them, tracking ``reference``.  At every stage the errors ``x_d - x``
    and ``xd_d - xd`` are computed once, and a backstepping law's velocity
    error ``e2 = (xd_d - xd) + K1 (x_d - x)`` once, fed to the law and, with
    ``adapt`` (backstepping only), to ``L_hat_dot = -lam/sigma * e2``.
    Without ``adapt`` L_hat has zero derivative and is not integrated:
    every row keeps the L_hat of ``y``.  The command is clamped to
    ``[-u_max, u_max]`` (NaN passes through, as with ``np.clip``), the
    torque ``d(t) = offset + sine_amp * sin(sine_freq t + sine_phase)`` of
    ``disturbance`` (a :class:`~agrosim.sim.DisturbanceSpec`, whose noise
    fields are not read) and the held noise are added, and the rates
    follow ``f + g * tau`` with the drift f of :func:`drift` and the input
    gain ``g = 1/j1``.  A step evaluates the disturbance once at each of
    ``t``, ``t + dt/2`` and ``t + dt``.
    """
    bs, dist = isinstance(gains, BsGains), disturbance is not None
    dt = float(dt)
    consts = {"hi": float(u_max), "lo": -float(u_max), "h": dt / 2.0, "dt": dt, "s6": dt / 6.0}
    vectors = {"fc": [float(b) / float(a) for a, b in zip(j1, j2)],
               "g": [1.0 / float(a) for a in j1], "m": j1, "p": gains.k1, "q": gains.k2,
               "x": reference.x_d, "v": reference.xd_dot, "w": reference.xd_ddot}
    if bs:
        vectors["gl"] = [float(g) / float(m) for g, m in zip(gains.gamma, gains.lam)]
    if adapt:
        vectors["ls"] = [-float(m) / float(s) for m, s in zip(gains.lam, gains.sigma)]
    if dist:
        consts.update(om=float(disturbance.sine_freq), sin=math.sin)
        vectors.update(o=disturbance.offset, b=disturbance.sine_amp, ph=disturbance.sine_phase)
    for k, vec in vectors.items():
        consts[k + "0"], consts[k + "1"], consts[k + "2"] = floats(vec)
    names = sorted(consts)
    # one recorded row: each vector of ROW per axis, e2 for backstepping only
    cell = {"attitude": "a{i}", "rate": "r{i}", "l_hat": "l{i}", "u_cmd": "u{i}",
            "u_sat": "c{i}", "l_true": "g{i} * (da{i} + n{i})" if dist else "0.0", "e2": "z{i}"}
    row = [cell[name].format(i=i) for name in ROW if bs or name != "e2" for i in range(3)]
    fmt = struct.Struct(f"{len(row)}d")

    def source() -> list[str]:
        # the state a step starts from is stage 1's a, r, l, kept as ya, yr,
        # yl for the later stages and the update; stage s's state is a, r, l
        # and its derivative ksa, ksr, ksl; the disturbance at t, t + dt/2
        # and t + dt is da, dh, db.  Without adapt, l is y's throughout.
        live = "arl"[:2 + adapt]
        body = []
        if dist:
            body += ["n0, n1, n2 = noise[k]", "t = t0 + k * dt", "th = t + h", "tb = t + dt"]
            body += [f"d{d}{{i}} = " + _TORQUE.replace("{t}", t)
                     for d, t in (("a", "t"), ("h", "th"), ("b", "tb"))]
        body += [f"y{p}{{i}} = {p}{{i}}" for p in live]
        for s, d, h in ((1, "a", None), (2, "h", "h"), (3, "h", "h"), (4, "b", "dt")):
            if h:
                body += [f"{p}{{i}} = y{p}{{i}} + {h} * k{s - 1}{p}{{i}}" for p in live]
            body += ["f{i} = " + _DRIFT, "e{i} = " + _E1, "ed{i} = " + _E1D,
                     *(["z{i} = " + _E2] if bs else []), "u{i} = " + (_BS if bs else _FL),
                     "c{i} = " + _CLAMP]
            if s == 1:
                body.append(f"pack_into(rows, {fmt.size} * k, {', '.join(row)})")
            tau = f"(c{{i}} + d{d}{{i}}) + n{{i}}" if dist else "c{i} + 0.0"
            body += [f"k{s}a{{i}} = r{{i}}",
                     f"k{s}r{{i}} = f{{i}} + g{{i}} * ({tau})",
                     *([f"k{s}l{{i}} = " + _RATE] if adapt else [])]
        body += [f"{p}{{i}} = y{p}{{i}} + s6 * (((k1{p}{{i}} + 2.0 * k2{p}{{i}})"
                 f" + 2.0 * k3{p}{{i}}) + k4{p}{{i}})" for p in live]
        return ["def rollout(t0, n, y, noise):", f"    {', '.join(names)} = K", _UNPACK,
                f"    rows = array('d', (0.0,)) * ({len(row)} * (n + 1))",
                "    for k in range(n + 1):",
                *["        " + line for line in body], "    return rows"]

    name = "rollout: " + ("bs" if bs else "fl") + "+adaptation" * adapt + "+disturbance" * dist
    return _function(name, source, {"K": tuple(consts[k] for k in names), "array": array,
                                    "pack_into": fmt.pack_into})
