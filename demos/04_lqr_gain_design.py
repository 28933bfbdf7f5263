"""Designing PD gains with the double-integrator LQR closed form.

After feedback linearization each attitude axis is a pure double integrator,
so per-axis gains can be computed in closed form from the LQR weights.  The
script shows the weight -> gain map, verifies the Riccati equation residual,
relates the gains to the closed-loop damping and settle estimate, and
recovers the weights behind the published fl-paper gains.
"""

import sys

import numpy as np

from agrosim import lqr_double_integrator
from agrosim.presets import PAPER_FL_K1, PAPER_FL_K2

print(f"{'q_pos':>10} {'q_vel':>8} {'r':>10} {'k2 (pos)':>10} {'k1 (vel)':>10} "
      f"{'zeta':>6} {'~settle':>8}")
for q_pos, q_vel, r in (
    (1.0, 0.0, 1.0),
    (4.0, 0.0, 1.0),
    (100.0, 0.0, 1.0),
    (100.0, 20.0, 1.0),
    (150.0, 3.0, 0.01),
):
    g = lqr_double_integrator(q_pos, q_vel, r)
    wn = np.sqrt(g.k2)
    zeta = g.k1 / (2.0 * wn)
    settle = 4.0 / (zeta * wn)  # classic 2% envelope estimate
    print(f"{q_pos:>10.4g} {q_vel:>8.4g} {r:>10.4g} {g.k2:>10.4f} {g.k1:>10.4f} "
          f"{zeta:>6.3f} {settle:>7.2f} s")

# The closed form always satisfies the algebraic Riccati equation; check one
# case explicitly.
q_pos, q_vel, r = 150.0, 3.0, 0.01
g = lqr_double_integrator(q_pos, q_vel, r)
p12, p22 = g.k2 * r, g.k1 * r
P = np.array([[p12 * p22 / r, p12], [p12, p22]])
A = np.array([[0.0, 1.0], [0.0, 0.0]])
B = np.array([[0.0], [1.0]])
residual = A.T @ P + P @ A - P @ B @ B.T @ P / r + np.diag([q_pos, q_vel])
print(f"\nRiccati residual for (q_pos={q_pos}, q_vel={q_vel}, r={r}): "
      f"{np.abs(residual).max():.2e}")

# The published fl-paper gain pair is itself an LQR design.  Inverting the
# closed form gives q_pos/r = k2^2 and q_vel/r = k1^2 - 2 k2; these weights
# give the preset's pair back exactly, and the script exits non-zero if they
# do not.
q_pos, q_vel = 15042.94891009, 154.60860528999996
g = lqr_double_integrator(q_pos, q_vel, 1.0)
print(f"\nfl-paper weights q_pos/r = {q_pos:.2f}, q_vel/r = {q_vel:.2f} give "
      f"(k2, k1) = ({g.k2!r}, {g.k1!r}); the preset has ({PAPER_FL_K2!r}, {PAPER_FL_K1!r})")
if (g.k2, g.k1) != (PAPER_FL_K2, PAPER_FL_K1):
    sys.exit("the LQR weights do not reproduce the fl-paper gains")
