"""Tour of the airborne dynamics layer.

Walks through the inertia bookkeeping, the equations of motion, and the
body-torque <-> wheel-torque maps for the reference robot in its isotropic
steering configuration.
"""

import numpy as np

from agrosim import (
    SteeringConfig,
    WheelGeometry,
    allocate_wheel_torques,
    effective_inertias,
    kernel,
    reflected_inertia,
    torque_jacobian,
)
from agrosim.presets import paper_inertias

np.set_printoptions(precision=5, suppress=True)

# The wheels steer to +/-45 deg for airborne recovery: that equalizes the
# control authority over roll and pitch.
steering = SteeringConfig.isotropic()
print(f"steering: delta1 = {np.rad2deg(steering.delta1):.0f} deg, "
      f"delta2 = {np.rad2deg(steering.delta2):.0f} deg")

# Offset wheel masses contribute chassis inertia that depends on the steering
# angles.  A 2 kg wheel module 5 cm behind its steering axis on a roughly
# 0.52 m x 0.32 m footprint lands close to the preset's data values:
geom = WheelGeometry(a=0.519, b=0.320, c=0.05, m_w=2.0)
j_xx, j_yy = reflected_inertia(geom, steering)
print(f"reflected inertia from wheel masses: J_mWxx = {j_xx:.4f}, "
      f"J_mWyy = {j_yy:.4f} kg m^2 (preset data: 0.3055, 0.4103)")

# The simulation presets carry the reflected inertias directly as data.
inertias = paper_inertias()
eff = effective_inertias(inertias, steering)
print("effective inertia divisors  J1 =", eff.j1)
print("Coriolis coefficients       J2 =", eff.j2)

# Gyroscopic coupling: pitch and yaw rates together produce roll
# acceleration even with zero applied torque: that is the drift term f.
acc = np.array(kernel.drift(eff.j1, eff.j2)(0.0, 1.0, 1.0))
print(f"\nrates [0, 1, 1] rad/s, zero torque -> accelerations {acc} rad/s^2")

# The torque Jacobian maps (wheel pair 1/3, wheel pair 2/4, steering joints)
# to body torques; at the isotropic configuration it is beautifully regular.
jac = torque_jacobian(steering)
print("\ntorque Jacobian:\n", jac)
print("roll/pitch authority (det of the 2x2 block):", np.linalg.det(jac[:2, :2]))

# Allocation inverts that map: it returns [tau1, tau2, tau_delta].  A pure
# yaw torque splits evenly over the four steering joints:
tau1, tau2, tau_delta = allocate_wheel_torques(np.array([0.0, 0.0, 4.0]), steering)
print(f"\nbody torque [0, 0, 4] N m -> tau1 = {tau1:.3f}, "
      f"tau2 = {tau2:.3f}, tau_delta = {tau_delta:.3f} N m")

# Equal roll and pitch demand excites only the 2/4 wheel pair here:
body = np.array([np.sqrt(2.0), np.sqrt(2.0), 0.0])
tau1, tau2, _ = allocate_wheel_torques(body, steering)
print(f"body torque [sqrt2, sqrt2, 0] -> tau1 = {tau1:.3f}, "
      f"tau2 = {tau2:.3f} N m")

# When both steering angles coincide the 2x2 block is singular and roll and
# pitch cannot be commanded independently; allocation refuses:
try:
    allocate_wheel_torques(body, SteeringConfig.from_degrees(30.0, 30.0))
except Exception as exc:
    print(f"\nparallel steering rejected: {exc}")
