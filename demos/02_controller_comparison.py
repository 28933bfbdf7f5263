"""Feedback-linearization vs backstepping on the throw-recovery scenario.

Both controllers start at [-22.5, +22.5, 0] degrees with zero rates and must
level the body under a +/-32.1521 N m torque limit.  The script runs both
presets, prints the metrics side by side, and writes overlay plots plus the
raw trajectories to ./demo-output/.
"""

import os

import numpy as np

from agrosim import run_scenario
from agrosim.cli import attitude_chart, torque_chart
from agrosim.presets import bs_paper, fl_paper
from agrosim.svgchart import save_svg

OUT = os.environ.get("AGROSIM_OUT") or "demo-output"
os.makedirs(OUT, exist_ok=True)

records = {}
for name, cfg in (("fl", fl_paper()), ("bs", bs_paper())):
    record, metrics = run_scenario(cfg)
    records[name] = record
    settle = ", ".join(
        "never" if np.isnan(s) else f"{s * 1e3:.0f} ms" for s in metrics.settle_time
    )
    print(f"{name}: settle (roll, pitch, yaw) = {settle}; "
          f"peak |u| = {metrics.peak_torque.max():.2f} N m; "
          f"final error = {np.rad2deg(metrics.final_error)} deg")
    record.to_csv(os.path.join(OUT, f"comparison.{name}.csv"))

# Both recoveries are torque-limited early on: the commanded torque exceeds
# the actuator limit by two orders of magnitude for the backstepping gains.
for name, record in records.items():
    print(f"{name}: peak commanded torque {np.abs(record.u_cmd).max():.0f} N m, "
          f"saturated for "
          f"{(np.abs(record.u_sat) >= 32.1521 - 1e-9).any(axis=1).mean():.0%} of samples")

# The backstepping pitch axis overshoots: its inertia is the largest, so the
# torque limit cannot brake the commanded descent rate in time.
pitch = np.rad2deg(records["bs"].attitude[:, 1])
print(f"bs pitch overshoot: min {pitch.min():.2f} deg at "
      f"t = {records['bs'].t[pitch.argmin()] * 1e3:.0f} ms")

save_svg(
    [attitude_chart(records), torque_chart(records)],
    os.path.join(OUT, "comparison.svg"),
)
print(f"wrote {OUT}/comparison.svg and per-controller CSVs")
