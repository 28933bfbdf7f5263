import os

import numpy as np
import pytest

from agrosim import kernel


def underdamped_error(t, k1: float, k2: float, e0: float, v0: float) -> np.ndarray:
    """Analytic solution of e_dd + k1 e_d + k2 e = 0 with e(0)=e0, e_d(0)=v0
    (underdamped branch, k2 > (k1/2)^2)."""
    sigma = k1 / 2.0
    omega_sq = k2 - sigma * sigma
    assert omega_sq > 0.0, "oracle only covers the underdamped case"
    omega = np.sqrt(omega_sq)
    t = np.asarray(t, dtype=float)
    return np.exp(-sigma * t) * (
        e0 * np.cos(omega * t) + (v0 + sigma * e0) / omega * np.sin(omega * t)
    )


# ---------------------------------------------------------------------------
# rollout rows (agrosim.kernel.closed_loop)
# ---------------------------------------------------------------------------

def rollout_rows(rows, n: int) -> list[dict]:
    """The ``n + 1`` rows of an ``n``-step rollout, reshaped to
    ``(n + 1, -1, 3)`` as ``sim._rows`` reads them: per row, its 3-vectors
    by the names of ``kernel.ROW`` (attitude, rate, l_hat, the unclamped
    command u_cmd, the clamped command u_sat, l_true and, for backstepping
    only, the velocity error e2) and ``y``, the nine floats of its state."""
    table = np.frombuffer(rows).reshape(n + 1, -1, 3)
    return [dict(zip(kernel.ROW, row), y=row[:3].ravel()) for row in table]


# ---------------------------------------------------------------------------
# forked workers (agrosim.workers): a sweep's values
# ---------------------------------------------------------------------------

def _usable_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def _open_fds():
    """How many file descriptors this process has open; None without /proc."""
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def _assert_no_child_left(fds_before):
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _open_fds() == fds_before  # no worker's file is left open
