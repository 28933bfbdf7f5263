"""Each demo script runs to completion against the current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
SRC = Path(__file__).resolve().parents[1] / "src"


def _run(demo, cwd, out):
    env = dict(os.environ, AGROSIM_OUT=out)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    _run(demo, tmp_path, str(tmp_path))


def test_demo_empty_out_means_demo_output(tmp_path):
    # an empty AGROSIM_OUT counts as unset: the files go to ./demo-output
    demo = next(d for d in DEMOS if d.name.startswith("02_"))
    _run(demo, tmp_path, "")
    assert [p.name for p in tmp_path.iterdir()] == ["demo-output"]
    assert sorted(p.name for p in (tmp_path / "demo-output").iterdir()) == [
        "comparison.bs.csv", "comparison.fl.csv", "comparison.svg"]
