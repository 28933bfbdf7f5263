import argparse
import atexit
import contextlib
import dataclasses
import errno
import gc
import hashlib
import io
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from conftest import _assert_no_child_left, _open_fds, _usable_cpus
from hypothesis import given, settings
from hypothesis import strategies as st

from agrosim import (
    AgroSimError,
    ComparisonInvalidError,
    SteeringConfig,
    load_config,
    parse_config,
    preset,
    run_scenario,
    serialize_config,
)
from agrosim import cli, sim, workers
from agrosim.config import GAIN_FIELDS
from agrosim.cli import cmd_compare, cmd_run, main


def test_manifest_requires_exactly_one_source(tmp_path, capsys):
    # a run or a sweep names exactly one of --preset and --config; a second
    # source of either kind is an error, not a replacement of the first
    configs = []
    for name in ("a", "b"):
        path = tmp_path / f"{name}.json"
        path.write_text(serialize_config(preset("fl-paper", horizon=0.05)))
        configs += ["--config", str(path)]
    out = tmp_path / "out"
    for command in (["run"], ["sweep", "--param", "k1", "--values", "1"]):
        for sources in ([], ["--preset", "fl-paper", "--config", "a.json"],
                        ["--preset", "fl-paper", "--preset", "bs-paper"], configs):
            assert main(command + sources + ["--out", str(out)]) == 1
            assert capsys.readouterr().err == (
                "agrosim: error: exactly one of --preset or --config must be given\n")
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--out", "b"), ("--seed", "2"), ("--dt", "0.002"),
                                         ("--horizon", "0.1"), ("--param", "k2"),
                                         ("--values", "2")])
def test_a_repeated_flag_is_an_error(flag, value, tmp_path, capsys):
    # a single-valued flag given twice is rejected by name, not replaced by
    # the second value; --no-svg may repeat
    out = tmp_path / "out"
    first = {"--out": str(out), "--seed": "1", "--dt": "0.001", "--horizon": "0.05",
             "--param": "k1", "--values": "1"}
    commands = [["sweep", "--preset", "bs-paper"]]
    if flag not in ("--param", "--values"):
        commands += [["run", "--preset", "fl-paper", "--no-svg", "--no-svg"],
                     ["compare", "--preset", "fl-paper", "--preset", "bs-paper"]]
    for command in commands:
        argv = list(command)
        for name, given in first.items():
            if command[0] == "sweep" or name not in ("--param", "--values"):
                argv += [name, given] + ([name, value] if name == flag else [])
        assert main(argv) == 1
        assert capsys.readouterr().err == f"agrosim: error: {flag} given more than once\n"
    assert not out.exists()
    # a run with each flag once, and --no-svg twice, writes its artifacts
    assert main(["run", "--preset", "bs-adaptive-paper", "--no-svg", "--no-svg", "--out",
                 str(out), "--seed", "1", "--dt", "0.001", "--horizon", "0.05"]) == 0
    assert sorted(os.listdir(out)) == ["bs-adaptive-paper.csv", "bs-adaptive-paper.metrics.json"]


def test_run_preset_writes_artifacts(tmp_path, capsys):
    assert cmd_run("fl-paper", preset("fl-paper", horizon=0.2), str(tmp_path)) == 0
    csv_path = tmp_path / "fl-paper.csv"
    metrics_path = tmp_path / "fl-paper.metrics.json"
    svg_path = tmp_path / "fl-paper.svg"
    assert csv_path.exists() and metrics_path.exists() and svg_path.exists()
    metrics = json.loads(metrics_path.read_text())
    assert "settle_time_s" in metrics and "peak_torque_nm" in metrics
    assert max(metrics["peak_torque_nm"]) <= 32.1521
    header = csv_path.read_text().splitlines()[0]
    assert header.startswith("t,phi,theta,psi")
    svg = svg_path.read_text()
    assert svg.startswith("<?xml") and "<polyline" in svg
    out = capsys.readouterr().out
    assert "wrote" in out


def test_run_via_main_no_svg(tmp_path):
    rc = main(["run", "--preset", "bs-paper", "--out", str(tmp_path),
               "--horizon", "0.1", "--no-svg"])
    assert rc == 0
    assert (tmp_path / "bs-paper.csv").exists()
    assert not (tmp_path / "bs-paper.svg").exists()


def test_run_with_a_disturbance_charts_its_estimate(tmp_path):
    rc = main(["run", "--preset", "bs-adaptive-paper", "--horizon", "0.05",
               "--out", str(tmp_path)])
    assert rc == 0
    ns = "{http://www.w3.org/2000/svg}"
    groups = ET.parse(tmp_path / "bs-adaptive-paper.svg").getroot().findall(ns + "g")
    titles = [g.find(ns + "text").text for g in groups]
    assert titles == ["Attitude", "Applied body torque", "Disturbance estimate"]


def test_run_config_file(tmp_path):
    doc = {
        "controller": "fl",
        "gains": {"k1": 19.9977, "k2": 122.6497},
        "initial": {"attitude": [-22.5, 22.5, 0.0]},
        "u_max": 32.1521,
        "horizon": 0.1,
    }
    path = tmp_path / "myrun.json"
    path.write_text(json.dumps(doc))
    rc = main(["run", "--config", str(path), "--out", str(tmp_path), "--no-svg"])
    assert rc == 0
    assert (tmp_path / "myrun.csv").exists()
    assert (tmp_path / "myrun.metrics.json").exists()


def test_run_far_from_zero_writes_its_chart(tmp_path):
    # an accepted finite attitude whose degrees (5.7e17) no unit can widen
    doc = json.loads(serialize_config(preset("fl-paper", horizon=0.05)))
    doc["initial"]["attitude"] = [1e16, 1e16, 1e16]
    path = tmp_path / "far.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert sorted(os.listdir(tmp_path)) == ["far.csv", "far.json", "far.metrics.json",
                                            "far.svg"]
    assert "nan" not in (tmp_path / "far.svg").read_text()


def test_run_invalid_horizon_fails_before_output(tmp_path, capsys):
    doc = {"preset": "fl-paper", "horizon": 0.0}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    rc = main(["run", "--config", str(path), "--out", str(out_dir)])
    assert rc == 1
    assert not out_dir.exists() or not os.listdir(out_dir)
    assert "error" in capsys.readouterr().err
    # 1.5 s is not a whole number of 0.7 ms steps
    rc = main(["run", "--preset", "fl-paper", "--dt", "0.0007", "--out", str(out_dir)])
    assert rc == 1
    assert not out_dir.exists() or not os.listdir(out_dir)
    assert "not a whole number of dt" in capsys.readouterr().err



def test_config_file_takes_dt_and_horizon_together(tmp_path):
    # 0.7 s at 0.7 ms is 1000 steps, but neither override is valid alone
    # against the file's 1 ms / 1.5 s, so both must be applied at once
    path = tmp_path / "fl.json"
    path.write_text(serialize_config(preset("fl-paper")))
    flags = ["--dt", "0.0007", "--horizon", "0.7", "--out", str(tmp_path), "--no-svg"]
    assert main(["run", "--config", str(path)] + flags) == 0
    assert main(["run", "--preset", "fl-paper"] + flags) == 0
    for suffix in (".csv", ".metrics.json"):
        assert (tmp_path / ("fl" + suffix)).read_bytes() == \
            (tmp_path / ("fl-paper" + suffix)).read_bytes()
    rows = (tmp_path / "fl.csv").read_text().splitlines()
    assert len(rows) == 1 + 1001
    assert float(rows[-1].split(",")[0]) == pytest.approx(0.7, rel=1e-12)

PINNED = Path(__file__).resolve().parents[1] / "perfbench" / "pinned.json"


def test_preset_outputs_match_pinned_digests(tmp_path):
    # the same byte-identity gate the benchmark checks before it times anything
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    assert set(pinned) == {"fl-paper", "bs-paper", "bs-adaptive-paper"}
    for name, want in pinned.items():
        assert main(["run", "--preset", name, "--no-svg", "--out", str(tmp_path)]) == 0
        got = {ext: hashlib.sha256((tmp_path / (name + ext)).read_bytes()).hexdigest()
               for ext in want}
        assert got == want, name


#: SHA-256 of each preset's SVG.  perfbench/pinned.json pins only the CSV
#: and the metrics JSON, so these hold the charts' bytes.
PINNED_SVG = {
    "fl-paper": "44ae7c341764e1b0834ee59e784a83f0687650ab4d189fab269d7dc1e3eb9510",
    "bs-paper": "58acc31b8f4a32897de7082f3a3809813a3ffa444acbe7a59113f02d4dd564e8",
    "bs-adaptive-paper": "03c00d8c07fe8b166987440a9a5804a5614145573d87b5c74af7472d061217c3",
}


def test_preset_svgs_match_pinned_digests(tmp_path):
    for name, want in PINNED_SVG.items():
        assert main(["run", "--preset", name, "--out", str(tmp_path)]) == 0
        assert hashlib.sha256((tmp_path / (name + ".svg")).read_bytes()).hexdigest() == want, name


def _fresh_interpreter(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` with ``args`` in a fresh interpreter that imports this
    checkout's agrosim; this one has imported agrosim.config already."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=60)


def test_a_preset_run_does_not_load_the_schema(tmp_path):
    # nor the workers, which a sweep loads
    out = str(tmp_path)
    code = ("import sys\n"
            "from agrosim import cli\n"
            f"status = cli.main(['run', '--preset', 'fl-paper', '--no-svg', '--out', {out!r}])\n"
            "print('loaded', status, 'agrosim.config' in sys.modules,"
            " 'agrosim.workers' in sys.modules)\n"
            "status = cli.main(['sweep', '--preset', 'bs-paper', '--param', 'k1',"
            f" '--values', '10,20', '--horizon', '0.2', '--out', {out!r}])\n"
            "print('loaded', status, 'agrosim.workers' in sys.modules)\n")
    proc = _fresh_interpreter(code)
    assert proc.returncode == 0, proc.stderr
    assert [line for line in proc.stdout.splitlines() if line.startswith("loaded ")] == [
        "loaded 0 False False", "loaded 0 True"]
    assert (tmp_path / "fl-paper.csv").is_file()


def test_the_process_command_freezes_the_heap_at_exit(tmp_path, capsys):
    # main() as the process's command, as the console script and the
    # benchmark's cli-run start it, registers gc.freeze with atexit; a hook
    # registered before main runs after it, so it sees the heap frozen
    code = ("import atexit, gc\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
            "import sys; from agrosim.cli import main; sys.exit(main())\n")
    argv = ["run", "--preset", "fl-paper", "--out", str(tmp_path / "process")]
    proc = _fresh_interpreter(code, *argv)
    assert proc.returncode == 0, proc.stderr
    want = json.loads(PINNED.read_text(encoding="utf-8"))["fl-paper"]
    got = {ext: hashlib.sha256((tmp_path / "process" / ("fl-paper" + ext)).read_bytes())
           .hexdigest() for ext in want}
    assert got == want
    # the table and the wrote lines, as the same command prints them in process
    assert main(argv) == 0
    assert proc.stdout == capsys.readouterr().out + "frozen True\n"


def test_a_call_with_arguments_leaves_the_collector_as_it_was(tmp_path, monkeypatch):
    registered = []
    monkeypatch.setattr(atexit, "register", lambda *args, **kwargs: registered.append(args))
    frozen = gc.get_freeze_count()
    for argv in (["run", "--preset", "fl-paper"],
                 ["compare", "--preset", "fl-paper", "--preset", "bs-paper"],
                 ["sweep", "--preset", "bs-paper", "--param", "k1", "--values", "10,20"]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv + ["--horizon", "0.2", "--out", str(tmp_path)]) == 0
    assert registered == []
    assert gc.get_freeze_count() == frozen


def test_run_bad_preset_exits_nonzero(tmp_path, capsys):
    rc = main(["run", "--preset", "missing", "--out", str(tmp_path)])
    assert rc == 1
    assert "missing" in capsys.readouterr().err


def test_run_config_not_utf8_is_an_error(tmp_path, capsys):
    # UTF-16 text starts with the bytes ff fe, which UTF-8 cannot start with
    path = tmp_path / "utf16.json"
    path.write_bytes('{"preset": "fl-paper"}'.encode("utf-16"))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        f"agrosim: error: {path}: not UTF-8 text at byte offset 0 (invalid start byte)\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("error, message", [
    (MemoryError(), "out of memory"),
    (MemoryError("Unable to allocate 1.09 PiB"), "out of memory: Unable to allocate 1.09 PiB"),
], ids=["bare", "with-message"])
def test_run_out_of_memory_is_an_error(error, message, tmp_path, capfd, monkeypatch):
    # a horizon too long for memory fails in run_scenario, before any artifact
    def out_of_memory(cfg):
        raise error

    monkeypatch.setattr(cli, "run_scenario", out_of_memory)
    assert main(["run", "--preset", "bs-adaptive-paper", "--out", str(tmp_path / "out")]) == 1
    assert capfd.readouterr().err == f"agrosim: error: {message}\n"
    assert not (tmp_path / "out").exists()


# horizon / dt past the steps whose table of rows can be sized, or not finite:
# rejected with the config, before the output directory is made
@pytest.mark.parametrize("command", [
    ["run"], ["sweep", "--param", "k1", "--values", "10,20"]], ids=["run", "sweep"])
@pytest.mark.parametrize("name, args, horizon, dt, steps", [
    ("fl-paper", ["--dt", "1e-300"], "1.5", "1e-300", "1.5e+300"),
    ("fl-paper", ["--horizon", "1e17"], "1e+17", "0.001", "1e+20"),
    ("bs-adaptive-paper", ["--dt", "1e-300"], "1.5", "1e-300", "1.5e+300"),
    ("fl-paper", ["--horizon", "1e308", "--dt", "1e-10"], "1e+308", "1e-10", "inf"),
], ids=["fl-dt", "fl-horizon", "bs-adaptive-dt", "inf"])
def test_a_run_too_long_to_size_is_an_error(command, name, args, horizon, dt, steps,
                                            tmp_path, capsys):
    out = tmp_path / "out"
    assert main(command + ["--preset", name, *args, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"agrosim: error: run too long to size: horizon = {horizon} s, dt = {dt} s, "
        f"horizon / dt = {steps} steps\n")
    assert not out.exists()


def test_sweep_out_of_memory_in_a_worker_is_an_error(tmp_path, capfd, monkeypatch):
    # the child reports it as the serial loop would, without its traceback
    fds = _open_fds()
    parent, sweep_value = os.getpid(), cli._sweep_value

    def out_of_memory_in_child(cfg):
        if os.getpid() != parent:
            raise MemoryError()
        return sweep_value(cfg)

    _usable_cpus(monkeypatch, 3)
    monkeypatch.setattr(cli, "_sweep_value", out_of_memory_in_child)
    assert main(["sweep", "--preset", "bs-paper", "--param", "k1", "--values", "10,20,40",
                 "--horizon", "0.05", "--out", str(tmp_path)]) == 1
    assert capfd.readouterr().err == "agrosim: error: out of memory\n"
    assert not os.listdir(tmp_path)
    _assert_no_child_left(fds)


def test_seed_override(tmp_path):
    rc = main(["run", "--preset", "bs-adaptive-paper", "--out", str(tmp_path),
               "--horizon", "0.05", "--seed", "1", "--no-svg"])
    assert rc == 0
    a = (tmp_path / "bs-adaptive-paper.csv").read_bytes()
    rc = main(["run", "--preset", "bs-adaptive-paper", "--out", str(tmp_path),
               "--horizon", "0.05", "--seed", "2", "--no-svg"])
    assert rc == 0
    b = (tmp_path / "bs-adaptive-paper.csv").read_bytes()
    assert a != b


def test_seed_rejected_without_disturbance(tmp_path, capsys):
    rc = main(["run", "--preset", "fl-paper", "--out", str(tmp_path), "--seed", "3"])
    assert rc == 1
    assert "seed applies only to scenarios with a disturbance" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


def test_compare_presets(tmp_path):
    rc = main(["compare", "--preset", "fl-paper", "--preset", "bs-paper",
               "--out", str(tmp_path), "--horizon", "0.2"])
    assert rc == 0
    svg = tmp_path / "fl-paper_vs_bs-paper.svg"
    metrics = tmp_path / "fl-paper_vs_bs-paper.metrics.json"
    assert svg.exists() and metrics.exists()
    doc = json.loads(metrics.read_text())
    assert set(doc) == {"fl-paper", "bs-paper"}
    assert (tmp_path / "fl-paper_vs_bs-paper.fl-paper.csv").exists()
    assert (tmp_path / "fl-paper_vs_bs-paper.bs-paper.csv").exists()


def test_compare_preset_with_itself(tmp_path):
    scenario = ("bs-paper", preset("bs-paper", horizon=0.1))
    assert cmd_compare(scenario, scenario, str(tmp_path), svg=False) == 0
    doc = json.loads((tmp_path / "bs-paper-a_vs_bs-paper-b.metrics.json").read_text())
    assert doc["bs-paper-a"] == doc["bs-paper-b"]
    a = (tmp_path / "bs-paper-a_vs_bs-paper-b.bs-paper-a.csv").read_bytes()
    b = (tmp_path / "bs-paper-a_vs_bs-paper-b.bs-paper-b.csv").read_bytes()
    assert a == b


def test_compare_mismatched_initial_states(tmp_path):
    doc = {
        "controller": "fl",
        "gains": {"k1": 19.9977, "k2": 122.6497},
        "initial": {"attitude": [-10.0, 10.0, 0.0]},
        "u_max": 32.1521,
        "horizon": 0.1,
    }
    path = tmp_path / "other.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ComparisonInvalidError):
        cmd_compare(("a", preset("fl-paper")), ("b", load_config(str(path))), str(tmp_path))
    rc = main(["compare", "--preset", "fl-paper", "--config", str(path),
               "--out", str(tmp_path)])
    assert rc == 1


def test_compare_mismatched_references(tmp_path, capsys):
    doc = json.loads(serialize_config(preset("fl-paper", horizon=0.05)))
    doc["reference"]["x_d"] = [0.1, 0.0, 0.0]
    path = tmp_path / "other.json"
    path.write_text(json.dumps(doc))
    rc = main(["compare", "--preset", "fl-paper", "--config", str(path),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "agrosim: error: scenarios track different references\n")
    assert not (tmp_path / "out").exists()


def test_compare_chart_escapes_its_text(tmp_path):
    # a config file's name reaches the legend: "r&d" must be written "r&amp;d"
    path = tmp_path / "r&d.json"
    path.write_text(serialize_config(preset("fl-paper", horizon=0.05)))
    rc = main(["compare", "--config", str(path), "--preset", "fl-paper",
               "--out", str(tmp_path)])
    assert rc == 0
    (svg,) = tmp_path.glob("*.svg")
    assert svg.name == "r&d_vs_fl-paper.svg"  # the operands in the order given
    texts = [el.text for el in ET.parse(svg).iter("{http://www.w3.org/2000/svg}text")]
    assert "roll (r&d)" in texts


@pytest.mark.parametrize("command", [["run"], ["sweep", "--param", "k1", "--values", "5,10"]])
def test_a_sine_argument_that_overflows_is_an_error(command, tmp_path, capsys):
    # the schema and the budget accept it; math.sin in the rollout did not
    doc = json.loads(serialize_config(preset("bs-adaptive-paper")))
    doc["disturbance"]["sine_freq"] = 1.7e308
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(command + ["--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("agrosim: error: disturbance sine argument overflows: ")
    assert err.count("\n") == 1 and "horizon = 1.5 s" in err
    assert not (tmp_path / "out").exists()


def test_compare_needs_two_sources(tmp_path, capsys):
    rc = main(["compare", "--preset", "fl-paper", "--out", str(tmp_path)])
    assert rc == 1
    assert "two" in capsys.readouterr().err


def test_sweep(tmp_path, capsys):
    # lambda is the schema key of the lam field
    for param in ("k1", "lambda"):
        rc = main(["sweep", "--preset", "bs-paper", "--param", param,
                   "--values", "10,20", "--out", str(tmp_path),
                   "--horizon", "0.2"])
        assert rc == 0
        path = tmp_path / f"bs-paper.sweep.{param}.metrics.json"
        doc = json.loads(path.read_text())
        assert doc["parameter"] == param
        assert [run["value"] for run in doc["runs"]] == [10.0, 20.0]
        first, second = ({k: v for k, v in run.items() if k != "value"} for run in doc["runs"])
        assert first != second  # the value reached the gains
        out = capsys.readouterr().out
        assert f"{param}=10" in out and f"{param}=20" in out
    # one table row per run, in run order, labelled so that values %g rounds
    # together (1e-07 and 1.00000001e-07) and repeated values stay apart
    rc = main(["sweep", "--preset", "bs-paper", "--param", "k1", "--values",
               "10,10,1e-7,1.00000001e-7", "--out", str(tmp_path), "--horizon", "0.05"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[1:-1]] == [
        "k1=10.0", "k1=10.0", "k1=1e-07", "k1=1.00000001e-07"]


def test_sweep_rejects_no_svg_as_a_usage_error(tmp_path, capsys):
    # a sweep writes no SVG, so --no-svg is not one of its options
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--preset", "bs-paper", "--param", "k1", "--values", "10",
              "--horizon", "0.05", "--out", str(tmp_path), "--no-svg"])
    assert exc.value.code == 2
    assert "--no-svg" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


def test_sweep_rejects_unknown_param(tmp_path):
    rc = main(["sweep", "--preset", "bs-paper", "--param", "zeta",
               "--values", "1", "--out", str(tmp_path)])
    assert rc == 1


@pytest.mark.parametrize("values, reason", [
    ("10,x", "must be comma-separated numbers"),
    ("10,,20", "entry 2 is empty"),
    ("10,20,", "entry 3 is empty"),
    (",", "entry 1 is empty"),
])
def test_sweep_rejects_malformed_values(values, reason, tmp_path, capsys):
    rc = main(["sweep", "--preset", "bs-paper", "--param", "k1", "--values", values,
               "--horizon", "0.05", "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err == f"agrosim: error: --values {reason}, got {values!r}\n"
    assert not os.listdir(tmp_path)


def test_sweep_rejects_fl_only_mismatch(tmp_path):
    # sigma and lambda apply to backstepping only
    for param in ("sigma", "lambda"):
        rc = main(["sweep", "--preset", "fl-paper", "--param", param,
                   "--values", "1", "--out", str(tmp_path)])
        assert rc == 1


def test_env_var_default_out(tmp_path, monkeypatch):
    monkeypatch.setenv("AGROSIM_OUT", str(tmp_path))
    rc = main(["run", "--preset", "fl-paper", "--horizon", "0.05", "--no-svg"])
    assert rc == 0
    assert (tmp_path / "fl-paper.csv").exists()


def test_empty_env_var_out_means_the_current_directory(tmp_path, monkeypatch):
    monkeypatch.setenv("AGROSIM_OUT", "")
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--preset", "fl-paper", "--horizon", "0.05", "--no-svg"]) == 0
    assert sorted(os.listdir(tmp_path)) == ["fl-paper.csv", "fl-paper.metrics.json"]


def test_env_var_out_is_read_by_each_command(tmp_path, monkeypatch):
    # main's parser is built once a process, but $AGROSIM_OUT is read per call
    for name in ("first", "second"):
        monkeypatch.setenv("AGROSIM_OUT", str(tmp_path / name))
        assert main(["run", "--preset", "fl-paper", "--horizon", "0.05", "--no-svg"]) == 0
    assert sorted(os.listdir(tmp_path)) == ["first", "second"]
    for name in ("first", "second"):
        assert (tmp_path / name / "fl-paper.csv").exists()


def test_sweep_builds_no_record_and_main_builds_one_parser(tmp_path, monkeypatch):
    # a sweep value stops at its metrics, and main's parser is built once
    records, parsers = [], []
    post_init, init = sim.TrajectoryRecord.__post_init__, argparse.ArgumentParser.__init__

    def counted_post_init(self):
        records.append(self)
        post_init(self)

    def counted_init(self, *args, **kwargs):
        if kwargs.get("prog") == "agrosim":  # the top-level parser, not a subcommand's
            parsers.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(sim.TrajectoryRecord, "__post_init__", counted_post_init)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    cli._parser.cache_clear()
    _usable_cpus(monkeypatch, 1)  # every value runs in this process, where the count is
    sweep = ["sweep", "--preset", "bs-paper", "--param", "k1", "--values", "10,20",
             "--horizon", "0.05", "--out", str(tmp_path)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(sweep) == 0
        assert records == []
        assert main(["run", "--preset", "fl-paper", "--horizon", "0.05", "--no-svg",
                     "--out", str(tmp_path)]) == 0
        assert len(records) == 1  # the count sees a run's record
        assert main(sweep) == 0
    assert len(records) == 1
    assert len(parsers) == 1


@pytest.mark.parametrize("name", ["fl-paper", "bs-paper", "bs-adaptive-paper"])
def test_preset_document_resolves_like_the_cli(name, tmp_path, monkeypatch):
    # a preset document and the same preset and overrides on the command
    # line resolve to one scenario
    overrides = {"dt": 0.0005, "horizon": 0.25}
    if name == "bs-adaptive-paper":
        overrides["seed"] = 7
    resolved = []
    monkeypatch.setattr(cli, "cmd_run",
                        lambda name, cfg, out_dir, svg=True: resolved.append(cfg) or 0)
    flags = [f"--{key}={value}" for key, value in overrides.items()]
    assert main(["run", "--preset", name, "--out", str(tmp_path)] + flags) == 0
    assert resolved == [parse_config(json.dumps({"preset": name, **overrides}))]


def test_negative_seed_rejected(tmp_path, capsys):
    out_dir = tmp_path / "out"
    rc = main(["run", "--preset", "bs-adaptive-paper", "--seed", "-1", "--out", str(out_dir)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("agrosim: error:") and "-1" in err
    path = tmp_path / "neg.json"
    path.write_text(json.dumps({"preset": "bs-adaptive-paper", "seed": -1}))
    assert main(["run", "--config", str(path), "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("agrosim: error:") and "-1" in err
    assert not out_dir.exists() or not os.listdir(out_dir)


def test_no_svg_builds_no_chart(tmp_path, monkeypatch):
    def no_chart(*args):
        raise AssertionError("a chart was built for a run without SVG")

    for attr in ("attitude_chart", "torque_chart", "estimate_chart"):
        monkeypatch.setattr(cli, attr, no_chart)
    flags = ["--horizon", "0.05", "--no-svg", "--out", str(tmp_path)]
    assert main(["run", "--preset", "bs-adaptive-paper"] + flags) == 0
    assert main(["compare", "--preset", "fl-paper", "--preset", "bs-paper"] + flags) == 0
    assert not [f for f in os.listdir(tmp_path) if f.endswith(".svg")]


# ---------------------------------------------------------------------------
# a sweep's values spread over forked workers, one per usable CPU
# ---------------------------------------------------------------------------

def _diverging_config(tmp_path):
    doc = json.loads(serialize_config(preset("fl-paper")))
    doc["u_max"] = None  # unlimited torque: a large k2 drives the state to inf
    path = tmp_path / "unlimited.json"
    path.write_text(json.dumps(doc))
    return str(path)


# None: the host's own CPUs; 3: three workers forked on any host
@pytest.mark.parametrize("cpus", [None, 3])
def test_sweep_output_does_not_depend_on_cpus(cpus, tmp_path, capsys, monkeypatch):
    fds = _open_fds()
    args = ["sweep", "--preset", "bs-paper", "--param", "k1", "--values", "5,10,20,40,80",
            "--horizon", "0.1", "--out", str(tmp_path)]
    path = tmp_path / "bs-paper.sweep.k1.metrics.json"
    with monkeypatch.context() as m:
        _usable_cpus(m, 1)
        assert main(args) == 0
    serial_json, serial_out = path.read_bytes(), capsys.readouterr().out
    path.unlink()
    if cpus is not None:
        _usable_cpus(monkeypatch, cpus)
    assert main(args) == 0
    assert path.read_bytes() == serial_json
    assert capsys.readouterr().out == serial_out
    _assert_no_child_left(fds)


# k2 = 1e10 diverges at step 6 and 1e8 at step 14, 1e9 and 100 not at all
@pytest.mark.parametrize("values", ["100,1e9,1e10", "100,1e10,1e8"])
@pytest.mark.parametrize("cpus", [None, 3])
def test_sweep_divergence_reported_as_serially(values, cpus, tmp_path, capsys, monkeypatch):
    fds = _open_fds()
    out_dir = tmp_path / "out"
    args = ["sweep", "--config", _diverging_config(tmp_path), "--param", "k2",
            "--values", values, "--out", str(out_dir)]
    with monkeypatch.context() as m:
        _usable_cpus(m, 1)
        assert main(args) == 1
    serial_err = capsys.readouterr().err
    assert serial_err == "agrosim: error: non-finite state after step 6 (t = 0.006 s)\n"
    if cpus is not None:
        _usable_cpus(monkeypatch, cpus)
    assert main(args) == 1
    assert capsys.readouterr().err == serial_err
    assert not out_dir.exists()
    _assert_no_child_left(fds)


#: The swept gains the parity property draws from: (preset, parameter).
_SWEPT = [("fl-paper", "k2"), ("bs-paper", "k1"), ("bs-adaptive-paper", "lambda"),
          ("bs-adaptive-paper", "sigma")]


def _swept(cfg, param, value):
    """``cfg`` with the gain ``param`` set to ``value``, as a sweep sets it."""
    return dataclasses.replace(cfg, gains=dataclasses.replace(cfg.gains,
                                                              **{GAIN_FIELDS[param]: value}))


@settings(max_examples=20, deadline=None)
@given(swept=st.sampled_from(_SWEPT),
       values=st.lists(st.floats(0.01, 1000.0), min_size=1, max_size=3))
def test_sweep_rows_equal_their_runs(swept, values):
    # each row is its value's run_scenario metrics, bit for bit, and a failing
    # value fails the sweep as the serial loop over run_scenario would
    name, param = swept
    base = preset(name, horizon=0.03)
    expected, error = [], None
    for value in values:
        try:
            metrics = run_scenario(_swept(base, param, value))[1]
        except AgroSimError as exc:
            error = exc
            break
        expected.append(json.dumps({"value": value, **metrics.to_dict()}))
    args = ["sweep", "--preset", name, "--param", param, "--horizon", "0.03",
            "--values", ",".join(repr(v) for v in values)]
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        rc = main(args + ["--out", out])
        if error is not None:
            assert (rc, err.getvalue()) == (1, f"agrosim: error: {error}\n")
            return
        assert rc == 0
        with open(os.path.join(out, f"{name}.sweep.{param}.metrics.json")) as fh:
            runs = json.load(fh)["runs"]
    assert [json.dumps(run) for run in runs] == expected


def _singular_config(tmp_path):
    path = tmp_path / "singular.json"
    path.write_text(serialize_config(dataclasses.replace(
        preset("bs-paper"), steering=SteeringConfig(0.2, 0.2))))
    return str(path)


@pytest.mark.parametrize("config, param, values", [
    (_diverging_config, "k2", [100.0, 1e10]),
    (_singular_config, "k1", [10.0, 20.0]),
], ids=["diverging", "singular-steering"])
def test_failing_sweep_value_raises_as_its_run(config, param, values, tmp_path, capsys):
    path = config(tmp_path)
    base = load_config(path)
    with pytest.raises(AgroSimError) as serial:
        for value in values:
            run_scenario(_swept(base, param, value))
    out_dir = tmp_path / "out"
    with pytest.raises(AgroSimError) as swept:
        cli.cmd_sweep("sweep", base, str(out_dir), param, values)
    assert type(swept.value) is type(serial.value)
    assert str(swept.value) == str(serial.value)
    assert main(["sweep", "--config", path, "--param", param,
                 "--values", ",".join(map(repr, values)), "--out", str(out_dir)]) == 1
    assert capsys.readouterr().err == f"agrosim: error: {serial.value}\n"
    assert not out_dir.exists()


def test_sweep_forks_nothing_while_another_thread_runs(tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("a sweep forked while another thread was running")

    _usable_cpus(monkeypatch, 3)
    monkeypatch.setattr(os, "fork", no_fork)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert main(["sweep", "--preset", "bs-paper", "--param", "k1", "--values", "10,20,40",
                     "--horizon", "0.05", "--out", str(tmp_path)]) == 0
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_sweep_names_a_worker_that_died(tmp_path, capsys, monkeypatch):
    fds = _open_fds()
    parent, sweep_value = os.getpid(), cli._sweep_value

    def die_in_child(cfg):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return sweep_value(cfg)

    _usable_cpus(monkeypatch, 3)
    monkeypatch.setattr(cli, "_sweep_value", die_in_child)
    assert main(["sweep", "--preset", "bs-paper", "--param", "k1", "--values", "10,20,40",
                 "--horizon", "0.05", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("agrosim: error: sweep worker ")
    assert f"was killed by signal {int(signal.SIGKILL)} before sending all of its results" in err
    assert not os.listdir(tmp_path)
    _assert_no_child_left(fds)


# a task that raises an ordinary exception in a worker: the child exits with
# status 1, and the command fails naming it, writing nothing
@pytest.mark.parametrize("owner, name, args, message", [
    pytest.param(cli, "_sweep_value",
                 ["sweep", "--param", "k1", "--values", "10,20,40", "--horizon", "0.05"],
                 "sweep worker \\d+ exited with status 1 before sending all of its results",
                 id="sweep"),
])
def test_worker_that_raises_is_named(owner, name, args, message, tmp_path, capsys,
                                     monkeypatch):
    fds = _open_fds()
    parent, real = os.getpid(), getattr(owner, name)

    def raise_in_child(arg):
        if os.getpid() != parent:
            raise RuntimeError("task failed in a worker")
        return real(arg)

    previous = tmp_path / "bs-adaptive-paper.csv"
    previous.write_text("previous\n", encoding="utf-8")
    _usable_cpus(monkeypatch, 3)
    monkeypatch.setattr(owner, name, raise_in_child)
    assert main(args + ["--preset", "bs-adaptive-paper", "--out", str(tmp_path)]) == 1
    assert re.fullmatch(f"agrosim: error: {message}\n", capsys.readouterr().err)
    assert os.listdir(tmp_path) == ["bs-adaptive-paper.csv"]
    assert previous.read_text(encoding="utf-8") == "previous\n"
    _assert_no_child_left(fds)


def test_sweep_interrupted_in_the_parent_kills_its_workers(tmp_path, monkeypatch):
    fds = _open_fds()
    parent = os.getpid()

    def interrupt_in_parent(cfg):
        if os.getpid() != parent:
            time.sleep(60)
        raise KeyboardInterrupt

    _usable_cpus(monkeypatch, 3)
    monkeypatch.setattr(cli, "_sweep_value", interrupt_in_parent)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        main(["sweep", "--preset", "bs-paper", "--param", "k1", "--values", "10,20,40",
              "--horizon", "0.05", "--out", str(tmp_path)])
    assert time.monotonic() - start < 30
    assert not os.listdir(tmp_path)
    _assert_no_child_left(fds)


def test_sweep_interrupted_while_reading_its_workers_kills_them(tmp_path, monkeypatch):
    fds = _open_fds()
    parent, sweep_value = os.getpid(), cli._sweep_value

    def interrupt_soon_after_own_share(cfg):
        if os.getpid() != parent:
            time.sleep(60)
        result = sweep_value(cfg)
        signal.setitimer(signal.ITIMER_REAL, 0.2)  # lands while the parent reads
        return result

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    _usable_cpus(monkeypatch, 3)
    monkeypatch.setattr(cli, "_sweep_value", interrupt_soon_after_own_share)
    previous = signal.signal(signal.SIGALRM, interrupt)
    start = time.monotonic()
    try:
        with pytest.raises(KeyboardInterrupt):
            main(["sweep", "--preset", "bs-paper", "--param", "k1", "--values", "10,20,40",
                  "--horizon", "0.05", "--out", str(tmp_path)])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 30
    assert not os.listdir(tmp_path)
    _assert_no_child_left(fds)


# 0: no fork succeeds; 1: the first child forks, the second does not;
# tempfile: the first child gets its file, the second does not
@pytest.mark.parametrize("module, name, calls_before_failing, error", [
    pytest.param(os, "fork", 0, BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable"),
                 id="0"),
    pytest.param(os, "fork", 1, BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable"),
                 id="1"),
    pytest.param(tempfile, "TemporaryFile", 1, OSError(errno.EMFILE, "Too many open files"),
                 id="tempfile"),
])
def test_sweep_runs_serially_when_it_cannot_fork(module, name, calls_before_failing, error,
                                                 tmp_path, capsys, monkeypatch):
    fds = _open_fds()
    args = ["sweep", "--preset", "bs-paper", "--param", "k1", "--values", "5,10,20,40,80",
            "--horizon", "0.1", "--out", str(tmp_path)]
    path = tmp_path / "bs-paper.sweep.k1.metrics.json"
    with monkeypatch.context() as m:
        _usable_cpus(m, 1)
        assert main(args) == 0
    serial_json, serial_out = path.read_bytes(), capsys.readouterr().out
    path.unlink()
    real, calls = getattr(module, name), []

    def fail_when_out_of_resources(*args, **kwargs):
        if len(calls) == calls_before_failing:
            raise error
        calls.append(name)
        return real(*args, **kwargs)

    _usable_cpus(monkeypatch, 3)
    monkeypatch.setattr(module, name, fail_when_out_of_resources)
    assert main(args) == 0
    assert len(calls) == calls_before_failing  # the failing call was made
    assert path.read_bytes() == serial_json
    assert capsys.readouterr().out == serial_out
    _assert_no_child_left(fds)


def test_sweep_files_a_dead_worker_after_the_values_it_sent(tmp_path, capsys, monkeypatch):
    # two workers: the parent diverges at k2 = 1e10 (index 1), which a
    # serial loop reports first; the child sends 101 (index 2), then dies
    # at 102 (index 3), before the parent runs 1e10
    fds = _open_fds()
    parent, sweep_value = os.getpid(), cli._sweep_value
    killed = tmp_path / "killed-at-102"
    forked = []

    def die_in_child_at_102(cfg):
        if os.getpid() != parent and (cfg.gains.k2 == 102).all():
            killed.touch()
            os.kill(os.getpid(), signal.SIGKILL)
        if forked and (cfg.gains.k2 == 1e10).all():
            deadline = time.monotonic() + 30
            while not killed.exists() and time.monotonic() < deadline:
                time.sleep(0.001)
        return sweep_value(cfg)

    monkeypatch.setattr(cli, "_sweep_value", die_in_child_at_102)
    out_dir = tmp_path / "out"
    args = ["sweep", "--config", _diverging_config(tmp_path), "--param", "k2",
            "--values", "100,1e10,101,102", "--out", str(out_dir)]
    with monkeypatch.context() as m:
        _usable_cpus(m, 1)
        assert main(args) == 1
    serial_err = capsys.readouterr().err
    assert serial_err == "agrosim: error: non-finite state after step 6 (t = 0.006 s)\n"
    _usable_cpus(monkeypatch, 2)
    forked.append(True)
    assert main(args) == 1
    assert killed.exists()  # the child did die at 102
    assert capsys.readouterr().err == serial_err
    assert not out_dir.exists()
    _assert_no_child_left(fds)


def test_sweep_worker_finishes_while_the_process_runs_its_share(tmp_path, monkeypatch):
    # a child's 300 results all reach the parent through the child's
    # temporary file, and the child finishes while the parent runs its own
    # share, here 5 ms a value
    fds = _open_fds()
    n = 300
    parent, result = os.getpid(), cli._sweep_value(preset("bs-paper", horizon=0.01))
    child_done = tmp_path / "child-done"
    seen_by_last_own_value = []

    def instant_in_child(cfg):
        k1 = cfg.gains.k1[0]
        if os.getpid() != parent:
            if k1 == 2 * n:
                child_done.touch()
        else:
            time.sleep(0.005)
            if k1 == n:
                seen_by_last_own_value.append(child_done.exists())
        return result

    _usable_cpus(monkeypatch, 2)
    monkeypatch.setattr(cli, "_sweep_value", instant_in_child)
    values = ",".join(str(v) for v in range(1, 2 * n + 1))
    assert main(["sweep", "--preset", "bs-paper", "--param", "k1", "--values", values,
                 "--out", str(tmp_path)]) == 0
    assert seen_by_last_own_value == [True]
    _assert_no_child_left(fds)


# ---------------------------------------------------------------------------
# where the forked workers run
# ---------------------------------------------------------------------------

def _sweep_and_run(out, capsys):
    """Every file written, and stdout and stderr, of a 5-value sweep, whose
    values take three workers on three CPUs, and of a 3.1 s run, whose
    3101-row CSV the process writes itself."""
    assert main(["sweep", "--preset", "bs-paper", "--param", "k1", "--values", "5,10,20,40,80",
                 "--horizon", "0.1", "--out", str(out)]) == 0
    assert main(["run", "--preset", "fl-paper", "--horizon", "3.1", "--no-svg",
                 "--out", str(out)]) == 0
    files = {path.name: path.read_bytes() for path in out.iterdir()}
    shutil.rmtree(out)
    return files, capsys.readouterr()


def _placed_children(tmp_path, monkeypatch, set_affinity):
    """Fake three usable CPUs, with the process on CPU 0, and make
    ``os.sched_setaffinity(pid, mask)`` log ``(caller, pid, sorted mask)``
    and then call ``set_affinity``.  Returns the pids forked, in order, and
    a function that reads the log."""
    log, real_fork, forked = tmp_path / "setaffinity.log", os.fork, []

    def fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    def logged(pid, mask):
        fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:  # one write a line: children append at once
            os.write(fd, f"{os.getpid()} {pid} {sorted(mask)}\n".encode())
        finally:
            os.close(fd)
        set_affinity()

    def calls():
        by_caller = {}
        for line in log.read_text().splitlines() if log.exists() else []:
            caller, pid, mask = line.split(" ", 2)
            by_caller.setdefault(int(caller), []).append((int(pid), mask))
        return by_caller

    _usable_cpus(monkeypatch, 3)
    monkeypatch.setattr(workers, "_cpu", lambda: 0)
    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "sched_setaffinity", logged)
    return forked, calls


def test_each_worker_moves_to_a_cpu_of_its_own(tmp_path, capsys, monkeypatch):
    # the process runs on CPU 0 of {0, 1, 2}: it holds its first child on
    # CPU 1 and its second on CPU 2, one call each, right after the fork;
    # no child changes its own mask, and the process's is left alone
    fds = _open_fds()
    with monkeypatch.context() as m:
        _usable_cpus(m, 1)
        serial = _sweep_and_run(tmp_path / "out", capsys)
    forked, calls = _placed_children(tmp_path, monkeypatch, lambda: None)
    assert _sweep_and_run(tmp_path / "out", capsys) == serial
    assert len(forked) == 2  # for the sweep; the CSV forks nothing
    moves = list(zip(forked, ["[1]", "[2]"]))
    assert calls() == {os.getpid(): moves}
    _assert_no_child_left(fds)


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                    reason="needs two usable CPUs")
def test_a_worker_is_held_on_its_cpu(monkeypatch):
    # real masks, no fakes: the child's is the one CPU it was given, from
    # its first item on, and the process's is what it was
    usable = os.sched_getaffinity(0)
    monkeypatch.setattr(workers, "_cpu", lambda: min(usable))

    def masks(share):
        for _ in share:
            yield os.getpid(), os.sched_getaffinity(0)

    with workers.run(masks, [0, 1]) as items:
        seen = list(items)
    assert seen[0] == (os.getpid(), usable)
    (pid, held), = set((pid, frozenset(mask)) for pid, mask in seen[1:])
    assert pid != os.getpid() and held == {sorted(usable)[1]}
    assert os.sched_getaffinity(0) == usable


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                    reason="needs two usable CPUs")
def test_a_worker_starts_its_share_only_once_moved(monkeypatch):
    # the kernel may run a child before the process moves it; here the move
    # comes 50 ms after the fork, and the child's first item still sees it
    usable, move = os.sched_getaffinity(0), os.sched_setaffinity
    monkeypatch.setattr(workers, "_cpu", lambda: min(usable))

    def late(pid, mask):
        time.sleep(0.05)
        move(pid, mask)

    monkeypatch.setattr(os, "sched_setaffinity", late)

    def masks(share):
        for _ in share:
            yield os.sched_getaffinity(0)

    with workers.run(masks, [0, 1]) as items:
        assert list(items) == [usable, {sorted(usable)[1]}]


def test_a_worker_that_cannot_move_runs_where_it_is(tmp_path, capsys, monkeypatch):
    fds = _open_fds()
    with monkeypatch.context() as m:
        _usable_cpus(m, 1)
        serial = _sweep_and_run(tmp_path / "out", capsys)

    def refuse():
        raise OSError(errno.EINVAL, "Invalid argument")

    forked, calls = _placed_children(tmp_path, monkeypatch, refuse)
    assert _sweep_and_run(tmp_path / "out", capsys) == serial
    assert len(forked) == 2
    assert calls() == {os.getpid(): list(zip(forked, ["[1]", "[2]"]))}
    _assert_no_child_left(fds)


def test_no_worker_moves_when_the_cpu_is_unknown(tmp_path, capsys, monkeypatch):
    fds = _open_fds()
    forked, calls = _placed_children(tmp_path, monkeypatch, lambda: None)
    monkeypatch.setattr(workers, "_cpu", lambda: None)
    _sweep_and_run(tmp_path / "out", capsys)
    assert len(forked) == 2
    assert calls() == {}
    _assert_no_child_left(fds)


def test_cpu_is_field_39_of_proc_self_stat(monkeypatch):
    if os.path.exists("/proc/self/stat"):
        assert workers._cpu() in os.sched_getaffinity(0)
    # the command name may hold spaces and parentheses
    fields = ["(x) 1 (y)", "S"] + [str(k) for k in range(4, 53)]
    stat = f"4242 {' '.join(fields)}\n".encode()
    monkeypatch.setattr(workers, "open", lambda path, mode: io.BytesIO(stat), raising=False)
    assert workers._cpu() == 39

    def unreadable(path, mode):
        raise FileNotFoundError(errno.ENOENT, "No such file or directory", path)

    monkeypatch.setattr(workers, "open", unreadable, raising=False)
    assert workers._cpu() is None
