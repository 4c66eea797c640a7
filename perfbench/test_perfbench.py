"""Smoke test of the benchmark: a few frames per workload, from small pools.

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._import_program()  # puts src/ on the path


def _run(workload, trace, seed=3, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    detail = json.loads(next(l for l in lines if l.startswith("result "))[len("result "):])
    return detail, json.loads(lines[-1]), proc.stdout


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke(workload):
    untraced, line0, text0 = _run(workload, 0)
    again, _, _ = _run(workload, 0)
    traced, line1, text1 = _run(workload, 1)
    for line, text, metrics in ((line0, text0, SPEC["end_to_end"]),
                                (line1, text1, SPEC["per_layer"])):
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert set(line["metrics"]) == {m["name"] for m in metrics}
        report = [l.split() for l in text.splitlines() if l.startswith("  ")]
        for m in metrics:
            assert line["metrics"][m["name"]]["unit"] == m["unit"]
            # printed once by name, with its unit and better direction
            rows = [r for r in report if r[0] == m["name"]]
            assert len(rows) == 1 and rows[0][2:4] == [m["unit"], m["better"]]
    assert "error_rate" in untraced["workload_metrics"]
    if workload in ("match_frames", "head_scan"):  # the camera sees part of the birdview
        assert 0 < line1["metrics"]["birdview.valid_frac"]["value"] < 1
    # outputs are identical from run to run and with tracing on
    assert untraced["digest"] == again["digest"] == traced["digest"]


def test_timed_run_lasts_its_seconds():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "set_pieces",
                           "--seed", "3", "--seconds", "4", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = json.loads(proc.stdout.splitlines()[-1])
    frame_time = (line["attempted"] - 2) / line["metrics"]["fps"]["value"]  # minus warm-up
    assert line["correct"] and frame_time > 3.0


def test_child_processes_all_end():
    [(inputs, jobs)] = run.in_children([("inputs_task", ("set_pieces", 3, True))])
    assert len(inputs["scenes"]) == 8 and jobs == []
    with pytest.raises(ChildProcessError):  # every child has been waited for
        os.waitpid(-1, os.WNOHANG)


def test_span_buffer_stays_bounded():
    import tracing

    tracer = tracing.Tracer(capacity=16)
    for frame in range(100):
        tracer.frame = frame
        tracer.call("outer", tracer.call, ("inner", abs, (-frame,), {}), {})
    assert len(tracer.buffer) == 16 and tracer.recorded == 200
    assert len(tracer.frame_time["inner"]) == 100


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "set_pieces",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
