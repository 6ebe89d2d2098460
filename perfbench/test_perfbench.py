"""Tests of the benchmark itself: python -m pytest perfbench"""

import subprocess
import sys
from pathlib import Path

from tracer import Tracer

HERE = Path(__file__).resolve().parent


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.spans = [
        (0, "sweep", "experiments", 0.0, 10.0, None),
        (1, "engine_batch", "batch.engine", 1.0, 7.0, 0),
        (2, "spawn", "rng.spawn", 2.0, 3.0, 1),
        (3, "write_csv", "experiments.report", 8.0, 9.0, 0),
    ]
    times = tracer.self_times()
    assert times["experiments"] == 3.0
    assert times["batch.engine"] == 5.0
    assert times["rng.spawn"] == 1.0
    assert times["experiments.report"] == 1.0


def test_smoke_every_workload():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().endswith("smoke ok")
