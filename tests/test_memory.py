"""Memory bounds of the single-shot paths.

numpy reports its allocations to ``tracemalloc``, so a traced peak counts
array buffers and Python objects alike and repeats from run to run.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np

import scbit
from scbit import ExperimentConfig, RandomSource, run_canceler_experiment, run_inner_product
from scbit.batch import encode_tlb_products

MB = 1 << 20


def traced_peak(fn, *args, **kwargs):
    """Peak bytes traced while ``fn`` runs, above what was traced before it."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_canceler_memory_does_not_grow_with_trials():
    # the two int8 hold planes take 12.2 MB at K=64 and 100 000 trials; every
    # other array is one block of trials, or one float per trial and line
    peak = traced_peak(run_canceler_experiment, [64], ExperimentConfig(trials=100_000))
    assert peak < 20 * MB


def test_trace_memory_does_not_grow_with_rows(tmp_path):
    # 100 000 trace rows; the trace holds one chunk of cycles as an array
    # and one block of rows as Python ints
    config = ExperimentConfig(lanes=4, carry_len=6, stream_len=20_000)
    x, y = np.full(4, 0.5), np.linspace(-0.2, 0.2, 4)
    trace = tmp_path / "trace.csv"
    peak = traced_peak(run_inner_product, x, y, config, RandomSource(1), trace_path=trace)
    assert peak < 9 * MB


def test_lane_products_hold_one_bit_array():
    # one (2K, L) array of comparator bits, signed in place (2.56 MB), one
    # row of uniforms and the (K, L) products (1.28 MB); no per-lane stream
    # objects or stacked copies of their lines
    x, y = np.linspace(-1, 1, 64), np.linspace(0.9, -0.9, 64)
    peak = traced_peak(encode_tlb_products, x, y, 20_000, RandomSource(3))
    assert peak < 6 * MB


def test_cli_import_leaves_out_the_process_pool():
    src = str(Path(scbit.__file__).parents[1])
    code = (
        "import sys, scbit, scbit.cli; "
        "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
