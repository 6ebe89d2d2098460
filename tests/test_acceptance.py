"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (run with
``pytest -v -s tests/test_acceptance.py`` to see them live). The module
takes about 40 s on 2 cores, three quarters of it the fault-tolerance trend.
"""

import itertools
import math

import numpy as np
import pytest

from oracles import adder_oracle
from scbit import (
    sm_multiply_bit,
    sm_to_tlb_bit,
    tlb_multiply_bit,
    tlb_to_sm_bit,
)
from scbit.adder import add_ternary
from scbit.batch import engine_batch
from scbit.experiments import (
    ExperimentConfig,
    rmse,
    run_accuracy_sweep,
    run_canceler_experiment,
    run_fault_sweep,
    run_point,
)

SEED = 20_260_810


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_truth_tables():
    """Format conversion and one-bit multipliers are exact on all inputs."""
    sm_rows = {(1, 1): -1, (0, 1): 1, (0, 0): 0, (1, 0): 0}
    ok = True
    for p, n in itertools.product((0, 1), repeat=2):
        s, m = tlb_to_sm_bit(p, n)
        ok &= (1 - 2 * s) * m == p - n
        ok &= sm_rows[(s, m)] == p - n
    for s, m in itertools.product((0, 1), repeat=2):
        p, n = sm_to_tlb_bit(s, m)
        ok &= p - n == (1 - 2 * s) * m
        ok &= (p, n) != (1, 1)
    mult_cases = 0
    for a, b, c, d in itertools.product((0, 1), repeat=4):
        vp, vn = tlb_multiply_bit(a, b, c, d)
        ok &= vp - vn == (a - b) * (c - d)
        zs, zm = sm_multiply_bit(a, b, c, d)
        ok &= (1 - 2 * zs) * zm == ((1 - 2 * a) * b) * ((1 - 2 * c) * d)
        mult_cases += 1
    report(1, ok, f"conversion 4+4 rows, multipliers {mult_cases}+{mult_cases} cases, exact")


def check_adder(xs, ys, capacity):
    """Run equal-length stream pairs through the adder kernel against the oracle.

    Returns the first mismatching (xs, ys) pair, or None.
    """
    for x, y in zip(xs, ys):
        z, stored, events = add_ternary(x, y, capacity)
        count = stored[-1]
        if (z, max(count, 0), max(-count, 0), events[-1]) != adder_oracle(x, y, capacity):
            return x, y
    return None


def test_criterion_2_adder_oracle_equivalence():
    """The adder matches the brute-force interpreter exhaustively and at random."""
    groups = {}  # (length, capacity) -> (xs, ys) of the cases
    for capacity in (1, 2, 3):
        for n in range(1, 5):
            words = list(itertools.product((-1, 0, 1), repeat=n))
            groups[n, capacity] = (
                [xs for xs in words for _ in words],
                [ys for _ in words for ys in words],
            )
    exhaustive = sum(len(xs) for xs, _ in groups.values())
    rng = np.random.default_rng(SEED)
    random_cases = 100_000
    for _ in range(random_cases):
        n = int(rng.integers(5, 7))
        capacity = int(rng.integers(1, 4))
        xs = rng.integers(-1, 2, n).tolist()
        ys = rng.integers(-1, 2, n).tolist()
        pairs = groups.setdefault((n, capacity), ([], []))
        pairs[0].append(xs)
        pairs[1].append(ys)
    for (_, capacity), (xs, ys) in groups.items():
        bad = check_adder(xs, ys, capacity)
        if bad is not None:
            report(2, False, f"mismatch at xs={bad[0]} ys={bad[1]} M={capacity}")
    checked = exhaustive + random_cases
    report(2, True, f"{checked} cases (exhaustive length<=4, random length 5-6), exact")


def test_criterion_3_conservation():
    """Prefix-sum conservation holds exactly every cycle, adder and engine."""
    rng = np.random.default_rng(SEED + 1)
    pairs = 1000
    stream_len = 1000
    xs = np.empty((pairs, stream_len), dtype=np.int8)
    ys = np.empty_like(xs)
    for i in range(pairs):
        xs[i] = rng.integers(-1, 2, stream_len)
        ys[i] = rng.integers(-1, 2, stream_len)
    runs = [add_ternary(x, y, 32) for x, y in zip(xs.tolist(), ys.tolist())]
    emitted, stored, overflows = (np.array(part) for part in zip(*runs))
    out = np.cumsum(emitted, axis=1, dtype=np.int64)
    total = np.cumsum(xs, axis=1, dtype=np.int64) + np.cumsum(ys, axis=1, dtype=np.int64)
    if not np.array_equal(out + stored, total):
        report(3, False, "adder law violated")
    if overflows.any():
        report(3, False, "unexpected saturation at M=32")

    # engine law asserted internally at every high-clock step
    products = rng.integers(-1, 2, size=(pairs, 2, stream_len)).astype(np.int8)
    try:
        engine_batch(products, 32, cc_enabled=False, check_conservation=True)
        engine_batch(products, 32, cc_enabled=True, check_conservation=True)
    except RuntimeError as exc:
        report(3, False, str(exc))
    report(
        3,
        True,
        f"{pairs} stream pairs x {stream_len} cycles, adder and engine "
        "(carry canceling on and off), exact at every step",
    )


def test_criterion_4_novel_operating_point():
    """Sequential engine at K=16, M=6, L=10^4 reaches the target accuracy."""
    cfg = ExperimentConfig(
        design="novel", lanes=16, carry_len=6, stream_len=10_000,
        trials=200, seed=SEED,
    )
    value = rmse(*run_point(cfg)[:2])
    report(
        4,
        value <= 0.03,
        f"novel K=16 M=6 L=1e4, 200 trials: rmse={value:.4f} "
        "(operating point 0.02, tolerance 0.03)",
    )


def test_criterion_5_baseline_operating_point():
    """Reconstructed counter tree at K=16, B=4 stays within 0.03."""
    cfg = ExperimentConfig(
        design="baseline", lanes=16, counter_width=4, stream_len=10_000,
        trials=200, seed=SEED,
    )
    value = rmse(*run_point(cfg)[:2])
    report(5, value <= 0.03, f"baseline K=16 B=4 L=1e4, 200 trials: rmse={value:.4f}")


def test_criterion_6_canceler_direction_gap():
    """Opposite-direction shifting beats same-direction at every K >= 2."""
    lanes = (2, 4, 8, 16, 32, 64)
    sweep = run_canceler_experiment(lanes, ExperimentConfig(trials=100_000, seed=SEED))
    rows = {(r["direction"], r["K"]): r for r in sweep.rows}
    ok = True
    details = []
    for k in lanes:
        opp = rows[("opposite", k)]
        same = rows[("same", k)]
        margin = 3.0 * math.hypot(opp["se_p"], same["se_p"])
        gap = same["p_p"] - opp["p_p"]
        ok &= gap > margin
        for value in (opp["p_p"], opp["p_n"], same["p_p"], same["p_n"]):
            ok &= 0.0 < value < 0.3
        details.append(f"K={k}:{gap:.4f}>{margin:.4f}")
    report(6, ok, "gap beyond 3 standard errors at " + ", ".join(details))


def test_criterion_7_fault_tolerance_trend():
    """Shift-register storage degrades gracefully; counters collapse."""
    grid = [0.0, 0.01, 0.02, 0.03, 0.04, 0.05]
    novel = run_fault_sweep(
        grid,
        ExperimentConfig(design="novel", lanes=16, carry_len=6,
                         stream_len=10_000, trials=200, seed=SEED),
    )
    baseline = run_fault_sweep(
        grid,
        ExperimentConfig(design="baseline", lanes=16, counter_width=4,
                         stream_len=10_000, trials=200, seed=SEED),
    )
    nov = {r["p_flip"]: r["rmse"] for r in novel.rows}
    base = {r["p_flip"]: r["rmse"] for r in baseline.rows}
    ok = True
    for p in grid:
        if p >= 0.01:
            ok &= nov[p] < base[p]
    ok &= nov[0.05] < 0.15
    ok &= base[0.05] > 0.3
    pairs = ", ".join(f"p={p}: {nov[p]:.3f}/{base[p]:.3f}" for p in grid)
    report(7, ok, f"novel/baseline rmse {pairs}")


def test_criterion_8_reproducibility(tmp_path):
    """Identical config and seed produce byte-identical CSV and metadata."""
    cfg = ExperimentConfig(
        design="novel", lanes=4, carry_len=4, stream_len=500, trials=20, seed=SEED
    )
    outputs = []
    for tag in ("first", "second"):
        acc = run_accuracy_sweep(["novel", "baseline"], [4], [3, 4], cfg)
        fault = run_fault_sweep([0.0, 0.03], cfg)
        canceler = run_canceler_experiment([2, 8], ExperimentConfig(trials=4000, seed=SEED))
        blob = b""
        for i, sweep in enumerate((acc, fault, canceler)):
            csv_path = tmp_path / f"{tag}{i}.csv"
            meta_path = tmp_path / f"{tag}{i}.meta.json"
            sweep.write_csv(csv_path)
            sweep.write_meta(meta_path)
            blob += csv_path.read_bytes() + meta_path.read_bytes()
        outputs.append(blob)
    report(8, outputs[0] == outputs[1], "accuracy, fault and canceler sweeps byte-identical")
