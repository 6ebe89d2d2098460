import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scbit.experiments import (
    ACCURACY_COLUMNS,
    CANCELER_COLUMNS,
    ExperimentConfig,
    rmse,
    run_accuracy_sweep,
    run_canceler_experiment,
    run_fault_sweep,
    run_point,
)

SMALL = dict(lanes=4, carry_len=4, counter_width=4, stream_len=400, trials=24, seed=11)


# -- metric -------------------------------------------------------------------


def test_rmse_examples():
    assert rmse([1.0, -0.5], [1.0, -0.5]) == 0.0
    assert rmse([0.5], [0.4]) == pytest.approx(0.1)
    assert rmse([0.5], [0.4], metric="paper_literal") == pytest.approx(math.sqrt(0.1))


def test_rmse_errors():
    with pytest.raises(ValueError):
        rmse([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        rmse([], [])
    with pytest.raises(ValueError):
        rmse([1.0], [1.0], metric="nope")


@given(st.lists(st.floats(-1, 1), min_size=1, max_size=20), st.data())
@settings(max_examples=50, deadline=None)
def test_rmse_nonnegative_zero_when_equal(estimates, data):
    truths = data.draw(
        st.lists(st.floats(-1, 1), min_size=len(estimates), max_size=len(estimates))
    )
    value = rmse(estimates, truths)
    assert value >= 0.0
    if estimates == truths:
        assert value == 0.0


def test_rmse_positive_on_difference():
    assert rmse([0.25, 0.5], [0.25, 0.75]) > 0.0


# -- config ---------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(design="other")
    with pytest.raises(ValueError):
        ExperimentConfig(p_flip=1.5)
    with pytest.raises(ValueError):
        ExperimentConfig(metric="mse")
    with pytest.raises(ValueError):
        ExperimentConfig(trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(carry_len=0)  # zero-length carry storage disallowed
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"design": "novel", "bogus": 1})
    for wrong_type in ({"lanes": "16"}, {"trials": 2.0}, {"cc_enabled": 1}, {"p_flip": True}):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict(wrong_type)


def test_config_json_round_trip():
    cfg = ExperimentConfig(**SMALL)
    again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg


def test_config_capacity_selects_by_design():
    cfg = ExperimentConfig(design="novel", carry_len=5, counter_width=3)
    assert cfg.capacity == 5
    assert cfg.replace(design="baseline").capacity == 3


# -- run_point ------------------------------------------------------------------


def test_run_point_reasonable_accuracy():
    cfg = ExperimentConfig(**SMALL)
    estimates, truths, overflow, cc = run_point(cfg)
    assert estimates.shape == truths.shape == (cfg.trials,)
    assert np.abs(truths).max() <= cfg.input_scale + 1e-12
    assert rmse(estimates, truths) < 0.2


def test_run_point_deterministic():
    cfg = ExperimentConfig(**SMALL)
    a = run_point(cfg)
    b = run_point(cfg)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_run_point_jobs_invariant():
    cfg = ExperimentConfig(**SMALL)
    serial = run_point(cfg)
    parallel = run_point(cfg.replace(jobs=3))
    for x, y in zip(serial, parallel):
        assert np.array_equal(x, y)


def test_run_point_workers_capped_by_usable_cpus(monkeypatch):
    import scbit.experiments as experiments

    sizes = []

    class SerialPool:
        """Records the requested pool size and maps in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads):
            return map(fn, payloads)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    cfg = ExperimentConfig(**SMALL)
    capped = run_point(cfg.replace(jobs=16))
    assert sizes == [2]
    serial = run_point(cfg)
    assert sizes == [2]  # one job runs in this process
    for x, y in zip(serial, capped):
        assert np.array_equal(x, y)


def test_run_point_baseline_lane_check():
    with pytest.raises(ValueError):
        run_point(ExperimentConfig(design="baseline", lanes=3))


def test_fault_zero_matches_accuracy_run():
    cfg = ExperimentConfig(**SMALL)
    clean = run_point(cfg)
    faulted = run_point(cfg.replace(p_flip=0.0))
    assert np.array_equal(clean[0], faulted[0])
    # p_flip isn't part of the trial seed material, so p=0 rows of a fault
    # sweep coincide with the accuracy sweep's
    sweep = run_fault_sweep([0.0], cfg)
    accuracy = run_accuracy_sweep(["novel"], [cfg.lanes], [cfg.carry_len], cfg)
    assert sweep.rows[0]["rmse"] == accuracy.rows[0]["rmse"]


def test_fault_sweep_rows_and_injection():
    cfg = ExperimentConfig(**SMALL)
    sweep = run_fault_sweep([0.0, 0.05], cfg)
    assert [r["p_flip"] for r in sweep.rows] == [0.0, 0.05]
    assert sweep.columns == ACCURACY_COLUMNS
    assert sweep.rows[1]["rmse"] >= 0.0


# -- sweeps ---------------------------------------------------------------------


def test_accuracy_sweep_grid_and_meta():
    cfg = ExperimentConfig(**SMALL)
    sweep = run_accuracy_sweep(["novel", "baseline"], [4], [2, 4], cfg)
    assert len(sweep.rows) == 4
    assert sweep.columns == ACCURACY_COLUMNS
    assert {r["design"] for r in sweep.rows} == {"novel", "baseline"}
    assert "minimal_capacity" in sweep.meta
    assert "novel/K=4" in sweep.meta["minimal_capacity"]


def test_accuracy_capacity_monotone():
    # tiny carry storage saturates constantly and must lose clearly
    cfg = ExperimentConfig(lanes=16, stream_len=2000, trials=40, seed=4)
    sweep = run_accuracy_sweep(["novel"], [16], [1, 6], cfg)
    small, large = sweep.rows[0], sweep.rows[1]
    assert small["M_or_B"] == 1 and large["M_or_B"] == 6
    assert small["rmse"] > large["rmse"]


def test_baseline_capacity_monotone():
    cfg = ExperimentConfig(design="baseline", lanes=16, stream_len=2000, trials=40, seed=4)
    sweep = run_accuracy_sweep(["baseline"], [16], [2, 4], cfg)
    assert sweep.rows[0]["rmse"] > sweep.rows[1]["rmse"]


def test_stream_len_monotone():
    cfg = ExperimentConfig(lanes=4, carry_len=4, trials=40, seed=4)
    short = rmse(*run_point(cfg.replace(stream_len=500))[:2])
    long = rmse(*run_point(cfg.replace(stream_len=4000))[:2])
    assert long < short


def test_cc_enabled_no_worse_than_disabled():
    # paired trials at the headline operating point: canceling must not
    # hurt, and it strictly reduces carry-overflow pressure
    cfg = ExperimentConfig(
        design="novel", lanes=16, carry_len=6, stream_len=10_000,
        trials=200, seed=55, cc_enabled=True,
    )
    est_on, truths, overflow_on, cancels = run_point(cfg)
    est_off, truths_off, overflow_off, _ = run_point(cfg.replace(cc_enabled=False))
    assert np.array_equal(truths, truths_off)
    assert (cancels >= 0).all() and cancels.sum() > 0
    assert np.abs(est_on - truths).mean() <= np.abs(est_off - truths).mean()
    assert overflow_on.sum() <= overflow_off.sum()


def test_sweep_csv_byte_identical(tmp_path):
    cfg = ExperimentConfig(**SMALL)
    paths = []
    for name in ("a.csv", "b.csv"):
        sweep = run_accuracy_sweep(["novel"], [4], [4], cfg)
        path = tmp_path / name
        sweep.write_csv(path)
        sweep.write_meta(path.with_suffix(".meta.json"))
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert (
        paths[0].with_suffix(".meta.json").read_bytes()
        == paths[1].with_suffix(".meta.json").read_bytes()
    )
    header = paths[0].read_text().splitlines()[0]
    assert header == ",".join(ACCURACY_COLUMNS)


# -- shift-direction experiment --------------------------------------------------


def test_canceler_rows_and_columns():
    sweep = run_canceler_experiment([1, 2, 4], trials=2000, seed=3)
    assert sweep.columns == CANCELER_COLUMNS
    assert len(sweep.rows) == 6  # two directions per lane count
    directions = {r["direction"] for r in sweep.rows}
    assert directions == {"opposite", "same"}


def test_canceler_k1_modes_agree():
    sweep = run_canceler_experiment([1], trials=5000, seed=5)
    by_dir = {r["direction"]: r for r in sweep.rows}
    # paired loads make the two modes literally identical at K=1
    assert by_dir["opposite"]["p_p"] == by_dir["same"]["p_p"]
    assert abs(by_dir["opposite"]["p_p"] - 0.25) < 3 * by_dir["opposite"]["se_p"] + 0.01


def test_canceler_k1_without_cc():
    sweep = run_canceler_experiment([1], trials=5000, seed=6, cc_enabled=False)
    for row in sweep.rows:
        assert abs(row["p_p"] - 0.5) < 3 * row["se_p"] + 0.01


def test_canceler_gap_at_k2():
    sweep = run_canceler_experiment([2], trials=40_000, seed=7)
    by_dir = {r["direction"]: r for r in sweep.rows}
    opp, same = by_dir["opposite"], by_dir["same"]
    margin = 3 * math.hypot(opp["se_p"], same["se_p"])
    assert opp["p_p"] + margin < same["p_p"]
    # exact values are 7/32 and 8/32
    assert abs(opp["p_p"] - 7 / 32) < 0.01
    assert abs(same["p_p"] - 8 / 32) < 0.01
