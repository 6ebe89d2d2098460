import hashlib
import inspect
import json
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scbit.experiments as experiments
from oracles import draw_trial_vectors
from scbit.baseline import run_tree_inner_product
from scbit.engine import run_inner_product
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
from scbit.rng import RandomSource, SeedBatch

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
    for wrong_type in (
        {"lanes": "16"}, {"trials": 2.0}, {"cc_enabled": 1}, {"cc_enabled": "no"}, {"p_flip": True},
    ):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict(wrong_type)


def test_config_numpy_scalars_write_the_same_bytes(tmp_path):
    # a numpy scalar is stored as the Python value, so the meta file holds it
    def written(name, **updates):
        sweep = run_fault_sweep([0.0], ExperimentConfig(stream_len=8, trials=2, **updates))
        sweep.write_csv(tmp_path / f"{name}.csv")
        sweep.write_meta(tmp_path / f"{name}.json")
        return (tmp_path / f"{name}.csv").read_bytes(), (tmp_path / f"{name}.json").read_bytes()

    assert written("np_lanes", lanes=np.int64(4)) == written("lanes", lanes=4)
    assert written("np_scale", lanes=4, input_scale=np.float32(0.5)) == written(
        "scale", lanes=4, input_scale=0.5
    )
    # a plain int in a float field stays an int, as the existing meta bytes have it
    assert type(ExperimentConfig(input_scale=1).input_scale) is int


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

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    cfg = ExperimentConfig(**SMALL)
    capped = run_point(cfg.replace(jobs=16))
    assert sizes == [2]
    serial = run_point(cfg)
    assert sizes == [2]  # one job runs in this process
    for x, y in zip(serial, capped):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("design", ["novel", "baseline"])
def test_both_designs_encode_through_one_encoder(monkeypatch, design):
    # the sweep worker encodes the lane products of all its trials in one
    # call of the one encoder, whichever design it runs
    calls = {"encode_tlb_products": 0, "encode_sm_products": 0}
    for name in calls:

        def counted(*args, name=name, encode=getattr(experiments, name)):
            calls[name] += 1
            return encode(*args)

        monkeypatch.setattr(experiments, name, counted)
    cfg = ExperimentConfig(design=design, lanes=4, stream_len=16, trials=3, p_flip=0.1)
    trials = SeedBatch.of(np.random.SeedSequence(0)).spawn(cfg.trials)
    experiments._simulate_trials((cfg, [cfg.p_flip], trials))
    assert calls == {"encode_tlb_products": 1, "encode_sm_products": 0}


def test_run_point_baseline_lane_check():
    with pytest.raises(ValueError):
        run_point(ExperimentConfig(design="baseline", lanes=3))


@pytest.mark.parametrize(
    "sweep, args",
    [
        # a point the baseline tree cannot run, after one the engine can
        (run_accuracy_sweep, (["novel", "baseline"], [3], [2])),
        (run_accuracy_sweep, (["novel"], [16], [2, "4"])),
        (run_fault_sweep, ([0.0, 0.01, 1.5],)),
        (run_fault_sweep, (["0.0"],)),
        (run_fault_sweep, ([True],)),  # not run as p = 1.0
    ],
)
def test_sweeps_check_the_whole_grid_before_running(monkeypatch, sweep, args):
    calls = []
    simulate = experiments._simulate_trials

    def counted(payload):
        calls.append(payload)
        return simulate(payload)

    monkeypatch.setattr(experiments, "_simulate_trials", counted)
    with pytest.raises(ValueError):
        sweep(*args, ExperimentConfig(stream_len=8, trials=2))
    assert calls == []


def test_fault_sweep_writes_integer_p_as_float():
    sweep = run_fault_sweep([0], ExperimentConfig(**SMALL))
    assert sweep.rows[0]["p_flip"] == 0.0 and isinstance(sweep.rows[0]["p_flip"], float)


def test_entry_points_take_operating_points_from_config():
    # an operating point reaches every runner and sweep through one
    # ExperimentConfig, which checks it; no loose copy of a field
    config_fields = {f.name for f in fields(ExperimentConfig)}
    for entry in (
        run_inner_product, run_tree_inner_product, run_point,
        run_accuracy_sweep, run_fault_sweep, run_canceler_experiment,
    ):
        shared = config_fields & set(inspect.signature(entry).parameters)
        assert not shared, f"{entry.__name__} takes {sorted(shared)} outside its config"


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


FAULT_GRID = [0.0, 0.01, 0.05]


@pytest.mark.parametrize("p_flips", ([], [0.0], FAULT_GRID))
@pytest.mark.parametrize("design", ["novel", "baseline"])
def test_fault_sweep_encodes_each_trial_once(monkeypatch, design, p_flips):
    calls = []
    encode = experiments.encode_tlb_products

    def counted(*args):
        calls.append(args)
        return encode(*args)

    monkeypatch.setattr(experiments, "encode_tlb_products", counted)
    cfg = ExperimentConfig(design=design, lanes=4, stream_len=16, trials=5)
    run_fault_sweep(p_flips, cfg)
    # one call encodes every trial: x and y hold one row per trial
    assert [args[0].shape for args in calls] == ([(cfg.trials, cfg.lanes)] if p_flips else [])


@pytest.mark.parametrize("jobs", (1, 2))
@pytest.mark.parametrize("design", ["novel", "baseline"])
def test_fault_sweep_rows_equal_lone_points(monkeypatch, design, jobs):
    # two workers on any host, so 7 trials split 3 + 4
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    cfg = ExperimentConfig(design=design, lanes=4, carry_len=3, counter_width=3,
                           stream_len=200, trials=7, seed=3, jobs=jobs)
    sweep = run_fault_sweep(FAULT_GRID, cfg)
    for row, p in zip(sweep.rows, FAULT_GRID, strict=True):
        point = cfg.replace(p_flip=p)
        assert row == experiments._point_row(point, *run_point(point))


@pytest.mark.parametrize("design, kernel", [("novel", "engine_batch"), ("baseline", "tree_batch")])
def test_fault_sweep_runs_every_p_on_one_product_array(monkeypatch, design, kernel):
    seen = []
    run = getattr(experiments, kernel)

    def spy(products, *args, fault_schedules, **kwargs):
        seen.append((products.tobytes(), fault_schedules))
        return run(products, *args, fault_schedules=fault_schedules, **kwargs)

    monkeypatch.setattr(experiments, kernel, spy)
    cfg = ExperimentConfig(design=design, lanes=4, stream_len=64, trials=3, seed=2)
    run_fault_sweep(FAULT_GRID, cfg)
    assert len(seen) == len(FAULT_GRID)
    assert len({products for products, _ in seen}) == 1
    assert seen[0][1] is None
    assert all(faults is not None for _, faults in seen[1:])


# -- sweeps ---------------------------------------------------------------------


def test_accuracy_sweep_grid_and_meta():
    cfg = ExperimentConfig(**SMALL)
    sweep = run_accuracy_sweep(["novel", "baseline"], [4], [2, 4], cfg)
    assert len(sweep.rows) == 4
    assert sweep.columns == ACCURACY_COLUMNS
    assert {r["design"] for r in sweep.rows} == {"novel", "baseline"}
    assert "minimal_capacity" in sweep.meta
    assert "novel/K=4" in sweep.meta["minimal_capacity"]


def test_minimal_capacity_is_smallest_meeting_each_threshold(tmp_path):
    # capacities listed unsorted: 6 is the first listed to meet 0.05, 4 the
    # smallest, and none meets 0.02
    cfg = ExperimentConfig(stream_len=400, trials=12, seed=5)
    sweep = run_accuracy_sweep(["novel"], [16], [6, 2, 4], cfg)
    errors = {r["M_or_B"]: r["rmse"] for r in sweep.rows}
    assert 0.02 < errors[6] <= 0.05 and 0.02 < errors[4] <= 0.05 < errors[2] <= 0.1
    expected = {"0.1": 2, "0.05": 4, "0.02": None}
    assert sweep.meta["minimal_capacity"] == {"novel/K=16": expected}
    sweep.write_meta(tmp_path / "meta.json")
    written = json.loads((tmp_path / "meta.json").read_text())
    assert written["minimal_capacity"]["novel/K=16"] == expected


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


def _written_digests(sweep, tmp_path):
    """sha256 of the CSV and the meta.json bytes a sweep writes."""
    paths = tmp_path / "sweep.csv", tmp_path / "sweep.meta.json"
    sweep.write_csv(paths[0])
    sweep.write_meta(paths[1])
    return tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in paths)


# any change to a statistic, its float formatting or the metadata shows here
ACCURACY_SWEEP_SHA256 = (
    "fd808337ab880a39f1eb1c3daedb01b942acc7c6c4e229c378b956a2ba4bb941",
    "33a1e28fe30890191c6704e1ea0f82863a77129dd9d0d9488247bb4fca2dbd22",
)
CANCELER_SHA256 = {
    (50, True): (
        "ee53a5b5dc6bc359447509052da3c0d068da38fb7b1e369d30bc8261e080839b",
        "0be87dac44a5bd19dd1583689b1d37526c5972f59cfebe6bb9bb4edab265e791",
    ),
    (50, False): (
        "324ec0388942aa09e43005c4c8352c7543522a08e548f6a1c67eedce1d84b367",
        "43df47585aa435f11bfd905c1c38f9a8567405b8152c241b5312c821ef86b269",
    ),
    # one trial: no standard error, so se_p = se_n = 0.0
    (1, True): (
        "68e0a66be3e4779478d023ef4c682ee35ffaf0a917f9ad8be3a40e1c2caef231",
        "02b8a360ee1fd6929317a7a70da428523282f34366dafaa244b573e18ca057db",
    ),
}


def test_accuracy_sweep_bytes_pinned(tmp_path):
    cfg = ExperimentConfig(stream_len=300, trials=12, seed=5)
    sweep = run_accuracy_sweep(["novel", "baseline"], [4], [2, 3, 4], cfg)
    assert _written_digests(sweep, tmp_path) == ACCURACY_SWEEP_SHA256


# recorded before the sweep encoded each trial once for its whole p grid;
# the CSV does not depend on jobs, the meta records it
FAULT_SWEEP_SHA256 = {
    ("novel", 1): (
        "94ab63a78dfeddfa063e8650045c8e73b713f24838cf2f6f699c878e51fe3738",
        "fda307c7443f8bab4f7ba1457760c08730cf06ca7af8e2ecf4c8c359a2256d26",
    ),
    ("novel", 2): (
        "94ab63a78dfeddfa063e8650045c8e73b713f24838cf2f6f699c878e51fe3738",
        "18c9926e81c376606610378d13193f7b6f29411ba43ecd375b2c5edbf70fb783",
    ),
    ("baseline", 1): (
        "652414ff9f7466d3181fd1ca0a9df2ba67a1614d7f2d181f6713fd7b08249e87",
        "ad6079230b0c22787771079d0eb1d27b5b9503b24f0d19f77a5b1e03abfcc978",
    ),
    ("baseline", 2): (
        "652414ff9f7466d3181fd1ca0a9df2ba67a1614d7f2d181f6713fd7b08249e87",
        "beb3834931d6b2d528e80af0e8c9a99d5b6d5561dd220dd6c4fd128f3673138c",
    ),
}


@pytest.mark.parametrize("design, jobs", sorted(FAULT_SWEEP_SHA256))
def test_fault_sweep_bytes_pinned(tmp_path, monkeypatch, design, jobs):
    # two workers on any host, so 7 trials split 3 + 4
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    cfg = ExperimentConfig(design=design, lanes=4, carry_len=3, counter_width=3,
                           stream_len=300, trials=7, seed=9, jobs=jobs)
    sweep = run_fault_sweep(FAULT_GRID, cfg)
    assert _written_digests(sweep, tmp_path) == FAULT_SWEEP_SHA256[design, jobs]


@pytest.mark.parametrize("trials, cc_enabled", sorted(CANCELER_SHA256))
def test_canceler_bytes_pinned(tmp_path, trials, cc_enabled):
    cfg = ExperimentConfig(trials=trials, seed=7, cc_enabled=cc_enabled)
    sweep = run_canceler_experiment([1, 3, 8], cfg)
    assert _written_digests(sweep, tmp_path) == CANCELER_SHA256[trials, cc_enabled]


# K=64 at 10 000 trials spans two full trial blocks and a partial one
CANCELER_BLOCKS_SHA256 = {
    True: (
        "16f3f955f1dd3273eb557a99172f8fb09bdce45c9cf6c221f7fad829cde4bc24",
        "d6236fed3e24f7a5229d1d91f72fea7ef5a4dd0bb0d0d2c6a6dfa7f91a560033",
    ),
    False: (
        "732000989ccfc2cef17d9b744e4ec7f1de27d3596b004b8e43f7ff870350e5cb",
        "e1ac2170c6086483cd0c3265369cfd3b01dc1594a62159a9e5a5af44aa3f6dd4",
    ),
}


@pytest.mark.parametrize("cc_enabled", sorted(CANCELER_BLOCKS_SHA256))
@pytest.mark.parametrize("block_cells", (None, 1000))
def test_canceler_trial_blocks_bytes_pinned(tmp_path, monkeypatch, cc_enabled, block_cells):
    # the bytes do not depend on the block size: 1000 cells give K=1 ten
    # blocks and K=64 blocks of 15 trials
    if block_cells is not None:
        monkeypatch.setattr(experiments, "_CANCELER_BLOCK_CELLS", block_cells)
    cfg = ExperimentConfig(trials=10_000, seed=4, cc_enabled=cc_enabled)
    sweep = run_canceler_experiment([1, 64], cfg)
    assert _written_digests(sweep, tmp_path) == CANCELER_BLOCKS_SHA256[cc_enabled]


# -- shift-direction experiment --------------------------------------------------


def test_canceler_rows_and_columns():
    sweep = run_canceler_experiment([1, 2, 4], ExperimentConfig(trials=2000, seed=3))
    assert sweep.columns == CANCELER_COLUMNS
    assert len(sweep.rows) == 6  # two directions per lane count
    directions = {r["direction"] for r in sweep.rows}
    assert directions == {"opposite", "same"}


@pytest.mark.parametrize("lanes", (2.5, True))
def test_canceler_rejects_non_integer_lane_counts(lanes):
    # int() would run K = 2.5 as K = 2, and True as K = 1
    with pytest.raises(ValueError, match="lanes"):
        run_canceler_experiment([lanes], ExperimentConfig(trials=10, seed=1))


@pytest.mark.parametrize(
    "trials,seed,what",
    [
        (10, 1.5, "seed"),
        (10, True, "seed"),
        (10, -1, "seed"),
        (2.5, 1, "trials"),
        (True, 1, "trials"),
    ],
)
def test_canceler_rejects_bad_trials_and_seed(trials, seed, what):
    # int() would run seed 1.5 as seed 1; numpy would fail later, or not at all
    with pytest.raises(ValueError, match=what):
        run_canceler_experiment([2], ExperimentConfig(trials=trials, seed=seed))


def test_canceler_k1_modes_agree():
    sweep = run_canceler_experiment([1], ExperimentConfig(trials=5000, seed=5))
    by_dir = {r["direction"]: r for r in sweep.rows}
    # paired loads make the two modes literally identical at K=1
    assert by_dir["opposite"]["p_p"] == by_dir["same"]["p_p"]
    assert abs(by_dir["opposite"]["p_p"] - 0.25) < 3 * by_dir["opposite"]["se_p"] + 0.01


def test_canceler_k1_without_cc():
    sweep = run_canceler_experiment([1], ExperimentConfig(trials=5000, seed=6, cc_enabled=False))
    for row in sweep.rows:
        assert abs(row["p_p"] - 0.5) < 3 * row["se_p"] + 0.01


def test_canceler_gap_at_k2():
    sweep = run_canceler_experiment([2], ExperimentConfig(trials=40_000, seed=7))
    by_dir = {r["direction"]: r for r in sweep.rows}
    opp, same = by_dir["opposite"], by_dir["same"]
    margin = 3 * math.hypot(opp["se_p"], same["se_p"])
    assert opp["p_p"] + margin < same["p_p"]
    # exact values are 7/32 and 8/32
    assert abs(opp["p_p"] - 7 / 32) < 0.01
    assert abs(same["p_p"] - 8 / 32) < 0.01


@pytest.mark.parametrize("input_scale", (0.9, 1.0, 0.25))
@pytest.mark.parametrize("seed", (0, 1, 977, 2**40 + 3))
@pytest.mark.parametrize("lanes", (1, 2, 3, 16, 64))
def test_trial_inputs_match_the_scalar_draw(lanes, seed, input_scale):
    # the batched draw gives every trial the bytes of the scalar draw, one
    # value at a time, from numpy's own SeedSequence of the trial's vector
    # source (spawn key (trial, 0)); the truth is each trial's own dot product
    point = np.random.SeedSequence((seed, 0, lanes, 6, 100))
    vectors = SeedBatch.of(point).spawn(30).spawn(3)[:, 0]
    x, y, truths = experiments._trial_inputs(vectors, lanes, input_scale)
    assert x.shape == y.shape == (30, lanes) and truths.shape == (30,)
    for t in range(30):
        rng = RandomSource(_sequence=np.random.SeedSequence(point.entropy, spawn_key=(t, 0)))
        want_x, want_y, want_truth = draw_trial_vectors(rng, lanes, input_scale)
        assert x[t].tobytes() == want_x.tobytes(), t
        assert y[t].tobytes() == want_y.tobytes(), t
        assert truths[t] == want_truth, t


@pytest.mark.parametrize("design", ["novel", "baseline"])
def test_sweep_worker_encodes_each_trial_from_its_own_sources(design):
    # trial t of one worker batch has the lane products of a one-trial
    # encoder call on numpy's SeedSequence of its encoder source, key (t, 1)
    cfg = ExperimentConfig(design=design, lanes=4, stream_len=50, trials=6, seed=5)
    point = experiments._point_sequence(cfg.seed, cfg.design, cfg.lanes, cfg.capacity, 50)
    seen = []
    encode = experiments.encode_tlb_products

    def spy(x, y, stream_len, rng):
        out = encode(x, y, stream_len, rng)
        seen.append((x, y, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "encode_tlb_products", spy)
        run_point(cfg)
    [(x, y, products)] = seen
    for t in range(cfg.trials):
        rng = RandomSource(_sequence=np.random.SeedSequence(point.entropy, spawn_key=(t, 1)))
        assert np.array_equal(products[t], encode(x[t], y[t], 50, rng)), t
