import hashlib
import io
import itertools
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from scbit import ExperimentConfig, RandomSource, SmStream, run_inner_product, tlb_multiply
from scbit import batch, encode_sm, encode_tlb, sm_multiply_bit, sm_to_tlb, ternary_values
from scbit.batch import (
    adder_batch,
    canceler_batch,
    draw_fault_schedule,
    encode_sm_products,
    encode_tlb_products,
    engine_batch,
    merge_fault_schedules,
    tree_batch,
)


# -- product encoders -----------------------------------------------------------

# both public names of the one encoder, told apart by their ids
PRODUCT_ENCODERS = [
    pytest.param(encode_tlb_products, id="encode_tlb_products"),
    pytest.param(encode_sm_products, id="encode_sm_products"),
]


def product_inputs(lanes):
    gen = np.random.default_rng(lanes)
    x = gen.uniform(-1.0, 1.0, lanes)
    y = gen.uniform(-1.0, 1.0, lanes)
    x[:4] = (0.0, -0.0, 1.0, -1.0)
    y[:4] = (-1.0, 1.0, -0.0, 0.0)
    return x, y


@pytest.mark.parametrize(
    "lanes,stream_len,digest",
    [
        (16, 1000, "3e6fda85d0726b6ec851e6fe1465cb572484409c40d0fd6f88e3894028bf8ec4"),
        (64, 500, "b9c98d28881072733e50eecf5eacda3683da06887d473554d782baf3809bcfbe"),
    ],
)
@pytest.mark.parametrize("encode", PRODUCT_ENCODERS)
def test_product_encoders_pinned(encode, lanes, stream_len, digest):
    x, y = product_inputs(lanes)
    out = encode(x, y, stream_len, RandomSource(2024))
    assert out.dtype == np.int8 and out.shape == (lanes, stream_len)
    assert hashlib.sha256(out.tobytes()).hexdigest() == digest


def sm_multiply(x, y):
    # through sm_to_tlb, so that the expected symbols do not share
    # SmStream._ternary with the encoder under test
    product = sm_multiply_bit(x.sign.bits, x.magnitude.bits, y.sign.bits, y.magnitude.bits)
    return sm_to_tlb(SmStream(*product))


@pytest.mark.parametrize(
    "encode,multiply,products",
    [
        (encode_tlb, tlb_multiply, encode_tlb_products),
        (encode_sm, sm_multiply, encode_sm_products),
    ],
    ids=("tlb", "sm"),
)
def test_product_encoders_are_lane_multiplier_outputs(encode, multiply, products):
    # lane k multiplies the streams of x[k] and y[k], drawn from child k and K + k
    x, y = product_inputs(8)
    sources = RandomSource(5).spawn(16)
    want = [
        ternary_values(multiply(encode(a, 300, sx), encode(b, 300, sy)))
        for a, b, sx, sy in zip(x, y, sources[:8], sources[8:])
    ]
    assert np.array_equal(products(x, y, 300, RandomSource(5)), want)


@pytest.mark.parametrize("encode", PRODUCT_ENCODERS)
def test_product_encoders_reject_lane_mismatch(encode):
    with pytest.raises(ValueError, match="lanes"):
        encode([0.1, 0.2, 0.3], [0.5], 8, RandomSource(0))


signed_unit = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(-1.0, 1.0, allow_nan=False),
)


@given(
    st.integers(1, 12).flatmap(
        lambda k: st.tuples(
            st.lists(signed_unit, min_size=k, max_size=k),
            st.lists(signed_unit, min_size=k, max_size=k),
        )
    ),
    st.integers(1, 64),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_product_encoders_agree(xy, stream_len, seed):
    # the one lane-product encoder gives, lane by lane, the SM multipliers'
    # outputs on SM streams drawn from the same child sources
    x, y = xy
    k = len(x)
    sources = RandomSource(seed).spawn(2 * k)
    want = [
        ternary_values(sm_multiply(encode_sm(a, stream_len, sx), encode_sm(b, stream_len, sy)))
        for a, b, sx, sy in zip(x, y, sources[:k], sources[k:])
    ]
    products = encode_tlb_products(x, y, stream_len, RandomSource(seed))
    assert products.dtype == np.int8
    assert np.array_equal(products, want)


# -- fault schedule sampling --------------------------------------------------


def test_fault_schedule_edges():
    rng = RandomSource(0)
    cycles, bits = draw_fault_schedule(rng, 8, 100, 0.0)
    assert len(cycles) == 0
    cycles, bits = draw_fault_schedule(RandomSource(0), 8, 100, 1.0)
    assert len(cycles) == 800  # every bit, every cycle
    assert (np.diff(cycles) >= 0).all()
    assert bits.min() == 0 and bits.max() == 7
    with pytest.raises(ValueError):
        draw_fault_schedule(rng, 8, 10, 1.5)


@pytest.mark.parametrize("n_bits,n_cycles", [(2.7, 10), (2, 10.9), (True, 10), (2, True)])
def test_fault_schedule_rejects_non_integer_sizes(n_bits, n_cycles):
    # int() would truncate 2.7 to 2; the check runs before any draw
    rng = RandomSource(0)
    state = rng._gen.bit_generator.state
    with pytest.raises(ValueError, match="count"):
        draw_fault_schedule(rng, n_bits, n_cycles, 0.5)
    assert rng._gen.bit_generator.state == state


def test_fault_schedule_rate():
    counts = [
        len(draw_fault_schedule(src, 12, 1000, 0.05)[0])
        for src in RandomSource(1).spawn(50)
    ]
    assert abs(np.mean(counts) - 12 * 1000 * 0.05) < 60


def test_merge_fault_schedules_orders_by_cycle():
    trials, cycles, bits = merge_fault_schedules(
        [
            (np.array([5, 9]), np.array([0, 1])),
            None,
            (np.array([2, 7]), np.array([3, 2])),
            (np.array([]), np.array([])),  # empty float arrays are no faults
        ]
    )
    assert cycles.tolist() == [2, 5, 7, 9]
    assert trials.tolist() == [2, 0, 2, 0]
    assert bits.tolist() == [3, 0, 2, 1]


def test_merge_fault_schedules_rejects_mismatched_arrays():
    # zip-like truncation would keep one flip of (cycles [1], bits [3, 4])
    for schedule in ((np.array([1]), np.array([3, 4])), (np.array([]), np.array([3]))):
        with pytest.raises(ValueError, match="trial 1"):
            merge_fault_schedules([None, schedule])
    # an int64 cast would truncate cycle 2.9 to 2 and read bit True as 1
    for schedule in (([2.9], [1]), ([2], [True]), (["2"], [1]), ([2], np.array([1], object))):
        with pytest.raises(ValueError, match="trial 1: fault .* must be integers"):
            merge_fault_schedules([None, schedule])


# -- engine batch vs the scalar oracle ------------------------------------------


def engine_inputs(seed, config, p_flip):
    """Lane values from ``seed`` and a fault schedule from ``seed + 1``."""
    inputs = np.random.default_rng(seed)
    x = inputs.uniform(-1, 1, config.lanes)
    y = inputs.uniform(-1, 1, config.lanes)
    cells = 2 * config.carry_len
    return x, y, draw_fault_schedule(RandomSource(seed + 1), cells, config.stream_len, p_flip)


def check_engine(seeds, config, p_flip=0.0, check=False):
    """One engine_batch run over a trial per seed, each trial against the oracle."""
    products, schedules = [], []
    for seed in seeds:
        x, y, schedule = engine_inputs(seed, config, p_flip)
        products.append(encode_tlb_products(x, y, config.stream_len, RandomSource(seed)))
        schedules.append(schedule)
    out = engine_batch(
        np.stack(products),
        config.carry_len,
        cc_enabled=config.cc_enabled,
        shift_direction=config.shift_direction,
        fault_schedules=merge_fault_schedules(schedules) if p_flip else None,
        check_conservation=check,
    )
    for t, (lane_products, schedule) in enumerate(zip(products, schedules)):
        stream, diag = oracles.run_engine(lane_products, config, zip(*schedule))
        assert np.array_equal(out["emitted_pos"][t], stream.pos.bits)
        assert np.array_equal(out["emitted_neg"][t], stream.neg.bits)
        for f in fields(diag):
            assert out[f.name][t] == getattr(diag, f.name), f.name


@pytest.mark.parametrize("cc_enabled", (True, False))
@pytest.mark.parametrize("direction", ("opposite", "same"))
def test_engine_batch_matches_scalar(cc_enabled, direction):
    rng = np.random.default_rng(21)
    for trial in range(6):
        lanes = int(rng.integers(1, 6))
        carry_len = int(rng.integers(1, 5))
        stream_len = int(rng.integers(20, 120))
        config = ExperimentConfig(
            lanes=lanes,
            carry_len=carry_len,
            stream_len=stream_len,
            cc_enabled=cc_enabled,
            shift_direction=direction,
        )
        check_engine([int(rng.integers(0, 2**32))], config)


def test_engine_batch_matches_scalar_under_faults():
    rng = np.random.default_rng(22)
    for trial in range(4):
        config = ExperimentConfig(
            lanes=int(rng.integers(1, 5)), carry_len=int(rng.integers(2, 5)), stream_len=80
        )
        check_engine([int(rng.integers(0, 2**32))], config, p_flip=0.1)


def test_engine_batch_multi_trial_stacking():
    # rows of a batch are independent: same results as one-trial batches
    rng = np.random.default_rng(23)
    products = rng.integers(-1, 2, size=(5, 3, 60)).astype(np.int8)
    whole = engine_batch(products, 2)
    for t in range(5):
        single = engine_batch(products[t : t + 1], 2)
        assert (single["emitted_pos"][0] == whole["emitted_pos"][t]).all()
        assert (single["emitted_neg"][0] == whole["emitted_neg"][t]).all()


def test_engine_batch_conservation_flag():
    rng = np.random.default_rng(24)
    products = rng.integers(-1, 2, size=(8, 4, 100)).astype(np.int8)
    engine_batch(products, 32, check_conservation=True)
    engine_batch(products, 32, cc_enabled=False, check_conservation=True)


# K in [1, 64]; M in [1, 10] spans both carry steppers (table while 2M <= 16)
engine_configs = st.builds(
    ExperimentConfig,
    lanes=st.integers(1, 64),
    carry_len=st.integers(1, 10),
    stream_len=st.integers(1, 40),
    cc_enabled=st.booleans(),
    shift_direction=st.sampled_from(("opposite", "same")),
)
# cycles per delivery pass, through the chunk size in trial*cycle*lane elements
chunks = st.sampled_from((1, 64, 1 << 16))


@given(
    config=engine_configs,
    p_flip=st.floats(0.0, 0.2),
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3),
    chunk=chunks,
    check=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_engine_batch_matches_scalar_property(config, p_flip, seeds, chunk, check):
    with mock.patch.object(batch, "_CHUNK_ELEMENTS", chunk):
        check_engine(seeds, config, p_flip, check)


@given(
    config=engine_configs,
    p_flip=st.floats(0.0, 0.2),
    seed=st.integers(0, 2**32 - 1),
    chunk=chunks,
)
@settings(max_examples=60, deadline=None)
def test_trace_matches_oracle_observer(tmp_path_factory, config, p_flip, seed, chunk):
    # the single-shot trace, built from the kernel's own data, equals the
    # oracle observer's byte for byte
    x, y, schedule = engine_inputs(seed, config, p_flip)
    path = tmp_path_factory.mktemp("trace") / "batch.csv"
    with mock.patch.object(batch, "_CHUNK_ELEMENTS", chunk):
        run_inner_product(x, y, config, RandomSource(seed), zip(*schedule), trace_path=path)
    products = encode_tlb_products(x, y, config.stream_len, RandomSource(seed))
    oracle = io.StringIO(newline="")
    oracles.run_engine(products, config, zip(*schedule), oracles.trace_observer(oracle))
    assert path.read_bytes() == oracle.getvalue().encode()


@given(
    carry_len=st.integers(1, 8),
    lanes=st.integers(1, 8),
    p_flip=st.floats(0.0, 0.3),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_table_and_bit_array_steppers_agree(carry_len, lanes, p_flip, seed):
    # the table stepper against the wide stepper, which a zero table width forces
    rng = np.random.default_rng(seed)
    trials, stream_len = 4, 50
    products = rng.integers(-1, 2, size=(trials, lanes, stream_len)).astype(np.int8)
    faults = merge_fault_schedules(
        [
            draw_fault_schedule(src, 2 * carry_len, stream_len, p_flip)
            for src in RandomSource(seed).spawn(trials)
        ]
    )
    table = engine_batch(products, carry_len, fault_schedules=faults, check_conservation=True)
    with mock.patch.object(batch, "_TABLE_MAX_BITS", 0):
        bits = engine_batch(products, carry_len, fault_schedules=faults, check_conservation=True)
    for key in table:
        assert np.array_equal(table[key], bits[key]), key


# sha256 of the carry table bytes per M: any change to the rule or its packing shows
CARRY_TABLE_SHA256 = {
    1: "a24b0af0d6f651b560e9d9a0094db96f9a14be6bd6d55e5f1da2c33114d47810",
    2: "81e7e8f665976014a461b87d4531045f593811cf4cdd365d0b08a5e0ac23208a",
    3: "384306698ddf66abaab05bf773474628775862b1dca3d9018c4b40bd7b5d0613",
    4: "f391a1bc357400669d4ba2b249be402ff2c629473b3cb7dda48c7cbb2836c9ba",
    5: "f5f0e69a6e78b88c0ad975314a21b6ed7cb1929b74ef523bd26dfa00222d44e2",
    6: "2dc4121d9bac08fa2ce0563e6456287bed7fa5c1d307d50a483ecad06b0bf739",
    7: "4f785fe8396fb376739e9edf39ac5cec0a628061ed8dbd09e509150e84db9b68",
    8: "046800dfded93978891faa15a18f26cb0192fe116dc353c2623165982d1a7803",
}


@pytest.mark.parametrize("m", sorted(CARRY_TABLE_SHA256))
def test_carry_table_pinned(m):
    step = batch._carry_table(m)
    assert step.dtype == np.int32 and step.shape == (16 * 4**m,)
    assert hashlib.sha256(step.tobytes()).hexdigest() == CARRY_TABLE_SHA256[m]


# the wide stepper's register dtype changes from uint64 to Python ints above 64
# cells; a batch of one trial steps Python ints at every width
@pytest.mark.parametrize("carry_len", (9, 32, 33, 64, 65))
@pytest.mark.parametrize("n_trials", (1, 3))
def test_wide_engine_matches_scalar_under_faults(carry_len, n_trials):
    config = ExperimentConfig(
        lanes=5, carry_len=carry_len, stream_len=150, cc_enabled=carry_len % 2 == 1
    )
    seeds = [carry_len * 10 + t for t in range(n_trials)]
    check_engine(seeds, config, p_flip=0.05, check=True)


def test_engine_ledger_catches_lost_units(monkeypatch):
    # a stepper whose emissions stop reporting their bits loses units
    m = 3
    broken = batch._carry_table(m).copy()
    emission = slice(3 << (2 * m + 2), 4 << (2 * m + 2))
    broken[emission] &= (1 << 2 * m) - 1
    monkeypatch.setattr(batch, "_carry_table", lambda _: broken)
    products = np.ones((2, 2, 20), dtype=np.int8)
    with pytest.raises(RuntimeError, match="at end of run"):
        engine_batch(products, m)
    with pytest.raises(RuntimeError, match="at emit 0"):
        engine_batch(products, m, check_conservation=True)


def test_engine_batch_rejects_bad_fault_cells():
    faults = (np.array([0]), np.array([0]), np.array([4]))
    with pytest.raises(ValueError):
        engine_batch(np.zeros((1, 2, 3), np.int8), 2, fault_schedules=faults)
    # strings, floats and bools are not cast to int64
    for faults in ((["0"], ["1"], ["1"]), ([0], [1.5], [1]), ([0], [1], [True])):
        with pytest.raises(ValueError, match="must be integers"):
            engine_batch(np.ones((1, 2, 5), np.int8), 2, fault_schedules=faults)
    # a flip outside the run's cycles would be dropped silently
    for cycle in (-1, 5, 99):
        faults = (np.array([0]), np.array([cycle]), np.array([0]))
        with pytest.raises(ValueError, match="fault cycles"):
            engine_batch(np.ones((1, 2, 5), np.int8), 2, fault_schedules=faults)
    # every cycle is range-checked, not only the first and the last
    faults = (np.zeros(3, np.int64), np.array([2, 9, 3]), np.array([0, 1, 2]))
    with pytest.raises(ValueError, match="fault cycles must lie"):
        engine_batch(np.ones((1, 2, 5), np.int8), 2, fault_schedules=faults)
    # unsorted cycles would be split by cycle wrongly
    faults = (np.zeros(3, np.int64), np.array([6, 2, 3]), np.array([3, 0, 1]))
    with pytest.raises(ValueError, match="sorted"):
        engine_batch(np.ones((1, 3, 8), np.int8), 2, fault_schedules=faults)
    # trial -1 would flip the last trial, and trial == trials raise IndexError
    for trial in (-1, 2):
        faults = (np.array([trial]), np.array([0]), np.array([0]))
        with pytest.raises(ValueError, match="fault trials"):
            engine_batch(np.ones((2, 2, 5), np.int8), 2, fault_schedules=faults)


def test_engine_batch_rejects_bad_shift_direction():
    products = np.ones((1, 3, 4), np.int8)
    with pytest.raises(ValueError, match="shift_direction"):
        engine_batch(products, 2, shift_direction="sideways")
    with pytest.raises(ValueError, match="shift_direction"):
        canceler_batch(np.ones((1, 3), np.int8), np.ones((1, 3), np.int8), "sideways")


# -- tree batch vs the scalar oracle --------------------------------------------


def assert_tree_matches_oracle(out, t, products, width, schedule=()):
    emitted, saturations, residual = oracles.run_tree(products, width, zip(*schedule))
    assert np.array_equal(out["emitted"][t], emitted)
    assert out["saturation_events"][t] == saturations
    assert out["residual_sum"][t] == residual


def check_tree(rng, lanes, width, stream_len, p_flip=0.0, top_bit_flips=False):
    """One random trial of tree_batch against the oracle."""
    x = rng.uniform(-1, 1, lanes)
    y = rng.uniform(-1, 1, lanes)
    seed = int(rng.integers(0, 2**32))
    products = encode_sm_products(x, y, stream_len, RandomSource(seed))
    cycles, cells = draw_fault_schedule(
        RandomSource(seed + 9), (lanes - 1) * width, stream_len, p_flip
    )
    if top_bit_flips:  # the top bits of the first and the root counter, at cycle 5
        cycles = np.concatenate([cycles, [5, 5]])
        cells = np.concatenate([cells, [width - 1, 3 * width - 1]])
    faults = merge_fault_schedules([(cycles, cells)])
    out = tree_batch(products[None], width, fault_schedules=faults)
    assert_tree_matches_oracle(out, 0, products, width, faults[1:])


def test_tree_batch_matches_scalar():
    rng = np.random.default_rng(25)
    for trial in range(5):
        lanes = int(rng.choice([2, 4, 8]))
        check_tree(rng, lanes, int(rng.integers(2, 6)), int(rng.integers(30, 150)))


def test_tree_batch_matches_scalar_under_faults():
    rng = np.random.default_rng(26)
    for trial in range(4):
        check_tree(rng, 4, 4, 80, p_flip=0.1)


@pytest.mark.parametrize("width", (16, 17, 20))
def test_tree_batch_wide_counters_match_scalar(width):
    # int16 counters would wrap: a top-bit flip moves a counter by 2^(width-1)
    rng = np.random.default_rng(26)
    for trial in range(4):
        check_tree(rng, 4, width, 80, p_flip=0.1, top_bit_flips=True)


def test_tree_batch_rejects_bad_widths():
    products = np.ones((1, 4, 3), np.int8)
    for width in (0, -1, 63):
        with pytest.raises(ValueError, match="width"):
            tree_batch(products, width)
    assert_tree_matches_oracle(tree_batch(products, 61), 0, products[0], 61)


def test_tree_batch_rejects_bad_fault_cells():
    # 4 lanes of width 4 have cells 0..11; cell 15 of trial 0 would land in
    # trial 1's first counter
    products = np.ones((2, 4, 3), np.int8)
    for cell in (15, 12, -1):
        faults = (np.array([0]), np.array([0]), np.array([cell]))
        with pytest.raises(ValueError, match="fault cells"):
            tree_batch(products, 4, fault_schedules=faults)
    faults = (np.array([0]), np.array([0]), np.array([11]))
    tree_batch(products, 4, fault_schedules=faults)
    # an int64 cast would truncate cycle 0.5 and cell 1.99 to 0 and 1
    for faults in (([0], [0.5], [1.99]), ([0.0], [0], [1]), ([0], [0], [True])):
        with pytest.raises(ValueError, match="must be integers"):
            tree_batch(products, 4, fault_schedules=faults)
    # empty arrays of any dtype are no faults
    tree_batch(products, 4, fault_schedules=(np.array([]), np.array([]), np.array([])))
    for cycle in (-1, 3, 99):
        faults = (np.array([0]), np.array([cycle]), np.array([0]))
        with pytest.raises(ValueError, match="fault cycles"):
            tree_batch(products, 4, fault_schedules=faults)
    faults = (np.zeros(3, np.int64), np.array([1, 9, 2]), np.array([0, 1, 2]))
    with pytest.raises(ValueError, match="fault cycles must lie"):
        tree_batch(products, 4, fault_schedules=faults)
    faults = (np.zeros(3, np.int64), np.array([2, 0, 1]), np.array([0, 1, 2]))
    with pytest.raises(ValueError, match="sorted"):
        tree_batch(products, 4, fault_schedules=faults)
    for trial in (-1, 2):
        faults = (np.array([trial]), np.array([0]), np.array([0]))
        with pytest.raises(ValueError, match="fault trials"):
            tree_batch(products, 4, fault_schedules=faults)


def clamp_unreported(pending, c_max, out):
    """A clamp that stops reporting the units it removes."""
    np.clip(pending, -c_max, c_max, out=out)
    return np.zeros_like(pending)


def test_tree_ledger_catches_lost_units(monkeypatch):
    products = np.ones((2, 4, 20), dtype=np.int8)
    tree_batch(products, 2)
    monkeypatch.setattr(batch, "_clamp", clamp_unreported)
    with pytest.raises(RuntimeError, match="at end of run"):
        tree_batch(products, 2)


def test_adder_ledger_catches_lost_units(monkeypatch):
    # a run of +1 pairs overflows a 2-cell register
    x = np.ones((2, 20), dtype=np.int8)
    assert adder_batch(x, x, 2)[2].tolist() == [18, 18]
    monkeypatch.setattr(batch, "_clamp", clamp_unreported)
    with pytest.raises(RuntimeError, match="at end of run"):
        adder_batch(x, x, 2)


def test_tree_batch_rejects_bad_lanes():
    with pytest.raises(ValueError):
        tree_batch(np.zeros((1, 3, 4), np.int8), 4)


@pytest.mark.parametrize("bad", [np.int8(2), np.int8(-2), np.int64(255)])
def test_kernels_reject_non_ternary_symbols(bad):
    # checked before the int8 cast, which would turn 255 into -1
    products = np.zeros((1, 2, 4), dtype=bad.dtype)
    products[0, 1, 2] = bad
    zeros = np.zeros_like(products[0])
    runs = (
        lambda: engine_batch(products, 2),
        lambda: tree_batch(products, 4),
        lambda: adder_batch(products[0], zeros, 2),
        lambda: adder_batch(zeros, products[0], 2),
    )
    for run in runs:
        with pytest.raises(ValueError, match="ternary symbols"):
            run()


@pytest.mark.parametrize("size", (2.5, True, np.float64(2.0)), ids=("2.5", "True", "float64-2"))
def test_kernels_reject_non_integer_sizes(size):
    # int() would truncate 2.5 to 2; a bool is not a size
    products = np.ones((1, 2, 4), np.int8)
    with pytest.raises(ValueError, match="carry_len"):
        engine_batch(products, size)
    with pytest.raises(ValueError, match="width"):
        tree_batch(products, size)
    with pytest.raises(ValueError, match="capacity"):
        adder_batch(products[0], products[0], size)


# -- shift-direction experiment kernel ----------------------------------------


def canceler_reference(hold_p, hold_n, direction, cc):
    """The oracle engine's drain sequence, after the load-path canceling."""
    k = len(hold_p)
    config = ExperimentConfig(
        lanes=k, carry_len=1, stream_len=1, cc_enabled=cc, shift_direction=direction
    )
    engine = oracles.InnerProductEngine(config)
    both = np.array(hold_p) & np.array(hold_n) if cc else 0
    engine.hold_pos[:] = np.array(hold_p) ^ both
    engine.hold_neg[:] = np.array(hold_n) ^ both
    engine.load_inputs()
    delivered = []
    for _ in range(k):
        delivered.append((int(engine.shift_pos[0]), int(engine.shift_neg[0])))
        engine._shift_inputs()
    return delivered


@pytest.mark.parametrize("direction", ("opposite", "same"))
@pytest.mark.parametrize("cc", (True, False))
def test_canceler_batch_matches_reference(direction, cc):
    rng = np.random.default_rng(27)
    for _ in range(10):
        k = int(rng.integers(1, 7))
        hp = rng.integers(0, 2, k).astype(np.int8)
        hn = rng.integers(0, 2, k).astype(np.int8)
        dp, dn, _ = canceler_batch(hp[None], hn[None], direction, cc)
        want = canceler_reference(hp.tolist(), hn.tolist(), direction, cc)
        assert [(int(p), int(n)) for p, n in zip(dp[0], dn[0])] == want


@pytest.mark.parametrize(
    "bad", (np.int64(2), np.int64(-1), np.int64(256)), ids=("2", "-1", "int64-256")
)
def test_canceler_batch_rejects_non_bit_holds(bad):
    # checked before the int8 cast, which would turn 256 into 0
    hold = np.zeros((1, 2), dtype=np.int64)
    hold[0, 0] = bad
    zeros = np.zeros_like(hold)
    for hold_pos, hold_neg in ((hold, zeros), (zeros, hold)):
        with pytest.raises(ValueError, match="hold bits"):
            canceler_batch(hold_pos, hold_neg)


def enumerate_holds(k):
    combos = list(itertools.product((0, 1), repeat=2 * k))
    arr = np.array(combos, dtype=np.int8)
    return arr[:, :k], arr[:, k:]


def exact_p(k, direction, cc):
    hp, hn = enumerate_holds(k)
    dp, dn, _ = canceler_batch(hp, hn, direction, cc)
    return dp.mean(), dn.mean()


def test_canceler_closed_forms_k1():
    # single lane: one delivery, the lane pair canceled on the load path
    assert exact_p(1, "opposite", True) == (0.25, 0.25)
    assert exact_p(1, "same", True) == (0.25, 0.25)
    assert exact_p(1, "opposite", False) == (0.5, 0.5)
    assert exact_p(1, "same", False) == (0.5, 0.5)


def test_canceler_closed_forms_k2():
    p_opp, n_opp = exact_p(2, "opposite", True)
    p_same, n_same = exact_p(2, "same", True)
    assert p_opp == n_opp == 7 / 32
    assert p_same == n_same == 8 / 32
    # without canceling both wirings are plain shifts
    assert exact_p(2, "opposite", False) == (0.5, 0.5)


def test_canceler_exact_gap_grows():
    gaps = []
    for k in (2, 3, 4, 5):
        p_opp, _ = exact_p(k, "opposite", True)
        p_same, _ = exact_p(k, "same", True)
        assert p_same == pytest.approx(0.25)
        gaps.append(p_same - p_opp)
    assert all(g > 0 for g in gaps)
    assert gaps == sorted(gaps)
