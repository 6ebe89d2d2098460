import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scbit import EngineConfig, RandomSource, run_inner_product, run_tree_inner_product
from scbit import batch
from scbit.batch import (
    canceler_batch,
    draw_fault_schedule,
    encode_sm_products,
    encode_tlb_products,
    engine_batch,
    merge_fault_schedules,
    tree_batch,
)


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
        ]
    )
    assert cycles.tolist() == [2, 5, 7, 9]
    assert trials.tolist() == [2, 0, 2, 0]
    assert bits.tolist() == [3, 0, 2, 1]


# -- engine batch vs scalar reference ----------------------------------------


@pytest.mark.parametrize("cc_enabled", (True, False))
@pytest.mark.parametrize("direction", ("opposite", "same"))
def test_engine_batch_matches_scalar(cc_enabled, direction):
    rng = np.random.default_rng(21)
    for trial in range(6):
        lanes = int(rng.integers(1, 6))
        carry_len = int(rng.integers(1, 5))
        stream_len = int(rng.integers(20, 120))
        x = rng.uniform(-1, 1, lanes)
        y = rng.uniform(-1, 1, lanes)
        seed = int(rng.integers(0, 2**32))
        config = EngineConfig(
            lanes, carry_len, stream_len, cc_enabled=cc_enabled, shift_direction=direction
        )
        stream, diag = run_inner_product(x, y, config, RandomSource(seed))

        products = encode_tlb_products(x, y, stream_len, RandomSource(seed))
        out = engine_batch(
            products[None],
            carry_len,
            cc_enabled=cc_enabled,
            shift_direction=direction,
        )
        assert (out["emitted_pos"][0] == stream.pos.bits).all()
        assert (out["emitted_neg"][0] == stream.neg.bits).all()
        assert out["dropped_pos"][0] + out["dropped_neg"][0] == diag.overflow_events
        assert out["cc_cancellations"][0] == diag.cc_cancellations
        assert out["residual_pos"][0] == diag.residual_pos
        assert out["residual_neg"][0] == diag.residual_neg


def test_engine_batch_matches_scalar_under_faults():
    rng = np.random.default_rng(22)
    for trial in range(4):
        lanes = int(rng.integers(1, 5))
        carry_len = int(rng.integers(2, 5))
        stream_len = 80
        x = rng.uniform(-1, 1, lanes)
        y = rng.uniform(-1, 1, lanes)
        seed = int(rng.integers(0, 2**32))
        schedule = draw_fault_schedule(
            RandomSource(seed + 1), 2 * carry_len, stream_len, 0.1
        )
        config = EngineConfig(lanes, carry_len, stream_len)
        stream, diag = run_inner_product(
            x, y, config, RandomSource(seed), fault_schedule=zip(*schedule)
        )
        products = encode_tlb_products(x, y, stream_len, RandomSource(seed))
        out = engine_batch(
            products[None], carry_len, fault_schedules=merge_fault_schedules([schedule])
        )
        assert (out["emitted_pos"][0] == stream.pos.bits).all()
        assert (out["emitted_neg"][0] == stream.neg.bits).all()
        assert out["cc_cancellations"][0] == diag.cc_cancellations


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


@given(
    lanes=st.integers(1, 64),
    carry_len=st.integers(1, 10),
    stream_len=st.integers(1, 40),
    direction=st.sampled_from(("opposite", "same")),
    cc_enabled=st.booleans(),
    p_flip=st.floats(0.0, 0.2),
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3),
    chunk=st.sampled_from((1, 64, 1 << 16)),
    check=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_engine_batch_matches_scalar_property(
    lanes, carry_len, stream_len, direction, cc_enabled, p_flip, seeds, chunk, check
):
    # M in [1, 10] spans both carry steppers (table while 2M <= 16);
    # ``chunk`` sets how many cycles share one delivery pass
    config = EngineConfig(
        lanes, carry_len, stream_len, cc_enabled=cc_enabled, shift_direction=direction
    )
    products, schedules, scalar = [], [], []
    for seed in seeds:
        inputs = np.random.default_rng(seed)
        x = inputs.uniform(-1, 1, lanes)
        y = inputs.uniform(-1, 1, lanes)
        schedule = draw_fault_schedule(
            RandomSource(seed + 1), 2 * carry_len, stream_len, p_flip
        )
        scalar.append(
            run_inner_product(x, y, config, RandomSource(seed), fault_schedule=zip(*schedule))
        )
        products.append(encode_tlb_products(x, y, stream_len, RandomSource(seed)))
        schedules.append(schedule)
    with mock.patch.object(batch, "_CHUNK_ELEMENTS", chunk):
        out = engine_batch(
            np.stack(products),
            carry_len,
            cc_enabled=cc_enabled,
            shift_direction=direction,
            fault_schedules=merge_fault_schedules(schedules),
            check_conservation=check,
        )
    for t, (stream, diag) in enumerate(scalar):
        assert np.array_equal(out["emitted_pos"][t], stream.pos.bits)
        assert np.array_equal(out["emitted_neg"][t], stream.neg.bits)
        assert out["dropped_pos"][t] == diag.dropped_pos
        assert out["dropped_neg"][t] == diag.dropped_neg
        assert out["cc_cancellations"][t] == diag.cc_cancellations
        assert out["residual_pos"][t] == diag.residual_pos
        assert out["residual_neg"][t] == diag.residual_neg


@given(
    carry_len=st.integers(1, 8),
    lanes=st.integers(1, 8),
    p_flip=st.floats(0.0, 0.3),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_table_and_bit_array_steppers_agree(carry_len, lanes, p_flip, seed):
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


def test_engine_ledger_catches_lost_units(monkeypatch):
    # a stepper whose emissions stop reporting their bits loses units
    m = 3
    step, stored = batch._carry_table(m)
    broken = step.copy()
    emission = slice(3 << (2 * m + 2), 4 << (2 * m + 2))
    broken[emission] &= (1 << 2 * m) - 1
    monkeypatch.setattr(batch, "_carry_table", lambda _: (broken, stored))
    products = np.ones((2, 2, 20), dtype=np.int8)
    with pytest.raises(RuntimeError, match="at end of run"):
        engine_batch(products, m)
    with pytest.raises(RuntimeError, match="at emit 0"):
        engine_batch(products, m, check_conservation=True)


def test_engine_batch_rejects_bad_fault_cells():
    faults = (np.array([0]), np.array([0]), np.array([4]))
    with pytest.raises(ValueError):
        engine_batch(np.zeros((1, 2, 3), np.int8), 2, fault_schedules=faults)


# -- tree batch vs scalar reference ------------------------------------------


def test_tree_batch_matches_scalar():
    rng = np.random.default_rng(25)
    for trial in range(5):
        lanes = int(rng.choice([2, 4, 8]))
        width = int(rng.integers(2, 6))
        stream_len = int(rng.integers(30, 150))
        x = rng.uniform(-1, 1, lanes)
        y = rng.uniform(-1, 1, lanes)
        seed = int(rng.integers(0, 2**32))
        stream, diag = run_tree_inner_product(
            x, y, width, stream_len, RandomSource(seed)
        )
        products = encode_sm_products(x, y, stream_len, RandomSource(seed))
        out = tree_batch(products[None], width)
        got = out["emitted"][0]
        want = (1 - 2 * stream.sign.bits.astype(np.int8)) * stream.magnitude.bits
        assert (got == want).all()
        assert out["saturation_events"][0] == diag.saturation_events
        assert out["residual_sum"][0] == diag.residual_sum


def test_tree_batch_matches_scalar_under_faults():
    rng = np.random.default_rng(26)
    for trial in range(4):
        lanes = 4
        width = 4
        stream_len = 80
        x = rng.uniform(-1, 1, lanes)
        y = rng.uniform(-1, 1, lanes)
        seed = int(rng.integers(0, 2**32))
        schedule = draw_fault_schedule(
            RandomSource(seed + 9), (lanes - 1) * width, stream_len, 0.1
        )
        stream, _ = run_tree_inner_product(
            x, y, width, stream_len, RandomSource(seed), fault_schedule=zip(*schedule)
        )
        products = encode_sm_products(x, y, stream_len, RandomSource(seed))
        out = tree_batch(
            products[None], width, fault_schedules=merge_fault_schedules([schedule])
        )
        want = (1 - 2 * stream.sign.bits.astype(np.int8)) * stream.magnitude.bits
        assert (out["emitted"][0] == want).all()


def test_tree_batch_rejects_bad_lanes():
    with pytest.raises(ValueError):
        tree_batch(np.zeros((1, 3, 4), np.int8), 4)


# -- shift-direction experiment kernel ----------------------------------------


def canceler_reference(hold_p, hold_n, direction, cc):
    """Independent scalar model of the load + drain sequence."""
    k = len(hold_p)
    ph = list(hold_p)
    nh = list(hold_n)
    if cc:
        for i in range(k):
            if ph[i] and nh[i]:
                ph[i] = nh[i] = 0
    ps = ph[:]
    ns = nh[::-1] if direction == "opposite" else nh[:]
    delivered = []
    for _ in range(k):
        delivered.append((ps[0], ns[0]))
        new_ps = [0] * k
        new_ns = [0] * k
        for i in range(k - 1):
            if not cc:
                mask_p = mask_n = 0
            elif direction == "opposite":
                mask_p = ns[k - 1 - i]
                mask_n = ps[k - 1 - i]
            else:
                mask_p = ns[i + 1]
                mask_n = ps[i + 1]
            new_ps[i] = ps[i + 1] & (1 - mask_p)
            new_ns[i] = ns[i + 1] & (1 - mask_n)
        ps, ns = new_ps, new_ns
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
