import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import adder_oracle, tlb_from_ternary
from scbit import (
    CarryShiftRegister,
    NonScaledAdder,
    RandomSource,
    TlbStream,
    decode_tlb,
    encode_tlb,
    nonscaled_add,
    ternary_values,
    tlb_multiply,
    tlb_multiply_bit,
)


# -- carry shift register ---------------------------------------------------


def test_csr_shift_in_from_empty():
    r = CarryShiftRegister(3)
    r.shift_in()
    assert r.cells == [1, 0, 0] and r.ones() == 1


def test_csr_shift_in_saturates_when_full():
    r = CarryShiftRegister(3)
    for _ in range(3):
        r.shift_in()
    assert r.ones() == 3 and r.overflow_events == 0
    r.shift_in()
    assert r.ones() == 3 and r.overflow_events == 1


def test_csr_shift_in_thermometer_growth():
    r = CarryShiftRegister(3)
    r.shift_in()
    r.shift_in()
    assert r.cells == [1, 1, 0]


def test_csr_shift_out():
    r = CarryShiftRegister(3)
    r.shift_in()
    r.shift_in()
    r.shift_out()
    assert r.ones() == 1
    empty = CarryShiftRegister(2)
    empty.shift_out()
    assert empty.ones() == 0


def test_csr_post_fault_literal_semantics():
    r = CarryShiftRegister(3)
    r.flip_cell(1)  # pattern 0,1,0
    assert r.cells == [0, 1, 0]
    assert r.front() == 0
    r.shift_out()
    assert r.cells == [1, 0, 0]  # literal left shift with zero fill


def test_csr_front_reads():
    r = CarryShiftRegister(2)
    assert r.front() == 0
    r.shift_in()
    assert r.front() == 1


def test_csr_flip_bounds():
    r = CarryShiftRegister(2)
    with pytest.raises(IndexError):
        r.flip_cell(2)
    with pytest.raises(ValueError):
        CarryShiftRegister(0)


def test_csr_single_flip_moves_sum_by_one():
    # storage sensitivity: one upset changes the stored carry count by 1
    rng = np.random.default_rng(3)
    for _ in range(50):
        r = CarryShiftRegister(6)
        for _ in range(rng.integers(0, 7)):
            r.shift_in()
        before = r.ones()
        r.flip_cell(int(rng.integers(0, 6)))
        assert abs(r.ones() - before) == 1


@given(st.lists(st.sampled_from(["in", "out"]), max_size=40), st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_csr_matches_count_model(ops, capacity):
    # fault-free, the literal register behaves as a saturating counter
    r = CarryShiftRegister(capacity)
    count = 0
    for op in ops:
        if op == "in":
            r.shift_in()
            count = min(count + 1, capacity)
        else:
            r.shift_out()
            count = max(count - 1, 0)
        assert r.ones() == count
        assert r.is_thermometer()
        assert r.front() == (1 if count else 0)


# -- multiplier -------------------------------------------------------------


@pytest.mark.parametrize("xp", (0, 1))
@pytest.mark.parametrize("xn", (0, 1))
@pytest.mark.parametrize("yp", (0, 1))
@pytest.mark.parametrize("yn", (0, 1))
def test_tlb_multiply_bit_exhaustive(xp, xn, yp, yn):
    vp, vn = tlb_multiply_bit(xp, xn, yp, yn)
    assert vp in (0, 1) and vn in (0, 1)
    assert vp - vn == (xp - xn) * (yp - yn)
    assert (vp, vn) != (1, 1)


def test_tlb_multiply_bit_examples():
    assert tlb_multiply_bit(1, 0, 1, 0) == (1, 0)
    assert tlb_multiply_bit(1, 0, 0, 1) == (0, 1)


def test_tlb_multiply_identity_and_zero():
    rng = RandomSource(11)
    y = encode_tlb(0.4, 128, rng)
    one = TlbStream(np.ones(128, np.uint8), np.zeros(128, np.uint8))
    zero = TlbStream(np.zeros(128, np.uint8), np.zeros(128, np.uint8))
    assert (ternary_values(tlb_multiply(one, y)) == ternary_values(y)).all()
    out = tlb_multiply(zero, y)
    assert out.pos.popcount() == 0 and out.neg.popcount() == 0


def test_tlb_multiply_length_mismatch():
    a = TlbStream([1], [0])
    b = TlbStream([1, 0], [0, 0])
    with pytest.raises(ValueError):
        tlb_multiply(a, b)


def test_tlb_multiply_monte_carlo():
    # mean decode over 100 seeds within 0.01 of 0.5 * -0.5
    root = RandomSource(2024)
    values = []
    for src in root.spawn(100):
        a, b = src.spawn(2)
        x = encode_tlb(0.5, 10_000, a)
        y = encode_tlb(-0.5, 10_000, b)
        values.append(decode_tlb(tlb_multiply(x, y)))
    assert abs(np.mean(values) - (-0.25)) < 0.01


# -- non-scaled adder -------------------------------------------------------


def test_adder_stores_carry_on_double_one():
    adder = NonScaledAdder(4)
    assert adder.step(1, 1) == 1
    assert adder.pos_carries.ones() == 1 and adder.neg_carries.ones() == 0


def test_adder_hand_trace():
    # x ternary (1,1,0), y ternary (1,0,-1), M=2 -> z (1,1,0), registers empty
    x = tlb_from_ternary([1, 1, 0])
    y = tlb_from_ternary([1, 0, -1])
    z, diag = nonscaled_add(x, y, 2)
    assert ternary_values(z).tolist() == [1, 1, 0]
    assert diag.residual_pos == 0 and diag.residual_neg == 0
    assert diag.overflow_events == 0


def test_adder_perfect_cancellation():
    values = [1, -1, 0, 1, -1, 1]
    x = tlb_from_ternary(values)
    y = tlb_from_ternary([-v for v in values])
    z, diag = nonscaled_add(x, y, 3)
    assert ternary_values(z).tolist() == [0] * len(values)
    assert diag.residual_pos == diag.residual_neg == 0


def test_adder_length_mismatch():
    with pytest.raises(ValueError):
        nonscaled_add(tlb_from_ternary([1]), tlb_from_ternary([1, 0]), 2)


def test_adder_output_canonical():
    rng = np.random.default_rng(8)
    x = tlb_from_ternary(rng.integers(-1, 2, 200))
    y = tlb_from_ternary(rng.integers(-1, 2, 200))
    z, _ = nonscaled_add(x, y, 4)
    assert not ((z.pos.bits == 1) & (z.neg.bits == 1)).any()


def test_adder_trace_csv(tmp_path):
    path = tmp_path / "adder.csv"
    x = tlb_from_ternary([1, 1, -1])
    y = tlb_from_ternary([1, 0, 0])
    nonscaled_add(x, y, 2, trace_path=path)
    lines = path.read_text().splitlines()
    assert lines[0] == "l,x,y,z,pc_count,nc_count,overflows"
    assert len(lines) == 4
    assert lines[1].startswith("1,")


@given(
    st.lists(st.integers(-1, 1), min_size=1, max_size=24),
    st.data(),
    st.integers(1, 4),
)
@settings(max_examples=120, deadline=None)
def test_adder_matches_oracle(xs, data, capacity):
    ys = data.draw(st.lists(st.integers(-1, 1), min_size=len(xs), max_size=len(xs)))
    z, diag = nonscaled_add(tlb_from_ternary(xs), tlb_from_ternary(ys), capacity)
    want_z, want_pc, want_nc, want_ovf = adder_oracle(xs, ys, capacity)
    assert ternary_values(z).tolist() == want_z
    assert diag.residual_pos == want_pc
    assert diag.residual_neg == want_nc
    assert diag.overflow_events == want_ovf


def test_adder_conservation_every_cycle():
    # running sum of outputs plus stored carries equals running input sum
    rng = np.random.default_rng(12)
    for _ in range(20):
        adder = NonScaledAdder(32)
        xs = rng.integers(-1, 2, 500)
        ys = rng.integers(-1, 2, 500)
        out_sum = 0
        in_sum = 0
        for x, y in zip(xs.tolist(), ys.tolist()):
            out_sum += adder.step(x, y)
            in_sum += x + y
            assert out_sum + adder.stored_sum() == in_sum
            assert adder.overflow_events == 0
            # fault-free structure: thermometer and mutual exclusion
            assert adder.pos_carries.is_thermometer()
            assert adder.neg_carries.is_thermometer()
            assert adder.pos_carries.ones() == 0 or adder.neg_carries.ones() == 0


def test_adder_accuracy_bound():
    # without saturation the output sum is within M of the true sum
    rng = np.random.default_rng(4)
    for capacity in (1, 2, 6):
        xs = rng.integers(-1, 2, 400)
        ys = rng.integers(-1, 2, 400)
        z, diag = nonscaled_add(tlb_from_ternary(xs), tlb_from_ternary(ys), capacity)
        if diag.overflow_events == 0:
            got = int(ternary_values(z).sum())
            want = int(xs.sum() + ys.sum())
            assert abs(got - want) <= capacity
