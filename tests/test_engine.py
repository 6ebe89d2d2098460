import hashlib

import numpy as np
import pytest

from oracles import PAIR, EngineStateError, InnerProductEngine, carry_cancel, drive_cycle
from scbit import ExperimentConfig, RandomSource, decode_tlb, run_inner_product
from scbit.batch import draw_fault_schedule


def make_engine(lanes=2, carry_len=4, stream_len=16, **kw):
    config = ExperimentConfig(lanes=lanes, carry_len=carry_len, stream_len=stream_len, **kw)
    return InnerProductEngine(config)


# -- combinational cells ----------------------------------------------------


@pytest.mark.parametrize(
    "a,b,expected",
    [(1, 1, (0, 0)), (1, 0, (1, 0)), (0, 1, (0, 1)), (0, 0, (0, 0))],
)
def test_carry_cancel_table(a, b, expected):
    assert carry_cancel(a, b) == expected


# -- load mapping -----------------------------------------------------------


def test_load_inputs_reverses_neg():
    engine = make_engine(lanes=3)
    engine.hold_pos[:] = [1, 0, 1]
    engine.hold_neg[:] = [1, 1, 0]
    engine.load_inputs()
    assert engine.shift_pos.tolist() == [1, 0, 1]
    assert engine.shift_neg.tolist() == [0, 1, 1]


def test_load_inputs_same_direction_keeps_order():
    engine = make_engine(lanes=3, shift_direction="same")
    engine.hold_neg[:] = [1, 1, 0]
    engine.load_inputs()
    assert engine.shift_neg.tolist() == [1, 1, 0]


def test_load_inputs_zero_and_single_lane():
    engine = make_engine(lanes=1)
    engine.load_inputs()
    assert engine.shift_pos.tolist() == [0]


def test_load_mid_sequence_rejected():
    engine = make_engine(lanes=2)
    engine.load_inputs()
    engine.high_clock_step()
    with pytest.raises(EngineStateError):
        engine.load_inputs()


def test_step_past_sequence_rejected():
    engine = make_engine(lanes=2)
    engine.load_inputs()
    engine.high_clock_step()
    engine.high_clock_step()
    with pytest.raises(EngineStateError):
        engine.high_clock_step()


# -- accumulation branches --------------------------------------------------


def test_accumulate_plus_one_empty_carries():
    engine = make_engine(lanes=1)
    engine.hold_pos[:] = [1]
    engine.load_inputs()
    engine.high_clock_step()
    assert engine.carry_pos.ones() == 1


def test_accumulate_plus_one_cancels_stored_negative():
    engine = make_engine(lanes=1)
    engine.carry_neg.shift_in()
    engine.hold_pos[:] = [1]
    engine.load_inputs()
    engine.high_clock_step()
    assert engine.carry_neg.ones() == 0
    assert engine.carry_pos.ones() == 0


def test_accumulate_plus_one_stacks_on_positive():
    engine = make_engine(lanes=1)
    engine.carry_pos.shift_in()
    engine.hold_pos[:] = [1]
    engine.load_inputs()
    engine.high_clock_step()
    assert engine.carry_pos.ones() == 2


def test_accumulate_zero_drains_nothing_when_carry_pending():
    engine = make_engine(lanes=1)
    engine.carry_pos.shift_in()
    engine.load_inputs()
    engine.high_clock_step()
    assert engine.carry_pos.ones() == 1  # x=0, c=+1: carries untouched


def test_cc_zeroes_diagonal_pair():
    engine = make_engine(lanes=2)
    engine.shift_pos[:] = [0, 1]
    engine.shift_neg[:] = [0, 1]
    engine.high_steps = 0
    engine.high_clock_step()
    assert engine.shift_pos.tolist() == [0, 0]
    assert engine.shift_neg.tolist() == [0, 0]
    assert engine.cc_cancellations == 1


def test_cc_disabled_passes_pair():
    engine = make_engine(lanes=2, cc_enabled=False)
    engine.shift_pos[:] = [0, 1]
    engine.shift_neg[:] = [0, 1]
    engine.high_steps = 0
    engine.high_clock_step()
    assert engine.shift_pos.tolist() == [1, 0]
    assert engine.shift_neg.tolist() == [1, 0]
    assert engine.cc_cancellations == 0


# -- full cycles ------------------------------------------------------------


def test_cycle_all_zero():
    engine = make_engine(lanes=3)
    assert drive_cycle(engine, [0, 0, 0]) == (0, 0)
    assert engine.diagnostics().residual_pos == 0


def test_cycle_single_lane_product():
    engine = make_engine(lanes=1)
    assert drive_cycle(engine, [1]) == (1, 0)
    assert engine.carry_pos.ones() == 0  # emitted carry consumed


def test_cycle_two_plus_ones_leaves_pending_carry():
    engine = make_engine(lanes=2)
    assert drive_cycle(engine, [1, 1]) == (1, 0)
    assert engine.carry_pos.ones() == 1
    # next all-zero cycle drains the pending carry
    assert drive_cycle(engine, [0, 0]) == (1, 0)
    assert engine.carry_pos.ones() == 0


def test_cycle_exhausts_streams():
    engine = make_engine(lanes=1, stream_len=1)
    drive_cycle(engine, [1])
    with pytest.raises(EngineStateError):
        drive_cycle(engine, [0])


def test_latch_products_validates_width():
    engine = make_engine(lanes=2)
    with pytest.raises(ValueError):
        engine.latch_products([(1, 0)], [(1, 0), (0, 0)])


def test_emission_consumes_both_fronts_after_fault():
    engine = make_engine(lanes=1)
    engine.carry_pos.shift_in()
    engine.carry_neg.shift_in()  # faulted state: both registers loaded
    zp, zn = engine.emit()
    assert (zp, zn) == (1, 1)
    assert engine.carry_pos.ones() == 0 and engine.carry_neg.ones() == 0


def test_flip_carry_cell_mapping():
    engine = make_engine(lanes=1, carry_len=3)
    engine.flip_carry_cell(1)
    assert engine.carry_pos.cells == [0, 1, 0]
    engine.flip_carry_cell(3)
    assert engine.carry_neg.cells == [1, 0, 0]
    with pytest.raises(IndexError):
        engine.flip_carry_cell(6)


# -- run_inner_product ------------------------------------------------------


def test_run_zero_vectors():
    config = ExperimentConfig(lanes=2, carry_len=4, stream_len=256)
    stream, diag = run_inner_product([0, 0], [0, 0], config, RandomSource(1))
    assert decode_tlb(stream) == 0.0
    assert diag.residual_pos == 0 and diag.residual_neg == 0
    assert diag.overflow_events == 0


def test_run_domain_errors():
    config = ExperimentConfig(lanes=2, carry_len=4, stream_len=8)
    with pytest.raises(ValueError):
        run_inner_product([1.5, 0], [0, 0], config, RandomSource(1))
    with pytest.raises(ValueError):
        run_inner_product([0.5], [0.5, 0.1], config, RandomSource(1))


def test_run_reproducible():
    config = ExperimentConfig(lanes=3, carry_len=4, stream_len=300)
    a, _ = run_inner_product([0.5, -0.2, 0.8], [0.1, 0.9, -0.4], config, RandomSource(5))
    b, _ = run_inner_product([0.5, -0.2, 0.8], [0.1, 0.9, -0.4], config, RandomSource(5))
    assert a == b


def test_run_k2_monte_carlo():
    # true inner product 0.5 - 0.5 = 0; mean over 100 seeds within 0.02
    config = ExperimentConfig(lanes=2, carry_len=6, stream_len=10_000)
    root = RandomSource(31)
    estimates = [
        decode_tlb(run_inner_product([1.0, 1.0], [0.5, -0.5], config, src)[0])
        for src in root.spawn(100)
    ]
    assert abs(np.mean(estimates)) < 0.02


def test_run_trace_csv(tmp_path):
    path = tmp_path / "engine.csv"
    config = ExperimentConfig(lanes=2, carry_len=2, stream_len=3)
    run_inner_product([1.0, -1.0], [1.0, 1.0], config, RandomSource(2), trace_path=path)
    lines = path.read_text().splitlines()
    assert lines[0] == "l,substep,ps_front,ns_front,pc_count,nc_count,zp,zn,cc_cancellations"
    # K + 1 rows per cycle
    assert len(lines) == 1 + 3 * (2 + 1)


# K=16, L=5000: 85 000 trace rows over three engine chunks of cycles and
# many blocks of formatted rows, the last of each partial
TRACE_SHA256 = {
    0.0: "ae93f51589e9cb876db858427908305eeb1c293fc299f561f8b7e868da10e8d9",
    0.001: "cf891e3d3eb41897fa842e2c92d36d281963b105d97bf9cf0cc8aa4747500521",
}


@pytest.mark.parametrize("p_flip", sorted(TRACE_SHA256))
def test_run_trace_bytes_pinned(tmp_path, p_flip):
    path = tmp_path / "engine.csv"
    config = ExperimentConfig(lanes=16, carry_len=6, stream_len=5000)
    rng = np.random.default_rng(12)
    x, y = rng.uniform(-1, 1, (2, 16)) / 4
    schedule = draw_fault_schedule(RandomSource(4), 12, 5000, p_flip)
    run_inner_product(x, y, config, RandomSource(8), zip(*schedule), trace_path=path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TRACE_SHA256[p_flip]


def test_run_fault_schedule_applied():
    config = ExperimentConfig(lanes=1, carry_len=4, stream_len=4)
    # flip a positive-carry cell right before the first cycle of zeros:
    # the phantom carry is emitted as a spurious one
    stream, _ = run_inner_product(
        [0.0], [0.0], config, RandomSource(3), fault_schedule=[(0, 0)]
    )
    assert stream.pos.bits[0] == 1
    assert stream.pos.popcount() == 1
    with pytest.raises(ValueError, match="fault cells"):
        run_inner_product([0.0], [0.0], config, RandomSource(3), fault_schedule=[(0, 8)])
    # a flat list is not read as one pair, a float cycle truncated, nor a huge
    # cycle left to overflow the int64 cast
    for schedule in ([3, 0], [(1.7, 2)], [(True, 0)], [(0, 1, 2)], [(2**70, 0)]):
        with pytest.raises(ValueError, match="pairs of integers"):
            run_inner_product([0.0], [0.0], config, RandomSource(3), fault_schedule=schedule)
    # an empty schedule is a clean run
    clean = run_inner_product([0.0], [0.0], config, RandomSource(3))
    assert run_inner_product([0.0], [0.0], config, RandomSource(3), fault_schedule=[]) == clean


# -- conservation law -------------------------------------------------------


def law_holds(engine, loaded, emitted):
    inflight = engine.inflight_sum()
    carry = engine.carry_sum()
    return emitted + carry + inflight == loaded - engine.dropped_pos + engine.dropped_neg


@pytest.mark.parametrize("cc_enabled", (True, False))
def test_engine_conservation_every_step(cc_enabled):
    rng = np.random.default_rng(77)
    for _ in range(10):
        lanes = int(rng.integers(1, 6))
        config = ExperimentConfig(lanes=lanes, carry_len=32, stream_len=120, cc_enabled=cc_enabled)
        engine = InnerProductEngine(config)
        loaded = 0
        emitted = 0
        for _ in range(config.stream_len):
            prods = rng.integers(-1, 2, lanes)
            x_bits = [PAIR[int(v)] for v in prods]
            y_bits = [(1, 0)] * lanes
            engine.latch_products(x_bits, y_bits)
            engine.load_inputs()
            loaded += int(prods.sum())
            assert law_holds(engine, loaded, emitted)
            for _ in range(lanes):
                engine.high_clock_step()
                assert law_holds(engine, loaded, emitted)
            zp, zn = engine.emit()
            emitted += zp - zn
            assert law_holds(engine, loaded, emitted)
            engine.main_cycles += 1
        # mutual exclusion in fault-free operation
        assert engine.carry_pos.ones() == 0 or engine.carry_neg.ones() == 0


def test_same_direction_smoke():
    config = ExperimentConfig(lanes=4, carry_len=8, stream_len=2000, shift_direction="same")
    stream, _ = run_inner_product(
        [0.5, -0.3, 0.2, 0.7], [0.5, 0.5, -0.5, 0.1], config, RandomSource(9)
    )
    truth = 0.25 - 0.15 - 0.1 + 0.07
    assert abs(decode_tlb(stream) - truth) < 0.1
