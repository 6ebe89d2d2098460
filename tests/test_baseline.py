import numpy as np
import pytest

from oracles import AdderTree, CarryShiftRegister, CounterAdderNode
from scbit import (
    ExperimentConfig,
    RandomSource,
    decode_sm,
    run_tree_inner_product,
    sm_multiply_bit,
    ternary_values,
)


@pytest.mark.parametrize("xs", (0, 1))
@pytest.mark.parametrize("xm", (0, 1))
@pytest.mark.parametrize("ys", (0, 1))
@pytest.mark.parametrize("ym", (0, 1))
def test_sm_multiply_bit_exhaustive(xs, xm, ys, ym):
    zs, zm = sm_multiply_bit(xs, xm, ys, ym)
    assert (1 - 2 * zs) * zm == ((1 - 2 * xs) * xm) * ((1 - 2 * ys) * ym)


def test_sm_multiply_bit_examples():
    assert sm_multiply_bit(0, 1, 1, 1) == (1, 1)
    assert sm_multiply_bit(0, 0, 1, 1)[1] == 0


# -- counter node -----------------------------------------------------------


def test_counter_step_examples():
    node = CounterAdderNode(4)
    assert node.step(1, 1) == 1
    assert node.counter == 1
    node = CounterAdderNode(4)
    assert node.step(1, -1) == 0
    assert node.counter == 0
    node = CounterAdderNode(4)
    node.counter = 2
    assert node.step(0, 0) == 1  # drains stored carry
    assert node.counter == 1


def test_counter_conservation_unsaturated():
    rng = np.random.default_rng(5)
    node = CounterAdderNode(6)
    out = 0
    total = 0
    for _ in range(500):
        x, y = int(rng.integers(-1, 2)), int(rng.integers(-1, 2))
        out += node.step(x, y)
        total += x + y
        assert out + node.counter == total
    assert node.saturation_events == 0


def test_counter_saturates():
    node = CounterAdderNode(2)  # c_max = 1
    node.step(1, 1)  # z=1, pending 1
    node.step(1, 1)  # t=3, z=1, pending 2 -> clamped
    assert node.counter == 1
    assert node.saturation_events == 1


def test_counter_bit_flip_examples():
    node = CounterAdderNode(4)
    node.flip_bit(0)
    assert node.counter == 1
    node.counter = 0
    node.flip_bit(3)
    assert node.counter == -8  # two's-complement sign bit
    node.counter = 3
    node.flip_bit(1)
    assert node.counter == 1
    with pytest.raises(IndexError):
        node.flip_bit(4)


def test_fault_sensitivity_asymmetry():
    # a CSR upset moves the stored sum by 1; a counter upset by up to 2^(B-1)
    csr_worst = 0
    for fill in range(7):
        for cell in range(6):
            reg = CarryShiftRegister(6)
            for _ in range(fill):
                reg.shift_in()
            before = reg.ones()
            reg.flip_cell(cell)
            csr_worst = max(csr_worst, abs(reg.ones() - before))
    assert csr_worst == 1

    counter_worst = 0
    for start in range(-7, 8):
        for bit in range(4):
            node = CounterAdderNode(4)
            node.counter = start
            node.flip_bit(bit)
            counter_worst = max(counter_worst, abs(node.counter - start))
    assert counter_worst == 2 ** (4 - 1)


# -- adder tree -------------------------------------------------------------


def test_tree_shape():
    tree = AdderTree(8, 4)
    assert tree.depth == 3
    assert len(tree.nodes) == 7
    with pytest.raises(ValueError):
        AdderTree(6, 4)


def test_tree_two_lane_hand_trace():
    # single node: the tree behaves exactly like one counter adder
    tree = AdderTree(2, 4)
    mirror = CounterAdderNode(4)
    rng = np.random.default_rng(6)
    for _ in range(200):
        x, y = int(rng.integers(-1, 2)), int(rng.integers(-1, 2))
        assert tree.step([x, y]) == mirror.step(x, y)
    assert tree.nodes[0].counter == mirror.counter


def test_tree_conservation():
    tree = AdderTree(8, 6)
    rng = np.random.default_rng(7)
    out = 0
    total = 0
    for _ in range(300):
        prods = rng.integers(-1, 2, 8).tolist()
        out += tree.step(prods)
        total += sum(prods)
        assert out + tree.stored_sum() == total
    assert tree.saturation_events() == 0


def tree_config(lanes, counter_width, stream_len):
    return ExperimentConfig(lanes=lanes, counter_width=counter_width, stream_len=stream_len)


def test_run_tree_zero_inputs():
    stream, diag = run_tree_inner_product(
        [0, 0, 0, 0], [0, 0, 0, 0], tree_config(4, 4, 128), RandomSource(1)
    )
    assert decode_sm(stream) == 0.0
    assert diag.saturation_events == 0
    assert diag.residual_sum == 0


def test_run_tree_padding():
    stream, _ = run_tree_inner_product(
        [0.5, 0.2, -0.1], [0.4, 0.1, 0.3], tree_config(3, 4, 500), RandomSource(2)
    )
    assert stream.length == 500
    stream, _ = run_tree_inner_product([0.5], [0.5], tree_config(1, 4, 9), RandomSource(2))
    assert stream.length == 9


def test_run_tree_domain_errors():
    with pytest.raises(ValueError):
        run_tree_inner_product([1.5, 0], [0, 0], tree_config(2, 4, 16), RandomSource(1))
    with pytest.raises(ValueError):
        run_tree_inner_product([0.5], [0.5, 0.1], tree_config(1, 4, 16), RandomSource(1))


def test_run_tree_estimates_inner_product():
    x = [0.4, -0.3, 0.2, 0.1]
    y = [0.5, 0.5, -0.5, 0.5]
    truth = float(np.dot(x, y))
    root = RandomSource(44)
    estimates = [
        decode_sm(run_tree_inner_product(x, y, tree_config(4, 4, 4000), src)[0])
        for src in root.spawn(30)
    ]
    assert abs(np.mean(estimates) - truth) < 0.02


def test_run_tree_output_canonical():
    stream, _ = run_tree_inner_product(
        [0.9, -0.9], [0.5, 0.5], tree_config(2, 4, 300), RandomSource(3)
    )
    tern = ternary_values(stream)
    # zero symbols carry a zero sign bit, magnitude matches |ternary|
    assert ((stream.magnitude.bits == 1) == (tern != 0)).all()
    assert (stream.sign.bits[stream.magnitude.bits == 0] == 0).all()


def test_run_tree_fault_schedule():
    # a sign-bit flip on the root counter drags the estimate down
    clean, _ = run_tree_inner_product([0, 0], [0, 0], tree_config(2, 4, 64), RandomSource(4))
    hit, _ = run_tree_inner_product(
        [0, 0], [0, 0], tree_config(2, 4, 64), RandomSource(4), fault_schedule=[(0, 3)]
    )
    assert decode_sm(clean) == 0.0
    assert decode_sm(hit) < 0.0
    # cells outside [0, (K-1)*B), negative ones included, are rejected
    for cell in (-1, 4):
        with pytest.raises(ValueError, match="fault cells"):
            run_tree_inner_product(
                [0, 0], [0, 0], tree_config(2, 4, 8), RandomSource(4), fault_schedule=[(0, cell)]
            )
    # a flat list is not read as one pair, a float cycle truncated, nor a huge
    # cell left to overflow the int64 cast
    for schedule in ([3, 0], [(1.7, 2)], [(True, 0)], [(0, 1, 2)], [(0, 2**70)]):
        with pytest.raises(ValueError, match="pairs of integers"):
            run_tree_inner_product(
                [0, 0], [0, 0], tree_config(2, 4, 8), RandomSource(4), fault_schedule=schedule
            )
    # an empty schedule is a clean run
    empty = run_tree_inner_product(
        [0, 0], [0, 0], tree_config(2, 4, 64), RandomSource(4), fault_schedule=[]
    )
    assert empty == run_tree_inner_product([0, 0], [0, 0], tree_config(2, 4, 64), RandomSource(4))
