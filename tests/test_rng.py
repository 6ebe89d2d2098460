"""RandomSource.spawn against numpy's own SeedSequence and PCG64.

``spawn`` derives its children's seed words itself, so these tests pin
them, and 1000 draws of each child, to numpy's reference children
``SeedSequence(entropy, spawn_key=key + (i,))``. numpy's stream
compatibility policy (NEP 19) may change these bits in a future release;
these tests then fail loudly instead of letting the sweeps drift.
"""

import numpy as np
import pytest

from scbit import RandomSource

ENTROPIES = (7, (1, 0, 16, 6, 10000), 2**32 + 5, 2**100 + 3)
KEYS = ((), (3,), (2**32 + 1, 7), (1, 2**40, 5))


def assert_children_match(children, entropy, key, first, pool_size=4):
    """Child j of ``children`` is numpy's child ``first + j`` of (entropy, key)."""
    for i, child in enumerate(children, first):
        ref = np.random.SeedSequence(entropy, spawn_key=key + (i,), pool_size=pool_size)
        bit_generator = np.random.PCG64(ref)
        assert child._gen.bit_generator.state == bit_generator.state, i
        np.testing.assert_array_equal(child._pool, ref.pool)
        draws = np.random.Generator(bit_generator).random(1000)
        np.testing.assert_array_equal(child.uniform(1000), draws)
        assert child.seed == entropy


def source(entropy, key=(), spawned=0, pool_size=4):
    return RandomSource(
        _sequence=np.random.SeedSequence(
            entropy, spawn_key=key, n_children_spawned=spawned, pool_size=pool_size
        )
    )


@pytest.mark.parametrize("key", KEYS, ids=("depth0", "depth1", "depth2-wide", "depth3-wide"))
@pytest.mark.parametrize("entropy", ENTROPIES, ids=("int", "tuple", "int-2^32", "int-2^100"))
def test_spawn_matches_seed_sequence(entropy, key):
    assert_children_match(source(entropy, key).spawn(5), entropy, key, 0)


@pytest.mark.parametrize("key", KEYS[:3], ids=("depth0", "depth1", "depth2-wide"))
@pytest.mark.parametrize("entropy", ENTROPIES[:3], ids=("int", "tuple", "int-2^32"))
def test_spawn_across_index_2_32(entropy, key):
    # indices 2^32 - 2 .. 2^32 + 1: from 2^32 on an index is two words
    children = source(entropy, key, spawned=2**32 - 2).spawn(4)
    assert_children_match(children, entropy, key, 2**32 - 2)
    for i, child in enumerate(children, 2**32 - 2):
        assert_children_match(child.spawn(2), entropy, key + (i,), 0)


def test_spawn_calls_continue_the_numbering():
    entropy = (1, 0, 16, 6, 10000)
    split = source(entropy)
    first, second = split.spawn(40), split.spawn(3)
    whole = source(entropy).spawn(43)
    for a, b in zip(first + second, whole):
        assert a._gen.bit_generator.state == b._gen.bit_generator.state
    assert_children_match(first + second, entropy, (), 0)


def test_spawn_zero_and_spawned_sequences():
    root = source(11)
    assert root.spawn(0) == []
    with pytest.raises(ValueError, match="negative"):
        root.spawn(-1)
    assert_children_match(root.spawn(2), 11, (), 0)
    # a source starts numbering where its SeedSequence stopped
    seq = np.random.SeedSequence(11)
    seq.spawn(3)
    assert_children_match(RandomSource(_sequence=seq).spawn(2), 11, (), 3)


@pytest.mark.parametrize(
    "n", (2.5, True, "1", np.float64(1.0)), ids=("2.5", "True", "str", "float64")
)
def test_spawn_rejects_non_integer_counts(n):
    # checked before the spawn counter moves: the next spawn still starts at child 0
    root = source(11)
    with pytest.raises(ValueError, match="sources to spawn"):
        root.spawn(n)
    assert_children_match(root.spawn(2), 11, (), 0)


def test_grandchildren_and_seed():
    root = RandomSource(2**40 + 9)
    assert root.seed == 2**40 + 9
    child = root.spawn(3)[2]
    grandchildren = child.spawn(4)
    assert_children_match(grandchildren, 2**40 + 9, (2,), 0)
    assert_children_match(grandchildren[1].spawn(2), 2**40 + 9, (2, 1), 0)
    assert repr(grandchildren[0]) == f"RandomSource(seed={2**40 + 9})"


def test_root_draws_match_numpy_and_other_pool_sizes():
    ref = np.random.Generator(np.random.PCG64(np.random.SeedSequence(5)))
    np.testing.assert_array_equal(RandomSource(5).uniform(1000), ref.random(1000))
    assert_children_match(source(5, (1,), pool_size=8).spawn(3), 5, (1,), 0, pool_size=8)


def test_uniform_into_a_buffer():
    buffer = np.empty(300)
    assert RandomSource(4).uniform(out=buffer) is buffer
    np.testing.assert_array_equal(buffer, RandomSource(4).uniform(300))
    sized = np.empty(300)
    assert RandomSource(4).uniform(300, out=sized) is sized
    np.testing.assert_array_equal(sized, buffer)
    with pytest.raises(ValueError):
        RandomSource(4).uniform(299, out=buffer)
