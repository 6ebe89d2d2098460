"""RandomSource.spawn and SeedBatch against numpy's own SeedSequence and
PCG64.

``SeedBatch.spawn`` derives the seed words of a whole batch's children
itself, and ``RandomSource.spawn`` is its one-source case, so these tests
pin them, and 1000 draws of each child, to numpy's reference children
``SeedSequence(entropy, spawn_key=key + (i,))``. numpy's stream
compatibility policy (NEP 19) may change these bits in a future release;
these tests then fail loudly instead of letting the sweeps drift.
"""

import numpy as np
import pytest

from scbit import RandomSource
from scbit.rng import SeedBatch

ENTROPIES = (7, (1, 0, 16, 6, 10000), 2**32 + 5, 2**100 + 3)
KEYS = ((), (3,), (2**32 + 1, 7), (1, 2**40, 5))


def assert_children_match(children, entropy, key, first, pool_size=4):
    """Child j of ``children`` is numpy's child ``first + j`` of (entropy, key)."""
    for i, child in enumerate(children, first):
        ref = np.random.SeedSequence(entropy, spawn_key=key + (i,), pool_size=pool_size)
        bit_generator = np.random.PCG64(ref)
        assert child._gen.bit_generator.state == bit_generator.state, i
        np.testing.assert_array_equal(child.seeds.pools, ref.pool)
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


# -- SeedBatch: the sources of a whole batch in one pass ---------------------


def assert_batch_matches(batch, entropy, key, pool_size=4):
    """Every source of ``batch`` is numpy's SeedSequence(entropy, key + index),
    for its index in the batch: the pool, the PCG64 seed words and 1000 draws
    of the generator those words seed."""
    words = batch.words()
    draws = [gen.random(1000) for gen in batch.generators()]
    for n, index in enumerate(np.ndindex(batch.shape)):
        ref = np.random.SeedSequence(entropy, spawn_key=key + index, pool_size=pool_size)
        np.testing.assert_array_equal(batch.pools[index], ref.pool)
        np.testing.assert_array_equal(words[index], ref.generate_state(4, np.uint64))
        want = np.random.Generator(np.random.PCG64(ref)).random(1000)
        np.testing.assert_array_equal(draws[n], want)


@pytest.mark.parametrize("pool_size", (4, 8))
@pytest.mark.parametrize("key", KEYS, ids=("depth0", "depth1", "depth2-wide", "depth3-wide"))
@pytest.mark.parametrize("entropy", ENTROPIES, ids=("int", "tuple", "int-2^32", "int-2^100"))
def test_seed_batch_matches_seed_sequence_at_sweep_depths(entropy, key, pool_size):
    # a sweep's two batched depths: each trial spawns its vector, encoder and
    # fault sources, and each encoder source spawns its 2K lane sources
    point = np.random.SeedSequence(entropy, spawn_key=key, pool_size=pool_size)
    trials = SeedBatch.of(point).spawn(3)
    sources = trials.spawn(3)
    assert sources.shape == (3, 3)
    assert_batch_matches(sources, entropy, key, pool_size)
    lanes = sources[:, 1].spawn(2 * 5)
    assert lanes.shape == (3, 10)
    for t in range(3):
        assert_batch_matches(lanes[t], entropy, key + (t, 1), pool_size)


@pytest.mark.parametrize("key", KEYS[:3], ids=("depth0", "depth1", "depth2-wide"))
@pytest.mark.parametrize("entropy", ENTROPIES[:3], ids=("int", "tuple", "int-2^32"))
def test_seed_batch_across_index_2_32(entropy, key):
    # indices 2^32 - 2 .. 2^32 + 1 of two sources at once: from 2^32 on an
    # index is two words, so the children's hash constants differ by row
    # and column, and their own children must follow each one's
    parents = SeedBatch.of(np.random.SeedSequence(entropy, spawn_key=key)).spawn(2)
    parents.spawned = 2**32 - 2
    children = parents.spawn(4)
    for p in range(2):
        for j, i in enumerate(range(2**32 - 2, 2**32 + 2)):
            ref = np.random.SeedSequence(entropy, spawn_key=key + (p, i))
            np.testing.assert_array_equal(children.pools[p, j], ref.pool)
    grandchildren = children.spawn(2)
    for p in range(2):
        for j, i in enumerate(range(2**32 - 2, 2**32 + 2)):
            assert_batch_matches(grandchildren[p, j], entropy, key + (p, i))


def test_seed_batch_spawns_continue_the_numbering_and_advance_a_source():
    entropy = (1, 0, 16, 6, 10000)
    batch = SeedBatch.of(np.random.SeedSequence(entropy)).spawn(2)
    first, second = batch.spawn(3), batch.spawn(2)
    assert batch.spawned == 5
    for p in range(2):
        whole = np.concatenate([first.words()[p], second.words()[p]])
        want = [np.random.SeedSequence(entropy, spawn_key=(p, i)).generate_state(4, np.uint64)
                for i in range(5)]
        np.testing.assert_array_equal(whole, want)
    # a source's seeds are a batch of shape (); spawning from them numbers on
    # the source's own children
    rng = source(entropy)
    assert rng.seeds.shape == ()
    assert rng.seeds.spawn(4).shape == (4,)
    assert_children_match(rng.spawn(2), entropy, (), 4)


def test_seed_batch_rejects_non_integer_counts_before_spawning():
    batch = SeedBatch.of(np.random.SeedSequence(3)).spawn(2)
    with pytest.raises(ValueError, match="sources to spawn"):
        batch.spawn(2.5)
    assert batch.spawned == 0
    assert batch.spawn(0).shape == (2, 0)


def test_seed_batch_generators_cross_word_blocks():
    # generators() derives seed words a block of sources at a time; across
    # the block borders it gives the generators of words() in C order
    batch = SeedBatch.of(np.random.SeedSequence(5)).spawn(3).spawn(1000)
    states = [gen.bit_generator.state for gen in batch.generators()]
    assert len(states) == 3000
    for index in ((0, 0), (1, 23), (1, 24), (2, 47), (2, 48), (2, 999)):  # flat 1023, 1024, ...
        ref = np.random.PCG64(np.random.SeedSequence(5, spawn_key=index)).state
        assert states[np.ravel_multi_index(index, batch.shape)] == ref, index


def test_seed_batch_selections_count_their_own_children():
    # a selection starts from the batch's count and spawns on its own: the
    # sweep's workers spawn from disjoint chunks of one batch. Its spawns
    # leave the batch's count alone, so a source spawned from both gets the
    # same children twice
    entropy = (1, 0, 16, 6, 10000)
    batch = SeedBatch.of(np.random.SeedSequence(entropy)).spawn(3)
    batch.spawn(1)
    head, tail = batch[:2], batch[2]
    assert head.spawned == tail.spawned == 1
    chunks = head.spawn(2), tail.spawn(2)
    assert batch.spawned == 1 and head.spawned == tail.spawned == 3
    whole = np.concatenate([chunks[0].words(), chunks[1].words()[None]])
    want = [[np.random.SeedSequence(entropy, spawn_key=(p, i)).generate_state(4, np.uint64)
             for i in (1, 2)] for p in range(3)]
    np.testing.assert_array_equal(whole, want)
    np.testing.assert_array_equal(batch.spawn(2).words()[:2], chunks[0].words())
