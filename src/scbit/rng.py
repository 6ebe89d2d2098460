"""Seedable random source with splittable sub-streams.

A ``SeedBatch`` holds the seed pools of an array of sources and derives the
seed words of all their children in one numpy pass, with the bits of
numpy's ``SeedSequence`` (O'Neill, "Developing a seed_seq Alternative",
pcg-random.org, 2015). A child's entropy is its parent's followed by the
child index, and ``SeedSequence`` mixes entropy one word at a time, so a
child's pool is its parent's pool with the index words mixed in. The hash
constant of each mix depends only on how many words were mixed before it,
so every row carries the constant its next word starts from. Each child's
``generate_state(4, uint64)`` words then seed a ``PCG64`` (O'Neill,
HMC-CS-2014-0905, 2014), which applies its own set-seed step.
``RandomSource.spawn`` is the one-source case; a sweep derives the sources
of all its trials, and of all their lanes, as batches.
"""

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .streams import _integer

_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # entropy-mixing hash
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # generate_state hash
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_STATE_WORDS = 8  # generate_state(4, uint64) as uint32 words
# sources whose seed words SeedBatch.generators derives in one pass: 32 KiB
_WORDS_BLOCK = 1 << 10
_STATE_HASH = np.array(
    [_INIT_B * pow(_MULT_B, i, 1 << 32) & _MASK32 for i in range(_STATE_WORDS + 1)],
    dtype=np.uint32,
)


def _n_words(x):
    """How many 32-bit words ``SeedSequence`` makes of an entropy or key."""
    if isinstance(x, (int, np.integer)):
        return max(1, -(-int(x).bit_length() // 32))
    return sum(_n_words(v) for v in x)


def _mix_in(pools, hashes, words):
    """Mix one 32-bit word per row into ``pools`` and return the advanced
    hash constants.

    Word w reaches pool entry d as ``mix(pool[d], hashmix(w))``, and each
    hashmix advances the row's hash constant once.
    """
    steps = np.array(
        [pow(_MULT_A, d, 1 << 32) for d in range(pools.shape[-1] + 1)], dtype=np.uint32
    )
    h = hashes[..., None] * steps
    # in place where it can be: the lane batches of a sweep are large
    hashed = words[..., None] ^ h[..., :-1]
    hashed *= h[..., 1:]
    hashed ^= hashed >> 16
    hashed *= _MIX_R
    pools *= _MIX_L
    pools -= hashed
    pools ^= pools >> 16
    return h[..., -1].copy()


class _SeedWords(ISeedSequence):
    """One child's ``generate_state(4, uint64)`` words, handed to ``PCG64``."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != len(self.words) or np.dtype(dtype) != self.words.dtype:
            raise ValueError("only the words PCG64 asks for were derived")
        return self.words


def _state_words(pools):
    """The ``generate_state(4, uint64)`` words of (..., pool_size) pools."""
    state = pools[..., np.arange(_STATE_WORDS) % pools.shape[-1]]
    state ^= _STATE_HASH[:-1]
    state *= _STATE_HASH[1:]
    state ^= state >> 16
    words = np.ascontiguousarray(state, dtype="<u4").view("<u8")
    return words.astype(np.uint64, copy=False)


class SeedBatch:
    """The seed pools of an array of sources, without their generators.

    ``pools`` is a (..., pool_size) uint32 array, and ``hashes`` holds each
    source's hash constant for its next mixed word. All sources spawn
    together, so one count of spawned children serves the batch. Indexing
    selects sources, as on the leading axes of ``pools``, and the selection
    starts a count of its own from the batch's: a sweep hands disjoint
    chunks of one batch to its workers, and each chunk numbers its sources'
    children from there. So a selection's spawns leave the batch's count
    alone, and a source spawned from both a selection and its batch gets
    the same children twice; spawn each source's children from one of them.
    """

    def __init__(self, pools, hashes, spawned=0):
        self.pools = pools
        self.hashes = hashes
        self.spawned = spawned

    @classmethod
    def of(cls, sequence):
        """The one-source batch, of shape (), of a numpy ``SeedSequence``."""
        # the entropy is padded to the pool size before the spawn key follows
        mixed = max(sequence.pool_size, _n_words(sequence.entropy)) + _n_words(sequence.spawn_key)
        hashes = np.array(
            _INIT_A * pow(_MULT_A, sequence.pool_size * mixed, 1 << 32) & _MASK32, dtype=np.uint32
        )
        return cls(sequence.pool.astype(np.uint32), hashes, sequence.n_children_spawned)

    @property
    def shape(self):
        return self.hashes.shape

    def __getitem__(self, index):
        return SeedBatch(self.pools[index], np.asarray(self.hashes[index]), self.spawned)

    def spawn(self, n):
        """The next ``n`` children of every source, as a batch with one more
        axis of length ``n``."""
        n = _integer(n, "the number of sources to spawn", low=0)
        first = self.spawned
        self.spawned += n
        # Child i mixes in the low word of i and, once i >= 2**32, its high word.
        index = np.arange(first, first + n, dtype=np.uint64)
        pools = np.repeat(self.pools[..., None, :], n, axis=-2)
        hashes = np.repeat(self.hashes[..., None], n, axis=-1)
        hashes = _mix_in(pools, hashes, (index & _MASK32).astype(np.uint32))
        wide = min(n, max(0, (1 << 32) - first))
        if wide < n:
            hashes[..., wide:] = _mix_in(
                pools[..., wide:, :], hashes[..., wide:], (index[wide:] >> 32).astype(np.uint32)
            )
        return SeedBatch(pools, hashes)

    def words(self):
        """Every source's ``generate_state(4, uint64)`` words, (..., 4)."""
        return _state_words(self.pools)

    def generators(self):
        """One numpy ``Generator`` per source, in C order, each built as it is
        reached from words derived ``_WORDS_BLOCK`` sources at a time: a batch
        of all lanes of a sweep holds its pools and one block of words."""
        pools = self.pools.reshape(-1, self.pools.shape[-1])
        for lo in range(0, len(pools), _WORDS_BLOCK):
            for words in _state_words(pools[lo:lo + _WORDS_BLOCK]):
                yield np.random.Generator(np.random.PCG64(_SeedWords(words)))


class RandomSource:
    """Pseudo-random source backing all stream generation.

    Wraps a PCG64 generator seeded through a ``SeedSequence``. ``spawn``
    derives statistically independent child sources, so each encoder lane
    (and each Monte Carlo trial) can own its own sub-stream while the whole
    experiment stays reproducible from one 64-bit seed. Children carry the
    same bits as ``SeedSequence.spawn`` would give them. ``seeds`` is the
    source's seed pool as a batch of one source; spawning from it advances
    the source's own child numbering.
    """

    def __init__(self, seed=None, _sequence=None):
        if _sequence is None:
            _sequence = np.random.SeedSequence(seed)
        self._entropy = _sequence.entropy
        self.seeds = SeedBatch.of(_sequence)
        self._gen = np.random.Generator(np.random.PCG64(_sequence))

    @property
    def seed(self):
        return self._entropy

    @property
    def generator(self):
        """The numpy ``Generator`` this source draws from."""
        return self._gen

    def spawn(self, n):
        """Split off ``n`` independent child sources."""
        seeds = self.seeds.spawn(n)
        children = []
        for j, gen in enumerate(seeds.generators()):
            child = RandomSource.__new__(RandomSource)
            child._entropy = self._entropy
            child.seeds = seeds[j]
            child._gen = gen
            children.append(child)
        return children

    def uniform(self, size=None, out=None):
        """Uniform samples in [0, 1), written into the float64 array ``out``
        and returned, if it is given."""
        return self._gen.random(size, out=out)

    def __repr__(self):
        return f"RandomSource(seed={self.seed!r})"
