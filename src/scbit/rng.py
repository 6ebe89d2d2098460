"""Seedable random source with splittable sub-streams.

``RandomSource.spawn`` derives the seed words of all its children in one
numpy pass, with the bits of numpy's ``SeedSequence`` (O'Neill, "Developing
a seed_seq Alternative", pcg-random.org, 2015). A child's entropy is its
parent's followed by the child index, and ``SeedSequence`` mixes entropy one
word at a time, so a child's pool is its parent's pool with the index words
mixed in. The hash constant of each mix depends only on how many words were
mixed before it. Each child's ``generate_state(4, uint64)`` words then seed a
``PCG64`` (O'Neill, HMC-CS-2014-0905, 2014), which applies its own set-seed
step.
"""

import functools

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .streams import _integer

_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # entropy-mixing hash
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # generate_state hash
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_STATE_WORDS = 8  # generate_state(4, uint64) as uint32 words
_STATE_HASH = np.array(
    [_INIT_B * pow(_MULT_B, i, 1 << 32) & _MASK32 for i in range(_STATE_WORDS + 1)],
    dtype=np.uint32,
)


def _n_words(x):
    """How many 32-bit words ``SeedSequence`` makes of an entropy or key."""
    if isinstance(x, (int, np.integer)):
        return max(1, -(-int(x).bit_length() // 32))
    return sum(_n_words(v) for v in x)


@functools.cache
def _mix_hashes(width, mixed):
    """The width + 1 hash constants that mixing one word after ``mixed`` reads."""
    return np.array(
        [_INIT_A * pow(_MULT_A, width * mixed + d, 1 << 32) & _MASK32 for d in range(width + 1)],
        dtype=np.uint32,
    )


def _mix_in(pools, words, mixed):
    """Mix one 32-bit word per row into ``pools`` after ``mixed`` words.

    Word w reaches pool entry d as ``mix(pool[d], hashmix(w))``, and each
    hashmix advances the hash constant once.
    """
    h = _mix_hashes(pools.shape[1], mixed)
    hashed = (words[:, None] ^ h[:-1]) * h[1:]
    hashed ^= hashed >> 16
    pools[...] = _MIX_L * pools - _MIX_R * hashed
    pools ^= pools >> 16


class _SeedWords(ISeedSequence):
    """One child's ``generate_state(4, uint64)`` words, handed to ``PCG64``."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != len(self.words) or np.dtype(dtype) != self.words.dtype:
            raise ValueError("only the words PCG64 asks for were derived")
        return self.words


class RandomSource:
    """Pseudo-random source backing all stream generation.

    Wraps a PCG64 generator seeded through a ``SeedSequence``. ``spawn``
    derives statistically independent child sources, so each encoder lane
    (and each Monte Carlo trial) can own its own sub-stream while the whole
    experiment stays reproducible from one 64-bit seed. Children carry the
    same bits as ``SeedSequence.spawn`` would give them.
    """

    def __init__(self, seed=None, _sequence=None):
        if _sequence is None:
            _sequence = np.random.SeedSequence(seed)
        self._entropy = _sequence.entropy
        self._pool = _sequence.pool
        # the entropy is padded to the pool size before the spawn key follows
        entropy_words = max(_sequence.pool_size, _n_words(self._entropy))
        self._mixed = entropy_words + _n_words(_sequence.spawn_key)
        self._spawned = _sequence.n_children_spawned
        self._gen = np.random.Generator(np.random.PCG64(_sequence))

    @property
    def seed(self):
        return self._entropy

    def spawn(self, n):
        """Split off ``n`` independent child sources."""
        n = _integer(n, "the number of sources to spawn", low=0)
        first = self._spawned
        self._spawned += n
        # Child i mixes in the low word of i and, once i >= 2**32, its high word.
        index = np.arange(first, first + n, dtype=np.uint64)
        pools = np.repeat(self._pool[None, :], n, axis=0)
        _mix_in(pools, (index & _MASK32).astype(np.uint32), self._mixed)
        wide = min(n, max(0, (1 << 32) - first))
        if wide < n:
            _mix_in(pools[wide:], (index[wide:] >> 32).astype(np.uint32), self._mixed + 1)
        cycled = pools[:, np.arange(_STATE_WORDS) % pools.shape[1]]
        state = (cycled ^ _STATE_HASH[:-1]) * _STATE_HASH[1:]
        state ^= state >> 16
        words = np.ascontiguousarray(state, dtype="<u4").view("<u8").astype(np.uint64)
        children = []
        for j in range(n):
            child = RandomSource.__new__(RandomSource)
            child._entropy = self._entropy
            child._pool = pools[j]
            child._mixed = self._mixed + 1 + (j >= wide)
            child._spawned = 0
            child._gen = np.random.Generator(np.random.PCG64(_SeedWords(words[j])))
            children.append(child)
        return children

    def uniform(self, size=None, out=None):
        """Uniform samples in [0, 1), written into the float64 array ``out``
        and returned, if it is given."""
        return self._gen.random(size, out=out)

    def uniform_signed(self, size=None):
        """Uniform samples in [-1, 1)."""
        return self._gen.uniform(-1.0, 1.0, size)

    def binomial(self, n, p):
        return int(self._gen.binomial(n, p))

    def sample_without_replacement(self, n, size):
        """``size`` distinct draws from ``range(n)``."""
        return self._gen.choice(n, size=size, replace=False)

    def __repr__(self):
        return f"RandomSource(seed={self.seed!r})"
