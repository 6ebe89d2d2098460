"""Trial-vectorized kernels: the one implementation of both designs.

These run many independent trials in lockstep on numpy arrays (one row
per trial). The sweeps run hundreds of trials at once; the single-shot
runs ``run_inner_product`` and ``run_tree_inner_product`` run one, and
the per-cycle trace is written by ``engine_batch``. On one-element rows
numpy's per-call cost outweighs the work, so at a batch of one trial the
engine's packed carry entry and the tree's counters step Python ints
through the same rule. The batch size alone selects that form. The
non-scaled adder adds one pair of streams, so its kernel is the Python-int
stepper ``adder.add_ternary``.

Each mechanism is written once: the lane products of both designs
(``encode_tlb_products``, which is also ``encode_sm_products``: it runs the
stream encoders' comparator once per lane into one bit array and builds no
stream object), the canceler sweep (``canceler_batch``), the accumulation
rule of the carry registers (``_accumulate``, which ``_Rule`` indexes like a
table and ``_carry_table`` memoizes for narrow registers), the counter node
update (``tree_batch``, in its batch and its one-trial form), the saturating
clamp of the tree's batch form (``_clamp``) and of a Python-int count in the
one-trial tree and the adder (``_saturate``), the split of a fault schedule
by cycle (``_flips_by_cycle``), the XOR of a fault into storage (``_toggle``)
and the sign extension of a faulted tree counter (``_toggle_counters``).
The test suite checks the kernels bit for bit against independent scalar
oracles of the hardware, including under injected faults.
"""

import contextlib
import functools
import math
import numbers

import numpy as np

from .rng import RandomSource
from .streams import _check_value, _draw, _integer, _is_integer, _write_rows

# unused here, but perfbench/tracer.py wraps them by these names
from .streams import encode_sm, encode_tlb, ternary_values  # noqa: F401

__all__ = [
    "encode_tlb_products",
    "encode_sm_products",
    "draw_fault_schedule",
    "draw_fault_schedules",
    "merge_fault_schedules",
    "engine_batch",
    "tree_batch",
    "canceler_batch",
    "TRACE_COLUMNS",
]

TRACE_COLUMNS = (
    "l", "substep", "ps_front", "ns_front", "pc_count", "nc_count", "zp", "zn",
    "cc_cancellations",
)


def _integer_array(values, what, kinds="iu"):
    """``values`` as an array, after checking that an array with entries has
    an integer dtype, one of the numpy dtype ``kinds``. Floats, strings and
    objects are rejected, not truncated by a later cast; an empty array of
    any dtype passes.
    """
    values = np.asarray(values)
    if values.size and values.dtype.kind not in kinds:
        raise ValueError(f"{what} must be integers")
    return values


def _parts(values, names, what):
    """``values`` as a tuple, after checking that it holds one part per name:
    the axes of an array's shape, or the arrays of a fault schedule."""
    parts = tuple(values) if np.iterable(values) else ()
    if len(parts) != len(names):
        raise ValueError(f"{what} must be ({', '.join(names)}), got {len(parts)}")
    return parts


def _fault_array(values, what):
    """A fault array as int64, after checking that it is 1-D of integers."""
    values = np.asarray(values)
    if values.ndim != 1:
        raise ValueError(f"{what} must be 1-D arrays, got {values.ndim} dimensions")
    return _integer_array(values, what).astype(np.int64, copy=False)


def _int8_in(values, low, what):
    """``values`` as an int8 array, after checking every entry is an integer
    or a bool from ``low`` to 1: -1 for ternary symbols, 0 for hold bits.

    The check runs before the cast, which would wrap 255 to -1 and 256 to 0.
    """
    values = _integer_array(values, what, "biu")
    if values.size and (values.min() < low or values.max() > 1):
        raise ValueError(f"{what} must be integers in [{low}, 1]")
    return values.astype(np.int8, copy=False)


def encode_tlb_products(x, y, stream_len, rng):
    """(..., K, stream_len) int8 lane products of both designs for x and y of
    shape (..., K): lane k of each vector pair multiplies the ternary symbols
    of the TLB streams of x[k] and y[k], drawn from children k and K + k of
    that pair's source.

    ``rng`` holds one source per vector pair: a ``RandomSource`` for 1-D x
    and y, or a ``SeedBatch`` of shape ``x.shape[:-1]``. Every source
    advances by 2K children, as ``spawn(2K)`` would number them, and each
    lane draws from a generator built from its child's seed words, with no
    source object per lane; the seed words are derived a block of lanes at
    a time.

    Lane i of a pair writes its comparator bits [u < |v|] into row i of one
    (2K, L) array, reused from pair to pair. ``encode_tlb`` would put them
    on its pos line for v >= 0 and on its neg line otherwise, so
    ``TlbStream._ternary``, pos - neg, is sgn(v)·[u < |v|]: one sign product
    over the array. ``encode_sm_products`` is this function: an SM lane
    draws its magnitude from the same uniforms u and holds its sign
    constant, so its symbol is sgn(v)·[u < |v|] too, and the SM multiplier
    gives the same product.

    The values, ``stream_len`` and the sources are checked before any
    source spawns, so a rejected call leaves ``rng`` unspawned.
    """
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    if x.ndim < 1 or x.shape != y.shape:
        raise ValueError("x and y must have the same number of lanes")
    k, n_pairs = x.shape[-1], math.prod(x.shape[:-1])
    values = np.concatenate([x, y], axis=-1).reshape(n_pairs, 2 * k)
    outside = ~(np.abs(values) <= 1.0)
    if outside.any():  # raises, naming the first such value
        _check_value(values[outside][0], "two-line bipolar")
    stream_len = _integer(stream_len, "stream length")
    seeds = rng.seeds if isinstance(rng, RandomSource) else rng
    if seeds.shape != x.shape[:-1]:
        raise ValueError(f"need one source per pair of vectors, {x.shape[:-1]}, got {seeds.shape}")
    lanes = seeds.spawn(2 * k).generators()
    products = np.empty((*x.shape, stream_len), np.int8)
    bits = np.empty((2 * k, stream_len), np.bool_)
    terns = bits.view(np.int8)
    samples = np.empty(stream_len)
    signs = np.sign(values).astype(np.int8)[..., None]
    magnitudes = np.abs(values, out=values)  # in place: values is this call's own copy
    for pair, sign, out in zip(magnitudes, signs, products.reshape(n_pairs, k, stream_len)):
        for p, line in zip(pair, bits):
            _draw(p, next(lanes).random(out=samples), line)
        terns *= sign
        np.multiply(terns[:k], terns[k:], out=out)
    return products


encode_sm_products = encode_tlb_products


def draw_fault_schedules(gens, n_bits, n_cycles, p_flip):
    """Sample the storage-upset model for a batch of trials, one numpy
    ``Generator`` per trial, as batch-ready (trials, cycles, bits) arrays.

    Every storage bit flips independently with probability ``p_flip`` at
    each main-clock cycle. A trial's flips are a binomial count plus a
    uniform choice of that many distinct (cycle, bit) slots, which is
    distribution-identical and keeps the schedule small. The arrays are
    ``merge_fault_schedules`` of each trial's ``draw_fault_schedule``:
    sorted by cycle, then trial, then bit, which one sort of one int64 key
    gives. A batch whose (cycle, trial, bit) slots that key cannot number
    is a ValueError, raised before any draw; one trial's key is its flat
    slot, so a trial alone fits whenever its slots do.
    """
    n_bits = _integer(n_bits, "storage bit count", low=0)
    n_cycles = _integer(n_cycles, "cycle count", low=0)
    # a bool is not a probability, though True <= 1.0 would let it through
    real = isinstance(p_flip, numbers.Real) and not isinstance(p_flip, bool)
    if not (real and 0.0 <= p_flip <= 1.0):
        raise ValueError(f"flip probability must be a real number in [0, 1], got {p_flip!r}")
    gens = list(gens)
    n_trials = len(gens)
    total = n_bits * n_cycles
    if total * n_trials > np.iinfo(np.int64).max:
        raise ValueError(
            f"{n_trials} trials of {n_bits} bits over {n_cycles} cycles exceed the int64 sort key"
        )
    drawn, trials = [], []
    for trial, gen in enumerate(gens):
        count = int(gen.binomial(total, p_flip)) if p_flip > 0.0 else 0
        if count:
            drawn.append(gen.choice(total, size=count, replace=False))
            trials.append(trial)
    if not drawn:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    trial = np.repeat(np.array(trials, dtype=np.int64), [len(d) for d in drawn])
    cycle, bit = np.divmod(np.concatenate(drawn), n_bits)
    rest, bit = np.divmod(np.sort((cycle * n_trials + trial) * n_bits + bit), n_bits)
    cycle, trial = np.divmod(rest, n_trials)
    return trial, cycle, bit


def draw_fault_schedule(rng, n_bits, n_cycles, p_flip):
    """One trial's flip schedule from ``rng``, as (cycles, bits) arrays
    sorted by cycle: the one-trial case of ``draw_fault_schedules``."""
    _, cycles, bits = draw_fault_schedules([rng.generator], n_bits, n_cycles, p_flip)
    return cycles, bits


def _one_trial_faults(schedule):
    """Batch fault arrays for one trial from (cycle, cell) pairs of int64
    integers; None stays None. A flat list, a float or an integer past int64
    is a ValueError, not reinterpreted."""
    if schedule is None:
        return None
    pairs = np.array(list(schedule), dtype=object)
    fits = np.iinfo(np.int64)
    if len(pairs) and (
        pairs.shape[1:] != (2,)
        or not all(_is_integer(v) and fits.min <= v <= fits.max for v in pairs.flat)
    ):
        raise ValueError("a fault schedule holds (cycle, cell) pairs of integers within int64")
    return merge_fault_schedules([pairs.reshape(-1, 2).astype(np.int64).T])


def merge_fault_schedules(schedules):
    """Combine per-trial (cycles, bits) schedules into batch-ready arrays.

    Returns (trials, cycles, bits) sorted by cycle; ``schedules`` may
    contain None entries for fault-free trials. A trial that is not a pair of
    arrays, or whose cycle and bit arrays are not 1-D, differ in length, or
    hold entries of a dtype other than an integer one (bools and floats
    included), is a ValueError.
    """
    trial_ids = []
    cycles = []
    bits = []
    for trial, schedule in enumerate(schedules):
        if schedule is None:
            continue
        cyc, bit = _parts(schedule, ("cycles", "bits"), f"trial {trial}: a fault schedule")
        cyc = _fault_array(cyc, f"trial {trial}: fault cycles")
        bit = _fault_array(bit, f"trial {trial}: fault bits")
        if len(cyc) != len(bit):
            raise ValueError(
                f"trial {trial}: {len(cyc)} fault cycles but {len(bit)} fault bits"
            )
        if len(cyc) == 0:
            continue
        trial_ids.append(np.full(len(cyc), trial, dtype=np.int64))
        cycles.append(cyc)
        bits.append(bit)
    if not trial_ids:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    trial_ids = np.concatenate(trial_ids)
    cycles = np.concatenate(cycles)
    bits = np.concatenate(bits)
    order = np.argsort(cycles, kind="stable")
    return trial_ids[order], cycles[order], bits[order]


def _flips_by_cycle(fault_schedules, n_trials, n_cycles, n_cells):
    """Split batch fault arrays by cycle: None or the (trials, cells) toggled.

    Raises ValueError if there are not three arrays, an array is not 1-D or
    holds entries of a dtype other than an integer one (bools and floats
    included), the three differ in length, a trial lies outside
    [0, n_trials), a cell outside [0, n_cells), a cycle outside
    [0, n_cycles), or the cycles are not sorted.
    """
    flips = [None] * n_cycles
    if fault_schedules is None:
        return flips
    f_trials, f_cycles, f_cells = (
        _fault_array(a, "fault trials, cycles and cells")
        for a in _parts(fault_schedules, ("trials", "cycles", "cells"), "batch fault arrays")
    )
    if not len(f_trials) == len(f_cycles) == len(f_cells):
        raise ValueError("fault trials, cycles and cells must have equal lengths")
    for name, values, bound in (
        ("trials", f_trials, n_trials), ("cells", f_cells, n_cells), ("cycles", f_cycles, n_cycles)
    ):
        if len(values) and (values.min() < 0 or values.max() >= bound):
            raise ValueError(f"fault {name} must lie in [0, {bound})")
    if (np.diff(f_cycles) < 0).any():
        raise ValueError("fault cycles must be sorted")
    starts = np.searchsorted(f_cycles, np.arange(n_cycles + 1))
    for cycle in np.flatnonzero(starts[1:] > starts[:-1]):
        lo, hi = starts[cycle], starts[cycle + 1]
        flips[cycle] = (f_trials[lo:hi], f_cells[lo:hi])
    return flips


def _toggle(words, trials, cells, width):
    """XOR fault cells into a (trials, words) view of ``width``-cell words.

    The shift is cast to the storage dtype first, so object registers shift
    Python ints.
    """
    np.bitwise_xor.at(words, (trials, cells // width), 1 << (cells % width).astype(words.dtype))


# The packed carry state of 2M bits is stepped by table gathers up to this
# width; the table holds 16 * 4**M entries, so wider registers index the rule
# itself.
_TABLE_MAX_BITS = 16
# trial * cycle * lane elements per chunk of cycles; bounds the working set
_CHUNK_ELEMENTS = 1 << 15


_bit_count = np.frompyfunc(int.bit_count, 1, 1)


def _popcount(values):
    """Set bits of every value as int64; entries above M = 29 are Python ints."""
    if values.dtype != object:
        return np.bitwise_count(values).astype(np.int64)
    return _bit_count(values).astype(np.int64)


def _accumulate(pc, nc, op, m):
    """The accumulation rule: one step of the two M-bit carry registers.

    ``pc`` and ``nc`` hold the registers with cell i at bit i; cell 0 is
    the front. ``op`` 0, 1, 2 delivers the front pair -1, 0, +1 and 3
    emits. Works elementwise on integer arrays and on Python ints. Returns
    (pc, nc, flag_p, flag_n); the flags are the (+1, -1) carries a delivery
    pushed off the back, or the (zp, zn) pair an emission put out.
    """
    cp = pc & 1
    cn = nc & 1
    emit = op == 3
    # shift-in: a delivery the other front cannot cancel enters at the front
    # and the back cell falls off
    p_in = (op == 2) & (cn ^ 1)
    n_in = (op == 0) & (cp ^ 1)
    # shift-out, a literal shift toward the front with zero fill: a front
    # cancels a delivery or is emitted, or a zero delivery finds both fronts equal
    drain = (op == 1) & (cp ^ cn ^ 1)
    p_out = drain | cp & ((op == 0) | emit)
    n_out = drain | cn & ((op == 2) | emit)
    mask = (1 << m) - 1
    return (
        (pc << p_in | p_in) >> p_out & mask,
        (nc << n_in | n_in) >> n_out & mask,
        pc >> (m - 1) & p_in | cp & emit,
        nc >> (m - 1) & n_in | cn & emit,
    )


class _Rule:
    """``_accumulate`` indexed like its table, on packed carry entries.

    An entry is the state ``pc | nc << M`` with the step's two flag bits
    above it. ``rule[op << (2M + 2) | entry]`` is the entry after ``op``
    acts on the entry's state, with the step's flags; the flags of the
    input entry are ignored. An index is an integer array or a Python int.
    """

    def __init__(self, m):
        self.m = m

    def __getitem__(self, index):
        m = self.m
        mask = (1 << m) - 1
        op = index >> (2 * m + 2)
        pc, nc, flag_p, flag_n = _accumulate(index & mask, index >> m & mask, op, m)
        return pc | nc << m | flag_p << 2 * m | flag_n << (2 * m + 1)


@functools.lru_cache(maxsize=None)
def _carry_table(m):
    """``_Rule(m)`` memoized over every index: a read-only int32 array.

    Built on first use per M, from the 4 * 4**M (op, state) indices with
    clear input flags, then one copy per value of the two ignored flag bits.
    """
    index = np.arange(4)[:, None] << (2 * m + 2) | np.arange(4**m)
    step = np.repeat(_Rule(m)[index].astype(np.int32), 4, axis=0).reshape(-1)
    step.flags.writeable = False
    return step


class _Carry:
    """Carry registers of every trial as one packed entry per trial.

    Each step reads the next entry from ``_carry_table`` while 2M fits
    ``_TABLE_MAX_BITS`` and from ``_Rule`` above. Entries are int32 for the
    table, int64 while an index fits (M <= 29) and Python ints above. A
    batch of one trial steps its entry as a Python int, through a memoryview
    of the table or through the rule itself.
    """

    def __init__(self, m, n_trials):
        self.m = m
        self.op_shift = 2 * m + 2
        if 2 * m <= _TABLE_MAX_BITS:
            self.step, dtype = _carry_table(m), np.int32
        else:
            self.step, dtype = _Rule(m), np.int64 if self.op_shift + 2 <= 63 else object
        self.entry = np.zeros(n_trials, dtype=dtype)

    def _counts(self, entries):
        halves = np.array([0, self.m], dtype=np.int32).reshape((2,) + (1,) * entries.ndim)
        return _popcount(entries >> halves & (1 << self.m) - 1)

    def run(self, deliveries, flips, faulted, want_counts):
        """Step the carry registers through one chunk of cycles.

        ``deliveries``: (K, cycles, trials) front pairs +1, 0, -1 in step
        order. ``flips[i]`` is None or the (trials, cells) toggled at the
        start of cycle i; the change they cause in the (pc, nc) carry counts
        goes to ``faulted[:, i]``. Returns ``flags`` of shape
        (cycles, K + 1, trials), whose bits 0 and 1 are the +1 and -1
        carries dropped at each step and, at index K, the emitted (zp, zn)
        pair; and, if ``want_counts``, the (pc, nc) carry counts after every
        step, of shape (2, cycles, K + 1, trials).
        """
        lanes, n_cycles, n_trials = deliveries.shape
        entry = self.entry
        dtype = entry.dtype
        # (cycles, K + 1, trials) in C order, so that a step reads one contiguous
        # row; op 3 at step K emits
        ops = np.full((n_cycles, lanes + 1, n_trials), 3, np.promote_types(dtype, np.int64))
        ops[:, :lanes] = deliveries.transpose(1, 0, 2) + 1
        ops <<= self.op_shift
        single = n_trials == 1
        if single:
            # Python ints through a view of the same table, or the rule: no
            # second table, and no numpy call per step
            step = memoryview(self.step) if isinstance(self.step, np.ndarray) else self.step
            entry = int(entry[0])
            ops = ops[..., 0].tolist()
            rows = [[0] * (lanes + 1) for _ in range(n_cycles)]
        else:
            step = self.step
            rows = np.empty(ops.shape, dtype=dtype)
        for i in range(n_cycles):
            if flips[i] is not None:
                trials, cells = flips[i]
                word = np.array([entry], dtype) if single else entry
                before = self._counts(word)
                _toggle(word[:, None], trials, cells, 2 * self.m)
                faulted[:, i] = self._counts(word) - before
                entry = int(word[0]) if single else word
            row, op = rows[i], ops[i]
            for s in range(lanes + 1):
                entry = row[s] = step[entry + op[s]]
        if single:
            rows = np.array(rows, dtype=dtype).reshape(n_cycles, lanes + 1, 1)
            entry = np.array([entry], dtype=dtype)
        self.entry = entry
        counts = self._counts(rows) if want_counts else None
        return (rows >> 2 * self.m).astype(np.int8), counts

    def residuals(self):
        return tuple(self._counts(self.entry))


def _unbalanced(where, trial, lhs, rhs):
    return RuntimeError(f"conservation violated at {where} (trial {trial}): {lhs} != {rhs}")


def _check_ledger(loaded, ledger):
    """Raise if a trial's signed units at the end of a run differ from those loaded."""
    if not np.array_equal(loaded, ledger):
        bad = int(np.argmax(loaded != ledger))
        raise _unbalanced("end of run", bad, loaded[bad], ledger[bad])


def _saturate(count, capacity):
    """An out-of-range ``count`` saturated at +-``capacity``, and the units removed."""
    kept = capacity if count > 0 else -capacity
    return kept, count - kept


def _check_steps(deliveries, loaded, flags, stored, faulted, stored_before, first_cycle):
    """Conservation of signed units after every step and emission of a chunk,
    counted from ``stored_before``, the signed carry count at its start.

    Chunk 0 starts from empty registers, so checking each chunk from its
    start checks the law of the whole run. The signed flags are the carries
    dropped at steps 0..K-1 and the pair emitted at step K, so one
    cumulative sum counts both. The cancelers remove only (+1, -1) pairs, so
    the units in flight are those loaded this cycle minus those delivered so
    far; after the K-th step the input registers are empty.
    """
    lanes, n_cycles, n_trials = deliveries.shape
    signed = (flags & 1).astype(np.int64) - (flags >> 1)
    inflight = np.zeros_like(signed)
    inflight[:, :lanes] = loaded[:, None] - np.cumsum(
        deliveries.transpose(1, 0, 2), axis=1, dtype=np.int64
    )
    lhs = np.cumsum(signed.reshape(-1, n_trials), axis=0).reshape(signed.shape) + stored + inflight
    rhs = np.broadcast_to(
        (stored_before + np.cumsum(loaded + faulted, axis=0))[:, None], lhs.shape
    )
    bad = lhs != rhs
    if bad.any():
        i, s, t = np.unravel_index(np.argmax(bad), bad.shape)
        where = f"{'emit' if s == lanes else 'cycle'} {first_cycle + i}"
        raise _unbalanced(where, t, lhs[i, s, t], rhs[i, s, t])


class _Trace:
    """Per-cycle trace CSV of a one-trial run, K + 1 rows per main-clock cycle.

    Row s < K shows the state before high-clock step s: the front pair that
    step delivers, the carry counts, the output pair of the last emission
    and the cancellations so far. Row K shows the state after the emission,
    when the input registers are empty.
    """

    def __init__(self, handle, lanes):
        self.handle = handle
        _write_rows(handle, np.zeros((0, len(TRACE_COLUMNS)), dtype=np.int64), TRACE_COLUMNS)
        self.lanes = lanes
        self.counts = np.zeros((2, 1), dtype=np.int64)  # after the last emission
        self.out = np.zeros((2, 1), dtype=np.int64)  # (zp, zn) of the last emission
        self.cc = 0

    def write(self, first_cycle, fronts, counts, flags, faulted, cc_steps):
        """Rows of one chunk of cycles.

        ``fronts``: (2, cycles, K) delivered (+1, -1) front bits; ``counts``:
        (2, cycles, K + 1) carry counts after every step; ``flags``:
        (cycles, K + 1) stepper flags; ``faulted``: (2, cycles) count changes
        made by faults; ``cc_steps``: (cycles, K) cancellations per step.
        """
        k = self.lanes
        n_c = len(flags)
        after_emit = counts[:, :, k]
        emitted = np.stack([flags[:, k] & 1, flags[:, k] >> 1])
        # a cycle starts from the carry counts and output pair of the emission before it
        start = np.concatenate([self.counts, after_emit[:, :-1]], axis=1) + faulted
        out = np.concatenate([self.out, emitted[:, :-1]], axis=1)
        cc = self.cc + np.cumsum(cc_steps).reshape(n_c, k)
        rows = np.zeros((n_c, k + 1, len(TRACE_COLUMNS)), dtype=np.int64)
        rows[..., 0] = np.arange(first_cycle + 1, first_cycle + n_c + 1)[:, None]
        rows[..., 1] = np.arange(k + 1)
        rows[:, :k, 2:4] = fronts.transpose(1, 2, 0)
        rows[:, 0, 4:6] = start.T
        rows[:, 1:k, 4:6] = counts[:, :, : k - 1].transpose(1, 2, 0)
        rows[:, k, 4:6] = after_emit.T
        rows[:, :k, 6:8] = out.T[:, None]
        rows[:, k, 6:8] = emitted.T
        rows[:, :k, 8] = cc - cc_steps
        rows[:, k, 8] = cc[:, -1]
        _write_rows(self.handle, rows.reshape(-1, len(TRACE_COLUMNS)))
        self.counts, self.out, self.cc = after_emit[:, -1:], emitted[:, -1:], int(cc[-1, -1])


def engine_batch(
    products,
    carry_len,
    cc_enabled=True,
    shift_direction="opposite",
    fault_schedules=None,
    check_conservation=False,
    trace_path=None,
):
    """Run the sequential engine over a batch of trials.

    ``products``: (trials, lanes, cycles) ternary lane products; another
    rank, or an entry other than -1, 0 or +1, is a ValueError.
    Returns a dict with the emitted bit planes and per-trial counters.

    The input shift registers never read the carry registers, so each
    chunk of cycles runs in two stages. ``canceler_batch`` first computes
    the front pair delivered at each of the K high-clock steps of every
    cycle in the chunk at once. The carry registers then step through those
    deliveries in order by the rule ``_accumulate``, packed into one entry
    per trial. Each step indexes the next entry by the op and the entry:
    in the rule's memo table while 2M <= 16, and in the rule itself above,
    on int64 entries up to M = 29 and Python ints above. A batch of one
    trial steps its entry as a Python int, one high-clock step at a time.
    A fault XORs its cell at the start of its cycle.

    Every run ends with a per-trial ledger of signed units, read from
    ``products`` and the emitted planes: loaded = emitted + stored +
    dropped_pos - dropped_neg - (stored change caused by faults); a mismatch
    raises RuntimeError. ``check_conservation`` checks the same law after
    every high-clock step and every emission, starting each chunk from the
    carry registers. ``trace_path`` writes the per-cycle trace CSV (columns
    ``TRACE_COLUMNS``) of a batch of one trial; every input is checked
    before it opens.
    """
    products = _int8_in(products, -1, "ternary symbols")
    axes = ("trials", "lanes", "cycles")
    n_trials, lanes, n_cycles = _parts(products.shape, axes, "product axes")
    m = _integer(carry_len, "carry_len")
    if trace_path is not None and n_trials != 1:
        raise ValueError("a trace covers a batch of exactly one trial")
    _is_opposite(shift_direction)  # raises before the trace file opens
    carry = _Carry(m, n_trials)
    trace = None
    want_counts = check_conservation or trace_path is not None
    flips = _flips_by_cycle(fault_schedules, n_trials, n_cycles, 2 * m)

    emitted_p = np.zeros((n_trials, n_cycles), dtype=np.int8)
    emitted_n = np.zeros((n_trials, n_cycles), dtype=np.int8)
    dropped_pos = np.zeros(n_trials, dtype=np.int64)
    dropped_neg = np.zeros(n_trials, dtype=np.int64)
    cc_counts = np.zeros(n_trials, dtype=np.int64)
    faulted = np.zeros(n_trials, dtype=np.int64)

    chunk = max(1, _CHUNK_ELEMENTS // max(1, n_trials * lanes))
    with contextlib.ExitStack() as files:
        if trace_path is not None:
            trace = _Trace(files.enter_context(open(trace_path, "w", newline="")), lanes)
        # a batch of no trials has nothing to step, and its empty chunks have
        # no trial axis to reshape by
        for c0 in range(0, n_cycles if n_trials else 0, chunk):
            c1 = min(c0 + chunk, n_cycles)
            n_c = c1 - c0
            block = products[:, :, c0:c1]

            # stage 1: the front pairs delivered at every high-clock step
            planes = block.transpose(1, 2, 0).reshape(lanes, n_c * n_trials)
            dp, dn, cc = canceler_batch(
                (planes == 1).view(np.int8).T,
                (planes == -1).view(np.int8).T,
                shift_direction,
                cc_enabled,
                per_step=trace is not None,
            )
            cc_counts += cc.reshape(n_c, n_trials, -1).sum(axis=(0, 2))
            deliveries = (dp.T - dn.T).reshape(lanes, n_c, n_trials)

            # stage 2: the carry registers, in step order
            if check_conservation:
                stored_before = np.subtract(*carry.residuals())
            faulted_c = np.zeros((2, n_c, n_trials), dtype=np.int64)
            flags, counts = carry.run(deliveries, flips[c0:c1], faulted_c, want_counts)

            if check_conservation:
                _check_steps(
                    deliveries, block.sum(axis=1, dtype=np.int64).T, flags,
                    counts[0] - counts[1], faulted_c[0] - faulted_c[1], stored_before, c0,
                )
            if trace is not None:
                fronts = np.stack([dp, dn])
                trace.write(c0, fronts, counts[..., 0], flags[..., 0], faulted_c[..., 0], cc)
            emitted_p[:, c0:c1] = (flags[:, lanes] & 1).T
            emitted_n[:, c0:c1] = (flags[:, lanes] >> 1).T
            dropped_pos += (flags[:, :lanes] & 1).sum(axis=(0, 1), dtype=np.int64)
            dropped_neg += (flags[:, :lanes] >> 1).sum(axis=(0, 1), dtype=np.int64)
            faulted += (faulted_c[0] - faulted_c[1]).sum(axis=0)

    residual_pos, residual_neg = carry.residuals()
    emitted = emitted_p.sum(axis=1, dtype=np.int64) - emitted_n.sum(axis=1, dtype=np.int64)
    _check_ledger(
        products.sum(axis=(1, 2), dtype=np.int64),
        emitted + residual_pos - residual_neg + dropped_pos - dropped_neg - faulted,
    )

    return {
        "emitted_pos": emitted_p,
        "emitted_neg": emitted_n,
        "dropped_pos": dropped_pos,
        "dropped_neg": dropped_neg,
        "cc_cancellations": cc_counts,
        "residual_pos": residual_pos,
        "residual_neg": residual_neg,
    }


def _counter_dtype(width, nodes):
    """Narrowest signed dtype holding every node sum x + y + counter.

    A flipped top bit takes a sum down to -2^(width-1) - 2. Wider counters
    are rejected once 2^width times the node count overflows int64.
    """
    if nodes << width > np.iinfo(np.int64).max:
        raise ValueError(f"counter width {width} is too wide for {nodes} nodes")
    bound = 2 ** (width - 1) + 2
    return next(d for d in (np.int16, np.int32, np.int64) if bound <= np.iinfo(d).max)


def _clamp(pending, c_max, out):
    """Store the pending node carries saturated at +-c_max in ``out``.

    Returns the signed units the saturation removed from each node.
    """
    np.minimum(np.maximum(pending, -c_max, out=out), c_max, out=out)
    return pending - out


def _toggle_counters(counters, trials, cells, width):
    """Apply faults to (trials, nodes) B-bit two's-complement counters in place:
    toggle the raw bits, then sign-extend. Returns each trial's change in
    stored units."""
    wrap = 1 << width
    raw = counters & (wrap - 1)
    _toggle(raw, trials, cells, width)
    raw -= (raw >= wrap >> 1) * wrap
    change = (raw - counters).sum(axis=1, dtype=np.int64)
    counters[:] = raw
    return change


def tree_batch(products, counter_width, fault_schedules=None):
    """Run the counter-based adder tree over a batch of trials.

    ``products``: (trials, lanes, cycles) ternary lane products, lanes a
    power of two; another rank, or an entry other than -1, 0 or +1, is a
    ValueError.
    Each node adds its two ternary inputs and its counter into t, emits
    clamp(t, -1, 1) and keeps the remainder, saturated at +-c_max =
    2^(B-1) - 1; every clamp counts a saturation event. Node storage is a
    flat (trials, lanes-1) counter array in level-major order, leaf level
    first, so node 0 adds lanes 0 and 1. A counter is a B-bit
    two's-complement register: fault cell ``node * width + bit`` toggles
    raw bit ``bit`` of node ``node``, so one upset can move the stored
    carry by up to 2^(B-1). A batch of one trial steps its counters as
    Python ints, node by node, free of numpy's per-call cost on one-element
    rows; a larger batch steps every trial's level at once.

    Every run ends with a per-trial ledger of signed units, loaded =
    emitted + residual_sum + units removed by the +-c_max clamp - (stored
    change caused by faults), and raises RuntimeError on a mismatch.
    """
    products = _int8_in(products, -1, "ternary symbols")
    axes = ("trials", "lanes", "cycles")
    n_trials, lanes, n_cycles = _parts(products.shape, axes, "product axes")
    if lanes < 2 or lanes & (lanes - 1):
        raise ValueError("tree batch needs a power-of-two lane count >= 2")
    width = _integer(counter_width, "counter width")
    nodes = lanes - 1
    dtype = _counter_dtype(width, nodes)
    c_max = 2 ** (width - 1) - 1

    counters = np.zeros((n_trials, nodes), dtype=dtype)
    emitted = np.zeros((n_trials, n_cycles), dtype=np.int8)
    faulted = np.zeros(n_trials, dtype=np.int64)

    flips = _flips_by_cycle(fault_schedules, n_trials, n_cycles, nodes * width)
    if n_trials == 1:
        stored = [0] * nodes
        cycles = products[0].T.tolist()
        n_saturations = n_removed = 0
        for cycle in range(n_cycles):
            if flips[cycle] is not None:
                word = np.array([stored], dtype=dtype)
                faulted += _toggle_counters(word, *flips[cycle], width)
                stored = word[0].tolist()
            # the lane inputs, then each node's output: node n adds entries
            # 2n and 2n + 1, and the root's output comes last
            values = cycles[cycle]
            for node in range(nodes):
                t = values[2 * node] + values[2 * node + 1] + stored[node]
                z = (t > 0) - (t < 0)  # clamp(t, -1, 1) of an integer
                carry = t - z
                if not -c_max <= carry <= c_max:
                    carry, lost = _saturate(carry, c_max)
                    n_saturations += 1
                    n_removed += lost
                stored[node] = carry
                values.append(z)
            emitted[0, cycle] = values[-1]
        counters[0] = stored
        saturations = np.array([n_saturations], dtype=np.int64)
        removed = np.array([n_removed], dtype=np.int64)
    else:
        level_slices = []
        start, size = 0, lanes // 2
        while size >= 1:
            level_slices.append(slice(start, start + size))
            start += size
            size //= 2
        pending = np.empty_like(counters)
        # per node: saturation events and units removed by the clamp
        saturations = np.zeros((n_trials, nodes), dtype=np.int64)
        removed = np.zeros((n_trials, nodes), dtype=np.int64)
        for cycle in range(n_cycles):
            if flips[cycle] is not None:
                faulted += _toggle_counters(counters, *flips[cycle], width)

            # a level reads only its own counters, so all levels clamp at once
            values = products[:, :, cycle].astype(dtype)
            for sl in level_slices:
                t = values[:, 0::2] + values[:, 1::2] + counters[:, sl]
                values = np.minimum(np.maximum(t, -1), 1)
                np.subtract(t, values, out=pending[:, sl])
            emitted[:, cycle] = values[:, 0]
            excess = _clamp(pending, c_max, counters)
            saturations += excess != 0
            removed += excess
        saturations, removed = saturations.sum(axis=1), removed.sum(axis=1)

    residual = counters.sum(axis=1, dtype=np.int64)
    loaded = products.sum(axis=(1, 2), dtype=np.int64)
    _check_ledger(loaded, emitted.sum(axis=1, dtype=np.int64) + residual + removed - faulted)

    return {
        "emitted": emitted,
        "saturation_events": saturations,
        "residual_sum": residual,
    }


def _is_opposite(shift_direction):
    """True for the opposite wiring and False for the same; else ValueError."""
    if shift_direction not in ("opposite", "same"):
        raise ValueError("shift_direction must be 'opposite' or 'same'")
    return shift_direction == "opposite"


def canceler_batch(
    hold_pos, hold_neg, shift_direction="opposite", cc_enabled=True, per_step=False
):
    """Input shift registers with carry cancelers, for every trial at once.

    Loads the input shift registers from hold-register bit planes, applies
    the lane-wise carry canceling of the load path, then performs K
    delivery/shift steps, recording the front pair handed to the
    accumulation stage before every shift. Returns (delivered_pos,
    delivered_neg, cancellations) with deliveries of shape (trials, K).
    ``cancellations`` holds the per-trial totals or, with ``per_step``, the
    (trials, K) counts of the cancelers of each high-clock step; the
    load-path cancellations are then left out. This is the shift-direction
    experiment kernel and stage 1 of ``engine_batch``.

    Both registers shift one cell per step, so cell j at step s holds what
    was loaded into cell j + s. In that load frame nothing moves: step s
    delivers column s, and the cancelers of step s annihilate (+1, -1)
    pairs among the columns not yet delivered. With the opposite wiring
    the +1 in column c meets the -1 in column K + 2s - c; with the same
    wiring the pairs share a column. The columns left after the sweep are
    the deliveries. A hold entry other than 0 or 1 is a ValueError.
    """
    hold_pos = _int8_in(hold_pos, 0, "hold bits")
    hold_neg = _int8_in(hold_neg, 0, "hold bits")
    if hold_pos.shape != hold_neg.shape or hold_pos.ndim != 2:
        raise ValueError("hold bit planes must share a (trials, lanes) shape")
    opposite = _is_opposite(shift_direction)
    lanes = hold_pos.shape[1]

    # lane-major: one contiguous row of trials per register cell
    hp = np.ascontiguousarray(hold_pos.T)
    hn = np.ascontiguousarray(hold_neg.T)
    if cc_enabled:
        # load path: a lane's (+1, -1) pair annihilates at the canceler
        ps = hp & (hn ^ 1)
        ns = hn & (hp ^ 1)
    else:
        ps = hp.copy()
        ns = hn.copy()
    if opposite:
        ns = np.ascontiguousarray(ns[::-1])

    # the first undelivered column the cancelers reach at steps 0, 1, ...
    firsts = range(1, lanes, 2 if opposite else 1) if cc_enabled else ()
    if per_step:
        cancellations = np.zeros(hp.shape, dtype=np.int64)
    for step, first in enumerate(firsts):
        movers_p = ps[first:]
        movers_n = ns[first:][::-1] if opposite else ns[first:]
        met = movers_p & movers_n
        movers_p ^= met
        movers_n ^= met
        if per_step:
            cancellations[step] = met.sum(axis=0)
    if per_step:
        return ps.T, ns.T, cancellations.T
    # every +1 not delivered met a -1 at a canceler
    cancellations = hp.sum(axis=0, dtype=np.int64) - ps.sum(axis=0, dtype=np.int64)
    return ps.T, ns.T, cancellations
