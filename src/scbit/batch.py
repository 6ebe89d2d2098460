"""Trial-vectorized kernels: the one implementation of both designs and
of the non-scaled adder.

These run many independent trials in lockstep on numpy arrays (one row
per trial). The sweeps run hundreds of trials at once; the single-shot
runs ``run_inner_product``, ``run_tree_inner_product`` and
``nonscaled_add`` run one, and the per-cycle trace is written by
``engine_batch``. Each mechanism is written once: the lane products of
both designs (``encode_tlb_products``, which is also
``encode_sm_products``), the canceler sweep (``canceler_batch``), the
accumulation rule of the carry registers (``_accumulate``, which the
transition table of narrow registers memoizes), the counter node update
(``tree_batch``), the signed carry count of the non-scaled adder
(``adder_batch``), the saturating clamp the tree and the adder share
(``_clamp``), the split of a fault schedule by cycle (``_flips_by_cycle``)
and the XOR of a fault into storage (``_toggle``). The test suite checks
the kernels bit for bit against independent scalar oracles of the
hardware, including under injected faults.
"""

import contextlib
import csv
import functools

import numpy as np

from .streams import TlbStream, _integer, _is_integer, encode_tlb

# unused here, but perfbench/tracer.py wraps them by these names
from .streams import encode_sm, ternary_values  # noqa: F401

__all__ = [
    "encode_tlb_products",
    "encode_sm_products",
    "draw_fault_schedule",
    "merge_fault_schedules",
    "engine_batch",
    "tree_batch",
    "adder_batch",
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
    """(K, stream_len) int8 lane products of both designs: lane k multiplies
    the ternary symbols of the TLB streams of x[k] and y[k], drawn from child
    sources k and K + k of ``rng``.

    ``encode_sm_products`` is this function: an SM lane draws its magnitude
    from the same uniforms u and holds its sign constant, so its symbol is
    sgn(v)·[u < |v|] as in TLB, and the SM multiplier gives the same product.
    """
    k = len(x)
    if k != len(y):
        raise ValueError("x and y must have the same number of lanes")
    sources = rng.spawn(2 * k)
    streams = [encode_tlb(float(v), stream_len, src) for v, src in zip([*x, *y], sources)]
    lines = [np.array([getattr(s, n).bits for s in streams], np.uint8) for n in ("pos", "neg")]
    terns = TlbStream._ternary(*(a.reshape(-1, stream_len).view(np.int8) for a in lines))
    return terns[:k] * terns[k:]


encode_sm_products = encode_tlb_products


def draw_fault_schedule(rng, n_bits, n_cycles, p_flip):
    """Sample the storage-upset model as a sparse flip schedule.

    Every storage bit flips independently with probability ``p_flip`` at
    each main-clock cycle. Sampled as a binomial count plus a uniform
    choice of distinct (cycle, bit) slots, which is distribution-identical
    and keeps the schedule small. Returns (cycles, bits) arrays sorted by
    cycle.
    """
    n_bits = _integer(n_bits, "storage bit count", low=0)
    n_cycles = _integer(n_cycles, "cycle count", low=0)
    if not 0.0 <= p_flip <= 1.0:
        raise ValueError("flip probability must lie in [0, 1]")
    total = n_bits * n_cycles
    count = rng.binomial(total, p_flip) if p_flip > 0.0 else 0
    if count == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy()
    flat = np.sort(rng.sample_without_replacement(total, count))
    return flat // n_bits, flat % n_bits


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
    contain None entries for fault-free trials. A trial whose cycle and bit
    arrays differ in length, or hold entries of a dtype other than an
    integer one (bools and floats included), is a ValueError.
    """
    trial_ids = []
    cycles = []
    bits = []
    for trial, schedule in enumerate(schedules):
        if schedule is None:
            continue
        cyc, bit = schedule
        if len(cyc) != len(bit):
            raise ValueError(
                f"trial {trial}: {len(cyc)} fault cycles but {len(bit)} fault bits"
            )
        if len(cyc) == 0:
            continue
        trial_ids.append(np.full(len(cyc), trial, dtype=np.int64))
        cycles.append(_integer_array(cyc, f"trial {trial}: fault cycles").astype(np.int64))
        bits.append(_integer_array(bit, f"trial {trial}: fault bits").astype(np.int64))
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

    Raises ValueError if an array holds entries of a dtype other than an
    integer one (bools and floats included), the three arrays differ in
    length, a trial lies outside [0, n_trials), a cell outside [0, n_cells),
    a cycle outside [0, n_cycles), or the cycles are not sorted.
    """
    flips = [None] * n_cycles
    if fault_schedules is None:
        return flips
    f_trials, f_cycles, f_cells = (
        _integer_array(a, "fault trials, cycles and cells").astype(np.int64, copy=False)
        for a in fault_schedules
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
# width; the table holds 16 * 4**M entries, so wider registers step the rule
# itself on integer registers.
_TABLE_MAX_BITS = 16
# trial * cycle * lane elements per chunk of cycles; bounds the working set
_CHUNK_ELEMENTS = 1 << 15


def _popcount(values):
    """Set bits of every value as int64; registers above 64 cells are Python ints."""
    if values.dtype != object:
        return np.bitwise_count(values).astype(np.int64)
    count = np.zeros(values.shape, dtype=np.int64)
    while values.any():
        count += np.bitwise_count((values & (1 << 64) - 1).astype(np.uint64))
        values = values >> 64
    return count


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


@functools.lru_cache(maxsize=None)
def _carry_table(m):
    """``_accumulate`` over every state of the registers packed as ``pc | nc << M``.

    An entry is a packed state with two flag bits above it. For ``op`` 0 to
    3, ``step[op << (2M + 2) | entry]`` is the entry after ``op`` acts on the
    entry's state, with the step's flags; the flags of the input entry are
    ignored. Built on first use per M; read-only.
    """
    state = np.arange(4**m)
    after = []
    for op in range(4):
        pc, nc, flag_p, flag_n = _accumulate(state & ((1 << m) - 1), state >> m, op, m)
        after.append(pc | nc << m | flag_p << 2 * m | flag_n << (2 * m + 1))
    # one copy per value of the two input flag bits
    step = np.repeat(np.stack(after).astype(np.int32), 4, axis=0).reshape(-1)
    step.flags.writeable = False
    return step


class _PackedCarry:
    """Carry registers of every trial as one packed table entry per trial."""

    def __init__(self, m, n_trials):
        self.m = m
        self.step = _carry_table(m)
        self.op_shift = 2 * m + 2
        self.entry = np.zeros(n_trials, dtype=np.int32)

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
        emit = np.int64(3) << self.op_shift
        step = self.step
        rows = np.empty((n_cycles, lanes + 1, n_trials), dtype=np.int32)
        entry = self.entry
        for i in range(n_cycles):
            if flips[i] is not None:
                trials, cells = flips[i]
                before = self._counts(entry)
                _toggle(entry[:, None], trials, cells, 2 * self.m)
                faulted[:, i] = self._counts(entry) - before
            ops = (deliveries[:, i].astype(np.int64) + 1) << self.op_shift
            row = rows[i]
            for s in range(lanes):
                entry = row[s] = step[entry + ops[s]]
            entry = row[lanes] = step[entry + emit]
        self.entry = entry
        counts = self._counts(rows) if want_counts else None
        rows >>= 2 * self.m
        return rows, counts

    def residuals(self):
        return tuple(self._counts(self.entry))


class _WideCarry:
    """Carry registers as (pc, nc) integer rows, for 2M above the table width.

    A register is a uint64 up to 64 cells and a Python int above. A batch
    of one trial steps plain Python ints, free of numpy's per-call cost.
    """

    def __init__(self, m, n_trials):
        self.m = m
        self.regs = np.zeros((2, n_trials), dtype=np.uint64 if m <= 64 else object)

    def run(self, deliveries, flips, faulted, want_counts):
        """Same contract as ``_PackedCarry.run``."""
        lanes, n_cycles, n_trials = deliveries.shape
        m = self.m
        regs = self.regs
        flags = np.empty((n_cycles, lanes + 1, n_trials), dtype=np.int8)
        counts = np.empty((2,) + flags.shape, dtype=np.int64) if want_counts else None
        ops = (deliveries + 1).transpose(1, 0, 2)
        single = n_trials == 1
        if single:
            ops = ops[..., 0].tolist()
        for i in range(n_cycles):
            if flips[i] is not None:
                trials, cells = flips[i]
                before = _popcount(regs)
                _toggle(regs.T, trials, cells, m)
                faulted[:, i] = _popcount(regs) - before
            pc, nc = regs[:, 0].tolist() if single else regs
            row = ops[i]
            for s in range(lanes + 1):
                pc, nc, flag_p, flag_n = _accumulate(pc, nc, row[s] if s < lanes else 3, m)
                flags[i, s] = flag_p | flag_n << 1
                if want_counts:
                    counts[:, i, s] = _popcount(np.array([pc, nc], regs.dtype)).reshape(2, -1)
            regs[0] = pc
            regs[1] = nc
        return flags, counts

    def residuals(self):
        return tuple(_popcount(self.regs))


def _unbalanced(where, trial, lhs, rhs):
    return RuntimeError(f"conservation violated at {where} (trial {trial}): {lhs} != {rhs}")


def _check_ledger(loaded, ledger):
    """Raise if a trial's signed units at the end of a run differ from those loaded."""
    if not np.array_equal(loaded, ledger):
        bad = int(np.argmax(loaded != ledger))
        raise _unbalanced("end of run", bad, loaded[bad], ledger[bad])


def _check_steps(deliveries, loaded, flags, stored, faulted, totals, first_cycle):
    """Conservation of signed units after every step and emission of a chunk.

    ``totals`` are the running (loaded, emitted, dropped_pos - dropped_neg,
    faulted) sums of the earlier cycles. The cancelers remove only (+1, -1)
    pairs, so the units in flight are those loaded this cycle minus those
    delivered so far; after the K-th step the input registers are empty.
    """
    lanes, n_cycles, n_trials = deliveries.shape
    signed = (flags & 1).astype(np.int64) - (flags >> 1)
    emitted = np.zeros_like(signed)
    emitted[:, lanes] = signed[:, lanes]
    signed[:, lanes] = 0  # the rest are dropped carries
    inflight = np.zeros_like(signed)
    inflight[:, :lanes] = loaded[:, None] - np.cumsum(
        deliveries.transpose(1, 0, 2), axis=1, dtype=np.int64
    )
    loaded_before, emitted_before, dropped_before, faulted_before = totals
    shape = (-1, n_trials)
    lhs = (
        emitted_before + np.cumsum(emitted.reshape(shape), axis=0).reshape(emitted.shape)
        + stored + inflight
    )
    rhs = (
        (loaded_before + np.cumsum(loaded, axis=0))[:, None]
        - (dropped_before + np.cumsum(signed.reshape(shape), axis=0).reshape(signed.shape))
        + (faulted_before + np.cumsum(faulted, axis=0))[:, None]
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
        self.writer = csv.writer(handle)
        self.writer.writerow(TRACE_COLUMNS)
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
        self.writer.writerows(rows.reshape(-1, len(TRACE_COLUMNS)).tolist())
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

    ``products``: (trials, lanes, cycles) ternary lane products; an entry
    other than -1, 0 or +1 is a ValueError.
    Returns a dict with the emitted bit planes and per-trial counters.

    The input shift registers never read the carry registers, so each
    chunk of cycles runs in two stages. ``canceler_batch`` first computes
    the front pair delivered at each of the K high-clock steps of every
    cycle in the chunk at once. The carry registers then step through those
    deliveries in order by the rule ``_accumulate``: packed into one
    integer per trial and advanced by gathers from its memo table while
    2M <= 16, and above that by the rule itself on integer registers
    (uint64 up to M = 64, Python ints above). A fault XORs its cell at the
    start of its cycle.

    Every run ends with a per-trial ledger of signed units, loaded =
    emitted + stored + dropped_pos - dropped_neg - (stored change caused
    by faults), and raises RuntimeError on a mismatch.
    ``check_conservation`` checks the same law after every high-clock step
    and every emission. ``trace_path`` writes the per-cycle trace CSV
    (columns ``TRACE_COLUMNS``) of a batch of one trial.
    """
    products = _int8_in(products, -1, "ternary symbols")
    n_trials, lanes, n_cycles = products.shape
    m = _integer(carry_len, "carry_len")
    if trace_path is not None and n_trials != 1:
        raise ValueError("a trace covers a batch of exactly one trial")
    carry = (_PackedCarry if 2 * m <= _TABLE_MAX_BITS else _WideCarry)(m, n_trials)
    trace = None
    want_counts = check_conservation or trace_path is not None
    flips = _flips_by_cycle(fault_schedules, n_trials, n_cycles, 2 * m)

    emitted_p = np.zeros((n_trials, n_cycles), dtype=np.int8)
    emitted_n = np.zeros((n_trials, n_cycles), dtype=np.int8)
    dropped_pos = np.zeros(n_trials, dtype=np.int64)
    dropped_neg = np.zeros(n_trials, dtype=np.int64)
    cc_counts = np.zeros(n_trials, dtype=np.int64)
    loaded = np.zeros(n_trials, dtype=np.int64)
    emitted = np.zeros(n_trials, dtype=np.int64)
    faulted = np.zeros(n_trials, dtype=np.int64)

    chunk = max(1, _CHUNK_ELEMENTS // max(1, n_trials * lanes))
    with contextlib.ExitStack() as files:
        if trace_path is not None:
            trace = _Trace(files.enter_context(open(trace_path, "w", newline="")), lanes)
        for c0 in range(0, n_cycles, chunk):
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
            faulted_c = np.zeros((2, n_c, n_trials), dtype=np.int64)
            flags, counts = carry.run(deliveries, flips[c0:c1], faulted_c, want_counts)

            loaded_c = block.sum(axis=1, dtype=np.int64).T
            if check_conservation:
                totals = (loaded, emitted, dropped_pos - dropped_neg, faulted)
                _check_steps(
                    deliveries, loaded_c, flags, counts[0] - counts[1],
                    faulted_c[0] - faulted_c[1], totals, c0,
                )
            if trace is not None:
                fronts = np.stack([dp, dn])
                trace.write(c0, fronts, counts[..., 0], flags[..., 0], faulted_c[..., 0], cc)
            emitted_p[:, c0:c1] = (flags[:, lanes] & 1).T
            emitted_n[:, c0:c1] = (flags[:, lanes] >> 1).T
            dropped_pos += (flags[:, :lanes] & 1).sum(axis=(0, 1), dtype=np.int64)
            dropped_neg += (flags[:, :lanes] >> 1).sum(axis=(0, 1), dtype=np.int64)
            emitted += emitted_p[:, c0:c1].sum(axis=1, dtype=np.int64)
            emitted -= emitted_n[:, c0:c1].sum(axis=1, dtype=np.int64)
            loaded += loaded_c.sum(axis=0)
            faulted += (faulted_c[0] - faulted_c[1]).sum(axis=0)

    residual_pos, residual_neg = carry.residuals()
    _check_ledger(
        loaded, emitted + residual_pos - residual_neg + dropped_pos - dropped_neg - faulted
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


def tree_batch(products, counter_width, fault_schedules=None):
    """Run the counter-based adder tree over a batch of trials.

    ``products``: (trials, lanes, cycles) ternary lane products, lanes a
    power of two; an entry other than -1, 0 or +1 is a ValueError.
    Each node adds its two ternary inputs and its counter into t, emits
    clamp(t, -1, 1) and keeps the remainder, saturated at +-c_max =
    2^(B-1) - 1; every clamp counts a saturation event. Node storage is a
    flat (trials, lanes-1) counter array in level-major order, leaf level
    first, so node 0 adds lanes 0 and 1. A counter is a B-bit
    two's-complement register: fault cell ``node * width + bit`` toggles
    raw bit ``bit`` of node ``node``, so one upset can move the stored
    carry by up to 2^(B-1).

    Every run ends with a per-trial ledger of signed units, loaded =
    emitted + residual_sum + units removed by the +-c_max clamp - (stored
    change caused by faults), and raises RuntimeError on a mismatch.
    """
    products = _int8_in(products, -1, "ternary symbols")
    n_trials, lanes, n_cycles = products.shape
    if lanes < 2 or lanes & (lanes - 1):
        raise ValueError("tree batch needs a power-of-two lane count >= 2")
    width = _integer(counter_width, "counter width")
    nodes = lanes - 1
    dtype = _counter_dtype(width, nodes)
    c_max = 2 ** (width - 1) - 1
    wrap = 1 << width
    half = 1 << (width - 1)

    level_slices = []
    start, size = 0, lanes // 2
    while size >= 1:
        level_slices.append(slice(start, start + size))
        start += size
        size //= 2

    counters = np.zeros((n_trials, nodes), dtype=dtype)
    pending = np.empty_like(counters)
    emitted = np.zeros((n_trials, n_cycles), dtype=np.int8)
    # per node: saturation events and units removed by the clamp
    saturations = np.zeros((n_trials, nodes), dtype=np.int64)
    removed = np.zeros((n_trials, nodes), dtype=np.int64)
    faulted = np.zeros(n_trials, dtype=np.int64)

    flips = _flips_by_cycle(fault_schedules, n_trials, n_cycles, nodes * width)
    for cycle in range(n_cycles):
        if flips[cycle] is not None:
            # toggle the raw two's-complement bits, then sign-extend
            trials, cells = flips[cycle]
            raw = counters & (wrap - 1)
            _toggle(raw, trials, cells, width)
            raw -= (raw >= half) * wrap
            faulted += (raw - counters).sum(axis=1, dtype=np.int64)
            counters[:] = raw

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

    residual = counters.sum(axis=1, dtype=np.int64)
    loaded = products.sum(axis=(1, 2), dtype=np.int64)
    _check_ledger(
        loaded, emitted.sum(axis=1, dtype=np.int64) + residual + removed.sum(axis=1) - faulted
    )

    return {
        "emitted": emitted,
        "saturation_events": saturations.sum(axis=1),
        "residual_sum": residual,
    }


def adder_batch(x, y, capacity):
    """Run the shift-register non-scaled adder over a batch of stream pairs.

    ``x``, ``y``: (pairs, positions) ternary symbols; an entry other than
    -1, 0 or +1 is a ValueError. The adder keeps its pending carries in a
    +1 and a -1 shift register of M = ``capacity`` cells.
    Fault-free, both hold thermometer codes and at most one of them is
    non-empty, so the pair is exactly a signed count c in [-M, M]: the
    +1 register holds max(c, 0) ones and the -1 register max(-c, 0). Per
    position, with s = x + y, the adder emits z = clamp(s + sign(c), -1, 1)
    and keeps c + s - z, saturated at +-M; every clamp is an overflow event.

    Returns (emitted, stored, overflow_events): the (pairs, positions) int8
    output symbols, the signed stored count after every position and the
    per-pair overflow events. Every run ends with a per-pair ledger of
    signed units, loaded = emitted + stored + units removed by the clamp,
    and raises RuntimeError on a mismatch.
    """
    x = _int8_in(x, -1, "ternary symbols")
    y = _int8_in(y, -1, "ternary symbols")
    if x.shape != y.shape or x.ndim != 2:
        raise ValueError("adder inputs must share a (pairs, positions) shape")
    _integer(capacity, "register capacity")
    n_pairs, length = x.shape
    # position-major, so that every position is one contiguous row of pairs
    sums = np.ascontiguousarray((x.astype(np.int64) + y).T)
    emitted = np.empty_like(sums)
    stored = np.empty_like(sums)
    removed = np.empty_like(sums)
    count = np.zeros(n_pairs, dtype=np.int64)
    for pos in range(length):
        z = emitted[pos]
        np.minimum(np.maximum(sums[pos] + np.sign(count), -1, out=z), 1, out=z)
        removed[pos] = _clamp(count + sums[pos] - z, capacity, stored[pos])
        count = stored[pos]
    _check_ledger(sums.sum(axis=0), emitted.sum(axis=0) + count + removed.sum(axis=0))
    return emitted.T.astype(np.int8), stored.T, np.count_nonzero(removed, axis=0)


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
    if shift_direction not in ("opposite", "same"):
        raise ValueError("shift_direction must be 'opposite' or 'same'")
    lanes = hold_pos.shape[1]
    opposite = shift_direction == "opposite"

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
