"""Trial-vectorized kernels for Monte Carlo sweeps.

These run many independent trials in lockstep on numpy arrays (one row
per trial) and are bit-exact with the scalar classes in ``engine`` and
``baseline``; the equivalence is asserted by the test suite, including
under injected faults. Scalar classes stay the reference for single runs
and tracing; these kernels exist so 200-trial accuracy and fault sweeps
finish in seconds instead of hours.
"""

import functools

import numpy as np

from .streams import encode_sm, encode_tlb, ternary_values

__all__ = [
    "encode_tlb_products",
    "encode_sm_products",
    "draw_fault_schedule",
    "merge_fault_schedules",
    "engine_batch",
    "tree_batch",
    "canceler_batch",
]


def encode_tlb_products(x, y, stream_len, rng):
    """Per-lane ternary product streams for the sequential engine.

    Uses the same child-source layout as ``run_inner_product`` (x lanes
    first, then y lanes), so a batch trial and a scalar run with the same
    source see identical bits.
    """
    k = len(x)
    sources = rng.spawn(2 * k)
    prods = np.zeros((k, stream_len), dtype=np.int8)
    x_terns = [
        ternary_values(encode_tlb(float(x[i]), stream_len, sources[i]))
        for i in range(k)
    ]
    for i in range(k):
        y_tern = ternary_values(encode_tlb(float(y[i]), stream_len, sources[k + i]))
        prods[i] = x_terns[i] * y_tern
    return prods


def encode_sm_products(x, y, stream_len, rng):
    """Per-lane ternary product streams for the adder-tree design."""
    k = len(x)
    sources = rng.spawn(2 * k)
    prods = np.zeros((k, stream_len), dtype=np.int8)
    xs = [encode_sm(float(x[i]), stream_len, sources[i]) for i in range(k)]
    for i in range(k):
        ys = encode_sm(float(y[i]), stream_len, sources[k + i])
        sign = xs[i].sign.bits ^ ys.sign.bits
        mag = xs[i].magnitude.bits & ys.magnitude.bits
        prods[i] = (1 - 2 * sign.astype(np.int8)) * mag.astype(np.int8)
    return prods


def draw_fault_schedule(rng, n_bits, n_cycles, p_flip):
    """Sample the storage-upset model as a sparse flip schedule.

    Every storage bit flips independently with probability ``p_flip`` at
    each main-clock cycle. Sampled as a binomial count plus a uniform
    choice of distinct (cycle, bit) slots, which is distribution-identical
    and keeps the schedule small. Returns (cycles, bits) arrays sorted by
    cycle.
    """
    if not 0.0 <= p_flip <= 1.0:
        raise ValueError("flip probability must lie in [0, 1]")
    total = int(n_bits) * int(n_cycles)
    count = rng.binomial(total, p_flip) if p_flip > 0.0 else 0
    if count == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy()
    flat = np.sort(rng.sample_without_replacement(total, count))
    return flat // n_bits, flat % n_bits


def merge_fault_schedules(schedules):
    """Combine per-trial (cycles, bits) schedules into batch-ready arrays.

    Returns (trials, cycles, bits) sorted by cycle; ``schedules`` may
    contain None entries for fault-free trials.
    """
    trial_ids = []
    cycles = []
    bits = []
    for trial, schedule in enumerate(schedules):
        if schedule is None:
            continue
        cyc, bit = schedule
        if len(cyc) == 0:
            continue
        trial_ids.append(np.full(len(cyc), trial, dtype=np.int64))
        cycles.append(np.asarray(cyc, dtype=np.int64))
        bits.append(np.asarray(bit, dtype=np.int64))
    if not trial_ids:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    trial_ids = np.concatenate(trial_ids)
    cycles = np.concatenate(cycles)
    bits = np.concatenate(bits)
    order = np.argsort(cycles, kind="stable")
    return trial_ids[order], cycles[order], bits[order]


# The packed carry state of 2M bits is stepped by table gathers up to this
# width; the table holds 16 * 4**M entries, so wider registers fall back to
# bit arrays.
_TABLE_MAX_BITS = 16
# trial * cycle * lane elements per chunk of cycles; bounds the working set
_CHUNK_ELEMENTS = 1 << 15


def _ones(values, width):
    """Count of set bits among the low ``width`` bits of each value."""
    count = np.zeros(values.shape, dtype=np.int64)
    for bit in range(width):
        count += (values >> bit) & 1
    return count


@functools.lru_cache(maxsize=None)
def _carry_table(m):
    """Transition table of the two carry registers packed as ``pc | nc << M``.

    Bit i of each M-bit half is register cell i; cell 0 is the front. An
    entry is a packed state with two flag bits above it. For ``op`` 0, 1, 2
    (delivered front pair -1, 0, +1) and 3 (emission),
    ``step[op << (2M + 2) | entry]`` is the entry after ``op`` acts on the
    entry's state; its flags are the (+1, -1) carries a delivery pushed off
    the back, or the (zp, zn) pair an emission put out. The flags of the
    input entry are ignored. ``stored[state]`` is the signed carry count
    popcount(pc) - popcount(nc). Built on first use per M; read-only.
    """
    width = 2 * m
    mask = (1 << m) - 1
    state = np.arange(1 << width, dtype=np.int32)
    pc = state & mask
    nc = state >> m
    cp = pc & 1
    cn = nc & 1

    def pack(p, n, flag_pos=0, flag_neg=0):
        return p | n << m | flag_pos << width | flag_neg << (width + 1)

    # shift-in: a one enters at the front and the back cell falls off;
    # shift-out: a literal shift toward the front with zero fill
    pc_in = (pc << 1 | 1) & mask
    nc_in = (nc << 1 | 1) & mask
    pc_out = pc >> 1
    nc_out = nc >> 1
    after = np.stack(
        [
            np.where(cp == 1, pack(pc_out, nc), pack(pc, nc_in, 0, nc >> (m - 1))),
            np.where(cp == cn, pack(pc_out, nc_out), state),
            np.where(cn == 1, pack(pc, nc_out), pack(pc_in, nc, pc >> (m - 1))),
            pack(np.where(cp == 1, pc_out, pc), np.where(cn == 1, nc_out, nc), cp, cn),
        ]
    )
    # one copy per value of the two input flag bits
    step = np.repeat(after, 4, axis=0).reshape(-1)
    stored = _ones(pc, m) - _ones(nc, m)
    step.flags.writeable = False
    stored.flags.writeable = False
    return step, stored


class _PackedCarry:
    """Carry registers of every trial as one packed table entry per trial."""

    def __init__(self, m, n_trials):
        self.m = m
        self.step, self.stored_of = _carry_table(m)
        self.op_shift = 2 * m + 2
        self.entry = np.zeros(n_trials, dtype=np.int32)

    def _stored(self, entries):
        return self.stored_of[entries & ((1 << 2 * self.m) - 1)]

    def run(self, deliveries, flips, faulted, want_stored):
        """Step the carry registers through one chunk of cycles.

        ``deliveries``: (K, cycles, trials) front pairs +1, 0, -1 in step
        order. ``flips[i]`` is None or the (trials, cells) toggled at the
        start of cycle i; the stored-count change they cause goes to
        ``faulted[i]``. Returns ``flags`` of shape (cycles, K + 1, trials),
        whose bits 0 and 1 are the +1 and -1 carries dropped at each step
        and, at index K, the emitted (zp, zn) pair; and, if
        ``want_stored``, the signed stored count after every step.
        """
        lanes, n_cycles, n_trials = deliveries.shape
        emit = np.int64(3) << self.op_shift
        step = self.step
        rows = np.empty((n_cycles, lanes + 1, n_trials), dtype=np.int32)
        entry = self.entry
        for i in range(n_cycles):
            if flips[i] is not None:
                trials, bits = flips[i]
                hit = np.unique(trials)
                before = self._stored(entry[hit])
                np.bitwise_xor.at(entry, trials, (1 << bits).astype(np.int32))
                faulted[i, hit] = self._stored(entry[hit]) - before
            ops = (deliveries[:, i].astype(np.int64) + 1) << self.op_shift
            row = rows[i]
            for s in range(lanes):
                entry = row[s] = step[entry + ops[s]]
            entry = row[lanes] = step[entry + emit]
        self.entry = entry
        stored = self._stored(rows) if want_stored else None
        rows >>= 2 * self.m
        return rows, stored

    def residuals(self):
        mask = (1 << self.m) - 1
        return _ones(self.entry & mask, self.m), _ones((self.entry >> self.m) & mask, self.m)


def _csr_shift(reg, do_in, do_out):
    """Apply front shift-in / back-fill shift-out per trial.

    ``do_in`` and ``do_out`` are disjoint boolean masks over trials.
    Returns the new registers and the carries pushed off the back end.
    """
    shifted_in = np.empty_like(reg)
    shifted_in[:, 0] = 1
    shifted_in[:, 1:] = reg[:, :-1]
    shifted_out = np.empty_like(reg)
    shifted_out[:, :-1] = reg[:, 1:]
    shifted_out[:, -1] = 0
    dropped = do_in * reg[:, -1]
    return np.where(do_in[:, None], shifted_in, np.where(do_out[:, None], shifted_out, reg)), dropped


class _BitCarry:
    """Carry registers as (trials, M) bit arrays, for 2M above the table width."""

    def __init__(self, m, n_trials):
        self.m = m
        self.pc = np.zeros((n_trials, m), dtype=np.int8)
        self.nc = np.zeros((n_trials, m), dtype=np.int8)

    def _stored(self):
        return self.pc.sum(axis=1, dtype=np.int64) - self.nc.sum(axis=1, dtype=np.int64)

    def run(self, deliveries, flips, faulted, want_stored):
        """Same contract as ``_PackedCarry.run``."""
        lanes, n_cycles, n_trials = deliveries.shape
        m = self.m
        flags = np.empty((n_cycles, lanes + 1, n_trials), dtype=np.int8)
        stored = np.empty(flags.shape, dtype=np.int64) if want_stored else None
        no_shift = np.zeros(n_trials, dtype=bool)
        for i in range(n_cycles):
            if flips[i] is not None:
                trials, bits = flips[i]
                hit = np.unique(trials)
                before = self._stored()[hit]
                in_pc = bits < m
                np.bitwise_xor.at(self.pc, (trials[in_pc], bits[in_pc]), 1)
                np.bitwise_xor.at(self.nc, (trials[~in_pc], bits[~in_pc] - m), 1)
                faulted[i, hit] = self._stored()[hit] - before
            for s in range(lanes + 1):
                cp = self.pc[:, 0]
                cn = self.nc[:, 0]
                if s < lanes:
                    x = deliveries[s, i]
                    x0c0 = (x == 0) & (cp == cn)
                    pc_in = (x == 1) & (cn == 0)
                    nc_in = (x == -1) & (cp == 0)
                    pc_out = x0c0 | ((x == -1) & (cp == 1))
                    nc_out = x0c0 | ((x == 1) & (cn == 1))
                else:  # emission: the fronts leave as the output pair
                    pc_in = nc_in = no_shift
                    pc_out = cp == 1
                    nc_out = cn == 1
                    flags[i, s] = cp | cn << 1
                self.pc, drop_p = _csr_shift(self.pc, pc_in, pc_out)
                self.nc, drop_n = _csr_shift(self.nc, nc_in, nc_out)
                if s < lanes:
                    flags[i, s] = drop_p | drop_n << 1
                if want_stored:
                    stored[i, s] = self._stored()
        return flags, stored

    def residuals(self):
        return self.pc.sum(axis=1, dtype=np.int64), self.nc.sum(axis=1, dtype=np.int64)


def _unbalanced(where, trial, lhs, rhs):
    return RuntimeError(f"conservation violated at {where} (trial {trial}): {lhs} != {rhs}")


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


def engine_batch(
    products,
    carry_len,
    cc_enabled=True,
    shift_direction="opposite",
    fault_schedules=None,
    check_conservation=False,
):
    """Run the sequential engine over a batch of trials.

    ``products``: (trials, lanes, cycles) int8 ternary lane products.
    Returns a dict with the emitted bit planes and per-trial counters.

    The input shift registers never read the carry registers, so each
    chunk of cycles runs in two stages. ``canceler_batch`` first computes
    the front pair delivered at each of the K high-clock steps of every
    cycle in the chunk at once. The carry registers then step through those
    deliveries in order: packed into one integer per trial and advanced by
    table gathers while 2M <= 16, as bit arrays above that. A fault XORs
    its cell at the start of its cycle.

    Every run ends with a per-trial ledger of signed units, loaded =
    emitted + stored + dropped_pos - dropped_neg - (stored change caused
    by faults), and raises RuntimeError on a mismatch.
    ``check_conservation`` checks the same law after every high-clock step
    and every emission.
    """
    products = np.asarray(products, dtype=np.int8)
    n_trials, lanes, n_cycles = products.shape
    m = int(carry_len)
    if m < 1:
        raise ValueError("carry_len must be >= 1")
    carry = (_PackedCarry if 2 * m <= _TABLE_MAX_BITS else _BitCarry)(m, n_trials)

    if fault_schedules is not None:
        f_trials, f_cycles, f_bits = fault_schedules
        if len(f_bits) and (f_bits.min() < 0 or f_bits.max() >= 2 * m):
            raise ValueError(f"fault cells must lie in [0, {2 * m})")
        starts = np.searchsorted(f_cycles, np.arange(n_cycles + 1))

    emitted_p = np.zeros((n_trials, n_cycles), dtype=np.int8)
    emitted_n = np.zeros((n_trials, n_cycles), dtype=np.int8)
    dropped_pos = np.zeros(n_trials, dtype=np.int64)
    dropped_neg = np.zeros(n_trials, dtype=np.int64)
    cc_counts = np.zeros(n_trials, dtype=np.int64)
    loaded = np.zeros(n_trials, dtype=np.int64)
    emitted = np.zeros(n_trials, dtype=np.int64)
    faulted = np.zeros(n_trials, dtype=np.int64)

    chunk = max(1, _CHUNK_ELEMENTS // max(1, n_trials * lanes))
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
        )
        cc_counts += cc.reshape(n_c, n_trials).sum(axis=0)
        deliveries = (dp.T - dn.T).reshape(lanes, n_c, n_trials)

        # stage 2: the carry registers, in step order
        flips = [None] * n_c
        if fault_schedules is not None:
            for i in range(n_c):
                lo, hi = starts[c0 + i], starts[c0 + i + 1]
                if hi > lo:
                    flips[i] = (f_trials[lo:hi], f_bits[lo:hi])
        faulted_c = np.zeros((n_c, n_trials), dtype=np.int64)
        flags, stored = carry.run(deliveries, flips, faulted_c, check_conservation)

        loaded_c = block.sum(axis=1, dtype=np.int64).T
        if check_conservation:
            totals = (loaded, emitted, dropped_pos - dropped_neg, faulted)
            _check_steps(deliveries, loaded_c, flags, stored, faulted_c, totals, c0)
        emitted_p[:, c0:c1] = (flags[:, lanes] & 1).T
        emitted_n[:, c0:c1] = (flags[:, lanes] >> 1).T
        dropped_pos += (flags[:, :lanes] & 1).sum(axis=(0, 1), dtype=np.int64)
        dropped_neg += (flags[:, :lanes] >> 1).sum(axis=(0, 1), dtype=np.int64)
        emitted += emitted_p[:, c0:c1].sum(axis=1, dtype=np.int64)
        emitted -= emitted_n[:, c0:c1].sum(axis=1, dtype=np.int64)
        loaded += loaded_c.sum(axis=0)
        faulted += faulted_c.sum(axis=0)

    residual_pos, residual_neg = carry.residuals()
    ledger = emitted + residual_pos - residual_neg + dropped_pos - dropped_neg - faulted
    if not np.array_equal(loaded, ledger):
        bad = int(np.argmax(loaded != ledger))
        raise _unbalanced("end of run", bad, loaded[bad], ledger[bad])

    return {
        "emitted_pos": emitted_p,
        "emitted_neg": emitted_n,
        "dropped_pos": dropped_pos,
        "dropped_neg": dropped_neg,
        "cc_cancellations": cc_counts,
        "residual_pos": residual_pos,
        "residual_neg": residual_neg,
    }


def tree_batch(products, counter_width, fault_schedules=None):
    """Run the counter-based adder tree over a batch of trials.

    ``products``: (trials, lanes, cycles) int8, lanes a power of two.
    Node storage is a flat (trials, lanes-1) counter array in level-major
    order, matching ``AdderTree.nodes``.
    """
    products = np.asarray(products, dtype=np.int8)
    n_trials, lanes, n_cycles = products.shape
    if lanes < 2 or lanes & (lanes - 1):
        raise ValueError("tree batch needs a power-of-two lane count >= 2")
    width = int(counter_width)
    c_max = 2 ** (width - 1) - 1
    wrap = 1 << width
    half = 1 << (width - 1)

    level_slices = []
    start, size = 0, lanes // 2
    while size >= 1:
        level_slices.append(slice(start, start + size))
        start += size
        size //= 2

    counters = np.zeros((n_trials, lanes - 1), dtype=np.int16)
    emitted = np.zeros((n_trials, n_cycles), dtype=np.int8)
    saturations = np.zeros(n_trials, dtype=np.int64)

    if fault_schedules is not None:
        f_trials, f_cycles, f_bits = fault_schedules
        starts = np.searchsorted(f_cycles, np.arange(n_cycles + 1))
    else:
        starts = None

    for cycle in range(n_cycles):
        if starts is not None:
            lo, hi = starts[cycle], starts[cycle + 1]
            if hi > lo:
                tr = f_trials[lo:hi]
                node = f_bits[lo:hi] // width
                pos = f_bits[lo:hi] % width
                # several flips may hit one counter in a cycle: combine the
                # XOR masks per (trial, node) before sign-extending once
                lin = tr * (lanes - 1) + node
                order = np.argsort(lin, kind="stable")
                lin_sorted = lin[order]
                masks = (np.int64(1) << pos)[order]
                uniq, first = np.unique(lin_sorted, return_index=True)
                combined = np.bitwise_xor.reduceat(masks, first)
                tr_u = uniq // (lanes - 1)
                nd_u = uniq % (lanes - 1)
                raw = counters[tr_u, nd_u].astype(np.int64) & (wrap - 1)
                raw ^= combined
                raw -= (raw >= half) * wrap
                counters[tr_u, nd_u] = raw.astype(np.int16)

        values = products[:, :, cycle].astype(np.int16)
        for sl in level_slices:
            t = values[:, 0::2] + values[:, 1::2] + counters[:, sl]
            z = np.clip(t, -1, 1)
            pending = t - z
            saturations += (np.abs(pending) > c_max).sum(axis=1, dtype=np.int64)
            np.clip(pending, -c_max, c_max, out=pending)
            counters[:, sl] = pending
            values = z
        emitted[:, cycle] = values[:, 0]

    return {
        "emitted": emitted,
        "saturation_events": saturations,
        "residual_sum": counters.sum(axis=1, dtype=np.int64),
    }


def canceler_batch(hold_pos, hold_neg, shift_direction="opposite", cc_enabled=True):
    """Input shift registers with carry cancelers, for every trial at once.

    Loads the input shift registers from hold-register bit planes, applies
    the lane-wise carry canceling of the load path, then performs K
    delivery/shift steps, recording the front pair handed to the
    accumulation stage before every shift. Returns (delivered_pos,
    delivered_neg, cancellations) with deliveries of shape (trials, K).
    This is the shift-direction experiment kernel and stage 1 of
    ``engine_batch``.

    Both registers shift one cell per step, so cell j at step s holds what
    was loaded into cell j + s. In that load frame nothing moves: step s
    delivers column s, and the cancelers of step s annihilate (+1, -1)
    pairs among the columns not yet delivered. With the opposite wiring
    the +1 in column c meets the -1 in column K + 2s - c; with the same
    wiring the pairs share a column. The columns left after the sweep are
    the deliveries.
    """
    hold_pos = np.asarray(hold_pos, dtype=np.int8)
    hold_neg = np.asarray(hold_neg, dtype=np.int8)
    if hold_pos.shape != hold_neg.shape or hold_pos.ndim != 2:
        raise ValueError("hold bit planes must share a (trials, lanes) shape")
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
    for first in firsts:
        movers_p = ps[first:]
        movers_n = ns[first:][::-1] if opposite else ns[first:]
        met = movers_p & movers_n
        movers_p ^= met
        movers_n ^= met
    # every +1 not delivered met a -1 at a canceler
    cancellations = hp.sum(axis=0, dtype=np.int64) - ps.sum(axis=0, dtype=np.int64)
    return ps.T, ns.T, cancellations
