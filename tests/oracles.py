"""Scalar oracles of the designs: one register and one clock edge at a
time, independent of the trial-batched kernels in ``scbit.batch``, which
the tests check against them bit for bit. The carry shift register and the
non-scaled adder are kept cell by cell here; the adder kernel holds the
adder's two registers as one signed count."""

import csv

import numpy as np

from scbit import EngineDiagnostics, TlbStream, tlb_multiply_bit
from scbit.batch import TRACE_COLUMNS


class CarryShiftRegister:
    """Length-M shift register storing pending carry bits.

    cells[0] is the front (the end read by the update logic and the output
    stage). A carry enters by shifting a one in at the front; a carry
    leaves by shifting a zero in at the back. Fault-free contents are a
    thermometer code (ones packed at the front), but the cells are stored
    literally so injected faults behave like real storage upsets:
    shift operations stay literal shifts regardless of the pattern.

    Shifting a one into a full register drops the bit falling off the back
    and counts an overflow event (saturation).
    """

    __slots__ = ("capacity", "cells", "overflow_events")

    def __init__(self, capacity):
        if capacity < 1:
            raise ValueError("register capacity must be at least 1")
        self.capacity = int(capacity)
        self.cells = [0] * self.capacity
        self.overflow_events = 0

    def front(self):
        return self.cells[0]

    def shift_in(self):
        """Insert a carry at the front; saturating on a full register."""
        dropped = self.cells[-1]
        self.cells[:] = [1] + self.cells[:-1]
        if dropped:
            self.overflow_events += 1
        return dropped

    def shift_out(self):
        """Literal shift toward the front with zero fill at the back."""
        self.cells[:] = self.cells[1:] + [0]

    def ones(self):
        return sum(self.cells)

    def flip_cell(self, index):
        """Fault hook: toggle one storage cell."""
        if not 0 <= index < self.capacity:
            raise IndexError(f"cell {index} out of range for capacity {self.capacity}")
        self.cells[index] ^= 1

    def is_thermometer(self):
        k = self.ones()
        return all(self.cells[i] == (1 if i < k else 0) for i in range(self.capacity))

    def __repr__(self):
        return f"CarryShiftRegister({''.join(map(str, self.cells))})"


class NonScaledAdder:
    """Stepwise update logic of the shift-register non-scaled adder.

    Per position, on the ternary input symbols x and y with s = x + y:

    * s ==  0: emit pc[0] - nc[0]; both registers shift out
    * s == +1: emit 1 - nc[0]; nc shifts out
    * s == -1: emit pc[0] - 1; pc shifts out
    * s == +2: emit +1; cancel a stored -1 if nc[0] == 1, else store a +1
    * s == -2: emit -1; cancel a stored +1 if pc[0] == 1, else store a -1
    """

    def __init__(self, capacity):
        self.pos_carries = CarryShiftRegister(capacity)
        self.neg_carries = CarryShiftRegister(capacity)

    def step(self, x, y):
        pc = self.pos_carries
        nc = self.neg_carries
        s = x + y
        if s == 0:
            z = pc.front() - nc.front()
            pc.shift_out()
            nc.shift_out()
        elif s == 1:
            z = 1 - nc.front()
            nc.shift_out()
        elif s == -1:
            z = pc.front() - 1
            pc.shift_out()
        elif s == 2:
            z = 1
            if nc.front():
                nc.shift_out()
            else:
                pc.shift_in()
        else:  # s == -2
            z = -1
            if pc.front():
                pc.shift_out()
            else:
                nc.shift_in()
        return z

    @property
    def overflow_events(self):
        return self.pos_carries.overflow_events + self.neg_carries.overflow_events

    def stored_sum(self):
        """Signed number of pending carry units."""
        return self.pos_carries.ones() - self.neg_carries.ones()


class EngineStateError(RuntimeError):
    """Raised when the two clock domains are driven out of order."""


def carry_cancel(a, b):
    """Carry canceler cell: both outputs zero iff both inputs are one."""
    return a & (b ^ 1), b & (a ^ 1)


class InnerProductEngine:
    """Cycle-exact register file of the inner-product architecture."""

    def __init__(self, config):
        self.config = config
        k = config.lanes
        self.hold_pos = np.zeros(k, dtype=np.uint8)
        self.hold_neg = np.zeros(k, dtype=np.uint8)
        self.shift_pos = np.zeros(k, dtype=np.uint8)
        self.shift_neg = np.zeros(k, dtype=np.uint8)
        self.carry_pos = CarryShiftRegister(config.carry_len)
        self.carry_neg = CarryShiftRegister(config.carry_len)
        self.out_pos = 0
        self.out_neg = 0
        self.main_cycles = 0
        self.high_steps = config.lanes  # ready for the first load
        self.cc_cancellations = 0
        self.dropped_pos = 0
        self.dropped_neg = 0

    def flip_carry_cell(self, flat_index):
        """Toggle one carry storage cell; indices 0..M-1 hit the +1
        register, M..2M-1 the -1 register."""
        m = self.config.carry_len
        if not 0 <= flat_index < 2 * m:
            raise IndexError(f"carry cell {flat_index} out of range")
        if flat_index < m:
            self.carry_pos.flip_cell(flat_index)
        else:
            self.carry_neg.flip_cell(flat_index - m)

    def latch_products(self, x_bits, y_bits):
        """Multiplier stage: compute lane products into the hold registers."""
        k = self.config.lanes
        if len(x_bits) != k or len(y_bits) != k:
            raise ValueError(f"expected {k} bit pairs per input vector")
        for lane, ((xp, xn), (yp, yn)) in enumerate(zip(x_bits, y_bits)):
            self.hold_pos[lane], self.hold_neg[lane] = tlb_multiply_bit(xp, xn, yp, yn)

    def load_inputs(self):
        """Copy the hold registers into the input shift registers.

        Only legal once the previous cycle's K high-clock steps are done.
        """
        if self.high_steps != self.config.lanes:
            raise EngineStateError(
                "load attempted mid-sequence "
                f"({self.high_steps}/{self.config.lanes} high-clock steps done)"
            )
        self.shift_pos[:] = self.hold_pos
        if self.config.shift_direction == "opposite":
            self.shift_neg[:] = self.hold_neg[::-1]
        else:
            self.shift_neg[:] = self.hold_neg
        self.high_steps = 0

    def _accumulate(self):
        """One accumulation update from the current fronts."""
        x = int(self.shift_pos[0]) - int(self.shift_neg[0])
        pc = self.carry_pos
        nc = self.carry_neg
        cp = pc.front()
        cn = nc.front()
        c = cp - cn
        if x == 0:
            if c == 0:
                pc.shift_out()
                nc.shift_out()
        elif x == 1:
            if c == 0:
                if cp:  # both fronts set (possible only after a fault)
                    nc.shift_out()
                else:
                    self.dropped_pos += pc.shift_in()
            elif c == -1:
                nc.shift_out()
            else:  # c == +1
                self.dropped_pos += pc.shift_in()
        else:  # x == -1
            if c == 0:
                if cp:
                    pc.shift_out()
                else:
                    self.dropped_neg += nc.shift_in()
            elif c == 1:
                pc.shift_out()
            else:  # c == -1
                self.dropped_neg += nc.shift_in()

    def _shift_inputs(self):
        """Advance both input shift registers one cell, canceling carries."""
        k = self.config.lanes
        ps = self.shift_pos
        ns = self.shift_neg
        new_ps = np.zeros(k, dtype=np.uint8)
        new_ns = np.zeros(k, dtype=np.uint8)
        if k > 1:
            movers_p = ps[1:]
            movers_n = ns[1:]
            if not self.config.cc_enabled:
                new_ps[: k - 1] = movers_p
                new_ns[: k - 1] = movers_n
            else:
                if self.config.shift_direction == "opposite":
                    mask_p = ns[::-1][: k - 1]
                    mask_n = ps[::-1][: k - 1]
                else:
                    mask_p = ns[1:]
                    mask_n = ps[1:]
                self.cc_cancellations += int((movers_p & mask_p).sum())
                new_ps[: k - 1] = movers_p & (mask_p ^ 1)
                new_ns[: k - 1] = movers_n & (mask_n ^ 1)
        self.shift_pos = new_ps
        self.shift_neg = new_ns

    def high_clock_step(self):
        """Accumulate from the current fronts, then shift the inputs."""
        if self.high_steps >= self.config.lanes:
            raise EngineStateError("high-clock step past the end of the sequence")
        self._accumulate()
        self._shift_inputs()
        self.high_steps += 1

    def emit(self):
        """Copy carry fronts to the output flip-flops and consume them."""
        zp = self.carry_pos.front()
        zn = self.carry_neg.front()
        if zp:
            self.carry_pos.shift_out()
        if zn:
            self.carry_neg.shift_out()
        self.out_pos = zp
        self.out_neg = zn
        return zp, zn

    def main_clock_cycle(self, x_bits, y_bits, observer=None):
        """One full main-clock cycle; returns the output bit pair.

        ``observer(engine, substep)`` is called before each high-clock step
        (substep 0..K-1) and once after emission (substep K), for tracing.
        """
        if self.main_cycles >= self.config.stream_len:
            raise EngineStateError("input streams exhausted")
        self.latch_products(x_bits, y_bits)
        self.load_inputs()
        for step in range(self.config.lanes):
            if observer is not None:
                observer(self, step)
            self.high_clock_step()
        zp, zn = self.emit()
        if observer is not None:
            observer(self, self.config.lanes)
        self.main_cycles += 1
        return zp, zn

    def inflight_sum(self):
        """Signed content of the input shift registers."""
        return int(self.shift_pos.sum()) - int(self.shift_neg.sum())

    def carry_sum(self):
        return self.carry_pos.ones() - self.carry_neg.ones()

    def diagnostics(self):
        return EngineDiagnostics(
            cc_cancellations=self.cc_cancellations,
            dropped_pos=self.dropped_pos,
            dropped_neg=self.dropped_neg,
            residual_pos=self.carry_pos.ones(),
            residual_neg=self.carry_neg.ones(),
        )


def adder_oracle(xs, ys, capacity):
    """Brute-force interpreter of the non-scaled adder update logic.

    Registers are plain lists; shift in inserts a one at the front, shift
    out drops the front with zero fill at the back. Returns (outputs,
    residual +1 carries, residual -1 carries, overflow events).
    """
    pc = [0] * capacity
    nc = [0] * capacity
    zs = []
    overflow = 0
    for x, y in zip(xs, ys):
        s = x + y
        if s == 0:
            z = pc[0] - nc[0]
            pc = pc[1:] + [0]
            nc = nc[1:] + [0]
        elif s == 1:
            z = 1 - nc[0]
            nc = nc[1:] + [0]
        elif s == -1:
            z = pc[0] - 1
            pc = pc[1:] + [0]
        elif s == 2:
            z = 1
            if nc[0] == 1:
                nc = nc[1:] + [0]
            else:
                overflow += pc[-1]
                pc = [1] + pc[:-1]
        else:
            z = -1
            if pc[0] == 1:
                pc = pc[1:] + [0]
            else:
                overflow += nc[-1]
                nc = [1] + nc[:-1]
        zs.append(z)
    return zs, sum(pc), sum(nc), overflow


def tlb_from_ternary(values):
    arr = np.asarray(values, dtype=np.int8)
    return TlbStream((arr == 1).astype(np.uint8), (arr == -1).astype(np.uint8))


class CounterAdderNode:
    """Non-scaled adder buffering its pending carry in a signed counter.

    The counter is a B-bit two's-complement register clamped to the
    symmetric range [-(2^(B-1) - 1), 2^(B-1) - 1]; clamping increments the
    saturation count. Fault injection toggles raw two's-complement bits.
    """

    def __init__(self, width):
        if width < 1:
            raise ValueError("counter width must be at least 1")
        self.width = int(width)
        self.c_max = 2 ** (self.width - 1) - 1
        self.counter = 0
        self.saturation_events = 0

    def step(self, x, y):
        """Consume two ternary inputs, emit one ternary output."""
        t = x + y + self.counter
        z = max(-1, min(1, t))
        pending = t - z
        if abs(pending) > self.c_max:
            pending = self.c_max if pending > 0 else -self.c_max
            self.saturation_events += 1
        self.counter = pending
        return z

    def flip_bit(self, bit_index):
        """Fault hook: toggle one bit of the two's-complement counter."""
        if not 0 <= bit_index < self.width:
            raise IndexError(f"bit {bit_index} out of range for width {self.width}")
        raw = (self.counter & (2**self.width - 1)) ^ (1 << bit_index)
        self.counter = raw - 2**self.width if raw >= 2 ** (self.width - 1) else raw


class AdderTree:
    """Binary tree of counter adders over a power-of-two number of lanes.

    Nodes are stored level-major, leaf level first; ``nodes[0]`` adds
    lanes 0 and 1. One ``step`` consumes one ternary product per lane and
    emits the root's ternary output for that position.
    """

    def __init__(self, leaves, width):
        if leaves < 2 or leaves & (leaves - 1):
            raise ValueError("tree needs a power-of-two lane count >= 2")
        self.leaves = leaves
        self.levels = []
        size = leaves // 2
        while size >= 1:
            self.levels.append([CounterAdderNode(width) for _ in range(size)])
            size //= 2

    @property
    def nodes(self):
        return [node for level in self.levels for node in level]

    @property
    def depth(self):
        return len(self.levels)

    def step(self, products):
        if len(products) != self.leaves:
            raise ValueError(f"expected {self.leaves} lane products")
        values = list(products)
        for level in self.levels:
            values = [node.step(values[2 * i], values[2 * i + 1]) for i, node in enumerate(level)]
        return values[0]

    def saturation_events(self):
        return sum(node.saturation_events for node in self.nodes)

    def stored_sum(self):
        return sum(node.counter for node in self.nodes)


# -- drivers ---------------------------------------------------------------

PAIR = {1: (1, 0), 0: (0, 0), -1: (0, 1)}  # canonical TLB pair of a ternary


def drive_cycle(engine, products, observer=None):
    """One main cycle from given lane product ternaries (y lanes all one)."""
    x_bits = [PAIR[v] for v in products]
    return engine.main_clock_cycle(x_bits, [(1, 0)] * len(products), observer)


def _flips_by_cycle(schedule):
    flips = {}
    for cycle, cell in schedule:
        flips.setdefault(int(cycle), []).append(int(cell))
    return flips


def trace_observer(handle):
    """Observer writing the per-cycle trace CSV to ``handle``, header first."""
    writer = csv.writer(handle)
    writer.writerow(TRACE_COLUMNS)

    def observe(eng, substep):
        writer.writerow((
            eng.main_cycles + 1, substep, int(eng.shift_pos[0]), int(eng.shift_neg[0]),
            eng.carry_pos.ones(), eng.carry_neg.ones(), eng.out_pos, eng.out_neg,
            eng.cc_cancellations,
        ))

    return observe


def run_engine(products, config, fault_schedule=(), observer=None):
    """Drive the engine over (K, L) lane products; returns (TlbStream, diagnostics).

    Each lane's x input carries its product and its y input is +1, so the
    multiplier stage passes the product through. Cells of
    ``fault_schedule`` (cycle, cell) toggle at the start of their cycle.
    """
    products = np.asarray(products)
    engine = InnerProductEngine(config)
    flips = _flips_by_cycle(fault_schedule)
    out = np.zeros((2, config.stream_len), dtype=np.uint8)
    for l in range(config.stream_len):
        for cell in flips.get(l, ()):
            engine.flip_carry_cell(cell)
        out[:, l] = drive_cycle(engine, products[:, l].tolist(), observer)
    return TlbStream(*out), engine.diagnostics()


def run_tree(products, width, fault_schedule=()):
    """Drive the tree over (K, L) lane products.

    Returns (emitted ternary symbols, saturation events, residual sum).
    Flat cell ``node * width + bit`` of ``fault_schedule`` toggles at the
    start of its cycle.
    """
    products = np.asarray(products)
    tree = AdderTree(products.shape[0], width)
    nodes = tree.nodes
    flips = _flips_by_cycle(fault_schedule)
    emitted = np.zeros(products.shape[1], dtype=np.int8)
    for l in range(products.shape[1]):
        for cell in flips.get(l, ()):
            nodes[cell // width].flip_bit(cell % width)
        emitted[l] = tree.step(products[:, l].tolist())
    return emitted, tree.saturation_events(), tree.stored_sum()
