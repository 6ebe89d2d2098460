"""TLB multiplier and the shift-register-based non-scaled adder.

The multiplier converts its TLB inputs to SM, multiplies them and converts
back, through the bit functions of ``convert.py``; on uint8 arrays the same
functions give the whole product stream.

The non-scaled adder emits the true per-position sum of two ternary
streams instead of their average. Excess units that cannot be represented
in a single ternary output symbol are buffered as pending carries in two
shift registers (one for +1 carries, one for -1 carries) and drained or
canceled on later positions. Its kernel is ``add_ternary``, which steps
one pair of streams on Python ints and holds the two registers as one
signed count; ``nonscaled_add`` runs it on two TLB streams, and
``tests/oracles.py`` keeps the register-level model it is checked against.
"""

import operator
from dataclasses import dataclass

import numpy as np

from .batch import _check_ledger, _saturate
from .convert import sm_multiply_bit, sm_to_tlb_bit, tlb_to_sm_bit
from .streams import TlbStream, _integer, _write_rows, ternary_values

__all__ = [
    "AdderDiagnostics",
    "add_ternary",
    "nonscaled_add",
    "tlb_multiply_bit",
    "tlb_multiply",
]


@dataclass
class AdderDiagnostics:
    """Bookkeeping for one non-scaled addition run."""

    overflow_events: int = 0
    residual_pos: int = 0
    residual_neg: int = 0


def tlb_multiply_bit(xp, xn, yp, yn):
    """One-position TLB product: convert to SM, multiply, convert back.

    The returned pair is canonical and satisfies
    vp - vn == (xp - xn) * (yp - yn). Works on bits and on uint8 arrays.
    """
    return sm_to_tlb_bit(*sm_multiply_bit(*tlb_to_sm_bit(xp, xn), *tlb_to_sm_bit(yp, yn)))


def tlb_multiply(x, y):
    """Position-wise TLB product stream."""
    if x.length != y.length:
        raise ValueError("multiplier input streams must have equal length")
    return TlbStream(*tlb_multiply_bit(x.pos.bits, x.neg.bits, y.pos.bits, y.neg.bits))


def add_ternary(x, y, capacity):
    """Run the shift-register non-scaled adder over one pair of streams.

    ``x``, ``y``: equal-length sequences of the ternary symbols -1, 0, +1
    as Python ints. The adder keeps its pending carries in a +1 and a -1
    shift register of M = ``capacity`` cells. Fault-free, both hold
    thermometer codes and at most one of them is non-empty, so the pair is
    exactly a signed count c in [-M, M]: the +1 register holds max(c, 0)
    ones and the -1 register max(-c, 0). Per position, with s = x + y, the
    adder emits z = clamp(s + sign(c), -1, 1) and keeps c + s - z,
    saturated at +-M; every clamp is an overflow event.

    Returns three lists: the output symbols, and after every position the
    signed count and the overflow events so far. Every run ends with the
    ledger of signed units, loaded = emitted + stored + units removed by the
    clamp, and raises RuntimeError on a mismatch.
    """
    if len(x) != len(y):
        raise ValueError("adder input streams must have equal length")
    capacity = _integer(capacity, "register capacity")
    emitted, stored, events = [], [], []
    count = removed = overflows = 0
    for s in map(operator.add, x, y):
        z = s + (count > 0) - (count < 0)
        z = (z > 0) - (z < 0)  # clamp(z, -1, 1) of an integer
        count += s - z
        if not -capacity <= count <= capacity:
            count, lost = _saturate(count, capacity)
            removed += lost
            overflows += 1
        emitted.append(z)
        stored.append(count)
        events.append(overflows)
    _check_ledger(np.array([sum(x) + sum(y)]), np.array([sum(emitted) + count + removed]))
    return emitted, stored, events


def nonscaled_add(x, y, capacity, trace_path=None):
    """Add two TLB streams without scaling; returns (stream, diagnostics).

    ``add_ternary`` of their ternary symbols. Residual carries left in the
    registers after the last position are reported in the diagnostics, not
    folded into the output stream. ``trace_path`` writes one CSV row per
    position with the register counts and the overflow events so far.
    """
    xt = ternary_values(x).tolist()
    yt = ternary_values(y).tolist()
    z, stored, events = add_ternary(xt, yt, capacity)
    if trace_path is not None:
        counts = np.array(stored, dtype=np.int64)
        rows = np.column_stack([
            np.arange(1, len(z) + 1), xt, yt, z,
            np.maximum(counts, 0), np.maximum(-counts, 0), events,
        ])
        with open(trace_path, "w", newline="") as handle:
            _write_rows(handle, rows, ("l", "x", "y", "z", "pc_count", "nc_count", "overflows"))
    residual = stored[-1]
    diagnostics = AdderDiagnostics(
        overflow_events=events[-1],
        residual_pos=max(residual, 0),
        residual_neg=max(-residual, 0),
    )
    z = np.array(z, dtype=np.int8)
    return TlbStream((z == 1).view(np.uint8), (z == -1).view(np.uint8)), diagnostics
