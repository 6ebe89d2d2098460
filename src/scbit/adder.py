"""TLB multiplier and the shift-register-based non-scaled adder.

The multiplier converts its TLB inputs to SM, multiplies them and converts
back, through the bit functions of ``convert.py``; on uint8 arrays the same
functions give the whole product stream.

The non-scaled adder emits the true per-position sum of two ternary
streams instead of their average. Excess units that cannot be represented
in a single ternary output symbol are buffered as pending carries in two
shift registers (one for +1 carries, one for -1 carries) and drained or
canceled on later positions. ``nonscaled_add`` runs it as a batch of one
pair of ``batch.adder_batch``, which holds the two registers as one signed
count; ``tests/oracles.py`` keeps the register-level model it is checked
against.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .batch import adder_batch
from .convert import sm_multiply_bit, sm_to_tlb_bit, tlb_to_sm_bit
from .streams import TlbStream, ternary_values

__all__ = [
    "AdderDiagnostics",
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


def nonscaled_add(x, y, capacity, trace_path=None):
    """Add two TLB streams without scaling; returns (stream, diagnostics).

    A batch of one pair of ``adder_batch``. Residual carries left in the
    registers after the last position are reported in the diagnostics, not
    folded into the output stream. ``trace_path`` writes one CSV row per
    position with the register counts and the overflow events so far.
    """
    if x.length != y.length:
        raise ValueError("adder input streams must have equal length")
    xt = ternary_values(x)
    yt = ternary_values(y)
    emitted, stored, overflows = adder_batch(xt[None], yt[None], capacity)
    z = emitted[0]
    count = stored[0]
    if trace_path is not None:
        # an overflow drops a unit: the count then moves by other than s - z
        events = np.cumsum(np.diff(count, prepend=0) != xt + yt - z)
        rows = np.stack([
            np.arange(1, len(z) + 1), xt, yt, z, np.maximum(count, 0), np.maximum(-count, 0),
            events,
        ])
        with open(trace_path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(("l", "x", "y", "z", "pc_count", "nc_count", "overflows"))
            writer.writerows(rows.T.tolist())
    residual = int(count[-1])
    diagnostics = AdderDiagnostics(
        overflow_events=int(overflows[0]),
        residual_pos=max(residual, 0),
        residual_neg=max(-residual, 0),
    )
    return TlbStream((z == 1).view(np.uint8), (z == -1).view(np.uint8)), diagnostics
