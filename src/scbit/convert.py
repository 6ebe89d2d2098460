"""The multiplier cell's bit logic: TLB/SM conversion and the SM product.

The bit functions are the single place this logic is written. They take
0/1 ints or uint8 arrays alike, so the stream converters and the TLB
multiplier in ``adder.py`` call them. Both conversions preserve the per-position ternary symbol.
The don't-care sign bit of a zero-magnitude SM position is resolved as
s = n, and the TLB pair produced from SM is canonical: (1,1) never appears.
"""

from .streams import SmStream, TlbStream

__all__ = ["tlb_to_sm_bit", "sm_to_tlb_bit", "sm_multiply_bit", "tlb_to_sm", "sm_to_tlb"]


def tlb_to_sm_bit(p, n):
    """(pos, neg) bit pair to (sign, magnitude); magnitude is p XOR n."""
    return n, p ^ n


def sm_to_tlb_bit(s, m):
    """(sign, magnitude) bit pair to canonical (pos, neg)."""
    return m & (s ^ 1), m & s


def sm_multiply_bit(xs, xm, ys, ym):
    """One-position SM product: sign XOR, magnitude AND."""
    return xs ^ ys, xm & ym


def tlb_to_sm(stream):
    """Position-wise TLB to SM conversion; decoded value preserved exactly."""
    return SmStream(*tlb_to_sm_bit(stream.pos.bits, stream.neg.bits))


def sm_to_tlb(stream):
    """Position-wise SM to TLB conversion; output pairs are canonical."""
    return TlbStream(*sm_to_tlb_bit(stream.sign.bits, stream.magnitude.bits))
