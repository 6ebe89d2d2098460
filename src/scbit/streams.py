"""Bit streams and the four stochastic encoding formats.

A value is carried by the statistics of a random bit stream. Supported
encodings:

* unipolar: x in [0, 1], one stream, x = mean of the bits
* bipolar: x in [-1, 1], one stream, x = mean of (2*bit - 1)
* signed magnitude (SM): x in [-1, 1], a sign stream and a magnitude stream
* two-line bipolar (TLB): x in [-1, 1], difference of two unipolar streams

Per position, a two-line stream carries a ternary symbol in {-1, 0, +1}:
``pos - neg`` for TLB and ``(1 - 2*sign) * mag`` for SM.

Generation uses the comparator construction: a bit is 1 whenever the next
uniform sample falls below the target probability. Streams are stored as
immutable numpy byte vectors; indices are 0-based in the API, 1-based only
in the ``l`` column of trace CSV files.
"""

import csv

import numpy as np

__all__ = [
    "BitStream",
    "TlbStream",
    "SmStream",
    "encode_unipolar",
    "decode_unipolar",
    "encode_bipolar",
    "decode_bipolar",
    "encode_tlb",
    "decode_tlb",
    "encode_sm",
    "decode_sm",
    "ternary_at",
    "ternary_values",
    "write_stream_csv",
    "read_stream_csv",
]


def _as_bits(values):
    arr = np.asarray(values)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("bit stream must be a non-empty 1-d sequence")
    if not ((arr == 0) | (arr == 1)).all():
        raise ValueError("bit stream symbols must be 0 or 1")
    out = np.ascontiguousarray(arr, dtype=np.uint8)
    out.flags.writeable = False
    return out


def _wrap_bits(bits):
    """BitStream over a 0/1 uint8 vector this module just built.

    The encoders build their lines from a comparison or a constant fill, so
    the lines are valid by construction: this skips ``_as_bits`` and its
    copy, and only makes the vector read-only as ``_as_bits`` would.
    """
    bits.flags.writeable = False
    stream = object.__new__(BitStream)
    stream.bits = bits
    return stream


def _wrap_pair(cls, first, second):
    """TlbStream or SmStream over two generated lines of equal length."""
    stream = object.__new__(cls)
    for name, bits in zip(cls.__slots__, (first, second)):
        setattr(stream, name, _wrap_bits(bits))
    return stream


def _draw(p, length, rng):
    """Comparator bits: 1 wherever the next uniform sample is below ``p``."""
    return (rng.uniform(length) < p).view(np.uint8)


class BitStream:
    """Immutable, fixed-length sequence of 0/1 symbols."""

    __slots__ = ("bits",)

    def __init__(self, bits):
        self.bits = _as_bits(bits)

    @classmethod
    def zeros(cls, length):
        return cls(np.zeros(length, dtype=np.uint8))

    @classmethod
    def ones(cls, length):
        return cls(np.ones(length, dtype=np.uint8))

    @property
    def length(self):
        return int(self.bits.size)

    def popcount(self):
        return int(self.bits.sum())

    def __len__(self):
        return self.length

    def __getitem__(self, index):
        return int(self.bits[index])

    def __eq__(self, other):
        return isinstance(other, BitStream) and np.array_equal(self.bits, other.bits)

    def __repr__(self):
        head = "".join(str(b) for b in self.bits[:16])
        tail = "..." if self.length > 16 else ""
        return f"BitStream({head}{tail}, length={self.length})"


class TlbStream:
    """Two-line bipolar stream: value is mean(pos - neg)."""

    __slots__ = ("pos", "neg")

    def __init__(self, pos, neg):
        if not isinstance(pos, BitStream):
            pos = BitStream(pos)
        if not isinstance(neg, BitStream):
            neg = BitStream(neg)
        if pos.length != neg.length:
            raise ValueError("pos and neg streams must have equal length")
        self.pos = pos
        self.neg = neg

    @property
    def length(self):
        return self.pos.length

    def __len__(self):
        return self.length

    def __eq__(self, other):
        return (
            isinstance(other, TlbStream)
            and self.pos == other.pos
            and self.neg == other.neg
        )

    def __repr__(self):
        return f"TlbStream(length={self.length}, value={decode_tlb(self):+.4f})"


class SmStream:
    """Signed-magnitude stream: value is mean((1 - 2*sign) * magnitude)."""

    __slots__ = ("sign", "magnitude")

    def __init__(self, sign, magnitude):
        if not isinstance(sign, BitStream):
            sign = BitStream(sign)
        if not isinstance(magnitude, BitStream):
            magnitude = BitStream(magnitude)
        if sign.length != magnitude.length:
            raise ValueError("sign and magnitude streams must have equal length")
        self.sign = sign
        self.magnitude = magnitude

    @property
    def length(self):
        return self.sign.length

    def __len__(self):
        return self.length

    def __eq__(self, other):
        return (
            isinstance(other, SmStream)
            and self.sign == other.sign
            and self.magnitude == other.magnitude
        )

    def __repr__(self):
        return f"SmStream(length={self.length}, value={decode_sm(self):+.4f})"


def _check_length(length):
    if int(length) < 1:
        raise ValueError("stream length must be at least 1")
    return int(length)


def encode_unipolar(x, length, rng):
    """Draw a Bernoulli(x) stream of the given length."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"unipolar value must be in [0, 1], got {x}")
    length = _check_length(length)
    return _wrap_bits(_draw(x, length, rng))


def decode_unipolar(stream):
    """Fraction of ones; exact multiple of 1/L."""
    return stream.popcount() / stream.length


def encode_bipolar(x, length, rng):
    """Single-stream encoding of x in [-1, 1] via Bernoulli((x+1)/2)."""
    if not -1.0 <= x <= 1.0:
        raise ValueError(f"bipolar value must be in [-1, 1], got {x}")
    length = _check_length(length)
    return _wrap_bits(_draw((x + 1.0) / 2.0, length, rng))


def decode_bipolar(stream):
    """Mean of (2*bit - 1); resolution 2/L."""
    return (2 * stream.popcount() - stream.length) / stream.length


def encode_tlb(x, length, rng):
    """Two-line bipolar encoding with one component stream held all-zero.

    Only the difference of the two lines matters, so the generator encodes
    |x| on the line matching the sign of x and zeros the other line.
    """
    if not -1.0 <= x <= 1.0:
        raise ValueError(f"two-line bipolar value must be in [-1, 1], got {x}")
    length = _check_length(length)
    magnitude = _draw(abs(x), length, rng)
    zero = np.zeros(length, dtype=np.uint8)
    if x >= 0:
        return _wrap_pair(TlbStream, magnitude, zero)
    return _wrap_pair(TlbStream, zero, magnitude)


def decode_tlb(stream):
    """Mean of (pos - neg); exact multiple of 1/L."""
    total = int(stream.pos.bits.sum()) - int(stream.neg.bits.sum())
    return total / stream.length


def encode_sm(x, length, rng):
    """Signed-magnitude encoding: constant sign bit, Bernoulli(|x|) magnitude."""
    if not -1.0 <= x <= 1.0:
        raise ValueError(f"signed-magnitude value must be in [-1, 1], got {x}")
    length = _check_length(length)
    magnitude = _draw(abs(x), length, rng)
    sign = np.full(length, x < 0, dtype=np.uint8)
    return _wrap_pair(SmStream, sign, magnitude)


def decode_sm(stream):
    """Mean of (1 - 2*sign) * magnitude; exact multiple of 1/L."""
    mag = stream.magnitude.bits
    neg_ones = int((stream.sign.bits & mag).sum())
    total = int(mag.sum()) - 2 * neg_ones
    return total / stream.length


def ternary_values(stream):
    """Per-position ternary symbols of a two-line stream as an int8 array."""
    if isinstance(stream, TlbStream):
        return stream.pos.bits.astype(np.int8) - stream.neg.bits.astype(np.int8)
    if isinstance(stream, SmStream):
        sign = stream.sign.bits.astype(np.int8)
        return (1 - 2 * sign) * stream.magnitude.bits.astype(np.int8)
    raise TypeError("ternary symbols are defined for TlbStream and SmStream")


def ternary_at(stream, index):
    """Ternary symbol of a two-line stream at a 0-based position."""
    if not 0 <= index < stream.length:
        raise IndexError(f"position {index} out of range for length {stream.length}")
    if isinstance(stream, TlbStream):
        return stream.pos[index] - stream.neg[index]
    if isinstance(stream, SmStream):
        return (1 - 2 * stream.sign[index]) * stream.magnitude[index]
    raise TypeError("ternary symbols are defined for TlbStream and SmStream")


# Trace file columns per stream type. The l column is 1-based.
_TRACE_COLUMNS = {
    BitStream: ("l", "bit"),
    TlbStream: ("l", "pos", "neg"),
    SmStream: ("l", "sign", "mag"),
}


def write_stream_csv(stream, path):
    """Dump a stream to a trace CSV (one row per position, 1-based l)."""
    columns = _TRACE_COLUMNS[type(stream)]
    if isinstance(stream, BitStream):
        rows = ((l + 1, int(b)) for l, b in enumerate(stream.bits))
    elif isinstance(stream, TlbStream):
        rows = (
            (l + 1, int(p), int(n))
            for l, (p, n) in enumerate(zip(stream.pos.bits, stream.neg.bits))
        )
    else:
        rows = (
            (l + 1, int(s), int(m))
            for l, (s, m) in enumerate(zip(stream.sign.bits, stream.magnitude.bits))
        )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def read_stream_csv(path):
    """Read a trace CSV back; returns (format_name, stream)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader, ()))
        body = [[int(v) for v in row] for row in reader if row]
    if not body:
        raise ValueError(f"empty stream file: {path}")
    data = np.array(body, dtype=np.int64)
    if header == ("l", "bit"):
        return "unipolar", BitStream(data[:, 1])
    if header == ("l", "pos", "neg"):
        return "tlb", TlbStream(data[:, 1], data[:, 2])
    if header == ("l", "sign", "mag"):
        return "sm", SmStream(data[:, 1], data[:, 2])
    raise ValueError(f"unrecognized stream file header: {header}")
