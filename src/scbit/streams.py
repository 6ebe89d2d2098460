"""Bit streams and the four stochastic encoding formats.

A value is carried by the statistics of a random bit stream. Supported
encodings:

* unipolar: x in [0, 1], one stream, x = mean of the bits
* bipolar: x in [-1, 1], one stream, x = mean of (2*bit - 1)
* signed magnitude (SM): x in [-1, 1], a sign stream and a magnitude stream
* two-line bipolar (TLB): x in [-1, 1], difference of two unipolar streams

Per position, a two-line stream carries a ternary symbol in {-1, 0, +1}:
``pos - neg`` for TLB and ``(1 - 2*sign) * mag`` for SM. ``TlbStream`` and
``SmStream`` share one base class, which validates the two lines and holds
length, equality and repr; each subclass names its lines in ``__slots__``
and writes its ternary rule as the static ``_ternary`` on int8 lines.
``FORMATS`` is the one table of formats: it maps each name to its encoder,
decoder, stream class and stream-file columns, and the stream-file reader
and writer and the CLI read it.

Generation uses the comparator construction: a bit is 1 whenever the next
uniform sample falls below the target probability. Streams are stored as
immutable numpy byte vectors; indices are 0-based in the API, 1-based only
in the ``l`` column of trace CSV files.
"""

import csv
import itertools
import numbers
from typing import Callable, NamedTuple

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


def _draw(p, length, rng, samples=None, out=None):
    """Comparator bits, as bools: 1 wherever the next uniform sample is below
    ``p``.

    Draws into the float64 buffer ``samples`` and writes the bits into the
    bool array ``out`` where given; ``length`` is then None, since numpy reads
    the size from a buffer faster than it checks a given size against it.
    """
    return np.less(rng.uniform(length, out=samples), p, out=out)


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


class _TwoLineStream:
    """Two equal-length bit lines, named by the subclass's ``__slots__``."""

    __slots__ = ()

    def __init__(self, first, second):
        lines = [b if isinstance(b, BitStream) else BitStream(b) for b in (first, second)]
        if lines[0].length != lines[1].length:
            raise ValueError("{} and {} streams must have equal length".format(*self.__slots__))
        for name, line in zip(self.__slots__, lines):
            setattr(self, name, line)

    def _lines(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    @property
    def length(self):
        return getattr(self, self.__slots__[0]).length

    def __len__(self):
        return self.length

    def __eq__(self, other):
        return isinstance(other, type(self)) and self._lines() == other._lines()

    def __repr__(self):
        value = int(ternary_values(self).sum()) / self.length
        return f"{type(self).__name__}(length={self.length}, value={value:+.4f})"


class TlbStream(_TwoLineStream):
    """Two-line bipolar stream: value is mean(pos - neg)."""

    __slots__ = ("pos", "neg")

    @staticmethod
    def _ternary(pos, neg):
        return pos - neg


class SmStream(_TwoLineStream):
    """Signed-magnitude stream: value is mean((1 - 2*sign) * magnitude)."""

    __slots__ = ("sign", "magnitude")

    @staticmethod
    def _ternary(sign, magnitude):
        return (1 - 2 * sign) * magnitude


def _is_integer(value):
    return isinstance(value, numbers.Integral) and type(value) is not bool


def _integer(value, what, low=1):
    """``value`` as an int, or ValueError unless it is an integer >= ``low``.

    Bools, floats and strings are rejected, not truncated by ``int()``.
    """
    if not _is_integer(value) or value < low:
        bound = "a non-negative integer" if low == 0 else f"an integer >= {low}"
        raise ValueError(f"{what} must be {bound}, got {value!r}")
    return int(value)


def _check_value(x, encoding, low=-1.0):
    """ValueError unless ``low`` <= x <= 1; NaN fails too."""
    if not low <= x <= 1.0:
        raise ValueError(f"{encoding} value must be in [{low:g}, 1], got {x}")


def encode_unipolar(x, length, rng):
    """Draw a Bernoulli(x) stream of the given length."""
    _check_value(x, "unipolar", low=0.0)
    length = _integer(length, "stream length")
    return BitStream(_draw(x, length, rng))


def decode_unipolar(stream):
    """Fraction of ones; exact multiple of 1/L."""
    return stream.popcount() / stream.length


def encode_bipolar(x, length, rng):
    """Single-stream encoding of x in [-1, 1] via Bernoulli((x+1)/2)."""
    _check_value(x, "bipolar")
    length = _integer(length, "stream length")
    return BitStream(_draw((x + 1.0) / 2.0, length, rng))


def decode_bipolar(stream):
    """Mean of (2*bit - 1); resolution 2/L."""
    return (2 * stream.popcount() - stream.length) / stream.length


def encode_tlb(x, length, rng):
    """Two-line bipolar encoding with one component stream held all-zero.

    Only the difference of the two lines matters, so the generator encodes
    |x| on the line matching the sign of x and zeros the other line.
    """
    _check_value(x, "two-line bipolar")
    length = _integer(length, "stream length")
    magnitude = _draw(abs(x), length, rng)
    zero = np.zeros(length, dtype=np.uint8)
    if x >= 0:
        return TlbStream(magnitude, zero)
    return TlbStream(zero, magnitude)


def decode_tlb(stream):
    """Mean of (pos - neg); exact multiple of 1/L."""
    return int(ternary_values(stream).sum()) / stream.length


def encode_sm(x, length, rng):
    """Signed-magnitude encoding: constant sign bit, Bernoulli(|x|) magnitude."""
    _check_value(x, "signed-magnitude")
    length = _integer(length, "stream length")
    magnitude = _draw(abs(x), length, rng)
    sign = np.full(length, x < 0, dtype=np.uint8)
    return SmStream(sign, magnitude)


def decode_sm(stream):
    """Mean of (1 - 2*sign) * magnitude; exact multiple of 1/L."""
    return int(ternary_values(stream).sum()) / stream.length


def ternary_values(stream):
    """Per-position ternary symbols of a two-line stream as an int8 array."""
    if not isinstance(stream, _TwoLineStream):
        raise TypeError("ternary symbols are defined for TlbStream and SmStream")
    return type(stream)._ternary(*(line.bits.view(np.int8) for line in stream._lines()))


def ternary_at(stream, index):
    """Ternary symbol of a two-line stream at a 0-based position."""
    if not 0 <= index < stream.length:
        raise IndexError(f"position {index} out of range for length {stream.length}")
    return int(ternary_values(stream)[index])


class StreamFormat(NamedTuple):
    encode: Callable
    decode: Callable
    stream: type
    columns: tuple  # stream-file header; the l column is 1-based


# The one table of stream formats: the stream-file reader and writer and the
# CLI's encode/decode choices all read it. A header names the first format
# listed with those columns, so a single-line file reads as unipolar.
FORMATS = {
    "unipolar": StreamFormat(encode_unipolar, decode_unipolar, BitStream, ("l", "bit")),
    "bipolar": StreamFormat(encode_bipolar, decode_bipolar, BitStream, ("l", "bit")),
    "sm": StreamFormat(encode_sm, decode_sm, SmStream, ("l", "sign", "mag")),
    "tlb": StreamFormat(encode_tlb, decode_tlb, TlbStream, ("l", "pos", "neg")),
}


# rows per formatting operation of ``_write_rows``
_ROW_BLOCK = 4096


def _write_rows(handle, rows, header=None):
    """Write a 2-d integer array as CSV rows, after ``header`` if given.

    The bytes are those ``csv.writer`` writes for the same cells. Each block
    of ``_ROW_BLOCK`` rows is formatted by one ``%`` operation, so only one
    block at a time exists as Python ints.
    """
    if header is not None:
        handle.write(",".join(header) + "\r\n")
    line = ",".join(["%d"] * rows.shape[1]) + "\r\n"
    for lo in range(0, len(rows), _ROW_BLOCK):
        block = rows[lo:lo + _ROW_BLOCK]
        handle.write(line * len(block) % tuple(block.ravel().tolist()))


def write_stream_csv(stream, path):
    """Dump a stream to a trace CSV (one row per position, 1-based l)."""
    columns = {f.stream: f.columns for f in FORMATS.values()}[type(stream)]
    lines = stream._lines() if isinstance(stream, _TwoLineStream) else (stream,)
    rows = np.column_stack([np.arange(1, stream.length + 1), *(b.bits for b in lines)])
    with open(path, "w", newline="") as fh:
        _write_rows(fh, rows, columns)


def read_stream_csv(path):
    """Read a trace CSV back; returns (format_name, stream).

    Raises ValueError, naming the file, on an empty or unknown file, a row
    whose field count differs from the header's, a cell that is not an
    integer, a bit other than 0 or 1, or an l column that does not count
    1..L. Row errors also name the line.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader, ()))
        body = [(reader.line_num, row) for row in reader if row]
    if not body:
        raise ValueError(f"empty stream file: {path}")
    name = next((n for n, f in FORMATS.items() if f.columns == header), None)
    if name is None:
        raise ValueError(f"unrecognized stream file header in {path}: {header}")
    data = _cells([row for _, row in body], len(header))
    if data is None:
        _raise_row_error(path, len(header), body)
    if not np.array_equal(data[:, 0], np.arange(1, len(data) + 1)):
        raise ValueError(f"{path}: the l column must count 1..{len(data)} in order")
    return name, FORMATS[name].stream(*data[:, 1:].T)


def _cells(rows, width):
    """The (rows, width) int64 cells of a stream file's body, all checked at
    once; None if a row has another field count, a cell is not an integer
    that fits int64, or a bit is not 0 or 1."""
    if (np.fromiter(map(len, rows), dtype=np.intp, count=len(rows)) != width).any():
        return None
    try:
        cells = np.array(list(map(int, itertools.chain.from_iterable(rows))), dtype=np.int64)
    except (ValueError, OverflowError):
        return None
    cells = cells.reshape(len(rows), width)
    bits = cells[:, 1:]
    return cells if ((bits == 0) | (bits == 1)).all() else None


def _raise_row_error(path, width, body):
    """Raise the ValueError of the first bad row in ``body``'s (line, row)
    pairs, naming the file and the line."""
    for line, row in body:
        try:
            if len(row) != width:
                raise ValueError(f"{len(row)} fields, but the header has {width}")
            values = [int(v) for v in row]
            if not set(values[1:]) <= {0, 1}:
                raise ValueError("bit stream symbols must be 0 or 1")
        except ValueError as exc:
            raise ValueError(f"{path}, line {line}: {exc}") from exc
    # every row is well formed, so an l cell is beyond int64
    raise ValueError(f"{path}: the l column must count 1..{len(body)} in order")
