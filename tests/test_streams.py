import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scbit import (
    BitStream,
    RandomSource,
    SmStream,
    TlbStream,
    decode_bipolar,
    decode_sm,
    decode_tlb,
    decode_unipolar,
    encode_bipolar,
    encode_sm,
    encode_tlb,
    encode_unipolar,
    read_stream_csv,
    ternary_at,
    ternary_values,
    write_stream_csv,
)

L_BIG = 10_000


def test_bitstream_validation():
    with pytest.raises(ValueError):
        BitStream([])
    with pytest.raises(ValueError):
        BitStream([0, 2])
    with pytest.raises(ValueError):
        BitStream([0.5])
    with pytest.raises(ValueError):
        BitStream([[0, 1]])
    with pytest.raises(ValueError):
        BitStream([-1])
    with pytest.raises(ValueError):
        BitStream([np.nan])


def test_bitstream_accepts_bool_and_float_bits():
    for values in (np.array([True, False, True]), np.array([1.0, 0.0, 1.0])):
        s = BitStream(values)
        assert s.bits.dtype == np.uint8
        assert s.bits.tolist() == [1, 0, 1]


def test_bitstream_immutable():
    s = BitStream([1, 0, 1])
    with pytest.raises(ValueError):
        s.bits[0] = 0


def test_stream_pair_length_mismatch():
    with pytest.raises(ValueError):
        TlbStream([1, 0], [0])
    with pytest.raises(ValueError):
        SmStream([1], [0, 1])


# -- encode edge cases ------------------------------------------------------


def test_encode_unipolar_extremes():
    rng = RandomSource(0)
    assert encode_unipolar(0.0, 8, rng) == BitStream.zeros(8)
    assert encode_unipolar(1.0, 8, rng) == BitStream.ones(8)


def test_encode_bipolar_extremes():
    rng = RandomSource(0)
    assert decode_bipolar(encode_bipolar(-1.0, 4, rng)) == -1.0
    assert decode_bipolar(encode_bipolar(1.0, 4, rng)) == 1.0


def test_encode_tlb_extremes():
    rng = RandomSource(0)
    s = encode_tlb(0.0, 8, rng)
    assert s.pos == BitStream.zeros(8) and s.neg == BitStream.zeros(8)
    s = encode_tlb(-1.0, 8, rng)
    assert s.pos == BitStream.zeros(8) and s.neg == BitStream.ones(8)


def test_encode_domain_errors():
    rng = RandomSource(0)
    for encode, bad in (
        (encode_unipolar, -0.1),
        (encode_unipolar, 1.1),
        (encode_bipolar, -1.0001),
        (encode_tlb, 2.0),
        (encode_sm, -3.0),
    ):
        with pytest.raises(ValueError):
            encode(bad, 8, rng)
    with pytest.raises(ValueError):
        encode_unipolar(0.5, 0, rng)


# -- encoders draw exactly the comparator bits ------------------------------

SIGNED_VALUES = (0.0, -0.0, 1.0, -1.0, 0.37, -0.58)


def reference_bits(seed, p, length):
    """Comparator bits of the second child of ``seed``, drawn with numpy alone."""
    child = np.random.SeedSequence(seed).spawn(2)[1]
    return (np.random.Generator(np.random.PCG64(child)).random(length) < p).astype(np.uint8)


def lines(stream):
    if isinstance(stream, BitStream):
        return [stream.bits]
    if isinstance(stream, TlbStream):
        return [stream.pos.bits, stream.neg.bits]
    return [stream.sign.bits, stream.magnitude.bits]


def expected_lines(encode, x, seed, length):
    if encode is encode_unipolar:
        return [reference_bits(seed, x, length)]
    if encode is encode_bipolar:
        return [reference_bits(seed, (x + 1.0) / 2.0, length)]
    magnitude = reference_bits(seed, abs(x), length)
    if encode is encode_tlb:
        zero = np.zeros(length, dtype=np.uint8)
        return [magnitude, zero] if x >= 0 else [zero, magnitude]
    return [np.full(length, x < 0, dtype=np.uint8), magnitude]


@pytest.mark.parametrize("seed", [0, 7, 2024])
@pytest.mark.parametrize(
    "encode,values",
    [
        (encode_unipolar, (0.0, -0.0, 1.0, 0.37)),
        (encode_bipolar, SIGNED_VALUES),
        (encode_tlb, SIGNED_VALUES),
        (encode_sm, SIGNED_VALUES),
    ],
)
def test_encoders_match_comparator_reference(encode, values, seed):
    for x in values:
        stream = encode(x, 300, RandomSource(seed).spawn(2)[1])
        got = lines(stream)
        want = expected_lines(encode, x, seed, 300)
        for g, w in zip(got, want):
            assert g.dtype == np.uint8
            assert np.array_equal(g, w)
            # the encoders hand out no writable buffer
            assert g.flags.writeable is False
            with pytest.raises(ValueError):
                g[0] = 1


# -- decode examples --------------------------------------------------------


def test_decode_unipolar_examples():
    assert decode_unipolar(BitStream.zeros(4)) == 0.0
    assert decode_unipolar(BitStream.ones(4)) == 1.0
    assert decode_unipolar(BitStream([1, 0, 1, 0])) == 0.5


def test_decode_bipolar_examples():
    assert decode_bipolar(BitStream.zeros(4)) == -1.0
    assert decode_bipolar(BitStream.ones(4)) == 1.0
    assert decode_bipolar(BitStream([1, 1, 0, 0])) == 0.0


def test_decode_tlb_examples():
    assert decode_tlb(TlbStream([1, 1, 0, 0], [0, 0, 0, 0])) == 0.5
    same = BitStream([1, 0, 1, 0])
    assert decode_tlb(TlbStream(same, same)) == 0.0
    assert decode_tlb(TlbStream([1, 1, 1, 1], [0, 0, 0, 0])) == 1.0


def test_decode_sm_examples():
    assert decode_sm(SmStream([0, 0], [1, 1])) == 1.0
    assert decode_sm(SmStream([1, 1], [1, 1])) == -1.0
    assert decode_sm(SmStream([1, 0, 1, 0], [1, 1, 0, 0])) == 0.0


def test_ternary_at_examples():
    assert ternary_at(TlbStream([0], [1]), 0) == -1
    assert ternary_at(TlbStream([1], [0]), 0) == 1
    assert ternary_at(SmStream([0], [0]), 0) == 0
    assert ternary_at(SmStream([1], [0]), 0) == 0  # don't-care sign on zero
    with pytest.raises(IndexError):
        ternary_at(TlbStream([1], [0]), 1)
    with pytest.raises(IndexError):
        ternary_at(TlbStream([1], [0]), -1)


# -- statistical behaviour --------------------------------------------------


def test_encode_unipolar_binomial_bound():
    # popcount/L within 3 sigma of 0.5 for the frozen seed
    s = encode_unipolar(0.5, L_BIG, RandomSource(42))
    assert abs(decode_unipolar(s) - 0.5) < 3 * np.sqrt(0.25 / L_BIG)


def test_encode_tlb_binomial_bound():
    s = encode_tlb(0.25, L_BIG, RandomSource(42))
    assert abs(decode_tlb(s) - 0.25) < 3 * np.sqrt(0.25 * 0.75 / L_BIG)


def test_fixed_seed_bit_identical():
    a = encode_tlb(0.3, 512, RandomSource(123))
    b = encode_tlb(0.3, 512, RandomSource(123))
    assert a == b


def test_spawned_sources_differ():
    lanes = RandomSource(5).spawn(2)
    a = encode_unipolar(0.5, 256, lanes[0])
    b = encode_unipolar(0.5, 256, lanes[1])
    assert a != b


@pytest.mark.parametrize(
    "encode,decode,value",
    [
        (encode_unipolar, decode_unipolar, 0.37),
        (encode_bipolar, decode_bipolar, -0.58),
        (encode_tlb, decode_tlb, 0.66),
        (encode_sm, decode_sm, -0.21),
    ],
)
def test_round_trip_mean_abs_error(encode, decode, value):
    # mean |decode(encode(x)) - x| over 1000 seeds stays under 0.01
    root = RandomSource(99)
    errors = [
        abs(decode(encode(value, L_BIG, src)) - value) for src in root.spawn(1000)
    ]
    assert np.mean(errors) < 0.01


# -- structural invariants --------------------------------------------------


@given(st.integers(0, 3), st.lists(st.integers(0, 1), min_size=1, max_size=64))
@settings(max_examples=60, deadline=None)
def test_decode_ranges(flavor, bits):
    other = bits[::-1]
    if flavor == 0:
        assert 0.0 <= decode_unipolar(BitStream(bits)) <= 1.0
    elif flavor == 1:
        assert -1.0 <= decode_bipolar(BitStream(bits)) <= 1.0
    elif flavor == 2:
        assert -1.0 <= decode_tlb(TlbStream(bits, other)) <= 1.0
    else:
        assert -1.0 <= decode_sm(SmStream(bits, other)) <= 1.0


@given(
    st.lists(st.integers(0, 1), min_size=1, max_size=64),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_decode_tlb_matches_ternary_sum(pos, data):
    neg = data.draw(
        st.lists(st.integers(0, 1), min_size=len(pos), max_size=len(pos))
    )
    s = TlbStream(pos, neg)
    total = sum(ternary_at(s, i) for i in range(s.length))
    assert decode_tlb(s) == total / s.length
    assert int(ternary_values(s).sum()) == total


def test_encode_tlb_one_sided():
    rng = RandomSource(17)
    for value in (0.8, -0.8, 0.0):
        s = encode_tlb(value, 64, rng)
        assert s.pos.popcount() == 0 or s.neg.popcount() == 0


# -- trace files ------------------------------------------------------------


@pytest.mark.parametrize(
    "stream,expected_format",
    [
        (BitStream([1, 0, 1]), "unipolar"),
        (TlbStream([1, 0, 0], [0, 0, 1]), "tlb"),
        (SmStream([0, 1, 0], [1, 1, 0]), "sm"),
    ],
)
def test_stream_csv_round_trip(tmp_path, stream, expected_format):
    path = tmp_path / "stream.csv"
    write_stream_csv(stream, path)
    name, back = read_stream_csv(path)
    assert name == expected_format
    assert back == stream
    # l column is 1-based
    first_row = path.read_text().splitlines()[1]
    assert first_row.startswith("1,")
