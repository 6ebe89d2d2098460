import hashlib
import importlib
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scbit
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


@pytest.mark.parametrize(
    "encode,bad,message",
    [
        (encode_unipolar, 1.1, "unipolar value must be in [0, 1], got 1.1"),
        (encode_unipolar, float("nan"), "unipolar value must be in [0, 1], got nan"),
        (encode_bipolar, -1.0001, "bipolar value must be in [-1, 1], got -1.0001"),
        (encode_tlb, 2.0, "two-line bipolar value must be in [-1, 1], got 2.0"),
        (encode_sm, -3.0, "signed-magnitude value must be in [-1, 1], got -3.0"),
    ],
    ids=("unipolar", "unipolar-nan", "bipolar", "tlb", "sm"),
)
def test_encode_domain_error_messages(encode, bad, message):
    with pytest.raises(ValueError) as err:
        encode(bad, 8, RandomSource(0))
    assert str(err.value) == message


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


@pytest.mark.parametrize("encode", (encode_unipolar, encode_bipolar, encode_tlb, encode_sm))
@pytest.mark.parametrize(
    "length", (2.5, True, "3", np.float64(2.0)), ids=("2.5", "True", "str", "float64")
)
def test_encoders_reject_non_integer_lengths(encode, length):
    # int() would truncate 2.5 to 2 and read True as 1 and "3" as 3
    with pytest.raises(ValueError, match="stream length"):
        encode(0.3, length, RandomSource(0))


def test_ternary_values_rejects_single_line_streams():
    with pytest.raises(TypeError, match="TlbStream and SmStream"):
        ternary_values(BitStream([0, 1]))


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


def test_stream_csv_l_beyond_int64_names_the_file(tmp_path):
    # every row is well formed, so the l column is what is wrong
    path = tmp_path / "stream.csv"
    path.write_text(f"l,bit\n1,0\n{2**70},1\n")
    with pytest.raises(ValueError, match="stream.csv: the l column must count 1..2"):
        read_stream_csv(path)


def _pinned_streams():
    bits = np.random.default_rng(8).integers(0, 2, (3, 200))
    return {
        "bit": BitStream(bits[0]),
        "tlb": TlbStream(bits[0], bits[1]),
        "sm": SmStream(bits[1], bits[2]),
    }


@pytest.mark.parametrize(
    "kind,digest",
    [
        ("bit", "cbcfba5f04637808c2d8592469eef02873133eed1fbddf500a5165b561c3e414"),
        ("tlb", "eb5f3dffe804644b806ab07387afdba4febf6692f2feec25e47dc5e49b4a260e"),
        ("sm", "a0bf0d663f5ae0af572264b37782e8ba26f54782768e68ce8fa6c044f88da922"),
    ],
)
def test_stream_csv_bytes_pinned(tmp_path, kind, digest):
    path = tmp_path / "stream.csv"
    write_stream_csv(_pinned_streams()[kind], path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_long_stream_csv_bytes_pinned(tmp_path):
    # 10 000 rows: several blocks of formatted rows, the last partial
    path = tmp_path / "stream.csv"
    bits = np.random.default_rng(9).integers(0, 2, (2, 10_000))
    write_stream_csv(TlbStream(*bits), path)
    digest = "ed014293ae5a58e02afb034cb1f33136251e3cb2e28622fba2b3166e5f10f01a"
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_package_exports_pinned():
    assert sorted(scbit.__all__) == [
        "AdderDiagnostics", "BitStream", "EngineDiagnostics", "ExperimentConfig",
        "RandomSource", "SmStream", "SweepResult", "TlbStream",
        "TreeDiagnostics", "decode_bipolar", "decode_sm", "decode_tlb",
        "decode_unipolar", "encode_bipolar", "encode_sm", "encode_tlb",
        "encode_unipolar", "nonscaled_add", "read_stream_csv", "rmse",
        "run_accuracy_sweep", "run_canceler_experiment", "run_fault_sweep",
        "run_inner_product", "run_point", "run_tree_inner_product", "sm_multiply_bit",
        "sm_to_tlb", "sm_to_tlb_bit", "ternary_at", "ternary_values", "tlb_multiply",
        "tlb_multiply_bit", "tlb_to_sm", "tlb_to_sm_bit", "write_stream_csv",
    ]
    assert len(set(scbit.__all__)) == len(scbit.__all__)
    for name in scbit.__all__:
        assert getattr(scbit, name) is not None, name


def test_submodule_exports_resolve():
    # the pin above checks only the package; a stale name in a submodule's
    # __all__ would pass it
    checked = []
    for info in pkgutil.iter_modules(scbit.__path__):
        module = importlib.import_module(f"scbit.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"scbit.{info.name}.{name}"
        checked.append(info.name)
    assert {"adder", "batch", "experiments"} <= set(checked)
