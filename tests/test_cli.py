import argparse
import hashlib
import json
from dataclasses import fields

import pytest

from scbit import (
    ExperimentConfig,
    RandomSource,
    decode_tlb,
    read_stream_csv,
    run_inner_product,
)
from scbit import experiments
from scbit.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_vector(path, values):
    path.write_text("".join(f"{v}\n" for v in values))
    return str(path)


# -- encode / decode -----------------------------------------------------------


def test_encode_decode_round_trip(tmp_path, capsys):
    out = tmp_path / "stream.csv"
    code, _, _ = run_cli(
        capsys,
        "encode", "--format", "tlb", "--value", "-0.5",
        "--len", "16", "--seed", "7", "--out", str(out),
    )
    assert code == 0
    name, stream = read_stream_csv(out)
    assert name == "tlb" and stream.length == 16

    code, stdout, _ = run_cli(capsys, "decode", str(out))
    assert code == 0
    value = float(stdout.strip())
    # decoded value is an exact multiple of the 1/16 resolution
    assert value == round(value * 16) / 16
    assert -1.0 <= value <= 0.0


@pytest.mark.parametrize(
    "fmt,value,digest",
    [
        ("unipolar", "0.3", "93fd661aae098fe72e7d285ed06b0424be162f806bdbdb9a57c3db6ce238fa91"),
        ("bipolar", "-0.3", "6756307958301b4e20e2ad2ba2a252f903f4d2892f96b90bf74812c9ed0c03b4"),
        ("sm", "-0.3", "1473403b91bfeda47aed9f849365ef3e1bf20126a71aae1a49d0bab254cad4b7"),
        ("tlb", "-0.3", "f9c38925c660f607b6bcf5d9929e29593c61f53595af1b3053a726b63215dc17"),
    ],
)
def test_encode_bytes_pinned(tmp_path, capsys, fmt, value, digest):
    out = tmp_path / "stream.csv"
    code, _, _ = run_cli(
        capsys,
        "encode", "--format", fmt, "--value", value,
        "--len", "200", "--seed", "5", "--out", str(out),
    )
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_encode_decode_mean_error(tmp_path, capsys):
    errors = []
    for seed in range(100):
        out = tmp_path / f"s{seed}.csv"
        run_cli(
            capsys,
            "encode", "--format", "sm", "--value", "0.3",
            "--len", "10000", "--seed", str(seed), "--out", str(out),
        )
        _, stdout, _ = run_cli(capsys, "decode", str(out))
        errors.append(abs(float(stdout.strip()) - 0.3))
    assert sum(errors) / len(errors) < 0.01


def test_encode_bad_format_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["encode", "--format", "nope", "--value", "0", "--len", "4", "--out", "x"])
    assert exc.value.code == 2


def test_encode_bad_value_usage_error(tmp_path, capsys):
    code, _, err = run_cli(
        capsys,
        "encode", "--format", "unipolar", "--value", "-0.5",
        "--len", "4", "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2
    assert "error" in err


def test_decode_missing_file(capsys):
    code, _, err = run_cli(capsys, "decode", "/nonexistent/stream.csv")
    assert code == 2


def test_decode_empty_file(tmp_path, capsys):
    # a zero-byte file has no header row either
    path = tmp_path / "empty.csv"
    path.write_bytes(b"")
    code, _, err = run_cli(capsys, "decode", str(path))
    assert code == 2
    assert "empty stream file" in err


@pytest.mark.parametrize(
    "body,needle",
    [
        ("l,pos,neg\n1,1,0\n1,0,0\n7,0,1\n", "l column"),
        ("l,pos,neg\n1,1,0\n2,0\n3,0,1\n", "line 3: 2 fields"),
        ("l,bit\n1,1,0\n", "line 2: 3 fields"),
        ("l,bit\n1,1\n2,x\n", "line 3: invalid literal for int()"),
        ("l,bit\n1,2\n", "line 2: bit stream symbols must be 0 or 1"),
    ],
)
def test_decode_malformed_file_usage_error(tmp_path, capsys, body, needle):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    code, out, err = run_cli(capsys, "decode", str(path))
    assert code == 2 and out == ""
    assert needle in err and str(path) in err
    assert len(err.splitlines()) == 1


def test_decode_format_mismatch(tmp_path, capsys):
    out = tmp_path / "s.csv"
    run_cli(capsys, "encode", "--format", "tlb", "--value", "0.25",
            "--len", "8", "--out", str(out))
    code, _, _ = run_cli(capsys, "decode", str(out), "--format", "sm")
    assert code == 2


def test_decode_bipolar_reinterprets_single_line(tmp_path, capsys):
    out = tmp_path / "s.csv"
    run_cli(capsys, "encode", "--format", "bipolar", "--value", "0.5",
            "--len", "100", "--seed", "1", "--out", str(out))
    code, stdout, _ = run_cli(capsys, "decode", str(out), "--format", "bipolar")
    assert code == 0
    assert -1.0 <= float(stdout.strip()) <= 1.0


# -- inner product ---------------------------------------------------------------


def test_inner_product_matches_library(tmp_path, capsys):
    x = [0.5, -0.25]
    y = [0.5, 0.5]
    xf = write_vector(tmp_path / "x.txt", x)
    yf = write_vector(tmp_path / "y.txt", y)
    code, stdout, _ = run_cli(
        capsys,
        "inner-product", xf, yf,
        "--len", "2000", "--carry-len", "4", "--seed", "9",
        "--out", str(tmp_path / "diag.json"),
    )
    assert code == 0
    config = ExperimentConfig(lanes=2, carry_len=4, stream_len=2000)
    stream, _ = run_inner_product(x, y, config, RandomSource(9))
    estimate = decode_tlb(stream)
    lines = dict(line.split(": ") for line in stdout.strip().splitlines())
    assert float(lines["estimate"]) == estimate
    assert float(lines["true"]) == pytest.approx(0.125)
    diag = json.loads((tmp_path / "diag.json").read_text())
    assert diag["estimate"] == estimate
    assert diag["design"] == "novel"


def test_inner_product_zero_vectors(tmp_path, capsys):
    xf = write_vector(tmp_path / "x.txt", [0.0, 0.0])
    yf = write_vector(tmp_path / "y.txt", [0.0, 0.0])
    code, stdout, _ = run_cli(capsys, "inner-product", xf, yf, "--len", "64")
    assert code == 0
    lines = dict(line.split(": ") for line in stdout.strip().splitlines())
    assert float(lines["estimate"]) == 0.0
    assert float(lines["abs_error"]) == 0.0


def test_inner_product_baseline_design(tmp_path, capsys):
    xf = write_vector(tmp_path / "x.txt", [0.5, 0.5])
    yf = write_vector(tmp_path / "y.txt", [0.5, -0.5])
    code, stdout, _ = run_cli(
        capsys,
        "inner-product", xf, yf, "--design", "baseline",
        "--len", "1000", "--counter-bits", "4", "--seed", "2",
    )
    assert code == 0
    assert "estimate" in stdout


@pytest.mark.parametrize("bits, code", [("17", 0), ("0", 2), ("62", 2)])
def test_baseline_counter_widths(tmp_path, capsys, bits, code):
    # counters wider than int16 run; widths below 1 or too wide exit 2 on one line
    got, _, err = run_cli(
        capsys, "sweep", "fault", "--design", "baseline", "--counter-bits", bits,
        "--lanes", "4", "--len", "50", "--trials", "5", "--out", str(tmp_path / "f.csv"),
    )
    assert got == code and err.count("\n") == (code == 2) and "Traceback" not in err


def test_inner_product_length_mismatch(tmp_path, capsys):
    xf = write_vector(tmp_path / "x.txt", [0.5])
    yf = write_vector(tmp_path / "y.txt", [0.5, 0.1])
    code, _, err = run_cli(capsys, "inner-product", xf, yf)
    assert code == 2
    assert "lengths differ" in err


def test_inner_product_env_seed(tmp_path, capsys, monkeypatch):
    xf = write_vector(tmp_path / "x.txt", [0.5])
    yf = write_vector(tmp_path / "y.txt", [0.5])
    monkeypatch.setenv("SCBIT_SEED", "123")
    _, with_env, _ = run_cli(capsys, "inner-product", xf, yf, "--len", "500")
    monkeypatch.delenv("SCBIT_SEED")
    _, explicit, _ = run_cli(capsys, "inner-product", xf, yf, "--len", "500",
                             "--seed", "123")
    assert with_env == explicit


# -- the operating-point flags of inner-product and sweep ------------------------


SHARED_FLAGS = (
    "--seed", "--len", "--carry-len", "--counter-bits", "--cc", "--direction", "--design",
)


def test_operating_point_flags_are_config_fields():
    subcommands = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    names = {f.name for f in fields(ExperimentConfig)}
    options = {}
    for command in ("inner-product", "sweep"):
        actions = subcommands[command]._actions
        options[command] = {a.option_strings[-1]: a for a in actions if a.option_strings}
        for flag, action in options[command].items():
            if flag not in ("--help", "--config", "--out", "--trace"):
                assert action.dest in names, flag
    # declared once: both commands hold the same argparse action
    for flag in SHARED_FLAGS:
        assert options["inner-product"][flag] is options["sweep"][flag], flag


@pytest.mark.parametrize(
    "argv, needle",
    [
        ("inner-product X Y --counter-bits 0", "counter_width must be >= 1"),
        ("inner-product X Y --carry-len 0 --design baseline", "carry_len"),
        ("inner-product X Y --design baseline --trace T", "--trace"),
        ("inner-product BAD Y", "bad.txt, line 3: could not convert string to float"),
        ("inner-product WIDE Y", "wide.txt, line 2: value must be in [-1, 1], got 1.5"),
        ("inner-product WIDE Y --design baseline", "wide.txt, line 2: value must be in"),
        ("inner-product X NAN", "nan.txt, line 1: value must be in [-1, 1], got nan"),
        ("sweep canceler --len 5", "unknown config fields: ['stream_len']"),
        ("sweep canceler --design baseline", "unknown config fields: ['design']"),
        ("sweep canceler --jobs 2", "unknown config fields: ['jobs']"),
    ],
)
def test_usage_errors_exit_2_on_one_line(tmp_path, capsys, argv, needle):
    # a flag a command cannot honour is an error, never silently ignored
    bad = tmp_path / "bad.txt"
    bad.write_text("0.5\n# comment\nabc\n")
    (tmp_path / "wide.txt").write_text("0.5\n1.5\n")
    (tmp_path / "nan.txt").write_text("nan\n0.5\n")
    paths = {
        "X": write_vector(tmp_path / "x.txt", [0.5, 0.5]),
        "Y": write_vector(tmp_path / "y.txt", [0.5, -0.5]),
        "BAD": str(bad),
        "WIDE": str(tmp_path / "wide.txt"),
        "NAN": str(tmp_path / "nan.txt"),
        "T": str(tmp_path / "t.csv"),
    }
    argv = [paths.get(a, a) for a in argv.split()]
    code, stdout, err = run_cli(capsys, *argv, "--out", str(tmp_path / "out.csv"))
    assert code == 2 and stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert needle in err
    inputs = ["bad.txt", "nan.txt", "wide.txt", "x.txt", "y.txt"]
    assert sorted(p.name for p in tmp_path.iterdir()) == inputs


# -- sweeps ----------------------------------------------------------------------


def test_sweep_canceler_row_count(tmp_path, capsys):
    out = tmp_path / "canceler.csv"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"lanes": [1, 2, 4, 8], "trials": 500, "seed": 1}))
    code, _, _ = run_cli(capsys, "sweep", "canceler",
                         "--config", str(config), "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 2 * 4  # header + two direction modes per K
    assert (tmp_path / "canceler.meta.json").exists()


def test_sweep_accuracy_reproducible(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps(
            {
                "designs": ["novel"],
                "lanes": [4],
                "capacities": [3],
                "stream_len": 300,
                "trials": 10,
                "seed": 5,
            }
        )
    )
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        code, _, _ = run_cli(capsys, "sweep", "accuracy",
                             "--config", str(config), "--out", str(out))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_fault_inline_overrides(tmp_path, capsys):
    out = tmp_path / "fault.csv"
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps(
            {"p_flips": [0.0, 0.02], "stream_len": 200, "trials": 6, "seed": 8,
             "lanes": 4, "carry_len": 9}
        )
    )
    code, _, _ = run_cli(
        capsys, "sweep", "fault", "--config", str(config),
        "--out", str(out), "--carry-len", "2",
    )
    assert code == 0
    rows = out.read_text().splitlines()
    assert len(rows) == 3
    assert rows[1].split(",")[2] == "2"  # M_or_B reflects inline override
    meta = json.loads((tmp_path / "fault.meta.json").read_text())
    assert meta["config"]["carry_len"] == 2


def test_sweep_accuracy_scalar_lanes_is_the_field(tmp_path, capsys):
    out = tmp_path / "acc.csv"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"designs": ["novel"], "capacities": [2], "lanes": 16,
                                  "stream_len": 50, "trials": 2, "seed": 1}))
    code, _, _ = run_cli(capsys, "sweep", "accuracy", "--config", str(config), "--out", str(out))
    assert code == 0
    rows = out.read_text().splitlines()
    assert len(rows) == 2
    assert rows[1].split(",")[1] == "16"  # K
    assert json.loads((tmp_path / "acc.meta.json").read_text())["config"]["lanes"] == 16


def test_sweep_bad_config_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "sweep", "fault", "--config", str(bad),
                           "--out", str(tmp_path / "o.csv"))
    assert code == 2
    code, _, _ = run_cli(capsys, "sweep", "fault", "--config",
                         str(tmp_path / "missing.json"),
                         "--out", str(tmp_path / "o.csv"))
    assert code == 2


def test_sweep_unwritable_output_io_error(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"lanes": [1], "trials": 10, "seed": 1}))
    code, _, err = run_cli(
        capsys, "sweep", "canceler", "--config", str(config),
        "--out", "/nonexistent-dir/out.csv",
    )
    assert code == 1


@pytest.mark.parametrize("kind", ("accuracy", "fault"))
def test_sweep_checks_output_directory_before_running(tmp_path, capsys, monkeypatch, kind):
    # found only at the write, a bad --out would cost the whole sweep
    def simulate_trials(payload):
        raise AssertionError("a point ran")

    monkeypatch.setattr(experiments, "_simulate_trials", simulate_trials)
    out = tmp_path / "missing" / "f.csv"
    code, stdout, err = run_cli(
        capsys, "sweep", kind, "--lanes", "16", "--len", "2000", "--trials", "200",
        "--out", str(out),
    )
    assert code == 1 and stdout == ""
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_config_aliases_write_the_same_bytes(tmp_path, capsys):
    point = {"designs": ["novel"], "lanes": [4], "capacities": [2], "stream_len": 200,
             "trials": 10, "seed": 5}
    spellings = {
        "alias": {"cc": False, "direction": "same"},
        "field": {"cc_enabled": False, "shift_direction": "same"},
        "default": {},
    }
    outputs = {}
    for name, extra in spellings.items():
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps({**point, **extra}))
        out = tmp_path / f"{name}.csv"
        code, _, _ = run_cli(capsys, "sweep", "accuracy", "--config", str(config),
                             "--out", str(out))
        assert code == 0
        outputs[name] = out.read_bytes(), out.with_suffix(".meta.json").read_bytes()
    assert outputs["alias"] == outputs["field"]
    # the fields took effect: the defaults give other bytes
    assert outputs["alias"][0] != outputs["default"][0]
    assert outputs["alias"][1] != outputs["default"][1]


@pytest.mark.parametrize(
    "kind, config, needle",
    [
        ("fault", {"lanes": "16"}, "lanes"),
        ("accuracy", {"lanes": "16"}, "lanes"),
        ("accuracy", {"capacities": [2, "4"]}, "carry_len"),
        ("fault", {"p_flips": 0.1}, "p_flips"),
        ("fault", {"p_flips": [0.0, 1.5]}, "p_flip"),
        ("fault", [{"lanes": 16}], "JSON object"),
        ("accuracy", {"stream_length": 300}, "stream_length"),
        ("fault", {"designs": ["novel"]}, "designs"),
        ("canceler", {"lanes": [1, 2], "stream_len": 10}, "stream_len"),
        ("canceler", {"lanes": 4}, "lanes"),
        ("canceler", {"lanes": [1], "trials": "20"}, "trials"),
        # one field under both spellings: one of the values would be dropped
        ("canceler", {"cc": False, "cc_enabled": True, "lanes": [2], "trials": 10},
         "sets cc_enabled twice"),
        ("accuracy", {"direction": "same", "shift_direction": "same"},
         "sets shift_direction twice"),
        # every sweep axis other than an accuracy sweep's lanes must be a list
        ("accuracy", {"designs": "novel"}, "designs must be a list"),
        ("accuracy", {"capacities": 4}, "capacities must be a list"),
        ("fault", {"p_flips": 0.1}, "p_flips must be a list"),
        ("canceler", {"lanes": 4}, "lanes must be a list"),
    ],
)
def test_sweep_config_errors_exit_2_on_one_line(tmp_path, capsys, kind, config, needle):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "o.csv"
    code, _, err = run_cli(capsys, "sweep", kind, "--config", str(path), "--out", str(out))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert needle in err
    assert not out.exists()
