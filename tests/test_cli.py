import json

import pytest

from scbit import (
    EngineConfig,
    RandomSource,
    decode_tlb,
    read_stream_csv,
    run_inner_product,
)
from scbit.cli import main


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
    config = EngineConfig(lanes=2, carry_len=4, stream_len=2000)
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
