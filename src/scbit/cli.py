"""Command-line front end.

Subcommands: encode, decode, inner-product, sweep {accuracy,fault,canceler}.
Exit status: 0 success, 1 runtime/I-O failure, 2 usage or config error.
The seed falls back to the SCBIT_SEED environment variable when not given.
"""

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import baseline as baseline_mod
from . import engine as engine_mod
from .experiments import (
    ExperimentConfig,
    run_accuracy_sweep,
    run_canceler_experiment,
    run_fault_sweep,
)
from .rng import RandomSource
from .streams import (
    decode_bipolar,
    decode_sm,
    decode_tlb,
    decode_unipolar,
    encode_bipolar,
    encode_sm,
    encode_tlb,
    encode_unipolar,
    read_stream_csv,
    write_stream_csv,
)

_ENCODERS = {
    "unipolar": encode_unipolar,
    "bipolar": encode_bipolar,
    "sm": encode_sm,
    "tlb": encode_tlb,
}

_DECODERS = {
    "unipolar": decode_unipolar,
    "bipolar": decode_bipolar,
    "sm": decode_sm,
    "tlb": decode_tlb,
}


class UsageError(ValueError):
    pass


def _default_seed(value):
    if value is not None:
        return value
    env = os.environ.get("SCBIT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise UsageError(f"SCBIT_SEED must be an integer, got {env!r}") from exc
    return 0


def _read_vector(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read vector file {path}: {exc}") from exc
    values = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            values.append(float(line))
    if not values:
        raise UsageError(f"vector file {path} holds no values")
    return values


def _cmd_encode(args):
    if args.format not in _ENCODERS:
        raise UsageError(f"unknown format {args.format!r}")
    seed = _default_seed(args.seed)
    rng = RandomSource(seed)
    stream = _ENCODERS[args.format](args.value, args.len, rng)
    write_stream_csv(stream, args.out)
    return 0


def _cmd_decode(args):
    try:
        format_name, stream = read_stream_csv(args.stream_file)
    except FileNotFoundError as exc:
        raise UsageError(str(exc)) from exc
    if args.format is not None:
        if args.format == "bipolar" and format_name == "unipolar":
            format_name = "bipolar"  # single-line file reinterpreted
        elif args.format != format_name:
            raise UsageError(
                f"stream file is {format_name}, but --format {args.format} given"
            )
    print(repr(_DECODERS[format_name](stream)))
    return 0


def _cmd_inner_product(args):
    x = _read_vector(args.x_file)
    y = _read_vector(args.y_file)
    if len(x) != len(y):
        raise UsageError(
            f"vector lengths differ: {len(x)} (x) vs {len(y)} (y)"
        )
    if any(abs(v) > 1.0 for v in x + y):
        raise UsageError("vector entries must lie in [-1, 1]")
    seed = _default_seed(args.seed)
    rng = RandomSource(seed)
    truth = float(np.dot(x, y))
    if args.design == "novel":
        config = engine_mod.EngineConfig(
            lanes=len(x),
            carry_len=args.carry_len,
            stream_len=args.len,
            cc_enabled=args.cc == "on",
            shift_direction=args.direction,
        )
        stream, diag = engine_mod.run_inner_product(
            x, y, config, rng, trace_path=args.trace
        )
        estimate = decode_tlb(stream)
        overflow = diag.overflow_events
        extra = {
            "cc_cancellations": diag.cc_cancellations,
            "residual_pos": diag.residual_pos,
            "residual_neg": diag.residual_neg,
        }
    else:
        stream, diag = baseline_mod.run_tree_inner_product(
            x, y, args.counter_bits, args.len, rng
        )
        estimate = decode_sm(stream)
        overflow = diag.saturation_events
        extra = {"residual_sum": diag.residual_sum}
    print(f"estimate: {estimate!r}")
    print(f"true: {truth!r}")
    print(f"abs_error: {abs(estimate - truth)!r}")
    print(f"overflows: {overflow}")
    if args.out:
        payload = {
            "design": args.design,
            "estimate": estimate,
            "true": truth,
            "abs_error": abs(estimate - truth),
            "overflow_events": overflow,
            "seed": seed,
            **extra,
        }
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


# config-file spellings accepted for ExperimentConfig fields
_ALIASES = {"cc": "cc_enabled", "direction": "shift_direction"}
# list-valued sweep axes per sweep kind, each with the ExperimentConfig field
# that validates its entries; every other config key must be such a field
_AXES = {
    "accuracy": {"designs": "design", "lanes": "lanes", "capacities": "carry_len"},
    "fault": {"p_flips": "p_flip"},
    "canceler": {"lanes": "lanes"},
}
_CANCELER_FIELDS = {"trials", "seed", "cc_enabled"}
_CANCELER_LANES = [1, 2, 4, 8, 16, 32, 64]
_P_FLIPS = [0.0, 0.01, 0.02, 0.03, 0.04, 0.05]


def _load_sweep_config(args):
    data = {}
    if args.config:
        try:
            data = json.loads(Path(args.config).read_text())
        except FileNotFoundError as exc:
            raise UsageError(f"config file not found: {args.config}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError("config file must hold a JSON object")
    for alias, name in _ALIASES.items():
        if alias in data:
            data.setdefault(name, data.pop(alias))
    return data


def _override(data, key, value):
    if value is not None:
        data[key] = value


def _pop_axes(data, kind):
    """Remove and type-check the list-valued sweep axes of ``data``.

    An accuracy sweep's ``lanes`` is an axis when it is a list and the
    config field otherwise.
    """
    axes = {}
    for key, field in _AXES[kind].items():
        if key not in data or (kind == "accuracy" and not isinstance(data[key], list)):
            continue
        values = data.pop(key)
        if not isinstance(values, list):
            raise UsageError(f"{key} must be a list")
        for value in values:
            ExperimentConfig.from_dict({field: value})
        axes[key] = values
    return axes


def _cmd_sweep(args):
    data = _load_sweep_config(args)
    _override(data, "seed", args.seed)
    _override(data, "trials", args.trials)
    data["seed"] = _default_seed(data.get("seed"))
    out_path = Path(args.out)
    meta_path = out_path.with_suffix(".meta.json")
    axes = _pop_axes(data, args.kind)
    if args.lanes is not None:
        axes["lanes"] = [args.lanes]
        if args.kind != "canceler":
            data["lanes"] = args.lanes
    _override(data, "cc_enabled", None if args.cc is None else args.cc == "on")

    if args.kind == "canceler":
        unknown = set(data) - _CANCELER_FIELDS
        if unknown:
            raise UsageError(f"unknown config fields: {sorted(unknown)}")
        cfg = ExperimentConfig.from_dict({"trials": 20000, **data})
        result = run_canceler_experiment(
            axes.get("lanes", _CANCELER_LANES),
            cfg.trials,
            cfg.seed,
            cc_enabled=cfg.cc_enabled,
        )
    else:
        _override(data, "jobs", args.jobs)
        _override(data, "design", args.design)
        _override(data, "carry_len", args.carry_len)
        _override(data, "counter_width", args.counter_bits)
        _override(data, "stream_len", args.len)
        _override(data, "shift_direction", args.direction)
        if args.metric is not None:
            data["metric"] = "paper_literal" if args.metric == "paper" else "standard_rmse"
        cfg = ExperimentConfig.from_dict(data)
        if args.kind == "accuracy":
            result = run_accuracy_sweep(
                axes.get("designs", [cfg.design]),
                axes.get("lanes", [cfg.lanes]),
                axes.get("capacities", [cfg.capacity]),
                cfg,
            )
        else:
            result = run_fault_sweep(axes.get("p_flips", _P_FLIPS), cfg)

    try:
        result.write_csv(out_path)
        result.write_meta(meta_path)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="scbit",
        description="Bit-true stochastic-computing inner product toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enc = sub.add_parser("encode", help="encode a value into a stream file")
    p_enc.add_argument("--format", required=True, choices=sorted(_ENCODERS))
    p_enc.add_argument("--value", type=float, required=True)
    p_enc.add_argument("--len", type=int, required=True, help="stream length L")
    p_enc.add_argument("--seed", type=int, default=None)
    p_enc.add_argument("--out", required=True, help="output trace CSV")
    p_enc.set_defaults(func=_cmd_encode)

    p_dec = sub.add_parser("decode", help="decode a stream file to a value")
    p_dec.add_argument("stream_file")
    p_dec.add_argument("--format", choices=sorted(_DECODERS), default=None)
    p_dec.set_defaults(func=_cmd_decode)

    p_ip = sub.add_parser("inner-product", help="single-shot inner product")
    p_ip.add_argument("x_file", help="text file, one value per line")
    p_ip.add_argument("y_file")
    p_ip.add_argument("--len", type=int, default=10_000)
    p_ip.add_argument("--carry-len", type=int, default=6)
    p_ip.add_argument("--counter-bits", type=int, default=4)
    p_ip.add_argument("--cc", choices=("on", "off"), default="on")
    p_ip.add_argument("--direction", choices=("opposite", "same"), default="opposite")
    p_ip.add_argument("--design", choices=("novel", "baseline"), default="novel")
    p_ip.add_argument("--seed", type=int, default=None)
    p_ip.add_argument("--trace", default=None, help="per-cycle trace CSV")
    p_ip.add_argument("--out", default=None, help="diagnostics JSON")
    p_ip.set_defaults(func=_cmd_inner_product)

    p_sw = sub.add_parser("sweep", help="run an experiment sweep")
    p_sw.add_argument("kind", choices=("accuracy", "fault", "canceler"))
    p_sw.add_argument("--config", default=None, help="JSON experiment config")
    p_sw.add_argument("--out", required=True, help="output CSV path")
    p_sw.add_argument("--seed", type=int, default=None)
    p_sw.add_argument("--trials", type=int, default=None)
    p_sw.add_argument("--jobs", type=int, default=None)
    p_sw.add_argument("--len", type=int, default=None)
    p_sw.add_argument("--lanes", type=int, default=None)
    p_sw.add_argument("--carry-len", type=int, default=None)
    p_sw.add_argument("--counter-bits", type=int, default=None)
    p_sw.add_argument("--cc", choices=("on", "off"), default=None)
    p_sw.add_argument("--direction", choices=("opposite", "same"), default=None)
    p_sw.add_argument("--design", choices=("novel", "baseline"), default=None)
    p_sw.add_argument("--metric", choices=("standard", "paper"), default=None)
    p_sw.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
