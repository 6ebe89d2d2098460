"""Command-line front end.

Subcommands: encode, decode, inner-product, sweep {accuracy,fault,canceler}.
Exit status: 0 success, 1 runtime/I-O failure, 2 usage or config error.
The seed falls back to the SCBIT_SEED environment variable when not given.
"""

import argparse
import json
import os
import sys
from dataclasses import fields
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
from .streams import FORMATS, decode_sm, decode_tlb, read_stream_csv, write_stream_csv


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
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if line and not line.startswith("#"):
            try:
                value = float(line)
            except ValueError as exc:
                raise UsageError(f"{path}, line {number}: {exc}") from exc
            if not -1.0 <= value <= 1.0:  # also catches nan
                raise UsageError(f"{path}, line {number}: value must be in [-1, 1], got {value}")
            values.append(value)
    if not values:
        raise UsageError(f"vector file {path} holds no values")
    return values


def _cmd_encode(args):
    rng = RandomSource(_default_seed(args.seed))
    stream = FORMATS[args.format].encode(args.value, args.len, rng)
    write_stream_csv(stream, args.out)
    return 0


def _cmd_decode(args):
    try:
        format_name, stream = read_stream_csv(args.stream_file)
    except FileNotFoundError as exc:
        raise UsageError(str(exc)) from exc
    if args.format is not None:
        # a format with the file's columns reinterprets it (single-line files)
        if FORMATS[args.format].columns != FORMATS[format_name].columns:
            raise UsageError(
                f"stream file is {format_name}, but --format {args.format} given"
            )
        format_name = args.format
    print(repr(FORMATS[format_name].decode(stream)))
    return 0


def _cmd_inner_product(args):
    x = _read_vector(args.x_file)
    y = _read_vector(args.y_file)
    if len(x) != len(y):
        raise UsageError(
            f"vector lengths differ: {len(x)} (x) vs {len(y)} (y)"
        )
    seed = _default_seed(args.seed)
    cfg = ExperimentConfig.from_dict({**_flag_fields(args), "seed": seed, "lanes": len(x)})
    if args.trace is not None and cfg.design != "novel":
        raise UsageError("--trace writes the trace of the novel design only")
    rng = RandomSource(seed)
    truth = float(np.dot(x, y))
    if cfg.design == "novel":
        stream, diag = engine_mod.run_inner_product(x, y, cfg, rng, trace_path=args.trace)
        estimate = decode_tlb(stream)
        extra = {
            "cc_cancellations": diag.cc_cancellations,
            "residual_pos": diag.residual_pos,
            "residual_neg": diag.residual_neg,
        }
    else:
        stream, diag = baseline_mod.run_tree_inner_product(x, y, cfg, rng)
        estimate = decode_sm(stream)
        extra = {"residual_sum": diag.residual_sum}
    overflow = diag.overflow_events
    print(f"estimate: {estimate!r}")
    print(f"true: {truth!r}")
    print(f"abs_error: {abs(estimate - truth)!r}")
    print(f"overflows: {overflow}")
    if args.out:
        payload = {
            "design": cfg.design,
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
# a parsed flag stored under one of these names sets that ExperimentConfig field
_FIELDS = {f.name for f in fields(ExperimentConfig)}
# flag values spelled differently from the ExperimentConfig values they set
_SPELLINGS = {"on": True, "off": False, "standard": "standard_rmse", "paper": "paper_literal"}
# list-valued sweep axes per sweep kind, whose entries the sweep itself checks;
# every other config key must be an ExperimentConfig field
_AXES = {
    "accuracy": ("designs", "lanes", "capacities"),
    "fault": ("p_flips",),
    "canceler": ("lanes",),
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
            if name in data:
                raise UsageError(f"config file sets {name} twice, as {alias!r} and {name!r}")
            data[name] = data.pop(alias)
    return data


def _flag_fields(args):
    """The ExperimentConfig fields set on the command line, as config values."""
    return {
        name: _SPELLINGS.get(value, value)
        for name, value in vars(args).items()
        if name in _FIELDS and value is not None
    }


def _pop_axes(data, kind):
    """Remove the list-valued sweep axes of ``data``; each must be a list.

    An accuracy sweep's ``lanes`` is an axis when it is a list and the
    config field otherwise.
    """
    axes = {}
    for key in _AXES[kind]:
        lanes_field = kind == "accuracy" and key == "lanes" and not isinstance(data.get(key), list)
        if key not in data or lanes_field:
            continue
        values = data.pop(key)
        if not isinstance(values, list):
            raise UsageError(f"{key} must be a list")
        axes[key] = values
    return axes


def _cmd_sweep(args):
    data = _load_sweep_config(args)
    flags = _flag_fields(args)
    if args.kind == "canceler" and "lanes" in flags:
        flags["lanes"] = [flags["lanes"]]  # a canceler sweep's lanes are its axis
    data.update(flags)
    data["seed"] = _default_seed(data.get("seed"))
    out_path = Path(args.out)
    meta_path = out_path.with_suffix(".meta.json")
    axes = _pop_axes(data, args.kind)
    # checked before the first point runs, not after the whole sweep
    if not (out_path.parent.is_dir() and os.access(out_path.parent, os.W_OK | os.X_OK)):
        raise OSError(f"cannot write output: {out_path.parent} is not a writable directory")

    if args.kind == "canceler":
        unknown = set(data) - _CANCELER_FIELDS
        if unknown:
            raise UsageError(f"unknown config fields: {sorted(unknown)}")
        cfg = ExperimentConfig.from_dict({"trials": 20000, **data})
        result = run_canceler_experiment(axes.get("lanes", _CANCELER_LANES), cfg)
    else:
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
    p_enc.add_argument("--format", required=True, choices=sorted(FORMATS))
    p_enc.add_argument("--value", type=float, required=True)
    p_enc.add_argument("--len", type=int, required=True, help="stream length L")
    p_enc.add_argument("--seed", type=int, default=None)
    p_enc.add_argument("--out", required=True, help="output trace CSV")
    p_enc.set_defaults(func=_cmd_encode)

    p_dec = sub.add_parser("decode", help="decode a stream file to a value")
    p_dec.add_argument("stream_file")
    p_dec.add_argument("--format", choices=sorted(FORMATS), default=None)
    p_dec.set_defaults(func=_cmd_decode)

    # the operating point: each flag is stored under the ExperimentConfig
    # field it sets, and a flag left out takes the ExperimentConfig default
    point = argparse.ArgumentParser(add_help=False)
    point.add_argument("--seed", type=int)
    point.add_argument("--len", dest="stream_len", metavar="LEN", type=int)
    point.add_argument("--carry-len", type=int)
    point.add_argument("--counter-bits", dest="counter_width", metavar="COUNTER_BITS", type=int)
    point.add_argument("--cc", dest="cc_enabled", choices=("on", "off"))
    point.add_argument("--direction", dest="shift_direction", choices=("opposite", "same"))
    point.add_argument("--design", choices=("novel", "baseline"))

    p_ip = sub.add_parser("inner-product", parents=[point], help="single-shot inner product")
    p_ip.add_argument("x_file", help="text file, one value per line")
    p_ip.add_argument("y_file")
    p_ip.add_argument("--trace", default=None, help="per-cycle trace CSV (novel design)")
    p_ip.add_argument("--out", default=None, help="diagnostics JSON")
    p_ip.set_defaults(func=_cmd_inner_product)

    p_sw = sub.add_parser("sweep", parents=[point], help="run an experiment sweep")
    p_sw.add_argument("kind", choices=("accuracy", "fault", "canceler"))
    p_sw.add_argument("--config", default=None, help="JSON experiment config")
    p_sw.add_argument("--out", required=True, help="output CSV path")
    p_sw.add_argument("--trials", type=int, default=None)
    p_sw.add_argument("--jobs", type=int, default=None)
    p_sw.add_argument("--lanes", type=int, default=None)
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
