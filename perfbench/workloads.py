"""Workloads of the scbit host-time benchmark.

Every workload builds its inputs from the benchmark seed, runs one scbit
entry point in this process, writes the program's outputs into a work
directory and checks them. ``scbit`` is imported inside ``prepare`` so the
import is timed as part of set-up, which command-line users pay on every run.

Sizes: K, M, B, trial counts and the p_flip grid follow the paper's sweeps.
Only L is cut, so one workload run takes seconds instead of minutes. Costs
paid once per trial (stream encoding, source spawning) therefore weigh more
than at the paper's L = 1e4; the traced run shows the split at these sizes.
"""

import csv
import json
import math
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from io import StringIO
from typing import Callable

TRIALS = 200
P_FLIPS = (0.0, 0.01, 0.02, 0.03, 0.04, 0.05)
CANCELER_LANES = (1, 2, 4, 8, 16, 32, 64)  # the CLI's default grid

SIZES = {
    "full": {
        "headline_novel": {"stream_len": 1000, "trials": TRIALS},
        "fault_sweep": {"stream_len": 100, "trials": TRIALS},
        "tree_capacity_sweep": {"stream_len": 500, "trials": TRIALS},
        "cli_single_shot": {"stream_len": 2000, "trials": 20_000},
    },
    # tiny runs for the benchmark's own tests: schema and plumbing only
    "smoke": {
        "headline_novel": {"stream_len": 16, "trials": 3},
        "fault_sweep": {"stream_len": 16, "trials": 3},
        "tree_capacity_sweep": {"stream_len": 16, "trials": 3},
        "cli_single_shot": {"stream_len": 16, "trials": 50},
    },
}

ACCURACY_HEADER = [
    "design", "K", "M_or_B", "L", "p_flip", "trials", "metric", "rmse",
    "overflow_rate", "cc_cancellations_mean", "seed",
]
CANCELER_HEADER = [
    "direction", "K", "trials", "cc_enabled", "p_p", "p_n", "se_p", "se_n", "seed",
]
TRACE_HEADER = [
    "l", "substep", "ps_front", "ns_front", "pc_count", "nc_count", "zp", "zn",
    "cc_cancellations",
]


@dataclass
class Job:
    """One prepared workload run.

    ``run`` is the timed call. ``check`` returns a list of problems plus the
    simulated counts that can be read back from the outputs; ``outputs``
    names every file whose bytes are compared against recorded digests.
    """

    run: Callable[[], None]
    check: Callable[[], tuple]
    outputs: list
    sim_cycles: int


def prepare(name, seed, size, out_dir):
    return _PREPARERS[name](seed, size, out_dir)


# -- sweeps -------------------------------------------------------------


def _sweep_config(seed, size, **fields):
    from scbit.experiments import ExperimentConfig

    return ExperimentConfig(
        stream_len=size["stream_len"], trials=size["trials"], seed=seed, jobs=1,
        **fields,
    )


def _prepare_headline(seed, size, out_dir):
    from scbit import experiments

    cfg = _sweep_config(seed, size)
    csv_path, meta_path = out_dir / "headline.csv", out_dir / "headline.meta.json"

    def run():
        result = experiments.run_accuracy_sweep(["novel"], [16], [6], cfg)
        result.write_csv(csv_path)
        result.write_meta(meta_path)

    rows = [("novel", 16, 6, 0.0)]
    return _sweep_job(run, cfg, [(csv_path, meta_path, "accuracy", rows)])


def _prepare_fault(seed, size, out_dir):
    from scbit import experiments

    novel = _sweep_config(seed, size, design="novel", lanes=16, carry_len=6)
    base = _sweep_config(seed, size, design="baseline", lanes=16, counter_width=4)
    files = {
        d: (out_dir / f"fault_{d}.csv", out_dir / f"fault_{d}.meta.json")
        for d in ("novel", "baseline")
    }

    def run():
        for cfg in (novel, base):
            result = experiments.run_fault_sweep(list(P_FLIPS), cfg)
            result.write_csv(files[cfg.design][0])
            result.write_meta(files[cfg.design][1])

    sweeps = [
        (*files["novel"], "fault", [("novel", 16, 6, p) for p in P_FLIPS]),
        (*files["baseline"], "fault", [("baseline", 16, 4, p) for p in P_FLIPS]),
    ]
    return _sweep_job(run, novel, sweeps)


def _prepare_tree(seed, size, out_dir):
    from scbit import experiments

    cfg = _sweep_config(seed, size)
    lanes, widths = [16, 64], [2, 4, 6, 8]
    csv_path, meta_path = out_dir / "tree.csv", out_dir / "tree.meta.json"

    def run():
        result = experiments.run_accuracy_sweep(["baseline"], lanes, widths, cfg)
        result.write_csv(csv_path)
        result.write_meta(meta_path)

    rows = [("baseline", k, b, 0.0) for k in lanes for b in widths]
    return _sweep_job(run, cfg, [(csv_path, meta_path, "accuracy", rows)])


def _sweep_job(run, cfg, sweeps):
    """Job for sweeps given as (csv, meta, kind, expected grid rows)."""
    n_points = sum(len(rows) for *_, rows in sweeps)

    def check():
        problems = []
        counts = {"batch.engine_dropped": 0, "batch.engine_cc": 0, "batch.tree_saturations": 0}
        for csv_path, meta_path, kind, grid in sweeps:
            problems += _check_meta(meta_path, kind)
            rows, errs = _read_csv(csv_path, ACCURACY_HEADER)
            problems += errs
            expected = [
                (d, k, c, cfg.stream_len, p, cfg.trials, "standard_rmse", cfg.seed)
                for d, k, c, p in grid
            ]
            got = [
                (r["design"], int(r["K"]), int(r["M_or_B"]), int(r["L"]),
                 float(r["p_flip"]), int(r["trials"]), r["metric"], int(r["seed"]))
                for r in rows
            ]
            if got != expected:
                problems.append(f"{csv_path.name}: grid rows {got} != {expected}")
                continue
            for r in rows:
                rmse, rate, cc = (float(r[c]) for c in ("rmse", "overflow_rate", "cc_cancellations_mean"))
                if not (0.0 <= rmse <= 2.0 and rate >= 0.0 and cc >= 0.0):
                    problems.append(f"{csv_path.name}: values out of range in {r}")
                    continue
                overflow = _whole(rate * cfg.trials * cfg.stream_len, problems, csv_path)
                if r["design"] == "novel":
                    counts["batch.engine_dropped"] += overflow
                    counts["batch.engine_cc"] += _whole(cc * cfg.trials, problems, csv_path)
                else:
                    counts["batch.tree_saturations"] += overflow
                    if cc != 0.0:
                        problems.append(f"{csv_path.name}: baseline row with cancellations")
        return problems, counts

    return Job(
        run=run,
        check=check,
        outputs=[p for c, m, *_ in sweeps for p in (c, m)],
        sim_cycles=n_points * cfg.trials * cfg.stream_len,
    )


def _whole(value, problems, path):
    """An event total read back from a per-trial rate must be a whole number."""
    n = round(value)
    if abs(value - n) > 1e-6 * max(1.0, abs(value)):
        problems.append(f"{path.name}: {value} is not a whole event count")
    return n


# -- command line -------------------------------------------------------


def _cli_vectors(seed, lanes):
    """Vectors whose lane products have L1 norm below 0.9.

    That keeps every partial sum representable, as the sweep inputs do.
    Values are rounded to six decimals so the text files parse back exactly.
    """
    rnd = random.Random(seed)
    weights = [rnd.random() + 1e-3 for _ in range(lanes)]
    scale = 0.9 * rnd.random() / sum(weights)
    xs, ys = [], []
    for w in weights:
        p = w * scale
        x = p + rnd.random() * (1.0 - p)
        xs.append(round(x if rnd.random() < 0.5 else -x, 6))
        ys.append(round(p / x, 6))
    return xs, ys


def _prepare_cli(seed, size, out_dir):
    from scbit import cli

    lanes, length = 16, size["stream_len"]
    xs, ys = _cli_vectors(seed, lanes)
    x_file, y_file = out_dir / "x.txt", out_dir / "y.txt"
    x_file.write_text("".join(f"{v!r}\n" for v in xs))
    y_file.write_text("".join(f"{v!r}\n" for v in ys))
    trace, novel_out = out_dir / "novel_trace.csv", out_dir / "novel.json"
    base_out, can_csv = out_dir / "baseline.json", out_dir / "canceler.csv"
    can_meta = out_dir / "canceler.meta.json"
    common = [str(x_file), str(y_file), "--len", str(length), "--seed", str(seed)]
    commands = [
        ["inner-product", *common, "--trace", str(trace), "--out", str(novel_out)],
        ["inner-product", *common, "--design", "baseline", "--out", str(base_out)],
        ["sweep", "canceler", "--out", str(can_csv), "--seed", str(seed),
         "--trials", str(size["trials"])],
    ]
    printed = StringIO()

    def run():
        with redirect_stdout(printed):
            codes = [cli.main(argv) for argv in commands]
        if codes != [0, 0, 0]:
            raise RuntimeError(f"scbit exit codes {codes}")

    def check():
        truth = math.fsum(x * y for x, y in zip(xs, ys))
        problems = _check_meta(can_meta, "canceler")
        problems += _check_single_shot(novel_out, "novel", truth, seed)
        problems += _check_single_shot(base_out, "baseline", truth, seed)
        problems += _check_trace(trace, novel_out, lanes, length)
        rows, errs = _read_csv(can_csv, CANCELER_HEADER)
        problems += errs
        keys = [(r["direction"], int(r["K"]), int(r["trials"]), int(r["seed"])) for r in rows]
        want = [(d, k, size["trials"], seed) for k in CANCELER_LANES for d in ("opposite", "same")]
        if keys != want:
            problems.append(f"canceler.csv: rows {keys} != {want}")
        if any(not 0.0 <= float(r[c]) <= 1.0 for r in rows for c in ("p_p", "p_n")):
            problems.append("canceler.csv: delivery probability outside [0, 1]")
        if printed.getvalue().count("estimate: ") != 2:
            problems.append("inner-product did not print two estimates")
        return problems, {}

    return Job(
        run=run,
        check=check,
        outputs=[trace, novel_out, base_out, can_csv, can_meta],
        sim_cycles=2 * length + len(CANCELER_LANES) * size["trials"],
    )


def _check_single_shot(path, design, truth, seed):
    try:
        out = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return [f"{path.name}: {exc}"]
    problems = []
    if out.get("design") != design or out.get("seed") != seed:
        problems.append(f"{path.name}: design/seed {out.get('design')}/{out.get('seed')}")
    est = out.get("estimate")
    if not isinstance(est, float) or not -1.0 <= est <= 1.0:
        problems.append(f"{path.name}: estimate {est!r}")
    elif abs(out.get("true", math.inf) - truth) > 1e-12:
        problems.append(f"{path.name}: true {out.get('true')!r} != {truth!r}")
    elif out.get("abs_error") != abs(est - out["true"]):
        problems.append(f"{path.name}: abs_error inconsistent")
    return problems


def _check_trace(trace, out_path, lanes, length):
    """The novel estimate must be the mean of the emitted symbols in the trace."""
    rows, problems = _read_csv(trace, TRACE_HEADER)
    if problems:
        return problems
    if len(rows) != length * (lanes + 1):
        return [f"{trace.name}: {len(rows)} rows, expected {length * (lanes + 1)}"]
    emitted = [r for r in rows if int(r["substep"]) == lanes]
    total = sum(int(r["zp"]) - int(r["zn"]) for r in emitted)
    try:
        out = json.loads(out_path.read_text())
    except (OSError, ValueError):
        return []  # reported by _check_single_shot
    if [int(r["l"]) for r in emitted] != list(range(1, length + 1)):
        problems.append(f"{trace.name}: emission rows out of order")
    if total / length != out.get("estimate"):
        problems.append(f"{trace.name}: emitted mean {total / length} != estimate")
    if int(rows[-1]["cc_cancellations"]) != out.get("cc_cancellations"):
        problems.append(f"{trace.name}: cancellations disagree with {out_path.name}")
    return problems


# -- shared output checks ----------------------------------------------


def _read_csv(path, header):
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            head = next(reader, None)
            rows = [dict(zip(header, r)) for r in reader]
    except OSError as exc:
        return [], [f"{path.name}: {exc}"]
    if head != header:
        return [], [f"{path.name}: header {head}"]
    return rows, []


def _check_meta(path, kind):
    try:
        meta = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return [f"{path.name}: {exc}"]
    if meta.get("sweep") != kind:
        return [f"{path.name}: sweep kind {meta.get('sweep')!r}, expected {kind!r}"]
    return []


_PREPARERS = {
    "headline_novel": _prepare_headline,
    "fault_sweep": _prepare_fault,
    "tree_capacity_sweep": _prepare_tree,
    "cli_single_shot": _prepare_cli,
}
NAMES = tuple(_PREPARERS)
