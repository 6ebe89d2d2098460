"""Experiment harness: accuracy sweeps, fault sweeps, the shift-direction
experiment, and CSV reporting.

Accuracy and fault rows share one schema::

    design,K,M_or_B,L,p_flip,trials,metric,rmse,overflow_rate,cc_cancellations_mean,seed

The shift-direction experiment emits its own schema::

    direction,K,trials,cc_enabled,p_p,p_n,se_p,se_n,seed

Every sweep also writes a ``meta.json`` companion capturing the effective
configuration and the modeling choices a reader needs to interpret the
numbers (reconstructed baseline, per-bit fault model, input distribution).

Reproducibility contract: identical configuration and seed produce
byte-identical CSV output. Trials derive per-trial seed material from
(seed, design, K, capacity, L) only, so a fault sweep at p_flip = 0
reproduces the accuracy sweep exactly, and results do not depend on how
trials are chunked across workers.
"""

import csv
import json
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .batch import (
    canceler_batch,
    draw_fault_schedule,
    encode_sm_products,
    encode_tlb_products,
    engine_batch,
    merge_fault_schedules,
    tree_batch,
)
from .rng import RandomSource

__all__ = [
    "ExperimentConfig",
    "SweepResult",
    "rmse",
    "run_point",
    "run_accuracy_sweep",
    "run_fault_sweep",
    "run_canceler_experiment",
    "ACCURACY_COLUMNS",
    "CANCELER_COLUMNS",
    "RMSE_THRESHOLDS",
]

ACCURACY_COLUMNS = (
    "design",
    "K",
    "M_or_B",
    "L",
    "p_flip",
    "trials",
    "metric",
    "rmse",
    "overflow_rate",
    "cc_cancellations_mean",
    "seed",
)

CANCELER_COLUMNS = (
    "direction",
    "K",
    "trials",
    "cc_enabled",
    "p_p",
    "p_n",
    "se_p",
    "se_n",
    "seed",
)

# accuracy targets used for the minimal-capacity summary
RMSE_THRESHOLDS = (0.1, 0.05, 0.02)

_DESIGN_CODES = {"novel": 0, "baseline": 1}

MODEL_NOTES = {
    "baseline_design": (
        "counter-based adder tree is a reconstruction of the comparison "
        "design; its absolute accuracy is trend-based"
    ),
    "fault_model": (
        "each storage bit (carry shift register cell / counter bit) flips "
        "independently with probability p_flip at the start of every "
        "main-clock cycle"
    ),
    "input_distribution": (
        "per trial the lane product vector is built directly: a sign-aligned "
        "component carrying an inner product drawn uniform in "
        "(-input_scale, input_scale) plus a zero-sum texture component, with "
        "total L1 norm capped at input_scale so every partial product sum "
        "stays inside the per-cycle representable range of both non-scaled "
        "designs; lane values are random (x_k, y_k) splits of the products"
    ),
    "trace_indexing": "l columns in trace CSVs are 1-based",
}


def _has_type(value, kind):
    """JSON-style type check: booleans are not numbers, integers are floats."""
    if kind is bool or isinstance(value, bool):
        return kind is bool and isinstance(value, bool)
    if kind is int:
        return isinstance(value, numbers.Integral)
    if kind is float:
        return isinstance(value, numbers.Real)
    return isinstance(value, kind)


@dataclass
class ExperimentConfig:
    """One experiment operating point plus harness knobs."""

    design: str = "novel"  # novel | baseline
    lanes: int = 16  # K
    carry_len: int = 6  # M, used by the novel design
    counter_width: int = 4  # B, used by the baseline
    stream_len: int = 10_000  # L
    trials: int = 200
    p_flip: float = 0.0
    seed: int = 0
    input_scale: float = 0.9
    metric: str = "standard_rmse"  # standard_rmse | paper_literal
    cc_enabled: bool = True
    shift_direction: str = "opposite"
    jobs: int = 1

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not _has_type(value, f.type):
                raise ValueError(f"{f.name} must be of type {f.type.__name__}, got {value!r}")
        if self.design not in _DESIGN_CODES:
            raise ValueError(f"unknown design {self.design!r}")
        if self.lanes < 1 or self.carry_len < 1 or self.counter_width < 1:
            raise ValueError("lanes, carry_len and counter_width must be >= 1")
        if self.stream_len < 1:
            raise ValueError("stream_len must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0.0 <= self.p_flip <= 1.0:
            raise ValueError("p_flip must lie in [0, 1]")
        if not 0.0 < self.input_scale <= 1.0:
            raise ValueError("input_scale must lie in (0, 1]")
        if self.metric not in ("standard_rmse", "paper_literal"):
            raise ValueError(f"unknown metric {self.metric!r}")
        if self.shift_direction not in ("opposite", "same"):
            raise ValueError("shift_direction must be 'opposite' or 'same'")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")

    @property
    def capacity(self):
        """Accuracy-controlling storage size of the selected design."""
        return self.carry_len if self.design == "novel" else self.counter_width

    def replace(self, **updates):
        data = asdict(self)
        data.update(updates)
        return ExperimentConfig(**data)

    @classmethod
    def from_dict(cls, data):
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)

    def to_dict(self):
        return asdict(self)


def rmse(estimates, truths, metric="standard_rmse"):
    """Accuracy metric over paired estimates and ground truths.

    ``standard_rmse`` is sqrt(mean((e - t)^2)); ``paper_literal`` is the
    printed variant sqrt(mean(|e - t|)).
    """
    estimates = np.asarray(estimates, dtype=np.float64)
    truths = np.asarray(truths, dtype=np.float64)
    if estimates.shape != truths.shape or estimates.ndim != 1:
        raise ValueError("estimates and truths must be 1-d and equally long")
    if estimates.size == 0:
        raise ValueError("need at least one estimate")
    err = estimates - truths
    if metric == "standard_rmse":
        return float(np.sqrt(np.mean(err**2)))
    if metric == "paper_literal":
        return float(np.sqrt(np.mean(np.abs(err))))
    raise ValueError(f"unknown metric {metric!r}")


def _point_sequence(seed, design, lanes, capacity, stream_len):
    """Seed material for one grid point; independent of p_flip and metric."""
    return np.random.SeedSequence(
        (int(seed), _DESIGN_CODES[design], int(lanes), int(capacity), int(stream_len))
    )


def _draw_trial_vectors(rng, lanes, input_scale):
    """Random trial inputs with every partial product sum representable.

    Non-scaled designs move at most one signed unit per node per cycle, so
    accuracy is only meaningful while every subtree's partial product sum
    stays inside [-1, 1]. The lane product vector is therefore built
    directly: a sign-aligned component carrying the target inner product
    (drawn uniform in (-input_scale, input_scale)) plus a zero-sum texture
    component that exercises sign mixing, with the total L1 norm capped at
    ``input_scale``. Lane values are random (x_k, y_k) splits of the
    products. Returns (x, y, true inner product).
    """
    sign = 1.0 if rng.uniform() < 0.5 else -1.0
    target = sign * rng.uniform() * input_scale
    weights = rng.uniform(lanes)
    total = weights.sum()
    weights = weights / total if total > 0 else np.full(lanes, 1.0 / lanes)
    aligned = target * weights
    texture = rng.uniform_signed(lanes)
    texture -= texture.mean()
    texture_l1 = np.abs(texture).sum()
    budget = input_scale - abs(target)
    if texture_l1 > 0:
        texture *= budget / texture_l1
    else:
        texture[:] = 0.0
    products = aligned + texture

    magnitudes = np.abs(products)
    split = rng.uniform(lanes)
    x_mag = magnitudes + split * (1.0 - magnitudes)
    y = np.where(x_mag > 0, magnitudes / x_mag, 0.0)
    x = np.where(products < 0, -x_mag, x_mag)
    return x, y, float(x @ y)


def _simulate_trials(payload):
    """Worker for one chunk of trials; pure function of its payload."""
    (
        design,
        lanes,
        capacity,
        stream_len,
        input_scale,
        p_flip,
        cc_enabled,
        shift_direction,
        trial_sequences,
    ) = payload
    n = len(trial_sequences)
    truths = np.zeros(n, dtype=np.float64)
    products = np.zeros((n, lanes, stream_len), dtype=np.int8)
    n_bits = 2 * capacity if design == "novel" else (lanes - 1) * capacity
    schedules = []
    for i, seq in enumerate(trial_sequences):
        vec_seq, enc_seq, fault_seq = seq.spawn(3)
        vec_rng = RandomSource(_sequence=vec_seq)
        x, y, z = _draw_trial_vectors(vec_rng, lanes, input_scale)
        truths[i] = z
        enc_rng = RandomSource(_sequence=enc_seq)
        if design == "novel":
            products[i] = encode_tlb_products(x, y, stream_len, enc_rng)
        else:
            products[i] = encode_sm_products(x, y, stream_len, enc_rng)
        if p_flip > 0.0:
            fault_rng = RandomSource(_sequence=fault_seq)
            schedules.append(draw_fault_schedule(fault_rng, n_bits, stream_len, p_flip))
        else:
            schedules.append(None)
    faults = merge_fault_schedules(schedules) if p_flip > 0.0 else None

    if design == "novel":
        out = engine_batch(
            products,
            capacity,
            cc_enabled=cc_enabled,
            shift_direction=shift_direction,
            fault_schedules=faults,
        )
        emitted = out["emitted_pos"].sum(axis=1, dtype=np.int64) - out[
            "emitted_neg"
        ].sum(axis=1, dtype=np.int64)
        overflow = out["dropped_pos"] + out["dropped_neg"]
        cc = out["cc_cancellations"]
    else:
        out = tree_batch(products, capacity, fault_schedules=faults)
        emitted = out["emitted"].sum(axis=1, dtype=np.int64)
        overflow = out["saturation_events"]
        cc = np.zeros(n, dtype=np.int64)
    estimates = emitted / stream_len
    return estimates, truths, overflow, cc


def _usable_cpus():
    """CPUs this process may run on: the ceiling on worker processes."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def run_point(cfg):
    """Run all trials of one operating point.

    Returns (estimates, truths, overflow_events, cc_cancellations), each a
    per-trial array ordered by trial index regardless of ``jobs``. Trials
    run in at most min(jobs, trials, usable CPUs) processes.
    """
    if cfg.design == "baseline" and (cfg.lanes < 2 or cfg.lanes & (cfg.lanes - 1)):
        raise ValueError("baseline sweeps need a power-of-two lane count >= 2")
    point = _point_sequence(cfg.seed, cfg.design, cfg.lanes, cfg.capacity, cfg.stream_len)
    trial_sequences = point.spawn(cfg.trials)
    chunks = max(1, min(cfg.jobs, cfg.trials, _usable_cpus()))
    bounds = np.linspace(0, cfg.trials, chunks + 1, dtype=int)
    payloads = [
        (
            cfg.design,
            cfg.lanes,
            cfg.capacity,
            cfg.stream_len,
            cfg.input_scale,
            cfg.p_flip,
            cfg.cc_enabled,
            cfg.shift_direction,
            trial_sequences[lo:hi],
        )
        for lo, hi in zip(bounds[:-1], bounds[1:])
        if hi > lo
    ]
    if len(payloads) == 1:
        results = [_simulate_trials(payloads[0])]
    else:
        with ProcessPoolExecutor(max_workers=len(payloads)) as pool:
            results = list(pool.map(_simulate_trials, payloads))
    estimates = np.concatenate([r[0] for r in results])
    truths = np.concatenate([r[1] for r in results])
    overflow = np.concatenate([r[2] for r in results])
    cc = np.concatenate([r[3] for r in results])
    return estimates, truths, overflow, cc


def _point_row(cfg, estimates, truths, overflow, cc):
    return {
        "design": cfg.design,
        "K": cfg.lanes,
        "M_or_B": cfg.capacity,
        "L": cfg.stream_len,
        "p_flip": cfg.p_flip,
        "trials": cfg.trials,
        "metric": cfg.metric,
        "rmse": rmse(estimates, truths, cfg.metric),
        "overflow_rate": float(overflow.sum()) / (cfg.trials * cfg.stream_len),
        "cc_cancellations_mean": float(cc.mean()),
        "seed": cfg.seed,
    }


@dataclass
class SweepResult:
    """Rows plus companion metadata for one sweep."""

    columns: tuple
    rows: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def column(self, name):
        return [row[name] for row in self.rows]

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.columns)
            for row in self.rows:
                writer.writerow([_format_cell(row[c]) for c in self.columns])

    def write_meta(self, path):
        with open(path, "w") as fh:
            json.dump(self.meta, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _format_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return value


def run_accuracy_sweep(designs, lanes_values, capacities, cfg):
    """Grid sweep over design x lanes x storage capacity.

    ``capacities`` is interpreted as carry register length for the novel
    design and counter width for the baseline. The metadata reports, per
    (design, lanes), the minimal capacity reaching each RMSE threshold.
    """
    base = cfg.replace(p_flip=0.0)
    rows = []
    for design in designs:
        for lanes in lanes_values:
            for capacity in capacities:
                if design == "novel":
                    point = base.replace(design=design, lanes=lanes, carry_len=capacity)
                else:
                    point = base.replace(
                        design=design, lanes=lanes, counter_width=capacity
                    )
                rows.append(_point_row(point, *run_point(point)))

    minimal = {}
    for design in designs:
        for lanes in lanes_values:
            matching = [
                r for r in rows if r["design"] == design and r["K"] == lanes
            ]
            key = f"{design}/K={lanes}"
            minimal[key] = {
                str(thr): next(
                    (
                        r["M_or_B"]
                        for r in sorted(matching, key=lambda r: r["M_or_B"])
                        if r["rmse"] <= thr
                    ),
                    None,
                )
                for thr in RMSE_THRESHOLDS
            }

    meta = {
        "sweep": "accuracy",
        "config": base.to_dict(),
        "grid": {
            "designs": list(designs),
            "lanes": [int(v) for v in lanes_values],
            "capacities": [int(v) for v in capacities],
        },
        "minimal_capacity": minimal,
        "notes": MODEL_NOTES,
    }
    return SweepResult(ACCURACY_COLUMNS, rows, meta)


def run_fault_sweep(p_flips, cfg):
    """Sweep the bit-flip probability at a fixed operating point."""
    rows = []
    for p in p_flips:
        point = cfg.replace(p_flip=float(p))
        rows.append(_point_row(point, *run_point(point)))
    meta = {
        "sweep": "fault",
        "config": cfg.to_dict(),
        "grid": {"p_flips": [float(p) for p in p_flips]},
        "notes": MODEL_NOTES,
    }
    return SweepResult(ACCURACY_COLUMNS, rows, meta)


def run_canceler_experiment(lanes_values, trials, seed, cc_enabled=True):
    """Estimate the mean probability that ones reach the accumulation stage.

    Per lane count K, the input shift registers are loaded from
    Bernoulli(0.5) hold bits and drained in both shift-direction modes
    (paired loads), recording the front pair delivered at each of the K
    steps. Rows report the per-direction estimates with their Monte Carlo
    standard errors.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rows = []
    for lanes in lanes_values:
        lanes = int(lanes)
        if lanes < 1:
            raise ValueError("lane counts must be >= 1")
        point = np.random.SeedSequence((int(seed), 2, lanes, int(trials)))
        rng = RandomSource(_sequence=point)
        hold_pos = (rng.uniform((trials, lanes)) < 0.5).astype(np.int8)
        hold_neg = (rng.uniform((trials, lanes)) < 0.5).astype(np.int8)
        for direction in ("opposite", "same"):
            del_p, del_n, _ = canceler_batch(
                hold_pos, hold_neg, shift_direction=direction, cc_enabled=cc_enabled
            )
            per_trial_p = del_p.mean(axis=1)
            per_trial_n = del_n.mean(axis=1)
            rows.append(
                {
                    "direction": direction,
                    "K": lanes,
                    "trials": int(trials),
                    "cc_enabled": cc_enabled,
                    "p_p": float(per_trial_p.mean()),
                    "p_n": float(per_trial_n.mean()),
                    "se_p": float(per_trial_p.std(ddof=1) / math.sqrt(trials))
                    if trials > 1
                    else 0.0,
                    "se_n": float(per_trial_n.std(ddof=1) / math.sqrt(trials))
                    if trials > 1
                    else 0.0,
                    "seed": int(seed),
                }
            )
    meta = {
        "sweep": "canceler",
        "grid": {"lanes": [int(v) for v in lanes_values]},
        "trials": int(trials),
        "seed": int(seed),
        "cc_enabled": bool(cc_enabled),
        "notes": {
            "protocol": (
                "hold bits Bernoulli(0.5); lane-wise carry canceling on the "
                "load path; fronts recorded before each of the K shift steps; "
                "both directions measured on paired loads"
            )
        },
    }
    return SweepResult(CANCELER_COLUMNS, rows, meta)
