"""Experiment harness: accuracy sweeps, fault sweeps, the shift-direction
experiment, and CSV reporting.

Accuracy and fault rows share one schema::

    design,K,M_or_B,L,p_flip,trials,metric,rmse,overflow_rate,cc_cancellations_mean,seed

The shift-direction experiment emits its own schema::

    direction,K,trials,cc_enabled,p_p,p_n,se_p,se_n,seed

Every sweep also writes a ``meta.json`` companion capturing the effective
configuration and the modeling choices a reader needs to interpret the
numbers (reconstructed baseline, per-bit fault model, input distribution).
Each sweep reads its operating point from one ``ExperimentConfig``, the
one place it is checked, and builds every grid point's config before the
first point runs.

Reproducibility contract: identical configuration and seed produce
byte-identical CSV output. Trials derive per-trial seed material from
(seed, design, K, capacity, L) only, so a fault sweep at p_flip = 0
reproduces the accuracy sweep exactly, and results do not depend on how
trials are chunked across workers. A fault sweep therefore encodes each
trial once and runs every p_flip of its grid on the same lane products.
"""

import csv
import dataclasses
import json
import math
import numbers
import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .batch import (
    _is_opposite,
    canceler_batch,
    draw_fault_schedule,
    encode_sm_products,  # noqa: F401  unused here, but perfbench/tracer.py wraps it
    encode_tlb_products,
    engine_batch,
    merge_fault_schedules,
    tree_batch,
)
from .rng import RandomSource
from .streams import _is_integer

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

# trial x lane cells per block of the shift-direction experiment: its
# transient arrays stay this size at any trial count
_CANCELER_BLOCK_CELLS = 1 << 18

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
        return _is_integer(value)
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
            if isinstance(value, np.generic):  # a numpy scalar is not JSON serializable
                setattr(self, f.name, value.item())
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
        _is_opposite(self.shift_direction)
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")

    @property
    def capacity(self):
        """Accuracy-controlling storage size of the selected design."""
        return self.carry_len if self.design == "novel" else self.counter_width

    def replace(self, **updates):
        return dataclasses.replace(self, **updates)

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
    """Worker for one chunk of trials; pure function of its payload.

    Each trial's lane products are encoded once and every p_flip runs on
    them. Returns one (estimates, truths, overflow, cc) tuple per p_flip.
    """
    cfg, p_flips, trial_sequences = payload
    n = len(trial_sequences)
    truths = np.zeros(n, dtype=np.float64)
    products = np.zeros((n, cfg.lanes, cfg.stream_len), dtype=np.int8)
    n_bits = 2 * cfg.capacity if cfg.design == "novel" else (cfg.lanes - 1) * cfg.capacity
    fault_seqs = []
    for i, seq in enumerate(trial_sequences):
        vec_seq, enc_seq, fault_seq = seq.spawn(3)
        vec_rng = RandomSource(_sequence=vec_seq)
        x, y, z = _draw_trial_vectors(vec_rng, cfg.lanes, cfg.input_scale)
        truths[i] = z
        products[i] = encode_tlb_products(x, y, cfg.stream_len, RandomSource(_sequence=enc_seq))
        fault_seqs.append(fault_seq)

    results = []
    for p_flip in p_flips:
        # p = 0 passes None, as a lone fault-free point does, not an empty
        # schedule; a fresh source per p draws the schedule a lone point would
        faults = None
        if p_flip > 0.0:
            faults = merge_fault_schedules(
                [
                    draw_fault_schedule(RandomSource(_sequence=s), n_bits, cfg.stream_len, p_flip)
                    for s in fault_seqs
                ]
            )
        if cfg.design == "novel":
            out = engine_batch(
                products,
                cfg.capacity,
                cc_enabled=cfg.cc_enabled,
                shift_direction=cfg.shift_direction,
                fault_schedules=faults,
            )
            emitted = out["emitted_pos"].sum(axis=1, dtype=np.int64) - out[
                "emitted_neg"
            ].sum(axis=1, dtype=np.int64)
            overflow = out["dropped_pos"] + out["dropped_neg"]
            cc = out["cc_cancellations"]
        else:
            out = tree_batch(products, cfg.capacity, fault_schedules=faults)
            emitted = out["emitted"].sum(axis=1, dtype=np.int64)
            overflow = out["saturation_events"]
            cc = np.zeros(n, dtype=np.int64)
        results.append((emitted / cfg.stream_len, truths, overflow, cc))
    return results


def _usable_cpus():
    """CPUs this process may run on: the ceiling on worker processes."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _runnable(cfg):
    """``cfg``, or ValueError if ``run_point`` cannot run it: the baseline
    tree needs a power-of-two lane count >= 2."""
    if cfg.design == "baseline" and (cfg.lanes < 2 or cfg.lanes & (cfg.lanes - 1)):
        raise ValueError("baseline sweeps need a power-of-two lane count >= 2")
    return cfg


def _run_points(cfg, p_flips):
    """Run all trials of ``cfg``'s operating point at each p_flip in ``p_flips``.

    Returns one (estimates, truths, overflow_events, cc_cancellations) tuple
    per p_flip, each array per trial and ordered by trial index regardless
    of ``jobs``. Trials run in at most min(jobs, trials, usable CPUs)
    processes; each encodes its trials once for the whole p grid.
    """
    if not p_flips:  # an empty grid encodes no trial
        return []
    point = _point_sequence(cfg.seed, cfg.design, cfg.lanes, cfg.capacity, cfg.stream_len)
    trial_sequences = point.spawn(cfg.trials)
    chunks = max(1, min(cfg.jobs, cfg.trials, _usable_cpus()))
    bounds = np.linspace(0, cfg.trials, chunks + 1, dtype=int)
    payloads = [
        (cfg, p_flips, trial_sequences[lo:hi])
        for lo, hi in zip(bounds[:-1], bounds[1:])
        if hi > lo
    ]
    if len(payloads) == 1:
        results = [_simulate_trials(payloads[0])]
    else:
        # imported here: the pool's modules cost every process that never starts one
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(payloads)) as pool:
            results = list(pool.map(_simulate_trials, payloads))
    return [tuple(np.concatenate(parts) for parts in zip(*per_p)) for per_p in zip(*results)]


def run_point(cfg):
    """Run all trials of one operating point.

    Returns (estimates, truths, overflow_events, cc_cancellations), each a
    per-trial array ordered by trial index regardless of ``jobs``. Trials
    run in at most min(jobs, trials, usable CPUs) processes.
    """
    return _run_points(_runnable(cfg), [cfg.p_flip])[0]


def _point_row(cfg, estimates, truths, overflow, cc):
    return {
        "design": cfg.design,
        "K": cfg.lanes,
        "M_or_B": cfg.capacity,
        "L": cfg.stream_len,
        "p_flip": float(cfg.p_flip),
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

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.columns)
            for row in self.rows:
                writer.writerow([_format_cell(row[c]) for c in self.columns])

    def write_meta(self, path):
        # serialized first, so that a value JSON cannot hold leaves no partial file
        text = json.dumps(self.meta, indent=2, sort_keys=True) + "\n"
        with open(path, "w") as fh:
            fh.write(text)


def _format_cell(value):
    # csv.writer already writes a float as its repr, so only bools need a rule
    if isinstance(value, bool):
        return "true" if value else "false"
    return value


def run_accuracy_sweep(designs, lanes_values, capacities, cfg):
    """Grid sweep over design x lanes x storage capacity.

    ``capacities`` is interpreted as carry register length for the novel
    design and counter width for the baseline. Every grid point is checked
    before the first one runs. The metadata reports, per (design, lanes),
    the minimal capacity reaching each RMSE threshold.
    """
    base = cfg.replace(p_flip=0.0)
    points = []
    for design in designs:
        size = "carry_len" if design == "novel" else "counter_width"
        points += [
            _runnable(base.replace(design=design, lanes=lanes, **{size: capacity}))
            for lanes in lanes_values
            for capacity in capacities
        ]
    rows = [_point_row(point, *run_point(point)) for point in points]

    minimal = {}
    for design in designs:
        for lanes in lanes_values:
            matching = [r for r in rows if r["design"] == design and r["K"] == lanes]
            minimal[f"{design}/K={lanes}"] = {
                str(thr): min((r["M_or_B"] for r in matching if r["rmse"] <= thr), default=None)
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
    """Sweep the bit-flip probability at a fixed operating point, every p checked first.

    Each trial is encoded once, and every p runs on the same lane products.
    """
    points = [_runnable(cfg.replace(p_flip=p)) for p in p_flips]
    results = _run_points(cfg, [point.p_flip for point in points])
    rows = [_point_row(point, *result) for point, result in zip(points, results)]
    meta = {
        "sweep": "fault",
        "config": cfg.to_dict(),
        "grid": {"p_flips": [float(p) for p in p_flips]},
        "notes": MODEL_NOTES,
    }
    return SweepResult(ACCURACY_COLUMNS, rows, meta)


def run_canceler_experiment(lanes_values, config):
    """Estimate the mean probability that ones reach the accumulation stage.

    Per lane count K, the input shift registers are loaded from
    Bernoulli(0.5) hold bits and drained in both shift-direction modes
    (paired loads), recording the front pair delivered at each of the K
    steps. Rows report the per-direction estimates with their Monte Carlo
    standard errors. ``config`` is an ``ExperimentConfig`` that supplies
    ``trials``, ``seed`` and ``cc_enabled``; every lane count is checked as
    its ``lanes`` before the first one runs. Trials run in blocks of
    ``_CANCELER_BLOCK_CELLS`` trial x lane cells, so the two int8 hold planes
    and one rate per trial and line are all that grows with ``trials``.
    """
    trials, seed, cc_enabled = config.trials, config.seed, config.cc_enabled
    lanes_values = [int(config.replace(lanes=lanes).lanes) for lanes in lanes_values]
    rows = []
    for lanes in lanes_values:
        point = np.random.SeedSequence((seed, 2, lanes, trials))
        rng = RandomSource(_sequence=point)
        block = max(1, _CANCELER_BLOCK_CELLS // lanes)
        starts = range(0, trials, block)
        hold = np.empty((2, trials, lanes), dtype=np.int8)
        for plane in hold:  # every +1 hold bit is drawn before the first -1 bit
            for lo in starts:
                plane[lo:lo + block] = rng.uniform(plane[lo:lo + block].shape) < 0.5
        per_trial = np.empty((2, trials))
        for direction in ("opposite", "same"):
            for lo in starts:
                out = canceler_batch(*hold[:, lo:lo + block], direction, cc_enabled=cc_enabled)
                # per-trial delivery rates, one row for the +1 line and one for the -1 line
                per_trial[:, lo:lo + block] = np.stack(out[:2]).mean(axis=2)
            p_p, p_n = per_trial.mean(axis=1)
            se_p, se_n = per_trial.std(axis=1, ddof=1) / math.sqrt(trials) if trials > 1 else (0, 0)
            rows.append(
                {
                    "direction": direction,
                    "K": lanes,
                    "trials": trials,
                    "cc_enabled": cc_enabled,
                    "p_p": float(p_p),
                    "p_n": float(p_n),
                    "se_p": float(se_p),
                    "se_n": float(se_n),
                    "seed": seed,
                }
            )
    meta = {
        "sweep": "canceler",
        "grid": {"lanes": lanes_values},
        "trials": trials,
        "seed": seed,
        "cc_enabled": cc_enabled,
        "notes": {
            "protocol": (
                "hold bits Bernoulli(0.5); lane-wise carry canceling on the "
                "load path; fronts recorded before each of the K shift steps; "
                "both directions measured on paired loads"
            )
        },
    }
    return SweepResult(CANCELER_COLUMNS, rows, meta)
