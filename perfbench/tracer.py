"""Span tracer for the traced benchmark run.

Wraps the public functions of each scbit module from outside, replacing each
name where its caller looks it up (``scbit.experiments.engine_batch``,
``scbit.batch.encode_tlb``, ``scbit.rng.RandomSource.spawn`` ...). Every call
records a span (id, name, layer, start, end, parent) in memory; counts are
taken at the same boundaries. Per-layer time is self time: a span's duration
minus the time covered by its child spans. Counting code runs outside the
wrapped call and is recorded under the ``tracing`` layer, so it is charged
to no scbit layer.
"""

import csv
import inspect
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, layer, start, end, parent)
        self.counts = Counter()
        self.problems = []
        self.peak_array_bytes = 0
        self._stack = []
        self._next_id = 0
        self._patches = []

    @contextmanager
    def span(self, name, layer):
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._close(sid, name, layer, start, end, parent)

    def _open(self):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, name, layer, start, end, parent):
        self._stack.pop()
        self.spans.append((sid, name, layer, start, end, parent))

    def wrap(self, owner, attr, layer, hook=None):
        """Replace ``owner.attr`` by a timed wrapper.

        ``hook(tracer, bound_args, result)`` takes counts after the call and
        is charged to the ``tracing`` layer. A hook of the form
        ``hook(tracer, result)`` only bumps a counter; it skips argument
        binding and its own span, since it runs on every stream encoder call.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        signature = inspect.signature(original)
        light_hook = hook is not None and len(inspect.signature(hook).parameters) == 2
        name = f"{getattr(owner, '__name__', owner)}.{attr}"

        def wrapper(*args, **kwargs):
            sid, parent = self._open()
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._close(sid, name, layer, start, end, parent)
            if light_hook:
                hook(self, result)
            elif hook is not None:
                with self.span(f"{name}:count", "tracing"):
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(self, bound.arguments, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self):
        for owner, attr, layer, hook in _targets():
            self.wrap(owner, attr, layer, hook)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self):
        """Self time per layer: span duration minus its children's durations."""
        covered = defaultdict(float)
        for _, _, _, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        per_layer = defaultdict(float)
        for sid, _, layer, start, end, _ in self.spans:
            per_layer[layer] += (end - start) - covered[sid]
        return per_layer

    def write_spans(self, path):
        with open(Path(path), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("id", "name", "layer", "start", "end", "parent"))
            writer.writerows(sorted(self.spans))

    def layer_metrics(self):
        """Per-layer metric values by their benchmark names."""
        t = self.self_times()
        c = self.counts
        expected_flips = c["batch.flips_expected"]
        metrics = {
            "batch.engine_s": t["batch.engine"],
            "batch.engine_ns_per_step": _per(t["batch.engine"] * 1e9, c["batch.engine_steps"]),
            "batch.encode_s": t["batch.encode"],
            "streams.encode_s": t["streams.encode"],
            "rng.spawn_s": t["rng.spawn"],
            "batch.faults_s": t["batch.faults"],
            "batch.flips_ratio": _per(c["batch.flips_drawn"], expected_flips),
            "batch.tree_s": t["batch.tree"],
            "batch.tree_ns_per_node_update": _per(t["batch.tree"] * 1e9, c["batch.tree_node_updates"]),
            "batch.canceler_s": t["batch.canceler"],
            "engine.run_s": t["engine.run"],
            "engine.us_per_cycle": _per(t["engine.run"] * 1e6, c["engine.cycles"]),
            "baseline.run_s": t["baseline.run"],
            "cli.self_s": t["cli"],
            "experiments.self_s": t["experiments"],
            "experiments.report_s": t["experiments.report"],
        }
        return metrics, self.count_values()

    def count_values(self):
        """Counts that must repeat exactly between runs of one seed."""
        names = (
            "batch.engine_steps", "batch.engine_dropped", "batch.engine_cc",
            "batch.ledger_trials_checked", "batch.encode_lane_bits",
            "streams.encode_calls", "rng.sources_made", "batch.flips_drawn",
            "batch.tree_node_updates", "batch.tree_saturations",
            "batch.canceler_deliveries", "engine.cycles", "experiments.bytes_written",
        )
        values = {n: int(self.counts[n]) for n in names}
        values["batch.peak_array_bytes"] = int(self.peak_array_bytes)
        return values


def _per(numerator, denominator):
    return numerator / denominator if denominator else 0.0


# -- count hooks ---------------------------------------------------------


def _engine_counts(tracer, args, out):
    import numpy as np

    products = np.asarray(args["products"])
    trials, lanes, cycles = products.shape
    c = tracer.counts
    c["batch.engine_steps"] += trials * lanes * cycles
    c["batch.engine_dropped"] += int(out["dropped_pos"].sum() + out["dropped_neg"].sum())
    c["batch.engine_cc"] += int(out["cc_cancellations"].sum())
    planes = out["emitted_pos"].nbytes + out["emitted_neg"].nbytes
    tracer.peak_array_bytes = max(tracer.peak_array_bytes, products.nbytes + planes)
    if args["fault_schedules"] is not None:
        return
    # conservation of signed units, checked from outside on fault-free runs
    loaded = products.sum(axis=(1, 2), dtype=np.int64)
    emitted = out["emitted_pos"].sum(axis=1, dtype=np.int64) - out["emitted_neg"].sum(
        axis=1, dtype=np.int64
    )
    ledger = (
        emitted + out["residual_pos"] - out["residual_neg"]
        + out["dropped_pos"] - out["dropped_neg"]
    )
    if not np.array_equal(loaded, ledger):
        bad = int(np.argmax(loaded != ledger))
        tracer.problems.append(
            f"engine_batch ledger broken in trial {bad}: {loaded[bad]} != {ledger[bad]}"
        )
    c["batch.ledger_trials_checked"] += trials


def _tree_counts(tracer, args, out):
    import numpy as np

    products = np.asarray(args["products"])
    trials, lanes, cycles = products.shape
    tracer.counts["batch.tree_node_updates"] += trials * (lanes - 1) * cycles
    tracer.counts["batch.tree_saturations"] += int(out["saturation_events"].sum())
    tracer.peak_array_bytes = max(
        tracer.peak_array_bytes, products.nbytes + out["emitted"].nbytes
    )


def _canceler_counts(tracer, args, out):
    trials, lanes = args["hold_pos"].shape
    tracer.counts["batch.canceler_deliveries"] += trials * lanes


def _flip_counts(tracer, args, out):
    tracer.counts["batch.flips_drawn"] += len(out[0])
    tracer.counts["batch.flips_expected"] += args["n_bits"] * args["n_cycles"] * args["p_flip"]


def _lane_bits(tracer, out):
    tracer.counts["batch.encode_lane_bits"] += out.size


def _encode_call(tracer, out):
    tracer.counts["streams.encode_calls"] += 1


def _sources(tracer, out):
    tracer.counts["rng.sources_made"] += len(out)


def _bytes_written(tracer, args, out):
    tracer.counts["experiments.bytes_written"] += Path(args["path"]).stat().st_size


def _engine_cycles(tracer, args, out):
    tracer.counts["engine.cycles"] += args["config"].stream_len


def _targets():
    """(owner, name, layer, hook) for every wrapped scbit name."""
    from scbit import baseline, batch, cli, engine, experiments, rng

    return [
        (experiments, "run_accuracy_sweep", "experiments", None),
        (experiments, "run_fault_sweep", "experiments", None),
        (experiments, "run_point", "experiments", None),
        (cli, "run_canceler_experiment", "experiments", None),
        (experiments.SweepResult, "write_csv", "experiments.report", _bytes_written),
        (experiments.SweepResult, "write_meta", "experiments.report", _bytes_written),
        (experiments, "encode_tlb_products", "batch.encode", _lane_bits),
        (experiments, "encode_sm_products", "batch.encode", _lane_bits),
        (experiments, "draw_fault_schedule", "batch.faults", _flip_counts),
        (experiments, "merge_fault_schedules", "batch.faults", None),
        (experiments, "engine_batch", "batch.engine", _engine_counts),
        (experiments, "tree_batch", "batch.tree", _tree_counts),
        (experiments, "canceler_batch", "batch.canceler", _canceler_counts),
        (batch, "encode_tlb", "streams.encode", _encode_call),
        (batch, "encode_sm", "streams.encode", _encode_call),
        (batch, "ternary_values", "streams.encode", None),
        (engine, "encode_tlb", "streams.encode", _encode_call),
        (baseline, "encode_sm", "streams.encode", _encode_call),
        (rng.RandomSource, "spawn", "rng.spawn", _sources),
        (cli.engine_mod, "run_inner_product", "engine.run", _engine_cycles),
        (cli.baseline_mod, "run_tree_inner_product", "baseline.run", None),
        (cli, "main", "cli", None),
    ]
