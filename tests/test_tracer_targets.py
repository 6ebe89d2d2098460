"""The names perfbench/tracer.py wraps, and the arguments its count hooks
read, must resolve, and the product encoders must reach the encoder and
spawn calls it counts the same number of times: the suite does not collect
perfbench/, so a rename or a rerouted call would break only the traced
benchmark."""

import importlib.util
import inspect
from dataclasses import fields
from pathlib import Path

import pytest

from scbit import ExperimentConfig, RandomSource, batch, experiments

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# the arguments each count hook reads from the call it wraps
HOOK_ARGUMENTS = {
    "_engine_counts": {"products", "fault_schedules"},
    "_tree_counts": {"products"},
    "_canceler_counts": {"hold_pos"},
    "_flip_counts": {"n_bits", "n_cycles", "p_flip"},
    "_bytes_written": {"path"},
    "_engine_cycles": {"config"},
}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def load_targets():
    return load_tracer()._targets()


def test_every_traced_name_resolves():
    missing = [
        f"{getattr(owner, '__name__', owner)}.{name}"
        for owner, name, _, _ in load_targets()
        if not (name in owner.__dict__ if isinstance(owner, type) else hasattr(owner, name))
    ]
    assert missing == []


def test_every_hook_argument_resolves():
    hooked = set()
    for owner, name, _, hook in load_targets():
        if hook is None or hook.__name__ not in HOOK_ARGUMENTS:
            continue
        hooked.add(hook.__name__)
        wrapped = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        parameters = inspect.signature(wrapped).parameters
        assert HOOK_ARGUMENTS[hook.__name__] <= set(parameters), (hook.__name__, name)
    assert hooked == set(HOOK_ARGUMENTS)
    # the single-shot hook reads config.stream_len
    assert "stream_len" in {f.name for f in fields(ExperimentConfig)}


@pytest.mark.parametrize(
    "products,encoder",
    [(batch.encode_tlb_products, "encode_tlb"), (batch.encode_sm_products, "encode_tlb")],
    ids=["encode_tlb_products-encode_tlb", "encode_sm_products-encode_tlb"],
)
def test_product_encoders_call_the_traced_names(monkeypatch, products, encoder):
    # streams.encode_calls counts calls of batch.encode_tlb, looked up in
    # batch's globals at call time, and rng.sources_made counts what
    # RandomSource.spawn returns: the product encoders draw every lane's bits
    # into one array from generators of the lanes' seed words, so they make
    # no encoder call and no RandomSource.spawn, for the SM lane products of
    # the adder tree too; the source still numbers its next children from 2K
    calls, spawns = [], []
    encode, spawn = getattr(batch, encoder), RandomSource.spawn

    def counted_encode(*args):
        calls.append(args)
        return encode(*args)

    def counted_spawn(self, n):
        spawns.append(n)
        return spawn(self, n)

    monkeypatch.setattr(batch, encoder, counted_encode)
    monkeypatch.setattr(RandomSource, "spawn", counted_spawn)
    lanes = 5
    rng = RandomSource(0)
    products([0.5] * lanes, [-0.25] * lanes, 16, rng)
    assert calls == []
    assert spawns == []
    assert rng.seeds.spawned == 2 * lanes


@pytest.mark.parametrize("design", ["novel", "baseline"])
def test_traced_sweeps_run_their_hooks(design):
    # the traced benchmark wraps every target and runs its count hooks on
    # the sweeps' calls; a hook broken by a changed call would otherwise
    # show only in a traced benchmark run. The sweeps draw fault schedules
    # through draw_fault_schedules and derive sources through SeedBatch.spawn,
    # neither of them wrapped, so the flips and sources hooks do not run and
    # their counts and the faults and spawn times read 0 until they are
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        cfg = ExperimentConfig(design=design, lanes=4, stream_len=32, trials=5, seed=1)
        experiments.run_fault_sweep([0.0, 0.05], cfg)
        experiments.run_accuracy_sweep([design], [4], [3], cfg)
    finally:
        tracer.uninstall()
    assert tracer.problems == []
    counts = tracer.count_values()
    assert counts["batch.encode_lane_bits"] == 2 * cfg.trials * cfg.lanes * cfg.stream_len
    kernel = "batch.engine_steps" if design == "novel" else "batch.tree_node_updates"
    assert counts[kernel] > 0
    assert counts["batch.flips_drawn"] == counts["rng.sources_made"] == 0
    metrics, _ = tracer.layer_metrics()
    assert metrics["batch.faults_s"] == metrics["rng.spawn_s"] == 0
