"""The names perfbench/tracer.py wraps, and the arguments its count hooks
read, must resolve: the suite does not collect perfbench/, so a rename would
break only the traced benchmark."""

import importlib.util
import inspect
from dataclasses import fields
from pathlib import Path

from scbit import ExperimentConfig

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


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer._targets()


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
