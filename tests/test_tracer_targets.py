"""The names perfbench/tracer.py wraps must resolve: the suite does not
collect perfbench/, so a rename would break only the traced benchmark."""

import importlib.util
import inspect
from pathlib import Path

from scbit import cli

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{name}"
        for owner, name, _, _ in tracer._targets()
        if not (name in owner.__dict__ if isinstance(owner, type) else hasattr(owner, name))
    ]
    assert missing == []
    # the single-shot hook reads the config argument
    assert "config" in inspect.signature(cli.engine_mod.run_inner_product).parameters
