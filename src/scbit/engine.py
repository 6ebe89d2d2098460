"""Sequential inner-product engine for the two-line bipolar format.

Architecture, per main-clock cycle l:

1. multiplier stage: K one-bit TLB multipliers compute the lane products
   and latch them into the input hold registers (p_h, n_h);
2. load: hold register contents are copied into the input shift registers,
   p_h[k] -> p_s[k] and n_h[k] -> n_s[K-1-k] (the reversed mapping aligns
   counter-flowing data on the carry cancelers);
3. K high-clock steps: the accumulation stage consumes the shift-register
   fronts into two carry shift registers, then both input shift registers
   advance one cell toward the front with carry canceling applied across
   the diagonal (a (+1, -1) pair meeting at a canceler is annihilated);
4. output: the carry register fronts are copied to the output flip-flops
   as the l-th output bit pair, and each emitted carry is consumed.

All register updates within a step are synchronous: every right-hand side
reads pre-edge values. The ``shift_direction="same"`` mode models the
parallel-register layout (direct load, same-index canceler coupling) and
exists for the shift-direction experiment; ``cc_enabled=False`` replaces
the cancelers with plain shifts.

The engine is implemented once, in ``batch.engine_batch``;
``run_inner_product`` runs it on a batch of one trial.
"""

from dataclasses import dataclass, fields

from .batch import _one_trial_faults, encode_tlb_products, engine_batch

# encode_tlb is unused here, but perfbench/tracer.py wraps it by this name
from .streams import TlbStream, encode_tlb  # noqa: F401

__all__ = [
    "EngineDiagnostics",
    "run_inner_product",
]


@dataclass
class EngineDiagnostics:
    """Counters accumulated over a run."""

    cc_cancellations: int = 0
    dropped_pos: int = 0  # +1 carries lost to a full register
    dropped_neg: int = 0
    residual_pos: int = 0  # carries still stored after the last cycle
    residual_neg: int = 0

    @property
    def overflow_events(self):
        return self.dropped_pos + self.dropped_neg


def run_inner_product(x, y, config, rng, fault_schedule=None, trace_path=None):
    """Encode two vectors, run the engine for L cycles, decode nothing.

    ``config`` is an ``ExperimentConfig``. Returns the raw output stream
    plus diagnostics; the decoded estimate is ``decode_tlb(stream)``. Lane
    encoders draw from independent child sources of ``rng`` (x lanes
    first, then y lanes). ``fault_schedule`` is an optional iterable of
    (cycle, cell) pairs; each named carry cell is toggled at the start of
    that main-clock cycle, and a cell outside [0, 2M) is a ValueError.
    ``trace_path`` writes the per-cycle trace CSV.
    """
    if len(x) != config.lanes or len(y) != config.lanes:
        raise ValueError(f"x and y must have exactly {config.lanes} entries")
    products = encode_tlb_products(x, y, config.stream_len, rng)
    out = engine_batch(
        products[None],
        config.carry_len,
        cc_enabled=config.cc_enabled,
        shift_direction=config.shift_direction,
        fault_schedules=_one_trial_faults(fault_schedule),
        trace_path=trace_path,
    )
    diagnostics = EngineDiagnostics(
        **{f.name: int(out[f.name][0]) for f in fields(EngineDiagnostics)}
    )
    return TlbStream(out["emitted_pos"][0], out["emitted_neg"][0]), diagnostics
