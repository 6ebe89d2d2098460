"""Counter-based adder-tree comparison design (reconstruction).

This is the state-of-the-art style design the sequential engine is
benchmarked against: lane multipliers in the signed-magnitude format feed
a binary tree of non-scaled adders, each buffering its pending carry in a
signed B-bit counter. The cited design's internals are not public here,
so the per-node update rule is a reconstruction chosen to satisfy the
same conservation law as the shift-register adder: clamp the ternary
output, keep the remainder in the counter, saturate symmetrically at
2^(B-1) - 1. Results produced with it are labeled as reconstructed in
experiment metadata.

The tree is implemented once, in ``batch.tree_batch``;
``run_tree_inner_product`` runs it on a batch of one trial at the
operating point of an ``ExperimentConfig``, as ``run_inner_product`` runs
the engine. The lane multiplier's SM product, ``sm_multiply_bit``, lives
in ``convert.py`` with the format converters and is re-exported here. The
lane products come from ``batch.encode_tlb_products``, the one lane-product
stage of both designs, which gives the SM multipliers' outputs bit for bit.
"""

from dataclasses import dataclass

from .batch import _one_trial_faults, encode_tlb_products, tree_batch
from .convert import sm_multiply_bit

# encode_sm is unused here, but perfbench/tracer.py wraps it by this name
from .streams import SmStream, encode_sm  # noqa: F401

__all__ = [
    "TreeDiagnostics",
    "sm_multiply_bit",
    "run_tree_inner_product",
]


@dataclass
class TreeDiagnostics:
    saturation_events: int = 0
    residual_sum: int = 0  # signed total left in the counters

    # kept name-compatible with the engine diagnostics for shared reporting
    @property
    def overflow_events(self):
        return self.saturation_events


def run_tree_inner_product(x, y, config, rng, fault_schedule=None):
    """Run the adder tree end to end; returns (SmStream, TreeDiagnostics).

    ``config`` is an ``ExperimentConfig``; the tree reads its ``lanes``,
    ``counter_width`` and ``stream_len``. Lane products are encoded from
    independent child sources of ``rng`` (x lanes first, then y lanes).
    Lanes are zero-padded to K', the next power of two, at least 2.
    ``fault_schedule`` is an optional iterable of (cycle, flat_bit) pairs,
    flat_bit indexing the level-major node list times the counter width; a
    flat_bit outside [0, (K'-1)·B) is a ValueError.
    """
    k = config.lanes
    if len(x) != k or len(y) != k:
        raise ValueError(f"x and y must have exactly {k} entries")
    if k < 2 or k & (k - 1):
        zeros = [0.0] * ((1 << max(1, (k - 1).bit_length())) - k)
        x, y = list(x) + zeros, list(y) + zeros
    products = encode_tlb_products(x, y, config.stream_len, rng)
    out = tree_batch(products[None], config.counter_width, _one_trial_faults(fault_schedule))
    z = out["emitted"][0]
    diagnostics = TreeDiagnostics(
        saturation_events=int(out["saturation_events"][0]),
        residual_sum=int(out["residual_sum"][0]),
    )
    return SmStream(z < 0, z != 0), diagnostics
