"""Bit-true simulator and benchmark suite for stochastic-computing
inner products: two-line bipolar streams, a sequential accumulation
engine with carry canceling, and a counter-tree comparison design."""

from .adder import (
    AdderDiagnostics,
    nonscaled_add,
    tlb_multiply,
    tlb_multiply_bit,
)
from .baseline import TreeDiagnostics, run_tree_inner_product
from .convert import sm_multiply_bit, sm_to_tlb, sm_to_tlb_bit, tlb_to_sm, tlb_to_sm_bit
from .engine import EngineDiagnostics, run_inner_product
from .experiments import (
    ExperimentConfig,
    SweepResult,
    rmse,
    run_accuracy_sweep,
    run_canceler_experiment,
    run_fault_sweep,
    run_point,
)
from .rng import RandomSource
from .streams import (
    BitStream,
    SmStream,
    TlbStream,
    decode_bipolar,
    decode_sm,
    decode_tlb,
    decode_unipolar,
    encode_bipolar,
    encode_sm,
    encode_tlb,
    encode_unipolar,
    read_stream_csv,
    ternary_at,
    ternary_values,
    write_stream_csv,
)

__version__ = "0.1.0"

__all__ = [
    "AdderDiagnostics",
    "BitStream",
    "EngineDiagnostics",
    "ExperimentConfig",
    "RandomSource",
    "SmStream",
    "SweepResult",
    "TlbStream",
    "TreeDiagnostics",
    "decode_bipolar",
    "decode_sm",
    "decode_tlb",
    "decode_unipolar",
    "encode_bipolar",
    "encode_sm",
    "encode_tlb",
    "encode_unipolar",
    "nonscaled_add",
    "read_stream_csv",
    "rmse",
    "run_accuracy_sweep",
    "run_canceler_experiment",
    "run_fault_sweep",
    "run_inner_product",
    "run_point",
    "run_tree_inner_product",
    "sm_multiply_bit",
    "sm_to_tlb",
    "sm_to_tlb_bit",
    "ternary_at",
    "ternary_values",
    "tlb_multiply",
    "tlb_multiply_bit",
    "tlb_to_sm",
    "tlb_to_sm_bit",
    "write_stream_csv",
]
