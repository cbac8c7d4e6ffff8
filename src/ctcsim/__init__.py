"""Simulator for quantum systems interacting with Deutsch-model closed
timelike curves: a fixed-point engine for the self-consistency condition,
CTC-assisted cloning circuits, Uhlmann fidelity checks, and a no-signalling
experiment."""

from .cloning import (
    CloneReport,
    ClonerCircuit,
    build_mixed_cloner,
    build_pure_cloner,
    check_cloning_condition,
    no_ctc_baseline,
    run_clone,
)
from .engine import (
    DeutschProblem,
    FixedPointResult,
    build_superoperator,
    deutsch_map,
    evolve,
    output_state,
    solve_fixed_point,
)
from .fidelity import check_monotonicity, check_multiplicativity, fidelity
from .linalg import kron, partial_trace, trace_distance
from .nosignal import NoSignalReport, check_channel_invariance, run_entangled_clone
from .quantum import (
    Alphabet,
    DensityMatrix,
    GateList,
    Layout,
    Permutation,
    PureState,
    Select,
    Unitary,
    basis_mapper,
    basis_mappers,
    csum_gate,
    embed_on_registers,
    select_gate,
    swap_gate,
)

__all__ = [
    "Alphabet",
    "CloneReport",
    "ClonerCircuit",
    "DensityMatrix",
    "DeutschProblem",
    "FixedPointResult",
    "GateList",
    "Layout",
    "NoSignalReport",
    "Permutation",
    "PureState",
    "Select",
    "Unitary",
    "basis_mapper",
    "basis_mappers",
    "build_mixed_cloner",
    "build_pure_cloner",
    "build_superoperator",
    "check_channel_invariance",
    "check_cloning_condition",
    "check_monotonicity",
    "check_multiplicativity",
    "csum_gate",
    "deutsch_map",
    "embed_on_registers",
    "evolve",
    "fidelity",
    "kron",
    "no_ctc_baseline",
    "output_state",
    "partial_trace",
    "run_clone",
    "run_entangled_clone",
    "select_gate",
    "solve_fixed_point",
    "swap_gate",
    "trace_distance",
]

__version__ = "0.1.0"
