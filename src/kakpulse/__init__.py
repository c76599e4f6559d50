"""Factor arbitrary unitaries on a spin chain into local rotations and
nearest-neighbour coupling evolutions, then lower them to timed pulse
programs.

The public surface re-exports the working set of every layer: the exact
product-operator algebra (:mod:`.paulis`), dense matrix utilities
(:mod:`.linalg`), the gate and pulse vocabulary (:mod:`.gates`), the
recursive factorization (:mod:`.kak`), the lowering of trees to gates
and pulses (:mod:`.pulses`) and the simulator (:mod:`.simulate`).
"""

from .errors import (
    DimensionError,
    NumericError,
    RangeError,
    ValidationError,
)
from .paulis import (
    CartanElement,
    CartanFamily,
    PauliExpansion,
    PauliString,
    PauliTerm,
    Subspace,
    basis_strings,
    block_cartan_strings,
    block_diagonal_dimension,
    commutator,
    commutes,
    diagonal_strings,
    expand,
    is_maximal_abelian,
    maximal_abelian_strings,
    multiply,
    outer_cartan_strings,
    subspace_tag,
)
from .linalg import (
    CosineSineBlocks,
    apply_local,
    check_hermitian,
    check_unitary,
    cosine_sine,
    expm_skew,
    haar_unitary,
    matrix_from_json_dict,
    matrix_to_json_dict,
    permute_spins,
    spin_count,
    su2_rotation,
    unitary_eig,
)
from .gates import (
    ChainSpec,
    CouplingEvolution,
    Delay,
    Gate,
    GlobalPhase,
    HardPulse,
    LocalRotation,
    PulseProgram,
    gate_list_from_json,
    gate_list_spin_bound,
    gate_list_to_json,
    gate_list_to_json_text,
    inverse_gate_list,
)
from .kak import (
    BlockPair,
    CartanNode,
    EulerNode,
    GateTree,
    PhaseNode,
    SequenceNode,
    TwoSpinFactors,
    decompose,
    demultiplex,
    euler_xzx,
    evaluate,
    interaction_class,
    interaction_unitary,
    residual_budget,
    split_last_qubit,
    tree_from_json_dict,
    tree_to_json_dict,
    tree_to_json_text,
    two_spin_factors,
)
from .pulses import (
    cartan_evolution_gates,
    compile_unitary,
    flatten,
    pauli_evolution_gates,
    pulse_count,
    refocusing_set,
    synthesize_pulses,
    total_coupling_time,
)
from .simulate import (
    FidelityReport,
    coupling_diagonal,
    distance,
    drift_diagonal,
    gate_list_unitary,
    local_rotation_matrix,
    pulse_program_unitary,
)

__version__ = "0.1.0"

__all__ = [
    "BlockPair", "CartanElement", "CartanFamily", "CartanNode", "ChainSpec",
    "CosineSineBlocks", "CouplingEvolution", "Delay", "DimensionError",
    "EulerNode", "FidelityReport", "Gate", "GateTree", "GlobalPhase",
    "HardPulse", "LocalRotation", "NumericError",
    "PauliExpansion", "PauliString", "PauliTerm", "PhaseNode",
    "PulseProgram", "RangeError", "SequenceNode", "Subspace",
    "TwoSpinFactors", "ValidationError",
    "apply_local", "basis_strings", "block_cartan_strings",
    "block_diagonal_dimension",
    "cartan_evolution_gates", "check_hermitian", "check_unitary",
    "commutator", "commutes", "compile_unitary", "cosine_sine",
    "coupling_diagonal", "decompose", "demultiplex",
    "diagonal_strings",
    "distance", "drift_diagonal", "euler_xzx", "evaluate", "expand",
    "expm_skew", "flatten", "gate_list_from_json", "gate_list_spin_bound",
    "gate_list_to_json", "gate_list_to_json_text", "gate_list_unitary",
    "haar_unitary",
    "interaction_class", "interaction_unitary", "inverse_gate_list",
    "is_maximal_abelian", "local_rotation_matrix",
    "matrix_from_json_dict", "matrix_to_json_dict",
    "maximal_abelian_strings", "multiply", "outer_cartan_strings",
    "pauli_evolution_gates", "permute_spins", "pulse_count",
    "pulse_program_unitary", "refocusing_set", "residual_budget",
    "spin_count", "split_last_qubit", "su2_rotation", "subspace_tag",
    "synthesize_pulses", "total_coupling_time", "tree_from_json_dict",
    "tree_to_json_dict", "tree_to_json_text",
    "two_spin_factors", "unitary_eig",
]
