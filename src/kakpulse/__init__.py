"""Factor arbitrary unitaries on a spin chain into local rotations and
nearest-neighbour coupling evolutions, then lower them to timed pulse
programs.

The public surface re-exports the working set of every layer: the exact
product-operator algebra (:mod:`.paulis`), dense matrix utilities
(:mod:`.linalg`), the gate and pulse vocabulary (:mod:`.gates`), the
recursive factorization (:mod:`.kak`), the lowering of trees to gates
and pulses (:mod:`.pulses`) and the simulator (:mod:`.simulate`).
:func:`decompose` is the one entry point of the factorization, on any
number of spins: each of its steps (the cosine-sine split, the
demultiplexing and the two-spin canonical form) runs as one private
stacked pass over a whole recursion depth.
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
    PauliString,
    PauliTerm,
    Subspace,
    basis_strings,
    block_cartan_strings,
    block_diagonal_dimension,
    commutator,
    commutes,
    diagonal_strings,
    is_maximal_abelian,
    maximal_abelian_strings,
    multiply,
    outer_cartan_strings,
    subspace_tag,
)
from .linalg import (
    apply_local,
    check_hermitian,
    check_unitary,
    expm_skew,
    haar_unitary,
    matrix_from_json_dict,
    matrix_to_json_dict,
    permute_spins,
    spin_count,
    su2_rotation,
)
from .gates import (
    ChainSpec,
    GateList,
    PulseProgram,
    gate_list_from_json,
    gate_list_spin_bound,
    gate_list_to_json_text,
    inverse_gate_list,
)
from .kak import (
    CartanNode,
    EulerNode,
    GateTree,
    PhaseNode,
    SequenceNode,
    decompose,
    euler_xzx,
    evaluate,
    interaction_unitary,
    residual_budget,
    tree_from_json_dict,
    tree_to_json_text,
)
from .pulses import (
    cartan_evolution_gates,
    compile_unitary,
    flatten,
    pauli_evolution_gates,
    pulse_count,
    synthesize_pulses,
    total_coupling_time,
)
from .simulate import (
    FidelityReport,
    distance,
    gate_list_unitary,
    pulse_program_unitary,
)

__version__ = "0.1.0"

__all__ = [
    "CartanElement", "CartanFamily", "CartanNode", "ChainSpec",
    "DimensionError", "EulerNode", "FidelityReport", "GateList", "GateTree",
    "NumericError", "PauliString", "PauliTerm", "PhaseNode",
    "PulseProgram", "RangeError", "SequenceNode", "Subspace",
    "ValidationError",
    "apply_local", "basis_strings", "block_cartan_strings",
    "block_diagonal_dimension",
    "cartan_evolution_gates", "check_hermitian", "check_unitary",
    "commutator", "commutes", "compile_unitary", "decompose",
    "diagonal_strings",
    "distance", "euler_xzx", "evaluate",
    "expm_skew", "flatten", "gate_list_from_json", "gate_list_spin_bound",
    "gate_list_to_json_text", "gate_list_unitary",
    "haar_unitary",
    "interaction_unitary", "inverse_gate_list",
    "is_maximal_abelian",
    "matrix_from_json_dict", "matrix_to_json_dict",
    "maximal_abelian_strings", "multiply", "outer_cartan_strings",
    "pauli_evolution_gates", "permute_spins", "pulse_count",
    "pulse_program_unitary", "residual_budget",
    "spin_count", "su2_rotation", "subspace_tag",
    "synthesize_pulses", "total_coupling_time", "tree_from_json_dict",
    "tree_to_json_text",
]
