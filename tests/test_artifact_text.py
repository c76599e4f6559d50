"""Text writers of the compile artifacts against reference dict forms.

``decompose`` and ``pulses`` write their artifacts with
``tree_to_json_text``, ``gate_list_to_json_text`` and
``PulseProgram.to_json_text``.  Each must write exactly the text that
``json.dumps(..., sort_keys=True, separators=(",", ":"))`` makes of the
matching reference form in ``artifact_oracle``, so the artifacts keep
their bytes.
"""

import json

import numpy as np
import pytest

from kakpulse import (
    CartanElement,
    CartanFamily,
    CartanNode,
    ChainSpec,
    EulerNode,
    GateList,
    PauliString,
    PhaseNode,
    PulseProgram,
    SequenceNode,
    ValidationError,
    decompose,
    flatten,
    gate_list_to_json_text,
    haar_unitary,
    synthesize_pulses,
    tree_from_json_dict,
    tree_to_json_text,
)
from kakpulse.networks import nonzero_letters, open_route

from artifact_oracle import (
    canonical,
    delay_row,
    gate_list_to_json,
    local_row,
    phase_row,
    program_to_json_dict,
    pulse_row,
    tree_to_json_dict,
    zz_row,
)

# floats whose spelling json takes care over: a signed zero, the least
# subnormal, the exponent forms on either side of repr's switch, a NumPy
# scalar (whose own repr reads np.float64(...)) and an integer
ANGLES = (-0.0, 5e-324, 1e-07, 1e16, np.float64(0.1) + np.float64(0.2), 2)


@pytest.mark.parametrize("n", range(2, 7))
def test_haar_artifacts(n):
    tree = decompose(haar_unitary(2 ** n, 100 + n, special=True))
    gates = flatten(tree)
    program = synthesize_pulses(gates, ChainSpec.uniform(n, 100.0))
    assert tree_to_json_text(tree) == canonical(tree_to_json_dict(tree))
    assert gate_list_to_json_text(gates) == canonical(gate_list_to_json(gates))
    assert program.to_json_text() == canonical(program_to_json_dict(program))


def test_hand_made_gates():
    gates = GateList(g for a in ANGLES for g in (
        local_row(2, "y", a), zz_row(3, a), phase_row(a)))
    assert gate_list_to_json_text(gates) == canonical(gate_list_to_json(gates))
    assert gate_list_to_json_text(GateList()) == "[]"


def test_hand_made_program():
    events = [e for a in ANGLES for e in (pulse_row(1, "x", a),
                                          delay_row(abs(a)))]
    for chain, phase in ((ChainSpec(3, (np.float64(120.5), 1e16)), ANGLES[4]),
                         (ChainSpec(2, (80,)), -0.0), (ChainSpec(1, ()), 2)):
        program = PulseProgram(chain, events, phase)
        assert program.to_json_text() == canonical(program_to_json_dict(program))
    empty = PulseProgram(ChainSpec.uniform(2))
    assert empty.to_json_text() == canonical(program_to_json_dict(empty))


def test_hand_made_tree():
    """Every node kind, a route, an empty sequence, and coefficients
    listed out of their letters' order."""
    outer = CartanElement(3, CartanFamily.OUTER_X, {
        PauliString("ZZX"): ANGLES[0], PauliString("1ZX"): ANGLES[1],
        PauliString("Z1X"): ANGLES[2], PauliString("11X"): ANGLES[4]})
    middle = CartanElement(2, CartanFamily.MAXIMAL, {
        PauliString("ZZ"): ANGLES[3], PauliString("XX"): ANGLES[5]})
    tree = SequenceNode((
        PhaseNode(ANGLES[0]),
        CartanNode(outer, open_route(3, nonzero_letters(outer))),
        SequenceNode(()),
        SequenceNode(tuple(EulerNode(q, a, ANGLES[-1 - q], ANGLES[q])
                           for q, a in enumerate(ANGLES[:4], start=1))),
        CartanNode(middle),
        CartanNode(CartanElement(3, CartanFamily.DIAGONAL)),
        PhaseNode(ANGLES[4]),
    ))
    text = tree_to_json_text(tree)
    assert text == canonical(tree_to_json_dict(tree))
    assert '"route":[[1,2],[2,1],[1,2]]' in text
    assert '{"children":[],"node":"sequence"}' in text
    for node in (SequenceNode(()), CartanNode(middle)):
        assert tree_to_json_text(node) == canonical(tree_to_json_dict(node))
    # a node that is not finite is refused when it is built, as the tree
    # reader refuses it, so no writer spells NaN
    for build, text, message in (
            (lambda: PhaseNode(float("nan")), '{"node":"phase","phi":NaN}',
             "phase must be finite, got nan"),
            (lambda: EulerNode(1, 0.5, float("inf"), -float("inf")),
             '{"alpha":0.5,"beta":Infinity,"gamma":-Infinity,'
             '"node":"euler","q":1}', "Euler angle beta must be finite, "
             "got inf")):
        for make in (build, lambda: tree_from_json_dict(json.loads(text))):
            with pytest.raises(ValidationError) as info:
                make()
            assert type(info.value) is ValidationError
            assert str(info.value) == message


def test_unknown_objects_are_rejected_like_the_dict_forms():
    stranger = ("swap", 1, None, 0.1)
    with pytest.raises(ValidationError, match="unknown gate kind 'swap'"):
        gate_list_to_json([phase_row(0.1), stranger])
    with pytest.raises(ValidationError, match="unknown gate kind 'swap'"):
        GateList([phase_row(0.1), stranger])
    # a sequence refuses a child that is not a node, with the class and
    # message the writers raise for one
    tree = object()
    for build in (lambda: SequenceNode((PhaseNode(0.1), tree)),
                  lambda: tree_to_json_dict(tree),
                  lambda: tree_to_json_text(tree)):
        with pytest.raises(ValidationError) as info:
            build()
        assert type(info.value) is ValidationError
        assert str(info.value) == f"unknown tree node {tree!r}"
