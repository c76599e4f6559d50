"""Parity-network design: the closed-form ladder count, the open routes
and the lowering of a layer recorded open.

An open route ends in a linear map ``diag(A, 1)`` of the spins instead
of the identity; the tree node that records it is ``P exp(-1j*H)``, and
its gates must be exactly that matrix, on any chain.
"""

import itertools
import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kakpulse import (
    CartanElement,
    CartanFamily,
    CartanNode,
    ChainSpec,
    CouplingEvolution,
    PauliString,
    ValidationError,
    evaluate,
    expm_skew,
    flatten,
    gate_list_unitary,
    pauli_evolution_gates,
    pulse_program_unitary,
    synthesize_pulses,
)
from kakpulse.networks import (
    OPEN_ROUTES,
    chain_network,
    check_route,
    closed_pi_count,
    end_rows,
    ladder_pi_count,
    nonzero_letters,
    open_route,
    parity_points,
)

NETWORK_FAMILIES = (CartanFamily.DIAGONAL, CartanFamily.OUTER_X)


def last_spin_parities(k):
    return [m for m in range(1 << k) if m >> (k - 1) & 1]


@pytest.mark.parametrize("n", range(2, 8))
def test_ladder_pi_count_closed_form(n):
    """Every string of weight two or more, over all four letters: the
    closed form is the number of pi couplings its ladder emits."""
    for letters in itertools.product("1XYZ", repeat=n):
        word = "".join(letters)
        if len(word) - word.count("1") < 2:
            continue
        pis = sum(isinstance(g, CouplingEvolution) and abs(g.angle) == math.pi
                  for g in pauli_evolution_gates(word, 0.37))
        assert ladder_pi_count(word) == pis, word


@pytest.mark.parametrize("k, length, rows", [
    (3, 3, (0b010, 0b001, 0b100)),
    (4, 10, (0b0010, 0b0011, 0b0100, 0b1000)),
    (5, 21, (0b00001, 0b00010, 0b01100, 0b01000, 0b10000)),
    (6, 43, (0b001000, 0b011001, 0b000010, 0b001100, 0b001111, 0b100000)),
    (7, 90, (0b0000100, 0b0010011, 0b0010001, 0b0000001, 0b0100011,
             0b0011101, 0b1000000)),
])
def test_open_routes(k, length, rows):
    """Each route holds every parity that contains spin k and ends in
    ``diag(A, 1)``: at three spins a swap of spins 1 and 2, at four the
    rows x2, x1+x2, x3, x4, and from five spins up maps that move the
    spin next to the last one too."""
    route = OPEN_ROUTES[k]
    assert len(route) == length
    assert end_rows(route, k) == rows
    check_route(route, k)
    points = parity_points(route, k)
    assert all(m in points for m in last_spin_parities(k))


def shortest_network(k, open_end):
    """Fewest adjacent CNOTs that hold every parity containing spin k and
    end in the identity or, with ``open_end``, in any ``diag(A, 1)``."""
    need = frozenset(last_spin_parities(k))
    last = 1 << (k - 1)

    def held(rows):
        return need & ({*rows} | {rows[q] ^ rows[q + 1] for q in range(k - 1)})

    def done(rows, seen):
        if seen != need:
            return False
        if open_end:
            return rows[-1] == last and all(r < last for r in rows[:-1])
        return rows == start

    start = tuple(1 << q for q in range(k))
    first = (start, held(start))
    depth = {first: 0}
    queue = deque([first])
    while queue:
        rows, seen = state = queue.popleft()
        if done(rows, seen):
            return depth[state]
        for q in range(k - 1):
            for control, target in ((q, q + 1), (q + 1, q)):
                nxt = list(rows)
                nxt[target] ^= rows[control]
                nxt = tuple(nxt)
                key = (nxt, seen | held(nxt))
                if key not in depth:
                    depth[key] = depth[state] + 1
                    queue.append(key)
    raise AssertionError("no network found")


def test_three_cnots_are_optimal_at_three_spins():
    """A breadth-first search over adjacent-CNOT states: an open end
    needs 3 CNOTs where a closed one needs 6, the length of the route
    and of ``N(2)``."""
    assert shortest_network(3, open_end=True) == len(OPEN_ROUTES[3])
    assert shortest_network(3, open_end=False) == 6


def test_open_route_only_when_it_saves_pi_couplings():
    for k in range(3, 8):
        for family in NETWORK_FAMILIES:
            dense = tuple(s.letters for s in family.strings(k))
            assert open_route(k, dense) == OPEN_ROUTES[k]
            assert closed_pi_count(k, dense) == len(chain_network(k))
            # one string that its ladder moves for free
            assert open_route(k, dense[1:2]) is None
    dense8 = tuple(s.letters for s in CartanFamily.DIAGONAL.strings(8))
    assert open_route(8, dense8) is None


def end_map_matrix(rows):
    """Dense ``P`` with ``P |x> = |A x>``, spin 1 the top bit."""
    k = len(rows)
    dim = 1 << k
    out = np.zeros((dim, dim))
    for x in range(dim):
        bits = [(x >> (k - q)) & 1 for q in range(1, k + 1)]
        y = 0
        for q in range(k):
            parity = sum(bits[j] for j in range(k) if rows[q] >> j & 1) % 2
            y |= parity << (k - 1 - q)
        out[y, x] = 1.0
    return out


def test_a_route_must_hold_every_parity():
    """The empty route leaves spin 3 alone but never holds x1+x3, so the
    layer cannot be lowered along it."""
    elem = CartanElement(n=3, family=CartanFamily.DIAGONAL,
                         coeffs={PauliString("Z1Z"): 0.5})
    with pytest.raises(ValidationError):
        flatten(CartanNode(elem, ()))


@st.composite
def recorded_layers(draw):
    """A DIAGONAL or OUTER_X layer on three to six spins, dense or
    sparse, recorded with the open route the factorization would take
    for it, or with the whole constant route when that would not pay."""
    k = draw(st.sampled_from((3, 4, 5, 6)))
    family = draw(st.sampled_from(NETWORK_FAMILIES))
    dense = draw(st.booleans())
    coeffs = {}
    for s in family.strings(k):
        if dense or draw(st.booleans()):
            coeffs[s] = draw(st.floats(-2 * math.pi, 2 * math.pi,
                                       allow_nan=False))
    elem = CartanElement(n=k, family=family, coeffs=coeffs)
    route = open_route(k, nonzero_letters(elem)) or OPEN_ROUTES[k]
    return CartanNode(elem, route)


@given(node=recorded_layers(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_recorded_layer_lowers_exactly(node, data):
    k = node.element.n
    matrix = evaluate(node, k)
    want = end_map_matrix(end_rows(node.route, k)) @ expm_skew(
        node.element.hamiltonian())
    assert np.max(np.abs(matrix - want)) < 1e-12
    gates = flatten(node)
    assert np.max(np.abs(gate_list_unitary(gates, k) - matrix)) < 1e-10
    couplings = data.draw(st.lists(st.floats(60.0, 160.0), min_size=k - 1,
                                   max_size=k - 1))
    program = synthesize_pulses(gates, ChainSpec(k, tuple(couplings)))
    assert np.max(np.abs(pulse_program_unitary(program) - matrix)) < 1e-10
