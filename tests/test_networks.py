"""Parity-network design: the closed-form ladder count, the route table,
its open and closed cuts and the lowering of a layer recorded open.

An open route ends in a linear map ``diag(A, 1)`` of the spins instead
of the identity; the tree node that records it is ``P exp(-1j*H)``, and
its gates must be exactly that matrix, on any chain.
"""

import itertools
import json
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
    PauliString,
    ValidationError,
    cartan_evolution_gates,
    evaluate,
    expm_skew,
    flatten,
    gate_list_unitary,
    pauli_evolution_gates,
    pulse_program_unitary,
    synthesize_pulses,
    tree_from_json_dict,
    tree_to_json_text,
)
from kakpulse.networks import (
    ROUTES,
    check_route,
    closed_pi_count,
    closed_route,
    end_rows,
    full_route,
    ladder_pi_count,
    layer_masks,
    lowering_route,
    nonzero_letters,
    open_route,
    parity_points,
)
from kakpulse.paulis import z_string

from artifact_oracle import tree_to_json_dict

NETWORK_FAMILIES = (CartanFamily.DIAGONAL, CartanFamily.OUTER_X)


def last_spin_parities(k):
    return [m for m in range(1 << k) if m >> (k - 1) & 1]


def dense_letters(k):
    return tuple(s.letters for s in CartanFamily.DIAGONAL.strings(k))


def dense_open_route(k):
    """The open route of a layer whose every string is nonzero."""
    return open_route(k, dense_letters(k))


def identity_rows(k):
    return tuple(1 << q for q in range(k))


def adjacent_cnots(k):
    return [c for q in range(1, k) for c in ((q, q + 1), (q + 1, q))]


@pytest.mark.parametrize("n", range(2, 8))
def test_ladder_pi_count_closed_form(n):
    """Every string of weight two or more, over all four letters: the
    closed form is the number of pi couplings its ladder emits."""
    for letters in itertools.product("1XYZ", repeat=n):
        word = "".join(letters)
        if len(word) - word.count("1") < 2:
            continue
        pis = sum(kind == "zz" and abs(angle) == math.pi
                  for kind, _, _, angle in pauli_evolution_gates(word, 0.37))
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
    """A dense layer's open route holds every parity that contains spin
    k and ends in ``diag(A, 1)``: at three spins a swap of spins 1 and
    2, at four the rows x2, x1+x2, x3, x4, and from five spins up maps
    that move the spin next to the last one too."""
    route = dense_open_route(k)
    assert len(route) == length
    assert end_rows(route, k) == rows
    check_route(route, CartanElement(n=k, family=CartanFamily.DIAGONAL))
    points = parity_points(route, k)
    assert all(m in points for m in last_spin_parities(k))


@pytest.mark.parametrize("k", range(3, 8))
def test_each_route_returns_to_the_identity(k):
    """Every route of the table holds every parity that contains spin k,
    each where its open part holds it, and ends in the identity."""
    route = ROUTES[k]
    assert end_rows(route, k) == identity_rows(k)
    points = parity_points(route, k)
    open_points = parity_points(dense_open_route(k), k)
    assert all(points[m] == open_points[m] for m in last_spin_parities(k))


@pytest.mark.parametrize("k", (8, 9))
def test_route_past_the_table_is_a_bus_around_the_route_below(k):
    """From eight spins on, spin k runs twice around the route on k - 1
    spins, six CNOTs beside it; the route still holds every parity that
    contains spin k and ends in the identity."""
    route = full_route(k)
    assert len(route) == 2 * len(full_route(k - 1)) + 6
    assert end_rows(route, k) == identity_rows(k)
    points = parity_points(route, k)
    assert all(m in points for m in last_spin_parities(k))


def test_dense_eight_spin_layer_runs_the_whole_route():
    assert closed_pi_count(8, dense_letters(8)) == len(full_route(8)) == 226


def shortest_return(rows):
    """Fewest adjacent CNOTs that take the map ``rows`` to the identity:
    a breadth-first search over the maps."""
    k, goal = len(rows), identity_rows(len(rows))
    depth, queue = {rows: 0}, deque([rows])
    while queue:
        state = queue.popleft()
        if state == goal:
            return depth[state]
        for control, target in adjacent_cnots(k):
            nxt = list(state)
            nxt[target - 1] ^= state[control - 1]
            nxt = tuple(nxt)
            if nxt not in depth:
                depth[nxt] = depth[state] + 1
                queue.append(nxt)
    raise AssertionError("no return found")


@pytest.mark.parametrize("k, back", [(3, 3), (4, 2), (5, 1)])
def test_route_returns_by_a_shortest_word(k, back):
    cut = len(dense_open_route(k))
    assert len(ROUTES[k]) - cut == back
    assert shortest_return(end_rows(ROUTES[k][:cut], k)) == back


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

    start = identity_rows(k)
    first = (start, held(start))
    depth = {first: 0}
    queue = deque([first])
    while queue:
        rows, seen = state = queue.popleft()
        if done(rows, seen):
            return depth[state]
        for control, target in adjacent_cnots(k):
            nxt = list(rows)
            nxt[target - 1] ^= rows[control - 1]
            nxt = tuple(nxt)
            key = (nxt, seen | held(nxt))
            if key not in depth:
                depth[key] = depth[state] + 1
                queue.append(key)
    raise AssertionError("no network found")


def test_three_cnots_are_optimal_at_three_spins():
    """A breadth-first search over adjacent-CNOT states: an open end
    needs 3 CNOTs where a closed one needs 6, the lengths of the open
    route and of the whole route."""
    assert shortest_network(3, open_end=True) == len(dense_open_route(3))
    assert shortest_network(3, open_end=False) == len(ROUTES[3]) == 6


def test_closed_route_is_optimal_at_four_spins():
    assert shortest_network(4, open_end=False) == len(ROUTES[4]) == 12


def test_closed_five_spin_layer_costs_22_pi_couplings():
    assert closed_pi_count(5, dense_letters(5)) == 22


def test_open_route_only_when_it_saves_pi_couplings():
    for k in range(3, 8):
        for family in NETWORK_FAMILIES:
            dense = tuple(s.letters for s in family.strings(k))
            assert open_route(k, dense) == dense_open_route(k)
            # at three spins the whole route ties with the ladders
            assert closed_route(k, dense) == (ROUTES[k] if k > 3 else None)
            assert closed_pi_count(k, dense) == len(ROUTES[k])
            # one string that its ladder moves for free
            assert open_route(k, dense[1:2]) is None
    assert open_route(8, dense_letters(8)) is None


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


def test_a_node_refuses_a_route_that_never_holds_a_nonzero_parity():
    """Only strings that emit gates need their parity held: a zero
    coefficient's does not.  The node, the tree reader and the lowering
    of an element refuse the same route with the same message."""
    elem = CartanElement(3, CartanFamily.OUTER_X, {"11X": 0.0, "Z1X": 1.0})
    message = r"^route \(\(1, 2\),\) never holds the parity of Z1X$"
    data = {**tree_to_json_dict(CartanNode(elem)), "route": [[1, 2]]}
    for build in (lambda: CartanNode(elem, [(1, 2)]),
                  lambda: tree_from_json_dict(data),
                  lambda: cartan_evolution_gates(elem, ((1, 2),))):
        with pytest.raises(ValidationError, match=message):
            build()
    held = CartanElement(3, CartanFamily.OUTER_X, {"Z1X": 0.0, "11X": 1.0})
    assert CartanNode(held, [(1, 2)]).route == ((1, 2),)


@pytest.mark.parametrize("family", tuple(CartanFamily), ids=lambda f: f.value)
def test_no_network_lowers_a_two_spin_route(family):
    """A route on a two-spin layer is rejected where the node is built,
    from code or from tree JSON, not first where it is lowered."""
    elem = CartanElement(n=2, family=family,
                         coeffs={family.strings(2)[0]: 0.5})
    with pytest.raises(ValidationError, match="takes no route"):
        CartanNode(elem, ())
    data = {**tree_to_json_dict(CartanNode(elem)), "route": []}
    with pytest.raises(ValidationError, match="takes no route"):
        tree_from_json_dict(data)


@st.composite
def recorded_layers(draw):
    """A DIAGONAL or OUTER_X layer on three to six spins, dense or
    sparse, recorded with the open route the factorization would take
    for it, or with a dense layer's open route when that would not pay,
    and carrying up to two Z strings of its leading spins whose parity
    the route holds, as a moved two-spin leaf phase is."""
    k = draw(st.sampled_from((3, 4, 5, 6)))
    family = draw(st.sampled_from(NETWORK_FAMILIES))
    dense = draw(st.booleans())
    coeffs = {}
    for s in family.strings(k):
        if dense or draw(st.booleans()):
            coeffs[s] = draw(st.floats(-2 * math.pi, 2 * math.pi,
                                       allow_nan=False))
    elem = CartanElement(n=k, family=family, coeffs=coeffs)
    route = open_route(k, nonzero_letters(elem)) or dense_open_route(k)
    held = sorted(mask for mask in parity_points(route, k)
                  if mask < 1 << (k - 1))
    for mask in draw(st.lists(st.sampled_from(held), max_size=2, unique=True)):
        coeffs[z_string(mask, k)] = draw(st.floats(0.0, math.pi,
                                                   allow_nan=False))
    return CartanNode(CartanElement(n=k, family=family, coeffs=coeffs), route)


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


@pytest.mark.parametrize("family", NETWORK_FAMILIES, ids=lambda f: f.value)
def test_a_layer_carries_leading_z_strings(family):
    """A layer on three or more spins may carry Z strings of its leading
    spins, as a two-spin leaf's moved phase: the node reads back from its
    JSON text, lists them after its family, and lowers to its matrix,
    with each string turned where its route holds the parity."""
    route = dense_open_route(4)
    coeffs = {s: 0.1 * (j + 1) for j, s in enumerate(family.strings(4))}
    mask = end_rows(route, 4)[0] ^ end_rows(route, 4)[1]
    coeffs[z_string(mask, 4)] = 0.7
    coeffs[PauliString("ZZ11")] = -1.3
    node = CartanNode(CartanElement(4, family, coeffs), route)
    text = tree_to_json_text(node)
    assert '"ZZ11":-1.3' in text
    assert tree_from_json_dict(json.loads(text)) == node
    letters = [s.letters for s, _ in node.element.items()]
    assert letters[:8] == [s.letters for s in family.strings(4)]
    assert sorted(letters[8:]) == sorted([z_string(mask, 4).letters, "ZZ11"])
    matrix = evaluate(node, 4)
    want = end_map_matrix(end_rows(route, 4)) @ expm_skew(
        node.element.hamiltonian())
    assert np.max(np.abs(matrix - want)) < 1e-12
    assert np.max(np.abs(gate_list_unitary(flatten(node), 4) - matrix)) < 1e-10
    closed = CartanNode(CartanElement(4, family, coeffs))
    assert np.max(np.abs(gate_list_unitary(flatten(closed), 4)
                         - evaluate(closed, 4))) < 1e-10


@pytest.mark.parametrize("n, family, letters", [
    (3, CartanFamily.DIAGONAL, "X11"), (3, CartanFamily.DIAGONAL, "ZY1"),
    (3, CartanFamily.OUTER_X, "111"), (3, CartanFamily.OUTER_X, "Z1Z"),
    (3, CartanFamily.MAXIMAL, "Z11"), (2, CartanFamily.DIAGONAL, "Z1"),
    (2, CartanFamily.MAXIMAL, "Z1"), (4, CartanFamily.DIAGONAL, "ZZ1"),
])
def test_no_other_string_rides_along(n, family, letters):
    with pytest.raises(ValidationError, match=f"string {letters} is not"):
        CartanElement(n, family, {letters: 0.5})


def test_a_route_must_hold_a_carried_string():
    """Z1 Z3 is held by no spin or pair of the empty route."""
    element = CartanElement(4, CartanFamily.DIAGONAL, {"Z1Z1": 0.5})
    with pytest.raises(ValidationError, match="never holds the parity of Z1Z1"):
        CartanNode(element, ())
    CartanNode(element, ((2, 3), (1, 2), (2, 3)))


def never_held(k):
    """The leading-spin Z masks whose parity :func:`full_route` never
    holds, on a spin or on a pair."""
    points = parity_points(full_route(k), k)
    return [m for m in range(1, 1 << (k - 1)) if m not in points]


def test_counts_of_strings_the_route_never_holds():
    assert [len(never_held(k)) for k in (4, 5, 6)] == [1, 7, 12]


@pytest.mark.parametrize("k, mask", [(k, m) for k in (4, 5, 6)
                                     for m in never_held(k)])
@pytest.mark.parametrize("family", NETWORK_FAMILIES, ids=lambda f: f.value)
@pytest.mark.parametrize("beside", [False, True], ids=["alone", "beside"])
def test_a_string_the_route_never_holds_takes_ladders(k, mask, family,
                                                      beside):
    """A layer may carry any Z string of its leading spins.  Where the
    full route never holds its parity, the layer takes no route, opens
    none and takes no moved phase, and its ladders lower it exactly,
    alone and beside family strings."""
    rng = np.random.default_rng(k * 1000 + mask)
    coeffs = ({s: float(rng.uniform(-2, 2)) for s in family.strings(k)}
              if beside else {})
    coeffs[z_string(mask, k)] = 0.9
    element = CartanElement(k, family, coeffs)
    letters = nonzero_letters(element)
    assert lowering_route(element) is None
    assert closed_route(k, letters) is open_route(k, letters) is None
    assert layer_masks(element) == (None, None)
    node = CartanNode(element)
    assert np.max(np.abs(gate_list_unitary(flatten(node), k)
                         - evaluate(node, k))) < 1e-10
