"""Structured-target corpus: degenerate inputs through the whole pipeline.

Haar samples have generic spectra and cosine-sine angles.  The targets
here do not: identities, permutations, diagonals, Kronecker products
and near-identity operators give repeated eigenvalues, zero or
clustered angles, and long runs of trivial factors.  For each one,
``decompose`` must keep its residual budget, and both the flattened gate
list and its pulse program on an unequal chain must simulate back to the
target.

Trivial sub-problems must also cost nothing: identities, Kronecker
products and diagonals take the recursion's short circuits, so they
compile to few or no couplings, and targets just off those structures
keep every contract whichever route the threshold sends them down.
"""

import itertools
import math
import typing

import numpy as np
import pytest
import scipy.linalg

import kakpulse.kak
from kakpulse import (
    CartanFamily,
    CartanNode,
    ChainSpec,
    EulerNode,
    GateTree,
    NumericError,
    PhaseNode,
    SequenceNode,
    decompose,
    evaluate,
    flatten,
    gate_list_to_json_text,
    gate_list_unitary,
    haar_unitary,
    permute_spins,
    pauli_evolution_gates,
    pulse_program_unitary,
    residual_budget,
    su2_rotation,
    synthesize_pulses,
    total_coupling_time,
    tree_to_json_text,
)
from kakpulse.kak import _decompose
from kakpulse.networks import TOL_COEFF
from kakpulse.pulses import TOL_ROTATION

from artifact_oracle import (
    canonical,
    gate_list_to_json,
    program_to_json_dict,
    tree_to_json_dict,
)
from test_kak import layer_cnots, unmoved

CHAIN_J = (120.0, 80.0, 140.0, 95.0)


def permutation(perm):
    """Unitary sending basis state ``k`` to ``perm[k]``."""
    m = np.zeros((len(perm), len(perm)), dtype=complex)
    m[perm, np.arange(len(perm))] = 1.0
    return m


def identity(n):
    return np.eye(2 ** n, dtype=complex)


def minus_identity(n):
    return -np.eye(2 ** n, dtype=complex)


def qft(n):
    dim = 2 ** n
    k = np.arange(dim)
    return np.exp(2j * math.pi * np.outer(k, k) / dim) / math.sqrt(dim)


def bit_reversal(n):
    return permutation([int(format(k, f"0{n}b")[::-1], 2) for k in range(2 ** n)])


def toffoli_like(n):
    """NOT on the last spin, controlled by all the others (X when n = 1)."""
    perm = list(range(2 ** n))
    perm[-2], perm[-1] = perm[-1], perm[-2]
    return permutation(perm)


def random_diagonal(n):
    rng = np.random.default_rng(300 + n)
    return np.diag(np.exp(1j * rng.uniform(-math.pi, math.pi, 2 ** n)))


def hadamard_power(n):
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    out = np.ones((1, 1), dtype=complex)
    for _ in range(n):
        out = np.kron(out, h)
    return out


def kronecker_product(n):
    out = np.ones((1, 1), dtype=complex)
    for k in range(n):
        out = np.kron(out, haar_unitary(2, 400 + 10 * n + k))
    return out


def near_identity(n):
    rng = np.random.default_rng(500 + n)
    g = rng.standard_normal((2 ** n, 2 ** n)) + 1j * rng.standard_normal((2 ** n, 2 ** n))
    return scipy.linalg.expm(-1e-9j * (g + g.conj().T) / 2)


def clustered_cs_angles(n):
    """Cosine-sine angles of the last-spin split in two tight clusters:
    half of them within 1e-10 of 0.6, half within 1e-10 of pi/2 - 1e-9,
    between Haar block factors."""
    half = 2 ** (n - 1)
    theta = np.where(np.arange(half) < half // 2, 0.6, math.pi / 2 - 1e-9)
    theta = theta + 1e-10 * np.random.default_rng(600 + n).uniform(size=half)
    c, s = np.diag(np.cos(theta)), np.diag(np.sin(theta))
    blocks = [haar_unitary(half, 610 + 10 * n + k) for k in range(4)]
    left = scipy.linalg.block_diag(blocks[0], blocks[1])
    right = scipy.linalg.block_diag(blocks[2], blocks[3])
    split_frame = left @ np.block([[c, -s], [s, c]]) @ right
    # the split sorts the last spin's sector first; undo that ordering
    return permute_spins(split_frame, list(range(1, n)) + [0])


TARGETS = (identity, minus_identity, qft, bit_reversal, toffoli_like,
           random_diagonal, hadamard_power, kronecker_product, near_identity,
           clustered_cs_angles)


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("target", TARGETS, ids=lambda f: f.__name__)
def test_structured_target_round_trip(target, n):
    u = target(n)
    assert np.allclose(u.conj().T @ u, np.eye(2 ** n), atol=1e-12)
    tree = decompose(u)
    assert np.max(np.abs(evaluate(tree, n) - u)) < residual_budget(n)
    gates = flatten(tree)
    assert np.max(np.abs(gate_list_unitary(gates, n) - u)) < 1e-9
    program = synthesize_pulses(gates, ChainSpec(n, CHAIN_J[:n - 1]))
    assert np.max(np.abs(pulse_program_unitary(program) - u)) < 1e-9


@pytest.mark.parametrize("n", range(3, 6))
@pytest.mark.parametrize("target", TARGETS, ids=lambda f: f.__name__)
def test_artifact_text_is_the_canonical_dump(target, n):
    """The text writers of the compile artifacts spell exactly what
    ``json.dumps`` with sorted keys makes of the reference dict forms."""
    tree = decompose(target(n))
    gates = flatten(tree)
    program = synthesize_pulses(gates, ChainSpec(n, CHAIN_J[:n - 1]))
    assert tree_to_json_text(tree) == canonical(tree_to_json_dict(tree))
    assert gate_list_to_json_text(gates) == canonical(gate_list_to_json(gates))
    assert program.to_json_text() == canonical(program_to_json_dict(program))


@pytest.mark.parametrize("n", range(3, 6))
@pytest.mark.parametrize("target", TARGETS, ids=lambda f: f.__name__)
def test_shared_delays_keep_the_gate_list(target, n):
    """Couplings that share a delay still run the gate list, entrywise
    and with its global phase, and the program never lasts longer than
    one block per coupling would."""
    chain = ChainSpec(n, CHAIN_J[:n - 1])
    gates = flatten(decompose(target(n)))
    program = synthesize_pulses(gates, chain)
    want = gate_list_unitary(gates, n)
    assert np.max(np.abs(pulse_program_unitary(program) - want)) < 1e-10
    serial = math.fsum(abs(math.remainder(angle, 4 * math.pi))
                       / (2 * math.pi * chain.coupling(left))
                       for kind, left, _, angle in gates if kind == "zz")
    assert total_coupling_time(program) <= serial * (1 + 1e-12)


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("target", TARGETS, ids=lambda f: f.__name__)
def test_one_pass_matrix_is_the_tree_matrix(target, n):
    """The matrix the recursion checks each level against is the matrix
    of the tree it returns, as the independent re-walk computes it."""
    tree, matrix = _decompose(target(n))
    assert np.max(np.abs(matrix - evaluate(tree, n))) < 1e-12


def haar(n):
    return haar_unitary(2 ** n, 800 + n)


def leaves(tree):
    if isinstance(tree, SequenceNode):
        return [leaf for child in tree.children for leaf in leaves(child)]
    return [tree]


def span(tree):
    """Highest spin a tree touches (0 for a phase)."""
    if isinstance(tree, EulerNode):
        return tree.qubit
    if isinstance(tree, CartanNode):
        return tree.element.n
    if isinstance(tree, SequenceNode):
        return max(map(span, tree.children), default=0)
    return 0


def level_shape_holds(tree, n):
    """Whether ``tree`` has the shape the recursion gives ``n`` spins.

    From three spins up a level is ``[block, OUTER_X layer, block]``, one
    block, or a Kronecker level: an Euler leaf on spin ``n`` beside the
    tree of the leading spins, or that tree alone.  A block is
    ``[tree, DIAGONAL layer, tree]`` on the leading spins.  Only one- and
    two-spin subtrees may hold anything else, a phase leaf included.
    """
    if n <= 2:
        return span(tree) <= n
    if level_shape_holds(tree, n - 1) or is_block(tree, n):
        return True
    if not isinstance(tree, SequenceNode):
        return False
    c = tree.children
    if len(c) == 2:
        return (isinstance(c[0], EulerNode) and c[0].qubit == n
                and level_shape_holds(c[1], n - 1))
    return (len(c) == 3 and is_layer(c[1], CartanFamily.OUTER_X, n)
            and is_block(c[0], n) and is_block(c[2], n))


def is_block(tree, n):
    return (isinstance(tree, SequenceNode) and len(tree.children) == 3
            and is_layer(tree.children[1], CartanFamily.DIAGONAL, n)
            and level_shape_holds(tree.children[0], n - 1)
            and level_shape_holds(tree.children[2], n - 1))


def is_layer(node, family, n):
    return (isinstance(node, CartanNode) and node.element.family is family
            and node.element.n == n)


def test_gate_tree_has_four_node_kinds():
    assert set(typing.get_args(GateTree)) == {
        EulerNode, PhaseNode, CartanNode, SequenceNode}


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("target", TARGETS + (haar,), ids=lambda f: f.__name__)
def test_tree_vocabulary(target, n):
    """Every level is ``K A K``: the only non-local leaf is a commuting
    evolution, over the split or diagonal family from three spins up and
    over the maximal family ``{XX, YY, ZZ}`` at two.  Every block is
    ``[tree, DIAGONAL layer, tree]``, and a phase leaf appears only in
    one- and two-spin subtrees."""
    tree = decompose(target(n))
    assert level_shape_holds(tree, n)
    for leaf in leaves(tree):
        assert isinstance(leaf, (EulerNode, PhaseNode, CartanNode))
        if isinstance(leaf, CartanNode):
            family = leaf.element.family
            if leaf.element.n == 2:
                assert family is CartanFamily.MAXIMAL
            else:
                assert family in (CartanFamily.OUTER_X, CartanFamily.DIAGONAL)


# ---------------------------------------------------------------------------
# The lowering's peephole


def longest_local_run(gates):
    """Most rotations one spin receives between two couplings that touch
    it (or the list's ends)."""
    runs: dict[int, int] = {}
    longest = 0
    for kind, site, _, _ in gates:
        if kind == "local":
            runs[site] = runs.get(site, 0) + 1
            longest = max(longest, runs[site])
        elif kind == "zz":
            runs.pop(site, None)
            runs.pop(site + 1, None)
    return longest


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("target", TARGETS + (haar,), ids=lambda f: f.__name__)
def test_at_most_an_euler_triple_between_couplings(target, n):
    tree = decompose(target(n))
    gates = flatten(tree)
    assert longest_local_run(gates) <= 3
    assert np.max(np.abs(gate_list_unitary(gates, n) - evaluate(tree, n))) < 1e-8


@pytest.mark.parametrize("n", (3, 4, 5))
@pytest.mark.parametrize("target", (qft, bit_reversal), ids=lambda f: f.__name__)
def test_rounding_noise_emits_no_rotation(target, n):
    """The factorization leaves turns of 1e-14 to 2e-12 rad on these
    targets, while their real turns are all above 1e-4 rad; no noise
    turn becomes a pulse, and every budget still holds."""
    u = target(n)
    tree, matrix = _decompose(u)
    assert np.max(np.abs(matrix - u)) < residual_budget(n)
    gates = flatten(tree)
    smallest = min(abs(angle) for kind, _, _, angle in gates
                   if kind == "local")
    assert smallest > max(TOL_ROTATION, 1e-9)
    assert np.max(np.abs(gate_list_unitary(gates, n) - u)) < residual_budget(n)
    program = synthesize_pulses(gates, ChainSpec(n, CHAIN_J[:n - 1]))
    assert np.max(np.abs(pulse_program_unitary(program) - u)) < residual_budget(n)


def test_near_identity_keeps_its_small_turns():
    """A target 1e-9 from the identity needs turns far below 1e-9 rad;
    the drop threshold sits under them."""
    gates = flatten(decompose(near_identity(4)))
    assert any(abs(angle) < 1e-9 for kind, _, _, angle in gates
               if kind == "local")


# ---------------------------------------------------------------------------
# Trivial sub-problems cost nothing


def couplings(gates):
    return gates.kinds.count("zz")


def outer_x_sizes(tree):
    """Spin counts of the trailing-X split layers anywhere in ``tree``."""
    if isinstance(tree, SequenceNode):
        return set().union(*(outer_x_sizes(c) for c in tree.children))
    if isinstance(tree, CartanNode) and tree.element.family is CartanFamily.OUTER_X:
        return {tree.element.n}
    return set()


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("target", (identity, minus_identity, hadamard_power,
                                    kronecker_product), ids=lambda f: f.__name__)
def test_products_compile_to_no_couplings(target, n):
    gates = flatten(decompose(target(n)))
    assert couplings(gates) == 0
    if target is minus_identity:
        assert "local" not in gates.kinds


def coupling_angle(gates):
    """Total coupling angle, each reduced mod 4*pi as the scheduler runs
    it: the coupling time on a uniform chain, times 2*pi*J."""
    return sum(abs(math.remainder(angle, 4 * math.pi))
               for kind, _, _, angle in gates if kind == "zz")


def assert_open_layers_add_no_coupling(u, monkeypatch):
    opened = flatten(decompose(u))
    monkeypatch.setattr(kakpulse.kak, "open_route", lambda k, letters: None)
    closed = flatten(decompose(u))
    assert couplings(opened) <= couplings(closed)
    assert coupling_angle(opened) <= coupling_angle(closed) + 1e-9


@pytest.mark.parametrize("n", range(3, 6))
@pytest.mark.parametrize("target", TARGETS, ids=lambda f: f.__name__)
def test_open_layers_add_no_coupling(target, n, monkeypatch):
    """Against the same factorization with every layer closed, no
    structured target gains a coupling or coupling time: an end map goes
    only into a neighbour that does not spend more than it saves."""
    assert_open_layers_add_no_coupling(target(n), monkeypatch)


def test_open_layers_add_no_coupling_at_six_spins(monkeypatch):
    """The random diagonal at six spins: its diagonal ratios leave
    ``v = I`` beside every layer.  The five- and six-spin maps would
    leave that Kronecker neighbour, and the four-spin map grows it by
    the 2 pi couplings it saves, so every layer stays closed."""
    u = random_diagonal(6)
    assert open_sizes(decompose(u)) == set()
    assert_open_layers_add_no_coupling(u, monkeypatch)


def test_exact_tie_keeps_the_layer_closed(monkeypatch):
    """Bit reversal at three spins meets an exact tie: absorbing an open
    layer's end map grows its two-spin neighbour's interaction angles by
    a whole multiple of pi, as much as the route saves, up to rounding.
    A tie keeps the layer closed, whichever way the last bits fall."""
    growths = []
    sums = kakpulse.kak._interaction_sums

    def spy(us):
        out = sums(us)
        growths.extend(out[:len(us) // 2] - out[len(us) // 2:])
        return out

    monkeypatch.setattr(kakpulse.kak, "_interaction_sums", spy)
    assert open_sizes(decompose(bit_reversal(3))) == set()
    assert any(g > 1 and abs(g / math.pi - round(g / math.pi)) < 1e-12
               for g in growths), growths


@pytest.mark.parametrize("target", (qft, near_identity, clustered_cs_angles),
                         ids=lambda f: f.__name__)
def test_five_spin_layers_end_open_on_generic_levels(target):
    """Structured targets whose top levels take the generic route record
    five-spin open layers, so the test above covers them."""
    assert 5 in open_sizes(decompose(target(5)))


def test_bit_reversal_five_spin_layers_are_sparse():
    """With every exactly degenerate subspace gauged, the five-spin
    layers of bit reversal hold one or two strings each, which no open
    route shortens."""
    layers = [leaf.element for leaf in leaves(decompose(bit_reversal(5)))
              if isinstance(leaf, CartanNode) and leaf.element.n == 5]
    assert layers
    for element in layers:
        assert sum(abs(c) > TOL_COEFF for _, c in element.items()) <= 2


def open_sizes(tree):
    """Spin counts of the layers anywhere in ``tree`` that end open."""
    if isinstance(tree, SequenceNode):
        return set().union(*(open_sizes(c) for c in tree.children))
    if isinstance(tree, CartanNode) and tree.route is not None:
        return {tree.element.n}
    return set()


def cnot_after_multiplexed_ry():
    """A y rotation of spin 4 by an angle that rises with the state of
    spins 1..3, then a CNOT from spin 1 onto spin 2."""
    turns = [np.array([[math.cos(t), -math.sin(t)],
                       [math.sin(t), math.cos(t)]])
             for t in np.linspace(0.3, 1.2, 8)]
    cnot = permutation([0, 1, 3, 2])
    return np.kron(cnot, np.eye(4)) @ scipy.linalg.block_diag(*turns)


@pytest.mark.parametrize("target", (identity, random_diagonal, toffoli_like),
                         ids=lambda f: f.__name__)
def test_four_spin_layer_ends_open_into_a_kronecker_neighbour(target,
                                                              monkeypatch):
    """Both left blocks of the split are ``CNOT (x) 1``, a Kronecker
    neighbour of the four-spin cosine-sine layer; the target, applied
    first and block-diagonal on spin 1, only changes the right blocks.
    The layer's end map moves only spins 1 and 2, so it lands on the
    CNOT, whose interaction angles do not grow, below the 2 pi couplings
    the open route saves.  (On an identity neighbour, the ``v = I`` of a
    diagonal ratio, the map grows by exactly 2 pi, and the tie keeps the
    layer closed.)"""
    u = cnot_after_multiplexed_ry() @ target(4)
    tree = decompose(u)
    assert 4 in open_sizes(tree)
    opened = flatten(tree)
    monkeypatch.setattr(kakpulse.kak, "open_route", lambda k, letters: None)
    closed = flatten(decompose(u))
    assert couplings(opened) < couplings(closed)
    assert coupling_angle(opened) < coupling_angle(closed)



@pytest.mark.parametrize("n", (3, 4, 5))
@pytest.mark.parametrize("target", TARGETS, ids=lambda f: f.__name__)
def test_leaf_phases_keep_every_route_and_add_no_coupling(target, n, monkeypatch):
    """A leaf moves its phase only into a layer that turns it as a free z
    turn and only on a strict gain, so every layer keeps its route, no
    target gains a coupling or coupling angle, and every budget holds."""
    u = target(n)
    tree, matrix = _decompose(u)
    still, _ = unmoved(u, monkeypatch)
    assert layer_cnots(tree) == layer_cnots(still)
    gates, before = flatten(tree), flatten(still)
    assert couplings(gates) <= couplings(before)
    assert coupling_angle(gates) <= coupling_angle(before) + 1e-9
    assert np.max(np.abs(matrix - u)) < residual_budget(n)
    assert np.max(np.abs(gate_list_unitary(gates, n) - u)) < residual_budget(n)

@pytest.mark.parametrize("n, count", [(4, 46), (5, 86)])
def test_global_phase_leaves_the_toffoli_program_alone(n, count):
    """The Toffoli's cosine-sine angles are all 0 or pi/2, where ``l1``
    carries a gauge of its own; fitted to ``l0``, it no longer follows
    the input's global phase, and neither does the program."""
    chain = ChainSpec(n, CHAIN_J[:n - 1])
    costs = set()
    for phi in (0.0, 0.7, 1.9, -2.4):
        gates = flatten(decompose(toffoli_like(n) * np.exp(1j * phi)))
        duration = total_coupling_time(synthesize_pulses(gates, chain))
        costs.add((couplings(gates), round(duration, 9)))
    assert len(costs) == 1
    assert costs.pop()[0] == count


@pytest.mark.parametrize("n, qft_count, reversal_count",
                         [(3, 19, 15), (4, 60, 43), (5, 199, 116)])
def test_degenerate_gauges_shorten_qft_and_bit_reversal(n, qft_count,
                                                        reversal_count):
    """In each exactly degenerate subspace, the cosine-sine split's
    ``l1`` and the demultiplexing eigenbasis take the basis closest to
    standard basis vectors, so these permutation-like targets no longer
    cost what a Haar target does (23/21, 143/147 and 685/729 couplings
    before)."""
    assert couplings(flatten(decompose(qft(n)))) <= qft_count
    assert couplings(flatten(decompose(bit_reversal(n)))) <= reversal_count


# Couplings of each target times exp(1j*phi), phi = 0, 0.7, 1.9 and -2.4,
# before the degenerate gauges.
UNGAUGED_COUPLINGS = {
    ("qft", 3): (23, 23, 24, 23), ("qft", 4): (143, 144, 145, 142),
    ("qft", 5): (685, 691, 715, 711),
    ("bit_reversal", 3): (21, 21, 21, 21),
    ("bit_reversal", 4): (147, 148, 147, 145),
    ("bit_reversal", 5): (729, 729, 729, 729),
}


@pytest.mark.parametrize("n", (3, 4, 5))
@pytest.mark.parametrize("target", (qft, bit_reversal), ids=lambda f: f.__name__)
def test_degenerate_gauges_cost_nothing_at_any_global_phase(target, n):
    """The gauges do not fix the global phase, which still moves the
    program; at no phase of the grid does it cost more than before."""
    for phi, before in zip((0.0, 0.7, 1.9, -2.4),
                           UNGAUGED_COUPLINGS[target.__name__, n]):
        gates = flatten(decompose(target(n) * np.exp(1j * phi)))
        assert couplings(gates) <= before, phi


def ladder_count(n):
    """Couplings of one ladder per string of the full diagonal family."""
    strings = ("".join(letters) for letters in itertools.product("1Z", repeat=n))
    return sum(couplings(pauli_evolution_gates(s, 0.3))
               for s in strings if "Z" in s)


@pytest.mark.parametrize("n", range(3, 6))
def test_diagonal_skips_the_split(n):
    """A diagonal is block-diagonal at every level and its block ratios
    are diagonal, so no level splits and every ``v`` half is free.  At
    three spins the one commuting layer keeps its ladders, so the count
    ties with the ladder count there and drops below it from four."""
    tree = decompose(random_diagonal(n))
    assert outer_x_sizes(tree) == set()
    got = couplings(flatten(tree))
    assert got < ladder_count(n) if n >= 4 else got <= ladder_count(n)


def block_diagonal(n):
    """Haar blocks on the two sectors of the last spin."""
    half = 2 ** (n - 1)
    split_frame = scipy.linalg.block_diag(haar_unitary(half, 700 + n),
                                          haar_unitary(half, 710 + n))
    return permute_spins(split_frame, list(range(1, n)) + [0])


def haar_kronecker(n):
    """A Haar unitary on the leading spins times one on the last spin."""
    return np.kron(haar_unitary(2 ** (n - 1), 720 + n), haar_unitary(2, 730 + n))


def nudged(u, eps, seed):
    """``u`` moved ``eps`` away along a Hermitian generator of unit size."""
    dim = u.shape[0]
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    g = (g + g.conj().T) / 2
    return u @ scipy.linalg.expm(-1j * eps * g / np.max(np.abs(g)))


@pytest.mark.parametrize("eps", (1e-14, 1e-12, 1e-9))
@pytest.mark.parametrize("n", (2, 3, 4, 5))
@pytest.mark.parametrize("structure", (haar_kronecker, block_diagonal),
                         ids=lambda f: f.__name__)
def test_near_trivial_targets_keep_every_contract(structure, n, eps):
    u = nudged(structure(n), eps, 800 + n)
    tree, matrix = _decompose(u)
    assert np.max(np.abs(matrix - u)) < residual_budget(n)
    assert np.max(np.abs(matrix - evaluate(tree, n))) < 1e-12
    if eps <= 1e-14:  # well inside the threshold: the short circuit is taken
        assert n not in outer_x_sizes(tree)
    gates = flatten(tree)
    assert np.max(np.abs(gate_list_unitary(gates, n) - u)) < 1e-9
    program = synthesize_pulses(gates, ChainSpec(n, CHAIN_J[:n - 1]))
    assert np.max(np.abs(pulse_program_unitary(program) - u)) < 1e-9


def test_one_screen_routes_a_stack_as_it_routes_each_matrix():
    """The last-spin screen gives each matrix of a stack the route it
    gives that matrix alone: Kronecker (even where the product is also
    block-diagonal), else block-diagonal exactly where both off-diagonal
    blocks are within TOL_TRIVIAL of zero, else generic."""
    w = haar_unitary(8, 741)
    near = block_diagonal(4).copy()
    near[0::2, 1::2] += 2e-12  # <a|u|b> of the last spin: rows a::2, cols b::2
    near[1::2, 0::2] -= 2e-12
    stack = np.array([haar_unitary(16, 740), block_diagonal(4),
                      np.kron(w, np.diag(np.exp([0.3j, -1.1j]))),
                      np.kron(w, haar_unitary(2, 742)), near])
    routes = kakpulse.kak._last_spin_screen(stack)
    assert [route if route is None or isinstance(route, str) else "kronecker"
            for route in routes] == [None, "block", "kronecker", "kronecker",
                                     None]
    for u, route in zip(stack, routes):
        alone, = kakpulse.kak._last_spin_screen(u[None])
        off = max(np.max(np.abs(u[0::2, 1::2])), np.max(np.abs(u[1::2, 0::2])))
        if isinstance(route, tuple):
            d, w_u = route
            assert all(np.array_equal(a, b) for a, b in zip(route, alone))
            assert np.max(np.abs(np.kron(w_u, d) - u)) <= 1e-12
        else:
            assert route == alone
            assert (route == "block") == (off <= kakpulse.kak.TOL_TRIVIAL)


def test_corrupt_kronecker_factor_names_its_level(monkeypatch):
    """A leading-spin factor knocked off by 1e-6 still factors cleanly on
    its own, so only the Kronecker level's own check can see it."""
    honest = kakpulse.kak._last_spin_screen

    def corrupt(us):
        found = honest(us)
        if us.shape[1] == 16:
            turn = np.kron(su2_rotation("x", 2e-6), np.eye(4))
            found = [(route[0], route[1] @ turn) if isinstance(route, tuple)
                     else route for route in found]
        return found

    monkeypatch.setattr(kakpulse.kak, "_last_spin_screen", corrupt)
    with pytest.raises(NumericError) as info:
        decompose(haar_kronecker(4))
    assert info.value.path == ("n=4",)
    assert 5e-7 < info.value.residual < 5e-6
