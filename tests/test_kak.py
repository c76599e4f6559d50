"""The factorization engine: Euler angles, the canonical two-spin form,
the last-spin split, demultiplexing, gate trees, and the full recursion."""

import cmath
import json
import math

import numpy as np
import pytest
import scipy.linalg

import kakpulse.kak
import kakpulse.pulses
from kakpulse import (
    BlockPair,
    CartanElement,
    CartanFamily,
    CartanNode,
    CouplingEvolution,
    DimensionError,
    EulerNode,
    GlobalPhase,
    LocalRotation,
    NumericError,
    PauliString,
    PhaseNode,
    SequenceNode,
    ValidationError,
    compile_unitary,
    decompose,
    demultiplex,
    evaluate,
    expm_skew,
    flatten,
    gate_list_unitary,
    haar_unitary,
    interaction_class,
    interaction_unitary,
    residual_budget,
    split_last_qubit,
    tree_from_json_dict,
    tree_to_json_dict,
    two_spin_factors,
)
from kakpulse.kak import (TOL_TWO_SPIN, _decompose, _interaction_sum,
                          _open_layer, euler_xzx, su2_rotation)
from kakpulse.networks import OPEN_ROUTES

X2 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Y2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
Z2 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

CNOT = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]

# The entangled frame in which local pairs become real orthogonal; written
# out by hand so the invariance check below does not lean on the library.
MAGIC = np.array([
    [1, 0, 0, 1j],
    [0, 1j, 1, 0],
    [0, 1j, -1, 0],
    [1, 0, 0, -1j],
], dtype=complex) / math.sqrt(2)


def pauli_dense(word):
    table = {"1": np.eye(2, dtype=complex), "X": X2, "Y": Y2, "Z": Z2}
    out = np.ones((1, 1), dtype=complex)
    for c in word:
        out = np.kron(out, table[c])
    return out / 2.0


def magic_spectrum(u):
    """Sorted eigenphases of (M^H u M)^T (M^H u M): a local-dressing
    invariant of two-spin unitaries with unit determinant."""
    m = MAGIC.conj().T @ u @ MAGIC
    return np.sort(np.angle(np.linalg.eigvals(m.T @ m)))


# ---------------------------------------------------------------------------
# Single spin


def test_su2_rotation_matches_expm():
    for axis, sigma in (("x", X2), ("y", Y2), ("z", Z2)):
        for angle in (0.0, 0.7, -2.1, math.pi):
            want = scipy.linalg.expm(-0.5j * angle * sigma)
            assert np.allclose(su2_rotation(axis, angle), want, atol=1e-14)


class TestEulerXZX:
    def test_haar_samples_reconstruct(self):
        rng = np.random.default_rng(100)
        for _ in range(300):
            u = haar_unitary(2, rng, special=True)
            alpha, beta, gamma = euler_xzx(u)
            recon = su2_rotation("x", alpha) @ su2_rotation("z", beta) \
                @ su2_rotation("x", gamma)
            assert np.max(np.abs(recon - u)) < 1e-12

    def test_angle_ranges(self):
        rng = np.random.default_rng(101)
        for _ in range(300):
            alpha, beta, gamma = euler_xzx(haar_unitary(2, rng, special=True))
            assert 0 <= alpha < 2 * math.pi
            assert 0 <= gamma < 2 * math.pi
            assert 0 <= beta <= math.pi or 2 * math.pi <= beta <= 3 * math.pi

    def test_pure_x_rotation(self):
        alpha, beta, gamma = euler_xzx(su2_rotation("x", 0.7))
        assert beta == 0.0
        assert (alpha + gamma) % (2 * math.pi) == pytest.approx(0.7)

    def test_pure_x_rotation_is_one_turn(self):
        alpha, beta, gamma = euler_xzx(su2_rotation("x", 0.3))
        assert (beta, gamma) == (0.0, 0.0)
        assert alpha == pytest.approx(0.3, abs=1e-15)

    def test_half_turn_about_z_fixes_gamma_to_zero(self):
        # Rz(pi) @ Rx(0.4) = Rx(-0.4) @ Rz(pi), built with exact zeros;
        # alpha = 2*pi - 0.4 turns the sign, so beta takes the other sheet
        c, s = math.cos(0.2), math.sin(0.2)
        u = np.array([[-1j * c, -s], [s, 1j * c]])
        assert euler_xzx(u) == pytest.approx(
            (2 * math.pi - 0.4, 3 * math.pi, 0.0), abs=1e-14)
        assert euler_xzx(u)[2] == 0.0

    def test_pure_z_rotation(self):
        assert euler_xzx(su2_rotation("z", 1.1)) == \
            pytest.approx((0.0, 1.1, 0.0))

    def test_minus_identity(self):
        alpha, beta, gamma = euler_xzx(-np.eye(2, dtype=complex))
        recon = su2_rotation("x", alpha) @ su2_rotation("z", beta) \
            @ su2_rotation("x", gamma)
        assert np.allclose(recon, -np.eye(2), atol=1e-14)

    def test_rejects_non_special(self):
        with pytest.raises(ValidationError):
            euler_xzx(haar_unitary(2, 3))  # det is a random phase

    @pytest.mark.parametrize("m", [
        [[2.0, 0.0], [0.0, 0.5]],  # det 1
        [[1.0, 1e-9], [0.0, 1.0]],  # det 1, just off unitary
        [[math.nan, 0.0], [0.0, 1.0]]])
    def test_rejects_non_unitary(self, m):
        with pytest.raises(ValidationError):
            euler_xzx(np.array(m, dtype=complex))

    def test_wrong_angles_fail_the_reconstruction(self, monkeypatch):
        """The check rebuilds ``u`` from the angles it returns, so angles
        off by 1e-9 cannot pass."""
        real = kakpulse.kak.euler_xzx_angles
        monkeypatch.setattr(
            "kakpulse.kak.euler_xzx_angles",
            lambda q: tuple(a + 1e-9 for a in real(q)))
        with pytest.raises(NumericError):
            euler_xzx(haar_unitary(2, 5, special=True))

    def test_rejects_wrong_shape(self):
        with pytest.raises(DimensionError):
            euler_xzx(haar_unitary(4, 3))


# ---------------------------------------------------------------------------
# Two spins


def test_interaction_unitary_matches_expm():
    rng = np.random.default_rng(7)
    for _ in range(20):
        ax, ay, az = rng.uniform(-math.pi, math.pi, size=3)
        h = (ax * np.kron(X2, X2) + ay * np.kron(Y2, Y2)
             + az * np.kron(Z2, Z2)) / 4
        want = scipy.linalg.expm(-1j * h)
        assert np.allclose(interaction_unitary((ax, ay, az)), want, atol=1e-13)


class TestTwoSpinFactors:
    def test_haar_samples(self):
        rng = np.random.default_rng(200)
        for _ in range(500):
            u = haar_unitary(4, rng)
            f = two_spin_factors(u)
            assert np.max(np.abs(f.reconstruct() - u)) < 1e-10
            assert f.residual < 1e-10

    def test_canonical_chamber(self):
        rng = np.random.default_rng(201)
        for _ in range(300):
            a1, a2, a3 = two_spin_factors(haar_unitary(4, rng)).alphas
            assert math.pi + 1e-12 >= a1 >= a2 >= abs(a3) - 1e-12
            if a1 >= math.pi - 1e-12:
                assert a3 >= -1e-12

    def test_locals_are_special(self):
        f = two_spin_factors(haar_unitary(4, 17))
        for q in (f.l1, f.l2, f.r1, f.r2):
            assert abs(np.linalg.det(q) - 1) < 1e-9
            assert np.allclose(q @ q.conj().T, np.eye(2), atol=1e-9)

    def test_interaction_point_is_a_fixed_point(self):
        u = interaction_unitary((0.3, 0.2, 0.1))
        f = two_spin_factors(u)
        assert np.allclose(f.alphas, (0.3, 0.2, 0.1), atol=1e-10)

    def test_dressing_invariance(self):
        rng = np.random.default_rng(202)
        for _ in range(50):
            u = haar_unitary(4, rng)
            base = np.asarray(two_spin_factors(u).alphas)
            dressed = np.kron(haar_unitary(2, rng, special=True),
                              haar_unitary(2, rng, special=True)) @ u @ \
                np.kron(haar_unitary(2, rng, special=True),
                        haar_unitary(2, rng, special=True))
            got = np.asarray(two_spin_factors(dressed).alphas)
            assert np.max(np.abs(got - base)) < 1e-9

    def test_cnot_interaction_content(self):
        """CNOT and the other textbook gates land on their chamber points
        (``alphas`` in units of pi) and are rebuilt within the budget."""
        gates = {
            "CNOT": (CNOT, (1, 0, 0)),
            "SWAP": (SWAP, (1, 1, 1)),
            "iSWAP": (np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0],
                                [0, 0, 0, 1]]), (1, 1, 0)),
            "sqrt(SWAP)": (scipy.linalg.sqrtm(SWAP), (0.5, 0.5, 0.5)),
            "B": (scipy.linalg.expm(1j * math.pi / 4 * np.kron(X2, X2)
                                    + 1j * math.pi / 8 * np.kron(Y2, Y2)),
                  (1, 0.5, 0)),
            "CNOT SWAP": (CNOT @ SWAP, (1, 1, 0)),
        }
        for name, (u, alphas) in gates.items():
            f = two_spin_factors(u)
            assert f.alphas == pytest.approx(
                tuple(math.pi * a for a in alphas), abs=1e-12), name
            assert interaction_class(u) == f.alphas, name
            assert f.residual <= TOL_TWO_SPIN, name
            assert np.max(np.abs(f.reconstruct() - u)) <= TOL_TWO_SPIN, name

    def test_cnot_against_magic_spectrum(self):
        """Locally-invariant cross-check that CNOT really sits at (pi,0,0):
        its magic-frame spectrum must match the bare interaction's."""
        got = magic_spectrum(CNOT * cmath.exp(-1j * math.pi / 4))
        want = magic_spectrum(interaction_unitary((math.pi, 0.0, 0.0)))
        assert np.allclose(got, want, atol=1e-10)

    def test_identity_input(self):
        f = two_spin_factors(np.eye(4, dtype=complex))
        assert np.allclose(f.alphas, 0.0, atol=1e-12)
        assert np.max(np.abs(f.reconstruct() - np.eye(4))) < 1e-10

    def test_rejects_wrong_size(self):
        with pytest.raises(ValidationError):
            two_spin_factors(haar_unitary(8, 1))

    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            two_spin_factors(np.diag([2.0, 0.5, 1.0, 1.0]).astype(complex))

    def test_a_wrong_move_fails_the_reconstruction(self, monkeypatch):
        """A chamber move that sorts the angles without turning the
        locals leaves a factorization the final check must reject."""
        def swap_angles_only(state, j, k):
            state.alphas[j], state.alphas[k] = state.alphas[k], state.alphas[j]

        monkeypatch.setattr(kakpulse.kak._TwoSpinState, "swap",
                            swap_angles_only)
        with pytest.raises(NumericError):
            two_spin_factors(interaction_unitary((0.1, 0.3, 0.2)))


# ---------------------------------------------------------------------------
# The last-spin split


class TestSplitLastQubit:
    def test_reconstruction(self):
        for n, seed in ((3, 0), (3, 1), (4, 2)):
            u = haar_unitary(2 ** n, seed, special=True)
            k1, y, k2 = split_last_qubit(u)
            recon = k1.realize() @ expm_skew(y.hamiltonian()) @ k2.realize()
            assert np.max(np.abs(recon - u)) < 1e-9

    def test_middle_lives_on_the_trailing_x_family(self):
        u = haar_unitary(8, 3, special=True)
        _, y, _ = split_last_qubit(u)
        assert y.family is CartanFamily.OUTER_X
        assert all(s.letters[-1] == "X" for s in y.coeffs)

    def test_block_factors_are_unitary(self):
        u = haar_unitary(8, 4, special=True)
        k1, _, k2 = split_last_qubit(u)
        for pair in (k1, k2):
            for blk in (pair.u0, pair.u1):
                assert np.max(np.abs(blk.conj().T @ blk - np.eye(4))) < 1e-12

    def test_pure_family_evolution_spectrum(self):
        """Feeding exp(-iH) for H over the commuting family must return a
        middle with the same spectrum as H (the sides only re-gauge it)."""
        h = 0.3 * pauli_dense("11X") + 0.5 * pauli_dense("XXX")
        _, y, _ = split_last_qubit(expm_skew(h))
        got = np.sort(np.linalg.eigvalsh(y.hamiltonian()))
        want = np.sort(np.linalg.eigvalsh(h))
        assert np.max(np.abs(got - want)) < 1e-9

    def test_single_string_evolution(self):
        _, y, _ = split_last_qubit(expm_skew(0.4 * pauli_dense("XXX")))
        eigs = np.abs(np.linalg.eigvalsh(y.hamiltonian()))
        assert np.allclose(eigs, 0.2, atol=1e-9)

    def test_rejects_two_spins(self):
        with pytest.raises(ValidationError):
            split_last_qubit(haar_unitary(4, 0, special=True))

    def test_accepts_non_special(self):
        u = haar_unitary(8, 5)  # determinant is a random phase
        k1, y, k2 = split_last_qubit(u)
        recon = k1.realize() @ expm_skew(y.hamiltonian()) @ k2.realize()
        assert np.max(np.abs(recon - u)) < 1e-9


class TestDemultiplex:
    @staticmethod
    def make_pair(n, seed, phase=0.0):
        """Blocks that are not special, ``u0`` turned by a relative phase."""
        half = 2 ** (n - 1)
        return BlockPair(n=n,
                         u0=haar_unitary(half, seed) * cmath.exp(1j * phase),
                         u1=haar_unitary(half, seed + 1))

    def test_realize_layout(self):
        pair = self.make_pair(3, 10)
        got = pair.realize()
        # spin 3 selects the sector: |0> on the last spin -> u0
        want = np.zeros((8, 8), dtype=complex)
        for i in range(4):
            for j in range(4):
                want[2 * i, 2 * j] = pair.u0[i, j]
                want[2 * i + 1, 2 * j + 1] = pair.u1[i, j]
        assert np.allclose(got, want, atol=1e-14)

    def test_factorization_identity(self):
        for n, seed, phase in ((2, 20, 0.0), (3, 30, 0.37), (4, 40, -1.1)):
            pair = self.make_pair(n, seed, phase)
            v, z, w = demultiplex(pair)
            recon = np.kron(v, np.eye(2)) @ expm_skew(z.hamiltonian()) \
                @ np.kron(w, np.eye(2))
            assert np.max(np.abs(recon - pair.realize())) < 1e-9

    def test_diagonal_layer_family(self):
        """Every string is diagonal, and the lone ``1...1Z`` term carries
        the mean of ``D``: the blocks' relative phase
        ``det(u0) / det(u1) = exp(-1j * c * half)``."""
        pair = self.make_pair(3, 50, 0.2)
        _, z, _ = demultiplex(pair)
        assert z.family is CartanFamily.DIAGONAL
        for s in z.coeffs:
            assert set(s.letters) <= {"1", "Z"}
        c = z.coeffs[PauliString("1" * (z.n - 1) + "Z")]
        ratio = np.linalg.det(pair.u0) / np.linalg.det(pair.u1)
        assert abs(cmath.exp(-1j * c * pair.half) - ratio) < 1e-10

    def test_equal_blocks_need_no_layer(self):
        u0 = haar_unitary(4, 60, special=True)
        v, z, w = demultiplex(BlockPair(n=3, u0=u0, u1=u0))
        assert z.coeffs == {}
        assert np.max(np.abs(v @ w - u0)) < 1e-10


# ---------------------------------------------------------------------------
# Gate trees


def test_sequence_children_multiply_in_matrix_order():
    a = EulerNode(qubit=1, alpha=0.3, beta=0.0, gamma=0.0)
    b = EulerNode(qubit=1, alpha=0.0, beta=1.2, gamma=0.0)
    got = evaluate(SequenceNode((a, b)), 1)
    want = su2_rotation("x", 0.3) @ su2_rotation("z", 1.2)
    assert np.allclose(got, want, atol=1e-14)


def test_evaluate_embeds_locals():
    node = EulerNode(qubit=2, alpha=0.4, beta=0.9, gamma=-0.2)
    got = evaluate(node, 3)
    want = np.kron(np.kron(np.eye(2), node.matrix2()), np.eye(2))
    assert np.allclose(got, want, atol=1e-14)


def test_evaluate_phase_and_euler_leaves():
    tree = SequenceNode((
        PhaseNode(0.6),
        EulerNode(1, 0.5, 0.0, 0.0),
        EulerNode(2, 0.0, -0.3, 0.0),
    ))
    want = cmath.exp(0.6j) * np.kron(su2_rotation("x", 0.5),
                                     su2_rotation("z", -0.3))
    assert np.allclose(evaluate(tree, 2), want, atol=1e-14)


def test_evaluate_cartan_node_pads_trailing_spins():
    elem = CartanElement(n=2, family=CartanFamily.MAXIMAL,
                         coeffs={PauliString("ZZ"): 0.8})
    got = evaluate(CartanNode(elem), 3)
    want = scipy.linalg.expm(-1j * np.kron(0.8 * pauli_dense("ZZ"), np.eye(2)))
    assert np.allclose(got, want, atol=1e-13)


@pytest.mark.parametrize("family", list(CartanFamily), ids=lambda f: f.value)
def test_cartan_node_matches_dense_exponential(family):
    """Every family, applied string by string as signed permutations,
    equals the spectral exponential of its dense Hamiltonian, alone and
    padded onto a longer chain, and each arrives through JSON."""
    rng = np.random.default_rng(90)
    for n in (2, 3, 4):
        coeffs = {s: float(rng.uniform(-3, 3)) for s in family.strings(n)}
        data = {"node": "commuting_evolution", "n": n, "family": family.value,
                "coeffs": {s.letters: c for s, c in coeffs.items()}}
        node = tree_from_json_dict(data)
        assert node == CartanNode(CartanElement(n=n, family=family, coeffs=coeffs))
        want = expm_skew(node.element.hamiltonian())
        assert np.max(np.abs(evaluate(node, n) - want)) < 1e-12
        padded = np.kron(want, np.eye(2))
        assert np.max(np.abs(evaluate(node, n + 1) - padded)) < 1e-12
    with pytest.raises(DimensionError):
        evaluate(node, 3)


def test_interaction_sum_is_the_canonical_angle_sum():
    """The spectral shortcut agrees with the full canonical factorization
    on Haar samples, CNOT, SWAP, the identity and chamber edges, under
    local frames and global phases."""
    swap = np.eye(4)[[0, 2, 1, 3]]
    cnot = np.eye(4)[[0, 1, 3, 2]]
    cases = [haar_unitary(4, seed) for seed in range(40)]
    cases += [np.eye(4), swap, cnot, cnot @ swap,
              interaction_unitary((math.pi, math.pi / 2, -0.3)),
              interaction_unitary((math.pi, 0.2, 0.1))]
    rng = np.random.default_rng(17)
    for seed in range(40):
        locals_ = [haar_unitary(2, 1000 + 4 * seed + j) for j in range(4)]
        cases.append(cmath.exp(1j * seed) * np.kron(locals_[0], locals_[1])
                     @ interaction_unitary(rng.uniform(-7, 7, 3))
                     @ np.kron(locals_[2], locals_[3]))
    for u in cases:
        want = sum(abs(a) for a in two_spin_factors(u).alphas)
        assert abs(_interaction_sum(u) - want) < 1e-12


def routes(tree):
    if isinstance(tree, SequenceNode):
        return [r for child in tree.children for r in routes(child)]
    if isinstance(tree, CartanNode) and tree.route is not None:
        return [(tree.element.n, tree.element.family, tree.route)]
    return []


@pytest.mark.parametrize("n", (3, 4, 5, 6))
def test_haar_trees_record_open_layers(n):
    """Haar trees record open routes at every size from three spins to
    the top level, on both families, the recorded maps stay inside
    every budget, and the routes survive tree JSON."""
    u = haar_unitary(2 ** n, 100 + n, special=True)
    tree, matrix = _decompose(u)
    assert tree_from_json_dict(json.loads(json.dumps(tree_to_json_dict(tree)))) == tree
    found = routes(tree)
    assert {k for k, _, _ in found} == set(range(3, n + 1))
    assert {f for _, f, _ in found} == {CartanFamily.DIAGONAL,
                                        CartanFamily.OUTER_X}
    assert all(route == OPEN_ROUTES[k] for k, _, route in found)
    assert np.max(np.abs(matrix - evaluate(tree, n))) < 1e-12
    assert np.max(np.abs(evaluate(tree, n) - u)) < residual_budget(n)
    got = gate_list_unitary(flatten(tree), n)
    assert np.max(np.abs(got - evaluate(tree, n))) < 1e-8


@pytest.mark.parametrize("family", (CartanFamily.DIAGONAL, CartanFamily.OUTER_X))
def test_five_spin_layer_hands_its_map_only_to_a_generic_neighbour(family):
    """The five-spin route ends with spin 3 holding x3+x4, so its map
    moves spin 4.  A generic neighbour absorbs it as a column gather, and
    the pair keeps the product.  A Kronecker neighbour ``W (x) D`` with
    ``D`` on spin 4 would have the map join what its route keeps apart,
    and a block-diagonal one would lose its short circuit, so either
    keeps the layer closed and is left as it is."""
    rng = np.random.default_rng(55)
    layer = CartanElement(n=5, family=family, coeffs={
        s: rng.uniform(-3, 3) for s in family.strings(5)})
    generic = haar_unitary(16, 56)
    node, after = _open_layer(layer, generic)
    assert node.route == OPEN_ROUTES[5]
    got = np.kron(after, np.eye(2)) @ evaluate(node, 5)
    want = np.kron(generic, np.eye(2)) @ expm_skew(layer.hamiltonian())
    assert np.max(np.abs(got - want)) < 1e-12
    kron = np.kron(haar_unitary(8, 57), haar_unitary(2, 58))
    block = BlockPair(n=4, u0=haar_unitary(8, 59), u1=haar_unitary(8, 60)).realize()
    for neighbour in (kron, block):
        node, after = _open_layer(layer, neighbour)
        assert node.route is None
        assert after is neighbour


def test_evaluate_two_spin_node():
    f = two_spin_factors(haar_unitary(4, 77))
    tree = decompose(haar_unitary(4, 77))
    got = evaluate(tree, 3)  # embedded at the left edge of a longer chain
    want = np.kron(f.reconstruct(), np.eye(2))
    assert np.max(np.abs(got - want)) < 1e-10


def test_evaluate_rejects_out_of_range_nodes():
    with pytest.raises(DimensionError):
        evaluate(EulerNode(qubit=4, alpha=0.1, beta=0.0, gamma=0.0), 3)


# ---------------------------------------------------------------------------
# The full recursion


class TestDecompose:
    def test_single_spin(self):
        u = haar_unitary(2, 0)  # non-special: needs a phase leaf
        tree = decompose(u)
        assert isinstance(tree, SequenceNode)
        assert isinstance(tree.children[0], PhaseNode)
        assert np.max(np.abs(evaluate(tree, 1) - u)) < 1e-12

    def test_single_spin_special(self):
        u = haar_unitary(2, 1, special=True)
        tree = decompose(u)
        assert isinstance(tree, EulerNode)
        assert np.max(np.abs(evaluate(tree, 1) - u)) < 1e-12

    def test_two_spins(self):
        """Phase, left Euler pair, ``{XX, YY, ZZ}`` evolution with
        coefficients ``alpha/2``, right Euler pair."""
        u = haar_unitary(4, 2)
        tree = decompose(u)
        f = two_spin_factors(u)
        assert [type(c) for c in tree.children] == [
            PhaseNode, EulerNode, EulerNode, CartanNode, EulerNode, EulerNode]
        assert [c.qubit for c in tree.children[1:3] + tree.children[4:]] \
            == [1, 2, 1, 2]
        middle = tree.children[3].element
        assert middle.family is CartanFamily.MAXIMAL
        assert [(s.letters, c) for s, c in middle.items()] == [
            ("XX", f.alphas[0] / 2), ("YY", f.alphas[1] / 2),
            ("ZZ", f.alphas[2] / 2)]
        assert np.max(np.abs(evaluate(tree, 2) - u)) < residual_budget(2)

    def test_three_and_four_spins(self):
        for n, seed in ((3, 3), (3, 4), (4, 5)):
            u = haar_unitary(2 ** n, seed)
            tree = decompose(u)
            resid = np.max(np.abs(evaluate(tree, n) - u))
            assert resid < residual_budget(n)

    def test_deterministic(self):
        u = haar_unitary(8, 6)
        assert decompose(u) == decompose(u)

    def test_identity_lowered_without_couplings(self):
        gates = compile_unitary(np.eye(4, dtype=complex))
        assert sum(isinstance(g, CouplingEvolution) for g in gates) == 0
        assert np.max(np.abs(gate_list_unitary(gates, 2) - np.eye(4))) < 1e-10

    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            decompose(np.ones((4, 4), dtype=complex))


@pytest.mark.parametrize("n", range(1, 7))
def test_one_pass_matrix_is_the_tree_matrix(n):
    """The matrix each level is checked against is the matrix of the tree
    it returns, as the independent re-walk computes it."""
    u = haar_unitary(2 ** n, 700 + n)
    tree, matrix = _decompose(u)
    assert tree == decompose(u)
    assert np.max(np.abs(matrix - evaluate(tree, n))) < 1e-12


@pytest.mark.parametrize("block", ["left", "right"])
def test_one_pass_check_catches_a_bad_child(block, monkeypatch):
    """A block factor knocked off by 1e-6 still factors cleanly on its
    own, so only the enclosing level's check can see it.  It must, and
    the error must name the block the bad child sits in."""
    calls = []

    def perturbed(pair):
        v, z, w = demultiplex(pair)
        if pair.n == 3:
            calls.append(pair)
            # the n = 4 left block makes the first four of these calls,
            # its right block the next four
            if len(calls) == (1 if block == "left" else 5):
                v = v @ np.kron(su2_rotation("x", 2e-6), np.eye(2))
        return v, z, w

    monkeypatch.setattr("kakpulse.kak.demultiplex", perturbed)
    with pytest.raises(NumericError) as info:
        decompose(haar_unitary(16, 92))
    assert info.value.path == (f"n=4/{block}-block", "n=3")
    assert 5e-7 < info.value.residual < 5e-6


def test_tree_json_round_trip():
    for n, seed in ((1, 0), (2, 1), (3, 2)):
        tree = decompose(haar_unitary(2 ** n, seed))
        assert tree_from_json_dict(tree_to_json_dict(tree)) == tree


def test_tree_json_rejects_malformed():
    with pytest.raises(ValidationError):
        tree_from_json_dict({"node": "bogus"})
    with pytest.raises(ValidationError):
        tree_from_json_dict({"node": "euler", "q": 1, "alpha": "wat",
                             "beta": 0.0, "gamma": 0.0})


def test_tree_json_rejects_non_integral_spins():
    euler = {"node": "euler", "q": 1, "alpha": 0.1, "beta": 0.2, "gamma": 0.3}
    layer = {"node": "commuting_evolution", "n": 3, "family": "outer_x",
             "coeffs": {"ZZX": 0.4}}
    assert tree_from_json_dict({**euler, "q": 1.0}) == tree_from_json_dict(euler)
    for node, field, value in ((euler, "q", 1.9), (euler, "q", True),
                               (euler, "q", "1"), (layer, "n", 3.5),
                               (layer, "n", True)):
        with pytest.raises(ValidationError, match="must be an integer"):
            tree_from_json_dict({**node, field: value})


def test_tree_json_rejects_malformed_commuting_evolution():
    """A coefficient table or a route of the wrong shape is a validation
    failure, not an attribute error."""
    node = {"node": "commuting_evolution", "n": 3, "family": "outer_x",
            "coeffs": {"ZZX": 0.4}}
    for coeffs in ([1], "ZZX", 0.4):
        with pytest.raises(ValidationError):
            tree_from_json_dict({**node, "coeffs": coeffs})
    for route in ("12", 3, {"1": 2}, [1, 2], [[1, 2, 3]], [[1.0, 2]],
                  [["1", "2"]], [[True, 2]], [[1, 3]], [[3, 4]], [[3, 2]]):
        with pytest.raises(ValidationError):
            tree_from_json_dict({**node, "route": route})
    with pytest.raises(ValidationError):  # no route on the two-spin middle
        tree_from_json_dict({"node": "commuting_evolution", "n": 2,
                             "family": "maximal", "coeffs": {"ZZ": 0.1},
                             "route": [[1, 2], [2, 1], [1, 2]]})
    loaded = tree_from_json_dict({**node, "route": [[1, 2], [2, 1], [1, 2]]})
    assert loaded.route == OPEN_ROUTES[3]
    assert tree_from_json_dict(tree_to_json_dict(loaded)) == loaded


def test_tree_json_rejects_removed_vocabulary():
    """The two-spin node kind, the trailing-Z family and the trailing-X
    strings of the old bridged frame no longer load."""
    euler = {"node": "euler", "q": 1, "alpha": 0.1, "beta": 0.0, "gamma": 0.0}
    with pytest.raises(ValidationError):
        tree_from_json_dict({"node": "two_spin", "left": 1, "phase": 0.0,
                             "alphas": [0.3, 0.2, 0.1],
                             "after": [euler, {**euler, "q": 2}],
                             "before": [euler, {**euler, "q": 2}]})
    with pytest.raises(ValidationError):
        tree_from_json_dict({"node": "commuting_evolution", "n": 2,
                             "family": "block_z", "coeffs": {"ZZ": 0.1}})
    with pytest.raises(ValidationError):
        tree_from_json_dict({"node": "commuting_evolution", "n": 3,
                             "family": "outer_x", "coeffs": {"XXX": 0.1}})


# ---------------------------------------------------------------------------
# Lowering


def test_flatten_matches_evaluate():
    for n, seed in ((2, 10), (3, 11), (3, 12)):
        tree = decompose(haar_unitary(2 ** n, seed))
        got = gate_list_unitary(flatten(tree), n)
        assert np.max(np.abs(got - evaluate(tree, n))) < 1e-8


def test_flatten_cartan_node():
    elem = CartanElement(
        n=3, family=CartanFamily.OUTER_X,
        coeffs={PauliString("11X"): 0.4, PauliString("Z1X"): 0.25,
                PauliString("ZZX"): -0.7})
    gates = flatten(CartanNode(elem))
    got = gate_list_unitary(gates, 3)
    assert np.max(np.abs(got - expm_skew(elem.hamiltonian()))) < 1e-10


def test_two_half_turns_merge_into_a_phase():
    """Rx(pi) Rx(pi) = -I: the peephole emits no rotation, only the sign."""
    half_turn = EulerNode(1, math.pi, 0.0, 0.0)
    assert flatten(half_turn) == [LocalRotation(1, "x", math.pi)]
    assert flatten(SequenceNode((half_turn, half_turn))) == [GlobalPhase(math.pi)]


@pytest.mark.parametrize("theta", (3.5, -3.5, 2 * math.pi, -2 * math.pi,
                                   2 * math.pi + 0.3, 5 * math.pi - 0.1,
                                   4 * math.pi, -7.0, math.pi, -math.pi))
def test_coupling_angles_fold_into_half_a_turn(theta):
    """``exp(-1j*2*pi*IzIz) = -1j*Z (x) Z`` is local, so the lowering
    runs every coupling at an angle in ``[-pi, pi]``, with z half turns
    and a phase for the rest; an angle that folds to zero runs none."""
    gates = [LocalRotation(1, "x", 0.4), CouplingEvolution(1, theta),
             LocalRotation(2, "y", 0.3)]
    folded = kakpulse.pulses._merge_local_runs(gates)
    angles = [g.angle for g in folded if isinstance(g, CouplingEvolution)]
    assert all(abs(a) <= math.pi for a in angles)
    assert len(angles) == (math.remainder(theta, 2 * math.pi) != 0)
    want = gate_list_unitary(gates, 2)
    assert np.max(np.abs(gate_list_unitary(folded, 2) - want)) < 1e-12


@pytest.mark.parametrize("n", (4, 5))
def test_haar_lowering_runs_no_coupling_above_half_a_turn(n):
    """Haar trees lower some strings to couplings above pi; the emitted
    list folds every one and still simulates to the tree."""
    tree = decompose(haar_unitary(2 ** n, 100 + n, special=True))
    unfolded = kakpulse.pulses._lower(tree)
    assert any(abs(g.angle) > math.pi for g in unfolded
               if isinstance(g, CouplingEvolution))
    gates = flatten(tree)
    assert all(abs(g.angle) <= math.pi for g in gates
               if isinstance(g, CouplingEvolution))
    got = gate_list_unitary(gates, n)
    assert np.max(np.abs(got - evaluate(tree, n))) < residual_budget(n)


def test_framed_couplings_realize_the_interaction():
    """The classic conjugation pattern: y-frames turn ZZ into XX, x-frames
    into YY, so three framed coupling blocks give the full interaction."""
    a1, a2, a3 = 0.7, 0.4, -0.2
    ky = [LocalRotation(1, "y", math.pi / 2), LocalRotation(2, "y", math.pi / 2)]
    kxi = [LocalRotation(1, "x", -math.pi / 2), LocalRotation(2, "x", -math.pi / 2)]
    matrix_order = (
        ky + [CouplingEvolution(1, a1)] + [g.inverse() for g in ky]
        + kxi + [CouplingEvolution(1, a2)] + [g.inverse() for g in kxi]
        + [CouplingEvolution(1, a3)]
    )
    got = gate_list_unitary(list(reversed(matrix_order)), 2)
    assert np.max(np.abs(got - interaction_unitary((a1, a2, a3)))) < 1e-12


def test_compile_unitary_end_to_end():
    u = haar_unitary(8, 99, special=True)
    gates = compile_unitary(u)
    assert np.max(np.abs(gate_list_unitary(gates, 3) - u)) < 1e-8
    for g in gates:
        assert isinstance(g, (LocalRotation, CouplingEvolution, GlobalPhase))
        if isinstance(g, CouplingEvolution):
            assert 1 <= g.left <= 2
