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
    evaluate,
    expm_skew,
    flatten,
    gate_list_unitary,
    haar_unitary,
    interaction_unitary,
    residual_budget,
    tree_from_json_dict,
    tree_to_json_dict,
)
from kakpulse.kak import (TOL_TWO_SPIN, _canonical_products, _decompose,
                          _demultiplex_stack, _interaction_sums,
                          _last_spin_sectors, _open_layers, _split_stack,
                          _two_spin_stack, euler_xzx, su2_rotation)
from kakpulse.linalg import _cosine_sine_stack
from kakpulse.errors import _on_path
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


def last_spin_blocks(u0, u1):
    """The operator that acts as ``u0`` on the leading spins where the
    last spin is 0 and as ``u1`` where it is 1."""
    return np.kron(u0, np.diag([1, 0])) + np.kron(u1, np.diag([0, 1]))


def stack_of(us):
    """``us`` as one complex stack, with an empty path for each entry."""
    return np.array(us, dtype=complex), [()] * len(us)


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
        us = [haar_unitary(4, rng) for _ in range(500)]
        *factors, residuals = _two_spin_stack(*stack_of(us))
        assert np.max(np.abs(_canonical_products(*factors) - us)) < 1e-10
        assert np.max(residuals) < 1e-10

    def test_canonical_chamber(self):
        rng = np.random.default_rng(201)
        us = [haar_unitary(4, rng) for _ in range(300)]
        for a1, a2, a3 in _two_spin_stack(*stack_of(us))[3]:
            assert math.pi + 1e-12 >= a1 >= a2 >= abs(a3) - 1e-12
            if a1 >= math.pi - 1e-12:
                assert a3 >= -1e-12

    def test_locals_are_special(self):
        _, l1, l2, _, r1, r2, _ = _two_spin_stack(haar_unitary(4, 17)[None], [()])
        for q in (l1[0], l2[0], r1[0], r2[0]):
            assert abs(np.linalg.det(q) - 1) < 1e-9
            assert np.allclose(q @ q.conj().T, np.eye(2), atol=1e-9)

    def test_interaction_point_is_a_fixed_point(self):
        u = interaction_unitary((0.3, 0.2, 0.1))
        alphas = _two_spin_stack(u[None], [()])[3][0]
        assert np.allclose(alphas, (0.3, 0.2, 0.1), atol=1e-10)

    def test_dressing_invariance(self):
        rng = np.random.default_rng(202)
        us, dressed = [], []
        for _ in range(50):
            u = haar_unitary(4, rng)
            us.append(u)
            dressed.append(np.kron(haar_unitary(2, rng, special=True),
                                   haar_unitary(2, rng, special=True)) @ u @
                           np.kron(haar_unitary(2, rng, special=True),
                                   haar_unitary(2, rng, special=True)))
        base = _two_spin_stack(*stack_of(us))[3]
        got = _two_spin_stack(*stack_of(dressed))[3]
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
        us = [u for u, _ in gates.values()]
        *factors, residuals = _two_spin_stack(*stack_of(us))
        recon = _canonical_products(*factors)
        for k, (name, (u, alphas)) in enumerate(gates.items()):
            assert tuple(factors[3][k]) == pytest.approx(
                tuple(math.pi * a for a in alphas), abs=1e-12), name
            assert residuals[k] <= TOL_TWO_SPIN, name
            assert np.max(np.abs(recon[k] - u)) <= TOL_TWO_SPIN, name

    def test_cnot_against_magic_spectrum(self):
        """Locally-invariant cross-check that CNOT really sits at (pi,0,0):
        its magic-frame spectrum must match the bare interaction's."""
        got = magic_spectrum(CNOT * cmath.exp(-1j * math.pi / 4))
        want = magic_spectrum(interaction_unitary((math.pi, 0.0, 0.0)))
        assert np.allclose(got, want, atol=1e-10)

    def test_identity_input(self):
        *factors, _ = _two_spin_stack(np.eye(4, dtype=complex)[None], [()])
        assert np.allclose(factors[3], 0.0, atol=1e-12)
        assert np.max(np.abs(_canonical_products(*factors)[0] - np.eye(4))) < 1e-10

    def test_a_wrong_move_fails_the_reconstruction(self, monkeypatch):
        """A chamber move that sorts the angles without turning the
        locals leaves a factorization the final check must reject."""
        monkeypatch.setattr(kakpulse.kak, "_QUARTER_TURN",
                            dict.fromkeys("xyz", np.eye(2, dtype=complex)))
        with pytest.raises(NumericError, match="two-spin factorization residual"):
            _two_spin_stack(interaction_unitary((0.1, 0.3, 0.2))[None], [()])


# ---------------------------------------------------------------------------
# The last-spin split


def split_one(u):
    """The last-spin split ``(k1, y, k2)`` of one unitary, a stack of one;
    ``k1`` and ``k2`` as the full operators their blocks make."""
    (l0, l1), (y,), (r0, r1) = _split_stack(u[None], [()])
    return last_spin_blocks(l0[0], l1[0]), y, last_spin_blocks(r0[0], r1[0])


class TestSplitLastQubit:
    def test_reconstruction(self):
        for n, seed in ((3, 0), (3, 1), (4, 2)):
            u = haar_unitary(2 ** n, seed, special=True)
            k1, y, k2 = split_one(u)
            recon = k1 @ expm_skew(y.hamiltonian()) @ k2
            assert np.max(np.abs(recon - u)) < 1e-9

    def test_middle_lives_on_the_trailing_x_family(self):
        u = haar_unitary(8, 3, special=True)
        _, y, _ = split_one(u)
        assert y.family is CartanFamily.OUTER_X
        assert all(s.letters[-1] == "X" for s in y.coeffs)

    def test_block_factors_are_unitary(self):
        u = haar_unitary(8, 4, special=True)
        blocks, _, more = _split_stack(u[None], [()])
        for blk in (*blocks, *more):
            assert np.max(np.abs(blk[0].conj().T @ blk[0] - np.eye(4))) < 1e-12

    def test_pure_family_evolution_spectrum(self):
        """Feeding exp(-iH) for H over the commuting family must return a
        middle with the same spectrum as H (the sides only re-gauge it)."""
        h = 0.3 * pauli_dense("11X") + 0.5 * pauli_dense("XXX")
        _, y, _ = split_one(expm_skew(h))
        got = np.sort(np.linalg.eigvalsh(y.hamiltonian()))
        want = np.sort(np.linalg.eigvalsh(h))
        assert np.max(np.abs(got - want)) < 1e-9

    def test_single_string_evolution(self):
        _, y, _ = split_one(expm_skew(0.4 * pauli_dense("XXX")))
        eigs = np.abs(np.linalg.eigvalsh(y.hamiltonian()))
        assert np.allclose(eigs, 0.2, atol=1e-9)

    def test_accepts_non_special(self):
        u = haar_unitary(8, 5)  # determinant is a random phase
        k1, y, k2 = split_one(u)
        recon = k1 @ expm_skew(y.hamiltonian()) @ k2
        assert np.max(np.abs(recon - u)) < 1e-9


class TestDemultiplex:
    @staticmethod
    def make_pair(n, seed, phase=0.0):
        """Blocks that are not special, ``u0`` turned by a relative phase."""
        half = 2 ** (n - 1)
        return (haar_unitary(half, seed) * cmath.exp(1j * phase),
                haar_unitary(half, seed + 1))

    def test_realize_layout(self):
        """A block pair written through the last spin's sector view sits
        where spin 3 selects it: |0> on the last spin -> u0."""
        u0, u1 = self.make_pair(3, 10)
        got = np.zeros((8, 8), dtype=complex)
        sectors = _last_spin_sectors(got)
        sectors[0, 0], sectors[1, 1] = u0, u1
        want = np.zeros((8, 8), dtype=complex)
        for i in range(4):
            for j in range(4):
                want[2 * i, 2 * j] = u0[i, j]
                want[2 * i + 1, 2 * j + 1] = u1[i, j]
        assert np.array_equal(got, want)
        assert np.array_equal(last_spin_blocks(u0, u1), want)

    def test_factorization_identity(self):
        for n, seed, phase in ((2, 20, 0.0), (3, 30, 0.37), (4, 40, -1.1)):
            u0, u1 = self.make_pair(n, seed, phase)
            v, (z,), w = _demultiplex_stack(u0[None], u1[None], [()])
            recon = np.kron(v[0], np.eye(2)) @ expm_skew(z.hamiltonian()) \
                @ np.kron(w[0], np.eye(2))
            assert np.max(np.abs(recon - last_spin_blocks(u0, u1))) < 1e-9

    def test_diagonal_layer_family(self):
        """Every string is diagonal, and the lone ``1...1Z`` term carries
        the mean of ``D``: the blocks' relative phase
        ``det(u0) / det(u1) = exp(-1j * c * half)``."""
        u0, u1 = self.make_pair(3, 50, 0.2)
        _, (z,), _ = _demultiplex_stack(u0[None], u1[None], [()])
        assert z.family is CartanFamily.DIAGONAL
        for s in z.coeffs:
            assert set(s.letters) <= {"1", "Z"}
        c = z.coeffs[PauliString("1" * (z.n - 1) + "Z")]
        ratio = np.linalg.det(u0) / np.linalg.det(u1)
        assert abs(cmath.exp(-1j * c * len(u0)) - ratio) < 1e-10

    def test_equal_blocks_need_no_layer(self):
        u0 = haar_unitary(4, 60, special=True)
        v, (z,), w = _demultiplex_stack(u0[None], u0[None], [()])
        assert z.coeffs == {}
        assert np.max(np.abs(v[0] @ w[0] - u0)) < 1e-10


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
    alphas = _two_spin_stack(*stack_of(cases))[3]
    for got, want in zip(_interaction_sums(cases), np.abs(alphas).sum(axis=1)):
        assert abs(got - want) < 1e-12


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
    node, after = _open_layers([(layer, generic)])[0]
    assert node.route == OPEN_ROUTES[5]
    got = np.kron(after, np.eye(2)) @ evaluate(node, 5)
    want = np.kron(generic, np.eye(2)) @ expm_skew(layer.hamiltonian())
    assert np.max(np.abs(got - want)) < 1e-12
    kron = np.kron(haar_unitary(8, 57), haar_unitary(2, 58))
    block = last_spin_blocks(haar_unitary(8, 59), haar_unitary(8, 60))
    for neighbour in (kron, block):
        node, after = _open_layers([(layer, neighbour)])[0]
        assert node.route is None
        assert after is neighbour


def test_evaluate_two_spin_node():
    *factors, _ = _two_spin_stack(haar_unitary(4, 77)[None], [()])
    tree = decompose(haar_unitary(4, 77))
    got = evaluate(tree, 3)  # embedded at the left edge of a longer chain
    want = np.kron(_canonical_products(*factors)[0], np.eye(2))
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
        alphas = _two_spin_stack(u[None], [()])[3][0]
        assert [type(c) for c in tree.children] == [
            PhaseNode, EulerNode, EulerNode, CartanNode, EulerNode, EulerNode]
        assert [c.qubit for c in tree.children[1:3] + tree.children[4:]] \
            == [1, 2, 1, 2]
        middle = tree.children[3].element
        assert middle.family is CartanFamily.MAXIMAL
        assert [(s.letters, c) for s, c in middle.items()] == [
            ("XX", alphas[0] / 2), ("YY", alphas[1] / 2), ("ZZ", alphas[2] / 2)]
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
    honest = kakpulse.kak._demultiplex_stack

    def perturbed(u0s, u1s, paths):
        v, zs, w = honest(u0s, u1s, paths)
        if u0s.shape[1] == 4:
            # the n = 3 depth demultiplexes its eight pairs in one stack:
            # the n = 4 left block's halves give the first four, its
            # right block's the next four
            k = 0 if block == "left" else 4
            v[k] = v[k] @ np.kron(su2_rotation("x", 2e-6), np.eye(2))
        return v, zs, w

    monkeypatch.setattr(kakpulse.kak, "_demultiplex_stack", perturbed)
    with pytest.raises(NumericError) as info:
        decompose(haar_unitary(16, 92))
    assert info.value.path == (f"n=4/{block}-block", "n=3")
    assert 5e-7 < info.value.residual < 5e-6


def first_mix_blind_spot(seed):
    """A two-spin unitary whose magic-frame invariant ``w`` has two
    eigenvalues placed symmetrically about the first golden mixing
    angle, so the first candidate basis cannot split them."""
    t0, rng = 0.1234, np.random.default_rng(seed)
    two_phi = np.array([t0 + 0.7, t0 - 0.7, 1.9, 0.0])
    two_phi[3] = -two_phi[:3].sum()
    frames = [np.linalg.qr(rng.standard_normal((4, 4)))[0] for _ in range(2)]
    for o in frames:
        o[:, 0] *= np.sign(np.linalg.det(o))  # into SO(4)
    magic = frames[0] @ np.diag(np.exp(0.5j * two_phi)) @ frames[1]
    return kakpulse.kak._MAGIC @ magic @ kakpulse.kak._MAGIC_H


def chamber_moves(alphas):
    """The moves a lone canonicalization makes on the angles ``alphas``,
    replayed one leaf at a time on the angles alone: the set of branches
    taken and the angles they end at."""
    a, taken, slack = list(alphas), set(), 1e-12
    for j in range(3):
        while a[j] > math.pi + slack:
            a[j] -= 2 * math.pi
            taken.add(("down", j))
        while a[j] < -math.pi + slack:
            a[j] += 2 * math.pi
            taken.add(("up", j))
    for _ in range(3):
        for j in range(2):
            if abs(a[j + 1]) > abs(a[j]) + slack:
                a[j], a[j + 1] = a[j + 1], a[j]
                taken.add(("swap", j))
    pair = {(True, True): (0, 1), (True, False): (0, 2),
            (False, True): (1, 2)}.get((a[0] < -slack, a[1] < -slack))
    if pair:
        a[pair[0]], a[pair[1]] = -a[pair[0]], -a[pair[1]]
        taken.add(("negate", *pair))
    if a[0] > math.pi - slack and a[2] < -slack:
        a[0], a[2] = -(a[0] - 2 * math.pi), -a[2]
        taken.add(("fix",))
    return taken, a


CHAMBER_BRANCHES = ({(move, j) for move in ("down", "up") for j in range(3)}
                    | {("swap", 0), ("swap", 1), ("negate", 0, 1),
                       ("negate", 0, 2), ("negate", 1, 2), ("fix",)})


def dressed(alphas, seed):
    """``interaction_unitary(alphas)`` between Haar local pairs."""
    def pair(s):
        return np.kron(haar_unitary(2, s), haar_unitary(2, s + 1))

    return pair(seed) @ interaction_unitary(alphas) @ pair(seed + 2)


def test_leaf_factors_do_not_depend_on_their_batch_mates(monkeypatch):
    """Each entry of the stacked two-spin pass is bitwise what a one-leaf
    stack of the same unitary returns, whatever else is in the stack, and
    only the leaf whose first candidate failed draws a second one.  The
    dressed leaves take every branch of the stacked chamber between them,
    and each leaf's angles end where its own moves, replayed alone, take
    them."""
    iswap = np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0],
                      [0, 0, 0, 1]])
    stack = ([haar_unitary(4, seed) for seed in range(5)]
             + [CNOT, SWAP, iswap, np.eye(4, dtype=complex),
                np.kron(haar_unitary(2, 8), haar_unitary(2, 9)),
                first_mix_blind_spot(10)]
             + [haar_unitary(4, seed, special=True) for seed in range(11, 14)]
             + [dressed(alphas, 7) for alphas in (
                 (-0.3, 0.2, -0.1), (3.5, 0.1, -0.2), (-5.0, -4.0, -3.0),
                 (6.7, 2.6, 2.1), (0.3, 3.5, 0.1), (math.pi, 0.3, 0.2))])
    drawn, entering = [], []
    honest_mix, honest_chamber = kakpulse.kak.golden_mix_eigvecs, kakpulse.kak._chamber

    def counted(a, b, k):
        drawn.append((len(a), k))
        return honest_mix(a, b, k)

    def recorded(phases, alphas, *stacks):
        entering.append(alphas.copy())
        honest_chamber(phases, alphas, *stacks)

    monkeypatch.setattr(kakpulse.kak, "golden_mix_eigvecs", counted)
    monkeypatch.setattr(kakpulse.kak, "_chamber", recorded)
    stacked = _two_spin_stack(*stack_of(stack))
    assert drawn == [(len(stack), 0), (1, 1)]
    replayed = [chamber_moves(a) for a in entering[0].tolist()]
    assert set().union(*(taken for taken, _ in replayed)) == CHAMBER_BRANCHES
    assert np.array([a for _, a in replayed]).tobytes() == stacked[3].tobytes()
    for k, u in enumerate(stack):
        alone = _two_spin_stack(*stack_of([u]))
        for got, want in zip(stacked, alone):
            assert got[k].tobytes() == want[0].tobytes()


def test_a_leaf_outside_the_chamber_is_named_with_its_angles():
    """The chamber check runs once over the stack and reports the first
    leaf whose angles it cannot place, with that leaf's path and angles."""
    count = 3
    locals_ = [np.tile(np.eye(2, dtype=complex), (count, 1, 1)) for _ in range(4)]
    alphas = np.array([[0.3, 0.2, 0.1], [math.nan, 0.0, 0.0], [math.nan, 1.0, 0.0]])
    with pytest.raises(NumericError) as info:
        kakpulse.kak._chamber(np.zeros(count), alphas, *locals_,
                              [("a",), ("b",), ("c",)])
    assert info.value.path == ("b",)
    assert info.value.message == "canonical chamber violated: [nan, 0.0, 0.0]"


def test_a_path_step_keeps_the_whole_message():
    """Each step prepended to an error's path leaves its message whole,
    even one that reads like the decorations the path and residual add."""
    exc = NumericError("bad value (residual guess) here [at home]", residual=1e-3)
    moved = exc.with_path("n=3").with_path("n=4")
    assert str(moved) == ("bad value (residual guess) here [at home] "
                          "[at n=4 / n=3] (residual 1.000e-03)")
    assert moved.path == ("n=4", "n=3")
    assert moved.message == exc.message
    assert str(_on_path(exc, ("n=4", "n=3"))) == str(moved)


def leaf_path(leaf, n):
    """Where two-spin leaf number ``leaf`` (in tree order) of a generic
    ``n``-spin target sits: each level hands down its left block's two
    halves, then its right block's."""
    steps = []
    for k in range(n, 2, -1):
        quarter = leaf // 4 ** (k - 3) % 4
        steps.append(f"n={k}/{'left' if quarter < 2 else 'right'}-block")
    return tuple(steps)


@pytest.mark.parametrize("leaf", [38, 46, 62])
def test_a_failing_leaf_in_the_stacked_pass_names_its_path(leaf, monkeypatch):
    """One leaf of the five-spin right block knocked off by 1e-6 after
    its chamber moves fails the stacked pass's reconstruction check, and
    the error names that leaf's blocks, not its batch-mates'."""
    assert leaf_path(leaf, 5) != leaf_path(leaf - 1, 5)
    honest, calls = kakpulse.kak._chamber, []

    def knocked(phases, alphas, l1, l2, r1, r2, paths):
        honest(phases, alphas, l1, l2, r1, r2, paths)
        l1[leaf] = l1[leaf] @ su2_rotation("x", 2e-6)
        calls.append(len(phases))

    monkeypatch.setattr(kakpulse.kak, "_chamber", knocked)
    with pytest.raises(NumericError) as info:
        decompose(haar_unitary(32, 105, special=True))
    assert calls == [64]  # all leaves went through one stack
    assert info.value.path == leaf_path(leaf, 5)
    assert info.value.path[0] == "n=5/right-block"
    assert 5e-7 < info.value.residual < 5e-6


def split_frame_target(theta, seed):
    """A three-spin unitary whose last-spin split has the angles
    ``theta``, between Haar block factors."""
    c, s = np.diag(np.cos(theta)), np.diag(np.sin(theta))
    blocks = [haar_unitary(4, seed + k) for k in range(4)]
    split = (scipy.linalg.block_diag(*blocks[:2]) @ np.block([[c, -s], [s, c]])
             @ scipy.linalg.block_diag(*blocks[2:]))
    return kakpulse.permute_spins(split, [1, 2, 0])


def test_splits_do_not_depend_on_their_batch_mates():
    """Each entry of the stacked split is bitwise what a stack of one
    returns, whatever else is in the stack: Haar
    inputs, a permutation and an input whose angles sit at 0 and pi/2, so
    that the Procrustes gauge runs on those two alone."""
    gauged = [np.eye(8, dtype=complex)[[0, 1, 2, 3, 4, 5, 7, 6]],
              split_frame_target(np.array([0.0, 0.4, 1.1, math.pi / 2]), 30)]
    for u in gauged:
        lead = kakpulse.permute_spins(u, [2, 0, 1])
        theta = _cosine_sine_stack(lead[None], [()])[2][0]
        assert theta[0] <= kakpulse.linalg.TOL_GAUGE
        assert theta[-1] >= math.pi / 2 - kakpulse.linalg.TOL_GAUGE
    stack = ([haar_unitary(8, seed, special=True) for seed in range(3)] + gauged
             + [haar_unitary(8, seed) for seed in range(3, 6)])
    (l0, l1), ys, (r0, r1) = _split_stack(*stack_of(stack))
    for k, u in enumerate(stack):
        (a0, a1), (y,), (b0, b1) = _split_stack(*stack_of([u]))
        assert ys[k] == y
        for got, want in ((l0, a0), (l1, a1), (r0, b0), (r1, b1)):
            assert got[k].tobytes() == want[0].tobytes()


def test_demultiplexes_do_not_depend_on_their_batch_mates(monkeypatch):
    """Each entry of the stacked demultiplex is bitwise what a stack of one
    pair returns, whatever else is in the stack; a pair
    whose ratio is already diagonal draws no eigenbasis, and only the
    pair whose ratio has two eigenphases placed symmetrically about the
    first golden mixing angle draws a second candidate."""
    t0, rng = 0.1234, np.random.default_rng(40)
    frame = np.linalg.qr(rng.standard_normal((4, 4))
                         + 1j * rng.standard_normal((4, 4)))[0]
    blind = (frame * np.exp(1j * np.array([t0 + 0.7, t0 - 0.7, 1.9, -0.4]))
             ) @ frame.conj().T
    diagonal = np.diag(np.exp(1j * np.array([0.3, -1.2, 2.0, 0.1])))
    pairs = ([(haar_unitary(4, 2 * s), haar_unitary(4, 2 * s + 1)) for s in range(3)]
             + [(diagonal @ haar_unitary(4, 7), haar_unitary(4, 7)),
                (blind @ haar_unitary(4, 8), haar_unitary(4, 8))]
             + [(haar_unitary(4, 2 * s, special=True),
                 haar_unitary(4, 2 * s + 1, special=True)) for s in range(5, 8)])
    drawn = []
    honest = kakpulse.linalg.golden_mix_eigvecs

    def counted(a, b, k):
        drawn.append((len(a), k))
        return honest(a, b, k)

    monkeypatch.setattr(kakpulse.linalg, "golden_mix_eigvecs", counted)
    v, zs, w = _demultiplex_stack(
        np.array([u0 for u0, _ in pairs]), np.array([u1 for _, u1 in pairs]),
        [()] * len(pairs))
    assert drawn == [(len(pairs) - 1, 0), (1, 1)]
    assert v[3].tobytes() == np.eye(4, dtype=complex).tobytes()
    for k, (u0, u1) in enumerate(pairs):
        want_v, (want_z,), want_w = _demultiplex_stack(u0[None], u1[None], [()])
        assert zs[k] == want_z
        assert v[k].tobytes() == want_v[0].tobytes()
        assert w[k].tobytes() == want_w[0].tobytes()


def three_spin_path(problem):
    """Where three-spin problem number ``problem`` (in depth order) of a
    generic five-spin target sits: each level hands down its left
    block's two halves, then its right block's."""
    return (f"n=5/{'left' if problem // 8 == 0 else 'right'}-block",
            f"n=4/{'left' if problem % 4 < 2 else 'right'}-block")


@pytest.mark.parametrize("problem", [4, 6, 14])
def test_a_failing_split_in_the_stacked_pass_names_its_path(problem, monkeypatch):
    """One cosine-sine split of the five-spin target's three-spin depth,
    its ``l0`` knocked off by 2e-6, fails the stacked reconstruction
    check, with all 16 splits of that depth in one stack; the error
    names that problem's blocks, not its batch-mates'."""
    assert three_spin_path(problem) != three_spin_path(problem - 1)
    honest, calls = scipy.linalg.cossin, []

    def knocked(u, **kwargs):
        (l0, l1), theta, (r0, r1) = honest(u, **kwargs)
        if u.shape == (8, 8):
            if len(calls) == problem:
                l0 = l0 @ np.kron(su2_rotation("x", 2e-6), np.eye(2))
            calls.append(u)
        return (l0, l1), theta, (r0, r1)

    monkeypatch.setattr(scipy.linalg, "cossin", knocked)
    with pytest.raises(NumericError, match="cosine-sine") as info:
        decompose(haar_unitary(32, 105, special=True))
    assert len(calls) == 16  # the whole depth went through one stack
    assert info.value.path == three_spin_path(problem) + ("n=3",)
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


def test_tree_json_reads_only_numbers_as_angles():
    """Euler angles, phases and layer coefficients are JSON numbers: a
    string (``"inf"`` included) or a bool is not cast to one."""
    euler = {"node": "euler", "q": 1, "alpha": 0.1, "beta": 0.2, "gamma": 0.3}
    phase = {"node": "phase", "phi": 0.4}
    layer = {"node": "commuting_evolution", "n": 3, "family": "outer_x",
             "coeffs": {"ZZX": 0.4}}
    assert tree_from_json_dict({**euler, "alpha": 1}) == EulerNode(1, 1.0, 0.2, 0.3)
    for value in ("inf", "0.5", True, None):
        for node, field in ((euler, "alpha"), (euler, "beta"), (euler, "gamma"),
                            (phase, "phi")):
            with pytest.raises(ValidationError, match="must be a number"):
                tree_from_json_dict({**node, field: value})
        with pytest.raises(ValidationError, match="must be a number"):
            tree_from_json_dict({**layer, "coeffs": {"ZZX": value}})


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
