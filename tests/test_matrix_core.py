"""Matrix utilities: validated exponentials, Haar sampling, robust
eigendecomposition, the cosine-sine factorization (both as stacks of one),
and spin permutation."""

import json
import math

import numpy as np
import pytest
import scipy.linalg

from kakpulse import (
    DimensionError,
    ValidationError,
    check_hermitian,
    check_unitary,
    expm_skew,
    haar_unitary,
    matrix_from_json_dict,
    matrix_to_json_dict,
    permute_spins,
    spin_count,
)
from kakpulse.linalg import (_cosine_sine_products, _cosine_sine_stack,
                             _unitary_eig_stack)


def cluster_target(theta, seed):
    """A unitary whose cosine-sine angles are ``theta``, between Haar
    block factors."""
    c, s = np.diag(np.cos(theta)), np.diag(np.sin(theta))
    m = len(theta)
    blocks = [haar_unitary(m, seed + k) for k in range(4)]
    return (scipy.linalg.block_diag(*blocks[:2]) @ np.block([[c, -s], [s, c]])
            @ scipy.linalg.block_diag(*blocks[2:]))


def permutation_matrix(perm):
    m = np.zeros((len(perm), len(perm)), dtype=complex)
    m[perm, np.arange(len(perm))] = 1.0
    return m


def qft_matrix(n):
    k = np.arange(2 ** n)
    return np.exp(2j * np.pi * np.outer(k, k) / 2 ** n) / np.sqrt(2 ** n)


def near_identity_matrix(n):
    rng = np.random.default_rng(900 + n)
    g = rng.standard_normal((2 ** n, 2 ** n)) + 1j * rng.standard_normal((2 ** n, 2 ** n))
    return expm_skew((g + g.conj().T) / 2, 1e-9)


# Inputs of the oracle test: Haar, and the structures where a split loses
# accuracy: exact 0 and pi/2 angles (permutations), tiny angles (near
# identity), clusters at pi/4 (the QFT) and a cluster straddling pi/4.
ORACLE_INPUTS = {
    **{f"haar-{n}": (lambda n=n: haar_unitary(2 ** n, 70 + n)) for n in range(2, 7)},
    "identity-3": lambda: np.eye(8, dtype=complex),
    **{f"toffoli-{n}": (lambda n=n: permutation_matrix(
        list(range(2 ** n - 2)) + [2 ** n - 1, 2 ** n - 2])) for n in (3, 4)},
    **{f"bit-reversal-{n}": (lambda n=n: permutation_matrix(
        [int(format(k, f"0{n}b")[::-1], 2) for k in range(2 ** n)])) for n in (3, 4)},
    **{f"cyclic-shift-{n}": (lambda n=n: permutation_matrix(
        [(k + 1) % 2 ** n for k in range(2 ** n)])) for n in (3, 4)},
    **{f"near-identity-{n}": (lambda n=n: near_identity_matrix(n)) for n in (3, 4)},
    **{f"qft-{n}": (lambda n=n: qft_matrix(n)) for n in (3, 4, 5)},
    "straddle-pi/4": lambda: cluster_target(
        np.pi / 4 + np.array([-0.6, -3e-11, -1e-11, 2e-11, 4e-11, 0.5, -0.2, 0.1]), 50),
}


def kron_all(mats):
    out = np.ones((1, 1), dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


def test_spin_count():
    assert spin_count(2) == 1
    assert spin_count(8) == 3
    with pytest.raises(DimensionError):
        spin_count(6)
    with pytest.raises(DimensionError):
        spin_count(1)


class TestChecks:
    def test_unitary_accepts_and_rejects(self):
        u = haar_unitary(4, 3)
        assert check_unitary(u) is u or np.array_equal(check_unitary(u), u)
        with pytest.raises(ValidationError):
            check_unitary(u * 1.0001)
        with pytest.raises(ValidationError):
            check_unitary(np.ones((2, 3)))

    def test_unitary_tolerance_override(self):
        u = haar_unitary(4, 3) * (1 + 1e-7)
        with pytest.raises(ValidationError):
            check_unitary(u)
        check_unitary(u, tol=1e-5)

    def test_hermitian(self):
        h = np.array([[1.0, 2j], [-2j, -1.0]])
        check_hermitian(h)
        with pytest.raises(ValidationError):
            check_hermitian(1j * h)


def test_expm_skew_against_scipy():
    rng = np.random.default_rng(12)
    for dim in (2, 4, 8, 16):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = (g + g.conj().T) / 2
        assert np.allclose(expm_skew(h), scipy.linalg.expm(-1j * h), atol=1e-12)
        assert np.allclose(expm_skew(h, 0.37),
                           scipy.linalg.expm(-0.37j * h), atol=1e-12)


def test_expm_skew_requires_hermitian():
    with pytest.raises(ValidationError):
        expm_skew(np.array([[0, 1], [0, 0]], dtype=complex))


class TestHaarSampling:
    def test_returns_unitary(self):
        for dim in (2, 4, 8):
            u = haar_unitary(dim, 7)
            assert np.allclose(u @ u.conj().T, np.eye(dim), atol=1e-12)

    def test_deterministic_per_seed(self):
        assert np.array_equal(haar_unitary(4, 42), haar_unitary(4, 42))
        assert not np.allclose(haar_unitary(4, 42), haar_unitary(4, 43))

    def test_special_flag_lands_in_su(self):
        for dim in (2, 4, 8):
            u = haar_unitary(dim, 5, special=True)
            assert abs(np.linalg.det(u) - 1) < 1e-12

    def test_accepts_generator_instance(self):
        rng = np.random.default_rng(9)
        a = haar_unitary(2, rng)
        b = haar_unitary(2, rng)
        assert not np.allclose(a, b)  # the stream advances

    def test_rejects_bad_dim(self):
        with pytest.raises(ValidationError):
            haar_unitary(0, 1)

    def test_eigenphase_distribution_is_flat(self):
        """Haar eigenphases are uniform on the circle; a chi-square over 20
        bins at 10_000 samples stays within 3 sigma of flat (fixed seed)."""
        rng = np.random.default_rng(2718)
        angles = []
        for _ in range(10_000):
            u = haar_unitary(2, rng)
            angles.extend(np.angle(np.linalg.eigvals(u)))
        counts, _ = np.histogram(angles, bins=20, range=(-np.pi, np.pi))
        expected = len(angles) / 20
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        # df = 19: mean 19, sigma = sqrt(38); 3 sigma above the mean is 37.5
        assert chi2 < 37.5


class TestUnitaryEig:
    def test_random_unitaries(self):
        for dim, seed in ((2, 1), (4, 2), (8, 3)):
            u = haar_unitary(dim, seed)
            (w,), (v,) = _unitary_eig_stack(u[None], [()])
            assert np.max(np.abs(u @ v - v * w)) < 1e-10
            assert np.allclose(v.conj().T @ v, np.eye(dim), atol=1e-10)
            assert np.allclose(np.abs(w), 1, atol=1e-10)

    def test_degenerate_spectra(self):
        """numpy.linalg.eig gives skewed bases here; ours must stay unitary."""
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        cases = [
            np.eye(4, dtype=complex),
            np.kron(x, np.eye(2)),
            np.diag([1, 1, 1j, 1j]).astype(complex),
            scipy.linalg.block_diag(haar_unitary(2, 4), haar_unitary(2, 4)),
        ]
        for u in cases:
            (w,), (v,) = _unitary_eig_stack(u[None], [()])
            assert np.max(np.abs(u @ v - v * w)) < 1e-10
            assert np.allclose(v.conj().T @ v, np.eye(u.shape[0]), atol=1e-10)

    def test_eigenvalues_sorted_by_phase(self):
        (w,), _ = _unitary_eig_stack(haar_unitary(8, 17)[None], [()])
        assert np.all(np.diff(np.angle(w)) >= -1e-12)


    def test_degenerate_eigenspaces_do_not_follow_eigh(self):
        """The same operator spelled through two bases of a degenerate
        eigenspace (equal up to rounding) gets one eigenbasis there, the
        one closest to standard basis vectors; a cluster at -1 split
        across +-pi is one cluster and holds one eigenvalue."""
        near = np.exp(1j * (math.pi - 1e-14))
        lam = np.array([1j, 1j, 1j, -0.6 + 0.8j, -0.6 + 0.8j, 1,
                        near, near.conjugate()])
        q = haar_unitary(8, 5)
        turn = np.eye(8, dtype=complex)
        turn[:3, :3] = haar_unitary(3, 6)
        bases = []
        for frame in (q, q @ turn):
            u = (frame * lam) @ frame.conj().T
            (w,), (v,) = _unitary_eig_stack(u[None], [()])
            assert np.max(np.abs(u @ v - v * w)) < 1e-10
            assert np.allclose(v.conj().T @ v, np.eye(8), atol=1e-10)
            at_minus_one = np.flatnonzero(np.abs(w + 1) < 1e-12)
            assert len(at_minus_one) == 2
            assert w[at_minus_one[0]] == w[at_minus_one[1]]
            bases.append(v)
        assert np.max(np.abs(bases[0] - bases[1])) < 1e-12


def singular_fit_target(h):
    """A split with two angles at 0 whose ``l1`` columns span ``e2``
    and ``(e1 + e3)/sqrt(2)``, spelled through the 2x2 unitary ``h``, and
    whose ``l0`` columns span ``e0`` and ``e2``: ``l1^dagger l0`` is
    singular there, so the fit of ``l1`` to ``l0`` is not determined."""
    theta = np.array([0.0, 0.0, math.pi / 4, math.pi / 3])
    c, s = np.diag(np.cos(theta)), np.diag(np.sin(theta))
    l0 = np.zeros((4, 4), dtype=complex)
    l0[0, 0] = l0[2, 1] = 1
    l0[[1, 3], 2:] = haar_unitary(2, 1)
    l1 = np.zeros((4, 4), dtype=complex)
    l1[2, 0] = l1[0, 3] = 1
    l1[[1, 3], 1] = 1 / math.sqrt(2)
    l1[[1, 3], 2] = np.array([1, -1]) / math.sqrt(2)
    spell = np.eye(4, dtype=complex)
    spell[:2, :2] = h
    return (scipy.linalg.block_diag(l0, l1 @ spell)
            @ np.block([[c, -s], [s, c]])
            @ scipy.linalg.block_diag(haar_unitary(4, 4),
                                      spell.conj().T @ haar_unitary(4, 5)))


class TestCosineSine:
    def test_unfitted_l1_takes_the_nearest_standard_basis(self):
        """Where ``l1^dagger l0`` is singular on a cluster at 0, ``l1``
        takes the basis of its span closest to standard basis vectors,
        whichever basis the input spells it in."""
        blocks = []
        for h in (np.eye(2), haar_unitary(2, 9)):
            u = singular_fit_target(h)
            *factors, residuals = _cosine_sine_stack(u[None], [()])
            assert residuals[0] < 1e-12
            blocks.append(factors[1][0][:, :2])
        assert np.max(np.abs(blocks[0] - blocks[1])) < 1e-12
        half = 1 / math.sqrt(2)
        assert np.allclose(np.abs(blocks[0]),
                           [[0, 0], [half, 0], [0, 1], [half, 0]], atol=1e-12)

    def test_reconstruction(self):
        for dim, seed in ((2, 0), (4, 1), (8, 2), (16, 3)):
            u = haar_unitary(dim, seed)
            *factors, residuals = _cosine_sine_stack(u[None], [()])
            assert np.max(np.abs(_cosine_sine_products(*factors)[0] - u)) < 1e-9
            assert residuals[0] < 1e-9

    def test_angles_sorted_in_quarter_circle(self):
        for seed in range(4):
            (theta,) = _cosine_sine_stack(haar_unitary(8, seed)[None], [()])[2]
            assert np.all(theta >= -1e-12)
            assert np.all(theta <= np.pi / 2 + 1e-12)
            assert np.all(np.diff(theta) >= -1e-12)

    def test_blocks_are_unitary(self):
        l0, l1, _, r0, r1, _ = _cosine_sine_stack(haar_unitary(8, 11)[None], [()])
        for blk in (l0[0], l1[0], r0[0], r1[0]):
            assert np.allclose(blk @ blk.conj().T, np.eye(4), atol=1e-10)

    def test_deterministic(self):
        u = haar_unitary(8, 23)
        a, b = (_cosine_sine_stack(u[None], [()]) for _ in range(2))
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_angles_invariant_under_block_dressing(self):
        """The cosine-sine angles are a two-sided block-diagonal invariant."""
        u = haar_unitary(8, 31)
        base = _cosine_sine_stack(u[None], [()])[2]
        rng = np.random.default_rng(5)
        for _ in range(10):
            left = scipy.linalg.block_diag(haar_unitary(4, rng),
                                           haar_unitary(4, rng))
            right = scipy.linalg.block_diag(haar_unitary(4, rng),
                                            haar_unitary(4, rng))
            dressed = _cosine_sine_stack((left @ u @ right)[None], [()])[2]
            assert np.max(np.abs(dressed - base)) < 1e-9

    def test_identity_gives_zero_angles(self):
        theta = _cosine_sine_stack(np.eye(4, dtype=complex)[None], [()])[2]
        assert np.allclose(theta, 0)

    @pytest.mark.parametrize("name", sorted(ORACLE_INPUTS))
    def test_matches_the_lapack_split(self, name):
        """Against ``scipy.linalg.cossin`` as an oracle: the angles match
        within 1e-12, the factors are unitary within 1e-12 and each block
        of ``u`` rebuilds within 1e-12, on inputs with tiny sines, tiny
        cosines and clustered angles, in the matrix's own frame and in
        the last-spin-leading frame the recursion splits."""
        u = ORACLE_INPUTS[name]()
        n = spin_count(len(u))
        for frame in (u, permute_spins(u, [n - 1] + list(range(n - 1)))):
            m = len(frame) // 2
            l0, l1, theta, r0, r1, _ = (x[0] for x in _cosine_sine_stack(frame[None], [()]))
            want = scipy.linalg.cossin(frame, p=m, q=m, separate=True)[1]
            assert np.max(np.abs(theta - np.sort(want))) < 1e-12
            for factor in (l0, l1, r0, r1):
                assert np.max(np.abs(factor @ factor.conj().T - np.eye(m))) < 1e-12
            c, s = np.cos(theta), np.sin(theta)
            blocks = {(0, 0): (l0 * c) @ r0, (0, 1): -(l0 * s) @ r1,
                      (1, 0): (l1 * s) @ r0, (1, 1): (l1 * c) @ r1}
            for (i, j), block in blocks.items():
                want_block = frame[i * m:(i + 1) * m, j * m:(j + 1) * m]
                assert np.max(np.abs(block - want_block)) < 1e-12, (i, j)

    def test_degenerate_clusters_do_not_follow_the_svd_basis(self, monkeypatch):
        """The SVD returns its basis of an exactly degenerate subspace (the
        angles at 0 or pi/2) as it likes; the split turns ``l0`` there to
        the basis closest to standard basis vectors, and fits ``l1`` to
        it, so another basis from the SVD changes no factor.  On a
        permutation, where ``l1``'s span is orthogonal to ``l0``'s and the
        fit is not determined, ``l0`` and the angles still do not move."""
        dressed = cluster_target(np.array([0.0, 0.0, 0.7, np.pi / 2, np.pi / 2]), 40)
        toffoli = np.eye(16, dtype=complex)[:, list(range(14)) + [15, 14]]
        want = [_cosine_sine_stack(u[None], [()]) for u in (dressed, toffoli)]
        honest, turned = np.linalg.svd, []

        def other_basis(a, *args, **kwargs):
            out = honest(a, *args, **kwargs)
            if not kwargs.get("compute_uv", True):
                return out
            left, values, right = out
            left, right = left.copy(), right.copy()
            for k in np.ndindex(values.shape[:-1]):
                for level in (0.0, 1.0):
                    cols = np.flatnonzero(np.abs(values[k] - level) <= 1e-12)
                    if len(cols) > 1:
                        g, h = haar_unitary(len(cols), 7), haar_unitary(len(cols), 8)
                        h = g if level else h  # a zero value's vectors turn apart
                        left[k][:, cols] = left[k][:, cols] @ g
                        right[k][cols, :] = h.conj().T @ right[k][cols, :]
                        turned.append(len(cols))
            return left, values, right

        monkeypatch.setattr(np.linalg, "svd", other_basis)
        got = [_cosine_sine_stack(u[None], [()]) for u in (dressed, toffoli)]
        assert turned
        for x, y in zip(got[0][:5], want[0][:5]):
            assert np.max(np.abs(x - y)) < 1e-12
        for k in (0, 2):  # l0 and theta
            assert np.max(np.abs(got[1][k] - want[1][k])) < 1e-12
        assert got[1][5][0] < 1e-12


class TestPermuteSpins:
    def test_matches_kron_reordering(self):
        rng = np.random.default_rng(8)
        mats = [haar_unitary(2, rng) for _ in range(3)]
        u = kron_all(mats)
        for perm in ((0, 1, 2), (2, 0, 1), (1, 0, 2), (2, 1, 0)):
            want = kron_all([mats[p] for p in perm])
            assert np.allclose(permute_spins(u, perm), want, atol=1e-12)

    def test_round_trip(self):
        u = haar_unitary(8, 44)
        fwd = [2, 0, 1]
        inv = [fwd.index(k) for k in range(3)]
        assert np.allclose(permute_spins(permute_spins(u, fwd), inv), u)

    def test_rejects_non_permutation(self):
        with pytest.raises(ValidationError):
            permute_spins(np.eye(4), (0, 0))


def test_matrix_json_round_trip():
    u = haar_unitary(4, 13)
    back = matrix_from_json_dict(matrix_to_json_dict(u))
    assert np.array_equal(back, u)
    # the wire format survives an actual serializer pass
    back2 = matrix_from_json_dict(json.loads(json.dumps(matrix_to_json_dict(u))))
    assert np.max(np.abs(back2 - u)) < 1e-15


def test_matrix_json_validation():
    with pytest.raises(ValidationError):
        matrix_from_json_dict({"dim": 2, "re": [[1, 0], [0, 1]]})
    with pytest.raises(DimensionError):
        matrix_from_json_dict({"dim": 3, "re": [[1, 0], [0, 1]],
                               "im": [[0, 0], [0, 0]]})


def test_matrix_json_rejects_a_non_integral_dim():
    data = matrix_to_json_dict(np.eye(2, dtype=complex))
    assert np.array_equal(matrix_from_json_dict({**data, "dim": 2.0}), np.eye(2))
    for dim in (2.5, True, "2"):
        with pytest.raises(ValidationError, match="must be an integer"):
            matrix_from_json_dict({**data, "dim": dim})


def test_matrix_json_reads_only_numbers():
    """A grid entry is a JSON number: a bool or a string is not cast to
    one, even among numbers."""
    data = matrix_to_json_dict(np.eye(2, dtype=complex))
    assert np.array_equal(matrix_from_json_dict({**data, "re": [[1, 0], [0, 1]]}),
                          np.eye(2))
    for grid in ([[True, False], [False, True]], [[1.0, 0.0], [0.0, True]],
                 [["1", "0"], ["0", "1"]], [[1.0, 0.0], [0.0, "1"]],
                 [[1.0, None], [0.0, 1.0]], [[[1.0], [0.0]], [[0.0], [1.0]]]):
        for field in ("re", "im"):
            with pytest.raises(ValidationError, match="must hold numbers"):
                matrix_from_json_dict({**data, field: grid})


def test_stacked_quaternions_and_kronecker_products():
    """The simulator builds its 2x2s and 4x4s as stacks; each 2x2 is its
    quaternion's ``w I - 1j (x X + y Y + z Z)``, and each 4x4 what the
    one-at-a-time form gives."""
    from kakpulse.linalg import (PAULI, kron2, quaternion_matrices,
                                 quaternion_turn)
    rng = np.random.default_rng(12)
    quaternions = []
    for _ in range(6):
        q = (1.0, 0.0, 0.0, 0.0)
        for axis in "xzy":
            q = quaternion_turn(q, axis, rng.uniform(-4, 4))
        quaternions.append(q)
    stack = quaternion_matrices(quaternions)
    for (w, x, y, z), m in zip(quaternions, stack):
        assert np.array_equal(m, w * np.eye(2) - 1j * (
            x * PAULI["x"] + y * PAULI["y"] + z * PAULI["z"]))
    pairs = kron2(stack[:3], stack[3:])
    for a, b, m in zip(stack[:3], stack[3:], pairs):
        assert np.array_equal(m, kron2(a, b))
        assert np.allclose(m, np.kron(a, b), atol=1e-15)
