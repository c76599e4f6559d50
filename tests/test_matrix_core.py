"""Matrix utilities: validated exponentials, Haar sampling, robust
eigendecomposition, the cosine-sine factorization (both as stacks of one),
and spin permutation."""

import json

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


class TestCosineSine:
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
    """The simulator builds its 2x2s and 4x4s as stacks; each member is
    what the one-at-a-time forms give."""
    from kakpulse.linalg import (kron2, quaternion_matrices,
                                 quaternion_matrix, quaternion_turn)
    rng = np.random.default_rng(12)
    quaternions = []
    for _ in range(6):
        q = (1.0, 0.0, 0.0, 0.0)
        for axis in "xzy":
            q = quaternion_turn(q, axis, rng.uniform(-4, 4))
        quaternions.append(q)
    stack = quaternion_matrices(quaternions)
    for q, m in zip(quaternions, stack):
        assert np.array_equal(m, quaternion_matrix(q))
    pairs = kron2(stack[:3], stack[3:])
    for a, b, m in zip(stack[:3], stack[3:], pairs):
        assert np.array_equal(m, kron2(a, b))
        assert np.allclose(m, np.kron(a, b), atol=1e-15)
