"""Dense linear-algebra kernel: validated unitary factorizations.

Everything here is plain numpy/scipy with explicit accuracy contracts.
Routines validate their inputs, fix deterministic gauges for outputs
that are only unique up to phases or ordering, and raise
:class:`~kakpulse.errors.NumericError` rather than returning silently
inaccurate results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionError, NumericError, ValidationError

TOL_UNITARY = 1e-10
TOL_HERMITIAN = 1e-10
TOL_EIG_CLUSTER = 1e-8
TOL_CSD = 1e-9

_GOLDEN = 0.6180339887498949

# The Pauli matrices, keyed by the rotation axes of the gate vocabulary.
PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_EYE2 = np.eye(2, dtype=complex)


def spin_count(dim: int) -> int:
    """Number of spins for a Hilbert-space dimension (must be a power of 2)."""
    n = dim.bit_length() - 1
    if dim <= 1 or dim != 2 ** n:
        raise DimensionError(f"dimension {dim} is not a power of two >= 2")
    return n


def check_square(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"{what} must be square, got shape {m.shape}")
    return m


def su2_rotation(axis: str, angle: float) -> np.ndarray:
    """``exp(-1j*angle*sigma_axis/2)`` as a dense 2x2."""
    half = angle / 2
    return math.cos(half) * _EYE2 - 1j * math.sin(half) * PAULI[axis]


def apply_local(acc: np.ndarray, ops) -> np.ndarray:
    """Left-multiply a ``2**n``-row accumulator by local operators.

    ``ops`` maps a 1-based spin ``q`` to an operator of size ``2**k``
    acting on spins ``q .. q+k-1`` (a 2x2 for one spin, a 4x4 for the
    pair ``(q, q+1)``, ...); spin 1 is the most significant bit of the
    row index.  Operators are applied in iteration order, so ops on
    disjoint spins may come in any order.  Each one reshapes the
    accumulator to ``(2**(q-1), 2**k, -1)`` and mixes its ``2**k`` slabs,
    which costs ``O(2**k * acc.size)`` and forms no Kronecker product.
    """
    rows = acc.shape[0]
    for first, op in ops.items():
        size = op.shape[0]
        if first < 1 or (2 ** (first - 1)) * size > rows:
            raise DimensionError(
                f"operator of size {size} on spin {first} does not fit "
                f"{rows} rows")
        acc = np.matmul(op, acc.reshape(2 ** (first - 1), size, -1)) \
            .reshape(acc.shape)
    return acc


def check_unitary(u: np.ndarray, *, tol: float = TOL_UNITARY,
                  what: str = "operator") -> np.ndarray:
    """Return ``u`` as a complex array after verifying unitarity."""
    u = check_square(u, what)
    dev = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
    if dev > tol:
        raise ValidationError(f"{what} is not unitary (deviation {dev:.3e} > {tol:g})")
    return u


def check_hermitian(h: np.ndarray, *, tol: float = TOL_HERMITIAN,
                    what: str = "generator") -> np.ndarray:
    h = check_square(h, what)
    dev = np.max(np.abs(h - h.conj().T))
    if dev > tol:
        raise ValidationError(f"{what} is not Hermitian (deviation {dev:.3e} > {tol:g})")
    return h


def expm_skew(h: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """``exp(-1j * scale * h)`` for Hermitian ``h`` via spectral decomposition."""
    h = check_hermitian(h)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * scale * w)) @ v.conj().T


def haar_unitary(dim: int, seed, *, special: bool = False) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix.

    The QR phase ambiguity is removed by forcing the R diagonal positive,
    which is what makes the distribution exactly Haar.  With
    ``special=True`` the determinant is divided out through a
    ``dim``-th root, landing in SU(dim).
    """
    if dim < 1:
        raise ValidationError(f"dim must be positive, got {dim}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    if special:
        q = q * np.exp(-1j * np.angle(np.linalg.det(q)) / dim)
    return q


def unitary_eig(u: np.ndarray, *, tol: float = 1e-10,
                max_tries: int = 12) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a unitary with an orthonormal eigenbasis.

    ``numpy.linalg.eig`` does not guarantee orthonormal eigenvectors for
    degenerate spectra, so we diagonalize a random Hermitian combination
    ``cos(t) * Re(u) + sin(t) * Im-part(u)`` instead; both parts commute
    with ``u``, and a generic ``t`` separates clustered eigenvalues.
    Retries with different mixing angles until the residual passes.

    Returns ``(w, v)`` with ``u @ v = v @ diag(w)``, ``v`` unitary and
    eigenvalues sorted by phase angle in ``(-pi, pi]``.
    """
    u = check_unitary(u)
    hc = (u + u.conj().T) / 2
    hs = (u - u.conj().T) / 2j
    last = np.inf
    for k in range(max_tries):
        t = 0.1234 + _GOLDEN * k
        _, v = np.linalg.eigh(np.cos(t) * hc + np.sin(t) * hs)
        w = np.einsum("ij,jk,ki->i", v.conj().T, u, v)
        resid = float(np.max(np.abs(u @ v - v * w)))
        if resid < tol and np.max(np.abs(np.abs(w) - 1)) < tol:
            order = np.argsort(np.angle(w), kind="stable")
            return w[order], v[:, order]
        last = min(last, resid)
    raise NumericError("unitary eigendecomposition did not converge",
                       residual=last)


@dataclass(frozen=True)
class CosineSineBlocks:
    """Result of a balanced cosine-sine factorization.

    ``u = blkdiag(l0, l1) @ [[C, -S], [S, C]] @ blkdiag(r0, r1)`` with
    ``C = diag(cos(theta))``, ``S = diag(sin(theta))`` and angles sorted
    ascending in ``[0, pi/2]``.
    """

    l0: np.ndarray
    l1: np.ndarray
    theta: np.ndarray
    r0: np.ndarray
    r1: np.ndarray
    residual: float

    @property
    def half(self) -> int:
        return self.l0.shape[0]

    def middle(self) -> np.ndarray:
        c, s = np.cos(self.theta), np.sin(self.theta)
        m = self.half
        out = np.zeros((2 * m, 2 * m), dtype=complex)
        out[:m, :m] = np.diag(c)
        out[:m, m:] = np.diag(-s)
        out[m:, :m] = np.diag(s)
        out[m:, m:] = np.diag(c)
        return out

    def reconstruct(self) -> np.ndarray:
        m = self.half
        left = np.zeros((2 * m, 2 * m), dtype=complex)
        left[:m, :m], left[m:, m:] = self.l0, self.l1
        right = np.zeros((2 * m, 2 * m), dtype=complex)
        right[:m, :m], right[m:, m:] = self.r0, self.r1
        return left @ self.middle() @ right


def cosine_sine(u: np.ndarray) -> CosineSineBlocks:
    """Balanced CS decomposition of an even-dimensional unitary.

    Thin wrapper over ``scipy.linalg.cossin`` that fixes a deterministic
    gauge: angles ascending, and each column of ``l0`` has its first
    nonzero entry real positive (the compensating phases are pushed
    into ``l1`` columns and ``r0``/``r1`` rows, which leaves the product
    unchanged because diagonal phases commute with the middle factor).
    """
    u = check_unitary(u)
    dim = u.shape[0]
    if dim % 2:
        raise DimensionError(f"cosine-sine factorization needs even dimension, got {dim}")
    m = dim // 2
    (l0, l1), theta, (r0h, r1h) = scipy.linalg.cossin(
        u, p=m, q=m, separate=True)
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    l0, l1 = np.asarray(l0, dtype=complex), np.asarray(l1, dtype=complex)
    r0, r1 = np.asarray(r0h, dtype=complex), np.asarray(r1h, dtype=complex)

    order = np.argsort(np.round(theta, 14), kind="stable")
    theta = theta[order]
    l0, l1 = l0[:, order], l1[:, order]
    r0, r1 = r0[order, :], r1[order, :]

    # column phase gauge from l0
    for j in range(m):
        col = l0[:, j]
        big = np.abs(col) > 1e-9  # unit columns: at least one entry passes
        idx = int(np.argmax(big)) if big.any() else int(np.argmax(np.abs(col)))
        ph = col[idx] / abs(col[idx])
        l0[:, j] *= ph.conjugate()
        l1[:, j] *= ph.conjugate()
        r0[j, :] *= ph
        r1[j, :] *= ph

    blocks = CosineSineBlocks(l0=l0, l1=l1, theta=theta, r0=r0, r1=r1,
                              residual=0.0)
    resid = float(np.max(np.abs(blocks.reconstruct() - u)))
    if resid > TOL_CSD:
        raise NumericError("cosine-sine factorization residual too large",
                           residual=resid)
    return CosineSineBlocks(l0=l0, l1=l1, theta=theta, r0=r0, r1=r1,
                            residual=resid)


def permute_spins(u: np.ndarray, perm: tuple[int, ...] | list[int]) -> np.ndarray:
    """Conjugate ``u`` by the permutation sending input factor ``perm[i]``
    to output slot ``i`` (0-based Kronecker factor indices).
    """
    u = check_square(u, "operator")
    n = spin_count(u.shape[0])
    perm = tuple(perm)
    if sorted(perm) != list(range(n)):
        raise ValidationError(f"perm {perm} is not a permutation of 0..{n - 1}")
    axes = list(perm) + [n + p for p in perm]
    return u.reshape((2,) * (2 * n)).transpose(axes).reshape(u.shape)


def matrix_to_json_dict(m: np.ndarray) -> dict:
    """Wire format for a complex matrix: separate real/imaginary grids."""
    m = check_square(m, "matrix")
    return {"dim": m.shape[0],
            "re": np.real(m).tolist(),
            "im": np.imag(m).tolist()}


def matrix_from_json_dict(data: dict) -> np.ndarray:
    try:
        dim = int(data["dim"])
        re = np.asarray(data["re"], dtype=float)
        im = np.asarray(data["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed matrix object: {exc}") from exc
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise DimensionError(
            f"matrix fields must be {dim}x{dim}, got {re.shape} and {im.shape}")
    return re + 1j * im
