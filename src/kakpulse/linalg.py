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

from .errors import DimensionError, NumericError, ValidationError, _json_int

TOL_UNITARY = 1e-10
TOL_HERMITIAN = 1e-10
TOL_CSD = 1e-9
# Cosine-sine angles within this of 0 or pi/2 count as exact ones, whose
# columns carry a free gauge that :func:`cosine_sine` fixes.
TOL_GAUGE = 1e-12

_GOLDEN = 0.6180339887498949
# :func:`unitary_eig` accepts a basis whose residual and eigenvalue
# moduli are within this, and gives up after this many mixing angles.
_TOL_EIG = 1e-10
_EIG_TRIES = 12

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


def kron2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron(a, b)`` of two 2x2s, or of each pair in two stacks of
    them: the same products, without its generic n-dimensional setup."""
    return (a[..., :, None, :, None] * b[..., None, :, None, :]) \
        .reshape(a.shape[:-2] + (4, 4))


# A special unitary on one spin as a unit quaternion ``(w, x, y, z)``,
# which stands for ``w - 1j*(x*sigma_x + y*sigma_y + z*sigma_z)``: four
# floats, and a product of rotations costs a few float operations.
QUATERNION_ONE = (1.0, 0.0, 0.0, 0.0)


def quaternion_turn(q: tuple[float, float, float, float], axis: str,
                    angle: float) -> tuple[float, float, float, float]:
    """The unit quaternion of ``su2_rotation(axis, angle) @ U(q)``: a
    Hamilton product with ``(cos(angle/2), sin(angle/2) along axis)``."""
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    w, x, y, z = q
    if axis == "x":
        return (c * w - s * x, c * x + s * w, c * y - s * z, c * z + s * y)
    if axis == "y":
        return (c * w - s * y, c * x + s * z, c * y + s * w, c * z - s * x)
    return (c * w - s * z, c * x - s * y, c * y + s * x, c * z + s * w)


def quaternion_matrix(q: tuple[float, float, float, float]) -> np.ndarray:
    """``U(q)`` as a dense 2x2."""
    w, x, y, z = q
    return np.array([[complex(w, -z), complex(-y, -x)],
                     [complex(y, -x), complex(w, z)]])


def quaternion_matrices(quaternions) -> np.ndarray:
    """:func:`quaternion_matrix` of each of ``k`` quaternions, built as
    one ``(k, 2, 2)`` array."""
    w, x, y, z = np.asarray(quaternions, dtype=float).T
    out = np.empty((len(w), 2, 2), dtype=complex)
    out.real[:, 0, 0], out.imag[:, 0, 0] = w, -z
    out.real[:, 0, 1], out.imag[:, 0, 1] = -y, -x
    out.real[:, 1, 0], out.imag[:, 1, 0] = y, -x
    out.real[:, 1, 1], out.imag[:, 1, 1] = w, z
    return out


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
    if not dev <= tol:  # a nan deviation fails too
        raise ValidationError(f"{what} is not unitary (deviation {dev:.3e} > {tol:g})")
    return u


def check_hermitian(h: np.ndarray, *, tol: float = TOL_HERMITIAN,
                    what: str = "generator") -> np.ndarray:
    h = check_square(h, what)
    dev = np.max(np.abs(h - h.conj().T))
    if not dev <= tol:  # a nan deviation fails too
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


def golden_mix_eigvecs(a: np.ndarray, b: np.ndarray, tries: int):
    """Yield the ``eigh`` eigenvectors of ``cos(t) * a + sin(t) * b`` for
    ``t = 0.1234 + phi * k``, ``k = 0 .. tries - 1``.

    For commuting Hermitian ``a`` and ``b``, a generic mixing angle ``t``
    gives a joint eigenbasis; the golden-ratio steps keep successive
    angles far apart, so a caller that rejects a candidate (clustered
    eigenvalues that the mix failed to separate) draws a new one.
    """
    for k in range(tries):
        t = 0.1234 + _GOLDEN * k
        yield np.linalg.eigh(math.cos(t) * a + math.sin(t) * b)[1]


def unitary_eig(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a unitary with an orthonormal eigenbasis.

    ``numpy.linalg.eig`` does not guarantee orthonormal eigenvectors for
    degenerate spectra, so we diagonalize a random Hermitian combination
    ``cos(t) * Re(u) + sin(t) * Im-part(u)`` instead; both parts commute
    with ``u``, and a generic ``t`` separates clustered eigenvalues.
    Retries with different mixing angles, at most ``_EIG_TRIES``, until
    the residual is below ``_TOL_EIG``.

    Returns ``(w, v)`` with ``u @ v = v @ diag(w)``, ``v`` unitary and
    eigenvalues sorted by phase angle in ``(-pi, pi]``.
    """
    u = check_unitary(u)
    hc = (u + u.conj().T) / 2
    hs = (u - u.conj().T) / 2j
    last = np.inf
    for v in golden_mix_eigvecs(hc, hs, _EIG_TRIES):
        w = np.einsum("ij,jk,ki->i", v.conj().T, u, v)
        resid = float(np.max(np.abs(u @ v - v * w)))
        if resid < _TOL_EIG and np.max(np.abs(np.abs(w) - 1)) < _TOL_EIG:
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
    On the columns whose angle is 0 or pi/2, ``l1`` is the one closest
    to ``l0``, so a global phase of ``u`` does not change that gauge.
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

    # Where an angle is 0 the middle keeps the blocks apart, and where it
    # is pi/2 it swaps them, so l1's columns there carry a unitary gauge
    # of their own, paid back on the partner rows of r1 or r0.  Fit it to
    # l0 (orthogonal Procrustes: the polar factor of l1^dagger l0), so
    # that it does not follow whatever gauge LAPACK returned.
    for cols, partner in ((theta <= TOL_GAUGE, r1),
                          (theta >= math.pi / 2 - TOL_GAUGE, r0)):
        if cols.any():
            a, _, bh = np.linalg.svd(l1[:, cols].conj().T @ l0[:, cols])
            g = a @ bh
            l1[:, cols] = l1[:, cols] @ g
            partner[cols, :] = g.conj().T @ partner[cols, :]

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
        dim = _json_int(data["dim"], "matrix dim")
        re = np.asarray(data["re"], dtype=float)
        im = np.asarray(data["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed matrix object: {exc}") from exc
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise DimensionError(
            f"matrix fields must be {dim}x{dim}, got {re.shape} and {im.shape}")
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ValidationError("matrix entries must be finite")
    return re + 1j * im
