"""Dense linear-algebra kernel: validated unitary factorizations.

Everything here is plain NumPy with explicit accuracy contracts, the
cosine-sine split of :func:`_cosine_sine_stack` included: the package
does not use SciPy.  Routines validate their inputs, fix deterministic
gauges for outputs that are only unique up to phases or ordering, and
raise :class:`~kakpulse.errors.NumericError` rather than returning
silently inaccurate results.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import (DimensionError, NumericError, ValidationError, _json_int,
                     _on_path)

TOL_UNITARY = 1e-10
TOL_HERMITIAN = 1e-10
TOL_CSD = 1e-9
# Cosine-sine angles within this of 0 or pi/2 count as exact ones, whose
# columns carry a free gauge that :func:`_cosine_sine_stack` fixes, and
# eigenvalues this close as one, whose eigenspace :func:`_unitary_eig_stack`
# gauges.
TOL_GAUGE = 1e-12
# On such columns, the fit of l1 to l0 needs the smallest singular value
# of l1^dagger l0 above this.
_TOL_FIT = 1e-6

_GOLDEN = 0.6180339887498949
# :func:`_unitary_eig_stack` accepts a basis whose residual and eigenvalue
# moduli are within this, and gives up after this many mixing angles.
_TOL_EIG = 1e-10
_EIG_TRIES = 12

# The rotation axes of the gate vocabulary, and their Pauli matrices.
AXES = ("x", "y", "z")
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


def _reduced(angle: float, period: float) -> float:
    """``angle`` as it is when it lies within one ``period`` (``2*pi`` or
    ``4*pi``) of zero, else the angle in ``[-period/2, period/2]`` that
    equals it modulo the period.  Sine and cosine reduce their argument
    exactly, so a huge angle keeps its rotation, where a remainder by
    the float ``2*pi`` would be off by the angle times that float's
    error (4e-11 at an angle of 1e6)."""
    if abs(angle) <= period:
        return angle
    k = period / (2 * math.pi)
    return k * math.atan2(math.sin(angle / k), math.cos(angle / k))


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


def euler_zxz(q: tuple[float, float, float, float]) -> tuple[float, float, float]:
    """Angles ``(a, b, c)`` with ``U(q) = Rz(a) Rx(b) Rz(c)`` exactly in
    SU(2): ``b`` in ``[0, pi]``, and ``a`` and ``c`` within ``2*pi`` of
    zero.  The product's quaternion is ``w + 1j*z = cos(b/2) *
    exp(1j*(a+c)/2)`` and ``x + 1j*y = sin(b/2) * exp(1j*(a-c)/2)``, so
    each half angle is read off by one ``atan2``, with no sign sheet to
    choose; at ``b = 0`` or ``pi`` only ``a + c`` or ``a - c`` counts."""
    w, x, y, z = q
    half_sum, half_dif = math.atan2(z, w), math.atan2(y, x)
    b = 2 * math.atan2(abs(complex(x, y)), abs(complex(w, z)))
    return half_sum + half_dif, b, half_sum - half_dif


def quaternion_matrices(quaternions) -> np.ndarray:
    """``U(q)`` of each of ``k`` quaternions ``q``, as one ``(k, 2, 2)``
    array."""
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
    check_unitaries(u[None], tol=tol, what=what)
    return u


def check_unitaries(us: np.ndarray, *, tol: float = TOL_UNITARY,
                    what: str = "operator") -> np.ndarray:
    """:func:`check_unitary` of each matrix of a ``(k, d, d)`` stack, at
    once; the first one that fails is the one reported."""
    us = np.asarray(us, dtype=complex)
    dev = np.abs(us.conj().swapaxes(1, 2) @ us - np.eye(us.shape[-1])) \
        .reshape(len(us), -1).max(axis=1)
    bad = (~(dev <= tol)).nonzero()[0]  # a nan deviation fails too
    if bad.size:
        raise ValidationError(f"{what} is not unitary "
                              f"(deviation {dev[bad[0]]:.3e} > {tol:g})")
    return us


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


def golden_mix_eigvecs(a: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
    """The ``eigh`` eigenvectors of ``cos(t) * a + sin(t) * b`` for
    ``t = 0.1234 + phi * k`` (of each pair, for two stacks of matrices).

    For commuting Hermitian ``a`` and ``b``, a generic mixing angle ``t``
    gives a joint eigenbasis; the golden-ratio steps keep successive
    angles far apart, so a caller that rejects candidate ``k`` (clustered
    eigenvalues that the mix failed to separate) draws candidate ``k + 1``.
    """
    t = 0.1234 + _GOLDEN * k
    return np.linalg.eigh(math.cos(t) * a + math.sin(t) * b)[1]


def _check_stack(failed: np.ndarray, paths, message: str,
                 residuals: np.ndarray | None = None) -> None:
    """Raise :class:`~kakpulse.errors.NumericError` for the first matrix
    of a stack that ``failed``, with its residual and on its path."""
    bad = failed.nonzero()[0]
    if bad.size:
        k = bad[0]
        resid = None if residuals is None else float(residuals[k])
        raise _on_path(NumericError(message, residual=resid), paths[k])


def _unitary_eig_stack(us: np.ndarray, paths) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of each unitary of a ``(k, d, d)`` stack with an
    orthonormal eigenbasis, as the stacks ``(w, v)``, after one stacked
    unitarity check: ``u @ v = v @ diag(w)``, ``v`` unitary and the
    eigenvalues sorted by phase angle in ``(-pi, pi]`` (but for a
    cluster at ``-1``, below).

    ``numpy.linalg.eig`` does not guarantee orthonormal eigenvectors for
    degenerate spectra, so each ``u`` is diagonalized through the
    Hermitian mix ``cos(t) * (u + u^dagger)/2 + sin(t) * (u - u^dagger)/2j``
    instead (:func:`golden_mix_eigvecs`); both parts commute with ``u``,
    and a generic ``t`` separates clustered eigenvalues.  A candidate basis
    passes when its residual and every eigenvalue's distance from the
    unit circle are below ``_TOL_EIG``; at most ``_EIG_TRIES`` are drawn.

    Every candidate basis is drawn for the whole stack at once (stacked
    ``eigh`` gives each matrix the bits its own call would), and candidate
    ``k + 1`` only for the matrices whose candidate ``k`` failed.  A
    matrix that never converges is reported with its entry of ``paths``.

    An exactly degenerate eigenvalue leaves its eigenspace's basis to
    whatever ``eigh`` picked, so one stacked comparison flags the
    matrices with a cluster of eigenvalues within :data:`TOL_GAUGE` of
    each other, in cyclic phase order (so a cluster at ``-1`` split
    across ``+-pi`` is one cluster), and only those are visited.  Each
    cluster holds one eigenvalue, its first's in that order, and its
    eigenspace takes the basis closest to standard basis vectors
    (:func:`_nearest_standard_basis`).  A Haar matrix has no cluster.
    """
    us = check_unitaries(us)
    uh = us.conj().swapaxes(1, 2)
    hc = (us + uh) / 2
    hs = (us - uh) / 2j
    pending = rows = np.arange(len(us))
    last = np.inf  # each pending matrix's best residual so far
    for k in range(_EIG_TRIES):
        cand = golden_mix_eigvecs(hc, hs, k)
        vals = np.einsum("nji,njk,nki->ni", cand.conj(), us, cand)
        resid = np.abs(us @ cand - cand * vals[:, None, :]).max(axis=(1, 2))
        failed = ~((resid < _TOL_EIG)
                   & (np.abs(np.abs(vals) - 1).max(axis=1) < _TOL_EIG))
        if k:
            w[pending], v[pending] = vals, cand
        else:
            w, v = vals, cand
        if not failed.any():
            break
        # only the matrices whose candidate failed draw the next one
        pending, last = pending[failed], np.minimum(last, resid)[failed]
        us, hc, hs = us[failed], hc[failed], hs[failed]
    else:
        raise _on_path(NumericError("unitary eigendecomposition did not converge",
                                    residual=float(last[0])), paths[pending[0]])
    order = np.argsort(np.angle(w), axis=1, kind="stable")
    rows = rows[:, None]
    w, v = w[rows, order], v.swapaxes(1, 2)[rows, order].swapaxes(1, 2)
    # joined[:, j]: eigenvalue j is in one cluster with the one before it,
    # in cyclic order, so a cluster at -1 split across +-pi is one cluster
    joined = np.abs(w - np.roll(w, 1, axis=1)) < TOL_GAUGE
    dim = w.shape[1]
    for i in np.flatnonzero(joined.any(axis=1)):
        starts = np.flatnonzero(~joined[i])
        if not starts.size:  # one eigenvalue: one cluster
            starts = np.zeros(1, dtype=int)
        for start, stop in zip(starts, np.append(starts[1:], starts[0] + dim)):
            cols = np.arange(start, stop) % dim
            if len(cols) > 1:
                v[i][:, cols] = _nearest_standard_basis(v[i][:, cols])
                w[i][cols] = w[i][cols[0]]
    return w, v


def _cosine_sine_products(l0, l1, theta, r0, r1) -> np.ndarray:
    """``blkdiag(l0, l1) @ [[C, -S], [S, C]] @ blkdiag(r0, r1)`` of each
    entry of stacked cosine-sine factors, block by block."""
    count, m = theta.shape
    c, s = np.cos(theta)[:, None, :], np.sin(theta)[:, None, :]
    out = np.empty((count, 2 * m, 2 * m), dtype=complex)
    out[:, :m, :m] = (l0 * c) @ r0
    out[:, :m, m:] = -(l0 * s) @ r1
    out[:, m:, :m] = (l1 * s) @ r0
    out[:, m:, m:] = (l1 * c) @ r1
    return out


def _nearest_standard_basis(q: np.ndarray) -> np.ndarray:
    """The orthonormal basis of the span of the ``(d, k)`` orthonormal
    columns ``q`` closest to ``k`` standard basis vectors.

    The vectors are picked greedily, each the one of largest projection
    onto what the earlier picks leave of the span (pivoted Gram-Schmidt;
    a tie goes to the lowest index), and the basis is ``q`` times the
    polar factor of ``q^dagger E`` for the picked vectors ``E`` in index
    order, the orthogonal Procrustes fit.  It depends only on the span,
    not on the basis ``q`` spells it in.
    """
    coords = q.conj().T.copy()  # column i: the projection of e_i
    picks = []
    for _ in range(q.shape[1]):
        norms = np.linalg.norm(coords, axis=0)
        i = int(np.flatnonzero(norms >= norms.max() - 1e-9)[0])
        picks.append(i)
        x = coords[:, i] / norms[i]
        coords -= np.outer(x, x.conj() @ coords)
    a, _, bh = np.linalg.svd(q.conj().T[:, sorted(picks)])
    return q @ (a @ bh)


def _split_factors(u: np.ndarray) -> tuple[np.ndarray, ...]:
    """The cosine-sine factors ``(l0, l1, theta, r0, r1)`` of each
    unitary of a ``(k, 2m, 2m)`` stack, before any gauge is fixed: the
    split proper of :func:`_cosine_sine_stack`, one stacked SVD and a few
    stacked products, with no per-matrix call."""
    count, m = len(u), u.shape[1] // 2
    # singular values fall, so the sine block's reversed pair with the
    # cosine block's, in ascending angle
    uu, sv, vh = np.linalg.svd(np.concatenate([u[:, :m, :m], u[:, m:, :m]]))
    theta = np.arctan2(sv[count:, ::-1], sv[:count])
    lo, hi = math.pi / 8, 3 * math.pi / 8
    clipped = np.clip(theta, lo, hi)
    gaps = np.empty((count, m + 1))
    gaps[:, 0], gaps[:, -1] = clipped[:, 0] - lo, hi - clipped[:, -1]
    np.subtract(clipped[:, 1:], clipped[:, :-1], out=gaps[:, 1:-1])
    from_sine = np.arange(m) < gaps.argmax(axis=1)[:, None]

    r0 = np.where(from_sine[:, :, None], vh[count:, ::-1], vh[:count])
    # each left block's columns rotated by r0 and normalized, where that
    # block's singular vectors were not taken: their lengths, the cosines
    # of the sine block's angles (below 3pi/8) and the sines of the
    # cosine block's (above pi/8), are well away from 0
    rotated = (u[:, :, :m] @ r0.conj().swapaxes(1, 2)).reshape(count, 2, m, m)
    lengths = np.sqrt(np.square(np.abs(rotated)).sum(axis=2))
    lengths[:, 0][~from_sine] = lengths[:, 1][from_sine] = 1.0
    rotated /= lengths[:, :, None, :]
    left = from_sine[:, None, :]
    l0 = np.where(left, rotated[:, 0], uu[:count])
    l1 = np.where(left, uu[count:, :, ::-1], rotated[:, 1])
    c, s = np.cos(theta), np.sin(theta)
    r1 = np.where((s > c)[:, :, None], -(l0.conj().swapaxes(1, 2) @ u[:, :m, m:]),
                  l1.conj().swapaxes(1, 2) @ u[:, m:, m:]) / np.maximum(s, c)[:, :, None]
    return l0, l1, theta, r0, r1


def _cosine_sine_stack(us: np.ndarray, paths) -> tuple[np.ndarray, ...]:
    """Balanced cosine-sine factorization of each unitary of a
    ``(k, 2m, 2m)`` stack, as the stacks
    ``(l0, l1, theta, r0, r1, residuals)``: each
    ``u = blkdiag(l0, l1) @ [[C, -S], [S, C]] @ blkdiag(r0, r1)`` with
    ``C = diag(cos(theta))``, ``S = diag(sin(theta))`` and the angles
    ascending in ``[0, pi/2]``.  The inputs must be unitary (callers
    check them).

    The split runs on the whole stack at once, with no per-matrix call,
    and keeps full accuracy where a split loses it (tiny sines, tiny
    cosines, clustered angles).  Each ``u`` is first divided by the
    phase of its largest entry, which goes back into ``r0`` and ``r1``,
    so a global phase of ``u`` changes neither ``l0``, ``l1``, ``theta``
    nor the exact zeros of a structured input.  Then, with ``u11``,
    ``u12``, ``u21`` and ``u22`` its blocks:

    * One stacked SVD of ``u11`` and ``u21`` gives the cosines and the
      sines, and ``theta = arctan2(s, c)``.  The rows of ``r0`` come from
      the right singular vectors of ``u21`` below a cut and from those of
      ``u11`` above it, each where its singular values are well apart.
      The cut is the widest gap between the angles clipped to
      ``[pi/8, 3pi/8]``, so a cluster of (near-)equal angles comes from
      one source, and the two sources meet across a gap of at least
      ``pi / (4 (m + 1))``.
    * Where ``r0`` comes from ``u11``, the left singular vectors of
      ``u11`` are ``l0``, and ``l1`` is ``u21 @ r0^dagger`` with its
      columns normalized, their lengths the sines, above ``sin(pi/8)``;
      where it comes from ``u21``, the other way round.  So a tiny
      cosine or sine never divides, and its vector, orthogonal to the
      others, keeps full accuracy.
    * Each row of ``r1`` comes from whichever right block is larger
      there: ``-l0^dagger u12 / s`` or ``l1^dagger u22 / c``.

    This is :func:`_split_factors`.

    Deterministic gauges follow.  On each cluster of angles within
    :data:`TOL_GAUGE` of 0 or of pi/2, where the columns of ``l0`` carry
    a unitary gauge of their own, ``l0`` takes the basis of their span
    closest to standard basis vectors (:func:`_nearest_standard_basis`),
    paid back on the rows of ``r0`` (at 0) or ``r1`` (at pi/2); so the
    tree does not depend on the basis the SVD picked there.  Then each
    column of ``l0`` has its first nonzero entry real positive (the
    compensating phases go into the columns of ``l1`` and the rows of
    ``r0`` and ``r1``, which leaves the product unchanged because
    diagonal phases commute with the middle factor).  On those clusters
    ``l1`` is the one closest to ``l0`` where that fit is determined, and
    elsewhere (``l1^dagger l0`` singular, as on a permutation) the basis
    of its span closest to standard basis vectors, as ``l0`` is.
    The factors must rebuild ``u`` within :data:`TOL_CSD`.  Each matrix
    gets the bits a stack of one gives it, and the first one that fails
    the check is reported with its entry of ``paths``.
    """
    count, m = len(us), us.shape[1] // 2
    flat = us.reshape(count, -1)
    peak = flat[np.arange(count), np.abs(flat).argmax(axis=1)]
    phase = (peak / np.abs(peak))[:, None, None]
    l0, l1, theta, r0, r1 = _split_factors(us * phase.conj())

    zero, right = theta <= TOL_GAUGE, theta >= math.pi / 2 - TOL_GAUGE
    gauged = np.flatnonzero((zero | right).any(axis=1))
    for i in gauged:
        for cols, partner in ((zero[i], r0[i]), (right[i], r1[i])):
            if cols.any():
                basis = _nearest_standard_basis(l0[i][:, cols])
                partner[cols, :] = (basis.conj().T @ l0[i][:, cols]) @ partner[cols, :]
                l0[i][:, cols] = basis

    # column phase gauge from l0: its first entry above 1e-9 (a unit
    # column has one), divided by its modulus as hypot, which gives the
    # bits of the scalar abs
    rows = np.arange(count)[:, None]
    first = (np.abs(l0) > 1e-9).argmax(axis=1)
    pivot = l0.swapaxes(1, 2)[rows, np.arange(m), first]
    ph = pivot / np.hypot(pivot.real, pivot.imag)
    l0 *= ph.conj()[:, None, :]
    l1 *= ph.conj()[:, None, :]
    r0 *= ph[:, :, None] * phase
    r1 *= ph[:, :, None] * phase

    # Where an angle is 0 the middle keeps the blocks apart, and where it
    # is pi/2 it swaps them, so l1's columns there carry a unitary gauge
    # of their own, paid back on the partner rows of r1 or r0.  Fit it to
    # l0 (orthogonal Procrustes: the polar factor of l1^dagger l0), so
    # that it does not follow the basis the split happened to pick.  A
    # singular l1^dagger l0 (as when the two spans are orthogonal, on a
    # permutation) does not fix the fit, whose polar factor would only
    # turn rounding noise into a basis, so l1 takes the basis of its span
    # closest to standard basis vectors there, as l0 did above.
    for i in gauged:
        for cols, partner in ((zero[i], r1[i]), (right[i], r0[i])):
            if cols.any():
                block = l1[i][:, cols]
                a, sv, bh = np.linalg.svd(block.conj().T @ l0[i][:, cols])
                g = (a @ bh if sv[-1] > _TOL_FIT
                     else block.conj().T @ _nearest_standard_basis(block))
                l1[i][:, cols] = block @ g
                partner[cols, :] = g.conj().T @ partner[cols, :]

    resid = np.abs(_cosine_sine_products(l0, l1, theta, r0, r1) - us).max(axis=(1, 2))
    _check_stack(resid > TOL_CSD, paths,
                 "cosine-sine factorization residual too large", resid)
    return l0, l1, theta, r0, r1, resid


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


def _json_grid(rows, what: str) -> np.ndarray:
    """A JSON array of rows of numbers as a float array.  A bool or a
    string entry is a :class:`~kakpulse.errors.ValidationError`, where
    ``np.asarray(..., dtype=float)`` would read ``true`` as 1.0 and
    ``"0.5"`` as 0.5."""
    kinds = set(map(type, itertools.chain.from_iterable(rows)))
    if not kinds <= {float, int}:
        names = ", ".join(sorted(kind.__name__ for kind in kinds - {float, int}))
        raise ValidationError(
            f"matrix field {what!r} must hold numbers, got {names}")
    return np.asarray(rows, dtype=float)


def matrix_from_json_dict(data: dict) -> np.ndarray:
    try:
        dim = _json_int(data["dim"], "matrix dim")
        re, im = (_json_grid(data[key], key) for key in ("re", "im"))
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ValidationError):
            raise
        raise ValidationError(f"malformed matrix object: {exc}") from exc
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise DimensionError(
            f"matrix fields must be {dim}x{dim}, got {re.shape} and {im.shape}")
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ValidationError("matrix entries must be finite")
    return re + 1j * im
