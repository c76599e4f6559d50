"""Recursive factorization of unitaries into local and commuting layers.

The top-level entry point is :func:`decompose`, which takes any unitary
on ``n`` spins and produces a :class:`GateTree` whose leaves are

* single-spin Euler rotations (x-z-x convention),
* evolutions under one commuting string family
  (:class:`~kakpulse.paulis.CartanElement`), and
* global phases,

such that the matrix-ordered product of the tree equals the input.  The
recursion peels one spin per level: a cosine-sine step splits off the
last spin, leaving two block-diagonal factors that are demultiplexed
into half-size problems plus diagonal commuting layers.  Two spins
bottom out in the magic-basis canonical form, written with the same
leaves: a phase, four Euler rotations and one evolution under the
maximal commuting family ``{XX, YY, ZZ}``.  Every level is thus
``K A K`` with ``A`` the exponential of a commuting family, and the tree
has one non-local node kind, :class:`CartanNode`.

Any maximal abelian subalgebra of the mixing sector serves as ``A``,
since all of them are conjugate under block-diagonal frames.  The split
takes the one the cosine-sine step hands it, the trailing-X strings
``{1, Z}^(n-1) X`` weighted by the Walsh coefficients of its angles, and
applies no change of basis; the diagonal layers of :func:`demultiplex`
are the same Walsh sums over ``{1, Z}^(n-1) Z``.

Trivial sub-problems cost nothing.  Each level of two or more spins
reads the four blocks of its last spin in place (no permutation) and
takes the first of three routes that fits:

* **Kronecker**: the input is ``W (x) D`` with ``D`` on the last spin.
  It becomes an Euler leaf for ``D`` (none when ``D`` is a scalar) and
  the recursion on ``W``, with no split and no commuting layer.
* **Block-diagonal** (three or more spins): both off-diagonal blocks
  vanish.  The split and its trailing-X layer are skipped and the one
  block pair is demultiplexed.
* **Generic**: the cosine-sine split and two demultiplexed blocks, or
  the two-spin canonical form.

No level normalizes a determinant.  Both routes from three spins up pass
their sector blocks to :func:`demultiplex` as they are, and a block
pair's relative phase becomes the lone ``1...1Z`` term of its diagonal
layer (the central element of the block-diagonal algebra), so a block is
``[tree, diagonal layer, tree]`` and phase leaves appear only in one-
and two-spin subtrees.

Inside :func:`demultiplex`, a block ratio ``u0 @ u1^dagger`` that is
already diagonal keeps the identity as its eigenbasis, so that half
problem is an identity which the Kronecker route lowers to nothing.
The first two routes and the diagonal short cut are taken only when
their exact reconstruction error is at most :data:`TOL_TRIVIAL`;
generic inputs never meet it, so their trees do not change.  A scalar
single-spin factor (``-I`` after its phase is removed) becomes a phase
leaf rather than two pi turns.

A layer on three to seven spins may end open.  Its parity network
(:mod:`kakpulse.networks`) then stops in a linear map of the leading
spins instead of returning to the identity, and the factor that acts
next absorbs that map before it is factored: the ``v`` of a block for a
``DIAGONAL`` layer, the ``w`` of the left block for an ``OUTER_X`` one.
It does so only where that factor does not spend more than the network
saves (:func:`_open_layer`).  The layer's :class:`CartanNode` records
the route, so its matrix, and each level's check, include the map.

Every factorization routine re-multiplies its output and raises
:class:`~kakpulse.errors.NumericError` if the residual exceeds its
contract, with a path annotation pointing into the recursion.

The recursion is one pass: each call returns its tree together with
that tree's matrix.  A one-spin leaf's matrix is its node applied to
the identity, and a two-spin leaf's is the product of its Euler leaves'
2x2s, paired by ``kron``, around its middle, which is diagonal in the
magic frame; a level composes its matrix from the matrices its children
returned (each already checked at its own level) and the commuting
layers, and checks that against its input
under :func:`residual_budget`.  So every level checks the tree it
emits, not the intermediate factors, without walking its subtree again.
Commuting-family exponentials are applied string by string, each
``sigma_s`` as a signed permutation of rows.  :func:`evaluate` stays
the independent re-walk of a finished tree.

This module only factors; :func:`kakpulse.pulses.flatten` lowers a tree
to gates.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DimensionError, NumericError, ValidationError, _json_int
from .linalg import (PAULI, TOL_UNITARY, apply_local, check_square,
                     check_unitary, cosine_sine, golden_mix_eigvecs, kron2,
                     permute_spins, quaternion_matrix, spin_count,
                     su2_rotation, unitary_eig)
from .networks import (Route, check_route, closed_pi_count, end_rows,
                       leaves_last_spin, nonzero_letters, open_route)
from .paulis import (CartanElement, CartanFamily, PauliString,
                     maximal_abelian_strings)

TOL_EULER = 1e-12
TOL_TWO_SPIN = 1e-10
TOL_SPLIT = 1e-9
# Largest exact reconstruction error at which :func:`decompose` takes a
# short circuit: a Kronecker or block-diagonal level, or a diagonal
# demultiplexing product.
TOL_TRIVIAL = 1e-12


def residual_budget(n: int) -> float:
    """Accuracy contract for :func:`decompose` on ``n`` spins."""
    if n <= 2:
        return TOL_TWO_SPIN
    return TOL_SPLIT * 4.0 ** (n - 2)


# Columns are the entangled frame in which two-spin interaction
# exponentials become diagonal and local pairs become real orthogonal.
_MAGIC = np.array([
    [1, 0, 0, 1j],
    [0, 1j, 1, 0],
    [0, 1j, -1, 0],
    [1, 0, 0, -1j],
], dtype=complex) / math.sqrt(2)
_MAGIC_H = _MAGIC.conj().T

# Inverse of the linear map sending (global, xx, yy, zz) exponents to
# magic-frame eigenphases.
_GAMMA = 0.25 * np.array([
    [1, 1, 1, 1],
    [1, 1, -1, -1],
    [-1, 1, -1, 1],
    [1, -1, -1, 1],
], dtype=float)

_EYE2 = np.eye(2, dtype=complex)

# Signs of XX, YY and ZZ (rows) on the columns of the magic frame, where
# interaction_unitary(alphas) is diag(exp(-1j * alphas @ _MAGIC_SIGNS / 4)).
_MAGIC_SIGNS = np.array([
    [1, 1, -1, -1],
    [-1, 1, -1, 1],
    [1, -1, -1, 1],
], dtype=float)


# ---------------------------------------------------------------------------
# Single spin


def euler_xzx(u: np.ndarray) -> tuple[float, float, float]:
    """Angles ``(alpha, beta, gamma)`` with ``u = Rx(alpha) Rz(beta) Rx(gamma)``.

    Requires ``u`` in SU(2).  ``alpha`` and ``gamma`` land in
    ``[0, 2*pi)`` and ``beta`` in ``[0, 4*pi)`` (the upper half of the
    range picks the other sign sheet of the double cover).  Degenerate
    cases (``beta`` a multiple of ``pi``) fix the undetermined angle to
    zero.  Reconstruction is exact to :data:`TOL_EULER`.

    The four entries are checked as Python complex numbers: every entry
    of ``u^dagger u - I`` within
    :data:`~kakpulse.linalg.TOL_UNITARY`, the determinant within ``1e-8``
    of one, and the rotations the angles name, composed as a quaternion,
    within :data:`TOL_EULER` of ``u`` entry by entry.
    """
    u = check_square(u, "single-spin operator")
    if u.shape != (2, 2):
        raise DimensionError(f"expected a 2x2 matrix, got {u.shape}")
    (a, b), (c, d) = u.tolist()
    devs = (abs(a.conjugate() * a + c.conjugate() * c - 1),
            abs(b.conjugate() * b + d.conjugate() * d - 1),
            abs(a.conjugate() * b + c.conjugate() * d))
    if not all(dev <= TOL_UNITARY for dev in devs):  # a nan fails too
        raise ValidationError("single-spin operator is not unitary "
                              f"(deviation {max(devs):.3e} > {TOL_UNITARY:g})")
    det = a * d - b * c
    if abs(det - 1) > 1e-8:
        raise ValidationError("euler_xzx needs a special unitary "
                              f"(det deviates by {abs(det - 1):.3e})")
    # u = w - 1j*(x*sigma_x + y*sigma_y + z*sigma_z) has a = w - 1j*z and
    # b = -y - 1j*x in its first row
    alpha, beta, gamma = euler_xzx_angles((a.real, -b.imag, -b.real, -a.imag))
    w, x, y, z = _xzx_quaternion(alpha, beta, gamma)
    resid = max(abs(complex(w, -z) - a), abs(complex(-y, -x) - b),
                abs(complex(y, -x) - c), abs(complex(w, z) - d))
    if resid > TOL_EULER:
        raise NumericError("euler factorization residual too large",
                           residual=resid)
    return alpha, beta, gamma


def _xzx_quaternion(alpha: float, beta: float,
                    gamma: float) -> tuple[float, float, float, float]:
    """The unit quaternion of ``Rx(alpha) Rz(beta) Rx(gamma)`` (see
    :func:`euler_xzx_angles`), in closed form."""
    cb, sb = math.cos(beta / 2), math.sin(beta / 2)
    half_sum, half_dif = (alpha + gamma) / 2, (gamma - alpha) / 2
    return (cb * math.cos(half_sum), cb * math.sin(half_sum),
            sb * math.sin(half_dif), sb * math.cos(half_dif))


def euler_xzx_angles(q) -> tuple[float, float, float]:
    """The angles of :func:`euler_xzx`, unchecked, for the unit quaternion
    ``q = (w, x, y, z)``, which stands for
    ``w - 1j*(x*sigma_x + y*sigma_y + z*sigma_z)``."""
    w, x, y, z = q
    # cos(beta/2) * exp(1j*(alpha+gamma)/2) and sin(beta/2)*exp(-1j*(alpha-gamma)/2)
    z_sum = complex(w, x)
    z_dif = complex(z, y)
    beta = 2 * math.atan2(abs(z_dif), abs(z_sum))
    half_sum = cmath.phase(z_sum) if abs(z_sum) > 0 else 0.0
    half_dif = -cmath.phase(z_dif) if abs(z_dif) > 0 else 0.0
    if z_sum == 0 or z_dif == 0:
        # beta is pi or 0: only alpha - gamma or alpha + gamma is fixed
        alpha, gamma = 2 * (half_sum + half_dif) % (2 * math.pi), 0.0
    else:
        alpha = (half_sum + half_dif) % (2 * math.pi)
        gamma = (half_sum - half_dif) % (2 * math.pi)
    # The same two halves of the quaternion the angles give: their dot
    # product with q is -1 when a half turn of the angle sum flipped the
    # sign, and then beta takes the other sheet.
    recon_sum = cmath.rect(math.cos(beta / 2), (alpha + gamma) / 2)
    recon_dif = cmath.rect(math.sin(beta / 2), (gamma - alpha) / 2)
    if (recon_sum.conjugate() * z_sum + recon_dif.conjugate() * z_dif).real < 0:
        beta += 2 * math.pi
    return alpha, beta, gamma


# ---------------------------------------------------------------------------
# Two spins


def _factor_local_pair(m: np.ndarray) -> tuple[complex, np.ndarray, np.ndarray]:
    """Write a Kronecker-product 4x4 as ``g * kron(a, b)`` with ``a, b``
    special unitaries and ``|g| = 1``.

    Realigned so that ``t[2*i0 + j0, 2*i1 + j1] = m[2*i0 + i1, 2*j0 + j1]``,
    the product is the outer product of ``a``'s and ``b``'s entries, so
    the column and the row of its first largest entry give ``a`` and
    ``b``, both scaled to determinant one by one batched ``det``.
    """
    t = m.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    i, j = divmod(int(np.argmax(np.abs(t))), 4)
    a, b = np.array([t[:, j], t[i, :] / t[i, j]]).reshape(2, 2, 2)
    root_a, root_b = np.sqrt(np.linalg.det(np.array([a, b])))
    a, b = a / root_a, b / root_b
    ab = kron2(a, b)
    g = complex(np.trace(ab.conj().T @ m) / 4)
    resid = float(np.max(np.abs(m - g * ab)))
    if resid > 1e-9 or abs(abs(g) - 1) > 1e-9:
        raise NumericError("operator is not a local Kronecker pair",
                           residual=resid)
    return g, a, b


def _interaction_element(alphas) -> CartanElement:
    """The two-spin middle as a maximal-family element: ``B_s = sigma_s/2``,
    so the coefficient ``alpha/2`` on XX, YY and ZZ gives
    ``exp(-1j*alpha*sigma sigma/4)``."""
    return CartanElement(n=2, family=CartanFamily.MAXIMAL, coeffs={
        s: float(alpha) / 2
        for s, alpha in zip(maximal_abelian_strings(2), alphas)})


def interaction_unitary(alphas) -> np.ndarray:
    """Canonical two-spin middle: ``prod_a exp(-1j*alphas_a*sigma_a sigma_a/4)``.

    In coupling units this is one ZZ evolution of angle ``alpha`` per
    axis, conjugated into the right frame; ``alphas = (pi, 0, 0)`` is the
    interaction content of CNOT.  The three terms commute and are
    diagonal in the magic frame, with the signs :data:`_MAGIC_SIGNS`.
    """
    phases = np.exp(-0.25j * (np.asarray(alphas, dtype=float) @ _MAGIC_SIGNS))
    return (_MAGIC * phases) @ _MAGIC_H


@dataclass(frozen=True)
class TwoSpinFactors:
    """Canonical form ``u = exp(1j*phase) * (l1 (x) l2) @ middle @ (r1 (x) r2)``
    with ``middle = interaction_unitary(alphas)`` and the interaction
    angles in the canonical chamber
    ``pi >= alphas[0] >= alphas[1] >= |alphas[2]| >= 0``
    (``alphas[2] >= 0`` when ``alphas[0] = pi``)."""

    phase: float
    l1: np.ndarray
    l2: np.ndarray
    alphas: tuple[float, float, float]
    r1: np.ndarray
    r2: np.ndarray
    residual: float

    def reconstruct(self) -> np.ndarray:
        return (cmath.exp(1j * self.phase) * kron2(self.l1, self.l2)
                @ interaction_unitary(self.alphas) @ kron2(self.r1, self.r2))


# The constant moves of the chamber: ``1j*sigma`` (a half turn, up to a
# sign) and the quarter turn about each axis, with its inverse.
_AXES = ("x", "y", "z")
_HALF_TURN = {axis: 1j * PAULI[axis] for axis in _AXES}
_QUARTER_TURN = {axis: su2_rotation(axis, math.pi / 2) for axis in _AXES}
_QUARTER_TURN_H = {axis: g.conj().T for axis, g in _QUARTER_TURN.items()}


class _TwoSpinState:
    """Mutable canonicalization state for the interaction angles."""

    def __init__(self, phase, l1, l2, alphas, r1, r2):
        self.phase = phase
        self.l1, self.l2 = l1, l2
        self.r1, self.r2 = r1, r2
        self.alphas = [float(x) for x in alphas]

    def shift(self, j: int, direction: int):
        """``alphas[j] += 2*pi*direction`` compensated through the right
        locals and the global phase."""
        self.alphas[j] += 2 * math.pi * direction
        q = _HALF_TURN[_AXES[j]]
        self.r1 = q @ self.r1
        self.r2 = q @ self.r2
        self.phase -= direction * math.pi / 2

    def swap(self, j: int, k: int):
        """Exchange two interaction axes via a quarter turn about the third."""
        axis = _AXES[3 - j - k]
        g, gd = _QUARTER_TURN[axis], _QUARTER_TURN_H[axis]
        self.l1 = self.l1 @ gd
        self.l2 = self.l2 @ gd
        self.r1 = g @ self.r1
        self.r2 = g @ self.r2
        self.alphas[j], self.alphas[k] = self.alphas[k], self.alphas[j]

    def negate_pair(self, j: int, k: int):
        """Flip the signs of two interaction angles via a half turn on
        spin 1 about the third axis."""
        q = _HALF_TURN[_AXES[3 - j - k]]
        self.l1 = self.l1 @ q.conj().T
        self.r1 = q @ self.r1
        self.alphas[j] *= -1
        self.alphas[k] *= -1


def _canonicalize(state: _TwoSpinState) -> None:
    a = state.alphas
    slack = 1e-12
    for j in range(3):
        while a[j] > math.pi + slack:
            state.shift(j, -1)
        while a[j] < -math.pi + slack:
            state.shift(j, +1)
    for _ in range(3):  # bubble sort by magnitude, descending
        if abs(a[1]) > abs(a[0]) + slack:
            state.swap(0, 1)
        if abs(a[2]) > abs(a[1]) + slack:
            state.swap(1, 2)
    negatives = [j for j in range(2) if a[j] < -slack]
    if len(negatives) == 2:
        state.negate_pair(0, 1)
    elif negatives == [0]:
        state.negate_pair(0, 2)
    elif negatives == [1]:
        state.negate_pair(1, 2)
    if a[0] > math.pi - slack and a[2] < -slack:
        state.shift(0, -1)
        state.negate_pair(0, 2)
    if not (math.pi + 1e-9 >= a[0] >= a[1] - 1e-9
            and a[1] >= abs(a[2]) - 1e-9 and a[1] >= -1e-9):
        raise NumericError(f"canonical chamber violated: {a}")


def two_spin_factors(u: np.ndarray) -> TwoSpinFactors:
    """Canonical magic-basis factorization of a two-spin unitary.

    The interaction angles are a complete invariant: two unitaries share
    them exactly when they differ only by single-spin rotations and a
    phase.

    Each call checks that ``u`` is unitary, that both magic-frame
    factors split into local pairs, that the angles end in the canonical
    chamber, and that the factors rebuild ``u`` within
    :data:`TOL_TWO_SPIN`.  The checks are sized to a 4x4: the chamber
    moves multiply constant 2x2s, and the rebuild writes the middle as
    the diagonal it is in the magic frame (:func:`interaction_unitary`).
    """
    u = check_unitary(u, what="two-spin operator")
    if u.shape != (4, 4):
        raise DimensionError(f"expected a 4x4 matrix, got {u.shape}")
    phase0 = cmath.phase(complex(np.linalg.det(u))) / 4
    v = u * cmath.exp(-1j * phase0)
    vm = _MAGIC_H @ v @ _MAGIC
    w = vm.T @ vm

    # Joint diagonalization of the commuting real/imaginary parts of the
    # complex-symmetric w by a real orthogonal matrix.
    o = None
    for cand in golden_mix_eigvecs(w.real, w.imag, 16):
        off = cand.T @ w @ cand
        if np.max(np.abs(off - np.diag(np.diagonal(off)))) < 1e-11:
            o = cand
            break
    if o is None:
        raise NumericError("failed to diagonalize the magic-frame invariant")
    if np.linalg.det(o) < 0:
        o[:, 3] = -o[:, 3]
    lam = np.diagonal(o.T @ w @ o)
    theta = np.angle(lam) / 2
    q1 = vm @ o @ np.diag(np.exp(-1j * theta))
    if np.linalg.det(q1).real < 0:
        theta[0] += math.pi
        q1 = vm @ o @ np.diag(np.exp(-1j * theta))
    if np.max(np.abs(q1.imag)) > 1e-9:
        raise NumericError("magic-frame left factor is not real",
                           residual=float(np.max(np.abs(q1.imag))))
    q1 = q1.real.astype(complex)

    wxyz = _GAMMA @ theta
    phase = phase0 + wxyz[0]
    alphas = -4.0 * wxyz[1:]
    gl, l1, l2 = _factor_local_pair(_MAGIC @ q1 @ _MAGIC_H)
    gr, r1, r2 = _factor_local_pair(_MAGIC @ o.T.astype(complex) @ _MAGIC_H)
    phase += cmath.phase(gl) + cmath.phase(gr)

    state = _TwoSpinState(phase, l1, l2, alphas, r1, r2)
    _canonicalize(state)
    fields = dict(phase=float(state.phase), l1=state.l1, l2=state.l2,
                  alphas=tuple(state.alphas), r1=state.r1, r2=state.r2)
    recon = TwoSpinFactors(**fields, residual=0.0).reconstruct()
    resid = float(np.max(np.abs(recon - u)))
    if resid > TOL_TWO_SPIN:
        raise NumericError("two-spin factorization residual too large",
                           residual=resid)
    return TwoSpinFactors(**fields, residual=resid)


def interaction_class(u: np.ndarray) -> tuple[float, float, float]:
    """Canonical interaction angles of a two-spin unitary."""
    return two_spin_factors(u).alphas


# ---------------------------------------------------------------------------
# Last-spin split for three or more spins


@dataclass(frozen=True)
class BlockPair:
    """Block-diagonal factor after sorting by the last spin's sector.

    Realizes ``blkdiag(u0, u1)`` brought back to the original spin order;
    ``u0``/``u1`` act on the leading spins and are any unitaries, their
    determinants and relative phase included.
    """

    n: int
    u0: np.ndarray
    u1: np.ndarray

    @property
    def half(self) -> int:
        return self.u0.shape[0]

    def realize(self) -> np.ndarray:
        half = self.half
        out = np.zeros((2 * half, 2 * half), dtype=complex)
        out[:half, :half] = self.u0
        out[half:, half:] = self.u1
        # permuted frame has the last spin leading; undo it
        perm = list(range(1, self.n)) + [0]
        return permute_spins(out, perm)


def _walsh(values: np.ndarray) -> np.ndarray:
    """Coefficients over diagonal sign patterns: fast Walsh-Hadamard
    transform scaled so that ``values[j] = sum_D out[D] * (-1)^popcount(D&j)``."""
    h = np.array(values, dtype=float)
    size = len(h)
    step = 1
    while step < size:
        for base in range(0, size, 2 * step):
            top = h[base:base + step].copy()
            bot = h[base + step:base + 2 * step].copy()
            h[base:base + step] = top + bot
            h[base + step:base + 2 * step] = top - bot
        step *= 2
    return h / size


def _walsh_element(family: CartanFamily, values: np.ndarray,
                   scale: float) -> CartanElement:
    """The element ``sum_D scale * w_D * B_s(D)`` over the Walsh
    coefficients ``w_D`` of ``values``, one per mask ``D`` of the leading
    spins; ``s(D)`` is the family's string for that mask (its strings are
    ordered by mask).  Coefficients below ``1e-14`` are left out."""
    n = spin_count(len(values)) + 1
    strings = family.strings(n)
    return CartanElement(n=n, family=family, coeffs={
        strings[mask]: scale * w_d
        for mask, w_d in enumerate(_walsh(values)) if abs(w_d) >= 1e-14})


def split_last_qubit(u: np.ndarray) -> tuple[BlockPair, CartanElement, BlockPair]:
    """Factor ``u = k1 * exp(-1j*H_Y) * k2`` with block-diagonal ``k1, k2``
    and ``H_Y`` over the trailing-X family ``{1, Z}^(n-1) X``.

    The cosine-sine middle ``[[C, -S], [S, C]]`` is
    ``blkdiag(1, i) exp(-1j*theta_j*sigma_x) blkdiag(1, -i)`` on each
    diagonal index ``j`` of the leading spins, so ``k1 = (l0, i*l1)``,
    ``k2 = (r0, -i*r1)`` and ``H_Y`` carries ``2*w_D`` on the string of
    mask ``D`` for the Walsh coefficients ``w_D`` of the angles: the
    middle is written in its own frame, with no change of basis.

    Accepts any unitary on at least three spins; its phases stay in the
    blocks of ``k1`` and ``k2``.
    """
    u = check_unitary(u)
    n = spin_count(u.shape[0])
    if n < 3:
        raise ValidationError("the last-spin split needs three or more spins; "
                              "use two_spin_factors below that")
    perm = [n - 1] + list(range(n - 1))
    cs = cosine_sine(permute_spins(u, perm))
    k1 = BlockPair(n=n, u0=cs.l0, u1=1j * cs.l1)
    k2 = BlockPair(n=n, u0=cs.r0, u1=-1j * cs.r1)
    y = _walsh_element(CartanFamily.OUTER_X, cs.theta, 2.0)

    recon = k1.realize() @ _apply_cartan(y, k2.realize())
    resid = float(np.max(np.abs(recon - u)))
    if resid > TOL_SPLIT:
        raise NumericError("last-spin split residual too large",
                           residual=resid, path=(f"n={n}",))
    return k1, y, k2


def demultiplex(pair: BlockPair) -> tuple[np.ndarray, CartanElement, np.ndarray]:
    """Rewrite ``blkdiag(u0, u1)`` as ``(v, v)`` then a diagonal commuting
    layer then ``(w, w)``.

    Returns ``(v, z, w)`` with ``u0 = v @ exp(1j*D) @ w`` and
    ``u1 = v @ exp(-1j*D) @ w``, where ``D = angle(lambda)/2`` for the
    eigenvalues ``lambda`` of ``u0 @ u1^dagger`` and ``exp(-1j*H_z)``
    for the returned diagonal-family element ``z`` realizes the ``+-D``
    pair on the full space.  The mean of ``D``, the blocks' relative
    phase, is the lone ``1...1Z`` term of ``z``.  A product
    ``u0 @ u1^dagger`` that is already diagonal within
    :data:`TOL_TRIVIAL` keeps ``v = I``, which the recursion lowers to
    nothing.
    """
    n = pair.n
    if n < 2:
        raise ValidationError("demultiplexing needs at least two spins")
    ratio = pair.u0 @ pair.u1.conj().T
    lam = np.diagonal(ratio)
    if float(np.max(np.abs(ratio - np.diag(lam)))) <= TOL_TRIVIAL:
        v = np.eye(len(lam), dtype=complex)
    else:
        lam, v = unitary_eig(ratio)
    d = np.angle(lam) / 2
    w = (np.exp(-1j * d)[:, None] * v.conj().T) @ pair.u0

    resid = max(
        float(np.max(np.abs((v * np.exp(1j * d)) @ w - pair.u0))),
        float(np.max(np.abs((v * np.exp(-1j * d)) @ w - pair.u1))))
    if resid > TOL_SPLIT:
        raise NumericError("demultiplexing residual too large", residual=resid)

    return v, _walsh_element(CartanFamily.DIAGONAL, d, -2.0), w


# ---------------------------------------------------------------------------
# Gate trees


@dataclass(frozen=True)
class EulerNode:
    """Single-spin factor ``Rx(alpha) Rz(beta) Rx(gamma)`` on ``qubit``."""

    qubit: int
    alpha: float
    beta: float
    gamma: float

    def matrix2(self) -> np.ndarray:
        return quaternion_matrix(_xzx_quaternion(self.alpha, self.beta,
                                                 self.gamma))


@dataclass(frozen=True)
class PhaseNode:
    phi: float


@dataclass(frozen=True)
class CartanNode:
    """Evolution ``exp(-1j*H)`` under one commuting-family element.

    A ``DIAGONAL`` or ``OUTER_X`` layer on three or more spins may record
    the open parity network it is lowered along
    (:data:`~kakpulse.networks.OPEN_ROUTES`).  The node is then
    ``P exp(-1j*H)``, with ``P`` the permutation of basis states that the
    route's end map ``diag(A, 1)`` makes, and the factor that acts next
    carries ``P``'s inverse.
    """

    element: CartanElement
    route: Route | None = None

    def __post_init__(self):
        if self.route is not None:
            if self.element.family is CartanFamily.MAXIMAL:
                raise ValidationError("a maximal-family layer takes no route")
            check_route(self.route, self.element.n)


@dataclass(frozen=True)
class SequenceNode:
    """Matrix-ordered product of children (index 0 acts last in time)."""

    children: tuple["GateTree", ...]


GateTree = Union[EulerNode, PhaseNode, CartanNode, SequenceNode]


def evaluate(tree: GateTree, n: int) -> np.ndarray:
    """Dense matrix of a gate tree on an ``n``-spin chain."""
    return _apply_tree(tree, np.eye(2 ** n, dtype=complex), n)


def _apply_tree(tree: GateTree, acc: np.ndarray, n: int) -> np.ndarray:
    """``matrix(tree) @ acc``, walking the tree in time order; every
    factor goes through :func:`~kakpulse.linalg.apply_local`, which
    rejects one that does not fit the ``n``-spin chain."""
    if isinstance(tree, SequenceNode):
        for child in reversed(tree.children):  # index 0 acts last in time
            acc = _apply_tree(child, acc, n)
        return acc
    if isinstance(tree, EulerNode):
        return apply_local(acc, {tree.qubit: tree.matrix2()})
    if isinstance(tree, PhaseNode):
        return cmath.exp(1j * tree.phi) * acc
    if isinstance(tree, CartanNode):
        acc = _apply_cartan(tree.element, acc)
        if tree.route is None:
            return acc
        dim = 2 ** tree.element.n
        return acc.reshape(dim, -1)[_route_source(tree.route, tree.element.n)
                                    ].reshape(acc.shape)
    raise ValidationError(f"unknown tree node {tree!r}")


@functools.lru_cache(maxsize=None)
def _route_source(route: Route, k: int) -> np.ndarray:
    """``src`` with ``P @ a = a[src]`` for the permutation ``P`` of the
    route's CNOTs on ``k`` spins (spin 1 is the top bit of a row).

    ``P`` is the product of the CNOTs, each an involution of the rows,
    so ``src`` applies them to the row index in reverse time order.
    """
    src = np.arange(2 ** k)
    for control, target in reversed(route):
        src = src ^ (((src >> (k - control)) & 1) << (k - target))
    src.flags.writeable = False
    return src


def _apply_cartan(element: CartanElement, acc: np.ndarray) -> np.ndarray:
    """``exp(-1j*H) @ acc`` for a commuting-family element ``H`` acting on
    the leading ``element.n`` spins of the accumulator's rows.

    The strings commute, so the exponential is the product, in any
    order, of ``exp(-1j*c*B_s) = cos(c/2) - 1j*sin(c/2)*sigma_s``; each
    ``sigma_s`` is a signed permutation of the rows, which makes every
    factor ``O(acc.size)`` with no dense Hamiltonian and no ``eigh``.
    """
    rows, dim = acc.shape[0], 2 ** element.n
    if dim > rows:
        raise DimensionError(f"{element.n}-spin evolution does not fit "
                             f"{rows} rows")
    blocks = acc.reshape(dim, -1)
    for s, c in element.coeffs.items():
        src, phase = s.signed_permutation()
        blocks = (math.cos(c / 2) * blocks
                  - 1j * math.sin(c / 2) * (phase[:, None] * blocks[src]))
    return blocks.reshape(acc.shape)


def tree_to_json_dict(tree: GateTree) -> dict:
    if isinstance(tree, SequenceNode):
        return {"node": "sequence",
                "children": [tree_to_json_dict(c) for c in tree.children]}
    if isinstance(tree, EulerNode):
        return {"node": "euler", "q": tree.qubit, "alpha": tree.alpha,
                "beta": tree.beta, "gamma": tree.gamma}
    if isinstance(tree, PhaseNode):
        return {"node": "phase", "phi": tree.phi}
    if isinstance(tree, CartanNode):
        e = tree.element
        out = {"node": "commuting_evolution", "n": e.n,
               "family": e.family.value,
               "coeffs": {s.letters: c for s, c in e.items()}}
        if tree.route is not None:
            out["route"] = [list(cnot) for cnot in tree.route]
        return out
    raise ValidationError(f"unknown tree node {tree!r}")


def tree_from_json_dict(data: dict) -> GateTree:
    try:
        kind = data["node"]
        if kind == "sequence":
            return SequenceNode(tuple(tree_from_json_dict(c)
                                      for c in data["children"]))
        if kind == "euler":
            return EulerNode(_json_int(data["q"], "Euler spin"),
                             float(data["alpha"]),
                             float(data["beta"]), float(data["gamma"]))
        if kind == "phase":
            return PhaseNode(float(data["phi"]))
        if kind == "commuting_evolution":
            n = _json_int(data["n"], "commuting-evolution size n")
            coeffs = data["coeffs"]
            if not isinstance(coeffs, dict):
                raise ValidationError(
                    f"commuting-evolution coefficients must be an object, "
                    f"got {type(coeffs).__name__}")
            elem = CartanElement(
                n=n, family=CartanFamily(data["family"]),
                coeffs={PauliString(k): float(v) for k, v in coeffs.items()})
            route = data.get("route")
            if route is not None:
                if not isinstance(route, list):
                    raise ValidationError(
                        f"a route must be an array, got {type(route).__name__}")
                route = tuple(map(tuple, route))  # CartanNode checks the steps
            return CartanNode(elem, route)
        raise ValidationError(f"unknown tree node kind {kind!r}")
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ValidationError):
            raise
        raise ValidationError(f"malformed tree object: {exc}") from exc


# ---------------------------------------------------------------------------
# Full recursion


def _euler_node(qubit: int, u2: np.ndarray) -> EulerNode:
    alpha, beta, gamma = euler_xzx(u2)
    return EulerNode(qubit=qubit, alpha=alpha, beta=beta, gamma=gamma)


def _su2_sign(s: np.ndarray) -> int:
    """``1`` or ``-1`` when the special unitary ``s`` is ``+-I`` within
    :data:`TOL_EULER`, else ``0``.  Euler angles would spend two pi turns
    on ``-I``, so callers move that sign into a phase."""
    for sign in (1, -1):
        if float(np.max(np.abs(s - sign * _EYE2))) <= TOL_EULER:
            return sign
    return 0


def _one_spin_node(u: np.ndarray) -> GateTree:
    """Euler leaf after a phase leaf; a scalar gives the phase leaf alone."""
    phi = cmath.phase(complex(np.linalg.det(u))) / 2
    s = u * cmath.exp(-1j * phi)
    if _su2_sign(s) == -1:
        return PhaseNode(math.remainder(phi + math.pi, 2 * math.pi))
    node: GateTree = _euler_node(1, s)
    if abs(phi) > 1e-12:
        node = SequenceNode((PhaseNode(phi), node))
    return node


def _two_spin_node(u: np.ndarray) -> tuple[SequenceNode, np.ndarray]:
    """The canonical form as tree leaves, in matrix order: phase, the left
    local pair, one evolution under the maximal family ``{XX, YY, ZZ}``
    and the right local pair; and the matrix of those leaves, composed
    as ``kron`` pairs of their Euler matrices around the middle."""
    f = two_spin_factors(u)
    l1, l2 = _euler_node(1, f.l1), _euler_node(2, f.l2)
    r1, r2 = _euler_node(1, f.r1), _euler_node(2, f.r2)
    children: list[GateTree] = [
        l1, l2, CartanNode(_interaction_element(f.alphas)), r1, r2]
    matrix = (kron2(l1.matrix2(), l2.matrix2()) @ interaction_unitary(f.alphas)
              @ kron2(r1.matrix2(), r2.matrix2()))
    if abs(f.phase) > 1e-14:
        children.insert(0, PhaseNode(f.phase))
        matrix = cmath.exp(1j * f.phase) * matrix
    return SequenceNode(tuple(children)), matrix


def _last_spin_sectors(u: np.ndarray) -> np.ndarray:
    """View of ``u`` with ``out[a, b]`` the ``2**(n-1)`` block
    ``<a| u |b>`` of the last spin: the blocks of the last-spin-leading
    frame, read in place without permuting ``u``."""
    half = u.shape[0] // 2
    return u.reshape(half, 2, half, 2).transpose(1, 3, 0, 2)


def _kronecker_factors(u: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """``(d, w)`` with ``u = kron(w, d)``, ``d`` and ``w`` unitary and
    ``d`` on the last spin, when that holds within :data:`TOL_TRIVIAL`;
    otherwise ``None``.

    ``w`` is a large last-spin block scaled to unit columns and each
    entry of ``d`` is one block's overlap with ``w``; the threshold is on
    the reconstruction error of that pair.  An accepted ``d`` is then
    replaced by its nearest unitary, which the Euler leaf needs.
    """
    blocks = _last_spin_sectors(u)
    half = blocks.shape[2]
    flat = blocks.reshape(4, half * half)
    norms = (flat.real ** 2 + flat.imag ** 2).sum(axis=1)
    # the first block holding at least half the largest weight: a tie
    # is not broken by rounding
    k = int(np.argmax(norms >= 0.5 * norms.max()))
    w = flat[k] * math.sqrt(half / norms[k])
    d = (flat @ w.conj()) / half
    if float(np.max(np.abs(flat - d[:, None] * w))) > TOL_TRIVIAL:
        return None
    left, _, right = np.linalg.svd(d.reshape(2, 2))
    return left @ right, w.reshape(half, half)


def _kronecker_level(u: np.ndarray, d: np.ndarray,
                     w: np.ndarray) -> tuple[GateTree, np.ndarray]:
    """Tree and matrix of ``u = kron(w, d)``: the tree of ``w`` on the
    leading spins, beside an Euler leaf for ``d`` on the last spin unless
    ``d`` is a scalar.  Every phase goes into ``w``."""
    n = spin_count(u.shape[0])
    delta = cmath.phase(complex(np.linalg.det(d))) / 2
    ds = d * cmath.exp(-1j * delta)
    sign = _su2_sign(ds)
    try:
        tree, mw = _decompose(w * (cmath.exp(1j * delta) * (sign or 1)))
    except NumericError as exc:
        raise exc.with_path(f"n={n}/kronecker-factor") from exc
    matrix = np.kron(mw, _EYE2)
    if not sign:
        leaf = _euler_node(n, ds)
        tree = SequenceNode((leaf, tree))
        matrix = _apply_tree(leaf, matrix, n)
    _check_level(matrix, u)
    return tree, matrix


def _check_level(matrix: np.ndarray, u: np.ndarray) -> None:
    """Raise unless a level's composed ``matrix`` meets its budget."""
    n = spin_count(u.shape[0])
    resid = float(np.max(np.abs(matrix - u)))
    if resid > residual_budget(n):
        raise NumericError("factorization residual exceeds budget",
                           residual=resid, path=(f"n={n}",))


def _block_diagonal(u: np.ndarray) -> bool:
    """Whether both off-diagonal blocks of the last spin vanish within
    :data:`TOL_TRIVIAL`."""
    sectors = _last_spin_sectors(u)
    return max(float(np.max(np.abs(sectors[0, 1]))),
               float(np.max(np.abs(sectors[1, 0])))) <= TOL_TRIVIAL


def _interaction_sum(u: np.ndarray) -> float:
    """``sum(|alphas|)`` of the canonical interaction angles of a
    two-spin unitary (what its middle spends on couplings, in angle),
    read off the magic-frame spectrum alone.

    In the magic frame ``u`` is ``O1 D O2`` with ``O1, O2`` in SO(4) and
    ``D = diag(exp(1j*phi))``, ``phi = -alphas @ _MAGIC_SIGNS / 4``, so
    ``m.T @ m`` has eigenvalues ``exp(2j*phi)``.  That fixes ``phi`` mod
    pi, up to order, and ``det D = 1`` fixes the parity of the pi shifts;
    the ``alphas = -_MAGIC_SIGNS @ phi`` it leaves differ by 2*pi shifts,
    permutations and pair sign flips, which keep the sum of ``|alphas|``
    folded into ``[-pi, pi]``, the canonical chamber's sum.
    """
    m = _MAGIC_H @ u @ _MAGIC
    m = m * cmath.exp(-1j * cmath.phase(complex(np.linalg.det(m))) / 4)
    phi = np.angle(np.linalg.eigvals(m.T @ m)) / 2
    if round(phi.sum() / math.pi) % 2:
        phi[0] += math.pi
    alphas = -_MAGIC_SIGNS @ phi
    return float(np.sum(np.abs(np.remainder(alphas + math.pi, 2 * math.pi)
                               - math.pi)))


def _absorb_cost(after: np.ndarray, src: np.ndarray,
                 rows: tuple[int, ...]) -> float:
    """What ``after`` spends more, in coupling angle, once it absorbs
    the inverse of the end map ``A`` (GF(2) ``rows`` on ``after``'s
    spins; ``src`` its gather, so ``after @ P_A^-1`` is
    ``after[:, src]``).

    The neighbour is judged as :func:`_decompose` will route it.  A
    two-spin factor spends the growth of its interaction angles
    (:func:`_interaction_sum`).  A Kronecker factor ``W (x) D`` passes
    the map on to ``W`` when ``A`` leaves its last spin alone, and costs
    ``inf`` when it does not, since the map would join what the
    Kronecker route keeps apart.  A block-diagonal factor costs ``inf``
    too; a generic one costs the same whatever it absorbs, so 0.
    """
    if len(rows) == 2:
        return _interaction_sum(after[:, src]) - _interaction_sum(after)
    factors = _kronecker_factors(after)
    if factors is None:
        return math.inf if _block_diagonal(after) else 0.0
    if not leaves_last_spin(rows):
        return math.inf
    # P_A = P_A' (x) 1 on the last spin: the even entries of src, halved
    return _absorb_cost(factors[1], src[::2] >> 1, rows[:-1])


def _open_layer(layer: CartanElement,
                after: np.ndarray) -> tuple[CartanNode, np.ndarray]:
    """The node of a commuting layer and the factor ``after`` that acts
    right after it, on the leading spins.

    A ``DIAGONAL`` or ``OUTER_X`` layer on three or more spins whose
    open network (:func:`~kakpulse.networks.open_route`) needs fewer pi
    couplings than its closed lowering records the route, and ``after``
    absorbs the inverse of its end map ``P = P_A (x) 1``:
    ``after @ P^-1`` is a column gather.  That is done only where the
    neighbour spends less (:func:`_absorb_cost`) than the network saves:

    * a neighbour that takes the generic route absorbs at any size;
    * a block-diagonal one keeps the layer closed;
    * a Kronecker one ``W (x) D`` absorbs only when ``A`` stays inside
      ``W``, and then ``W`` is judged by the same rules;
    * a two-spin factor (``after`` at three spins, the ``W`` of a
      Kronecker neighbour at four, the ``v = I`` of a diagonal ratio
      among them) absorbs when its interaction angles grow by less than
      the pi couplings saved.
    """
    k = layer.n
    letters = nonzero_letters(layer)
    route = open_route(k, letters)
    if route is None:
        return CartanNode(layer), after
    # P = P_A (x) 1 on the last spin: the even entries of src, halved
    src = _route_source(route, k)[::2] >> 1
    saved = math.pi * (closed_pi_count(k, letters) - len(route))
    if _absorb_cost(after, src, end_rows(route, k)[:-1]) >= saved:
        return CartanNode(layer), after
    return CartanNode(layer, route), after[:, src]


def _halves(pair: BlockPair, label: str) -> tuple[np.ndarray, CartanElement,
                                                  np.ndarray]:
    """:func:`demultiplex`, with ``label`` on the path of its failure."""
    try:
        return demultiplex(pair)
    except NumericError as exc:
        raise exc.with_path(label) from exc


def _block_tree(v: np.ndarray, z: CartanElement, w: np.ndarray,
                label: str) -> tuple[GateTree, np.ndarray]:
    """Tree of a demultiplexed block factor ``(v, z, w)`` and that tree's
    matrix, composed from the matrices its halves returned; ``v`` may
    absorb the end map of ``z``'s open network first."""
    node, v = _open_layer(z, v)
    try:
        tv, mv = _decompose(v)
        tw, mw = _decompose(w)
    except NumericError as exc:
        raise exc.with_path(label) from exc
    acc = np.kron(mw, _EYE2)
    acc = _apply_tree(node, acc, z.n)
    acc = apply_local(acc, {1: mv})
    return SequenceNode((tv, node, tw)), acc


def decompose(u: np.ndarray) -> GateTree:
    """Factor an arbitrary unitary into the gate-tree normal form.

    One spin gives an Euler leaf (a phase leaf alone for a scalar).
    Two or more take the first of three routes that fits, judged on the
    blocks of the last spin:

    * a Kronecker product ``W (x) D`` with ``D`` on the last spin gives
      the tree of ``W`` beside an Euler leaf for ``D``;
    * a block-diagonal input on three or more spins (both off-diagonal
      blocks zero) gives one demultiplexed block factor,
      ``[tree, diagonal layer, tree]``;
    * anything else gives the canonical two-spin form on two spins
      (phase, Euler pair, ``{XX, YY, ZZ}`` evolution, Euler pair) and
      ``[block, commuting layer, block]`` from the cosine-sine split on
      more, with both blocks demultiplexed into half-size problems.

    No level strips a determinant: from three spins up every phase of
    the input, global or relative, ends in a diagonal layer's lone
    ``1...1Z`` term or in the one- and two-spin subtrees.

    The first two are taken only when their exact reconstruction error is
    at most :data:`TOL_TRIVIAL`.  The result reproduces the input to
    :func:`residual_budget` of its size, checked at every level.
    """
    return _decompose(u)[0]


def _decompose(u: np.ndarray) -> tuple[GateTree, np.ndarray]:
    """:func:`decompose` plus the dense matrix of the returned tree.

    A leaf's matrix is built from its own nodes; a level's
    matrix is composed from its children's returned matrices, so each
    level checks the tree it realizes without walking its subtree again.
    """
    u = check_unitary(u, what="operator to factor")
    n = spin_count(u.shape[0])
    if n == 1:
        node = _one_spin_node(u)
        return node, _apply_tree(node, np.eye(2, dtype=complex), 1)
    factors = _kronecker_factors(u)
    if factors is not None:
        return _kronecker_level(u, *factors)
    if n == 2:
        return _two_spin_node(u)

    if _block_diagonal(u):
        sectors = _last_spin_sectors(u)
        label = f"n={n}/block"
        pair = BlockPair(n=n, u0=sectors[0, 0], u1=sectors[1, 1])
        tree, matrix = _block_tree(*_halves(pair, label), label)
    else:
        try:
            k1, y, k2 = split_last_qubit(u)
        except NumericError as exc:
            raise exc.with_path(f"n={n}") from exc
        left, right = f"n={n}/left-block", f"n={n}/right-block"
        v1, z1, w1 = _halves(k1, left)
        # the left block acts after the split layer: its w takes y's end map
        node, w1 = _open_layer(y, w1)
        t1, m1 = _block_tree(v1, z1, w1, left)
        t2, m2 = _block_tree(*_halves(k2, right), right)
        tree = SequenceNode((t1, node, t2))
        matrix = m1 @ _apply_tree(node, m2, n)
    _check_level(matrix, u)
    return tree, matrix
