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
applies no change of basis; the diagonal layers of demultiplexing
(:func:`_demultiplex_stack`) are the same Walsh sums over
``{1, Z}^(n-1) Z``.

Trivial sub-problems cost nothing.  One stacked screen reads the four
blocks of the last spin of each level of two or more spins in place (no
permutation) and gives the level the first of three routes that fits:

* **Kronecker**: the input is ``W (x) D`` with ``D`` on the last spin.
  It becomes an Euler leaf for ``D`` (none when ``D`` is a scalar) and
  the recursion on ``W``, with no split and no commuting layer.
* **Block-diagonal** (three or more spins): both off-diagonal blocks
  vanish.  The split and its trailing-X layer are skipped and the one
  block pair is demultiplexed.
* **Generic**: the cosine-sine split and two demultiplexed blocks, or
  the two-spin canonical form.

No level normalizes a determinant.  Both routes from three spins up pass
their sector blocks to demultiplexing as they are, and a block
pair's relative phase becomes the lone ``1...1Z`` term of its diagonal
layer (the central element of the block-diagonal algebra), so a block is
``[tree, diagonal layer, tree]`` and phase leaves appear only in one-
and two-spin subtrees.

In demultiplexing, a block ratio ``u0 @ u1^dagger`` that is
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
saves (:func:`_open_layers`).  The layer's :class:`CartanNode` records
the route, so its matrix, and each level's check, include the map.

A two-spin leaf is fixed only up to ``E(c) = exp(-1j*c*Z1 Z2/2)`` on
each side, and ``Z1 Z2`` commutes with every ``DIAGONAL`` and
``OUTER_X`` layer (Shende, Bullock & Markov, IEEE TCAD 25, 1000 (2006),
App. A).  So each leaf ``U`` is factored as ``E(b) U' E(a)``, with ``a``
and ``b`` chosen to give ``U'`` the smallest interaction sum found
(:func:`_leaf_phases`), and the phases go into the layers beside it:
``a`` into the layer that acts just before the leaf, as the Z string of
the parity that spins 1 and 2 hold after that layer's route (``Z1 Z2``
itself when the layer is closed), and ``b`` into the layer just after
it, as ``Z1 Z2``.  A side is free only where that layer's route holds
the string's parity on a single spin by its last rotation
(:func:`~kakpulse.networks.layer_masks`), where it is a free z turn: no
CNOT is added and no route changes.  A phase leaves each sub-problem
whose first or last leaf moved it, and each level composes and checks
its matrix with the phases its layers took in and the input's own moved
out.

Every factorization routine re-multiplies its output and raises
:class:`~kakpulse.errors.NumericError` if the residual exceeds its
contract.  Each sub-problem carries its path in the recursion, and a
check that fails inside a stacked pass names the first failing matrix
with its path.

The recursion goes one depth at a time, since every sub-problem at a
depth has the same size (:func:`_decompose_depth`).  The depth is
screened (one stacked unitarity check, and :func:`_last_spin_screen`,
which gives each problem its route).  All generic problems are split in
one stacked cosine-sine pass (:func:`_split_stack`, in NumPy with one
stacked ``svd`` for the whole depth), every block pair of the depth is
demultiplexed in another (:func:`_demultiplex_stack`, with one stacked
``eigh`` per golden-mix candidate), and the depth decides its open
layers, with the interaction sums of all their two-spin neighbours from
one stacked ``eigvals``.  The factors of every level then go down as
one list; at the two-spin depth all of a target's leaves (64 at five
spins, 4,096 at eight) are factored in one stacked pass
(:func:`_two_spin_leaves`), each move into the canonical chamber a
masked update of the stack (:func:`_chamber`).  Last, each level
composes its tree and matrix from its factors' results.  Stacked
``matmul``, ``det``, ``eigh``, ``eigvals``, ``svd``, ``einsum`` and
elementwise calls give each matrix the bits its own call would (as
checked with NumPy 2.4 on OpenBLAS), and scalars stay ``cmath``
scalars, so the trees are those a depth-first recursion builds, bit
for bit.

Every level returns its tree together with that tree's matrix: a
one-spin leaf's is its node applied to the identity, a two-spin leaf's
the canonical product (:func:`_canonical_products`) of its phase and
Euler leaves around its middle, and a level's is composed from its
factors' matrices (each checked at its own level) and its commuting
layers, then checked against its input under :func:`residual_budget`.
So every level checks the tree it emits without walking its subtree
again.  Commuting-family exponentials are applied string by string,
each ``sigma_s`` as a signed permutation of rows.  :func:`evaluate`
stays the independent re-walk of a finished tree.

This module only factors; :func:`kakpulse.pulses.flatten` lowers a tree
to gates.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .errors import (DimensionError, NumericError, ValidationError, _json_array,
                     _json_finite, _json_int, _json_number, _on_path)
from .linalg import (_EYE2, AXES, PAULI, TOL_UNITARY, _check_stack,
                     _cosine_sine_stack, _reduced, _unitary_eig_stack, apply_local,
                     check_square, check_unitaries, golden_mix_eigvecs,
                     euler_zxz, kron2, quaternion_matrices, spin_count,
                     su2_rotation)
from .networks import (Route, check_route, closed_pi_count, end_rows,
                       layer_masks, leaves_last_spin, nonzero_letters,
                       open_route)
from .paulis import (CartanElement, CartanFamily, PauliString,
                     maximal_abelian_strings, z_string)

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

# Signs of XX, YY and ZZ (rows) on the columns of the magic frame, where
# interaction_unitary(alphas) is diag(exp(-1j * alphas @ _MAGIC_SIGNS / 4)).
_MAGIC_SIGNS = np.array([
    [1, 1, -1, -1],
    [-1, 1, -1, 1],
    [1, -1, -1, 1],
], dtype=float)

# Inverse of the linear map sending (global, xx, yy, zz) exponents to
# magic-frame eigenphases.
_GAMMA = 0.25 * np.vstack([np.ones(4), _MAGIC_SIGNS])


# ---------------------------------------------------------------------------
# Single spin


def euler_xzx(u: np.ndarray) -> tuple[float, float, float]:
    """Angles ``(alpha, beta, gamma)`` with ``u = Rx(alpha) Rz(beta) Rx(gamma)``.

    Requires ``u`` in SU(2).  ``alpha`` and ``gamma`` land in
    ``[0, 2*pi)`` and ``beta`` in ``[0, 4*pi)`` (the upper half of the
    range picks the other sign sheet of the double cover).  Degenerate
    cases (``beta`` a multiple of ``pi``) fix the undetermined angle to
    zero, and so does a ``beta`` so near a multiple of ``2*pi`` that the
    smaller outer turn, moved into the other, still rebuilds ``u``
    (:func:`_folded_outer_turn`): there only ``alpha + gamma`` is well
    fixed.  Reconstruction is exact to :data:`TOL_EULER`.

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
    return _euler_entries(a, b, c, d)


def _euler_entries(a: complex, b: complex, c: complex,
                   d: complex) -> tuple[float, float, float]:
    """:func:`euler_xzx` of ``[[a, b], [c, d]]``, given as Python complex
    numbers, with all of its checks."""
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
    angles = euler_xzx_angles((a.real, -b.imag, -b.real, -a.imag))
    folded = _folded_outer_turn(*angles)
    if folded is not None and _xzx_residual(folded, a, b, c, d) <= TOL_EULER:
        angles = folded
    resid = _xzx_residual(angles, a, b, c, d)
    if resid > TOL_EULER:
        raise NumericError("euler factorization residual too large",
                           residual=resid)
    return angles


def _xzx_residual(angles, a: complex, b: complex, c: complex,
                  d: complex) -> float:
    """Largest entry of ``Rx(alpha) Rz(beta) Rx(gamma) - [[a, b], [c, d]]``."""
    w, x, y, z = _xzx_quaternion(*angles)
    return max(abs(complex(w, -z) - a), abs(complex(-y, -x) - b),
               abs(complex(y, -x) - c), abs(complex(w, z) - d))


def _folded_outer_turn(alpha: float, beta: float,
                       gamma: float) -> tuple[float, float, float] | None:
    """``(alpha, beta, gamma)`` of :func:`euler_xzx` with the smaller
    outer x turn moved through the z turn into the other one, or None
    where that cannot rebuild the same rotation within :data:`TOL_EULER`.

    Beside a z turn near a multiple of ``2*pi`` only ``alpha + gamma`` is
    well fixed: rounding in ``u`` comes back in each of ``alpha`` and
    ``gamma`` about ``1 / |sin(beta/2)|`` times, as a noise turn.  Moving
    the turn ``t`` changes the product by ``2*sin(t/2)*sin(beta/2)`` times
    ``1j*sigma_y`` and a rotation, whose largest entry is at least
    ``1/sqrt(2)`` of that; so only where ``|sin(t/2) * sin(beta/2)|``
    is within :data:`TOL_EULER` is a fold returned, for the caller to
    check.  A sum past ``2*pi`` flips the sign, which the other sheet of
    ``beta`` turns back.
    """
    first = abs(math.sin(alpha / 2)) <= abs(math.sin(gamma / 2))
    shift = abs(math.sin((alpha if first else gamma) / 2) * math.sin(beta / 2))
    if not 0 < shift <= TOL_EULER:
        return None
    total = alpha + gamma
    if total >= 2 * math.pi:
        total -= 2 * math.pi
        beta = (beta + 2 * math.pi) % (4 * math.pi)
    return (0.0, beta, total) if first else (total, beta, 0.0)


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
    # The half turn about (x + z) / sqrt(2) swaps the x and z axes and
    # negates y, so the z-x-z angles of its image are the x-z-x ones.
    alpha, beta, gamma = euler_zxz((w, z, -y, x))
    if w == x == 0 or z == y == 0:
        # beta is pi or 0: only alpha - gamma or alpha + gamma is fixed
        alpha = 2 * (math.atan2(x, w) if z == y == 0 else -math.atan2(y, z))
        gamma = 0.0
    # Each 2*pi taken off alpha or gamma negates the product, and then
    # beta takes the other sheet.
    turns, alpha = divmod(alpha, 2 * math.pi)
    more, gamma = divmod(gamma, 2 * math.pi)
    if (turns + more) % 2:
        beta += 2 * math.pi
    return alpha, beta, gamma


# ---------------------------------------------------------------------------
# Two spins


def _factor_local_pairs(ms: np.ndarray,
                        paths) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Write each Kronecker-product 4x4 of a stack as ``g * kron(a, b)``
    with ``a, b`` special unitaries and ``|g| = 1``; return the stacks of
    ``g``, ``a`` and ``b``.

    Realigned so that ``t[2*i0 + j0, 2*i1 + j1] = m[2*i0 + i1, 2*j0 + j1]``,
    the product is the outer product of ``a``'s and ``b``'s entries, so
    the column and the row of its first largest entry give ``a`` and
    ``b``, both scaled to determinant one by one batched ``det``.  A
    failure names the first failing matrix's entry of ``paths``.
    """
    count = len(ms)
    rows = np.arange(count)
    t = ms.reshape(count, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(count, 4, 4)
    i, j = np.divmod(np.abs(t).reshape(count, 16).argmax(axis=1), 4)
    a = t[rows, :, j].reshape(count, 2, 2)
    b = (t[rows, i, :] / t[rows, i, j][:, None]).reshape(count, 2, 2)
    roots = np.sqrt(np.linalg.det(np.stack([a, b], axis=1)))
    a, b = a / roots[:, 0, None, None], b / roots[:, 1, None, None]
    ab = kron2(a, b)
    g = np.trace(ab.conj().swapaxes(1, 2) @ ms, axis1=1, axis2=2) / 4
    resid = np.max(np.abs(ms - g[:, None, None] * ab), axis=(1, 2))
    _check_stack((resid > 1e-9) | (np.abs(np.abs(g) - 1) > 1e-9), paths,
                 "operator is not a local Kronecker pair", resid)
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
    A ``(k, 3)`` stack of angles gives the ``k`` middles.
    """
    alphas = np.asarray(alphas, dtype=float)
    phases = np.exp(-0.25j * np.matmul(alphas[..., None, :], _MAGIC_SIGNS))
    return (_MAGIC * phases) @ _MAGIC_H


def _canonical_products(phases, l1, l2, alphas, r1, r2) -> np.ndarray:
    """``exp(1j*phase) * (l1 (x) l2) @ middle @ (r1 (x) r2)`` of each leaf
    of stacked canonical factors."""
    scale = np.array([cmath.exp(1j * phase) for phase in phases])
    return (scale[:, None, None] * kron2(l1, l2) @ interaction_unitary(alphas)
            @ kron2(r1, r2))


# The constant moves of the chamber: ``1j*sigma`` (a half turn, up to a
# sign) and the quarter turn about each axis.
_HALF_TURN = {axis: 1j * PAULI[axis] for axis in AXES}
_QUARTER_TURN = {axis: su2_rotation(axis, math.pi / 2) for axis in AXES}


def _chamber(phases, alphas, l1, l2, r1, r2, paths) -> None:
    """Move each leaf's interaction angles into the canonical chamber of
    :func:`_two_spin_stack`, turning its locals and phase to match, in
    place.  Each move is a masked update taken by the leaves it applies
    to (``rows``), in a fixed order: the ``2*pi`` shifts of each angle,
    down then up; three bubble passes of the two swaps; one of three
    pair negations; the fix for ``alphas[0] = pi``.
    The chamber is checked once over the stack, and the first leaf
    outside it is named with its entry of ``paths`` and its angles.
    """
    a, slack = alphas, 1e-12

    def shift(rows, j, direction):
        # alphas[j] += 2*pi*direction, paid for by the right locals and the phase
        a[rows, j] += 2 * math.pi * direction
        for right in (r1, r2):
            right[rows] = _HALF_TURN[AXES[j]] @ right[rows]
        phases[rows] -= direction * math.pi / 2

    def negate_pair(rows, j, k):
        # two angles change sign by a half turn on spin 1 about the third axis
        q = _HALF_TURN[AXES[3 - j - k]]
        l1[rows] = l1[rows] @ q.conj().T
        r1[rows] = q @ r1[rows]
        a[rows[:, None], (j, k)] *= -1

    for j in range(3):
        while (rows := (a[:, j] > math.pi + slack).nonzero()[0]).size:
            shift(rows, j, -1)
        while (rows := (a[:, j] < -math.pi + slack).nonzero()[0]).size:
            shift(rows, j, +1)
    for _ in range(3):  # bubble sort by magnitude, descending
        # axes j and j + 1 trade places by a quarter turn about the third
        for j, g in ((0, _QUARTER_TURN["z"]), (1, _QUARTER_TURN["x"])):
            bigger = np.abs(a[:, j + 1]) > np.abs(a[:, j]) + slack
            if (rows := bigger.nonzero()[0]).size:  # a move no leaf takes costs nothing
                for left, right in ((l1, r1), (l2, r2)):
                    left[rows] = left[rows] @ g.conj().T
                    right[rows] = g @ right[rows]
                a[rows[:, None], (j, j + 1)] = a[rows[:, None], (j + 1, j)]
    negative0, negative1 = a[:, 0] < -slack, a[:, 1] < -slack
    for negated, j, k in ((negative0 & negative1, 0, 1),
                          (negative0 & ~negative1, 0, 2),
                          (~negative0 & negative1, 1, 2)):
        if (rows := negated.nonzero()[0]).size:
            negate_pair(rows, j, k)
    if (rows := ((a[:, 0] > math.pi - slack) & (a[:, 2] < -slack)).nonzero()[0]).size:
        shift(rows, 0, -1)
        negate_pair(rows, 0, 2)
    held = ((math.pi + 1e-9 >= a[:, 0]) & (a[:, 0] >= a[:, 1] - 1e-9)
            & (a[:, 1] >= np.abs(a[:, 2]) - 1e-9) & (a[:, 1] >= -1e-9))
    _check_stack(~held, paths,
                 f"canonical chamber violated: {a[held.argmin()].tolist()}")


def _diagonals(values: np.ndarray) -> np.ndarray:
    """``np.diag`` of each row of a stack of vectors."""
    out = np.zeros(values.shape + values.shape[-1:], dtype=values.dtype)
    idx = np.arange(values.shape[-1])
    out[..., idx, idx] = values
    return out


def _two_spin_stack(us: np.ndarray, paths) -> tuple[np.ndarray, ...]:
    """Canonical magic-basis factorization of each two-spin unitary of a
    ``(k, 4, 4)`` stack, as the stacks
    ``(phases, l1, l2, alphas, r1, r2, residuals)``.

    Each ``u`` is ``exp(1j*phase) * (l1 (x) l2) @ middle @ (r1 (x) r2)``
    with ``middle = interaction_unitary(alphas)``, special unitary
    locals, and the interaction angles in the canonical chamber
    ``pi >= alphas[0] >= alphas[1] >= |alphas[2]| >= 0``
    (``alphas[2] >= 0`` when ``alphas[0] = pi``).  The angles are a
    complete invariant: two unitaries share them exactly when they differ
    only by single-spin rotations and a phase.  The inputs must be
    unitary (callers check them); each leaf is checked to have magic-frame
    factors that split into local pairs, angles that end in the chamber,
    and factors that rebuild it within :data:`TOL_TWO_SPIN`.

    Every leaf runs the same operations in the same order, only stacked:
    NumPy's stacked ``matmul``, ``det``, ``eigh`` and elementwise calls
    give each matrix the bits a stack of one gives it, and scalars stay
    ``cmath`` scalars.  Golden-mix candidates are drawn
    again only for the leaves whose candidate failed, all left and right
    magic-frame factors split in one :func:`_factor_local_pairs`, and the
    chamber moves are masked updates (:func:`_chamber`).  Each check runs
    over the whole stack, and the first failing leaf is reported with its
    entry of ``paths`` (its place in the recursion).
    """
    count = len(us)
    phase0 = np.array([cmath.phase(complex(d)) / 4 for d in np.linalg.det(us)])
    v = us * np.array([cmath.exp(-1j * p) for p in phase0])[:, None, None]
    vm = _MAGIC_H @ v @ _MAGIC
    w = vm.swapaxes(1, 2) @ vm

    # Joint diagonalization of the commuting real/imaginary parts of each
    # complex-symmetric w by a real orthogonal matrix.
    o = np.empty((count, 4, 4))
    pending = np.arange(count)
    for k in range(16):
        cand = golden_mix_eigvecs(w.real[pending], w.imag[pending], k)
        off = cand.swapaxes(1, 2) @ w[pending] @ cand
        diag = _diagonals(np.diagonal(off, axis1=1, axis2=2))
        done = np.max(np.abs(off - diag), axis=(1, 2)) < 1e-11
        o[pending[done]] = cand[done]
        pending = pending[~done]
        if not pending.size:
            break
    if pending.size:
        raise _on_path(NumericError(
            "failed to diagonalize the magic-frame invariant"), paths[pending[0]])
    flip = np.linalg.det(o) < 0
    o[flip, :, 3] = -o[flip, :, 3]
    lam = np.diagonal(o.swapaxes(1, 2) @ w @ o, axis1=1, axis2=2)
    theta = np.angle(lam) / 2
    q1 = vm @ o @ _diagonals(np.exp(-1j * theta))
    negative = np.flatnonzero(np.linalg.det(q1).real < 0)
    if negative.size:
        theta[negative, 0] += math.pi
        q1[negative] = (vm[negative] @ o[negative]
                        @ _diagonals(np.exp(-1j * theta[negative])))
    imag = np.max(np.abs(q1.imag), axis=(1, 2))
    _check_stack(imag > 1e-9, paths, "magic-frame left factor is not real", imag)
    q1 = q1.real.astype(complex)

    wxyz = np.matmul(_GAMMA, theta[..., None])[..., 0]
    alphas = -4.0 * wxyz[:, 1:]
    # the left factors of every leaf, then the right ones
    g, a, b = _factor_local_pairs(np.concatenate([
        _MAGIC @ q1 @ _MAGIC_H,
        _MAGIC @ o.swapaxes(1, 2).astype(complex) @ _MAGIC_H]), [*paths, *paths])
    phases = phase0 + wxyz[:, 0] + np.array([cmath.phase(gl) + cmath.phase(gr)
                                             for gl, gr in zip(g[:count], g[count:])])
    l1, r1, l2, r2 = a[:count], a[count:], b[:count], b[count:]
    _chamber(phases, alphas, l1, l2, r1, r2, paths)
    recon = _canonical_products(phases, l1, l2, alphas, r1, r2)
    resid = np.max(np.abs(recon - us), axis=(1, 2))
    _check_stack(resid > TOL_TWO_SPIN, paths,
                 "two-spin factorization residual too large", resid)
    return phases, l1, l2, alphas, r1, r2, resid


# ---------------------------------------------------------------------------
# Last-spin split for three or more spins


def _walsh(values: np.ndarray) -> np.ndarray:
    """Coefficients over diagonal sign patterns, of each row of a stack:
    fast Walsh-Hadamard transform scaled so that
    ``values[..., j] = sum_D out[..., D] * (-1)^popcount(D&j)``."""
    h = np.array(values, dtype=float)
    size = h.shape[-1]
    step = 1
    while step < size:
        pairs = h.reshape(h.shape[:-1] + (size // (2 * step), 2, step))
        top = pairs[..., 0, :].copy()
        pairs[..., 0, :] += pairs[..., 1, :]
        np.subtract(top, pairs[..., 1, :], out=pairs[..., 1, :])
        step *= 2
    return h / size


def _walsh_elements(family: CartanFamily, values: np.ndarray,
                    scale: float) -> list[CartanElement]:
    """For each row of ``values``, one value per mask ``D`` of the leading
    spins, the element ``sum_D scale * w_D * B_s(D)`` over the Walsh
    coefficients ``w_D`` of the row; ``s(D)`` is the family's string for
    that mask (its strings are ordered by mask).  Coefficients below
    ``1e-14`` are left out."""
    n = spin_count(values.shape[1]) + 1
    strings = family.strings(n)
    return [CartanElement(n=n, family=family, coeffs={
        strings[mask]: scale * w_d for mask, w_d in enumerate(row)
        if abs(w_d) >= 1e-14}) for row in _walsh(values).tolist()]


def _last_spin_sectors(u: np.ndarray) -> np.ndarray:
    """View of ``u`` (or of each matrix of a stack) with ``out[a, b]`` the
    ``2**(n-1)`` block ``<a| u |b>`` of the last spin: the blocks of the
    last-spin-leading frame, read in place without permuting ``u``."""
    half, lead = u.shape[-1] // 2, u.ndim - 2
    return u.reshape(u.shape[:-2] + (half, 2, half, 2)).transpose(
        *range(lead), lead + 1, lead + 3, lead, lead + 2)


def _split_stack(us: np.ndarray, paths) -> tuple[tuple[np.ndarray, np.ndarray],
                                                 list[CartanElement],
                                                 tuple[np.ndarray, np.ndarray]]:
    """Factor each unitary ``u`` of a ``(k, d, d)`` stack on three or more
    spins as ``u = k1 * exp(-1j*H_Y) * k2``, with block-diagonal ``k1,
    k2`` and ``H_Y`` over the trailing-X family ``{1, Z}^(n-1) X``;
    return the stacked blocks ``(u0, u1)`` of ``k1``, the list of the
    ``y = H_Y`` and the stacked blocks of ``k2``.  A block factor acts as
    ``u0`` on the leading spins where the last spin is 0 and as ``u1``
    where it is 1.

    The cosine-sine middle ``[[C, -S], [S, C]]`` is
    ``blkdiag(1, i) exp(-1j*theta_j*sigma_x) blkdiag(1, -i)`` on each
    diagonal index ``j`` of the leading spins, so ``k1 = (l0, i*l1)``,
    ``k2 = (r0, -i*r1)`` and ``H_Y`` carries ``2*w_D`` on the string of
    mask ``D`` for the Walsh coefficients ``w_D`` of the angles: the
    middle is written in its own frame, with no change of basis.  The
    phases of ``u`` stay in the blocks.

    One copy of the last spin's blocks (:func:`_last_spin_sectors`)
    brings the whole stack to the last-spin-leading frame,
    :func:`~kakpulse.linalg._cosine_sine_stack` splits it, and the Walsh
    transforms of all angles run as one.  Each ``y`` is checked to
    realize its middle ``exp(-1j*theta_j*sigma_x)`` within
    :data:`TOL_SPLIT`: the middle is a 2x2 on the last spin for each
    leading index ``j``, so applied to the two columns ``sum_j |j, b>``
    it gives all of them.  A failure names its problem's entry of
    ``paths``.
    """
    count, half = len(us), us.shape[1] // 2
    # rows and columns b_1 .. b_n become b_n b_1 .. b_(n-1)
    lead = _last_spin_sectors(us).swapaxes(2, 3).reshape(us.shape)
    l0, l1, theta, r0, r1, _ = _cosine_sine_stack(lead, paths)
    ys = _walsh_elements(CartanFamily.OUTER_X, theta, 2.0)

    probe = np.tile(_EYE2, (half, 1))
    got = np.array([_apply_cartan(y, probe) for y in ys]).reshape(count, half, 2, 2)
    want = (np.cos(theta)[..., None, None] * _EYE2
            - 1j * np.sin(theta)[..., None, None] * PAULI["x"])
    resid = np.abs(got - want).max(axis=(1, 2, 3))
    _check_stack(resid > TOL_SPLIT, paths, "last-spin split residual too large", resid)
    return (l0, 1j * l1), ys, (r0, -1j * r1)


def _demultiplex_stack(u0s: np.ndarray, u1s: np.ndarray,
                       paths) -> tuple[np.ndarray, list[CartanElement], np.ndarray]:
    """Rewrite each block pair ``(u0, u1) = (u0s[i], u1s[i])`` of two
    ``(k, h, h)`` stacks as ``(v, v)`` then a diagonal commuting layer
    then ``(w, w)``; return the stacks of ``v`` and ``w`` and the list of
    ``z``.

    Each pair has ``u0 = v @ exp(1j*D) @ w`` and
    ``u1 = v @ exp(-1j*D) @ w``, where ``D = angle(lambda)/2`` for the
    eigenvalues ``lambda`` of ``u0 @ u1^dagger``, and ``exp(-1j*H_z)``
    for the diagonal-family element ``z`` realizes the ``+-D`` pair on
    the full space.  The mean of ``D``, the blocks' relative phase, is
    the lone ``1...1Z`` term of ``z``.  A ratio ``u0 @ u1^dagger`` that
    is already diagonal within :data:`TOL_TRIVIAL` keeps ``v = I``,
    which the recursion lowers to nothing.

    The ratios and their ``TOL_TRIVIAL`` diagonal screen run over the
    whole stack; the ratios that fail it go through one
    :func:`~kakpulse.linalg._unitary_eig_stack`, and the ``w`` and the
    ``TOL_SPLIT`` residuals of all pairs are stacked products.  A failure
    names its pair's entry of ``paths``.
    """
    count, half = u0s.shape[:2]
    ratio = u0s @ u1s.conj().swapaxes(1, 2)
    lam = np.diagonal(ratio, axis1=1, axis2=2).copy()
    off = np.abs(ratio - _diagonals(lam)).max(axis=(1, 2))
    mixed = (~(off <= TOL_TRIVIAL)).nonzero()[0]
    v = _diagonals(np.ones((count, half), dtype=complex))
    if mixed.size:
        lam[mixed], v[mixed] = _unitary_eig_stack(ratio[mixed],
                                                  [paths[i] for i in mixed])
    d = np.angle(lam) / 2
    w = (np.exp(-1j * d)[:, :, None] * v.conj().swapaxes(1, 2)) @ u0s
    resid = np.maximum(
        np.abs((v * np.exp(1j * d)[:, None, :]) @ w - u0s).max(axis=(1, 2)),
        np.abs((v * np.exp(-1j * d)[:, None, :]) @ w - u1s).max(axis=(1, 2)))
    _check_stack(resid > TOL_SPLIT, paths, "demultiplexing residual too large", resid)
    return v, _walsh_elements(CartanFamily.DIAGONAL, d, -2.0), w


# ---------------------------------------------------------------------------
# Gate trees


# Each node reads its fields as the tree reader reads them, which calls
# these constructors, and holds them as read, so its text reads back
# equal.  A node whose fields already have their types is taken as is.


@dataclass(frozen=True)
class EulerNode:
    """Single-spin factor ``Rx(alpha) Rz(beta) Rx(gamma)`` on ``qubit``.

    ``qubit`` is an integer of at least 1 (``2.0`` is one) and each
    angle a finite real number, held as a ``float``."""

    qubit: int
    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        q, a, b, c = self.qubit, self.alpha, self.beta, self.gamma
        if (type(q) is int and q > 0 and type(a) is float and a - a == 0.0
                and type(b) is float and b - b == 0.0
                and type(c) is float and c - c == 0.0):
            return
        q = _json_int(q, "Euler spin")
        for k in ("alpha", "beta", "gamma"):
            object.__setattr__(self, k, _json_finite(getattr(self, k),
                                                     f"Euler angle {k}"))
        if q < 1:
            raise ValidationError(f"spin index must be >= 1, got {q}")
        object.__setattr__(self, "qubit", q)

    def reduced_angles(self) -> tuple[float, float, float]:
        """``(alpha, beta, gamma)`` with each angle past ``4*pi`` reduced
        exactly to within ``2*pi`` of zero: the same rotations, whose sums
        stay exact and finite however large the angles."""
        return (_reduced(self.alpha, 4 * math.pi), _reduced(self.beta, 4 * math.pi),
                _reduced(self.gamma, 4 * math.pi))

    def matrix2(self) -> np.ndarray:
        return quaternion_matrices([_xzx_quaternion(*self.reduced_angles())])[0]


@dataclass(frozen=True)
class PhaseNode:
    """Global phase ``exp(1j*phi)``; ``phi`` is a finite real number,
    held as a ``float``."""

    phi: float

    def __post_init__(self):
        phi = self.phi
        if not (type(phi) is float and phi - phi == 0.0):
            object.__setattr__(self, "phi", _json_finite(phi, "phase"))


@dataclass(frozen=True)
class CartanNode:
    """Evolution ``exp(-1j*H)`` under one commuting-family element.

    A ``DIAGONAL`` or ``OUTER_X`` layer on three or more spins, and no
    other, may record the open parity network it is lowered along
    (:func:`~kakpulse.networks.open_route`).  The node is then
    ``P exp(-1j*H)``, with ``P`` the permutation of basis states that the
    route's end map ``diag(A, 1)`` makes, and the factor that acts next
    carries ``P``'s inverse.  A route given as a list, or with steps
    that are lists, as JSON spells it, is held as a tuple of tuples.
    """

    element: CartanElement
    route: Route | None = None

    def __post_init__(self):
        route = self.route
        if route is None:
            return
        if not isinstance(route, (list, tuple)):
            raise ValidationError(
                f"a route must be an array, got {type(route).__name__}")
        route = tuple(tuple(step) if type(step) is list else step
                      for step in route)
        check_route(route, self.element)
        object.__setattr__(self, "route", route)


@dataclass(frozen=True)
class SequenceNode:
    """Matrix-ordered product of children (index 0 acts last in time).
    ``children`` is a tuple of nodes; a list is held as one."""

    children: tuple["GateTree", ...]

    def __post_init__(self):
        children = self.children
        if type(children) is not tuple:
            children = tuple(_json_array(children, "sequence children"))
            object.__setattr__(self, "children", children)
        for child in children:
            if not isinstance(child, _NODES):
                raise ValidationError(f"unknown tree node {child!r}")


GateTree = Union[EulerNode, PhaseNode, CartanNode, SequenceNode]
_NODES = (EulerNode, PhaseNode, CartanNode, SequenceNode)


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


def tree_to_json_text(tree: GateTree) -> str:
    """The tree as canonical JSON text, written node by node with the
    keys already in sorted order and each number spelled as
    ``json.dumps`` spells it.  A node is one of

    * ``{"children": [...], "node": "sequence"}``;
    * ``{"alpha": a, "beta": b, "gamma": c, "node": "euler", "q": q}``;
    * ``{"node": "phase", "phi": phi}``;
    * ``{"coeffs": {letters: c, ...}, "family": f, "n": n, "node":
      "commuting_evolution"}``, plus ``"route": [[control, target],
      ...]`` when the layer ends open.

    :func:`tree_from_json_dict` reads it back."""
    parts: list[str] = []
    _add_tree_text(tree, parts)
    return "".join(parts)


def _add_tree_text(tree: GateTree, parts: list[str]) -> None:
    num = _json_number
    if isinstance(tree, SequenceNode):
        parts.append('{"children":[')
        for k, child in enumerate(tree.children):
            if k:
                parts.append(",")
            _add_tree_text(child, parts)
        parts.append('],"node":"sequence"}')
    elif isinstance(tree, EulerNode):
        parts.append(f'{{"alpha":{num(tree.alpha)},"beta":{num(tree.beta)},'
                     f'"gamma":{num(tree.gamma)},"node":"euler",'
                     f'"q":{tree.qubit}}}')
    elif isinstance(tree, PhaseNode):
        parts.append(f'{{"node":"phase","phi":{num(tree.phi)}}}')
    elif isinstance(tree, CartanNode):
        e = tree.element
        # every string of an element has its n letters, so the entries
        # sort as their letters do
        coeffs = ",".join(sorted([f'"{s.letters}":{num(c)}'
                                  for s, c in e.coeffs.items()]))
        route = ("" if tree.route is None else ',"route":[' + ",".join(
            [f"[{control},{target}]" for control, target in tree.route]) + "]")
        parts.append(f'{{"coeffs":{{{coeffs}}},"family":"{e.family.value}",'
                     f'"n":{e.n},"node":"commuting_evolution"{route}}}')
    else:
        raise ValidationError(f"unknown tree node {tree!r}")


def tree_from_json_dict(data: dict) -> GateTree:
    """The tree of a JSON node object (see :func:`tree_to_json_text`).

    The reader checks only the JSON structure, that a node is an object
    of a known kind and a sequence's ``children`` an array, and passes
    every field to its node's constructor as it stands, so each field
    has one check: a fault raises the class and message the constructor
    raises for it, and a missing key makes a malformed tree object."""
    if not isinstance(data, dict):
        raise ValidationError(f"unknown tree node {data!r}")
    try:
        kind = data["node"]
        if kind == "sequence":
            return SequenceNode(tuple(map(tree_from_json_dict, _json_array(
                data["children"], "sequence children"))))
        if kind == "euler":
            return EulerNode(data["q"], data["alpha"], data["beta"],
                             data["gamma"])
        if kind == "phase":
            return PhaseNode(data["phi"])
        if kind == "commuting_evolution":
            return CartanNode(CartanElement(data["n"], data["family"],
                                            data["coeffs"]),
                              data.get("route"))
        raise ValidationError(f"unknown tree node kind {kind!r}")
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ValidationError):
            raise
        raise ValidationError(f"malformed tree object: {exc}") from exc


# ---------------------------------------------------------------------------
# Full recursion


def _su2_part(u: np.ndarray) -> tuple[float, np.ndarray, int]:
    """``(phi, s, sign)`` with ``u = exp(1j*phi) * s``, ``s`` special
    unitary, and ``sign`` ``1`` or ``-1`` when ``s`` is ``+-I`` within
    :data:`TOL_EULER`, else ``0``.  Euler angles would spend two pi turns
    on ``-I``, so callers move that sign into a phase."""
    phi = cmath.phase(complex(np.linalg.det(u))) / 2
    s = u * cmath.exp(-1j * phi)
    for sign in (1, -1):
        if float(np.max(np.abs(s - sign * _EYE2))) <= TOL_EULER:
            return phi, s, sign
    return phi, s, 0


def _one_spin_node(u: np.ndarray) -> GateTree:
    """Euler leaf after a phase leaf; a scalar gives the phase leaf alone."""
    phi, s, sign = _su2_part(u)
    if sign == -1:
        return PhaseNode(math.remainder(phi + math.pi, 2 * math.pi))
    node: GateTree = EulerNode(1, *euler_xzx(s))
    if abs(phi) > 1e-12:
        node = SequenceNode((PhaseNode(phi), node))
    return node


def _two_spin_leaves(us: np.ndarray,
                     paths) -> list[tuple[SequenceNode, np.ndarray]]:
    """The canonical form of each two-spin unitary of a stack as tree
    leaves, in matrix order: phase, the left local pair, one evolution
    under the maximal family ``{XX, YY, ZZ}`` and the right local pair;
    and the matrix of those leaves, the :func:`_canonical_products` of
    their phase and Euler matrices.

    One pass serves the whole stack: :func:`_two_spin_stack`, the Euler
    angles of all locals read from one ``tolist`` (each checked as
    :func:`euler_xzx` checks it), and the leaf matrices as stacked
    products."""
    phases, l1s, l2s, alphas, r1s, r2s, _ = _two_spin_stack(us, paths)
    # a phase leaf only above 1e-14; the leaf matrices take the same phases
    phases = np.where(np.abs(phases) > 1e-14, phases, 0.0)
    entries = np.stack([l1s, l2s, r1s, r2s], axis=1)
    trees, angles = [], []
    for phase, alpha, path, locals_ in zip(phases.tolist(), alphas, paths,
                                           entries.tolist()):
        try:
            l1, l2, r1, r2 = (EulerNode(q, *_euler_entries(a, b, c, d))
                              for q, ((a, b), (c, d)) in zip((1, 2, 1, 2), locals_))
        except NumericError as exc:
            raise _on_path(exc, path) from exc
        children: list[GateTree] = [
            l1, l2, CartanNode(_interaction_element(alpha)), r1, r2]
        if phase:
            children.insert(0, PhaseNode(phase))
        trees.append(SequenceNode(tuple(children)))
        angles += [(e.alpha, e.beta, e.gamma) for e in (l1, l2, r1, r2)]
    m = quaternion_matrices([_xzx_quaternion(*a) for a in angles]
                            ).reshape(len(us), 4, 2, 2)
    matrices = _canonical_products(phases, m[:, 0], m[:, 1], alphas,
                                   m[:, 2], m[:, 3])
    return list(zip(trees, matrices))


def _last_spin_screen(us: np.ndarray) -> list:
    """The route of each matrix ``u`` of a ``(k, d, d)`` stack within
    :data:`TOL_TRIVIAL`: ``(d, w)`` with ``u = kron(w, d)``, ``d`` and
    ``w`` unitary and ``d`` on the last spin; else ``"block"`` when both
    off-diagonal blocks of the last spin vanish; else ``None``.

    ``w`` is a large last-spin block scaled to unit columns and each
    entry of ``d`` is one block's overlap with ``w``; the threshold is on
    the reconstruction error of that pair.  An accepted ``d`` is then
    replaced by its nearest unitary, which the Euler leaf needs.
    """
    count, half = len(us), us.shape[1] // 2
    rows = np.arange(count)
    flat = _last_spin_sectors(us).reshape(count, 4, half * half)
    norms = (flat.real ** 2 + flat.imag ** 2).sum(axis=2)
    # the first block holding at least half the largest weight: a tie
    # is not broken by rounding
    k = (norms >= 0.5 * norms.max(axis=1, keepdims=True)).argmax(axis=1)
    w = flat[rows, k] * np.sqrt(half / norms[rows, k])[:, None]
    d = np.matmul(flat, w.conj()[..., None])[..., 0] / half
    err = np.abs(flat - d[..., None] * w[:, None, :]).reshape(count, -1).max(axis=1)
    found = (~(err > TOL_TRIVIAL)).nonzero()[0]
    # blocks 1 and 2 of the flat view are <0|u|1> and <1|u|0>
    block = np.abs(flat[:, 1:3]).reshape(count, -1).max(axis=1) <= TOL_TRIVIAL
    out: list = ["block" if b else None for b in block.tolist()]
    if found.size:
        left, _, right = np.linalg.svd(d[found].reshape(-1, 2, 2))
        for i, unit in zip(found.tolist(), left @ right):
            out[i] = unit, w[i].reshape(half, half)
    return out


def _check_level(matrix: np.ndarray, u: np.ndarray) -> None:
    """Raise unless a level's composed ``matrix`` meets its budget."""
    n = spin_count(u.shape[0])
    resid = float(np.max(np.abs(matrix - u)))
    if resid > residual_budget(n):
        raise NumericError("factorization residual exceeds budget",
                           residual=resid, path=(f"n={n}",))


def _interaction_sums(us) -> np.ndarray:
    """``sum(|alphas|)`` of the canonical interaction angles of each
    two-spin unitary of a stack (what its middle spends on couplings, in
    angle), read off the magic-frame spectrum alone, with one stacked
    ``eigvals``.

    In the magic frame ``u`` is ``O1 D O2`` with ``O1, O2`` in SO(4) and
    ``D = diag(exp(1j*phi))``, ``phi = -alphas @ _MAGIC_SIGNS / 4``, so
    ``m.T @ m`` has eigenvalues ``exp(2j*phi)``.  That fixes ``phi`` mod
    pi, up to order, and ``det D = 1`` fixes the parity of the pi shifts;
    the ``alphas = -_MAGIC_SIGNS @ phi`` it leaves differ by 2*pi shifts,
    permutations and pair sign flips, which keep the sum of ``|alphas|``
    folded into ``[-pi, pi]``, the canonical chamber's sum.
    """
    m = _MAGIC_H @ np.asarray(us) @ _MAGIC
    m = m * np.array([cmath.exp(-1j * cmath.phase(complex(d)) / 4)
                      for d in np.linalg.det(m)])[:, None, None]
    return _spectrum_sums(m.swapaxes(1, 2) @ m)


def _spectrum_sums(w: np.ndarray) -> np.ndarray:
    """:func:`_interaction_sums` from each ``w = m.T @ m`` of a stack,
    ``m`` the magic-frame unitary of determinant one."""
    phi = np.angle(np.linalg.eigvals(w)) / 2
    phi[np.round(phi.sum(axis=1) / math.pi) % 2 == 1, 0] += math.pi
    alphas = np.matmul(-_MAGIC_SIGNS, phi[..., None])[..., 0]
    return np.sum(np.abs(np.remainder(alphas + math.pi, 2 * math.pi)
                         - math.pi), axis=1)


# Z1 Z2 on the computational basis of two spins, which is also its
# diagonal on the magic columns (the ZZ row of _MAGIC_SIGNS).
_ZZ_SIGNS = _MAGIC_SIGNS[2]
# The input-side phases tried on a leaf that is free on both sides, over
# one period: E(c + pi) is E(c) times the local Z (x) Z.
_PHASE_GRID = np.array([0.0, math.pi / 3, 2 * math.pi / 3])


@functools.lru_cache(maxsize=None)
def _zz_signs(n: int) -> np.ndarray:
    """``Z1 Z2`` on each computational basis state of ``n`` spins."""
    rows = np.arange(2 ** n) >> (n - 2)
    signs = 1.0 - 2.0 * ((rows ^ (rows >> 1)) & 1)
    signs.flags.writeable = False
    return signs


def _without_phases(u: np.ndarray, a, b) -> np.ndarray:
    """``E(-b) @ u @ E(-a)`` with ``E(c) = exp(-1j*c*Z1 Z2/2)`` on the
    leading two spins, for a matrix and two phases or for a stack and
    two arrays of them."""
    z = _zz_signs(spin_count(u.shape[-1]))
    return (u * np.exp(0.5j * np.multiply.outer(b, z))[..., :, None]
            * np.exp(0.5j * np.multiply.outer(a, z))[..., None, :])


def _leaf_phases(us: np.ndarray, free: np.ndarray) -> np.ndarray:
    """``(a, b)`` for each two-spin unitary ``u`` of a stack, with
    ``E(-b) @ u @ E(-a)`` of smallest interaction sum found, where
    ``free[i]`` says whether leaf ``i`` may move a phase to its input
    side and to its output side; ``(0, 0)`` unless the move gains more
    than :data:`TOL_TWO_SPIN`.

    Both phases have period ``pi``.  In the magic frame, with ``m``
    scaled to determinant one, ``tr(m'.T @ m')`` of the moved leaf is
    ``cos(b) * T0 + sin(b) * T1`` for each ``a``, so the two ``b`` where
    Makhlin's invariant ``G1``, a multiple of its square, is real solve
    a trigonometric equation of degree two; they mostly set the
    smallest canonical angle to zero.  A leaf free on both sides tries
    each ``a`` of :data:`_PHASE_GRID` and a leaf free on one side only
    that side (the input side as the output side of the transpose).
    Those candidates and the unmoved leaf are scored in one stacked
    :func:`_spectrum_sums`.
    """
    out = np.zeros((len(us), 2))
    searched = free.any(axis=1).nonzero()[0]
    if not searched.size:
        return out
    both, swap = free[searched].all(axis=1), ~free[searched, 1]
    count = len(searched)
    m = _MAGIC_H @ us[searched] @ _MAGIC
    m = m * np.exp(-0.25j * np.angle(np.linalg.det(m)))[:, None, None]
    mt = m.swapaxes(1, 2)
    # a leaf free on its input side only is solved as its transpose
    k = np.where(swap[:, None, None], mt, m)
    kt = k.swapaxes(1, 2)
    diagonal = np.diagonal(kt @ k, axis1=1, axis2=2)
    signed = np.diagonal(kt @ (_ZZ_SIGNS[:, None] * k), axis1=1, axis2=2)
    turns = np.exp(1j * np.multiply.outer(_PHASE_GRID, _ZZ_SIGNS))
    t0, t1 = diagonal @ turns.T, 1j * (signed @ turns.T)
    # Im(t(b)**2) = A cos(b)**2 + 2 B sin(b) cos(b) + C sin(b)**2 is zero
    # where R cos(2 b - phi) = -(A + C)/2, with R e^(i phi) = (A - C)/2 + i B
    a2, b2, c2 = (t0 * t0).imag, (t0 * t1).imag, (t1 * t1).imag
    half = (a2 - c2) / 2
    radius = np.hypot(half, b2)
    cosine = np.divide(-(a2 + c2) / 2, radius, out=np.zeros_like(radius),
                       where=radius > 0)
    spread = np.arccos(np.clip(cosine, -1.0, 1.0))[..., None] * (1, -1)
    roots = np.remainder((np.arctan2(b2, half)[..., None] + spread) / 2, math.pi)
    # candidates: the unmoved leaf, then two b for each a of the grid
    cands = np.zeros((count, 7, 2))
    cands[:, 1:, 0] = np.repeat(_PHASE_GRID, 2)
    cands[:, 1:, 1] = roots.reshape(count, 6)
    cands[swap] = cands[swap][..., ::-1]
    valid = np.ones((count, 7), dtype=bool)
    valid[~both, 3:] = False
    rows, cols = valid.nonzero()
    # m.T @ m of each candidate E(-b) u E(-a), where E(c) is
    # diag(exp(-1j*c*_ZZ_SIGNS/2)) in the magic frame too
    left = np.exp(0.5j * np.multiply.outer(cands[rows, cols, 0], _ZZ_SIGNS))
    twice = np.exp(1j * np.multiply.outer(cands[rows, cols, 1], _ZZ_SIGNS))
    sums = np.full((count, 7), math.inf)
    sums[rows, cols] = _spectrum_sums(
        left[:, :, None] * (mt[rows] @ (twice[:, :, None] * m[rows]))
        * left[:, None, :])
    best = sums.argmin(axis=1)
    moved = (sums[np.arange(count), best] < sums[:, 0] - TOL_TWO_SPIN).nonzero()[0]
    out[searched[moved]] = cands[moved, best[moved]]
    return out


def _take_phases(node: CartanNode, masks: tuple[int | None, int | None],
                 after: float, before: float) -> CartanNode:
    """The layer node with the ``Z1 Z2`` phases ``after`` and ``before``
    moved in from the factors that act right after and right before it,
    each as the Z string of its entry of ``masks``, the node's
    :func:`~kakpulse.networks.layer_masks`."""
    if not (after or before):
        return node
    element = node.element
    coeffs = dict(element.coeffs)
    for mask, c in zip(masks, (after, before)):
        if c:
            s = z_string(mask, element.n)
            coeffs[s] = coeffs.get(s, 0.0) + c
    return CartanNode(CartanElement(element.n, element.family, coeffs), node.route)


def _absorber(after: np.ndarray, src: np.ndarray,
              rows: tuple[int, ...]) -> float | tuple[np.ndarray, np.ndarray]:
    """What ``after`` spends more, in coupling angle, once it absorbs the
    inverse of the end map ``A`` (GF(2) ``rows`` on ``after``'s spins;
    ``src`` its gather, so ``after @ P_A^-1`` is ``after[:, src]``): a
    cost, or the two-spin factor and gather whose growth in interaction
    angle is the cost.

    The neighbour is judged as :func:`decompose` will route it.  A
    two-spin factor spends the growth of its interaction angles
    (:func:`_interaction_sums`).  A Kronecker factor ``W (x) D`` passes
    the map on to ``W`` when ``A`` leaves its last spin alone, and costs
    ``inf`` when it does not, since the map would join what the
    Kronecker route keeps apart.  A block-diagonal factor costs ``inf``
    too; a generic one costs the same whatever it absorbs, so 0.
    """
    if len(rows) == 2:
        return after, src
    route = _last_spin_screen(after[None])[0]
    if route is None:
        return 0.0
    if route == "block" or not leaves_last_spin(rows):
        return math.inf
    # P_A = P_A' (x) 1 on the last spin: the even entries of src, halved
    return _absorber(route[1], src[::2] >> 1, rows[:-1])


def _open_layers(requests) -> list[tuple[CartanNode, np.ndarray]]:
    """For each ``(layer, after)`` of a commuting layer and the factor
    that acts right after it, on the leading spins: the layer's node and
    that factor as the recursion goes on with it.

    A ``DIAGONAL`` or ``OUTER_X`` layer on three or more spins whose
    open network (:func:`~kakpulse.networks.open_route`) needs fewer pi
    couplings than its closed lowering records the route, and ``after``
    absorbs the inverse of its end map ``P = P_A (x) 1``:
    ``after @ P^-1`` is a column gather.  That is done only where the
    neighbour spends less (:func:`_absorber`) than the network saves:

    * a neighbour that takes the generic route absorbs at any size;
    * a block-diagonal one keeps the layer closed;
    * a Kronecker one ``W (x) D`` absorbs only when ``A`` stays inside
      ``W``, and then ``W`` is judged by the same rules;
    * a two-spin factor (``after`` at three spins, the ``W`` of a
      Kronecker neighbour at four, the ``v = I`` of a diagonal ratio
      among them) absorbs when its interaction angles grow by less than
      the pi couplings saved, by more than :data:`TOL_TWO_SPIN`, so an
      exact tie keeps the layer closed, whatever its last bits.

    The interaction sums of every two-spin neighbour in ``requests``
    come from one stacked :func:`_interaction_sums`.
    """
    plans, neighbours = [], []
    for layer, after in requests:
        k = layer.n
        letters = nonzero_letters(layer)
        route = open_route(k, letters)
        if route is None:
            plans.append(None)
            continue
        # P = P_A (x) 1 on the last spin: the even entries of src, halved
        src = _route_source(route, k)[::2] >> 1
        saved = math.pi * (closed_pi_count(k, letters) - len(route))
        cost = _absorber(after, src, end_rows(route, k)[:-1])
        if isinstance(cost, tuple):
            neighbours.append(cost)
        plans.append((route, src, saved, cost))
    if neighbours:
        sums = _interaction_sums([m[:, s] for m, s in neighbours]
                                 + [m for m, _ in neighbours])
        growth = iter(sums[:len(neighbours)] - sums[len(neighbours):])
    out = []
    for (layer, after), plan in zip(requests, plans):
        if plan is not None:
            route, src, saved, cost = plan
            if isinstance(cost, tuple):
                cost = next(growth)
            if cost < saved - TOL_TWO_SPIN:
                out.append((CartanNode(layer, route), after[:, src]))
                continue
        out.append((CartanNode(layer), after))
    return out


def _block_product(v: tuple[GateTree, np.ndarray], node: CartanNode,
                   w: tuple[GateTree, np.ndarray]) -> tuple[GateTree, np.ndarray]:
    """Tree and matrix of a demultiplexed block factor from its halves'
    trees and matrices and the node of its diagonal layer."""
    (tv, mv), (tw, mw) = v, w
    acc = np.kron(mw, _EYE2)
    acc = _apply_tree(node, acc, node.element.n)
    acc = apply_local(acc, {1: mv})
    return SequenceNode((tv, node, tw)), acc


@dataclass
class _Level:
    """One sub-problem between planning and composing: the factors it
    hands down, the path step each carries, its commuting layers with
    the index of the factor that acts right after each, how its tree and
    matrix are composed from the layers' nodes and the factors' trees
    and matrices, and those nodes and their
    :func:`~kakpulse.networks.layer_masks` once the depth has decided
    them."""

    factors: list[np.ndarray]
    labels: list[str]
    layers: list[tuple[CartanElement, int]]
    compose: Callable[[list[CartanNode], list[tuple[GateTree, np.ndarray]]],
                      tuple[GateTree, np.ndarray]]
    nodes: list[CartanNode] = field(default_factory=list)
    masks: list[tuple[int | None, int | None]] = field(default_factory=list)


def _kronecker_level(n: int, d: np.ndarray, w: np.ndarray) -> _Level:
    """``u = kron(w, d)``: the tree of ``w`` on the leading spins, beside
    an Euler leaf for ``d`` on the last spin unless ``d`` is a scalar.
    Every phase goes into ``w``."""
    delta, ds, sign = _su2_part(d)

    def compose(nodes, results):
        (tree, mw), = results
        matrix = np.kron(mw, _EYE2)
        if not sign:
            leaf = EulerNode(n, *euler_xzx(ds))
            tree = SequenceNode((leaf, tree))
            matrix = _apply_tree(leaf, matrix, n)
        return tree, matrix

    return _Level([w * (cmath.exp(1j * delta) * (sign or 1))],
                  [f"n={n}/kronecker-factor"], [], compose)


def _block_level(n: int, halves) -> _Level:
    """Both off-diagonal blocks vanish: the one block pair, demultiplexed
    into ``halves = (v, z, w)``."""
    v, z, w = halves
    label = f"n={n}/block"
    return _Level([v, w], [label, label], [(z, 0)],
                  lambda nodes, results: _block_product(results[0], nodes[0],
                                                        results[1]))


def _generic_level(n: int, y: CartanElement, left, right) -> _Level:
    """The cosine-sine split's layer ``y`` and its two block factors,
    demultiplexed into ``left`` and ``right`` halves ``(v, z, w)``.  The
    left block acts after the split layer, so its ``w`` may absorb that
    layer's end map; each block's ``v`` may absorb its own diagonal
    layer's."""
    (v1, z1, w1), (v2, z2, w2) = left, right
    labels = [f"n={n}/left-block"] * 2 + [f"n={n}/right-block"] * 2

    def compose(nodes, results):
        node, node1, node2 = nodes
        t1, m1 = _block_product(results[0], node1, results[1])
        t2, m2 = _block_product(results[2], node2, results[3])
        return SequenceNode((t1, node, t2)), m1 @ _apply_tree(node, m2, n)

    return _Level([v1, w1, v2, w2], labels, [(y, 1), (z1, 0), (z2, 2)], compose)


def _split_levels(n: int, stack: np.ndarray, paths, generic: list[int],
                  blocks: list[int]) -> dict[int, _Level]:
    """The levels of a depth's generic and block-diagonal problems (their
    indices into ``stack``), keyed by index.

    All generic problems are split in one :func:`_split_stack`, and then
    every block pair of the depth, each generic problem's left and right
    block and each block-diagonal problem's sector pair, is
    demultiplexed in one :func:`_demultiplex_stack`.
    """
    u0s, u1s, pair_paths = [], [], []
    ys: list[CartanElement] = []
    if generic:
        (l0, l1), ys, (r0, r1) = _split_stack(
            stack[generic], [paths[i] + (f"n={n}",) for i in generic])
        # each problem's left block, then its right one
        u0s.append(np.stack([l0, r0], axis=1).reshape(-1, *l0.shape[1:]))
        u1s.append(np.stack([l1, r1], axis=1).reshape(-1, *l1.shape[1:]))
        pair_paths += [paths[i] + (f"n={n}/{side}-block",)
                       for i in generic for side in ("left", "right")]
    if blocks:
        sectors = _last_spin_sectors(stack[blocks])
        u0s.append(sectors[:, 0, 0])
        u1s.append(sectors[:, 1, 1])
        pair_paths += [paths[i] + (f"n={n}/block",) for i in blocks]
    v, zs, w = _demultiplex_stack(np.concatenate(u0s), np.concatenate(u1s),
                                  pair_paths)
    halves = list(zip(v, zs, w))
    levels = {i: _generic_level(n, y, halves[2 * j], halves[2 * j + 1])
              for j, (i, y) in enumerate(zip(generic, ys))}
    levels.update((i, _block_level(n, halves[2 * len(generic) + j]))
                  for j, i in enumerate(blocks))
    return levels


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
    """:func:`decompose` plus the dense matrix of the returned tree: the
    depth-by-depth recursion (:func:`_decompose_depth`) from a list of
    one.  A leaf's matrix is built from its own nodes and a level's is
    composed from its factors' matrices, so each level checks the tree
    it realizes without walking its subtree again."""
    return _decompose_depth([u], [()], [(False, False)])[0][:2]


def _decompose_depth(us: list, paths: list[tuple[str, ...]],
                     free: list[tuple[bool, bool]]
                     ) -> list[tuple[GateTree, np.ndarray, float, float]]:
    """``(tree, matrix, a, b)`` of each sub-problem ``u`` of one depth of
    the recursion, all of one size; ``paths[i]`` is where problem ``i``
    sits, which a :class:`~kakpulse.errors.NumericError` from it names.
    The tree realizes ``E(-b) @ u @ E(-a)``, ``E(c) =
    exp(-1j*c*Z1 Z2/2)``: its first and last two-spin leaves moved the
    phases ``a`` and ``b`` out to the layers beside the problem, which
    ``free[i]`` says take them on its input and output side.

    The depth goes in three steps.  The depth is screened (one stacked
    unitarity check, and :func:`_last_spin_screen` for every route), the
    generic problems are split in one stack and every block pair of the
    depth is demultiplexed in another (:func:`_split_levels`), and the
    open-layer decisions of the whole depth follow (:func:`_open_layers`).
    Then the factors of every level go down as one list, each free on a
    side where a layer of its level that takes the phase
    (:func:`~kakpulse.networks.layer_masks`) stands, or where its level
    is free, and two-spin problems search their phases
    (:func:`_leaf_phases`) and are factored in one stacked pass
    (:func:`_two_spin_leaves`).  Last, each level moves its factors'
    phases into its layers (:func:`_take_phases`), composes its tree and
    matrix, and checks it against its input with its own phases moved
    out (:func:`residual_budget`).
    """
    if not us:
        return []
    stack = check_unitaries(
        np.array([check_square(u, "operator to factor") for u in us]),
        what="operator to factor")
    n = spin_count(stack.shape[1])
    if n == 1:
        return [(node, _apply_tree(node, np.eye(2, dtype=complex), 1), 0.0, 0.0)
                for node in map(_one_spin_node, stack)]
    routes = _last_spin_screen(stack)
    levels: list[_Level | None] = [  # None: a two-spin leaf, or not yet split
        _kronecker_level(n, *route) if isinstance(route, tuple) else None
        for route in routes]
    generic, blocks = ([i for i, route in enumerate(routes)
                        if n > 2 and route == kind] for kind in (None, "block"))
    if generic or blocks:
        for i, level in _split_levels(n, stack, paths, generic, blocks).items():
            levels[i] = level

    planned = [(level, path, sides) for level, path, sides
               in zip(levels, paths, free) if level is not None]
    decided = iter(_open_layers([(layer, level.factors[k])
                                 for level, _, _ in planned
                                 for layer, k in level.layers]))
    factor_free = []
    for level, _, (before, after) in planned:
        # layer (., j) acts right before factor j and right after j + 1
        masks = {}
        for _, k in level.layers:
            node, level.factors[k] = next(decided)
            level.nodes.append(node)
            level.masks.append(layer_masks(node.element, node.route))
            masks[k] = level.masks[-1]
        last = len(level.factors) - 1
        factor_free += [(masks[j][0] is not None if j < last else before,
                         masks[j - 1][1] is not None if j else after)
                        for j in range(last + 1)]
    results = iter(_decompose_depth(
        [factor for level, _, _ in planned for factor in level.factors],
        [path + (label,) for level, path, _ in planned for label in level.labels],
        factor_free))
    leaves = [k for k, level in enumerate(levels) if level is None]
    if leaves:
        phases = _leaf_phases(stack[leaves],
                              np.array([free[k] for k in leaves], dtype=bool))
        moved = phases.any(axis=1).nonzero()[0]
        leaf_us = stack[leaves]
        leaf_us[moved] = _without_phases(leaf_us[moved], phases[moved, 0],
                                         phases[moved, 1])
        two_spin = iter(zip(_two_spin_leaves(leaf_us, [paths[k] for k in leaves]),
                            phases.tolist()))

    out = []
    for u, level, path in zip(stack, levels, paths):
        if level is None:
            (tree, matrix), (a, b) = next(two_spin)
            out.append((tree, matrix, a, b))
            continue
        parts = [next(results) for _ in level.factors]
        nodes = [_take_phases(node, masks, parts[k][2], parts[k + 1][3])
                 for node, masks, (_, k) in zip(level.nodes, level.masks,
                                                level.layers)]
        a, b = parts[-1][2], parts[0][3]
        try:
            tree, matrix = level.compose(nodes, [part[:2] for part in parts])
            _check_level(matrix, _without_phases(u, a, b) if a or b else u)
        except NumericError as exc:
            raise _on_path(exc, path) from exc
        out.append((tree, matrix, a, b))
    return out
