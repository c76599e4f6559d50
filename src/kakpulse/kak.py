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
bottom out in the magic-basis canonical form with at most three
coupling axes.

:func:`flatten` then lowers a tree to the time-ordered gate vocabulary
of :mod:`~kakpulse.gates` via the rewrite engine in
:mod:`~kakpulse.pulses`.

Every factorization routine re-multiplies its output and raises
:class:`~kakpulse.errors.NumericError` if the residual exceeds its
contract, with a path annotation pointing into the recursion.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DimensionError, NumericError, ValidationError
from .gates import Gate, GlobalPhase, LocalRotation
from .linalg import (PAULI, TOL_UNITARY, apply_local, check_unitary,
                     cosine_sine, expm_skew, permute_spins, spin_count,
                     su2_rotation, unitary_eig)
from .paulis import (CartanElement, CartanFamily, PauliString,
                     diagonal_strings)
from .pulses import _coupling_gates, cartan_evolution_gates

TOL_EULER = 1e-12
TOL_TWO_SPIN = 1e-10
TOL_SPLIT = 1e-9


def residual_budget(n: int) -> float:
    """Accuracy contract for :func:`decompose` on ``n`` spins."""
    if n <= 2:
        return TOL_TWO_SPIN
    return TOL_SPLIT * 4.0 ** (n - 2)


_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)

# Columns are the entangled frame in which two-spin interaction
# exponentials become diagonal and local pairs become real orthogonal.
_MAGIC = np.array([
    [1, 0, 0, 1j],
    [0, 1j, 1, 0],
    [0, 1j, -1, 0],
    [1, 0, 0, -1j],
], dtype=complex) / math.sqrt(2)

# Inverse of the linear map sending (global, xx, yy, zz) exponents to
# magic-frame eigenphases.
_GAMMA = 0.25 * np.array([
    [1, 1, 1, 1],
    [1, 1, -1, -1],
    [-1, 1, -1, 1],
    [1, -1, -1, 1],
], dtype=float)

_GOLDEN = 0.6180339887498949


# ---------------------------------------------------------------------------
# Single spin


def euler_xzx(u: np.ndarray) -> tuple[float, float, float]:
    """Angles ``(alpha, beta, gamma)`` with ``u = Rx(alpha) Rz(beta) Rx(gamma)``.

    Requires ``u`` in SU(2).  ``alpha`` and ``gamma`` land in
    ``[0, 2*pi)`` and ``beta`` in ``[0, 4*pi)`` (the upper half of the
    range picks the other sign sheet of the double cover).  Degenerate
    cases (``beta`` a multiple of ``pi``) fix the undetermined angle to
    zero.  Reconstruction is exact to ``1e-12``.
    """
    u = check_unitary(u, what="single-spin operator")
    if u.shape != (2, 2):
        raise DimensionError(f"expected a 2x2 matrix, got {u.shape}")
    det = complex(np.linalg.det(u))
    if abs(det - 1) > 1e-8:
        raise ValidationError("euler_xzx needs a special unitary "
                              f"(det deviates by {abs(det - 1):.3e})")
    a, b = complex(u[0, 0]), complex(u[0, 1])
    # cos(beta/2) * exp(1j*(alpha+gamma)/2) and sin(beta/2)*exp(-1j*(alpha-gamma)/2)
    z_sum = complex(a.real, -b.imag)
    z_dif = complex(-a.imag, -b.real)
    beta = 2 * math.atan2(abs(z_dif), abs(z_sum))
    half_sum = cmath.phase(z_sum) if abs(z_sum) > 0 else 0.0
    half_dif = -cmath.phase(z_dif) if abs(z_dif) > 0 else 0.0
    alpha = (half_sum + half_dif) % (2 * math.pi)
    gamma = (half_sum - half_dif) % (2 * math.pi)
    recon = su2_rotation("x", alpha) @ su2_rotation("z", beta) @ su2_rotation("x", gamma)
    if np.max(np.abs(recon + u)) < np.max(np.abs(recon - u)):
        beta += 2 * math.pi  # half turn of the angle sum picks the other sheet
        recon = -recon
    resid = float(np.max(np.abs(recon - u)))
    if resid > TOL_EULER:
        raise NumericError("euler factorization residual too large",
                           residual=resid)
    return alpha, beta, gamma


# ---------------------------------------------------------------------------
# Two spins


def _factor_local_pair(m: np.ndarray) -> tuple[complex, np.ndarray, np.ndarray]:
    """Write a Kronecker-product 4x4 as ``g * kron(a, b)`` with ``a, b``
    special unitaries and ``|g| = 1``."""
    t = m.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    i, j = np.unravel_index(int(np.argmax(np.abs(t))), (4, 4))
    a = t[:, j].reshape(2, 2)
    b = (t[i, :] / t[i, j]).reshape(2, 2)
    a = a / np.sqrt(complex(np.linalg.det(a)))
    b = b / np.sqrt(complex(np.linalg.det(b)))
    g = complex(np.trace(np.kron(a, b).conj().T @ m) / 4)
    resid = float(np.max(np.abs(m - g * np.kron(a, b))))
    if resid > 1e-9 or abs(abs(g) - 1) > 1e-9:
        raise NumericError("operator is not a local Kronecker pair",
                           residual=resid)
    return g, a, b


def interaction_unitary(alphas) -> np.ndarray:
    """Canonical two-spin middle: ``prod_a exp(-1j*alphas_a*sigma_a sigma_a/4)``.

    In coupling units this is one ZZ evolution of angle ``alpha`` per
    axis, conjugated into the right frame; ``alphas = (pi, 0, 0)`` is the
    interaction content of CNOT.
    """
    ax, ay, az = (float(v) for v in alphas)
    h = (ax * np.kron(PAULI["x"], PAULI["x"])
         + ay * np.kron(PAULI["y"], PAULI["y"])
         + az * np.kron(PAULI["z"], PAULI["z"])) / 4.0
    return expm_skew(h)


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
        return (cmath.exp(1j * self.phase) * np.kron(self.l1, self.l2)
                @ interaction_unitary(self.alphas) @ np.kron(self.r1, self.r2))


class _TwoSpinState:
    """Mutable canonicalization state for the interaction angles."""

    def __init__(self, phase, l1, l2, alphas, r1, r2):
        self.phase = phase
        self.l1, self.l2 = l1, l2
        self.r1, self.r2 = r1, r2
        self.alphas = np.array(alphas, dtype=float)

    _AXIS = ("x", "y", "z")

    def shift(self, j: int, direction: int):
        """``alphas[j] += 2*pi*direction`` compensated through the right
        locals and the global phase."""
        self.alphas[j] += 2 * math.pi * direction
        q = 1j * PAULI[self._AXIS[j]]
        self.r1 = q @ self.r1
        self.r2 = q @ self.r2
        self.phase -= direction * math.pi / 2

    def swap(self, j: int, k: int):
        """Exchange two interaction axes via a quarter turn about the third."""
        l = 3 - j - k
        g = su2_rotation(self._AXIS[l], math.pi / 2)
        gd = g.conj().T
        self.l1 = self.l1 @ gd
        self.l2 = self.l2 @ gd
        self.r1 = g @ self.r1
        self.r2 = g @ self.r2
        self.alphas[[j, k]] = self.alphas[[k, j]]

    def negate_pair(self, j: int, k: int):
        """Flip the signs of two interaction angles via a half turn on
        spin 1 about the third axis."""
        l = 3 - j - k
        q = 1j * PAULI[self._AXIS[l]]
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
        raise NumericError(f"canonical chamber violated: {a.tolist()}")


def two_spin_factors(u: np.ndarray) -> TwoSpinFactors:
    """Canonical magic-basis factorization of a two-spin unitary.

    The interaction angles are a complete invariant: two unitaries share
    them exactly when they differ only by single-spin rotations and a
    phase.
    """
    u = check_unitary(u, what="two-spin operator")
    if u.shape != (4, 4):
        raise DimensionError(f"expected a 4x4 matrix, got {u.shape}")
    phase0 = cmath.phase(complex(np.linalg.det(u))) / 4
    v = u * cmath.exp(-1j * phase0)
    vm = _MAGIC.conj().T @ v @ _MAGIC
    w = vm.T @ vm

    # Joint diagonalization of the commuting real/imaginary parts of the
    # complex-symmetric w by a real orthogonal matrix.
    wr, wi = w.real, w.imag
    o = None
    for k in range(16):
        t = 0.1234 + _GOLDEN * k
        _, cand = np.linalg.eigh(math.cos(t) * wr + math.sin(t) * wi)
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
    gl, l1, l2 = _factor_local_pair(_MAGIC @ q1 @ _MAGIC.conj().T)
    gr, r1, r2 = _factor_local_pair(_MAGIC @ o.T.astype(complex) @ _MAGIC.conj().T)
    phase += cmath.phase(gl) + cmath.phase(gr)

    state = _TwoSpinState(phase, l1, l2, alphas, r1, r2)
    _canonicalize(state)
    result = TwoSpinFactors(
        phase=float(state.phase), l1=state.l1, l2=state.l2,
        alphas=tuple(float(x) for x in state.alphas),
        r1=state.r1, r2=state.r2, residual=0.0)
    resid = float(np.max(np.abs(result.reconstruct() - u)))
    if resid > TOL_TWO_SPIN:
        raise NumericError("two-spin factorization residual too large",
                           residual=resid)
    return TwoSpinFactors(
        phase=result.phase, l1=result.l1, l2=result.l2,
        alphas=result.alphas, r1=result.r1, r2=result.r2, residual=resid)


def interaction_class(u: np.ndarray) -> tuple[float, float, float]:
    """Canonical interaction angles of a two-spin unitary."""
    return two_spin_factors(u).alphas


# ---------------------------------------------------------------------------
# Last-spin split for three or more spins


@dataclass(frozen=True)
class BlockPair:
    """Block-diagonal factor after sorting by the last spin's sector.

    Realizes ``blkdiag(u0, u1) * exp(-1j*phase*I_z(last))`` brought back
    to the original spin order; ``u0``/``u1`` act on the leading spins
    and are both special, so ``det(u0) * det(u1) = 1``.
    """

    n: int
    u0: np.ndarray
    u1: np.ndarray
    phase: float

    @property
    def half(self) -> int:
        return self.u0.shape[0]

    def realize(self) -> np.ndarray:
        half = self.half
        out = np.zeros((2 * half, 2 * half), dtype=complex)
        out[:half, :half] = self.u0 * cmath.exp(-1j * self.phase / 2)
        out[half:, half:] = self.u1 * cmath.exp(1j * self.phase / 2)
        # permuted frame has the last spin leading; undo it
        perm = list(range(1, self.n)) + [0]
        return permute_spins(out, perm)


def _make_block_pair(n: int, w0: np.ndarray, w1: np.ndarray) -> BlockPair:
    half = w0.shape[0]
    a0 = cmath.phase(complex(np.linalg.det(w0)))
    theta = -2 * a0 / half
    u0 = w0 * cmath.exp(1j * theta / 2)
    u1 = w1 * cmath.exp(-1j * theta / 2)
    for name, blk in (("upper", u0), ("lower", u1)):
        dev = abs(complex(np.linalg.det(blk)) - 1)
        if dev > 1e-8:
            raise NumericError(f"{name} block is not special after phase "
                               "extraction", residual=dev)
    return BlockPair(n=n, u0=u0, u1=u1, phase=theta)


@functools.lru_cache(maxsize=None)
def _bridge(m: int) -> np.ndarray:
    """Frame on ``m`` spins conjugating each diagonal {1,Z} string into
    the maximal commuting family, one string to one string."""
    if m < 2:
        raise ValidationError("the bridge frame needs at least two spins")
    out = _MAGIC
    for _ in range(m - 2):
        out = np.kron(out, _HADAMARD)
    return out


_BASE_IMAGE = {"11": ("11", 1), "Z1": ("XX", 1), "1Z": ("YY", -1),
               "ZZ": ("ZZ", 1)}


def _diagonal_image(d_letters: str) -> tuple[str, int]:
    """Image of a diagonal string under the bridge: letters and sign."""
    head, eps = _BASE_IMAGE[d_letters[:2]]
    tail = "".join("X" if c == "Z" else "1" for c in d_letters[2:])
    return head + tail, eps


def _mask_letters(mask: int, m: int) -> str:
    return "".join("Z" if (mask >> (m - 1 - k)) & 1 else "1" for k in range(m))


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


def split_last_qubit(u: np.ndarray) -> tuple[BlockPair, CartanElement, BlockPair]:
    """Factor ``u = k1 * exp(-1j*H_Y) * k2`` with block-diagonal ``k1, k2``
    and ``H_Y`` over the trailing-X commuting family.

    Requires a special unitary on at least three spins (strip the global
    phase first; every factor on the right-hand side is special).
    """
    u = check_unitary(u)
    n = spin_count(u.shape[0])
    if n < 3:
        raise ValidationError("the last-spin split needs three or more spins; "
                              "use two_spin_factors below that")
    det = complex(np.linalg.det(u))
    if abs(det - 1) > 1e-8:
        raise ValidationError("input must be special; divide out "
                              "det**(1/dim) first")
    m = n - 1
    half = 2 ** m
    perm = [n - 1] + list(range(m))
    up = permute_spins(u, perm)
    cs = cosine_sine(up)

    vb = _bridge(m)
    vbh = vb.conj().T
    w0 = cs.l0 @ vbh
    w1 = 1j * (cs.l1 @ vbh)
    x0 = vb @ cs.r0
    x1 = -1j * (vb @ cs.r1)

    # push a scalar phase through the commuting middle so each
    # block-diagonal side becomes special as a whole
    d = complex(np.linalg.det(w0)) * complex(np.linalg.det(w1))
    psi = -cmath.phase(d) / (2 * half)
    w0, w1 = w0 * cmath.exp(1j * psi), w1 * cmath.exp(1j * psi)
    x0, x1 = x0 * cmath.exp(-1j * psi), x1 * cmath.exp(-1j * psi)

    k1 = _make_block_pair(n, w0, w1)
    k2 = _make_block_pair(n, x0, x1)

    coeffs: dict[PauliString, float] = {}
    for mask, w_d in enumerate(_walsh(cs.theta)):
        if abs(w_d) < 1e-14:
            continue
        letters, eps = _diagonal_image(_mask_letters(mask, m))
        coeffs[PauliString(letters + "X")] = 2.0 * eps * w_d
    y = CartanElement(n=n, family=CartanFamily.OUTER_X, coeffs=coeffs)

    recon = k1.realize() @ expm_skew(y.hamiltonian()) @ k2.realize()
    resid = float(np.max(np.abs(recon - u)))
    if resid > TOL_SPLIT:
        raise NumericError("last-spin split residual too large",
                           residual=resid, path=(f"n={n}",))
    return k1, y, k2


def demultiplex(pair: BlockPair) -> tuple[np.ndarray, CartanElement, np.ndarray, float]:
    """Rewrite ``blkdiag(u0, u1)`` as ``(v, v)`` then a diagonal commuting
    layer then ``(w, w)``.

    Returns ``(v, z, w, phi)`` with
    ``u0 = exp(1j*phi) * v @ exp(1j*D) @ w`` and
    ``u1 = exp(-1j*phi) * v @ exp(-1j*D) @ w``, where ``exp(-1j*H_z)``
    for the returned diagonal-family element ``z`` realizes the
    ``+-D`` pair on the full space and ``phi`` is the traceless
    detrending of ``D``.
    """
    n = pair.n
    if n < 2:
        raise ValidationError("demultiplexing needs at least two spins")
    lam, v = unitary_eig(pair.u0 @ pair.u1.conj().T)
    d = np.angle(lam) / 2
    phi = float(np.mean(d))
    dvec = d - phi
    w = (np.exp(-1j * dvec)[:, None] * v.conj().T) @ pair.u0 * cmath.exp(-1j * phi)

    resid = max(
        float(np.max(np.abs(cmath.exp(1j * phi) * (v * np.exp(1j * dvec)) @ w - pair.u0))),
        float(np.max(np.abs(cmath.exp(-1j * phi) * (v * np.exp(-1j * dvec)) @ w - pair.u1))))
    if resid > TOL_SPLIT:
        raise NumericError("demultiplexing residual too large", residual=resid)

    coeffs: dict[PauliString, float] = {}
    m = n - 1
    for mask, w_d in enumerate(_walsh(dvec)):
        if mask == 0 or abs(w_d) < 1e-14:
            continue  # mask 0 is the detrended mean, zero by construction
        coeffs[PauliString(_mask_letters(mask, m) + "Z")] = -2.0 * w_d
    z = CartanElement(n=n, family=CartanFamily.DIAGONAL, coeffs=coeffs)
    return v, z, w, phi


def diagonal_to_block_coordinates(z: CartanElement) -> CartanElement:
    """Re-express a diagonal-family element over the trailing-Z recursive
    family by conjugating the leading spins with the bridge frame.

    This is the coordinate change showing that the demultiplexing layer
    is an evolution under the same commuting family that the recursion
    is built from; it is reporting-only and does not change operators.
    """
    if z.family is not CartanFamily.DIAGONAL:
        raise ValidationError("expected a diagonal-family element")
    if z.n < 3:
        raise ValidationError("the coordinate change needs at least three spins")
    out: dict[PauliString, float] = {}
    for s, c in z.coeffs.items():
        letters, eps = _diagonal_image(s.letters[:-1])
        out[PauliString(letters + "Z")] = eps * c
    return CartanElement(n=z.n, family=CartanFamily.BLOCK_Z, coeffs=out)


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
        return (su2_rotation("x", self.alpha) @ su2_rotation("z", self.beta)
                @ su2_rotation("x", self.gamma))


@dataclass(frozen=True)
class PhaseNode:
    phi: float


@dataclass(frozen=True)
class LocalWordNode:
    """A short matrix-ordered product of single-spin rotations."""

    gates: tuple[LocalRotation, ...]


@dataclass(frozen=True)
class CartanNode:
    """Evolution ``exp(-1j*H)`` under one commuting-family element."""

    element: CartanElement


@dataclass(frozen=True)
class TwoSpinNode:
    """Canonical two-spin block on ``(left, left+1)``: phase, local pair
    ``after``, interaction middle, local pair ``before`` (in time order,
    ``before`` acts first)."""

    left: int
    phase: float
    alphas: tuple[float, float, float]
    after: tuple[EulerNode, EulerNode]
    before: tuple[EulerNode, EulerNode]


@dataclass(frozen=True)
class SequenceNode:
    """Matrix-ordered product of children (index 0 acts last in time)."""

    children: tuple["GateTree", ...]


GateTree = Union[EulerNode, PhaseNode, LocalWordNode, CartanNode,
                 TwoSpinNode, SequenceNode]


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
    if isinstance(tree, LocalWordNode):
        for g in reversed(tree.gates):
            acc = apply_local(acc, {g.qubit: su2_rotation(g.axis, g.angle)})
        return acc
    if isinstance(tree, CartanNode):
        # the element acts on the leading spins of the chain
        return apply_local(acc, {1: expm_skew(tree.element.hamiltonian())})
    if isinstance(tree, TwoSpinNode):
        left, before, after = tree.left, tree.before, tree.after
        acc = apply_local(acc, {left: before[0].matrix2(),
                                left + 1: before[1].matrix2()})
        acc = apply_local(acc, {left: interaction_unitary(tree.alphas)})
        acc = apply_local(acc, {left: after[0].matrix2(),
                                left + 1: after[1].matrix2()})
        return cmath.exp(1j * tree.phase) * acc
    raise ValidationError(f"unknown tree node {tree!r}")


def tree_to_json_dict(tree: GateTree) -> dict:
    if isinstance(tree, SequenceNode):
        return {"node": "sequence",
                "children": [tree_to_json_dict(c) for c in tree.children]}
    if isinstance(tree, EulerNode):
        return {"node": "euler", "q": tree.qubit, "alpha": tree.alpha,
                "beta": tree.beta, "gamma": tree.gamma}
    if isinstance(tree, PhaseNode):
        return {"node": "phase", "phi": tree.phi}
    if isinstance(tree, LocalWordNode):
        return {"node": "local_word",
                "gates": [{"q": g.qubit, "axis": g.axis, "angle": g.angle}
                          for g in tree.gates]}
    if isinstance(tree, CartanNode):
        e = tree.element
        return {"node": "commuting_evolution", "n": e.n,
                "family": e.family.value,
                "coeffs": {s.letters: c for s, c in e.items()}}
    if isinstance(tree, TwoSpinNode):
        return {"node": "two_spin", "left": tree.left, "phase": tree.phase,
                "alphas": list(tree.alphas),
                "after": [tree_to_json_dict(e) for e in tree.after],
                "before": [tree_to_json_dict(e) for e in tree.before]}
    raise ValidationError(f"unknown tree node {tree!r}")


def tree_from_json_dict(data: dict) -> GateTree:
    try:
        kind = data["node"]
        if kind == "sequence":
            return SequenceNode(tuple(tree_from_json_dict(c)
                                      for c in data["children"]))
        if kind == "euler":
            return EulerNode(int(data["q"]), float(data["alpha"]),
                             float(data["beta"]), float(data["gamma"]))
        if kind == "phase":
            return PhaseNode(float(data["phi"]))
        if kind == "local_word":
            return LocalWordNode(tuple(
                LocalRotation(int(g["q"]), str(g["axis"]), float(g["angle"]))
                for g in data["gates"]))
        if kind == "commuting_evolution":
            n = int(data["n"])
            elem = CartanElement(
                n=n, family=CartanFamily(data["family"]),
                coeffs={PauliString(k): float(v)
                        for k, v in data["coeffs"].items()})
            return CartanNode(elem)
        if kind == "two_spin":
            after = tuple(tree_from_json_dict(e) for e in data["after"])
            before = tuple(tree_from_json_dict(e) for e in data["before"])
            if not all(isinstance(e, EulerNode) for e in (*after, *before)):
                raise ValidationError("two-spin locals must be euler nodes")
            alphas = tuple(float(v) for v in data["alphas"])
            if len(alphas) != 3 or len(after) != 2 or len(before) != 2:
                raise ValidationError("malformed two-spin node")
            return TwoSpinNode(int(data["left"]), float(data["phase"]),
                               alphas, after, before)  # type: ignore[arg-type]
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


def _two_spin_node(u: np.ndarray) -> TwoSpinNode:
    f = two_spin_factors(u)
    return TwoSpinNode(
        left=1, phase=f.phase, alphas=f.alphas,
        after=(_euler_node(1, f.l1), _euler_node(2, f.l2)),
        before=(_euler_node(1, f.r1), _euler_node(2, f.r2)))


def _block_tree(pair: BlockPair, label: str) -> GateTree:
    try:
        v, z, w, phi = demultiplex(pair)
        tv = decompose(v)
        tw = decompose(w)
    except NumericError as exc:
        raise exc.with_path(label) from exc
    children: list[GateTree] = [tv, CartanNode(z), tw]
    angle = pair.phase - 2 * phi
    if abs(angle) > 1e-14:
        children.append(LocalWordNode((LocalRotation(pair.n, "z", angle),)))
    return SequenceNode(tuple(children))


def decompose(u: np.ndarray) -> GateTree:
    """Factor an arbitrary unitary into the gate-tree normal form.

    One spin gives an Euler leaf, two give the canonical two-spin node,
    and ``n >= 3`` gives ``[block, commuting layer, block]`` with the
    blocks recursively demultiplexed into half-size problems.  The
    result reproduces the input to :func:`residual_budget` of its size,
    checked at every level.
    """
    u = check_unitary(u, what="operator to factor")
    n = spin_count(u.shape[0])
    if n == 1:
        phi = cmath.phase(complex(np.linalg.det(u))) / 2
        node: GateTree = _euler_node(1, u * cmath.exp(-1j * phi))
        if abs(phi) > 1e-12:
            node = SequenceNode((PhaseNode(phi), node))
        return node
    if n == 2:
        return _two_spin_node(u)

    phi = cmath.phase(complex(np.linalg.det(u))) / (2 ** n)
    us = u * cmath.exp(-1j * phi)
    try:
        k1, y, k2 = split_last_qubit(us)
    except NumericError as exc:
        raise exc.with_path(f"n={n}") from exc
    children: list[GateTree] = []
    if abs(phi) > 1e-12:
        children.append(PhaseNode(phi))
    children.append(_block_tree(k1, f"n={n}/left-block"))
    children.append(CartanNode(y))
    children.append(_block_tree(k2, f"n={n}/right-block"))
    tree = SequenceNode(tuple(children))

    resid = float(np.max(np.abs(evaluate(tree, n) - u)))
    if resid > residual_budget(n):
        raise NumericError("factorization residual exceeds budget",
                           residual=resid, path=(f"n={n}",))
    return tree


# ---------------------------------------------------------------------------
# Lowering to the gate vocabulary


_FRAME_FOR_AXIS = {
    "x": ("y", math.pi / 2),   # maps sigma_z -> sigma_x
    "y": ("x", -math.pi / 2),  # maps sigma_z -> sigma_y
}


def _interaction_gates_matrix(left: int, alphas) -> list[Gate]:
    """Matrix-ordered gates for :func:`interaction_unitary` on
    ``(left, left+1)``: one framed coupling evolution per active axis."""
    out: list[Gate] = []
    for axis, alpha in zip(("x", "y", "z"), alphas):
        if abs(alpha) < 1e-12:
            continue
        frame: list[LocalRotation] = []
        if axis != "z":
            fa, fang = _FRAME_FOR_AXIS[axis]
            frame = [LocalRotation(left, fa, fang),
                     LocalRotation(left + 1, fa, fang)]
        out.extend(frame)
        out.extend(_coupling_gates(left, float(alpha)))
        out.extend(g.inverse() for g in reversed(frame))
    return out


def _euler_gates_matrix(node: EulerNode) -> list[Gate]:
    out: list[Gate] = []
    for axis, angle in (("x", node.alpha), ("z", node.beta), ("x", node.gamma)):
        if abs(angle) > 1e-14:
            out.append(LocalRotation(node.qubit, axis, angle))
    return out


def flatten(tree: GateTree) -> list[Gate]:
    """Lower a gate tree to a time-ordered gate list.

    Commuting-family evolutions go through the string rewrite engine;
    two-spin middles become framed coupling evolutions directly.  The
    output reproduces ``evaluate`` of the tree exactly (up to float
    accumulation, checked in the test-suite at ``1e-8``).
    """
    if isinstance(tree, SequenceNode):
        out: list[Gate] = []
        for child in reversed(tree.children):
            out.extend(flatten(child))
        return out
    if isinstance(tree, EulerNode):
        return list(reversed(_euler_gates_matrix(tree)))
    if isinstance(tree, PhaseNode):
        return [GlobalPhase(tree.phi)]
    if isinstance(tree, LocalWordNode):
        return [g for g in reversed(tree.gates)]
    if isinstance(tree, CartanNode):
        return cartan_evolution_gates(tree.element)
    if isinstance(tree, TwoSpinNode):
        matrix: list[Gate] = []
        if abs(tree.phase) > 1e-14:
            matrix.append(GlobalPhase(tree.phase))
        matrix.extend(_euler_gates_matrix(tree.after[0]))
        matrix.extend(_euler_gates_matrix(tree.after[1]))
        matrix.extend(_interaction_gates_matrix(tree.left, tree.alphas))
        matrix.extend(_euler_gates_matrix(tree.before[0]))
        matrix.extend(_euler_gates_matrix(tree.before[1]))
        return list(reversed(matrix))
    raise ValidationError(f"unknown tree node {tree!r}")


def compile_unitary(u: np.ndarray) -> list[Gate]:
    """One-call pipeline: factor ``u`` and lower it to gates."""
    return flatten(decompose(u))
