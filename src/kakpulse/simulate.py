"""Dense simulators of gate lists and pulse programs, and fidelity reporting.

Both simulators translate what they read into one stream of steps, and
one kernel (:func:`_frame_unitary`) builds the full ``2^n x 2^n`` matrix
from it.  A step is a single-spin rotation (a gate or a hard pulse) or
``I_z I_z`` evolutions on a run of adjacent pairs: one pair for a
coupling gate, every pair for a delay, by ``2*pi*J_k*t`` each, so the
full drift is simulated, never an idealized coupling.

The kernel keeps a Pauli frame.  An x rotation by exactly ``+-pi`` is
``-+i`` times a bit flip, so it only toggles its spin in an XOR mask and
multiplies a scalar by ``-+i``; the matrix is not touched.  Every later
step is conjugated through the flips instead: a pair evolution changes
sign when exactly one of its spins is flipped, and a y or z rotation on
a flipped spin has its angle negated (``X R_y(t) X = R_y(-t)``).  Between
them, the steps form runs.  A diagonal run (pair evolutions, and z
rotations arriving while no rotation run is open) sums its angles per
pair and per spin and costs one ``exp``.  A rotation run keeps one unit
quaternion per spin, four floats that each rotation turns
(:func:`~kakpulse.linalg.quaternion_turn`), and costs one
:func:`~kakpulse.linalg.apply_local` pass per spin it touches, or per
pair of neighbouring spins, ``O(4^n)`` each.  The mask is applied once,
as a row gather, at the end.  The algebra is exact, so a refocusing
block with a wrong delay or a missing flip shows in the result.

From :data:`BLOCK_MIN_SPINS` spins up, a long stretch of steps that
leaves the last spin alone (:data:`BLOCK_MIN_STEPS` or more) is one
block, in the manner of the gate fusion of state-vector simulators
(Haener & Steiger, SC'17): the kernel simulates the stretch on the
leading ``n - 1`` spins, recursively, and applies that matrix, conjugated
through the flips, in one ``apply_local`` pass.  A gate list from
:func:`~kakpulse.pulses.flatten` is such stretches around each level's
commuting layers, so its check costs ``O(8^n)`` rather than ``O(16^n)``.
A pulse program never forms one, since every delay touches every pair.

The check stays independent of what it checks in three ways.  Nothing
here imports the factorization (:mod:`~kakpulse.kak`) or the lowering
(:mod:`~kakpulse.pulses`): gate lists and pulse programs are read in
the vocabulary of :mod:`~kakpulse.gates`, and the target a simulation
is compared with always comes from outside it.  The frame arithmetic
is held to a naive oracle in ``tests/test_simulator.py`` that
Kronecker-embeds and multiplies one step at a time.  And the
round-trip benchmark re-simulates pulse programs with its own evaluator,
``bench/reference.py``, which shares no code with this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ValidationError
from .gates import (CouplingEvolution, Delay, Gate, GlobalPhase, HardPulse,
                    LocalRotation, PulseProgram)
from .linalg import (QUATERNION_ONE, apply_local, check_square, kron2,
                     quaternion_matrix, quaternion_turn, spin_count,
                     su2_rotation)

# exp(1j*pi/2 * k) for k = 0..3, exactly
_QUARTER_TURNS = (1, 1j, -1, -1j)


def local_rotation_matrix(n: int, qubit: int, axis: str, angle: float) -> np.ndarray:
    """Dense ``exp(-1j*angle*sigma_axis/2)`` embedded on spin ``qubit``."""
    if not 1 <= qubit <= n:
        raise DimensionError(f"spin {qubit} outside 1..{n}")
    return apply_local(np.eye(2 ** n, dtype=complex),
                       {qubit: su2_rotation(axis, angle)})


def _z_signs(n: int, qubit: int) -> np.ndarray:
    """Diagonal of sigma_z on ``qubit`` (1-based, MSB first)."""
    idx = np.arange(2 ** n)
    bit = (idx >> (n - qubit)) & 1
    return 1.0 - 2.0 * bit


def _zz_diagonal(n: int, left: int) -> np.ndarray:
    """Diagonal of ``I_z I_z`` on the pair ``(left, left+1)``."""
    return _z_signs(n, left) * _z_signs(n, left + 1) / 4.0


def coupling_diagonal(n: int, left: int, angle: float) -> np.ndarray:
    """Diagonal of ``exp(-1j*angle*IzIz)`` on pair ``(left, left+1)``."""
    if not 1 <= left <= n - 1:
        raise DimensionError(f"pair ({left},{left + 1}) outside chain of {n}")
    return np.exp(-1j * angle * _zz_diagonal(n, left))


# Stretches of at least this many steps off the last spin become one
# block once the chain has BLOCK_MIN_SPINS spins or more; see
# :func:`_frame_unitary`.
BLOCK_MIN_SPINS = 5
BLOCK_MIN_STEPS = 64


class _Frame:
    """The kernel's state on ``n`` spins: ``scalar * X^mask @ (run @ out)``.

    ``out`` holds every step applied so far, conjugated through the
    flips; at most one run is open on top of it.  A diagonal run keeps
    its angles on the rows of :func:`_diagonal_basis`, a rotation run
    one unit quaternion per spin (see
    :func:`~kakpulse.linalg.quaternion_turn`).
    """

    def __init__(self, n: int):
        self.n = n
        self.angles = [0.0] * (2 * n - 1)
        self.diagonal_open = False
        self.ops: dict[int, tuple] = {}
        self.flipped = [False] * (n + 1)  # by spin; index 0 unused
        self.quarters = 0  # the scalar is (-1j)**quarters
        self.out = np.eye(2 ** n, dtype=complex)
        self.basis = _diagonal_basis(n)

    def step(self, s) -> None:
        """One step of :func:`_frame_unitary`."""
        if isinstance(s, LocalRotation):
            self.rotation(s)
        else:
            self.couplings(*s)

    def rotation(self, step: LocalRotation) -> None:
        n, q, axis, angle = self.n, step.qubit, step.axis, step.angle
        if q > n:
            raise DimensionError(f"rotation on spin {q} outside chain of {n}")
        if axis == "x" and abs(angle) == math.pi:  # -+i X on spin q
            self.flipped[q] = not self.flipped[q]
            self.quarters += 1 if angle > 0 else -1
            return
        if axis != "x" and self.flipped[q]:
            angle = -angle
        if axis == "z" and not self.ops:
            self.angles[n - 2 + q] += angle
            self.diagonal_open = True
            return
        if self.diagonal_open:
            self._close_diagonal()
        self.ops[q] = quaternion_turn(self.ops.get(q, QUATERNION_ONE),
                                      axis, angle)

    def couplings(self, first: int, angles) -> None:
        """``exp(-1j*angle*IzIz)`` on the pairs ``first, first + 1, ...``,
        one angle each."""
        if first + len(angles) > self.n:
            raise DimensionError(
                f"coupling on pair ({first + len(angles) - 1},"
                f"{first + len(angles)}) outside chain of {self.n}")
        if self.ops:
            self._close_rotations()
        f = self.flipped
        for left, angle in enumerate(angles, first):
            self.angles[left - 1] += -angle if f[left] != f[left + 1] else angle
        self.diagonal_open = True

    def block(self, m: np.ndarray) -> None:
        """Apply ``m``, the matrix of steps on the leading ``n - 1`` spins,
        through the flips: ``X^F m X^F``, a gather of rows and columns."""
        self._close_diagonal()
        self._close_rotations()
        mask = self._mask(self.n - 1)
        if mask:
            src = np.arange(len(m)) ^ mask
            m = m[src[:, None], src]
        self.out = apply_local(self.out, {1: m})

    def unitary(self, phase: float) -> np.ndarray:
        self._close_diagonal()
        self._close_rotations()
        mask = self._mask(self.n)
        scalar = np.exp(1j * phase) * _QUARTER_TURNS[-self.quarters % 4]
        out = self.out
        return scalar * (out[np.arange(len(out)) ^ mask] if mask else out)

    def _mask(self, spins: int) -> int:
        """The flips of spins ``1..spins`` as a row mask on that many spins."""
        return sum(1 << (spins - q) for q in range(1, spins + 1)
                   if self.flipped[q])

    def _close_diagonal(self) -> None:
        if self.diagonal_open:
            generator = np.array(self.angles) @ self.basis
            self.out = np.exp(-1j * generator)[:, None] * self.out
            self.angles = [0.0] * (2 * self.n - 1)
            self.diagonal_open = False

    def _close_rotations(self) -> None:
        """Apply the rotation run.  Spins ``q`` and ``q + 1`` that both
        turn share one 4x4 pass, which costs little more than a 2x2 one."""
        if not self.ops:
            return
        ops = self.ops
        local = {}
        for q in sorted(ops):
            if q - 1 in local and local[q - 1].shape == (2, 2):
                local[q - 1] = kron2(local[q - 1], quaternion_matrix(ops[q]))
            else:
                local[q] = quaternion_matrix(ops[q])
        self.out = apply_local(self.out, local)
        self.ops = {}


def _diagonal_basis(n: int) -> np.ndarray:
    """Rows ``IzIz`` of pairs ``1..n-1``, then ``sigma_z/2`` of spins
    ``1..n``: the diagonal run's angles are coefficients on them."""
    return np.array([_zz_diagonal(n, left) for left in range(1, n)]
                    + [_z_signs(n, q) / 2.0 for q in range(1, n + 1)])


def _frame_unitary(n: int, steps, phase: float) -> np.ndarray:
    """Matrix of time-ordered ``steps`` on ``n`` spins, times ``exp(1j*phase)``.

    A step is a :class:`LocalRotation`, or a pair ``(first, angles)`` for
    ``exp(-1j*angle*IzIz)`` on each pair ``first, first + 1, ...`` in
    turn (one pair for a coupling gate, every pair for a delay).

    From :data:`BLOCK_MIN_SPINS` spins up, a maximal stretch of at least
    :data:`BLOCK_MIN_STEPS` steps that leaves spin ``n`` alone is
    simulated on ``n - 1`` spins by this same function and applied as
    one block.  Shorter stretches, and every step at fewer spins, go to
    the frame one by one.
    """
    frame = _Frame(n)
    blocks = n >= BLOCK_MIN_SPINS
    stretch: list = []
    for s in steps:
        if blocks and (s.qubit < n if isinstance(s, LocalRotation)
                       else s[0] + len(s[1]) < n):
            stretch.append(s)
            continue
        if stretch:
            _close_stretch(frame, stretch)
        frame.step(s)
    if stretch:
        _close_stretch(frame, stretch)
    return frame.unitary(phase)


def _close_stretch(frame: _Frame, stretch: list) -> None:
    """Apply a stretch that leaves the frame's last spin alone, as one
    block when it is long enough, and empty it."""
    if len(stretch) >= BLOCK_MIN_STEPS:
        frame.block(_frame_unitary(frame.n - 1, stretch, 0.0))
    else:
        for s in stretch:
            frame.step(s)
    stretch.clear()


def gate_list_unitary(gates: list[Gate], n: int) -> np.ndarray:
    """Matrix of a time-ordered gate list on ``n`` spins."""
    if n < 1:
        raise ValidationError(f"need at least one spin, got {n}")
    phase = 0.0
    steps: list = []
    for g in gates:
        if isinstance(g, GlobalPhase):
            # a scalar commutes with every other step; reduced as it is
            # added, so a long sum carries no rounding into the matrix
            phase = math.remainder(phase + g.phi, 2 * math.pi)
        elif isinstance(g, LocalRotation):
            steps.append(g)
        elif isinstance(g, CouplingEvolution):
            steps.append((g.left, (g.angle,)))
        else:
            raise ValidationError(f"unknown gate object {g!r}")
    return _frame_unitary(n, steps, phase)


def drift_diagonal(program_chain) -> np.ndarray:
    """Diagonal of the always-on coupling Hamiltonian, in rad/s."""
    n = program_chain.n
    h = np.zeros(2 ** n)
    for left in range(1, n):
        h += 2 * math.pi * program_chain.coupling(left) * _zz_diagonal(n, left)
    return h


def pulse_program_unitary(program: PulseProgram) -> np.ndarray:
    """Matrix of a pulse program: hard pulses interleaved with drift."""
    chain = program.chain
    rates = [2 * math.pi * chain.coupling(left) for left in range(1, chain.n)]

    def steps():
        for e in program.events:
            if isinstance(e, HardPulse):
                yield e
            elif isinstance(e, Delay):
                yield 1, [rate * e.duration for rate in rates]
            else:
                raise ValidationError(f"unknown event object {e!r}")

    return _frame_unitary(chain.n, steps(), program.phase)


@dataclass(frozen=True)
class FidelityReport:
    """Phase-insensitive closeness of two unitaries."""

    frobenius: float
    fidelity: float
    dim: int

    def __str__(self) -> str:
        return (f"fidelity {self.fidelity:.12f}, "
                f"phase-free Frobenius distance {self.frobenius:.3e}")

    def to_json_dict(self) -> dict:
        return {"dfro": self.frobenius, "fid": self.fidelity, "dim": self.dim}


def distance(u: np.ndarray, v: np.ndarray) -> FidelityReport:
    """Compare two same-dimension operators up to global phase.

    ``fidelity = |tr(u^dag v)| / dim``.  The Frobenius distance is
    minimized over a global phase; it equals
    ``sqrt(2*dim - 2*|tr(u^dag v)|)`` for unitary inputs but is computed
    from the explicitly phase-aligned difference, which stays accurate
    down to machine precision where the trace formula would cancel.
    """
    u = check_square(u, "first operator")
    v = check_square(v, "second operator")
    if u.shape != v.shape:
        raise DimensionError(f"shape mismatch {u.shape} vs {v.shape}")
    dim = u.shape[0]
    spin_count(dim)
    t = complex(np.trace(v.conj().T @ u))
    phase = np.exp(-1j * np.angle(t)) if t else 1.0
    return FidelityReport(
        frobenius=float(np.linalg.norm(u * phase - v)),
        fidelity=min(abs(t) / dim, 1.0),  # rounding can nudge |tr| past dim
        dim=dim)
