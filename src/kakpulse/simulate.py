"""Dense simulators of gate lists and pulse programs, and fidelity reporting.

Both simulators translate what they read into one stream of steps, and
one kernel (:func:`_frame_unitary`) builds the full ``2^n x 2^n`` matrix
from it.  A step is a single-spin rotation (a gate or a hard pulse) or
an ``I_z I_z`` evolution on one adjacent pair; a delay is one such
evolution on every pair, by ``2*pi*J_k*t``, so the full drift is
simulated, never an idealized coupling.

The kernel keeps a Pauli frame.  An x rotation by exactly ``+-pi`` is
``-+i`` times a bit flip, so it only toggles its spin in an XOR mask and
multiplies a scalar by ``-+i``; the matrix is not touched.  Every later
step is conjugated through the flips instead: a pair evolution changes
sign when exactly one of its spins is flipped, and a y or z rotation on
a flipped spin has its angle negated (``X R_y(t) X = R_y(-t)``).  Between
them, the steps form runs.  A diagonal run (pair evolutions, and z
rotations arriving while no rotation run is open) sums its angles per
pair and per spin and costs one ``exp``.  A rotation run fuses into one
2x2 per spin and costs one :func:`~kakpulse.linalg.apply_local` pass per
spin it touches, ``O(4^n)`` each.  The mask is applied once, as a row
gather, at the end.  The algebra is exact, so a refocusing block with a
wrong delay or a missing flip shows in the result.

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
from .linalg import apply_local, check_square, spin_count, su2_rotation

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


def _frame_unitary(n: int, steps, phase: float) -> np.ndarray:
    """Matrix of time-ordered ``steps`` on ``n`` spins, times ``exp(1j*phase)``.

    A step is a :class:`LocalRotation`, or a pair ``(left, angle)`` for
    ``exp(-1j*angle*IzIz)`` on ``(left, left+1)``.  The result is
    ``scalar * X^mask @ out``: flips live in ``mask`` and the quarter-turn
    count, and every other step reaches ``out`` conjugated by them.
    """
    # The open diagonal run is a list of angles on the rows of ``basis``:
    # IzIz of pairs 1..n-1, then sigma_z/2 of spins 1..n.
    basis = np.array([_zz_diagonal(n, left) for left in range(1, n)]
                     + [_z_signs(n, q) / 2.0 for q in range(1, n + 1)])
    angles = [0.0] * (2 * n - 1)
    diagonal_open = False
    ops: dict[int, np.ndarray] = {}  # the open rotation run, one 2x2 per spin
    flipped = [False] * (n + 1)  # by spin; index 0 unused
    quarters = 0  # the scalar is (-1j)**quarters
    out = np.eye(2 ** n, dtype=complex)
    for step in steps:
        if isinstance(step, LocalRotation):
            q, axis, angle = step.qubit, step.axis, step.angle
            if q > n:
                raise DimensionError(f"rotation on spin {q} outside chain of {n}")
            if axis == "x" and abs(angle) == math.pi:  # -+i X on spin q
                flipped[q] = not flipped[q]
                quarters += 1 if angle > 0 else -1
                continue
            if axis != "x" and flipped[q]:
                angle = -angle
            if axis == "z" and not ops:
                angles[n - 2 + q] += angle
                diagonal_open = True
                continue
            if diagonal_open:
                out = np.exp(-1j * (np.array(angles) @ basis))[:, None] * out
                angles = [0.0] * (2 * n - 1)
                diagonal_open = False
            m = su2_rotation(axis, angle)
            prev = ops.get(q)
            ops[q] = m if prev is None else m @ prev  # later acts from the left
        else:
            left, angle = step
            if left >= n:
                raise DimensionError(
                    f"coupling on pair ({left},{left + 1}) outside chain of {n}")
            if ops:
                out = apply_local(out, ops)
                ops = {}
            angles[left - 1] += -angle if flipped[left] != flipped[left + 1] else angle
            diagonal_open = True
    if ops:
        out = apply_local(out, ops)
    if diagonal_open:
        out = np.exp(-1j * (np.array(angles) @ basis))[:, None] * out
    mask = sum(1 << (n - q) for q in range(1, n + 1) if flipped[q])
    scalar = np.exp(1j * phase) * _QUARTER_TURNS[-quarters % 4]
    return scalar * (out[np.arange(2 ** n) ^ mask] if mask else out)


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
            steps.append((g.left, g.angle))
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
    rates = [(left, 2 * math.pi * chain.coupling(left))
             for left in range(1, chain.n)]

    def steps():
        for e in program.events:
            if isinstance(e, HardPulse):
                yield e
            elif isinstance(e, Delay):
                for left, rate in rates:
                    yield left, rate * e.duration
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
