"""Dense simulators of gate lists and pulse programs, and fidelity reporting.

Both simulators build the full ``2^n x 2^n`` matrix in one accumulator,
stepping through time in runs.  A run of single-spin rotations (or hard
pulses) between two diagonal steps is fused first: rotations on the same
spin are multiplied as 2x2s, and since rotations on different spins
commute, the run costs one :func:`~kakpulse.linalg.apply_local` pass per
spin it touches, ``O(4^n)`` each.  A run of coupling evolutions (or
delays) is one diagonal: the coupling exponents, or the delay durations,
are summed and exponentiated once.  Global phases are summed into one
scalar.

The check stays independent of what it checks in three ways.  Nothing
here imports the factorization (:mod:`~kakpulse.kak`), and the target a
simulation is compared with always comes from outside it.  The fused
arithmetic is held to a naive oracle in ``tests/test_simulator.py``
that Kronecker-embeds and multiplies one step at a time.  And the
round-trip benchmark re-simulates pulse programs with its own evaluator,
``bench/reference.py``, which shares no code with this module.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ValidationError
from .gates import CouplingEvolution, Gate, GlobalPhase, LocalRotation, \
    gate_list_spin_bound
from .linalg import apply_local, check_square, spin_count, su2_rotation
from .pulses import Delay, HardPulse, PulseProgram


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


def _fused_rotations(run) -> dict[int, np.ndarray]:
    """One 2x2 per spin for a time-ordered run of rotations or pulses."""
    ops: dict[int, np.ndarray] = {}
    for r in run:  # time order: later rotations multiply from the left
        m = su2_rotation(r.axis, r.angle)
        prev = ops.get(r.qubit)
        ops[r.qubit] = m if prev is None else m @ prev
    return ops


def gate_list_unitary(gates: list[Gate], n: int) -> np.ndarray:
    """Matrix of a time-ordered gate list on ``n`` spins."""
    if n < 1:
        raise ValidationError(f"need at least one spin, got {n}")
    need = gate_list_spin_bound(gates)
    if need > n:
        raise DimensionError(f"gate list touches spin {need} but n={n}")
    phase = 0.0
    steps: list[Gate] = []
    for g in gates:
        if isinstance(g, GlobalPhase):
            phase += g.phi  # a scalar commutes with every other step
        elif isinstance(g, (LocalRotation, CouplingEvolution)):
            steps.append(g)
        else:
            raise ValidationError(f"unknown gate object {g!r}")
    zz = {left: _zz_diagonal(n, left) for left in range(1, n)}
    out = np.eye(2 ** n, dtype=complex)
    for diagonal, run in itertools.groupby(
            steps, key=lambda g: isinstance(g, CouplingEvolution)):
        if diagonal:
            exponent = sum(g.angle * zz[g.left] for g in run)
            out = np.exp(-1j * exponent)[:, None] * out
        else:
            out = apply_local(out, _fused_rotations(run))
    return np.exp(1j * phase) * out


def drift_diagonal(program_chain) -> np.ndarray:
    """Diagonal of the always-on coupling Hamiltonian, in rad/s."""
    n = program_chain.n
    h = np.zeros(2 ** n)
    for left in range(1, n):
        h += 2 * math.pi * program_chain.coupling(left) * _zz_diagonal(n, left)
    return h


def _is_delay(event) -> bool:
    if isinstance(event, Delay):
        return True
    if isinstance(event, HardPulse):
        return False
    raise ValidationError(f"unknown event object {event!r}")


def pulse_program_unitary(program: PulseProgram) -> np.ndarray:
    """Matrix of a pulse program: hard pulses interleaved with drift."""
    n = program.chain.n
    drift = drift_diagonal(program.chain)
    out = np.eye(2 ** n, dtype=complex)
    for delay, run in itertools.groupby(program.events, key=_is_delay):
        if delay:
            duration = math.fsum(e.duration for e in run)
            out = np.exp(-1j * duration * drift)[:, None] * out
        else:
            out = apply_local(out, _fused_rotations(run))
    return np.exp(1j * program.phase) * out


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
