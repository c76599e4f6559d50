"""Dense simulators of gate lists and pulse programs, and fidelity reporting.

Both simulators hand their steps to one kernel (:func:`_frame_unitary`),
which builds the full ``2^n x 2^n`` matrix.  A step is a single-spin
rotation (a gate or a hard pulse), a coupling gate (``I_z I_z`` on one
pair) or a delay (``I_z I_z`` on every pair at once, by ``2*pi*J_k*t``
each), so the full drift is simulated, never an idealized coupling.

The steps are the columns of a :class:`~kakpulse.gates.GateList` or of
a :class:`~kakpulse.gates.PulseProgram`, read as they are: four
parallel lists ``(kinds, sites, axes, values)``.  A step of kind
``"local"`` or ``"pulse"`` is a rotation of spin ``sites[i]`` about
``axes[i]`` by ``values[i]``; ``"zz"`` is a coupling of the pair
``(sites[i], sites[i] + 1)`` by ``values[i]``; ``"delay"`` is a delay of
``values[i]`` seconds; ``"phase"`` is the scalar ``exp(1j*values[i])``,
which the walk adds to a phase it keeps beside its quarter turns.  The
kernel cuts the steps into stretches by index and walks each stretch as
slices of the columns, building no object per step.

The kernel plans, then applies.  The plan is a walk over the steps, in
Python, that keeps a Pauli frame.  An x rotation by exactly ``+-pi`` is
``-+i`` times a bit flip, so it only toggles its spin in the frame and
multiplies a scalar by ``-+i``.  Every later step is conjugated through
the flips instead: a pair evolution changes sign when exactly one of
its spins is flipped, and a y or z rotation on a flipped spin has its
angle negated (``X R_y(t) X = R_y(-t)``).  Between them the steps form
runs.  A diagonal run (pair evolutions and z rotations) keeps its
summed angles per pair and per spin; a rotation run keeps one unit
quaternion per spin, four floats that each rotation turns
(:func:`~kakpulse.linalg.quaternion_turn`).  A run stays open past a
step of the other kind that acts on other spins, since the two commute.
The apply phase exponentiates the diagonal runs with one product with
:func:`_diagonal_basis` and one ``exp`` per bounded chunk, builds all
the 2x2s (and the 4x4 of each pair of neighbouring spins that turn in
one run) in one array, and then makes one pass per run over the matrix,
``O(4^n)``: a product with the diagonal, or one ``matmul`` per spin or
pair that turns.  The flips are applied once, as a row gather, at the
end.  The algebra is exact, so a refocusing block with a wrong delay or
a missing flip shows in the result.

From :data:`BLOCK_MIN_SPINS` spins up, a stretch of at least
:data:`BLOCK_MIN_STEPS` steps that is diagonal on the last spin ``n`` in
the frame is one block, in the manner of the gate fusion of
state-vector simulators (Haener & Steiger, SC'17).  Such a stretch may
hold any step on spins ``1..n-1``, delays, couplings on every pair, and
z rotations and x ``+-pi`` flips of spin ``n``.  In the frame it is
``sum_b M_b (x) |b><b|`` over the value ``b`` of spin ``n``, and the
kernel simulates both branches at once, as one ``2^(n-1) x 2^n`` array,
by the same walk on the leading ``n - 1`` spins: on branch ``b`` a
coupling of the pair ``(n-1, n)`` is a z rotation of spin ``n - 1`` of
sign ``(-1)^b``, which the diagonal runs carry for free, since their
angles stay on all ``n`` spins.  The flips of spin ``n`` inside the
block are handed to the outer frame, whose flips conjugate the block (a
flip of spin ``n`` swaps its branches); it is then applied with one
product per branch.  A stretch that never touches spin ``n`` keeps a
single branch and costs one ``apply_local`` pass.  Inside a block the
spins after the leading ones stay diagonal, so blocks nest, and each
level simulates a smaller array.  Gate lists and pulse programs share
this one rule.  A gate list from :func:`~kakpulse.pulses.flatten` is
long stretches below the last spin around each level's commuting
layers, and a pulse program has few pulses on its last spins that are
not flips or z turns, so at n = 8 a pulse program is simulated on
arrays of ``16 x 256`` nearly throughout instead of ``256 x 256``.

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

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ValidationError
from .gates import GateList, PulseProgram
from .linalg import (QUATERNION_ONE, apply_local, check_square, kron2,
                     quaternion_matrices, quaternion_turn, spin_count)

# exp(1j*pi/2 * k) for k = 0..3, exactly
_QUARTER_TURNS = (1, 1j, -1, -1j)


def _z_signs(n: int, qubit: int) -> np.ndarray:
    """Diagonal of sigma_z on ``qubit`` (1-based, MSB first)."""
    idx = np.arange(2 ** n)
    bit = (idx >> (n - qubit)) & 1
    return 1.0 - 2.0 * bit


# A stretch of at least BLOCK_MIN_STEPS steps that is diagonal on the
# frame's last spin becomes one block once the frame has BLOCK_MIN_SPINS
# spins or more; see :func:`_frame_unitary`.
BLOCK_MIN_SPINS = 5
BLOCK_MIN_STEPS = 64
# A frame applies its plan once its diagonal runs hold this many matrix
# entries, so memory stays bounded however long the program is.
_EXP_CHUNK = 1 << 14


class _Frame:
    """The walk's state on spins ``1..n``, of which every step leaves the
    last ``n - spins`` diagonal: ``(-1j)**quarters * exp(1j*phase) *
    X^flips @ (ops @ angles @ runs @ out)``.

    ``out`` holds the runs applied so far: one ``2^spins``-square per
    branch (a value of the diagonal spins), side by side.  ``runs`` is
    the plan not yet applied: diagonal runs (lists of angles on the rows
    of :func:`_diagonal_basis`) and rotation runs (sorted tuples of
    ``(spin, unit quaternion)``, see
    :func:`~kakpulse.linalg.quaternion_turn`).  On top of it a diagonal
    run (``angles``; ``touched`` has bit ``q`` set when it acts on spin
    ``q``) and a rotation run (``ops``) may both be open, as long as
    they act on different spins: then they commute, and either may be
    closed first.
    """

    def __init__(self, spins: int, n: int, rates):
        self.spins, self.n, self.rates = spins, n, rates
        self.angles = [0.0] * (2 * n - 1)
        self.touched = 0
        self.ops: dict[int, tuple] = {}
        self.flipped = [False] * (n + 1)  # by spin; index 0 unused
        # the scalar is (-1j)**quarters * exp(1j*phase)
        self.quarters, self.phase = 0, 0.0
        self.runs: list = []
        self.diagonals = 0  # diagonal runs in the plan
        self.out = np.tile(np.eye(2 ** spins, dtype=complex), 2 ** (n - spins))

    def walk(self, steps) -> None:
        """Conjugate each of the step columns ``steps`` (see
        :func:`_frame_unitary`) through the flips and add it to the open
        runs, closing one when the step does not commute with it."""
        n, spins, rates = self.n, self.spins, self.rates
        flipped, runs = self.flipped, self.runs
        angles, touched, ops = self.angles, self.touched, self.ops
        quarters, phase, diagonals = self.quarters, self.phase, self.diagonals
        every = (2 << n) - 2  # bits 1..n
        pi, rotate, fmod = math.pi, quaternion_turn, math.fmod
        period = 8 * pi  # of a pair's I_z I_z turn
        for kind, q, axis, angle in zip(*steps):
            # a delay acts on every pair, so it only reaches frames that
            # keep all the chain's spins
            if kind == "delay":
                if ops:
                    runs.append(tuple(sorted(ops.items())))
                    ops = {}
                touched = every
                for left, rate in enumerate(rates, 1):
                    # reduced exactly, so long turns that refocus cannot
                    # round a short one away
                    turn = rate * angle
                    if turn > period:
                        turn = fmod(turn, period)
                    flip = flipped[left] != flipped[left + 1]
                    angles[left - 1] += -turn if flip else turn
                continue
            if kind == "zz":
                if q >= n:
                    raise DimensionError(f"coupling on pair ({q},"
                                         f"{q + 1}) outside chain of {n}")
                if q in ops or q + 1 in ops:
                    runs.append(tuple(sorted(ops.items())))
                    ops = {}
                touched |= 3 << q
                flip = flipped[q] != flipped[q + 1]
                angles[q - 1] += -angle if flip else angle
                continue
            if kind == "phase":
                # a scalar commutes with every step; reduced as it is
                # added, so a long sum carries no rounding into the matrix
                phase = math.remainder(phase + angle, 2 * pi)
                continue
            if q > n:
                raise DimensionError(
                    f"rotation on spin {q} outside chain of {n}")
            if axis == "x" and abs(angle) == pi:  # -+i X on spin q
                flipped[q] = not flipped[q]
                quarters += 1 if angle > 0 else -1
                continue
            if axis != "x" and flipped[q]:
                angle = -angle
            if axis == "z" and q not in ops:
                angles[n - 2 + q] += angle
                touched |= 1 << q
                continue
            if touched >> q & 1:
                runs.append(angles)
                angles, touched = [0.0] * (2 * n - 1), 0
                diagonals += 1
                if diagonals << n >= _EXP_CHUNK:
                    self._apply()
                    diagonals = 0
            ops[q] = rotate(ops.get(q, QUATERNION_ONE), axis, angle)
        self.angles, self.touched, self.ops = angles, touched, ops
        self.quarters, self.phase, self.diagonals = quarters, phase, diagonals

    def finish(self) -> "_Frame":
        """Close the open runs and apply the plan."""
        if self.touched:
            self.runs.append(self.angles)
            self.angles, self.touched = [0.0] * (2 * self.n - 1), 0
        if self.ops:
            self.runs.append(tuple(sorted(self.ops.items())))
            self.ops = {}
        self._apply()
        return self

    def block(self, sub: "_Frame") -> None:
        """Apply ``sub``, a finished frame on spins ``1..spins-1``, through
        the flips (``X^F m X^F``: a gather of rows, columns and, when
        ``sub`` has a branch per value of spin ``spins`` and of the
        diagonal spins, of branches), and take over its flips and its
        scalar."""
        self.finish()
        k = 2 ** (self.spins - 1)
        rows = np.arange(k) ^ self._mask(1, self.spins - 1)
        m = sub.out
        if sub.n == sub.spins:  # one branch
            self.out = apply_local(self.out, {1: m[rows[:, None], rows]})
        else:
            branches = 2 ** (self.n - self.spins + 1)
            swap = np.arange(branches) ^ self._mask(self.spins, self.n)
            m = m.reshape(k, branches, k)[rows[:, None, None],
                                          swap[:, None], rows]
            out = self.out.reshape(k, branches, -1)
            self.out = np.empty_like(self.out)
            product = self.out.reshape(out.shape)
            for b in range(branches):
                np.matmul(m[:, b], out[:, b], out=product[:, b])
        for q in range(1, sub.n + 1):
            self.flipped[q] ^= sub.flipped[q]
        self.quarters += sub.quarters
        self.phase = math.remainder(self.phase + sub.phase, 2 * math.pi)

    def unitary(self, phase: float) -> np.ndarray:
        """The finished matrix of a frame with no diagonal spins, times
        ``exp(1j*phase)``."""
        self.finish()
        mask = self._mask(1, self.n)
        scalar = (np.exp(1j * (phase + self.phase))
                  * _QUARTER_TURNS[-self.quarters % 4])
        out = self.out
        return scalar * (out[np.arange(len(out)) ^ mask] if mask else out)

    def _mask(self, first: int, last: int) -> int:
        """The flips of spins ``first..last`` as a mask on that many bits."""
        return sum(1 << (last - q) for q in range(first, last + 1)
                   if self.flipped[q])

    def _apply(self) -> None:
        """Apply the plan: the phases of every diagonal run from one
        product with the basis and one ``exp``, every 2x2 from one array,
        and the 4x4 of each pair of neighbouring spins that turn in one
        run (one pass, which costs little more than a 2x2 one) from one
        more; then one pass per run, or per spin or pair that turns."""
        runs = self.runs
        if not runs:
            return
        size = 2 ** self.spins
        # one (shape, index) per pass: a diagonal run's phases, or the 2x2
        # or 4x4 that acts on the matrix reshaped to `shape`
        passes, diagonal, turns, pairs = [], [], [], []
        for r in runs:
            if type(r) is list:
                passes.append((None, len(diagonal)))
                diagonal.append(r)
                continue
            last = -1
            for q, turn in r:
                if q == last + 1 and passes[-1][0][1] == 2:
                    passes[-1] = ((2 ** (last - 1), 4, -1), len(pairs))
                    pairs.append(len(turns) - 1)
                else:
                    passes.append(((2 ** (q - 1), 2, -1), len(turns)))
                turns.append(turn)
                last = q
        if diagonal:
            generators = np.array(diagonal) @ _diagonal_basis(self.n)
            phases = np.exp(-1j * generators).reshape(len(diagonal), size,
                                                      -1, 1)
        if turns:
            turns = quaternion_matrices(turns)
            pairs = kron2(turns[pairs], turns[[i + 1 for i in pairs]])
        out = self.out
        for shape, index in passes:
            if shape is None:
                out = out.reshape(size, -1, size)
                out *= phases[index]
            else:
                op = turns[index] if shape[1] == 2 else pairs[index]
                out = np.matmul(op, out.reshape(shape))
        self.out = out.reshape(size, -1)
        runs.clear()
        self.diagonals = 0


@functools.lru_cache(maxsize=None)
def _diagonal_basis(n: int) -> np.ndarray:
    """Rows ``IzIz`` of pairs ``1..n-1``, then ``sigma_z/2`` of spins
    ``1..n``: the diagonal run's angles are coefficients on them."""
    z = [_z_signs(n, q) for q in range(1, n + 1)]
    basis = np.array([z[k] * z[k + 1] / 4.0 for k in range(n - 1)]
                     + [signs / 2.0 for signs in z])
    basis.flags.writeable = False
    return basis


def _cut(steps, lo: int, hi: int) -> tuple[list, ...]:
    """Steps ``lo..hi-1`` of the step columns ``steps``."""
    return tuple(column[lo:hi] for column in steps)


def _frame_unitary(spins: int, steps, rates=(), n: int = 0) -> _Frame:
    """The finished :class:`_Frame` of time-ordered ``steps`` on spins
    ``1..n`` (``n = spins`` unless given), of which the steps leave the
    last ``n - spins`` diagonal.

    ``steps`` are four columns, ``(kinds, sites, axes, values)``, in
    the walk's step format (see the module docstring); a delay's pair
    ``k`` turns by ``rates[k-1]`` times its duration.

    From :data:`BLOCK_MIN_SPINS` spins up, a stretch of at least
    :data:`BLOCK_MIN_STEPS` steps that is diagonal on spin ``spins`` is
    simulated by this same function on spins ``1..spins-1`` and applied
    as one block.  The block keeps all ``n`` spins, and so a branch for
    each value of the spins from ``spins`` on, unless the stretch never
    touches them.  Such a stretch of one branch is cut out of a longer
    one whenever it is long enough to be a block by itself, so that the
    steps around it do not double its cost.  Shorter stretches, and
    every step at fewer spins, go to the frame's walk.
    """
    n = n or spins
    frame = _Frame(spins, n, rates)
    if spins < BLOCK_MIN_SPINS:
        frame.walk(steps)
        return frame.finish()
    # steps lo..i-1 are either a stretch that is diagonal on spin
    # `spins`, or (`walking`) steps that are not, walked as they come;
    # `touched` is whether the stretch acts on a spin from `spins` on,
    # and its last `plain` steps do not
    lo, walking, touched, plain = 0, False, False, 0
    shortest, pi = BLOCK_MIN_STEPS, math.pi
    for i, kind, q, axis, value in zip(itertools.count(), *steps):
        if kind == "delay":
            on = True
        elif kind == "zz":
            on = q + 1 >= spins if q < n else None
        elif q < spins:
            on = False
        elif q <= n and (axis == "z" or axis == "x" and abs(value) == pi):
            on = True
        else:
            on = None
        if on is None:  # not diagonal on spin `spins`, or off the chain
            if not walking:
                if lo < i:
                    _close_stretch(frame, steps, lo, i, touched, plain)
                lo, walking = i, True
            continue
        if walking:
            frame.walk(_cut(steps, lo, i))
            lo, walking, touched, plain = i, False, False, 0
        elif on and plain >= shortest:
            _close_stretch(frame, steps, lo, i, touched, plain)
            lo = i
        if on:
            touched, plain = True, 0
        else:
            plain += 1
    end = len(steps[0])
    if walking:
        frame.walk(_cut(steps, lo, end))
    elif lo < end:
        _close_stretch(frame, steps, lo, end, touched, plain)
    return frame.finish()


def _close_stretch(frame: _Frame, steps, lo: int, hi: int, touched: bool,
                   plain: int) -> None:
    """Add steps ``lo..hi-1``, a stretch that is diagonal on the frame's
    spin ``spins``, whose last ``plain`` steps act on no spin from
    ``spins`` on: as one block when it is long enough, as two when those
    steps are."""
    if BLOCK_MIN_STEPS <= plain < hi - lo:
        _close_stretch(frame, steps, lo, hi - plain, True, 0)
        lo, touched = hi - plain, False
    if hi - lo < BLOCK_MIN_STEPS:
        frame.walk(_cut(steps, lo, hi))
        return
    spins = frame.spins - 1
    frame.block(_frame_unitary(spins, _cut(steps, lo, hi), frame.rates,
                               frame.n if touched else spins))


def gate_list_unitary(gates: GateList, n: int) -> np.ndarray:
    """Matrix of a time-ordered gate list on ``n`` spins."""
    if n < 1:
        raise ValidationError(f"need at least one spin, got {n}")
    return _frame_unitary(n, gates.columns()).unitary(0.0)


def pulse_program_unitary(program: PulseProgram) -> np.ndarray:
    """Matrix of a pulse program: hard pulses interleaved with drift."""
    chain = program.chain
    rates = [2 * math.pi * chain.coupling(left) for left in range(1, chain.n)]
    return _frame_unitary(chain.n, program.columns(),
                          rates).unitary(program.phase)


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
