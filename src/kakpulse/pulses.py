"""Lower factored trees into chain-native gates and pulses.

Four layers live here:

* A symbolic rewrite engine that turns ``exp(-1j * theta * B_P)`` for an
  arbitrary string ``P`` into single-spin rotations plus
  nearest-neighbour ZZ coupling evolutions.  The engine conjugates the
  target string down to a single adjacent ZZ pair using two kinds of
  exactly-tracked moves: local frame rotations (to turn letters into Z)
  and ``pi`` two-spin evolutions (to shorten the support or walk it
  across gaps).  All bookkeeping is done on letters and signs, never
  numerically, so the output is exact up to floating-point rotation
  angles.
* A family lowering that shares those ``pi`` evolutions across a whole
  commuting family instead of paying one ladder per string.  A
  ``DIAGONAL`` element is a sum of {1, Z} strings that all contain
  ``Z_k``; an ``OUTER_X`` element is the same sum with ``X_k`` for
  ``Z_k``, so it is one between ``Ry(-pi/2)`` and ``Ry(pi/2)`` on spin
  ``k``.  A chain parity network of adjacent CNOTs (each one ``pi``
  coupling plus local rotations) walks the parities of the spins
  through every string, and each string is rotated once where the
  network holds its parity: a free ``Rz`` on one spin, or one coupling
  on an adjacent pair.  The route is designed in
  :mod:`kakpulse.networks`.  A layer whose :class:`~kakpulse.kak.CartanNode`
  records an open route (three to seven spins) is lowered along it with
  no return: its end map belongs to the node, and the neighbouring
  factor already absorbed its inverse.  Any other layer takes the closed
  network, which stops after the last nonzero string and returns by the
  shorter way, and only when it needs strictly fewer ``pi`` couplings
  than the ladders; that choice depends only on which strings are
  nonzero and is cached on that pattern.
* The tree lowering :func:`flatten`, which turns the gate tree of
  :func:`~kakpulse.kak.decompose` into one gate list: Euler leaves
  become up to three rotations and commuting layers go through the
  family lowering; the ``MAXIMAL`` two-spin middle ``{XX, YY, ZZ}``
  takes one rewrite-engine ladder per string.  A peephole pass then
  holds each spin's rotations until the next coupling that touches it
  and replaces a run by its x-z-x Euler triple when that is shorter, so
  no spin receives more than three rotations between two couplings.  It
  also folds every coupling angle into ``[-pi, pi]``.  Rotations of at
  most :data:`TOL_ROTATION` (rounding noise) are left out.  This is the
  one place where the emitted gauge is chosen.
* A scheduler that lowers a gate list onto a concrete chain with
  always-on couplings.  Couplings commute with each other and with z
  rotations, so it places every gate as early as the gates it does not
  commute with allow, and commuting couplings share delays; spin-echo
  refocusing pulses cancel every pair that is not active in a delay.

Every gate list built here, by every helper, is in time order: the
first gate acts first.  Only the tree itself keeps matrix order (the
children of a ``SequenceNode``), and :func:`flatten` reverses those
where it reads them.  The lowering emits each coupling with its signed
angle; how a negative one is run is the scheduler's decision alone.

The scheduler's refocusing rule: while a set of pairs evolves, a ``pi``
x-pulse at the half-time flips a set of spins that holds exactly one
endpoint of every inactive pair and none or both of every active one.
Each inactive coupling therefore changes sign between the two halves of
the delay and cancels, while the active ones keep their signs.  For one
active pair ``(k, k+1)`` the set is every spin at odd distance from it;
with every pair active it is empty and the delay is not split.  The
flips are not undone: the scheduler keeps them as a Pauli frame, the
per-spin flip state that the simulator also tracks.  In the frame a
coupling's sign is ``(-1)**(f_k xor f_(k+1))``, so before a delay the
scheduler flips the fewest spins that give every active pair the sign of
its angle, and a y or z rotation on a flipped spin is emitted with its
angle negated.  The program ends by flipping back every spin that is
still flipped.  Each flip is ``-1j*sigma_x``, tracked in the program's
global phase.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, RangeError, ValidationError
from .gates import (ChainSpec, CouplingEvolution, Delay, Gate, GlobalPhase,
                    HardPulse, LocalRotation, PulseProgram, inverse_gate_list)
from .kak import (CartanNode, EulerNode, GateTree, PhaseNode, SequenceNode,
                  decompose, euler_xzx_angles)
from .linalg import QUATERNION_ONE, quaternion_turn
from .networks import (TOL_COEFF, Route, closed_route, nonzero_letters,
                       parity_image, parity_points)
from .paulis import CartanElement, CartanFamily, PauliString, _letter_product

# Rotations of at most this angle are left out of a gate list: the
# factorization's rounding noise reaches 2e-12 rad on QFT and bit-reversal
# targets, while a target 1e-9 from the identity has real 1e-10 turns.
TOL_ROTATION = 1e-11

_PI = math.pi
_HALF_PI = math.pi / 2

# Frame rotation R with Ad_R(sigma_z) = sigma_letter.
_FRAME_FOR_LETTER = {
    "X": ("y", _HALF_PI),
    "Y": ("x", -_HALF_PI),
}


@dataclass(frozen=True)
class _PairOp:
    """Conjugator ``exp(-1j * sign * pi * I_(a,la) I_(b,lb))``."""

    a: int
    la: str
    b: int
    lb: str
    sign: int

    def inverse(self) -> "_PairOp":
        return _PairOp(self.a, self.la, self.b, self.lb, -self.sign)


def _conjugate(op: LocalRotation | _PairOp,
               term: dict[int, str]) -> tuple[int, dict[int, str]]:
    """Adjoint of a conjugator on a signed string ``{site: letter}``:
    ``(sign, new_term)``.

    Each conjugator is a turn ``exp(-1j*s*pi/4*sigma_P)``: a rotation has
    ``P = axis`` and ``s = angle/(pi/2)``, a pair ``P = la lb`` and
    ``s = sign``.  A term ``T`` that commutes with ``P`` is unchanged; a
    half turn negates it, and a quarter turn maps it to
    ``-1j*s*P*T``, again a single signed string.
    """
    if isinstance(op, LocalRotation):
        turn, s = {op.qubit: op.axis.upper()}, op.angle / _HALF_PI
    else:
        turn, s = {op.a: op.la, op.b: op.lb}, op.sign
    clashes = sum(1 for site, x in turn.items()
                  if term.get(site, "1") not in ("1", x))
    if clashes % 2 == 0:
        return 1, term
    if math.isclose(abs(s), 2):
        return -1, term
    if not math.isclose(abs(s), 1):
        raise ValidationError(f"unsupported symbolic turn {op!r}")
    factor = -1j * round(s)
    new = dict(term)
    for site, x in turn.items():
        phase, letter = _letter_product(x, term.get(site, "1"))
        factor *= phase
        if letter == "1":
            new.pop(site, None)
        else:
            new[site] = letter
    sign = int(round(factor.real))
    if abs(factor - sign) > 1e-12 or sign not in (-1, 1):
        raise ValidationError("conjugation produced a non-real sign")
    return sign, new


def _frame_gates(op: _PairOp) -> list[LocalRotation]:
    """Local rotations V with ``exp(op) = V exp(-1j*sign*pi*IzIz) V^dag``."""
    return [LocalRotation(site, *_FRAME_FOR_LETTER[letter])
            for site, letter in ((op.b, op.lb), (op.a, op.la)) if letter != "Z"]


def _op_gates(ops) -> list[Gate]:
    """Gates of a sequence of conjugators, each a local rotation (its own
    gate) or a ``pi`` pair evolution ``V^dag``, coupling, ``V`` on
    adjacent spins."""
    out: list[Gate] = []
    for op in ops:
        if isinstance(op, LocalRotation):
            out.append(op)
            continue
        if op.b != op.a + 1:
            raise ValidationError("pair conjugators must act on adjacent spins")
        frame = _frame_gates(op)
        out += (inverse_gate_list(frame)
                + [CouplingEvolution(op.a, op.sign * _PI)] + frame)
    return out


@functools.lru_cache(maxsize=None)
def _reduce_to_adjacent_zz(letters: str) -> tuple[tuple, int, int]:
    """Conjugate a weight >= 2 string down to an adjacent ZZ pair.

    Returns ``(ops, left, sign)`` where applying the adjoints of ``ops``
    in order maps ``sigma_letters`` to ``sign * sigma_(Z@left, Z@left+1)``.
    """
    string = PauliString(letters)
    ops: list = []
    term = {k: string.letter(k) for k in string.support}
    sign = 1

    def push(*new):
        nonlocal sign, term
        for op in new:
            s, term = _conjugate(op, term)
            sign *= s
        ops.extend(new)

    for site in sorted(term):
        if term[site] == "X":
            push(LocalRotation(site, "y", -_HALF_PI))
        elif term[site] == "Y":
            push(LocalRotation(site, "x", _HALF_PI))

    while True:
        sites = sorted(term)
        if len(sites) == 2 and sites[1] == sites[0] + 1:
            break
        s1, s2 = sites[0], sites[1]
        if s2 == s1 + 1:
            # Shorten: rotate the right partner to X, then a ZY half turn
            # absorbs the left Z into it.
            push(LocalRotation(s2, "y", _HALF_PI), _PairOp(s1, "Z", s2, "Y", -1))
            if sorted(term)[0] != s2:
                raise ValidationError("support shortening failed")
        else:
            # Walk the leftmost Z one site to the right across a gap.
            push(_PairOp(s1, "Y", s1 + 1, "Z", 1), _PairOp(s1, "X", s1 + 1, "Y", 1),
                 LocalRotation(s1 + 1, "y", -_HALF_PI))
    left = sorted(term)[0]
    if term != {left: "Z", left + 1: "Z"}:
        raise ValidationError("reduction did not reach an adjacent ZZ pair")
    return tuple(ops), left, sign


def pauli_evolution_gates(string: PauliString | str, angle: float) -> list[Gate]:
    """Gates realizing ``exp(-1j * angle * B_string)``.

    ``B_string`` is the basis-normalized realization (``sigma/2``), so a
    single-letter string compiles to one rotation and the adjacent ZZ
    string compiles to a coupling evolution of ``2 * angle``.  A string
    of weight two or more whose angle is at most :data:`TOL_COEFF`, the
    threshold :func:`cartan_evolution_gates` drops coefficients at,
    emits nothing, not an idle ladder.
    """
    s = string if isinstance(string, PauliString) else PauliString(string)
    if not math.isfinite(angle):
        raise ValidationError("evolution angle must be finite")
    if s.weight == 0:
        raise ValidationError("cannot compile the identity string")
    if s.weight == 1:
        site = s.support[0]
        return [LocalRotation(site, s.letter(site).lower(), angle)]
    if abs(angle) <= TOL_COEFF:
        return []

    ops, left, sign = _reduce_to_adjacent_zz(s.letters)
    # sigma_P = sign * W sigma_ZZ W^dag  with  W = op1^dag ... opm^dag,
    # hence exp(-i th B_P) = W exp(-i th sign B_ZZ) W^dag: W^dag runs the
    # ops in order, W their inverses in reverse, and B_ZZ = 2 IzIz
    # doubles the coupling angle, whose sign the scheduler handles.
    theta = 2 * angle * sign
    return (_op_gates(ops) + [CouplingEvolution(left, theta)]
            + _op_gates([op.inverse() for op in reversed(ops)]))


# ---------------------------------------------------------------------------
# Commuting families as chain parity networks


@functools.lru_cache(maxsize=None)
def _cnot_gates(control: int, target: int) -> tuple[Gate, ...]:
    """Gates, in time order, whose product is ``CNOT(control -> target)``
    on adjacent spins times ``exp(1j*pi/4)``: a ZX half turn, then
    ``Rx(-pi/2)`` on the target and ``Rz(-pi/2)`` on the control."""
    if control < target:
        pair = _PairOp(control, "Z", target, "X", 1)
    else:
        pair = _PairOp(target, "X", control, "Z", 1)
    return tuple(_op_gates([pair, LocalRotation(target, "x", -_HALF_PI),
                            LocalRotation(control, "z", -_HALF_PI)]))


def _network_gates(k: int, items: list[tuple[PauliString, float]],
                   route: Route) -> list[Gate]:
    """Gates of ``P exp(-1j*H)`` for a ``DIAGONAL`` element, with ``P``
    the end map of ``route`` (the identity for a closed one): the network
    with each string rotated once at its step, then one global phase
    that cancels the CNOTs' ``exp(1j*pi/4)`` factors."""
    points = parity_points(route, k)
    at_step: dict[int, list[Gate]] = {}
    for s, c in items:
        point = points.get(parity_image(s.letters))
        if point is None:
            raise ValidationError(f"route {route} never holds the parity of {s}")
        step, site, on_pair = point
        at_step.setdefault(step, []).append(
            CouplingEvolution(site, 2 * c) if on_pair
            else LocalRotation(site, "z", c))
    out: list[Gate] = []
    for step, cnot in enumerate(route):
        out.extend(at_step.get(step, ()))
        out.extend(_cnot_gates(*cnot))
    out.extend(at_step.get(len(route), ()))
    phase = math.remainder(-_PI / 4 * len(route), 2 * _PI)
    if phase:
        out.append(GlobalPhase(phase))
    return out


def cartan_evolution_gates(element: CartanElement,
                           route: Route | None = None) -> list[Gate]:
    """Gates for ``exp(-1j * H)`` with ``H`` a commuting-family element;
    coefficients of magnitude at most :data:`TOL_COEFF` are dropped.

    With a ``route`` (an open network that :func:`~kakpulse.kak.decompose`
    recorded), a ``DIAGONAL`` or ``OUTER_X`` element is lowered along it
    with no return, so the gates realize ``P exp(-1j*H)`` with ``P`` the
    route's end map.  Without one, a ``DIAGONAL`` element on three or
    more spins is lowered as one closed network when that spends fewer
    pi couplings than one ladder per string.  An ``OUTER_X`` element is
    the ``DIAGONAL`` element with the same coefficients between
    ``Ry(-pi/2)`` and ``Ry(pi/2)`` on the last spin, and takes the same
    route.  Otherwise (and always for ``MAXIMAL``) the family commutes,
    so the exponential splits into one string evolution per coefficient,
    emitted in canonical family order.
    """
    items = [(s, c) for s, c in element.items() if abs(c) > TOL_COEFF]
    network = element.n >= 3 and element.family is not CartanFamily.MAXIMAL
    if route is not None and not network:
        raise ValidationError(
            f"a {element.family.value} element on {element.n} spins takes no route")
    if route is None and items and network:
        route = closed_route(element.n, nonzero_letters(element))
    if route is None:
        return [g for s, c in items for g in pauli_evolution_gates(s, c)]
    out = _network_gates(element.n, items, route)
    if element.family is CartanFamily.OUTER_X:
        turn = LocalRotation(element.n, "y", -_HALF_PI)
        out = [turn, *out, turn.inverse()]
    return out


# ---------------------------------------------------------------------------
# Gate trees


def _xzx_steps(alpha: float, beta: float,
               gamma: float) -> tuple[list[tuple[str, float]], int]:
    """``(steps, turns)`` for ``Rx(alpha) Rz(beta) Rx(gamma)``: the
    ``(axis, angle)`` turns in time order, gamma first.

    Each angle is folded into ``[-pi, pi]``; a ``2*pi`` turn is ``-1``,
    and ``turns`` counts them.  Turns of at most :data:`TOL_ROTATION`
    are left out, and without a z turn the two x turns are one.
    """
    turns = 0

    def fold(angle: float) -> float:
        nonlocal turns
        r = math.remainder(angle, 2 * _PI)
        turns += round((angle - r) / (2 * _PI))
        return r

    beta = fold(beta)
    if abs(beta) <= TOL_ROTATION:
        steps = [("x", fold(alpha + gamma))]
    else:
        steps = [("x", fold(gamma)), ("z", beta), ("x", fold(alpha))]
    return [s for s in steps if abs(s[1]) > TOL_ROTATION], turns


def _lower(tree: GateTree) -> list[Gate]:
    """The gates of each node, in time order, before the peephole."""
    if isinstance(tree, SequenceNode):
        # children are in matrix order: index 0 acts last
        return [g for child in reversed(tree.children) for g in _lower(child)]
    if isinstance(tree, EulerNode):
        steps, turns = _xzx_steps(tree.alpha, tree.beta, tree.gamma)
        return ([LocalRotation(tree.qubit, axis, angle) for axis, angle in steps]
                + [GlobalPhase(_PI)] * (turns % 2))
    if isinstance(tree, PhaseNode):
        return [GlobalPhase(tree.phi)]
    if isinstance(tree, CartanNode):
        return cartan_evolution_gates(tree.element, tree.route)
    raise ValidationError(f"unknown tree node {tree!r}")


def _merge_local_runs(gates: list[Gate]) -> list[Gate]:
    """One pass that shortens the runs of rotations on each spin.

    A rotation is held until the next coupling that touches its spin, or
    the end of the list: rotations on different spins commute, and a
    coupling blocks only its own two spins.  A run of two or more is
    replaced by its x-z-x Euler triple when that is strictly shorter; the
    run's product is kept as a unit quaternion, four floats.

    Each coupling angle is folded into ``[-pi, pi]``: with
    ``theta = r + 2*pi*m``, ``exp(-1j*theta*IzIz)`` is ``exp(-1j*r*IzIz)``
    times ``(-1j*Z (x) Z)**m``, and a folded angle of zero emits no
    coupling.  An odd ``m`` leaves a ``Z`` on each spin of the pair.  The
    pass carries those as a frame, as the scheduler carries its flips:
    a ``Z`` commutes with couplings and z turns and negates x and y
    turns, so it moves to the end of the list, where two on a spin
    cancel and a lone one becomes ``1j*Rz(pi)`` in that spin's last run.
    Every global phase, the ``-1`` of each folded ``2*pi`` rotation among
    them, goes into one phase factor at the end.
    """
    out: list[Gate] = []
    held: dict[int, list[LocalRotation]] = {}
    framed: set[int] = set()  # spins that carry a Z from a folded coupling
    phase = 0.0
    turns = 0

    def release(q: int) -> None:
        nonlocal turns
        run = [g for g in held.pop(q, ()) if abs(g.angle) > TOL_ROTATION]
        # Two turns about different axes make one turn only when both are
        # half turns, so such a pair is not worth a product.
        if len(run) > 2 or len(run) == 2 and run[0].axis == run[1].axis:
            product = QUATERNION_ONE
            for g in run:
                product = quaternion_turn(product, g.axis, g.angle)
            steps, k = _xzx_steps(*euler_xzx_angles(product))
            if len(steps) < len(run):
                run = [LocalRotation(q, axis, angle) for axis, angle in steps]
                turns += k
        out.extend(run)

    for g in gates:
        if isinstance(g, LocalRotation):
            if g.qubit in framed and g.axis != "z":
                g = LocalRotation(g.qubit, g.axis, -g.angle)
            held.setdefault(g.qubit, []).append(g)
        elif isinstance(g, CouplingEvolution):
            r = math.remainder(g.angle, 2 * _PI)
            m = round((g.angle - r) / (2 * _PI))
            phase = math.remainder(phase - _HALF_PI * m, 2 * _PI)
            if m % 2:
                framed ^= set(g.pair)
            if r:
                release(g.left)
                release(g.left + 1)
                out.append(CouplingEvolution(g.left, r))
        elif isinstance(g, GlobalPhase):
            # reduced at every step: a sum that grows to hundreds of
            # radians would carry its rounding into the matrix
            phase = math.remainder(phase + g.phi, 2 * _PI)
        else:
            raise ValidationError(f"unknown gate object {g!r}")
    for q in framed:
        held.setdefault(q, []).append(LocalRotation(q, "z", _PI))
    for q in sorted(held):
        release(q)
    phase = math.remainder(phase + _PI * (turns % 2) + _HALF_PI * len(framed),
                           2 * _PI)
    if phase:
        out.append(GlobalPhase(phase))
    return out


def flatten(tree: GateTree) -> list[Gate]:
    """Lower a gate tree to a gate list.

    Euler leaves become up to three rotations, and commuting-family
    evolutions, the two-spin ``{XX, YY, ZZ}`` middle among them, go
    through :func:`cartan_evolution_gates` (a parity network or one
    ladder per string).  One peephole pass then merges each spin's runs
    of rotations between couplings and gathers the global phase at the
    end.  The output reproduces ``evaluate`` of the tree exactly (up to
    float accumulation, checked in the test-suite at ``1e-8``).
    """
    return _merge_local_runs(_lower(tree))


def compile_unitary(u: np.ndarray) -> list[Gate]:
    """One-call pipeline: factor ``u`` and lower it to gates."""
    return flatten(decompose(u))


# ---------------------------------------------------------------------------
# Scheduling onto an always-on chain


def refocusing_set(n: int, active: int | Iterable[int]) -> list[int]:
    """Spins flipped at the half-time of a delay that evolves the pairs
    ``active``: one pair index ``left``, for pair ``(left, left+1)``, or
    a collection of them.

    Every inactive pair gets exactly one flipped endpoint, so it changes
    sign between the two halves of the delay and averages away; every
    active pair gets none or both and keeps its sign.  On a chain two
    sets do that, each the other's complement.  The smaller is taken,
    and on a tie the one that leaves the first active pair unflipped.
    For one pair that is every spin at odd distance from it; with every
    pair active it is empty."""
    pairs = frozenset(active if isinstance(active, Iterable) else (active,))
    return list(_refocusing_set(n, pairs))


@functools.lru_cache(maxsize=None)
def _refocusing_set(n: int, pairs: frozenset[int]) -> tuple[int, ...]:
    if not pairs:
        raise RangeError("a refocused delay needs at least one active pair")
    for left in pairs:
        if not 1 <= left < n:
            raise RangeError(f"pair index {left} outside 1..{n - 1}")
    flip = [False] * (n + 1)  # by spin; index 0 unused
    for j in range(1, n):
        # spin j+1 differs from spin j exactly across an inactive pair
        flip[j + 1] = flip[j] != (j not in pairs)
    count = sum(flip)
    if 2 * count > n or 2 * count == n and flip[min(pairs)]:
        return tuple(s for s in range(1, n + 1) if not flip[s])
    return tuple(s for s in range(1, n + 1) if flip[s])


class _Frame:
    """Per-spin x-flip state of a program being written: the Pauli frame
    that :func:`~kakpulse.simulate._frame_unitary` tracks when it reads
    the program back.  On a flipped spin, ``sigma_z`` and ``sigma_y``
    change sign, and so does every coupling with one flipped end."""

    def __init__(self, program: PulseProgram):
        self.program = program
        self.flipped = [False] * (program.chain.n + 1)  # by spin; index 0 unused
        self.pulses = 0

    def toggle(self, spins) -> None:
        """One x pi-pulse on each of ``spins``."""
        for s in spins:
            self.flipped[s] = not self.flipped[s]
            self.program.events.append(HardPulse(s, "x", _PI))
        self.pulses += len(spins)

    def fix_sign(self, thetas: dict[int, float]) -> None:
        """Toggle the fewest spins that give each pair ``(left, left+1)``
        of ``thetas`` the sign of its angle in this frame,
        ``(-1)**(f_left xor f_(left+1))``.

        A run of adjacent pairs has two solutions, complements on the
        run's spins; the smaller is taken, and on a tie the one that
        flips the run's first spin.  For one pair whose sign disagrees
        that is spin ``left``."""
        f = self.flipped
        wrong = {k for k, theta in thetas.items()
                 if (f[k] != f[k + 1]) != (theta < 0)}
        if not wrong:
            return
        spins: list[int] = []
        first, run = 0, []  # run[i]: whether spin first+i toggles

        def close() -> None:
            flip = 2 * sum(run) >= len(run)
            spins.extend(first + i for i, r in enumerate(run) if r != flip)

        for left in sorted(thetas):
            if run and left != first + len(run) - 1:
                close()
                run = []
            if not run:
                first, run = left, [False]
            run.append(run[-1] != (left in wrong))
        if run:
            close()
        self.toggle(spins)

    def refocus(self, active) -> None:
        """The mid-delay toggle of a segment that evolves the pairs
        ``active``."""
        self.toggle(refocusing_set(self.program.chain.n, active))

    def segment(self, thetas: dict[int, float], t: float) -> None:
        """A delay of ``t`` seconds that evolves each pair ``(left,
        left+1)`` of ``thetas`` with the sign of its angle and cancels
        every other pair: the sign fixes, half the delay, the refocusing
        toggle and the other half, or one delay when every pair is
        active."""
        self.fix_sign(thetas)
        if len(thetas) == self.program.chain.n - 1:
            self.program.events.append(Delay(t))
            return
        self.program.events.append(Delay(t / 2))
        self.refocus(thetas)
        self.program.events.append(Delay(t / 2))

    def rotation(self, g: LocalRotation) -> LocalRotation:
        """The pulse that realizes ``g`` in this frame."""
        if g.axis != "x" and self.flipped[g.qubit]:
            return LocalRotation(g.qubit, g.axis, -g.angle)
        return g

    def restore(self) -> None:
        """Toggle every spin that is still flipped."""
        self.toggle([q for q, f in enumerate(self.flipped) if f])


def _place(gates: list[Gate], chain: ChainSpec) -> tuple[dict, float]:
    """ASAP list schedule of a gate list: ``(at, phase)``.

    ``at`` maps each start time to the rotations and couplings that
    start then, in list order; a coupling is ``(left, theta, t)`` with
    ``theta`` reduced mod ``4*pi`` and nonzero and ``t`` its duration in
    seconds.  Every coupling's end, ``start + t``, is a key, so the keys
    are the breakpoints of the schedule.  A gate moves only past gates
    it commutes with: a coupling waits for the last x or y rotation on
    its two spins and for the previous coupling on its pair, an x or y
    rotation for every earlier gate on its spin, and a z rotation only
    for the last x or y rotation on its spin; ties keep list order.
    ``phase`` sums the global phases, the ``-1`` of every ``4*pi``
    removed among them."""
    n = chain.n
    xy = [0.0] * (n + 1)    # by spin: time of the last x or y rotation
    busy = [0.0] * (n + 1)  # by spin: end of the last gate
    pair_end = [0.0] * n    # by pair: end of the last coupling
    at: dict[float, list] = {0.0: []}
    phase = 0.0
    for g in gates:
        if isinstance(g, LocalRotation):
            q = g.qubit
            if q > n:
                raise DimensionError(
                    f"gate on spin {q} exceeds chain size {n}")
            if g.axis == "z":
                t = xy[q]
            else:
                t = xy[q] = busy[q]
            at.setdefault(t, []).append(g)
        elif isinstance(g, CouplingEvolution):
            k = g.left
            if k + 1 > n:
                raise DimensionError(
                    f"coupling on pair {g.pair} exceeds chain size {n}")
            theta = math.remainder(g.angle, 4 * _PI)
            phase = math.remainder(
                phase + _PI * round((g.angle - theta) / (4 * _PI)), 2 * _PI)
            if theta == 0:
                continue
            start = max(xy[k], xy[k + 1], pair_end[k])
            t = abs(theta) / (2 * _PI * chain.coupling(k))
            end = pair_end[k] = start + t
            busy[k], busy[k + 1] = max(busy[k], end), max(busy[k + 1], end)
            at.setdefault(start, []).append((k, theta, t))
            at.setdefault(end, [])
        elif isinstance(g, GlobalPhase):
            phase = math.remainder(phase + g.phi, 2 * _PI)
        else:
            raise ValidationError(f"unknown gate object {g!r}")
    return at, phase


def synthesize_pulses(gates: list[Gate], chain: ChainSpec) -> PulseProgram:
    """Lower a time-ordered gate list onto a chain.

    Local rotations become hard pulses, and each coupling evolution
    runs ``|theta| / (2*pi*J_k)`` of always-on drift.  The angle is first
    reduced mod ``4*pi`` into ``[-2*pi, 2*pi]``, each ``4*pi`` removed
    contributing a ``-1`` tracked in the global phase (the ZZ evolution
    has period ``8*pi`` with value ``-identity`` at ``4*pi``).  Gate
    lists carry signed coupling angles, and this is the one place where
    a sign becomes pulses.

    Couplings commute with each other and with z rotations, so they
    share delays.  :func:`_place` puts every gate on a time axis as early
    as the gates it does not commute with allow, and a sweep over the
    coupling ends cuts the axis into segments, each with one active set
    of pairs.  A segment first toggles the fewest spins that give every
    active pair the sign of its angle in the Pauli frame
    (:meth:`_Frame.fix_sign`); then it runs half its delay, toggles
    :func:`refocusing_set` of the active pairs and runs the other half.
    A segment whose refocusing set is empty (every pair active) is one
    delay.  The program lasts the critical path of the gate list, never
    more than the sum of its couplings' times, and a coupling that runs
    alone is one block of two half delays around its refocusing toggle.
    The rotations that start at a breakpoint go out before its segment,
    in list order; a y or z rotation on a flipped spin is emitted with
    its angle negated, and the program ends by toggling every spin that
    is still flipped.
    """
    at, phase = _place(gates, chain)
    program = PulseProgram(chain=chain)
    frame = _Frame(program)
    thetas: dict[int, float] = {}  # by active pair: its angle
    todo: dict[int, float] = {}    # by active pair: seconds still to run
    ending: dict[float, list[int]] = {}  # by clock time: pairs that end then
    times = sorted(at)
    for now, then in zip(times, times[1:] + [None]):
        for k in ending.pop(now, ()):
            del thetas[k], todo[k]
        for item in at[now]:
            if isinstance(item, LocalRotation):
                program.events.append(frame.rotation(item))
                continue
            k, theta, t = item
            if now + t == now:
                # too short to move the clock: a block of its own, here
                frame.segment({k: theta}, t)
            else:
                thetas[k], todo[k] = theta, t
                ending.setdefault(now + t, []).append(k)
        if thetas:
            # The segment lasts what is left of a coupling that ends at
            # its end, so a coupling's segments add up to its own time,
            # not to a difference of clock readings; what is left can
            # round below zero only by a clock reading's last bit.
            t = max(0.0, todo[ending[then][0]])
            frame.segment(thetas, t)
            for k in todo:
                todo[k] -= t
    frame.restore()
    # each pulse of the frame is -1j*sigma_x
    program.phase = math.remainder(phase + _HALF_PI * (frame.pulses % 4),
                                   2 * _PI)
    return program


def total_coupling_time(program: PulseProgram) -> float:
    """Sum of all delay durations in seconds."""
    return sum(e.duration for e in program.events if isinstance(e, Delay))


def pulse_count(program: PulseProgram) -> int:
    return sum(1 for e in program.events if isinstance(e, HardPulse))
