"""Lower factored trees into chain-native gates and pulses.

Four layers live here:

* A ladder that turns ``exp(-1j * theta * B_P)`` for an arbitrary
  string ``P`` into single-spin rotations plus nearest-neighbour ZZ
  coupling evolutions.  A frame rotation turns each X or Y letter into
  Z; then the leftmost Z walks right by two literal moves, each a few
  ``pi`` couplings between ``pi/2`` rotations: a gap move carries it
  across an empty spin, and a fold move merges it into the next Z.  The
  walk stops at one adjacent ZZ pair, which takes the coupling, and the
  ladder is undone after it.  Every move maps a Z string to a Z string
  with sign ``+1``, so the output is exact up to floating-point rotation
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
  on an adjacent pair.  Each spin count has one route, designed in
  :mod:`kakpulse.networks`, and a layer runs a cut of it.  A layer whose
  :class:`~kakpulse.kak.CartanNode` records an open cut is lowered along
  it with no return: its end map belongs to the node, and the
  neighbouring factor already absorbed its inverse.  Any other layer
  takes the closed cut, which stops after the last nonzero string and
  returns by the shorter way, and only when it needs strictly fewer
  ``pi`` couplings than the ladders; that choice depends only on which
  strings are nonzero and is cached on that pattern.
* The tree lowering :func:`flatten`, which turns the gate tree of
  :func:`~kakpulse.kak.decompose` into one gate list: Euler leaves
  become up to three rotations and commuting layers go through the
  family lowering; the ``MAXIMAL`` two-spin middle ``{XX, YY, ZZ}``
  takes one ladder per string.  A peephole pass then holds each spin's
  rotations until the next coupling that touches it and replaces a run
  by its x-z-x Euler triple when that is shorter, so no spin receives
  more than three rotations between two couplings.  It
  also folds every coupling angle into ``[-pi, pi]``.  Rotations of at
  most :data:`TOL_ROTATION` (rounding noise) are left out.  This is the
  one place where the emitted gauge is chosen.
* A scheduler that lowers a gate list onto a concrete chain with
  always-on couplings.  Couplings commute with each other and with z
  rotations, so it places every gate as early as the gates it does not
  commute with allow, and commuting couplings share delays; spin-echo
  refocusing pulses cancel every pair that is not active in a delay.

Gate lists are built and read here as the columns of a
:class:`~kakpulse.gates.GateList`, and the scheduler writes the columns
of a :class:`~kakpulse.gates.PulseProgram`; no stage builds an object per
gate or event.  The family lowering and the ladders copy the columns
of templates: each is a gate list, cached per set of nonzero strings
(and, along a route, per family, spin count and route), whose rotated
strings' angles are held open at 0.0 and filled from each element's
coefficients (``c`` for a rotation, ``2 * c`` for a coupling).

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
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, RangeError, ValidationError, _json_int
from .gates import ChainSpec, GateList, PulseProgram, _phase_row
from .kak import (CartanNode, EulerNode, GateTree, PhaseNode, SequenceNode,
                  decompose, euler_xzx_angles)
from .linalg import QUATERNION_ONE, quaternion_turn
from .networks import (TOL_COEFF, Route, check_route, closed_route,
                       parity_image, parity_points)
from .paulis import CartanElement, CartanFamily, PauliString

# Rotations of at most this angle are left out of a gate list: the
# factorization's rounding noise reaches 2e-12 rad on QFT and bit-reversal
# targets, while a target 1e-9 from the identity has real 1e-10 turns.
TOL_ROTATION = 1e-11

_PI = math.pi
_HALF_PI = math.pi / 2


class _Slot(NamedTuple):
    """An angle a template leaves open: coefficient ``index`` of the
    lowered element, doubled when it becomes a coupling angle."""

    index: int
    doubled: bool


# A row is one gate's column entries, (kind, site, axis, angle), whose
# angle may be a _Slot.
Row = tuple[str, int, "str | None", "float | _Slot"]


def _template(rows: list[Row]) -> tuple[GateList, tuple]:
    """The gate list of ``rows`` with each open angle at 0.0, and its
    slots, ``(position, index, doubled)``, to fill from the element's
    coefficients.  Templates are cached and shared, so :func:`_emit`
    copies their columns and nothing writes them."""
    slots = tuple((pos, a.index, a.doubled)
                  for pos, (_, _, _, a) in enumerate(rows) if type(a) is _Slot)
    return GateList([(kind, site, axis, 0.0 if type(a) is _Slot else a)
                     for kind, site, axis, a in rows]), slots


def _emit(out: GateList, template: tuple[GateList, tuple], coeffs) -> None:
    """Append ``template`` to ``out`` with its slots filled from
    ``coeffs``: ``c``, or ``2 * c`` for a coupling."""
    gates, slots = template
    kinds, sites, axes, angles = out.columns()
    kinds.extend(gates.kinds)
    sites.extend(gates.sites)
    axes.extend(gates.axes)
    base = len(angles)
    angles.extend(gates.values)
    for pos, index, doubled in slots:
        c = coeffs[index]
        angles[base + pos] = 2 * c if doubled else c


@functools.lru_cache(maxsize=None)
def _ladder(letters: str) -> tuple[tuple[Row, ...], int]:
    """``(rows, left)`` for a string of weight two or more: a Clifford
    ``W`` whose gates, run in order, carry ``sigma_letters`` to
    ``sigma_(Z@left, Z@left+1)``, so ``exp(-1j*t*sigma_letters)`` is the
    gates, ``exp(-1j*t*Z_left Z_left+1)`` and the gates' inverse.

    Each X takes ``Ry(-pi/2)`` and each Y ``Rx(pi/2)``, in site order,
    which leaves a string of Zs.  Then the leftmost Z walks right until
    two adjacent Zs are left.  Across an empty spin ``q+1`` it moves by
    a gap move, the YZ and XY half turns on ``(q, q+1)`` and
    ``Ry(q+1, -pi/2)``: two ``pi`` couplings.  Into the Z on ``q+1`` it
    folds by ``Ry(q+1, pi/2)`` and the ZY half turn: one ``pi`` coupling.
    Every step maps a Z string to a Z string with sign ``+1``.
    """
    sites = [q + 1 for q, x in enumerate(letters) if x != "1"]
    out: list[Row] = [
        ("local", q, "y", -_HALF_PI) if letters[q - 1] == "X"
        else ("local", q, "x", _HALF_PI)
        for q in sites if letters[q - 1] != "Z"]
    while not (len(sites) == 2 and sites[1] == sites[0] + 1):
        q = sites[0]
        if sites[1] == q + 1:
            # fold: Ry(q+1, pi/2), then the ZY half turn
            out += [("local", q + 1, "y", _HALF_PI),
                    ("local", q + 1, "x", _HALF_PI), ("zz", q, None, -_PI),
                    ("local", q + 1, "x", -_HALF_PI)]
            sites.pop(0)
        else:
            # gap: the YZ half turn, the XY half turn, Ry(q+1, -pi/2)
            out += [("local", q, "x", _HALF_PI), ("zz", q, None, _PI),
                    ("local", q, "x", -_HALF_PI),
                    ("local", q, "y", -_HALF_PI),
                    ("local", q + 1, "x", _HALF_PI), ("zz", q, None, _PI),
                    ("local", q + 1, "x", -_HALF_PI),
                    ("local", q, "y", _HALF_PI),
                    ("local", q + 1, "y", -_HALF_PI)]
            sites[0] = q + 1
    return tuple(out), sites[0]


@functools.lru_cache(maxsize=None)
def _strings_template(pattern: tuple[str, ...]) -> tuple[GateList, tuple]:
    """The template of ``exp(-1j * c * B_letters)`` for each string of
    ``pattern`` in turn, ``c`` the string's coefficient: one rotation
    for a single letter, else the ladder, the coupling of ``2 * c`` and
    the ladder's inverse."""
    rows: list[Row] = []
    for index, letters in enumerate(pattern):
        sites = [q + 1 for q, x in enumerate(letters) if x != "1"]
        if len(sites) == 1:
            q = sites[0]
            rows.append(("local", q, letters[q - 1].lower(),
                         _Slot(index, False)))
            continue
        ladder, left = _ladder(letters)
        # B_ZZ = 2 IzIz doubles the coupling angle, whose sign the
        # scheduler handles.
        rows += [*ladder, ("zz", left, None, _Slot(index, True)),
                 *[(kind, site, axis, -angle)
                   for kind, site, axis, angle in reversed(ladder)]]
    return _template(rows)


def pauli_evolution_gates(string: PauliString | str, angle: float) -> GateList:
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
    out = GateList()
    if s.weight == 1 or abs(angle) > TOL_COEFF:
        _emit(out, _strings_template((s.letters,)), (angle,))
    return out


# ---------------------------------------------------------------------------
# Commuting families as chain parity networks


@functools.lru_cache(maxsize=None)
def _cnot_rows(control: int, target: int) -> tuple[Row, ...]:
    """Rows, in time order, whose product is ``CNOT(control -> target)``
    on adjacent spins times ``exp(1j*pi/4)``: a ZX half turn (a ``pi``
    coupling between ``Ry(-pi/2)`` and ``Ry(pi/2)`` on the target), then
    ``Rx(-pi/2)`` on the target and ``Rz(-pi/2)`` on the control."""
    return (("local", target, "y", -_HALF_PI),
            ("zz", min(control, target), None, _PI),
            ("local", target, "y", _HALF_PI),
            ("local", target, "x", -_HALF_PI),
            ("local", control, "z", -_HALF_PI))


def _network_rows(k: int, pattern: tuple[str, ...], route: Route) -> list[Row]:
    """Rows of ``P exp(-1j*H)`` for a ``DIAGONAL`` element with nonzero
    strings ``pattern``, with ``P`` the end map of ``route`` (the
    identity for a closed one): the network with each string rotated
    once at its step, then one global phase that cancels the CNOTs'
    ``exp(1j*pi/4)`` factors."""
    points = parity_points(route, k)
    at_step: dict[int, list[Row]] = {}
    for index, letters in enumerate(pattern):
        point = points.get(parity_image(letters))
        if point is None:
            raise ValidationError(
                f"route {route} never holds the parity of {letters}")
        step, site, on_pair = point
        at_step.setdefault(step, []).append(
            ("zz", site, None, _Slot(index, True)) if on_pair
            else ("local", site, "z", _Slot(index, False)))
    out: list[Row] = []
    for step, cnot in enumerate(route):
        out.extend(at_step.get(step, ()))
        out.extend(_cnot_rows(*cnot))
    out.extend(at_step.get(len(route), ()))
    phase = math.remainder(-_PI / 4 * len(route), 2 * _PI)
    if phase:
        out.append(("phase", 0, None, phase))
    return out


@functools.lru_cache(maxsize=None)
def _family_template(family: CartanFamily, k: int, route: Route,
                     pattern: tuple[str, ...]) -> tuple[GateList, tuple]:
    """The lowering of every element of ``family`` on ``k`` spins whose
    nonzero strings are ``pattern``, along ``route``."""
    rows = _network_rows(k, pattern, route)
    if family is CartanFamily.OUTER_X:
        rows = [("local", k, "y", -_HALF_PI), *rows, ("local", k, "y", _HALF_PI)]
    return _template(rows)


def _emit_element(out: GateList, element: CartanElement,
                  route: Route | None) -> None:
    """Append the gates of ``exp(-1j * element)`` to ``out``; see
    :func:`cartan_evolution_gates`."""
    items = [(s, c) for s, c in element.items() if abs(c) > TOL_COEFF]
    pattern = tuple(s.letters for s, _ in items)
    if route is not None:
        check_route(route, element)
    elif element.family is not CartanFamily.MAXIMAL:
        route = closed_route(element.n, pattern)
    _emit(out, _strings_template(pattern) if route is None
          else _family_template(element.family, element.n, route, pattern),
          [c for _, c in items])


def cartan_evolution_gates(element: CartanElement,
                           route: Route | None = None) -> GateList:
    """Gates for ``exp(-1j * H)`` with ``H`` a commuting-family element;
    coefficients of magnitude at most :data:`TOL_COEFF` are dropped.

    With a ``route`` (an open cut that :func:`~kakpulse.kak.decompose`
    recorded), a ``DIAGONAL`` or ``OUTER_X`` element is lowered along it
    with no return, so the gates realize ``P exp(-1j*H)`` with ``P`` the
    route's end map.  Without one, a ``DIAGONAL`` element on three or
    more spins is lowered along :func:`~kakpulse.networks.closed_route`
    when that spends fewer pi couplings than one ladder per string.  An
    ``OUTER_X`` element is the ``DIAGONAL`` element with the same
    coefficients between ``Ry(-pi/2)`` and ``Ry(pi/2)`` on the last spin,
    and takes the same route.  Otherwise (and always for ``MAXIMAL``)
    the family commutes, so the exponential splits into one string
    evolution per coefficient, emitted in canonical family order.

    The gates come from a template cached per family, spin count, route
    and set of nonzero strings, whose open angles are filled from the
    coefficients.
    """
    out = GateList()
    _emit_element(out, element, route)
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


def _lower(tree: GateTree) -> GateList:
    """The gates of each node, in time order, before the peephole."""
    out = GateList()
    _lower_into(tree, out)
    return out


def _lower_into(tree: GateTree, out: GateList) -> None:
    if isinstance(tree, SequenceNode):
        # children are in matrix order: index 0 acts last
        for child in reversed(tree.children):
            _lower_into(child, out)
    elif isinstance(tree, EulerNode):
        q = _json_int(tree.qubit, "Euler spin")
        if q < 1:
            raise ValidationError(f"spin index must be >= 1, got {q}")
        steps, turns = _xzx_steps(tree.alpha, tree.beta, tree.gamma)
        for axis, angle in steps:
            out.add("local", q, axis, angle)
        if turns % 2:
            out.add("phase", 0, None, _PI)
    elif isinstance(tree, PhaseNode):
        out.add(*_phase_row("phase", 0, None, tree.phi))
    elif isinstance(tree, CartanNode):
        _emit_element(out, tree.element, tree.route)
    else:
        raise ValidationError(f"unknown tree node {tree!r}")


def _merge_local_runs(gates: GateList) -> GateList:
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
    out = GateList()
    add = out.add
    held: dict[int, list[tuple[str, float]]] = {}  # by spin: its run
    framed: set[int] = set()  # spins that carry a Z from a folded coupling
    phase = 0.0
    turns = 0

    def release(q: int) -> None:
        nonlocal turns
        run = [step for step in held.pop(q, ()) if abs(step[1]) > TOL_ROTATION]
        # Two turns about different axes make one turn only when both are
        # half turns, so such a pair is not worth a product.
        if len(run) > 2 or len(run) == 2 and run[0][0] == run[1][0]:
            product = QUATERNION_ONE
            for axis, angle in run:
                product = quaternion_turn(product, axis, angle)
            steps, k = _xzx_steps(*euler_xzx_angles(product))
            if len(steps) < len(run):
                run = steps
                turns += k
        for axis, angle in run:
            add("local", q, axis, angle)

    for kind, q, axis, angle in zip(*gates.columns()):
        if kind == "local":
            if q in framed and axis != "z":
                angle = -angle
            held.setdefault(q, []).append((axis, angle))
        elif kind == "zz":
            r = math.remainder(angle, 2 * _PI)
            m = round((angle - r) / (2 * _PI))
            phase = math.remainder(phase - _HALF_PI * m, 2 * _PI)
            if m % 2:
                framed ^= {q, q + 1}
            if r:
                release(q)
                release(q + 1)
                add("zz", q, None, r)
        else:
            # reduced at every step: a sum that grows to hundreds of
            # radians would carry its rounding into the matrix
            phase = math.remainder(phase + angle, 2 * _PI)
    for q in framed:
        held.setdefault(q, []).append(("z", _PI))
    for q in sorted(held):
        release(q)
    phase = math.remainder(phase + _PI * (turns % 2) + _HALF_PI * len(framed),
                           2 * _PI)
    if phase:
        out.add("phase", 0, None, phase)
    return out


def flatten(tree: GateTree) -> GateList:
    """Lower a gate tree to a gate list, in columns.

    Euler leaves become up to three rotations, and commuting-family
    evolutions, the two-spin ``{XX, YY, ZZ}`` middle among them, go
    through :func:`cartan_evolution_gates` (a parity network or one
    ladder per string).  One peephole pass then merges each spin's runs
    of rotations between couplings and gathers the global phase at the
    end.  The output reproduces ``evaluate`` of the tree exactly (up to
    float accumulation, checked in the test-suite at ``1e-8``).
    """
    return _merge_local_runs(_lower(tree))


def compile_unitary(u: np.ndarray) -> GateList:
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
    change sign, and so does every coupling with one flipped end.  The
    frame appends its pulses and delays to the program's columns."""

    def __init__(self, program: PulseProgram):
        self.program = program
        self.flipped = [False] * (program.chain.n + 1)  # by spin; index 0 unused
        self.pulses = 0

    def toggle(self, spins) -> None:
        """One x pi-pulse on each of ``spins``."""
        flipped = self.flipped
        for s in spins:
            flipped[s] = not flipped[s]
            self.program.add("pulse", s, "x", _PI)
        self.pulses += len(spins)

    def delay(self, t: float) -> None:
        self.program.add("delay", 0, None, t)

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
            self.delay(t)
            return
        self.delay(t / 2)
        self.refocus(thetas)
        self.delay(t / 2)

    def restore(self) -> None:
        """Toggle every spin that is still flipped."""
        self.toggle([q for q, f in enumerate(self.flipped) if f])


def _place(gates: GateList, chain: ChainSpec) -> tuple[dict, float]:
    """ASAP list schedule of a gate list: ``(at, phase)``.

    ``at`` maps each start time to the rotations and couplings that
    start then, in list order; a rotation is its index in the list, a
    coupling is ``(left, theta, t)`` with ``theta`` reduced mod ``4*pi``
    and nonzero and ``t`` its duration in seconds.  Every coupling's
    end, ``start + t``, is a key, so the keys are the breakpoints of the
    schedule.  A gate moves only past gates it commutes with: a coupling
    waits for the last x or y rotation on its two spins and for the
    previous coupling on its pair, an x or y rotation for every earlier
    gate on its spin, and a z rotation only for the last x or y rotation
    on its spin; ties keep list order.  ``phase`` sums the global
    phases, the ``-1`` of every ``4*pi`` removed among them."""
    n, js = chain.n, chain.couplings
    xy = [0.0] * (n + 1)    # by spin: time of the last x or y rotation
    busy = [0.0] * (n + 1)  # by spin: end of the last gate
    pair_end = [0.0] * n    # by pair: end of the last coupling
    at: dict[float, list] = {0.0: []}
    phase = 0.0
    for i, (kind, q, axis, angle) in enumerate(zip(*gates.columns())):
        if kind == "local":
            if q > n:
                raise DimensionError(
                    f"gate on spin {q} exceeds chain size {n}")
            if axis == "z":
                t = xy[q]
            else:
                t = xy[q] = busy[q]
            at.setdefault(t, []).append(i)
        elif kind == "zz":
            if q + 1 > n:
                raise DimensionError(
                    f"coupling on pair {(q, q + 1)} exceeds chain size {n}")
            theta = math.remainder(angle, 4 * _PI)
            phase = math.remainder(
                phase + _PI * round((angle - theta) / (4 * _PI)), 2 * _PI)
            if theta == 0:
                continue
            start = max(xy[q], xy[q + 1], pair_end[q])
            t = abs(theta) / (2 * _PI * js[q - 1])
            end = pair_end[q] = start + t
            busy[q], busy[q + 1] = max(busy[q], end), max(busy[q + 1], end)
            at.setdefault(start, []).append((q, theta, t))
            at.setdefault(end, [])
        else:
            phase = math.remainder(phase + angle, 2 * _PI)
    return at, phase


def synthesize_pulses(gates: GateList, chain: ChainSpec) -> PulseProgram:
    """Lower a time-ordered gate list onto a chain, as a program in
    columns.

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
    program = PulseProgram(chain)
    frame = _Frame(program)
    flipped = frame.flipped
    sites, turn_axes, angles = gates.sites, gates.axes, gates.values
    thetas: dict[int, float] = {}  # by active pair: its angle
    todo: dict[int, float] = {}    # by active pair: seconds still to run
    ending: dict[float, list[int]] = {}  # by clock time: pairs that end then
    times = sorted(at)
    for now, then in zip(times, times[1:] + [None]):
        for k in ending.pop(now, ()):
            del thetas[k], todo[k]
        for item in at[now]:
            if type(item) is int:
                # the pulse that realizes the rotation in this frame
                q, axis, angle = sites[item], turn_axes[item], angles[item]
                program.add("pulse", q, axis,
                                -angle if axis != "x" and flipped[q] else angle)
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
    return sum(t for kind, t in zip(program.kinds, program.values)
               if kind == "delay")


def pulse_count(program: PulseProgram) -> int:
    return program.kinds.count("pulse")
