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
  returns by the shorter way, when
  :func:`~kakpulse.networks.lowering_route` finds it cheaper.
* The tree lowering :func:`flatten`, which turns the gate tree of
  :func:`~kakpulse.kak.decompose` into one gate list: Euler leaves
  become up to three rotations and commuting layers go through the
  family lowering; the ``MAXIMAL`` two-spin middle ``{XX, YY, ZZ}``
  takes one ladder per string.  A peephole pass then holds each spin's
  rotations until the next coupling that touches it and replaces a run
  by its x-z-x Euler triple when that is shorter (folding an outer turn
  that only rounding keeps, :func:`_run_steps`), so no spin receives
  more than three rotations between two couplings.  It
  also folds every coupling angle into ``[-pi, pi]``.  Rotations of at
  most :data:`TOL_ROTATION` (rounding noise) are left out.  This is the
  one place where the emitted gauge is chosen.
* A scheduler that lowers a gate list onto a concrete chain with
  always-on couplings.  Couplings commute with each other and with z
  rotations, so it places every gate as early as the gates it does not
  commute with allow, and commuting couplings share delays; x pi-pulses
  refocus each pair's drift over each epoch to what its couplings need.
  Every time it keeps is an integer on one exact clock, and only a
  delay it writes is in seconds: drift with no pulse between is one
  delay.  Between two delays each spin gets at most two pulses, and its
  trailing z turn rides through the delays.

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

The scheduler's refocusing rule is one sign plan over the whole
program.  A ``pi`` x-pulse on a spin flips the sign of the couplings
beside it, and the flips are not undone: the scheduler keeps them as a
Pauli frame, the per-spin flip state that the simulator also tracks, in
which a coupling's sign is ``(-1)**(f_k xor f_(k+1))``.  A pair's drift
commutes with everything but the x and y rotations on its two spins, so
between two of those, an epoch, only the integral of its sign matters:
it must equal the signed time of the pair's couplings there, and zero
where it has none.  An epoch that its couplings do not fill gets one
switch, at the time that makes the integral right, and at each switch
the scheduler toggles the cheapest set of spins that switches every
pair then due and keeps every pair whose sign is settled (for a lone
active pair in a delay of its own, every spin at odd distance from it).
A y or z rotation on a flipped spin is taken with its angle negated.
The program ends by flipping back every spin that is still flipped.
Each flip is ``-+1j*sigma_x``, tracked in the program's global phase.

Pulses are written a gap at a time, a gap being the stretch between two
delays.  The frame holds the drift in ticks and writes it as one delay
just before the next pulse it writes, so a run of turns that fuses to
no pulse does not split a delay.  Each spin's rotations and toggles in
a gap are one SU(2) product, flushed at the next delay as ``z(c)`` then
``x(b)`` of its z-x-z angles, or as a single x or y pulse when ``c`` is
a multiple of ``pi/2``; its last z turn ``Rz(a)`` commutes with the
drift and is carried to the next gap, the z frame of NMR practice
(Vandersypen & Chuang, Rev. Mod. Phys. 76, 1037 (2004)), and written
when the program ends.  A gap of toggles and z turns only writes an
exact x ``pi`` pulse or nothing, so the simulator still reads it as a
flip.  A toggle on a spin that has an x or y rotation in its gap costs
no pulse, and the sign plan's switch sets count it so.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, ValidationError
from .gates import ChainSpec, GateList, PulseProgram
from .kak import (CartanNode, EulerNode, GateTree, PhaseNode, SequenceNode,
                  _folded_outer_turn, _xzx_quaternion, decompose,
                  euler_xzx_angles)
from .linalg import QUATERNION_ONE, _reduced, euler_zxz, quaternion_turn
from .networks import (TOL_COEFF, Route, lowering_route, parity_image,
                       parity_points)
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
        # exp(-1j * c * B) repeats when c grows by 4*pi
        c = _reduced(coeffs[index], 4 * _PI)
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
    identity for a closed one), which holds each string's parity
    (:func:`~kakpulse.networks.check_route`): the network with each
    string rotated once at its step, then one global phase that cancels
    the CNOTs' ``exp(1j*pi/4)`` factors."""
    points = parity_points(route, k)
    at_step: dict[int, list[Row]] = {}
    for index, letters in enumerate(pattern):
        step, site, on_pair = points[parity_image(letters)]
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


def cartan_evolution_gates(element: CartanElement,
                           route: Route | None = None) -> GateList:
    """Gates for ``exp(-1j * H)`` with ``H`` a commuting-family element;
    coefficients of magnitude at most :data:`TOL_COEFF` are dropped.

    The element is lowered along its
    :func:`~kakpulse.networks.lowering_route`.  A ``route`` (an open cut
    that :func:`~kakpulse.kak.decompose` recorded) has no return, so the
    gates realize ``P exp(-1j*H)`` with ``P`` the route's end map.  An
    ``OUTER_X`` element is the ``DIAGONAL`` element with the same
    coefficients between ``Ry(-pi/2)`` and ``Ry(pi/2)`` on the last spin.
    With no route (always for ``MAXIMAL``, and for a leading-spin Z
    string whose parity the full route never holds) the family commutes,
    so the exponential splits into one string evolution per coefficient,
    emitted in canonical family order.

    The gates come from a template cached per family, spin count, route
    and set of nonzero strings, whose open angles are filled from the
    coefficients.
    """
    return _lower(CartanNode(element, route))  # the node checks the route


# ---------------------------------------------------------------------------
# Gate trees


def _fold(angle: float) -> tuple[float, int]:
    """``(r, m)`` with ``angle = r + 2*pi*m`` and ``r`` in ``[-pi, pi]``:
    a turn by ``angle`` is ``(-1)**m`` times the turn by ``r``."""
    r = math.remainder(angle, 2 * _PI)
    return r, round((angle - r) / (2 * _PI))


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
        r, m = _fold(angle)
        turns += m
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
        steps, turns = _xzx_steps(*tree.reduced_angles())
        for axis, angle in steps:
            out.add("local", tree.qubit, axis, angle)
        if turns % 2:
            out.add("phase", 0, None, _PI)
    elif isinstance(tree, PhaseNode):
        out.add("phase", 0, None, tree.phi)
    elif isinstance(tree, CartanNode):
        element = tree.element
        items = [(s, c) for s, c in element.items() if abs(c) > TOL_COEFF]
        pattern = tuple(s.letters for s, _ in items)
        route = lowering_route(element, tree.route)
        _emit(out, _strings_template(pattern) if route is None
              else _family_template(element.family, element.n, route, pattern),
              [c for _, c in items])
    else:
        raise ValidationError(f"unknown tree node {tree!r}")


def _run_steps(q) -> tuple[list[tuple[str, float]], int]:
    """:func:`_xzx_steps` of a run's product ``q``, a unit quaternion.

    Rounding in a product whose outer x turn is near zero comes back
    about ``1 / |sin(beta/2)|`` times in that turn, so where the steps
    keep all three turns, that turn is folded through the z turn into
    the other (:func:`~kakpulse.kak._folded_outer_turn`) if this moves
    ``q`` by no more than a left-out turn of :data:`TOL_ROTATION` would."""
    angles = euler_xzx_angles(q)
    steps, turns = _xzx_steps(*angles)
    if len(steps) == 3:
        folded = _folded_outer_turn(*angles)
        if folded is not None and max(abs(x - y) for x, y in zip(
                _xzx_quaternion(*folded), q)) <= TOL_ROTATION / 2:
            return _xzx_steps(*folded)
    return steps, turns


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
            steps, k = _run_steps(product)
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
            phase = math.remainder(phase + _reduced(angle, 2 * _PI), 2 * _PI)
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


# What one instant of the sign plan asks of a pair: a due pair must switch
# its frame sign now, a settled one must keep it to the end of its epoch,
# and a pending one may switch early, which moves its own switch later.
_DUE, _SETTLED, _PENDING = range(3)


@functools.lru_cache(maxsize=None)
def _switch_set(pattern: tuple[int, ...], free: int) -> tuple[int, ...]:
    """The spins to toggle at one instant of the sign plan, in order.

    ``pattern[k - 1]`` is the state of pair ``(k, k+1)``: a due pair gets
    exactly one toggled spin, a settled pair none or both, and a pending
    pair either, one being a move.  A spin whose bit is set in ``free``
    costs no pulse (it has an x or y rotation in this gap, into which
    its toggle fuses).  The set is the cheapest by pulses, then moves,
    then toggles: each count is below ``w = n + 1``, so one integer,
    ``pulses*w**2 + moves*w + toggles``, orders the sets.  A two-state
    pass back along the chain finds the least cost of each tail, and the
    set is read off forwards; on a tie it toggles the lowest spin where
    the candidates differ."""
    n = len(pattern) + 1
    w = n + 1
    # ahead[q][x]: the least cost of spins q..n, spin q toggled iff x;
    # spin n is settled with a spin n + 1 that costs nothing
    ahead = [(0, 0)] * (n + 2)
    for q in range(n, 0, -1):
        a0, a1 = ahead[q + 1]
        state = pattern[q - 1] if q < n else _SETTLED
        r0, r1 = ((min(a0, a1 + w), min(a1, a0 + w)) if state == _PENDING
                  else (a1, a0) if state == _DUE else (a0, a1))
        ahead[q] = r0, r1 + (free >> q & 1 ^ 1) * w * w + 1
    x = int(ahead[1][1] <= ahead[1][0])
    spins = [1] if x else []
    for q in range(2, n + 1):
        state = pattern[q - 2]
        if state == _PENDING:
            a0, a1 = ahead[q]
            x = int(a1 + w * (x ^ 1) <= a0 + w * x)
        elif state == _DUE:
            x ^= 1
        if x:
            spins.append(q)
    return tuple(spins)


class _Frame:
    """Per-spin x-flip state of a program being written: the Pauli frame
    that :func:`~kakpulse.simulate._frame_unitary` tracks when it reads
    the program back.  On a flipped spin, ``sigma_z`` and ``sigma_y``
    change sign, and so does every coupling with one flipped end.  The
    frame appends its pulses and delays to the program's columns.

    Between two delays the frame only holds.  A spin's turns there, its
    rotations (a y or z one negated on a flipped spin) and its toggles
    (``Rx(pi)``), after the z turn ``Rz(a)`` it carries in, are one
    SU(2) product ``V``.  Until its first x or y rotation ``V`` is
    ``Rz(a)``, or ``Rz(a) Rx(pi)`` after an odd number of toggles (bit
    ``q`` of ``toggled``): a z turn adds to ``a``, and a toggle negates
    it (``Rx(pi) Rz(a) = Rz(-a) Rx(pi)``).  From that rotation on the
    spin is ``free`` (bit ``q`` of the mask; a toggle there costs no
    pulse) and ``V = Q Rz(a)``: the unit quaternion ``Q`` starts at the
    rotation, after the held toggle if there is one, and each later turn
    and toggle multiplies it.  At the delay ``Q = Rz(e) Rx(b) Rz(c -
    a)`` gives ``V = Rz(e) Rx(b) Rz(c)``, written as ``z(c)`` then
    ``x(b)``, or as one x or y pulse when ``c`` is a multiple of
    ``pi/2``, and any other spin writes an odd toggle count as one exact
    x ``pi`` pulse.  ``Rz(e)``, which commutes with the drift, is
    carried into the next gap, and the restore writes what is still
    carried.  Every toggle is ``-+1j*sigma_x`` and every ``2*pi`` taken
    off an angle a ``-1``, both counted in ``quarters``.

    Drift is held in ticks (``pending``) and written as one delay,
    rounded to seconds once, just before the next pulse a flush writes or
    by the restore.  A piece of a cell is written on its own: the two
    halves of a cell stay equal."""

    def __init__(self, program: PulseProgram):
        self.program = program
        self.columns = program.columns()
        n = program.chain.n
        self.flipped = [False] * (n + 1)  # by spin; index 0 unused
        self.quarters = 0
        self.carried = [0.0] * (n + 1)  # by spin: its z turn
        self.toggled = 0
        # by free spin: Q, the quaternion of its turns from its first x
        # or y rotation on
        self.held: dict[int, tuple[float, float, float, float]] = {}
        self.free = 0
        self.pending = 0  # ticks of drift not yet written

    def turns(self, run: list[int], gates: GateList) -> None:
        """Hold the rotations ``run``, indices into ``gates``."""
        flipped, carried, held = self.flipped, self.carried, self.held
        spins, turn_axes, angles = gates.sites, gates.axes, gates.values
        period = 4 * _PI
        for i in run:
            q, axis, t = spins[i], turn_axes[i], angles[i]
            if not -period <= t <= period:
                t = _reduced(t, period)
            if axis != "x" and flipped[q]:
                t = -t
            if q in held:
                held[q] = quaternion_turn(held[q], axis, t)
            elif axis == "z":
                a = carried[q] + t
                carried[q] = a if -period <= a <= period else math.remainder(
                    a, period)
            else:
                # Rz(a) Rx(pi) = Rx(pi) Rz(-a): Q starts at Rx(pi), the
                # quaternion (0, 1, 0, 0), and the z turn stays carried
                start = QUATERNION_ONE
                if self.toggled >> q & 1:
                    start, carried[q] = (0.0, 1.0, 0.0, 0.0), -carried[q]
                    self.toggled ^= 1 << q
                held[q] = quaternion_turn(start, axis, t)
                self.free |= 1 << q

    def toggle(self, spins) -> None:
        """Hold one x pi-pulse on each of ``spins``."""
        flipped, carried, held = self.flipped, self.carried, self.held
        for s in spins:
            flipped[s] = not flipped[s]
            if s in held:
                w, x, y, z = held[s]
                held[s] = (-x, w, -z, y)  # Rx(pi) V, exactly
                self.quarters += 1
            else:
                carried[s] = -carried[s]
                # two toggles are Rx(2*pi) = -1
                self.quarters += -1 if self.toggled >> s & 1 else 1
                self.toggled ^= 1 << s

    def flush(self) -> None:
        """Write what each spin holds, at most two pulses, after the drift
        held so far."""
        kinds, sites, axes, values = self.columns
        toggled = self.toggled
        if toggled and self.pending:
            self.write_delay()
        while toggled:
            q = (toggled & -toggled).bit_length() - 1
            toggled &= toggled - 1
            kinds.append("pulse")
            sites.append(q)
            axes.append("x")
            values.append(_PI)
        carried = self.carried
        for q, v in self.held.items():
            a, b, c = euler_zxz(v)  # of Q; V = Q Rz(carried)
            c = math.remainder(c + carried[q], 4 * _PI)
            if v[0] == v[3] == 0:
                # b is pi, and Rx(pi) Rz(c) = Rz(-c) Rx(pi)
                a, c = a - c, 0.0
            if b <= TOL_ROTATION:
                carried[q] = a + c
                continue
            if self.pending:
                self.write_delay()
            k = round(c / _HALF_PI)
            if -TOL_ROTATION <= c - k * _HALF_PI <= TOL_ROTATION:
                # Rx(b) Rz(k*pi/2) = Rz(k*pi/2) R(b) about x, -y, -x or y
                carried[q] = a + k * _HALF_PI
                k %= 4
                kinds.append("pulse")
                sites.append(q)
                axes.append("xyxy"[k])
                values.append(-b if k == 1 or k == 2 else b)
            else:
                carried[q] = a
                c, m = _fold(c)
                self.quarters += 2 * m
                kinds += ("pulse", "pulse")
                sites += (q, q)
                axes += ("z", "x")
                values += (c, b)
        self.held, self.free, self.toggled = {}, 0, 0

    def delay(self, ticks: int, cell: bool = False) -> None:
        """Hold ``ticks`` of drift, a piece of a cell if ``cell``."""
        if ticks > 0:
            if self.held or self.toggled:
                self.flush()
            if cell:
                self.write_delay()
                self.program.add("delay", 0, None, ticks / _TICK)
            else:
                self.pending += ticks

    def write_delay(self) -> None:
        """Write the drift held so far as one delay."""
        if self.pending:
            self.program.add("delay", 0, None, self.pending / _TICK)
            self.pending = 0

    def restore(self) -> None:
        """Toggle every spin that is still flipped, write the drift held
        and what is held, then each z turn still carried."""
        self.toggle([q for q, f in enumerate(self.flipped) if f])
        self.flush()
        self.write_delay()
        for q, a in enumerate(self.carried):
            a, m = _fold(a)
            self.quarters += 2 * m
            if abs(a) > TOL_ROTATION:
                self.program.add("pulse", q, "z", a)


def _place(gates: GateList, chain: ChainSpec) -> tuple[dict, float]:
    """ASAP list schedule of a gate list: ``(at, phase)``, with every
    time in ticks of the scheduler's exact clock (:func:`_ticks`).

    ``at`` maps each start tick to the rotations and couplings that
    start then, in list order; a rotation is its index in the list, a
    coupling is ``(left, theta, end)`` with ``theta`` reduced mod
    ``4*pi`` and nonzero and ``end`` its start plus its duration,
    ``|theta| / (2*pi*J)`` seconds.  Every coupling's end is a key, so
    the keys are the breakpoints of the schedule.  A gate moves only
    past gates it commutes with: a coupling waits for the last x or y
    rotation on its two spins and for the previous coupling on its
    pair, an x or y rotation for every earlier gate on its spin, and a
    z rotation only for the last x or y rotation on its spin; ties keep
    list order.  ``phase`` sums the global phases, the ``-1`` of every
    ``4*pi`` removed among them."""
    n, js = chain.n, chain.couplings
    xy = [0] * (n + 1)    # by spin: tick of the last x or y rotation
    busy = [0] * (n + 1)  # by spin: end of the last gate
    pair_end = [0] * n    # by pair: end of the last coupling
    at: dict[int, list] = {0: []}
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
            end = pair_end[q] = start + _ticks(
                abs(theta) / (2 * _PI * js[q - 1]))
            busy[q], busy[q + 1] = max(busy[q], end), max(busy[q + 1], end)
            at.setdefault(start, []).append((q, theta, end))
            at.setdefault(end, [])
        else:
            phase = math.remainder(phase + angle, 2 * _PI)
    return at, phase


# A stretch whose largest drift turn, 2*pi*J*t, exceeds this many radians
# is a cell of its own: its switches fall at 0 or exactly t/2, so the
# simulator's turns of its two halves are equal and cancel bit for bit.
# Elsewhere a switch splits a delay unequally and each piece's turn is
# rounded on its own, an error that grows with the turn: at 4096 rad
# programs on chains whose couplings span 1e-6..1e6 Hz drifted 5e-13 from
# their gate lists, at 16 rad they stay at the 7e-15 of exact halves.  No
# stretch of a chain whose couplings differ by less than a factor of 2.5
# turns that far, since a reduced coupling runs at most 2*pi rad.
_CELL_TURN = 16.0

# The scheduler's clock counts ticks of 2**-_TICK_BITS seconds, an even
# number of them for every float (the smallest is 2**-1074 s), so it
# adds, subtracts and halves times exactly.  A breakpoint is a sum of many
# couplings' times and a switch is due at a sum of many stretches'; on a
# float clock their rounding moved switches from where their epochs need
# them, and programs drifted 8e-10 from a seven-spin Haar target (against
# 3e-11 here) and 3e-4 from their gate lists on chains whose couplings
# span 1e-6..1e6 Hz.
_TICK_BITS = 1075
_TICK = 1 << _TICK_BITS


def _ticks(t: float) -> int:
    """``t`` seconds on the scheduler's clock, exactly."""
    m, d = t.as_integer_ratio()
    return m << (_TICK_BITS + 1 - d.bit_length())


def _timeline(gates: GateList, chain: ChainSpec,
              at: dict) -> tuple[list, list[list[tuple[int, int]]]]:
    """The sweep over the breakpoints of :func:`_place`: ``(steps,
    epochs)``, with pairs indexed from 0 (pair ``(k, k+1)`` is ``k - 1``)
    and times in ticks.

    A step is a run of rotations, as a list of indices into ``gates``,
    or a stretch of drift, ``(start, stop, opens, cell)``, from one
    breakpoint to the next, with ``opens`` the pairs whose next epoch
    starts with it.  At each breakpoint the rotations that start there
    come first, in list order, then the stretch to the next breakpoint,
    in which every coupling that started and has not ended runs.  A
    stretch whose largest drift turn exceeds :data:`_CELL_TURN` is a
    cell.

    ``epochs[i]`` lists each epoch of pair ``i`` in turn as ``(stop,
    coupling)``: the tick at its end, the next x or y rotation on the
    pair's spins or a cell, and the signed time its couplings run in
    it."""
    m = chain.n - 1  # pairs
    widest = 2 * _PI * max(chain.couplings, default=0.0)
    sites, turn_axes = gates.sites, gates.axes
    steps: list = []
    epochs: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    signed = [0] * m      # by pair: the signed time its couplings ran
    since: list = [None] * m  # by pair: `signed` when its epoch opened
    opening = set(range(m))   # pairs whose epoch ended
    run: list[int] = []
    running: dict[int, tuple[float, int]] = {}  # by pair: angle and end
    times = sorted(at)
    for now, then in zip(times, times[1:] + [None]):
        for item in at[now]:
            if type(item) is int:
                run.append(item)
                if turn_axes[item] != "z":
                    q = sites[item]
                    if q > 1:
                        opening.add(q - 2)
                    if q <= m:
                        opening.add(q - 1)
                continue
            k, theta, end = item
            running[k - 1] = theta, end
        running = {i: r for i, r in running.items() if r[1] > now}
        if not running:
            continue
        if run:
            steps.append(run)
            run = []
        cell = widest * ((then - now) / _TICK) > _CELL_TURN
        if cell:
            opening.update(range(m))
        for i in opening:
            if since[i] is not None:
                epochs[i].append((now, signed[i] - since[i]))
            since[i] = signed[i]
        steps.append((now, then, tuple(opening), cell))
        opening.clear()
        for i, (theta, _) in running.items():
            signed[i] += then - now if theta > 0 else now - then
        if cell:
            opening.update(range(m))
    if run:
        steps.append(run)
    for i in range(m):
        if since[i] is not None:
            epochs[i].append((times[-1], signed[i] - since[i]))
    return steps, epochs


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
    as the gates it does not commute with allow, and :func:`_timeline`
    cuts the axis into stretches of drift at the coupling ends.  The
    program lasts the critical path of the gate list, never more than
    the sum of its couplings' times.

    Refocusing is one sign plan over the whole program.  An epoch of a
    pair is its drift between two x or y rotations on its spins; only z
    rotations and couplings, which commute with its drift, fall inside
    it.  So the pair's frame sign need only integrate, over each epoch
    of length ``L``, to the signed time ``tau`` of its couplings there.
    An epoch entered with sign ``p`` that its couplings do not fill gets
    one switch, due ``(L + p*tau) / 2`` into it.  At each instant where
    a switch falls due, :func:`_switch_set` toggles the cheapest spins
    that switch every due pair and keep every settled one; it may pull
    a pending pair's switch, due ``x`` into its epoch, forward to now,
    ``y``, and that pair's switch then falls due at ``y + L - x``.

    Every time, from the breakpoints to the switches, is an integer on
    one exact clock (:func:`_ticks`), so a switch lands where its epoch
    needs it however long the epoch.  A switch is an offset inside one
    stretch's delay, which it splits; delays are never lengthened, and
    each run of drift with no pulse between is one delay, rounded to
    seconds once, where the frame writes it, just before the next
    pulse.  A cell (see :func:`_timeline`)
    bounds every epoch on both sides, so its switches fall at 0 or
    exactly half its delay, and its pieces are written on their own.

    :class:`_Frame` writes the rotations and toggles, fused, and the
    delays, and the restore at the end.
    """
    at, phase = _place(gates, chain)
    steps, epochs = _timeline(gates, chain, at)
    program = PulseProgram(chain)
    frame = _Frame(program)
    flipped = frame.flipped
    upcoming = [iter(e) for e in epochs]
    inf = math.inf
    # by pair, indexed from 0: when its switch falls due (inf once
    # settled) and when its epoch ends
    due: list = [inf] * (chain.n - 1)
    end = [0] * (chain.n - 1)
    for step in steps:
        if type(step) is list:
            frame.turns(step, gates)
            continue
        start, stop, opens, cell = step
        for i in opens:
            end[i], tau = next(upcoming[i])
            span = end[i] - start
            p = -1 if flipped[i + 1] != flipped[i + 2] else 1
            switch = (span + p * tau) >> 1  # (L + p*tau) / 2, exactly
            due[i] = start + switch if switch < span else inf
        done = start  # the tick that the stretch's delays reach
        now = min(due)
        while now < stop:
            frame.delay(now - done, cell)
            done = now
            pattern = tuple([_SETTLED if d == inf else
                             _DUE if d == now else _PENDING for d in due])
            spins = _switch_set(pattern, frame.free)
            frame.toggle(spins)
            for i, d in enumerate(due):
                if d == now:
                    due[i] = inf
                elif d != inf and (i + 1 in spins) != (i + 2 in spins):
                    # pulled forward: the rest of its switch moves later
                    due[i] = now + (end[i] - d)
            now = min(due)
        frame.delay(stop - done, cell)
    frame.restore()
    program.phase = math.remainder(phase + _HALF_PI * (frame.quarters % 4),
                                   2 * _PI)
    return program


def total_coupling_time(program: PulseProgram) -> float:
    """Sum of all delay durations in seconds."""
    return sum(t for kind, t in zip(program.kinds, program.values)
               if kind == "delay")


def pulse_count(program: PulseProgram) -> int:
    return program.kinds.count("pulse")
