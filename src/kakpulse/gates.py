"""Primitive gate and pulse vocabulary for a linear chain.

Only three gate kinds exist: single-spin rotations, nearest-neighbour
ZZ coupling evolutions, and global phases.  Gate *lists* are always in
time order (first element acts first); the matrix of a list is the
reversed product.

The chain a program runs on is a :class:`ChainSpec` (spin count and
always-on couplings), and a :class:`PulseProgram` is a time-ordered
list of events on it: hard pulses, which are instantaneous
:class:`LocalRotation` s (``HardPulse`` names the same class), and
:class:`Delay` s of free evolution under every coupling at once.  The
lowering in :mod:`~kakpulse.pulses` writes these and the simulator in
:mod:`~kakpulse.simulate` reads them, so neither depends on the other.

Column forms and views
----------------------
A gate list and a pulse program are each held as parallel columns,
plain Python lists with one entry per gate or event, since every stage
walks them in a Python loop:

* :class:`GateList`: ``kinds`` (``"local"``, ``"zz"`` or ``"phase"``,
  as the JSON spells them), ``sites`` (the rotated spin, the left spin
  ``k`` of the coupled pair ``(k, k+1)``, or 0 for a phase), ``axes``
  (``"x"``, ``"y"`` or ``"z"``, or None) and ``angles`` (the rotation
  or coupling angle, or the phase).
* :class:`PulseProgram`: ``kinds`` (``"pulse"`` or ``"delay"``),
  ``qubits`` (the pulsed spin, or 0), ``axes`` (or None) and ``values``
  (the pulse angle, or the delay in seconds), beside its ``chain`` and
  ``phase``.

The readers check every item as the classes above check their fields,
with the same messages.  The columns the lowering builds are trusted,
so it checks a tree leaf's spin and phase itself, with the same
messages; ``add`` appends an entry unchecked.
:class:`LocalRotation`, :class:`CouplingEvolution`, :class:`GlobalPhase`
and :class:`Delay` are views: iterating a :class:`GateList` or reading
:attr:`PulseProgram.events` builds them on demand, and either column
form can be built from them.  Every function that takes a gate list
takes a :class:`GateList` or any iterable of those views.

JSON forms
----------
:func:`gate_list_to_json_text` and :meth:`PulseProgram.to_json_text`
write the artifacts from the columns, as canonical JSON text: keys in
sorted order, no whitespace, each number spelled as ``json.dumps``
spells it.  :func:`gate_list_from_json` and
:meth:`PulseProgram.from_json_dict` read them back.

* A gate list is an array of gates, each one of
  ``{"angle": a, "axis": "x"|"y"|"z", "kind": "local", "q": q}``,
  ``{"angle": a, "kind": "zz", "pair": [k, k + 1]}`` and
  ``{"kind": "phase", "phi": phi}``.
* A pulse program is ``{"chain": {"J": [J_1, ...], "n": n}, "events":
  [...], "phase": phi}``, each event one of
  ``{"angle": a, "axis": "x"|"y"|"z", "kind": "pulse", "q": q}`` and
  ``{"kind": "delay", "t": seconds}``.

Conventions
-----------
* ``LocalRotation(q, axis, angle)`` realizes ``exp(-1j * angle * I_axis)``
  on spin ``q`` with ``I_axis = sigma_axis / 2``; angles are radians and
  a ``2*pi`` rotation equals ``-1``.
* ``CouplingEvolution(left, angle)`` realizes
  ``exp(-1j * angle * I_z I_z)`` on the pair ``(left, left + 1)``.  Note
  the period in ``angle`` is ``8*pi`` and the value at ``4*pi`` is
  ``-identity``, because the generator has eigenvalues ``+-1/4``.  The
  angle may have either sign: the scheduler keeps a frame of x pi-flips
  and flips the left spin first when the frame's sign on the pair
  disagrees with the angle's.
* ``GlobalPhase(phi)`` multiplies by ``exp(1j * phi)``.

Spins are 1-based; spin 1 is the leftmost Kronecker factor.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Union

from .errors import (DimensionError, RangeError, ValidationError, _json_array,
                     _json_float, _json_int, _json_number, _json_numbers)
from .linalg import AXES


@dataclass(frozen=True)
class LocalRotation:
    """``exp(-1j * angle * sigma_axis / 2)`` on one spin."""

    qubit: int
    axis: str
    angle: float

    def __post_init__(self):
        if self.qubit < 1:
            raise ValidationError(f"spin index must be >= 1, got {self.qubit}")
        if self.axis not in AXES:
            raise ValidationError(f"axis must be one of {AXES}, got {self.axis!r}")
        if not math.isfinite(self.angle):
            raise ValidationError("rotation angle must be finite")

    def inverse(self) -> "LocalRotation":
        return LocalRotation(self.qubit, self.axis, -self.angle)


@dataclass(frozen=True)
class CouplingEvolution:
    """``exp(-1j * angle * I_z I_z)`` on the pair ``(left, left + 1)``."""

    left: int
    angle: float

    def __post_init__(self):
        if self.left < 1:
            raise ValidationError(f"pair index must be >= 1, got {self.left}")
        if not math.isfinite(self.angle):
            raise ValidationError("coupling angle must be finite")

    @property
    def pair(self) -> tuple[int, int]:
        return (self.left, self.left + 1)

    def inverse(self) -> "CouplingEvolution":
        return CouplingEvolution(self.left, -self.angle)


@dataclass(frozen=True)
class GlobalPhase:
    """Multiply the circuit by ``exp(1j * phi)``."""

    phi: float

    def __post_init__(self):
        if not math.isfinite(self.phi):
            raise ValidationError("phase must be finite")

    def inverse(self) -> "GlobalPhase":
        return GlobalPhase(-self.phi)


Gate = Union[LocalRotation, CouplingEvolution, GlobalPhase]


class GateList:
    """A time-ordered gate list as four parallel columns: ``kinds``,
    ``sites``, ``axes`` and ``angles`` (see the module docstring).

    ``GateList(gates)`` builds the columns from :data:`Gate` views, and
    iterating yields the views back; a list of views compares equal to
    the gate list they make."""

    __slots__ = ("kinds", "sites", "axes", "angles")

    def __init__(self, gates: Iterable[Gate] = ()):
        self.kinds: list[str] = []
        self.sites: list[int] = []
        self.axes: list[str | None] = []
        self.angles: list[float] = []
        for g in gates:
            if isinstance(g, LocalRotation):
                self.add("local", g.qubit, g.axis, g.angle)
            elif isinstance(g, CouplingEvolution):
                self.add("zz", g.left, None, g.angle)
            elif isinstance(g, GlobalPhase):
                self.add("phase", 0, None, g.phi)
            else:
                raise ValidationError(f"unknown gate object {g!r}")

    @classmethod
    def _of(cls, kinds, sites, axes, angles) -> "GateList":
        """The gate list of columns that are already checked."""
        out = cls.__new__(cls)
        out.kinds, out.sites, out.axes, out.angles = kinds, sites, axes, angles
        return out

    def add(self, kind: str, site: int, axis: str | None,
            angle: float) -> None:
        """Append one gate, given as its four column entries."""
        self.kinds.append(kind)
        self.sites.append(site)
        self.axes.append(axis)
        self.angles.append(angle)

    def columns(self) -> tuple[list, list, list, list]:
        return self.kinds, self.sites, self.axes, self.angles

    def __len__(self) -> int:
        return len(self.kinds)

    def __getitem__(self, k: int | slice) -> Gate | "GateList":
        """The view of gate ``k``, or the gate list of a slice."""
        if isinstance(k, slice):
            return GateList._of(*(column[k] for column in self.columns()))
        return _gate_view(self.kinds[k], self.sites[k], self.axes[k],
                          self.angles[k])

    def __iter__(self):
        return map(_gate_view, *self.columns())

    def __eq__(self, other) -> bool:
        if isinstance(other, GateList):
            return self.columns() == other.columns()
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"GateList({list(self)!r})"


def _gate_view(kind: str, site: int, axis: str | None, angle: float) -> Gate:
    if kind == "local":
        return LocalRotation(site, axis, angle)
    if kind == "zz":
        return CouplingEvolution(site, angle)
    return GlobalPhase(angle)


def _as_gate_list(gates: GateList | Iterable[Gate]) -> GateList:
    """``gates`` itself when it is a :class:`GateList`, else the gate
    list of its views."""
    return gates if isinstance(gates, GateList) else GateList(gates)


def inverse_gate_list(gates: GateList | Iterable[Gate]) -> GateList:
    """Time-ordered inverse of a time-ordered gate list: the gates in
    reverse order, each angle and phase negated."""
    kinds, sites, axes, angles = _as_gate_list(gates).columns()
    return GateList._of(kinds[::-1], sites[::-1], axes[::-1],
                        [-a for a in reversed(angles)])


def gate_list_spin_bound(gates: GateList | Iterable[Gate]) -> int:
    """Largest spin index touched (0 for a purely global list)."""
    gates = _as_gate_list(gates)
    return max((site + (kind == "zz")
                for kind, site in zip(gates.kinds, gates.sites)), default=0)


def gate_list_to_json_text(gates: GateList | Iterable[Gate]) -> str:
    """The gate list as JSON text: an array of gate objects (see the
    module docstring), written from the columns one gate at a time with
    the keys already in sorted order."""
    kinds, sites, axes, angles = _as_gate_list(gates).columns()
    out = []
    for kind, site, axis, angle in zip(kinds, sites, axes,
                                       _json_numbers(angles)):
        if kind == "local":
            out.append(f'{{"angle":{angle},"axis":"{axis}",'
                       f'"kind":"local","q":{site}}}')
        elif kind == "zz":
            out.append(f'{{"angle":{angle},"kind":"zz",'
                       f'"pair":[{site},{site + 1}]}}')
        else:
            out.append(f'{{"kind":"phase","phi":{angle}}}')
    return f"[{','.join(out)}]"


def _item_error(exc: Exception, what: str, k: int) -> ValidationError:
    """``exc``, raised while loading item ``k`` of a JSON array, as an
    error that names the index; a validation error keeps its class."""
    if isinstance(exc, ValidationError):
        return type(exc)(f"{what} at index {k}: {exc}")
    return ValidationError(f"malformed {what} at index {k}: {exc}")


# The fields of one JSON item of each kind.  A well-formed item's fields
# are taken as they stand; any other item is read field by field in a
# fixed order, so that its first fault raises the error that names it.

def _rotation_fields(item: dict, what: str) -> tuple[int, str, float]:
    """``(q, axis, angle)`` of a rotation item, checked as
    :class:`LocalRotation` checks them; ``what`` names the spin."""
    try:
        q, axis, angle = item["q"], item["axis"], item["angle"]
        if (type(q) is int and q > 0 and axis in AXES
                and type(angle) is float and -math.inf < angle < math.inf):
            return q, axis, angle
    except KeyError:
        pass
    angle = item["angle"]
    g = LocalRotation(_json_int(item["q"], what), str(item["axis"]),
                      angle if type(angle) is float
                      else _json_float(angle, "angle"))
    return g.qubit, g.axis, g.angle


def _coupling_fields(item: dict) -> tuple[int, float]:
    """``(left, angle)`` of a coupling item, checked as
    :class:`CouplingEvolution` checks them, its pair adjacent."""
    try:
        pair, angle = item["pair"], item["angle"]
        left = pair[0]
        if (type(pair) is list and len(pair) == 2
                and type(left) is int and left > 0
                and type(pair[1]) is int and pair[1] == left + 1
                and type(angle) is float and -math.inf < angle < math.inf):
            return left, angle
    except (KeyError, TypeError, IndexError):
        pass
    left, right = (_json_int(v, "coupling spin") for v in
                   _json_array(item["pair"], "coupling pair"))
    if right != left + 1:
        raise ValidationError(
            f"coupling pair must be adjacent, got [{left}, {right}]")
    angle = item["angle"]
    g = CouplingEvolution(left, angle if type(angle) is float
                          else _json_float(angle, "angle"))
    return g.left, g.angle


def _delay_fields(item: dict) -> float:
    """The duration of a delay item, checked as :class:`Delay` checks
    it."""
    t = item["t"]
    if type(t) is float and 0.0 <= t < math.inf:
        return t
    return Delay(t if type(t) is float else _json_float(t, "delay t")).duration


def gate_list_from_json(data: list[dict]) -> GateList:
    """The gate list of a JSON array of gate objects, in columns.

    Each item is checked as its view checks itself, and a fault names
    the item's index."""
    if not isinstance(data, list):
        raise ValidationError("gate list must be a JSON array")
    out = GateList()
    # appended inline, not by out.add: the call would cost this loop,
    # and the program reader, about 15 %
    kinds, sites, axes, angles = out.columns()
    for item in data:
        try:
            # each branch sets the kind to its literal, not the item's copy
            kind = item["kind"]
            if kind == "local":
                kind = "local"
                q, axis, angle = _rotation_fields(item, "gate spin")
            elif kind == "zz":
                kind, axis = "zz", None
                q, angle = _coupling_fields(item)
            elif kind == "phase":
                kind, q, axis = "phase", 0, None
                angle = GlobalPhase(_json_float(item["phi"], "phase")).phi
            else:
                raise ValidationError(f"unknown gate kind {kind!r}")
        except (KeyError, TypeError, ValueError) as exc:
            # the columns hold one entry per item read before this one
            raise _item_error(exc, "gate", len(kinds)) from exc
        kinds.append(kind)
        sites.append(q)
        axes.append(axis)
        angles.append(angle)
    return out


# ---------------------------------------------------------------------------
# Chains and pulse programs


@dataclass(frozen=True)
class ChainSpec:
    """A linear chain: ``n`` spins, always-on couplings ``J[k]`` in Hz for
    each adjacent pair ``(k, k+1)``."""

    n: int
    couplings: tuple[float, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"chain needs at least one spin, got {self.n}")
        if len(self.couplings) != self.n - 1:
            raise DimensionError(
                f"expected {self.n - 1} couplings for {self.n} spins, "
                f"got {len(self.couplings)}")
        for k, j in enumerate(self.couplings, start=1):
            if not (math.isfinite(j) and j > 0):
                raise RangeError(f"coupling J_{k} must be positive, got {j}")
            # a coupling of |angle| <= 4*pi runs |angle| / (2*pi*J) <= 2 / J
            # seconds, which JSON cannot spell when it is not finite
            if not math.isfinite(2 / j):
                raise RangeError(
                    f"coupling J_{k} must leave 2 / J_{k} finite, got {j}")

    @classmethod
    def uniform(cls, n: int, j: float = 100.0) -> "ChainSpec":
        return cls(n=n, couplings=(float(j),) * (n - 1))

    def coupling(self, left: int) -> float:
        if not 1 <= left <= self.n - 1:
            raise RangeError(f"pair index {left} outside 1..{self.n - 1}")
        return self.couplings[left - 1]

    @classmethod
    def from_json_dict(cls, data: dict) -> "ChainSpec":
        try:
            couplings = _json_array(data["J"], "chain couplings J")
            return cls(n=_json_int(data["n"], "chain size n"),
                       couplings=tuple(_json_float(x, "coupling J")
                                       for x in couplings))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed chain object: {exc}") from exc


# An instantaneous pulse is a local rotation applied at one instant.
HardPulse = LocalRotation


@dataclass(frozen=True)
class Delay:
    """Free evolution under the chain couplings for ``duration`` seconds."""

    duration: float

    def __post_init__(self):
        if not (math.isfinite(self.duration) and self.duration >= 0):
            raise RangeError(
                f"delay must be non-negative and finite, got {self.duration}")


PulseEvent = Union[HardPulse, Delay]


def _event_view(kind: str, q: int, axis: str | None, value: float) -> PulseEvent:
    return HardPulse(q, axis, value) if kind == "pulse" else Delay(value)


class PulseProgram:
    """Time-ordered pulse/delay schedule plus an accumulated global phase.

    The events are four columns, ``kinds``, ``qubits``, ``axes`` and
    ``values`` (see the module docstring); ``PulseProgram(chain,
    events, phase)`` builds them from :data:`PulseEvent` views, and
    :attr:`events` reads the views back."""

    __slots__ = ("chain", "kinds", "qubits", "axes", "values", "phase")

    def __init__(self, chain: ChainSpec, events: Iterable[PulseEvent] = (),
                 phase: float = 0.0):
        self.chain = chain
        self.kinds: list[str] = []
        self.qubits: list[int] = []
        self.axes: list[str | None] = []
        self.values: list[float] = []
        for e in events:
            if isinstance(e, HardPulse):
                self.add("pulse", e.qubit, e.axis, e.angle)
            elif isinstance(e, Delay):
                self.add("delay", 0, None, e.duration)
            else:
                raise ValidationError(f"unknown event object {e!r}")
        if not math.isfinite(phase):
            raise ValidationError("program phase must be finite")
        self.phase = phase

    def add(self, kind: str, q: int, axis: str | None,
            value: float) -> None:
        """Append one event, given as its four column entries."""
        self.kinds.append(kind)
        self.qubits.append(q)
        self.axes.append(axis)
        self.values.append(value)

    def columns(self) -> tuple[list, list, list, list]:
        return self.kinds, self.qubits, self.axes, self.values

    @property
    def events(self) -> list[PulseEvent]:
        """The events as views, built on each read: changing the list
        does not change the program."""
        return list(map(_event_view, *self.columns()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PulseProgram):
            return NotImplemented
        return (self.chain == other.chain and self.phase == other.phase
                and self.columns() == other.columns())

    __hash__ = None

    def __repr__(self) -> str:
        return (f"PulseProgram(chain={self.chain!r}, events={self.events!r}, "
                f"phase={self.phase!r})")

    def to_json_text(self) -> str:
        """The program as JSON text: its chain, its events and its phase
        (see the module docstring), written from the columns one event
        at a time with the keys already in sorted order."""
        events = []
        for kind, q, axis, value in zip(self.kinds, self.qubits, self.axes,
                                        _json_numbers(self.values)):
            if kind == "pulse":
                events.append(f'{{"angle":{value},"axis":"{axis}",'
                              f'"kind":"pulse","q":{q}}}')
            else:
                events.append(f'{{"kind":"delay","t":{value}}}')
        couplings = ",".join(map(_json_number, self.chain.couplings))
        return (f'{{"chain":{{"J":[{couplings}],"n":{self.chain.n}}},'
                f'"events":[{",".join(events)}],'
                f'"phase":{_json_number(self.phase)}}}')

    @classmethod
    def from_json_dict(cls, data: dict) -> "PulseProgram":
        """The program of a JSON object, its events in columns.

        Each event is checked as its view checks itself, and a fault
        names the event's index."""
        try:
            chain = ChainSpec.from_json_dict(data["chain"])
            items = _json_array(data.get("events", []), "program events")
            kinds: list[str] = []
            qubits: list[int] = []
            axes: list[str | None] = []
            values: list[float] = []
            for item in items:
                try:
                    # each branch sets the kind to its literal, as in
                    # gate_list_from_json
                    kind = item["kind"]
                    if kind == "pulse":
                        kind = "pulse"
                        q, axis, value = _rotation_fields(item, "pulse spin")
                    elif kind == "delay":
                        kind, q, axis = "delay", 0, None
                        value = _delay_fields(item)
                    else:
                        raise ValidationError(f"unknown event kind {kind!r}")
                except (KeyError, TypeError, ValueError) as exc:
                    raise _item_error(exc, "event", len(kinds)) from exc
                kinds.append(kind)
                qubits.append(q)
                axes.append(axis)
                values.append(value)
            program = cls(chain, (), _json_float(data.get("phase", 0.0),
                                                 "program phase"))
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, ValidationError):
                raise
            raise ValidationError(f"malformed pulse program: {exc}") from exc
        program.kinds, program.qubits = kinds, qubits
        program.axes, program.values = axes, values
        return program
