"""Primitive gate and pulse vocabulary for a linear chain.

Only three gate kinds exist: single-spin rotations, nearest-neighbour
ZZ coupling evolutions, and global phases.  Gate *lists* are always in
time order (first element acts first); the matrix of a list is the
reversed product.

The chain a program runs on is a :class:`ChainSpec` (spin count and
always-on couplings), and a :class:`PulseProgram` is a time-ordered
list of events on it: hard pulses, which are instantaneous local
rotations, and delays of free evolution under every coupling at once.
The lowering in :mod:`~kakpulse.pulses` writes these and the simulator
in :mod:`~kakpulse.simulate` reads them, so neither depends on the
other.

Columns and rows
----------------
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

A gate or an event is a row of its four column entries, ``(kind, site,
axis, angle)``.  Iterating a :class:`GateList` yields its rows, and
``GateList(rows)`` and ``PulseProgram(chain, rows, phase)`` build
checked columns from rows.  Each item kind has one check, which those
two constructors and the readers share, so a fault raises the same
class and message either way, naming the row's or the item's index.
The columns the lowering builds are trusted: it checks a tree leaf's
spin itself, with the same message; ``add`` appends an entry unchecked.

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
* A rotation ``("local", q, axis, angle)`` realizes
  ``exp(-1j * angle * I_axis)`` on spin ``q`` with
  ``I_axis = sigma_axis / 2``; angles are radians and a ``2*pi``
  rotation equals ``-1``.
* A coupling ``("zz", left, None, angle)`` realizes
  ``exp(-1j * angle * I_z I_z)`` on the pair ``(left, left + 1)``.  Note
  the period in ``angle`` is ``8*pi`` and the value at ``4*pi`` is
  ``-identity``, because the generator has eigenvalues ``+-1/4``.  The
  angle may have either sign: the scheduler keeps a frame of x pi-flips
  and flips the left spin first when the frame's sign on the pair
  disagrees with the angle's.
* A phase ``("phase", 0, None, phi)`` multiplies by ``exp(1j * phi)``.

Spins are 1-based; spin 1 is the leftmost Kronecker factor.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass

from .errors import (DimensionError, RangeError, ValidationError, _json_array,
                     _json_float, _json_int, _json_number, _json_numbers)
from .linalg import AXES

# The check of each item kind, which returns the item's row.  The row
# constructors and the readers share it; a reader calls it once an
# item's fields have their JSON types.


def _rotation_row(kind: str, q: int, axis: str, angle: float) -> tuple:
    """A rotation or a pulse: ``exp(-1j * angle * sigma_axis / 2)`` on
    spin ``q``."""
    if q < 1:
        raise ValidationError(f"spin index must be >= 1, got {q}")
    if axis not in AXES:
        raise ValidationError(f"axis must be one of {AXES}, got {axis!r}")
    if not math.isfinite(angle):
        raise ValidationError("rotation angle must be finite")
    return kind, q, axis, angle


def _coupling_row(left: int, angle: float) -> tuple:
    """A coupling: ``exp(-1j * angle * I_z I_z)`` on ``(left, left + 1)``."""
    if left < 1:
        raise ValidationError(f"pair index must be >= 1, got {left}")
    if not math.isfinite(angle):
        raise ValidationError("coupling angle must be finite")
    return "zz", left, None, angle


def _phase_row(phi: float) -> tuple:
    """A global phase ``exp(1j * phi)``."""
    if not math.isfinite(phi):
        raise ValidationError("phase must be finite")
    return "phase", 0, None, phi


def _delay_row(t: float) -> tuple:
    """Free evolution under the chain couplings for ``t`` seconds."""
    if not (math.isfinite(t) and t >= 0):
        raise RangeError(f"delay must be non-negative and finite, got {t}")
    return "delay", 0, None, t


def _item_error(exc: Exception, what: str, k: int) -> ValidationError:
    """``exc``, raised while loading item ``k`` of a JSON array or of a
    list of rows, as an error that names the index; a validation error
    keeps its class."""
    if isinstance(exc, ValidationError):
        return type(exc)(f"{what} at index {k}: {exc}")
    return ValidationError(f"malformed {what} at index {k}: {exc}")


def _add_rows(out, rows: Iterable[tuple], row: Callable, what: str) -> None:
    """Add each of ``rows`` to ``out`` as ``row`` checks it."""
    for k, entries in enumerate(rows):
        try:
            entries = row(entries)
        except (TypeError, ValueError) as exc:
            raise _item_error(exc, what, k) from exc
        out.add(*entries)


def _gate_row(row: tuple) -> tuple:
    """The checked row of a gate."""
    kind, site, axis, angle = row
    if kind == "local":
        return _rotation_row("local", site, axis, angle)
    if kind == "zz":
        return _coupling_row(site, angle)
    if kind == "phase":
        return _phase_row(angle)
    raise ValidationError(f"unknown gate kind {kind!r}")


class GateList:
    """A time-ordered gate list as four parallel columns: ``kinds``,
    ``sites``, ``axes`` and ``angles`` (see the module docstring).

    ``GateList(rows)`` checks each ``(kind, site, axis, angle)`` row as
    the reader checks a gate, iterating yields the rows back, and
    ``gates[k]`` is row ``k``."""

    __slots__ = ("kinds", "sites", "axes", "angles")

    def __init__(self, rows: Iterable[tuple] = ()):
        self.kinds: list[str] = []
        self.sites: list[int] = []
        self.axes: list[str | None] = []
        self.angles: list[float] = []
        _add_rows(self, rows, _gate_row, "gate")

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

    def __getitem__(self, k: int | slice) -> tuple | "GateList":
        """Row ``k``, or the gate list of a slice."""
        if isinstance(k, slice):
            return GateList._of(*(column[k] for column in self.columns()))
        return self.kinds[k], self.sites[k], self.axes[k], self.angles[k]

    def __iter__(self):
        return zip(*self.columns())

    def __eq__(self, other) -> bool:
        if not isinstance(other, GateList):
            return NotImplemented
        return self.columns() == other.columns()

    __hash__ = None

    def __repr__(self) -> str:
        return f"GateList({list(self)!r})"


def inverse_gate_list(gates: GateList) -> GateList:
    """Time-ordered inverse of a time-ordered gate list: the gates in
    reverse order, each angle and phase negated."""
    kinds, sites, axes, angles = gates.columns()
    return GateList._of(kinds[::-1], sites[::-1], axes[::-1],
                        [-a for a in reversed(angles)])


def gate_list_spin_bound(gates: GateList) -> int:
    """Largest spin index touched (0 for a purely global list)."""
    return max((site + (kind == "zz")
                for kind, site in zip(gates.kinds, gates.sites)), default=0)


def gate_list_to_json_text(gates: GateList) -> str:
    """The gate list as JSON text: an array of gate objects (see the
    module docstring), written from the columns one gate at a time with
    the keys already in sorted order."""
    kinds, sites, axes, angles = gates.columns()
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


# The fields of one JSON item of each kind.  A well-formed item's fields
# are taken as they stand; any other item is read field by field in a
# fixed order, so that its first fault raises the error that names it.

def _rotation_fields(item: dict, kind: str, what: str) -> tuple:
    """The row of a rotation item of ``kind``, checked by
    :func:`_rotation_row`; ``what`` names the spin."""
    try:
        q, axis, angle = item["q"], item["axis"], item["angle"]
        if (type(q) is int and q > 0 and axis in AXES
                and type(angle) is float and -math.inf < angle < math.inf):
            return kind, q, axis, angle
    except KeyError:
        pass
    angle = item["angle"]
    q, axis = _json_int(item["q"], what), str(item["axis"])
    return _rotation_row(kind, q, axis, _json_float(angle, "angle"))


def _coupling_fields(item: dict) -> tuple:
    """The row of a coupling item, checked by :func:`_coupling_row`, its
    pair adjacent."""
    try:
        pair, angle = item["pair"], item["angle"]
        left = pair[0]
        if (type(pair) is list and len(pair) == 2
                and type(left) is int and left > 0
                and type(pair[1]) is int and pair[1] == left + 1
                and type(angle) is float and -math.inf < angle < math.inf):
            return "zz", left, None, angle
    except (KeyError, TypeError, IndexError):
        pass
    left, right = (_json_int(v, "coupling spin") for v in
                   _json_array(item["pair"], "coupling pair"))
    if right != left + 1:
        raise ValidationError(
            f"coupling pair must be adjacent, got [{left}, {right}]")
    return _coupling_row(left, _json_float(item["angle"], "angle"))


def _delay_fields(item: dict) -> tuple:
    """The row of a delay item, checked by :func:`_delay_row`."""
    t = item["t"]
    if type(t) is float and 0.0 <= t < math.inf:
        return "delay", 0, None, t
    return _delay_row(_json_float(t, "delay t"))


def gate_list_from_json(data: list[dict]) -> GateList:
    """The gate list of a JSON array of gate objects, in columns.

    Each item is checked as its kind's row is, and a fault names the
    item's index."""
    if not isinstance(data, list):
        raise ValidationError("gate list must be a JSON array")
    out = GateList()
    # appended inline, not by out.add: the call would cost this loop,
    # and the program reader, about 15 %
    kinds, sites, axes, angles = out.columns()
    for item in data:
        try:
            # each row holds its kind's literal, not the item's copy
            kind = item["kind"]
            if kind == "local":
                row = _rotation_fields(item, "local", "gate spin")
            elif kind == "zz":
                row = _coupling_fields(item)
            elif kind == "phase":
                row = _phase_row(_json_float(item["phi"], "phase"))
            else:
                raise ValidationError(f"unknown gate kind {kind!r}")
        except (KeyError, TypeError, ValueError) as exc:
            # the columns hold one entry per item read before this one
            raise _item_error(exc, "gate", len(kinds)) from exc
        kind, q, axis, angle = row
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
        if self.couplings:
            # the longest such delay turns the strongest pair by
            # 4*pi * J_hi / J_lo, which the simulator holds as a float
            j_lo, j_hi = min(self.couplings), max(self.couplings)
            if not math.isfinite(4 * math.pi * j_hi / j_lo):
                lo = self.couplings.index(j_lo) + 1
                hi = self.couplings.index(j_hi) + 1
                raise RangeError(
                    f"couplings J_{hi} and J_{lo} must leave 4*pi * J_{hi} "
                    f"/ J_{lo} finite, got {j_hi} and {j_lo}")

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


def _event_row(row: tuple) -> tuple:
    """The checked row of an event."""
    kind, q, axis, value = row
    if kind == "pulse":
        return _rotation_row("pulse", q, axis, value)
    if kind == "delay":
        return _delay_row(value)
    raise ValidationError(f"unknown event kind {kind!r}")


class PulseProgram:
    """Time-ordered pulse/delay schedule plus an accumulated global phase.

    The events are four columns, ``kinds``, ``qubits``, ``axes`` and
    ``values`` (see the module docstring); ``PulseProgram(chain, rows,
    phase)`` checks each ``(kind, q, axis, value)`` row as the reader
    checks an event."""

    __slots__ = ("chain", "kinds", "qubits", "axes", "values", "phase")

    def __init__(self, chain: ChainSpec, rows: Iterable[tuple] = (),
                 phase: float = 0.0):
        self.chain = chain
        self.kinds: list[str] = []
        self.qubits: list[int] = []
        self.axes: list[str | None] = []
        self.values: list[float] = []
        _add_rows(self, rows, _event_row, "event")
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

    def __eq__(self, other) -> bool:
        if not isinstance(other, PulseProgram):
            return NotImplemented
        return (self.chain == other.chain and self.phase == other.phase
                and self.columns() == other.columns())

    __hash__ = None

    def __repr__(self) -> str:
        return (f"PulseProgram({self.chain!r}, "
                f"{list(zip(*self.columns()))!r}, {self.phase!r})")

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

        Each event is checked as its kind's row is, and a fault
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
                    # each row holds its kind's literal, as in
                    # gate_list_from_json
                    kind = item["kind"]
                    if kind == "pulse":
                        row = _rotation_fields(item, "pulse", "pulse spin")
                    elif kind == "delay":
                        row = _delay_fields(item)
                    else:
                        raise ValidationError(f"unknown event kind {kind!r}")
                except (KeyError, TypeError, ValueError) as exc:
                    raise _item_error(exc, "event", len(kinds)) from exc
                kind, q, axis, value = row
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
