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
A gate list and a pulse program are each a table of time-ordered steps,
held as four parallel columns, plain Python lists with one entry per
step, since every stage walks them in a Python loop: ``kinds``
(``"local"``, ``"zz"`` or ``"phase"`` for a gate, ``"pulse"`` or
``"delay"`` for an event, as the JSON spells them), ``sites`` (the
rotated or pulsed spin, the left spin ``k`` of the coupled pair ``(k,
k+1)``, or 0), ``axes`` (``"x"``, ``"y"`` or ``"z"``, or None) and
``values`` (the rotation, coupling or pulse angle, the phase, or the
delay in seconds).  A :class:`PulseProgram` also has its ``chain`` and
its ``phase``.

A step is a row of its four column entries, ``(kind, site, axis,
value)``.  Iterating :class:`GateList` or :class:`PulseProgram` yields
its rows, ``len`` counts them and ``table[k]`` is row ``k``; a slice of
a gate list is a gate list.  ``GateList(rows)`` and
``PulseProgram(chain, rows, phase)`` build checked columns from rows:
a spin must be an integer, which ``2.0``, a NumPy integer or an
integral NumPy float is, and a value a real number, kept as given (an
integer that no float holds exactly is held as the float its text reads
back as).  Each kind has one check, which those two constructors and
the readers share, so a fault raises the same class and message either
way, naming the row's or the item's index; a program's pulses and phase
are checked once more, against its chain.  Each kind of tree node
(:mod:`~kakpulse.kak`) has one check as well, its constructor, which the
tree reader calls.  The columns the lowering builds from a checked tree
are trusted: ``add`` appends a step unchecked.

JSON forms
----------
:func:`gate_list_to_json_text` and :meth:`PulseProgram.to_json_text`
write the artifacts from the columns through one item writer, as
canonical JSON text: keys in sorted order, no whitespace, each number
spelled as ``json.dumps`` spells it.  :func:`gate_list_from_json` and
:meth:`PulseProgram.from_json_dict` read them back through one item
loop.

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
  and plans them so that the pair's sign in the frame integrates to the
  signed time of its couplings.
* A phase ``("phase", 0, None, phi)`` multiplies by ``exp(1j * phi)``.

Spins are 1-based; spin 1 is the leftmost Kronecker factor.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

from .errors import (DimensionError, RangeError, ValidationError, _json_array,
                     _json_finite, _json_float, _json_int, _json_number,
                     _json_numbers, _json_real)
from .linalg import AXES

# The check of each step kind, which returns the step's row.  The row
# constructors and the readers share it; a reader calls it once an
# item's fields have their JSON types.


def _rotation_row(kind: str, q, axis, angle) -> tuple:
    """A rotation or a pulse: ``exp(-1j * angle * sigma_axis / 2)`` on
    spin ``q``."""
    q = _json_int(q, "pulse spin" if kind == "pulse" else "gate spin")
    angle = _json_real(angle, "angle")
    if q < 1:
        raise ValidationError(f"spin index must be >= 1, got {q}")
    if axis not in AXES:
        raise ValidationError(f"axis must be one of {AXES}, got {axis!r}")
    if not math.isfinite(angle):
        raise ValidationError("rotation angle must be finite")
    return kind, q, axis, angle


def _coupling_row(kind: str, left, axis, angle) -> tuple:
    """A coupling: ``exp(-1j * angle * I_z I_z)`` on ``(left, left + 1)``."""
    left = _json_int(left, "coupling spin")
    angle = _json_real(angle, "angle")
    if left < 1:
        raise ValidationError(f"pair index must be >= 1, got {left}")
    if not math.isfinite(angle):
        raise ValidationError("coupling angle must be finite")
    return "zz", left, None, angle


def _phase_row(kind: str, site, axis, phi) -> tuple:
    """A global phase ``exp(1j * phi)``."""
    phi = _json_real(phi, "phase")
    if not math.isfinite(phi):
        raise ValidationError("phase must be finite")
    return "phase", 0, None, phi


def _delay_row(kind: str, site, axis, t) -> tuple:
    """Free evolution under the chain couplings for ``t`` seconds."""
    t = _json_real(t, "delay t")
    if not (math.isfinite(t) and t >= 0):
        raise RangeError(f"delay must be non-negative and finite, got {t}")
    return "delay", 0, None, t


# The reader of one JSON item of each kind.  A well-formed item, whose
# floats are finite (``x - x == 0.0``), is taken as it stands; any other
# is read field by field in a fixed order, so its first fault is named.

def _rotation_item(item: dict, kind: str) -> tuple:
    """The row of a rotation or a pulse item."""
    try:
        q, axis, angle = item["q"], item["axis"], item["angle"]
        if (type(q) is int and q > 0 and axis in AXES
                and type(angle) is float and angle - angle == 0.0):
            return kind, q, axis, angle
    except KeyError:
        pass
    angle = item["angle"]
    q = _json_int(item["q"], "pulse spin" if kind == "pulse" else "gate spin")
    return _rotation_row(kind, q, str(item["axis"]),
                         _json_float(angle, "angle"))


def _coupling_item(item: dict, kind: str) -> tuple:
    """The row of a coupling item, its pair adjacent."""
    try:
        pair, angle = item["pair"], item["angle"]
        left = pair[0]
        if (type(pair) is list and len(pair) == 2
                and type(left) is int and left > 0
                and type(pair[1]) is int and pair[1] == left + 1
                and type(angle) is float and angle - angle == 0.0):
            return kind, left, None, angle
    except (KeyError, TypeError, IndexError):
        pass
    left, right = (_json_int(v, "coupling spin") for v in
                   _json_array(item["pair"], "coupling pair"))
    if right != left + 1:
        raise ValidationError(
            f"coupling pair must be adjacent, got [{left}, {right}]")
    return _coupling_row(kind, left, None, _json_float(item["angle"], "angle"))


def _phase_item(item: dict, kind: str) -> tuple:
    """The row of a phase item."""
    return _phase_row(kind, 0, None, _json_float(item["phi"], "phase"))


def _delay_item(item: dict, kind: str) -> tuple:
    """The row of a delay item."""
    t = item["t"]
    if type(t) is float and t >= 0.0 and t - t == 0.0:
        return kind, 0, None, t
    return _delay_row(kind, 0, None, _json_float(t, "delay t"))


def _item_error(exc: Exception, what: str, k: int) -> ValidationError:
    """``exc``, raised while loading item ``k`` of a JSON array or of a
    list of rows, as an error that names the index; a validation error
    keeps its class."""
    if isinstance(exc, ValidationError):
        return type(exc)(f"{what} at index {k}: {exc}")
    return ValidationError(f"malformed {what} at index {k}: {exc}")


class _StepTable:
    """Time-ordered steps as four parallel columns, ``kinds``, ``sites``,
    ``axes`` and ``values`` (see the module docstring).

    A subclass names its steps (``_what``, ``"gate"`` or ``"event"``)
    and maps each of its kinds to the kind's literal, its row check and
    its JSON item reader (``_kinds``)."""

    __slots__ = ("kinds", "sites", "axes", "values")
    _what: str
    _kinds: dict

    def __init__(self, rows: Iterable[tuple] = ()):
        self.kinds, self.sites, self.axes, self.values = [], [], [], []
        for k, row in enumerate(rows):
            try:
                kind, site, axis, value = row
                try:
                    kind, check, _ = self._kinds[kind]
                except (KeyError, TypeError):
                    raise ValidationError(
                        f"unknown {self._what} kind {kind!r}") from None
                self.add(*check(kind, site, axis, value))
            except (TypeError, ValueError) as exc:
                raise _item_error(exc, self._what, k) from exc

    def _read(self, items: list) -> None:
        """Append the rows of the JSON ``items``, each checked as its
        kind's row is; a fault names the item's index."""
        table, what = self._kinds, self._what
        # appended inline, not by self.add: the call would cost this loop
        # about 15 %
        kinds, sites, axes, values = self.columns()
        for item in items:
            try:
                kind = item["kind"]
                try:
                    # each row holds its kind's literal, not the item's copy
                    kind, _, read = table[kind]
                except (KeyError, TypeError):
                    raise ValidationError(
                        f"unknown {what} kind {kind!r}") from None
                kind, site, axis, value = read(item, kind)
            except (KeyError, TypeError, ValueError) as exc:
                # the columns hold one entry per item read before this one
                raise _item_error(exc, what, len(kinds)) from exc
            kinds.append(kind)
            sites.append(site)
            axes.append(axis)
            values.append(value)

    def _items_text(self) -> str:
        """The steps as JSON items (see the module docstring), separated
        by commas, written from the columns one item at a time with the
        keys already in sorted order."""
        out = []
        for kind, site, axis, value in zip(self.kinds, self.sites, self.axes,
                                           _json_numbers(self.values)):
            if axis is not None:  # a rotation or a pulse
                out.append(f'{{"angle":{value},"axis":"{axis}",'
                           f'"kind":"{kind}","q":{site}}}')
            elif kind == "zz":
                out.append(f'{{"angle":{value},"kind":"zz",'
                           f'"pair":[{site},{site + 1}]}}')
            elif kind == "delay":
                out.append(f'{{"kind":"delay","t":{value}}}')
            else:
                out.append(f'{{"kind":"phase","phi":{value}}}')
        return ",".join(out)

    def add(self, kind: str, site: int, axis: str | None,
            value: float) -> None:
        """Append one step, given as its four column entries."""
        self.kinds.append(kind)
        self.sites.append(site)
        self.axes.append(axis)
        self.values.append(value)

    def columns(self) -> tuple[list, list, list, list]:
        return self.kinds, self.sites, self.axes, self.values

    def __len__(self) -> int:
        return len(self.kinds)

    def __getitem__(self, k: int) -> tuple:
        """Row ``k``."""
        return self.kinds[k], self.sites[k], self.axes[k], self.values[k]

    def __iter__(self):
        return zip(*self.columns())

    def _args(self) -> tuple:
        """The constructor's arguments, which ``==`` and ``repr`` read."""
        return (list(self),)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._args() == other._args()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map(repr, self._args()))})"


class GateList(_StepTable):
    """A time-ordered gate list: ``local``, ``zz`` and ``phase`` steps.
    A slice of a gate list is a gate list."""

    __slots__ = ()
    _what = "gate"
    _kinds = {"local": ("local", _rotation_row, _rotation_item),
              "zz": ("zz", _coupling_row, _coupling_item),
              "phase": ("phase", _phase_row, _phase_item)}

    @classmethod
    def _of(cls, kinds, sites, axes, values) -> "GateList":
        """The gate list of columns that are already checked."""
        out = cls.__new__(cls)
        out.kinds, out.sites, out.axes, out.values = kinds, sites, axes, values
        return out

    def __getitem__(self, k: int | slice) -> tuple | "GateList":
        """Row ``k``, or the gate list of a slice."""
        if isinstance(k, slice):
            return GateList._of(*(column[k] for column in self.columns()))
        return super().__getitem__(k)


def inverse_gate_list(gates: GateList) -> GateList:
    """Time-ordered inverse of a time-ordered gate list: the gates in
    reverse order, each angle and phase negated."""
    kinds, sites, axes, values = gates.columns()
    return GateList._of(kinds[::-1], sites[::-1], axes[::-1],
                        [-a for a in reversed(values)])


def gate_list_spin_bound(gates: GateList) -> int:
    """Largest spin index touched (0 for a purely global list)."""
    return max((site + (kind == "zz")
                for kind, site in zip(gates.kinds, gates.sites)), default=0)


def gate_list_to_json_text(gates: GateList) -> str:
    """The gate list as JSON text: an array of gate objects (see the
    module docstring)."""
    return f"[{gates._items_text()}]"


def gate_list_from_json(data: list[dict]) -> GateList:
    """The gate list of a JSON array of gate objects, in columns.

    Each item is checked as its kind's row is, and a fault names the
    item's index."""
    if not isinstance(data, list):
        raise ValidationError("gate list must be a JSON array")
    out = GateList()
    out._read(data)
    return out


# ---------------------------------------------------------------------------
# Chains and pulse programs


@dataclass(frozen=True)
class ChainSpec:
    """A linear chain: ``n`` spins, always-on couplings ``J[k]`` in Hz for
    each adjacent pair ``(k, k+1)``.  ``n`` is an integer (``2.0`` is one)
    and each ``J`` a real number, held as a ``float``; a bool or a string
    is a :class:`ValidationError`, as in the JSON the chain is read from."""

    n: int
    couplings: tuple[float, ...]

    def __post_init__(self):
        # read as the chain reader reads them, so the text a program
        # writes of its chain reads back
        object.__setattr__(self, "n", _json_int(self.n, "chain size n"))
        object.__setattr__(self, "couplings", tuple(
            float(_json_real(j, "coupling J")) for j in self.couplings))
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
            couplings = tuple(_json_array(data["J"], "chain couplings J"))
            return cls(n=data["n"], couplings=couplings)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed chain object: {exc}") from exc


class PulseProgram(_StepTable):
    """A time-ordered schedule of ``pulse`` and ``delay`` steps on
    ``chain``, plus an accumulated global ``phase``."""

    __slots__ = ("chain", "phase")
    _what = "event"
    _kinds = {"pulse": ("pulse", _rotation_row, _rotation_item),
              "delay": ("delay", _delay_row, _delay_item)}

    def __init__(self, chain: ChainSpec, rows: Iterable[tuple] = (),
                 phase: float = 0.0):
        self.chain = chain
        super().__init__(rows)
        self._complete(phase)

    def _complete(self, phase) -> None:
        """Hold ``phase``, a finite number, once every pulse is on the
        chain; the first one off it is named by its index, as a row is."""
        n = self.chain.n
        # the max of the set of sites: hashing each small int costs less
        # than comparing it, and the index is looked for only on a fault
        if max(set(self.sites), default=0) > n:
            k, q = next((k, q) for k, q in enumerate(self.sites) if q > n)
            raise _item_error(DimensionError(
                f"pulse on spin {q} outside chain of {n}"), "event", k)
        self.phase = _json_finite(phase, "program phase",
                                  "program phase must be finite")

    def _args(self) -> tuple:
        return self.chain, list(self), self.phase

    def to_json_text(self) -> str:
        """The program as JSON text: its chain, its events and its phase
        (see the module docstring)."""
        couplings = ",".join(map(_json_number, self.chain.couplings))
        return (f'{{"chain":{{"J":[{couplings}],"n":{self.chain.n}}},'
                f'"events":[{self._items_text()}],'
                f'"phase":{_json_number(self.phase)}}}')

    @classmethod
    def from_json_dict(cls, data: dict) -> "PulseProgram":
        """The program of a JSON object, its events in columns.

        Each event is checked as its kind's row is, and a fault names
        the event's index; the events are read before the phase."""
        try:
            program = cls(ChainSpec.from_json_dict(data["chain"]))
            program._read(_json_array(data.get("events", []),
                                      "program events"))
            program._complete(data.get("phase", 0.0))
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, ValidationError):
                raise
            raise ValidationError(f"malformed pulse program: {exc}") from exc
        return program
