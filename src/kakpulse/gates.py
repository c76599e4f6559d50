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
from dataclasses import dataclass, field
from typing import Union

from .errors import (DimensionError, RangeError, ValidationError, _json_array,
                     _json_int)

AXES = ("x", "y", "z")


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


def inverse_gate_list(gates: list[Gate]) -> list[Gate]:
    """Time-ordered inverse of a time-ordered gate list."""
    return [g.inverse() for g in reversed(gates)]


def gate_list_spin_bound(gates: list[Gate]) -> int:
    """Largest spin index touched (0 for a purely global list)."""
    top = 0
    for g in gates:
        if isinstance(g, LocalRotation):
            top = max(top, g.qubit)
        elif isinstance(g, CouplingEvolution):
            top = max(top, g.left + 1)
    return top


def gate_list_to_json(gates: list[Gate]) -> list[dict]:
    """Serialize a time-ordered gate list."""
    out = []
    for g in gates:
        if isinstance(g, LocalRotation):
            out.append({"kind": "local", "q": g.qubit, "axis": g.axis,
                        "angle": g.angle})
        elif isinstance(g, CouplingEvolution):
            out.append({"kind": "zz", "pair": [g.left, g.left + 1],
                        "angle": g.angle})
        elif isinstance(g, GlobalPhase):
            out.append({"kind": "phase", "phi": g.phi})
        else:
            raise ValidationError(f"unknown gate object {g!r}")
    return out


def gate_list_from_json(data: list[dict]) -> list[Gate]:
    if not isinstance(data, list):
        raise ValidationError("gate list must be a JSON array")
    out: list[Gate] = []
    for k, item in enumerate(data):
        try:
            kind = item["kind"]
            if kind == "local":
                out.append(LocalRotation(_json_int(item["q"], "gate spin"),
                                         str(item["axis"]),
                                         float(item["angle"])))
            elif kind == "zz":
                left, right = (_json_int(v, "coupling spin") for v in
                               _json_array(item["pair"], "coupling pair"))
                if right != left + 1:
                    raise ValidationError(
                        f"coupling pair must be adjacent, got [{left}, {right}]")
                out.append(CouplingEvolution(left, float(item["angle"])))
            elif kind == "phase":
                out.append(GlobalPhase(float(item["phi"])))
            else:
                raise ValidationError(f"unknown gate kind {kind!r}")
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, ValidationError):
                raise
            raise ValidationError(f"malformed gate at index {k}: {exc}") from exc
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

    @classmethod
    def uniform(cls, n: int, j: float = 100.0) -> "ChainSpec":
        return cls(n=n, couplings=(float(j),) * (n - 1))

    def coupling(self, left: int) -> float:
        if not 1 <= left <= self.n - 1:
            raise RangeError(f"pair index {left} outside 1..{self.n - 1}")
        return self.couplings[left - 1]

    def to_json_dict(self) -> dict:
        return {"n": self.n, "J": list(self.couplings)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "ChainSpec":
        try:
            couplings = _json_array(data["J"], "chain couplings J")
            return cls(n=_json_int(data["n"], "chain size n"),
                       couplings=tuple(float(x) for x in couplings))
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
            raise RangeError(f"delay must be non-negative, got {self.duration}")


PulseEvent = Union[HardPulse, Delay]


@dataclass
class PulseProgram:
    """Time-ordered pulse/delay schedule plus an accumulated global phase."""

    chain: ChainSpec
    events: list[PulseEvent] = field(default_factory=list)
    phase: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.phase):
            raise ValidationError("program phase must be finite")

    def to_json_dict(self) -> dict:
        events = []
        for e in self.events:
            if isinstance(e, HardPulse):
                events.append({"kind": "pulse", "q": e.qubit, "axis": e.axis,
                               "angle": e.angle})
            else:
                events.append({"kind": "delay", "t": e.duration})
        return {"chain": self.chain.to_json_dict(), "events": events,
                "phase": self.phase}

    @classmethod
    def from_json_dict(cls, data: dict) -> "PulseProgram":
        try:
            chain = ChainSpec.from_json_dict(data["chain"])
            events: list[PulseEvent] = []
            for k, item in enumerate(data.get("events", [])):
                kind = item["kind"]
                if kind == "pulse":
                    events.append(HardPulse(_json_int(item["q"], "pulse spin"),
                                            str(item["axis"]),
                                            float(item["angle"])))
                elif kind == "delay":
                    events.append(Delay(float(item["t"])))
                else:
                    raise ValidationError(f"unknown event kind {kind!r} at {k}")
            return cls(chain=chain, events=events,
                       phase=float(data.get("phase", 0.0)))
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, ValidationError):
                raise
            raise ValidationError(f"malformed pulse program: {exc}") from exc
