"""Reference forms of the three compile artifacts and of their items,
for tests only.

The package writes its artifacts as JSON text straight from its objects
(``tree_to_json_text``, ``gate_list_to_json_text``,
``PulseProgram.to_json_text``).  The functions here build the same
artifacts as plain dicts and lists from the gate and event rows and the
tree nodes, one field at a time, so ``canonical(oracle(obj))`` is an
independent spelling of what each writer must write, and a dict of an
artifact can be edited before it is written or read back.  The row
builders spell each kind's row, the four column entries of one gate or
event, for the tests that build gate lists and programs by hand.

The classes at the end are reference gate and event objects, each of
which checks its fields in ``__post_init__``: reading a JSON item into
one, field by field, is an independent reader that the package's
readers must fail as.
"""

import json
import math
from dataclasses import dataclass

from kakpulse import (
    CartanNode,
    EulerNode,
    PhaseNode,
    RangeError,
    SequenceNode,
    ValidationError,
)
from kakpulse.linalg import AXES


def canonical(obj) -> str:
    """The text of ``obj`` with sorted keys and no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def local_row(q, axis, angle) -> tuple:
    return "local", q, axis, angle


def zz_row(left, angle) -> tuple:
    return "zz", left, None, angle


def phase_row(phi) -> tuple:
    return "phase", 0, None, phi


def pulse_row(q, axis, angle) -> tuple:
    return "pulse", q, axis, angle


def delay_row(t) -> tuple:
    return "delay", 0, None, t


def gate_list_to_json(gates) -> list[dict]:
    """A time-ordered gate list, one dict per ``(kind, site, axis,
    angle)`` row."""
    out = []
    for kind, site, axis, angle in gates:
        if kind == "local":
            out.append({"kind": "local", "q": site, "axis": axis,
                        "angle": angle})
        elif kind == "zz":
            out.append({"kind": "zz", "pair": [site, site + 1],
                        "angle": angle})
        elif kind == "phase":
            out.append({"kind": "phase", "phi": angle})
        else:
            raise ValidationError(f"unknown gate kind {kind!r}")
    return out


def chain_to_json_dict(chain) -> dict:
    return {"n": chain.n, "J": list(chain.couplings)}


def program_to_json_dict(program) -> dict:
    """A pulse program: its chain, one dict per event row, its phase."""
    events = []
    for kind, q, axis, value in zip(*program.columns()):
        if kind == "pulse":
            events.append({"kind": "pulse", "q": q, "axis": axis,
                           "angle": value})
        elif kind == "delay":
            events.append({"kind": "delay", "t": value})
        else:
            raise ValidationError(f"unknown event kind {kind!r}")
    return {"chain": chain_to_json_dict(program.chain), "events": events,
            "phase": program.phase}


def tree_to_json_dict(tree) -> dict:
    """A gate tree, one dict per node."""
    if isinstance(tree, SequenceNode):
        return {"node": "sequence",
                "children": [tree_to_json_dict(c) for c in tree.children]}
    if isinstance(tree, EulerNode):
        return {"node": "euler", "q": tree.qubit, "alpha": tree.alpha,
                "beta": tree.beta, "gamma": tree.gamma}
    if isinstance(tree, PhaseNode):
        return {"node": "phase", "phi": tree.phi}
    if isinstance(tree, CartanNode):
        e = tree.element
        out = {"node": "commuting_evolution", "n": e.n,
               "family": e.family.value,
               "coeffs": {s.letters: c for s, c in e.items()}}
        if tree.route is not None:
            out["route"] = [list(cnot) for cnot in tree.route]
        return out
    raise ValidationError(f"unknown tree node {tree!r}")


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

