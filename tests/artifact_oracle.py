"""Reference forms of the three compile artifacts, for tests only.

The package writes its artifacts as JSON text straight from its objects
(``tree_to_json_text``, ``gate_list_to_json_text``,
``PulseProgram.to_json_text``).  The functions here build the same
artifacts as plain dicts and lists from the gate, event and node views,
one field at a time, so ``canonical(oracle(obj))`` is an independent
spelling of what each writer must write, and a dict of an artifact can
be edited before it is written or read back.
"""

import json

from kakpulse import (
    CartanNode,
    CouplingEvolution,
    Delay,
    EulerNode,
    GlobalPhase,
    HardPulse,
    LocalRotation,
    PhaseNode,
    SequenceNode,
    ValidationError,
)


def canonical(obj) -> str:
    """The text of ``obj`` with sorted keys and no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def gate_list_to_json(gates) -> list[dict]:
    """A time-ordered gate list, one dict per gate view."""
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


def chain_to_json_dict(chain) -> dict:
    return {"n": chain.n, "J": list(chain.couplings)}


def program_to_json_dict(program) -> dict:
    """A pulse program: its chain, one dict per event view, its phase."""
    events = []
    for e in program.events:
        if isinstance(e, HardPulse):
            events.append({"kind": "pulse", "q": e.qubit, "axis": e.axis,
                           "angle": e.angle})
        elif isinstance(e, Delay):
            events.append({"kind": "delay", "t": e.duration})
        else:
            raise ValidationError(f"unknown event object {e!r}")
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
