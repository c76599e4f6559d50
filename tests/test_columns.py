"""The column forms of gate lists and pulse programs against their views.

A :class:`~kakpulse.gates.GateList` holds its gates, and a
:class:`~kakpulse.gates.PulseProgram` its events, as parallel columns;
``LocalRotation``, ``CouplingEvolution``, ``GlobalPhase``, ``HardPulse``
and ``Delay`` are views that the columns build on demand.  Here the
columns round-trip to the views, their text is the canonical dump of the
views' reference dict form (``artifact_oracle``), and the two readers,
one entry point each, reject every malformed item with the error that
reading that item into its view raises, named by its index.  The
readers share the check of a rotation item, so both are held to the
same oracle.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kakpulse import (
    ChainSpec,
    CouplingEvolution,
    Delay,
    GateList,
    GlobalPhase,
    HardPulse,
    LocalRotation,
    PulseProgram,
    ValidationError,
    gate_list_from_json,
    gate_list_spin_bound,
    gate_list_to_json_text,
    inverse_gate_list,
    pulse_count,
    flatten,
    total_coupling_time,
    tree_from_json_dict,
)
from kakpulse import errors
from kakpulse.errors import _json_array, _json_float, _json_int

from artifact_oracle import canonical, gate_list_to_json, program_to_json_dict


SPINS = st.integers(1, 9)
# finite angles, with the spellings json takes care over: signed zero,
# subnormals, exponent forms, integers and NumPy scalars
ANGLES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 1e-07, 1e16, math.pi, -math.pi]),
    st.integers(-5, 5),
    st.floats(-10, 10).map(np.float64))
DURATIONS = st.one_of(st.floats(0, 1e3), st.sampled_from([0.0, -0.0, 5e-324]),
                      st.integers(0, 3))
GATES = st.one_of(
    st.builds(LocalRotation, SPINS, st.sampled_from("xyz"), ANGLES),
    st.builds(CouplingEvolution, SPINS, ANGLES),
    st.builds(GlobalPhase, ANGLES))
EVENTS = st.one_of(
    st.builds(HardPulse, SPINS, st.sampled_from("xyz"), ANGLES),
    st.builds(Delay, DURATIONS))


@st.composite
def chains(draw):
    n = draw(st.integers(1, 5))
    return ChainSpec(n, tuple(draw(st.lists(
        st.floats(1.0, 500.0), min_size=n - 1, max_size=n - 1))))


@given(gates=st.lists(GATES, max_size=40))
@settings(max_examples=150, deadline=None)
def test_gate_columns_round_trip_to_the_views(gates):
    columns = GateList(gates)
    assert len(columns) == len(gates)
    assert list(columns) == gates and columns == gates
    assert [columns[k] for k in range(len(gates))] == gates
    text = gate_list_to_json_text(columns)
    assert text == canonical(gate_list_to_json(gates))
    assert gate_list_from_json(json.loads(text)) == columns
    assert list(inverse_gate_list(columns)) == [g.inverse() for g in reversed(gates)]
    assert gate_list_spin_bound(columns) == max(
        (g.qubit if isinstance(g, LocalRotation) else g.left + 1
         for g in gates if not isinstance(g, GlobalPhase)), default=0)


@given(chain=chains(), events=st.lists(EVENTS, max_size=40), phase=ANGLES)
@settings(max_examples=150, deadline=None)
def test_program_columns_round_trip_to_the_views(chain, events, phase):
    program = PulseProgram(chain, events, phase)
    assert program.events == events
    text = program.to_json_text()
    assert text == canonical(program_to_json_dict(program))
    assert PulseProgram.from_json_dict(json.loads(text)) == program
    assert pulse_count(program) == sum(isinstance(e, HardPulse) for e in events)
    assert total_coupling_time(program) == sum(
        e.duration for e in events if isinstance(e, Delay))


def test_unknown_objects_have_no_columns():
    with pytest.raises(ValidationError, match="unknown gate object"):
        GateList([GlobalPhase(0.1), Delay(0.1)])
    with pytest.raises(ValidationError, match="unknown event object"):
        PulseProgram(ChainSpec.uniform(2), [Delay(0.1), GlobalPhase(0.1)])


def test_events_are_read_as_a_new_list():
    """``events`` is a list of views built on each read, so changing it
    leaves the program alone; ``add`` appends to the columns."""
    program = PulseProgram(ChainSpec.uniform(2), [Delay(0.1)])
    program.events.append(Delay(0.2))
    assert program.events == [Delay(0.1)]
    program.add("pulse", 2, "y", 0.3)
    assert program.events == [Delay(0.1), HardPulse(2, "y", 0.3)]


def test_a_slice_of_a_gate_list_is_a_gate_list():
    gates = [LocalRotation(1, "x", 0.1), CouplingEvolution(1, 0.2),
             GlobalPhase(0.3), LocalRotation(2, "z", 0.4)]
    columns = GateList(gates)
    for k in (slice(1, 3), slice(None, None, -1), slice(5, 9)):
        part = columns[k]
        assert isinstance(part, GateList) and part == gates[k]
    assert columns[-1] == gates[-1]


def test_floats_are_spelled_across_chunk_boundaries(monkeypatch):
    """The writers spell the floats a chunk at a time; with a chunk of
    three, ten gates span four chunks, one of them with an integer and
    one with a NumPy scalar, which are spelled one by one."""
    monkeypatch.setattr(errors, "_SPELL_CHUNK", 3)
    angles = [0.1, -0.0, 5e-324, 1e16, 2, 0.5, np.float64(0.25), math.pi,
              -1e-07, 3.0]
    gates = [LocalRotation(1 + k % 3, "xyz"[k % 3], a) if k % 2
             else CouplingEvolution(1 + k % 2, a) for k, a in enumerate(angles)]
    assert gate_list_to_json_text(gates) == canonical(gate_list_to_json(gates))
    program = PulseProgram(ChainSpec.uniform(3), [
        Delay(abs(a)) if k % 2 else HardPulse(2, "x", a)
        for k, a in enumerate(angles)], 0.7)
    assert program.to_json_text() == canonical(program_to_json_dict(program))


def test_repeated_floats_are_spelled_once_and_both_zeros_apart():
    """A chunk spells each distinct float once; ``-0.0 == 0.0``, so the
    two zeros share one key there and each is spelled by itself."""
    angles = [0.5, -0.0, 0.0, 0.5, -0.0, math.pi, 0.0, 0.5, -math.pi, 0.0, -0.0]
    assert list(errors._json_numbers(angles)) == [json.dumps(a) for a in angles]
    assert list(errors._json_numbers([0.0, 0.0])) == ["0.0", "0.0"]
    assert list(errors._json_numbers([-0.0])) == ["-0.0"]
    gates = [LocalRotation(1, "x", a) if k % 2 else CouplingEvolution(1, a)
             for k, a in enumerate(angles)]
    assert gate_list_to_json_text(gates) == canonical(gate_list_to_json(gates))
    program = PulseProgram(ChainSpec.uniform(2), [
        Delay(abs(a)) if k % 3 == 0 else HardPulse(2, "y", a)
        for k, a in enumerate(angles)], -0.0)
    assert program.to_json_text() == canonical(program_to_json_dict(program))


def test_lowering_checks_the_spin_of_an_euler_leaf():
    """The lowering writes rotations into the columns unchecked, so an
    Euler leaf read from JSON with spin 0 is refused there."""
    leaf = {"node": "euler", "q": 0, "alpha": 0.1, "beta": 0.2, "gamma": 0.3}
    with pytest.raises(ValidationError, match="spin index must be >= 1, got 0"):
        flatten(tree_from_json_dict(leaf))
    with pytest.raises(ValidationError, match="spin index must be >= 1, got 0"):
        flatten(tree_from_json_dict({"node": "sequence", "children": [
            {**leaf, "q": 1}, leaf]}))


# ---------------------------------------------------------------------------
# Malformed items: the readers against a reading into views


def rotation_view(item, what):
    angle = item["angle"]
    return LocalRotation(_json_int(item["q"], what), str(item["axis"]),
                         angle if type(angle) is float
                         else _json_float(angle, "angle"))


def gate_view(item):
    """One gate item read into its view, field by field."""
    kind = item["kind"]
    if kind == "local":
        return rotation_view(item, "gate spin")
    if kind == "zz":
        left, right = (_json_int(v, "coupling spin") for v in
                       _json_array(item["pair"], "coupling pair"))
        if right != left + 1:
            raise ValidationError(
                f"coupling pair must be adjacent, got [{left}, {right}]")
        angle = item["angle"]
        return CouplingEvolution(left, angle if type(angle) is float
                                 else _json_float(angle, "angle"))
    if kind == "phase":
        return GlobalPhase(_json_float(item["phi"], "phase"))
    raise ValidationError(f"unknown gate kind {kind!r}")


def event_view(item):
    """One event item read into its view, field by field."""
    kind = item["kind"]
    if kind == "pulse":
        return rotation_view(item, "pulse spin")
    if kind == "delay":
        t = item["t"]
        return Delay(t if type(t) is float else _json_float(t, "delay t"))
    raise ValidationError(f"unknown event kind {kind!r}")


def views_of(items, view, what):
    out = []
    for k, item in enumerate(items):
        try:
            out.append(view(item))
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, ValidationError):
                raise type(exc)(f"{what} at index {k}: {exc}") from exc
            raise ValidationError(f"malformed {what} at index {k}: {exc}") from exc
    return out


def program_of_views(data):
    try:
        chain = ChainSpec.from_json_dict(data["chain"])
        events = views_of(_json_array(data.get("events", []), "program events"),
                          event_view, "event")
        return PulseProgram(chain, events,
                            _json_float(data.get("phase", 0.0), "program phase"))
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ValidationError):
            raise
        raise ValidationError(f"malformed pulse program: {exc}") from exc


# Values that are wrong for each field, or right for another: other JSON
# types, numbers that are not integers, out of range or not finite, and
# near misses.
ODD = {
    "kind": ["chirp", None, 1, [], "local", "zz", "phase", "pulse", "delay"],
    "q": [0, -1, 2.0, 1.5, True, "1", None, 1e308, math.nan, 10 ** 20],
    "axis": ["w", "X", "", 1, None, ["x"], "xy"],
    "angle": [math.nan, math.inf, -math.inf, "0.5", True, None, 1, -0.0,
              5e-324, [0.5]],
    "pair": [[0, 1], [1, 3], [2, 1], [1], [1, 2, 3], [1.0, 2.0], [1.5, 2.5],
             [True, 2], ["1", "2"], "12", {}, None, 3],
}
ODD["phi"] = ODD["t"] = ODD["angle"] + [-1.0, -5e-324]
ODD["extra"] = [1]
GATE_ITEMS = st.sampled_from([
    {"kind": "local", "q": 2, "axis": "y", "angle": 0.25},
    {"kind": "zz", "pair": [1, 2], "angle": -0.5},
    {"kind": "phase", "phi": 1.25}])
EVENT_ITEMS = st.sampled_from([
    {"kind": "pulse", "q": 3, "axis": "x", "angle": math.pi},
    {"kind": "delay", "t": 0.001}])


@st.composite
def malformed(draw, items):
    """A valid item with one field or two dropped or replaced, or an item
    that is not an object at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(ODD["pair"] + ["abc", 5]))
    item = dict(draw(items))
    for _ in range(draw(st.sampled_from([1, 1, 1, 2]))):
        key = draw(st.sampled_from(sorted(item) + ["extra"]))
        if draw(st.integers(0, 3)) == 0:
            item.pop(key, None)
        else:
            item[key] = draw(st.sampled_from(ODD[key]))
    return item


def outcome(read, data):
    try:
        return "read", list(read(data))
    except Exception as exc:  # the error's class and message are compared
        return type(exc), str(exc)


@pytest.mark.parametrize("entry", ["gates", "program"])
@given(data=st.data())
@settings(max_examples=600, deadline=None)
def test_readers_reject_malformed_items_as_the_views_do(entry, data):
    """Each reader fails on the first bad item with the error its view
    raises, under the same index; an item that reads, reads the same."""
    items = GATE_ITEMS if entry == "gates" else EVENT_ITEMS
    good = data.draw(st.lists(items, max_size=4))
    bad = data.draw(st.lists(malformed(items), min_size=1, max_size=3))
    at = data.draw(st.integers(0, len(good)))
    batch = good[:at] + bad + good[at:]
    if entry == "gates":
        got = outcome(gate_list_from_json, batch)
        want = outcome(lambda d: views_of(d, gate_view, "gate"), batch)
    else:
        program = {"chain": {"n": 3, "J": [100.0, 120.0]}, "events": batch,
                   "phase": 0.5}
        got = outcome(lambda d: PulseProgram.from_json_dict(d).events, program)
        want = outcome(lambda d: program_of_views(d).events, program)
    assert got == want
