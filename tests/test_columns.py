"""The column forms of gate lists and pulse programs against their rows.

A :class:`~kakpulse.gates.GateList` holds its gates, and a
:class:`~kakpulse.gates.PulseProgram` its events, as parallel columns,
and a gate or an event is a row ``(kind, site, axis, angle)`` of them,
a view of the columns that iterating builds on demand.  Here the
columns round-trip to the rows, their text is the canonical
dump of the rows' reference dict form (``artifact_oracle``), and the two
readers, one entry point each, reject every malformed item with the
error that reading that item into one of the reference gate and event
objects (``artifact_oracle``) raises, named by its index.  The readers
share the check of a rotation item, so both are held to the same
oracle.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kakpulse import (
    ChainSpec,
    DimensionError,
    EulerNode,
    GateList,
    PulseProgram,
    SequenceNode,
    ValidationError,
    decompose,
    gate_list_from_json,
    gate_list_spin_bound,
    gate_list_to_json_text,
    gate_list_unitary,
    inverse_gate_list,
    pulse_count,
    flatten,
    haar_unitary,
    synthesize_pulses,
    total_coupling_time,
    tree_from_json_dict,
)
from kakpulse import errors
from kakpulse.errors import _json_array, _json_float, _json_int

from artifact_oracle import (
    CouplingEvolution,
    Delay,
    GlobalPhase,
    LocalRotation,
    canonical,
    gate_list_to_json,
    program_to_json_dict,
)


SPINS = st.integers(1, 9)
AXES = st.sampled_from("xyz")
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
    st.tuples(st.just("local"), SPINS, AXES, ANGLES),
    st.tuples(st.just("zz"), SPINS, st.none(), ANGLES),
    st.tuples(st.just("phase"), st.just(0), st.none(), ANGLES))
EVENTS = st.one_of(
    st.tuples(st.just("pulse"), SPINS, AXES, ANGLES),
    st.tuples(st.just("delay"), st.just(0), st.none(), DURATIONS))
# the names a repr spells, NumPy's for its scalars
NAMES = {"GateList": GateList, "PulseProgram": PulseProgram,
         "ChainSpec": ChainSpec, "np": np}


@st.composite
def chains(draw):
    n = draw(st.integers(1, 5))
    return ChainSpec(n, tuple(draw(st.lists(
        st.floats(1.0, 500.0), min_size=n - 1, max_size=n - 1))))


@given(rows=st.lists(GATES, max_size=40))
@settings(max_examples=150, deadline=None)
def test_gate_columns_round_trip_to_the_views(rows):
    gates = GateList(rows)
    assert len(gates) == len(rows)
    assert list(gates) == rows
    assert [gates[k] for k in range(len(rows))] == rows
    assert eval(repr(gates), NAMES) == gates
    text = gate_list_to_json_text(gates)
    assert text == canonical(gate_list_to_json(rows))
    assert gate_list_from_json(json.loads(text)) == gates
    assert list(inverse_gate_list(gates)) == [
        (kind, site, axis, -angle)
        for kind, site, axis, angle in reversed(rows)]
    assert gate_list_spin_bound(gates) == max(
        (site if kind == "local" else site + 1
         for kind, site, _, _ in rows if kind != "phase"), default=0)


@given(chain=chains(), rows=st.lists(EVENTS, max_size=40), phase=ANGLES)
@settings(max_examples=150, deadline=None)
def test_program_columns_round_trip_to_the_views(chain, rows, phase):
    off = [k for k, (_, q, _, _) in enumerate(rows) if q > chain.n]
    if off:
        # a pulse off the chain is refused, named by its index; the round
        # trip runs on the rows with such pulses moved onto the last spin
        with pytest.raises(DimensionError,
                           match=f"^event at index {off[0]}: pulse on spin"):
            PulseProgram(chain, rows, phase)
        rows = [(kind, min(q, chain.n), axis, value)
                for kind, q, axis, value in rows]
    program = PulseProgram(chain, rows, phase)
    assert list(zip(*program.columns())) == rows
    assert eval(repr(program), NAMES) == program
    text = program.to_json_text()
    assert text == canonical(program_to_json_dict(program))
    assert PulseProgram.from_json_dict(json.loads(text)) == program
    assert pulse_count(program) == sum(row[0] == "pulse" for row in rows)
    assert total_coupling_time(program) == sum(
        t for kind, _, _, t in rows if kind == "delay")


def test_unknown_objects_have_no_columns():
    """A row of a kind the other form holds is refused, as its reader
    refuses the item."""
    with pytest.raises(ValidationError, match="unknown gate kind 'delay'"):
        GateList([("phase", 0, None, 0.1), ("delay", 0, None, 0.1)])
    with pytest.raises(ValidationError, match="unknown event kind 'phase'"):
        PulseProgram(ChainSpec.uniform(2), [("delay", 0, None, 0.1),
                                            ("phase", 0, None, 0.1)])


def test_gate_lists_compare_only_with_gate_lists():
    """``==`` compares columns; a list of the same rows is not a gate
    list, nor is a program."""
    rows = [("local", 1, "x", 0.1), ("zz", 1, None, 0.2)]
    gates = GateList(rows)
    assert gates == GateList(rows) and gates != GateList(rows[:1])
    assert gates != rows and gates != tuple(rows)
    program = PulseProgram(ChainSpec.uniform(2), [("delay", 0, None, 0.1)])
    assert gates != program and program != list(zip(*program.columns()))


def test_a_program_is_read_by_rows_as_a_gate_list_is():
    """``len``, iteration and ``program[k]`` read the columns, and the
    rows rebuild the program, as its ``repr`` does."""
    gates = flatten(decompose(haar_unitary(8, 103, special=True)))
    program = synthesize_pulses(gates, ChainSpec.uniform(3))
    rows = list(zip(*program.columns()))
    assert len(program) == len(rows) > 0
    assert list(program) == rows
    assert [program[k] for k in range(len(program))] == rows
    assert program[-1] == rows[-1]
    assert PulseProgram(program.chain, list(program), program.phase) == program
    assert eval(repr(program), NAMES) == program


def test_a_gate_list_never_equals_a_program():
    """Not even with no steps, where their columns are equal."""
    empty, idle = GateList(), PulseProgram(ChainSpec.uniform(2))
    assert empty.columns() == idle.columns()
    assert empty != idle and idle != empty
    assert not (empty == idle or idle == empty)


def test_a_slice_of_a_gate_list_is_a_gate_list():
    rows = [("local", 1, "x", 0.1), ("zz", 1, None, 0.2),
            ("phase", 0, None, 0.3), ("local", 2, "z", 0.4)]
    gates = GateList(rows)
    for k in (slice(1, 3), slice(None, None, -1), slice(5, 9)):
        part = gates[k]
        assert isinstance(part, GateList) and list(part) == rows[k]
    assert gates[-1] == rows[-1]


def test_floats_are_spelled_across_chunk_boundaries(monkeypatch):
    """The writers spell the floats a chunk at a time; with a chunk of
    three, ten gates span four chunks, one of them with an integer and
    one with a NumPy scalar, which are spelled one by one."""
    monkeypatch.setattr(errors, "_SPELL_CHUNK", 3)
    angles = [0.1, -0.0, 5e-324, 1e16, 2, 0.5, np.float64(0.25), math.pi,
              -1e-07, 3.0]
    gates = GateList(("local", 1 + k % 3, "xyz"[k % 3], a) if k % 2
                     else ("zz", 1 + k % 2, None, a)
                     for k, a in enumerate(angles))
    assert gate_list_to_json_text(gates) == canonical(gate_list_to_json(gates))
    program = PulseProgram(ChainSpec.uniform(3), [
        ("delay", 0, None, abs(a)) if k % 2 else ("pulse", 2, "x", a)
        for k, a in enumerate(angles)], 0.7)
    assert program.to_json_text() == canonical(program_to_json_dict(program))


def test_repeated_floats_are_spelled_once_and_both_zeros_apart():
    """A chunk spells each distinct float once; ``-0.0 == 0.0``, so the
    two zeros share one key there and each is spelled by itself."""
    angles = [0.5, -0.0, 0.0, 0.5, -0.0, math.pi, 0.0, 0.5, -math.pi, 0.0, -0.0]
    assert list(errors._json_numbers(angles)) == [json.dumps(a) for a in angles]
    assert list(errors._json_numbers([0.0, 0.0])) == ["0.0", "0.0"]
    assert list(errors._json_numbers([-0.0])) == ["-0.0"]
    gates = GateList(("local", 1, "x", a) if k % 2 else ("zz", 1, None, a)
                     for k, a in enumerate(angles))
    assert gate_list_to_json_text(gates) == canonical(gate_list_to_json(gates))
    program = PulseProgram(ChainSpec.uniform(2), [
        ("delay", 0, None, abs(a)) if k % 3 == 0 else ("pulse", 2, "y", a)
        for k, a in enumerate(angles)], -0.0)
    assert program.to_json_text() == canonical(program_to_json_dict(program))


def test_lowering_checks_the_spin_of_an_euler_leaf():
    """The lowering writes rotations into the columns unchecked, so an
    Euler leaf with spin 0 is refused before it gets there: the tree
    reader builds each leaf through its constructor, which refuses it."""
    leaf = {"node": "euler", "q": 0, "alpha": 0.1, "beta": 0.2, "gamma": 0.3}
    with pytest.raises(ValidationError, match="spin index must be >= 1, got 0"):
        flatten(tree_from_json_dict(leaf))
    with pytest.raises(ValidationError, match="spin index must be >= 1, got 0"):
        flatten(tree_from_json_dict({"node": "sequence", "children": [
            {**leaf, "q": 1}, leaf]}))


def test_lowering_refuses_an_euler_leaf_on_a_bool_spin():
    """A leaf built in Python with spin ``True`` is refused, as the tree
    reader refuses it, not written as ``"q":True``."""
    with pytest.raises(ValidationError,
                       match="^Euler spin must be an integer, got True$"):
        flatten(EulerNode(True, 0.1, 0.2, 0.3))


def test_lowering_reads_an_integral_float_spin_as_an_int():
    """A leaf built in Python with spin ``2.0`` holds, and lowers to,
    spin 2."""
    def leaves(q):
        return SequenceNode((EulerNode(q, 0.1, 0.2, 0.3),
                             EulerNode(1, 0.4, 0.5, 0.6)))

    gates, want = flatten(leaves(2.0)), flatten(leaves(2))
    assert gates == want and {type(q) for q in gates.sites} == {int}
    assert gate_list_to_json_text(gates) == gate_list_to_json_text(want)
    assert np.array_equal(gate_list_unitary(gates, 2),
                          gate_list_unitary(want, 2))


# ---------------------------------------------------------------------------
# Malformed items: the readers against a reading into the reference objects


def rotation_view(item, what):
    angle = item["angle"]
    return LocalRotation(_json_int(item["q"], what), str(item["axis"]),
                         angle if type(angle) is float
                         else _json_float(angle, "angle"))


def gate_view(item):
    """The row of one gate item, read into its reference object field by
    field."""
    kind = item["kind"]
    if kind == "local":
        g = rotation_view(item, "gate spin")
        return "local", g.qubit, g.axis, g.angle
    if kind == "zz":
        left, right = (_json_int(v, "coupling spin") for v in
                       _json_array(item["pair"], "coupling pair"))
        if right != left + 1:
            raise ValidationError(
                f"coupling pair must be adjacent, got [{left}, {right}]")
        angle = item["angle"]
        g = CouplingEvolution(left, angle if type(angle) is float
                              else _json_float(angle, "angle"))
        return "zz", g.left, None, g.angle
    if kind == "phase":
        return "phase", 0, None, GlobalPhase(_json_float(item["phi"],
                                                         "phase")).phi
    raise ValidationError(f"unknown gate kind {kind!r}")


def event_view(item):
    """The row of one event item, read into its reference object field by
    field."""
    kind = item["kind"]
    if kind == "pulse":
        e = rotation_view(item, "pulse spin")
        return "pulse", e.qubit, e.axis, e.angle
    if kind == "delay":
        t = item["t"]
        return "delay", 0, None, Delay(t if type(t) is float
                                       else _json_float(t, "delay t")).duration
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
        rows = views_of(_json_array(data.get("events", []), "program events"),
                        event_view, "event")
        for k, (kind, q, _, _) in enumerate(rows):
            if kind == "pulse" and q > chain.n:
                raise DimensionError(f"event at index {k}: pulse on spin {q} "
                                     f"outside chain of {chain.n}")
        _json_float(data.get("phase", 0.0), "program phase")
        return chain, rows
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
    """Each reader fails on the first bad item with the error its
    reference object raises, under the same index; an item that reads,
    reads the same."""
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
        got = outcome(lambda d: zip(*PulseProgram.from_json_dict(d).columns()),
                      program)
        want = outcome(lambda d: program_of_views(d)[1], program)
    assert got == want
