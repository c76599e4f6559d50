"""The first fault of every item kind the two artifact readers take.

``gate_list_from_json`` reads ``local``, ``zz`` and ``phase`` gates and
``PulseProgram.from_json_dict`` reads ``pulse`` and ``delay`` events.
Each case changes the fields of one well-formed item, placed after a
good one, and names the error class and the exact message the reader
raises for it, or the column entries ``(site, axis, value)`` it reads.
A fault names the item's index; an item with two faults raises the
error of the one the reader meets first.  ``{at}`` stands for
``gate at index 1`` or ``event at index 1`` and ``{spin}`` for
``gate spin`` or ``pulse spin``.

The row constructors, ``GateList(rows)`` and ``PulseProgram(chain,
rows)``, share each kind's check with the readers.  Every fault of the
table that a ``(kind, site, axis, value)`` row can carry (a spin below
1, a bad axis, a value that is not finite or is negative, an unknown
kind) raises the reader's class and message there too, and so does a
fault that only a row carries: a spin that is a bool or not an integer,
or a value that is a bool, a string or None.

A property closes the class: over Python and NumPy ints and floats,
bools, integers past a float's precision and range, strings and None,
whatever ``GateList(rows)``, ``PulseProgram(chain, rows, phase)`` and
``ChainSpec(n, J)`` accept, their text writer writes and their reader
reads back equal, and whatever they refuse, their reader refuses in the
JSON the writer would spell, with the same class.

The tree reader ``tree_from_json_dict`` passes each field of a node to
the node's constructor, so the same holds of ``EulerNode``,
``PhaseNode``, ``SequenceNode`` and ``CartanNode(CartanElement(...))``:
a first-fault table of their items, checked through the reader and the
constructors alike, and a property of each over the same values, whose
refusals also match the reader's message and whose accepted nodes lower
to gates within 1e-12 of the matrix ``evaluate`` gives them, besides the
turns of at most ``TOL_ROTATION`` that the lowering leaves out.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kakpulse import (CartanElement, CartanFamily, CartanNode, ChainSpec,
                      DimensionError, EulerNode, GateList, PauliString,
                      PhaseNode, PulseProgram, RangeError, SequenceNode,
                      ValidationError, evaluate, flatten, gate_list_from_json,
                      gate_list_to_json_text, gate_list_unitary,
                      pulse_program_unitary, tree_from_json_dict,
                      tree_to_json_text)
from kakpulse.pulses import TOL_ROTATION

NAN, INF = math.nan, math.inf
DROP = object()  # a field left out of the item

ROTATION = [
    ('missing q', dict(q=DROP),
     (ValidationError, "malformed {at}: 'q'")),
    ('missing axis', dict(axis=DROP),
     (ValidationError, "malformed {at}: 'axis'")),
    ('missing angle', dict(angle=DROP),
     (ValidationError, "malformed {at}: 'angle'")),
    ('missing kind', dict(kind=DROP),
     (ValidationError, "malformed {at}: 'kind'")),
    ('bool q', dict(q=True),
     (ValidationError, '{at}: {spin} must be an integer, got True')),
    ('string q', dict(q='1'),
     (ValidationError, "{at}: {spin} must be an integer, got '1'")),
    ('non-integral q', dict(q=1.5),
     (ValidationError, '{at}: {spin} must be an integer, got 1.5')),
    ('integral float q', dict(q=2.0),
     (2, 'x', 0.5)),
    ('null q', dict(q=None),
     (ValidationError, '{at}: {spin} must be an integer, got None')),
    ('zero q', dict(q=0),
     (ValidationError, '{at}: spin index must be >= 1, got 0')),
    ('negative q', dict(q=-1),
     (ValidationError, '{at}: spin index must be >= 1, got -1')),
    ('unknown axis', dict(axis='w'),
     (ValidationError, "{at}: axis must be one of ('x', 'y', 'z'), got 'w'")),
    ('numeric axis', dict(axis=1),
     (ValidationError, "{at}: axis must be one of ('x', 'y', 'z'), got '1'")),
    ('null axis', dict(axis=None),
     (ValidationError, "{at}: axis must be one of ('x', 'y', 'z'), "
                       "got 'None'")),
    ('string angle', dict(angle='0.5'),
     (ValidationError, "{at}: angle must be a number, got '0.5'")),
    ('bool angle', dict(angle=True),
     (ValidationError, '{at}: angle must be a number, got True')),
    ('null angle', dict(angle=None),
     (ValidationError, '{at}: angle must be a number, got None')),
    ('nan angle', dict(angle=NAN),
     (ValidationError, '{at}: rotation angle must be finite')),
    ('inf angle', dict(angle=INF),
     (ValidationError, '{at}: rotation angle must be finite')),
    ('-inf angle', dict(angle=-INF),
     (ValidationError, '{at}: rotation angle must be finite')),
    ('integer angle', dict(angle=1),
     (1, 'x', 1.0)),
    ('negative angle', dict(angle=-0.5),
     (1, 'x', -0.5)),
    ('zero q and string angle', dict(q=0, angle='0.5'),
     (ValidationError, "{at}: angle must be a number, got '0.5'")),
    ('bool q and nan angle', dict(q=True, angle=NAN),
     (ValidationError, '{at}: {spin} must be an integer, got True')),
    ('unknown axis and string angle', dict(axis='w', angle='0.5'),
     (ValidationError, "{at}: angle must be a number, got '0.5'")),
    ('zero q and unknown axis', dict(q=0, axis='w'),
     (ValidationError, '{at}: spin index must be >= 1, got 0')),
    ('missing axis and bool q', dict(axis=DROP, q=True),
     (ValidationError, '{at}: {spin} must be an integer, got True')),
    ('missing q and string angle', dict(q=DROP, angle='0.5'),
     (ValidationError, "malformed {at}: 'q'")),
]

COUPLING = [
    ('missing pair', dict(pair=DROP),
     (ValidationError, "malformed {at}: 'pair'")),
    ('missing angle', dict(angle=DROP),
     (ValidationError, "malformed {at}: 'angle'")),
    ('short pair', dict(pair=[1]),
     (ValidationError, 'malformed {at}: not enough values to unpack '
                       '(expected 2, got 1)')),
    ('long pair', dict(pair=[1, 2, 3]),
     (ValidationError, 'malformed {at}: too many values to unpack '
                       '(expected 2)')),
    ('long pair with a string', dict(pair=[1, 2, 'x']),
     (ValidationError, "{at}: coupling spin must be an integer, got 'x'")),
    ('empty pair', dict(pair=[]),
     (ValidationError, 'malformed {at}: not enough values to unpack '
                       '(expected 2, got 0)')),
    ('reversed pair', dict(pair=[2, 1]),
     (ValidationError, '{at}: coupling pair must be adjacent, got [2, 1]')),
    ('non-adjacent pair', dict(pair=[1, 3]),
     (ValidationError, '{at}: coupling pair must be adjacent, got [1, 3]')),
    ('string pair', dict(pair='12'),
     (ValidationError, "{at}: coupling pair must be a JSON array, got '12'")),
    ('object pair', dict(pair={}),
     (ValidationError, '{at}: coupling pair must be a JSON array, got {}')),
    ('null pair', dict(pair=None),
     (ValidationError, '{at}: coupling pair must be a JSON array, got None')),
    ('bool spin', dict(pair=[True, 2]),
     (ValidationError, '{at}: coupling spin must be an integer, got True')),
    ('bool second spin', dict(pair=[1, True]),
     (ValidationError, '{at}: coupling spin must be an integer, got True')),
    ('string spin', dict(pair=['1', 2]),
     (ValidationError, "{at}: coupling spin must be an integer, got '1'")),
    ('non-integral spins', dict(pair=[1.5, 2.5]),
     (ValidationError, '{at}: coupling spin must be an integer, got 1.5')),
    ('integral float spins', dict(pair=[1.0, 2.0]),
     (1, None, 0.3)),
    ('zero spin', dict(pair=[0, 1]),
     (ValidationError, '{at}: pair index must be >= 1, got 0')),
    ('negative spin', dict(pair=[-1, 0]),
     (ValidationError, '{at}: pair index must be >= 1, got -1')),
    ('string angle', dict(angle='0.5'),
     (ValidationError, "{at}: angle must be a number, got '0.5'")),
    ('bool angle', dict(angle=True),
     (ValidationError, '{at}: angle must be a number, got True')),
    ('null angle', dict(angle=None),
     (ValidationError, '{at}: angle must be a number, got None')),
    ('nan angle', dict(angle=NAN),
     (ValidationError, '{at}: coupling angle must be finite')),
    ('inf angle', dict(angle=INF),
     (ValidationError, '{at}: coupling angle must be finite')),
    ('integer angle', dict(angle=1),
     (1, None, 1.0)),
    ('negative angle', dict(angle=-0.3),
     (1, None, -0.3)),
    ('non-adjacent pair and string angle', dict(pair=[1, 3], angle='0.5'),
     (ValidationError, '{at}: coupling pair must be adjacent, got [1, 3]')),
    ('zero spin and nan angle', dict(pair=[0, 1], angle=NAN),
     (ValidationError, '{at}: pair index must be >= 1, got 0')),
    ('bool spin and missing angle', dict(pair=[True, 2], angle=DROP),
     (ValidationError, '{at}: coupling spin must be an integer, got True')),
    ('missing pair and string angle', dict(pair=DROP, angle='0.5'),
     (ValidationError, "malformed {at}: 'pair'")),
]

PHASE = [
    ('missing phi', dict(phi=DROP),
     (ValidationError, "malformed {at}: 'phi'")),
    ('string phi', dict(phi='0.5'),
     (ValidationError, "{at}: phase must be a number, got '0.5'")),
    ('bool phi', dict(phi=True),
     (ValidationError, '{at}: phase must be a number, got True')),
    ('null phi', dict(phi=None),
     (ValidationError, '{at}: phase must be a number, got None')),
    ('nan phi', dict(phi=NAN),
     (ValidationError, '{at}: phase must be finite')),
    ('inf phi', dict(phi=INF),
     (ValidationError, '{at}: phase must be finite')),
    ('integer phi', dict(phi=1),
     (0, None, 1.0)),
    ('negative phi', dict(phi=-0.1),
     (0, None, -0.1)),
]

DELAY = [
    ('missing t', dict(t=DROP),
     (ValidationError, "malformed {at}: 't'")),
    ('string t', dict(t='0.5'),
     (ValidationError, "{at}: delay t must be a number, got '0.5'")),
    ('bool t', dict(t=True),
     (ValidationError, '{at}: delay t must be a number, got True')),
    ('null t', dict(t=None),
     (ValidationError, '{at}: delay t must be a number, got None')),
    ('nan t', dict(t=NAN),
     (RangeError, '{at}: delay must be non-negative and finite, got nan')),
    ('inf t', dict(t=INF),
     (RangeError, '{at}: delay must be non-negative and finite, got inf')),
    ('-inf t', dict(t=-INF),
     (RangeError, '{at}: delay must be non-negative and finite, got -inf')),
    ('negative t', dict(t=-1.0),
     (RangeError, '{at}: delay must be non-negative and finite, got -1.0')),
    ('negative integer t', dict(t=-1),
     (RangeError, '{at}: delay must be non-negative and finite, got -1.0')),
    ('negative zero t', dict(t=-0.0),
     (0, None, -0.0)),
    ('integer t', dict(t=2),
     (0, None, 2.0)),
    ('zero t', dict(t=0),
     (0, None, 0.0)),
    ('string negative t', dict(t='-1'),
     (ValidationError, "{at}: delay t must be a number, got '-1'")),
]


GATES = (
    [("local", {"kind": "local", "q": 1, "axis": "x", "angle": 0.5}, case)
     for case in ROTATION]
    + [("zz", {"kind": "zz", "pair": [1, 2], "angle": 0.3}, case)
       for case in COUPLING]
    + [("phase", {"kind": "phase", "phi": 0.1}, case) for case in PHASE]
    + [("gate", item, (label, {}, expected)) for label, item, expected in (
        ("unknown kind", {"kind": "pulse", "q": 1, "axis": "x", "angle": 0.5},
         (ValidationError, "{at}: unknown gate kind 'pulse'")),
        ("null kind", {"kind": None},
         (ValidationError, "{at}: unknown gate kind None")))]
)
EVENTS = (
    [("pulse", {"kind": "pulse", "q": 1, "axis": "x", "angle": 0.5}, case)
     for case in ROTATION]
    + [("delay", {"kind": "delay", "t": 0.001}, case) for case in DELAY]
    + [("event", {"kind": "local", "q": 1, "axis": "x", "angle": 0.5},
        ("unknown kind", {},
         (ValidationError, "{at}: unknown event kind 'local'"))),
       ("event", {"kind": "pulse", "q": 1, "axis": "x", "angle": 0.5},
        ("pulse off the chain", dict(q=4),
         (DimensionError, "{at}: pulse on spin 4 outside chain of 3")))]
)


def changed(item: dict, fields: dict) -> dict:
    out = dict(item)
    for key, value in fields.items():
        if value is DROP:
            del out[key]
        else:
            out[key] = value
    return out


def read_gate(item):
    gates = gate_list_from_json([{"kind": "phase", "phi": 0.0}, item])
    return gates.kinds[1], gates.sites[1], gates.axes[1], gates.values[1]


def read_event(item):
    program = PulseProgram.from_json_dict({
        "chain": {"n": 3, "J": [100.0, 90.0]},
        "events": [{"kind": "delay", "t": 0.0}, item]})
    return (program.kinds[1], program.sites[1], program.axes[1],
            program.values[1])


def check(read, kind, item, expected, at, spin):
    if isinstance(expected[0], type):
        cls, message = expected
        message = message.replace("{at}", at).replace("{spin}", spin)
        with pytest.raises(ValidationError) as info:
            read(item)
        assert type(info.value) is cls
        assert str(info.value) == message
    else:
        # repr tells 2 from 2.0 and -0.0 from 0.0
        assert repr(read(item)) == repr((kind, *expected))


@pytest.mark.parametrize("kind, item, case", GATES,
                         ids=[f"{k}-{c[0]}" for k, _, c in GATES])
def test_gate_list_first_fault(kind, item, case):
    _, fields, expected = case
    check(read_gate, kind, changed(item, fields), expected,
          "gate at index 1", "gate spin")


@pytest.mark.parametrize("kind, item, case", EVENTS,
                         ids=[f"{k}-{c[0]}" for k, _, c in EVENTS])
def test_pulse_program_first_fault(kind, item, case):
    _, fields, expected = case
    check(read_event, kind, changed(item, fields), expected,
          "event at index 1", "pulse spin")


def as_row(item):
    """The row of an item whose fields have the types a row holds, or
    None: a missing field, a JSON type fault and a pair that is not
    ``[k, k + 1]`` have no row.  A row's value is a float, since the
    readers read a JSON integer as one."""
    try:
        kind = item["kind"]
        if "q" in item:
            q, axis, value = item["q"], item["axis"], item["angle"]
            if type(q) is int and type(axis) is str:
                return kind, q, axis, value
        elif "pair" in item:
            pair, value = item["pair"], item["angle"]
            if (type(pair) is list and len(pair) == 2
                    and all(type(v) is int for v in pair)
                    and pair[1] == pair[0] + 1):
                return kind, pair[0], None, value
        else:
            value = item["phi"] if "phi" in item else item["t"]
            return kind, 0, None, value
    except KeyError:
        pass
    return None


def row_faults(table):
    out = []
    for kind, item, (label, fields, expected) in table:
        row = as_row(changed(item, fields))
        if (isinstance(expected[0], type) and row is not None
                and type(row[3]) is float):
            out.append((f"{kind}-{label}", row, expected))
    return out


GATE_ROWS = row_faults(GATES)
EVENT_ROWS = row_faults(EVENTS)


def test_rows_carry_every_kind_of_fault():
    labels = {label for label, _, _ in GATE_ROWS + EVENT_ROWS}
    assert {"local-zero q", "local-unknown axis", "zz-negative spin",
            "zz-inf angle", "phase-nan phi", "gate-unknown kind",
            "pulse-negative q", "delay-negative t",
            "event-unknown kind", "event-pulse off the chain"} <= labels


@pytest.mark.parametrize("label, row, expected", GATE_ROWS,
                         ids=[label for label, _, _ in GATE_ROWS])
def test_gate_row_first_fault(label, row, expected):
    check(lambda r: GateList([("phase", 0, None, 0.0), r]), None, row,
          expected, "gate at index 1", "gate spin")


@pytest.mark.parametrize("label, row, expected", EVENT_ROWS,
                         ids=[label for label, _, _ in EVENT_ROWS])
def test_event_row_first_fault(label, row, expected):
    check(lambda r: PulseProgram(ChainSpec(3, (100.0, 90.0)),
                                 [("delay", 0, None, 0.0), r]),
          None, row, expected, "event at index 1", "pulse spin")


# Faults that only a row carries, in types JSON does not give: a spin or
# pair index that is a bool, a non-integral float or not a number, and a
# value that is a bool, a string or None.  Each raises the readers'
# class and message, and the first fault is the one the reader meets
# first (the spin before the value, a value's type before a range).
ROW_TYPES = [
    ("local", ("local", True, "x", 0.3),
     (ValidationError, "{at}: gate spin must be an integer, got True")),
    ("local", ("local", 1.5, "x", 0.3),
     (ValidationError, "{at}: gate spin must be an integer, got 1.5")),
    ("local", ("local", "1", "x", 0.3),
     (ValidationError, "{at}: gate spin must be an integer, got '1'")),
    ("local", ("local", 1, "x", True),
     (ValidationError, "{at}: angle must be a number, got True")),
    ("local", ("local", 1, "x", "0.3"),
     (ValidationError, "{at}: angle must be a number, got '0.3'")),
    ("local", ("local", 1, "x", None),
     (ValidationError, "{at}: angle must be a number, got None")),
    ("local", ("local", True, "x", "0.3"),
     (ValidationError, "{at}: gate spin must be an integer, got True")),
    ("local", ("local", 0, "x", "0.3"),
     (ValidationError, "{at}: angle must be a number, got '0.3'")),
    ("zz", ("zz", True, None, 0.3),
     (ValidationError, "{at}: coupling spin must be an integer, got True")),
    ("zz", ("zz", 1.5, None, 0.3),
     (ValidationError, "{at}: coupling spin must be an integer, got 1.5")),
    ("zz", ("zz", 1, None, False),
     (ValidationError, "{at}: angle must be a number, got False")),
    ("phase", ("phase", 0, None, True),
     (ValidationError, "{at}: phase must be a number, got True")),
    ("phase", ("phase", 0, None, "0.1"),
     (ValidationError, "{at}: phase must be a number, got '0.1'")),
    ("pulse", ("pulse", 1.5, "x", 0.3),
     (ValidationError, "{at}: pulse spin must be an integer, got 1.5")),
    ("pulse", ("pulse", np.bool_(True), "x", 0.3),
     (ValidationError, "{at}: pulse spin must be an integer, got "
                       f"{np.bool_(True)!r}")),
    ("pulse", ("pulse", 1, "y", True),
     (ValidationError, "{at}: angle must be a number, got True")),
    ("delay", ("delay", 0, None, True),
     (ValidationError, "{at}: delay t must be a number, got True")),
    ("delay", ("delay", 0, None, "1e-3"),
     (ValidationError, "{at}: delay t must be a number, got '1e-3'")),
]
CHAIN = ChainSpec(3, (100.0, 90.0))


def build_rows(kind, rows):
    if kind in ("pulse", "delay"):
        return PulseProgram(CHAIN, rows)
    return GateList(rows)


@pytest.mark.parametrize("kind, row, expected", ROW_TYPES,
                         ids=[f"{k}-{r[1]!r}-{r[3]!r}" for k, r, _ in ROW_TYPES])
def test_row_types_first_fault(kind, row, expected):
    cls, message = expected
    what = "event" if kind in ("pulse", "delay") else "gate"
    with pytest.raises(ValidationError) as info:
        build_rows(kind, [row])
    assert type(info.value) is cls
    assert str(info.value) == message.replace("{at}", f"{what} at index 0")


@pytest.mark.parametrize("row, want", [
    (("local", 2.0, "x", 0.3), ("local", 2, "x", 0.3)),
    (("local", np.int64(2), "y", 1), ("local", 2, "y", 1)),
    (("zz", np.float64(1.0), None, np.float64(0.5)),
     ("zz", 1, None, np.float64(0.5))),
    (("pulse", np.int32(3), "z", -0.25), ("pulse", 3, "z", -0.25)),
    (("delay", 0, None, 2), ("delay", 0, None, 2)),
])
def test_row_spins_are_read_as_ints_and_values_kept(row, want):
    """An integral float or a NumPy integer spin is an ``int``, as the
    readers make ``2.0`` one; a value is kept as given."""
    table = build_rows(row[0], [row])
    assert repr(table[0]) == repr(want) and type(table[0][1]) is int
    if row[0] in ("local", "zz"):
        text = gate_list_to_json_text(table)
        assert gate_list_from_json(json.loads(text))[0] == want
        gate_list_unitary(table, 3)
    else:
        text = table.to_json_text()
        assert PulseProgram.from_json_dict(json.loads(text))[0] == want
        pulse_program_unitary(table)


@pytest.mark.parametrize("kind", [[], {}, 1, None])
def test_kinds_that_are_not_strings_are_unknown(kind):
    """A kind that is not a string, hashable or not, is an unknown kind in
    both readers and both row constructors."""
    for what, read in (("gate", gate_list_from_json),
                       ("event", lambda items: PulseProgram.from_json_dict(
                           {"chain": {"n": 3, "J": [100.0, 90.0]},
                            "events": items}))):
        with pytest.raises(ValidationError) as info:
            read([{"kind": kind, "q": 1, "axis": "x", "angle": 0.5}])
        assert str(info.value) == (
            f"{what} at index 0: unknown {what} kind {kind!r}")
    for what, kinds in (("gate", "local"), ("event", "pulse")):
        with pytest.raises(ValidationError) as info:
            build_rows(kinds, [(kinds, 1, "x", 0.5), (kind, 1, "x", 0.5)])
        assert str(info.value) == (
            f"{what} at index 1: unknown {what} kind {kind!r}")


def test_a_faulty_event_is_reported_before_a_faulty_phase():
    data = {"chain": {"n": 3, "J": [100.0, 90.0]},
            "events": [{"kind": "delay", "t": -1.0}], "phase": math.nan}
    with pytest.raises(RangeError, match=r"^event at index 0: delay must be "
                       r"non-negative and finite, got -1.0$"):
        PulseProgram.from_json_dict(data)
    data["events"] = []
    with pytest.raises(ValidationError,
                       match="^program phase must be finite$"):
        PulseProgram.from_json_dict(data)


@pytest.mark.parametrize("phase", [True, "0.1", None])
def test_a_program_phase_must_be_a_number(phase):
    """As the reader refuses a ``phase`` that is not a JSON number."""
    with pytest.raises(ValidationError) as info:
        PulseProgram(CHAIN, [], phase)
    assert str(info.value) == f"program phase must be a number, got {phase!r}"


@pytest.mark.parametrize("n, couplings, message", [
    (2, (True,), "coupling J must be a number, got True"),
    (2, ("100",), "coupling J must be a number, got '100'"),
    (3, (100.0, None), "coupling J must be a number, got None"),
    (True, (), "chain size n must be an integer, got True"),
    ("2", (100.0,), "chain size n must be an integer, got '2'"),
    (2.5, (100.0,), "chain size n must be an integer, got 2.5"),
])
def test_a_chain_refuses_what_its_reader_refuses(n, couplings, message):
    """A bool or a string is neither a spin count nor a coupling, as in
    the chain object of a program artifact."""
    with pytest.raises(ValidationError) as info:
        ChainSpec(n, couplings)
    assert type(info.value) is ValidationError
    assert str(info.value) == message


@pytest.mark.parametrize("n, couplings", [
    (2, (100,)), (2.0, (100.0,)), (np.int64(3), (np.float64(120.5), 80)),
    (3, [np.int32(90), np.float32(0.5)]), (1, ()), (1.0, []),
])
def test_a_program_on_any_chain_reads_back_from_its_text(n, couplings):
    """The chain is held as its reader reads it: ``n`` an ``int`` and each
    coupling a ``float``, so its program's text reads back equal."""
    chain = ChainSpec(n, couplings)
    assert type(chain.n) is int and chain.n == n
    assert all(type(j) is float for j in chain.couplings)
    assert chain.couplings == tuple(map(float, couplings))
    program = PulseProgram(chain, [("delay", 0, None, 0.1),
                                   ("pulse", chain.n, "x", 0.5)], 0.25)
    text = program.to_json_text()
    assert text == json.dumps(json.loads(text), sort_keys=True,
                              separators=(",", ":"))
    assert PulseProgram.from_json_dict(json.loads(text)) == program


@pytest.mark.parametrize("value", [np.int64(1), np.int32(-3), np.uint8(7),
                                   np.float32(0.5), np.float16(-0.25)])
def test_numpy_row_values_are_written_and_read_back(value):
    """A NumPy number that a row constructor accepts is held as the
    ``int`` or ``float`` it equals, so its text is written and reads back
    equal, in a gate list and in a pulse program alike."""
    gates = GateList([("local", 1, "x", value), ("zz", 1, None, value),
                      ("phase", 0, None, value)])
    assert all(type(v) in (int, float) for v in gates.values)
    assert gate_list_from_json(json.loads(
        gate_list_to_json_text(gates))) == gates
    program = PulseProgram(CHAIN, [("delay", 0, None, abs(value)),
                                   ("pulse", 2, "y", value)])
    assert PulseProgram.from_json_dict(json.loads(
        program.to_json_text())) == program


@pytest.mark.parametrize("build", [
    lambda big: GateList([("local", 1, "x", big)]),
    lambda big: GateList([("zz", 1, None, -big)]),
    lambda big: PulseProgram(CHAIN, [("delay", 0, None, big)]),
    lambda big: PulseProgram(CHAIN, [], big),
    lambda big: gate_list_from_json([{"kind": "phase", "phi": big}]),
])
def test_an_integer_past_the_largest_float_is_out_of_range(build):
    """Rows hold what the simulator can turn into a float: an integer
    past the largest one is a ``RangeError``, not a bare
    ``OverflowError``."""
    with pytest.raises(RangeError, match="must be finite, got an integer "
                       "of 1329 bits"):
        build(10 ** 400)


# ---------------------------------------------------------------------------
# Whatever a constructor accepts reads back; whatever it refuses, the
# reader refuses too.

NUMPY_INTS = (np.int8, np.int16, np.int32, np.int64,
              np.uint8, np.uint16, np.uint32, np.uint64)
NUMPY_FLOATS = (np.float16, np.float32, np.float64)
SCALARS = st.one_of(
    st.integers(), st.floats(), st.booleans(),
    # integers past the float's precision and past its range
    st.integers(2 ** 53, 2 ** 1100), st.integers(-2 ** 1100, -2 ** 53),
    st.sampled_from(NUMPY_INTS).flatmap(
        lambda t: st.integers(int(np.iinfo(t).min),
                              int(np.iinfo(t).max)).map(t)),
    st.sampled_from(NUMPY_FLOATS).flatmap(
        lambda t: st.floats(width=np.finfo(t).bits).map(t)),
    # integral floats of every width, which a spin may be
    st.tuples(st.sampled_from((float,) + NUMPY_FLOATS),
              st.integers(-1, 4)).map(lambda tk: tk[0](tk[1])),
    st.booleans().map(np.bool_), st.text(max_size=3), st.none())
KINDS = st.sampled_from(["local", "zz", "phase", "pulse", "delay"]) | SCALARS
ROWS = st.lists(st.tuples(
    KINDS, st.integers(1, 4) | SCALARS,
    st.sampled_from(["x", "y", "z", "w", None]) | SCALARS,
    st.floats(-10.0, 10.0) | SCALARS), max_size=3)


def plain(value):
    """``value`` as JSON spells it and its reader reads it back."""
    return value.item() if isinstance(value, np.generic) else value


def row_item(kind, site, axis, value):
    """The JSON item of a row, as the writer would spell it."""
    kind, site, axis, value = map(plain, (kind, site, axis, value))
    if kind in ("local", "pulse"):
        return {"kind": kind, "q": site, "axis": axis, "angle": value}
    if kind == "zz":
        if type(site) is float and site.is_integer():
            site = int(site)  # as the row holds it, and writes its pair
        return {"kind": kind, "pair": [site, site + 1 if type(site) is int
                                       else 2], "angle": value}
    if kind == "delay":
        return {"kind": kind, "t": value}
    return {"kind": kind, "phi": value}


def refuses_as_its_reader(build, read, data, exact=True):
    """Build the table, or check that reading ``data`` refuses it with
    the class the constructor raised; returns the table or None."""
    try:
        return build()
    except ValidationError as exc:
        with pytest.raises(ValidationError) as info:
            read(data)
        if exact:
            assert type(exc) is type(info.value), (exc, info.value)
        else:
            assert isinstance(exc, type(info.value)), (exc, info.value)
        return None


@given(rows=ROWS)
@example(rows=[("local", np.float32(2.0), "x", 2 ** 53 + 1)])
@settings(max_examples=300, deadline=None)
def test_gate_rows_read_back_or_are_refused_as_the_reader_refuses(rows):
    items = [row_item(*row) for row in rows]
    gates = refuses_as_its_reader(lambda: GateList(rows),
                                  gate_list_from_json, items)
    if gates is not None:
        text = gate_list_to_json_text(gates)
        assert gate_list_from_json(json.loads(text)) == gates


@given(rows=ROWS, phase=st.floats(-4.0, 4.0) | SCALARS)
@example(rows=[], phase=2 ** 53 + 1)
@example(rows=[("pulse", 4, "x", 0.1)], phase=0.0)  # off the 3-spin chain
@settings(max_examples=300, deadline=None)
def test_event_rows_read_back_or_are_refused_as_the_reader_refuses(rows,
                                                                  phase):
    data = {"chain": {"n": CHAIN.n, "J": list(CHAIN.couplings)},
            "events": [row_item(*row) for row in rows], "phase": plain(phase)}
    program = refuses_as_its_reader(
        lambda: PulseProgram(CHAIN, rows, phase),
        PulseProgram.from_json_dict, data)
    if program is not None:
        text = program.to_json_text()
        assert PulseProgram.from_json_dict(json.loads(text)) == program


@given(n=st.integers(1, 4) | SCALARS,
       couplings=st.lists(st.floats(1e-3, 1e3) | SCALARS, max_size=3))
@example(n=np.float16(2.0), couplings=[2 ** 53 + 1])
@settings(max_examples=300, deadline=None)
def test_chains_read_back_or_are_refused_as_the_reader_refuses(n, couplings):
    """The chain reader reports every fault as a malformed chain object,
    a ``ValidationError``, whatever the class of the constructor's."""
    data = {"n": plain(n), "J": [plain(j) for j in couplings]}
    chain = refuses_as_its_reader(lambda: ChainSpec(n, couplings),
                                  ChainSpec.from_json_dict, data, exact=False)
    if chain is not None:
        text = PulseProgram(chain).to_json_text()
        assert PulseProgram.from_json_dict(json.loads(text)).chain == chain


# ---------------------------------------------------------------------------
# Tree nodes: ``tree_from_json_dict`` passes each field of a node item to
# the node's constructor as it stands, so a fault raises the same class
# and message from the reader as from the constructor.  Each case
# changes the fields of one well-formed item and names the error, or the
# node the item reads as.  A missing field is the reader's alone.

EULER_ITEM = {"node": "euler", "q": 1, "alpha": 0.1, "beta": 0.2,
              "gamma": 0.3}
PHASE_ITEM = {"node": "phase", "phi": 0.4}
SEQUENCE_ITEM = {"node": "sequence", "children": [PHASE_ITEM, EULER_ITEM]}
LAYER_ITEM = {"node": "commuting_evolution", "n": 3, "family": "outer_x",
              "coeffs": {"ZZX": 0.4, "11X": -0.2}}
ROUTE = [[1, 2], [2, 1], [1, 2]]
BIG = 10 ** 400  # past the largest float


def layer(n=3, family=CartanFamily.OUTER_X, route=None, **coeffs):
    return CartanNode(CartanElement(n, family, {
        PauliString(k): v for k, v in coeffs.items()}), route)


EULER = [
    ('missing q', dict(q=DROP), (ValidationError, "malformed tree object: 'q'")),
    ('missing gamma', dict(gamma=DROP),
     (ValidationError, "malformed tree object: 'gamma'")),
    ('bool q', dict(q=True),
     (ValidationError, 'Euler spin must be an integer, got True')),
    ('string q', dict(q='1'),
     (ValidationError, "Euler spin must be an integer, got '1'")),
    ('non-integral q', dict(q=1.5),
     (ValidationError, 'Euler spin must be an integer, got 1.5')),
    ('null q', dict(q=None),
     (ValidationError, 'Euler spin must be an integer, got None')),
    ('zero q', dict(q=0),
     (ValidationError, 'spin index must be >= 1, got 0')),
    ('negative q', dict(q=-2),
     (ValidationError, 'spin index must be >= 1, got -2')),
    ('integral float q', dict(q=2.0), EulerNode(2, 0.1, 0.2, 0.3)),
    ('string alpha', dict(alpha='0.5'),
     (ValidationError, "Euler angle alpha must be a number, got '0.5'")),
    ('bool beta', dict(beta=False),
     (ValidationError, 'Euler angle beta must be a number, got False')),
    ('null gamma', dict(gamma=None),
     (ValidationError, 'Euler angle gamma must be a number, got None')),
    ('nan alpha', dict(alpha=NAN),
     (ValidationError, 'Euler angle alpha must be finite, got nan')),
    ('inf beta', dict(beta=INF),
     (ValidationError, 'Euler angle beta must be finite, got inf')),
    ('-inf gamma', dict(gamma=-INF),
     (ValidationError, 'Euler angle gamma must be finite, got -inf')),
    ('huge alpha', dict(alpha=BIG),
     (RangeError, 'Euler angle alpha must be finite, got an integer of '
                  '1329 bits')),
    ('integer alpha', dict(alpha=1), EulerNode(1, 1.0, 0.2, 0.3)),
    ('imprecise integer beta', dict(beta=2 ** 53 + 1),
     EulerNode(1, 0.1, 2.0 ** 53, 0.3)),
    ('zero q and nan alpha', dict(q=0, alpha=NAN),
     (ValidationError, 'Euler angle alpha must be finite, got nan')),
    ('bool q and nan alpha', dict(q=True, alpha=NAN),
     (ValidationError, 'Euler spin must be an integer, got True')),
    ('nan alpha and string beta', dict(alpha=NAN, beta='0'),
     (ValidationError, 'Euler angle alpha must be finite, got nan')),
]

PHASE_NODE = [
    ('missing phi', dict(phi=DROP),
     (ValidationError, "malformed tree object: 'phi'")),
    ('string phi', dict(phi='0.5'),
     (ValidationError, "phase must be a number, got '0.5'")),
    ('bool phi', dict(phi=True),
     (ValidationError, 'phase must be a number, got True')),
    ('null phi', dict(phi=None),
     (ValidationError, 'phase must be a number, got None')),
    ('nan phi', dict(phi=NAN),
     (ValidationError, 'phase must be finite, got nan')),
    ('inf phi', dict(phi=INF),
     (ValidationError, 'phase must be finite, got inf')),
    ('huge phi', dict(phi=-BIG),
     (RangeError, 'phase must be finite, got an integer of 1329 bits')),
    ('integer phi', dict(phi=2), PhaseNode(2.0)),
    ('imprecise integer phi', dict(phi=2 ** 53 + 1), PhaseNode(2.0 ** 53)),
]

SEQUENCE = [
    ('missing children', dict(children=DROP),
     (ValidationError, "malformed tree object: 'children'")),
    ('object children', dict(children={}),
     (ValidationError, 'sequence children must be a JSON array, got {}')),
    ('string children', dict(children='ab'),
     (ValidationError, "sequence children must be a JSON array, got 'ab'")),
    ('null children', dict(children=None),
     (ValidationError, 'sequence children must be a JSON array, got None')),
    ('number child', dict(children=[PHASE_ITEM, 1]),
     (ValidationError, 'unknown tree node 1')),
    ('string child', dict(children=['phase']),
     (ValidationError, "unknown tree node 'phase'")),
    ('null child', dict(children=[None]),
     (ValidationError, 'unknown tree node None')),
    ('faulty child', dict(children=[PHASE_ITEM, {**EULER_ITEM, "q": 0}]),
     (ValidationError, 'spin index must be >= 1, got 0')),
    ('empty children', dict(children=[]), SequenceNode(())),
]

LAYER = [
    ('missing n', dict(n=DROP), (ValidationError, "malformed tree object: 'n'")),
    ('missing family', dict(family=DROP),
     (ValidationError, "malformed tree object: 'family'")),
    ('missing coeffs', dict(coeffs=DROP),
     (ValidationError, "malformed tree object: 'coeffs'")),
    ('bool n', dict(n=True),
     (ValidationError, 'commuting-evolution size n must be an integer, '
                       'got True')),
    ('string n', dict(n='3'),
     (ValidationError, "commuting-evolution size n must be an integer, "
                       "got '3'")),
    ('non-integral n', dict(n=3.5),
     (ValidationError, 'commuting-evolution size n must be an integer, '
                       'got 3.5')),
    ('integral float n', dict(n=3.0), layer(ZZX=0.4, **{"11X": -0.2})),
    ('small n', dict(n=1, coeffs={}),
     (ValidationError, 'n must be in [2, 12], got 1')),
    ('n of other strings', dict(n=4),
     (ValidationError, 'string ZZX is not in the outer_x family for n=4')),
    ('unknown family', dict(family='block_z'),
     (ValidationError, "commuting family must be one of ('outer_x', "
                       "'diagonal', 'maximal'), got 'block_z'")),
    ('null family', dict(family=None),
     (ValidationError, "commuting family must be one of ('outer_x', "
                       "'diagonal', 'maximal'), got None")),
    ('family of other strings', dict(family='diagonal'),
     (ValidationError, 'string ZZX is not in the diagonal family for n=3')),
    ('array coeffs', dict(coeffs=[["ZZX", 0.4]]),
     (ValidationError, 'commuting-evolution coefficients must be an object, '
                       'got list')),
    ('null coeffs', dict(coeffs=None),
     (ValidationError, 'commuting-evolution coefficients must be an object, '
                       'got NoneType')),
    ('string coefficient', dict(coeffs={"ZZX": '0.4'}),
     (ValidationError, "coefficient of ZZX must be a number, got '0.4'")),
    ('bool coefficient', dict(coeffs={"ZZX": True}),
     (ValidationError, 'coefficient of ZZX must be a number, got True')),
    ('null coefficient', dict(coeffs={"11X": 0.1, "ZZX": None}),
     (ValidationError, 'coefficient of ZZX must be a number, got None')),
    ('nan coefficient', dict(coeffs={"ZZX": NAN}),
     (ValidationError, 'non-finite coefficient for ZZX')),
    ('inf coefficient', dict(coeffs={"ZZX": -INF}),
     (ValidationError, 'non-finite coefficient for ZZX')),
    ('huge coefficient', dict(coeffs={"ZZX": BIG}),
     (RangeError, 'coefficient of ZZX must be finite, got an integer of '
                  '1329 bits')),
    ('integer coefficient', dict(coeffs={"ZZX": 1}), layer(ZZX=1.0)),
    ('imprecise integer coefficient', dict(coeffs={"ZZX": 2 ** 53 + 1}),
     layer(ZZX=2.0 ** 53)),
    ('bad letters', dict(coeffs={"ZQX": 0.4}),
     (ValidationError, "invalid letters ['Q'] in 'ZQX'")),
    ('string off the family', dict(coeffs={"XXX": 0.4}),
     (ValidationError, 'string XXX is not in the outer_x family for n=3')),
    ('empty coeffs', dict(coeffs={}), layer()),
    ('route', dict(route=ROUTE),
     layer(route=((1, 2), (2, 1), (1, 2)), ZZX=0.4, **{"11X": -0.2})),
    ('null route', dict(route=None), layer(ZZX=0.4, **{"11X": -0.2})),
    ('string route', dict(route='12'),
     (ValidationError, 'a route must be an array, got str')),
    ('object route', dict(route={"1": 2}),
     (ValidationError, 'a route must be an array, got dict')),
    ('flat route', dict(route=[1, 2]),
     (ValidationError, 'route step 1 is not a CNOT on adjacent spins of '
                       '1..3')),
    ('long route step', dict(route=[[1, 2, 3]]),
     (ValidationError, 'route step (1, 2, 3) is not a CNOT on adjacent '
                       'spins of 1..3')),
    ('float route spin', dict(route=[[1.0, 2]]),
     (ValidationError, 'route step (1.0, 2) is not a CNOT on adjacent '
                       'spins of 1..3')),
    ('route that ends closed', dict(route=[]),
     (ValidationError, 'route () never holds the parity of ZZX')),
    ('route that ends closed over strings it holds',
     dict(route=[], coeffs={"1ZX": 0.4, "11X": -0.2}),
     layer(route=(), **{"1ZX": 0.4, "11X": -0.2})),
    ('route on the last spin', dict(route=[[3, 2]]),
     (ValidationError, 'route does not leave spin 3 alone at its end')),
    ('route on a maximal layer', dict(n=2, family='maximal',
                                      coeffs={"ZZ": 0.1}, route=ROUTE),
     (ValidationError, 'a maximal element on 2 spins takes no route')),
    ('bool n and array coeffs', dict(n=True, coeffs=[]),
     (ValidationError, 'commuting-evolution size n must be an integer, '
                       'got True')),
    ('array coeffs and unknown family', dict(coeffs=[], family='x'),
     (ValidationError, 'commuting-evolution coefficients must be an object, '
                       'got list')),
    ('unknown family and string coefficient',
     dict(family='x', coeffs={"ZZX": '0'}),
     (ValidationError, "commuting family must be one of ('outer_x', "
                       "'diagonal', 'maximal'), got 'x'")),
    ('string coefficient and string off the family',
     dict(coeffs={"XXX": 0.1, "ZZX": '0'}),
     (ValidationError, "coefficient of ZZX must be a number, got '0'")),
    ('string coefficient and bad route',
     dict(coeffs={"ZZX": '0'}, route='12'),
     (ValidationError, "coefficient of ZZX must be a number, got '0'")),
]

TREE_ITEMS = ([("euler", EULER_ITEM, case) for case in EULER]
              + [("phase", PHASE_ITEM, case) for case in PHASE_NODE]
              + [("sequence", SEQUENCE_ITEM, case) for case in SEQUENCE]
              + [("layer", LAYER_ITEM, case) for case in LAYER])


def build_node(data):
    """The node of an item built by its constructor, from the item's
    fields as they stand: each child of a sequence from its own item,
    any other child as it stands."""
    if not isinstance(data, dict):
        return data
    kind = data["node"]
    if kind == "euler":
        return EulerNode(data["q"], data["alpha"], data["beta"], data["gamma"])
    if kind == "phase":
        return PhaseNode(data["phi"])
    if kind == "sequence":
        children = data["children"]
        if isinstance(children, list):
            children = [build_node(child) for child in children]
        return SequenceNode(children)
    return CartanNode(CartanElement(data["n"], data["family"],
                                    data["coeffs"]), data.get("route"))


@pytest.mark.parametrize("kind, item, case", TREE_ITEMS,
                         ids=[f"{k}-{c[0]}" for k, _, c in TREE_ITEMS])
def test_tree_item_first_fault(kind, item, case):
    label, fields, expected = case
    data = changed(item, fields)
    builds = [tree_from_json_dict]
    if not label.startswith("missing"):
        builds.append(build_node)
    for build in builds:
        if isinstance(expected, tuple):
            cls, message = expected
            with pytest.raises(ValidationError) as info:
                build(data)
            assert type(info.value) is cls
            assert str(info.value) == message
        else:
            node = build(data)
            # repr tells 2 from 2.0
            assert node == expected and repr(node) == repr(expected)


def test_tree_items_carry_every_kind_of_fault():
    labels = {f"{kind}-{case[0]}" for kind, _, case in TREE_ITEMS}
    assert {"euler-zero q", "euler-bool q", "euler-nan alpha",
            "phase-imprecise integer phi", "sequence-object children",
            "layer-bool coefficient", "layer-string coefficient",
            "layer-non-integral n", "layer-string route"} <= labels


# Whatever a node constructor accepts reads back equal from its text,
# evaluates, and lowers to gates that rebuild what it evaluates to, huge
# angles included; whatever it refuses, the reader refuses in the JSON the
# writer would spell, with the same class, and with the same message
# where that JSON reads back as the values given (a NumPy scalar's repr
# or a node's is not its JSON spelling).

def spelled(value):
    """``value`` as the writer would spell it in JSON: a node as its
    text, a list or a tuple as an array, a dict as an object and a NumPy
    scalar as the number it holds."""
    if isinstance(value, (EulerNode, PhaseNode, CartanNode, SequenceNode)):
        return json.loads(tree_to_json_text(value))
    if isinstance(value, (list, tuple)):
        return [spelled(v) for v in value]
    if isinstance(value, dict):
        return {str(k): spelled(v) for k, v in value.items()}
    if isinstance(value, CartanFamily):
        return value.value
    return plain(value)


def reads_as_given(value):
    """Whether ``value`` reads back from its JSON spelling as itself, so
    that a message quoting it quotes the same text."""
    if isinstance(value, (list, tuple)):
        return all(map(reads_as_given, value))
    if isinstance(value, dict):
        return all(map(reads_as_given, value.values()))
    return not isinstance(value, (np.generic, EulerNode, PhaseNode,
                                  CartanNode, SequenceNode))


def spins(node):
    if isinstance(node, EulerNode):
        return node.qubit
    if isinstance(node, CartanNode):
        return node.element.n
    if isinstance(node, SequenceNode):
        return max(map(spins, node.children), default=1)
    return 1


def reads_back_or_is_refused_as_its_reader(build, data, fields):
    try:
        node = build()
    except ValidationError as exc:
        with pytest.raises(ValidationError) as info:
            tree_from_json_dict(json.loads(json.dumps(spelled(data))))
        assert type(info.value) is type(exc), (exc, info.value)
        if reads_as_given(fields):
            assert str(info.value) == str(exc)
        return
    assert tree_from_json_dict(json.loads(tree_to_json_text(node))) == node
    if spins(node) <= 4:
        matrix = evaluate(node, spins(node))
        assert np.isfinite(matrix).all()
        gates = flatten(node)
        # besides rounding, only the turns of at most TOL_ROTATION that the
        # lowering leaves out move it, each an entry by at most half that;
        # a node here holds at most three
        lowered = gate_list_unitary(gates, spins(node))
        assert np.max(np.abs(lowered - matrix)) <= 1e-12 + 1.5 * TOL_ROTATION


def mostly(good):
    """A value of ``good`` on about half the draws, and else one of
    SCALARS; ``good | SCALARS`` would draw a good one far less often."""
    return st.booleans().flatmap(lambda ok: good if ok else SCALARS)


ANGLE = mostly(st.floats(-4.0, 4.0))


@given(q=mostly(st.integers(1, 4)), angles=st.tuples(ANGLE, ANGLE, ANGLE))
@example(q=True, angles=(0.1, 0.2, 0.3))  # was written as "q":True
@example(q=1, angles=(np.float32(0.5), 0.2, 0.3))  # broke the writer
@example(q=1, angles=(NAN, 0.2, 0.3))  # was written as NaN
@example(q=2.0, angles=(0.1, 0.2, 0.3))  # broke evaluate
@example(q=1, angles=(1e308, -1.7e308, 1e300))  # lowered 1.29 away
@example(q=1, angles=(1e7, 0.2, 0.3))  # lowered 1.8e-10 away
@example(q=1, angles=(1.7e308, 0.0, 1.7e308))  # overflowed in evaluate
@example(q=1, angles=(1e-11, 0.0, 0.0))  # a turn the lowering leaves out
@settings(max_examples=300, deadline=None)
def test_euler_nodes_read_back_or_are_refused_as_the_reader_refuses(q,
                                                                   angles):
    alpha, beta, gamma = angles
    data = {"node": "euler", "q": q, "alpha": alpha, "beta": beta,
            "gamma": gamma}
    reads_back_or_is_refused_as_its_reader(
        lambda: EulerNode(q, alpha, beta, gamma), data, [q, *angles])


@given(phi=ANGLE)
@example(phi=2 ** 53 + 1)  # read back unequal
@example(phi=1.7e308)  # lowered 0.37 away
@settings(max_examples=300, deadline=None)
def test_phase_nodes_read_back_or_are_refused_as_the_reader_refuses(phi):
    reads_back_or_is_refused_as_its_reader(
        lambda: PhaseNode(phi), {"node": "phase", "phi": phi}, [phi])


LETTERS = ("ZZ", "XX", "1X", "ZX", "11Z", "1ZX", "ZZX")
FAMILIES = list(CartanFamily) + [f.value for f in CartanFamily]


@st.composite
def layer_fields(draw):
    """``(n, family, coeffs, keyed, route)``; where ``n`` and ``family``
    are good, the strings are drawn from the family's own."""
    n = draw(mostly(st.integers(2, 3)))
    family = draw(mostly(st.sampled_from(FAMILIES)))
    pool = LETTERS
    if n in (2, 3) and family in FAMILIES:
        pool = [s.letters for s in CartanFamily(family).strings(int(n))]
        # Z strings of the leading spins, which a diagonal or outer_x
        # layer on three spins may carry and any other element may not
        pool += ["Z11", "1Z1", "ZZ1"] if n == 3 else ["Z1"]
    coeffs = draw(st.dictionaries(st.sampled_from(pool), ANGLE, max_size=3))
    route = draw(st.sampled_from([None, None, ((1, 2), (2, 1), (1, 2)),
                                  ROUTE, [(1, 2)], "12"]))
    return n, family, coeffs, draw(st.booleans()), route


@given(fields=layer_fields())
@example(fields=(3, CartanFamily.DIAGONAL, {"Z1Z": np.float32(0.5)}, True,
                 None))  # broke the writer
@example(fields=(2, CartanFamily.MAXIMAL, {"ZZ": 2 ** 53 + 1}, True,
                 None))  # read back unequal
@example(fields=(2, CartanFamily.MAXIMAL, {"ZZ": True}, True,
                 None))  # accepted, and refused by the reader
@example(fields=(2, CartanFamily.MAXIMAL, {"ZZ": "0.5"}, True,
                 None))  # raised NumPy's TypeError
@example(fields=(3.0, CartanFamily.DIAGONAL, {"11Z": 0.5}, True,
                 None))  # raised TypeError
@example(fields=(2, CartanFamily.MAXIMAL, {"ZZ": 1.7e308}, True,
                 None))  # failed to lower with a math domain error
@example(fields=(3, CartanFamily.OUTER_X, {"11X": 0, "Z1X": 1}, False,
                 [(1, 2)]))  # a route that never holds Z1X
@example(fields=(3, CartanFamily.DIAGONAL, {"ZZ1": 0.5, "1ZZ": 1}, True,
                 ROUTE))  # a moved leaf phase on a recorded layer
@example(fields=(3, CartanFamily.MAXIMAL, {"Z11": 0.5}, False,
                 None))  # a leading Z string off a diagonal or outer_x layer
@settings(max_examples=300, deadline=None)
def test_layer_nodes_read_back_or_are_refused_as_the_reader_refuses(fields):
    """A layer's strings are given as strings or as their letters."""
    n, family, coeffs, keyed, route = fields
    given_coeffs = ({PauliString(k): v for k, v in coeffs.items()} if keyed
                    else coeffs)
    data = {"node": "commuting_evolution", "n": n, "family": family,
            "coeffs": coeffs}
    if route is not None:
        data["route"] = route
    reads_back_or_is_refused_as_its_reader(
        lambda: CartanNode(CartanElement(n, family, given_coeffs), route),
        data, [n, family, coeffs, route])


NODES = st.sampled_from([PhaseNode(0.5), EulerNode(2, 0.1, 0.2, 0.3),
                         SequenceNode(()), layer(ZZX=0.4)])


@given(children=mostly(st.lists(mostly(NODES), max_size=3).flatmap(
    lambda cs: st.sampled_from([cs, tuple(cs)])) | NODES))
@example(children=[PhaseNode(0.5)])  # read back unequal
@example(children=PhaseNode(0.5))  # broke the writer
@settings(max_examples=300, deadline=None)
def test_sequence_nodes_read_back_or_are_refused_as_the_reader_refuses(
        children):
    reads_back_or_is_refused_as_its_reader(
        lambda: SequenceNode(children),
        {"node": "sequence", "children": children}, [children])
