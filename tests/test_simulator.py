"""Dense simulation of gate lists and pulse programs, plus the
phase-invariant distance report.

The simulators share one Pauli-frame kernel: exact x pi-flips are
bookkeeping, and the other steps fuse into runs of single-spin
operators and of diagonals.  The property tests at the end hold both
simulators, and :func:`kakpulse.evaluate`, to a naive oracle in this
file that Kronecker-embeds and multiplies one step at a time, and hold
``flatten`` to ``evaluate`` on the same random trees.
"""

import json
import math
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kakpulse import (
    CartanElement,
    CartanFamily,
    CartanNode,
    ChainSpec,
    DimensionError,
    EulerNode,
    GateList,
    PauliString,
    PhaseNode,
    PulseProgram,
    SequenceNode,
    ValidationError,
    apply_local,
    decompose,
    distance,
    evaluate,
    flatten,
    gate_list_unitary,
    haar_unitary,
    matrix_to_json_dict,
    pulse_program_unitary,
    synthesize_pulses,
    total_coupling_time,
)
import kakpulse.pulses
from kakpulse import simulate
from kakpulse.cli import main as cli_main

from artifact_oracle import (delay_row, local_row, phase_row,
                             program_to_json_dict, pulse_row, zz_row)

X2 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Y2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
Z2 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA = {"x": X2, "y": Y2, "z": Z2}


def embed(n, qubit, m2):
    return np.kron(np.kron(np.eye(2 ** (qubit - 1)), m2),
                   np.eye(2 ** (n - qubit)))


def zz_quarter(n, left):
    """Dense I_z I_z on the pair (left, left+1)."""
    return embed(n, left, Z2) @ embed(n, left + 1, Z2) / 4


def test_coupling_has_quarter_eigenvalues():
    # a 4*pi coupling angle is -identity, not the identity
    for angle, sign in ((4 * math.pi, -1.0), (8 * math.pi, 1.0)):
        got = gate_list_unitary(GateList([zz_row(1, angle)]), 2)
        assert np.allclose(got, sign * np.eye(4), atol=1e-12)


def skewed_chain_corpus():
    """200 ``(chain, gates)``: chains of 2..5 spins whose couplings span
    1e-6..1e6 Hz, each with a random gate list that couples every pair
    at least once, with up to three rotations before each coupling and
    after the last."""
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        chain = ChainSpec(n, tuple(10.0 ** rng.uniform(-6, 6, n - 1)))
        pairs = [*range(1, n), *rng.integers(1, n, rng.integers(0, 5))]
        rows = []
        for left in [*rng.permutation(pairs), None]:
            rows += [local_row(int(rng.integers(1, n + 1)),
                               "xyz"[rng.integers(3)],
                               rng.uniform(-4 * math.pi, 4 * math.pi))
                     for _ in range(rng.integers(0, 4))]
            if left is not None:
                rows.append(zz_row(int(left), rng.uniform(-4 * math.pi,
                                                          4 * math.pi)))
        yield chain, GateList(rows)


class TestGateListUnitary:
    def test_time_order_is_right_to_left(self):
        gates = GateList([local_row(1, "x", 1.0), local_row(1, "z", 0.5)])
        got = gate_list_unitary(gates, 1)
        rx = scipy.linalg.expm(-0.5j * X2)
        rz = scipy.linalg.expm(-0.25j * Z2)
        assert np.allclose(got, rz @ rx, atol=1e-13)
        assert not np.allclose(got, rx @ rz, atol=1e-3)

    def test_mixed_vocabulary(self):
        gates = GateList([phase_row(0.3), zz_row(1, 0.8),
                          local_row(2, "y", -0.4)])
        got = gate_list_unitary(gates, 2)
        want = (embed(2, 2, scipy.linalg.expm(0.2j * np.array([[0, -1j], [1j, 0]])))
                @ scipy.linalg.expm(-0.8j * zz_quarter(2, 1))
                * np.exp(0.3j))
        assert np.allclose(got, want, atol=1e-12)

    def test_empty_list_is_identity(self):
        assert np.array_equal(gate_list_unitary(GateList(), 2), np.eye(4))

    def test_many_phases_carry_no_rounding(self):
        """Phases are reduced mod 2*pi as they are added, so 231 half
        turns land where one does, in the gate list and in its pulse
        program alike."""
        rx = local_row(1, "x", 0.3)
        many = GateList([phase_row(math.pi)] * 231 + [rx])
        one = GateList([phase_row(math.pi), rx])
        assert np.max(np.abs(gate_list_unitary(many, 2)
                             - gate_list_unitary(one, 2))) < 1e-14
        chain = ChainSpec(2, (100.0,))
        assert np.max(np.abs(
            pulse_program_unitary(synthesize_pulses(many, chain))
            - pulse_program_unitary(synthesize_pulses(one, chain)))) < 1e-14

    def test_refocused_turns_keep_a_short_coupling_on_a_wide_chain(self):
        """On J = 1e-14, 100 Hz each 2 pi coupling on pair 1 runs about
        1e14 s and turns pair 2 by about 3e16 rad, refocused to cancel;
        the 1.0 rad coupling between them is still simulated."""
        gates = GateList([zz_row(1, -2 * math.pi), local_row(2, "x", 0.3),
                          zz_row(1, 2 * math.pi), zz_row(2, 1.0),
                          zz_row(1, 3.9)])
        program = synthesize_pulses(gates, ChainSpec(3, (1e-14, 100.0)))
        report = distance(pulse_program_unitary(program),
                          gate_list_unitary(gates, 3))
        assert report.frobenius < 1e-12

    def test_skewed_chains_keep_the_gate_lists_accuracy(self):
        """On chains whose couplings span 1e-6..1e6 Hz, a weak pair's
        refocused drift turns by up to a few radians per stretch, and
        stronger pairs' by far more inside cells: over 200 random gate
        lists the program stays within 2e-14 of its gate list, as close
        as the rounding of the turns themselves."""
        worst = 0.0
        for chain, gates in skewed_chain_corpus():
            program = synthesize_pulses(gates, chain)
            worst = max(worst, distance(pulse_program_unitary(program),
                                        gate_list_unitary(gates, chain.n)
                                        ).frobenius)
        assert worst < 2e-14

    def test_rejects_gates_off_the_chain(self):
        with pytest.raises(DimensionError):
            gate_list_unitary(GateList([local_row(3, "x", 0.1)]), 2)
        with pytest.raises(DimensionError):
            gate_list_unitary(GateList([zz_row(2, 0.1)]), 2)
        # the same, inside a stretch below the top spin long enough to be
        # simulated as a block, and between two stretches that are
        # diagonal on the top spin and as long
        below = [local_row(1 + k % 5, "xyz"[k % 3], 0.1 * k)
                 for k in range(simulate.BLOCK_MIN_STEPS)]
        diagonal = [[zz_row(5, 0.3), local_row(6, "z", 0.2),
                     local_row(6, "x", math.pi),
                     local_row(1 + k % 5, "xy"[k % 2], 0.1)][k % 4]
                    for k in range(simulate.BLOCK_MIN_STEPS)]
        for bad, spin in ((local_row(7, "x", 0.1), "spin 7"),
                          (local_row(7, "x", math.pi), "spin 7"),
                          (zz_row(6, 0.1), "pair \\(6,7\\)")):
            for stretch in (below, diagonal):
                with pytest.raises(DimensionError, match=spin):
                    gate_list_unitary(GateList(stretch + [bad] + stretch), 6)

    def test_compiled_lists_are_simulated_in_blocks(self):
        """A compiled six-spin list is mostly stretches below the last
        spin, which the kernel simulates as nested blocks; the result is
        the one step-by-step simulation gives."""
        u = haar_unitary(64, 106, special=True)
        gates = flatten(decompose(u))
        with mock.patch.object(simulate, "_frame_unitary",
                               wraps=simulate._frame_unitary) as kernel:
            blocked = gate_list_unitary(gates, 6)
        sizes = {call.args[0] for call in kernel.call_args_list}
        assert sizes == {6, 5, 4}
        stepwise = simulated_gate_list(gates, 6, (7, simulate.BLOCK_MIN_STEPS))
        assert np.max(np.abs(blocked - stepwise)) < 1e-12
        assert np.max(np.abs(blocked - u)) < 1e-10


class TestPulseProgramUnitary:
    def test_delay_is_free_evolution(self):
        chain = ChainSpec(2, (100.0,))
        program = PulseProgram(chain, [delay_row(0.004)])
        h = 2 * math.pi * 100.0 * zz_quarter(2, 1)
        assert np.allclose(pulse_program_unitary(program),
                           scipy.linalg.expm(-0.004j * h), atol=1e-12)

    def test_pulses_delays_and_phase_compose(self):
        chain = ChainSpec(2, (80.0,))
        program = PulseProgram(
            chain, [pulse_row(1, "x", 0.6), delay_row(0.001),
                    pulse_row(2, "z", -1.1)], 0.25)
        h = 2 * math.pi * 80.0 * zz_quarter(2, 1)
        want = (np.exp(0.25j)
                * embed(2, 2, scipy.linalg.expm(0.55j * Z2))
                @ scipy.linalg.expm(-0.001j * h)
                @ embed(2, 1, scipy.linalg.expm(-0.3j * X2)))
        assert np.allclose(pulse_program_unitary(program), want, atol=1e-12)

    def test_empty_program_is_a_phase(self):
        program = PulseProgram(ChainSpec.uniform(2), phase=1.0)
        assert np.allclose(pulse_program_unitary(program),
                           np.exp(1.0j) * np.eye(4), atol=1e-14)

    @pytest.mark.parametrize("pulse", [pulse_row(4, "x", math.pi),
                                       pulse_row(4, "x", -math.pi),
                                       pulse_row(4, "y", 0.3)],
                             ids=["pi-x", "minus-pi-x", "ordinary"])
    def test_rejects_pulses_off_the_chain(self, pulse):
        """A pi-x flip touches no matrix, yet a flip on spin n + 1 is as
        invalid as any other pulse there.  The constructor refuses such a
        program, and the simulator one built by ``add``, which appends
        unchecked."""

        def unchecked(chain, rows):
            with pytest.raises(DimensionError, match="spin"):
                PulseProgram(chain, rows)
            program = PulseProgram(chain)
            for row in rows:
                program.add(*row)
            return program

        program = unchecked(ChainSpec.uniform(3),
                            [delay_row(0.001), pulse, delay_row(0.001)])
        with pytest.raises(DimensionError, match="spin 4"):
            pulse_program_unitary(program)
        # the same on spin 7 of six, between two stretches that are
        # diagonal on spin 6 and long enough to be simulated as blocks
        diagonal = [[delay_row(0.001), pulse_row(6, "z", 0.2),
                     pulse_row(6, "x", math.pi),
                     pulse_row(1 + k % 5, "xy"[k % 2], 0.1)][k % 4]
                    for k in range(simulate.BLOCK_MIN_STEPS)]
        bad = pulse_row(7, *pulse[2:])
        program = unchecked(ChainSpec.uniform(6), diagonal + [bad] + diagonal)
        with pytest.raises(DimensionError, match="spin 7"):
            pulse_program_unitary(program)

    def test_compiled_programs_are_simulated_in_blocks(self):
        """A compiled six-spin program is mostly stretches diagonal on the
        last spin, since its pulses on that spin are few, and the kernel
        simulates them as nested blocks of two branches; the result is
        the one step-by-step simulation gives."""
        u = haar_unitary(64, 106, special=True)
        program = synthesize_pulses(flatten(decompose(u)),
                                    ChainSpec.uniform(6, 100.0))
        with mock.patch.object(simulate, "_frame_unitary",
                               wraps=simulate._frame_unitary) as kernel:
            blocked = pulse_program_unitary(program)
        top, *blocks = kernel.call_args_list
        assert {call.args[0] for call in blocks} == {5, 4}
        # every block keeps all six spins, so it has a branch per value of
        # the spins after its own
        assert {call.args[3] for call in blocks} == {6}
        stepwise = simulated_program(program, (7, simulate.BLOCK_MIN_STEPS))
        assert np.max(np.abs(blocked - stepwise)) < 1e-12
        assert np.max(np.abs(blocked - u)) < 1e-10

    @pytest.mark.parametrize("phase", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_phase(self, phase):
        with pytest.raises(ValidationError):
            PulseProgram(ChainSpec.uniform(2), phase=phase)


class TestDistance:
    def test_equal_matrices(self):
        u = haar_unitary(4, 1)
        report = distance(u, u)
        assert report.frobenius < 1e-14
        assert report.fidelity == pytest.approx(1.0, abs=1e-14)
        assert report.dim == 4

    def test_global_phase_is_ignored(self):
        u = haar_unitary(8, 2)
        report = distance(np.exp(0.9j) * u, u)
        assert report.frobenius < 1e-13
        assert report.fidelity == pytest.approx(1.0, abs=1e-13)

    def test_small_perturbations_register(self):
        u = haar_unitary(4, 3)
        h = np.diag([1.0, -1.0, 0.5, -0.5])
        for eps in (1e-9, 1e-6, 1e-3):
            report = distance(u @ scipy.linalg.expm(-1j * eps * h), u)
            assert eps / 10 < report.frobenius < eps * 10
            assert report.fidelity <= 1.0
            if eps >= 1e-6:
                # fidelity loss goes as eps**2; at 1e-9 it drowns in rounding
                assert report.fidelity < 1.0

    def test_resolves_far_below_sqrt_eps(self):
        """The report must not floor at sqrt(machine-eps)-scale noise;
        tiny true distances have to come out tiny."""
        u = haar_unitary(8, 4)
        report = distance(u, u.copy())
        assert report.frobenius < 1e-13

    def test_orthogonal_case(self):
        report = distance(np.eye(2, dtype=complex),
                          np.array([[0, 1], [1, 0]], dtype=complex))
        assert report.fidelity == pytest.approx(0.0, abs=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            distance(np.eye(2), np.eye(4))

    def test_json_report(self):
        report = distance(haar_unitary(2, 5), haar_unitary(2, 6))
        data = report.to_json_dict()
        assert set(data) == {"dfro", "fid", "dim"}
        assert data["dim"] == 2
        assert data["dfro"] == report.frobenius
        assert data["fid"] == report.fidelity


# ---------------------------------------------------------------------------
# The fused kernel against a naive oracle


def expmh(h):
    """``exp(-1j*h)`` for Hermitian ``h``, from its eigenbasis."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w)) @ v.conj().T


def rotation(axis, angle):
    return expmh(0.5 * angle * SIGMA[axis])


def oracle_gate_list(gates, n):
    """Matrix of a gate list, or of any list of its rows."""
    out = np.eye(2 ** n, dtype=complex)
    for kind, site, axis, angle in gates:
        if kind == "local":
            step = embed(n, site, rotation(axis, angle))
        elif kind == "zz":
            step = expmh(angle * zz_quarter(n, site))
        else:
            step = np.exp(1j * angle) * np.eye(2 ** n)
        out = step @ out
    return out


def oracle_program(program):
    n = program.chain.n
    h = sum((2 * math.pi * program.chain.couplings[k - 1] * zz_quarter(n, k)
             for k in range(1, n)), np.zeros((2 ** n, 2 ** n)))
    out = np.eye(2 ** n, dtype=complex)
    for kind, q, axis, value in zip(*program.columns()):
        if kind == "pulse":
            step = embed(n, q, rotation(axis, value))
        else:
            step = expmh(value * h)
        out = step @ out
    return np.exp(1j * program.phase) * out


def oracle_tree(tree, n):
    """Matrix of a gate tree, one Kronecker-embedded child at a time."""
    if isinstance(tree, SequenceNode):
        out = np.eye(2 ** n, dtype=complex)
        for child in tree.children:
            out = out @ oracle_tree(child, n)
        return out
    if isinstance(tree, EulerNode):
        return embed(n, tree.qubit, euler_matrix(tree))
    if isinstance(tree, PhaseNode):
        return np.exp(1j * tree.phi) * np.eye(2 ** n)
    if isinstance(tree, CartanNode):
        h = np.kron(tree.element.hamiltonian(),
                    np.eye(2 ** (n - tree.element.n)))
        return expmh(h)
    raise TypeError(f"unknown tree node {tree!r}")


def euler_matrix(node):
    return (rotation("x", node.alpha) @ rotation("z", node.beta)
            @ rotation("x", node.gamma))


ANGLES = st.floats(-4 * math.pi, 4 * math.pi, allow_nan=False)
AXES = st.sampled_from("xyz")
DURATIONS = st.one_of(st.just(0.0), st.floats(0.0, 0.01, allow_nan=False))
# Exact +-pi x pulses are frame flips; every other pulse, +-pi about y or z
# or a hair off pi about x, is a rotation that must break a diagonal run.
FRAME_ANGLES = st.one_of(
    st.sampled_from([math.pi, -math.pi, math.pi + 1e-9, math.pi - 1e-9,
                     -math.pi + 1e-9, -math.pi - 1e-9]),
    ANGLES)
# When the kernel opens a block: the module's own rule, or every stretch
# of four steps or more from two spins up, which nests blocks down to a
# single spin.
BLOCK_RULES = st.sampled_from([
    (simulate.BLOCK_MIN_SPINS, simulate.BLOCK_MIN_STEPS), (2, 4)])


def block_rule(rule):
    """Set the kernel's block rule ``(spins, steps)`` for a ``with`` block."""
    spins, steps = rule
    return mock.patch.multiple(simulate, BLOCK_MIN_SPINS=spins,
                               BLOCK_MIN_STEPS=steps)


def simulated_gate_list(gates, n, rule):
    """``gate_list_unitary`` with the block rule ``(spins, steps)``."""
    with block_rule(rule):
        return gate_list_unitary(gates, n)


def simulated_program(program, rule):
    """``pulse_program_unitary`` with the block rule ``(spins, steps)``."""
    with block_rule(rule):
        return pulse_program_unitary(program)


@st.composite
def unequal_chains(draw, min_n=1, max_n=5):
    n = draw(st.integers(min_n, max_n))
    js = draw(st.lists(st.floats(20.0, 250.0, allow_nan=False),
                       min_size=n - 1, max_size=n - 1, unique=True))
    return ChainSpec(n, tuple(js))


@st.composite
def rotation_run(draw, n, kind):
    """Rotations (or pulses, as ``kind`` builds their rows) on one spin,
    or on spins drawn freely."""
    size = draw(st.integers(1, 6))
    if draw(st.booleans()):
        spins = [draw(st.integers(1, n))] * size
    else:
        spins = draw(st.lists(st.integers(1, n), min_size=size, max_size=size))
    return [kind(q, draw(AXES), draw(ANGLES)) for q in spins]


@st.composite
def alternating_runs(draw, local_run, diagonal_run, last):
    """Up to five runs that alternate between the two kinds and end on
    ``last``; the first run's kind follows from the count."""
    count = draw(st.integers(1, 5))
    out = []
    for k in range(count):
        local = (count - 1 - k) % 2 == 0
        if last != "local":
            local = not local
        out.extend(draw(local_run if local else diagonal_run))
    return out


@st.composite
def last_spin_diagonal(draw, n, kind, diagonal, below):
    """A stretch that is diagonal on spin ``n``: rotations (or pulses) on
    spins ``1..n-1``, x +-pi flips among them and diagonal steps drawn
    from ``below`` (none when it is None), which leave spin ``n`` alone;
    or all that, diagonal steps drawn from ``diagonal`` instead, and z
    turns and x +-pi flips of spin ``n``.  It is short, or about as long
    as the kernel's block rule asks, so that some stretches are replayed
    step by step (their flips stay in the frame) and others become
    blocks, of one branch or of two."""
    touch = draw(st.booleans())
    steps = diagonal if touch else below
    size = draw(st.one_of(
        st.integers(0, 6),
        st.integers(simulate.BLOCK_MIN_STEPS - 4, simulate.BLOCK_MIN_STEPS + 16)))
    flip = st.sampled_from([math.pi, -math.pi])
    out = []
    for _ in range(size):
        choice = draw(st.integers(0, 4))
        if choice == 0 and steps is not None:
            out.append(draw(steps))
        elif choice == 1 and touch:
            out.append(kind(n, "z", draw(ANGLES)) if draw(st.booleans())
                       else kind(n, "x", draw(flip)))
        else:
            flipped = choice == 2
            out.append(kind(draw(st.integers(1, n - 1)),
                            "x" if flipped else draw(AXES),
                            draw(flip if flipped else FRAME_ANGLES)))
    return out


def pair_couplings(first, last):
    """Couplings on the pairs ``first..last``."""
    return st.builds(zz_row, st.integers(first, last), ANGLES)


@st.composite
def stretches(draw, n, program=False):
    """Up to four stretches diagonal on the top spin, each followed by a
    z, x or y turn on spin ``n`` or by a coupling on the pair
    ``(n-1, n)``; in a pulse program, by a pulse on spin ``n`` or a
    delay."""
    if n == 1:
        return []
    if program:
        kind, below = pulse_row, None
        inside = after = st.builds(delay_row, DURATIONS)
    else:
        kind, below = local_row, pair_couplings(1, n - 2) if n > 2 else None
        inside, after = pair_couplings(1, n - 1), pair_couplings(n - 1, n - 1)
    out = []
    for _ in range(draw(st.integers(0, 4))):
        out.extend(draw(last_spin_diagonal(n, kind, inside, below)))
        if draw(st.booleans()):
            out.append(kind(n, draw(AXES), draw(FRAME_ANGLES)))
        else:
            out.append(draw(after))
    return out


@st.composite
def gate_lists(draw, last):
    n = draw(st.integers(2 if last == "coupling" else 1, 6))
    couplings = st.lists(pair_couplings(1, max(n - 1, 1)),
                         min_size=1, max_size=3)
    steps = draw(stretches(n))
    steps += draw(alternating_runs(rotation_run(n, local_row),
                                   couplings if n > 1 else st.just([]), last))
    for _ in range(draw(st.integers(0, 3))):
        steps.insert(draw(st.integers(0, len(steps))),
                     phase_row(draw(ANGLES)))
    return n, steps


@st.composite
def programs(draw, last):
    chain = draw(unequal_chains(max_n=6))
    events = draw(stretches(chain.n, program=True))
    events += draw(alternating_runs(
        rotation_run(chain.n, pulse_row),
        st.lists(st.builds(delay_row, DURATIONS), min_size=1, max_size=3),
        last))
    return PulseProgram(chain, events, draw(ANGLES))


@pytest.mark.parametrize("last", ["local", "coupling"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_fused_gate_list_matches_oracle(last, data):
    n, rows = data.draw(gate_lists(last))
    kinds = [row[0] for row in rows if row[0] != "phase"]
    assert kinds[-1] == ("local" if last == "local" else "zz")
    got = simulated_gate_list(GateList(rows), n, data.draw(BLOCK_RULES))
    assert np.max(np.abs(got - oracle_gate_list(rows, n))) < 1e-12


@pytest.mark.parametrize("last", ["local", "delay"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_fused_pulse_program_matches_oracle(last, data):
    program = data.draw(programs(last))
    assert program.kinds[-1] == ("pulse" if last == "local" else "delay")
    got = simulated_program(program, data.draw(BLOCK_RULES))
    assert np.max(np.abs(got - oracle_program(program))) < 1e-12


@st.composite
def frame_steps(draw, n, kind, diagonal):
    """Rotations (or pulses) with frame angles, interleaved step by step
    with diagonal steps drawn from ``diagonal``."""
    out = []
    for _ in range(draw(st.integers(1, 16))):
        if n > 1 and draw(st.integers(0, 3)) == 0:
            out.append(draw(diagonal))
        else:
            out.append(kind(draw(st.integers(1, n)), draw(AXES),
                            draw(FRAME_ANGLES)))
    return out


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_frame_gate_list_matches_oracle(data):
    n = data.draw(st.integers(1, 6))
    rows = data.draw(stretches(n))
    rows += data.draw(frame_steps(n, local_row,
                                  pair_couplings(1, max(n - 1, 1))))
    rows.append(phase_row(data.draw(ANGLES)))
    got = simulated_gate_list(GateList(rows), n, data.draw(BLOCK_RULES))
    assert np.max(np.abs(got - oracle_gate_list(rows, n))) < 1e-12


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_frame_pulse_program_matches_oracle(data):
    chain = data.draw(unequal_chains(max_n=6))
    events = data.draw(stretches(chain.n, program=True))
    events += data.draw(frame_steps(chain.n, pulse_row,
                                    st.builds(delay_row, DURATIONS)))
    program = PulseProgram(chain, events, data.draw(ANGLES))
    got = simulated_program(program, data.draw(BLOCK_RULES))
    assert np.max(np.abs(got - oracle_program(program))) < 1e-12


@pytest.mark.parametrize("axis, angle", [
    ("x", math.pi + 1e-9), ("x", -math.pi - 1e-9), ("x", 3 * math.pi),
    ("y", math.pi), ("y", -math.pi), ("z", math.pi), ("z", -math.pi)])
def test_only_exact_pi_x_pulses_are_flips(axis, angle):
    """Pulses that are not exactly +-pi about x sit between delays and
    between exact flips of the same spin, where a kernel that took them
    for flips would be off by far more than 1e-12."""
    chain = ChainSpec(3, (120.0, 80.0))
    events = [delay_row(0.002), pulse_row(2, axis, angle), delay_row(0.003),
              pulse_row(2, "x", math.pi), pulse_row(2, axis, angle),
              delay_row(0.001), pulse_row(2, "x", -math.pi),
              pulse_row(1, "y", 0.4)]
    program = PulseProgram(chain, events, 0.2)
    got = pulse_program_unitary(program)
    assert np.max(np.abs(got - oracle_program(program))) < 1e-12


class TestFrameKeepsTheDrift:
    """The frame turns refocusing flips into bookkeeping but still
    simulates every delay under the full drift, so a broken refocusing
    block is simulated as broken, not as the coupling it was meant to be."""

    CHAIN = ChainSpec(3, (120.0, 80.0))
    GATES = GateList([zz_row(1, 0.7)])

    def program(self, fault):
        program = synthesize_pulses(self.GATES, self.CHAIN)
        events = list(zip(*program.columns()))
        # half delay, flip of spin 3, half delay, flip of spin 3
        assert program.kinds == ["delay", "pulse", "delay", "pulse"]
        assert all(q == 3 and axis == "x" and abs(angle) == math.pi
                   for _, q, axis, angle in events[1::2])
        if fault == "longer-half-delay":
            events[0] = delay_row(1.01 * events[0][3])
        elif fault == "second-flip-dropped":
            events = events[:3]
        return PulseProgram(self.CHAIN, events, program.phase)

    @pytest.mark.parametrize("fault, verdict", [
        ("intact", "PASS"), ("longer-half-delay", "FAIL"),
        ("second-flip-dropped", "FAIL")])
    def test_block_is_simulated_as_written(self, fault, verdict, tmp_path,
                                           capsys):
        program = self.program(fault)
        got = pulse_program_unitary(program)
        assert np.max(np.abs(got - oracle_program(program))) < 1e-12
        target = tmp_path / "target.json"
        target.write_text(json.dumps(matrix_to_json_dict(
            gate_list_unitary(self.GATES, 3))))
        path = tmp_path / "program.json"
        path.write_text(json.dumps(program_to_json_dict(program)))
        assert cli_main(["verify", str(path), str(target)]) == (
            0 if verdict == "PASS" else 1)
        assert verdict in capsys.readouterr().out


def euler_nodes(qubit):
    return st.builds(EulerNode, st.just(qubit), ANGLES, ANGLES, ANGLES)


@st.composite
def cartan_nodes(draw, n):
    m = draw(st.integers(2, n))
    family = draw(st.sampled_from(list(CartanFamily)))
    pool = family.strings(m)
    if m >= 3 and family is not CartanFamily.MAXIMAL:
        # the Z strings of the leading spins a layer may carry
        pool += [PauliString(s.letters[:-1] + "1")
                 for s in CartanFamily.DIAGONAL.strings(m)[1:]]
    strings = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4,
                            unique=True))
    coeffs = {s: draw(st.floats(-3.0, 3.0, allow_nan=False)) for s in strings}
    return CartanNode(CartanElement(n=m, family=family, coeffs=coeffs))


def trees(n):
    spins = st.integers(1, n)
    leaves = [
        spins.flatmap(euler_nodes),
        st.builds(PhaseNode, ANGLES),
    ]
    if n > 1:
        leaves.append(cartan_nodes(n))
    return st.recursive(
        st.one_of(leaves),
        lambda children: st.builds(lambda cs: SequenceNode(tuple(cs)),
                                   st.lists(children, min_size=1, max_size=4)),
        max_leaves=8)


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_evaluate_matches_oracle_on_random_trees(data):
    n = data.draw(st.integers(1, 5))
    tree = data.draw(trees(n))
    got = evaluate(tree, n)
    assert np.max(np.abs(got - oracle_tree(tree, n))) < 1e-12


@given(case=st.integers(1, 5).flatmap(
    lambda n: st.tuples(st.just(n), trees(n))))
@example(case=(5, SequenceNode((CartanNode(CartanElement(
    5, CartanFamily.OUTER_X, {"Z11Z1": 1.0})),))))
@settings(max_examples=50, deadline=None)
def test_flatten_matches_evaluate_on_random_trees(case):
    """Lowering reproduces the tree on any shape ``decompose`` never emits:
    any family on fewer spins than the chain, two-spin ``MAXIMAL``
    middles with coefficients outside the canonical chamber, leading-spin
    Z strings whose parity the full route never holds."""
    n, tree = case
    got = gate_list_unitary(flatten(tree), n)
    assert np.max(np.abs(got - evaluate(tree, n))) < 1e-10


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_pulses_simulate_to_their_gate_list_on_unequal_chains(data):
    chain = data.draw(unequal_chains(min_n=2))
    n = chain.n
    gates = GateList(data.draw(st.lists(st.one_of(
        st.builds(local_row, st.integers(1, n), AXES, ANGLES),
        pair_couplings(1, n - 1),
        st.builds(phase_row, ANGLES)), max_size=12)))
    program = synthesize_pulses(gates, chain)
    report = distance(pulse_program_unitary(program), gate_list_unitary(gates, n))
    assert report.frobenius < 1e-9


@st.composite
def signed_schedules(draw):
    """An unequal chain of 2..5 spins and a gate list that couples every
    pair at least once, at signed angles, with rotations about x, y and
    z between the couplings."""
    chain = draw(unequal_chains(min_n=2))
    n = chain.n
    rotations = st.lists(
        st.builds(local_row, st.integers(1, n), AXES, ANGLES), max_size=3)
    pairs = draw(st.permutations(
        list(range(1, n)) + draw(st.lists(st.integers(1, n - 1), max_size=4))))
    rows = []
    for left in pairs:
        rows += draw(rotations)
        rows.append(zz_row(left, draw(ANGLES)))
    return chain, GateList(rows + draw(rotations))


def coupling_time(g, chain):
    """Seconds of drift a coupling row runs: its angle reduced mod
    4*pi."""
    _, left, _, angle = g
    return abs(math.remainder(angle, 4 * math.pi)) / (
        2 * math.pi * chain.coupling(left))


def blocks(earlier, later):
    """Whether row ``later`` must wait for row ``earlier``: they share a
    spin and do not both commute as diagonals, or they are couplings on
    one pair, which run one after another."""
    spins = (lambda g: {g[1], g[1] + 1} if g[0] == "zz" else {g[1]})
    if not spins(earlier) & spins(later):
        return False
    diagonal = (lambda g: g[0] == "zz" or g[2] == "z")
    if not (diagonal(earlier) and diagonal(later)):
        return True
    return earlier[0] == later[0] == "zz" and earlier[1] == later[1]


def asap(gates, chain):
    """``[(row, start, end)]``: every rotation and every coupling that
    runs at all, started as soon as every earlier gate it does not
    commute with has ended."""
    placed = []
    for g in gates:
        kind, _, _, angle = g
        if kind == "phase":
            continue
        t = 0.0
        if kind == "zz":
            t = coupling_time(g, chain)
            if t == 0 and not math.remainder(angle, 4 * math.pi):
                continue
        start = max((end for h, _, end in placed if blocks(h, g)), default=0.0)
        placed.append((g, start, start + t))
    return placed


def gate_epochs(gates, chain):
    """By pair: the signed seconds its couplings run in each of its
    epochs, the stretches between two x or y rotations on its spins."""
    epochs = {k: [0.0] for k in range(1, chain.n)}
    for kind, q, axis, angle in gates:
        if kind == "local" and axis != "z":
            for k in (q - 1, q):
                if k in epochs:
                    epochs[k].append(0.0)
        elif kind == "zz":
            epochs[q][-1] += math.remainder(angle, 4 * math.pi) / (
                2 * math.pi * chain.coupling(q))
    return epochs


def turn(axis, angle):
    """The 2x2 rotation ``exp(-1j*angle/2*sigma_axis)``."""
    return (math.cos(angle / 2) * np.eye(2)
            - 1j * math.sin(angle / 2) * SIGMA[axis])


def frame_side(m):
    """Whether a spin is flipped when ``m``, its pulses so far times the
    inverse of its rotations so far, is all it carries past a delay: a
    z turn (diagonal) or a z turn after an x flip (antidiagonal)."""
    on, off = abs(m[0, 0]) + abs(m[1, 1]), abs(m[0, 1]) + abs(m[1, 0])
    assert min(on, off) < 1e-9, m
    return off > on


def scheduled_epochs(gates, chain):
    """``(program, epochs, flips)``: the program scheduled for
    ``gates``, read back from the pulses it writes.  By pair, the signed
    seconds of drift in each of its epochs, in the Pauli frame of the
    pulses; by spin, how often that frame flips it.

    All that is recorded while the program is written is the scheduler's
    clock at each rotation it hands to the frame: the delays written
    before it and the drift the frame holds, not yet written.  Held
    drift goes into the next delay, so a rotation handed in with drift
    held falls inside that delay, which is split there, or at its end.
    A spin's pulses are fused from its rotations and flips, so at each
    piece of drift its flip is read off its pulses so far times the
    inverse of its rotations so far (:func:`frame_side`); an epoch of a
    pair opens where an x or y rotation on one of its spins is handed
    in.  After the last pulse each spin's two products agree up to a
    phase."""
    honest = kakpulse.pulses._Frame.turns
    handed = []  # (delays before it, seconds held, row) of each rotation

    def turns(self, run, turned):
        clock = (self.program.kinds.count("delay"),
                 self.pending / kakpulse.pulses._TICK)
        handed.extend((*clock, turned[i]) for i in run)
        honest(self, run, turned)

    with mock.patch.object(kakpulse.pulses._Frame, "turns", turns):
        program = synthesize_pulses(gates, chain)
    n = chain.n
    pulses = [np.eye(2)] * (n + 1)
    rotations = [np.eye(2)] * (n + 1)
    flipped, flips = [False] * (n + 1), [0] * (n + 1)
    epochs = {k: [[]] for k in range(1, n)}

    def hand_in(delays, held):
        while handed and (handed[0][0] < delays
                          or handed[0][0] == delays and handed[0][1] <= held):
            _, _, (_, q, axis, angle) = handed.pop(0)
            rotations[q] = turn(axis, angle) @ rotations[q]
            if axis != "z":
                for k in (q - 1, q):
                    if k in epochs:
                        epochs[k].append([])

    def read_flips():
        for q in range(1, n + 1):
            side = frame_side(pulses[q] @ rotations[q].conj().T)
            flips[q] += side != flipped[q]
            flipped[q] = side

    def drift(seconds):
        read_flips()
        for k, epoch in epochs.items():
            epoch[-1].append(-seconds if flipped[k] != flipped[k + 1]
                             else seconds)

    delays = 0
    for kind, q, axis, value in program:
        if kind == "pulse":
            assert axis in SIGMA
            pulses[q] = turn(axis, value) @ pulses[q]
            continue
        hand_in(delays, 0.0)
        done = 0.0  # seconds of this delay read so far
        while handed and handed[0][0] == delays and handed[0][1] < value:
            drift(handed[0][1] - done)
            done = handed[0][1]
            hand_in(delays, done)
        drift(value - done)
        delays += 1
    hand_in(delays, 0.0)
    assert not handed
    read_flips()
    for q in range(1, n + 1):
        m = pulses[q] @ rotations[q].conj().T
        assert abs(m[0, 0] - m[1, 1]) < 1e-9, m
    return program, {k: [math.fsum(d) for d in epoch]
                     for k, epoch in epochs.items()}, flips


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_frame_scheduler_on_signed_gate_lists(data):
    """The sign plan refocuses each epoch as a whole: the program is the
    gate list, by the frame simulator and by the Kronecker oracle; over
    each epoch of each pair, between two x or y rotations on its spins,
    the program's signed drift is the pair's coupling time there; and
    every spin is flipped an even number of times."""
    chain, gates = data.draw(signed_schedules())
    n = chain.n
    program, drift, flips = scheduled_epochs(gates, chain)
    want = gate_list_unitary(gates, n)
    assert np.max(np.abs(pulse_program_unitary(program) - want)) < 1e-10
    assert np.max(np.abs(oracle_program(program)
                         - oracle_gate_list(gates, n))) < 1e-10
    coupling = gate_epochs(gates, chain)
    for k in range(1, n):
        assert drift[k] == pytest.approx(coupling[k], rel=1e-9, abs=1e-15)
    assert all(count % 2 == 0 for count in flips)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_program_lasts_the_critical_path(data):
    """Couplings share delays as far as the gates they do not commute
    with allow: the program lasts the ASAP critical path of its gate
    list, and never longer than its couplings one after another."""
    chain, gates = data.draw(signed_schedules())
    program = synthesize_pulses(gates, chain)
    path = max((end for _, _, end in asap(gates, chain)), default=0.0)
    duration = total_coupling_time(program)
    assert duration == pytest.approx(path, rel=1e-9, abs=1e-15)
    serial = math.fsum(coupling_time(g, chain) for g in gates
                       if g[0] == "zz")
    assert duration <= serial * (1 + 1e-12)


class TestSharedDelays:
    CHAIN = ChainSpec(4, (100.0, 130.0, 90.0))

    def test_disjoint_couplings_share_one_delay(self):
        """Nothing between two couplings on disjoint pairs: they start
        together, and the program lasts the longer one, not the sum."""
        gates = GateList([zz_row(1, 0.8), zz_row(3, -1.5)])
        program = synthesize_pulses(gates, self.CHAIN)
        times = [coupling_time(g, self.CHAIN) for g in gates]
        assert total_coupling_time(program) == pytest.approx(max(times),
                                                             rel=1e-12)
        assert np.max(np.abs(pulse_program_unitary(program)
                             - gate_list_unitary(gates, 4))) < 1e-12

    def test_a_coupling_too_short_for_the_clock(self):
        """A coupling of about 1e-20 s, below the last bit of its start
        time in seconds, still ends at a breakpoint of its own: a stretch
        that short, inside the coupling on pair 3, which goes on around
        it."""
        gates = GateList([zz_row(1, 1.0), zz_row(3, 2.0),
                          local_row(2, "x", 0.3), zz_row(2, -1e-17),
                          local_row(2, "y", 0.5)])
        program = synthesize_pulses(gates, self.CHAIN)
        assert np.max(np.abs(pulse_program_unitary(program)
                             - gate_list_unitary(gates, 4))) < 1e-12

    def test_an_end_one_clock_tick_after_another(self):
        """The coupling on pair 1 ends one last bit of its end time in
        seconds after the third on pair 3; the stretch between the two
        ends is their exact difference on the scheduler's clock, so no
        delay is negative."""
        gates = GateList([zz_row(1, 6.66561384722676),
                          zz_row(3, 6.66561384722676)]
                         + [local_row(q, "x", 0.3) for q in (1, 2, 3, 4)]
                         + [zz_row(1, 6.189061034245237)]
                         + [zz_row(3, theta) for theta in (
                             1.6331244450655469, 2.982938860946039,
                             1.5729977282336498, 0.2721149670259897,
                             0.7662965909147044, 0.30403826614701146,
                             2.210985626389651, 0.25207609613505794)])
        chain = ChainSpec.uniform(4, 100.0)
        program = synthesize_pulses(gates, chain)
        assert np.max(np.abs(pulse_program_unitary(program)
                             - gate_list_unitary(gates, 4))) < 1e-10

    def test_an_x_rotation_between_forces_two_blocks(self):
        """An x rotation on the spin two couplings share does not commute
        with either, so the second waits for it: two blocks, one after
        the other, each refocused."""
        chain = ChainSpec(3, (100.0, 100.0))
        gates = GateList([zz_row(1, 0.9), local_row(2, "x", 0.4),
                          zz_row(2, 0.9)])
        program = synthesize_pulses(gates, chain)
        assert program.kinds.count("delay") == 4
        assert total_coupling_time(program) == pytest.approx(
            2 * coupling_time(gates[0], chain), rel=1e-12)
        assert np.max(np.abs(pulse_program_unitary(program)
                             - gate_list_unitary(gates, 3))) < 1e-12


class TestApplyLocal:
    def test_matches_kronecker_embedding(self):
        rng = np.random.default_rng(7)
        acc = haar_unitary(16, 8)
        for first, size in ((1, 2), (4, 2), (2, 4), (3, 4), (1, 8), (1, 16)):
            op = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
            k = size.bit_length() - 1
            dense = np.kron(np.kron(np.eye(2 ** (first - 1)), op),
                            np.eye(2 ** (4 - first - k + 1)))
            got = apply_local(acc, {first: op})
            assert np.max(np.abs(got - dense @ acc)) < 1e-13

    def test_ops_on_distinct_spins_commute(self):
        a, b = rotation("x", 0.4), rotation("y", -1.3)
        acc = haar_unitary(8, 9)
        assert np.allclose(apply_local(acc, {1: a, 3: b}),
                           apply_local(acc, {3: b, 1: a}), atol=1e-14)

    def test_rejects_operators_off_the_chain(self):
        acc = np.eye(8, dtype=complex)
        for first, size in ((0, 2), (4, 2), (3, 4), (1, 16)):
            with pytest.raises(DimensionError):
                apply_local(acc, {first: np.eye(size)})
