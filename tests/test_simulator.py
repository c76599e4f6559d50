"""Dense simulation of gate lists and pulse programs, plus the
phase-invariant distance report.

The simulators fuse runs of single-spin operators and of diagonals; the
property tests at the end hold them, and :func:`kakpulse.evaluate`, to
a naive oracle in this file that Kronecker-embeds and multiplies one
step at a time.
"""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from kakpulse import (
    CartanElement,
    CartanFamily,
    CartanNode,
    ChainSpec,
    CouplingEvolution,
    Delay,
    DimensionError,
    EulerNode,
    GlobalPhase,
    HardPulse,
    LocalRotation,
    LocalWordNode,
    PhaseNode,
    PulseProgram,
    SequenceNode,
    TwoSpinNode,
    apply_local,
    coupling_diagonal,
    distance,
    drift_diagonal,
    evaluate,
    gate_list_unitary,
    haar_unitary,
    local_rotation_matrix,
    pulse_program_unitary,
    synthesize_pulses,
)

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


def test_local_rotation_matrix():
    for axis, sigma in (("x", X2), ("z", Z2)):
        want = embed(3, 2, scipy.linalg.expm(-0.35j * sigma))
        assert np.allclose(local_rotation_matrix(3, 2, axis, 0.7), want,
                           atol=1e-13)


def test_coupling_diagonal_matches_dense():
    for n, left in ((2, 1), (3, 1), (3, 2), (4, 2)):
        diag = coupling_diagonal(n, left, 1.3)
        want = scipy.linalg.expm(-1.3j * zz_quarter(n, left))
        assert np.allclose(np.diag(diag), want, atol=1e-13)


def test_coupling_has_quarter_eigenvalues():
    # a 4*pi coupling angle is -identity, not the identity
    diag = coupling_diagonal(2, 1, 4 * math.pi)
    assert np.allclose(diag, -1.0, atol=1e-12)
    diag = coupling_diagonal(2, 1, 8 * math.pi)
    assert np.allclose(diag, 1.0, atol=1e-12)


class TestGateListUnitary:
    def test_time_order_is_right_to_left(self):
        gates = [LocalRotation(1, "x", 1.0), LocalRotation(1, "z", 0.5)]
        got = gate_list_unitary(gates, 1)
        rx = scipy.linalg.expm(-0.5j * X2)
        rz = scipy.linalg.expm(-0.25j * Z2)
        assert np.allclose(got, rz @ rx, atol=1e-13)
        assert not np.allclose(got, rx @ rz, atol=1e-3)

    def test_mixed_vocabulary(self):
        gates = [GlobalPhase(0.3), CouplingEvolution(1, 0.8),
                 LocalRotation(2, "y", -0.4)]
        got = gate_list_unitary(gates, 2)
        want = (embed(2, 2, scipy.linalg.expm(0.2j * np.array([[0, -1j], [1j, 0]])))
                @ scipy.linalg.expm(-0.8j * zz_quarter(2, 1))
                * np.exp(0.3j))
        assert np.allclose(got, want, atol=1e-12)

    def test_empty_list_is_identity(self):
        assert np.array_equal(gate_list_unitary([], 2), np.eye(4))

    def test_rejects_gates_off_the_chain(self):
        with pytest.raises(DimensionError):
            gate_list_unitary([LocalRotation(3, "x", 0.1)], 2)
        with pytest.raises(DimensionError):
            gate_list_unitary([CouplingEvolution(2, 0.1)], 2)


def test_drift_diagonal():
    chain = ChainSpec(3, (100.0, 50.0))
    want = 2 * math.pi * (100.0 * zz_quarter(3, 1) + 50.0 * zz_quarter(3, 2))
    assert np.allclose(np.diag(drift_diagonal(chain)), want, atol=1e-12)


class TestPulseProgramUnitary:
    def test_delay_is_free_evolution(self):
        chain = ChainSpec(2, (100.0,))
        program = PulseProgram(chain=chain, events=[Delay(0.004)])
        h = 2 * math.pi * 100.0 * zz_quarter(2, 1)
        assert np.allclose(pulse_program_unitary(program),
                           scipy.linalg.expm(-0.004j * h), atol=1e-12)

    def test_pulses_delays_and_phase_compose(self):
        chain = ChainSpec(2, (80.0,))
        program = PulseProgram(
            chain=chain,
            events=[HardPulse(1, "x", 0.6), Delay(0.001),
                    HardPulse(2, "z", -1.1)],
            phase=0.25)
        h = 2 * math.pi * 80.0 * zz_quarter(2, 1)
        want = (np.exp(0.25j)
                * embed(2, 2, scipy.linalg.expm(0.55j * Z2))
                @ scipy.linalg.expm(-0.001j * h)
                @ embed(2, 1, scipy.linalg.expm(-0.3j * X2)))
        assert np.allclose(pulse_program_unitary(program), want, atol=1e-12)

    def test_empty_program_is_a_phase(self):
        program = PulseProgram(chain=ChainSpec.uniform(2), phase=1.0)
        assert np.allclose(pulse_program_unitary(program),
                           np.exp(1.0j) * np.eye(4), atol=1e-14)


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
    out = np.eye(2 ** n, dtype=complex)
    for g in gates:
        if isinstance(g, LocalRotation):
            step = embed(n, g.qubit, rotation(g.axis, g.angle))
        elif isinstance(g, CouplingEvolution):
            step = expmh(g.angle * zz_quarter(n, g.left))
        else:
            step = np.exp(1j * g.phi) * np.eye(2 ** n)
        out = step @ out
    return out


def oracle_program(program):
    n = program.chain.n
    h = sum((2 * math.pi * program.chain.couplings[k - 1] * zz_quarter(n, k)
             for k in range(1, n)), np.zeros((2 ** n, 2 ** n)))
    out = np.eye(2 ** n, dtype=complex)
    for e in program.events:
        if isinstance(e, HardPulse):
            step = embed(n, e.qubit, rotation(e.axis, e.angle))
        else:
            step = expmh(e.duration * h)
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
    if isinstance(tree, LocalWordNode):
        out = np.eye(2 ** n, dtype=complex)
        for g in tree.gates:
            out = out @ embed(n, g.qubit, rotation(g.axis, g.angle))
        return out
    if isinstance(tree, CartanNode):
        h = np.kron(tree.element.hamiltonian(),
                    np.eye(2 ** (n - tree.element.n)))
        return expmh(h)
    middle = expmh(0.25 * sum(
        a * np.kron(SIGMA[ax], SIGMA[ax]) for ax, a in zip("xyz", tree.alphas)))
    op = (np.exp(1j * tree.phase)
          * np.kron(euler_matrix(tree.after[0]), euler_matrix(tree.after[1]))
          @ middle
          @ np.kron(euler_matrix(tree.before[0]), euler_matrix(tree.before[1])))
    return np.kron(np.kron(np.eye(2 ** (tree.left - 1)), op),
                   np.eye(2 ** (n - tree.left - 1)))


def euler_matrix(node):
    return (rotation("x", node.alpha) @ rotation("z", node.beta)
            @ rotation("x", node.gamma))


ANGLES = st.floats(-4 * math.pi, 4 * math.pi, allow_nan=False)
AXES = st.sampled_from("xyz")
DURATIONS = st.one_of(st.just(0.0), st.floats(0.0, 0.01, allow_nan=False))


@st.composite
def unequal_chains(draw, min_n=1):
    n = draw(st.integers(min_n, 5))
    js = draw(st.lists(st.floats(20.0, 250.0, allow_nan=False),
                       min_size=n - 1, max_size=n - 1, unique=True))
    return ChainSpec(n, tuple(js))


@st.composite
def rotation_run(draw, n, kind):
    """Rotations (or pulses) on one spin, or on spins drawn freely."""
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
def gate_lists(draw, last):
    n = draw(st.integers(2 if last == "coupling" else 1, 5))
    couplings = st.lists(
        st.builds(CouplingEvolution, st.integers(1, max(n - 1, 1)), ANGLES),
        min_size=1, max_size=3)
    steps = draw(alternating_runs(rotation_run(n, LocalRotation),
                                  couplings if n > 1 else st.just([]), last))
    for _ in range(draw(st.integers(0, 3))):
        steps.insert(draw(st.integers(0, len(steps))),
                     GlobalPhase(draw(ANGLES)))
    return n, steps


@st.composite
def programs(draw, last):
    chain = draw(unequal_chains())
    delays = st.lists(st.builds(Delay, DURATIONS), min_size=1, max_size=3)
    events = draw(alternating_runs(rotation_run(chain.n, HardPulse),
                                   delays, last))
    return PulseProgram(chain=chain, events=events, phase=draw(ANGLES))


@pytest.mark.parametrize("last", ["local", "coupling"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_fused_gate_list_matches_oracle(last, data):
    n, gates = data.draw(gate_lists(last))
    steps = [g for g in gates if not isinstance(g, GlobalPhase)]
    assert isinstance(steps[-1], LocalRotation if last == "local" else CouplingEvolution)
    got = gate_list_unitary(gates, n)
    assert np.max(np.abs(got - oracle_gate_list(gates, n))) < 1e-12


@pytest.mark.parametrize("last", ["local", "delay"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_fused_pulse_program_matches_oracle(last, data):
    program = data.draw(programs(last))
    assert isinstance(program.events[-1], HardPulse if last == "local" else Delay)
    got = pulse_program_unitary(program)
    assert np.max(np.abs(got - oracle_program(program))) < 1e-12


def euler_nodes(qubit):
    return st.builds(EulerNode, st.just(qubit), ANGLES, ANGLES, ANGLES)


@st.composite
def cartan_nodes(draw, n):
    m = draw(st.integers(2, n))
    family = draw(st.sampled_from(list(CartanFamily)))
    strings = draw(st.lists(st.sampled_from(family.strings(m)),
                            min_size=1, max_size=4, unique=True))
    coeffs = {s: draw(st.floats(-3.0, 3.0, allow_nan=False)) for s in strings}
    return CartanNode(CartanElement(n=m, family=family, coeffs=coeffs))


@st.composite
def two_spin_nodes(draw, n):
    left = draw(st.integers(1, n - 1))
    return TwoSpinNode(
        left, draw(ANGLES), tuple(draw(st.lists(ANGLES, min_size=3, max_size=3))),
        (draw(euler_nodes(left)), draw(euler_nodes(left + 1))),
        (draw(euler_nodes(left)), draw(euler_nodes(left + 1))))


def trees(n):
    spins = st.integers(1, n)
    leaves = [
        spins.flatmap(euler_nodes),
        st.builds(PhaseNode, ANGLES),
        st.builds(lambda gs: LocalWordNode(tuple(gs)), st.lists(
            st.builds(LocalRotation, spins, AXES, ANGLES), min_size=1, max_size=3)),
    ]
    if n > 1:
        leaves += [cartan_nodes(n), two_spin_nodes(n)]
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


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_pulses_simulate_to_their_gate_list_on_unequal_chains(data):
    chain = data.draw(unequal_chains(min_n=2))
    n = chain.n
    gates = data.draw(st.lists(st.one_of(
        st.builds(LocalRotation, st.integers(1, n), AXES, ANGLES),
        st.builds(CouplingEvolution, st.integers(1, n - 1), ANGLES),
        st.builds(GlobalPhase, ANGLES)), max_size=12))
    program = synthesize_pulses(gates, chain)
    report = distance(pulse_program_unitary(program), gate_list_unitary(gates, n))
    assert report.frobenius < 1e-9


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
