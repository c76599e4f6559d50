"""String-evolution ladders and pulse scheduling.

The ladder's only contract is dense: exp(-i*angle*B_P) must come out
of the gate list exactly, for every string.  A commuting-family
element must come out exactly too, and its parity network may never
spend more pi couplings than one ladder per string.  The scheduler's
contract is that an always-on chain plus echo pulses reproduces each
coupling gate.
"""

import itertools
import json
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import kakpulse.pulses
from kakpulse import (
    CartanElement,
    CartanFamily,
    ChainSpec,
    CouplingEvolution,
    Delay,
    DimensionError,
    GlobalPhase,
    HardPulse,
    LocalRotation,
    PauliString,
    PulseProgram,
    RangeError,
    ValidationError,
    cartan_evolution_gates,
    expm_skew,
    gate_list_from_json,
    gate_list_spin_bound,
    gate_list_to_json,
    gate_list_unitary,
    haar_unitary,
    inverse_gate_list,
    matrix_to_json_dict,
    pauli_evolution_gates,
    pulse_count,
    pulse_program_unitary,
    refocusing_set,
    synthesize_pulses,
    total_coupling_time,
)
from kakpulse.cli import main
from kakpulse.pulses import TOL_COEFF

SIGMA = {
    "1": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def b_matrix(word):
    out = np.ones((1, 1), dtype=complex)
    for c in word:
        out = np.kron(out, SIGMA[c])
    return out / 2.0


def evolution_oracle(word, angle):
    return scipy.linalg.expm(-1j * angle * b_matrix(word))


def all_weighted_words(n):
    return ["".join(w) for w in itertools.product("1XYZ", repeat=n)
            if any(c != "1" for c in w)]


# ---------------------------------------------------------------------------
# Ladders


def test_single_letter_strings_compile_to_one_rotation():
    gates = pauli_evolution_gates("1X1", 0.8)
    assert gates == [LocalRotation(2, "x", 0.8)]
    got = gate_list_unitary(gates, 3)
    assert np.max(np.abs(got - evolution_oracle("1X1", 0.8))) < 1e-13


def test_adjacent_zz_is_a_bare_coupling():
    gates = pauli_evolution_gates("ZZ", 0.45)
    assert gates == [CouplingEvolution(1, 0.9)]  # B_ZZ = 2 IzIz


def test_every_three_spin_string():
    """All 63 strings against the dense exponential oracle."""
    theta = 0.37
    for word in all_weighted_words(3):
        gates = pauli_evolution_gates(word, theta)
        got = gate_list_unitary(gates, 3)
        assert np.max(np.abs(got - evolution_oracle(word, theta))) < 1e-12, word


def test_every_four_spin_string():
    """All 255 strings against the dense oracle, each at its own angle."""
    rng = np.random.default_rng(33)
    for word in all_weighted_words(4):
        theta = float(rng.uniform(-2 * math.pi, 2 * math.pi))
        gates = pauli_evolution_gates(word, theta)
        got = gate_list_unitary(gates, 4)
        assert np.max(np.abs(got - evolution_oracle(word, theta))) < 1e-11, \
            (word, theta)


def test_negative_angles():
    for word in ("XZ", "Y1X", "ZZZ"):
        gates = pauli_evolution_gates(word, -1.2)
        got = gate_list_unitary(gates, len(word))
        assert np.max(np.abs(got - evolution_oracle(word, -1.2))) < 1e-12


def assert_scheduled_exactly(gates, n):
    """Coupling signs are the scheduler's: on a uniform chain the program
    reproduces the gate list, and its delays last at most the couplings'
    own times ``|theta| / (2*pi*J)``, ``theta`` each angle reduced mod
    ``4*pi``: couplings that share a delay cost it once."""
    program = synthesize_pulses(gates, ChainSpec.uniform(n, 100.0))
    want = gate_list_unitary(gates, n)
    assert np.max(np.abs(pulse_program_unitary(program) - want)) < 1e-10
    own = math.fsum(abs(math.remainder(g.angle, 4 * math.pi))
                    / (2 * math.pi * 100.0)
                    for g in gates if isinstance(g, CouplingEvolution))
    assert total_coupling_time(program) <= own * (1 + 1e-12)


def test_output_vocabulary_is_chain_native():
    gates = pauli_evolution_gates("X11Z", 0.9)
    assert gate_list_spin_bound(gates) <= 4
    assert all(isinstance(g, (LocalRotation, CouplingEvolution)) for g in gates)
    assert_scheduled_exactly(gates, 4)


def test_rejects_identity_and_bad_angle():
    with pytest.raises(ValidationError):
        pauli_evolution_gates("111", 0.5)
    with pytest.raises(ValidationError):
        pauli_evolution_gates("XX", float("inf"))


def test_vanishing_coupling_emits_no_ladder():
    """A conjugation ladder around a zero coupling composes to the
    identity, so none is emitted."""
    assert pauli_evolution_gates("Z1Z", 0.0) == []
    assert pauli_evolution_gates("XY1X", -1e-16) == []
    assert pauli_evolution_gates("Z1Z", 1e-13) == []


def test_cartan_evolution_matches_dense():
    """A three-spin ``MAXIMAL`` element with X and Y letters takes one
    ladder per string."""
    elem = CartanElement(
        n=3, family=CartanFamily.MAXIMAL,
        coeffs={PauliString("XX1"): 0.6, PauliString("YYX"): -0.25,
                PauliString("ZZ1"): 0.4})
    gates = cartan_evolution_gates(elem)
    got = gate_list_unitary(gates, 3)
    assert np.max(np.abs(got - expm_skew(elem.hamiltonian()))) < 1e-11


def test_cartan_evolution_drops_tiny_coefficients():
    elem = CartanElement(
        n=2, family=CartanFamily.DIAGONAL,
        coeffs={PauliString("1Z"): 1e-15, PauliString("ZZ"): 0.3})
    gates = cartan_evolution_gates(elem)
    assert all(not (isinstance(g, LocalRotation) and g.qubit == 2 and
                    g.axis == "z") for g in gates)


# ---------------------------------------------------------------------------
# Commuting families as parity networks

NETWORK_FAMILIES = (CartanFamily.DIAGONAL, CartanFamily.OUTER_X)


def pi_couplings(gates):
    return sum(isinstance(g, CouplingEvolution) and abs(g.angle) == math.pi
               for g in gates)


def ladder_gates(elem):
    """One ``pauli_evolution_gates`` ladder per nonzero string."""
    return [g for s, c in elem.items() if abs(c) > TOL_COEFF
            for g in pauli_evolution_gates(s, c)]


@st.composite
def family_elements(draw):
    """Random DIAGONAL / OUTER_X elements on 2..6 spins: each string is
    absent, below the drop threshold, or anywhere in (-2pi, 2pi)."""
    k = draw(st.integers(2, 6))
    family = draw(st.sampled_from(NETWORK_FAMILIES))
    coeffs = {}
    for s in family.strings(k):
        kind = draw(st.sampled_from(("absent", "tiny", "value", "value")))
        if kind == "tiny":
            coeffs[s] = draw(st.floats(-1e-12, 1e-12))
        elif kind == "value":
            coeffs[s] = draw(st.floats(-2 * math.pi, 2 * math.pi,
                                       allow_nan=False))
    return CartanElement(n=k, family=family, coeffs=coeffs)


@given(elem=family_elements())
@settings(max_examples=80, deadline=None)
def test_family_lowering_is_exact(elem):
    gates = cartan_evolution_gates(elem)
    got = gate_list_unitary(gates, elem.n)
    assert np.max(np.abs(got - expm_skew(elem.hamiltonian()))) < 1e-10
    assert gate_list_spin_bound(gates) <= elem.n
    assert_scheduled_exactly(gates, elem.n)


@given(elem=family_elements())
@settings(max_examples=80, deadline=None)
def test_network_never_spends_more_pi_couplings_than_ladders(elem):
    gates = cartan_evolution_gates(elem)
    ladders = ladder_gates(elem)
    assert pi_couplings(gates) <= pi_couplings(ladders)
    if pi_couplings(gates) == pi_couplings(ladders):
        assert gates == ladders  # a tie keeps the ladders


@pytest.mark.parametrize("k, network, ladders", [
    (3, 6, 6), (4, 18, 30), (5, 42, 102), (6, 90, 294), (7, 186, 774)])
@pytest.mark.parametrize("family", NETWORK_FAMILIES, ids=lambda f: f.value)
def test_dense_family_pi_coupling_counts(family, k, network, ladders):
    """A dense family runs the whole network N(k-1), the trailing-X
    family between its two turns on spin k, except at k = 3, where every
    family ties with its ladders and keeps them."""
    elem = CartanElement(n=k, family=family,
                         coeffs={s: 0.3 for s in family.strings(k)})
    gates = cartan_evolution_gates(elem)
    assert pi_couplings(ladder_gates(elem)) == ladders
    assert pi_couplings(gates) == network
    if k <= 5:
        got = gate_list_unitary(gates, k)
        assert np.max(np.abs(got - expm_skew(elem.hamiltonian()))) < 1e-10


@pytest.mark.parametrize("k", [3, 4, 5, 6])
@pytest.mark.parametrize("family", NETWORK_FAMILIES, ids=lambda f: f.value)
def test_single_string_keeps_its_ladder(family, k):
    for s in family.strings(k):
        elem = CartanElement(n=k, family=family, coeffs={s: 0.7})
        assert cartan_evolution_gates(elem) == pauli_evolution_gates(s, 0.7)


def test_inverse_gate_list_cancels():
    gates = pauli_evolution_gates("XYZ", 1.3)
    both = gates + inverse_gate_list(gates)
    got = gate_list_unitary(both, 3)
    assert np.max(np.abs(got - np.eye(8))) < 1e-12


# ---------------------------------------------------------------------------
# Chains


class TestChainSpec:
    def test_uniform(self):
        chain = ChainSpec.uniform(4, 120.0)
        assert chain.couplings == (120.0, 120.0, 120.0)
        assert chain.coupling(2) == 120.0

    def test_coupling_count_must_fit(self):
        with pytest.raises(DimensionError):
            ChainSpec(3, (100.0,))

    def test_couplings_must_be_positive(self):
        with pytest.raises(RangeError):
            ChainSpec(2, (0.0,))
        with pytest.raises(RangeError):
            ChainSpec(2, (-5.0,))

    def test_pair_index_range(self):
        chain = ChainSpec.uniform(3)
        with pytest.raises(RangeError):
            chain.coupling(3)

    def test_json_round_trip(self):
        chain = ChainSpec(3, (90.0, 110.0))
        assert ChainSpec.from_json_dict(chain.to_json_dict()) == chain
        with pytest.raises(ValidationError):
            ChainSpec.from_json_dict({"n": 3})

    def test_json_rejects_a_non_integral_size(self):
        assert ChainSpec.from_json_dict({"n": 3.0, "J": [90.0, 110.0]}).n == 3
        for n in (2.7, True, "3"):
            with pytest.raises(ValidationError, match="must be an integer"):
                ChainSpec.from_json_dict({"n": n, "J": [90.0, 110.0]})


def test_refocusing_set_examples():
    assert refocusing_set(3, 1) == [3]
    assert refocusing_set(3, 2) == [1]
    assert refocusing_set(4, 1) == [3]
    assert refocusing_set(4, 2) == [1, 4]
    assert refocusing_set(5, 2) == [1, 4]
    assert refocusing_set(5, 3) == [2, 5]
    assert refocusing_set(2, 1) == []
    with pytest.raises(RangeError):
        refocusing_set(3, 3)


def test_refocusing_set_flips_every_other_coupling_once():
    for n in (3, 4, 5, 6):
        for left in range(1, n):
            flips = set(refocusing_set(n, left))
            assert left not in flips and left + 1 not in flips
            for j in range(1, n):
                if j == left:
                    continue
                assert len(flips & {j, j + 1}) == 1, (n, left, j)


def test_refocusing_set_of_a_pair_set():
    """Any set of active pairs: every inactive pair has one flipped
    endpoint, every active pair none or both, and the set is the smaller
    of the two that do this; every pair active flips nothing."""
    for n in (3, 4, 5, 6):
        for mask in range(1, 2 ** (n - 1)):
            active = {j for j in range(1, n) if mask >> (j - 1) & 1}
            flips = set(refocusing_set(n, active))
            for j in range(1, n):
                assert len(flips & {j, j + 1}) in ((0, 2) if j in active
                                                   else (1,)), (n, active, j)
            assert 2 * len(flips) <= n
        assert refocusing_set(n, range(1, n)) == []
    assert refocusing_set(5, {1, 3}) == [3, 4]
    with pytest.raises(RangeError):
        refocusing_set(4, [])


# ---------------------------------------------------------------------------
# Scheduling


class TestSynthesizePulses:
    def test_single_coupling_blocks(self):
        for n in (3, 4, 5):
            chain = ChainSpec(n, tuple(80.0 + 10.0 * k for k in range(n - 1)))
            for left in range(1, n):
                for theta in (0.1, math.pi / 2, math.pi, 3.9):
                    gates = [CouplingEvolution(left, theta)]
                    program = synthesize_pulses(gates, chain)
                    got = pulse_program_unitary(program)
                    want = gate_list_unitary(gates, n)
                    assert np.max(np.abs(got - want)) < 1e-10, (n, left, theta)

    def test_negative_coupling_angle_wraps(self):
        chain = ChainSpec.uniform(3)
        gates = [CouplingEvolution(1, -0.7)]
        program = synthesize_pulses(gates, chain)
        assert all(not (isinstance(e, Delay) and e.duration < 0)
                   for e in program.events)
        got = pulse_program_unitary(program)
        assert np.max(np.abs(got - gate_list_unitary(gates, 3))) < 1e-10

    @pytest.mark.parametrize("theta", [-0.001, -0.7, -3.0, 0.1 - 2 * math.pi])
    @pytest.mark.parametrize("j", [100.0, 140.0])
    def test_negative_coupling_angle_runs_its_own_length(self, theta, j):
        """A negative angle is a block of |theta| / (2 pi J) between
        x pi-flips, not one padded by 4 pi."""
        chain = ChainSpec(3, (j, j))
        gates = [CouplingEvolution(1, theta)]
        program = synthesize_pulses(gates, chain)
        assert total_coupling_time(program) == pytest.approx(
            abs(theta) / (2 * math.pi * j), rel=1e-12)
        got = pulse_program_unitary(program)
        assert np.max(np.abs(got - gate_list_unitary(gates, 3))) < 1e-10

    @pytest.mark.parametrize("theta", [3 * math.pi, 4 * math.pi + 0.5,
                                       -4 * math.pi - 0.5, 9.5 * math.pi])
    def test_coupling_angle_is_reduced_mod_4pi(self, theta):
        """Whole 4 pi turns are a tracked -1, so no block runs longer than
        2 pi / (2 pi J)."""
        chain = ChainSpec.uniform(3)
        gates = [CouplingEvolution(2, theta)]
        program = synthesize_pulses(gates, chain)
        assert total_coupling_time(program) <= 1 / 100.0 + 1e-15
        got = pulse_program_unitary(program)
        assert np.max(np.abs(got - gate_list_unitary(gates, 3))) < 1e-10

    def test_delay_duration_follows_the_coupling(self):
        program = synthesize_pulses([CouplingEvolution(1, math.pi)],
                                    ChainSpec.uniform(2, 100.0))
        assert total_coupling_time(program) == pytest.approx(0.005)
        # same block on a stronger pair is proportionally faster
        fast = synthesize_pulses([CouplingEvolution(1, math.pi)],
                                 ChainSpec.uniform(2, 200.0))
        assert total_coupling_time(fast) == pytest.approx(0.0025)

    def test_local_rotations_become_hard_pulses(self):
        gates = [LocalRotation(2, "y", 0.3), GlobalPhase(0.1)]
        program = synthesize_pulses(gates, ChainSpec.uniform(3))
        assert program.events == [HardPulse(2, "y", 0.3)]
        assert program.phase == pytest.approx(0.1)

    def test_gate_beyond_chain_rejected(self):
        with pytest.raises(DimensionError):
            synthesize_pulses([LocalRotation(4, "x", 0.1)], ChainSpec.uniform(3))
        with pytest.raises(DimensionError):
            synthesize_pulses([CouplingEvolution(3, 0.1)], ChainSpec.uniform(3))

    def test_phase_stays_wrapped(self):
        gates = [GlobalPhase(5.0), GlobalPhase(5.0)]
        program = synthesize_pulses(gates, ChainSpec.uniform(2))
        assert -math.pi < program.phase <= math.pi
        assert abs(np.exp(1j * program.phase) - np.exp(10.0j)) < 1e-12

    def test_full_gate_program_round_trip(self):
        u = haar_unitary(4, 55)
        from kakpulse import compile_unitary
        gates = compile_unitary(u)
        program = synthesize_pulses(gates, ChainSpec.uniform(2, 100.0))
        got = pulse_program_unitary(program)
        assert np.max(np.abs(got - u)) < 1e-8

    def test_pulse_count(self):
        program = synthesize_pulses([CouplingEvolution(1, 1.0)],
                                    ChainSpec.uniform(4))
        # two echo flips on spin 3, applied twice
        assert pulse_count(program) == 2
        assert sum(isinstance(e, Delay) for e in program.events) == 2


class TestFrameFaults:
    """Each pulse of the frame schedule matters.  On a multi-block program
    with mixed-sign angles, losing one sign-fixing pulse, one mid-block
    pulse or the final restore makes ``verify`` fail."""

    CHAIN = "100,130,90"
    GATES = [CouplingEvolution(1, 0.9), LocalRotation(2, "y", 0.4),
             CouplingEvolution(2, -1.3), LocalRotation(3, "z", -0.8),
             CouplingEvolution(3, 2 * math.pi + 0.5), CouplingEvolution(1, -0.6),
             LocalRotation(1, "y", 1.1), CouplingEvolution(2, 2.1),
             LocalRotation(4, "z", 0.7)]

    def round_trip(self, tmp_path):
        gates = tmp_path / "gates.json"
        gates.write_text(json.dumps(gate_list_to_json(self.GATES)))
        target = tmp_path / "target.json"
        target.write_text(json.dumps(matrix_to_json_dict(
            gate_list_unitary(self.GATES, 4))))
        program = tmp_path / "program.json"
        assert main(["pulses", "--input", str(gates), "--output", str(program),
                     "--chain", self.CHAIN]) == 0
        return main(["verify", str(program), str(target)]), program

    def test_intact_program_passes(self, tmp_path, capsys):
        code, path = self.round_trip(tmp_path)
        assert code == 0
        assert "PASS" in capsys.readouterr().out
        events = PulseProgram.from_json_dict(json.loads(path.read_text())).events
        # the frame ends flipped, so the restore has work to do
        assert events[-1] == HardPulse(events[-1].qubit, "x", math.pi)

    @pytest.mark.parametrize("method", ["fix_sign", "refocus"])
    def test_a_lost_pulse_fails(self, method, monkeypatch, tmp_path, capsys):
        """The frame still counts the pulse as given, as it would when a
        pulse misfires on the spectrometer."""
        honest = getattr(kakpulse.pulses._Frame, method)
        lost = []

        def lossy(frame, *args):
            before = len(frame.program.events)
            honest(frame, *args)
            if not lost and len(frame.program.events) > before:
                lost.append(frame.program.events.pop(before))

        monkeypatch.setattr(kakpulse.pulses._Frame, method, lossy)
        code, _ = self.round_trip(tmp_path)
        assert lost and code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_a_missing_restore_fails(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(kakpulse.pulses._Frame, "restore", lambda frame: None)
        code, _ = self.round_trip(tmp_path)
        assert code == 1
        assert "FAIL" in capsys.readouterr().out


def test_program_json_round_trip():
    program = synthesize_pulses(
        [LocalRotation(1, "x", 0.4), CouplingEvolution(1, 2.2),
         GlobalPhase(-0.9)],
        ChainSpec(3, (100.0, 140.0)))
    back = PulseProgram.from_json_dict(program.to_json_dict())
    assert back == program


def test_program_json_rejects_unknown_events():
    with pytest.raises(ValidationError):
        PulseProgram.from_json_dict({
            "chain": {"n": 2, "J": [100.0]},
            "events": [{"kind": "chirp", "t": 1.0}],
        })


def test_gate_list_json_rejects_non_integral_spins():
    """A spin is a JSON integer: ``2.0`` reads as spin 2, but ``2.9``,
    ``true`` and ``"2"`` are not truncated or cast to one."""
    assert gate_list_from_json([
        {"kind": "local", "q": 2.0, "axis": "x", "angle": 0.1},
        {"kind": "zz", "pair": [1.0, 2], "angle": 0.2},
    ]) == [LocalRotation(2, "x", 0.1), CouplingEvolution(1, 0.2)]
    for q in (2.9, True, "2", math.nan):
        with pytest.raises(ValidationError, match="must be an integer"):
            gate_list_from_json([{"kind": "local", "q": q, "axis": "x",
                                  "angle": 0.1}])
    for pair in ([1.5, 2.5], [True, 2], ["1", "2"]):
        with pytest.raises(ValidationError, match="must be an integer"):
            gate_list_from_json([{"kind": "zz", "pair": pair, "angle": 0.2}])


def test_program_json_rejects_non_integral_spins():
    program = {"chain": {"n": 2, "J": [100.0]},
               "events": [{"kind": "pulse", "q": 1, "axis": "x", "angle": 0.3}]}
    assert PulseProgram.from_json_dict(program).events == [HardPulse(1, "x", 0.3)]
    for q in (True, 1.5, "1"):
        program["events"][0]["q"] = q
        with pytest.raises(ValidationError, match="must be an integer"):
            PulseProgram.from_json_dict(program)


def test_event_validation():
    with pytest.raises(RangeError):
        Delay(-1e-9)
    with pytest.raises(ValidationError):
        HardPulse(0, "x", 1.0)
    with pytest.raises(ValidationError):
        HardPulse(1, "q", 1.0)
