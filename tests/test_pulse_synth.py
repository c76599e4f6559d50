"""String-evolution ladders and pulse scheduling.

The ladder's only contract is dense: exp(-i*angle*B_P) must come out
of the gate list exactly, for every string.  A commuting-family
element must come out exactly too, and its parity network may never
spend more pi couplings than one ladder per string.  The scheduler's
contract is that an always-on chain plus echo pulses reproduces each
coupling gate.
"""

import functools
import itertools
import json
import math
from unittest import mock

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
    DimensionError,
    GateList,
    PauliString,
    PulseProgram,
    RangeError,
    ValidationError,
    cartan_evolution_gates,
    compile_unitary,
    decompose,
    distance,
    expm_skew,
    flatten,
    gate_list_from_json,
    gate_list_spin_bound,
    gate_list_unitary,
    haar_unitary,
    inverse_gate_list,
    matrix_to_json_dict,
    pauli_evolution_gates,
    pulse_count,
    pulse_program_unitary,
    synthesize_pulses,
    total_coupling_time,
)
from kakpulse.cli import main
from kakpulse.pulses import TOL_COEFF

from artifact_oracle import (
    chain_to_json_dict,
    delay_row,
    gate_list_to_json,
    local_row,
    phase_row,
    program_to_json_dict,
    pulse_row,
    zz_row,
)
from test_simulator import skewed_chain_corpus
from test_structured_targets import CHAIN_J, TARGETS

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
    assert list(gates) == [local_row(2, "x", 0.8)]
    got = gate_list_unitary(gates, 3)
    assert np.max(np.abs(got - evolution_oracle("1X1", 0.8))) < 1e-13


def test_adjacent_zz_is_a_bare_coupling():
    gates = pauli_evolution_gates("ZZ", 0.45)
    assert list(gates) == [zz_row(1, 0.9)]  # B_ZZ = 2 IzIz


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
    own = math.fsum(abs(math.remainder(angle, 4 * math.pi))
                    / (2 * math.pi * 100.0)
                    for kind, _, _, angle in gates if kind == "zz")
    assert total_coupling_time(program) <= own * (1 + 1e-12)


def test_output_vocabulary_is_chain_native():
    gates = pauli_evolution_gates("X11Z", 0.9)
    assert gate_list_spin_bound(gates) <= 4
    assert set(gates.kinds) <= {"local", "zz"}
    assert_scheduled_exactly(gates, 4)


def test_rejects_identity_and_bad_angle():
    with pytest.raises(ValidationError):
        pauli_evolution_gates("111", 0.5)
    with pytest.raises(ValidationError):
        pauli_evolution_gates("XX", float("inf"))


def test_vanishing_coupling_emits_no_ladder():
    """A conjugation ladder around a zero coupling composes to the
    identity, so none is emitted."""
    assert len(pauli_evolution_gates("Z1Z", 0.0)) == 0
    assert len(pauli_evolution_gates("XY1X", -1e-16)) == 0
    assert len(pauli_evolution_gates("Z1Z", 1e-13)) == 0


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
    assert all(row[:3] != ("local", 2, "z") for row in gates)


# ---------------------------------------------------------------------------
# Commuting families as parity networks

NETWORK_FAMILIES = (CartanFamily.DIAGONAL, CartanFamily.OUTER_X)


def pi_couplings(gates):
    return sum(kind == "zz" and abs(angle) == math.pi
               for kind, _, _, angle in gates)


def ladder_gates(elem):
    """The rows of one ``pauli_evolution_gates`` ladder per nonzero
    string."""
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
        assert list(gates) == ladders  # a tie keeps the ladders


@pytest.mark.parametrize("k, network, ladders", [
    (3, 6, 6), (4, 12, 30), (5, 22, 102), (6, 61, 294), (7, 110, 774)])
@pytest.mark.parametrize("family", NETWORK_FAMILIES, ids=lambda f: f.value)
def test_dense_family_pi_coupling_counts(family, k, network, ladders):
    """A dense family runs the whole closed route, the open part of
    :data:`~kakpulse.networks.ROUTES` and its return, the trailing-X
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
    both = GateList([*gates, *inverse_gate_list(gates)])
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

    @pytest.mark.parametrize("j", [5e-324, 1e-320, 6e-309])
    def test_couplings_must_leave_every_delay_finite(self, j):
        with pytest.raises(RangeError, match="must leave 2 / J_2 finite"):
            ChainSpec(3, (100.0, j))
        with pytest.raises(ValidationError, match="malformed chain object"):
            ChainSpec.from_json_dict({"n": 2, "J": [j]})

    def test_a_tiny_coupling_that_leaves_every_delay_finite(self):
        """At 1e-300 Hz the longest delay, 2 / J seconds, is still finite."""
        assert ChainSpec(2, (1e-300,)).couplings == (1e-300,)
        assert (ChainSpec.from_json_dict({"n": 2, "J": [1e-300]})
                == ChainSpec(2, (1e-300,)))

    def test_a_coupling_past_the_largest_float_is_out_of_range(self):
        """An integer J too large for a float is refused as out of range,
        not with a bare ``OverflowError``."""
        with pytest.raises(RangeError, match="coupling J must be finite"):
            ChainSpec(2, (10 ** 400,))

    def test_pair_index_range(self):
        chain = ChainSpec.uniform(3)
        with pytest.raises(RangeError):
            chain.coupling(3)

    def test_json_round_trip(self):
        chain = ChainSpec(3, (90.0, 110.0))
        assert ChainSpec.from_json_dict(chain_to_json_dict(chain)) == chain
        with pytest.raises(ValidationError):
            ChainSpec.from_json_dict({"n": 3})

    def test_json_rejects_a_non_integral_size(self):
        assert ChainSpec.from_json_dict({"n": 3.0, "J": [90.0, 110.0]}).n == 3
        for n in (2.7, True, "3"):
            with pytest.raises(ValidationError, match="must be an integer"):
                ChainSpec.from_json_dict({"n": n, "J": [90.0, 110.0]})


def test_switch_set_is_the_cheapest_valid_set():
    """The sign plan's chooser, against every subset of the spins: for
    every pattern of due, settled and pending pairs and every mask of
    free spins at n = 2..5 (and every pattern with no free spin at
    n = 6), its set toggles exactly one spin of each due pair and none
    or both of each settled one, costs least by pulses (toggles of spins
    that are not free), then moves (pending pairs with one toggled
    spin), then toggles, and on a tie toggles the lowest spin where the
    cheapest sets differ."""
    pulses = kakpulse.pulses
    cases = [(n, free) for n in range(2, 6)
             for free in range(0, 2 ** (n + 1), 2)] + [(6, 0)]
    for n, free in cases:
        subsets = list(itertools.product((0, 1), repeat=n))
        for pattern in itertools.product(
                (pulses._DUE, pulses._SETTLED, pulses._PENDING), repeat=n - 1):
            costs = {}
            for x in subsets:
                links = [x[k] ^ x[k + 1] for k in range(n - 1)]
                if any(link != (state == pulses._DUE)
                       for state, link in zip(pattern, links)
                       if state != pulses._PENDING):
                    continue
                costs[x] = (sum(x[q - 1] for q in range(1, n + 1)
                                if not free >> q & 1),
                            sum(link for state, link in zip(pattern, links)
                                if state == pulses._PENDING),
                            sum(x))
            spins = pulses._switch_set(pattern, free)
            got = tuple(int(q in spins) for q in range(1, n + 1))
            assert list(spins) == sorted(spins)
            assert got in costs, (pattern, free, spins)
            least = min(costs.values())
            assert costs[got] == least, (pattern, free, spins)
            assert got == max(x for x, c in costs.items() if c == least)


# ---------------------------------------------------------------------------
# Scheduling


class TestSynthesizePulses:
    def test_single_coupling_blocks(self):
        for n in (3, 4, 5):
            chain = ChainSpec(n, tuple(80.0 + 10.0 * k for k in range(n - 1)))
            for left in range(1, n):
                for theta in (0.1, math.pi / 2, math.pi, 3.9):
                    gates = GateList([zz_row(left, theta)])
                    program = synthesize_pulses(gates, chain)
                    got = pulse_program_unitary(program)
                    want = gate_list_unitary(gates, n)
                    assert np.max(np.abs(got - want)) < 1e-10, (n, left, theta)

    def test_negative_coupling_angle_wraps(self):
        chain = ChainSpec.uniform(3)
        gates = GateList([zz_row(1, -0.7)])
        program = synthesize_pulses(gates, chain)
        assert all(not (kind == "delay" and t < 0)
                   for kind, t in zip(program.kinds, program.values))
        got = pulse_program_unitary(program)
        assert np.max(np.abs(got - gate_list_unitary(gates, 3))) < 1e-10

    @pytest.mark.parametrize("theta", [-0.001, -0.7, -3.0, 0.1 - 2 * math.pi])
    @pytest.mark.parametrize("j", [100.0, 140.0])
    def test_negative_coupling_angle_runs_its_own_length(self, theta, j):
        """A negative angle is a block of |theta| / (2 pi J) between
        x pi-flips, not one padded by 4 pi."""
        chain = ChainSpec(3, (j, j))
        gates = GateList([zz_row(1, theta)])
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
        gates = GateList([zz_row(2, theta)])
        program = synthesize_pulses(gates, chain)
        assert total_coupling_time(program) <= 1 / 100.0 + 1e-15
        got = pulse_program_unitary(program)
        assert np.max(np.abs(got - gate_list_unitary(gates, 3))) < 1e-10

    def test_delay_duration_follows_the_coupling(self):
        gates = GateList([zz_row(1, math.pi)])
        program = synthesize_pulses(gates, ChainSpec.uniform(2, 100.0))
        assert total_coupling_time(program) == pytest.approx(0.005)
        # same block on a stronger pair is proportionally faster
        fast = synthesize_pulses(gates, ChainSpec.uniform(2, 200.0))
        assert total_coupling_time(fast) == pytest.approx(0.0025)

    def test_local_rotations_become_hard_pulses(self):
        gates = GateList([local_row(2, "y", 0.3), phase_row(0.1)])
        program = synthesize_pulses(gates, ChainSpec.uniform(3))
        assert list(zip(*program.columns())) == [pulse_row(2, "y", 0.3)]
        assert program.phase == pytest.approx(0.1)

    def test_gate_beyond_chain_rejected(self):
        with pytest.raises(DimensionError):
            synthesize_pulses(GateList([local_row(4, "x", 0.1)]),
                              ChainSpec.uniform(3))
        with pytest.raises(DimensionError):
            synthesize_pulses(GateList([zz_row(3, 0.1)]), ChainSpec.uniform(3))

    def test_phase_stays_wrapped(self):
        gates = GateList([phase_row(5.0), phase_row(5.0)])
        program = synthesize_pulses(gates, ChainSpec.uniform(2))
        assert -math.pi < program.phase <= math.pi
        assert abs(np.exp(1j * program.phase) - np.exp(10.0j)) < 1e-12

    def test_full_gate_program_round_trip(self):
        u = haar_unitary(4, 55)
        gates = compile_unitary(u)
        program = synthesize_pulses(gates, ChainSpec.uniform(2, 100.0))
        got = pulse_program_unitary(program)
        assert np.max(np.abs(got - u)) < 1e-8

    def test_pulse_count(self):
        program = synthesize_pulses(GateList([zz_row(1, 1.0)]),
                                    ChainSpec.uniform(4))
        # two echo flips on spin 3, applied twice
        assert pulse_count(program) == 2
        assert program.kinds.count("delay") == 2

    @pytest.mark.parametrize("a, folded", [
        (0.4, 0.4 - math.pi), (-0.4, -0.4 + math.pi), (0.0, math.pi),
        (math.pi, 0.0), (-math.pi, 0.0), (2 * math.pi, math.pi),
        (-2 * math.pi, -math.pi)])
    def test_a_toggle_folds_into_an_x_pulse(self, a, folded):
        """The negative coupling's epoch opens with a switch, and spin 2
        has an x turn before that delay: the toggle fuses into it as
        ``Rx(a -+ pi)``, minus pi for a > 0 and plus pi otherwise, and
        no pulse at all when that is 0.  The z turn between them rides
        through the delay, negated by the toggle and back by the
        restore, and comes last.  The fused angles are read off a
        quaternion, so they hold to rounding."""
        gates = GateList([local_row(2, "x", a), local_row(2, "z", 0.3),
                          zz_row(1, -1.0)])
        program = synthesize_pulses(gates, ChainSpec.uniform(2))
        rows = list(zip(*program.columns()))
        first = [pulse_row(2, "x", folded)] if folded else []
        want = [*first, delay_row(program.values[len(first)]),
                pulse_row(2, "x", math.pi), pulse_row(2, "z", 0.3)]
        assert [row[:3] for row in rows] == [row[:3] for row in want]
        assert [row[3] for row in rows] == pytest.approx(
            [row[3] for row in want], rel=0, abs=1e-15)
        got = pulse_program_unitary(program)
        assert np.max(np.abs(got - gate_list_unitary(gates, 2))) < 1e-12


class TestFrameFaults:
    """Each pulse of the sign plan matters.  On a multi-block program
    with mixed-sign angles, losing one toggle, choosing a switch set that
    leaves a coupling unrefocused or losing the final restore makes
    ``verify`` fail."""

    CHAIN = "100,130,90"
    GATES = GateList([zz_row(1, 0.9), local_row(2, "y", 0.4),
                      zz_row(2, -1.3), local_row(3, "z", -0.8),
                      zz_row(3, 2 * math.pi + 0.5), zz_row(1, -0.6),
                      local_row(1, "y", 1.1), zz_row(2, 2.1),
                      local_row(4, "z", 0.7)])

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
        program = PulseProgram.from_json_dict(json.loads(path.read_text()))
        # the frame ends flipped, so the restore has work to do: after the
        # last delay come its exact x pi pulses, then the z turns carried
        rows = list(zip(*program.columns()))
        last = max(i for i, row in enumerate(rows) if row[0] == "delay")
        assert rows[last + 1:] == [
            pulse_row(1, "x", math.pi), pulse_row(2, "x", math.pi),
            pulse_row(4, "x", math.pi), pulse_row(2, "z", -math.pi),
            pulse_row(3, "z", -0.8), pulse_row(4, "z", 0.7)]

    def test_a_lost_toggle_fails(self, monkeypatch, tmp_path, capsys):
        """The frame still counts the pulse as given, as it would when a
        pulse misfires on the spectrometer."""
        lossy = lossy_toggle(kakpulse.pulses._Frame.flush)
        monkeypatch.setattr(kakpulse.pulses._Frame, "flush", lossy)
        code, _ = self.round_trip(tmp_path)
        assert lossy.lost and code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_an_unrefocused_coupling_fails(self, monkeypatch, tmp_path,
                                           capsys):
        """Each switch set loses its first spin, so a due pair keeps its
        sign or a settled one changes it."""
        honest = kakpulse.pulses._switch_set
        monkeypatch.setattr(kakpulse.pulses, "_switch_set",
                            lambda pattern, free: honest(pattern, free)[1:])
        code, _ = self.round_trip(tmp_path)
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_a_missing_restore_fails(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(kakpulse.pulses._Frame, "restore", lambda frame: None)
        code, _ = self.round_trip(tmp_path)
        assert code == 1
        assert "FAIL" in capsys.readouterr().out


def lossy_toggle(honest):
    """``_Frame.flush`` that drops the first exact x pi-pulse it writes,
    the lone toggle of a gap, and afterwards behaves; ``lost`` holds the
    dropped event."""
    lost = []

    def flush(frame):
        columns = frame.program.columns()
        before = len(columns[0])
        honest(frame)
        if lost:
            return
        for k in range(before, len(columns[0])):
            if columns[2][k] == "x" and abs(columns[3][k]) == math.pi:
                lost.append([column.pop(k) for column in columns])
                return

    flush.lost = lost
    return flush


@functools.lru_cache(maxsize=None)
def haar_program(n):
    """The gate list of the Haar target at seed 100 + n and its program
    on a uniform 100 Hz chain."""
    gates = compile_unitary(haar_unitary(2 ** n, 100 + n, special=True))
    return gates, synthesize_pulses(gates, ChainSpec.uniform(n, 100.0))


@pytest.mark.parametrize("n, segment_pulses",
                         [(3, 148), (4, 840), (5, 4204), (6, 19315)])
def test_epoch_plan_spends_fewer_pulses(n, segment_pulses):
    """Refocusing each epoch once, instead of each segment, takes fewer
    pulses than the segment rule's counts on the Haar targets at seeds
    100 + n on a uniform 100 Hz chain."""
    _, program = haar_program(n)
    assert pulse_count(program) < segment_pulses


@pytest.mark.parametrize("n, fused_pulses", [(3, 117), (4, 653), (5, 3073),
                                             (6, 13106)])
def test_carried_z_turns_spend_fewer_pulses(n, fused_pulses):
    """Fusing each spin's turns between two delays and carrying the z
    turns through the delays takes at least 15% fewer pulses than one
    pulse per rotation and toggle did (138, 769, 3,616 and 15,419) on
    the same targets and chain."""
    _, program = haar_program(n)
    assert pulse_count(program) <= fused_pulses


@pytest.mark.parametrize("n, seconds, pulses", [
    (3, 0.08200, 106), (4, 0.46085, 576), (5, 2.04645, 2663),
    (6, 8.56647, 11351)])
def test_leaf_phases_shorten_haar_programs(n, seconds, pulses):
    """Each two-spin leaf moves its free Z1 Z2 phase into a layer beside
    it as a z turn, which shortens the programs of the same targets on
    the same chain (0.09312, 0.48065, 2.13346 and 8.89276 s, and 115,
    605, 2,808 and 11,934 pulses, with every leaf as it was)."""
    _, program = haar_program(n)
    assert total_coupling_time(program) <= seconds
    assert pulse_count(program) <= pulses


def back_to_back_delays(program):
    kinds = program.kinds
    return sum(a == b == "delay" for a, b in zip(kinds, kinds[1:]))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_one_delay_per_run_of_drift(n):
    """Drift with no pulse between is written as one delay: no two delays
    of a Haar program stand back to back (71 pairs at n = 5, where a
    stretch ended at a coupling's end with nothing to write there, and
    one at n = 7, where a run of turns fused to no pulse)."""
    _, program = haar_program(n)
    assert back_to_back_delays(program) == 0


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("target", TARGETS, ids=lambda f: f.__name__)
def test_one_delay_per_run_of_drift_on_structured_targets(target, n):
    """Runs of turns that fuse to no pulse do not split a delay either:
    the frame writes its held drift just before the next pulse.  Before
    it did, the structured targets wrote 25 pairs of delays back to back
    at n = 4 and 5 on these two chains, 12 of them on ``qft(5)``."""
    gates = flatten(decompose(target(n)))
    for chain in (ChainSpec.uniform(n, 100.0), ChainSpec(n, CHAIN_J[:n - 1])):
        assert back_to_back_delays(synthesize_pulses(gates, chain)) == 0


def flushes(gates, chain):
    """``(program, gaps)``: the program scheduled for ``gates`` and, for
    each time its frame writes the turns of a gap, ``(free, written)``:
    the mask of the spins with an x or y rotation in the gap, and the
    pulse rows written for each spin.  The delay that the frame writes
    before a gap's first pulse is not a row of the gap."""
    honest = kakpulse.pulses._Frame.flush
    gaps = []

    def flush(frame):
        free = frame.free
        before = len(frame.program.kinds)
        honest(frame)
        written = {}
        for row in list(zip(*frame.program.columns()))[before:]:
            if row[0] == "pulse":
                written.setdefault(row[1], []).append(row)
        gaps.append((free, written))

    with mock.patch.object(kakpulse.pulses._Frame, "flush", flush):
        program = synthesize_pulses(gates, chain)
    return program, gaps


def check_gaps(gates, chain):
    """Every pulse turns about x, y or z; between two delays each spin
    gets at most two pulses, and after the last one at most three (the
    restore adds the z turn it carries); and a spin whose turns in a gap
    were toggles and z turns only gets one exact x pi pulse or none."""
    program, gaps = flushes(gates, chain)
    rows = list(zip(*program.columns()))
    assert {axis for kind, _, axis, _ in rows if kind == "pulse"} <= set("xyz")
    delays = [i for i, row in enumerate(rows) if row[0] == "delay"]
    for lo, hi, most in [*((a, b, 2) for a, b in zip([-1, *delays], delays)),
                         (delays[-1] if delays else -1, len(rows), 3)]:
        spins = [row[1] for row in rows[lo + 1:hi]]
        assert all(spins.count(q) <= most for q in spins), rows[lo + 1:hi]
    for free, written in gaps:
        for q, pulses in written.items():
            if not free >> q & 1:
                assert pulses == [pulse_row(q, "x", math.pi)], pulses


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_haar_programs_fuse_each_gap(n):
    gates, _ = haar_program(n)
    check_gaps(gates, ChainSpec.uniform(n, 100.0))


def test_skewed_chain_programs_fuse_each_gap():
    for chain, gates in skewed_chain_corpus():
        check_gaps(gates, chain)


def test_a_toggle_before_the_first_x_turn_of_a_gap():
    """A toggle held before a spin's first x or y rotation in a gap goes
    into the gap's product, and the z turn the spin carries in stays
    carried, negated through the toggle: the frame writes what the turns
    and the toggles, as x pi pulses, make up.  The scheduler toggles
    after a gap's rotations, so the test calls the frame directly."""
    chain = ChainSpec.uniform(2)
    gates = GateList([local_row(1, "z", 0.7), local_row(1, "x", 0.4)])
    program = PulseProgram(chain)
    frame = kakpulse.pulses._Frame(program)
    frame.turns([0], gates)
    frame.delay(kakpulse.pulses._ticks(1e-3))
    frame.toggle([1])
    frame.turns([1], gates)
    frame.delay(kakpulse.pulses._ticks(2e-3))
    frame.restore()
    want = PulseProgram(chain, [
        pulse_row(1, "z", 0.7), delay_row(1e-3), pulse_row(1, "x", math.pi),
        pulse_row(1, "x", 0.4), delay_row(2e-3), pulse_row(1, "x", math.pi)])
    assert distance(pulse_program_unitary(program),
                    pulse_program_unitary(want)).frobenius < 1e-14


def test_program_json_round_trip():
    program = synthesize_pulses(
        GateList([local_row(1, "x", 0.4), zz_row(1, 2.2), phase_row(-0.9)]),
        ChainSpec(3, (100.0, 140.0)))
    back = PulseProgram.from_json_dict(program_to_json_dict(program))
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
    ]) == GateList([local_row(2, "x", 0.1), zz_row(1, 0.2)])
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
    assert PulseProgram.from_json_dict(program) == PulseProgram(
        ChainSpec(2, (100.0,)), [pulse_row(1, "x", 0.3)])
    for q in (True, 1.5, "1"):
        program["events"][0]["q"] = q
        with pytest.raises(ValidationError, match="must be an integer"):
            PulseProgram.from_json_dict(program)


def test_gate_list_json_reads_only_numbers_as_angles():
    """An angle or a phase is a JSON number: an integer reads as a float,
    but a string or a bool is not cast to one."""
    assert gate_list_from_json([
        {"kind": "local", "q": 1, "axis": "x", "angle": 1},
        {"kind": "zz", "pair": [1, 2], "angle": 0.2},
        {"kind": "phase", "phi": -1},
    ]) == GateList([local_row(1, "x", 1.0), zz_row(1, 0.2), phase_row(-1.0)])
    for value in ("0.5", True, "inf", None):
        for item in ({"kind": "local", "q": 1, "axis": "x", "angle": value},
                     {"kind": "zz", "pair": [1, 2], "angle": value},
                     {"kind": "phase", "phi": value}):
            with pytest.raises(ValidationError, match="must be a number"):
                gate_list_from_json([item])


def test_program_json_reads_only_numbers():
    """Pulse angles, delays, the program phase and the chain couplings
    are JSON numbers, not strings or bools."""
    program = {"chain": {"n": 2, "J": [100]}, "phase": 0,
               "events": [{"kind": "pulse", "q": 1, "axis": "x", "angle": 1},
                          {"kind": "delay", "t": 0.001}]}
    assert PulseProgram.from_json_dict(program) == PulseProgram(
        ChainSpec(2, (100.0,)), [pulse_row(1, "x", 1.0), delay_row(0.001)],
        0.0)
    for place, value in (("angle", "0.5"), ("angle", True), ("t", "0.001"),
                         ("t", False), ("phase", "0"), ("J", "100"), ("J", True)):
        bad = json.loads(json.dumps(program))
        if place == "angle":
            bad["events"][0]["angle"] = value
        elif place == "t":
            bad["events"][1]["t"] = value
        elif place == "phase":
            bad["phase"] = value
        else:
            bad["chain"]["J"] = [value]
        with pytest.raises(ValidationError, match="must be a number"):
            PulseProgram.from_json_dict(bad)


def test_chain_json_reads_only_numbers_as_couplings():
    assert ChainSpec.from_json_dict({"n": 3, "J": [90, 110.0]}).couplings == (90.0, 110.0)
    for j in ("100", True, None):
        with pytest.raises(ValidationError, match="must be a number"):
            ChainSpec.from_json_dict({"n": 2, "J": [j]})


def test_gate_list_json_errors_name_the_item():
    """A bad field deep in a long list is reported with its index, and a
    validation error keeps its class."""
    good = {"kind": "local", "q": 1, "axis": "x", "angle": 0.1}
    for bad, match in (({"kind": "zz", "pair": [1.5, 2.5], "angle": 0.2},
                        "gate at index 3: coupling spin must be an integer"),
                       ({"kind": "local", "q": 1, "axis": "w", "angle": 0.1},
                        "gate at index 3: axis must be one of"),
                       ({"kind": "phase"}, "malformed gate at index 3: 'phi'"),
                       ({"kind": "swap"}, "gate at index 3: unknown gate kind")):
        with pytest.raises(ValidationError, match=match):
            gate_list_from_json([good, good, good, bad, good])


def test_program_json_errors_name_the_event():
    program = {"chain": {"n": 2, "J": [100.0]},
               "events": [{"kind": "delay", "t": 0.1}] * 5}
    for bad, error, match in (
            ({"kind": "delay", "t": -1.0}, RangeError,
             "event at index 3: delay must be non-negative"),
            ({"kind": "pulse", "q": 1.5, "axis": "x", "angle": 0.3},
             ValidationError, "event at index 3: pulse spin must be an integer"),
            ({"kind": "delay"}, ValidationError,
             "malformed event at index 3: 't'"),
            ({"kind": "chirp", "t": 1.0}, ValidationError,
             "event at index 3: unknown event kind")):
        events = list(program["events"])
        events[3] = bad
        with pytest.raises(error, match=match):
            PulseProgram.from_json_dict({**program, "events": events})


def test_event_validation():
    chain = ChainSpec.uniform(2)
    with pytest.raises(RangeError):
        PulseProgram(chain, [delay_row(-1e-9)])
    with pytest.raises(ValidationError):
        PulseProgram(chain, [pulse_row(0, "x", 1.0)])
    with pytest.raises(ValidationError):
        PulseProgram(chain, [pulse_row(1, "q", 1.0)])
