"""In-process tests of the command-line interface.

Each test drives ``kakpulse.cli.main`` with an argv list so exit codes
and console output are asserted without spawning a process; a single
smoke test at the end runs the package under test as a module, in a
fresh process, from a scratch working directory.  Exit codes
are a stable contract: 0 success, 1 verification/self-test failure,
2 I/O failure, 3 validation failure, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kakpulse.cli
import kakpulse.kak
import kakpulse.paulis
import kakpulse.pulses
from kakpulse.cli import main
from kakpulse.gates import GateList, PulseProgram, gate_list_from_json
from kakpulse.kak import residual_budget
from kakpulse.linalg import haar_unitary, matrix_from_json_dict, matrix_to_json_dict
from kakpulse.simulate import gate_list_unitary, pulse_program_unitary

from artifact_oracle import gate_list_to_json, zz_row
from test_pulse_synth import lossy_toggle


def read_json(path):
    return json.loads(path.read_text())


def write_matrix(path, u):
    path.write_text(json.dumps(matrix_to_json_dict(u)) + "\n")


def make_target(tmp_path, n=3, seed=5, name="u.json"):
    """Write a seeded special unitary through the ``random`` subcommand."""
    path = tmp_path / name
    assert main(["random", "--n", str(n), "--seed", str(seed),
                 "--output", str(path)]) == 0
    return path


class TestRandom:

    def test_writes_special_unitary(self, tmp_path, capsys):
        path = make_target(tmp_path, n=3, seed=5)
        out = capsys.readouterr().out
        assert "wrote" in out and "8x8" in out
        u = matrix_from_json_dict(read_json(path))
        assert u.shape == (8, 8)
        assert np.max(np.abs(u.conj().T @ u - np.eye(8))) < 1e-12
        assert abs(np.linalg.det(u) - 1.0) < 1e-10

    def test_byte_determinism(self, tmp_path):
        a = make_target(tmp_path, seed=9, name="a.json")
        b = make_target(tmp_path, seed=9, name="b.json")
        c = make_target(tmp_path, seed=10, name="c.json")
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_rejects_bad_spin_count(self, tmp_path):
        path = tmp_path / "u.json"
        assert main(["random", "--n", "0", "--seed", "1",
                     "--output", str(path)]) == 3
        assert not path.exists()


class TestDecompose:

    def test_pipeline_artifact(self, tmp_path, capsys):
        target = make_target(tmp_path)
        out_path = tmp_path / "d.json"
        assert main(["decompose", "--input", str(target),
                     "--output", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "reconstruction residual" in out
        assert "local rotations" in out and "coupling evolutions" in out
        artifact = read_json(out_path)
        assert set(artifact) == {"n", "residual", "tree", "gates"}
        assert artifact["n"] == 3
        assert artifact["residual"] < residual_budget(3)
        gates = gate_list_from_json(artifact["gates"])
        u = matrix_from_json_dict(read_json(target))
        recon = gate_list_unitary(gates, 3)
        assert np.max(np.abs(recon - u)) < residual_budget(3)

    def test_reports_the_pi_couplings_of_the_artifact(self, tmp_path, capsys):
        target = tmp_path / "u5.json"
        assert main(["random", "--n", "5", "--seed", "3",
                     "--output", str(target)]) == 0
        out_path = tmp_path / "d.json"
        capsys.readouterr()
        assert main(["decompose", "--input", str(target),
                     "--output", str(out_path)]) == 0
        out = capsys.readouterr().out
        gates = gate_list_from_json(read_json(out_path)["gates"])
        n_zz = gates.kinds.count("zz")
        n_pi = sum(kind == "zz" and abs(angle) == math.pi
                   for kind, _, _, angle in gates)
        assert 0 < n_pi < n_zz
        assert f"{n_zz} coupling evolutions ({n_pi} at angle pi)" in out

    def test_byte_determinism(self, tmp_path):
        target = make_target(tmp_path)
        p1, p2 = tmp_path / "d1.json", tmp_path / "d2.json"
        assert main(["decompose", "--input", str(target), "--output", str(p1)]) == 0
        assert main(["decompose", "--input", str(target), "--output", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_two_spin_controlled_not(self, tmp_path):
        """A textbook controlled-NOT factors and reconstructs exactly."""
        cnot = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
        target = tmp_path / "cnot.json"
        write_matrix(target, cnot)
        out_path = tmp_path / "d.json"
        assert main(["decompose", "--input", str(target),
                     "--output", str(out_path)]) == 0
        gates = gate_list_from_json(read_json(out_path)["gates"])
        assert np.max(np.abs(gate_list_unitary(gates, 2) - cnot)) < 1e-10

    def test_spin_count_mismatch(self, tmp_path):
        target = make_target(tmp_path)
        assert main(["decompose", "--input", str(target),
                     "--output", str(tmp_path / "d.json"), "--n", "2"]) == 3

    def test_unattainable_budget_is_numeric_failure(self, tmp_path, capsys):
        target = make_target(tmp_path)
        assert main(["decompose", "--input", str(target),
                     "--output", str(tmp_path / "d.json"),
                     "--tol", "1e-30"]) == 4
        assert "exceeds budget" in capsys.readouterr().err

    def test_nan_residual_is_written_and_fails(self, tmp_path, capsys,
                                              monkeypatch):
        """Nothing checks the self-check's residual for being finite: a
        nan one fails the budget with exit 4, and the artifact still
        holds it, spelled ``NaN`` as json spells it."""
        target = make_target(tmp_path)
        monkeypatch.setattr(
            "kakpulse.cli.gate_list_unitary",
            lambda gates, n: np.full((2 ** n, 2 ** n), np.nan, dtype=complex))
        out_path = tmp_path / "d.json"
        assert main(["decompose", "--input", str(target),
                     "--output", str(out_path)]) == 4
        assert "exceeds budget" in capsys.readouterr().err
        text = out_path.read_text()
        assert ',"residual":NaN,' in text
        assert math.isnan(json.loads(text)["residual"])

    def test_zero_budget_is_invalid(self, tmp_path):
        target = make_target(tmp_path)
        assert main(["decompose", "--input", str(target),
                     "--output", str(tmp_path / "d.json"), "--tol", "0"]) == 3

    def test_bad_budget_is_rejected_before_factoring(self, tmp_path,
                                                     monkeypatch):
        target = make_target(tmp_path)
        calls = []
        monkeypatch.setattr("kakpulse.cli.decompose",
                            lambda u: calls.append(u))
        out_path = tmp_path / "d.json"
        for tol in ("0", "-1e-9"):
            assert main(["decompose", "--input", str(target),
                         "--output", str(out_path), f"--tol={tol}"]) == 3
        assert calls == []
        assert not out_path.exists()

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
    def test_non_finite_budget_is_rejected_before_factoring(
            self, tmp_path, monkeypatch, tol):
        """``resid >= nan`` is always false, so a nan budget would pass any
        residual; an infinite one would too."""
        target = make_target(tmp_path)
        calls = []
        monkeypatch.setattr("kakpulse.cli.decompose",
                            lambda u: calls.append(u))
        out_path = tmp_path / "d.json"
        assert main(["decompose", "--input", str(target),
                     "--output", str(out_path), f"--tol={tol}"]) == 3
        assert calls == []
        assert not out_path.exists()

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("flags", [[]], ids=["checked"])
    def test_non_finite_entry_is_invalid(self, tmp_path, n, value, flags):
        """Python's json reads ``NaN`` and ``Infinity``, and ``dev > tol``
        is false for a nan deviation, so a non-finite entry must be
        rejected where the matrix is read."""
        u = haar_unitary(2 ** n, 9, special=True)
        u[0, -1] = value
        target = tmp_path / "bad.json"
        write_matrix(target, u)
        out_path = tmp_path / "d.json"
        assert main(["decompose", "--input", str(target),
                     "--output", str(out_path), *flags]) == 3
        assert not out_path.exists()


class TestPulses:

    def test_lowering_matches_target(self, tmp_path, capsys):
        target = make_target(tmp_path)
        d_path, p_path = tmp_path / "d.json", tmp_path / "p.json"
        assert main(["decompose", "--input", str(target),
                     "--output", str(d_path)]) == 0
        assert main(["pulses", "--input", str(d_path),
                     "--output", str(p_path)]) == 0
        out = capsys.readouterr().out
        assert "total coupling time" in out
        assert "3-spin chain" in out
        program = PulseProgram.from_json_dict(read_json(p_path))
        u = matrix_from_json_dict(read_json(target))
        assert np.max(np.abs(pulse_program_unitary(program) - u)) < 1e-6

    @pytest.mark.parametrize("target, n", [
        (np.eye(8, dtype=complex), 3),
        (np.kron(np.diag([1.0, -1.0]), np.eye(4)).astype(complex), 3),
        (np.kron(haar_unitary(8, 3, special=True), np.eye(2)), 4),
    ], ids=["identity", "z-on-spin-1", "haar-idle-on-spin-4"])
    def test_default_chain_spans_the_target(self, tmp_path, capsys, target,
                                            n):
        """A target idle on its last spins compiles to gates that never
        touch them; the default chain takes its length from the
        ``decompose`` artifact's ``n``, so the program runs on the
        target's spins and verifies."""
        t_path = tmp_path / "u.json"
        write_matrix(t_path, target)
        d_path, p_path = tmp_path / "d.json", tmp_path / "p.json"
        assert main(["decompose", "--input", str(t_path),
                     "--output", str(d_path)]) == 0
        assert main(["pulses", "--input", str(d_path),
                     "--output", str(p_path)]) == 0
        assert f"{n}-spin chain" in capsys.readouterr().out
        assert PulseProgram.from_json_dict(read_json(p_path)).chain.n == n
        assert main(["verify", str(p_path), str(t_path),
                     "--tol", "1e-6"]) == 0

    @pytest.mark.parametrize("n, code, message", [
        (1, 3, "the artifact is on 1 spins, its gates touch spin 2"),
        (True, 3, "artifact n must be an integer, got True"),
        ("2", 3, "artifact n must be an integer, got '2'"),
        (9, 3, "the chain has 9 spins; the command-line limit is 8"),
        (2.0, 0, "2-spin chain"),
        (4, 0, "4-spin chain"),
    ], ids=["below-the-gates", "bool", "string", "past-the-limit",
            "integral-float", "above-the-gates"])
    def test_default_chain_reads_the_artifact_n(self, tmp_path, capsys, n,
                                                code, message):
        """The artifact's ``n`` is read as an integer, no smaller than the
        spins its gates touch and within the command-line limit."""
        d_path = tmp_path / "d.json"
        d_path.write_text(json.dumps({"gates": gate_list_to_json(
            [zz_row(1, 0.3)]), "n": n}))
        assert main(["pulses", "--input", str(d_path),
                     "--output", str(tmp_path / "p.json")]) == code
        out, err = capsys.readouterr()
        assert message in (err if code else out)

    def test_chain_and_n_flags_win_over_the_artifact_n(self, tmp_path,
                                                       capsys):
        d_path, p_path = tmp_path / "d.json", tmp_path / "p.json"
        d_path.write_text(json.dumps({"gates": gate_list_to_json(
            [zz_row(1, 0.3)]), "n": 4}))
        for flags, n in ((["--n", "2"], 2), (["--chain", "120,80"], 3)):
            assert main(["pulses", "--input", str(d_path),
                         "--output", str(p_path), *flags]) == 0
            assert f"{n}-spin chain" in capsys.readouterr().out
            assert PulseProgram.from_json_dict(read_json(p_path)).chain.n == n

    def test_chain_flag_sets_couplings(self, tmp_path, capsys):
        gates = gate_list_to_json([zz_row(2, 0.7)])
        g_path = tmp_path / "g.json"
        g_path.write_text(json.dumps(gates))
        p_path = tmp_path / "p.json"
        assert main(["pulses", "--input", str(g_path), "--output", str(p_path),
                     "--chain", "120,80"]) == 0
        assert "3-spin chain" in capsys.readouterr().out
        program = PulseProgram.from_json_dict(read_json(p_path))
        assert program.chain.couplings == (120.0, 80.0)

    def test_pi_coupling_at_100_hz_takes_5_ms(self, tmp_path, capsys):
        gates = gate_list_to_json([zz_row(1, math.pi)])
        g_path = tmp_path / "g.json"
        g_path.write_text(json.dumps(gates))
        assert main(["pulses", "--input", str(g_path),
                     "--output", str(tmp_path / "p.json")]) == 0
        assert "total coupling time 0.005000000 s" in capsys.readouterr().out

    def test_chain_disagrees_with_n(self, tmp_path):
        gates = gate_list_to_json([zz_row(1, 0.3)])
        g_path = tmp_path / "g.json"
        g_path.write_text(json.dumps(gates))
        assert main(["pulses", "--input", str(g_path),
                     "--output", str(tmp_path / "p.json"),
                     "--chain", "100", "--n", "4"]) == 3

    def test_bad_chain_values(self, tmp_path):
        gates = gate_list_to_json([zz_row(1, 0.3)])
        g_path = tmp_path / "g.json"
        g_path.write_text(json.dumps(gates))
        base = ["pulses", "--input", str(g_path),
                "--output", str(tmp_path / "p.json")]
        assert main(base + ["--chain", "abc"]) == 3
        assert main(base + ["--chain", "100,-50"]) == 3

    @pytest.mark.parametrize("j, code", [("5e-324", 3), ("1e-320", 3),
                                         ("6e-309", 3), ("1e-300", 0)])
    def test_chain_too_weak_to_schedule(self, tmp_path, capsys, j, code):
        """A coupling so weak that ``2 / J`` overflows would write delays
        of ``Infinity``, which is not JSON: the chain is refused and no
        file is written.  At 1e-300 Hz every delay is finite and the
        program verifies."""
        target = make_target(tmp_path)
        d_path, p_path = tmp_path / "d.json", tmp_path / "p.json"
        assert main(["decompose", "--input", str(target),
                     "--output", str(d_path)]) == 0
        assert main(["pulses", "--input", str(d_path), "--output",
                     str(p_path), "--chain", f"{j},100"]) == code
        if code:
            assert not p_path.exists()
            assert "coupling J_1 must leave 2 / J_1 finite" in (
                capsys.readouterr().err)
        else:
            assert "Infinity" not in p_path.read_text()
            assert main(["verify", str(p_path), str(target)]) == 0

    @pytest.mark.parametrize("chain, code", [
        ("2e-308,100", 3), ("1e-307,100", 3), ("1e-306,100", 3),
        ("100,1e-306", 3), ("1e-305,100", 0), ("100,1e-305", 0)])
    def test_chain_too_wide_to_simulate(self, tmp_path, capsys, chain, code):
        """A delay runs up to ``2 / J_lo`` seconds, which turns the
        strongest pair by ``4*pi * J_hi / J_lo``; where that overflows,
        ``verify`` would simulate turns that are not finite.  The chain
        is refused and no file is written.  Below that, a compiled
        program and one of two 2*pi couplings on pair 1 verify."""
        target = tmp_path / "u.json"
        assert main(["random", "--n", "3", "--seed", "7",
                     "--output", str(target)]) == 0
        d_path = tmp_path / "d.json"
        assert main(["decompose", "--input", str(target),
                     "--output", str(d_path)]) == 0
        twice = [zz_row(1, 2 * math.pi)] * 2
        g_path, g_target = tmp_path / "g.json", tmp_path / "g-target.json"
        g_path.write_text(json.dumps(gate_list_to_json(twice)))
        write_matrix(g_target, gate_list_unitary(GateList(twice), 3))
        capsys.readouterr()
        for gates, want in ((d_path, target), (g_path, g_target)):
            p_path = tmp_path / "p.json"
            assert main(["pulses", "--input", str(gates), "--output",
                         str(p_path), "--chain", chain]) == code
            if code:
                assert not p_path.exists()
                assert "must leave 4*pi * J_" in capsys.readouterr().err
            else:
                assert main(["verify", str(p_path), str(want)]) == 0
                p_path.unlink()

    def test_gate_beyond_chain(self, tmp_path):
        gates = gate_list_to_json([zz_row(3, 0.3)])
        g_path = tmp_path / "g.json"
        g_path.write_text(json.dumps(gates))
        assert main(["pulses", "--input", str(g_path),
                     "--output", str(tmp_path / "p.json"),
                     "--chain", "100"]) == 3

    def test_rejects_artifact_without_gates(self, tmp_path):
        g_path = tmp_path / "g.json"
        g_path.write_text(json.dumps({"foo": 1}))
        assert main(["pulses", "--input", str(g_path),
                     "--output", str(tmp_path / "p.json")]) == 3


class TestVerify:

    @pytest.fixture
    def artifacts(self, tmp_path):
        target = make_target(tmp_path)
        d_path, p_path = tmp_path / "d.json", tmp_path / "p.json"
        assert main(["decompose", "--input", str(target),
                     "--output", str(d_path)]) == 0
        assert main(["pulses", "--input", str(d_path),
                     "--output", str(p_path)]) == 0
        return target, d_path, p_path

    def test_gate_list_passes(self, artifacts, tmp_path, capsys):
        target, d_path, _ = artifacts
        report_path = tmp_path / "report.json"
        assert main(["verify", str(d_path), str(target),
                     "--output", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "fidelity" in out
        report = read_json(report_path)
        assert set(report) == {"dfro", "fid", "dim"}
        assert report["dim"] == 8
        assert report["fid"] > 1 - 1e-9

    def test_pulse_program_passes(self, artifacts, capsys):
        target, _, p_path = artifacts
        assert main(["verify", str(p_path), str(target)]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_matrix_against_itself(self, tmp_path, capsys):
        target = make_target(tmp_path)
        assert main(["verify", str(target), str(target)]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_global_phase_is_ignored(self, artifacts, tmp_path):
        target, d_path, _ = artifacts
        u = matrix_from_json_dict(read_json(target))
        shifted = tmp_path / "shifted.json"
        write_matrix(shifted, np.exp(0.3j) * u)
        assert main(["verify", str(d_path), str(shifted)]) == 0

    def test_perturbed_target_fails(self, artifacts, tmp_path, capsys):
        target, d_path, _ = artifacts
        u = matrix_from_json_dict(read_json(target))
        rz = np.diag([np.exp(-0.0005j), np.exp(0.0005j)])
        pert = tmp_path / "pert.json"
        write_matrix(pert, u @ np.kron(rz, np.eye(4)))
        assert main(["verify", str(d_path), str(pert)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_no_check_admits_slightly_off_matrix(self, artifacts, tmp_path):
        target, d_path, _ = artifacts
        u = matrix_from_json_dict(read_json(target))
        off = tmp_path / "off.json"
        write_matrix(off, u * (1 + 3e-8))
        assert main(["verify", str(d_path), str(off)]) == 3
        assert main(["verify", str(d_path), str(off), "--no-check"]) == 0

    def test_nonpositive_tolerance(self, artifacts):
        target, d_path, _ = artifacts
        assert main(["verify", str(d_path), str(target), "--tol", "-1"]) == 3

    @pytest.mark.parametrize("flags", [[], ["--no-check"]],
                             ids=["checked", "no-check"])
    def test_non_finite_target_is_invalid(self, artifacts, tmp_path, capsys,
                                          flags):
        """A nan target gives a nan distance, which is invalid input, not
        a failed verification."""
        target, d_path, p_path = artifacts
        u = matrix_from_json_dict(read_json(target))
        u[1, 2] = math.nan
        bad = tmp_path / "nan.json"
        write_matrix(bad, u)
        for path in (d_path, p_path):
            assert main(["verify", str(path), str(bad), *flags]) == 3
        out = capsys.readouterr().out
        assert "PASS" not in out and "FAIL" not in out

    @pytest.mark.parametrize("phase", [math.nan, math.inf],
                             ids=["NaN", "Infinity"])
    def test_non_finite_program_phase_is_invalid(self, artifacts, tmp_path,
                                                 capsys, phase):
        """Python's json reads ``NaN`` and ``Infinity``; a program phase
        of either is invalid input, as it is in a gate list."""
        target, _, p_path = artifacts
        data = read_json(p_path)
        data["phase"] = phase
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["verify", str(bad), str(target)]) == 3
        captured = capsys.readouterr()
        assert "PASS" not in captured.out and "FAIL" not in captured.out
        assert "phase must be finite" in captured.err

    @pytest.mark.parametrize("angle", [math.pi, 0.4], ids=["pi-x", "ordinary"])
    def test_pulse_off_the_chain_is_invalid(self, artifacts, tmp_path, capsys,
                                            angle):
        target, _, p_path = artifacts
        data = read_json(p_path)
        data["events"].append({"kind": "pulse", "q": 4, "axis": "x",
                               "angle": angle})
        bad = tmp_path / "off.json"
        bad.write_text(json.dumps(data))
        assert main(["verify", str(bad), str(target)]) == 3
        captured = capsys.readouterr()
        assert "PASS" not in captured.out and "FAIL" not in captured.out
        assert "spin 4" in captured.err

    @pytest.mark.parametrize("field", ["J", "pair"])
    def test_string_for_an_array_is_invalid(self, artifacts, tmp_path, capsys,
                                            field):
        """A JSON string where an array belongs is invalid input:
        ``"J": "11"`` is not a 1 Hz chain, which would simulate the wrong
        drift and fail, and ``"pair": "12"`` is not the pair (1, 2)."""
        target, d_path, p_path = artifacts
        if field == "J":
            data = read_json(p_path)
            data["chain"]["J"] = "11"
        else:
            data = read_json(d_path)
            gate = next(g for g in data["gates"] if g["kind"] == "zz")
            gate["pair"] = "".join(map(str, gate["pair"]))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["verify", str(bad), str(target)]) == 3
        captured = capsys.readouterr()
        assert "PASS" not in captured.out and "FAIL" not in captured.out
        assert "JSON array" in captured.err

    @pytest.mark.parametrize("events", ["abc", {"kind": "delay"}, 5],
                             ids=["string", "object", "number"])
    def test_events_must_be_an_array(self, artifacts, tmp_path, capsys,
                                     events):
        """A program's ``events`` is a JSON array: a string is not read
        letter by letter, an object not key by key, and a number is not
        a malformed program of some other kind."""
        target, _, p_path = artifacts
        data = read_json(p_path)
        data["events"] = events
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["verify", str(bad), str(target)]) == 3
        captured = capsys.readouterr()
        assert "PASS" not in captured.out and "FAIL" not in captured.out
        assert "program events must be a JSON array" in captured.err

    def test_size_mismatch_is_rejected_before_simulating(
            self, artifacts, tmp_path, monkeypatch, capsys):
        """A three-spin program against a two-spin target is invalid
        input, and the message names both spin counts; the program is
        not simulated first."""
        _, _, p_path = artifacts
        target = make_target(tmp_path, n=2, name="u2.json")

        def never(program):
            raise AssertionError("the program was simulated")

        monkeypatch.setattr(kakpulse.cli, "pulse_program_unitary", never)
        assert main(["verify", str(p_path), str(target)]) == 3
        captured = capsys.readouterr()
        assert "PASS" not in captured.out and "FAIL" not in captured.out
        assert "runs on 3 spins, the target acts on 2" in captured.err

    @pytest.mark.parametrize("which", ["gates", "events"])
    def test_bad_item_is_named_by_its_index(self, artifacts, tmp_path, capsys,
                                            which):
        """A bad field in one item of a long list is invalid input, and
        the message says which item."""
        target, d_path, p_path = artifacts
        artifact = d_path if which == "gates" else p_path
        data = read_json(artifact)
        data[which][3] = ({"kind": "zz", "pair": [1.5, 2.5], "angle": 0.2}
                          if which == "gates" else {"kind": "delay", "t": -1.0})
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["verify", str(bad), str(target)]) == 3
        captured = capsys.readouterr()
        assert "PASS" not in captured.out and "FAIL" not in captured.out
        assert "at index 3:" in captured.err

    @pytest.mark.parametrize("field, value", [
        ("q", 2.9), ("pair", [1.5, 2.5]), ("pulse", True), ("n", 3.5),
        ("dim", 8.5)])
    def test_non_integral_index_is_invalid(self, artifacts, tmp_path, capsys,
                                           field, value):
        """A spin, pair, chain size or dimension that is not a JSON
        integer is invalid input: ``2.9`` is not spin 2, and ``true`` is
        not spin 1."""
        target, d_path, p_path = artifacts
        artifact, path = (p_path, tmp_path / "bad.json")
        if field in ("q", "pair"):
            artifact, data = d_path, read_json(d_path)
            kind = "local" if field == "q" else "zz"
            next(g for g in data["gates"] if g["kind"] == kind)[field] = value
        elif field == "pulse":
            data = read_json(p_path)
            next(e for e in data["events"] if e["kind"] == "pulse")["q"] = value
        elif field == "n":
            data = read_json(p_path)
            data["chain"]["n"] = value
        else:
            artifact, path = target, tmp_path / "bad_target.json"
            data = read_json(target)
            data["dim"] = value
        path.write_text(json.dumps(data))
        args = ([str(artifact), str(path)] if field == "dim"
                else [str(path), str(target)])
        assert main(["verify", *args]) == 3
        captured = capsys.readouterr()
        assert "PASS" not in captured.out and "FAIL" not in captured.out
        assert "must be an integer" in captured.err

    @pytest.mark.parametrize("place, value", [
        ("gate", "0.5"), ("gate", True), ("pulse", "0.5"), ("delay", "0.001"),
        ("J", "100"), ("target", True), ("target", "0.5")])
    def test_a_number_spelled_otherwise_is_invalid(self, artifacts, tmp_path,
                                                   capsys, place, value):
        """A string or a bool where a number belongs is invalid input:
        ``"0.5"`` is not read as 0.5, nor ``true`` as 1."""
        target, d_path, p_path = artifacts
        bad = tmp_path / "bad.json"
        if place == "gate":
            data = read_json(d_path)
            next(g for g in data["gates"] if g["kind"] == "local")["angle"] = value
            bad.write_text(json.dumps(data))
            assert main(["pulses", "--input", str(bad), "--output",
                         str(tmp_path / "out.json")]) == 3
            assert not (tmp_path / "out.json").exists()
        elif place == "target":
            data = read_json(target)
            data["re"][0][0] = value
            bad.write_text(json.dumps(data))
        else:
            data = read_json(p_path)
            if place == "J":
                data["chain"]["J"][0] = value
            else:
                kind = "delay" if place == "delay" else "pulse"
                event = next(e for e in data["events"] if e["kind"] == kind)
                event["t" if kind == "delay" else "angle"] = value
            bad.write_text(json.dumps(data))
        args = [str(d_path), str(bad)] if place == "target" else [str(bad), str(target)]
        assert main(["verify", *args]) == 3
        captured = capsys.readouterr()
        assert "PASS" not in captured.out and "FAIL" not in captured.out
        assert "must be a number" in captured.err or "must hold numbers" in captured.err

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tolerance_is_rejected_before_simulating(
            self, artifacts, monkeypatch, capsys, tol):
        """A nan bound would fail every artifact and an infinite one pass
        every artifact; both are invalid input, not a verdict."""
        target, d_path, p_path = artifacts
        calls = []
        for name in ("gate_list_unitary", "pulse_program_unitary"):
            monkeypatch.setattr(f"kakpulse.cli.{name}",
                                lambda *args: calls.append(args))
        for path in (d_path, p_path):
            assert main(["verify", str(path), str(target), f"--tol={tol}"]) == 3
        assert calls == []
        out = capsys.readouterr().out
        assert "PASS" not in out and "FAIL" not in out


class TestSelftest:
    """The command's loop, summary and exit codes, on stub suites.

    The real suites run once each in ``tests/test_acceptance.py`` and in
    CI's ``python -m kakpulse.cli selftest`` step; here they are replaced
    by stubs under the same names, so only the command is timed.
    """

    NAMES = ("commutation", "ortho", "families", "identities", "refocus",
             "euler", "twospin", "recursive", "endtoend")

    def stub_suites(self, monkeypatch, failing=()):
        assert tuple(kakpulse.cli.SUITES) == self.NAMES
        ran = []

        def stub(name):
            def run():
                ran.append(name)
                return name not in failing, f"{name} stub detail"
            return run

        monkeypatch.setattr(kakpulse.cli, "SUITES",
                            {name: stub(name) for name in self.NAMES})
        return ran

    def test_all_suites_pass(self, monkeypatch, capsys):
        ran = self.stub_suites(monkeypatch)
        assert main(["selftest"]) == 0
        assert ran == list(self.NAMES)
        lines = capsys.readouterr().out.splitlines()
        assert lines == [f"{name:<12} pass  {name} stub detail"
                         for name in self.NAMES] + ["self-test passed (9 suites)"]

    def test_failing_suites_are_named(self, monkeypatch, capsys):
        ran = self.stub_suites(monkeypatch, failing=("ortho", "endtoend"))
        assert main(["selftest"]) == 1
        assert ran == list(self.NAMES)  # a failure does not stop the run
        captured = capsys.readouterr()
        assert "ortho        FAIL  ortho stub detail" in captured.out
        assert "self-test passed" not in captured.out
        assert captured.err == "self-test FAILED: ortho, endtoend\n"

    def test_single_suite(self, capsys):
        assert main(["selftest", "--suite", "ortho"]) == 0
        out = capsys.readouterr().out
        assert "ortho" in out and "pass" in out
        assert "recursive" not in out

    def test_unknown_suite(self):
        assert main(["selftest", "--suite", "nope"]) == 3

    def test_detects_injected_algebra_fault(self, monkeypatch, capsys):
        """Flipping one sign in the single-letter product table must be
        caught by the commutation suite, not silently absorbed."""
        monkeypatch.setitem(kakpulse.paulis._EPSILON, "XY", (-1j, "Z"))
        assert main(["selftest", "--suite", "commutation"]) == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "product X * Y disagrees with dense algebra" in captured.out
        assert "self-test FAILED: commutation" in captured.err

    def assert_suite_fails(self, suite, capsys):
        assert main(["selftest", "--suite", suite]) == 1
        captured = capsys.readouterr()
        assert f"{suite:<12} FAIL" in captured.out
        assert "raised" not in captured.out
        assert f"self-test FAILED: {suite}" in captured.err

    @pytest.mark.parametrize("suite", ["refocus", "endtoend"])
    def test_detects_a_coupling_left_unrefocused(self, monkeypatch, capsys,
                                                 suite):
        """Dropping one spin from each switch set of the sign plan leaves
        a coupling of the chain on when it should cancel, or off when it
        should run; both suites that simulate pulse programs must report
        it as a failure."""
        honest = kakpulse.pulses._switch_set
        monkeypatch.setattr(kakpulse.pulses, "_switch_set",
                            lambda pattern, free: honest(pattern, free)[1:])
        self.assert_suite_fails(suite, capsys)

    @pytest.mark.parametrize("suite", ["refocus", "endtoend"])
    def test_detects_a_lost_toggle(self, monkeypatch, capsys, suite):
        """One x pi-pulse of the frame goes missing while the frame counts
        it as given."""
        lossy = lossy_toggle(kakpulse.pulses._Frame.flush)
        monkeypatch.setattr(kakpulse.pulses._Frame, "flush", lossy)
        self.assert_suite_fails(suite, capsys)
        assert lossy.lost

    @pytest.mark.parametrize("suite", ["refocus", "endtoend"])
    def test_detects_a_missing_restore(self, monkeypatch, capsys, suite):
        monkeypatch.setattr(kakpulse.pulses._Frame, "restore",
                            lambda frame: None)
        self.assert_suite_fails(suite, capsys)

    def test_detects_uncanonical_two_spin_angles(self, monkeypatch, capsys):
        """Skipping the canonicalization leaves interaction angles outside
        the chamber while every factorization still reconstructs."""
        monkeypatch.setattr(kakpulse.kak, "_chamber", lambda *stacks: None)
        assert main(["selftest", "--suite", "twospin"]) == 1
        captured = capsys.readouterr()
        assert "twospin      FAIL  chamber violated" in captured.out
        assert "self-test FAILED: twospin" in captured.err


class TestSpinLimit:
    """Every subcommand rejects a chain longer than ``MAX_CLI_SPINS`` with
    exit 3 before it builds anything of that size.  Oversized inputs are
    declared, not allocated: a matrix file states its ``dim`` over empty
    grids, so only a check that reads ``dim`` first names the limit."""

    LIMIT = kakpulse.cli.MAX_CLI_SPINS

    def oversized_matrix(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(
            {"dim": 2 ** (self.LIMIT + 1), "re": [], "im": []}))
        return path

    def gate_list(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(gate_list_to_json([zz_row(1, 0.3)])))
        return path

    def assert_limit_error(self, capsys):
        err = capsys.readouterr().err
        assert f"the command-line limit is {self.LIMIT}" in err

    def test_limit_is_at_least_seven(self):
        assert self.LIMIT >= 7

    def test_random(self, tmp_path, capsys):
        path = tmp_path / "u.json"
        assert main(["random", "--n", str(self.LIMIT + 1),
                     "--output", str(path)]) == 3
        self.assert_limit_error(capsys)
        assert not path.exists()

    def test_decompose(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("kakpulse.cli.decompose",
                            lambda u: pytest.fail("factored an oversized input"))
        out_path = tmp_path / "d.json"
        assert main(["decompose", "--input", str(self.oversized_matrix(tmp_path)),
                     "--output", str(out_path)]) == 3
        self.assert_limit_error(capsys)
        assert not out_path.exists()

    def test_pulses(self, tmp_path, capsys):
        g_path, p_path = self.gate_list(tmp_path), tmp_path / "p.json"
        base = ["pulses", "--input", str(g_path), "--output", str(p_path)]
        assert main(base + ["--n", str(self.LIMIT + 1)]) == 3
        self.assert_limit_error(capsys)
        assert main(base + ["--chain", ",".join(["100"] * self.LIMIT)]) == 3
        self.assert_limit_error(capsys)
        assert not p_path.exists()

    def test_verify_target(self, tmp_path, capsys):
        g_path = self.gate_list(tmp_path)
        assert main(["verify", str(g_path),
                     str(self.oversized_matrix(tmp_path))]) == 3
        self.assert_limit_error(capsys)

    def test_verify_artifact(self, tmp_path, capsys):
        target = tmp_path / "u.json"
        write_matrix(target, np.eye(2, dtype=complex))
        assert main(["verify", str(self.oversized_matrix(tmp_path)),
                     str(target)]) == 3
        self.assert_limit_error(capsys)
        program = tmp_path / "p.json"
        program.write_text(json.dumps({
            "chain": {"n": self.LIMIT + 1, "J": [100.0] * self.LIMIT},
            "events": [], "phase": 0.0}))
        assert main(["verify", str(program), str(target)]) == 3
        self.assert_limit_error(capsys)

    def test_limit_itself_is_accepted(self, tmp_path, monkeypatch):
        """With the limit lowered to two spins, two-spin inputs pass every
        command and three-spin inputs fail, at the same checks."""
        monkeypatch.setattr(kakpulse.cli, "MAX_CLI_SPINS", 2)
        two, d_path, p_path = (tmp_path / "u2.json", tmp_path / "d.json",
                               tmp_path / "p.json")
        assert main(["random", "--n", "2", "--output", str(two)]) == 0
        assert main(["random", "--n", "3",
                     "--output", str(tmp_path / "u3.json")]) == 3
        three = tmp_path / "m3.json"
        write_matrix(three, np.eye(8, dtype=complex))
        assert main(["decompose", "--input", str(two),
                     "--output", str(d_path)]) == 0
        assert main(["decompose", "--input", str(three),
                     "--output", str(tmp_path / "d3.json")]) == 3
        assert main(["pulses", "--input", str(d_path),
                     "--output", str(p_path)]) == 0
        assert main(["pulses", "--input", str(d_path), "--n", "3",
                     "--output", str(tmp_path / "p3.json")]) == 3
        assert main(["verify", str(p_path), str(two)]) == 0
        assert main(["verify", str(three), str(three)]) == 3


class TestErrorPaths:

    def test_missing_input_file(self, tmp_path):
        assert main(["decompose", "--input", str(tmp_path / "missing.json"),
                     "--output", str(tmp_path / "d.json")]) == 2

    def test_unreadable_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["decompose", "--input", str(bad),
                     "--output", str(tmp_path / "d.json")]) == 2

    def test_missing_verify_target(self, tmp_path):
        target = make_target(tmp_path)
        assert main(["verify", str(target), str(tmp_path / "gone.json")]) == 2

    def test_non_unitary_input(self, tmp_path):
        bad = tmp_path / "bad.json"
        write_matrix(bad, np.ones((8, 8), dtype=complex))
        assert main(["decompose", "--input", str(bad),
                     "--output", str(tmp_path / "d.json")]) == 3

    @pytest.mark.parametrize("slot", ["decompose", "pulses", "verify program",
                                      "verify target"])
    def test_deeply_nested_json_is_unreadable(self, tmp_path, capsys, slot):
        """Arrays nested past the parser's recursion limit are an
        unreadable artifact (exit 2), wherever a command reads a file."""
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000 + "]" * 200_000)
        target, out = make_target(tmp_path), str(tmp_path / "out.json")
        argv = {
            "decompose": ["decompose", "--input", str(deep), "--output", out],
            "pulses": ["pulses", "--input", str(deep), "--output", out],
            "verify program": ["verify", str(deep), str(target)],
            "verify target": ["verify", str(target), str(deep)],
        }[slot]
        capsys.readouterr()
        assert main(argv) == 2
        assert "unreadable artifact" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("slot", ["decompose", "pulses", "verify program",
                                      "verify target"])
    def test_non_utf8_file_is_unreadable(self, tmp_path, capsys, slot):
        """Bytes that are not UTF-8 are an unreadable artifact (exit 2),
        like truncated JSON, wherever a command reads a file."""
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{")
        target, out = make_target(tmp_path), str(tmp_path / "out.json")
        argv = {
            "decompose": ["decompose", "--input", str(bad), "--output", out],
            "pulses": ["pulses", "--input", str(bad), "--output", out],
            "verify program": ["verify", str(bad), str(target)],
            "verify target": ["verify", str(target), str(bad)],
        }[slot]
        capsys.readouterr()
        assert main(argv) == 2
        assert "unreadable artifact" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_recursion_error_elsewhere_still_raises(self, tmp_path,
                                                    monkeypatch):
        """Only reading a file turns a ``RecursionError`` into exit 2; one
        raised by the pipeline is a bug and surfaces as itself."""
        def recurse(u):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(kakpulse.cli, "decompose", recurse)
        with pytest.raises(RecursionError):
            main(["decompose", "--input", str(make_target(tmp_path)),
                  "--output", str(tmp_path / "d.json")])


class TestParser:
    """The argument parser is built once per process and holds nothing
    of a parsed command line."""

    @pytest.fixture(autouse=True)
    def fresh_parser(self):
        kakpulse.cli._build_parser.cache_clear()
        yield
        kakpulse.cli._build_parser.cache_clear()

    def test_only_the_first_call_builds(self, tmp_path, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        target = make_target(tmp_path)
        first = len(built)
        assert first > 0
        d_path = tmp_path / "d.json"
        assert main(["decompose", "--input", str(target),
                     "--output", str(d_path)]) == 0
        assert main(["verify", str(d_path), str(target)]) == 0
        assert len(built) == first

    def test_a_value_given_once_does_not_leak(self, tmp_path):
        three = make_target(tmp_path, n=3, name="three.json")
        two = make_target(tmp_path, n=2, name="two.json")
        d_path = tmp_path / "d.json"
        assert main(["decompose", "--input", str(three), "--n", "3",
                     "--output", str(d_path)]) == 0
        assert main(["decompose", "--input", str(two),
                     "--output", str(tmp_path / "d2.json")]) == 0

        off = tmp_path / "off.json"
        write_matrix(off, matrix_from_json_dict(read_json(three)) * (1 + 3e-8))
        assert main(["verify", str(d_path), str(off), "--no-check"]) == 0
        assert main(["verify", str(d_path), str(off)]) == 3

    def test_a_usage_error_leaves_the_next_call_working(self, tmp_path):
        make_target(tmp_path, name="a.json")
        with pytest.raises(SystemExit) as info:
            main(["decompose", "--output", str(tmp_path / "d.json")])
        assert info.value.code == 2
        b = make_target(tmp_path, name="b.json")
        assert (tmp_path / "a.json").read_bytes() == b.read_bytes()


def test_module_entry_point(tmp_path):
    """The package under test runs as ``python -m kakpulse.cli`` in a fresh
    process from a scratch working directory.

    The child gets the absolute directory holding the imported package
    first on ``PYTHONPATH``, so it runs the same code as this process
    whether that was installed or loaded through a relative path.
    """
    package_root = os.path.dirname(os.path.dirname(
        os.path.abspath(kakpulse.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "kakpulse.cli", "selftest", "--suite", "euler"],
        capture_output=True, text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0
    assert "euler" in proc.stdout and "pass" in proc.stdout


def test_no_command_loads_scipy(tmp_path):
    """A fresh process imports the package and the CLI and runs every
    command, ``decompose`` and the factoring self-test suites included,
    without loading ``scipy``: the cosine-sine split is NumPy."""
    script = """
import json, sys
import kakpulse, kakpulse.cli
from kakpulse.cli import main
from kakpulse.gates import gate_list_from_json
from kakpulse.linalg import matrix_to_json_dict
from kakpulse.simulate import gate_list_unitary

gates = [{"kind": "local", "q": 1, "axis": "x", "angle": 0.5},
         {"kind": "zz", "pair": [1, 2], "angle": 1.25},
         {"kind": "local", "q": 3, "axis": "y", "angle": -0.75}]
json.dump(gates, open("gates.json", "w"))
json.dump(matrix_to_json_dict(gate_list_unitary(gate_list_from_json(gates), 3)),
          open("target.json", "w"))
assert main(["random", "--n", "4", "--seed", "1", "--output", "u.json"]) == 0
assert main(["decompose", "--input", "u.json", "--output", "d.json"]) == 0
assert main(["pulses", "--input", "d.json", "--output", "program.json"]) == 0
assert main(["verify", "program.json", "u.json"]) == 0
assert main(["pulses", "--input", "gates.json", "--n", "3",
             "--output", "program3.json"]) == 0
assert main(["verify", "program3.json", "target.json"]) == 0
for suite in ("twospin", "recursive"):
    assert main(["selftest", "--suite", suite]) == 0
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, loaded
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
