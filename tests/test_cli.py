"""In-process tests of the command-line interface.

Each test drives ``kakpulse.cli.main`` with an argv list so exit codes
and console output are asserted without spawning a process; a single
smoke test at the end runs the package under test as a module, in a
fresh process, from a scratch working directory.  Exit codes
are a stable contract: 0 success, 1 verification/self-test failure,
2 I/O failure, 3 validation failure, 4 numeric failure.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import kakpulse.paulis
from kakpulse.cli import main
from kakpulse.gates import CouplingEvolution, gate_list_from_json, gate_list_to_json
from kakpulse.kak import residual_budget
from kakpulse.linalg import matrix_from_json_dict, matrix_to_json_dict
from kakpulse.pulses import PulseProgram
from kakpulse.simulate import gate_list_unitary, pulse_program_unitary


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

    def test_chain_flag_sets_couplings(self, tmp_path, capsys):
        gates = gate_list_to_json([CouplingEvolution(2, 0.7)])
        g_path = tmp_path / "g.json"
        g_path.write_text(json.dumps(gates))
        p_path = tmp_path / "p.json"
        assert main(["pulses", "--input", str(g_path), "--output", str(p_path),
                     "--chain", "120,80"]) == 0
        assert "3-spin chain" in capsys.readouterr().out
        program = PulseProgram.from_json_dict(read_json(p_path))
        assert program.chain.couplings == (120.0, 80.0)

    def test_pi_coupling_at_100_hz_takes_5_ms(self, tmp_path, capsys):
        gates = gate_list_to_json([CouplingEvolution(1, math.pi)])
        g_path = tmp_path / "g.json"
        g_path.write_text(json.dumps(gates))
        assert main(["pulses", "--input", str(g_path),
                     "--output", str(tmp_path / "p.json")]) == 0
        assert "total coupling time 0.005000000 s" in capsys.readouterr().out

    def test_chain_disagrees_with_n(self, tmp_path):
        gates = gate_list_to_json([CouplingEvolution(1, 0.3)])
        g_path = tmp_path / "g.json"
        g_path.write_text(json.dumps(gates))
        assert main(["pulses", "--input", str(g_path),
                     "--output", str(tmp_path / "p.json"),
                     "--chain", "100", "--n", "4"]) == 3

    def test_bad_chain_values(self, tmp_path):
        gates = gate_list_to_json([CouplingEvolution(1, 0.3)])
        g_path = tmp_path / "g.json"
        g_path.write_text(json.dumps(gates))
        base = ["pulses", "--input", str(g_path),
                "--output", str(tmp_path / "p.json")]
        assert main(base + ["--chain", "abc"]) == 3
        assert main(base + ["--chain", "100,-50"]) == 3

    def test_gate_beyond_chain(self, tmp_path):
        gates = gate_list_to_json([CouplingEvolution(3, 0.3)])
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


class TestSelftest:

    def test_all_suites_pass(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        for name in ("commutation", "ortho", "families", "identities",
                     "refocus", "euler", "twospin", "recursive"):
            assert name in out
        assert "FAIL" not in out
        assert "self-test passed (8 suites)" in out

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
