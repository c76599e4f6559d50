"""Acceptance suite: the nine invariant suites of :mod:`kakpulse.selftest`,
one test each, in the order ``kakpulse selftest`` runs them.

The checks, tolerances, sample counts and seeds live only in
``kakpulse.selftest``; each test here runs one suite under a wall-clock
budget and prints its pass line (visible with ``pytest -s``; under plain
``pytest -v`` the test id itself is the pass/fail line).  The ``endtoend``
suite is the end-to-end guarantee: 20 three-spin targets lowered onto a
100 Hz chain and simulated under the always-on drift.
"""

from __future__ import annotations

import time

from kakpulse.selftest import SUITES


def _run(name: str, cap: float) -> None:
    t0 = time.perf_counter()
    ok, detail = SUITES[name]()
    elapsed = time.perf_counter() - t0
    assert ok, f"{name}: {detail}"
    print(f"PASS  {name}: {detail} [{elapsed:.2f}s < {cap:g}s]")
    assert elapsed < cap, f"{name} took {elapsed:.2f}s, budget {cap:g}s"


def test_block_mixing_commutation_relations():
    _run("commutation", 10.0)


def test_basis_trace_orthogonality():
    _run("ortho", 1.0)


def test_commuting_families():
    _run("families", 30.0)


def test_coupling_transport_identities():
    _run("identities", 1.0)


def test_refocused_single_couplings():
    _run("refocus", 10.0)


def test_single_spin_euler_angles():
    _run("euler", 1.0)


def test_two_spin_closed_form():
    _run("twospin", 10.0)


def test_recursive_factorization():
    _run("recursive", 120.0)


def test_end_to_end_pulse_fidelity():
    _run("endtoend", 60.0)
