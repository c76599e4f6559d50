"""Independent oracle for pulse programs, written from the file format.

``kakpulse.simulate`` is what later versions will rewrite, so it cannot
check itself: this evaluator shares no code with it.
"""

from __future__ import annotations

import numpy as np

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def program_unitary(program: dict) -> np.ndarray:
    """Hard pulses kron-embedded on their spin, delays under the drift
    ``sum_k 2*pi*J_k * Iz_k Iz_(k+1)``, then the program's global phase."""
    n = int(program["chain"]["n"])
    couplings = program["chain"]["J"]
    z = 1.0 - 2.0 * ((np.arange(2 ** n)[None, :] >> (n - 1 - np.arange(n)[:, None])) & 1)
    drift = np.zeros(2 ** n)
    for k, j in enumerate(couplings):
        drift += 2 * np.pi * j * z[k] * z[k + 1] / 4
    u = np.eye(2 ** n, dtype=complex)
    for e in program["events"]:
        if e["kind"] == "pulse":
            q, half = e["q"], e["angle"] / 2
            rot = np.cos(half) * np.eye(2) - 1j * np.sin(half) * _PAULI[e["axis"]]
            u = np.kron(np.kron(np.eye(2 ** (q - 1)), rot), np.eye(2 ** (n - q))) @ u
        else:
            u = np.exp(-1j * e["t"] * drift)[:, None] * u
    return np.exp(1j * program["phase"]) * u


def phase_free_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Frobenius distance after the best global phase."""
    t = np.trace(v.conj().T @ u)
    return float(np.linalg.norm(u * np.exp(-1j * np.angle(t)) - v))
