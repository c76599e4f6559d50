"""Workload definitions and target generation for the round-trip benchmark.

Targets are generated here, from the workload seed alone, with a Haar
sampler of the benchmark's own: a change to ``kakpulse`` cannot change
the inputs it is measured on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np


@dataclass(frozen=True)
class Workload:
    """One input family plus the sample sizes that make its figures steady.

    ``min_targets`` timed targets are always run, even past the deadline,
    so that ``tail_pct`` keeps at least ten samples beyond it and the
    size metrics, taken over exactly that prefix, repeat for a seed.
    """

    name: str
    n: int
    couplings: tuple[float, ...]
    structured: bool
    min_targets: int
    tail_pct: float
    reference_checks: int

    @property
    def chain_arg(self) -> str:
        return ",".join(f"{j:g}" for j in self.couplings)


# Why each workload exists, and which ROADMAP change it isolates:
# * haar-n3: 8x8 matrices, so CLI, JSON and per-gate Python dispatch
#   dominate; an O(8^n) kernel change should barely move it.
# * haar-n5: dense simulation and kak.evaluate dominate; the one-pass
#   recursion and the axis-wise kernel show here.
# * structured-n4: degenerate spectra and zero CS angles on an unequal
#   chain; emitted coupling time is far from Haar's, so "emit less
#   coupling time" shows here.  Its panel repeats, the only workload
#   with repeated inputs.
WORKLOADS = {
    w.name: w for w in (
        Workload("haar-n3", 3, (100.0, 100.0), False,
                 min_targets=200, tail_pct=95.0, reference_checks=10),
        Workload("haar-n5", 5, (100.0,) * 4, False,
                 min_targets=20, tail_pct=50.0, reference_checks=1),
        Workload("structured-n4", 4, (120.0, 80.0, 140.0), True,
                 min_targets=55, tail_pct=81.0, reference_checks=11),
    )
}


def haar(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar special unitary: QR of a complex Gaussian with the R diagonal
    made positive, then the determinant divided out."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return q * np.exp(-1j * np.angle(np.linalg.det(q)) / dim)


def _permutation(perm: list[int]) -> np.ndarray:
    """Unitary sending basis state ``k`` to ``perm[k]``."""
    dim = len(perm)
    m = np.zeros((dim, dim), dtype=complex)
    m[perm, np.arange(dim)] = 1.0
    return m


# Runs time whole panel cycles.  With an odd panel size the median and
# the tail percentile fall inside one member's cluster of samples rather
# than in the gap between two members, where noise would flip them.
PANEL_SIZE = 11


def cycle_length(work: Workload) -> int:
    """Targets per input cycle: runs stop only at a cycle boundary."""
    return PANEL_SIZE if work.structured else 1


def structured_panel(n: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Targets with degenerate spectra or product structure; three are
    drawn from ``rng``.  The seeded ones come first, so the determinism
    check (on the first timed target) compiles a generic input."""
    dim = 2 ** n
    idx = np.arange(dim)
    kron = np.ones((1, 1), dtype=complex)
    for _ in range(n):
        kron = np.kron(kron, haar(2, rng))
    herm = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    w, v = np.linalg.eigh(herm + herm.conj().T)
    near_identity = (v * np.exp(-1j * 1e-9 * w)) @ v.conj().T
    diagonal = np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, dim)))
    reversal = [int(format(k, f"0{n}b")[::-1], 2) for k in range(dim)]
    toffoli = list(range(dim - 2)) + [dim - 1, dim - 2]
    parity = np.array([(-1) ** bin(k).count("1") for k in idx])
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    h_all = np.ones((1, 1), dtype=complex)
    for _ in range(n):
        h_all = np.kron(h_all, hadamard)
    return [
        kron,
        diagonal,
        near_identity,
        np.eye(dim, dtype=complex),
        -np.eye(dim, dtype=complex),
        np.exp(2j * np.pi * np.outer(idx, idx) / dim) / np.sqrt(dim),
        _permutation(reversal),
        _permutation(toffoli),
        _permutation([(k + 1) % dim for k in idx]),
        h_all,
        np.diag(np.exp(-1j * np.pi / 3 * parity)),
    ]


def warmup_target(work: Workload, seed: int) -> np.ndarray:
    return haar(2 ** work.n, np.random.default_rng([seed, work.n, 0]))


def timed_targets(work: Workload, seed: int) -> Iterator[tuple[int, np.ndarray]]:
    """Endless ``(input_id, matrix)`` stream; equal ids mean equal inputs."""
    rng = np.random.default_rng([seed, work.n, 1])
    if work.structured:
        panel = structured_panel(work.n, rng)
        k = 0
        while True:
            yield k % PANEL_SIZE, panel[k % PANEL_SIZE]
            k += 1
    k = 0
    while True:
        yield k, haar(2 ** work.n, rng)
        k += 1


def matrix_json(m: np.ndarray) -> dict:
    """The ``{"dim", "re", "im"}`` matrix file format."""
    return {"dim": m.shape[0], "re": m.real.tolist(), "im": m.imag.tolist()}
