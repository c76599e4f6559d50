"""Structured-target corpus: degenerate inputs through the whole pipeline.

Haar samples have generic spectra and cosine-sine angles.  The targets
here do not: identities, permutations, diagonals, Kronecker products
and near-identity operators give repeated eigenvalues, zero or
clustered angles, and long runs of trivial factors.  For each one,
``decompose`` must keep its residual budget, and both the flattened gate
list and its pulse program on an unequal chain must simulate back to the
target.
"""

import math

import numpy as np
import pytest
import scipy.linalg

from kakpulse import (
    ChainSpec,
    decompose,
    evaluate,
    flatten,
    gate_list_unitary,
    haar_unitary,
    pulse_program_unitary,
    residual_budget,
    synthesize_pulses,
)

CHAIN_J = (120.0, 80.0, 140.0, 95.0)


def permutation(perm):
    """Unitary sending basis state ``k`` to ``perm[k]``."""
    m = np.zeros((len(perm), len(perm)), dtype=complex)
    m[perm, np.arange(len(perm))] = 1.0
    return m


def identity(n):
    return np.eye(2 ** n, dtype=complex)


def minus_identity(n):
    return -np.eye(2 ** n, dtype=complex)


def qft(n):
    dim = 2 ** n
    k = np.arange(dim)
    return np.exp(2j * math.pi * np.outer(k, k) / dim) / math.sqrt(dim)


def bit_reversal(n):
    return permutation([int(format(k, f"0{n}b")[::-1], 2) for k in range(2 ** n)])


def toffoli_like(n):
    """NOT on the last spin, controlled by all the others (X when n = 1)."""
    perm = list(range(2 ** n))
    perm[-2], perm[-1] = perm[-1], perm[-2]
    return permutation(perm)


def random_diagonal(n):
    rng = np.random.default_rng(300 + n)
    return np.diag(np.exp(1j * rng.uniform(-math.pi, math.pi, 2 ** n)))


def hadamard_power(n):
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    out = np.ones((1, 1), dtype=complex)
    for _ in range(n):
        out = np.kron(out, h)
    return out


def kronecker_product(n):
    out = np.ones((1, 1), dtype=complex)
    for k in range(n):
        out = np.kron(out, haar_unitary(2, 400 + 10 * n + k))
    return out


def near_identity(n):
    rng = np.random.default_rng(500 + n)
    g = rng.standard_normal((2 ** n, 2 ** n)) + 1j * rng.standard_normal((2 ** n, 2 ** n))
    return scipy.linalg.expm(-1e-9j * (g + g.conj().T) / 2)


TARGETS = (identity, minus_identity, qft, bit_reversal, toffoli_like,
           random_diagonal, hadamard_power, kronecker_product, near_identity)


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("target", TARGETS, ids=lambda f: f.__name__)
def test_structured_target_round_trip(target, n):
    u = target(n)
    assert np.allclose(u.conj().T @ u, np.eye(2 ** n), atol=1e-12)
    tree = decompose(u)
    assert np.max(np.abs(evaluate(tree, n) - u)) < residual_budget(n)
    gates = flatten(tree)
    assert np.max(np.abs(gate_list_unitary(gates, n) - u)) < 1e-9
    program = synthesize_pulses(gates, ChainSpec(n, CHAIN_J[:n - 1]))
    assert np.max(np.abs(pulse_program_unitary(program) - u)) < 1e-9
