"""Invariant suites behind ``kakpulse selftest`` and the acceptance tests.

Each suite holds one of the constructive claims the factorization rests
on against an independent computation and returns ``(ok, detail)``:
``detail`` names the first failing case, or summarizes what passed.
Seeds are fixed, so every run checks the same samples.  :data:`SUITES`
lists them in the order the command runs them.
"""

from __future__ import annotations

import math

import numpy as np

from .gates import (ChainSpec, CouplingEvolution, Delay, GlobalPhase,
                    LocalRotation)
from .kak import _canonical_products, _two_spin_stack, decompose, euler_xzx
from .linalg import expm_skew, haar_unitary, su2_rotation
from .paulis import (
    CartanFamily,
    PauliString,
    Subspace,
    basis_strings,
    block_cartan_strings,
    block_diagonal_dimension,
    commutator,
    commutes,
    is_maximal_abelian,
    maximal_abelian_strings,
    multiply,
    outer_cartan_strings,
    subspace_tag,
)
from .pulses import flatten, synthesize_pulses, total_coupling_time
from .simulate import distance, gate_list_unitary, pulse_program_unitary


def _suite_commutation() -> tuple[bool, str]:
    """Products and commutators against dense matrix algebra, then the
    closure relations of both splitting levels.

    Level one separates block-diagonal strings (k) from mixing strings
    (m) and must satisfy [k,k] in k, [m,k] in m, [m,m] in k.  Level two
    splits the block sector into trailing-1 strings (the sub-chain
    algebra) and trailing-Z strings, with the same three relations; the
    lone last-spin Z generates a central phase and sits outside both.
    """
    one = list("1XYZ")
    two = [a + b for a in one for b in one]
    pairs = [(wa, wb) for words in (one, two) for wa in words for wb in words]
    rng = np.random.default_rng(2024)
    three = [s.letters for s in basis_strings(3)]
    for _ in range(200):
        pairs.append((three[rng.integers(len(three))],
                      three[rng.integers(len(three))]))
    for wa, wb in pairs:
        a, b = PauliString(wa), PauliString(wb)
        ma, mb = a.to_matrix(), b.to_matrix()
        prod = multiply(a, b)
        if np.max(np.abs(ma @ mb - prod.to_matrix())) > 1e-12:
            return False, f"product {wa} * {wb} disagrees with dense algebra"
        comm = commutator(a, b)
        dense = ma @ mb - mb @ ma
        want = comm.to_matrix() if comm is not None else np.zeros_like(dense)
        if np.max(np.abs(dense - want)) > 1e-12:
            return False, f"commutator [{wa}, {wb}] disagrees with dense algebra"
        if commutes(a, b) != (np.max(np.abs(dense)) < 1e-12):
            return False, f"commutes({wa}, {wb}) disagrees with dense algebra"

    closed = 0
    for n in (2, 3, 4):
        strings = basis_strings(n)
        k = [s for s in strings if subspace_tag(s).is_block_diagonal]
        m = [s for s in strings if subspace_tag(s) is Subspace.MIXING]
        plain = [s for s in k if subspace_tag(s) is Subspace.BLOCK_PLAIN]
        zside = [s for s in k if subspace_tag(s) is Subspace.BLOCK_Z]
        if len(k) + len(m) != len(strings) or len(plain) + len(zside) + 1 != len(k):
            return False, f"subspace tags do not partition the basis at n={n}"
        # Each level is a Z2 grading: the commutator of two strings lies
        # in the even part when their parities agree, else in the odd part.
        for level, even, odd in ((1, k, m), (2, plain, zside)):
            parts = (set(even), set(odd))
            for left, right in ((even, even), (odd, even), (odd, odd)):
                want = parts[(left is odd) != (right is odd)]
                for x in left:
                    for y in right:
                        c = commutator(x, y)
                        closed += 1
                        if c is not None and c.string not in want:
                            return False, (f"[{x}, {y}] -> {c.string} breaks "
                                           f"the level-{level} split")
    return True, (f"{len(pairs)} string pairs against dense matrices; "
                  f"{closed} commutators close both levels, n=2..4")


def _suite_ortho() -> tuple[bool, str]:
    """Trace orthogonality of the realized basis."""
    total = 0
    for n in (2, 3):
        strings = basis_strings(n)
        mats = np.array([s.to_matrix() for s in strings])
        want = 2.0 ** (n - 2) * np.eye(len(strings))
        traces = np.abs(np.einsum("aii->a", mats))
        if np.max(traces) > 1e-12:
            return False, f"{strings[int(np.argmax(traces))]} is not traceless"
        gram = np.einsum("aij,bji->ab", mats, mats)
        i, j = np.unravel_index(np.argmax(np.abs(gram - want)), gram.shape)
        if abs(gram[i, j] - want[i, j]) > 1e-12:
            return False, (f"tr(B_{strings[i]} B_{strings[j]}) = {gram[i, j]:.3g}, "
                           f"expected {want[i, j]:g}")
        total += gram.size
    return True, f"{total} trace products at the 2**(n-2) normalization"


def _suite_families() -> tuple[bool, str]:
    """Cardinalities, tags, commutation and maximality of the generator sets."""
    for n in range(2, 7):
        a = outer_cartan_strings(n)
        b = block_cartan_strings(n)
        s = maximal_abelian_strings(n)
        if (len(a), len(b), len(s)) != (2 ** (n - 1), 2 ** (n - 1) - 1, 2 ** n - 1):
            return False, f"cardinalities off at n={n}: {len(a)}, {len(b)}, {len(s)}"
        for fam in (a, b, s):
            for i, x in enumerate(fam):
                for y in fam[i + 1:]:
                    if not commutes(x, y):
                        return False, f"{x} and {y} do not commute (n={n})"
        if any(subspace_tag(x) is not Subspace.MIXING for x in a):
            return False, f"a({n}) contains a non-mixing string"
        if any(subspace_tag(x) is not Subspace.BLOCK_Z for x in b):
            return False, f"b({n}) contains a string outside the block-Z sector"
    for n in (2, 3, 4):
        if not is_maximal_abelian(outer_cartan_strings(n), n, Subspace.MIXING):
            return False, f"a({n}) is not maximal in the mixing sector"
        if not is_maximal_abelian(CartanFamily.OUTER_X.strings(n), n,
                                  Subspace.MIXING):
            return False, f"outer_x({n}) is not maximal in the mixing sector"
        if not is_maximal_abelian(block_cartan_strings(n), n, Subspace.BLOCK_Z):
            return False, f"b({n}) is not maximal in the block-Z sector"
        count = sum(subspace_tag(x).is_block_diagonal for x in basis_strings(n))
        if count != block_diagonal_dimension(n) or count != 2 * 4 ** (n - 1) - 1:
            return False, f"block-diagonal count {count} wrong at n={n}"
    return True, ("families n=2..6; maximality (the emitted outer_x family "
                  "too) and sector counts n=2..4")


def _spin_product(word: str) -> np.ndarray:
    """Literal spin-operator product: one factor sigma/2 per active site."""
    s = PauliString(word)
    return s.to_matrix() / 2.0 ** (max(s.weight, 1) - 1)


def _suite_identities() -> tuple[bool, str]:
    """Three-spin conjugation identities moving a coupling along the chain:
    ``C exp(-i pi alpha sigma_P) C^dag = exp(-i pi alpha sigma_Q)``."""
    pi = math.pi
    conjugators = (
        (expm_skew(_spin_product("XY1"), pi), "1ZZ", "XXZ"),
        (expm_skew(_spin_product("Z11"), pi / 2) @ expm_skew(_spin_product("1Z1"), pi / 2),
         "XXZ", "YYZ"),
        (expm_skew(_spin_product("Y11"), pi / 2) @ expm_skew(_spin_product("1Y1"), pi / 2),
         "XXZ", "ZZZ"),
    )
    worst = 0.0
    for alpha in (0.25, 1.0 / 3.0, 0.7):
        for c, p, q in conjugators:
            lhs = c @ expm_skew(PauliString(p).to_matrix(), pi * alpha) @ c.conj().T
            rhs = expm_skew(PauliString(q).to_matrix(), pi * alpha)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    if worst >= 1e-12:
        return False, f"conjugation identity residual {worst:.3e} >= 1e-12"
    return True, f"three identities at three angles, worst residual {worst:.1e}"


def _suite_refocus() -> tuple[bool, str]:
    """Echoed delays activate exactly the couplings they run on an
    always-on chain, and the Pauli frame carries the flips from delay to
    delay.  Single blocks: every pair of 3- to 5-spin 100 Hz chains at
    four angles, plus an unequal-J chain and an 80 Hz chain.  Then one
    twelve-block sequence on each of those five chains, cycling over the
    pairs with mixed signs and angles above 2 pi, with y and z rotations
    between the blocks.  Then shared delays: two pairs at different
    angles on 5 spins; overlapping windows on an unequal 5-spin chain,
    with z rotations inside them; and every pair of a 3-spin chain at
    once, which must be one delay with no refocusing pulse."""
    chains = [ChainSpec.uniform(n, 100.0) for n in (3, 4, 5)]
    chains += [ChainSpec(3, (100.0, 140.0)), ChainSpec.uniform(4, 80.0)]
    cases = [(f"pair {left} at angle {theta:g}", spec,
              [CouplingEvolution(left, theta)])
             for spec in chains[:3] for left in range(1, spec.n)
             for theta in (0.1, math.pi / 2, math.pi, 3.9)]
    cases += [("pair 2 at angle 0.1", chains[3], [CouplingEvolution(2, 0.1)]),
              ("pair 2 at angle 3.9", chains[4], [CouplingEvolution(2, 3.9)])]
    singles = len(cases)
    angles = (0.1, -math.pi / 2, 2 * math.pi + 0.4, -3.9, math.pi,
              -2 * math.pi - 1.1)
    for spec in chains:
        gates = []
        for k in range(12):
            gates += [CouplingEvolution(1 + k % (spec.n - 1), angles[k % 6]),
                      LocalRotation(1 + k % spec.n, "yz"[k % 2], 0.3 + 0.2 * k)]
        cases.append(("12-block sequence", spec, gates))
    cases += [
        ("two pairs at once", chains[2],
         [CouplingEvolution(1, 0.7), CouplingEvolution(3, -1.9)]),
        ("overlapping windows", ChainSpec(5, (100.0, 140.0, 90.0, 120.0)),
         [CouplingEvolution(1, 2.5), CouplingEvolution(2, 0.8),
          LocalRotation(2, "z", 0.4), LocalRotation(3, "x", 0.3),
          LocalRotation(3, "z", -0.7), CouplingEvolution(3, -1.2),
          CouplingEvolution(4, 0.5)]),
    ]
    every_pair = [CouplingEvolution(1, 0.9), CouplingEvolution(2, -0.9)]
    cases.append(("every pair at once", chains[0], every_pair))
    worst = 0.0
    for what, spec, gates in cases:
        program = synthesize_pulses(gates, spec)
        got = pulse_program_unitary(program)
        resid = float(np.max(np.abs(got - gate_list_unitary(gates, spec.n))))
        if resid >= 1e-10:
            return False, (f"{what} on chain J={spec.couplings}: residual "
                           f"{resid:.3e} >= 1e-10")
        worst = max(worst, resid)
        delays = sum(isinstance(e, Delay) for e in program.events)
        if gates is every_pair and delays != 1:
            return False, (f"{what} on chain J={spec.couplings}: {delays} "
                           f"delays, not one unrefocused delay")
    return True, (f"{singles} single-coupling blocks, {len(chains)} "
                  f"twelve-block sequences and 3 shared-delay programs, "
                  f"worst residual {worst:.1e}")


def _suite_euler() -> tuple[bool, str]:
    """Single-spin closed-form factorization on Haar samples, rebuilt from
    its angles by independent rotations."""
    rng = np.random.default_rng(271828)
    two_pi = 2 * math.pi
    worst = 0.0
    for k in range(1000):
        u = haar_unitary(2, rng, special=True)
        alpha, beta, gamma = euler_xzx(u)
        if not (0 <= alpha < two_pi and 0 <= gamma < two_pi and 0 <= beta < 2 * two_pi):
            return False, f"angles out of range on sample {k}"
        recon = su2_rotation("x", alpha) @ su2_rotation("z", beta) \
            @ su2_rotation("x", gamma)
        worst = max(worst, float(np.max(np.abs(recon - u))))
    if worst >= 1e-12:
        return False, f"Euler reconstruction residual {worst:.3e} >= 1e-12"
    return True, f"1000 Haar samples, worst reconstruction {worst:.1e}"


def _suite_twospin() -> tuple[bool, str]:
    """Two-spin closed form on Haar samples: phase-free residual, canonical
    chamber, angle invariance under random single-spin dressing; and the
    CNOT class.  The samples, their dressed copies and CNOT are factored
    as three stacks of the pass :func:`~kakpulse.decompose` runs on its
    two-spin leaves."""
    rng = np.random.default_rng(314159)
    us, dressed = [], []
    for _ in range(1000):
        u = haar_unitary(4, rng)
        dress = [haar_unitary(2, rng, special=True) for _ in range(4)]
        us.append(u)
        dressed.append(np.kron(dress[0], dress[1]) @ u @ np.kron(dress[2], dress[3]))
    paths = [(f"sample {k}",) for k in range(len(us))]
    phases, l1, l2, alphas, r1, r2, _ = _two_spin_stack(np.array(us), paths)
    recon = _canonical_products(phases, l1, l2, alphas, r1, r2)
    worst_resid = max(distance(m, u).frobenius for m, u in zip(recon, us))
    for k, angles in enumerate(map(tuple, alphas.tolist())):
        a1, a2, a3 = angles
        in_chamber = (math.pi + 1e-12 >= a1 >= a2 >= abs(a3) - 1e-12
                      and (abs(a1 - math.pi) > 1e-12 or a3 >= -1e-12))
        if not in_chamber:
            return False, f"chamber violated on sample {k}: {angles}"
    shift = np.abs(_two_spin_stack(np.array(dressed), paths)[3] - alphas)
    worst_dress = float(np.max(shift))
    if worst_resid >= 1e-9:
        return False, f"two-spin residual {worst_resid:.3e} >= 1e-9"
    if worst_dress >= 1e-9:
        return False, f"local dressing moved the angles by {worst_dress:.3e}"
    cnot = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
    cnot_alphas = tuple(_two_spin_stack(cnot[None], [("CNOT",)])[3][0].tolist())
    if not np.allclose(cnot_alphas, (math.pi, 0.0, 0.0), atol=1e-9):
        return False, f"CNOT interaction class came out as {cnot_alphas}"
    return True, (f"1000 Haar samples in chamber, worst residual {worst_resid:.1e}, "
                  f"worst dressing shift {worst_dress:.1e}; CNOT at (pi, 0, 0)")


def _in_vocabulary(g, n: int) -> bool:
    """On-chain local rotation, adjacent coupling or scalar phase factor."""
    if isinstance(g, LocalRotation):
        return 1 <= g.qubit <= n and g.axis in "xyz"
    if isinstance(g, CouplingEvolution):
        return 1 <= g.left < n  # acts on the adjacent pair (left, left+1)
    return isinstance(g, GlobalPhase)


def _suite_recursive() -> tuple[bool, str]:
    """Haar targets on three and four spins factor into the gate
    vocabulary within budget."""
    worst = {3: 0.0, 4: 0.0}
    for n, budget, count, base in ((3, 1e-8, 100, 40000), (4, 4e-8, 20, 50000)):
        for seed in range(base, base + count):
            u = haar_unitary(2 ** n, seed, special=True)
            gates = flatten(decompose(u))
            bad = next((g for g in gates if not _in_vocabulary(g, n)), None)
            if bad is not None:
                return False, f"{bad!r} is outside the {n}-spin vocabulary, seed {seed}"
            resid = float(np.max(np.abs(gate_list_unitary(gates, n) - u)))
            if resid >= budget:
                return False, f"residual {resid:.3e} >= {budget:g} at n={n}, seed {seed}"
            worst[n] = max(worst[n], resid)
    return True, (f"worst residual {worst[3]:.1e} on 100 three-spin, "
                  f"{worst[4]:.1e} on 20 four-spin targets")


def _suite_endtoend() -> tuple[bool, str]:
    """Three-spin Haar targets factored, lowered onto a uniform 100 Hz
    chain and simulated under the always-on drift keep their fidelity."""
    spec = ChainSpec.uniform(3, 100.0)
    worst_fid, longest = 1.0, 0.0
    for seed in range(60000, 60020):
        u = haar_unitary(8, seed, special=True)
        program = synthesize_pulses(flatten(decompose(u)), spec)
        fid = distance(pulse_program_unitary(program), u).fidelity
        if not fid > 1 - 1e-6:
            return False, f"pulse-program fidelity {fid:.12f} <= 1 - 1e-6, seed {seed}"
        worst_fid = min(worst_fid, fid)
        longest = max(longest, total_coupling_time(program))
    return True, (f"20 pulse programs at 100 Hz, worst fidelity {worst_fid:.12f}, "
                  f"longest coupling time {longest:.3f} s")


SUITES = {
    "commutation": _suite_commutation,
    "ortho": _suite_ortho,
    "families": _suite_families,
    "identities": _suite_identities,
    "refocus": _suite_refocus,
    "euler": _suite_euler,
    "twospin": _suite_twospin,
    "recursive": _suite_recursive,
    "endtoend": _suite_endtoend,
}
