"""Command-line surface for the factorization pipeline.

Subcommands
-----------
``random``     write a seeded Haar-random special unitary to a matrix file
``decompose``  factor a matrix file into a gate tree plus flat gate list
``pulses``     lower a gate list onto a coupling chain as a pulse program
``verify``     simulate an artifact and compare it against a target matrix
``selftest``   run the built-in invariant suites

Exit codes are a stable contract: 0 success; 1 verification or
self-test failure; 2 I/O failure; 3 validation failure (bad inputs);
4 numeric failure (a routine missed its accuracy budget).

All artifacts are JSON.  Files are written with sorted keys and no
incidental whitespace, so identical inputs produce byte-identical
outputs; human-readable summaries go to standard output only.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import paulis
from .errors import NumericError, ValidationError
from .gates import (
    CouplingEvolution,
    GlobalPhase,
    LocalRotation,
    gate_list_from_json,
    gate_list_spin_bound,
    gate_list_to_json,
)
from .kak import (
    decompose,
    euler_xzx,
    flatten,
    interaction_class,
    residual_budget,
    tree_to_json_dict,
    two_spin_factors,
)
from .linalg import (
    check_unitary,
    expm_skew,
    haar_unitary,
    matrix_from_json_dict,
    matrix_to_json_dict,
    spin_count,
)
from .paulis import (
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
from .pulses import ChainSpec, PulseProgram, pulse_count, synthesize_pulses, total_coupling_time
from .simulate import distance, gate_list_unitary, pulse_program_unitary


# ---------------------------------------------------------------------------
# Artifact I/O


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_json(path: str, obj) -> None:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _load_matrix(path: str, *, check: bool) -> np.ndarray:
    u = matrix_from_json_dict(_read_json(path))
    if check:
        check_unitary(u, what=f"matrix file {path}")
    return u


def _gates_from_artifact(data) -> list:
    """Accept either a bare gate-list array or a ``decompose`` output."""
    if isinstance(data, dict) and "gates" in data:
        data = data["gates"]
    if not isinstance(data, list):
        raise ValidationError(
            "expected a gate-list array or an object with a 'gates' field")
    return gate_list_from_json(data)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_random(n: int, seed: int, out_path: str) -> int:
    if not 1 <= n <= paulis.MAX_SPINS:
        raise ValidationError(f"--n must be in [1, {paulis.MAX_SPINS}], got {n}")
    u = haar_unitary(2 ** n, seed, special=True)
    _write_json(out_path, matrix_to_json_dict(u))
    print(f"wrote {out_path}: {2 ** n}x{2 ** n} special unitary, seed {seed}")
    return 0


def cmd_decompose(input_path: str, out_path: str, n: int | None = None,
                  tol: float | None = None, check: bool = True) -> int:
    u = _load_matrix(input_path, check=check)
    spins = spin_count(u.shape[0])
    if n is not None and n != spins:
        raise ValidationError(
            f"--n {n} does not match the {spins}-spin input matrix")
    budget = residual_budget(spins) if tol is None else tol
    if budget <= 0:
        raise ValidationError(f"--tol must be positive, got {budget}")
    tree = decompose(u)
    gates = flatten(tree)
    recon = gate_list_unitary(gates, spins)
    resid = float(np.max(np.abs(recon - u)))
    _write_json(out_path, {
        "n": spins,
        "residual": resid,
        "tree": tree_to_json_dict(tree),
        "gates": gate_list_to_json(gates),
    })
    n_local = sum(isinstance(g, LocalRotation) for g in gates)
    n_zz = sum(isinstance(g, CouplingEvolution) for g in gates)
    n_phase = sum(isinstance(g, GlobalPhase) for g in gates)
    print(f"reconstruction residual {resid:.3e} (budget {budget:.3e})")
    print(f"{n_local} local rotations, {n_zz} coupling evolutions, "
          f"{n_phase} phase factors")
    if resid >= budget:
        print("residual exceeds budget", file=sys.stderr)
        return 4
    return 0


def cmd_pulses(input_path: str, out_path: str, chain: str | None = None,
               n: int | None = None) -> int:
    gates = _gates_from_artifact(_read_json(input_path))
    bound = gate_list_spin_bound(gates)
    if chain is not None:
        try:
            js = tuple(float(x) for x in chain.split(","))
        except ValueError as exc:
            raise ValidationError(f"bad --chain value: {exc}") from exc
        spins = len(js) + 1
        if n is not None and n != spins:
            raise ValidationError(
                f"--n {n} disagrees with --chain listing {len(js)} couplings")
        spec = ChainSpec(spins, js)
    else:
        spins = n if n is not None else max(bound, 1)
        spec = ChainSpec.uniform(spins, 100.0)
    if bound > spec.n:
        raise ValidationError(
            f"gate list touches spin {bound} but the chain has {spec.n}")
    program = synthesize_pulses(gates, spec)
    _write_json(out_path, program.to_json_dict())
    t = total_coupling_time(program)
    print(f"total coupling time {t:.9f} s")
    print(f"{pulse_count(program)} pulses, {len(program.events)} events, "
          f"{spec.n}-spin chain")
    return 0


def _realize_artifact(data, n: int, *, check: bool) -> np.ndarray:
    """Simulate whatever artifact ``data`` holds into an ``n``-spin unitary."""
    if isinstance(data, dict) and "events" in data:
        program = PulseProgram.from_json_dict(data)
        return pulse_program_unitary(program)
    if isinstance(data, dict) and "re" in data:
        u = matrix_from_json_dict(data)
        if check:
            check_unitary(u, what="artifact matrix")
        return u
    gates = _gates_from_artifact(data)
    return gate_list_unitary(gates, n)


def cmd_verify(program_path: str, target_path: str, tol: float = 1e-6,
               check: bool = True, report_path: str | None = None) -> int:
    if tol <= 0:
        raise ValidationError(f"--tol must be positive, got {tol}")
    target = _load_matrix(target_path, check=check)
    n = spin_count(target.shape[0])
    u = _realize_artifact(_read_json(program_path), n, check=check)
    report = distance(u, target)
    print(report)
    if report_path is not None:
        _write_json(report_path, report.to_json_dict())
    if report.frobenius < tol:
        print(f"PASS (distance {report.frobenius:.3e} < {tol:.3e})")
        return 0
    print(f"FAIL (distance {report.frobenius:.3e} >= {tol:.3e})")
    return 1


# ---------------------------------------------------------------------------
# Self-test suites.  Each returns (ok, detail); all use fixed seeds so the
# command is deterministic.


def _dense(term) -> np.ndarray:
    return term.coeff * term.string.to_matrix()


def _suite_commutation() -> tuple[bool, str]:
    """Products and commutators against dense matrix algebra."""
    letters = "1XYZ"
    words = [(1, a) for a in letters]
    words += [(2, a + b) for a in letters for b in letters]
    checked = 0
    pairs = [(wa, wb) for na, wa in words for nb, wb in words if na == nb]
    rng = np.random.default_rng(2024)
    three = [s.letters for s in basis_strings(3)]
    for _ in range(200):
        pairs.append((three[rng.integers(len(three))],
                      three[rng.integers(len(three))]))
    for wa, wb in pairs:
        a, b = PauliString(wa), PauliString(wb)
        ma, mb = a.to_matrix(), b.to_matrix()
        prod = multiply(a, b)
        if np.max(np.abs(ma @ mb - _dense(prod))) > 1e-12:
            return False, f"product {wa} * {wb} disagrees with dense algebra"
        comm = commutator(a, b)
        dense = ma @ mb - mb @ ma
        want = _dense(comm) if comm is not None else np.zeros_like(dense)
        if np.max(np.abs(dense - want)) > 1e-12:
            return False, f"commutator [{wa}, {wb}] disagrees with dense algebra"
        if commutes(a, b) != (np.max(np.abs(dense)) < 1e-12):
            return False, f"commutes({wa}, {wb}) disagrees with dense algebra"
        checked += 1
    return True, f"{checked} string pairs against dense matrices"


def _suite_ortho() -> tuple[bool, str]:
    """Trace orthogonality of the realized basis."""
    total = 0
    for n in (2, 3):
        strings = basis_strings(n)
        mats = [s.to_matrix() for s in strings]
        scale = 2.0 ** (n - 2)
        for i, mi in enumerate(mats):
            if abs(np.trace(mi)) > 1e-12:
                return False, f"{strings[i]} is not traceless"
            for j, mj in enumerate(mats):
                want = scale if i == j else 0.0
                got = np.trace(mi @ mj)
                if abs(got - want) > 1e-12:
                    return False, (f"tr(B_{strings[i]} B_{strings[j]}) = {got:.3g}, "
                                   f"expected {want:g}")
                total += 1
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
    for n in (2, 3):
        if not is_maximal_abelian(outer_cartan_strings(n), n, Subspace.MIXING):
            return False, f"a({n}) is not maximal in the mixing sector"
        if not is_maximal_abelian(block_cartan_strings(n), n, Subspace.BLOCK_Z):
            return False, f"b({n}) is not maximal in the block-Z sector"
    for n in (2, 3, 4):
        count = sum(subspace_tag(x).is_block_diagonal for x in basis_strings(n))
        if count != block_diagonal_dimension(n) or count != 2 * 4 ** (n - 1) - 1:
            return False, f"block-diagonal count {count} wrong at n={n}"
    return True, "families n=2..6; maximality n=2,3; sector counts n=2..4"


def _lit(word: str) -> np.ndarray:
    """Literal spin-operator product: one factor sigma/2 per active site."""
    s = PauliString(word)
    return s.to_matrix() / 2.0 ** (max(s.weight, 1) - 1)


def _suite_identities() -> tuple[bool, str]:
    """Three-spin conjugation identities moving a coupling along the chain."""
    worst = 0.0
    for alpha in (0.25, 1.0 / 3.0, 0.7):
        pi = math.pi
        c1 = expm_skew(_lit("XY1"), pi)
        lhs = c1 @ expm_skew(PauliString("1ZZ").to_matrix(), pi * alpha) @ c1.conj().T
        rhs = expm_skew(PauliString("XXZ").to_matrix(), pi * alpha)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))

        c2 = expm_skew(_lit("Z11"), pi / 2) @ expm_skew(_lit("1Z1"), pi / 2)
        lhs = c2 @ expm_skew(PauliString("XXZ").to_matrix(), pi * alpha) @ c2.conj().T
        rhs = expm_skew(PauliString("YYZ").to_matrix(), pi * alpha)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))

        c3 = expm_skew(_lit("Y11"), pi / 2) @ expm_skew(_lit("1Y1"), pi / 2)
        lhs = c3 @ expm_skew(PauliString("XXZ").to_matrix(), pi * alpha) @ c3.conj().T
        rhs = expm_skew(PauliString("ZZZ").to_matrix(), pi * alpha)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    if worst > 1e-12:
        return False, f"conjugation identity residual {worst:.3e} > 1e-12"
    return True, f"three identities at three angles, worst residual {worst:.1e}"


def _suite_refocus() -> tuple[bool, str]:
    """Echoed delays activate exactly one coupling of an always-on chain."""
    cases = [
        (ChainSpec.uniform(3, 100.0), 1, math.pi / 2),
        (ChainSpec(3, (100.0, 140.0)), 2, 0.1),
        (ChainSpec.uniform(4, 80.0), 2, 3.9),
        (ChainSpec.uniform(5, 100.0), 3, math.pi),
    ]
    worst = 0.0
    for spec, left, theta in cases:
        gates = [CouplingEvolution(left, theta)]
        program = synthesize_pulses(gates, spec)
        got = pulse_program_unitary(program)
        want = gate_list_unitary(gates, spec.n)
        worst = max(worst, float(np.max(np.abs(got - want))))
    if worst > 1e-10:
        return False, f"refocused block residual {worst:.3e} > 1e-10"
    return True, f"{len(cases)} single-coupling blocks, worst residual {worst:.1e}"


def _suite_euler() -> tuple[bool, str]:
    """Single-spin closed-form factorization on Haar samples."""
    rng = np.random.default_rng(7)
    two_pi = 2 * math.pi
    for k in range(200):
        u = haar_unitary(2, rng, special=True)
        alpha, beta, gamma = euler_xzx(u)  # raises above 1e-12 residual
        if not (0 <= alpha < two_pi and 0 <= gamma < two_pi and 0 <= beta < 2 * two_pi):
            return False, f"angles out of range on sample {k}"
    return True, "200 Haar samples reconstructed to 1e-12"


def _suite_twospin() -> tuple[bool, str]:
    """Two-spin factorization: residual, chamber, and the CNOT class."""
    rng = np.random.default_rng(11)
    for k in range(150):
        u = haar_unitary(4, rng)
        f = two_spin_factors(u)  # verifies to 1e-10 and canonicalizes
        a1, a2, a3 = f.alphas
        ok = math.pi + 1e-12 >= a1 >= a2 >= abs(a3) - 1e-12
        if not ok:
            return False, f"chamber violated on sample {k}: {f.alphas}"
    cnot = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
    alphas = interaction_class(cnot)
    if not np.allclose(alphas, (math.pi, 0.0, 0.0), atol=1e-9):
        return False, f"CNOT interaction class came out as {alphas}"
    return True, "150 Haar samples in chamber; CNOT at (pi, 0, 0)"


def _suite_recursive() -> tuple[bool, str]:
    """Full pipeline on 3- and 4-spin Haar targets."""
    for n, budget, count in ((3, 1e-8, 5), (4, 4e-8, 2)):
        for seed in range(count):
            u = haar_unitary(2 ** n, 1000 * n + seed, special=True)
            gates = flatten(decompose(u))
            for g in gates:
                if isinstance(g, CouplingEvolution) and not 1 <= g.left < n:
                    return False, f"coupling off the chain at n={n}"
            resid = float(np.max(np.abs(gate_list_unitary(gates, n) - u)))
            if resid > budget:
                return False, f"residual {resid:.3e} > {budget:g} at n={n}, seed {seed}"
    return True, "5 three-spin and 2 four-spin targets within budget"


_SUITES = {
    "commutation": _suite_commutation,
    "ortho": _suite_ortho,
    "families": _suite_families,
    "identities": _suite_identities,
    "refocus": _suite_refocus,
    "euler": _suite_euler,
    "twospin": _suite_twospin,
    "recursive": _suite_recursive,
}


def cmd_selftest(suite: str | None = None) -> int:
    if suite is not None and suite not in _SUITES:
        raise ValidationError(
            f"unknown suite {suite!r}; choose from {', '.join(_SUITES)}")
    names = [suite] if suite is not None else list(_SUITES)
    failed = []
    for name in names:
        try:
            ok, detail = _SUITES[name]()
        except Exception as exc:  # a broken invariant may surface as a raise
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        print(f"{name:<12} {'pass' if ok else 'FAIL'}  {detail}")
        if not ok:
            failed.append(name)
    if failed:
        print(f"self-test FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    print(f"self-test passed ({len(names)} suites)")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kakpulse",
        description="Factor unitaries into local rotations plus nearest-"
                    "neighbour couplings and lower them to pulse programs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("random", help="write a seeded Haar-random special unitary")
    p.add_argument("--n", type=int, required=True, help="number of spins")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True, help="matrix file to write")

    p = sub.add_parser("decompose", help="factor a matrix file into gates")
    p.add_argument("--input", required=True, help="matrix file to factor")
    p.add_argument("--output", required=True, help="tree + gate-list file to write")
    p.add_argument("--n", type=int, help="expected spin count (checked)")
    p.add_argument("--tol", type=float, help="residual budget override")
    p.add_argument("--no-check", action="store_true",
                   help="skip the reader-level unitarity check")

    p = sub.add_parser("pulses", help="lower a gate list onto a coupling chain")
    p.add_argument("--input", required=True,
                   help="gate-list file (or decompose output)")
    p.add_argument("--output", required=True, help="pulse-program file to write")
    p.add_argument("--chain", help="comma-separated J values in Hz, one per "
                                   "adjacent pair (default: uniform 100 Hz)")
    p.add_argument("--n", type=int, help="chain length when --chain is omitted")

    p = sub.add_parser("verify", help="simulate an artifact against a target")
    p.add_argument("program", help="pulse-program, gate-list, or matrix file")
    p.add_argument("target", help="target matrix file")
    p.add_argument("--tol", type=float, default=1e-6,
                   help="phase-invariant distance bound (default 1e-6)")
    p.add_argument("--output", help="optional report file")
    p.add_argument("--no-check", action="store_true",
                   help="skip unitarity checks on file inputs")

    p = sub.add_parser("selftest", help="run the built-in invariant suites")
    p.add_argument("--suite", help=f"run one suite: {', '.join(_SUITES)}")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "random":
            return cmd_random(args.n, args.seed, args.output)
        if args.command == "decompose":
            return cmd_decompose(args.input, args.output, n=args.n,
                                 tol=args.tol, check=not args.no_check)
        if args.command == "pulses":
            return cmd_pulses(args.input, args.output, chain=args.chain,
                              n=args.n)
        if args.command == "verify":
            return cmd_verify(args.program, args.target, tol=args.tol,
                              check=not args.no_check,
                              report_path=args.output)
        return cmd_selftest(suite=args.suite)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except json.JSONDecodeError as exc:
        print(f"unreadable artifact: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
