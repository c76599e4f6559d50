"""Command-line surface for the factorization pipeline.

Subcommands
-----------
``random``     write a seeded Haar-random special unitary to a matrix file
``decompose``  factor a matrix file into a gate tree plus flat gate list
``pulses``     lower a gate list onto a coupling chain as a pulse program
``verify``     simulate an artifact and compare it against a target matrix
``selftest``   run the invariant suites of :mod:`kakpulse.selftest`

Exit codes are a stable contract: 0 success; 1 verification or
self-test failure; 2 I/O failure; 3 validation failure (bad inputs,
including a chain longer than :data:`MAX_CLI_SPINS`); 4 numeric failure
(a routine missed its accuracy budget).  ``decompose --tol`` and
``verify --tol`` must be positive and finite.

All artifacts are JSON.  Files are written with sorted keys and no
incidental whitespace, so identical inputs produce byte-identical
outputs; human-readable summaries go to standard output only.  The two
compile artifacts, ``decompose``'s tree and gate list and ``pulses``'
program, are written as that text straight from their objects
(:func:`~kakpulse.kak.tree_to_json_text`,
:func:`~kakpulse.gates.gate_list_to_json_text`,
:meth:`~kakpulse.gates.PulseProgram.to_json_text`), which define their
keys.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .errors import DimensionError, NumericError, ValidationError, _json_int
from .gates import (
    ChainSpec,
    PulseProgram,
    gate_list_from_json,
    gate_list_spin_bound,
    gate_list_to_json_text,
)
from .kak import decompose, residual_budget, tree_to_json_text
from .linalg import (
    check_unitary,
    haar_unitary,
    matrix_from_json_dict,
    matrix_to_json_dict,
    spin_count,
)
from .pulses import flatten, pulse_count, synthesize_pulses, total_coupling_time
from .selftest import SUITES
from .simulate import distance, gate_list_unitary, pulse_program_unitary


# Longest chain any subcommand accepts.  Measured round trips through
# this CLI (`random --seed 100+n`, one BLAS thread, 2-core x86-64
# machine under load, one process per command, three runs): at 7 spins
# decompose / pulses / verify of the program take 1.4-1.9 / 0.87-0.92 /
# 1.2-1.6 s; at 8 spins 5.2-6.0 / 2.5-3.0 / 4.9-5.9 s, with 18 MB and
# 27 MB artifacts and at most 199 MB resident (verify; decompose 143 MB,
# pulses 192 MB).
# Larger inputs are rejected with exit 3 before any matrix is built or
# any factorization starts.
MAX_CLI_SPINS = 8


def _check_spins(n: int, what: str) -> None:
    if n > MAX_CLI_SPINS:
        raise ValidationError(
            f"{what} has {n} spins; the command-line limit is {MAX_CLI_SPINS}")


def _check_tol(tol: float) -> None:
    """Reject a bound nothing can be judged against: every comparison with
    ``nan`` is false, and ``inf`` passes any residual or distance."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValidationError(f"--tol must be positive and finite, got {tol}")


# ---------------------------------------------------------------------------
# Artifact I/O


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (RecursionError, UnicodeDecodeError) as exc:
            # arrays or objects nested deeper than the parser can recurse,
            # and bytes that are not UTF-8, make an unreadable artifact
            raise json.JSONDecodeError(str(exc), "", 0) from exc


def _write_text(path: str, *parts: str) -> None:
    """Write the concatenated ``parts`` and a closing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(parts)
        fh.write("\n")


def _write_json(path: str, obj) -> None:
    _write_text(path, json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _matrix_from_artifact(data, what: str) -> np.ndarray:
    """Convert a matrix object once its declared ``dim`` is within
    :data:`MAX_CLI_SPINS`, so an oversized file builds no array."""
    try:
        dim = _json_int(data["dim"], "matrix dim")
    except (KeyError, TypeError, ValueError):
        dim = 0  # malformed; matrix_from_json_dict says how
    _check_spins(dim.bit_length() - 1, f"{what} ({dim}x{dim})")
    return matrix_from_json_dict(data)


def _load_matrix(path: str, *, check: bool) -> np.ndarray:
    u = _matrix_from_artifact(_read_json(path), f"matrix file {path}")
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
    if n < 1:
        raise ValidationError(f"--n must be at least 1, got {n}")
    _check_spins(n, "--n")
    u = haar_unitary(2 ** n, seed, special=True)
    _write_json(out_path, matrix_to_json_dict(u))
    print(f"wrote {out_path}: {2 ** n}x{2 ** n} special unitary, seed {seed}")
    return 0


def cmd_decompose(input_path: str, out_path: str, n: int | None = None,
                  tol: float | None = None) -> int:
    if tol is not None:
        _check_tol(tol)
    u = _load_matrix(input_path, check=True)
    spins = spin_count(u.shape[0])
    if n is not None and n != spins:
        raise ValidationError(
            f"--n {n} does not match the {spins}-spin input matrix")
    budget = residual_budget(spins) if tol is None else tol
    tree = decompose(u)
    gates = flatten(tree)
    recon = gate_list_unitary(gates, spins)
    resid = float(np.max(np.abs(recon - u)))
    # nothing checks the residual for being finite: json spells nan NaN
    _write_text(out_path, '{"gates":', gate_list_to_json_text(gates),
                f',"n":{spins},"residual":{json.dumps(resid)},"tree":',
                tree_to_json_text(tree), "}")
    kinds = gates.kinds
    n_pi = sum(kind == "zz" and abs(angle) == math.pi
               for kind, angle in zip(kinds, gates.values))
    n_local, n_zz, n_phase = map(kinds.count, ("local", "zz", "phase"))
    print(f"reconstruction residual {resid:.3e} (budget {budget:.3e})")
    print(f"{n_local} local rotations, {n_zz} coupling evolutions "
          f"({n_pi} at angle pi), {n_phase} phase factors")
    if not resid < budget:  # a nan residual fails too
        print("residual exceeds budget", file=sys.stderr)
        return 4
    return 0


def _artifact_spins(data, gates) -> int:
    """The length of the default chain for a gate artifact: the ``n`` of
    a ``decompose`` output, whose target may idle on its last spins, and
    else the largest spin the gates touch (at least one)."""
    bound = gate_list_spin_bound(gates)
    if not (isinstance(data, dict) and "n" in data):
        return max(bound, 1)
    n = _json_int(data["n"], "artifact n")
    if n < bound:
        raise ValidationError(
            f"the artifact is on {n} spins, its gates touch spin {bound}")
    return n


def cmd_pulses(input_path: str, out_path: str, chain: str | None = None,
               n: int | None = None) -> int:
    data = _read_json(input_path)
    gates = _gates_from_artifact(data)
    if chain is None and n is None:
        n = _artifact_spins(data, gates)
    del data  # let go of the parsed JSON before the lowering starts
    if chain is not None:
        try:
            js = tuple(float(x) for x in chain.split(","))
        except ValueError as exc:
            raise ValidationError(f"bad --chain value: {exc}") from exc
        spins = len(js) + 1
        if n is not None and n != spins:
            raise ValidationError(
                f"--n {n} disagrees with --chain listing {len(js)} couplings")
        _check_spins(spins, "--chain")
        spec = ChainSpec(spins, js)
    else:
        _check_spins(n, "the chain")
        spec = ChainSpec.uniform(n, 100.0)
    program = synthesize_pulses(gates, spec)
    _write_text(out_path, program.to_json_text())
    t = total_coupling_time(program)
    print(f"total coupling time {t:.9f} s")
    print(f"{pulse_count(program)} pulses, {len(program.kinds)} events, "
          f"{spec.n}-spin chain")
    return 0


def _realize_artifact(path: str, n: int, *, check: bool) -> np.ndarray:
    """Simulate whatever artifact the file at ``path`` holds into an
    ``n``-spin unitary.  The parsed JSON is let go before a simulation
    starts, so the two do not add up to one memory peak, and a pulse
    program on a chain of another size is rejected before it is
    simulated."""
    data = _read_json(path)
    if isinstance(data, dict) and "events" in data:
        program = PulseProgram.from_json_dict(data)
        del data
        _check_spins(program.chain.n, "pulse-program chain")
        if program.chain.n != n:
            raise DimensionError(
                f"the pulse program runs on {program.chain.n} spins, "
                f"the target acts on {n}")
        return pulse_program_unitary(program)
    if isinstance(data, dict) and "re" in data:
        u = _matrix_from_artifact(data, "artifact matrix")
        if check:
            check_unitary(u, what="artifact matrix")
        return u
    gates = _gates_from_artifact(data)
    del data
    return gate_list_unitary(gates, n)


def cmd_verify(program_path: str, target_path: str, tol: float = 1e-6,
               check: bool = True, report_path: str | None = None) -> int:
    _check_tol(tol)
    target = _load_matrix(target_path, check=check)
    n = spin_count(target.shape[0])
    u = _realize_artifact(program_path, n, check=check)
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
# Self-test


def cmd_selftest(suite: str | None = None) -> int:
    if suite is not None and suite not in SUITES:
        raise ValidationError(
            f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    names = [suite] if suite is not None else list(SUITES)
    failed = []
    for name in names:
        try:
            ok, detail = SUITES[name]()
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: building it costs
    about 1 ms, mostly gettext lookups, which is a fifth of a three-spin
    compile.  ``parse_args`` returns a new namespace on every call, so
    nothing parsed is shared between calls."""
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
    p.add_argument("--suite", help=f"run one suite: {', '.join(SUITES)}")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "random":
            return cmd_random(args.n, args.seed, args.output)
        if args.command == "decompose":
            return cmd_decompose(args.input, args.output, n=args.n,
                                 tol=args.tol)
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
