"""Round-trip benchmark: ``decompose`` -> ``pulses`` -> ``verify``.

Drives ``kakpulse.cli.main`` in-process, one target at a time (a closed
loop with a single client), with every artifact in a scratch directory
inside the checkout::

    python3 bench/run.py --workload haar-n3 --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
calls into each layer and prints the per-layer metrics.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it start with ``#``.
Timings are in reference seconds (see ``calibrate.py``).  See
``bench/README.md`` for what each metric should move.
"""

import os

# Pin BLAS to one thread before NumPy loads: on two cores OpenBLAS's
# default threading makes a 5-spin decompose about twice as slow and far
# noisier.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import calibrate  # noqa: E402
import reference  # noqa: E402
import targets  # noqa: E402
import tracer as tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
VERIFY_TOL = 1e-6
SETUP_REPEATS = 3
# Stop starting targets this long after process start, whatever the
# minimum count, so that a run always ends within its time limit.
HARD_STOP_S = 140.0


def load_cli():
    """Import ``kakpulse.cli`` from this checkout's sources, nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import kakpulse.cli as cli
    except ImportError as exc:
        raise SystemExit(f"cannot import kakpulse from {SRC}: {exc}")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"kakpulse came from {cli.__file__}, not {SRC}")
    return cli


class Files:
    def __init__(self, workdir: Path, tag: str = ""):
        self.target = str(workdir / "target.json")
        self.factored = str(workdir / f"factored{tag}.json")
        self.program = str(workdir / f"program{tag}.json")
        self.report = str(workdir / "report.json")


@dataclass
class Trip:
    """One target's round trip: exit code and wall time per command, and
    the kernel passes timed before, between (ahead of ``verify``) and
    after the commands."""

    codes: dict = field(default_factory=dict)
    seconds: dict = field(default_factory=dict)
    kernel: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return len(self.codes) == 3 and all(c == 0 for c in self.codes.values())

    def scale(self, command: str) -> float:
        before, mid, after = self.kernel
        if command == "verify":
            return calibrate.scale(mid, after)
        return calibrate.scale(before, mid)

    def ref_seconds(self, *commands: str) -> float:
        return sum(self.seconds[c] * self.scale(c) for c in commands
                   if c in self.seconds)

    @property
    def ref_total(self) -> float:
        return self.ref_seconds("decompose", "pulses", "verify")


def run_command(main, argv, tracer):
    try:
        if tracer is None:
            return main(argv)
        return tracer.call(f"cli.{argv[0]}", main, argv)
    except SystemExit as exc:  # argparse rejected the arguments
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash must not end the run; it is tallied
        traceback.print_exc()
        return "crash"


def round_trip(main, files: Files, chain: str, tracer=None, *,
               verify: bool = True, index: int = -1) -> Trip:
    commands = [
        ("decompose", ["decompose", "--input", files.target,
                       "--output", files.factored]),
        ("pulses", ["pulses", "--input", files.factored,
                    "--output", files.program, "--chain", chain]),
        ("verify", ["verify", files.program, files.target,
                    "--tol", repr(VERIFY_TOL), "--output", files.report]),
    ]
    trip = Trip()
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        trip.kernel.append(calibrate.kernel_seconds())
        for name, argv in commands if verify else commands[:2]:
            if name == "verify":
                trip.kernel.append(calibrate.kernel_seconds())
            if tracer is not None:
                tracer.request = (index, name)
            t0 = time.perf_counter()
            code = run_command(main, argv, tracer)
            trip.seconds[name] = time.perf_counter() - t0
            trip.codes[name] = code
            if code != 0:
                break
        while len(trip.kernel) < 3:
            trip.kernel.append(calibrate.kernel_seconds())
    if not trip.ok and verify:
        print(f"# target failed: {trip.codes}")
        for line in sink.getvalue().strip().splitlines():
            print(f"#   {line}")
    return trip


def write_target(path: str, m: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(targets.matrix_json(m), fh)


def read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def artifact_stats(files: Files) -> dict:
    """Size of the emitted program, counted from the artifacts themselves."""
    factored = read_json(files.factored)
    program = read_json(files.program)
    kinds = [g["kind"] for g in factored["gates"]]
    events = program["events"]
    delays = [e["t"] for e in events if e["kind"] == "delay"]
    pulses = sum(e["kind"] == "pulse" for e in events)
    local = kinds.count("local")
    return {"zz": kinds.count("zz"), "local": local, "events": len(events),
            "pulses": pulses, "refocus": pulses - local,
            "duration": math.fsum(delays), "max_delay": max(delays, default=0.0),
            "residual": float(factored["residual"])}


def reference_ok(files: Files, m: np.ndarray) -> bool:
    """Rebuild the program from its artifact with the benchmark's own
    evaluator; ``kakpulse.simulate`` cannot be its own oracle."""
    d = reference.phase_free_distance(
        reference.program_unitary(read_json(files.program)), m)
    if not d < VERIFY_TOL:
        print(f"# reference check failed: distance {d:.3e}")
    return d < VERIFY_TOL


def deterministic(cli, workdir: Path, work, files: Files) -> bool:
    """Compile the same target again: the artifacts must match byte for byte."""
    again = Files(workdir, tag="-again")
    trip = round_trip(cli.main, again, work.chain_arg, verify=False)

    def same(a: str, b: str) -> bool:
        with open(a, "rb") as fa, open(b, "rb") as fb:
            return fa.read() == fb.read()

    ok = (trip.codes == {"decompose": 0, "pulses": 0}
          and same(files.factored, again.factored)
          and same(files.program, again.program))
    if not ok:
        print(f"# determinism check failed: {trip.codes}")
    return ok


def tail(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(samples)
    return s[max(math.ceil(pct / 100 * len(s)), 1) - 1]


def setup(cli, work, seed: int, workdir: Path):
    """Everything before the first timed target: target generation and
    one warm-up round trip, which is excluded from the samples.  Returns
    the stream of timed targets."""
    stream = targets.timed_targets(work, seed)
    first = next(stream)
    files = Files(workdir)
    write_target(files.target, targets.warmup_target(work, seed))
    round_trip(cli.main, files, work.chain_arg)
    return itertools.chain([first], stream)


def measure_setup(args) -> list[tuple[float, float]]:
    """``(raw, reference)`` seconds from process start to the first timed
    target, each in a fresh process."""
    out = []
    for _ in range(SETUP_REPEATS):
        before = calibrate.kernel_seconds()
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise SystemExit(f"setup probe failed:\n{proc.stderr}")
        raw = float(proc.stdout.split()[-1]) - t0
        out.append((raw, raw * calibrate.scale(before, calibrate.kernel_seconds())))
    return out


def environment() -> dict:
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas_threads": BLAS_THREADS,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "loadavg": os.getloadavg()}


def measure(cli, work, seed: int, seconds: float, traced_run: bool,
            workdir: Path, started: float) -> dict:
    stream = setup(cli, work, seed, workdir)
    files = Files(workdir)
    tracer = tracing.Tracer() if traced_run else None
    # The traced run alternates whole input cycles, so both halves see
    # every input.
    cycle = targets.cycle_length(work)
    trips, stats, ids, traced_ids, failed = [], {}, [], set(), set()
    tally = {str(code): 0 for code in range(5)}
    distances, artifact_bytes = [], []
    loop_start = time.perf_counter()
    for i, (input_id, m) in enumerate(stream):
        if not ((time.perf_counter() - loop_start < seconds or i < work.min_targets
                 or i % cycle) and time.perf_counter() - started < HARD_STOP_S):
            break
        write_target(files.target, m)
        traced = traced_run and (i // cycle) % 2 == 0
        saved = tracing.install(tracer) if traced else []
        try:
            trip = round_trip(cli.main, files, work.chain_arg,
                              tracer if traced else None, index=i)
        finally:
            tracing.uninstall(saved)
        trips.append(trip)
        ids.append(input_id)
        for code in trip.codes.values():
            tally[str(code)] = tally.get(str(code), 0) + 1
        if trip.ok:
            distances.append(float(read_json(files.report)["dfro"]))
            if i < work.min_targets or traced:
                stats[i] = artifact_stats(files)
            if traced:
                traced_ids.add(i)
                artifact_bytes.append(sum(os.path.getsize(p) for p in
                                          (files.factored, files.program, files.report)))
            if i < work.reference_checks and not reference_ok(files, m):
                failed.add(i)
            if i == 0 and not deterministic(cli, workdir, work, files):
                failed.add(i)
        else:
            failed.add(i)
    return {"trips": trips, "stats": stats, "ids": ids, "failed": failed,
            "tally": tally, "distances": distances,
            "loop_s": time.perf_counter() - loop_start,
            "traced_ids": traced_ids, "artifact_bytes": artifact_bytes,
            "spans": tracer.spans if tracer else []}


def size_prefix(work, run: dict) -> list[dict]:
    """Artifact stats of the first ``min_targets`` targets: the same inputs
    on every run with a seed, so the size metrics repeat exactly."""
    return [s for i, s in sorted(run["stats"].items()) if i < work.min_targets]


def end_to_end(work, run: dict, setup_runs: list[tuple[float, float]]) -> dict:
    ok = [t for t in run["trips"] if t.ok]
    compile_s = [t.ref_seconds("decompose", "pulses") for t in ok] or [0.0]
    verify_s = [t.ref_seconds("verify") for t in ok] or [0.0]
    attempted = len(run["trips"])
    prefix = size_prefix(work, run) or [{"duration": 0.0, "pulses": 0}]
    values = {
        "roundtrip_per_s": (len(ok) / math.fsum(t.ref_total for t in run["trips"]), "1/s"),
        "compile_s_p50": (statistics.median(compile_s), "s"),
        "compile_s_tail": (tail(compile_s, work.tail_pct), "s"),
        "verify_s_p50": (statistics.median(verify_s), "s"),
        "verify_s_tail": (tail(verify_s, work.tail_pct), "s"),
        "program_duration_s": (statistics.fmean(s["duration"] for s in prefix), "s"),
        "pulse_count": (statistics.fmean(s["pulses"] for s in prefix), "count"),
        "ok_share": ((attempted - len(run["failed"])) / attempted, "share"),
        "setup_s": (statistics.median(ref for _, ref in setup_runs), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw_compile = statistics.median([t.seconds["decompose"] + t.seconds["pulses"]
                                     for t in ok] or [0.0])
    raw_verify = statistics.median([t.seconds["verify"] for t in ok] or [0.0])
    kernel = statistics.median(k for t in run["trips"] for k in t.kernel)
    print(f"# samples {len(ok)}; tail = p{work.tail_pct:g}, which has >= 10 samples "
          f"beyond it from {work.min_targets} on; size metrics over the first "
          f"{len(prefix)} targets")
    print(f"# raw wall seconds: compile p50 {raw_compile:.6f}, verify p50 "
          f"{raw_verify:.6f}, setup runs {[round(raw, 4) for raw, _ in setup_runs]}; "
          f"calibration kernel median {kernel:.6f} s (reference {calibrate.REFERENCE_S} s)")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer(work, run: dict) -> dict:
    trips = run["trips"]
    traced = sorted(run["traced_ids"])
    n = max(len(traced), 1)
    scales = {(i, c): trips[i].scale(c) for i in traced for c in trips[i].seconds}
    agg = tracing.aggregate(run["spans"], scales)
    layer_self = {layer: sum(row["self"] for name, row in agg.items()
                             if name.split(".")[0] == layer) / n
                  for layer in tracing.LAYERS}

    def self_s(name: str) -> float:
        return agg[name]["self"] / n
    traced_s = [trips[i].ref_total for i in traced]
    untraced_s = [t.ref_total for i, t in enumerate(trips)
                  if i not in run["traced_ids"] and t.ok]
    roundtrip = statistics.fmean(traced_s) if traced_s else 0.0
    unattributed = roundtrip - sum(layer_self.values())
    traced_rate = len(traced_s) / math.fsum(traced_s) if traced_s else 0.0
    untraced_rate = len(untraced_s) / math.fsum(untraced_s) if untraced_s else 0.0
    prefix = size_prefix(work, run)
    traced_events = sum(run["stats"][i]["events"] for i in traced)

    def mean(key: str) -> float:
        return statistics.fmean(s[key] for s in prefix) if prefix else 0.0

    values = {
        "cli.self_s": (layer_self["cli"], "s"),
        "cli.artifact_bytes": (statistics.fmean(run["artifact_bytes"] or [0]), "bytes"),
        "gates.json_s": (self_s("gates.json"), "s"),
        "linalg.matrix_io_s": (self_s("linalg.matrix_io"), "s"),
        "linalg.check_s": (self_s("linalg.check"), "s"),
        "linalg.self_s": (layer_self["linalg"], "s"),
        "kak.decompose_s": (agg["kak.decompose"]["inclusive"] / n, "s"),
        "kak.evaluate_s": (self_s("kak.evaluate"), "s"),
        "kak.evaluate_calls": (agg["kak.evaluate"]["calls"] / n, "count"),
        "kak.split_s": (self_s("kak.split"), "s"),
        "kak.demultiplex_s": (self_s("kak.demultiplex"), "s"),
        "kak.two_spin_s": (self_s("kak.two_spin"), "s"),
        "kak.flatten_s": (self_s("kak.flatten"), "s"),
        "kak.tree_json_s": (self_s("kak.tree_json"), "s"),
        "kak.self_s": (layer_self["kak"], "s"),
        "kak.zz_count": (mean("zz"), "count"),
        "kak.local_count": (mean("local"), "count"),
        "kak.max_residual": (max((s["residual"] for s in prefix), default=0.0), "norm"),
        "pulses.rewrite_s": (self_s("pulses.rewrite"), "s"),
        "pulses.synthesize_s": (self_s("pulses.synthesize"), "s"),
        "pulses.json_s": (self_s("pulses.json"), "s"),
        "pulses.self_s": (layer_self["pulses"], "s"),
        "pulses.events": (mean("events"), "count"),
        "pulses.refocus_pulses": (mean("refocus"), "count"),
        "pulses.max_delay_s": (max((s["max_delay"] for s in prefix), default=0.0), "s"),
        "simulate.gate_list_s": (self_s("simulate.gate_list"), "s"),
        "simulate.pulse_program_s": (self_s("simulate.pulse_program"), "s"),
        "simulate.s_per_event": (self_s("simulate.pulse_program") * n / max(traced_events, 1),
                                 "s/event"),
        "simulate.distance_s": (self_s("simulate.distance"), "s"),
        "simulate.max_distance": (max(run["distances"], default=0.0), "norm"),
        "simulate.self_s": (layer_self["simulate"], "s"),
        "trace.roundtrip_s": (roundtrip, "s"),
        "trace.unattributed_s": (unattributed, "s"),
        "trace.unattributed_share": (unattributed / roundtrip if roundtrip else 0.0, "share"),
        "trace.traced_roundtrip_per_s": (traced_rate, "1/s"),
        "trace.untraced_roundtrip_per_s": (untraced_rate, "1/s"),
        "trace.overhead_share": (untraced_rate / traced_rate - 1 if traced_rate else 0.0,
                                 "share"),
        "inputs.repeat_share": (1 - len(set(run["ids"])) / len(run["ids"]), "share"),
    }
    print(f"# traced {len(traced)} of {len(trips)} targets; self-time share of "
          f"the traced round trip ({roundtrip:.6f} s):")
    for layer in tracing.LAYERS:
        print(f"#   {layer:<10} {layer_self[layer] / roundtrip:8.2%}")
    print(f"#   {'unattrib.':<10} {unattributed / roundtrip:8.2%}")
    print(f"# tracing overhead: {traced_rate:.4f}/s traced vs "
          f"{untraced_rate:.4f}/s untraced")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(targets.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    work = targets.WORKLOADS[args.workload]

    cli = load_cli()
    workdir = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT))
    try:
        if args.setup_probe:
            setup(cli, work, args.seed, workdir)
            print(time.monotonic())
            return 0
        print(f"# env {json.dumps(environment(), sort_keys=True)}")
        setup_runs = [] if args.trace else measure_setup(args)
        run = measure(cli, work, args.seed, args.seconds, bool(args.trace),
                      workdir, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(run["trips"])
    failed = len(run["failed"])
    print(f"# workload {work.name} seed {args.seed}: {attempted} targets in "
          f"{run['loop_s']:.2f} s, fail_share {failed / max(attempted, 1):.4f}, "
          f"exit codes {json.dumps(run['tally'], sort_keys=True)}")
    metrics = (per_layer(work, run) if args.trace
               else end_to_end(work, run, setup_runs))
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
