"""Benchmark for ddpath: three simulation-path workloads, checked outputs.

Run one workload as

    python3 perfbench/run.py --workload miter-sequential --seed 1 --seconds 30 --trace 0

or all three, each in its own process, by leaving out ``--workload``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
split from an outside-in trace.  ``--self-check`` runs every correctness
check on tiny sizes, including checks fed a wrong expected value that must
fail.  The last line of a workload run is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
NAMES = ("miter-sequential", "miter-heuristic", "tn-greedy")
SETUP_PROBES = 11

# end-to-end metrics: name -> unit
END_TO_END = {
    "setup_s": "s",
    "job_s_p50": "s",
    "gates_per_s": "1/s",
    "peak_nodes": "nodes",
    "peak_rss_mb": "MB",
}


def _import_program():
    """Make ``src/`` importable; exit 2 when this checkout has no program."""
    if not os.path.isfile(os.path.join(SRC, "ddpath", "__init__.py")):
        print(f"perfbench: no ddpath package under {SRC}", file=sys.stderr)
        sys.exit(2)
    # one thread: numpy reads these when it is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, SRC)


def setup_probe(name: str, seed: int) -> None:
    """Body of one set-up probe process: import, build the inputs, report."""
    import workloads

    workloads.make(name, seed)
    print(time.monotonic(), flush=True)


def setup_times(name: str, seed: int) -> list[float]:
    """Process start to ready-for-the-first-job, once per probe process."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", name,
             "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]) - t0)
    return times


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it, from 40 samples on."""
    if len(samples) < 40:
        return None
    k = len(samples) - 10
    return 100.0 * k / len(samples), sorted(samples)[k - 1]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import ddpath as dd
    import layertrace
    import workloads

    setup = [] if trace else setup_times(name, seed)
    workload = workloads.make(name, seed)
    tracer = layertrace.Tracer() if trace else None
    traced_s: list[float] = []
    untraced_s: list[float] = []
    round_rates: list[float] = []
    attempted = failed = 0
    problems: list[str] = []
    start = time.perf_counter()
    rounds = 0
    min_rounds = 2 if trace else 1
    while rounds < min_rounds or time.perf_counter() - start < seconds:
        # a traced run alternates traced and untraced rounds, so it can
        # report its own overhead
        traced = tracer is not None and rounds % 2 == 0
        rounds += 1
        round_s = 0.0
        round_gates = 0
        whole = True
        for spec in workload.round():
            # each job starts from the heap a fresh process would see
            gc.collect()
            attempted += 1
            try:
                if traced:
                    tracer.install()
                    try:
                        out, ns = tracer.job(workload.run, spec)
                    finally:
                        tracer.uninstall()
                else:
                    t0 = time.perf_counter_ns()
                    out = workload.run(spec)
                    ns = time.perf_counter_ns() - t0
            except dd.DdpathError as exc:
                failed += 1
                print(f"job {workload.label(spec)} failed: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
                whole = False
                continue
            (traced_s if traced else untraced_s).append(ns / 1e9)
            round_s += ns / 1e9
            round_gates += out.gates
            try:
                workload.check(spec, out)
            except workloads.CheckError as exc:
                problems.append(f"{workload.label(spec)}: {exc}")
            del out
        if whole and not traced:
            round_rates.append(round_gates / round_s)
    try:
        notes = workload.controls()
    except (workloads.CheckError, dd.DdpathError) as exc:
        problems.append(f"control: {exc}")
        notes = []
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if not untraced_s or not (trace or round_rates):
        print("perfbench: no round of jobs ran to its end; no metrics", file=sys.stderr)
        return 1
    if trace:
        metrics = tracer.metrics(traced_s, untraced_s)
    else:
        values = {
            "setup_s": statistics.median(setup),
            "job_s_p50": statistics.median(untraced_s),
            "gates_per_s": statistics.median(round_rates),
            "peak_nodes": workload.peak_nodes(),
            "peak_rss_mb": rss_mb,
        }
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END.items()}

    for note in notes:
        print(note)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"{name}: seed {seed}, {rounds} rounds, {attempted} jobs "
          f"({len(untraced_s)} untraced, {len(traced_s)} traced), {failed} failed")
    tail = tail_percentile(untraced_s)
    if tail is not None:
        print(f"  job_s_p{tail[0]:.0f} {tail[1]:.6g} s (the 10 slowest of "
              f"{len(untraced_s)} jobs lie beyond it)")
    for metric, entry in metrics.items():
        print(f"  {metric:28s} {entry['value']:.6g} {entry['unit']}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    os.makedirs(OUT, exist_ok=True)
    suffix = ".trace" if trace else ""
    with open(os.path.join(OUT, f"{name}{suffix}.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(result, seed=seed, seconds=seconds, rounds=rounds,
                       job_s=untraced_s, traced_job_s=traced_s, setup_s=setup,
                       notes=notes, problems=problems), fh, indent=1)
    if tracer is not None:
        tracer.write_spans(os.path.join(OUT, f"{name}.spans.jsonl"))
    print(json.dumps(result), flush=True)
    return 0 if not problems else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    summary = {}
    for name in NAMES:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900)
        print(done.stdout, end="")
        print(done.stderr, end="", file=sys.stderr)
        if done.returncode != 0:
            status = done.returncode
        lines = done.stdout.strip().splitlines()
        summary[name] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    os.makedirs(OUT, exist_ok=True)
    suffix = ".trace" if trace else ""
    with open(os.path.join(OUT, f"summary{suffix}.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    return status


def self_check() -> int:
    """Every check on tiny sizes, then the same checks fed wrong expectations."""
    import ddpath as dd
    import workloads as wl

    failures = 0

    def report(ok: bool, what: str) -> None:
        nonlocal failures
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'}  {what}")

    quick = {name: wl.make(name, seed=0, quick=True) for name in NAMES}
    for name, workload in quick.items():
        try:
            for spec in workload.round():
                workload.check(spec, workload.run(spec))
            notes = workload.controls()
            report(True, f"{name}: jobs, controls: {'; '.join(notes)}")
        except (wl.CheckError, dd.DdpathError) as exc:
            report(False, f"{name}: {exc}")

    def must_fail(what: str, check, *args, **kwargs) -> None:
        try:
            check(*args, **kwargs)
        except wl.CheckError:
            report(True, f"wrong expectation caught: {what}")
        else:
            report(False, f"check passed a wrong expectation: {what}")

    miter = quick["miter-heuristic"]
    out = miter.run(miter.job)
    n = miter.n
    must_fail("miter final_nodes 2n", wl.check_equal, "final_nodes", out.stats.final_nodes, 2 * n)
    must_fail("miter verdict inconsistent", wl.check_verdict, out.result, "inconsistent")
    must_fail("miter state |0..0> + |1..1> with a minus sign", wl.check_amplitudes,
              wl.nonzero_amplitudes(out.final),
              {"0" * n: 2 ** -0.5, "1" * n: -(2 ** -0.5)}, up_to_phase=True)
    bad = miter.negative_control()
    must_fail("negative control read as consistent", wl.check_verdict, bad.result, "consistent")
    dj = quick["tn-greedy"].run(("dj", 8))
    amps = wl.nonzero_amplitudes(dj.final)
    must_fail("dj amplitudes with the sign of 11..1 flipped", wl.check_amplitudes,
              amps, {k: abs(v) for k, v in wl.dj_amplitudes(8).items()})
    must_fail("greedy result against a reference moved by 2e-10", wl.check_amplitudes,
              amps, {k: v + 2 * wl.AMP_TOL for k, v in amps.items()})
    vec = dj.kernel.to_vector(dj.final)
    moved = vec.copy()
    moved[0] += 2 * wl.AMP_TOL
    must_fail("dense vector moved by 2e-10 in one amplitude", wl.check_dense, vec, moved)
    kernel = dd.Kernel()
    spread, _ = dd.execute(dd.Circuit(7, tuple(dd.Gate("h", (q,)) for q in range(7))),
                           kernel=kernel)
    must_fail("128 nonzero amplitudes where at most 64 may be", wl.nonzero_amplitudes, spread)
    print(f"self-check: {failures} failure(s)")
    return 0 if failures == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _import_program()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.self_check:
        return self_check()
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
