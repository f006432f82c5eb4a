"""Command-line entry point: simulate, verify, export-tn, bench, dot.

Exit codes: 0 success, 1 inconsistent verdict, 2 input or validation error,
3 internal error, 141 (128 + SIGPIPE) when the reader closed stdout early.
Reports are JSON on stdout; errors are JSON on stderr.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import qasm, simpath, tnbridge
from .circuit import Circuit, GENERATORS, ghz, qft, transpile
from .errors import (
    DdpathError,
    InternalError,
    InvalidArgumentError,
    PathValidationError,
    QasmError,
)
from .kernel import Edge, Kernel

EXIT_OK = 0
EXIT_INCONSISTENT = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3
EXIT_PIPE = 141


def parse_circuit_source(source: str) -> Circuit:
    """A generator spec like ``ghz:5``, ``transpile(qft:4)``, or a QASM file path."""
    source = source.strip()
    if source.startswith("transpile(") and source.endswith(")"):
        return transpile(parse_circuit_source(source[len("transpile("):-1]))
    if ":" in source and not source.lower().endswith(".qasm"):
        name, _, arg = source.partition(":")
        gen = GENERATORS.get(name)
        if gen is None:
            raise InvalidArgumentError(
                f"unknown generator {name!r}; known: {sorted(GENERATORS)}")
        try:
            n = int(arg)
        except ValueError:
            raise InvalidArgumentError(f"bad qubit count {arg!r} in {source!r}")
        return gen(n)
    try:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InvalidArgumentError(f"cannot read circuit source {source!r}: {exc}")
    return qasm.parse(text)


def _initial_edge(spec: str, kernel: Kernel, n: int) -> Edge:
    if spec == "zeros":
        return kernel.make_zero_state(n)
    if spec == "ghz":
        edge, _ = simpath.execute(ghz(n), kernel=kernel)
        return edge
    if set(spec) <= {"0", "1"}:
        if len(spec) != n:
            raise InvalidArgumentError(
                f"initial bitstring {spec!r} does not address {n} qubits")
        return kernel.make_basis_state(spec)
    raise InvalidArgumentError(f"bad initial state spec {spec!r}")


def _circuit_meta(source: str, c: Circuit) -> dict:
    return {"source": source, "qubits": c.num_qubits, "gates": len(c.gates)}


@contextlib.contextmanager
def _output(out: str):
    """Yield a ``write(text)`` that puts ``text`` and a newline to the file
    ``out``, or to stdout when ``out`` is empty.  The file is opened on
    entry, so a name that cannot be written fails before any work."""
    if not out:
        yield print
        return
    try:
        fh = open(out, "w", encoding="utf-8")
    except OSError as exc:
        raise InvalidArgumentError(f"cannot write output file {out!r}: {exc}") from exc

    def write(text: str) -> None:
        try:
            fh.write(text + "\n")
            fh.flush()
        except OSError as exc:
            raise InvalidArgumentError(
                f"cannot write output file {out!r}: {exc}") from exc

    with fh:
        yield write


def _write_output(text: str, out: str) -> None:
    """``text`` and a newline to the file ``out``, or to stdout when it is empty."""
    with _output(out) as write:
        write(text)


def cmd_simulate(args) -> int:
    circuit = parse_circuit_source(args.circuit)
    kernel = Kernel()
    initial = _initial_edge(args.initial, kernel, circuit.num_qubits)
    path = simpath.make_path(args.path, circuit)
    final, stats = simpath.execute(circuit, path, kernel, initial)
    report = {
        "command": "simulate",
        "argv": args.argv,
        "circuit": _circuit_meta(args.circuit, circuit),
        "strategy": args.path,
        "stats": stats.to_json(),
    }
    if args.amplitudes:
        amps = {}
        for bits in args.amplitudes.split(","):
            bits = bits.strip()
            a = kernel.amplitude(final, bits)
            amps[bits] = [a.real, a.imag]
        report["amplitudes"] = amps
    if args.stats_out:
        _write_output(json.dumps(stats.to_json(), indent=2), args.stats_out)
    print(json.dumps(report, indent=2))
    return EXIT_OK


def cmd_verify(args) -> int:
    g = parse_circuit_source(args.circuit)
    gp = parse_circuit_source(args.circuit_prime)
    kernel = Kernel()
    initial = _initial_edge(args.initial, kernel, g.num_qubits)
    result = simpath.verify_equivalence(g, gp, args.strategy, kernel, initial)
    report = {
        "command": "verify",
        "argv": args.argv,
        "circuit": _circuit_meta(args.circuit, g),
        "circuit_prime": _circuit_meta(args.circuit_prime, gp),
        "strategy": args.strategy,
        "combined_gates": len(result.combined.gates),
        "verdict": result.verdict,
        "fidelity": result.fidelity,
        "stats": result.stats.to_json(),
    }
    print(json.dumps(report, indent=2))
    return EXIT_OK if result.verdict == "consistent" else EXIT_INCONSISTENT


def cmd_export_tn(args) -> int:
    circuit = parse_circuit_source(args.circuit)
    tn = tnbridge.export_tensor_network(circuit)
    _write_output(json.dumps(tn.to_json(), indent=2), args.out)
    return EXIT_OK


def cmd_dot(args) -> int:
    circuit = parse_circuit_source(args.circuit)
    kernel = Kernel()
    path = simpath.make_path(args.path, circuit)
    final, _ = simpath.execute(circuit, path, kernel)
    _write_output(kernel.to_dot(final), args.out)
    return EXIT_OK


# ----------------------------------------------------------------------
# bench

def _parse_suite(spec: str) -> tuple[str, list[int], list[str]]:
    parts = spec.split(":", 2)
    if len(parts) not in (2, 3):
        raise InvalidArgumentError(
            f"bad suite spec {spec!r}; use family:lo..hi[:strategy,...]")
    family, span = parts[0], parts[1]
    strategies = parts[2].split(",") if len(parts) == 3 else ["sequential"]
    strategies = [s.strip().strip("{}") for s in strategies]
    lo, sep, hi = span.partition("..")
    try:
        ns = list(range(int(lo), int(hi if sep else lo) + 1))
    except ValueError:
        raise InvalidArgumentError(f"bad size {span!r} in suite spec {spec!r}")
    if not ns:
        raise InvalidArgumentError(f"empty size range {span!r} in suite spec {spec!r}")
    if family != "qft-verify" and family not in GENERATORS:
        raise InvalidArgumentError(f"unknown bench family {family!r} in suite spec {spec!r}")
    # only a qft-verify row runs a miter
    for strategy in strategies:
        simpath._check_strategy(strategy, family == "qft-verify")
    return family, ns, strategies


def _bench_row(family: str, n: int, strategy: str) -> tuple[int, simpath.RunStats]:
    kernel = Kernel()
    if family == "qft-verify":
        g = qft(n)
        initial = _initial_edge("ghz", kernel, n)
        result = simpath.verify_equivalence(g, g, strategy, kernel, initial)
        return len(result.combined.gates), result.stats
    circuit = GENERATORS[family](n)
    _, stats = simpath.execute(circuit, simpath.make_path(strategy, circuit), kernel)
    return len(circuit.gates), stats


def cmd_bench(args) -> int:
    """Rows that fail are reported on stderr, one JSON line each, and the
    sweep goes on; the exit code is 2 when any row failed."""
    rows = ["benchmark,n,gates,strategy,peak_nodes,final_nodes,elapsed_ns"]
    failed = 0
    # every spec, with its family and strategy names, whether the family
    # takes each strategy, and the output file are checked before the
    # first row runs; file: and plan: files are read by their rows
    suite = [_parse_suite(spec) for spec in args.suite]
    with _output(args.out) as write:
        for family, ns, strategies in suite:
            for n in ns:
                for strategy in strategies:
                    try:
                        gates, stats = _bench_row(family, n, strategy)
                    except InternalError:
                        raise
                    except DdpathError as exc:
                        failed += 1
                        payload = {"family": family, "n": n, "strategy": strategy}
                        payload.update(_error_payload(type(exc).__name__, exc))
                        print(json.dumps(payload), file=sys.stderr)
                        continue
                    rows.append(f"{family},{n},{gates},{strategy},{stats.peak_nodes},"
                                f"{stats.final_nodes},{stats.elapsed_ns}")
        write("\n".join(rows))
    return EXIT_INPUT if failed else EXIT_OK


# ----------------------------------------------------------------------

_STRATEGY_HELP = (f"{', '.join(simpath.STRATEGIES)}, file:<path.json> or plan:<plan.json>; "
                  f"alternating and heuristic need two circuits")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddpath",
        description="Decision-diagram circuit simulator with pluggable simulation paths")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a circuit and report statistics")
    p.add_argument("circuit", help="generator spec (ghz:5), transpile(...), or QASM path")
    p.add_argument("--path", default="sequential", help=_STRATEGY_HELP)
    p.add_argument("--amplitudes", default="", help="comma separated basis strings")
    p.add_argument("--stats-out", default="", help="write run statistics JSON here")
    p.add_argument("--initial", default="zeros", help="zeros, ghz, or a basis bitstring")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="check two circuits for equivalence")
    p.add_argument("circuit")
    p.add_argument("circuit_prime")
    p.add_argument("--strategy", default="alternating", help=_STRATEGY_HELP)
    p.add_argument("--initial", default="zeros", help="zeros, ghz, or a basis bitstring")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export-tn", help="write the tensor-network form of a circuit")
    p.add_argument("circuit")
    p.add_argument("--out", default="")
    p.set_defaults(func=cmd_export_tn)

    p = sub.add_parser("bench", help="run benchmark sweeps and emit CSV")
    p.add_argument("suite", nargs="+",
                   help="family:lo..hi[:strategy,...], e.g. ghz:4..64:sequential; "
                        f"a strategy is {_STRATEGY_HELP}")
    p.add_argument("--out", default="")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("dot", help="export the final-state diagram as graphviz")
    p.add_argument("circuit")
    p.add_argument("--path", default="sequential", help=_STRATEGY_HELP)
    p.add_argument("--out", default="")
    p.set_defaults(func=cmd_dot)
    return parser


def _error_payload(kind: str, exc: Exception) -> dict:
    payload = {"error": kind, "message": str(exc)}
    if isinstance(exc, PathValidationError) and exc.task_index is not None:
        payload["task_index"] = exc.task_index
    if isinstance(exc, QasmError) and exc.line is not None:
        payload["line"] = exc.line
    return payload


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.argv = list(argv) if argv is not None else sys.argv[1:]
    try:
        status = args.func(args)
        # a reader that left early shows here, not at the interpreter's exit
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # as `| head` does; stdout goes to the null device so that the
        # interpreter's final flush does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except InternalError as exc:
        print(json.dumps(_error_payload("internal", exc)), file=sys.stderr)
        return EXIT_INTERNAL
    except DdpathError as exc:
        print(json.dumps(_error_payload(type(exc).__name__, exc)), file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - last resort
        print(json.dumps(_error_payload("unexpected", exc)), file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
