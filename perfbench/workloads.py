"""The benchmark's workloads: inputs from a seed, one timed job, and checks.

A job is one user-level call on a fresh ``Kernel``, as one ``ddpath verify``
or ``ddpath simulate`` invocation makes it: a reused kernel would answer
repeated jobs from its compute tables.  A job covers input parsing, path
construction, ``validate``, execution and, for the miters, the fidelity
product.  Every check compares against a value computed outside the kernel
or against a property the method must have.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

import ddpath as dd
from ddpath import oracle
from ddpath.circuit import Circuit, Gate
from ddpath.simpath import FIDELITY_TOLERANCE

AMP_TOL = 1e-10              # per-amplitude tolerance of every state check
PERTURBATION = 1e-3          # angle change of the negative controls
DENSE_N = 8                  # qubits of the dense-oracle cross-checks
_S2 = 1.0 / math.sqrt(2.0)


class CheckError(Exception):
    """An output of the program differs from what the method must give."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def check_equal(what: str, got, want) -> None:
    expect(got == want, f"{what} is {got}, expected {want}")


def check_verdict(result, verdict: str) -> None:
    expect(result.verdict == verdict,
           f"verdict {result.verdict} (fidelity {result.fidelity!r}), expected {verdict}")
    if verdict == "consistent":
        expect(result.fidelity >= 1.0 - FIDELITY_TOLERANCE,
               f"fidelity {result.fidelity!r} below 1 - {FIDELITY_TOLERANCE}")


def nonzero_amplitudes(edge, limit: int = 64) -> dict[str, complex]:
    """Every nonzero amplitude of a vector diagram, keyed by basis string
    (most significant bit first).

    Walks the diagram's own edges, so results of two kernels compare
    amplitude by amplitude; every amplitude not returned is exactly zero.
    More than ``limit`` nonzero amplitudes fail the check: the workloads'
    final states have two.
    """
    out: dict[str, complex] = {}

    def walk(e, prefix: str, w: complex) -> None:
        if e.node is None and e.w == 0:
            return
        w *= e.w
        if e.node is None:
            out[prefix] = complex(w)
            expect(len(out) <= limit, f"more than {limit} nonzero amplitudes")
            return
        walk(e.node.edges[0], prefix + "0", w)
        walk(e.node.edges[1], prefix + "1", w)

    walk(edge, "", 1 + 0j)
    return out


def check_amplitudes(got: dict[str, complex], want: dict[str, complex],
                     up_to_phase: bool = False) -> None:
    """Same nonzero basis states, each amplitude within AMP_TOL."""
    expect(set(got) == set(want),
           f"{len(got)} nonzero amplitudes do not sit at the {len(want)} expected basis states")
    if up_to_phase:
        key = next(iter(want))
        phase = got[key] / want[key]
        phase /= abs(phase)
        got = {k: v / phase for k, v in got.items()}
    worst = max(abs(got[k] - want[k]) for k in want)
    expect(worst <= AMP_TOL, f"amplitude off by {worst:.3g} (tolerance {AMP_TOL})")


def check_dense(got: np.ndarray, want: np.ndarray) -> None:
    worst = oracle.compare_states(want, got)
    expect(worst <= AMP_TOL, f"dense cross-check off by {worst:.3g} (tolerance {AMP_TOL})")


def ghz_amplitudes(n: int) -> dict[str, complex]:
    return {"0" * n: _S2, "1" * n: _S2}


def dj_amplitudes(n: int) -> dict[str, complex]:
    # balanced oracle: every input reads 1, the ancilla (top qubit) is |->
    return {"0" + "1" * (n - 1): _S2, "1" * n: -_S2}


def _load(source) -> Circuit:
    """QASM text, or a (generator, qubits) spec as ``ddpath`` accepts it."""
    if isinstance(source, str):
        return dd.parse_qasm(source)
    family, n = source
    return dd.GENERATORS[family](n)


def _perturbed(c: Circuit, index: int) -> Circuit:
    g = c.gates[index]
    gates = list(c.gates)
    gates[index] = Gate(g.kind, g.targets, g.controls, g.parameter + PERTURBATION)
    return Circuit(c.num_qubits, tuple(gates))


@dataclass
class JobOut:
    kernel: dd.Kernel
    final: dd.Edge
    stats: dd.RunStats
    gates: int                  # gates the job applied, state preparation included
    result: object = None       # VerificationResult of a miter job


class Workload:
    """Shared bookkeeping: the peak of every distinct job must repeat."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.peaks: dict = {}

    def label(self, spec) -> str:
        raise NotImplementedError

    def record_peak(self, spec, stats) -> None:
        label = self.label(spec)
        first = self.peaks.setdefault(label, stats.peak_nodes)
        check_equal(f"peak_nodes of {label}", stats.peak_nodes, first)

    def peak_nodes(self) -> int:
        return sum(self.peaks.values())


class Miter(Workload):
    """``verify_equivalence(qft(n), G')`` from a GHZ initial state.

    G' is qft(n) itself, built from its generator spec, or transpile(qft(n));
    in the transpiled case both circuits are parsed from OpenQASM text inside
    the job, as ``ddpath verify g.qasm gp.qasm`` parses its files.
    """

    def __init__(self, seed: int, n: int, strategy: str, transpiled: bool):
        super().__init__(seed)
        self.n = n
        self.strategy = strategy
        self.transpiled = transpiled
        g = dd.qft(n)
        if transpiled:
            self.g_prime = dd.transpile(g)
            self.job = (dd.emit_qasm(g), dd.emit_qasm(self.g_prime))
            # the phase a cp decomposition puts on its control, just before
            # the cx it commutes with; a moved target-side phase does not
            # cancel, and the heuristic path then grows operators far past
            # gate size (peak 746 instead of 37 nodes at n = 10)
            gates = self.g_prime.gates
            candidates = [i for i in range(len(gates) - 1)
                          if gates[i].kind == "p" and gates[i + 1].kind == "cx"
                          and gates[i + 1].controls == gates[i].targets]
        else:
            self.g_prime = g
            self.job = (("qft", n), ("qft", n))
            candidates = [i for i, gate in enumerate(g.gates) if gate.kind == "cp"]
        # the negative control perturbs one angle of G'; the seed picks which
        self.perturbed = self.rng.choice(candidates)

    def round(self) -> list:
        return [self.job]

    def label(self, job) -> str:
        return f"qft:{self.n} vs {'transpile(qft)' if self.transpiled else 'qft'}"

    def run(self, job) -> JobOut:
        g = _load(job[0])
        g_prime = _load(job[1])
        kernel = dd.Kernel()
        initial, _ = dd.execute(dd.ghz(self.n), kernel=kernel)
        result = dd.verify_equivalence(g, g_prime, self.strategy, kernel, initial)
        return JobOut(kernel, result.final, result.stats,
                      self.n + len(result.combined.gates), result)

    def check(self, job, out: JobOut) -> None:
        n = self.n
        check_verdict(out.result, "consistent")
        check_equal("final_nodes", out.stats.final_nodes, 2 * n - 1)
        check_amplitudes(nonzero_amplitudes(out.final), ghz_amplitudes(n), up_to_phase=True)
        self.record_peak(job, out.stats)

    def negative_control(self) -> JobOut:
        """G' with one angle moved by PERTURBATION; must read inconsistent."""
        bad = dd.emit_qasm(_perturbed(self.g_prime, self.perturbed))
        return self.run((self.job[0], bad))

    def controls(self) -> list[str]:
        out = self.negative_control()
        check_verdict(out.result, "inconsistent")
        lines = [f"negative control: gate {self.perturbed + 1} of G' moved by "
                 f"{PERTURBATION}: {out.result.verdict}, 1 - fidelity = "
                 f"{1.0 - out.result.fidelity:.3g}"]
        small = Miter(0, DENSE_N, self.strategy, self.transpiled)
        out = small.run(small.job)
        small.check(small.job, out)
        dense = np.zeros(1 << DENSE_N, dtype=complex)
        dense[0] = dense[-1] = _S2
        for gate in out.result.combined.gates:
            oracle.apply_gate(dense, gate, DENSE_N)
        check_dense(out.kernel.to_vector(out.final), dense)
        lines.append(f"dense cross-check at n={DENSE_N}: {len(out.result.combined.gates)} "
                     f"gates on a dense GHZ vector agree within {AMP_TOL}")
        return lines


class TNGreedy(Workload):
    """export_tensor_network -> greedy_plan -> import_path -> execute."""

    MIX = (("ghz", 128), ("dj", 64), ("dj", 72))

    def __init__(self, seed: int, mix=MIX):
        super().__init__(seed)
        self.mix = tuple(mix)
        self.references: dict = {}

    def round(self) -> list:
        order = list(self.mix)
        self.rng.shuffle(order)
        return order

    def label(self, spec) -> str:
        return "%s:%d" % spec

    def run(self, spec) -> JobOut:
        circuit = _load(spec)
        kernel = dd.Kernel()
        plan = dd.greedy_plan(dd.export_tensor_network(circuit))
        path = dd.import_path(plan, circuit)
        final, stats = dd.execute(circuit, path, kernel)
        return JobOut(kernel, final, stats, len(circuit.gates))

    def reference(self, spec) -> dict[str, complex]:
        """The sequential-path result of ``spec``, computed in its own Kernel."""
        if spec not in self.references:
            final, _ = dd.execute(_load(spec), kernel=dd.Kernel())
            self.references[spec] = nonzero_amplitudes(final)
        return self.references[spec]

    def check(self, spec, out: JobOut) -> None:
        family, n = spec
        amps = nonzero_amplitudes(out.final)
        if family == "ghz":
            check_amplitudes(amps, ghz_amplitudes(n))
            check_equal("final_nodes", out.stats.final_nodes, 2 * n - 1)
        else:
            check_amplitudes(amps, dj_amplitudes(n))
            check_equal("final_nodes", out.stats.final_nodes, n)
        check_amplitudes(amps, self.reference(spec))
        self.record_peak(spec, out.stats)

    def controls(self) -> list[str]:
        lines = []
        for family in ("ghz", "dj"):
            spec = (family, DENSE_N)
            out = self.run(spec)
            # a separate instance, so these small jobs add nothing to peak_nodes
            TNGreedy(0, ()).check(spec, out)
            check_dense(out.kernel.to_vector(out.final), oracle.simulate(_load(spec)))
            lines.append(f"dense cross-check: greedy {family}:{DENSE_N} agrees with the "
                         f"dense oracle within {AMP_TOL}")
        return lines


def make(name: str, seed: int, quick: bool = False) -> Workload:
    """The named workload; ``quick`` swaps in tiny sizes for the self-check."""
    if name == "miter-sequential":
        return Miter(seed, 6 if quick else 14, "sequential", transpiled=False)
    if name == "miter-heuristic":
        return Miter(seed, 6 if quick else 32, "heuristic", transpiled=True)
    if name == "tn-greedy":
        mix = (("ghz", 8), ("dj", 6), ("dj", 8)) if quick else TNGreedy.MIX
        return TNGreedy(seed, mix)
    raise ValueError(f"unknown workload {name!r}")
