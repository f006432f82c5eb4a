import gc
import json
import random
import sys
import threading
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from ddpath import (
    Edge,
    Kernel,
    alternating_path,
    concat_inverse,
    deutsch_jozsa,
    emit_qasm,
    execute,
    export_tensor_network,
    ghz,
    greedy_plan,
    heuristic_path,
    import_path,
    parse_qasm,
    qft,
    root_equal,
    sequential_path,
    transpile,
    validate,
    verify_equivalence,
)
from ddpath import oracle, simpath
from ddpath.circuit import GENERATORS, Circuit, Gate, cx, decomposition_cost, h, swap
from ddpath.errors import CapacityError, InvalidArgumentError, PathValidationError
from ddpath.gates import base_matrix
from ddpath.kernel import _level_count, _operator_shape
from ddpath.simpath import STRATEGIES, SimulationPath, load_path, make_path, save_path

from helpers import (random_circuit, reference_convex_validate, reference_greedy_plan,
                     reference_validate)

TREE_PATH_7 = ((0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11), (12, 13))
CHAIN_PATH_7 = ((0, 1), (2, 8), (3, 9), (4, 10), (5, 11), (6, 12), (7, 13))


def _matrix_vector(pairs, count):
    """Per task, whether its right operand carries the state, which starts
    at index 0 and moves into every result that absorbs it."""
    state = 0
    flags = []
    for k, (_, right) in enumerate(pairs, start=1):
        flags.append(right == state)
        if right == state:
            state = count + k
    return flags


class TestSequentialPath:
    def test_seven_gates_is_state_chain(self):
        assert sequential_path(7).tasks == CHAIN_PATH_7

    def test_single_gate(self):
        assert sequential_path(1).tasks == ((0, 1),)

    def test_zero_gates_give_the_empty_path(self):
        assert sequential_path(0) == SimulationPath(())
        c = Circuit(2)
        assert validate(sequential_path(0), c) == ()
        k = Kernel()
        initial = k.make_basis_state("10")
        final, stats = execute(c, sequential_path(0), k, initial)
        assert final is initial and final.node.ref == 1
        assert stats.task_count == 0 and stats.result_nodes == []
        assert stats.peak_nodes == stats.final_nodes == 2

    def test_negative_count_rejected(self):
        with pytest.raises(InvalidArgumentError):
            sequential_path(-1)

    def test_every_task_is_matrix_vector(self):
        c = qft(3)
        assert all(_matrix_vector(validate(sequential_path(7), c), 7))


class TestValidate:
    def test_tree_path_is_valid(self):
        pairs = validate(SimulationPath(TREE_PATH_7), qft(3))
        assert _matrix_vector(pairs, 7) == [True, False, False, False, True, False, True]

    def test_plan_style_chain_is_valid(self):
        assert all(_matrix_vector(validate(SimulationPath(CHAIN_PATH_7), qft(3)), 7))

    def test_skipping_noncommuting_gate_rejected(self):
        bad = SimulationPath(((0, 2), (1, 8), (3, 9), (4, 10), (5, 11),
                              (6, 12), (7, 13)))
        with pytest.raises(PathValidationError) as exc:
            validate(bad, qft(3))
        assert exc.value.task_index is not None

    def test_reused_index_rejected(self):
        bad = SimulationPath(((0, 1), (0, 2)))
        c = Circuit(2, (h(0), h(1)))
        with pytest.raises(PathValidationError) as exc:
            validate(bad, c)
        assert "already consumed" in str(exc.value)

    def test_wrong_task_count_rejected(self):
        with pytest.raises(PathValidationError):
            validate(SimulationPath(((0, 1),)), Circuit(2, (h(0), h(1))))

    def test_unknown_index_rejected(self):
        with pytest.raises(PathValidationError):
            validate(SimulationPath(((0, 9), (1, 2))), Circuit(2, (h(0), h(1))))

    def test_repeated_index_in_pair_rejected(self):
        with pytest.raises(PathValidationError):
            validate(SimulationPath(((1, 1), (0, 2))), Circuit(2, (h(0), h(1))))

    def test_disjoint_support_skip_accepted(self):
        # pairing two one-qubit gates across an unrelated one commutes freely
        c = Circuit(3, (h(0), h(1), h(2)))
        validate(SimulationPath(((1, 3), (2, 4), (0, 5))), c)

    def test_shared_qubit_skip_rejected(self):
        c = Circuit(1, (h(0), h(0), h(0)))
        with pytest.raises(PathValidationError):
            validate(SimulationPath(((1, 3), (2, 4), (0, 5))), c)


    def test_gate_sharing_a_qubit_may_be_skipped_when_it_commutes(self):
        # gate 2 (h on qubit 1) is skipped by the pair (1, 3) although it
        # shares qubit 1 with gate 3; it commutes with gate 1, so it may be
        # applied before both
        c = Circuit(2, (h(0), h(1), cx(0, 1)))
        path = SimulationPath(((1, 3), (0, 2), (4, 5)))
        assert validate(path, c) == reference_validate(path, c)
        k = Kernel()
        final, _ = execute(c, path, k)
        reference, _ = execute(c, sequential_path(3), k)
        assert root_equal(final, reference)

    def test_skipped_gate_that_does_not_commute_rejected_when_joined(self):
        c = Circuit(2, (h(0), cx(0, 1), cx(1, 0)))
        path = SimulationPath(((1, 3), (0, 2), (4, 5)))
        with pytest.raises(PathValidationError) as exc:
            validate(path, c)
        assert exc.value.task_index == 3

    def test_matches_reference_validator(self):
        # the convexity reference accepts the same paths and orients them
        # alike; validate may name a later task than the first pair that is
        # not convex, the one that joins the skipped gate
        rng = random.Random(41)
        accepted = rejected = gap_accepted = 0
        for trial in range(2000):
            c = random_circuit(rng, rng.randint(1, 8), rng.randint(1, 14))
            tasks, gaps = _random_pairs(rng, len(c.gates))
            path = SimulationPath(tasks)
            want = _outcome(reference_validate, path, c)
            assert _outcome(validate, path, c) == want, (trial, tasks)
            convex = _outcome(reference_convex_validate, path, c)
            assert convex[0] == want[0], (trial, tasks)
            assert convex == want if want[0] == "accept" else convex[1] <= want[1]
            if want[0] == "accept":
                accepted += 1
                gap_accepted += gaps > 0
            else:
                rejected += 1
        assert accepted > 500 and rejected > 1000 and gap_accepted > 150

    def test_structured_paths_match_reference_validator(self):
        # every strategy's path, and for the rejected cases the plain
        # tensor-network greedy plan (the reference planner without its
        # convexity rule), which reorders gates that share a qubit; the
        # all-pairs reference is too slow for the larger miters
        cases = [(gen(n), None, ("sequential", "greedy"))
                 for gen in GENERATORS.values() for n in range(2, 13)]
        for n in (2, 3, 4, 5, 8, 12, 16, 20, 32):
            names = STRATEGIES if n <= 16 else ("sequential", "alternating", "heuristic")
            cases.append((qft(n), qft(n), names))
            cases.append((qft(n), transpile(qft(n)), names))
        rejected = 0
        for g, g_prime, names in cases:
            combined = g if g_prime is None else concat_inverse(g, g_prime)
            split = None if g_prime is None else len(g.gates)
            paths = [make_path(name, combined, split) for name in names]
            if "greedy" in names and len(combined.gates) <= 160:
                paths.append(reference_greedy_plan(export_tensor_network(combined),
                                                   convex=False))
            for path in paths:
                want = _outcome(reference_validate, path, combined)
                assert _outcome(validate, path, combined) == want, (g, g_prime, path)
                rejected += want[0] == "reject"
        assert rejected > 10


def _outcome(fn, path, circuit):
    try:
        info = fn(path, circuit)
    except PathValidationError as exc:
        return ("reject", exc.task_index)
    return ("accept", info)


def _random_pairs(rng, count):
    """Random pair sequence over ``count`` gates and the number of pairs it
    took across a gap.  Most pairs join neighbours in hull order, some skip
    one operand, some are arbitrary, and a few name a spent or unknown index."""
    lo = {k: k for k in range(count + 1)}
    tasks = []
    gaps = 0
    for ti in range(1, count + 1):
        live = sorted(lo, key=lo.get)
        roll = rng.random()
        if roll < 0.03 or len(live) < 2:
            pair = (rng.randrange(2 * count + 2), rng.choice(live))
        elif roll < 0.6 or len(live) < 3:
            i = rng.randrange(len(live) - 1)
            pair = (live[i], live[i + 1])
        elif roll < 0.85:
            i = rng.randrange(len(live) - 2)
            pair = (live[i], live[i + 2])
            gaps += 1
        else:
            pair = tuple(rng.sample(live, 2))
        if rng.random() < 0.5:
            pair = pair[::-1]
        tasks.append(pair)
        spent = [lo.pop(x) for x in pair if x in lo]
        lo[count + ti] = min(spent, default=0)
    return tuple(tasks), gaps


class TestAlternatingPath:
    def test_small_structure(self):
        assert alternating_path(2, 2).tasks == ((2, 3), (1, 5), (6, 4), (0, 7))

    def test_task_count(self):
        p = alternating_path(7, 21)
        assert len(p.tasks) == 28

    def test_all_matrix_until_final(self):
        g = qft(3)
        combined = concat_inverse(g, g)
        pairs = validate(alternating_path(7, 7), combined)
        assert _matrix_vector(pairs, 14) == [False] * 13 + [True]

    def test_zero_counts_rejected(self):
        with pytest.raises(InvalidArgumentError):
            alternating_path(0, 3)

    def test_identity_intermediates_stay_small(self):
        n = 6
        g = qft(n)
        combined = concat_inverse(g, g)
        k = Kernel()
        gate_sizes = [k.node_count(k.make_gate(gt, n), n) for gt in combined.gates]
        final, stats = execute(combined, alternating_path(len(g.gates), len(g.gates)), k)
        assert root_equal(final, k.make_zero_state(n))
        assert stats.peak_nodes <= max(gate_sizes)


class TestHeuristicPath:
    def test_unit_costs_match_alternating(self):
        # a native circuit (cx, h, p) costs one gate per gate
        g = transpile(qft(3))
        count = len(g.gates)
        assert heuristic_path(concat_inverse(g, g), count).tasks == \
            alternating_path(count, count).tasks

    def test_consumption_schedule_follows_costs(self):
        g = qft(3)
        gp = transpile(g)
        ng = len(g.gates)
        p = heuristic_path(concat_inverse(g, gp), ng)
        schedule = []
        for a, b in p.tasks[:-1]:
            if 1 <= a <= ng or 1 <= b <= ng:
                schedule.append(0)
            else:
                schedule[-1] += 1
        # first entry also counts the primed gate consumed by the opening pair
        schedule[0] += 1
        assert schedule == [3, 1, 5, 1, 5, 5, 1]

    def test_matches_sequential_final_state(self):
        g = qft(3)
        gp = transpile(g)
        combined = concat_inverse(g, gp)
        k = Kernel()
        f_heur, _ = execute(combined, heuristic_path(combined, len(g.gates)), k)
        f_seq, _ = execute(combined, sequential_path(len(combined.gates)), k)
        assert root_equal(f_heur, f_seq)

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_costs_that_do_not_fit_weave_one_for_one(self, n):
        # the costs of qft(n) sum to len(transpile(qft(n))), not to len(qft(n))
        g, gp = qft(n), transpile(qft(n))
        costs = sum(decomposition_cost(gate.kind) for gate in g.gates)
        assert costs == len(gp.gates) != len(g.gates)
        count = len(g.gates)
        assert heuristic_path(concat_inverse(g, g), count).tasks == \
            alternating_path(count, count).tasks
        assert heuristic_path(concat_inverse(g, gp), count).tasks != \
            alternating_path(count, len(gp.gates)).tasks

    def test_missing_cost_weaves_one_for_one(self):
        # a u gate has no decomposition rule, so G' cannot be the transpiled G
        c = Circuit(2, (Gate("u", (0,), matrix=(0, 1, 1, 0)), h(1)))
        assert heuristic_path(concat_inverse(c, c), 2).tasks == alternating_path(2, 2).tasks
        assert verify_equivalence(c, c, "heuristic").verdict == "consistent"


class TestExecute:
    @pytest.mark.parametrize("tasks", [
        ((1, 2), (0, 5), (3, 6), (4, 7)),
        ((1, 2), (3, 5), (0, 6), (4, 7)),
    ], ids=["identity-times-state", "gate-times-identity"])
    def test_identity_result_is_an_operand(self, tasks):
        # h(0)·h(0) is the identity, a terminal edge with no node; the next
        # task takes it as an operator operand
        n = 3
        c = Circuit(n, (h(0), h(0), cx(0, 1), h(2)))
        k = Kernel()
        first = []
        final, stats = execute(c, SimulationPath(tasks), k,
                               observer=lambda i, e: i == 1 and first.append(e))
        assert first[0].node is None and root_equal(first[0], k.one_terminal)
        assert stats.result_nodes[0] == n
        want, _ = execute(c, sequential_path(4), k)
        assert root_equal(final, want)

    def test_cross_path_final_roots_agree(self):
        c = qft(3)
        k = Kernel()
        f_seq, _ = execute(c, sequential_path(7), k)
        f_tree, _ = execute(c, SimulationPath(TREE_PATH_7), k)
        f_chain, _ = execute(c, SimulationPath(CHAIN_PATH_7), k)
        assert root_equal(f_seq, f_tree) and root_equal(f_seq, f_chain)

    def test_ghz_final_node_count(self):
        k = Kernel()
        final, stats = execute(ghz(3), kernel=k)
        assert stats.final_nodes == 5 and k.node_count(final) == 5

    def test_entangled_qft_final_node_count(self):
        from ddpath import entangled_qft
        k = Kernel()
        _, stats = execute(entangled_qft(3), kernel=k)
        assert stats.final_nodes == 7

    def test_task_count_matches_gates(self):
        rng = random.Random(21)
        c = random_circuit(rng, 4, 17)
        _, stats = execute(c)
        assert stats.task_count == 17 and len(stats.result_nodes) == 17
        assert stats.peak_nodes >= stats.final_nodes

    def test_peak_counts_gate_diagrams_on_a_warm_kernel(self):
        # the state stays a basis state (n nodes) while each swap diagram is
        # larger, so the peak is a gate size; runs on a kernel whose matrix
        # cache and unique table already hold every gate find their nodes
        # there and must report the same peak
        n = 6
        c = Circuit(n, (swap(0, n - 1), swap(1, n - 2), swap(0, n - 1), h(2)))
        k = Kernel()
        sizes = [k.node_count(k.make_gate(g, n), n) for g in c.gates]
        assert list(k._matrices) == [base_matrix("h")]
        _, first = execute(c, kernel=k)
        _, second = execute(c, kernel=k)
        _, fresh = execute(c, kernel=Kernel())
        assert first.peak_nodes == second.peak_nodes == fresh.peak_nodes == max(sizes) > n

    def test_path_independence_amplitudes(self):
        rng = random.Random(33)
        for _ in range(5):
            c = random_circuit(rng, 4, 12)
            k = Kernel()
            f_seq, _ = execute(c, kernel=k)
            tree = _balanced_tree_path(len(c.gates))
            f_tree, _ = execute(c, tree, k)
            dev = oracle.compare_states(k.to_vector(f_seq), k.to_vector(f_tree))
            assert dev < 1e-9

    def test_initial_state_qubit_mismatch(self):
        k = Kernel()
        with pytest.raises(InvalidArgumentError):
            execute(ghz(3), kernel=k, initial=k.make_zero_state(2))

    def test_operator_as_initial_state_rejected(self):
        k = Kernel()
        with pytest.raises(InvalidArgumentError, match="vector"):
            execute(ghz(2), kernel=k, initial=k.make_gate(h(1), 2))

    def test_observer_sees_every_task(self):
        seen = []
        execute(ghz(4), observer=lambda i, e: seen.append(i))
        assert seen == [1, 2, 3, 4]

    def test_stats_json_schema(self):
        _, stats = execute(ghz(3))
        data = stats.to_json()
        assert set(data) == {"task_count", "tasks", "peak_nodes", "final_nodes",
                             "elapsed_ns"}
        assert data["tasks"][0] == {"task_index": 1,
                                    "result_nodes": stats.result_nodes[0]}


def _balanced_tree_path(count):
    """Pair up neighbours repeatedly until one result remains."""
    level = list(range(count + 1))
    nxt = count + 1
    tasks = []
    while len(level) > 1:
        merged = []
        for i in range(0, len(level) - 1, 2):
            tasks.append((level[i], level[i + 1]))
            merged.append(nxt)
            nxt += 1
        if len(level) % 2:
            merged.append(level[-1])
        level = merged
    return SimulationPath(tuple(tasks))


class TestSeparation:
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_sequential_exponential_alternating_linear(self, n):
        g = qft(n)
        combined = concat_inverse(g, g)
        k = Kernel()
        initial, _ = execute(ghz(n), kernel=k)
        k.inc_ref(initial)
        _, seq = execute(combined, sequential_path(len(combined.gates)), k, initial)
        _, alt = execute(combined, alternating_path(len(g.gates), len(g.gates)), k, initial)
        assert seq.peak_nodes >= 2 ** n - 1
        assert alt.peak_nodes <= 8 * n


class TestVerifyEquivalence:
    def test_identical_circuits_consistent(self):
        res = verify_equivalence(qft(4), qft(4), "alternating")
        assert res.verdict == "consistent"
        assert res.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_transpiled_consistent_under_all_strategies(self):
        g = qft(4)
        gp = transpile(g)
        for strategy in ("sequential", "alternating", "heuristic"):
            res = verify_equivalence(g, gp, strategy)
            assert res.verdict == "consistent", strategy

    def test_perturbed_angle_inconsistent(self):
        # perturb the last phase gate: its inverse is applied first, to the
        # fully superposed state, so a 1e-3 angle error must be visible
        g = qft(4)
        gates = list(transpile(g).gates)
        at = max(i for i, gt in enumerate(gates) if gt.kind == "p")
        gt = gates[at]
        gates[at] = Gate("p", gt.targets, gt.controls, gt.parameter + 1e-3)
        gp = Circuit(g.num_qubits, tuple(gates))
        for strategy in ("sequential", "alternating", "heuristic"):
            res = verify_equivalence(g, gp, strategy)
            assert res.verdict == "inconsistent", strategy
            assert res.fidelity < 1 - 1e-9

    def test_x_vs_empty_inconsistent(self):
        gx = Circuit(1, (Gate("x", (0,)),))
        res = verify_equivalence(gx, Circuit(1), "alternating")
        assert res.verdict == "inconsistent"

    def test_failed_run_releases_initial(self):
        k = Kernel()
        initial = k.make_zero_state(2)
        with pytest.raises(InvalidArgumentError):
            verify_equivalence(qft(3), qft(3), "sequential", k, initial)
        assert initial.node.ref == 0

    def test_too_deep_inner_product_is_capacity_error(self, monkeypatch):
        def too_deep(self, a, b):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(Kernel, "inner_product", too_deep)
        k = Kernel()
        initial = k.make_zero_state(3)
        with pytest.raises(CapacityError, match="inner product"):
            verify_equivalence(qft(3), qft(3), "sequential", k, initial)
        assert initial.node.ref == 0
        # neither the initial state nor the final one stays held
        k.gc()
        assert k.unique_size == 0

    def test_both_empty_consistent(self):
        res = verify_equivalence(Circuit(2), Circuit(2))
        assert res.verdict == "consistent" and res.fidelity == 1.0
        assert res.stats.task_count == 0

    @pytest.mark.parametrize("g", [Circuit(2), qft(2)], ids=["empty", "qft2"])
    def test_final_holds_one_caller_reference(self, g):
        # the empty miter runs the empty path, whose final edge is the
        # initial state; it is held once for the caller like any other final
        k = Kernel()
        res = verify_equivalence(g, g, "alternating", k, k.make_zero_state(2))
        assert res.final.node.ref == 1
        assert len(res.path.tasks) == 2 * len(g.gates)


class TestPathFiles:
    def test_round_trip(self, tmp_path):
        p = sequential_path(5)
        f = tmp_path / "path.json"
        save_path(p, str(f))
        again = load_path(str(f))
        assert again == p
        data = json.loads(f.read_text())
        assert set(data) == {"gate_count", "path"}

    def test_make_path_dispatch(self):
        miter = concat_inverse(qft(3), qft(3))
        assert make_path("sequential", miter, 7).tasks == sequential_path(14).tasks
        assert make_path("alternating", miter, 7).tasks == alternating_path(7, 7).tasks
        with pytest.raises(InvalidArgumentError):
            make_path("nope", miter, 7)

    @pytest.mark.parametrize("name", ["alternating", "heuristic"])
    def test_woven_strategies_need_the_split(self, name):
        g = qft(3)
        with pytest.raises(InvalidArgumentError, match="needs a second circuit"):
            make_path(name, concat_inverse(g, g))
        # a miter with an empty half runs the chain
        for split in (0, 7):
            assert make_path(name, g, split).tasks == sequential_path(7).tasks
        for split in (-1, 15):
            with pytest.raises(InvalidArgumentError, match="both halves"):
                make_path(name, concat_inverse(g, g), split)

    def test_greedy_plans_on_the_circuit_as_given(self):
        miter = concat_inverse(qft(3), transpile(qft(3)))
        want = greedy_plan(export_tensor_network(miter)).tasks
        assert make_path("greedy", miter, 7).tasks == want
        assert make_path("greedy", miter).tasks == want

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(0, 10 ** 9), st.integers(1, 4), st.integers(1, 10), st.booleans())
    def test_every_strategy_reproduces_sequential(self, seed, n, depth, transpiled):
        # every circuit without "u" gates transpiles
        g = random_circuit(random.Random(seed), n, depth, allow_u=False)
        g_prime = transpile(g) if transpiled else g
        combined = concat_inverse(g, g_prime)
        k = Kernel()
        reference, _ = execute(combined, kernel=k)
        for name in STRATEGIES:
            final, _ = execute(combined, make_path(name, combined, len(g.gates)), k)
            assert root_equal(final, reference), name


@contextmanager
def collector_off():
    was_on = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_on:
            gc.enable()


def _greedy_execute():
    c = deutsch_jozsa(6)
    return execute(c, import_path(greedy_plan(export_tensor_network(c)), c))


class TestCollectorPause:
    """execute pauses Python's cyclic collector.  That leaks nothing only
    while everything the library builds is freed by reference counting."""

    @pytest.mark.parametrize("job", [
        lambda: execute(qft(5)),
        _greedy_execute,
        lambda: verify_equivalence(qft(4), transpile(qft(4)), "sequential"),
        lambda: verify_equivalence(qft(4), transpile(qft(4)), "alternating"),
        lambda: verify_equivalence(qft(4), transpile(qft(4)), "heuristic"),
        lambda: parse_qasm(emit_qasm(transpile(qft(4)))),
        lambda: greedy_plan(export_tensor_network(deutsch_jozsa(6))),
    ], ids=["execute-sequential", "execute-greedy", "verify-sequential",
            "verify-alternating", "verify-heuristic", "parse-qasm", "greedy-plan"])
    def test_leaves_no_cyclic_garbage(self, job):
        with collector_off():
            job()
            assert gc.collect() == 0

    def test_enabled_stays_enabled(self):
        assert gc.isenabled()
        execute(ghz(4))
        assert gc.isenabled()

    def test_disabled_stays_disabled(self):
        with collector_off():
            execute(ghz(4))
            assert not gc.isenabled()

    @pytest.mark.parametrize("was_on", [True, False])
    def test_restored_after_path_error(self, was_on):
        with collector_off():
            if was_on:
                gc.enable()
            with pytest.raises(PathValidationError):
                execute(qft(3), SimulationPath(((0, 2),) + CHAIN_PATH_7[1:]))
            assert gc.isenabled() is was_on

    @pytest.mark.parametrize("was_on", [True, False])
    def test_restored_after_bad_initial_state(self, was_on):
        k = Kernel()
        with collector_off():
            if was_on:
                gc.enable()
            with pytest.raises(InvalidArgumentError):
                execute(ghz(3), kernel=k, initial=k.make_zero_state(2))
            assert gc.isenabled() is was_on

    def test_overlapping_threads_leave_it_enabled(self):
        expected = execute(qft(6))[1].result_nodes
        results = []

        def work():
            for _ in range(3):
                results.append(execute(qft(6), kernel=Kernel())[1].result_nodes)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [expected] * 12
        assert gc.isenabled()

    def test_run_that_finds_it_paused_leaves_it_alone(self, monkeypatch):
        # run B reads the collector while run A has it paused, and goes on
        # only after A has turned it back on; B must not pause it then
        a_paused = threading.Event()
        b_read = threading.Event()
        a_done = threading.Event()

        class Shim:
            enable = staticmethod(gc.enable)
            disable = staticmethod(gc.disable)

            @staticmethod
            def isenabled():
                on = gc.isenabled()
                if threading.current_thread() is b:
                    b_read.set()
                    a_done.wait(30)
                return on

        def hold_at_first_task(ti, _):
            if ti == 1:
                a_paused.set()
                b_read.wait(30)

        def run_a():
            try:
                execute(ghz(4), observer=hold_at_first_task)
            finally:
                a_done.set()

        a = threading.Thread(target=run_a)
        b = threading.Thread(target=lambda: execute(ghz(4)))
        assert gc.isenabled()
        monkeypatch.setattr(simpath, "gc", Shim)
        try:
            a.start()
            assert a_paused.wait(30)
            b.start()
            a.join(timeout=60)
            b.join(timeout=60)
            assert not a.is_alive() and not b.is_alive()
            assert b_read.is_set()
            assert gc.isenabled()
        finally:
            gc.enable()


class TestOneValidation:
    """``execute`` is the one caller of ``validate`` in a run, whatever
    built the path."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        real = simpath.validate

        def counted(path, circuit):
            calls.append(path)
            return real(path, circuit)

        monkeypatch.setattr(simpath, "validate", counted)
        return calls

    @staticmethod
    def _files(tmp_path, path, stem):
        """``file:`` and ``plan:`` names for ``path``, one per schema."""
        f = tmp_path / f"{stem}-path.json"
        save_path(path, str(f))
        p = tmp_path / f"{stem}-plan.json"
        p.write_text(json.dumps({"pairs": [list(t) for t in path.tasks]}))
        return (f"file:{f}", f"plan:{p}")

    def test_make_path_validates_nothing(self, calls, tmp_path):
        g, g_prime = qft(3), transpile(qft(3))
        combined = concat_inverse(g, g_prime)
        for name in STRATEGIES + self._files(tmp_path, greedy_plan(
                export_tensor_network(combined)), "miter"):
            make_path(name, combined, len(g.gates))
        for name in ("sequential", "greedy") + self._files(
                tmp_path, sequential_path(len(g.gates)), "single"):
            make_path(name, g)
        assert calls == []

    def test_execute_validates_once(self, calls, tmp_path):
        c = qft(4)
        k = Kernel()
        want, _ = execute(c, kernel=k)
        for name in ("sequential", "greedy") + self._files(
                tmp_path, greedy_plan(export_tensor_network(c)), "qft"):
            calls.clear()
            final, _ = execute(c, make_path(name, c), k)
            assert len(calls) == 1, name
            assert root_equal(final, want), name

    def test_each_verify_validates_once(self, calls, tmp_path):
        g, g_prime = qft(3), transpile(qft(3))
        combined = concat_inverse(g, g_prime)
        for name in STRATEGIES + self._files(tmp_path, greedy_plan(
                export_tensor_network(combined)), "miter"):
            calls.clear()
            assert verify_equivalence(g, g_prime, name).verdict == "consistent"
            assert len(calls) == 1, name

    def test_each_verify_builds_the_miter_once(self, monkeypatch):
        builds = []
        real = simpath.concat_inverse

        def counted(g, g_prime):
            builds.append((g, g_prime))
            return real(g, g_prime)

        monkeypatch.setattr(simpath, "concat_inverse", counted)
        g, g_prime = qft(3), transpile(qft(3))
        for name in STRATEGIES:
            builds.clear()
            assert verify_equivalence(g, g_prime, name).verdict == "consistent"
            assert len(builds) == 1, name

    def test_reordering_file_fails_in_execute_before_the_first_product(
            self, calls, tmp_path):
        c = ghz(3)
        bad = SimulationPath(((0, 3), (1, 4), (2, 5)))
        for name in self._files(tmp_path, bad, "bad"):
            calls.clear()
            path = make_path(name, c)
            assert calls == []
            products = []
            with pytest.raises(PathValidationError) as info:
                execute(c, path, observer=lambda ti, _: products.append(ti))
            assert info.value.task_index == 3
            assert "pair (2, 5) would reorder gate 3 above gate 2" in str(info.value)
            assert len(calls) == 1 and products == []


def _random_job(strategy):
    def job(k):
        c = random_circuit(random.Random(11), 4, 14)
        return execute(c, make_path(strategy, c), k)
    return job


def _miter_job(strategy):
    def job(k):
        res = verify_equivalence(qft(5), qft(5), strategy, k)
        assert res.verdict == "consistent"
        return res.final, res.stats
    return job


class TestInRunGc:
    """With the sweep floor at 1, ``execute`` runs ``Kernel.gc`` during
    small runs: the run's live operands are its roots, and a node a caller
    holds through ``inc_ref`` survives."""

    @pytest.mark.parametrize("job", [
        _random_job("sequential"), _random_job("greedy"),
        _miter_job("sequential"), _miter_job("alternating"), _miter_job("heuristic"),
    ], ids=["random-sequential", "random-greedy", "miter-sequential",
            "miter-alternating", "miter-heuristic"])
    def test_sweeps_change_no_result(self, monkeypatch, job):
        plain = Kernel()
        want_final, want = job(plain)
        monkeypatch.setattr(simpath, "_GC_FLOOR", 1)
        k = Kernel()
        # a gate diagram, since the identity is a terminal edge with no node
        held = k.make_gate(swap(0, 4), 5)
        k.inc_ref(held)
        sweeps = []
        sweep = k.gc
        k.gc = lambda roots=(): sweeps.append(1) or sweep(roots)
        final, stats = job(k)
        assert len(sweeps) >= 2
        assert k.signature(final) == plain.signature(want_final)
        assert stats.peak_nodes == want.peak_nodes
        assert stats.result_nodes == want.result_nodes
        # rebuilt after the matrix cache was emptied, onto the held nodes
        assert root_equal(held, k.make_gate(swap(0, 4), 5))
        live = {node for node in k._unique.values() if node.ref > 0}
        assert live == {held.node, final.node}
        assert held.node.ref == 1 and final.node.ref == 1


_PUBLIC_EDGES = ("make_zero_state", "make_basis_state", "make_gate",
                 "multiply_mv", "multiply_mm")


def _recorded(name):
    def method(self, *args):
        e = getattr(Kernel, name)(self, *args)
        self.returned[name].append(e)
        return e
    return method


class _RecordingKernel(Kernel):
    """``Kernel`` that keeps every edge its public constructors and
    products return."""

    def __init__(self):
        super().__init__()
        self.returned = {name: [] for name in _PUBLIC_EDGES}

    make_zero_state = _recorded("make_zero_state")
    make_basis_state = _recorded("make_basis_state")
    make_gate = _recorded("make_gate")
    multiply_mv = _recorded("multiply_mv")
    multiply_mm = _recorded("multiply_mm")


def _ghz_miter(g, g_prime, n, strategy):
    """``verify_equivalence(g, g_prime)`` from a GHZ state, as the
    benchmark's miter workloads run it: the kernel, the final edges of
    ``execute`` and ``verify_equivalence``, and the result."""
    k = _RecordingKernel()
    initial, _ = execute(ghz(n), kernel=k)
    start = k._uid
    res = verify_equivalence(g, g_prime, strategy, k, initial)
    # every stored node takes the next uid, so this counts the nodes the
    # verify run built
    k.created = k._uid - start
    return k, (initial, res.final), res


@pytest.fixture(scope="module")
def benchmark_runs():
    """The two benchmark miters and a greedy run, each on its own
    recording kernel, which then also builds a basis state."""
    g = qft(32)
    c = deutsch_jozsa(64)
    k = _RecordingKernel()
    final, stats = execute(c, make_path("greedy", c), k)
    runs = {
        "sequential": _ghz_miter(qft(14), qft(14), 14, "sequential"),
        "heuristic": _ghz_miter(parse_qasm(emit_qasm(g)),
                                parse_qasm(emit_qasm(transpile(g))), 32, "heuristic"),
        "greedy": (k, (final,), stats),
    }
    for kernel, _, _ in runs.values():
        kernel.make_basis_state("0110")
    return runs


class TestBenchmarkMiters:
    """The node counts of the two miters the benchmark times; its greedy
    jobs are pinned in ``test_tnbridge``."""

    @pytest.mark.parametrize("name,tasks,peak,final", [
        ("sequential", 224, 16383, 27), ("heuristic", 3104, 125, 63)])
    def test_counts_and_verdict(self, benchmark_runs, name, tasks, peak, final):
        res = benchmark_runs[name][2]
        assert res.verdict == "consistent"
        assert (res.stats.task_count, res.stats.peak_nodes,
                res.stats.final_nodes) == (tasks, peak, final)

    @pytest.mark.parametrize("name,created", [("sequential", 50376), ("heuristic", 4652)])
    def test_nodes_created(self, benchmark_runs, name, created):
        # the GHZ preparation is left out
        assert benchmark_runs[name][0].created == created


class TestEdgeBoundary:
    """Inside the kernel an edge is a plain ``(weight, node)`` pair and a
    node keeps its successors in one flat tuple ``succ``; ``node.edges``
    builds ``Edge``s from it on each read, and what the kernel returns is an
    ``Edge``, whose ``.w`` and ``.node`` callers read."""

    @pytest.mark.parametrize("name", ["sequential", "heuristic", "greedy"])
    def test_stored_successors_are_edges(self, benchmark_runs, name):
        k = benchmark_runs[name][0]
        assert k._unique
        for node in k._unique.values():
            assert all(type(s) is Edge for s in node.edges), node

    @pytest.mark.parametrize("name", ["sequential", "heuristic"])
    def test_stored_vector_node_size(self, benchmark_runs, name):
        # a 64-byte node and its flat 4-tuple; a node holding a tuple of
        # two Edges took 232 bytes
        k = benchmark_runs[name][0]
        vectors = [node for node in k._unique.values() if len(node.succ) == 4]
        assert vectors
        for node in vectors:
            assert sys.getsizeof(node) + sys.getsizeof(node.succ) <= 136, node

    @pytest.mark.parametrize("name", ["sequential", "heuristic", "greedy"])
    def test_public_results_are_edges(self, benchmark_runs, name):
        k = benchmark_runs[name][0]
        for method, edges in k.returned.items():
            # the sequential miter multiplies no two operators
            if method != "multiply_mm" or name != "sequential":
                assert edges, method
            assert all(type(e) is Edge for e in edges), method

    @pytest.mark.parametrize("name", ["sequential", "heuristic", "greedy"])
    def test_final_edges_are_edges(self, benchmark_runs, name):
        assert all(type(e) is Edge for e in benchmark_runs[name][1])


class TestKernelBookkeeping:
    """On the heuristic miter every operator stays gate-sized, so what the
    kernel keeps beside its nodes is most of what the run holds: one key
    object per node, one matrix-cache entry per base matrix and one int per
    counted root."""

    @pytest.mark.parametrize("name", ["sequential", "heuristic", "greedy"])
    def test_every_key_is_the_node_succ(self, benchmark_runs, name):
        k = benchmark_runs[name][0]
        for key, node in k._unique.items():
            assert key is node.succ, node

    def test_stored_operator_node_size(self, benchmark_runs):
        # a 64-byte node and its 9-tuple, the level last, which is also
        # its key
        k = benchmark_runs["heuristic"][0]
        operators = [node for node in k._unique.values() if len(node.succ) != 4]
        assert len(operators) > 1000
        for node in operators:
            assert len(node.succ) == 9 and node.succ[8] == node.level, node
            assert sys.getsizeof(node) + sys.getsizeof(node.succ) <= 176, node

    def test_one_matrix_entry_per_base_matrix(self, benchmark_runs):
        k, _, res = benchmark_runs["heuristic"]
        gates = ghz(32).gates + res.combined.gates
        matrices = {base_matrix(g.kind, g.parameter, g.matrix)
                    for g in gates if g.kind != "swap"}
        assert set(k._matrices) == matrices
        assert len(matrices) < len(gates) / 10

    def test_shape_entries_are_ints(self, benchmark_runs):
        k = benchmark_runs["heuristic"][0]
        assert len(k._shapes) > 1000
        for root, shape in k._shapes.items():
            assert type(shape) is int
            if len(root.succ) == 4:
                count = _level_count(root)
                want = (count, count == (2 << root.level) - 1)
            else:
                want = _operator_shape(root)
            assert (shape >> 1, shape & 1 == 1) == want == k._shape(root)
