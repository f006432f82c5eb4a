import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from ddpath import (
    Kernel,
    concat_inverse,
    emit_qasm,
    execute,
    export_tensor_network,
    ghz,
    greedy_plan,
    import_path,
    parse_qasm,
    qft,
    root_equal,
    sequential_path,
    transpile,
    validate,
)
from ddpath import cli
from ddpath.circuit import GENERATORS, Circuit, Gate, deutsch_jozsa, graph_state
from ddpath.errors import InvalidArgumentError, PathValidationError, PlanningError
from ddpath.simpath import SimulationPath, load_path
from ddpath.tnbridge import LiveOrder, Tensor, TensorNetworkDescription

from helpers import _LiveOrder, _reach, random_circuit, reference_greedy_plan


def layered_circuit(rng: random.Random, n: int, depth: int) -> Circuit:
    """H on every qubit, then ``depth`` layers: one gate from {sx, ry(pi/2),
    t} per qubit, then cz on alternating nearest-neighbour pairs."""
    gates = [Gate("h", (q,)) for q in range(n)]
    for layer in range(depth):
        for q in range(n):
            kind = rng.choice(("sx", "ry", "t"))
            gates.append(Gate(kind, (q,), parameter=math.pi / 2 if kind == "ry" else None))
        gates += [Gate("cz", (q + 1,), (q,)) for q in range(layer % 2, n - 1, 2)]
    return Circuit(n, tuple(gates))


class TestExport:
    def test_qft3_shape(self):
        tn = export_tensor_network(qft(3))
        assert len(tn.tensors) == 8
        state = tn.tensors[0]
        assert state.tag == "state" and state.shape == (2, 2, 2)
        assert state.id == 0
        assert [t.id for t in tn.tensors] == list(range(8))

    def test_ghz2_ranks(self):
        tn = export_tensor_network(ghz(2))
        assert [len(t.indices) for t in tn.tensors] == [2, 2, 4]

    def test_empty_circuit(self):
        tn = export_tensor_network(Circuit(3))
        assert len(tn.tensors) == 1
        assert tn.output_indices == tn.tensors[0].indices

    def test_shared_indices_appear_twice(self):
        tn = export_tensor_network(qft(4))
        seen: dict[str, int] = {}
        for t in tn.tensors:
            for ix in t.indices:
                seen[ix] = seen.get(ix, 0) + 1
        for ix in tn.output_indices:
            seen[ix] = seen.get(ix, 0) + 1
        assert all(count == 2 for count in seen.values())
        assert len(tn.output_indices) == 4


class TestGreedyPlan:
    def test_single_gate(self):
        plan = greedy_plan(export_tensor_network(ghz(1)))
        assert plan.tasks == ((0, 1),)

    def test_qft3_step_count(self):
        plan = greedy_plan(export_tensor_network(qft(3)))
        assert len(plan.tasks) == 7

    @pytest.mark.parametrize("circuit", [qft(4), ghz(3), Circuit(2),
                                         concat_inverse(qft(3), transpile(qft(3)))],
                             ids=["qft4", "ghz3", "empty", "qft3-miter"])
    def test_plan_validates_as_returned(self, circuit):
        plan = greedy_plan(export_tensor_network(circuit))
        assert len(validate(plan, circuit)) == len(circuit.gates)
        assert import_path(plan, circuit) is plan

    def test_imported_plan_matches_sequential(self):
        c = qft(3)
        plan = greedy_plan(export_tensor_network(c))
        path = import_path(plan, c)
        k = Kernel()
        f_greedy, _ = execute(c, path, k)
        f_seq, _ = execute(c, sequential_path(len(c.gates)), k)
        assert root_equal(f_greedy, f_seq)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(0, 10 ** 9), st.booleans())
    def test_plans_run_and_match_sequential(self, seed, layered):
        # the plan of an exported circuit never runs out of legal pairs and
        # always passes validate; the sizes come from the seed, spread evenly
        rng = random.Random(seed)
        n = rng.randint(2, 8)
        c = layered_circuit(rng, n, rng.randint(1, 8)) if layered \
            else random_circuit(rng, n, rng.randint(5, 40))
        path = import_path(greedy_plan(export_tensor_network(c)), c)
        k = Kernel()
        f_greedy, _ = execute(c, path, k)
        f_seq, _ = execute(c, kernel=k)
        assert root_equal(f_greedy, f_seq)

    def test_disconnected_network_rejected(self):
        tn = TensorNetworkDescription(
            2,
            (Tensor(0, ("a",), (2,), "state"), Tensor(1, ("b",), (2,), 1)),
            ("a", "b"))
        with pytest.raises(PlanningError):
            greedy_plan(tn)


def _network(*index_sets):
    tensors = tuple(Tensor(i, tuple(ix), (2,) * len(ix), i or "state")
                    for i, ix in enumerate(index_sets))
    return TensorNetworkDescription(1, tensors, ())


class TestGreedyPlanMatchesReference:
    """The heap-driven planner emits exactly the all-pairs reference's plan."""

    @pytest.mark.parametrize("family", sorted(GENERATORS))
    def test_generator_families(self, family):
        for n in range(2, 15):
            tn = export_tensor_network(GENERATORS[family](n))
            assert greedy_plan(tn).tasks == reference_greedy_plan(tn).tasks, n

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_qft_transpile_miters(self, n):
        tn = export_tensor_network(concat_inverse(qft(n), transpile(qft(n))))
        assert greedy_plan(tn).tasks == reference_greedy_plan(tn).tasks

    def test_random_qasm_circuits(self):
        rng = random.Random(2203)
        for i in range(200):
            c = random_circuit(rng, rng.randint(2, 6), rng.randint(1, 25),
                               allow_u=False, allow_controls=False)
            c = parse_qasm(emit_qasm(c))
            tn = export_tensor_network(c)
            plan = greedy_plan(tn)
            assert plan.tasks == reference_greedy_plan(tn).tasks, i
            import_path(plan, c)

    def test_merged_tensor_stands_for_both_of_its_pair(self):
        # a 13-gate circuit whose plan goes wrong when a merged tensor is
        # known to the tensors before it by a bit they do not all hold
        c = Circuit(6, (
            Gate("cz", (0,), (3,)), Gate("cx", (4,), (0,)), Gate("z", (1,)),
            Gate("cp", (3,), (4,), -1.98), Gate("cp", (0,), (2,), 2.46),
            Gate("cx", (0,), (1,)), Gate("s", (0,)), Gate("cp", (4,), (5,), -1.06),
            Gate("z", (1,)), Gate("swap", (5, 2)), Gate("t", (4,)),
            Gate("cx", (0,), (3,)), Gate("cz", (2,), (1,))))
        tn = export_tensor_network(c)
        plan = greedy_plan(tn)
        assert plan == reference_greedy_plan(tn)
        import_path(plan, c)

    def test_valid_tensor_network_plans_are_kept(self):
        # where the plain tensor-network greedy, which ignores the order of
        # the gates, already gives a valid path, the convexity rule never
        # rejects the pair it picks, so the plan is the same
        rng = random.Random(13)
        circuits = [GENERATORS[f](n) for f in sorted(GENERATORS) for n in range(2, 11)]
        circuits += [random_circuit(rng, rng.randint(2, 5), rng.randint(1, 20))
                     for _ in range(60)]
        circuits += [layered_circuit(rng, rng.randint(2, 5), rng.randint(1, 5))
                     for _ in range(30)]
        kept = 0
        for c in circuits:
            tn = export_tensor_network(c)
            plain = reference_greedy_plan(tn, convex=False)
            try:
                import_path(plain, c)
            except PathValidationError:
                continue
            assert greedy_plan(tn) == plain, c
            kept += 1
        assert 100 < kept < len(circuits)

    def test_label_held_by_three_tensors(self):
        # only a hand-written or imported network can share one label
        # between more than two tensors; after a merge the third keeps it
        tn = _network(("a", "b"), ("a", "c"), ("a", "d"), ("b", "c", "e"), ("d", "e"))
        plan = greedy_plan(tn)
        assert plan.tasks == reference_greedy_plan(tn).tasks
        assert len(plan.tasks) == 4

    def test_random_networks_with_widely_shared_labels(self):
        # labels drawn from a small alphabet are held by up to all tensors,
        # and some networks end disconnected: both planners agree on either
        rng = random.Random(78)

        def outcome(planner, tn):
            try:
                return planner(tn).tasks
            except PlanningError as exc:
                return str(exc)

        for i in range(300):
            tn = _network(*(rng.sample("abcdefg", rng.randint(1, 3))
                            for _ in range(rng.randint(2, 10))))
            assert outcome(greedy_plan, tn) == outcome(reference_greedy_plan, tn), i

    def test_same_error_on_disconnected_network(self):
        tn = _network(("a", "b"), ("a",), ("b",), ("c", "d"), ("c",))
        messages = []
        for planner in (greedy_plan, reference_greedy_plan):
            with pytest.raises(PlanningError) as exc:
                planner(tn)
            messages.append(str(exc.value))
        assert messages[0] == messages[1] == \
            "network is disconnected or leaves no legal merge; 2 tensors remain"

    def test_large_ids_plan_quickly(self):
        # the planner's bitsets have one bit per tensor, not per id value
        tn = TensorNetworkDescription(
            1, (Tensor(0, ("a",), (2,), "state"), Tensor(10 ** 12, ("a", "b"), (2, 2), 1),
                Tensor(10 ** 15, ("b",), (2,), 2)), ())
        assert greedy_plan(tn).tasks == reference_greedy_plan(tn).tasks == (
            (0, 10 ** 12), (10 ** 15, 10 ** 15 + 1))

    def test_same_error_on_duplicate_ids(self):
        tn = TensorNetworkDescription(
            1, (Tensor(0, ("a",), (2,), "state"), Tensor(0, ("a",), (2,), 1)), ())
        for planner in (greedy_plan, reference_greedy_plan):
            with pytest.raises(PlanningError, match="^duplicate tensor ids$"):
                planner(tn)

    @pytest.mark.parametrize("circuit,peak", [
        (ghz(128), 255), (deutsch_jozsa(64), 127), (deutsch_jozsa(72), 143)])
    def test_benchmark_peaks(self, circuit, peak):
        path = import_path(greedy_plan(export_tensor_network(circuit)), circuit)
        _, stats = execute(circuit, path)
        assert stats.peak_nodes == peak


class TestLiveOrder:
    @staticmethod
    def _random_merges(seed):
        """Merge random legal pairs of a random circuit's network until one
        tensor is left; yield the live labels, the ``LiveOrder`` and the
        reference order at the start and after every merge."""
        rng = random.Random(seed)
        c = random_circuit(rng, rng.randint(2, 6), rng.randint(2, 25))
        labels = {t.id: frozenset(t.indices) for t in export_tensor_network(c).tensors}
        order = LiveOrder(labels, {(a, b) for a in labels for b in labels
                                   if a < b and labels[a] & labels[b]})
        reference = _LiveOrder(labels)
        next_id = len(labels)
        while True:
            yield labels, order, reference
            if len(labels) == 1:
                return
            ids = sorted(labels)
            a, b = rng.choice([(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]
                               if labels[a] & labels[b] and order.legal(a, b)])
            labels[next_id] = labels.pop(a) ^ labels.pop(b)
            order.merge(a, b, next_id)
            reference.merge(a, b, next_id)
            next_id += 1

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(0, 10 ** 9))
    def test_legal_matches_reference_after_random_merges(self, seed):
        # after each random legal merge, every pair of live tensors, sharing
        # a label or not, is legal exactly when the reference search finds
        # no live tensor both after and before it
        for labels, order, reference in self._random_merges(seed):
            ids = sorted(labels)
            assert [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]
                    if order.legal(a, b)] == \
                [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]
                 if reference.convex(a, b)]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(0, 10 ** 9))
    def test_sets_hold_exactly_the_order_after_random_merges(self, seed):
        # the class invariant: a live tensor's up (down) set holds the rep
        # bit of every live tensor before (after) it, itself included, and
        # no bit outside the members of those tensors; the network's ids are
        # 0..G, so member m holds bit m
        for labels, order, reference in self._random_merges(seed):
            sets = order._sets
            for x in labels:
                for bits, step in ((sets[x][2], reference.earlier),
                                   (sets[x][3], reference.later)):
                    reach = _reach((x,), step)
                    reps = sum(sets[y][1] for y in reach)
                    members = sum(1 << m for y in reach for m in reference.members[y])
                    assert bits & reps == reps
                    assert not bits & ~members


class TestImportPath:
    def test_worked_plan_for_qft3(self):
        c = qft(3)
        plan = SimulationPath(((0, 1), (2, 8), (3, 9), (4, 10), (5, 11),
                               (6, 12), (7, 13)))
        path = import_path(plan, c)
        k = Kernel()
        f_plan, _ = execute(c, path, k)
        f_seq, _ = execute(c, sequential_path(7), k)
        assert root_equal(f_plan, f_seq)

    def test_commuting_skip_accepted(self):
        c = graph_state(4)
        # H gates on distinct qubits commute past one another
        plan = SimulationPath(((1, 3), (2, 9), (4, 10), (0, 11), (5, 12),
                               (6, 13), (7, 14), (8, 15)))
        path = import_path(plan, c)
        k = Kernel()
        f_plan, _ = execute(c, path, k)
        f_seq, _ = execute(c, sequential_path(len(c.gates)), k)
        assert root_equal(f_plan, f_seq)

    def test_noncommuting_skip_rejected_with_step(self):
        c = qft(3)
        plan = SimulationPath(((1, 3), (0, 8), (2, 9), (4, 10), (5, 11),
                               (6, 12), (7, 13)))
        with pytest.raises(PathValidationError) as exc:
            import_path(plan, c)
        assert exc.value.task_index is not None

    def test_plan_file_round_trip(self, tmp_path):
        plan = SimulationPath(((0, 1), (2, 3)))
        f = tmp_path / "plan.json"
        f.write_text(json.dumps({"pairs": [list(p) for p in plan.tasks]}))
        assert load_path(str(f)) == plan

    def test_fractional_plan_index_rejected_with_file_name(self, tmp_path):
        f = tmp_path / "plan.json"
        f.write_text(json.dumps({"pairs": [[0, 1.9], [2, 3]]}))
        with pytest.raises(InvalidArgumentError, match="plan.json.*1.9"):
            load_path(str(f))
        assert SimulationPath(((0, 1.0),)).tasks == ((0, 1),)

    @pytest.mark.parametrize("data", [{"path": [[0, True]], "gate_count": True},
                                      {"pairs": [[False, 1]]}], ids=["path", "plan"])
    def test_boolean_index_rejected_with_file_name(self, tmp_path, capsys, data):
        f = tmp_path / "p.json"
        f.write_text(json.dumps(data))
        with pytest.raises(InvalidArgumentError, match="p.json.*(True|False)"):
            load_path(str(f))
        one = tmp_path / "one.qasm"
        one.write_text("OPENQASM 2.0;\nqreg q[1];\nh q[0];\n")
        assert cli.main(["simulate", str(one), "--path", f"file:{f}"]) == 2
        assert "p.json" in json.loads(capsys.readouterr().err)["message"]
