import json

import pytest

from ddpath import (
    Kernel,
    execute,
    export_tensor_network,
    ghz,
    greedy_plan,
    import_path,
    plan_cost,
    qft,
    root_equal,
    sequential_path,
)
from ddpath.circuit import Circuit, graph_state
from ddpath.errors import PathValidationError, PlanningError
from ddpath.tnbridge import (
    ContractionPlan,
    Tensor,
    TensorNetworkDescription,
    load_plan,
)


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

    def test_json_round_trip(self):
        tn = export_tensor_network(qft(3))
        again = TensorNetworkDescription.from_json(json.loads(json.dumps(tn.to_json())))
        assert again == tn


class TestGreedyPlan:
    def test_single_gate(self):
        plan = greedy_plan(export_tensor_network(ghz(1)))
        assert plan.pairs == ((0, 1),)

    def test_qft3_step_count(self):
        plan = greedy_plan(export_tensor_network(qft(3)))
        assert len(plan.pairs) == 7

    def test_imported_plan_matches_sequential(self):
        c = qft(3)
        plan = greedy_plan(export_tensor_network(c))
        path = import_path(plan, c)
        k = Kernel()
        f_greedy, _ = execute(c, path, k)
        f_seq, _ = execute(c, sequential_path(len(c.gates)), k)
        assert root_equal(f_greedy, f_seq)

    def test_disconnected_network_rejected(self):
        tn = TensorNetworkDescription(
            2,
            (Tensor(0, ("a",), (2,), "state"), Tensor(1, ("b",), (2,), 1)),
            ("a", "b"))
        with pytest.raises(PlanningError):
            greedy_plan(tn)


class TestImportPath:
    def test_worked_plan_for_qft3(self):
        c = qft(3)
        plan = ContractionPlan(((0, 1), (2, 8), (3, 9), (4, 10), (5, 11),
                                (6, 12), (7, 13)))
        path = import_path(plan, c)
        k = Kernel()
        f_plan, _ = execute(c, path, k)
        f_seq, _ = execute(c, sequential_path(7), k)
        assert root_equal(f_plan, f_seq)

    def test_commuting_skip_accepted(self):
        c = graph_state(4)
        # H gates on distinct qubits commute past one another
        plan = ContractionPlan(((1, 3), (2, 9), (4, 10), (0, 11), (5, 12),
                                (6, 13), (7, 14), (8, 15)))
        path = import_path(plan, c)
        k = Kernel()
        f_plan, _ = execute(c, path, k)
        f_seq, _ = execute(c, sequential_path(len(c.gates)), k)
        assert root_equal(f_plan, f_seq)

    def test_noncommuting_skip_rejected_with_step(self):
        c = qft(3)
        plan = ContractionPlan(((1, 3), (0, 8), (2, 9), (4, 10), (5, 11),
                                (6, 12), (7, 13)))
        with pytest.raises(PathValidationError) as exc:
            import_path(plan, c)
        assert exc.value.task_index is not None

    def test_plan_file_round_trip(self, tmp_path):
        plan = ContractionPlan(((0, 1), (2, 3)))
        f = tmp_path / "plan.json"
        f.write_text(json.dumps(plan.to_json()))
        assert load_plan(str(f)) == plan


class TestPlanCost:
    def test_matrix_product_example(self):
        tn = TensorNetworkDescription(
            2,
            (Tensor(0, ("i", "k"), (2, 2), "state"), Tensor(1, ("k", "j"), (2, 2), 1)),
            ("i", "j"))
        cost = plan_cost(tn, ContractionPlan(((0, 1),)))
        assert cost.flops == 8 and cost.max_size == 4

    def test_empty_plan_single_tensor(self):
        tn = TensorNetworkDescription(1, (Tensor(0, ("a",), (2,), "state"),), ("a",))
        cost = plan_cost(tn, ContractionPlan(()))
        assert cost.flops == 0

    def test_full_simulation_result_is_exponential(self):
        for n in (3, 5, 7):
            tn = export_tensor_network(qft(n))
            cost = plan_cost(tn, greedy_plan(tn))
            assert cost.max_size >= 2 ** n

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_greedy_not_beaten_by_sequential_on_small_qft(self, n):
        # the result-size-greedy rule starts preferring gate-gate merges once
        # the rank-n state tensor dominates, and loses this comparison for
        # larger qft instances; the small cases are where the bound holds
        tn = export_tensor_network(qft(n))
        greedy_cost = plan_cost(tn, greedy_plan(tn))
        seq_plan = ContractionPlan(sequential_path(len(tn.tensors) - 1).tasks)
        seq_cost = plan_cost(tn, seq_plan)
        assert greedy_cost.flops <= seq_cost.flops

    def test_bad_plan_rejected(self):
        tn = export_tensor_network(ghz(2))
        with pytest.raises(PlanningError):
            plan_cost(tn, ContractionPlan(((0, 9), (1, 2))))
        with pytest.raises(PlanningError):
            plan_cost(tn, ContractionPlan(((0, 1),)))
