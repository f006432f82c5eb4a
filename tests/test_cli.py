import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ddpath
from ddpath import cli, emit_qasm, qft
from ddpath.cli import main
from ddpath.circuit import Circuit, Gate
from ddpath.simpath import STRATEGIES


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_elapsed(obj):
    if isinstance(obj, dict):
        return {k: strip_elapsed(v) for k, v in obj.items() if k != "elapsed_ns"}
    if isinstance(obj, list):
        return [strip_elapsed(v) for v in obj]
    return obj


class TestSimulate:
    def test_ghz_amplitudes(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "ghz:3", "--amplitudes", "000,111")
        assert code == 0
        report = json.loads(out)
        for bits in ("000", "111"):
            re, im = report["amplitudes"][bits]
            assert abs(complex(re, im) - 1 / math.sqrt(2)) < 1e-10

    def test_entangled_qft_final_nodes(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "qftentangled:3")
        assert code == 0
        assert json.loads(out)["stats"]["final_nodes"] == 7

    def test_diagram_deeper_than_recursion_limit_is_capacity_error(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "ghz:3000")
        assert code == 2
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "CapacityError"
        assert "task 1" in payload["message"] and "3000-qubit" in payload["message"]
        assert payload["task_index"] == 1

    def test_too_deep_message_does_not_misstate_the_depth(self, capsys):
        # a diagram shallower than the limit still overflows it once the
        # frames already on the stack are added; the message must not claim
        # that n alone is beyond the limit
        limit = sys.getrecursionlimit()
        n = limit - 10
        code, _, err = run_cli(capsys, "simulate", f"ghz:{n}")
        assert code == 2
        message = json.loads(err)["message"]
        assert f"{n}-qubit" in message and f"{n} nested calls" in message
        assert "frames already in use" in message and f"({limit})" in message
        assert "deeper than" not in message

    def test_bad_path_file_names_task(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "gate_count": 7,
            "path": [[0, 2], [1, 8], [3, 9], [4, 10], [5, 11], [6, 12], [7, 13]],
        }))
        code, out, err = run_cli(capsys, "simulate", "qft:3", "--path", f"file:{bad}")
        assert code == 2
        payload = json.loads(err)
        assert "task_index" in payload

    def test_path_file_round_trip(self, capsys, tmp_path):
        good = tmp_path / "plan.json"
        good.write_text(json.dumps({
            "gate_count": 7,
            "path": [[0, 1], [2, 8], [3, 9], [4, 10], [5, 11], [6, 12], [7, 13]],
        }))
        code, out, _ = run_cli(capsys, "simulate", "qft:3", "--path", f"file:{good}",
                               "--amplitudes", "000")
        assert code == 0
        re, im = json.loads(out)["amplitudes"]["000"]
        assert abs(complex(re, im) - 1 / math.sqrt(8)) < 1e-10

    @pytest.mark.parametrize("path", ["sequential", "greedy"])
    def test_empty_circuit_runs_the_empty_path(self, capsys, tmp_path, path):
        f = tmp_path / "empty.qasm"
        f.write_text("OPENQASM 2.0;\nqreg q[2];\n")
        code, out, _ = run_cli(capsys, "simulate", str(f), "--path", path,
                               "--initial", "10", "--amplitudes", "10,00")
        assert code == 0
        report = json.loads(out)
        assert report["stats"]["task_count"] == 0 and report["stats"]["tasks"] == []
        assert report["amplitudes"] == {"10": [1.0, 0.0], "00": [0.0, 0.0]}
        code, out, _ = run_cli(capsys, "dot", str(f), "--path", path)
        assert code == 0 and out.startswith("digraph")

    def test_qasm_file_source(self, capsys, tmp_path):
        f = tmp_path / "c.qasm"
        f.write_text(emit_qasm(qft(3)))
        code, out, _ = run_cli(capsys, "simulate", str(f))
        assert code == 0
        assert json.loads(out)["circuit"]["gates"] == 7

    def test_parse_error_exit_code(self, capsys, tmp_path):
        f = tmp_path / "bad.qasm"
        f.write_text("OPENQASM 2.0;\nqreg q[1];\nfoo q[0];\n")
        code, _, err = run_cli(capsys, "simulate", str(f))
        assert code == 2
        assert json.loads(err)["line"] == 3

    @pytest.mark.parametrize("angle", [
        "(" * 3000 + "1" + ")" * 3000,   # nesting beyond the recursion limit
        "-" * 5000 + "1",
        "1e400",                          # overflows to inf
        "1e400-1e400",                    # inf - inf is nan
    ], ids=["nested-parens", "nested-signs", "overflow", "inf-minus-inf"])
    def test_angle_error_exit_code(self, capsys, tmp_path, angle):
        f = tmp_path / "bad.qasm"
        f.write_text(f"OPENQASM 2.0;\nqreg q[1];\np({angle}) q[0];\n")
        code, _, err = run_cli(capsys, "simulate", str(f))
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "QasmError" and payload["line"] == 3

    def test_stats_out_schema(self, capsys, tmp_path):
        stats_file = tmp_path / "stats.json"
        code, _, _ = run_cli(capsys, "simulate", "ghz:4", "--stats-out", str(stats_file))
        assert code == 0
        data = json.loads(stats_file.read_text())
        assert {"task_count", "tasks", "peak_nodes", "final_nodes", "elapsed_ns"} <= set(data)

    def test_initial_bitstring(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "ghz:2", "--initial", "01",
                               "--amplitudes", "00,11")
        assert code == 0
        amps = json.loads(out)["amplitudes"]
        assert abs(complex(*amps["00"]) - 1 / math.sqrt(2)) < 1e-10
        assert abs(complex(*amps["11"]) + 1 / math.sqrt(2)) < 1e-10

    def test_determinism_modulo_elapsed(self, capsys):
        _, out1, _ = run_cli(capsys, "simulate", "qftentangled:4", "--amplitudes", "0000")
        _, out2, _ = run_cli(capsys, "simulate", "qftentangled:4", "--amplitudes", "0000")
        assert strip_elapsed(json.loads(out1)) == strip_elapsed(json.loads(out2))


class TestVerify:
    def test_transpiled_heuristic_consistent(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "qft:8", "transpile(qft:8)",
                               "--strategy", "heuristic")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "consistent"
        assert report["stats"]["peak_nodes"] <= 64

    def test_perturbed_angle_flips_verdict(self, capsys, tmp_path):
        # from |0..0> every controlled-phase control line is still 0 when its
        # inverse cancels, so the entangled initial state is what exposes the
        # perturbation
        g = qft(8)
        gates = list(g.gates)
        at = max(i for i, gt in enumerate(gates) if gt.kind == "cp")
        gt = gates[at]
        gates[at] = Gate("cp", gt.targets, gt.controls, gt.parameter + 1e-3)
        f = tmp_path / "perturbed.qasm"
        f.write_text(emit_qasm(Circuit(8, tuple(gates))))
        code, out, _ = run_cli(capsys, "verify", "qft:8", str(f),
                               "--strategy", "alternating", "--initial", "ghz")
        assert code == 1
        assert json.loads(out)["verdict"] == "inconsistent"

    def test_x_vs_empty_inconsistent(self, capsys, tmp_path):
        fx = tmp_path / "x.qasm"
        fx.write_text("OPENQASM 2.0;\nqreg q[1];\nx q[0];\n")
        fempty = tmp_path / "empty.qasm"
        fempty.write_text("OPENQASM 2.0;\nqreg q[1];\n")
        code, out, _ = run_cli(capsys, "verify", str(fx), str(fempty))
        assert code == 1
        assert json.loads(out)["verdict"] == "inconsistent"
        code, out, _ = run_cli(capsys, "verify", str(fempty), str(fempty))
        assert code == 0
        assert json.loads(out)["verdict"] == "consistent"

    def test_unknown_strategy_on_empty_miter(self, capsys, tmp_path):
        fempty = tmp_path / "empty.qasm"
        fempty.write_text("OPENQASM 2.0;\nqreg q[1];\n")
        code, out, err = run_cli(capsys, "verify", str(fempty), str(fempty),
                                 "--strategy", "nope")
        assert code == 2
        assert out == ""
        assert "unknown strategy 'nope'" in json.loads(err)["message"]

    def test_plan_strategy(self, capsys, tmp_path):
        plan = tmp_path / "plan.json"
        count = 14
        pairs = [[0, 1]] + [[k, count + k - 1] for k in range(2, count + 1)]
        plan.write_text(json.dumps({"pairs": pairs}))
        code, out, _ = run_cli(capsys, "verify", "qft:3", "qft:3",
                               "--strategy", f"plan:{plan}")
        assert code == 0
        assert json.loads(out)["verdict"] == "consistent"

    def test_qubit_mismatch_rejected(self, capsys):
        code, _, err = run_cli(capsys, "verify", "qft:3", "qft:4")
        assert code == 2
        assert "mismatch" in json.loads(err)["message"]


def chain_pairs(count):
    return [[0, 1]] + [[k, count + k - 1] for k in range(2, count + 1)]


def write_json(path, data):
    path.write_text(json.dumps(data))
    return path


class TestStrategyNames:
    """Every strategy name reaches simulate, verify and bench alike."""

    @pytest.fixture
    def spec_for(self, tmp_path):
        """``file`` and ``plan`` become specs naming a chain over ``count``
        gates; other names pass through."""
        def spec_for(name, count):
            if name == "file":
                data = {"gate_count": count, "path": chain_pairs(count)}
            elif name == "plan":
                data = {"pairs": chain_pairs(count)}
            else:
                return name
            return f"{name}:{write_json(tmp_path / f'{name}.json', data)}"
        return spec_for

    @pytest.mark.parametrize("name", ["sequential", "greedy", "file", "plan"])
    def test_simulate_matches_sequential(self, capsys, spec_for, name):
        amps = "000,011,101,111"
        code, out, _ = run_cli(capsys, "simulate", "qft:3", "--path", spec_for(name, 7),
                               "--amplitudes", amps)
        assert code == 0
        got = json.loads(out)["amplitudes"]
        _, ref, _ = run_cli(capsys, "simulate", "qft:3", "--amplitudes", amps)
        want = json.loads(ref)["amplitudes"]
        for bits in amps.split(","):
            assert abs(complex(*got[bits]) - complex(*want[bits])) < 1e-10

    @pytest.mark.parametrize("name", list(STRATEGIES) + ["file", "plan"])
    def test_verify_consistent(self, capsys, spec_for, name):
        spec = spec_for(name, 14)
        code, out, _ = run_cli(capsys, "verify", "qft:3", "qft:3", "--strategy", spec)
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "consistent"
        assert report["strategy"] == spec

    def test_bench_qft_verify_every_name(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "qft-verify:4:" + ",".join(STRATEGIES))
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [(r[0], r[1], r[3]) for r in rows] == [
            ("qft-verify", "4", s) for s in STRATEGIES]

    @pytest.mark.parametrize("name", ["file", "plan"])
    def test_bench_takes_file_and_plan(self, capsys, spec_for, name):
        spec = spec_for(name, 7)
        code, out, _ = run_cli(capsys, "bench", f"qft:3:{spec}")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [(r[0], r[1], r[3]) for r in rows] == [("qft", "3", spec)]

    @pytest.mark.parametrize("command", ["simulate", "dot"])
    @pytest.mark.parametrize("spec", ["alternating", "heuristic"])
    def test_two_sided_needs_second_circuit(self, capsys, command, spec):
        code, out, err = run_cli(capsys, command, "qft:3", "--path", spec)
        assert code == 2
        assert out == ""
        assert "needs a second circuit" in json.loads(err)["message"]

    def test_unknown_name_lists_every_choice(self, capsys):
        code, _, err = run_cli(capsys, "verify", "qft:3", "qft:3", "--strategy", "nope")
        assert code == 2
        message = json.loads(err)["message"]
        for name in STRATEGIES + ("file:", "plan:"):
            assert name in message


BAD_FILES = {
    "missing": None,
    "not-json": "{not json",
    "empty-object": "{}",
    "gate-count-not-pair-count": json.dumps({"gate_count": 7, "path": chain_pairs(6)}),
    "non-integer-index": '{"gate_count": 7, "path": [[0, "a"]], "pairs": [[0, "a"]]}',
    # a truncated 1.9 would run the valid chain (0, 1), (2, 8), ...
    "fractional-index": json.dumps({"gate_count": 7, "path": [[0, 1.9]] + chain_pairs(7)[1:],
                                    "pairs": [[0, 1.9]] + chain_pairs(14)[1:]}),
}


@pytest.mark.parametrize("content", list(BAD_FILES.values()), ids=list(BAD_FILES))
@pytest.mark.parametrize("command", [
    ("simulate", "qft:3", "--path", "file:{}"),
    ("verify", "qft:3", "qft:3", "--strategy", "plan:{}"),
], ids=["simulate-file", "verify-plan"])
def test_bad_path_or_plan_file_is_input_error(capsys, tmp_path, command, content):
    f = tmp_path / "bad.json"
    if content is not None:
        f.write_text(content)
    code, out, err = run_cli(capsys, *command[:-1], command[-1].format(f))
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "InvalidArgumentError"
    assert str(f) in payload["message"]


@pytest.mark.parametrize("command", [
    ("export-tn", "qft:3", "--out"),
    ("dot", "ghz:3", "--out"),
    ("bench", "ghz:3", "--out"),
    ("simulate", "ghz:3", "--stats-out"),
], ids=["export-tn", "dot", "bench", "simulate-stats"])
def test_unwritable_output_file_is_input_error(capsys, tmp_path, monkeypatch, command):
    # bench fails on its output file before the first row runs
    rows = []
    monkeypatch.setattr(cli, "_bench_row", lambda *row: rows.append(row))
    f = tmp_path / "missing" / "out.json"
    code, out, err = run_cli(capsys, *command, str(f))
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "InvalidArgumentError"
    assert str(f) in payload["message"]
    assert rows == []


class TestExportTn:
    def test_qft3_file(self, capsys, tmp_path):
        out_file = tmp_path / "tn.json"
        code, _, _ = run_cli(capsys, "export-tn", "qft:3", "--out", str(out_file))
        assert code == 0
        data = json.loads(out_file.read_text())
        assert len(data["tensors"]) == 8
        assert data["qubits"] == 3


class TestBench:
    def test_ghz_sweep_final_nodes(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "ghz:4..10:sequential")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "benchmark,n,gates,strategy,peak_nodes,final_nodes,elapsed_ns"
        for line in lines[1:]:
            fields = line.split(",")
            n = int(fields[1])
            assert int(fields[5]) == 2 * n - 1

    def test_qft_verify_families(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "qft-verify:4..5:sequential,alternating")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        by_key = {(r[1], r[3]): int(r[4]) for r in rows}
        for n in (4, 5):
            assert by_key[(str(n), "sequential")] >= 2 ** n - 1
            assert by_key[(str(n), "alternating")] <= 8 * n

    def test_failed_row_does_not_stop_the_sweep(self, capsys, tmp_path):
        # gates 1 and 3 of qft(3) merge first, and task 3 would then put
        # gate 3 above gate 2, which shares qubit 0 with it
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(
            {"pairs": [[1, 3], [0, 8], [2, 9], [4, 10], [5, 11], [6, 12], [7, 13]]}))
        code, out, err = run_cli(capsys, "bench", "ghz:4:sequential", f"qft:3:plan:{plan}",
                                 "ghz:5:sequential")
        assert code == 2
        rows = out.strip().splitlines()
        assert rows[0] == "benchmark,n,gates,strategy,peak_nodes,final_nodes,elapsed_ns"
        assert [r.split(",")[:2] for r in rows[1:]] == [["ghz", "4"], ["ghz", "5"]]
        records = [json.loads(line) for line in err.strip().splitlines()]
        assert len(records) == 1
        rec = records[0]
        assert (rec["family"], rec["n"], rec["strategy"]) == ("qft", 3, f"plan:{plan}")
        assert rec["error"] == "PathValidationError"
        assert rec["task_index"] == 3

    def test_too_deep_row_does_not_stop_the_sweep(self, capsys):
        code, out, err = run_cli(capsys, "bench", "ghz:3000:sequential", "ghz:4:sequential")
        assert code == 2
        rows = out.strip().splitlines()
        assert [r.split(",")[:2] for r in rows[1:]] == [["ghz", "4"]]
        records = [json.loads(line) for line in err.strip().splitlines()]
        assert [(r["n"], r["error"]) for r in records] == [(3000, "CapacityError")]
        assert records[0]["task_index"] == 1

    def test_unknown_family(self, capsys):
        code, _, err = run_cli(capsys, "bench", "nope:3")
        assert code == 2

    @pytest.mark.parametrize("spec", ["ghz:3:nope", "ghz:3:sequential,nope", "nope:3"])
    def test_unknown_name_is_rejected_before_any_row(self, capsys, monkeypatch, spec):
        rows = []
        monkeypatch.setattr(cli, "_bench_row", lambda *row: rows.append(row))
        code, out, err = run_cli(capsys, "bench", "qft-verify:14:sequential", spec)
        assert code == 2
        assert out == ""
        assert rows == []
        payload = json.loads(err)
        assert payload["error"] == "InvalidArgumentError"
        assert "'nope'" in payload["message"]

    @pytest.mark.parametrize("spec", [
        "ghz:3:alternating", "ghz:3:sequential,heuristic", "qft:4:alternating"])
    def test_two_sided_strategy_needs_qft_verify(self, capsys, monkeypatch, spec):
        rows = []
        monkeypatch.setattr(cli, "_bench_row", lambda *row: rows.append(row))
        code, out, err = run_cli(capsys, "bench", "ghz:3", spec)
        assert code == 2
        assert out == ""
        assert rows == []
        payload = json.loads(err)
        assert payload["error"] == "InvalidArgumentError"
        assert "needs a second circuit" in payload["message"]

    @pytest.mark.parametrize("spec", ["ghz:x", "ghz:3..2", "ghz:5.."])
    def test_bad_size_spec_is_input_error(self, capsys, spec):
        code, out, err = run_cli(capsys, "bench", "ghz:4", spec)
        assert code == 2
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "InvalidArgumentError"
        assert spec in payload["message"]


class TestDot:
    def test_writes_digraph(self, capsys, tmp_path):
        out_file = tmp_path / "dd.dot"
        code, _, _ = run_cli(capsys, "dot", "ghz:3", "--out", str(out_file))
        assert code == 0
        assert out_file.read_text().startswith("digraph")


class TestSourceParsing:
    def test_unknown_generator(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "nope:3")
        assert code == 2

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "/does/not/exist.qasm")
        assert code == 2


class TestClosedPipe:
    """A reader that closes stdout early, as ``| head`` does, ends the run
    quietly with 141 (128 + SIGPIPE), not as an internal error."""

    @pytest.mark.parametrize("argv", [
        ("dot", "qft:6"), ("simulate", "qft:8"), ("export-tn", "qft:12"),
        # output small enough to sit in the buffer until the final flush
        ("simulate", "ghz:2"),
    ])
    def test_reader_gone_before_the_first_write(self, argv):
        env = dict(os.environ, PYTHONPATH=str(Path(ddpath.__file__).resolve().parents[1]))
        proc = subprocess.Popen([sys.executable, "-m", "ddpath.cli", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        with proc.stderr:
            err = proc.stderr.read()
        assert proc.wait(timeout=120) == 141
        assert err == b""
