import json
import math
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from qmc import channel as ch
from qmc import cli, qts

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

TELEPORT_INIT = "(0.6|000> + 0.8|100> + 0.6|011> + 0.8|111>)/sqrt2"


def run_cli(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_teleport_fixture_all_hold(self, capsys):
        code, out, _ = run_cli(
            capsys, "check",
            "--model", str(FIXTURES / "teleport.qts"),
            "--assert", str(FIXTURES / "teleport.ctql"),
            "--init", TELEPORT_INIT)
        assert code == cli.EXIT_HOLDS
        assert out.count("holds") == 3

    def test_json_report_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, "check",
            "--model", str(FIXTURES / "teleport.qts"),
            "--assert", str(FIXTURES / "teleport.ctql"),
            "--init", TELEPORT_INIT, "--format", "json")
        assert code == cli.EXIT_HOLDS
        report = json.loads(out)
        assert report["model"].endswith("teleport.qts")
        assert len(report["reports"]) == 3
        first = report["reports"][0]
        assert set(first) == {"model", "formula", "label", "verdict",
                              "closure", "nodes", "edges", "trace",
                              "timings"}
        assert first["verdict"] == "holds"
        assert first["closure"] == "complete"
        assert first["timings"] is None
        witness = report["reports"][1]
        assert witness["trace"][0]["location"] == "l0"
        assert set(witness["trace"][0]) == {"location", "probability",
                                            "state_digest"}

    def test_byte_identical_reports(self, capsys):
        args = ("check", "--model", str(FIXTURES / "teleport.qts"),
                "--assert", str(FIXTURES / "teleport.ctql"),
                "--init", TELEPORT_INIT, "--format", "json")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_failing_assertion_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.ctql"
        bad.write_text('let one = span { "|1>" }\n'
                       'assert "wrong" : [one]\n')
        code, out, _ = run_cli(
            capsys, "check", "--model", str(FIXTURES / "xloop.qts"),
            "--assert", str(bad), "--init", "|0>")
        assert code == cli.EXIT_FAILS
        assert "fails" in out

    def test_long_cycle_counterexample(self, capsys, tmp_path):
        # RY(4pi/2400) returns |0><0| after 1200 steps: a complete
        # 1200-node cycle that never reaches false, refuted by a lasso
        model = tmp_path / "ry_loop.qts"
        model.write_text("qubits 1\nlocations l0\ninitial l0\n"
                         "transitions\n"
                         f"  l0 -> l0 : gate RY({4 * math.pi / 2400!r})[1]\n")
        spec = tmp_path / "never.ctql"
        spec.write_text('assert "never" : A (true U false)\n')
        code, out, err = run_cli(
            capsys, "check", "--model", str(model), "--assert", str(spec),
            "--init", "|0>", "--bound", "1300", "--format", "json")
        assert code == cli.EXIT_FAILS, err
        report = json.loads(out)["reports"][0]
        assert report["verdict"] == "fails"
        assert report["closure"] == "complete"
        assert report["nodes"] == 1200

    def test_unbound_atom_is_an_error(self, capsys, tmp_path):
        bad = tmp_path / "unbound.ctql"
        bad.write_text('assert "oops" : [ghost]\n')
        code, _, err = run_cli(
            capsys, "check", "--model", str(FIXTURES / "xloop.qts"),
            "--assert", str(bad), "--init", "|0>")
        assert code == cli.EXIT_ERROR
        assert "ghost" in err

    def test_truncated_undecided_exit_code(self, capsys, tmp_path):
        model = tmp_path / "tloop.qts"
        model.write_text("qubits 1\nlocations l0\ninitial l0\n"
                         "transitions\n  l0 -> l0 : gate T[1]\n")
        ctql = tmp_path / "always.ctql"
        ctql.write_text('let up = span { "|0>" }\n'
                        'assert "always" : A G [up | ~up]\n')
        code, out, _ = run_cli(
            capsys, "check", "--model", str(model), "--assert", str(ctql),
            "--init", "(|0> + 0.6|1>)/sqrt2", "--bound", "4")
        assert code == cli.EXIT_UNKNOWN
        assert "unknown" in out

    def test_parse_error_reported(self, capsys):
        code, _, err = run_cli(
            capsys, "check",
            "--model", str(FIXTURES / "bad" / "unknown_gate.qts"),
            "--assert", str(FIXTURES / "teleport.ctql"))
        assert code == cli.EXIT_ERROR
        assert "FOO" in err

    def test_bad_gate_parameters_reported_with_position(self, capsys):
        for name in ("gate_params.qts", "missing_angle.qts"):
            code, out, err = run_cli(
                capsys, "fmt", "--model", str(FIXTURES / "bad" / name))
            assert code == cli.EXIT_ERROR, name
            assert out == ""
            assert err.startswith("qmc: error: 7:14: "), err

    def test_normalisation_violation_reported(self, capsys):
        code, _, err = run_cli(
            capsys, "check",
            "--model", str(FIXTURES / "bad" / "missing_branch.qts"),
            "--assert", str(FIXTURES / "teleport.ctql"))
        assert code == cli.EXIT_ERROR
        assert "l0" in err

    def test_holds_one_copy_of_the_initial_state(self, capsys, tmp_path):
        # GHZ-noisy on 10 qubits from |0...0>: rho0 is 16 MiB, and the
        # root configuration holds the read-only rho0 the CLI loaded
        n = 10
        ir = qts.Gate((1,), name="H")
        for q in range(1, n):
            ir = qts.Seq(ir, qts.Gate((q, q + 1), name="CX"))
        ir = qts.Seq(ir, qts.Gate((1,), op=ch.noise_library("bit_flip", 0.9)))
        model = tmp_path / "ghz10.qts"
        model.write_text(qts.serialize_model(qts.compile_circuit(ir, n)))
        spec = tmp_path / "ghz10.ctql"
        spec.write_text(f'let g = span {{ "|{"0" * n}>", "|{"1" * n}>" }}\n'
                        'assert "reaches_ghz" : A (true U [g])\n'
                        'assert "reaches_outside" : A (true U [~g])\n')
        tracemalloc.start()
        try:
            code = cli.main(["check", "--model", str(model),
                             "--assert", str(spec), "--init", f"|{'0' * n}>"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == cli.EXIT_FAILS
        assert "reaches_ghz: holds" in capsys.readouterr().out
        assert peak < 2.5 * 16 * 4 ** n

    def test_timings_flag_adds_numbers(self, capsys):
        _, out, _ = run_cli(
            capsys, "check", "--model", str(FIXTURES / "xloop.qts"),
            "--assert", str(FIXTURES / "xloop.ctql"), "--init", "|0>",
            "--format", "json", "--timings")
        report = json.loads(out)
        assert report["timings"]["build_s"] > 0.0
        assert set(report["reports"][0]["timings"]) == {"label_s"}


class TestReach:
    def test_xloop_reaches_dim_two(self, capsys):
        code, out, _ = run_cli(
            capsys, "reach", "--model", str(FIXTURES / "xloop.qts"),
            "--init", "|0>")
        assert code == 0
        assert "reachable dim 2" in out

    def test_idloop_stays_dim_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "reach", "--model", str(FIXTURES / "idloop.qts"),
            "--init", "|0>", "--format", "json")
        report = json.loads(out)
        assert report["dim"] == 1
        assert report["basis"] == ["|0>"]

    def test_verify_cross_runs(self, capsys):
        code, out, _ = run_cli(
            capsys, "reach", "--model", str(FIXTURES / "bitflip_loop.qts"),
            "--init", "|0>", "--verify", "--format", "json")
        report = json.loads(out)
        v = report["verify"]
        assert v["agree"] is True
        assert v["max_residual"] < 1e-7
        assert len(set(v["dims"].values())) == 1

    def test_verify_at_seven_qubits(self, capsys, tmp_path):
        # a cycle through local states 0..4 of qubits 1-3, mixed with the
        # identity: from |0...0> exactly five basis states are reachable.
        # The matrix representation of this channel would be 4 GiB.
        n = 7
        cycle = np.eye(8)[[4, 0, 1, 2, 3, 5, 6, 7]]
        kraus = (math.sqrt(0.5) * cycle, math.sqrt(0.5) * np.eye(8))
        loop = qts.kraus_edge("l0", "l0", kraus, (1, 2, 3), n)
        model = tmp_path / "cycle7.qts"
        model.write_text(qts.serialize_model(
            qts.QuantumTransitionSystem(n, ("l0",), "l0", (loop,))))
        code, out, err = run_cli(
            capsys, "reach", "--model", str(model), "--init", f"|{'0' * n}>",
            "--verify", "--format", "json")
        assert code == 0, err
        report = json.loads(out)
        assert report["dim"] == 5
        assert report["verify"]["agree"] is True
        assert report["verify"]["dims"] == {"power_sum": 5, "vectorized": 5,
                                            "fixpoint": 5}

    def test_multi_location_model_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "reach", "--model", str(FIXTURES / "teleport.qts"),
            "--init", TELEPORT_INIT)
        assert code == cli.EXIT_ERROR
        assert "single-location" in err


class TestSimulate:
    def test_teleport_depth_five_has_four_quarter_leaves(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--model", str(FIXTURES / "teleport.qts"),
            "--init", TELEPORT_INIT, "--depth", "5", "--format", "json")
        tree = json.loads(out)["tree"]

        def leaves(entry, depth):
            if depth == 5:
                return [entry]
            return [leaf for child in entry.get("children", ())
                    for leaf in leaves(child, depth + 1)]

        tips = leaves(tree, 0)
        assert len(tips) == 4
        for tip in tips:
            assert tip["probability"] == pytest.approx(0.25, abs=1e-9)

    def test_probabilities_sum_per_depth(self, capsys):
        _, out, _ = run_cli(
            capsys, "simulate", "--model", str(FIXTURES / "teleport.qts"),
            "--init", TELEPORT_INIT, "--depth", "6", "--format", "json")
        tree = json.loads(out)["tree"]
        by_depth = {}

        def walk(entry, depth):
            by_depth.setdefault(depth, 0.0)
            by_depth[depth] += entry["probability"]
            for child in entry.get("children", ()):
                walk(child, depth + 1)

        walk(tree, 0)
        for depth, total in by_depth.items():
            assert total == pytest.approx(1.0, abs=1e-9), depth

    def test_unitary_chain_single_path(self, capsys):
        _, out, _ = run_cli(
            capsys, "simulate", "--model", str(FIXTURES / "chain.qts"),
            "--init", "|00>", "--depth", "5")
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 6  # root plus one node per depth

    def test_depth_zero_root_only(self, capsys):
        _, out, _ = run_cli(
            capsys, "simulate", "--model", str(FIXTURES / "teleport.qts"),
            "--init", TELEPORT_INIT, "--depth", "0")
        assert len([l for l in out.splitlines() if l.strip()]) == 1


class TestFmt:
    def test_fmt_is_idempotent(self, capsys, tmp_path):
        _, once, _ = run_cli(capsys, "fmt", "--model",
                             str(FIXTURES / "teleport.qts"))
        redone = tmp_path / "canon.qts"
        redone.write_text(once)
        _, twice, _ = run_cli(capsys, "fmt", "--model", str(redone))
        assert once == twice


class TestOutOfRangeLiterals:
    """A number literal that overflows a float is a parse error at its
    position, never an `inf` that reaches a verdict or a crash."""

    LOOP = "qubits 1\nlocations l0\ninitial l0\ntransitions\n  l0 -> l0 : "

    def run(self, capsys, tmp_path, operation, init="|0>"):
        model = tmp_path / "loop.qts"
        model.write_text(self.LOOP + operation + "\n")
        ctql = tmp_path / "a.ctql"
        ctql.write_text('let g = span { "|0>" }\nassert "a" : A G [g]\n')
        return run_cli(capsys, "check", "--model", str(model),
                       "--assert", str(ctql), "--init", init)

    def test_kraus_entry(self, capsys, tmp_path):
        code, out, err = self.run(capsys, tmp_path,
                                  "kraus { [[1e400, 0], [0, 1]] }[1]")
        assert (code, out) == (cli.EXIT_ERROR, "")
        assert err == "qmc: error: 5:24: number literal out of range\n"

    def test_gate_angle(self, capsys, tmp_path):
        code, out, err = self.run(capsys, tmp_path, "gate RY(1e400)[1]")
        assert (code, out) == (cli.EXIT_ERROR, "")
        assert err == "qmc: error: 5:22: number literal out of range\n"

    def test_initial_ket(self, capsys, tmp_path):
        code, out, err = self.run(capsys, tmp_path, "gate X[1]",
                                  init="1e400|0> + |1>")
        assert (code, out) == (cli.EXIT_ERROR, "")
        assert err == "qmc: error: 1:1: number literal out of range\n"


class TestInitStates:
    def test_density_matrix_file(self, capsys, tmp_path):
        rho = tmp_path / "mixed.dm"
        rho.write_text("[[0.5, 0], [0, 0.5]]\n")
        code, out, _ = run_cli(
            capsys, "reach", "--model", str(FIXTURES / "idloop.qts"),
            "--init", str(rho), "--format", "json")
        assert code == 0
        assert json.loads(out)["dim"] == 2

    @pytest.mark.parametrize("command", ["check", "reach", "simulate"])
    def test_non_psd_density_matrix_rejected(self, capsys, tmp_path,
                                             command):
        # Hermitian with unit trace, but an eigenvalue of -0.5
        rho = tmp_path / "negative.dm"
        rho.write_text("[[1.5, 0], [0, -0.5]]\n")
        args = ["--model", str(FIXTURES / "xloop.qts"), "--init", str(rho)]
        if command == "check":
            args += ["--assert", str(FIXTURES / "xloop.ctql")]
        code, out, err = run_cli(capsys, command, *args)
        assert code == cli.EXIT_ERROR
        assert out == ""
        assert err == ("qmc: error: density matrix is not positive "
                       "semidefinite\n")

    @pytest.mark.parametrize("command", ["check", "reach"])
    def test_text_after_the_density_matrix_rejected(self, capsys, tmp_path,
                                                    command):
        rho = tmp_path / "trailing.dm"
        rho.write_text("[[1, 0], [0, 0]] junk ]]\n")
        args = ["--model", str(FIXTURES / "xloop.qts"), "--init", str(rho)]
        if command == "check":
            args += ["--assert", str(FIXTURES / "xloop.ctql")]
        code, out, err = run_cli(capsys, command, *args)
        assert code == cli.EXIT_ERROR
        assert out == ""
        assert err == ("qmc: error: 1:18: unexpected text after the density "
                       "matrix, got 'junk'\n")

    def test_wrong_dimension_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "check", "--model", str(FIXTURES / "teleport.qts"),
            "--assert", str(FIXTURES / "teleport.ctql"), "--init", "|0>")
        assert code == cli.EXIT_ERROR
        assert "dim" in err

    def test_missing_model_file(self, capsys):
        code, _, err = run_cli(
            capsys, "check", "--model", "no_such.qts",
            "--assert", str(FIXTURES / "teleport.ctql"))
        assert code == cli.EXIT_ERROR


def test_internal_crash_exits_with_error_code(capsys, monkeypatch):
    def crash(*args, **kwargs):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(cli.checker, "build_graph", crash)
    code, out, err = run_cli(
        capsys, "check",
        "--model", str(FIXTURES / "teleport.qts"),
        "--assert", str(FIXTURES / "teleport.ctql"), "--init", "|000>")
    assert code == cli.EXIT_ERROR
    assert out == ""
    assert err == "qmc: internal error: RuntimeError: boom second line\n"


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "qmc.cli", "reach",
         "--model", str(FIXTURES / "idloop.qts"), "--init", "|0>"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert "reachable dim 1" in result.stdout
