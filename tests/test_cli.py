import contextlib
import io
import json
import math
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmc import channel as ch
from qmc import cli, kets, qts, reach
from qmc import linalg as la
from qmc.parsing import _KET_PUNCTS, MAX_DEPTH, parse_text, tokenize

from helpers import dephasing_loop_qts
from test_logic import DEEP_SHAPES

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

TELEPORT_INIT = "(0.6|000> + 0.8|100> + 0.6|011> + 0.8|111>)/sqrt2"


def run_cli(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def ghz_noisy_files(tmp_path, n):
    """GHZ-noisy on n qubits (H[1]; CX[i, i+1]; bit_flip(0.9) on qubit 1)
    and two assertions about the GHZ span: (model path, assertion path)."""
    ir = qts.Gate((1,), name="H")
    for q in range(1, n):
        ir = qts.Seq(ir, qts.Gate((q, q + 1), name="CX"))
    ir = qts.Seq(ir, qts.Gate((1,), op=ch.noise_library("bit_flip", 0.9)))
    model = tmp_path / f"ghz{n}.qts"
    model.write_text(qts.serialize_model(qts.compile_circuit(ir, n)))
    spec = tmp_path / f"ghz{n}.ctql"
    spec.write_text(f'let g = span {{ "|{"0" * n}>", "|{"1" * n}>" }}\n'
                    'assert "reaches_ghz" : A (true U [g])\n'
                    'assert "reaches_outside" : A (true U [~g])\n')
    return model, spec


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

    def test_a_trace_raising_literal_gives_a_verdict(self, capsys,
                                                      tmp_path):
        # the Kraus sum is 1.0000000008 I, within what TOL_NORM admits;
        # each branch probability is 1.0000000008, carried as 1
        model = tmp_path / "raise.qts"
        model.write_text("qubits 1\nlocations l0\ninitial l0\ntransitions\n"
                         "  l0 -> l0 : kraus { [[0, 1.0000000004], "
                         "[1.0000000004, 0]] }[1]\n")
        spec = tmp_path / "flip.ctql"
        spec.write_text('let one = span { "|1>" }\n'
                        'assert "flips" : E F [one]\n'
                        'assert "stays" : A G [~one]\n')
        code, out, err = run_cli(
            capsys, "check", "--model", str(model), "--assert", str(spec),
            "--init", "|0>")
        assert code == cli.EXIT_FAILS, err
        assert out.count("holds") == 1 and out.count("fails") == 1
        code, out, err = run_cli(capsys, "simulate", "--model", str(model),
                                 "--depth", "2", "--format", "json")
        assert code == cli.EXIT_HOLDS, err
        assert '"probability": 1.0,' in out
        # the witness's edge probability is capped like the carried one
        code, out, err = run_cli(
            capsys, "check", "--model", str(model), "--assert", str(spec),
            "--init", "|0>", "--format", "json")
        assert code == cli.EXIT_FAILS, err
        flips = json.loads(out)["reports"][0]
        assert flips["verdict"] == "holds"
        assert [s["probability"] for s in flips["trace"]] == [1.0, 1.0]

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
        # GHZ-noisy on 10 qubits from |0...0>: a dense rho0 would be 16
        # MiB, and the ket root is its rank-1 factor, never made dense
        n = 10
        model, spec = ghz_noisy_files(tmp_path, n)
        tracemalloc.start()
        try:
            code = cli.main(["check", "--model", str(model),
                             "--assert", str(spec), "--init", f"|{'0' * n}>"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == cli.EXIT_FAILS
        assert "reaches_ghz: holds" in capsys.readouterr().out
        assert peak < 0.5 * 16 * 4 ** n

    def test_thirteen_qubit_check_stays_small(self, tmp_path):
        # a dense rho0 at n = 13 is 1 GiB; the whole process stays under
        # 200 MB of resident memory
        n = 13
        model, spec = ghz_noisy_files(tmp_path, n)
        script = (
            "import resource, sys\n"
            "from qmc import cli\n"
            "code = cli.main(sys.argv[1:])\n"
            "rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "scale = 1 if sys.platform == 'darwin' else 1024\n"
            "print(code, rss * scale, file=sys.stderr)\n")
        result = subprocess.run(
            [sys.executable, "-c", script, "check", "--model", str(model),
             "--assert", str(spec), "--init", f"|{'0' * n}>"],
            capture_output=True, text=True)
        assert "reaches_ghz: holds" in result.stdout
        code, rss = map(int, result.stderr.split())
        assert code == cli.EXIT_FAILS
        assert rss < 200e6

    def test_timings_flag_adds_numbers(self, capsys):
        _, out, _ = run_cli(
            capsys, "check", "--model", str(FIXTURES / "xloop.qts"),
            "--assert", str(FIXTURES / "xloop.ctql"), "--init", "|0>",
            "--format", "json", "--timings")
        report = json.loads(out)
        assert report["timings"]["build_s"] > 0.0
        assert set(report["reports"][0]["timings"]) == {"label_s"}


    def test_unitary_loop_of_4096_steps_closes(self, capsys, tmp_path):
        # RY(2 pi / 4096) from |0>: 4096 unitary steps before the state
        # returns, whose rounding drift must neither split the cycle nor
        # break a factor's checks
        model = tmp_path / "ry.qts"
        model.write_text(f"qubits 1\nlocations l0\ninitial l0\ntransitions\n"
                         f"  l0 -> l0 : gate RY({2 * math.pi / 4096!r})[1]\n")
        ctql = tmp_path / "ry.ctql"
        ctql.write_text('let one = span { "|1>" }\n'
                        'assert "reaches_one" : A F [one]\n'
                        'assert "returns_to_one" : A G E F [one]\n')
        code, out, err = run_cli(capsys, "check", "--model", str(model),
                                 "--assert", str(ctql), "--init", "|0>",
                                 "--bound", "5000", "--format", "json")
        assert code == cli.EXIT_HOLDS, err
        reports = json.loads(out)["reports"]
        assert [r["verdict"] for r in reports] == ["holds", "holds"]
        assert [(r["nodes"], r["closure"]) for r in reports] == \
            [(4096, "complete")] * 2


class TestKetRoot:
    """A ket `--init` becomes the rank-1 factor of the normalised ket."""

    KETS = ["(|000000> + |111111>)/sqrt2",
            " + ".join(f"|{x:06b}>" for x in range(64))]

    @pytest.mark.parametrize("init", KETS, ids=["ghz", "uniform64"])
    def test_ket_root_is_never_decomposed(self, capsys, tmp_path, init,
                                          eigh_calls):
        model, spec = ghz_noisy_files(tmp_path, 6)
        for args in (["check", "--assert", str(spec)],
                     ["simulate", "--depth", "4"]):
            code, out, _ = run_cli(capsys, *args, "--model", str(model),
                                   "--init", init)
            assert code in (cli.EXIT_HOLDS, cli.EXIT_FAILS)
            assert out
        assert eigh_calls == []

    @pytest.mark.parametrize("init", KETS, ids=["ghz", "uniform64"])
    def test_root_spectrum_is_the_normalised_ket(self, tmp_path, init):
        model, _ = ghz_noisy_files(tmp_path, 6)
        system = qts.parse_model(model.read_text())
        root = cli._load_init(cli.RunConfig(str(model), init=init), system)
        vecs, vals = root.spectrum
        ket = kets.parse_ket(init)
        assert root.location == system.initial
        assert np.array_equal(vals, [1.0])
        assert np.allclose(vecs[:, 0], ket / np.linalg.norm(ket),
                           rtol=0.0, atol=1e-15)


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

    @pytest.mark.parametrize("fixture",
                             ["xloop", "idloop", "bitflip_loop", "hloop"])
    def test_verify_cross_runs(self, capsys, fixture):
        # the fixpoint's basis: the root's direction first
        basis = ["|0>"] if fixture == "idloop" else ["|0>", "|1>"]
        code, out, _ = run_cli(
            capsys, "reach", "--model", str(FIXTURES / f"{fixture}.qts"),
            "--init", "|0>", "--verify", "--format", "json")
        assert code == cli.EXIT_HOLDS
        report = json.loads(out)
        assert report["basis"] == basis
        v = report["verify"]
        assert v["agree"] is True
        assert v["max_residual"] < 1e-7
        assert v["dims"] == {"fixpoint": len(basis), "power_sum": len(basis)}

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
        assert report["verify"]["dims"] == {"fixpoint": 5, "power_sum": 5}

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_dephasing_loop_verifies(self, capsys, tmp_path, n):
        # a bit flip and n - 1 ZZ dephasings, every Kraus operator with one
        # nonzero entry per row: the closed form gathers and scales; the
        # fixpoint reports the root's direction first
        model = tmp_path / f"dephasing{n}.qts"
        model.write_text(qts.serialize_model(dephasing_loop_qts(n)))
        code, out, err = run_cli(
            capsys, "reach", "--model", str(model), "--init", f"|{'0' * n}>",
            "--verify")
        assert code == 0, err
        lines = out.splitlines()
        assert lines == ["reachable dim 2", f"  |{'0' * n}>",
                         f"  |1{'0' * (n - 1)}>",
                         "verify: fixpoint=2 power_sum=2 agree=True"]

    def test_a_ket_root_is_not_made_dense(self, capsys, tmp_path,
                                          eigh_calls):
        # n = 9: the fixpoint starts from the ket's rank-1 factor, so
        # without --verify no 512 x 512 matrix is decomposed
        n = 9
        model = tmp_path / "dephasing9.qts"
        model.write_text(qts.serialize_model(dephasing_loop_qts(n)))
        code, out, err = run_cli(capsys, "reach", "--model", str(model),
                                 "--init", f"|{'0' * n}>")
        assert code == 0, err
        assert all(len(a) < 2 ** n for a in eigh_calls)
        assert out.splitlines() == ["reachable dim 2", f"  |{'0' * n}>",
                                    f"  |1{'0' * (n - 1)}>"]

    def test_printed_root_keeps_the_phase_of_its_ket(self, capsys):
        code, out, err = run_cli(
            capsys, "reach", "--model", str(FIXTURES / "idloop.qts"),
            "--init=-0.6|0> + 0.8i|1>", "--verify")
        assert code == 0, err
        assert out.splitlines() == ["reachable dim 1", "  -0.6|0> + 0.8i|1>",
                                    "verify: fixpoint=1 power_sum=1 "
                                    "agree=True"]

    @pytest.mark.parametrize("tol, dim", [(["--tol-eig", "1e-3"], 1),
                                          ([], 2)])
    def test_verify_routes_follow_tol_eig(self, capsys, tmp_path, tol, dim):
        # |0> flips with probability 1e-5 per step: at --tol-eig 1e-3 the
        # flipped weight falls under the cut on both routes
        eps = 1e-5
        kraus = (math.sqrt(1 - eps) * np.eye(2), math.sqrt(eps) * ch.PAULI_X)
        loop = qts.kraus_edge("l0", "l0", kraus, (1,), 1)
        model = tmp_path / "rare_flip.qts"
        model.write_text(qts.serialize_model(
            qts.QuantumTransitionSystem(1, ("l0",), "l0", (loop,))))
        code, out, err = run_cli(capsys, "reach", "--model", str(model),
                                 "--init", "|0>", "--verify", *tol)
        assert code == 0, err
        assert f"fixpoint={dim} power_sum={dim} " in out
        assert "agree=True" in out

    def test_verify_text_prints_the_residual_only_on_disagreement(
            self, capsys):
        # the residual is float noise when the routes agree; JSON keeps it
        argv = ("reach", "--model", str(FIXTURES / "hloop.qts"), "--init",
                "|0>", "--verify")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.splitlines()[-1] == \
            "verify: fixpoint=2 power_sum=2 agree=True"
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert 0.0 <= json.loads(out)["verify"]["max_residual"] < 1e-7
        # no residual is within a membership tolerance of 1e-300
        code, out, _ = run_cli(capsys, *argv, "--tol-member", "1e-300")
        assert code == 0
        line = out.splitlines()[-1]
        assert line.startswith(
            "verify: fixpoint=2 power_sum=2 max_residual=")
        assert line.endswith(" agree=False")

    def test_lifted_channel_is_held_without_a_second_check(self,
                                                          monkeypatch):
        # the system checked its one location's Kraus sum; the union of
        # the lifted sets is neither copied nor checked again at 2^n
        system = dephasing_loop_qts(6)
        checked = []
        post_init = ch.SuperOperator.__post_init__

        def counting(self):
            checked.append(self.n_qubits)
            post_init(self)

        monkeypatch.setattr(ch.SuperOperator, "__post_init__", counting)
        channel = cli._single_location_channel(system)
        assert checked == []
        lifted = [k for t in system.transitions for k in t.op.kraus]
        assert len(channel.kraus) == len(lifted) == 12
        assert all(a is b for a, b in zip(channel.kraus, lifted))
        assert channel.trace_class is ch.TraceClass.PRESERVING
        chain = reach.QuantumMarkovChain(channel.dim, channel)
        rho = np.zeros((64, 64), dtype=complex)
        rho[0, 0] = 1.0
        assert reach.reachable_subspace(chain, rho).dim == 2
        assert checked == []

    def test_model_without_transitions_rejected(self, capsys, tmp_path):
        model = tmp_path / "still.qts"
        model.write_text("qubits 1\nlocations l0\ninitial l0\ntransitions\n")
        code, _, err = run_cli(capsys, "reach", "--model", str(model))
        assert code == cli.EXIT_ERROR
        assert "at least one transition" in err

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


    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_depth_past_the_recursion_limit(self, capsys, fmt):
        code, out, err = run_cli(
            capsys, "simulate", "--model", str(FIXTURES / "idloop.qts"),
            "--depth", "1500", "--format", fmt)
        assert code == 0, err
        assert out.count("l0") == 1501
        if fmt == "text":
            last = out.splitlines()[-1]
            assert last.startswith("  " * 1500 + "l0  p=1  ")
        else:
            leaf = "  " * (2 + 2 * 1500) + '"location": "l0",'
            assert leaf + "\n" in out and "  " + leaf not in out
            assert out.endswith("\n    ]\n  }\n}\n")


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=False),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=20)


class TestJsonWriter:
    @given(JSON_VALUES)
    def test_matches_json_dumps(self, value):
        assert cli._json_dump(value) == json.dumps(value, indent=2) + "\n"

    def test_nesting_past_the_recursion_limit(self):
        value = [0]
        for _ in range(3000):
            value = {"a": [value]}
        out = cli._json_dump(value)
        assert out.count("[") == 3001 and out.endswith("\n}\n")


def deep_assertion(tmp_path, formula):
    spec = tmp_path / "deep.ctql"
    spec.write_text('let z = span { "|0>" }\n'
                    f'assert "deep" : {formula}\n')
    return str(spec)


class TestDeepNesting:
    """Syntax trees past parsing.MAX_DEPTH are refused as parse errors
    before any recursive pass sees them; at the limit they are checked."""

    L = MAX_DEPTH
    SHAPES = {
        "not": lambda n: "!" * n + " [z]",
        "parens": lambda n: "(" * n + "[z]" + ")" * n,
        "and-chain": lambda n: " && ".join(["[z]"] * n),
        "complement": lambda n: "[" + "~" * n + "z]",
        "or-chain": lambda n: "[" + " | ".join(["z"] * n) + "]",
    }

    @pytest.mark.parametrize("shape", SHAPES)
    def test_three_thousand_levels_are_refused(self, capsys, tmp_path, shape):
        spec = deep_assertion(tmp_path, self.SHAPES[shape](3000))
        code, _, err = run_cli(capsys, "check", "--model",
                               str(FIXTURES / "xloop.qts"), "--assert", spec)
        assert code == cli.EXIT_ERROR
        assert err.startswith("qmc: error: 2:")
        assert f"formula nests deeper than {MAX_DEPTH} levels" in err

    @pytest.mark.parametrize("shape", DEEP_SHAPES)
    def test_the_limit_is_checked(self, capsys, tmp_path, shape):
        at, over, _ = DEEP_SHAPES[shape]
        spec = deep_assertion(tmp_path, at)
        code, out, err = run_cli(capsys, "check", "--model",
                                 str(FIXTURES / "xloop.qts"), "--assert",
                                 spec, "--format", "json")
        assert code in (cli.EXIT_HOLDS, cli.EXIT_FAILS), err
        assert json.loads(out)["reports"][0]["nodes"] == 2
        spec = deep_assertion(tmp_path, over)
        code, _, err = run_cli(capsys, "check", "--model",
                               str(FIXTURES / "xloop.qts"), "--assert", spec)
        assert code == cli.EXIT_ERROR and "nests deeper" in err

    @pytest.mark.parametrize("groups, refused", [(L - 1, False), (L, True),
                                                 (3000, True)])
    def test_ket_init(self, capsys, groups, refused):
        init = "(" * groups + "|0>" + ")" * groups
        code, _, err = run_cli(capsys, "check", "--model",
                               str(FIXTURES / "xloop.qts"), "--assert",
                               str(FIXTURES / "xloop.ctql"), "--init", init)
        if refused:
            assert code == cli.EXIT_ERROR
            assert f"1:{self.L}: ket expression nests deeper" in err
        else:
            assert code in (cli.EXIT_HOLDS, cli.EXIT_FAILS), err


class TestFmt:
    def test_fmt_is_idempotent(self, capsys, tmp_path):
        _, once, _ = run_cli(capsys, "fmt", "--model",
                             str(FIXTURES / "teleport.qts"))
        redone = tmp_path / "canon.qts"
        redone.write_text(once)
        _, twice, _ = run_cli(capsys, "fmt", "--model", str(redone))
        assert once == twice


    def test_fmt_takes_no_format(self, capsys):
        # fmt prints the model text and nothing else; --format, which it
        # never read, is refused rather than ignored
        with pytest.raises(SystemExit) as info:
            cli.main(["fmt", "--model", str(FIXTURES / "teleport.qts"),
                      "--format", "json"])
        assert info.value.code != 0
        assert "--format" in capsys.readouterr().err


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

    @pytest.mark.parametrize("text, message", [
        ("[[1, 0], [1e-3, 0]]", "density matrix is not Hermitian"),
        ("[[0.5, 1e308], [-1e308, 0.5]]", "density matrix is not Hermitian"),
        ("[[0.5, 0], [0, 0.4]]", "density matrix trace is 0.9, expected 1"),
        ("[[0, 0], [0, 0]]", "density matrix trace is 0.0, expected 1")])
    def test_malformed_density_matrix_rejected(self, capsys, tmp_path, text,
                                               message):
        # RuntimeWarnings are errors in this suite: the overflowing
        # difference is refused without one
        rho = tmp_path / "bad.dm"
        rho.write_text(text + "\n")
        code, out, err = run_cli(
            capsys, "simulate", "--model", str(FIXTURES / "xloop.qts"),
            "--init", str(rho))
        assert (code, out) == (cli.EXIT_ERROR, "")
        assert err == f"qmc: error: {message}\n"

    def test_density_file_is_normalised_in_place(self, tmp_path, rng):
        # (rho + rho^dagger)/(2 tr), made a block of rows at a time, gives
        # the root the whole-matrix expression gives; d = 512 is four
        # blocks of rows, and the state lives on 40 indices across them
        system = qts.parse_model("qubits 9\nlocations l0\ninitial l0\n"
                                 "transitions\n  l0 -> l0 : gate I[1]\n")
        d, k = 2 ** 9, 40
        g = rng.normal(size=(k, 3)) + 1j * rng.normal(size=(k, 3))
        sub = g @ g.conj().T
        sub *= (1.0 + 1e-7) / np.trace(sub).real
        sub += 1e-9 * (rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
        rho = np.zeros((d, d), dtype=complex)
        idx = np.sort(rng.choice(d, size=k, replace=False))
        rho[np.ix_(idx, idx)] = sub
        path = tmp_path / "rho.dm"
        path.write_text(qts._format_matrix(rho.tolist()))
        root = cli._load_init(cli.RunConfig("m", init=str(path)), system)
        tr = float(np.trace(rho).real)
        want = qts.Configuration("l0", (rho + rho.conj().T) / (2.0 * tr))
        assert all(np.array_equal(a, b)
                   for a, b in zip(root.spectrum, want.spectrum))

    def test_density_file_checks_add_at_most_one_block(self, tmp_path,
                                                       monkeypatch):
        # |0...0><0...0| on 8 qubits, whose 1 MiB matrix is one block of
        # rows.  The parent's `_load_init` peaked at 3.51 MiB against 3.32
        # MiB for `parse_text` alone; its checks after the read, with the
        # read matrix given, peaked at 2.69 MiB, and 1.69 MiB here (the
        # text, one block of differences and their magnitudes)
        d = 2 ** 8
        text = "[" + ", ".join("[" + ", ".join(
            "1" if r == c == 0 else "0" for c in range(d)) + "]"
            for r in range(d)) + "]\n"
        path = tmp_path / "rho.txt"
        path.write_text(text, encoding="utf-8")
        system = qts.parse_model("qubits 8\nlocations l0\ninitial l0\n"
                                 "transitions\n  l0 -> l0 : gate I[1]\n")
        cfg = cli.RunConfig(model="m", init=str(path))
        block = la.BLOCK * np.dtype(complex).itemsize

        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        cli._load_init(cfg, system)  # imports and caches come first
        puncts = ["[", "]", ",", "+", "-"]
        parse = peak(lambda: parse_text(text, puncts, cli._density_literal))
        assert peak(lambda: cli._load_init(cfg, system)) <= parse + block
        read = parse_text(text, puncts, cli._density_literal)
        monkeypatch.setattr(cli, "parse_text", lambda *args: read)
        assert peak(lambda: cli._load_init(cfg, system)) <= 2 * block

    CYCLE_CTQL = ('let z = span { "|0>" }\nassert "a" : A G [z]\n'
                  'assert "b" : E X [z]\n')

    def run_xloop(self, capsys, tmp_path, init):
        ctql = tmp_path / "z.ctql"
        ctql.write_text(self.CYCLE_CTQL)
        return run_cli(capsys, "check", "--model", str(FIXTURES / "xloop.qts"),
                       "--assert", str(ctql), "--init", init)

    @pytest.mark.parametrize("init, message", [
        ("|0>/0", "1:5: division by zero"),
        ("|0>/sqrt0", "1:5: division by zero"),
        ("1e308|0> + 1e308|0>", "1:1: ket amplitude overflows"),
        ("|0>/1e-320", "1:1: ket amplitude overflows")])
    def test_non_finite_ket_rejected(self, capsys, tmp_path, init, message):
        # RuntimeWarnings are errors in this suite, so none is printed either
        code, out, err = self.run_xloop(capsys, tmp_path, init)
        assert (code, out) == (cli.EXIT_ERROR, "")
        assert err == f"qmc: error: {message}\n"

    def test_huge_ket_is_normalised(self, capsys, tmp_path):
        # the norm of 1e200|0> overflows; the largest magnitude does not
        assert self.run_xloop(capsys, tmp_path, "1e200|0>") == \
            self.run_xloop(capsys, tmp_path, "|0>")

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


class TestTolerances:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-0.0",
                                       "-1", "1e400"])
    @pytest.mark.parametrize("flag", ["--tol-member", "--tol-eig"])
    @pytest.mark.parametrize("command", ["check", "reach"])
    def test_a_tolerance_must_be_positive_and_finite(self, capsys, command,
                                                     flag, value):
        args = (["--model", str(FIXTURES / "teleport.qts"), "--assert",
                 str(FIXTURES / "teleport.ctql"), "--init", TELEPORT_INIT]
                if command == "check" else
                ["--model", str(FIXTURES / "xloop.qts"), "--verify"])
        code, out, err = run_cli(capsys, command, *args, f"{flag}={value}")
        assert (code, out) == (cli.EXIT_ERROR, "")
        assert err == f"qmc: error: {flag} must be positive and finite\n"


class TestKetInitFuzz:
    SEEDS = (TELEPORT_INIT, "(|000> + |111>)/sqrt2",
             "0.6|000> - (0.3+0.4i)|001> + i*|010>",
             "(0.5)((|000> - (-0.5i)|100>)/(1-2i))")
    # the ket alphabet; a seed's own tokens are added, so every ket that a
    # mutant holds has the teleport model's three qubits
    ALPHABET = ("(", ")", "+", "-", "/", "*", "sqrt", "i", "0", "2", "1e308")

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(SEEDS), st.data())
    def test_mutated_ket_init_exits_cleanly(self, seed, data):
        words = [t.text for t in tokenize(seed, _KET_PUNCTS)[:-1]]
        pool = sorted(set(words) | set(self.ALPHABET))
        for _ in range(data.draw(st.integers(1, 4))):
            i = data.draw(st.integers(0, len(words)))
            op = data.draw(st.sampled_from(["delete", "insert", "swap"]))
            if op == "insert":
                words.insert(i, data.draw(st.sampled_from(pool)))
            elif i < len(words) - 1:
                if op == "delete":
                    del words[i]
                else:
                    words[i], words[i + 1] = words[i + 1], words[i]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["check", "--model", str(FIXTURES / "teleport.qts"),
                             "--assert", str(FIXTURES / "teleport.ctql"),
                             "--init", " ".join(words)])
        err = err.getvalue()
        assert code in (0, 1, 2, 3), err
        assert err.count("qmc: error:") <= 1, err
        assert "internal error" not in err, err


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


@pytest.mark.parametrize("argv", [
    ["check", "--model", str(FIXTURES / "teleport.qts")],
    ["reach", "--model", str(FIXTURES / "teleport.qts"), "--bogus"],
    ["check", "--model", str(FIXTURES / "teleport.qts"), "--assert",
     str(FIXTURES / "teleport.ctql"), "--tol-member", "-inf"],
], ids=["missing-assert", "unknown-option", "tol-member-spaced-negative"])
def test_usage_error_exits_as_error(capsys, argv):
    # 2 is the `unknown` verdict; a mistyped command must not read as one
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["--help"])
    assert info.value.code == 0
    assert "usage: qmc" in capsys.readouterr().out


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "qmc.cli", "reach",
         "--model", str(FIXTURES / "idloop.qts"), "--init", "|0>"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert "reachable dim 1" in result.stdout
