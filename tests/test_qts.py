import math
import pathlib
import tracemalloc

import numpy as np
import pytest

from qmc import channel as ch
from qmc import linalg as la
from qmc import qts
from qmc.errors import (BadParameter, DimensionMismatch, InvalidDensityMatrix,
                        MalformedCircuit, NormalisationViolation, ParseError,
                        QmcError, RepeatedQubit, TargetOutOfRange,
                        UnknownGate, UnknownLocation)

from helpers import (dense_step, random_channel, random_circuit,
                     random_density, random_unit_vector, trace_distance)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

KET0 = np.array([1, 0], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)


def pure(v):
    return np.outer(v, v.conj())


@pytest.fixture
def eigh_calls(monkeypatch):
    """The arrays passed to np.linalg.eigh during the test, in order."""
    eigh = np.linalg.eigh
    calls = []

    def recording_eigh(a, *args, **kwargs):
        calls.append(a)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    return calls


def run_to_depth(system, rho0, depth):
    frontier = [qts.Configuration(system.initial, rho0)]
    for _ in range(depth):
        frontier = [succ for c in frontier for succ, _ in qts.step(system, c)]
    return frontier


def check_normalisation(system):
    d = 2 ** system.n_qubits
    for loc in system.locations:
        outgoing = system.outgoing(loc)
        if not outgoing:
            continue
        total = np.zeros((d, d), dtype=complex)
        for t in outgoing:
            for k in t.op.kraus:
                total += k.conj().T @ k
        assert np.abs(total - np.eye(d)).max() < 1e-9, loc


class TestCompile:
    def test_single_gate(self):
        system = qts.compile_circuit(qts.Gate((1,), name="H"), 1)
        assert len(system.locations) == 2
        kinds = [type(t.spec).__name__ for t in system.transitions]
        assert kinds == ["GateSpec", "GateSpec"]  # the gate, then a self-loop
        self_loops = [t for t in system.transitions if t.pre == t.post]
        assert len(self_loops) == 1

    def test_five_gate_chain(self):
        circuit = qts.Seq(qts.Seq(qts.Seq(qts.Seq(
            qts.Gate((1,), name="Z"), qts.Gate((2,), name="H")),
            qts.Gate((1, 2), name="CX")),
            qts.Gate((1,), name="Y")),
            qts.Gate((2,), name="H"))
        system = qts.compile_circuit(circuit, 2)
        chain = [t for t in system.transitions if t.pre != t.post]
        assert len(chain) == 5
        assert [t.spec.name for t in chain] == ["Z", "H", "CX", "Y", "H"]

    def test_teleportation_shape(self):
        system = qts.compile_circuit(qts.teleportation_circuit(), 3)
        fixture = qts.teleportation_qts()
        assert len(system.locations) == len(fixture.locations) == 15
        assert len(system.transitions) == len(fixture.transitions) == 18
        # 2 edges for the first measurement, 4 for the branch-duplicated
        # second one, matching the fixture's fan-out
        for s in (system, fixture):
            measures = [t for t in s.transitions
                        if isinstance(t.spec, qts.MeasureSpec)]
            assert len(measures) == 6

    def test_normalisation_holds_on_random_circuits(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 5))
            circuit = random_circuit(rng, n, depth=int(rng.integers(1, 7)))
            check_normalisation(qts.compile_circuit(circuit, n))

    def test_rejects_out_of_range_qubit(self):
        with pytest.raises(MalformedCircuit):
            qts.compile_circuit(qts.Gate((3,), name="H"), 2)

    def test_rejects_missing_branch(self):
        cond = qts.Cond(ch.computational_measurement(1), (1,),
                        {0: qts.Gate((1,), name="I")})
        with pytest.raises(MalformedCircuit):
            qts.compile_circuit(cond, 1)

    def test_cond_keeps_its_measurement_operators(self):
        # an X-basis measurement of |+> has one outcome, with certainty
        minus = np.array([1, -1], dtype=complex) / np.sqrt(2)
        m = ch.Measurement(1, {0: np.outer(PLUS, PLUS),
                               1: np.outer(minus, minus)})
        cond = qts.Cond(m, (1,), {0: qts.Gate((1,), name="I"),
                                  1: qts.Gate((1,), name="X")})
        system = qts.compile_circuit(cond, 1)
        check_normalisation(system)
        plus_edge = system.outgoing(system.initial)[0]
        (succ, p), = qts.step(system,
                              qts.Configuration(system.initial, pure(PLUS)))
        assert p == pytest.approx(1.0, abs=1e-12)
        assert succ.location == plus_edge.post
        assert np.abs(succ.state - pure(PLUS)).max() < 1e-12


class TestBuildSequential:
    def test_identity_loop(self, rng):
        system = qts.build_sequential(ch.SuperOperator.identity(1), 1, 0)
        (config, p), = qts.step(system,
                                qts.Configuration("l0", pure(KET0)))
        assert p == pytest.approx(1.0)
        assert config.location == "l0"
        assert np.abs(config.state - pure(KET0)).max() < 1e-12

    def test_x_loop_has_period_two(self):
        system = qts.build_sequential(ch.gate_library("X"), 1, 0)
        one = run_to_depth(system, pure(KET0), 1)[0].state
        two = run_to_depth(system, pure(KET0), 2)[0].state
        assert np.abs(one - np.diag([0.0, 1.0])).max() < 1e-12
        assert np.abs(two - pure(KET0)).max() < 1e-12

    def test_bitflip_reaches_mixed_in_one_step(self):
        system = qts.build_sequential(ch.noise_library("bit_flip", 0.5), 1, 0)
        state = run_to_depth(system, pure(KET0), 1)[0].state
        assert np.abs(state - np.eye(2) / 2).max() < 1e-12

    def test_arity_check(self):
        with pytest.raises(DimensionMismatch):
            qts.build_sequential(ch.SuperOperator.identity(1), 1, 1)


class TestStep:
    def test_unitary_single_successor(self):
        system = qts.teleportation_qts()
        succs = qts.step(system, qts.Configuration(
            "l0", qts.teleportation_input(KET0)))
        assert len(succs) == 1
        assert succs[0][1] == pytest.approx(1.0)
        assert succs[0][0].location == "l1"

    def test_measurement_branches_on_plus_input(self):
        system = qts.teleportation_qts()
        config = qts.Configuration("l0", qts.teleportation_input(PLUS))
        for _ in range(2):
            (config, _), = qts.step(system, config)
        branches = qts.step(system, config)
        assert sorted(c.location for c, _ in branches) == ["l3", "l4"]
        assert all(abs(p - 0.5) < 1e-9 for _, p in branches)

    def test_probability_mass_conserved(self, rng):
        system = qts.compile_circuit(random_circuit(rng, 2, 4), 2)
        psi = random_unit_vector(rng, 4)
        frontier = [qts.Configuration(system.initial, pure(psi))]
        for _ in range(5):
            frontier = [s for c in frontier
                        for s, _ in qts.step(system, c)]
            total = sum(c.probability for c in frontier)
            assert abs(total - 1.0) < 1e-9

    def test_unknown_location(self):
        system = qts.teleportation_qts()
        with pytest.raises(UnknownLocation):
            qts.step(system, qts.Configuration("nowhere", pure(KET0)))


class TestFactoredStep:
    """`step` maps each configuration's spectral factor; it must agree with
    the dense channel application and carry the dense state's support."""

    def random_system(self, rng, n_qubits):
        # gates, flip noises and measurement branches, plus a random
        # three-Kraus loop on the terminal locations; from 3 qubits on, the
        # circuit starts with a random 2-qubit channel on a non-adjacent
        # target pair, in either order
        circuit = random_circuit(rng, n_qubits, 4)
        loop = random_channel(rng, n_qubits, n_kraus=3)
        if n_qubits >= 3:
            pairs = [(a, b) for a in range(1, n_qubits + 1)
                     for b in range(1, n_qubits + 1) if abs(a - b) > 1]
            pair = pairs[int(rng.integers(len(pairs)))]
            circuit = qts.Seq(qts.Gate(pair, op=random_channel(rng, 2)),
                              circuit)
        system = qts.compile_circuit(circuit, n_qubits)
        qubits = tuple(range(1, n_qubits + 1))
        transitions = [t if t.pre != t.post else
                       qts.kraus_edge(t.pre, t.post, loop.kraus, qubits,
                                      n_qubits)
                       for t in system.transitions]
        return qts.QuantumTransitionSystem(n_qubits, system.locations,
                                           system.initial,
                                           tuple(transitions))

    @pytest.mark.parametrize("seed", range(10))
    def test_successors_match_dense_application(self, seed):
        rng = np.random.default_rng(seed)
        n = 1 + seed % 5
        d = 2 ** n
        system = self.random_system(rng, n)
        for rank in range(1, d + 1):
            frontier = [qts.Configuration(system.initial,
                                          random_density(rng, d, rank))]
            for _ in range(4):
                nxt = []
                for config in frontier:
                    got = qts.step(system, config)
                    want = dense_step(system, config)
                    assert [(s.location, len(s.state)) for s, _ in got] == \
                        [(s.location, len(s.state)) for s, _ in want]
                    for (a, pa), (b, pb) in zip(got, want):
                        assert abs(pa - pb) <= 1e-12
                        assert abs(a.probability - b.probability) <= 1e-12
                        assert np.abs(a.state - b.state).max() <= 1e-12
                        for tol in (1e-12, 1e-8, 1e-4):
                            assert a.support(tol).same_space(
                                la.support(b.state, tol))
                    nxt.extend(s for s, _ in got)
                frontier = nxt

    def test_hand_built_configuration_decomposes_once(self, rng):
        rho = random_density(rng, 4, 2)
        config = qts.Configuration("l0", rho)
        vecs, vals = config.spectrum
        assert config.spectrum[0] is vecs
        assert np.all(np.diff(vals) <= 0.0)
        assert np.abs((vecs * vals) @ vecs.conj().T - rho).max() < 1e-12
        assert config.support().dim == 2

    @pytest.mark.parametrize("d", [4, 16, 64, 256])
    def test_root_eigh_runs_on_live_indices(self, rng, d, eigh_calls):
        # states supported on random index subsets: the compressed eigh
        # must agree with a full one, and decompose only the live block
        for _ in range(6):
            k = int(rng.integers(1, d))
            idx = np.sort(rng.choice(d, size=k, replace=False))
            # rank 1-3, or full rank on the subset with eigenvalues of at
            # least 1/(2k), so both decompositions are well conditioned
            rank = min(k, int(rng.integers(1, 4)))
            sub = random_density(rng, k, rank)
            if rng.random() < 0.3:
                sub = (sub + np.eye(k) / k) / 2.0
                rank = k
            rho = np.zeros((d, d), dtype=complex)
            rho[np.ix_(idx, idx)] = sub
            eigh_calls.clear()
            config = qts.Configuration("l0", rho)
            vecs, vals = config.spectrum
            assert [a.shape for a in eigh_calls] == [(k, k)]
            w, v = np.linalg.eigh(rho)
            assert config.support().dim == la.support(rho).dim == rank
            got = np.zeros(d)
            got[:len(vals)] = vals
            assert np.abs(got - w[::-1]).max() <= 1e-14
            top = v[:, ::-1][:, :rank]
            assert np.abs(vecs[:, :rank] @ vecs[:, :rank].conj().T
                          - top @ top.conj().T).max() <= 1e-12
            assert not vecs[np.setdiff1d(np.arange(d), idx)].any()
        # index 2 has a zero row but a nonzero column entry, within the
        # Hermiticity tolerance: it is live
        rho = np.zeros((d, d), dtype=complex)
        rho[0, 0], rho[0, 2] = 1.0, 1e-7
        eigh_calls.clear()
        qts.Configuration("l0", rho).spectrum
        assert [a.shape for a in eigh_calls] == [(2, 2)]

    def test_fully_live_root_is_decomposed_as_held(self, rng, eigh_calls):
        config = qts.Configuration("l0", random_density(rng, 32, 2))
        config.spectrum
        assert len(eigh_calls) == 1
        assert eigh_calls[0].shape == (32, 32)
        assert eigh_calls[0] is config.state

    def test_support_keeps_hermiticity_check(self):
        # within the configuration's tolerance, outside the support's
        rho = pure(KET0).astype(complex)
        rho[0, 1] = 1e-7
        config = qts.Configuration("l0", rho)
        with pytest.raises(InvalidDensityMatrix):
            config.support()


class TestGateLocal:
    """Transitions keep their channels on their target qubits."""

    def test_mixed_target_defect_matches_dense_sum(self, rng):
        # two trace-reducing edges on [2] and [1, 3] that together fall
        # short of the identity
        def contraction(d):
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            return 0.6 * g / np.linalg.norm(g, 2)

        edges = (qts.kraus_edge("l0", "l0", [contraction(2)], (2,), 3),
                 qts.kraus_edge("l0", "l0", [contraction(4)], (1, 3), 3))
        total = sum(k.conj().T @ k for t in edges for k in t.op.kraus)
        dense = float(np.abs(total - np.eye(8)).max())
        with pytest.raises(NormalisationViolation) as info:
            qts.QuantumTransitionSystem(3, ("l0",), "l0", edges)
        assert info.value.location == "l0"
        assert abs(info.value.defect - dense) <= 1e-15

    def test_edges_reject_bad_targets(self):
        x = [ch.PAULI_X]
        for bad, error in (((4,), TargetOutOfRange), ((0,), TargetOutOfRange),
                           ((2, 2), RepeatedQubit)):
            wide = len(bad) == 2
            with pytest.raises(error):
                qts.gate_edge("a", "b", "CX" if wide else "X", bad, 3)
            with pytest.raises(error):
                qts.kraus_edge("a", "b", [np.eye(4)] if wide else x, bad, 3)
            with pytest.raises(error):
                qts.measure_edge("a", "b", bad, 0, 3)

    def test_parse_builds_no_register_sized_operator(self):
        # 10 qubits: one dense Kraus operator is 16 MiB, and lifting every
        # edge to the full register at parse time peaked at 272 MiB
        n = 10
        circuit = qts.Gate((1,), name="H")
        for q in range(1, n):
            circuit = qts.Seq(circuit, qts.Gate((q, q + 1), name="CX"))
        circuit = qts.Seq(circuit, qts.Gate(
            (1,), op=ch.noise_library("bit_flip", 0.9)))
        text = qts.serialize_model(qts.compile_circuit(circuit, n))
        tracemalloc.start()
        try:
            system = qts.parse_model(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(system.transitions) == n + 2
        assert peak < 2 * 2 ** 20


def _identity_branches(*outcomes):
    return {m: qts.Gate((1,), name="I") for m in outcomes}


# one row per fault: the error class, then the same fault given to an edge
# constructor, to compile_circuit (2 qubits) and as a .qts operation
_FAULTS = {
    "out-of-range qubit": (
        TargetOutOfRange,
        lambda: qts.gate_edge("a", "b", "H", (3,), 2),
        qts.Gate((3,), name="H"), "gate H[3]"),
    "repeated qubit": (
        RepeatedQubit,
        lambda: qts.gate_edge("a", "b", "CX", (1, 1), 2),
        qts.Gate((1, 1), name="CX"), "gate CX[1, 1]"),
    "gate arity": (
        DimensionMismatch,
        lambda: qts.gate_edge("a", "b", "CX", (1,), 2),
        qts.Gate((1,), name="CX"), "gate CX[1]"),
    "kraus arity": (
        DimensionMismatch,
        lambda: qts.kraus_edge("a", "b", [np.diag([1.0, 0.0])], (1, 2), 2),
        qts.Cond(ch.computational_measurement(1), (1, 2),
                 _identity_branches(0, 1)),
        "kraus { [[1, 0], [0, 0]] }[1, 2]"),
    "unknown gate": (
        UnknownGate,
        lambda: qts.gate_edge("a", "b", "FOO", (1,), 2),
        qts.Gate((1,), name="FOO"), "gate FOO[1]"),
    "bad parameter count": (
        BadParameter,
        lambda: qts.gate_edge("a", "b", "X", (1,), 2, (0.5,)),
        qts.Gate((1,), name="X", params=(0.5,)), "gate X(0.5)[1]"),
    "missing angle": (
        BadParameter,
        lambda: qts.gate_edge("a", "b", "RX", (1,), 2),
        qts.Gate((1,), name="RX"), "gate RX[1]"),
    "bad outcome": (
        BadParameter,
        lambda: qts.measure_edge("a", "b", (1,), 2, 2),
        qts.Cond(ch.computational_measurement(1), (1,),
                 _identity_branches(0, 1, 2)),
        "measure M[1] = 2"),
}


class TestOneCheckPerRule:
    @pytest.mark.parametrize("fault", sorted(_FAULTS))
    def test_every_entry_point_raises_the_same_class(self, fault):
        error, edge, node, operation = _FAULTS[fault]
        with pytest.raises(QmcError) as from_edge:
            edge()
        with pytest.raises(QmcError) as from_compile:
            qts.compile_circuit(node, 2)
        text = ("qubits 2\nlocations a b\ninitial a\ntransitions\n"
                f"  a -> b : {operation}\n")
        with pytest.raises(ParseError) as from_parse:
            qts.parse_model(text)
        assert type(from_edge.value) is error
        assert type(from_compile.value) is error
        assert type(from_parse.value.__cause__) is error
        assert (from_parse.value.line, from_parse.value.column) == (5, 12)

    def test_unknown_gate_keeps_its_spelling(self):
        with pytest.raises(ParseError, match="unknown gate 'foo'"):
            qts.parse_model("qubits 1\nlocations a\ninitial a\n"
                            "transitions\na -> a : gate foo[1]\n")

    def test_measure_edge_rejects_unknown_outcome(self):
        with pytest.raises(QmcError):
            qts.measure_edge("a", "b", (1,), 2, 1)

    def test_measure_edge_builds_only_its_projector(self):
        # the whole 7-qubit measurement holds 128 operators of 128 x 128
        tracemalloc.start()
        try:
            edge = qts.measure_edge("a", "b", tuple(range(1, 8)), 5, 7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20
        (proj,) = edge.local.kraus
        assert np.count_nonzero(proj) == 1 and proj[5, 5] == 1.0

    def test_measure_targets_checked_before_the_measurement_is_built(self):
        # the measurement of k targets holds 2^k operators of 2^k x 2^k
        targets = ", ".join(["1"] * 40)
        with pytest.raises(ParseError) as info:
            qts.parse_model("qubits 1\nlocations a b\ninitial a\ntransitions\n"
                            f"  a -> b : measure M[{targets}] = 0\n")
        assert isinstance(info.value.__cause__, RepeatedQubit)

    def test_target_faults_are_malformed_circuits(self):
        with pytest.raises(MalformedCircuit):
            qts.gate_edge("a", "b", "CX", (1, 1), 2)
        with pytest.raises(MalformedCircuit):
            qts.measure_edge("a", "b", (3,), 0, 2)

    def test_kraus_set_fault_is_normalisation_violation(self):
        with pytest.raises(NormalisationViolation) as info:
            qts.kraus_edge("a", "b", [2.0 * np.eye(2)], (1,), 1)
        assert info.value.defect == pytest.approx(3.0)


class TestTeleportation:
    @pytest.mark.parametrize("seed", range(5))
    def test_output_on_qubit_three(self, seed):
        rng = np.random.default_rng(seed)
        psi = random_unit_vector(rng, 2)
        for system in (qts.teleportation_qts(),
                       qts.compile_circuit(qts.teleportation_circuit(), 3)):
            leaves = run_to_depth(system, qts.teleportation_input(psi), 6)
            assert len(leaves) == 4
            for leaf in leaves:
                assert abs(leaf.probability - 0.25) < 1e-9
                reduced = ch.partial_trace(leaf.state, [3], 3)
                assert trace_distance(reduced, pure(psi)) < 1e-9


class TestModelFormat:
    def test_round_trip_teleportation(self):
        system = qts.teleportation_qts()
        text = qts.serialize_model(system)
        again = qts.parse_model(text)
        assert system.same_system(again)
        assert qts.serialize_model(again) == text

    def test_round_trip_all_good_fixtures(self):
        for path in sorted(FIXTURES.glob("*.qts")):
            text = path.read_text()
            system = qts.parse_model(text)
            canon = qts.serialize_model(system)
            again = qts.parse_model(canon)
            assert again.same_system(system, tol=0.0), path.name
            assert qts.serialize_model(again) == canon, path.name

    def test_missing_measurement_branch_rejected(self):
        text = (FIXTURES / "bad" / "missing_branch.qts").read_text()
        with pytest.raises(NormalisationViolation) as info:
            qts.parse_model(text)
        assert info.value.location == "l0"
        assert info.value.defect == pytest.approx(1.0)
        assert info.value.line == 8

    def test_unknown_gate_has_position(self):
        text = (FIXTURES / "bad" / "unknown_gate.qts").read_text()
        with pytest.raises(ParseError) as info:
            qts.parse_model(text)
        assert "FOO" in str(info.value)
        assert info.value.line == 7

    def test_nonunitary_kraus_rejected(self):
        text = (FIXTURES / "bad" / "nonunitary_kraus.qts").read_text()
        with pytest.raises(NormalisationViolation):
            qts.parse_model(text)

    def test_overflowing_kraus_sum_rejected_without_warnings(self):
        # the entry is finite, its square is not; RuntimeWarnings are
        # errors in this suite
        text = ("qubits 1\nlocations l0\ninitial l0\ntransitions\n"
                "  l0 -> l0 : kraus { [[1e200, 0], [0, 1]] }[1]\n")
        with pytest.raises(NormalisationViolation) as info:
            qts.parse_model(text)
        assert str(info.value) == \
            "5:14: Kraus operators have normalisation defect inf"

    def test_trace_reducing_edge_alone_rejected(self):
        text = (FIXTURES / "bad" / "reducing_kraus.qts").read_text()
        with pytest.raises(NormalisationViolation) as info:
            qts.parse_model(text)
        assert info.value.location == "l0"

    def test_syntax_error_position(self):
        text = (FIXTURES / "bad" / "syntax_error.qts").read_text()
        with pytest.raises(ParseError) as info:
            qts.parse_model(text)
        assert info.value.line == 7

    def test_undeclared_location(self):
        text = (FIXTURES / "bad" / "undeclared_location.qts").read_text()
        with pytest.raises(ParseError) as info:
            qts.parse_model(text)
        assert "nowhere" in str(info.value)

    def test_gate_arity_checked(self):
        with pytest.raises(ParseError):
            qts.parse_model("qubits 2\nlocations a\ninitial a\n"
                            "transitions\na -> a : gate CX[1]\n")

    def test_rotation_gate_round_trips(self):
        text = ("qubits 1\nlocations a\ninitial a\n"
                "transitions\na -> a : gate RZ(0.5)[1]\n")
        system = qts.parse_model(text)
        assert qts.parse_model(qts.serialize_model(system)) \
            .same_system(system)
        expected = ch.gate_matrix("RZ", 0.5)
        assert np.abs(system.transitions[0].op.kraus[0] - expected).max() \
            < 1e-12

    def round_trip(self, system):
        text = qts.serialize_model(system)
        assert "-" in text.replace("->", "")
        again = qts.parse_model(text)
        assert system.same_system(again)
        assert qts.serialize_model(again) == text

    def test_negative_angle_round_trips(self):
        self.round_trip(qts.QuantumTransitionSystem(1, ("a",), "a", (
            qts.gate_edge("a", "a", "RY", (1,), 1, (-0.3,)),)))

    def test_negative_real_entry_round_trips(self):
        noise = ch.noise_library("phase_flip", 0.7)
        self.round_trip(qts.QuantumTransitionSystem(2, ("a",), "a", (
            qts.kraus_edge("a", "a", noise.kraus, (2,), 2),)))

    def test_complex_entry_with_negative_imaginary_part_round_trips(self):
        sqrt_x = np.array([[1 - 1j, 1 + 1j], [1 + 1j, 1 - 1j]]) / 2
        system = qts.QuantumTransitionSystem(1, ("a",), "a", (
            qts.kraus_edge("a", "a", [sqrt_x], (1,), 1),))
        assert "0.5-0.5i" in qts.serialize_model(system)
        self.round_trip(system)

    def test_compiled_system_serializes(self, rng):
        system = qts.compile_circuit(random_circuit(rng, 2, 3), 2)
        again = qts.parse_model(qts.serialize_model(system))
        assert system.same_system(again)


class TestConfiguration:
    def test_factor_checks(self, rng):
        vecs = np.linalg.qr(rng.normal(size=(4, 2)))[0].astype(complex)
        config = qts.Configuration.from_factor("l0", vecs,
                                               np.array([0.75, 0.25]), 0.5)
        assert config.probability == 0.5
        assert config.state is not config.state  # rebuilt, never held
        with pytest.raises(DimensionMismatch):
            qts.Configuration.from_factor("l0", 2 * vecs,
                                          np.array([0.75, 0.25]))
        with pytest.raises(DimensionMismatch):
            qts.Configuration.from_factor("l0", vecs, np.array([0.75, 0.5]))
        with pytest.raises(DimensionMismatch):
            qts.Configuration.from_factor("l0", vecs, np.array([0.75, 0.25]),
                                          probability=1.5)

    def test_state_is_rebuilt_on_every_read(self, rng):
        rho = random_density(rng, 8, 3)
        (succ, _), = qts.step(qts.build_sequential(
            ch.SuperOperator.identity(3), 3, 0), qts.Configuration("l0", rho))
        u, lam = succ.spectrum
        want = (u * lam) @ u.conj().T
        want = (want + want.conj().T) / 2.0
        first = succ.state
        assert first is not succ.state
        assert np.array_equal(first, want)
        assert np.abs(first - rho).max() < 1e-12

    @pytest.mark.parametrize("where", [(0, 0), (1, 1), (0, 1)])
    def test_rejects_a_nan_state(self, where):
        rho = np.diag([1.0, 0.0]).astype(complex)
        rho[where] = np.nan
        with pytest.raises(DimensionMismatch):
            qts.Configuration("l0", rho)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("d, where", [(2, (0, 0)), (2, (0, 1)),
                                          (300, (299, 0))])
    def test_rejects_a_non_finite_entry_without_a_warning(self, value, d,
                                                          where):
        # d = 300 puts the entry in the second block of rows
        rho = np.zeros((d, d), dtype=complex)
        rho[0, 0] = 1.0
        rho[where] = value
        with pytest.raises(DimensionMismatch, match="non-finite"):
            qts.Configuration("l0", rho)

    def test_rejects_a_real_inf_diagonal(self):
        with pytest.raises(DimensionMismatch, match="non-finite"):
            qts.Configuration("l0", np.diag([np.inf, 0.0]))

    @pytest.mark.parametrize("rho, match", [
        ([[0.5, 1e308], [-1e308, 0.5]], "Hermitian"),
        ([[1e308j, 0.0], [0.0, 1.0]], "Hermitian"),
        ([[1e308, 0.0], [0.0, 1e308]], "trace")])
    def test_rejects_an_overflowing_entry_without_a_warning(self, rho, match):
        with pytest.raises(DimensionMismatch, match=match):
            qts.Configuration("l0", rho)

    def test_factor_rejects_nan(self):
        vecs = np.eye(2, dtype=complex)[:, :1]
        with pytest.raises(DimensionMismatch, match="trace"):
            qts.Configuration.from_factor("l0", vecs.copy(),
                                          np.array([np.nan]))
        with pytest.raises(DimensionMismatch, match="orthonormal"):
            qts.Configuration.from_factor("l0", np.full((2, 1), np.nan + 0j),
                                          np.array([1.0]))

    def test_rejects_unnormalised(self):
        with pytest.raises(DimensionMismatch):
            qts.Configuration("l0", np.eye(2))

    def test_hermiticity_check_reads_every_row_block(self):
        # d = 512 is four blocks of rows; the defect sits in the third
        d = 512
        for defect, raises in ((2e-9, InvalidDensityMatrix),
                               (2e-6, DimensionMismatch)):
            rho = np.zeros((d, d), dtype=complex)
            rho[0, 0] = 1.0
            rho[300, 7] = defect
            with pytest.raises(raises):
                qts.Configuration("l0", rho).support()

    def test_construction_peaks_under_one_and_a_half_states(self):
        # a 10-qubit |0...0><0...0| root: the kept copy, plus one block of
        # rows at a time for the Hermiticity check
        d = 2 ** 10
        rho0 = np.zeros((d, d), dtype=complex)
        rho0[0, 0] = 1.0
        tracemalloc.start()
        try:
            config = qts.Configuration("l0", rho0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert config.state.shape == (d, d)
        assert peak < 1.5 * rho0.nbytes

    def test_holds_a_read_only_complex_state_without_copying(self, rng):
        rho = random_density(rng, 4)
        rho.setflags(write=False)
        assert qts.Configuration("l0", rho).state is rho
        # writable or non-complex input is copied, and the copy read-only
        for given in (random_density(rng, 4), np.diag([0.5, 0.5])):
            held = qts.Configuration("l0", given).state
            assert held is not given
            assert not held.flags.writeable
            assert np.array_equal(held, given)

    def test_rejects_bad_probability(self):
        with pytest.raises(DimensionMismatch):
            qts.Configuration("l0", pure(KET0), probability=0.0)


def test_initial_must_be_declared():
    with pytest.raises(UnknownLocation):
        qts.QuantumTransitionSystem(1, ("a",), "b", ())


def test_teleportation_input_shape():
    rho = qts.teleportation_input(PLUS)
    assert rho.shape == (8, 8)
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    # qubits 2 and 3 hold the pure entangled pair
    reduced = ch.partial_trace(rho, [2, 3], 3)
    bell = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    assert np.abs(reduced - np.outer(bell, bell)).max() < 1e-12
