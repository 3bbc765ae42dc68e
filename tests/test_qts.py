import math
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmc import channel as ch
from qmc import linalg as la
from qmc import qts
from qmc.errors import (BadParameter, DimensionMismatch, InvalidDensityMatrix,
                        MalformedCircuit, NormalisationViolation, ParseError,
                        QmcError, RepeatedQubit, TargetOutOfRange,
                        UnknownGate, UnknownLocation)

from helpers import (dense_step, loop_qts, random_channel, random_circuit,
                     random_density, random_unit_vector, random_unitary,
                     reference_spectrum, trace_distance)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

KET0 = np.array([1, 0], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)


def pure(v):
    return np.outer(v, v.conj())


def location_bijection(a, b):
    """The renaming of a's locations onto b's under which their edges,
    specs included, are equal, or None if there is none.  It is grown from
    the initial locations, matching edges by spec, so it assumes no
    location has two outgoing edges with one spec."""
    rename = {a.initial: b.initial}
    todo = [a.initial]
    while todo:
        loc = todo.pop()
        out_a = {t.spec: t.post for t in a.outgoing(loc)}
        out_b = {t.spec: t.post for t in b.outgoing(rename[loc])}
        if out_a.keys() != out_b.keys():
            return None
        for spec, post in out_a.items():
            if post not in rename:
                rename[post] = out_b[spec]
                todo.append(post)
    edges_a = {(rename.get(t.pre), rename.get(t.post), t.spec)
               for t in a.transitions}
    edges_b = {(t.pre, t.post, t.spec) for t in b.transitions}
    if (sorted(rename.values()) != sorted(b.locations)
            or len(a.transitions) != len(b.transitions) or edges_a != edges_b):
        return None
    return rename


def run_to_depth(system, rho0, depth):
    frontier = [qts.Configuration(system.initial, rho0)]
    for _ in range(depth):
        frontier = [succ for c in frontier for succ, _ in qts.step(system, c)]
    return frontier


def _tensordot_apply(t, factor):
    """`qts._apply_local` as one `np.tensordot` and `np.moveaxis`."""
    n, w = t.n_qubits, len(t.targets)
    kraus = np.stack(t.local.kraus).reshape((-1,) + (2,) * (2 * w))
    out = np.tensordot(kraus, factor.reshape((2,) * n + (-1,)),
                       axes=([2 * w - j + 1 for j in range(1, w + 1)],
                             [n - q for q in t.targets]))
    out = np.moveaxis(out, range(w + 1),
                      [n] + [n - q for q in t.targets[::-1]])
    return out.reshape(2 ** n, -1)


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

    @pytest.mark.parametrize("nest", ["left", "right"])
    def test_a_5000_gate_chain_compiles(self, nest):
        # built as ir = Seq(ir, gate), the way the benchmark's circuits are,
        # the chain is 5000 Seqs deep
        names = ["H" if k % 3 else "X" for k in range(5000)]
        ir = qts.Gate((1,), name=names[0])
        for name in names[1:]:
            gate = qts.Gate((1,), name=name)
            ir = qts.Seq(ir, gate) if nest == "left" else qts.Seq(gate, ir)
        system = qts.compile_circuit(ir, 1)
        assert system.locations == tuple(f"l{k}" for k in range(5001))
        chain = system.transitions[:-1]
        assert [(t.pre, t.post) for t in chain] == \
            [(f"l{k}", f"l{k + 1}") for k in range(5000)]
        assert [t.spec.name for t in chain] == \
            (names if nest == "left" else names[::-1])
        assert system.outgoing("l5000")[0].spec.name == "I"

    def test_teleportation_shape(self):
        # tests/fixtures/teleport.qts is the protocol written out by hand;
        # the compiler gives the same system up to a renaming of locations
        system = qts.teleportation_qts()
        text = (FIXTURES / "teleport.qts").read_text()
        fixture = qts.parse_model(text)
        assert location_bijection(system, fixture) is not None
        assert len(system.locations) == len(fixture.locations) == 15
        assert len(system.transitions) == len(fixture.transitions) == 18
        # 2 edges for the first measurement, 4 for the branch-duplicated
        # second one
        measures = [t for t in system.transitions
                    if isinstance(t.spec, qts.MeasureSpec)]
        assert len(measures) == 6
        assert sorted(t.pre for t in system.transitions
                      if t.pre == t.post) == ["l10", "l12", "l14", "l8"]
        # one correction changed breaks the correspondence
        broken = qts.parse_model(text.replace("gate Z[3]", "gate X[3]", 1))
        assert location_bijection(system, broken) is None

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
        system = loop_qts(ch.SuperOperator.unitary(np.eye(2)))
        (config, p), = qts.step(system,
                                qts.Configuration("l0", pure(KET0)))
        assert p == pytest.approx(1.0)
        assert config.location == "l0"
        assert np.abs(config.state - pure(KET0)).max() < 1e-12

    def test_x_loop_has_period_two(self):
        system = loop_qts(ch.SuperOperator.unitary(ch.gate_matrix("X")))
        one = run_to_depth(system, pure(KET0), 1)[0].state
        two = run_to_depth(system, pure(KET0), 2)[0].state
        assert np.abs(one - np.diag([0.0, 1.0])).max() < 1e-12
        assert np.abs(two - pure(KET0)).max() < 1e-12

    def test_bitflip_reaches_mixed_in_one_step(self):
        system = loop_qts(ch.noise_library("bit_flip", 0.5))
        state = run_to_depth(system, pure(KET0), 1)[0].state
        assert np.abs(state - np.eye(2) / 2).max() < 1e-12


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
        assert sorted(c.location for c, _ in branches) == ["l3", "l5"]
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

    def unitary_system(self, rng, n_qubits):
        # a chain of one library gate, one random unitary literal and one
        # near-unitary literal (normalisation defect about 5e-10, which
        # TOL_NORM admits and the unitary test refuses; it shrinks the
        # trace, as a branch may not gain probability), in random order,
        # into a loop of a random unitary literal on the whole register:
        # every step is a single-Kraus edge, and both step paths are taken
        def targets(k):
            return tuple(int(q) for q in rng.choice(
                range(1, n_qubits + 1), size=k, replace=False))

        k = int(rng.integers(1, min(n_qubits, 2) + 1))
        library = (qts.Gate(targets(2), name="CX") if k == 2 else
                   qts.Gate(targets(1), name="RY",
                            params=(float(rng.uniform(-7, 7)),)))
        literal = qts.Gate(targets(k), op=ch.SuperOperator.from_kraus(
            [random_unitary(rng, 2 ** k)]))
        near = qts.Gate(targets(1), op=ch.SuperOperator.from_kraus(
            [(1.0 - 2.5e-10) * random_unitary(rng, 2)]))
        chain = [library, literal, near]
        rng.shuffle(chain)
        circuit = qts.Seq(qts.Seq(chain[0], chain[1]), chain[2])
        system = qts.compile_circuit(circuit, n_qubits)
        loop = random_unitary(rng, 2 ** n_qubits)
        qubits = tuple(range(1, n_qubits + 1))
        transitions = [t if t.pre != t.post else
                       qts.kraus_edge(t.pre, t.post, [loop], qubits,
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
        mixed = self.random_system(rng, n)
        unitary = self.unitary_system(rng, n)
        kinds = {t.local._unitary for t in unitary.transitions}
        assert kinds == {True, False}
        for system in (mixed, unitary):
            for rank in range(1, d + 1):
                frontier = [qts.Configuration(system.initial,
                                              random_density(rng, d, rank))]
                for _ in range(4):
                    nxt = []
                    for config in frontier:
                        got = qts.step(system, config)
                        want = dense_step(system, config)
                        assert [(s.location, len(s.state)) for s, _ in got] \
                            == [(s.location, len(s.state)) for s, _ in want]
                        for (a, pa), (b, pb) in zip(got, want):
                            assert abs(pa - pb) <= 1e-12
                            assert abs(a.probability - b.probability) <= 1e-12
                            assert np.abs(a.state - b.state).max() <= 1e-12
                            for tol in (1e-12, 1e-8, 1e-4):
                                assert a.support(tol).same_space(
                                    la.support(b.state, tol))
                        nxt.extend(s for s, _ in got)
                    frontier = nxt

    def test_unitary_steps_do_not_drift(self, rng, monkeypatch):
        # 20 000 H steps from a rank-2 factor: the unitary path keeps each
        # successor's columns, whose Gram defect grows by about an ulp a
        # step (H^dagger H is 1 - 2^-52 on its diagonal), so a successor is
        # re-orthonormalized by an SVD only every few thousand steps, and
        # the defect never exceeds 1e-12
        system = qts.parse_model("qubits 2\nlocations l0\ninitial l0\n"
                                 "transitions\n  l0 -> l0 : gate H[1]\n")
        config = qts.Configuration.from_factor(
            "l0", random_unitary(rng, 4)[:, :2], np.array([0.7, 0.3]))
        svd = np.linalg.svd
        calls = []
        monkeypatch.setattr(np.linalg, "svd",
                            lambda *a, **k: calls.append(1) or svd(*a, **k))
        worst = 0.0
        for _ in range(20000):
            (config, p), = qts.step(system, config)
            vecs = config.spectrum[0]
            worst = max(worst, qts._gram_defect(vecs))
        assert worst <= 1e-12
        assert len(calls) <= 20
        assert vecs.shape == (4, 2)

    def test_a_drifted_factor_takes_the_svd_path(self, rng):
        # a factor 1e-10 from orthonormal is a valid configuration, but a
        # unitary edge re-orthonormalizes its successor
        u = random_unitary(rng, 4)[:, :2]
        drifted = u + 1e-10 * rng.normal(size=u.shape)
        assert 1e-12 < qts._gram_defect(drifted) <= la.TOL_ORTHO
        config = qts.Configuration.from_factor("l0", drifted,
                                               np.array([0.75, 0.25]))
        system = qts.parse_model("qubits 2\nlocations l0\ninitial l0\n"
                                 "transitions\n  l0 -> l0 : gate X[2]\n")
        (succ, p), = qts.step(system, config)
        assert qts._gram_defect(succ.spectrum[0]) <= 1e-14
        assert np.abs(succ.state - dense_step(system, config)[0][0].state
                      ).max() <= 1e-12

    def test_measured_steps_do_not_drift(self, rng, svd_calls):
        # 20 000 steps alternating RY on qubit 1 and the outcome-0 branch
        # of a measurement of qubit 2, which holds |0>, from a rank-2
        # factor: the unitary steps keep their mapped columns and the
        # projector steps divide the stack's own columns by their norms,
        # which resets the drift, so the Gram defect never exceeds 1e-12
        theta = 2 * math.pi / 4096
        system = qts.parse_model(
            "qubits 2\nlocations l0 l1 l2\ninitial l0\ntransitions\n"
            f"  l0 -> l1 : gate RY({theta!r})[1]\n"
            "  l1 -> l0 : measure M[2] = 0\n"
            "  l1 -> l2 : measure M[2] = 1\n  l2 -> l2 : gate I[1]\n")
        vecs = np.zeros((4, 2), dtype=complex)
        vecs[:2] = random_unitary(rng, 2)
        config = first = qts.Configuration.from_factor(
            "l0", vecs, np.array([0.7, 0.3]))
        worst = 0.0
        for _ in range(20000):
            (config, p), = qts.step(system, config)
            worst = max(worst, qts._gram_defect(config.spectrum[0]))
        assert worst <= 1e-12
        assert len(svd_calls) <= 20
        assert config.location == "l0"
        assert config.spectrum[0].shape == (4, 2)
        turn = np.kron(np.eye(2), ch.gate_matrix("RY", 10000 * theta))
        assert np.abs(config.state - turn @ first.state @ turn.conj().T
                      ).max() <= 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_plan_matches_tensordot_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(60):
            n = int(rng.integers(1, 7))
            w = int(rng.integers(1, min(n, 3) + 1))
            targets = tuple(int(q) for q in rng.choice(
                range(1, n + 1), size=w, replace=False))
            e = random_channel(rng, w, n_kraus=int(rng.integers(1, 4)))
            t = qts.kraus_edge("a", "b", e.kraus, targets, n)
            r = int(rng.integers(1, 2 ** n + 1))
            f = (rng.normal(size=(2 ** n, r))
                 + 1j * rng.normal(size=(2 ** n, r)))
            got = qts._apply_local(t, f)
            want = _tensordot_apply(t, f)
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    def test_hand_built_root_passes_a_gram_check(self, rng, monkeypatch):
        # every factor is checked once: eigenvectors that are not
        # orthonormal are refused as the configuration is made
        eigh = np.linalg.eigh

        def skewed(a):
            w, v = eigh(a)
            return w, v * 1.5

        monkeypatch.setattr(np.linalg, "eigh", skewed)
        with pytest.raises(DimensionMismatch, match="not orthonormal"):
            qts.Configuration("l0", random_density(rng, 4, 2))

    def test_support_holds_the_factor_columns(self, rng):
        for config in (qts.Configuration("l0", random_density(rng, 8, 3)),
                       qts.step(loop_qts(random_channel(rng, 3)),
                                qts.Configuration(
                                    "l0", random_density(rng, 8, 2)))[0][0]):
            vecs, vals = config.spectrum
            basis = config.support().basis
            assert not vecs.flags.writeable and not basis.flags.writeable
            assert np.shares_memory(basis, vecs)
            assert np.array_equal(basis, vecs[:, :basis.shape[1]])

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
        rho[0, 0], rho[0, 2] = 1.0, la.TOL_HERM
        eigh_calls.clear()
        qts.Configuration("l0", rho)
        assert [a.shape for a in eigh_calls] == [(2, 2)]

    def test_fully_live_root_is_decomposed_as_held(self, rng, eigh_calls):
        rho = random_density(rng, 32, 2)
        qts.Configuration("l0", rho)
        assert len(eigh_calls) == 1
        assert eigh_calls[0] is rho

    def test_support_keeps_hermiticity_check(self):
        # within the configuration's tolerance, outside the support's: the
        # state is refused as it is built
        rho = pure(KET0).astype(complex)
        rho[0, 1] = 1e-7
        with pytest.raises(InvalidDensityMatrix, match="not Hermitian"):
            qts.Configuration("l0", rho)


def basis_circuit(rng, n_qubits, depth):
    """Random dynamic circuit of Pauli and permutation gates, Pauli flip
    noises and single-qubit measurements: each Kraus operator maps a basis
    state to a scaled basis state."""
    q = int(rng.integers(1, n_qubits + 1))
    if depth <= 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.35:
            return qts.Gate((q,), name=str(rng.choice(["X", "Y", "Z"])))
        if roll < 0.6 and n_qubits >= 2:
            wires = rng.choice(range(1, n_qubits + 1), size=2, replace=False)
            return qts.Gate(tuple(int(w) for w in wires),
                            name=str(rng.choice(["CX", "SWAP"])))
        return qts.Gate((q,), op=ch.noise_library(
            str(rng.choice(["bit_flip", "phase_flip", "bit_phase_flip"])),
            float(rng.random())))
    if rng.random() < 0.6:
        return qts.Seq(basis_circuit(rng, n_qubits, depth - 1),
                       basis_circuit(rng, n_qubits, depth - 1))
    return qts.Cond(ch.computational_measurement(1), (q,), {
        0: basis_circuit(rng, n_qubits, depth - 1),
        1: basis_circuit(rng, n_qubits, depth - 1)})


class TestColumnRoute:
    """A non-unitary edge whose Kraus images are orthogonal, or are scaled
    basis vectors, builds its successor from the stack's own columns with
    no SVD; any other edge takes the SVD.  Either way the successor must
    be the dense channel application's."""

    @staticmethod
    def basis_system(rng, n_qubits):
        # the terminal identity loops become flip noise on a random qubit
        system = qts.compile_circuit(basis_circuit(rng, n_qubits, 5),
                                     n_qubits)
        transitions = [
            t if t.pre != t.post else qts.kraus_edge(
                t.pre, t.post, ch.noise_library(
                    str(rng.choice(["bit_flip", "phase_flip"])),
                    float(rng.random())).kraus,
                (int(rng.integers(1, n_qubits + 1)),), n_qubits)
            for t in system.transitions]
        return qts.QuantumTransitionSystem(n_qubits, system.locations,
                                           system.initial,
                                           tuple(transitions))

    @staticmethod
    def basis_roots(rng, location, d):
        # a mixture of basis states, decomposed from its dense state, and
        # the same held as phased basis columns
        rank = int(rng.integers(1, min(d, 4) + 1))
        idx = rng.choice(d, size=rank, replace=False)
        weights = np.sort(rng.dirichlet(np.ones(rank)))[::-1]
        rho = np.zeros((d, d), dtype=complex)
        rho[idx, idx] = weights
        phases = np.exp(2j * np.pi * rng.random(rank))
        return [qts.Configuration(location, rho),
                qts.Configuration.from_factor(
                    location, np.eye(d, dtype=complex)[:, idx] * phases,
                    weights)]

    @staticmethod
    def assert_matches_dense(system, config, got):
        want = dense_step(system, config)
        assert [s.location for s, _ in got] == [s.location for s, _ in want]
        for (a, pa), (b, pb) in zip(got, want):
            assert abs(pa - pb) <= 1e-12
            assert abs(a.probability - b.probability) <= 1e-12
            assert np.abs(a.state - b.state).max() <= 1e-12
            for tol in (1e-12, 1e-8, 1e-4):
                assert a.support(tol).same_space(la.support(b.state, tol))

    @pytest.mark.parametrize("seed", range(12))
    def test_basis_mixtures_step_without_an_svd(self, seed, svd_calls):
        rng = np.random.default_rng(seed)
        n = 1 + seed % 4
        system = self.basis_system(rng, n)
        for root in self.basis_roots(rng, system.initial, 2 ** n):
            frontier = [root]
            for _ in range(5):
                nxt = []
                for config in frontier:
                    got = qts.step(system, config)
                    assert svd_calls == []
                    self.assert_matches_dense(system, config, got)
                    nxt.extend(s for s, _ in got)
                frontier = nxt

    def test_parallel_basis_images_merge_by_row(self, monkeypatch):
        # a second bit flip maps |0> and |1> each onto both: four scaled
        # basis columns, two pairs of them parallel, summed per row
        system = loop_qts(ch.noise_library("bit_flip", 0.3))
        config = qts.Configuration.from_factor(
            "l0", np.eye(2, dtype=complex), np.array([0.7, 0.3]))
        monkeypatch.setattr(np.linalg, "svd", None)
        (succ, p), = qts.step(system, config)
        vecs, vals = succ.spectrum
        assert np.array_equal(vecs, np.eye(2)[:, ::-1])
        assert np.allclose(vals, [0.3 * 0.3 + 0.7 * 0.7, 2 * 0.3 * 0.7],
                           rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_random_channels_take_the_svd(self, rng, n, svd_calls):
        system = loop_qts(random_channel(rng, n, n_kraus=3))
        for rank in (1, 2):
            config = qts.Configuration("l0",
                                       random_density(rng, 2 ** n, rank))
            svd_calls.clear()
            got = qts.step(system, config)
            assert len(svd_calls) == 1
            self.assert_matches_dense(system, config, got)


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


_SHARED_MODEL = """qubits 3
locations a b c d e f g
initial a
transitions
  a -> b : gate CX[1, 2]
  b -> c : gate CX[2, 3]
  c -> d : gate RZ(0.0)[1]
  d -> e : gate RZ(-0.0)[2]
  e -> f : measure M[3] = 0
  e -> g : measure M[3] = 1
  f -> g : measure N[1] = 0
  f -> g : measure N[1] = 1
  g -> g : kraus { [[1, 0], [0, 1]] }[1]
"""


class TestSharedChannels:
    """Each distinct library gate and projector is built and checked once
    per model, and every edge that applies it shares the channel."""

    def test_edges_of_one_model_share_a_channel(self, monkeypatch):
        built = []
        init = ch.SuperOperator.__post_init__
        monkeypatch.setattr(ch.SuperOperator, "__post_init__",
                            lambda self: built.append(1) or init(self))
        system = qts.parse_model(_SHARED_MODEL)
        cx1, cx2, rz0, rz_neg, m0, m1, n0, n1, _ = system.transitions
        assert cx1.local is cx2.local
        # -0.0 and 0.0 are different bits, and stay apart
        assert rz0.local is not rz_neg.local
        # a projector is keyed by its target count and outcome
        assert m0.local is n0.local and m1.local is n1.local
        assert m0.local is not m1.local
        # CX, RZ(0.0), RZ(-0.0), two projectors and the literal (9 at one
        # channel per edge); the sums of locations e and f lift the edges'
        # Gram sums and build no channel
        assert len(built) == 6
        assert qts.parse_model(_SHARED_MODEL).transitions[0].local \
            is not cx1.local

    def test_kraus_literals_keep_one_channel_each(self):
        text = ("qubits 1\nlocations a b\ninitial a\ntransitions\n"
                "  a -> b : kraus { [[0, 1], [1, 0]] }[1]\n"
                "  b -> a : kraus { [[0, 1], [1, 0]] }[1]\n")
        first, second = qts.parse_model(text).transitions
        assert first.local is not second.local

    def test_compiled_edges_share_channels(self):
        m1 = ch.computational_measurement(1)
        circuit = qts.Seq(qts.Seq(qts.Gate((1, 2), name="CX"),
                                  qts.Gate((2, 1), name="CX")),
                          qts.Cond(m1, (1,), _identity_branches(0, 1)))
        system = qts.compile_circuit(circuit, 2)
        cx1, cx2, m0, *rest = system.transitions
        assert cx1.local is cx2.local
        identities = [t.local for t in system.transitions
                      if t.spec.name == "I"]
        assert len(identities) == 4
        assert all(i is identities[0] for i in identities)
        other = qts.compile_circuit(circuit, 2)
        assert other.transitions[0].local is not cx1.local

    def test_library_gates_are_unitary(self, rng):
        for name in ("I", "X", "Y", "Z", "H", "S", "T", "CX", "CZ", "SWAP"):
            assert qts.gate_edge("a", "b", name, (1, 2)[:1 + (
                name in ("CX", "CZ", "SWAP"))], 2).local._unitary
        for name in ("RX", "RY", "RZ"):
            for theta in rng.uniform(-50.0, 50.0, 200):
                assert qts.gate_edge("a", "b", name, (1,), 1,
                                     (theta,)).local._unitary

    def test_only_an_exact_single_kraus_channel_is_unitary(self):
        x = ch.PAULI_X
        # a normalisation defect of 5e-10, which TOL_NORM admits
        near = ch.SuperOperator.from_kraus([(1.0 - 2.5e-10) * x])
        assert near.trace_class is ch.TraceClass.PRESERVING
        assert not near._unitary
        assert not ch.noise_library("bit_flip", 0.5)._unitary
        assert not ch.SuperOperator(1, (np.diag([1.0, 0.0]),),
                                    ch.TraceClass.REDUCING)._unitary
        assert ch.SuperOperator.from_kraus([x])._unitary


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

    def test_each_location_sums_its_kraus_set_once(self, monkeypatch):
        # a location whose one outgoing edge is trace preserving was
        # checked when that edge's channel was built, so only the location
        # with two edges is checked again, and it builds no channel: it
        # lifts each edge's Gram sum, which that edge's check made
        edges = [qts.gate_edge("a", "b", "H", (1,), 2),
                 qts.kraus_edge("b", "c", [np.sqrt(0.5) * np.eye(2),
                                           np.sqrt(0.5) * ch.PAULI_X],
                                (2,), 2),
                 qts.measure_edge("c", "d", (1,), 0, 2),
                 qts.measure_edge("c", "e", (1,), 1, 2),
                 qts.gate_edge("d", "d", "I", (1,), 2),
                 qts.gate_edge("e", "e", "CX", (2, 1), 2)]
        built = []

        class Counting(ch.SuperOperator):
            def __post_init__(self):
                built.append(len(self.kraus))
                super().__post_init__()

        lifted = []
        expand = ch.expand_operator

        def counting_expand(op, targets, total):
            lifted.append(op)
            return expand(op, targets, total)

        monkeypatch.setattr(ch, "SuperOperator", Counting)
        monkeypatch.setattr(ch, "expand_operator", counting_expand)
        qts.QuantumTransitionSystem(2, tuple("abcde"), "a", tuple(edges))
        assert built == []
        assert len(lifted) == 2
        assert lifted[0] is edges[2].local._gram
        assert lifted[1] is edges[3].local._gram

    def test_location_defect_is_the_dense_lifted_defect(self, rng):
        # each edge's Gram sum lifted to the qubits the location's edges
        # touch, against every Kraus operator lifted to the whole register
        for _ in range(40):
            n = int(rng.integers(2, 5))
            edges = []
            for _ in range(int(rng.integers(2, 5))):
                width = int(rng.integers(1, n + 1))
                targets = tuple(int(q) for q in
                                rng.permutation(np.arange(1, n + 1))[:width])
                d = 2 ** width
                gs = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                      for _ in range(int(rng.integers(1, 4)))]
                top = np.linalg.eigvalsh(sum(g.conj().T @ g for g in gs))[-1]
                scale = math.sqrt(rng.uniform(0.1, 0.9) / top)
                edges.append(qts.kraus_edge("a", "a", [scale * g for g in gs],
                                            targets, n))
            lifted = [ch.expand_operator(k, t.targets, n)
                      for t in edges for k in t.local.kraus]
            want = float(np.abs(
                np.eye(2 ** n) - sum(k.conj().T @ k for k in lifted)).max())
            with pytest.raises(NormalisationViolation) as info:
                qts.QuantumTransitionSystem(n, ("a",), "a", tuple(edges))
            assert abs(info.value.defect - want) <= \
                4 * np.finfo(float).eps * max(want, 1.0)

    def test_a_lone_reducing_edge_is_refused_at_its_location(self):
        edge = qts.measure_edge("a", "b", (1,), 0, 1)
        with pytest.raises(NormalisationViolation) as info:
            qts.QuantumTransitionSystem(
                1, ("a", "b"), "a",
                (edge, qts.gate_edge("b", "b", "I", (1,), 1)))
        assert str(info.value) == ("outgoing operators at location 'a' sum "
                                   "to a map with normalisation defect "
                                   "1.000e+00")
        with pytest.raises(NormalisationViolation) as info:
            qts.parse_model("qubits 1\nlocations a b\ninitial a\n"
                            "transitions\n  a -> b : measure M[1] = 0\n"
                            "  b -> b : gate I[1]\n")
        assert str(info.value) == ("5:3: location 'a': outgoing operators "
                                   "have normalisation defect 1.000e+00")


class TestTeleportation:
    @pytest.mark.parametrize("seed", range(5))
    def test_output_on_qubit_three(self, seed):
        rng = np.random.default_rng(seed)
        psi = random_unit_vector(rng, 2)
        for system in (qts.teleportation_qts(), qts.parse_model(
                (FIXTURES / "teleport.qts").read_text())):
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

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.floats(0.05, 0.95), st.data())
    def test_kraus_sets_round_trip_exactly(self, k, p, data):
        # {sqrt(p) P D, sqrt(1-p) Q E} for permutations P, Q and diagonal
        # phases D, E, plus entries far below the normalisation tolerance:
        # negative, imaginary, and exponent-form entries (6.1e-17 from
        # cos(pi/2), 1e-30), read token by token at k < 3 and by the
        # literal reader at k = 3
        d = 2 ** k
        phases = st.sampled_from([1, -1, 1j, -1j, np.exp(0.5j * np.pi),
                                  np.exp(-2.1j), np.exp(1j * np.pi / 3)])
        kraus = []
        for weight in (p, 1.0 - p):
            perm = data.draw(st.permutations(range(d)))
            mat = np.zeros((d, d), dtype=complex)
            for col, row in enumerate(perm):
                mat[row, col] = np.sqrt(weight) * data.draw(phases)
            mat[data.draw(st.integers(0, d - 1)), perm[0]] += data.draw(
                st.sampled_from([0.0, 1e-30, -2.5e-17j, 3e-200 - 1e-25j]))
            kraus.append(mat)
        targets = tuple(data.draw(st.permutations(range(1, k + 2)))[:k])
        system = qts.QuantumTransitionSystem(k + 1, ("a", "b"), "a", (
            qts.kraus_edge("a", "b", kraus, targets, k + 1),
            qts.gate_edge("b", "b", "I", (1,), k + 1)))
        text = qts.serialize_model(system)
        again = qts.parse_model(text)
        assert again.same_system(system, tol=0.0)
        assert again.transitions[0].spec == system.transitions[0].spec
        assert qts.serialize_model(again) == text

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
        (succ, _), = qts.step(loop_qts(ch.SuperOperator.unitary(np.eye(8))),
                              qts.Configuration("l0", rho))
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

    # fault kinds for the live-block test: (entry, place it on one side
    # only); a trace fault scales the state instead
    _FAULTS = {"nan": (np.nan, False), "inf": (np.inf, False),
               "-inf": (-np.inf, True), "big": (1e308, True),
               "herm": (2e-9, True), "gross": (2e-6, True),
               "neg": (-0.25, False), "trace": (None, False)}

    @given(st.data())
    def test_live_block_matches_the_whole_state_scan(self, data):
        # sparse, dense and scattered-live states, in either memory order,
        # with up to two faults anywhere: inside or outside the live block,
        # in any block of rows (d = 300 and 512 have two and four): the
        # constructor must give the spectrum, or raise the exception, that
        # one scan of the whole state gives
        d = data.draw(st.sampled_from([1, 2, 8, 64, 300, 512]))
        kind = data.draw(st.sampled_from(["sparse", "dense", "scattered"]))
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        rng = np.random.default_rng(seed)
        k = {"sparse": 1, "dense": min(d, 64),
             "scattered": int(rng.integers(1, min(d, 16) + 1))}[kind]
        idx = np.sort(rng.choice(d, size=k, replace=False))
        if kind == "dense" and k == d:
            idx = np.arange(d)
        state = np.zeros((d, d), dtype=complex)
        rank = int(rng.integers(1, k + 1))
        state[np.ix_(idx, idx)] = random_density(rng, k, rank)
        faults = data.draw(st.lists(st.sampled_from(sorted(self._FAULTS)),
                                    max_size=2))
        # half the faults sit on the first or last row of a block of rows
        rows = max(1, la.BLOCK // d)
        edges = sorted({x for b in range(0, d, rows)
                        for x in (b, min(b + rows, d) - 1)})
        for fault in faults:
            value, one_side = self._FAULTS[fault]
            i, j = (int(rng.choice(edges)) if rng.random() < 0.5
                    else int(rng.integers(d)) for _ in range(2))
            with np.errstate(over="ignore", invalid="ignore"):
                if fault == "trace":
                    state *= 1.5
                elif fault == "neg":
                    state[i, i] += value
                    state[j, j] -= value
                elif one_side and i == j:
                    state[i, i] += complex(0.0, value)
                else:
                    state[i, j] += value
                    if not one_side:
                        state[j, i] += np.conj(value)
        if data.draw(st.booleans()):
            state = np.asfortranarray(state)  # rows are not contiguous
        try:
            want = reference_spectrum(state)
        except QmcError as exc:
            with pytest.raises(type(exc)) as got:
                qts.Configuration("l0", state)
            assert type(got.value) is type(exc)
            assert str(got.value) == str(exc)
        else:
            vecs, vals = qts.Configuration("l0", state).spectrum
            assert np.array_equal(vecs, want[0])
            assert np.array_equal(vals, want[1])

    def test_two_faults_are_met_in_the_whole_state_order(self):
        # the Hermiticity defect's rows come before the NaN's, so the
        # whole-state scan meets it first, though the live block is one
        # block of rows
        d = 512
        rho = np.zeros((d, d), dtype=complex)
        rho[0, 0] = 1.0
        rho[300, 7] = 2e-6
        rho[500, 500] = np.nan
        with pytest.raises(DimensionMismatch, match="not Hermitian"):
            reference_spectrum(rho)
        with pytest.raises(DimensionMismatch, match="not Hermitian"):
            qts.Configuration("l0", rho)

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_a_dense_pure_root_has_rank_one(self, n):
        # every entry of |+...+><+...+| is live, so it takes the dense
        # `eigh`, whose noise eigenvalues once made a factor of rank 3, 15,
        # 62 and 244
        plus = np.ones(2 ** n, dtype=complex) / np.sqrt(2 ** n)
        vecs, vals = qts.Configuration("l0", np.outer(plus, plus)).spectrum
        assert vecs.shape == (2 ** n, 1)
        assert abs(vals[0] - 1.0) < 1e-12
        assert abs(abs(np.vdot(vecs[:, 0], plus)) - 1.0) < 1e-12

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
        # a 10-qubit |0...0><0...0| root: one block of rows at a time for
        # the checks, and a 1 x 1 eigh; nothing dense is kept
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
        # nothing dense is held, whatever the input: only the factor, and
        # the input is left as it was given
        frozen = random_density(rng, 4)
        frozen.setflags(write=False)
        for given in (frozen, random_density(rng, 4, 2),
                      np.diag([0.5, 0.5])):
            before = given.copy()
            config = qts.Configuration("l0", given)
            assert set(qts.Configuration.__slots__) == {
                "location", "probability", "spectrum"}
            assert not hasattr(config, "__dict__")
            vecs, vals = config.spectrum
            assert vecs.shape == (len(given), len(vals))
            assert config.state is not given
            assert np.abs(config.state - given).max() < 1e-12
            assert np.array_equal(given, before)
            assert given.flags.writeable == (given is not frozen)

    def test_state_peaks_near_its_result(self, rng):
        # a rank-2 state at n = 10, 16 MiB, symmetrized a block of rows at
        # a time into (P + P^dagger)/2 with no second d x d array
        d = 2 ** 10
        vecs = np.linalg.qr(rng.normal(size=(d, 2))
                            + 1j * rng.normal(size=(d, 2)))[0]
        vals = np.array([0.75, 0.25])
        config = qts.Configuration.from_factor("l0", vecs, vals)
        tracemalloc.start()
        try:
            state = config.state
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * state.nbytes
        want = (vecs * vals) @ vecs.conj().T
        assert np.array_equal(state, (want + want.conj().T) / 2.0)

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
