import pathlib
import runpy
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qmc import channel as ch
from qmc import checker, cli
from qmc import linalg as la
from qmc import logic as lg
from qmc import qts
from qmc.errors import (DimensionMismatch, InvalidDensityMatrix,
                        NoTraceAvailable, UnboundAtom, UnknownLocation)

from helpers import (ReferenceLabeling, dense_build_graph, dense_step,
                     loop_qts, random_closing_qts, random_closing_state,
                     random_density, random_state_formula, random_subspace,
                     random_unit_vector, random_unitary,
                     reference_fingerprint, unmerged_build_graph)
from oracle import PathOracle

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
MINUS = np.array([1, -1], dtype=complex) / np.sqrt(2)


def pure(v):
    return np.outer(v, v.conj())


def span(*vs):
    return la.Subspace.span(vs)


def id_loop_system():
    return loop_qts(ch.SuperOperator.unitary(np.eye(2)))


def h_loop_system():
    return loop_qts(ch.SuperOperator.unitary(ch.gate_matrix("H")))


BINDINGS_1Q = {
    "zero": span(KET0),
    "one": span(KET1),
    "plus": span(PLUS),
    "minus": span(MINUS),
}


class TestBuildGraph:
    def test_identity_loop_single_node(self):
        g = checker.build_graph(id_loop_system(), pure(KET0), bound=10)
        assert len(g.nodes) == 1
        assert g.nodes[0].out == ((0, 1.0),)
        assert g.closure == checker.COMPLETE

    def test_h_loop_period_two(self):
        g = checker.build_graph(h_loop_system(), pure(KET0), bound=16)
        assert g.closure == checker.COMPLETE
        assert len(g.nodes) == 2  # |0> and |+> alternate

    def test_teleportation_graph(self):
        system = qts.teleportation_qts()
        rho0 = qts.teleportation_input(PLUS)
        g = checker.build_graph(system, rho0, bound=10)
        assert g.closure == checker.COMPLETE
        # hand enumeration: 3 chain nodes, 2 after first measurement,
        # 2 after the correction layer, 4 + 4 through the second round
        assert len(g.nodes) == 15
        locations = {n.config.location for n in g.nodes}
        assert locations == {f"l{i}" for i in range(15)}

    def test_truncation_flag(self):
        # T-loop orbits of |+> never close; a small bound must truncate
        system = loop_qts(ch.SuperOperator.unitary(ch.gate_matrix("T")))
        g = checker.build_graph(system, pure(PLUS), bound=3)
        assert g.closure == ("truncated", 3)
        assert any(not n.complete for n in g.nodes)

    def test_dedup_merges_fingerprint_twins(self):
        # two states closer than the fingerprint tolerance share a node
        system = id_loop_system()
        g = checker.build_graph(system, pure(KET0), bound=4)
        assert len(g.nodes) == 1


class TestCheckBasics:
    def test_non_psd_root_is_refused(self):
        # Hermitian with unit trace, but eigenvalues 1.4 and -0.4: kept as
        # its 1.4 alone, it would give a measurement's two branches 0.7
        # each and make [plus] hold
        rho = [[0.5, 0.9], [0.9, 0.5]]
        system = qts.QuantumTransitionSystem(1, ("l0",), "l0", tuple(
            qts.measure_edge("l0", "l0", (1,), outcome, 1)
            for outcome in (0, 1)))
        plus = lg.parse_formula("[plus]")
        for build in (lambda: qts.Configuration("l0", rho),
                      lambda: checker.build_graph(system, rho),
                      lambda: checker.check(system, rho, plus, BINDINGS_1Q)):
            with pytest.raises(InvalidDensityMatrix,
                               match="not positive semidefinite"):
                build()

    def test_true_holds_everywhere(self):
        v = checker.check(id_loop_system(), pure(KET0), lg.TRUE, {}, bound=8)
        assert v.result == "holds"

    def test_h_loop_next_plus_holds(self):
        v = checker.check(h_loop_system(), pure(KET0),
                          lg.parse_formula("A X [plus]"), BINDINGS_1Q)
        assert v.result == "holds"

    def test_h_loop_next_zero_fails_with_trace(self):
        v = checker.check(h_loop_system(), pure(KET0),
                          lg.parse_formula("A X [zero]"), BINDINGS_1Q)
        assert v.result == "fails"
        assert v.trace is not None
        assert len(v.trace) == 2  # root plus the refuting successor

    def test_teleportation_until_holds(self, rng):
        system = qts.teleportation_qts()
        psi = random_unit_vector(rng, 2)
        vecs = []
        for x in range(2):
            for y in range(2):
                v = np.zeros(8, dtype=complex)
                v[x + 2 * y] = psi[0]
                v[x + 2 * y + 4] = psi[1]
                vecs.append(v)
        bindings = {"psi3": la.Subspace.span(vecs)}
        verdict = checker.check(system, qts.teleportation_input(psi),
                                lg.parse_formula("A (true U [psi3])"),
                                bindings, bound=16)
        assert verdict.result == "holds"

    @pytest.mark.parametrize("bad", [np.full((2, 2), np.nan),
                                     np.diag([np.nan, 0.0])])
    def test_nan_initial_state_is_refused(self, bad):
        with pytest.raises(DimensionMismatch):
            x_loop = loop_qts(ch.SuperOperator.unitary(ch.gate_matrix("X")))
            checker.check(x_loop, bad, lg.parse_formula("A G [zero]"), BINDINGS_1Q)

    def test_unbound_atom_raises(self):
        with pytest.raises(UnboundAtom):
            checker.check(id_loop_system(), pure(KET0),
                          lg.parse_formula("[ghost]"), {})

    def test_unbound_atom_under_temporal_operators_raises(self):
        graph = checker.build_graph(id_loop_system(), pure(KET0))
        for text in ("E ([zero] U [ghost])", "A X ! [ghost]",
                     "E G ([zero] && [ghost | one])"):
            with pytest.raises(UnboundAtom):
                checker.check(id_loop_system(), pure(KET0),
                              lg.parse_formula(text), BINDINGS_1Q,
                              graph=graph)

    def test_reused_graph_follows_rebound_atoms(self):
        # the label cache must not answer for a different subspace bound
        # to the same name
        system = id_loop_system()
        graph = checker.build_graph(system, pure(KET0))
        formula = lg.parse_formula("[p]")
        verdicts = [checker.check(system, pure(KET0), formula, {"p": sub},
                                  graph=graph).result
                    for sub in (span(KET0), span(KET1), span(KET0))]
        assert verdicts == ["holds", "fails", "holds"]

    def test_exit_style_fields(self):
        v = checker.check(id_loop_system(), pure(KET0),
                          lg.parse_formula("[zero]"), BINDINGS_1Q)
        assert v.nodes == 1 and v.edges == 1
        assert v.closure == checker.COMPLETE
        assert set(v.timings) == {"build_s", "label_s"}


class TestThreeValued:
    def test_truncated_unknown(self):
        # after 3 steps of T the orbit has not closed and G [diag] cannot
        # be decided from the prefix
        system = loop_qts(ch.SuperOperator.unitary(ch.gate_matrix("T")))
        bindings = {"up": span(np.array([1, 0], dtype=complex))}
        v = checker.check(system, pure(PLUS),
                          lg.parse_formula("A G [ ~up | up ]"), bindings,
                          bound=3)
        assert v.result == "unknown"
        assert v.closure == ("truncated", 3)

    def test_truncated_witness_still_holds(self):
        # an Until witness inside the explored prefix decides the verdict
        system = loop_qts(ch.SuperOperator.unitary(ch.gate_matrix("X")))
        v = checker.check(system, pure(KET0),
                          lg.parse_formula("E (true U [one])"), BINDINGS_1Q,
                          bound=1)
        # bound 1 explores |0> -> |1>; |1> is unexpanded but satisfies [one],
        # and in a total system every node continues forever
        assert v.closure == ("truncated", 1)
        assert v.result == "holds"
        assert [s.location for s in v.trace] == ["l0", "l0"]

    def test_truncated_refutation_still_fails(self):
        system = loop_qts(ch.SuperOperator.unitary(ch.gate_matrix("T")))
        v = checker.check(system, pure(PLUS),
                          lg.parse_formula("A X [up]"),
                          {"up": span(KET0)}, bound=2)
        assert v.result == "fails"

    def test_monotone_bounds(self, rng):
        """Raising the bound may decide unknowns but never flips a decided
        verdict."""
        for _ in range(10):
            system = random_closing_qts(rng, 1, int(rng.integers(1, 4)))
            rho0 = random_closing_state(rng, 1)
            formula = random_state_formula(rng, list(BINDINGS_1Q), 2)
            decided = None
            for bound in range(1, 17):
                v = checker.check(system, rho0, formula, BINDINGS_1Q,
                                  bound=bound)
                if decided is None and v.result != "unknown":
                    decided = v.result
                elif decided is not None and v.result != "unknown":
                    assert v.result == decided


# Two-qubit basis states |k>, k = 0..3, give every combination of [a] and
# [b] at a node.
BASIS_2Q = np.eye(4, dtype=complex)
BINDINGS_AB = {"a": span(BASIS_2Q[0], BASIS_2Q[1]),
               "b": span(BASIS_2Q[0], BASIS_2Q[2])}


def abstract_graph(states, edges, complete, sinks):
    """A configuration graph with the given out-edge lists (duplicates are
    parallel edges) over basis states of two qubits.  An incomplete node
    has no edges, as in a truncated `build_graph`; a system without sink
    locations passes the total-system shortcut."""
    system = SimpleNamespace(n_qubits=2, locations=("l0",),
                             outgoing=lambda _: () if sinks else (None,))
    nodes = tuple(
        checker.GraphNode(i, qts.Configuration("l0", pure(BASIS_2Q[k])),
                          None, 0, done,
                          tuple((t, 1.0) for t in out) if done else ())
        for i, (k, out, done) in enumerate(zip(states, edges, complete)))
    return checker.ConfigurationGraph(system, nodes, checker.COMPLETE)


@st.composite
def abstract_graphs(draw):
    n = draw(st.integers(1, 7))
    sinks = draw(st.booleans())
    complete = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    # without sink locations every complete node keeps a successor
    edges = draw(st.lists(
        st.lists(st.integers(0, n - 1), min_size=0 if sinks else 1,
                 max_size=3), min_size=n, max_size=n))
    states = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return abstract_graph(states, edges, complete, sinks)


_PROPS = st.sampled_from([lg.Prop(lg.Atom("a")), lg.Prop(lg.Atom("b")),
                          lg.TRUE, lg.FALSE])
FORMULAS = st.recursive(_PROPS, lambda sub: st.one_of(
    st.builds(lg.Not, sub), st.builds(lg.And, sub, sub),
    st.builds(lambda f: lg.Exists(lg.Next(f)), sub),
    st.builds(lambda f: lg.Forall(lg.Next(f)), sub),
    st.builds(lambda f, g: lg.Exists(lg.Until(f, g)), sub, sub),
    st.builds(lambda f, g: lg.Forall(lg.Until(f, g)), sub, sub)),
    max_leaves=6)


def state_subformulas(formula):
    yield formula
    if isinstance(formula, lg.Not):
        parts = (formula.sub,)
    elif isinstance(formula, lg.And):
        parts = (formula.left, formula.right)
    elif isinstance(formula, (lg.Exists, lg.Forall)):
        path = formula.path
        parts = (path.sub,) if isinstance(path, lg.Next) else \
            (path.left, path.right)
    else:
        parts = ()
    for part in parts:
        yield from state_subformulas(part)


class TestLabelingAgainstReference:
    """The one-pass labeling gives the sets of the whole-graph fixpoint
    iteration it replaced, on both sides, for every subformula."""

    @given(abstract_graphs(), FORMULAS)
    def test_every_subformula_on_both_sides(self, graph, formula):
        labeling = checker._Labeling(graph, BINDINGS_AB)
        reference = ReferenceLabeling(graph, BINDINGS_AB)
        assert labeling.inf == (reference.inf_lo, reference.inf_hi)
        for f in state_subformulas(formula):
            want = reference.eval(f)
            got = (labeling.eval(f, checker.LO), labeling.eval(f, checker.HI))
            assert got == want, lg.print_formula(f)

    def test_eg_counts_parallel_edges(self):
        # 0 -> 1 twice, 1 -> 2, 2 -> 2; [a] holds at 0 and 1 only, so once
        # node 1 leaves E G [a] both edges of node 0 are gone
        graph = abstract_graph([0, 1, 3], [[1, 1], [2], [2]],
                               [True] * 3, sinks=False)
        eg_a = lg.parse_formula("E G [a]")
        labeling = checker._Labeling(graph, BINDINGS_AB)
        assert labeling.eval(eg_a, checker.LO) == set()
        assert ReferenceLabeling(graph, BINDINGS_AB).eval(eg_a) == \
            (frozenset(), frozenset())


class TestAgainstPathOracle:
    def test_fifty_random_systems(self, rng):
        systems_checked = 0
        attempts = 0
        while systems_checked < 50 and attempts < 400:
            attempts += 1
            n_qubits = int(rng.integers(1, 3))
            system = random_closing_qts(rng, n_qubits,
                                        int(rng.integers(1, 4)))
            rho0 = random_closing_state(rng, n_qubits)
            graph = checker.build_graph(system, rho0, bound=32)
            if graph.closure != checker.COMPLETE or len(graph.nodes) > 32:
                continue
            systems_checked += 1
            d = 2 ** n_qubits
            bindings = {
                "a": la.Subspace.span([random_unit_vector(rng, d)]),
                "b": la.Subspace.span([random_unit_vector(rng, d)]),
            }
            oracle = PathOracle(graph, bindings)
            formulas = [random_state_formula(rng, ["a", "b"], depth)
                        for depth in (1, 1, 2, 2, 3, 3, 3, 3)]
            for formula in formulas:
                verdict = checker.check(system, rho0, formula, bindings,
                                        bound=32, graph=graph)
                expected = oracle.holds(0, formula)
                assert verdict.result == ("holds" if expected else "fails"), \
                    lg.print_formula(formula)
        assert systems_checked == 50

    def test_labeling_matches_satisfies_atomic(self, rng):
        system = qts.teleportation_qts()
        rho0 = qts.teleportation_input(PLUS)
        graph = checker.build_graph(system, rho0, bound=10)
        prop = lg.OrQ(lg.Atom("x"), lg.NotQ(lg.Atom("y")))
        bindings = {
            "x": la.Subspace.span([random_unit_vector(rng, 8)]),
            "y": la.Subspace.span([random_unit_vector(rng, 8),
                                   random_unit_vector(rng, 8)]),
        }
        members = graph.label_set(prop, bindings)
        sample = rng.choice(len(graph.nodes),
                            size=max(2, len(graph.nodes) // 10 + 1),
                            replace=False)
        for idx in sample:
            state = graph.nodes[int(idx)].config.state
            assert (int(idx) in members) == \
                lg.satisfies_atomic(state, prop, bindings)

    @pytest.mark.parametrize("width", [1, 2, 3, 1024])
    def test_batched_labels_match_per_node_membership(self, rng,
                                                      monkeypatch, width):
        # random graphs, chunks of `width` columns (so the mixed nodes'
        # supports are split between chunks), and basis, co-basis and
        # `true` targets: one label per node, as `linalg.contains` decides
        for _ in range(6):
            n = int(rng.integers(1, 4))
            d = 2 ** n
            system = random_closing_qts(rng, n, int(rng.integers(1, 4)))
            rho0 = random_density(rng, d, int(rng.integers(1, d + 1)))
            graph = checker.build_graph(system, rho0, bound=6)
            sups = [node.config.support() for node in graph.nodes]
            inside = rng.choice(len(sups), size=min(2, len(sups)),
                                replace=False)
            bindings = {"g": la.join([sups[i] for i in inside]
                                     + [random_subspace(rng, d, 1)])}
            monkeypatch.setattr(la, "CHUNK", width * d)
            for text in ("[g]", "[~g]", "true"):
                prop = lg.parse_formula(text).prop
                target = lg.eval_prop(prop, bindings, ambient_dim=d)
                want = {i for i, sup in enumerate(sups)
                        if la.contains(target, sup)}
                assert graph.label_set(prop, bindings) == want
                if text != "[~g]":
                    assert set(inside.tolist()) <= want


def _dense_support(config, rtol=la.TOL_EIG):
    return la.support(config.state, rtol)


class TestFactoredGraphs:
    """Stepping and labeling through the spectral factor must give the
    graph, verdicts and traces of stepping and labeling on dense states."""

    @staticmethod
    def run(system, rho0, formulas, bindings):
        graph = checker.build_graph(system, rho0, bound=64)
        verdicts = [checker.check(system, rho0, f, bindings, graph=graph)
                    for f in formulas]
        return graph, verdicts

    @pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.qts")),
                             ids=lambda p: p.stem)
    def test_fixture_graphs_match_dense_path(self, path, monkeypatch):
        system = qts.parse_model(path.read_text())
        d = 2 ** system.n_qubits
        rng = np.random.default_rng(sum(path.stem.encode()))
        ctql = path.with_suffix(".ctql")
        if ctql.exists():
            doc = lg.parse_assertions(ctql.read_text())
            formulas = [a.formula for a in doc.assertions]
            bindings = doc.bindings
        else:
            bindings = {"a": random_subspace(rng, d, 1),
                        "b": random_subspace(rng, d, max(1, d // 2))}
            formulas = [random_state_formula(rng, ["a", "b"], depth)
                        for depth in (1, 2, 2, 3, 3)]
        for rho0 in [random_density(rng, d, r) for r in (1, d)] + \
                [random_closing_state(rng, system.n_qubits)]:
            graph, verdicts = self.run(system, rho0, formulas, bindings)
            with monkeypatch.context() as m:
                m.setattr(qts, "step", dense_step)
                m.setattr(qts.Configuration, "support", _dense_support)
                dense, dense_verdicts = self.run(system, rho0, formulas,
                                                 bindings)
            assert graph.closure == dense.closure
            assert [(n.config.location, n.digest, [t for t, _ in n.out])
                    for n in graph.nodes] == \
                [(n.config.location, n.digest, [t for t, _ in n.out])
                 for n in dense.nodes]
            probs = [p for n in graph.nodes for _, p in n.out]
            dense_probs = [p for n in dense.nodes for _, p in n.out]
            assert np.abs(np.subtract(probs, dense_probs)).max() <= 1e-12
            for v, w in zip(verdicts, dense_verdicts):
                assert v.result == w.result
                assert [(s.location, s.state_digest) for s in v.trace or ()] \
                    == [(s.location, s.state_digest) for s in w.trace or ()]

    def test_labeling_decomposes_only_the_root(self, monkeypatch):
        # GHZ-noisy, n = 6: H[1]; CX[i, i+1]; bit_flip(0.9) on qubit 1
        n = 6
        ir = qts.Gate((1,), name="H")
        for i in range(1, n):
            ir = qts.Seq(ir, qts.Gate((i, i + 1), name="CX"))
        ir = qts.Seq(ir, qts.Gate((1,), op=ch.noise_library("bit_flip", 0.9)))
        system = qts.compile_circuit(ir, n)
        d = 2 ** n
        rho0 = np.zeros((d, d), dtype=complex)
        rho0[0, 0] = 1.0
        bindings = {"g": la.Subspace(np.eye(d)[:, [0, d - 1]])}
        props = [lg.parse_formula(text).prop
                 for text in ("[g]", "[~g]", "true")]
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        graph = checker.build_graph(system, rho0)
        for prop in props:
            graph.label_set(prop, bindings)
        assert len(graph.nodes) == n + 2
        # one decomposition, of the one entry |0...0><0...0| occupies
        assert calls == [(1, 1)]

    def test_labeling_reads_each_support_once(self, monkeypatch):
        system, rho0 = _ghz_noisy(6)
        d = len(rho0)
        bindings = {"g": la.Subspace(np.eye(d)[:, [0, d - 1]])}
        props = [lg.parse_formula(text).prop
                 for text in ("[g]", "[~g]", "true")]
        calls = []
        spectral_support = la.spectral_support

        def counting(vecs, vals, rtol=la.TOL_EIG):
            calls.append(rtol)
            return spectral_support(vecs, vals, rtol)

        # qts reads it by name; patch both names so no call is missed
        monkeypatch.setattr(la, "spectral_support", counting)
        monkeypatch.setattr(qts, "spectral_support", counting)
        graph = checker.build_graph(system, rho0)
        for eig_tol in (None, 1e-6):
            for prop in props:
                graph.label_set(prop, bindings, eig_tol=eig_tol)
        assert sorted(calls) == [la.TOL_EIG] * len(graph.nodes) \
            + [1e-6] * len(graph.nodes)


def _graph_shape(graph):
    return [(n.config.location, n.digest, [t for t, _ in n.out])
            for n in graph.nodes]


def _ghz_noisy(n):
    """H[1]; CX[i, i+1]; bit_flip(0.9) on qubit 1, with the dense |0...0>."""
    ir = qts.Gate((1,), name="H")
    for i in range(1, n):
        ir = qts.Seq(ir, qts.Gate((i, i + 1), name="CX"))
    ir = qts.Seq(ir, qts.Gate((1,), op=ch.noise_library("bit_flip", 0.9)))
    rho0 = np.zeros((2 ** n, 2 ** n), dtype=complex)
    rho0[0, 0] = 1.0
    return qts.compile_circuit(ir, n), rho0


class TestKeyRangeDedup:
    """`build_graph` finds merge candidates by a key-range query and
    confirms them on the factors; it must merge what the dense
    fingerprint-bucket build merges, and also pairs that straddle a
    rounding boundary."""

    @pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.qts")),
                             ids=lambda p: p.stem)
    def test_matches_bucket_reference_on_fixtures(self, path):
        system = qts.parse_model(path.read_text())
        d = 2 ** system.n_qubits
        rng = np.random.default_rng(sum(path.stem.encode()) + 1)
        for rho0 in [random_density(rng, d, r) for r in (1, d)] + \
                [random_closing_state(rng, system.n_qubits)]:
            graph = checker.build_graph(system, rho0, bound=64)
            reference = dense_build_graph(system, rho0, bound=64)
            assert graph.closure == reference.closure
            assert _graph_shape(graph) == _graph_shape(reference)
            probs = [p for n in graph.nodes for _, p in n.out]
            assert probs == [p for n in reference.nodes for _, p in n.out]

    def test_key_vector_comes_from_the_probe_block(self, monkeypatch):
        # the dedup key reads each state along the digest's first probe, so
        # a build seeds no generator but the one `_probes` seeds
        seeds = []
        real = np.random.default_rng

        def counting(seed=None):
            seeds.append(seed)
            return real(seed)

        monkeypatch.setattr(np.random, "default_rng", counting)
        checker._probes.cache_clear()
        system = qts.teleportation_qts()
        graph = checker.build_graph(
            system, qts.teleportation_input(np.array([0.6, 0.8])))
        assert seeds == [checker._SKETCH_SEED]
        assert len(graph.nodes) == 15

    def test_boundary_straddling_pair_merges(self):
        # l0 prepares diag(a, 1 - a) with a just below the rounding boundary
        # 0.12345675; each turn of the l1 loop moves a up by 2e-12
        a = 0.12345675 - 1e-12
        eps = 2e-12 / (1 - 2 * a)
        prep = [np.sqrt(a) * np.eye(2), np.sqrt(1 - a) * ch.PAULI_X]
        drift = [np.sqrt(1 - eps) * np.eye(2), np.sqrt(eps) * ch.PAULI_X]
        system = qts.QuantumTransitionSystem(1, ("l0", "l1"), "l0", (
            qts.kraus_edge("l0", "l1", prep, (1,), 1),
            qts.kraus_edge("l1", "l1", drift, (1,), 1)))
        reference = dense_build_graph(system, pure(KET0), bound=8)
        first, second = (n.config.state for n in reference.nodes[1:3])
        assert np.abs(first - second).max() <= 3e-12
        assert reference_fingerprint(first) != reference_fingerprint(second)
        graph = checker.build_graph(system, pure(KET0), bound=8)
        assert len(reference.nodes) == 3
        assert len(graph.nodes) == 2
        assert graph.nodes[1].out == ((1, pytest.approx(1.0)),)

    def test_equal_diagonals_never_merge(self):
        # |+> and |-> differ only in their coherences
        assert np.array_equal(np.diag(pure(PLUS)), np.diag(pure(MINUS)))
        system = loop_qts(ch.SuperOperator.unitary(ch.gate_matrix("Z")))
        graph = checker.build_graph(system, pure(PLUS), bound=8)
        states = [n.config.state for n in graph.nodes]
        assert len(states) == 2
        assert np.abs(states[0] - pure(PLUS)).max() < 1e-12
        assert np.abs(states[1] - pure(MINUS)).max() < 1e-12


def _fast_within_tol(a, spectrum):
    """`checker._within_tol`'s own decision on the pair, or None where it
    leaves the pair to the blockwise check."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(checker, "_blockwise_within_tol", lambda a, b: None)
        return checker._within_tol(a, spectrum)


class TestCertifiedMerge:
    """`_within_tol` accepts a merge from an O(d r^2) bound on
    max|A A^dagger - B B^dagger|, refuses one from the exact diagonals,
    and leaves only the pairs within a rounding margin of TOL_FP to the
    blockwise check.  Every decision it makes must be the blockwise
    one."""

    @given(st.data())
    def test_fast_decision_is_the_blockwise_one(self, data):
        d = data.draw(st.integers(1, 64))
        r = data.draw(st.integers(1, min(4, d)))
        case = data.draw(st.sampled_from(["diagonal", "inside", "outside"]))
        # distance = TOL_FP (1 + s), s straddling 0 down to 1e-9
        s = data.draw(st.just(0.0) | st.builds(
            lambda sign, e: sign * 10.0 ** e, st.sampled_from([-1.0, 1.0]),
            st.floats(-9.0, -0.5)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        lam = np.sort(rng.random(r) + 0.05)[::-1]
        lam /= lam.sum()
        gauge = random_unitary(rng, r)
        target = checker.TOL_FP * (1.0 + s)
        if case == "diagonal":
            # Q holds basis vectors, so the bound is the distance: one
            # eigenvalue moves by target
            cols = rng.choice(d, size=r, replace=False)
            q = np.zeros((d, r), dtype=complex)
            q[cols, np.arange(r)] = np.exp(2j * np.pi * rng.random(r))
            k = int(rng.integers(r))
            moved = lam.copy()
            moved[k] += target if rng.random() < 0.5 or lam[k] < 2 * target \
                else -target
            a = (q * np.sqrt(moved)) @ gauge
        else:
            g = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
            q = np.linalg.qr(g)[0]
            e = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
            e = q @ (q.conj().T @ e) if case == "inside" \
                else e - q @ (q.conj().T @ e)
            if not np.abs(e).max() > 1e-12:
                return  # d = r leaves no outside
            base = (q * np.sqrt(lam)) @ gauge

            def dist(t):
                a = base + t * e
                return np.abs(a @ a.conj().T
                              - (q * lam) @ q.conj().T).max()
            lo, hi = 0.0, 1.0
            while dist(hi) < target:
                hi *= 2.0
            for _ in range(80):
                mid = (lo + hi) / 2.0
                lo, hi = (mid, hi) if dist(mid) < target else (lo, mid)
            a = base + hi * e
        b = q * np.sqrt(lam)
        want = checker._blockwise_within_tol(a, b)
        got = _fast_within_tol(a, (q, lam))
        assert got in (None, want)
        if case == "diagonal" and abs(s) >= 1e-6:
            assert got is want

    def test_a_pair_at_the_tolerance_reaches_the_blockwise_check(self):
        lam = np.array([0.75, 0.25])
        q = np.eye(4, 2, dtype=complex)
        a = q * np.sqrt(lam + [checker.TOL_FP, 0.0])
        assert _fast_within_tol(a, (q, lam)) is None
        calls = []
        blockwise = checker._blockwise_within_tol

        def spy(a, b):
            calls.append(b)
            return blockwise(a, b)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(checker, "_blockwise_within_tol", spy)
            assert checker._within_tol(a, (q, lam)) is blockwise(
                a, q * np.sqrt(lam))
        assert len(calls) == 1

    def test_ghz_noisy_never_reaches_the_blockwise_check(self, monkeypatch):
        # n = 10, from the rank-1 root the CLI builds for |0...0>, with the
        # terminal identity loop replaced by two Z[1] steps: the second
        # returns to the terminal state, which merges, and every merge is
        # certified
        compiled, _ = _ghz_noisy(10)
        (leaf,) = [t.pre for t in compiled.transitions if t.pre == t.post]
        system = qts.QuantumTransitionSystem(
            10, compiled.locations + ("z",), compiled.initial,
            tuple(t for t in compiled.transitions if t.pre != t.post) + (
                qts.gate_edge(leaf, "z", "Z", (1,), 10),
                qts.gate_edge("z", leaf, "Z", (1,), 10)))
        d = 2 ** 10
        root = qts.Configuration.from_factor(
            system.initial, np.eye(d, 1, dtype=complex), np.ones(1))
        confirms, fallbacks = [], []
        within = checker._within_tol

        def counting(a, spectrum):
            confirms.append(within(a, spectrum))
            return confirms[-1]
        monkeypatch.setattr(checker, "_within_tol", counting)
        monkeypatch.setattr(checker, "_blockwise_within_tol",
                            lambda a, b: fallbacks.append(a))
        graph = checker.build_graph(system, root)
        assert True in confirms
        assert fallbacks == []
        last = graph.nodes[-1]
        assert last.config.location == "z"
        assert graph.nodes[last.index - 1].config.location == leaf
        assert [t for t, _ in last.out] == [last.index - 1]


def _benchmark_jobs(workload, seed):
    """The jobs perfbench/workloads.py generates for the benchmark."""
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "workloads.py"
    return runpy.run_path(str(path))["generate"](workload, seed)


class TestBenchmarkJobCounts:
    """The decompositions and merge checks `build_graph` makes on the
    gated benchmark's check jobs, from the root the CLI builds: a qec-
    branching job takes at most one thin SVD and no merge check, a
    ghz-noisy job neither.  Counts, not times, so they are exact."""

    @pytest.mark.parametrize("seed", [1, 7, 23])
    @pytest.mark.parametrize("workload, svds", [("qec-branching", 1),
                                                ("ghz-noisy", 0)])
    def test_counts(self, workload, svds, seed, svd_calls, monkeypatch):
        within = []
        monkeypatch.setattr(checker, "_within_tol",
                            lambda *a: within.append(a))
        for job in _benchmark_jobs(workload, seed):
            system = qts.parse_model(job.model)
            root = cli._load_init(cli.RunConfig(model="", init=job.init),
                                  system)
            svd_calls.clear()
            checker.build_graph(system, root, job.bound)
            assert len(svd_calls) <= svds
            assert within == []


class TestIdentityEdges:
    """An identity edge maps no state: `step` returns the source's own
    configuration on a self-loop, or its read-only factor at another
    location, with probability exactly 1, and `build_graph` records a
    self-loop with no key and no merge check.  The graph must be the one
    the build makes with the shortcut turned off."""

    def test_self_loop_maps_nothing_and_checks_nothing(self, rng,
                                                       monkeypatch):
        system = qts.parse_model("qubits 3\nlocations l0\ninitial l0\n"
                                 "transitions\n  l0 -> l0 : gate I[2]\n")
        calls = []
        monkeypatch.setattr(qts, "_apply_local",
                            lambda *a: calls.append("apply"))
        monkeypatch.setattr(checker, "_within_tol",
                            lambda *a: calls.append("within"))
        graph = checker.build_graph(system, random_density(rng, 8, 3))
        assert calls == []
        assert len(graph.nodes) == 1
        assert graph.nodes[0].out == ((0, 1.0),)
        assert graph.closure == checker.COMPLETE

    def test_self_loop_carries_probability_exactly_one(self, rng):
        # the root's trace is 1 - 5e-10, which TOL_NORM admits; the mapped
        # branch would report that trace, the identity edge reports 1
        system = loop_qts(ch.SuperOperator.unitary(np.eye(4)))
        root = qts.Configuration.from_factor(
            "l0", random_unitary(rng, 4)[:, :2],
            np.array([0.6, 0.4 - 5e-10]), probability=0.25)
        ((succ, p),) = qts.step(system, root)
        assert succ is root
        assert p == 1.0
        assert succ.probability == 0.25

    def test_edge_to_another_location_shares_the_factor(self, rng):
        system = qts.parse_model(
            "qubits 2\nlocations l0 l1\ninitial l0\ntransitions\n"
            "  l0 -> l1 : gate I[2]\n  l1 -> l1 : gate X[1]\n")
        root = qts.Configuration("l0", random_density(rng, 4, 2))
        ((succ, p),) = qts.step(system, root)
        assert p == 1.0
        assert succ.location == "l1"
        assert succ.probability == root.probability
        for got, held in zip(succ.spectrum, root.spectrum):
            assert got is held
            assert not got.flags.writeable
        # it then goes through the key and the merge check as usual: the
        # second X returns to the identity edge's successor
        graph = checker.build_graph(system, root)
        assert [(n.config.location, [t for t, _ in n.out])
                for n in graph.nodes] == [("l0", [1]), ("l1", [2]),
                                          ("l1", [1])]
        assert graph.nodes[0].out == ((1, 1.0),)

    @pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.qts")),
                             ids=lambda p: p.stem)
    def test_graph_matches_the_build_without_the_shortcut(self, path):
        system = qts.parse_model(path.read_text())
        n = system.n_qubits
        d = 2 ** n
        ghz = np.zeros(d, dtype=complex)
        ghz[[0, d - 1]] = 1 / np.sqrt(2)
        for vec in (np.eye(d)[0], np.eye(d)[d - 1], ghz):
            root = qts.Configuration.from_factor(
                system.initial, vec.astype(complex)[:, None], np.ones(1))
            fast = checker.build_graph(system, root)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ch.SuperOperator, "_identity",
                           property(lambda self: False))
                slow = checker.build_graph(system, root)
            assert fast.closure == slow.closure
            assert len(fast.nodes) == len(slow.nodes)
            for a, b in zip(fast.nodes, slow.nodes):
                assert (a.config.location, a.depth, a.digest) == \
                    (b.config.location, b.depth, b.digest)
                assert [t for t, _ in a.out] == [t for t, _ in b.out]
                for (_, pa), (_, pb) in zip(a.out, b.out):
                    assert abs(pa - pb) <= 1e-14


class TestFactorOnlyNodes:
    def test_successors_hold_only_their_factor(self, rng):
        system = qts.teleportation_qts()
        graph = checker.build_graph(
            system, qts.teleportation_input(random_unit_vector(rng, 2)))
        # every node, the root included, holds only its factor and
        # rebuilds its state on every read
        assert all(n.config.state is not n.config.state
                   for n in graph.nodes)
        assert all(n._digest is None for n in graph.nodes)
        node = graph.nodes[-1]
        assert node.digest == checker.fingerprint(node.config.state)

    def test_build_and_label_allocate_no_dense_state_per_successor(self):
        # the 12 nodes of GHZ-noisy at n = 10; holding a d x d state per
        # node, as a dense graph does, would peak above 12 x rho0
        system, rho0 = _ghz_noisy(10)
        d = len(rho0)
        bindings = {"g": la.Subspace(np.eye(d)[:, [0, d - 1]])}
        tracemalloc.start()
        try:
            graph = checker.build_graph(system, rho0)
            for text in ("[g]", "[~g]", "true"):
                graph.label_set(lg.parse_formula(text).prop, bindings)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(graph.nodes) == 12
        assert peak < 4 * rho0.nbytes


class TestKetRoot:
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.integers(1, 3))
    def test_factor_and_dense_roots_agree(self, seed, n_qubits, n_locations):
        rng = np.random.default_rng(seed)
        system = random_closing_qts(rng, n_qubits, n_locations)
        d = 2 ** n_qubits
        ket = np.zeros(d, dtype=complex)
        idx = rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False)
        ket[idx] = random_unit_vector(rng, len(idx))
        root = qts.Configuration.from_factor(system.initial, ket[:, None],
                                             np.ones(1))
        bindings = {"a": span(random_unit_vector(rng, d)),
                    "b": span(np.eye(d)[int(rng.integers(0, d))])}
        for _ in range(3):
            formula = random_state_formula(rng, ["a", "b"], 2)
            got, want = (checker.check(system, rho0, formula, bindings,
                                       bound=16)
                         for rho0 in (root, np.outer(ket, ket.conj())))
            assert (got.result, got.closure, got.nodes, got.edges) == \
                (want.result, want.closure, want.nodes, want.edges)
            assert (got.trace is None) == (want.trace is None)
            for a, b in zip(got.trace or (), want.trace or (), strict=True):
                assert (a.location, a.state_digest) == \
                    (b.location, b.state_digest)
                assert abs(a.probability - b.probability) <= 1e-12

    def test_root_elsewhere_is_refused(self):
        root = qts.Configuration.from_factor("l1", KET0[:, None].copy(),
                                             np.ones(1))
        system = qts.QuantumTransitionSystem(1, ("l0", "l1"), "l0", ())
        with pytest.raises(UnknownLocation):
            checker.build_graph(system, root)


class TestDedupSoundness:
    def test_dedup_never_changes_decided_verdicts(self, rng):
        for _ in range(8):
            system = random_closing_qts(rng, 1, int(rng.integers(1, 3)))
            rho0 = random_closing_state(rng, 1)
            formula = random_state_formula(rng, list(BINDINGS_1Q), 2)
            merged = checker.check(system, rho0, formula, BINDINGS_1Q,
                                   bound=24)
            plain_graph = unmerged_build_graph(system, rho0, bound=7)
            plain = checker.check(system, rho0, formula, BINDINGS_1Q,
                                  graph=plain_graph)
            if plain.result != "unknown" and merged.result != "unknown":
                assert plain.result == merged.result


class TestTraces:
    def test_exists_next_witness_length_one(self):
        v = checker.check(id_loop_system(), pure(KET0),
                          lg.parse_formula("E X true"), {}, bound=4)
        assert v.result == "holds"
        assert len(v.trace) == 2
        assert v.trace[0].location == "l0"
        assert v.trace[1].probability == pytest.approx(1.0)

    def test_teleportation_counterexample(self, rng):
        system = qts.teleportation_qts()
        psi = random_unit_vector(rng, 2)
        vecs = []
        for x in range(2):
            for y in range(2):
                v = np.zeros(8, dtype=complex)
                v[x + 2 * y] = psi[0]
                v[x + 2 * y + 4] = psi[1]
                vecs.append(v)
        bindings = {"psi3": la.Subspace.span(vecs)}
        verdict = checker.check(system, qts.teleportation_input(psi),
                                lg.parse_formula("A X [psi3]"), bindings,
                                bound=16)
        assert verdict.result == "fails"
        assert verdict.trace is not None
        last = verdict.trace[-1]
        node = next(n for n in checker.build_graph(
            system, qts.teleportation_input(psi), 16).nodes
            if n.digest == last.state_digest)
        assert not lg.satisfies_atomic(node.config.state, lg.Atom("psi3"),
                                       bindings)

    def test_unknown_has_no_trace(self):
        system = loop_qts(ch.SuperOperator.unitary(ch.gate_matrix("T")))
        graph = checker.build_graph(system, pure(PLUS), bound=2)
        with pytest.raises(NoTraceAvailable):
            checker.extract_trace(graph, lg.parse_formula("A G [zero]"),
                                  BINDINGS_1Q, "unknown")

    def test_forall_holds_has_no_trace(self):
        graph = checker.build_graph(h_loop_system(), pure(KET0), bound=8)
        formula = lg.parse_formula("A X [plus]")
        with pytest.raises(NoTraceAvailable):
            checker.extract_trace(graph, formula, BINDINGS_1Q, "holds")

    def test_lasso_counterexample(self):
        # A (true U [one]) fails on the identity loop from |0>: the loop
        # never reaches |1>, so the trace closes a cycle
        v = checker.check(id_loop_system(), pure(KET0),
                          lg.parse_formula("A (true U [one])"), BINDINGS_1Q,
                          bound=8)
        assert v.result == "fails"
        assert v.trace is not None
        assert v.trace[0].location == v.trace[-1].location

    def test_lasso_starts_at_the_root(self):
        # l0 -> l1 -> l2 -> l2: the counterexample to A (true U [one]) from
        # |0> is the whole chain, then the self-loop
        edges = [qts.gate_edge(a, b, "I", (1,), 1)
                 for a, b in (("l0", "l1"), ("l1", "l2"), ("l2", "l2"))]
        system = qts.QuantumTransitionSystem(1, ("l0", "l1", "l2"), "l0",
                                             tuple(edges))
        graph = checker.build_graph(system, pure(KET0))
        v = checker.check(system, pure(KET0),
                          lg.parse_formula("A (true U [one])"), BINDINGS_1Q,
                          graph=graph)
        assert v.result == "fails"
        index = {(n.config.location, n.digest): n.index for n in graph.nodes}
        path = [index[s.location, s.state_digest] for s in v.trace]
        assert path == [0, 1, 2, 2]
        assert v.trace[0].state_digest == graph.nodes[0].digest
        for u, w in zip(path, path[1:]):
            assert w in [dst for dst, _ in graph.nodes[u].out]

    def test_lasso_on_a_cycle_longer_than_the_recursion_limit(self):
        n = 5000
        nodes = [checker.GraphNode(i, None, "", 0, True, (((i + 1) % n, 1.0),))
                 for i in range(n)]
        graph = SimpleNamespace(nodes=nodes)
        assert checker._lasso(graph, 0, set(range(n))) == \
            list(range(n)) + [0]
        assert checker._lasso(graph, 0, set(range(n - 1))) is None


SINK_MODEL = """
qubits 1
locations live dead
initial live
transitions
  live -> live : measure M[1] = 0
  live -> dead : measure M[1] = 1
"""


class TestSinkLocations:
    """Hand-written models may contain dead-end locations; configurations
    there start no paths, so existential formulas fail and universal ones
    hold vacuously, consistently across checker and oracle."""

    def build(self):
        system = qts.parse_model(SINK_MODEL)
        return system, checker.build_graph(system, pure(PLUS), bound=8)

    def test_graph_completes_with_dead_end(self):
        _, graph = self.build()
        assert graph.closure == checker.COMPLETE
        assert len(graph.nodes) == 3
        dead = [n for n in graph.nodes if n.config.location == "dead"]
        assert dead[0].complete and dead[0].out == ()

    def test_no_path_through_the_sink(self):
        system, graph = self.build()
        v = checker.check(system, pure(PLUS),
                          lg.parse_formula("E X [one]"), BINDINGS_1Q,
                          graph=graph)
        assert v.result == "fails"
        v = checker.check(system, pure(PLUS),
                          lg.parse_formula("A X [zero]"), BINDINGS_1Q,
                          graph=graph)
        assert v.result == "holds"

    def test_oracle_agrees_on_sink_graph(self, rng):
        system, graph = self.build()
        oracle = PathOracle(graph, BINDINGS_1Q)
        for _ in range(40):
            formula = random_state_formula(rng, list(BINDINGS_1Q),
                                           int(rng.integers(1, 4)))
            verdict = checker.check(system, pure(PLUS), formula,
                                    BINDINGS_1Q, graph=graph)
            expected = "holds" if oracle.holds(0, formula) else "fails"
            assert verdict.result == expected, lg.print_formula(formula)


def test_fingerprint_folds_negative_zero():
    a = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    b = a.copy()
    b[0, 1] = -0.0 + 0.0j
    assert checker.fingerprint(a) == checker.fingerprint(b)


def test_fingerprint_distinguishes_states():
    assert checker.fingerprint(pure(KET0)) != checker.fingerprint(pure(PLUS))


class TestStreamedDigest:
    """The digest's rounding step, (S + S^dagger)/2 to FP_DECIMALS with -0.0
    folded, must match the whole-matrix definition bit for bit on any
    square S, and a state written with -0.0 entries must digest like its
    +0.0 twin."""

    @pytest.mark.parametrize("d", [2, 8, 300])
    def test_negative_zeros_and_half_points_match(self, rng, d):
        # (P + P^dagger)/2 lands on 7-decimal half points, or on -0.0 when
        # both of its terms are -0.0; d = 300 is wider than the probe block
        halves = np.concatenate([(np.arange(-40, 40) + 0.5) * 1e-7,
                                 0.5 + (np.arange(-5, 5) + 0.5) * 1e-7,
                                 [-0.0, -0.0, 0.0]])
        parts = 2.0 * rng.choice(halves, size=(2, d, d))
        p = parts[0] + 1j * parts[1]
        assert checker._sketch_digest(p) == reference_fingerprint(p)
        zeros = np.full((d, d), -0.0 - 0.0j)
        zeros.real[0, 0] = 1.0
        assert checker._sketch_digest(zeros) == reference_fingerprint(zeros)
        assert checker.fingerprint(zeros) == \
            checker.fingerprint(np.abs(zeros).astype(complex))
        assert checker.fingerprint(zeros) == checker.spectral_fingerprint(
            np.eye(d, 1, dtype=complex), np.array([1.0]))


class TestSketchDigest:
    """A digest hashes the rounded sketch V^dagger rho V.  Graph nodes are
    digested from their factor (`spectral_fingerprint`), a dense state by
    `fingerprint`; the two routes must agree."""

    def test_factor_and_dense_routes_agree(self, rng):
        for n in range(1, 11):
            d = 2 ** n
            for rank in range(1, min(3, d) + 1):
                g = rng.normal(size=(d, rank)) \
                    + 1j * rng.normal(size=(d, rank))
                lam = np.sort(rng.random(rank))[::-1]
                config = qts.Configuration.from_factor(
                    "l0", np.linalg.qr(g)[0], lam / lam.sum())
                assert checker.spectral_fingerprint(*config.spectrum) == \
                    checker.fingerprint(config.state)

    def test_held_dense_state_matches(self, rng):
        config = qts.Configuration("l0", random_density(rng, 64))
        assert checker.spectral_fingerprint(*config.spectrum) == \
            checker.fingerprint(config.state)

    def test_digest_does_not_depend_on_the_gauge(self, rng):
        # I/2 from the computational, the Hadamard and a random eigenbasis
        hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        unitary = np.linalg.qr(rng.normal(size=(2, 2))
                               + 1j * rng.normal(size=(2, 2)))[0]
        half = np.array([0.5, 0.5])
        digests = {checker.spectral_fingerprint(b, half)
                   for b in (np.eye(2, dtype=complex), hadamard, unitary)}
        assert digests == {checker.fingerprint(np.eye(2) / 2)}
        # a degenerate rank-2 state on C^8, from two bases of its support
        basis = np.linalg.qr(rng.normal(size=(8, 2))
                             + 1j * rng.normal(size=(8, 2)))[0]
        turned = basis @ unitary
        assert checker.spectral_fingerprint(basis, half) == \
            checker.spectral_fingerprint(turned, half)

    def test_negative_zero_is_folded(self):
        # a tiny negative entry of the sketch rounds to -0.0
        sketch = np.array([[1.0, -1e-9 - 1e-9j], [-1e-9 + 1e-9j, -1e-9]])
        assert checker._sketch_digest(sketch) == \
            checker._sketch_digest(np.diag([1.0, 0.0]).astype(complex))

    def test_golden_digests(self):
        # pinned values: a change of the generator's stream, of the probe
        # construction or of the rounding shows up here first
        psi = np.array([0, 1, 1j, 0]) / np.sqrt(2)
        mixed = 0.7 * np.diag([1, 0, 0, 0]) + 0.3 * np.outer(psi, psi.conj())
        for rho, want in [(pure(KET0), "cafe2d640e5a21b5096f4a83250c4c0e"),
                          (pure(PLUS), "77edde5f86fe806e19be115d93421152"),
                          (mixed, "3cc2f3771b740a44c78a6b894ba0303c")]:
            config = qts.Configuration("l0", rho)
            assert checker.fingerprint(config.state) == want
            assert checker.spectral_fingerprint(*config.spectrum) == want

    def test_digest_builds_no_dense_temporary(self):
        d = 1024
        rho = np.zeros((d, d), dtype=complex)
        rho[0, 0] = 1.0
        tracemalloc.start()
        try:
            checker.fingerprint(rho)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the m x d products and, on first use, the probe block
        assert peak < rho.nbytes / 4

    def test_factor_digest_builds_no_dense_array(self, rng):
        # n = 12: the dense state would take 256 MiB
        d, rank = 2 ** 12, 3
        g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
        config = qts.Configuration.from_factor(
            "l0", np.linalg.qr(g)[0], np.full(rank, 1.0 / rank))
        checker._probes(d)  # the probe block is built once per d, and kept
        node = checker.GraphNode(0, config, None, 0)
        tracemalloc.start()
        try:
            node.digest
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
