import numpy as np
import pytest

from qmc import channel as ch
from qmc import tensor as tn
from qmc.errors import IndexCollision, MalformedNetwork, RankLimitExceeded

from helpers import random_unitary

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)


def gate_tensor(u, out_names, in_names):
    return tn.tensor_from_matrix(u, out_names, in_names)


def state_tensor(vec, names):
    return tn.tensor_from_vector(vec, names)


def cx_matrix():
    # little-endian register matrix with control on qubit 1
    return ch.gate_on_qubits("CX", [1, 2], 2).kraus[0]


class TestContractPair:
    def test_identity_gate_relabels(self):
        t = tn.contract_pair(gate_tensor(np.eye(2), ("q'",), ("q",)),
                             state_tensor(KET0, ("q",)))
        assert t.indices == ("q'",)
        assert np.abs(t.to_vector() - KET0).max() < 1e-15

    def test_hadamard_on_zero(self):
        # matrix-vector oracle
        expected = ch.HADAMARD @ KET0
        t = tn.contract_pair(gate_tensor(ch.HADAMARD, ("q'",), ("q",)),
                             state_tensor(KET0, ("q",)))
        assert np.abs(t.to_vector(("q'",)) - expected).max() < 1e-12

    def test_cnot_flips_target(self):
        # |10>: qubit 1 (the control) is set, so the target flips
        vec = np.zeros(4, dtype=complex)
        vec[1] = 1.0
        expected = cx_matrix() @ vec
        t = tn.contract_pair(
            gate_tensor(cx_matrix(), ("q1'", "q2'"), ("q1", "q2")),
            state_tensor(vec, ("q1", "q2")))
        assert np.abs(t.to_vector(("q1'", "q2'")) - expected).max() < 1e-12
        assert np.argmax(np.abs(expected)) == 3

    def test_outer_product_when_disjoint(self, rng):
        a = state_tensor(rng.normal(size=2) + 1j * rng.normal(size=2), ("a",))
        b = state_tensor(rng.normal(size=4) + 1j * rng.normal(size=4),
                         ("b", "c"))
        t = tn.contract_pair(a, b)
        assert t.indices == ("a", "b", "c")
        expected = np.kron(b.to_vector(("b", "c")), a.to_vector())
        assert np.abs(t.to_vector(("a", "b", "c")) - expected).max() < 1e-12

    def test_unitarity_gives_identity_tensor(self, rng):
        u = random_unitary(rng, 4)
        t_u = gate_tensor(u, ("o1", "o2"), ("i1", "i2"))
        t_ud = gate_tensor(u.conj().T, ("f1", "f2"), ("o1", "o2"))
        t = tn.contract_pair(t_ud, t_u)
        ident = t.to_vector(("f1", "f2", "i1", "i2")).reshape((4, 4),
                                                               order="F")
        assert np.abs(ident - np.eye(4)).max() < 1e-12

    def test_duplicate_names_rejected(self):
        with pytest.raises(IndexCollision):
            tn.Tensor(("q", "q"), np.zeros(4))

    def test_rank_cap(self):
        with pytest.raises(RankLimitExceeded):
            tn.Tensor(tuple(f"q{i}" for i in range(tn.MAX_RANK + 1)),
                      np.zeros(1))

    def test_contraction_rank_cap(self):
        a = tn.Tensor(tuple(f"a{i}" for i in range(14)),
                      np.zeros((2,) * 14))
        b = tn.Tensor(tuple(f"b{i}" for i in range(14)),
                      np.zeros((2,) * 14))
        with pytest.raises(RankLimitExceeded):
            tn.contract_pair(a, b)


class TestNetworkValidation:
    def test_dangling_index_rejected(self):
        a = state_tensor(KET0, ("q",))
        with pytest.raises(MalformedNetwork):
            tn.TensorNetwork((a,), ())  # q is neither open nor paired

    def test_triple_shared_rejected(self):
        nodes = tuple(state_tensor(KET0, ("q",)) for _ in range(3))
        with pytest.raises(MalformedNetwork):
            tn.TensorNetwork(nodes, ())

    def test_open_must_exist(self):
        a = state_tensor(KET0, ("q",))
        with pytest.raises(MalformedNetwork):
            tn.TensorNetwork((a,), ("q", "r"))


class TestContractNetwork:
    def test_single_node_unchanged(self, rng):
        data = rng.normal(size=4) + 1j * rng.normal(size=4)
        node = state_tensor(data, ("a", "b"))
        out = tn.contract_network(tn.TensorNetwork((node,), ("a", "b")))
        assert out.indices == ("a", "b")
        assert np.abs(out.to_vector(("a", "b")) - data).max() == 0.0

    def test_hadamard_twice_is_identity(self):
        net = tn.TensorNetwork((
            state_tensor(KET0, ("q0",)),
            gate_tensor(ch.HADAMARD, ("q1",), ("q0",)),
            gate_tensor(ch.HADAMARD, ("q2",), ("q1",)),
        ), ("q2",))
        out = tn.contract_network(net).to_vector(("q2",))
        assert np.abs(out - KET0).max() < 1e-12

    def test_five_gate_circuit_matches_dense_product(self):
        # Z on 1, H on 2, CX(1,2), Y on 1, H on 2 applied to |00>
        z1 = np.kron(np.eye(2), ch.PAULI_Z)
        h2 = np.kron(ch.HADAMARD, np.eye(2))
        y1 = np.kron(np.eye(2), ch.PAULI_Y)
        cx = cx_matrix()
        dense = h2 @ y1 @ cx @ h2 @ z1 @ np.kron(KET0, KET0)

        net = tn.TensorNetwork((
            state_tensor(np.kron(KET0, KET0), ("a1", "a2")),
            gate_tensor(ch.PAULI_Z, ("b1",), ("a1",)),
            gate_tensor(ch.HADAMARD, ("b2",), ("a2",)),
            gate_tensor(cx, ("c1", "c2"), ("b1", "b2")),
            gate_tensor(ch.PAULI_Y, ("d1",), ("c1",)),
            gate_tensor(ch.HADAMARD, ("d2",), ("c2",)),
        ), ("d1", "d2"))
        out = tn.contract_network(net).to_vector(("d1", "d2"))
        assert np.abs(out - dense).max() < 1e-10


def random_network(rng, n_nodes):
    """Random network: an index shared per coin-flipped node pair plus a
    couple of open legs, keeping every rank small."""
    node_indices = [[] for _ in range(n_nodes)]
    for i in range(n_nodes):
        for j in range(i + 1, n_nodes):
            if rng.random() < 0.6:
                name = f"s{i}_{j}"
                node_indices[i].append(name)
                node_indices[j].append(name)
    open_names = []
    for i in range(n_nodes):
        for t in range(int(rng.integers(0, 3))):
            name = f"o{i}_{t}"
            node_indices[i].append(name)
            open_names.append(name)
    nodes = []
    for idx in node_indices:
        size = 2 ** len(idx)
        data = rng.normal(size=size) + 1j * rng.normal(size=size)
        nodes.append(tn.tensor_from_vector(data, tuple(idx)))
    return tn.TensorNetwork(tuple(nodes), tuple(open_names))


def all_orders(n_nodes):
    """Every full pairwise contraction schedule over fresh-id bookkeeping."""
    def go(live, next_id):
        if len(live) == 1:
            yield []
            return
        ids = sorted(live)
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                rest = live - {ids[a], ids[b]} | {next_id}
                for tail in go(rest, next_id + 1):
                    yield [(ids[a], ids[b])] + tail

    yield from go(set(range(n_nodes)), n_nodes)


class TestOrderIndependence:
    def test_all_orders_agree(self, rng):
        for trial in range(8):
            n_nodes = int(rng.integers(2, 6))
            net = random_network(rng, n_nodes)
            reference = None
            for order in all_orders(n_nodes):
                out = tn.contract_network(net, order=order)
                vec = out.to_vector(net.open_indices) if net.open_indices \
                    else out.data.reshape(-1)
                if reference is None:
                    reference = vec
                else:
                    assert np.abs(vec - reference).max() < 1e-10

    def test_greedy_plan_matches_exhaustive(self, rng):
        for trial in range(5):
            n_nodes = int(rng.integers(2, 6))
            net = random_network(rng, n_nodes)
            greedy = tn.contract_network(net)
            for order in all_orders(n_nodes):
                other = tn.contract_network(net, order=order)
                assert np.abs(greedy.data - other.transpose_to(
                    greedy.indices).data).max() < 1e-12


class TestPlanOrder:
    def test_two_nodes_single_step(self):
        net = tn.TensorNetwork((
            state_tensor(KET0, ("q",)),
            gate_tensor(np.eye(2), ("r",), ("q",)),
        ), ("r",))
        assert tn.plan_order(net) == [(0, 1)]

    def test_chain_stays_narrow(self, rng):
        # a chain of k one-qubit gates: greedy should sweep along the chain,
        # never building an intermediate wider than a single gate
        k = 5
        nodes = [state_tensor(KET0, ("w0",))]
        for i in range(k):
            u = random_unitary(rng, 2)
            nodes.append(gate_tensor(u, (f"w{i + 1}",), (f"w{i}",)))
        net = tn.TensorNetwork(tuple(nodes), (f"w{k}",))
        live = {i: frozenset(t.indices) for i, t in enumerate(net.nodes)}
        next_id = len(net.nodes)
        max_rank = 0
        for i, j in tn.plan_order(net):
            merged = live.pop(i) ^ live.pop(j)
            live[next_id] = merged
            next_id += 1
            max_rank = max(max_rank, len(merged))
        assert max_rank <= 2  # widest gate rank, as the chain has one open leg

    def test_plan_covers_all_nodes(self, rng):
        net = random_network(rng, 5)
        plan = tn.plan_order(net)
        assert len(plan) == 4
        out = tn.contract_network(net, order=plan)
        assert set(out.indices) == set(net.open_indices)


def test_vector_round_trip(rng):
    vec = rng.normal(size=8) + 1j * rng.normal(size=8)
    t = tn.tensor_from_vector(vec, ("a", "b", "c"))
    assert np.abs(t.to_vector(("a", "b", "c")) - vec).max() == 0.0
    # axis permutation follows the little-endian weights
    swapped = t.to_vector(("b", "a", "c"))
    for x in range(8):
        bits = [(x >> i) & 1 for i in range(3)]
        orig = bits[1] | (bits[0] << 1) | (bits[2] << 2)
        assert swapped[x] == vec[orig]


def test_matrix_round_trip(rng):
    mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    t = tn.tensor_from_matrix(mat, ("r0", "r1"), ("c0", "c1"))
    # entry (x, y) sits at row bits x and column bits y, weight 4 on y
    flat = t.to_vector(("r0", "r1", "c0", "c1"))
    assert np.abs(flat.reshape((4, 4), order="F") - mat).max() == 0.0


def test_amplitude_addressing():
    t = tn.tensor_from_vector(np.arange(8), ("a", "b", "c"))
    # amplitude at (a=1, b=0, c=1) is entry 1 + 4 = 5
    assert t.data[1, 0, 1] == 5.0
