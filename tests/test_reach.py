import json
import tracemalloc
import warnings

import numpy as np
import pytest

from qmc import channel as ch
from qmc import linalg as la
from qmc import cli, qts, reach
from qmc.errors import DimensionMismatch, InvalidDensityMatrix

from helpers import (block_unitary_channel, dephasing_loop_qts,
                     permutation_mixture_channel, projector, random_channel,
                     random_density, random_unit_vector,
                     reference_vectorized_reach)

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)


def pure(v):
    return np.outer(v, v.conj())


def chain_of(e):
    return reach.QuantumMarkovChain(e.dim, e)


X_CHAIN = chain_of(ch.SuperOperator.unitary(ch.gate_matrix("X")))
ID_CHAIN = chain_of(ch.SuperOperator.unitary(np.eye(2)))


class TestImage:
    def test_identity_channel_fixes_everything(self, rng):
        e = ch.SuperOperator.unitary(np.eye(4))
        x = la.Subspace.span([random_unit_vector(rng, 4)])
        assert reach.image(e, x).same_space(x)

    def test_x_channel_maps_zero_to_one(self):
        out = reach.image(ch.SuperOperator.unitary(ch.gate_matrix("X")), la.Subspace.span([KET0]))
        assert out.same_space(la.Subspace.span([KET1]))

    def test_bit_flip_spreads_to_full_space(self):
        # support oracle: 0.5|0X0| + 0.5|1X1| has rank 2
        e = ch.noise_library("bit_flip", 0.5)
        out = reach.image(e, la.Subspace.span([KET0]))
        assert out.dim == 2

    def test_zero_subspace_stays_zero(self):
        e = ch.SuperOperator.unitary(ch.gate_matrix("H"))
        assert reach.image(e, la.Subspace.zero(2)).dim == 0

    def test_matches_join_of_pure_state_supports(self, rng):
        # the definition by joining over pure states, sampled
        for _ in range(10):
            e = random_channel(rng, 2, n_kraus=2)
            x = la.Subspace(la.orth_columns(
                rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))))
            computed = reach.image(e, x)
            sampled = []
            for _ in range(12):
                coeff = rng.normal(size=2) + 1j * rng.normal(size=2)
                psi = x.basis @ coeff
                psi /= np.linalg.norm(psi)
                sampled.append(la.support(ch.apply(e, pure(psi))))
            joined = la.join(sampled)
            assert la.contains(computed, joined)
            assert joined.same_space(computed)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            reach.image(ch.SuperOperator.unitary(np.eye(4)), la.Subspace.full(2))

    @pytest.mark.parametrize("structured", [False, True])
    def test_is_the_support_of_the_projector_image(self, structured, rng):
        # the definition through E(P_X), on dense and on gathered channels
        for _ in range(10):
            n = int(rng.integers(1, 4))
            e = (pauli_channel(rng, n) if structured
                 else random_channel(rng, n, n_kraus=2))
            assert (e._gather is not None) == structured
            g = rng.normal(size=(2 ** n, 2)) + 1j * rng.normal(size=(2 ** n, 2))
            x = la.Subspace(la.orth_columns(g))
            want = la.support(ch.apply(e, projector(x)))
            got = reach.image(e, x)
            assert got.dim == want.dim
            assert got.same_space(want)


def pauli_channel(rng, n_qubits):
    """A random Pauli channel: weights on n-qubit products of I, X, Y, Z
    drawn for a few random strings, so every Kraus operator has one
    nonzero entry in each row."""
    paulis = (ch.PAULI_I, ch.PAULI_X, ch.PAULI_Y, ch.PAULI_Z)
    strings = {tuple(int(i) for i in rng.integers(0, 4, size=n_qubits))
               for _ in range(3)}
    weights = rng.random(len(strings)) + 0.1
    weights /= weights.sum()
    kraus = []
    for w, string in zip(weights, sorted(strings)):
        op = np.eye(1)
        for i in string:
            op = np.kron(op, paulis[i])
        kraus.append(np.sqrt(w) * op)
    return ch.SuperOperator.from_kraus(kraus)


def adjacent(c, rho, sigma):
    """Whether sigma can follow rho in one step of the chain: supp(sigma)
    inside the image of supp(rho)."""
    return la.contains(reach.image(c.channel, la.support(rho)),
                       la.support(sigma))


class TestAdjacent:
    def test_identity_self_adjacent(self, rng):
        rho = random_density(rng, 2)
        assert adjacent(ID_CHAIN, rho, rho)

    def test_x_channel_zero_to_one(self):
        assert adjacent(X_CHAIN, pure(KET0), pure(KET1))

    def test_x_channel_zero_not_to_plus(self):
        # supp(|+X+|) = span{|+>} is not inside span{|1>}
        assert not adjacent(X_CHAIN, pure(KET0), pure(PLUS))

    def test_pure_state_route_equals_support_route(self, rng):
        """Adjacency defined through the image of the support agrees with
        the definition through supports of pure-state outputs."""
        for _ in range(20):
            e = random_channel(rng, 1, n_kraus=2)
            c = chain_of(e)
            rho = random_density(rng, 2, rank=int(rng.integers(1, 3)))
            img = reach.image(e, la.support(rho))
            sup = la.support(rho)
            vecs = [sup.basis @ (rng.normal(size=sup.dim)
                                 + 1j * rng.normal(size=sup.dim))
                    for _ in range(6)]
            joined = la.join([la.support(ch.apply(e, pure(v / np.linalg.norm(v))))
                              for v in vecs])
            assert joined.same_space(img)


class TestReachableSubspace:
    def test_identity_chain_stays_put(self):
        out = reach.reachable_subspace(ID_CHAIN, pure(KET0))
        assert out.same_space(la.Subspace.span([KET0]))

    def test_x_chain_covers_both_axes(self):
        # E^0 + E^1 applied to |0X0| is |0X0| + |1X1|
        out = reach.reachable_subspace(X_CHAIN, pure(KET0))
        assert out.dim == 2

    def test_phase_flip_from_plus(self):
        e = ch.noise_library("phase_flip", 0.5)
        out = reach.reachable_subspace(chain_of(e), pure(PLUS))
        assert out.dim == 2

    def test_block_channel_confined(self, rng):
        # invariant-subspace channel: starting inside the first block the
        # reachable space must stay there
        e = block_unitary_channel(rng, 2, block=2)
        rho = pure(np.array([1, 0, 0, 0], dtype=complex))
        out = reach.reachable_subspace(chain_of(e), rho)
        assert out.dim <= 2
        for col in out.basis.T:
            assert np.abs(col[2:]).max() < 1e-9


class TestThreeWayAgreement:
    @pytest.mark.parametrize("n_qubits", [1, 2, 3, 4])
    def test_routes_agree(self, n_qubits, rng):
        d = 2 ** n_qubits
        for trial in range(12):
            if trial % 3 == 0 and d > 2:
                e = block_unitary_channel(rng, n_qubits,
                                          block=int(rng.integers(1, d)))
            else:
                e = random_channel(rng, n_qubits,
                                   n_kraus=int(rng.integers(1, 4)))
            c = chain_of(e)
            rho = random_density(rng, d, rank=int(rng.integers(1, 3)))
            a = reach.reachable_subspace(c, rho)
            b = reach.reachable_subspace_vectorized(c, rho)
            f = reach.reachable_fixpoint_oracle(c, rho)
            assert a.dim == b.dim == f.dim
            assert a.same_space(b)
            assert a.same_space(f)

    @pytest.mark.parametrize("n_qubits", [1, 2, 3, 4])
    def test_routes_agree_on_pauli_and_permutation_channels(self, n_qubits,
                                                            rng):
        # channels applied by gather-and-scale
        d = 2 ** n_qubits
        for trial in range(12):
            if trial % 2:
                e = pauli_channel(rng, n_qubits)
            else:
                e = permutation_mixture_channel(rng, n_qubits)
            assert e._gather is not None
            c = chain_of(e)
            rho = random_density(rng, d, rank=int(rng.integers(1, 3)))
            a = reach.reachable_subspace(c, rho)
            b = reach.reachable_subspace_vectorized(c, rho)
            f = reach.reachable_fixpoint_oracle(c, rho)
            assert a.dim == b.dim == f.dim
            assert a.same_space(b)
            assert a.same_space(f)

    def test_depends_only_on_support(self, rng):
        for _ in range(10):
            e = random_channel(rng, 2, n_kraus=2)
            c = chain_of(e)
            basis = la.orth_columns(rng.normal(size=(4, 2))
                                    + 1j * rng.normal(size=(4, 2)))
            # two different mixtures with the same support
            w1 = rng.random(2) + 0.1
            w2 = rng.random(2) + 0.1
            rho1 = basis @ np.diag(w1 / w1.sum()) @ basis.conj().T
            rho2 = basis @ np.diag(w2 / w2.sum()) @ basis.conj().T
            assert reach.reachable_subspace(c, rho1).same_space(
                reach.reachable_subspace(c, rho2))

    def test_reachable_space_is_invariant(self, rng):
        for _ in range(15):
            e = random_channel(rng, 2, n_kraus=2)
            c = chain_of(e)
            rho = random_density(rng, 4, rank=1)
            r = reach.reachable_subspace(c, rho)
            assert la.contains(r, reach.image(e, r))


def _same_projector(a, b, tol=1e-12):
    pa = a.basis @ a.basis.conj().T
    pb = b.basis @ b.basis.conj().T
    return float(np.abs(pa - pb).max(initial=0.0)) <= tol


class TestVectorizedContraction:
    """The vectorized route contracts each step on the d x d legs of
    vec(rho); the reference applies the materialised `matrix_rep`."""

    @pytest.mark.parametrize("n_qubits", [3, 4, 5])
    def test_matches_matrix_rep_on_permutation_mixtures(self, n_qubits, rng):
        d = 2 ** n_qubits
        rho = np.zeros((d, d), dtype=complex)
        rho[0, 0] = 1.0
        for trial in range(8):
            block = None
            if trial % 2:
                k = int(rng.integers(d // 4, 3 * d // 4 + 1))
                block = np.sort(np.concatenate(([0], rng.choice(
                    np.arange(1, d), size=k - 1, replace=False))))
            c = chain_of(permutation_mixture_channel(rng, n_qubits, block))
            got = reach.reachable_subspace_vectorized(c, rho)
            want = reference_vectorized_reach(c, rho)
            assert got.dim == want.dim
            assert _same_projector(got, want)
            if block is not None:
                # a proper reachable subspace, inside the invariant block
                assert got.dim < d
                outside = np.setdiff1d(np.arange(d), block)
                assert np.abs(got.basis[outside]).max() < 1e-12

    @pytest.mark.parametrize("n_qubits", [1, 2, 3, 4, 5])
    def test_matches_matrix_rep_on_random_channels(self, n_qubits, rng):
        d = 2 ** n_qubits
        for n_kraus in (1, 2, 4):
            c = chain_of(random_channel(rng, n_qubits, n_kraus=n_kraus))
            for rank in range(1, d + 1):
                rho = random_density(rng, d, rank=rank)
                got = reach.reachable_subspace_vectorized(c, rho)
                want = reference_vectorized_reach(c, rho)
                assert got.dim == want.dim
                assert _same_projector(got, want)

    def test_builds_no_superoperator_matrix(self, rng, monkeypatch):
        # matrix_rep at n = 5 is 1024 x 1024 complex, 16 MiB
        c = chain_of(random_channel(rng, 5, n_kraus=2))
        rho = random_density(rng, 32, rank=1)

        def refuse(e):
            raise AssertionError("matrix_rep was called")

        monkeypatch.setattr(ch, "matrix_rep", refuse)
        tracemalloc.start()
        try:
            out = reach.reachable_subspace_vectorized(c, rho)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.dim == 32
        assert peak < 2 ** 20


class TestFixpointOracle:
    def test_identity_chain(self, rng):
        rho = random_density(rng, 4, rank=2)
        out = reach.reachable_fixpoint_oracle(
            chain_of(ch.SuperOperator.unitary(np.eye(4))), rho)
        assert out.same_space(la.support(rho))

    def test_x_chain_stabilises_after_one_join(self):
        out = reach.reachable_fixpoint_oracle(X_CHAIN, pure(KET0))
        assert out.dim == 2

    def test_grows_from_frontier_images_only(self, rng, monkeypatch):
        # no channel application and no d x d projector: each round takes
        # `image` of the directions the last one added
        e = permutation_mixture_channel(rng, 4)
        c = chain_of(e)
        rho = pure(np.eye(16)[0].astype(complex))
        want = reach.reachable_subspace(c, rho)
        seen = []
        image = reach.image

        def frontier_image(channel, x, rtol=la.TOL_EIG):
            seen.append(x.dim)
            return image(channel, x, rtol)

        def refuse(*args):
            raise AssertionError("the fixpoint route built a dense image")

        monkeypatch.setattr(ch, "apply", refuse)
        monkeypatch.setattr(la, "projector", refuse, raising=False)
        monkeypatch.setattr(reach, "image", frontier_image)
        got = reach.reachable_fixpoint_oracle(c, rho)
        assert got.dim == want.dim
        assert got.same_space(want)
        # the frontiers are disjoint parts of the reached space, where
        # images of the whole held space would have summed past it
        assert seen[0] == 1 and len(seen) > 2
        assert sum(seen) <= got.dim

    def test_starts_from_a_configuration_factor(self, rng, eigh_calls):
        # the support of a configuration is read from its factor: no
        # eigendecomposition, and the space the dense state gives
        c = chain_of(random_channel(rng, 3, n_kraus=2))
        vecs = np.linalg.qr(rng.normal(size=(8, 2))
                            + 1j * rng.normal(size=(8, 2)))[0]
        config = qts.Configuration.from_factor("l0", vecs,
                                               np.array([0.6, 0.4]))
        eigh_calls.clear()
        got = reach.reachable_fixpoint_oracle(c, config)
        assert eigh_calls == []
        want = reach.reachable_fixpoint_oracle(c, config.state)
        assert got.dim == want.dim
        assert got.same_space(want)
        assert np.array_equal(got.basis[:, :2], vecs)

    def test_a_configuration_of_another_dim_is_refused(self):
        config = qts.Configuration.from_factor(
            "l0", np.eye(4, 1, dtype=complex), np.ones(1))
        with pytest.raises(DimensionMismatch):
            reach.reachable_fixpoint_oracle(X_CHAIN, config)

    def test_iterates_monotonically(self, rng):
        e = random_channel(rng, 2, n_kraus=2)
        x = la.support(random_density(rng, 4, rank=1))
        dims = [x.dim]
        for _ in range(4):
            x = la.join([x, reach.image(e, x)])
            dims.append(x.dim)
        assert dims == sorted(dims)


class TestComputedTable:
    """The closed form and the vectorized route read one power sum per
    chain and state."""

    @pytest.fixture
    def applies(self, monkeypatch):
        calls = []
        apply = ch.apply

        def counting(e, rho):
            calls.append(e.dim)
            return apply(e, rho)

        monkeypatch.setattr(ch, "apply", counting)
        return calls

    def test_both_routes_make_one_sum(self, rng, applies):
        c = chain_of(random_channel(rng, 3, n_kraus=2))
        rho = random_density(rng, 8, rank=1)
        closed = reach.reachable_subspace(c, rho)
        vectorized = reach.reachable_subspace_vectorized(c, rho)
        assert len(applies) == 7
        assert closed.same_space(vectorized)

    def test_reach_verify_makes_one_sum(self, capsys, tmp_path, applies):
        # `qmc reach` answers by frontier images, with no channel
        # application; --verify adds the closed form's d - 1
        model = tmp_path / "dephasing4.qts"
        model.write_text(qts.serialize_model(dephasing_loop_qts(4)))
        argv = ["reach", "--model", str(model), "--init", "|0000>",
                "--format", "json"]
        assert cli.main(argv) == cli.EXIT_HOLDS
        assert json.loads(capsys.readouterr().out)["dim"] == 2
        assert applies == []
        assert cli.main(argv + ["--verify"]) == cli.EXIT_HOLDS
        assert json.loads(capsys.readouterr().out)["verify"]["agree"]
        assert applies == [16] * 15

    @staticmethod
    def _fresh_sum(c, rho):
        return reach._power_sum(chain_of(c.channel), rho)

    def test_a_hit_is_the_recomputed_sum(self, rng, applies):
        c = chain_of(random_channel(rng, 2, n_kraus=2))
        rho = random_density(rng, 4, rank=2)
        first = reach._power_sum(c, rho)
        assert reach._power_sum(c, rho.copy()) is first
        assert len(applies) == 3
        assert first.tobytes() == self._fresh_sum(c, rho).tobytes()

    def test_another_state_is_summed_again(self, rng, applies):
        c = chain_of(random_channel(rng, 2, n_kraus=2))
        rho, sigma = random_density(rng, 4), random_density(rng, 4)
        reach._power_sum(c, rho)
        got = reach._power_sum(c, sigma)
        assert len(applies) == 6
        assert got.tobytes() == self._fresh_sum(c, sigma).tobytes()
        # the entry was replaced: rho is summed again too
        reach._power_sum(c, rho)
        assert len(applies) == 12

    def test_a_signed_zero_is_another_state(self, applies):
        c = chain_of(X_CHAIN.channel)
        rho = pure(KET0)
        flipped = rho.copy()
        flipped[0, 1] = complex(-0.0, 0.0)
        assert np.array_equal(rho, flipped)
        reach._power_sum(c, rho)
        got = reach._power_sum(c, flipped)
        assert len(applies) == 2
        assert got.tobytes() == self._fresh_sum(c, flipped).tobytes()

    def test_an_edit_in_place_is_another_state(self, rng, applies):
        c = chain_of(random_channel(rng, 2, n_kraus=2))
        rho = random_density(rng, 4, rank=1)
        reach.reachable_subspace(c, rho)
        rho[...] = random_density(rng, 4, rank=1)
        after = reach.reachable_subspace_vectorized(c, rho)
        assert len(applies) == 6
        assert after.same_space(
            reach.reachable_subspace_vectorized(chain_of(c.channel), rho))

    def test_the_sum_is_read_only(self, rng):
        c = chain_of(random_channel(rng, 2, n_kraus=2))
        held = reach._power_sum(c, random_density(rng, 4))
        assert not held.flags.writeable
        with pytest.raises(ValueError):
            held[0, 0] = 0.0


def test_chain_validates_channel():
    with pytest.raises(DimensionMismatch):
        reach.QuantumMarkovChain(4, ch.SuperOperator.unitary(np.eye(2)))
    branch = ch.SuperOperator(1, (np.diag([1.0, 0.0]).astype(complex),),
                              ch.TraceClass.REDUCING)
    with pytest.raises(DimensionMismatch):
        reach.QuantumMarkovChain(2, branch)


def test_rejects_zero_state():
    with pytest.raises(DimensionMismatch):
        reach.reachable_subspace(ID_CHAIN, np.zeros((2, 2)))


@pytest.mark.parametrize("route", [reach.reachable_subspace,
                                   reach.reachable_subspace_vectorized,
                                   reach.reachable_fixpoint_oracle])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rejects_a_non_finite_state(route, bad):
    # refused before any route reads it: no warning, no LinAlgError
    rho = np.diag([bad, 1.0]).astype(complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidDensityMatrix, match="non-finite"):
            route(chain_of(ID_CHAIN.channel), rho)
