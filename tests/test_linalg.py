import numpy as np
import pytest
from hypothesis import given, strategies as st

from qmc import linalg as la
from qmc import logic as lg
from qmc.errors import DimensionMismatch, InvalidDensityMatrix

from helpers import (projector, random_psd, random_subspace,
                     random_unit_vector, schmidt)

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
MINUS = np.array([1, -1], dtype=complex) / np.sqrt(2)

TOL_RECON = 1e-10  # Schmidt reconstruction error


def span(*vectors):
    return la.Subspace.span(vectors)


class TestSupport:
    def test_rank_one_projector(self):
        sub = la.support(np.outer(KET0, KET0))
        assert sub.dim == 1
        assert la.contains(sub, KET0)
        assert not la.contains(sub, KET1)

    def test_full_rank(self):
        assert la.support(np.eye(2) / 2).dim == 2

    def test_mixture_rank_two(self):
        # independent eigendecomposition oracle: rank of the mixture
        rho = 0.5 * np.outer(PLUS, PLUS.conj()) + 0.5 * np.outer(KET0, KET0)
        eigs = np.linalg.eigvalsh(rho)
        assert np.sum(eigs > 1e-12) == 2
        assert la.support(rho).dim == 2

    def test_zero_matrix(self):
        assert la.support(np.zeros((4, 4))).dim == 0

    def test_rejects_non_square(self):
        with pytest.raises(InvalidDensityMatrix):
            la.support(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidDensityMatrix):
            la.support(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_small_eigenvalues_cut_relative(self):
        rho = np.diag([1.0, 1e-12]).astype(complex)
        assert la.support(rho).dim == 1

    def test_support_of_sum_is_join(self, rng):
        for _ in range(25):
            d = int(rng.integers(2, 9))
            a = random_psd(rng, d, rank=int(rng.integers(1, d + 1)))
            b = random_psd(rng, d, rank=int(rng.integers(1, d + 1)))
            lhs = la.support(a + b)
            rhs = la.join([la.support(a), la.support(b)])
            assert lhs.same_space(rhs)


class TestJoin:
    def test_orthogonal_spans_fill_space(self):
        assert la.join([span(KET0), span(KET1)]).dim == 2

    def test_overlapping_spans(self):
        # rank oracle: the stacked matrix [ |0> |+> ] has rank 2
        assert np.linalg.matrix_rank(np.column_stack([KET0, PLUS])) == 2
        assert la.join([span(KET0), span(PLUS)]).dim == 2

    def test_zero_is_identity(self):
        x = span(PLUS)
        joined = la.join([x, la.Subspace.zero(2)])
        assert joined.same_space(x)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            la.join([span(KET0), la.Subspace.full(4)])

    @given(st.integers(0, 10_000), st.integers(2, 10))
    def test_order_independent(self, seed, d):
        rng = np.random.default_rng(seed)
        subs = [random_subspace(rng, d, int(rng.integers(0, d + 1)))
                for _ in range(3)]
        shuffled = list(subs)
        rng.shuffle(shuffled)
        assert la.join(subs).same_space(la.join(shuffled))


class TestOrthocomplement:
    def test_basis_vector(self):
        comp = la.orthocomplement(span(KET0))
        assert comp.dim == 1
        assert la.contains(comp, KET1)

    def test_full_space(self):
        assert la.orthocomplement(la.Subspace.full(3)).dim == 0

    def test_plus_goes_to_minus(self):
        # null-space oracle: <+|v> = 0 has the one solution |->
        comp = la.orthocomplement(span(PLUS))
        assert comp.dim == 1
        assert abs(np.vdot(PLUS, comp.basis[:, 0])) < 1e-12
        assert la.contains(comp, MINUS)

    @given(st.integers(0, 10_000), st.integers(1, 16))
    def test_involution(self, seed, d):
        rng = np.random.default_rng(seed)
        x = random_subspace(rng, d, int(rng.integers(0, d + 1)))
        assert la.orthocomplement(la.orthocomplement(x)).same_space(x)

    @given(st.integers(0, 10_000), st.integers(1, 16))
    def test_dims_add_up(self, seed, d):
        rng = np.random.default_rng(seed)
        x = random_subspace(rng, d, int(rng.integers(0, d + 1)))
        assert x.dim + la.orthocomplement(x).dim == d

    @given(st.integers(0, 10_000), st.integers(2, 16))
    def test_de_morgan(self, seed, d):
        rng = np.random.default_rng(seed)
        x = random_subspace(rng, d, int(rng.integers(0, d + 1)))
        y = random_subspace(rng, d, int(rng.integers(0, d + 1)))
        lhs = la.orthocomplement(la.join([x, y]))
        rhs = la.intersect(la.orthocomplement(x), la.orthocomplement(y))
        assert lhs.same_space(rhs)


class TestCoBasis:
    """An orthocomplement is held as a co-basis: it answers `dim` and
    membership from the basis it complements and builds its own basis only
    when `basis` is read."""

    def test_membership_matches_the_built_basis(self, rng, monkeypatch):
        cases = []
        for _ in range(25):
            d = int(rng.integers(2, 12))
            x = random_subspace(rng, d, int(rng.integers(0, d + 1)))
            u = random_unit_vector(rng, d)
            inside = u - projector(x) @ u
            cases.append((x, [u, inside, np.zeros(d)]))
        got = []
        with monkeypatch.context() as m:
            m.setattr(la, "_complement_basis", None)
            for x, vecs in cases:
                comp = la.orthocomplement(x)
                got.append((comp.dim, [la.contains(comp, v) for v in vecs]))
        for (x, vecs), (dim, member) in zip(cases, got):
            built = la.Subspace(la.orthocomplement(x).basis)
            assert dim == built.dim == x.ambient_dim - x.dim
            assert member == [la.contains(built, v) for v in vecs]

    def test_meet_of_cobases_builds_no_basis(self, rng, monkeypatch):
        x, y = random_subspace(rng, 8, 2), random_subspace(rng, 8, 3)
        monkeypatch.setattr(la, "_complement_basis", None)
        meet = la.intersect(la.orthocomplement(x), la.orthocomplement(y))
        assert la.orthocomplement(meet).same_space(la.join([x, y]))
        assert la.contains(la.Subspace.full(8), random_unit_vector(rng, 8))


class TestIntersect:
    def test_idempotent(self, rng):
        x = random_subspace(rng, 6, 3)
        assert la.intersect(x, x).same_space(x)

    def test_orthogonal_lines(self):
        assert la.intersect(span(KET0), span(KET1)).dim == 0

    def test_containment_oracle(self):
        # span{|0>,|1>} contains |+>, so the meet is span{|+>}
        meet = la.intersect(la.Subspace.full(2), span(PLUS))
        assert meet.same_space(span(PLUS))

    def test_mismatch(self):
        with pytest.raises(DimensionMismatch):
            la.intersect(span(KET0), la.Subspace.full(4))

    def test_meet_contained_in_both(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 10))
            x = random_subspace(rng, d, int(rng.integers(1, d + 1)))
            y = random_subspace(rng, d, int(rng.integers(1, d + 1)))
            meet = la.intersect(x, y)
            assert la.contains(x, meet)
            assert la.contains(y, meet)


class TestContains:
    def test_plus_in_full(self):
        assert la.contains(la.Subspace.full(2), PLUS)

    def test_one_not_in_zero_span(self):
        assert not la.contains(span(KET0), KET1)

    def test_residual_just_outside_tolerance(self):
        eps = 10 * la.TOL_MEMBER
        v = KET0 + KET1 + eps * KET0
        v = v / np.linalg.norm(v)
        # oracle: residual after projecting onto |+> exceeds TOL_MEMBER
        residual = v - PLUS * np.vdot(PLUS, v)
        assert np.linalg.norm(residual) > la.TOL_MEMBER
        assert not la.contains(span(PLUS), v)

    def test_zero_vector_always_contained(self):
        assert la.contains(span(KET0), np.zeros(2))

    def test_subspace_argument(self, rng):
        big = random_subspace(rng, 8, 5)
        small = la.Subspace(big.basis[:, :2])
        assert la.contains(big, small)
        assert not la.contains(small, big)

    def test_mismatch(self):
        with pytest.raises(DimensionMismatch):
            la.contains(span(KET0), np.zeros(4))

    @pytest.mark.parametrize("width", [1, 2, 3, 5, 64])
    def test_each_matches_one_at_a_time(self, rng, monkeypatch, width):
        # chunks of `width` columns, which split the rank-2 and rank-3
        # bases; rank-0 subspaces are contained in everything
        d = 8
        monkeypatch.setattr(la, "CHUNK", width * d)
        x = random_subspace(rng, d, 3)
        subs = [random_subspace(rng, d, int(k))
                for k in rng.integers(0, 4, size=10)]
        subs += [la.Subspace(x.basis[:, :2]), la.Subspace.zero(d),
                 la.Subspace(x.basis[:, :1])]
        for target in (x, la.orthocomplement(x), la.Subspace.full(d),
                       la.Subspace.zero(d)):
            got = la.contains_each(target, subs)
            assert got.tolist() == [la.contains(target, s) for s in subs]
        assert la.contains_each(x, subs[-3:]).all()
        assert la.contains_each(x, []).tolist() == []
        with pytest.raises(DimensionMismatch):
            la.contains_each(x, [la.Subspace.zero(4)])


    def test_whole_space_contains_each_without_a_test(self, rng,
                                                      monkeypatch):
        # `true` denotes the co-basis of the zero subspace
        d = 8
        true = lg.eval_prop(lg.parse_formula("true").prop, {}, ambient_dim=d)
        subs = [random_subspace(rng, d, k) for k in (0, 1, 3, 8)]
        want = [la.contains(true, s) for s in subs]
        monkeypatch.setattr(la, "_contained", None)
        assert want == [True] * 4
        assert la.contains_each(true, subs).tolist() == want
        assert la.contains_each(la.Subspace.full(d), subs).tolist() == want
        with pytest.raises(DimensionMismatch):
            la.contains_each(true, subs + [la.Subspace.zero(4)])


class TestHeldColumns:
    def test_spectral_support_holds_a_read_only_block(self, rng):
        vecs = random_subspace(rng, 6, 6).basis.copy()
        for vals, cols in (([0.5, 0.3, 0.2, 1e-12, 0.0, 0.0], [0, 1, 2]),
                           ([0.0, 1e-12, 0.1, 0.2, 0.3, 0.4], [2, 3, 4, 5])):
            basis = la.spectral_support(vecs, np.array(vals)).basis
            assert np.shares_memory(basis, vecs)
            assert np.array_equal(basis, vecs[:, cols])
            assert not basis.flags.writeable and vecs.flags.writeable
        basis = la.spectral_support(vecs, np.array([1.0, 0, 1, 0, 0, 0])).basis
        assert np.array_equal(basis, vecs[:, [0, 2]])
        assert not basis.flags.writeable

    @pytest.mark.parametrize("d", [1, 4, 32, 256, 300])
    def test_one_block_hermiticity_matches_the_loop(self, rng, monkeypatch,
                                                    d):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = g + g.conj().T
        cases = [h, h + 1e-8 * np.eye(d) * 1j, h.copy()]
        cases[2][d // 2, 0] = np.nan
        want = [la.is_hermitian(a) for a in cases]
        monkeypatch.setattr(la, "BLOCK", 1)
        assert [la.is_hermitian(a) for a in cases] == want
        assert want == [True, False, False]


class TestProjector:
    def test_zero_subspace(self):
        assert np.abs(projector(la.Subspace.zero(3))).max() == 0.0

    def test_full_space(self):
        assert np.abs(projector(la.Subspace.full(3)) - np.eye(3)).max() \
            < 1e-12

    def test_plus_outer_product(self):
        expected = 0.5 * np.array([[1, 1], [1, 1]])
        assert np.abs(projector(span(PLUS)) - expected).max() < 1e-12

    @given(st.integers(0, 10_000), st.integers(1, 12))
    def test_idempotent_hermitian_trace(self, seed, d):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(0, d + 1))
        p = projector(random_subspace(rng, d, k))
        assert np.abs(p @ p - p).max() < la.TOL_ORTHO
        assert np.abs(p - p.conj().T).max() < la.TOL_ORTHO
        assert abs(np.trace(p).real - k) < 1e-9


class TestSchmidt:
    def test_product_state(self):
        terms = schmidt(np.kron(KET0, KET0), 2)
        assert len(terms) == 1
        coeff, left, right = terms[0]
        assert abs(coeff - 1.0) < 1e-12
        assert abs(abs(np.vdot(left, KET0)) - 1.0) < 1e-12
        assert abs(abs(np.vdot(right, KET0)) - 1.0) < 1e-12

    def test_maximally_entangled(self):
        bell = (np.kron(KET0, KET0) + np.kron(KET1, KET1))
        terms = schmidt(bell, 2)
        assert len(terms) == 2
        assert all(abs(c - 1.0) < 1e-12 for c, _, _ in terms)
        lefts = la.Subspace.span([t[1] for t in terms])
        assert lefts.dim == 2

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            schmidt(np.zeros(6), 2)

    def test_reconstruction(self, rng):
        for _ in range(200):
            d = int(rng.integers(2, 9))
            phi = random_unit_vector(rng, d * d)
            rebuilt = np.zeros(d * d, dtype=complex)
            for coeff, left, right in schmidt(phi, d):
                rebuilt += coeff * np.kron(left, right)
            assert np.abs(rebuilt - phi).max() < TOL_RECON


@pytest.mark.parametrize("basis", [
    [[np.nan], [0.0]], [[np.inf], [0.0]], [[np.inf, 0.0], [0.0, 1.0]],
    [[1e200], [0.0]]], ids=["nan", "inf", "inf-2", "overflow"])
def test_subspace_rejects_a_non_finite_gram(basis):
    # the Gram defect is NaN or inf, which `>` let through
    with pytest.raises(DimensionMismatch):
        la.Subspace(np.array(basis))


def test_subspace_rejects_non_orthonormal():
    with pytest.raises(DimensionMismatch):
        la.Subspace(np.array([[1.0], [1.0]]))


def test_span_of_dependent_vectors(rng):
    v = random_unit_vector(rng, 4)
    sub = la.Subspace.span([v, 2 * v, 1j * v])
    assert sub.dim == 1
