import numpy as np
import pytest

from qmc import channel as ch
from qmc import qts
from qmc.errors import (BadParameter, DimensionMismatch,
                        NormalisationViolation, RepeatedQubit,
                        TargetOutOfRange, UnknownGate)

from helpers import random_channel, random_density, random_unit_vector

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)


def pure(v):
    return np.outer(v, v.conj())


class TestApply:
    def test_identity_channel(self, rng):
        rho = random_density(rng, 4)
        e = ch.SuperOperator.identity(2)
        assert np.abs(ch.apply(e, rho) - rho).max() < 1e-12

    def test_bit_flip_p0_flips(self):
        # at p=0 the flip always happens
        e = ch.noise_library("bit_flip", 0.0)
        assert np.abs(ch.apply(e, pure(KET0)) - pure(KET1)).max() < 1e-12

    def test_phase_flip_half_depolarises_plus(self):
        # direct 2x2 oracle: 0.5|+X+| + 0.5 Z|+X+|Z = I/2
        e = ch.noise_library("phase_flip", 0.5)
        expected = 0.5 * pure(PLUS) + \
            0.5 * ch.PAULI_Z @ pure(PLUS) @ ch.PAULI_Z
        assert np.abs(expected - np.eye(2) / 2).max() < 1e-12
        assert np.abs(ch.apply(e, pure(PLUS)) - np.eye(2) / 2).max() < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ch.apply(ch.SuperOperator.identity(1), np.eye(4))

    def test_trace_preserved(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 4))
            e = random_channel(rng, n, n_kraus=int(rng.integers(1, 4)))
            rho = random_density(rng, 2 ** n)
            out = ch.apply(e, rho)
            assert abs(np.trace(out).real - 1.0) < 1e-9

    def test_output_stays_psd(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 3))
            e = random_channel(rng, n)
            rho = random_density(rng, 2 ** n,
                                 rank=int(rng.integers(1, 2 ** n + 1)))
            assert np.linalg.eigvalsh(ch.apply(e, rho)).min() > -1e-9


class TestMatrixRep:
    def test_unitary_channel(self, rng):
        u = ch.HADAMARD
        m = ch.matrix_rep(ch.SuperOperator.unitary(u))
        assert np.abs(m - np.kron(u, u.conj())).max() < 1e-12

    def test_bit_flip_p1_is_identity(self):
        m = ch.matrix_rep(ch.noise_library("bit_flip", 1.0))
        assert np.abs(m - np.eye(4)).max() < 1e-12

    def test_bit_flip_half(self):
        # Kronecker-sum oracle from the Kraus set {sqrt(p) I, sqrt(1-p) X}
        m = ch.matrix_rep(ch.noise_library("bit_flip", 0.5))
        expected = 0.5 * (np.kron(np.eye(2), np.eye(2)) +
                          np.kron(ch.PAULI_X, ch.PAULI_X))
        assert np.abs(m - expected).max() < 1e-12


class TestComposeSequential:
    def test_identity_is_neutral(self, rng):
        e = random_channel(rng, 1)
        composed = ch.compose_sequential(e, ch.SuperOperator.identity(1))
        assert np.abs(ch.matrix_rep(composed) - ch.matrix_rep(e)).max() \
            < 1e-12

    def test_hadamard_squares_to_identity(self):
        h = ch.gate_library("H")
        hh = ch.compose_sequential(h, h)
        assert np.abs(ch.matrix_rep(hh) - np.eye(4)).max() < 1e-12

    def test_matrix_identity(self, rng):
        for _ in range(100):
            e = random_channel(rng, 1, n_kraus=2)
            f = random_channel(rng, 1, n_kraus=2)
            lhs = ch.matrix_rep(ch.compose_sequential(e, f))
            rhs = ch.matrix_rep(f) @ ch.matrix_rep(e)
            assert np.abs(lhs - rhs).max() < 1e-10

    def test_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            ch.compose_sequential(random_channel(rng, 1),
                                  random_channel(rng, 2))


class TestComposeParallel:
    def test_action_factorizes(self, rng):
        for _ in range(40):
            ne, nf = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            e = random_channel(rng, ne, n_kraus=2)
            f = random_channel(rng, nf, n_kraus=2)
            rho_a = random_density(rng, 2 ** ne)
            rho_b = random_density(rng, 2 ** nf)
            lhs = ch.apply(ch.compose_parallel(e, f), np.kron(rho_b, rho_a))
            rhs = np.kron(ch.apply(f, rho_b), ch.apply(e, rho_a))
            assert np.abs(lhs - rhs).max() < 1e-10

    def test_x_and_z_on_00(self):
        # X on qubit 1, Z on qubit 2: |00> goes to |10>, i.e. index 1
        par = ch.compose_parallel(ch.gate_library("X"), ch.gate_library("Z"))
        out = ch.apply(par, pure(np.kron(KET0, KET0)))
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 1] = 1.0
        assert np.abs(out - expected).max() < 1e-12

    def test_matrix_rep_is_permuted_kron(self, rng):
        """The parallel composite's matrix equals kron(M_f, M_e) after
        regrouping the doubled-space axes from (f, f*, e, e*) to
        (f, e, f*, e*); this is the composition identity under the package
        vectorization convention."""
        for _ in range(20):
            e = random_channel(rng, 1, n_kraus=2)
            f = random_channel(rng, 1, n_kraus=2)
            de, df = e.dim, f.dim
            m_par = ch.matrix_rep(ch.compose_parallel(e, f))
            kron = np.kron(ch.matrix_rep(f), ch.matrix_rep(e))
            d2 = de * df
            regrouped = kron.reshape(df, df, de, de, df, df, de, de) \
                .transpose(0, 2, 1, 3, 4, 6, 5, 7) \
                .reshape(d2 * d2, d2 * d2)
            assert np.abs(m_par - regrouped).max() < 1e-10
            # and the literal unpermuted form differs in general
            if np.abs(m_par - kron).max() > 1e-6:
                break
        else:
            pytest.fail("permutation never mattered across 20 samples")


class TestEmbed:
    def test_single_qubit_identity_width(self):
        e = ch.embed(ch.gate_library("H"), [1], 1)
        assert np.abs(e.kraus[0] - ch.HADAMARD).max() < 1e-12

    def test_x_on_second_qubit(self):
        e = ch.embed(ch.gate_library("X"), [2], 2)
        out = ch.apply(e, pure(np.kron(KET0, KET0)))
        # |00> -> |01>, whose little-endian index is 2
        expected = np.zeros((4, 4), dtype=complex)
        expected[2, 2] = 1.0
        assert np.abs(out - expected).max() < 1e-12

    def test_embed_against_permutation_oracle(self, rng):
        # dense oracle: conjugate kron(I, U) by the wire permutation matrix
        u = ch.gate_on_qubits("CX", [1, 2], 2).kraus[0]
        emb = ch.expand_operator(u, [3, 1], 3)
        perm = np.zeros((8, 8))
        for b in range(8):
            bits = [(b >> i) & 1 for i in range(3)]
            # wire 1 -> qubit 3, wire 2 -> qubit 1, wire 3 -> qubit 2
            y = bits[0] * 4 + bits[1] * 1 + bits[2] * 2
            perm[y, b] = 1.0
        expected = perm @ np.kron(np.eye(2), u) @ perm.T
        assert np.abs(emb - expected).max() < 1e-12
        # a transition keeps u (control wire 1, target wire 2) on its
        # targets and lifts it on demand
        for t in (qts.kraus_edge("a", "b", [u], [3, 1], 3),
                  qts.gate_edge("a", "b", "CX", [3, 1], 3)):
            lifted = ch.embed(t.local, t.targets, 3).kraus
            assert len(t.op.kraus) == len(lifted) == 1
            assert np.array_equal(t.op.kraus[0], lifted[0])
            assert np.abs(t.op.kraus[0] - expected).max() < 1e-12

    def test_target_order_matters(self):
        a = ch.embed(ch.gate_library("CX"), [1, 2], 3)
        b = ch.embed(ch.gate_library("CX"), [2, 1], 3)
        # |01 0>: qubit 2 set, little-endian index 2
        v = np.zeros(8, dtype=complex)
        v[2] = 1.0
        assert np.abs(ch.apply(a, pure(v)) - ch.apply(b, pure(v))).max() > 0.5

    def test_repeated_qubit(self):
        with pytest.raises(RepeatedQubit):
            ch.embed(ch.gate_library("CX"), [1, 1], 2)

    def test_target_out_of_range(self):
        with pytest.raises(TargetOutOfRange):
            ch.embed(ch.gate_library("X"), [3], 2)

    def test_arity_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ch.embed(ch.gate_library("CX"), [1], 2)


class TestMeasure:
    def test_plus_splits_evenly(self):
        m = ch.computational_measurement(1)
        results = ch.measure(m, pure(PLUS))
        assert [r[0] for r in results] == [0, 1]
        for _, p, post in results:
            assert abs(p - 0.5) < 1e-12
            assert abs(np.trace(post).real - 1.0) < 1e-12

    def test_zero_gives_certain_outcome(self):
        results = ch.measure(ch.computational_measurement(1), pure(KET0))
        assert len(results) == 1
        assert results[0][0] == 0
        assert abs(results[0][1] - 1.0) < 1e-12

    def test_diagonal_probabilities(self):
        # trace-formula oracle on a classical mixture
        rho = np.diag([0.3, 0.7]).astype(complex)
        results = ch.measure(ch.computational_measurement(1), rho)
        assert abs(results[0][1] - 0.3) < 1e-12
        assert abs(results[1][1] - 0.7) < 1e-12

    def test_probabilities_sum_to_one(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 3))
            m = ch.computational_measurement(n)
            rho = random_density(rng, 2 ** n)
            total = sum(p for _, p, _ in ch.measure(m, rho))
            assert abs(total - 1.0) < 1e-9

    def test_branch_channels_sum_to_identity(self):
        m = ch.computational_measurement(2)
        total = sum(mat.conj().T @ mat for mat in m.branches.values())
        assert np.abs(total - np.eye(4)).max() < 1e-12


class TestVectorizeCheck:
    def test_identity_channel_on_identity(self):
        e = ch.SuperOperator.identity(1)
        lhs, rhs = ch.vectorize_check(e, np.eye(2))
        psi = ch.entangled_reference(2)
        # both sides reduce to (I (x) I)|Psi> = |Psi>
        assert np.abs(lhs - psi).max() < 1e-12
        assert np.abs(rhs - psi).max() < 1e-12

    def test_hadamard_on_projector(self):
        e = ch.gate_library("H")
        lhs, rhs = ch.vectorize_check(e, pure(KET0))
        direct = np.kron(ch.HADAMARD @ pure(KET0) @ ch.HADAMARD,
                         np.eye(2)) @ ch.entangled_reference(2)
        assert np.abs(lhs - direct).max() < 1e-12
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_random_channels(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 4))
            e = random_channel(rng, n, n_kraus=2)
            a = rng.normal(size=(e.dim, e.dim)) + \
                1j * rng.normal(size=(e.dim, e.dim))
            lhs, rhs = ch.vectorize_check(e, a)
            assert np.abs(lhs - rhs).max() < 1e-10

    def test_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ch.vectorize_check(ch.SuperOperator.identity(2), np.eye(2))


class TestLibraries:
    def test_hadamard_constant(self):
        expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert np.abs(ch.gate_matrix("H") - expected).max() < 1e-15

    def test_cnot_is_block_diagonal(self):
        expected = np.zeros((4, 4))
        expected[:2, :2] = np.eye(2)
        expected[2:, 2:] = ch.PAULI_X.real
        assert np.abs(ch.gate_matrix("CNOT") - expected).max() == 0.0
        assert np.abs(ch.gate_matrix("CX") - expected).max() == 0.0

    def test_y_equals_i_x_z(self):
        assert np.abs(ch.PAULI_Y - 1j * ch.PAULI_X @ ch.PAULI_Z).max() == 0.0

    def test_bit_phase_flip_kraus(self):
        e = ch.noise_library("bit_phase_flip", 0.25)
        assert np.abs(e.kraus[0] - 0.5 * np.eye(2)).max() < 1e-15
        assert np.abs(e.kraus[1] - np.sqrt(0.75) * ch.PAULI_Y).max() < 1e-15

    def test_rotation_gate(self):
        rz = ch.gate_matrix("RZ", np.pi)
        assert np.abs(rz - np.diag([-1j, 1j])).max() < 1e-12

    def test_unknown_gate(self):
        with pytest.raises(UnknownGate):
            ch.gate_library("WAT")

    def test_bad_probability(self):
        with pytest.raises(BadParameter):
            ch.noise_library("bit_flip", 1.5)

    def test_rotation_needs_angle(self):
        with pytest.raises(BadParameter):
            ch.gate_matrix("RX")

    @pytest.mark.parametrize("angle", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["RX", "RY", "RZ"])
    def test_rotation_refuses_a_non_finite_angle(self, name, angle):
        with pytest.raises(BadParameter, match="not finite"):
            ch.gate_matrix(name, angle)
        with pytest.raises(BadParameter):
            qts.gate_edge("a", "a", name, (1,), 1, (angle,))


class TestPartialTrace:
    def test_product_state_factors(self, rng):
        a = random_density(rng, 2)
        b = random_density(rng, 2)
        joint = np.kron(b, a)  # qubit 1 = a, qubit 2 = b
        assert np.abs(ch.partial_trace(joint, [1], 2) - a).max() < 1e-12
        assert np.abs(ch.partial_trace(joint, [2], 2) - b).max() < 1e-12

    def test_bell_reduces_to_mixed(self):
        bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        rho = pure(bell)
        assert np.abs(ch.partial_trace(rho, [1], 2) - np.eye(2) / 2).max() \
            < 1e-12

    def test_keep_everything(self, rng):
        rho = random_density(rng, 4)
        assert np.abs(ch.partial_trace(rho, [1, 2], 2) - rho).max() < 1e-12


def test_trace_class_validation(rng):
    with pytest.raises(DimensionMismatch):
        ch.SuperOperator(1, (2.0 * np.eye(2),), ch.TraceClass.PRESERVING)
    with pytest.raises(DimensionMismatch):
        ch.SuperOperator(1, (2.0 * np.eye(2),), ch.TraceClass.REDUCING)
    # a genuine branch operator is fine as trace-reducing
    p0 = np.diag([1.0, 0.0]).astype(complex)
    branch = ch.SuperOperator(1, (p0,), ch.TraceClass.REDUCING)
    assert branch.trace_class is ch.TraceClass.REDUCING


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan),
                                 complex(1, -np.inf)])
def test_non_finite_kraus_entry_refused(bad):
    k = np.array([[bad, 0], [0, 1]], dtype=complex)
    for trace_class in ch.TraceClass:
        with pytest.raises(NormalisationViolation, match="non-finite"):
            ch.SuperOperator(1, (k,), trace_class)
    with pytest.raises(NormalisationViolation):
        ch.SuperOperator.from_kraus([k])
    with pytest.raises(NormalisationViolation):
        qts.kraus_edge("a", "a", [k], (1,), 1)
