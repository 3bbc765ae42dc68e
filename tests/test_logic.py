import numpy as np
import pytest
from hypothesis import given, strategies as st

from qmc import linalg as la
from qmc import logic as lg
from qmc.errors import DimensionMismatch, ParseError, UnboundAtom
from qmc.kets import ket_string, parse_ket

from helpers import random_state_formula, random_subspace, random_unit_vector

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)


def pure(v):
    return np.outer(v, v.conj())


def span(*vs):
    return la.Subspace.span(vs)


class TestEvalProp:
    def test_not_of_full_is_zero(self):
        out = lg.eval_prop(lg.NotQ(lg.PTrue()), {}, ambient_dim=4)
        assert out.dim == 0

    def test_or_of_axes_is_full(self):
        b = {"z": span(KET0), "o": span(KET1)}
        out = lg.eval_prop(lg.OrQ(lg.Atom("z"), lg.Atom("o")), b)
        assert out.dim == 2

    def test_and_with_complement(self):
        # lattice oracle: full meet ~span{|0>} = span{|1>}
        b = {"z": span(KET0)}
        out = lg.eval_prop(lg.AndQ(lg.PTrue(), lg.NotQ(lg.Atom("z"))), b)
        assert out.same_space(span(KET1))

    def test_unbound_atom(self):
        with pytest.raises(UnboundAtom):
            lg.eval_prop(lg.Atom("ghost"), {})

    def test_dim_mismatch_across_atoms(self):
        b = {"a": span(KET0), "b": la.Subspace.full(4)}
        with pytest.raises(DimensionMismatch):
            lg.eval_prop(lg.AndQ(lg.Atom("a"), lg.Atom("b")), b)

    def test_complement_and_true_denote_cobases(self, monkeypatch):
        monkeypatch.setattr(la, "_complement_basis", None)
        b = {"z": span(KET0)}
        out = lg.eval_prop(lg.NotQ(lg.Atom("z")), b)
        assert out.dim == 1 and out.contains(KET1) and not out.contains(PLUS)
        out = lg.eval_prop(lg.PTrue(), b, ambient_dim=2)
        assert out.dim == 2 and out.contains(PLUS)

    def test_join_law_on_random_pairs(self, rng):
        # the denotation of a disjunction is the lattice join
        for _ in range(50):
            d = int(rng.integers(2, 17))
            x = random_subspace(rng, d, int(rng.integers(0, d + 1)))
            y = random_subspace(rng, d, int(rng.integers(0, d + 1)))
            b = {"x": x, "y": y}
            lhs = lg.eval_prop(lg.OrQ(lg.Atom("x"), lg.Atom("y")), b)
            assert lhs.same_space(la.join([x, y]))


class TestSatisfiesAtomic:
    def test_everything_satisfies_true(self, rng):
        rho = pure(random_unit_vector(rng, 4))
        assert lg.satisfies_atomic(rho, lg.PTrue(), {})

    def test_plus_fails_zero_span(self):
        assert not lg.satisfies_atomic(pure(PLUS), lg.Atom("z"),
                                       {"z": span(KET0)})

    def test_mixed_state_in_join(self):
        b = {"z": span(KET0), "o": span(KET1)}
        prop = lg.OrQ(lg.Atom("z"), lg.Atom("o"))
        assert lg.satisfies_atomic(np.eye(2) / 2, prop, b)

    def test_nonclassicality_witness(self):
        """A state can fail both a proposition and its orthocomplement:
        quantum negation is not classical negation."""
        b = {"z": span(KET0)}
        rho = pure(PLUS)
        assert not lg.satisfies_atomic(rho, lg.Atom("z"), b)
        assert not lg.satisfies_atomic(rho, lg.NotQ(lg.Atom("z")), b)

    def test_invariant_under_positive_scaling(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 9))
            rho = pure(random_unit_vector(rng, d))
            k = int(rng.integers(1, d + 1))
            b = {"s": random_subspace(rng, d, k)}
            base = lg.satisfies_atomic(rho, lg.Atom("s"), b)
            assert lg.satisfies_atomic(7.3 * rho, lg.Atom("s"), b) == base
            assert lg.satisfies_atomic(0.02 * rho, lg.Atom("s"), b) == base


class TestFormulaParser:
    def test_exists_until(self):
        f = lg.parse_formula("E (true U [psi3])")
        assert f == lg.Exists(lg.Until(lg.TRUE, lg.Prop(lg.Atom("psi3"))))

    def test_forall_next_with_prop_connectives(self):
        f = lg.parse_formula("A X [ ~p & q ]")
        assert f == lg.Forall(lg.Next(lg.Prop(
            lg.AndQ(lg.NotQ(lg.Atom("p")), lg.Atom("q")))))

    def test_two_negations_are_distinct(self):
        classical = lg.parse_formula("! [p]")
        quantum = lg.parse_formula("[ ~p ]")
        assert classical == lg.Not(lg.Prop(lg.Atom("p")))
        assert quantum == lg.Prop(lg.NotQ(lg.Atom("p")))
        assert classical != quantum

    def test_sugar_expansion(self):
        assert lg.parse_formula("E F [p]") == lg.Exists(
            lg.Until(lg.TRUE, lg.Prop(lg.Atom("p"))))
        assert lg.parse_formula("A G [p]") == lg.Not(lg.Exists(
            lg.Until(lg.TRUE, lg.Not(lg.Prop(lg.Atom("p"))))))
        assert lg.parse_formula("[p] -> [q]") == lg.Not(
            lg.And(lg.Prop(lg.Atom("p")), lg.Not(lg.Prop(lg.Atom("q")))))

    def test_conjunction_precedence(self):
        f = lg.parse_formula("! [p] && [q]")
        assert f == lg.And(lg.Not(lg.Prop(lg.Atom("p"))),
                           lg.Prop(lg.Atom("q")))

    def test_prop_precedence(self):
        f = lg.parse_formula("[a | b & ~c]")
        assert f == lg.Prop(lg.OrQ(lg.Atom("a"),
                                   lg.AndQ(lg.Atom("b"),
                                           lg.NotQ(lg.Atom("c")))))

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as info:
            lg.parse_formula("E (true U ]")
        assert info.value.line == 1

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            lg.parse_formula("[p] [q]")

    @given(st.integers(0, 100_000))
    def test_print_parse_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        f = random_state_formula(rng, ["p", "q", "r"],
                                 depth=int(rng.integers(0, 4)))
        assert lg.parse_formula(lg.print_formula(f)) == f

    def test_round_trip_corpus(self, rng):
        for _ in range(200):
            f = random_state_formula(rng, ["a", "b"],
                                     depth=int(rng.integers(0, 4)))
            assert lg.parse_formula(lg.print_formula(f)) == f


class TestKetStrings:
    def test_bell_normalisation(self):
        v = parse_ket("(|00> + |11>)/sqrt2")
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_little_endian_indexing(self):
        v = parse_ket("|01>")
        assert v[2] == 1.0 and np.abs(v).sum() == 1.0

    def test_complex_coefficients(self):
        v = parse_ket("(0.6+0.2i)|0> - 0.5i|1>")
        assert v[0] == pytest.approx(0.6 + 0.2j)
        assert v[1] == pytest.approx(-0.5j)

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ParseError):
            parse_ket("|0> + |01>")

    @pytest.mark.parametrize("text, column", [
        ("|0>/0", 5), ("|0>/sqrt0", 5), ("(|0> + |1>)/(0+0i)", 13)])
    def test_division_by_zero_is_a_parse_error(self, text, column):
        with pytest.raises(ParseError) as info:
            parse_ket(text)
        assert str(info.value) == f"1:{column}: division by zero"

    @pytest.mark.parametrize("text", ["1e308|0> + 1e308|0>", "|0>/1e-320",
                                      "1e200(1e200|0>)"])
    def test_overflowing_amplitude_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match="ket amplitude overflows"):
            parse_ket(text)

    def test_round_trip_full_precision(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 4))
            v = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
            assert np.abs(parse_ket(ket_string(v)) - v).max() < 1e-15


class TestAssertionFiles:
    DOC = """
# subspaces first
let zero = span { "|0>" }
let diag = span { "(|0>+|1>)/sqrt2" }
let both = matrix [[1, 0], [0, 1]]

assert "safety" : A G [zero | diag]
assert "reach"  : E (true U [diag])
"""

    def test_parse(self):
        doc = lg.parse_assertions(self.DOC)
        assert set(doc.bindings) == {"zero", "diag", "both"}
        assert doc.bindings["both"].dim == 2
        assert [a.label for a in doc.assertions] == ["safety", "reach"]

    def test_serialize_round_trip(self):
        doc = lg.parse_assertions(self.DOC)
        text = lg.serialize_assertions(doc)
        again = lg.parse_assertions(text)
        assert [a.formula for a in again.assertions] == \
            [a.formula for a in doc.assertions]
        assert [a.label for a in again.assertions] == \
            [a.label for a in doc.assertions]
        for name, sub in doc.bindings.items():
            assert again.bindings[name].same_space(sub)
        # serialization is canonical, so a second pass is byte-identical
        assert lg.serialize_assertions(again) == text

    def test_reserved_names_rejected(self):
        with pytest.raises(ParseError):
            lg.parse_assertions('let true = span { "|0>" }')

    def test_span_dim_consistency(self):
        with pytest.raises(ParseError):
            lg.parse_assertions('let x = span { "|0>", "|00>" }')

    def test_bad_ket_flagged_with_position(self):
        with pytest.raises(ParseError):
            lg.parse_assertions('let x = span { "|02>" }')

    def test_statement_required(self):
        with pytest.raises(ParseError):
            lg.parse_assertions("banana")
