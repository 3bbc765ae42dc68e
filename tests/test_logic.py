import collections
import contextlib
import inspect
import math
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmc import checker, kets, qts
from qmc import linalg as la
from qmc import logic as lg
from qmc.errors import DimensionMismatch, ParseError, UnboundAtom
from qmc.kets import ket_string, parse_ket
from qmc.parsing import MAX_DEPTH, TokenStream, tokenize

from helpers import (random_state_formula, random_subspace, random_unit_vector,
                     regrouped_text)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

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
        assert out.dim == 1 and la.contains(out, KET1) \
            and not la.contains(out, PLUS)
        out = lg.eval_prop(lg.PTrue(), b, ambient_dim=2)
        assert out.dim == 2 and la.contains(out, PLUS)

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

    @settings(max_examples=300)
    @given(st.integers(0, 100_000))
    def test_extra_grouping_keeps_the_tree(self, seed):
        # parentheses around state subformulas and path formulas, also
        # the `(f) U g` whose group is not a path group
        rng = np.random.default_rng(seed)
        f = random_state_formula(rng, ["p", "q"],
                                 depth=int(rng.integers(0, 5)))
        text = regrouped_text(rng, f)
        assert lg.parse_formula(text) == \
            lg.parse_formula(lg.print_formula(f)) == f


@contextlib.contextmanager
def reads():
    """Each (stream, position) that TokenStream.next reads from, in order;
    the streams are held, so no two of them share an id."""
    seen = []
    original = TokenStream.next

    def recording_next(ts):
        seen.append((ts, ts.pos))
        return original(ts)

    TokenStream.next = recording_next
    try:
        yield seen
    finally:
        TokenStream.next = original


def nested_until(k):
    """f_0 = [a], f_{k+1} = E ((f_k) U [b]): every group after `E` holds
    the state formula that opens `f U g`."""
    text = "[a]"
    for _ in range(k):
        text = f"E (({text}) U [b])"
    return text


class TestOnePass:
    def test_no_token_is_read_twice(self):
        text = nested_until(8)
        with reads() as seen:
            lg.parse_formula(text)
        assert len(seen) == len(tokenize(text, lg._PUNCTS)) - 1 == 75

    def test_deep_groups_parse_and_refuse_at_once(self):
        f = lg.parse_formula(nested_until(20))
        assert lg.parse_formula(lg.print_formula(f)) == f
        text = "E " + "(E (" * 12 + "[a] U [b]" + "))" * 12
        with pytest.raises(ParseError, match="expected keyword 'U'"):
            lg.parse_formula(text)

    def test_ket_reads_grow_linearly_with_nesting(self, monkeypatch):
        # a group's `(` is told from a coefficient's by the few tokens
        # after it
        class CountingList(list):
            reads = 0

            def __getitem__(self, i):
                CountingList.reads += 1
                return super().__getitem__(i)

        monkeypatch.setattr(kets, "tokenize", lambda text, puncts:
                            CountingList(tokenize(text, puncts)))
        counts = []
        for k in (30, 60):
            CountingList.reads = 0
            assert np.array_equal(parse_ket("(" * k + "|0>" + ")" * k), KET0)
            counts.append(CountingList.reads)
        assert counts[1] <= 2.2 * counts[0], counts


L = MAX_DEPTH
# formula shapes: (text at the limit, text one level over it, the column
# the refusal points at); the tree's levels are counted after expansion,
# the text's nesting with each group of parentheses as one level
DEEP_SHAPES = {
    "not": ("!" * (L - 2) + "[z]", "!" * (L - 1) + "[z]", L),
    "parens": ("(" * (L - 2) + "[z]" + ")" * (L - 2),
               "(" * (L - 1) + "[z]" + ")" * (L - 1), L),
    "and-chain": (" && ".join(["[z]"] * (L - 1)),
                  " && ".join(["[z]"] * L), 7 * (L - 2) + 5),
    "complement": ("[" + "~" * (L - 2) + "z]", "[" + "~" * (L - 1) + "z]", L),
    "or-chain": ("[" + " | ".join(["z"] * (L - 1)) + "]",
                 "[" + " | ".join(["z"] * L) + "]", 4 * (L - 1)),
    "next": ("E X " * (L // 2 - 1) + "[z]", "E X " * (L // 2) + "[z]",
             2 * L - 1),
    # A G f is ! E (true U ! f): four levels above f
    "globally": ("A G " * ((L - 2) // 4) + "!" * ((L - 2) % 4) + "[z]",
                 "A G " * ((L - 2) // 4 + 1) + "[z]", 1),
}


def height(node):
    """Nodes on the longest path down a formula tree."""
    subs = [getattr(node, f) for f in ("sub", "left", "right", "path", "prop")
            if hasattr(node, f)]
    return 1 + max(map(height, subs), default=0)


class TestDepthLimit:
    @pytest.mark.parametrize("shape", DEEP_SHAPES)
    def test_at_the_limit_parses(self, shape):
        at, _, _ = DEEP_SHAPES[shape]
        f = lg.parse_formula(at)
        assert height(f) == (2 if shape == "parens" else MAX_DEPTH)
        assert lg.parse_formula(lg.print_formula(f)) == f

    @pytest.mark.parametrize("shape", DEEP_SHAPES)
    def test_one_level_over_is_refused_where_it_crosses(self, shape):
        _, over, column = DEEP_SHAPES[shape]
        with pytest.raises(ParseError) as info:
            lg.parse_formula(over)
        assert (info.value.line, info.value.column) == (1, column)
        assert f"nests deeper than {MAX_DEPTH} levels" in str(info.value)

    def test_refusal_is_not_taken_back_by_backtracking(self):
        # `E (X` opens a parenthesised path formula
        text = "E (X " + "!" * L + "[z])"
        with pytest.raises(ParseError, match="nests deeper"):
            lg.parse_formula(text)

    def test_every_pass_fits_in_half_the_default_stack(self):
        # parsing, printing, comparing and checking each shape at the
        # limit, and refusing 3000 levels of it, within 500 frames of the
        # caller's stack (Python's default limit is 1000)
        system = qts.parse_model(
            "qubits 1 locations l0 initial l0 transitions "
            "l0 -> l0 : gate X[1]")
        bindings = {"z": span(KET0)}
        texts = [at for at, _, _ in DEEP_SHAPES.values()]
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 500)
        try:
            for text in texts:
                f = lg.parse_formula(text)
                assert lg.parse_formula(lg.print_formula(f)) == f
                checker.check(system, pure(KET0), f, bindings, bound=4)
            doc = lg.parse_assertions(
                "\n".join(f'assert "a" : {t}' for t in texts))
            lg.serialize_assertions(lg.AssertionDoc(bindings, doc.assertions))
            for text in ("!" * 3000 + "[z]", "(" * 3000 + "[z]" + ")" * 3000,
                         "[" + "(" * 3000 + "z" + ")" * 3000 + "]"):
                with pytest.raises(ParseError, match="nests deeper"):
                    lg.parse_formula(text)
            with pytest.raises(ParseError, match="nests deeper"):
                parse_ket("(" * 3000 + "|0>" + ")" * 3000)
        finally:
            sys.setrecursionlimit(limit)

    def test_ket_groups_stop_at_the_limit(self):
        assert np.array_equal(
            parse_ket("(" * (L - 1) + "|0>" + ")" * (L - 1)), KET0)
        with pytest.raises(ParseError) as info:
            parse_ket("(" * L + "|0>" + ")" * L)
        assert (info.value.line, info.value.column) == (1, L)
        assert f"nests deeper than {MAX_DEPTH} levels" in str(info.value)


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


# number literals and their values; no zero, so every divisor is nonzero
KET_NUMBERS = [("0.5", 0.5), ("2", 2.0), ("3.", 3.0), ("1e-3", 1e-3),
               ("1.25e+1", 12.5)]
# what may stand between two tokens of a ket expression
KET_GAPS = ["", " ", "\t", "\n", "  # note\n"]


@st.composite
def ket_scalars(draw, paren_only=False):
    """(tokens, value) of a coefficient or divisor: a real or imaginary
    number, a bare `i`, or a parenthesised signed complex literal."""
    text, value = draw(st.sampled_from(KET_NUMBERS))
    kind = "paren" if paren_only else \
        draw(st.sampled_from(["real", "imag", "i", "paren"]))
    if kind == "real":
        return [text], complex(value)
    if kind == "imag":
        return [text + "i"], 1j * value
    if kind == "i":
        return ["i"], 1j
    sign = draw(st.sampled_from(["", "+", "-"]))
    op = draw(st.sampled_from("+-"))
    imag_text, imag = draw(st.sampled_from(
        [("i", 1.0)] + [(t + "i", v) for t, v in KET_NUMBERS]))
    toks = ["("] + ([sign] if sign else []) + [text, op, imag_text, ")"]
    return toks, complex(-value if sign == "-" else value,
                         -imag if op == "-" else imag)


@st.composite
def ket_expressions(draw, n, depth=0):
    """(tokens, vector) of a sum of terms over n-bit kets: each term a
    factor, optionally coefficient times (`*` or adjacency) a ket or a
    nested group, divided by `sqrtN` or a scalar."""
    toks = []
    vec = np.zeros(2 ** n, dtype=complex)
    for j in range(draw(st.integers(1, 3))):
        sign = draw(st.sampled_from(["", "+", "-"] if j == 0 else ["+", "-"]))
        toks += [sign] if sign else []
        coef = 1.0
        if draw(st.booleans()):
            ctoks, coef = draw(ket_scalars())
            toks += ctoks + (["*"] if draw(st.booleans()) else [])
        if depth < 3 and draw(st.booleans()):
            gtoks, term = draw(ket_expressions(n, depth + 1))
            toks += ["("] + gtoks + [")"]
        else:
            bits = draw(st.text("01", min_size=n, max_size=n))
            toks.append(f"|{bits}>")
            term = np.zeros(2 ** n, dtype=complex)
            term[sum(int(b) << k for k, b in enumerate(bits))] = 1.0
        term = coef * term
        for _ in range(draw(st.integers(0, 2))):
            if draw(st.booleans()):
                text, value = draw(st.sampled_from(KET_NUMBERS))
                toks += ["/", "sqrt", text]
                term = term / math.sqrt(value)
            else:
                dtoks, divisor = draw(ket_scalars())
                toks += ["/"] + dtoks
                term = term / divisor
        vec = vec - term if sign == "-" else vec + term
    return toks, vec


class TestKetGrammar:
    @settings(max_examples=300)
    @given(st.integers(1, 3).flatmap(ket_expressions), st.data())
    def test_parse_ket_gives_the_denoted_vector(self, expr, data):
        toks, want = expr
        text = "".join(tok + data.draw(st.sampled_from(KET_GAPS))
                       for tok in toks)
        got = parse_ket(data.draw(st.sampled_from(KET_GAPS)) + text)
        scale = max(1.0, float(np.abs(want).max()))
        assert np.abs(got - want).max() <= 1e-12 * scale, text

    def test_comments_and_newlines_between_tokens(self):
        text = "(|00>  # the first\n + |11>)\n/ sqrt 2  # normalised\n"
        assert np.array_equal(parse_ket(text),
                              parse_ket("(|00> + |11>)/sqrt2"))


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

    # the tokens the fuzz below inserts, besides each fixture's own
    EXTRA = ("E", "A", "X", "F", "G", "U", "true", "false", "let", "assert",
             "span", "matrix", '"|0>"', "0", "1.5", "x")

    @settings(max_examples=300)
    @given(st.sampled_from(sorted(FIXTURES.glob("*.ctql"))), st.data())
    def test_mutated_fixtures_are_read_once_or_refused(self, path, data):
        words = [t.text for t in tokenize(path.read_text(), lg._PUNCTS)[:-1]]
        pool = sorted(set(words) | set(lg._PUNCTS) | set(self.EXTRA))
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
        with reads() as seen:
            try:
                lg.parse_assertions(" ".join(words))
            except ParseError:
                pass
        counts = collections.Counter((id(ts), pos) for ts, pos in seen)
        assert max(counts.values(), default=1) == 1
