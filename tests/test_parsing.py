"""The one-pass scanner and the index-walking literal parsers against the
character-loop lexer and cursor parsers they replaced (`tests/helpers.py`):
the same tokens, values, positions and errors on every text."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmc import kets, logic, parsing, qts
from qmc.errors import ParseError
from qmc.parsing import (EOF, IDENT, KET, MATRIX, NUMBER, PUNCT, Token,
                         TokenStream, tokenize)

from helpers import (reference_parse_complex, reference_parse_matrix,
                     reference_tokenize, token_key)

INIT_PUNCTS = ["[", "]", ",", "+", "-"]
ALPHABETS = {"qts": qts._PUNCTS, "ctql": logic._PUNCTS, "init": INIT_PUNCTS}

# pieces whose concatenations reach every branch of both lexers
FRAGMENTS = [
    " ", "\t", "\n", "\r", "\r\n", "#", "# note", "#x\n", '"', '"ab"',
    '"a\nb"', '""', '"|0>"', "0", "7", "12", "1.", "3.25", "2.5e-3i",
    "1e5", "1e", "E+", "e", "i", "-i", "a-bi", "1+2i", "->", "-", "+", ">",
    "x", "_a1", "let", "[", "]", ",", ";", ":", "=", "(", ")", "{", "}",
    "&&", "&", "|", "~", "!", ".", "<", "\x0b", "é", "٣",
]

def outcome(lex, text, puncts):
    try:
        return [token_key(t) for t in lex(text, puncts)]
    except ParseError as exc:
        return ("error", str(exc))


texts = st.one_of(
    st.lists(st.sampled_from(FRAGMENTS), max_size=24).map("".join),
    st.text(alphabet=st.sampled_from("".join(FRAGMENTS)), max_size=40))


class TestScanner:
    @settings(max_examples=400)
    @given(texts)
    def test_matches_the_character_loop(self, text):
        for puncts in ALPHABETS.values():
            assert outcome(tokenize, text, puncts) == \
                outcome(reference_tokenize, text, puncts), repr(text)

    @pytest.mark.parametrize("text", [
        "", "   ", "a # trailing", "a\n# last line", "a\r\nb\r\n", "\tx\t",
        '"open', '"two\nlines"', 'x "ok" "', "1.", "2.5e-3i", "-i", "a-bi",
        "a->b - c", "-->", "1.i", "1e+5", "1e+", "٣.٥", "x\x0by", "é",
        "[[1, -0.5+2i], [-i, 3]]  # comment",
    ])
    @pytest.mark.parametrize("alphabet", sorted(ALPHABETS))
    def test_named_cases(self, text, alphabet):
        puncts = ALPHABETS[alphabet]
        assert outcome(tokenize, text, puncts) == \
            outcome(reference_tokenize, text, puncts)

    def test_eof_after_a_trailing_comment_sits_at_the_comment(self):
        eof = tokenize("qubits 1  # end", qts._PUNCTS)[-1]
        assert (eof.kind, eof.line, eof.column) == ("EOF", 1, 11)
        eof = tokenize("qubits 1  # end\n  ", qts._PUNCTS)[-1]
        assert (eof.line, eof.column) == (2, 3)

    def test_int_and_float_literals_keep_their_types(self):
        values = [t.value for t in tokenize("7 7. 7e0 7.5 7i", [])]
        assert [type(v) for v in values[:-1]] == [int, float, float, float,
                                                  float]
        assert values[:-1] == [7, 7.0, 7.0, 7.5, 7.0]

    def test_token_is_a_positional_named_tuple(self):
        tok = Token(NUMBER, "3", 3, 2, 5)
        assert tuple(tok) == (NUMBER, "3", 3, 2, 5)
        assert (tok.kind, tok.text, tok.value, tok.line, tok.column) == \
            (NUMBER, "3", 3, 2, 5)
        assert tok.is_int
        assert not Token(NUMBER, "3.", 3.0, 2, 5).is_int
        assert tokenize("3", [])[0] == tok._replace(line=1, column=1)


class TestKetAlphabet:
    """Only the ket alphabet, `parsing._KET_PUNCTS`, lexes `|bits>` as one KET
    token and `sqrt` as punctuation; the model and assertion alphabets
    hold only symbols, so they lex as they did without it."""

    @settings(max_examples=300)
    @given(st.lists(st.sampled_from(FRAGMENTS + ["|01>", "|0>", "sqrt2",
                                                 "sqrt", "|1", "0>"]),
                    max_size=16).map("".join))
    def test_other_alphabets_lex_no_ket(self, text):
        for name in ("qts", "ctql"):
            try:
                kinds = {t.kind for t in tokenize(text, ALPHABETS[name])}
            except ParseError:
                continue
            assert KET not in kinds, (name, text)

    @pytest.mark.parametrize("name", ["qts", "ctql"])
    def test_sqrt2_is_an_identifier_elsewhere(self, name):
        toks = tokenize("sqrt2 sqrt", ALPHABETS[name])
        assert [(t.kind, t.text) for t in toks] == \
            [(IDENT, "sqrt2"), (IDENT, "sqrt"), (EOF, "")]

    def test_ket_alphabet_tokens(self):
        toks = tokenize("|01>/sqrt2 # c\n + sqrtx i",
                        parsing._KET_PUNCTS)
        assert [(t.kind, t.text, t.value, t.line, t.column)
                for t in toks] == [
            (KET, "|01>", "01", 1, 1), (PUNCT, "/", "/", 1, 5),
            (PUNCT, "sqrt", "sqrt", 1, 6), (NUMBER, "2", 2, 1, 10),
            (PUNCT, "+", "+", 2, 2), (PUNCT, "sqrt", "sqrt", 2, 4),
            (IDENT, "x", "x", 2, 8), (IDENT, "i", "i", 2, 10),
            (EOF, "", None, 2, 11)]


class TestOutOfRangeLiterals:
    @pytest.mark.parametrize("text, column", [
        ("1e400", 1), ("x 2.5e309i", 3), ("[[0, " + "9" * 400 + "]]", 6),
        ("1" * 5000, 1),
    ], ids=["exponent", "imaginary", "400-digit-int", "5000-digit-int"])
    def test_scanner_refuses_a_non_finite_literal(self, text, column):
        with pytest.raises(ParseError) as info:
            tokenize(text, INIT_PUNCTS)
        assert str(info.value) == f"1:{column}: number literal out of range"

    def test_largest_finite_literal_and_underflow_are_kept(self):
        toks = tokenize("1.7976931348623157e308 1e-400", [])
        assert toks[0].value == 1.7976931348623157e308
        assert toks[1].value == 0.0

    @pytest.mark.parametrize("text, column", [
        ("1e400|0> + |1>", 1), ("|0> - 2e999i|1>", 7),
        ("|0>/sqrt1e400", 9)])
    def test_ket_lexer_refuses_a_non_finite_literal(self, text, column):
        with pytest.raises(ParseError) as info:
            kets.parse_ket(text)
        assert str(info.value) == f"1:{column}: number literal out of range"


ENTRIES = ["0", "1", "-1", "+2", "0.5", "-0", "-0.0", "i", "-i", "+i", "2i",
           "-2.5e-3i", "1+i", "1-i", "0.5-0.25i", "-0-0i", "+0+0i", "1+2",
           "3 -4i", "1.", "1e-3-1e2i", "i+i", "-i-i", "0i", "", "+", "-",
           "a", "[", "]", ";"]


# entries the literal reader must read as the token parse does: signs
# apart from their numbers, exponents, leading zeros, signed zeros, joined
# parts, and values at the ends of the float range
SPACED = ["- 2", "3 -4i", "+ i", "- 0", "1 + 2i", "-0 - 0i", "-0+0i", "1-0i",
          "-0i", "2.5E-3i", "1.e2", "1e+5", "007", "1e-400", "0.1", "1.5i",
          "1.7976931348623157e308", "4.9e-324", "12345678901234567890",
          "2.2250738585072014e-308i", "0.30000000000000004-7.1e-15i"]
SEPARATORS = ["", " ", "\n", "\t", "\r\n", "  # note\n", "# [x], -1\n",
              " \n  ", "#]]\n"]
PUNCTS = INIT_PUNCTS + [";", "."]


def parse_outcome(parse, text):
    """`parse` on the whole token list: its value and the index after it."""
    ts = TokenStream(tokenize(text, PUNCTS))
    try:
        value = parse(ts)
    except ParseError as exc:
        return ("error", str(exc), ts.pos)
    return repr(value), ts.pos  # repr tells -0.0 from 0.0


def matrix_outcome(text):
    """`parsing.parse_matrix` on the tokens of `text`: its entries, as the
    repr of nested lists of Python complex, and the token after it."""
    def parse(ts):
        mat = parsing.parse_matrix(ts)
        assert mat.dtype == complex and mat.ndim == 2
        return repr(mat.tolist()), token_key(ts.peek())
    try:
        return parsing.parse_text(text, PUNCTS, parse)
    except ParseError as exc:
        return ("error", str(exc))


def reference_matrix_outcome(text):
    """The cursor parser on the character loop's tokens, in the same
    form."""
    try:
        ts = TokenStream(reference_tokenize(text, PUNCTS))
        rows = reference_parse_matrix(ts)
    except ParseError as exc:
        return ("error", str(exc))
    return repr(np.array(rows, dtype=complex).tolist()), token_key(ts.peek())


def square_rows(low, high):
    """Square lists of entries, mostly ones the cursor parser reads."""
    return st.integers(low, high).flatmap(lambda n: st.lists(
        st.lists(st.sampled_from(SPACED + ENTRIES[:20]), min_size=n,
                 max_size=n), min_size=n, max_size=n))


def literal_text(rows, seps):
    """`rows` as a literal with seps[k] before its k-th token."""
    pieces = ["["]
    for k, row in enumerate(rows):
        pieces += [","] * (k > 0) + ["["]
        for j, entry in enumerate(row):
            pieces += [","] * (j > 0) + [entry]
        pieces.append("]")
    pieces.append("]")
    return "".join(seps[k % len(seps)] + p for k, p in enumerate(pieces))


class TestLiteralParsers:
    @settings(max_examples=300)
    @given(st.lists(st.lists(st.sampled_from(ENTRIES), min_size=1,
                             max_size=3), min_size=1, max_size=3),
           st.sampled_from(["", " ]", ", [1]]", " junk", ";"]))
    def test_matrix_matches_the_cursor_parser(self, rows, tail):
        text = "[" + ", ".join("[" + ", ".join(r) + "]" for r in rows) + \
            "]" + tail
        assert matrix_outcome(text) == reference_matrix_outcome(text), text

    @settings(max_examples=300)
    @given(square_rows(1, 7), st.lists(st.sampled_from(SEPARATORS),
                                       min_size=1, max_size=8),
           st.sampled_from(["", "\n ;", " # end", "\n\n  x", "]"]))
    def test_multiline_literals_match_the_cursor_parser(self, rows, seps,
                                                        tail):
        text = literal_text(rows, seps) + tail
        assert matrix_outcome(text) == reference_matrix_outcome(text), text

    @settings(max_examples=400)
    @given(square_rows(1, 4), st.lists(st.sampled_from(SEPARATORS),
                                       min_size=1, max_size=8),
           st.sampled_from(["", "x", "]", ",", "-", "i", "e5", "#]"]),
           st.integers(0, 400))
    def test_the_literal_reader_matches_the_cursor_parser(self, rows, seps,
                                                          junk, at):
        # the reader on its own, below the size where a stream uses it:
        # it reads every literal the cursor parser reads here to the same
        # value, and refuses every literal that parser refuses
        text = literal_text(rows, [""] + seps)
        at = 1 + at % len(text)
        text = text[:at] + junk + text[at:]
        lit = text[:parsing._literal_end(text, 0)]
        read = parsing._literal_array(lit)
        ref = reference_matrix_outcome(lit)
        if read is None:
            assert ref[0] == "error", lit
        else:
            assert ref[0] == repr(read.tolist()), lit

    @settings(max_examples=200)
    @given(st.lists(st.sampled_from(ENTRIES + [" ", ","]), max_size=5)
           .map("".join))
    def test_complex_matches_the_cursor_parser(self, text):
        def read(ts):
            z, ts.pos = parsing._complex_at(ts, ts.pos)
            return z

        assert parse_outcome(read, text) == \
            parse_outcome(reference_parse_complex, text), text

    def test_signed_and_complex_entries(self):
        text = "[[-1, +0.5-0.25i], [-i, 2e-1+i]]"
        mat = parsing.parse_text(text, INIT_PUNCTS, parsing.parse_matrix)
        assert mat.dtype == complex and mat.shape == (2, 2)
        assert mat.tolist() == [[-1 + 0j, 0.5 - 0.25j], [-1j, 0.2 + 1j]]

    @pytest.mark.parametrize("entry, value", [
        ("-0", complex(-0.0, 0.0)), ("-0i", complex(0.0, -0.0)),
        ("1-0i", complex(1.0, 0.0)), ("-0-0i", complex(0.0, 0.0)),
        ("-0+0i", complex(0.0, 0.0)), ("- 0 - i", complex(0.0, -1.0)),
        ("i+i", complex(0.0, 2.0)), ("-i-i", complex(0.0, -2.0)),
        ("1e-400", complex(0.0, 0.0)), ("1.e2-2.5E-3i", 100 - 0.0025j)])
    def test_signed_zeros_and_joined_parts(self, entry, value):
        mat = parsing.parse_text(f"[[{entry}]]", INIT_PUNCTS,
                                 parsing.parse_matrix)
        assert repr(mat[0, 0].item()) == repr(value)
        assert matrix_outcome(f"[[{entry}]]") == \
            reference_matrix_outcome(f"[[{entry}]]")


# rho = |psi><psi| for psi = (1, i, -1, -i, 1, i, -1, -i)/sqrt(8), whose
# entry (j, k) is i^(j - k)/8, over fifteen lines, with comments holding
# brackets and a space after some signs: a density matrix, and a projector
# that the Kraus set {rho, I - rho} can hold
_PHASE = ["0.125", "0.125i", "-0.125", "- 0.125i"]
_NEGATED = ["-0.125", "-0.125i", "0.125", "0.125i"]


def _row(j):
    return [_PHASE[(j - k) % 4] for k in range(8)]


RHO = ("[[" + ", ".join(_row(0)) + "],  # row 0 ]]\n"
       "  # [[not a row]]\n"
       + ",\n".join(" [" + ", ".join(_row(j)[:4]) + ",\n   "
                    + ", ".join(_row(j)[4:]) + "]" for j in range(1, 8))
       + "]")
COMPLEMENT = "[" + ", ".join(
    "[" + ", ".join("0.875" if j == k else _NEGATED[(j - k) % 4]
                    for k in range(8)) + "]" for j in range(8)) + "]"
MODEL = ("qubits 3\nlocations l0\ninitial l0\ntransitions\n"
         "  l0 -> l0 : kraus { " + RHO + " ;\n"
         "  " + COMPLEMENT + " }[1, 2, 3]\n")


class TestMatrixReader:
    """The literal reader through each caller, against the token parse."""

    def test_fixture_is_a_density_matrix_and_a_kraus_projector(self):
        ref = np.array(reference_parse_matrix(TokenStream(
            reference_tokenize(RHO, PUNCTS))), dtype=complex)
        psi = np.array([1, 1j, -1, -1j] * 2) / np.sqrt(8)
        assert np.allclose(ref, np.outer(psi, psi.conj()))
        assert RHO.count("\n") == 15 and RHO.count(",") >= 63
        assert len(qts.parse_model(MODEL).transitions) == 1

    def test_a_literal_makes_one_token(self):
        toks = tokenize(RHO + "\n ;", PUNCTS)
        assert [t.kind for t in toks] == [MATRIX, "PUNCT", "EOF"]
        assert toks[0].value.shape == (8, 8)
        assert (toks[0].line, toks[0].column) == (1, 1)
        assert (toks[1].text, toks[1].line, toks[1].column) == (";", 17, 2)

    @pytest.mark.parametrize("parse, text, puncts", [
        (qts.parse_model, MODEL.replace(" ;\n", " oops\n"), qts._PUNCTS),
        (logic.parse_assertions, f"let m = matrix {RHO}   oops",
         logic._PUNCTS),
    ], ids=["qts", "ctql"])
    def test_a_token_after_a_multiline_literal_keeps_its_position(
            self, parse, text, puncts):
        oops = next(t for t in reference_tokenize(text, puncts)
                    if t.text == "oops")
        assert (oops.line, oops.column) in ((20, 38), (16, 40))
        with pytest.raises(ParseError) as info:
            parse(text)
        assert str(info.value).startswith(f"{oops.line}:{oops.column}: ")
        assert str(info.value).endswith("got 'oops'")

    def test_init_file_reports_trailing_text_after_a_multiline_literal(
            self, tmp_path):
        from qmc import cli
        path = tmp_path / "rho.txt"
        path.write_text(RHO + "\n\n   oops\n", encoding="utf-8")
        with pytest.raises(ParseError) as info:
            cli._load_init(cli.RunConfig(model="m", init=str(path)),
                           qts.parse_model(MODEL))
        assert str(info.value) == ("18:4: unexpected text after the density "
                                   "matrix, got 'oops'")

    def test_a_lexical_error_after_a_literal_comes_first(self):
        # the whole text was lexed before parsing began, so a bad
        # character anywhere outranked a parse error before it
        text = MODEL + "  l0 -> oops $\n"
        with pytest.raises(ParseError) as info:
            qts.parse_model(text)
        assert str(info.value) == "22:14: unexpected character '$'"

    def test_one_literal_reads_the_same_through_every_caller(
            self, tmp_path, monkeypatch):
        from qmc import cli
        read = []

        def spy(ts):
            read.append(parsing.parse_matrix(ts))
            return read[-1]
        for module in (qts, logic, cli):
            monkeypatch.setattr(module, "parse_matrix", spy)
        system = qts.parse_model(MODEL)
        logic.parse_assertions(f"let m = matrix {RHO}\n")
        path = tmp_path / "rho.txt"
        path.write_text(RHO, encoding="utf-8")
        cli._load_init(cli.RunConfig(model="m", init=str(path)), system)
        model_mat, _, ctql_mat, init_mat = read
        ref = np.array(reference_parse_matrix(TokenStream(
            reference_tokenize(RHO, PUNCTS))), dtype=complex)
        for mat in (model_mat, ctql_mat, init_mat):
            assert mat.tobytes() == ref.tobytes()
        assert system.transitions[0].local.kraus[0].tobytes() == ref.tobytes()

    def test_a_density_file_costs_no_token_per_entry(self, tmp_path,
                                                     monkeypatch):
        # |0...0><0...0| on 8 qubits, 65536 entries on one line.  Read token
        # by token, as `cli._load_init` read it before the literal reader,
        # its `tracemalloc` peak was 21.8 MiB; read from the text, about
        # 3.5 MiB, of which the 1 MiB matrix and its checks are most
        from qmc import cli
        d = 2 ** 8
        text = "[" + ", ".join("[" + ", ".join(
            "1" if r == c == 0 else "0" for c in range(d)) + "]"
            for r in range(d)) + "]\n"
        path = tmp_path / "rho.txt"
        path.write_text(text, encoding="utf-8")
        system = qts.parse_model("qubits 8\nlocations l0\ninitial l0\n"
                                 "transitions\n  l0 -> l0 : gate I[1]\n")
        cfg = cli.RunConfig(model="m", init=str(path))

        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        read = peak(lambda: cli._load_init(cfg, system))
        # no literal is large enough for the reader: the scanner's tokens
        monkeypatch.setattr(parsing, "_MIN_READ_COMMAS", float("inf"))
        by_token = peak(lambda: np.array(reference_parse_matrix(
            TokenStream(tokenize(text, INIT_PUNCTS))), dtype=complex))
        assert read < by_token / 4

    def test_a_small_literal_leaves_the_next_one_to_the_reader(self):
        # a literal the token path parses leaves the next large one to be
        # read as one token
        toks = tokenize("[[1, 0], [0, -i]] ;\n" + RHO, PUNCTS)
        assert [t.kind for t in toks[-3:]] == ["PUNCT", MATRIX, "EOF"]
        assert len(toks) == 17
        ts = TokenStream(toks)
        assert parsing.parse_matrix(ts).tolist() == [[1, 0], [0, -1j]]
        ts.expect_punct(";")
        assert parsing.parse_matrix(ts).shape == (8, 8)
        assert ts.peek().kind == "EOF"


# entries whose sign or imaginary part sits on another line or past a
# comment, and the text around the literals of an embedding text: no `[`,
# which would open a larger literal around the next one
SPLIT = ["-\n1", "- # x, ]]\n2i", "1\n-\ni", "+\r\n0.5", "0.25 # c\n+ 1i"]
AROUND = ["", " ", "\n", "  # [[0, 1]], x\n", "kraus {", " ; ", "}[1, 2]",
          "let m = matrix ", "x", "-0.5", "]", ",", "[[1]]", "\n[[0, 1, 2]]"]


literals = st.tuples(
    st.integers(5, 6).flatmap(lambda n: st.lists(st.lists(
        st.sampled_from(SPACED + ENTRIES[:20] + SPLIT), min_size=n,
        max_size=n), min_size=n, max_size=n)),
    st.lists(st.sampled_from(SEPARATORS), min_size=1, max_size=6),
).map(lambda args: ("literal", literal_text(*args)))


class TestEagerLexer:
    """`tokenize` on texts that embed literals of 25 or more entries:
    the character loop's tokens, except that each literal the cursor
    parser reads is one MATRIX token holding what that parser reads."""

    @settings(max_examples=150)
    @given(st.lists(st.one_of(st.sampled_from(AROUND).map(lambda t: ("", t)),
                              literals), min_size=1, max_size=6),
           st.sampled_from(sorted(ALPHABETS)))
    def test_a_large_literal_is_one_token(self, pieces, alphabet):
        text = "".join(t for _, t in pieces)
        puncts = ALPHABETS[alphabet]
        try:
            ref = reference_tokenize(text, puncts)
        except ParseError as exc:
            assert outcome(tokenize, text, puncts) == ("error", str(exc))
            return
        toks = tokenize(text, puncts)
        j = 0
        for tok in toks:
            if tok.kind != MATRIX:
                # every later token keeps its line and column
                assert token_key(tok) == token_key(ref[j]), text
                j += 1
                continue
            assert (tok.line, tok.column) == (ref[j].line, ref[j].column)
            ts = TokenStream(ref)
            ts.pos = j
            rows = reference_parse_matrix(ts)
            assert repr(tok.value.tolist()) == \
                repr(np.array(rows, dtype=complex).tolist()), text
            j = ts.pos
        assert j == len(ref)
        read = [t for kind, t in pieces if kind == "literal"
                and reference_matrix_outcome(t)[0] != "error"]
        assert sum(t.kind == MATRIX for t in toks) == len(read), text

    def test_a_refused_literal_hides_no_literal_inside_it(self):
        # `[` + a literal spans one literal too deep, which is refused and
        # lexed token by token, inner literal included
        text = "[" + RHO + "]"
        assert tokenize(text, PUNCTS) == reference_tokenize(text, PUNCTS)

    @pytest.mark.parametrize("text", ["[[1, " * 2000, "[" * 4000 + "]]"],
                             ids=["unclosed", "nested"])
    def test_each_bracket_run_is_searched_once(self, text, monkeypatch):
        # each `[` of the run opens a literal that is refused or has no
        # end; one search covers them all, where one per `[` would read
        # the text once per `[`
        starts = []

        def literal_end(text, start):
            starts.append(start)
            return end(text, start)
        end = parsing._literal_end
        monkeypatch.setattr(parsing, "_literal_end", literal_end)
        assert tokenize(text, PUNCTS) == reference_tokenize(text, PUNCTS)
        assert starts == [0]

    @pytest.mark.parametrize("parse, text, message", [
        (qts.parse_model, "qubits 1\nlocations l0\ninitial l0\ntransitions\n"
         "  l0 -> l0 : gate H%s\n",
         "5:20: expected '[', got 'matrix literal'"),
        (logic.parse_assertions, 'let m = matrix [[1]]\nassert "x" : %s\n',
         "2:14: expected a state formula, got 'matrix literal'"),
    ], ids=["qts", "ctql"])
    def test_a_large_literal_where_no_matrix_goes(self, parse, text,
                                                  message):
        # a 5 x 5 literal is one token wherever it stands, so an error at
        # it names the literal, at its first `[`; a 2 x 2 one is tokens
        five = "[" + ", ".join("[" + ", ".join(
            "1" if r == c else "0" for c in range(5)) + "]"
            for r in range(5)) + "]"
        with pytest.raises(ParseError) as info:
            parse(text % five)
        assert str(info.value) == message
        with pytest.raises(ParseError) as info:
            parse(text % "[[1, 0], [0, 1]]")
        assert "got '['" in str(info.value)
