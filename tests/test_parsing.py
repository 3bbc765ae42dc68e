"""The one-pass scanner and the index-walking literal parsers against the
character-loop lexer and cursor parsers they replaced (`tests/helpers.py`):
the same tokens, values, positions and errors on every text."""

import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qmc import kets, logic, parsing, qts
from qmc.errors import ParseError
from qmc.parsing import NUMBER, Token, TokenStream

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

# a literal that overflows a float lexes as inf in the reference and is
# refused by the scanner; those are covered by their own tests
_OVERFLOW = re.compile(r"[eE]\+?\d{3}|\d{300}")


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
        assume(not _OVERFLOW.search(text))
        for puncts in ALPHABETS.values():
            assert outcome(parsing.tokenize, text, puncts) == \
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
        assert outcome(parsing.tokenize, text, puncts) == \
            outcome(reference_tokenize, text, puncts)

    def test_eof_after_a_trailing_comment_sits_at_the_comment(self):
        eof = parsing.tokenize("qubits 1  # end", qts._PUNCTS)[-1]
        assert (eof.kind, eof.line, eof.column) == ("EOF", 1, 11)
        eof = parsing.tokenize("qubits 1  # end\n  ", qts._PUNCTS)[-1]
        assert (eof.line, eof.column) == (2, 3)

    def test_int_and_float_literals_keep_their_types(self):
        values = [t.value for t in parsing.tokenize("7 7. 7e0 7.5 7i", [])]
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
        assert parsing.tokenize("3", [])[0] == tok._replace(line=1, column=1)


class TestOutOfRangeLiterals:
    @pytest.mark.parametrize("text, column", [
        ("1e400", 1), ("x 2.5e309i", 3), ("[[0, " + "9" * 400 + "]]", 6),
        ("1" * 5000, 1),
    ], ids=["exponent", "imaginary", "400-digit-int", "5000-digit-int"])
    def test_scanner_refuses_a_non_finite_literal(self, text, column):
        with pytest.raises(ParseError) as info:
            parsing.tokenize(text, INIT_PUNCTS)
        assert str(info.value) == f"1:{column}: number literal out of range"

    def test_largest_finite_literal_and_underflow_are_kept(self):
        toks = parsing.tokenize("1.7976931348623157e308 1e-400", [])
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


def parse_outcome(parse, text):
    ts = TokenStream(parsing.tokenize(text, INIT_PUNCTS + [";", "."]))
    try:
        value = parse(ts)
    except ParseError as exc:
        return ("error", str(exc), ts.pos)
    return repr(value), ts.pos  # repr tells -0.0 from 0.0


class TestLiteralParsers:
    @settings(max_examples=300)
    @given(st.lists(st.lists(st.sampled_from(ENTRIES), min_size=1,
                             max_size=3), min_size=1, max_size=3),
           st.sampled_from(["", " ]", ", [1]]", " junk", ";"]))
    def test_matrix_matches_the_cursor_parser(self, rows, tail):
        text = "[" + ", ".join("[" + ", ".join(r) + "]" for r in rows) + \
            "]" + tail
        assert parse_outcome(parsing.parse_matrix, text) == \
            parse_outcome(reference_parse_matrix, text), text

    @settings(max_examples=200)
    @given(st.lists(st.sampled_from(ENTRIES + [" ", ","]), max_size=5)
           .map("".join))
    def test_complex_matches_the_cursor_parser(self, text):
        assert parse_outcome(parsing.parse_complex, text) == \
            parse_outcome(reference_parse_complex, text), text

    def test_signed_and_complex_entries(self):
        text = "[[-1, +0.5-0.25i], [-i, 2e-1+i]]"
        rows = parsing.parse_matrix(TokenStream(
            parsing.tokenize(text, INIT_PUNCTS)))
        assert rows == ((-1 + 0j, 0.5 - 0.25j), (-1j, 0.2 + 1j))
        assert all(type(z) is complex for row in rows for z in row)

