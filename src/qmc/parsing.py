"""Lexing shared by the model, assertion, initial-state and ket parsers.

Every file format is a token stream where `#` starts a comment and
whitespace (including newlines) only separates tokens; every construct is
self-delimiting, so the recursive-descent parsers never need layout rules.

`tokenize` lexes a whole text in one `re.finditer` pass of one compiled
pattern per punctuation alphabet: each match absorbs the whitespace and
comments before one token, and the name of the group that matched is the
token's kind.  The ket alphabet of `kets.parse_ket` also reads `|bits>`
as one KET token, and its one word of punctuation, `sqrt`, is tried
before identifiers.  At a `[` that another `[` follows, a matrix literal
of 25 or more entries is read straight from the text by `_literal_array`,
a fixed sequence of numpy passes over its bytes that makes no token or
Python number per entry, and becomes one MATRIX token.  Any other literal
is lexed token by token and parsed by `parse_matrix`'s token path, which
raises every error a literal can have.  The whole text is lexed before
parsing starts, so a lexical error anywhere in it comes ahead of any parse
error.
"""

from __future__ import annotations

import functools
import math
import re
from typing import NamedTuple

import numpy as np

from .errors import ParseError

IDENT = "IDENT"
NUMBER = "NUMBER"
IMAG = "IMAG"
STRING = "STRING"
PUNCT = "PUNCT"
MATRIX = "MATRIX"  # a literal read from the text; its value is the array
KET = "KET"  # `|bits>` in the ket alphabet; its value is the bit string
EOF = "EOF"

# The deepest syntax tree the assertion and ket parsers accept (see
# docs/assertion_format.md).  Parsing a formula costs at most five
# interpreter frames per level, so a tree at the limit stays far below
# Python's default recursion limit of 1000 in every recursive pass.
MAX_DEPTH = 64


class Token(NamedTuple):
    kind: str
    text: str
    value: object
    line: int
    column: int

    @property
    def is_int(self) -> bool:
        return self.kind == NUMBER and isinstance(self.value, int)


@functools.lru_cache(maxsize=None)
def _scanner(puncts: tuple) -> re.Pattern:
    """Whitespace and comments, then one token; the longest punctuation
    wins, punctuation before an identifier, and a number immediately
    followed by `i` is imaginary."""
    alts = "".join("|" + re.escape(p)
                   for p in sorted(puncts, key=len, reverse=True))
    ket = r"|(?P<KET>\|[01]+>)" if _KET_PUNCTS <= set(puncts) else ""
    return re.compile(
        r'(?:[ \t\r\n]|(?P<comment>#[^\n]*))*(?:'
        rf'(?P<STRING>"[^"\n]*")|(?P<QUOTE>"){ket}'
        r'|(?P<NUMBER>\d+(?P<frac>\.\d*)?(?P<exp>[eE][+-]?\d+)?i?)'
        rf'|(?P<PUNCT>(?!){alts})'
        r'|(?P<IDENT>[A-Za-z_][A-Za-z_0-9]*)|(?P<EOF>\Z)|(?P<BAD>.))', re.S)


def tokenize(text: str, puncts) -> list:
    """Token list for the given punctuation alphabet, ending in EOF.  A
    literal with at least _MIN_READ_COMMAS commas that `_literal_array`
    reads is one MATRIX token.  No `[` before the end of the last literal
    tried is tried, so no character is read by two tries."""
    scanner = _scanner(tuple(puncts))
    literals = _LITERAL_PUNCTS <= set(puncts)
    tokens = []
    append = tokens.append
    new = tuple.__new__  # Token(...) without NamedTuple's __new__
    line, line_start = 1, 0
    offset = tried = 0  # where to scan from; the end of the last try
    last = 0  # the last token's start: only a MATRIX token spans a newline
    while True:
        for m in scanner.finditer(text, offset):
            kind = m.lastgroup
            start = m.start(kind)
            nl = text.rfind("\n", last, start)
            if nl >= 0:
                line += text.count("\n", last, nl + 1)
                line_start = nl + 1
            last = start
            col = start - line_start + 1
            raw = m[kind]
            if kind == PUNCT or kind == IDENT:
                if raw == "[" and literals and start >= tried and \
                        _ROW_AHEAD.match(text, m.end()):
                    tried = _literal_end(text, start)
                    lit = text[start:tried]
                    if lit.count(",") >= _MIN_READ_COMMAS and \
                            (mat := _literal_array(lit)) is not None:
                        append(new(Token, (MATRIX, "matrix literal", mat,
                                           line, col)))
                        offset = tried
                        break
                append(new(Token, (kind, raw, raw, line, col)))
            elif kind == NUMBER:
                imag = raw[-1] == "i"
                value = float(raw[:-1] if imag else raw)
                if value == math.inf:
                    raise ParseError("number literal out of range", line, col)
                if imag:
                    append(new(Token, (IMAG, raw, value, line, col)))
                else:
                    if m["frac"] is None and m["exp"] is None:
                        value = int(raw)
                    append(new(Token, (NUMBER, raw, value, line, col)))
            elif kind == STRING or kind == KET:
                append(Token(kind, raw, raw[1:-1], line, col))
            elif kind == EOF:
                # a comment that runs to the end leaves EOF at its `#`
                if m.end("comment") == len(text):
                    col = m.start("comment") - line_start + 1
                append(Token(EOF, "", None, line, col))
                return tokens
            elif kind == "QUOTE":
                raise ParseError("unterminated string literal", line, col)
            else:
                raise ParseError(f"unexpected character {raw!r}", line, col)


def parse_text(text: str, puncts, parse):
    """`parse(ts)` on a stream over the tokens of `text`."""
    return parse(TokenStream(tokenize(text, puncts)))


class TokenStream:
    """Cursor over a token list with positioned error reporting."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        i = self.pos + ahead
        tokens = self.tokens
        return tokens[i] if i < len(tokens) else tokens[-1]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != EOF:
            self.pos += 1
        return tok

    def at_punct(self, *texts) -> bool:
        tok = self.peek()
        return tok.kind == PUNCT and tok.text in texts

    def at_keyword(self, *words) -> bool:
        tok = self.peek()
        return tok.kind == IDENT and tok.text in words

    def accept_punct(self, text) -> bool:
        if self.at_punct(text):
            self.next()
            return True
        return False

    def expect_punct(self, text) -> Token:
        if not self.at_punct(text):
            self.error(f"expected {text!r}")
        return self.next()

    def expect_keyword(self, word) -> Token:
        if not self.at_keyword(word):
            self.error(f"expected keyword {word!r}")
        return self.next()

    def expect_ident(self, what="identifier") -> Token:
        tok = self.peek()
        if tok.kind != IDENT:
            self.error(f"expected {what}")
        return self.next()

    def expect_int(self, what="integer") -> int:
        tok = self.peek()
        if not tok.is_int:
            self.error(f"expected {what}")
        self.next()
        return tok.value

    def error(self, message: str):
        tok = self.peek()
        got = tok.text if tok.kind != EOF else "end of input"
        raise ParseError(f"{message}, got {got!r}", tok.line, tok.column)


# --- matrix literals read from the text -------------------------------------
#
# A literal runs from its `[` to the first `]` outside a comment that is
# followed, past whitespace and comments, by another `]`: in a well-formed
# literal, the last row's `]` and the matrix's.  `_literal_array` checks
# the text against the `matrix` rule of docs/model_format.md and reads its
# entries in a fixed number of whole-array numpy passes over its bytes.
# Those passes cost about 0.2 ms however small the literal, which is more
# than the token parse of a literal with fewer than _MIN_READ_COMMAS commas
# (a 5 x 5 matrix has 24); such a literal is lexed token by token.  So is
# every literal in an alphabet that cannot spell one (_LITERAL_PUNCTS).

_LITERAL_PUNCTS = frozenset("[],+-")
# the alphabet of `kets.parse_ket`, the one that lexes KET tokens.  Its
# `sqrt` is the only punctuation that is a word, so trying punctuation
# before identifiers changes no other alphabet's tokens
_KET_PUNCTS = frozenset(("sqrt", "+", "-", "/", "*", "(", ")"))
_ROW_AHEAD = re.compile(r"[ \t\r\n]*(?:#[^\n]*(?![^\n])[ \t\r\n]*)*\[")
_MIN_READ_COMMAS = 24
_LITERAL_END = re.compile(
    r"\][ \t\r\n]*(?:#[^\n]*(?![^\n])[ \t\r\n]*)*\]")
_COMMENT = re.compile(r"#[^\n]*")

# byte classes; 0 is a character no literal holds, and ends a token row
(_END, _OPEN, _CLOSE, _COMMA, _PLUS, _MINUS, _DIGIT, _DOT, _EXP, _XSIGN, _I,
 _SPACE) = range(12)
_CLASS = np.zeros(256, np.uint8)
for _chars, _cls in (("[", _OPEN), ("]", _CLOSE), (",", _COMMA),
                     ("+", _PLUS), ("-", _MINUS), ("0123456789", _DIGIT),
                     (".", _DOT), ("eE", _EXP), ("i", _I),
                     (" \t\r\n", _SPACE)):
    _CLASS[[ord(c) for c in _chars]] = _cls


def _literal_end(text: str, start: int):
    """The offset just past the literal whose `[` is at `start`, or the
    end of the text when no `]]` follows."""
    end = _LITERAL_END.search(text, start)
    # a match that starts in a comment is not the literal's end; look
    # again past that comment
    while end is not None:
        comment = text.rfind("#", start, end.start())
        if comment < 0 or text.find("\n", comment, end.start()) >= 0:
            return end.end()
        end = _LITERAL_END.search(text, text.find("\n", end.start()) + 1
                                  or len(text))
    return len(text)


def _pairs(rules: dict) -> np.ndarray:
    """A table over class pairs coded as 16 * first + second, true for
    the pairs `rules` allow."""
    table = np.zeros(256, dtype=bool)
    for first, seconds in rules.items():
        table[[16 * first + second for second in seconds]] = True
    return table


# within a word: digits, then `.` and digits, then `e`, a sign and digits,
# then `i`; _XSIGN is a sign right after an `e`
_IN_WORD = _pairs({_DIGIT: (_DIGIT, _DOT, _EXP, _I),
                   _DOT: (_DIGIT, _EXP, _I),
                   _EXP: (_XSIGN, _DIGIT), _XSIGN: (_DIGIT,)})
# from token to token, a real word being _DIGIT and an imaginary one _I
_ENTRY = (_PLUS, _MINUS, _DIGIT, _I)
_NEXT_TOKEN = _pairs({_OPEN: (_OPEN,) + _ENTRY, _COMMA: (_OPEN,) + _ENTRY,
                      _CLOSE: (_CLOSE, _COMMA, _END),
                      _PLUS: (_DIGIT, _I), _MINUS: (_DIGIT, _I),
                      _DIGIT: (_COMMA, _CLOSE, _PLUS, _MINUS),
                      _I: (_COMMA, _CLOSE, _PLUS, _MINUS)})


def _words(cls: np.ndarray):
    """Masks of the first and last characters of the words, the maximal
    runs of number characters, or None when a word does not read
    `NUMBER i?` or `i`."""
    word = (cls >= _DIGIT) & (cls <= _I)
    inner = word[1:] & word[:-1]
    if not _IN_WORD[(cls[:-1] * 16 + cls[1:])[inner]].all():
        return None
    first, last = word.copy(), word.copy()
    first[1:] &= ~word[:-1]
    last[:-1] &= ~word[1:]
    # a word starts with a digit or is `i`, and ends in a digit, `.` or `i`
    if ((first & (cls != _DIGIT) & (cls != _I)).any()
            or (last & ((cls == _EXP) | (cls == _XSIGN))).any()):
        return None
    # at most one `.` and one `e` in a word, the `.` first
    marks = np.flatnonzero((cls == _DOT) | (cls == _EXP))
    if len(marks) > 1:
        word_of = np.cumsum(first, dtype=np.int32)[marks]
        kind = cls[marks]
        dot_exp = (kind[:-1] == _DOT) & (kind[1:] == _EXP)
        if ((word_of[1:] == word_of[:-1]) & ~dot_exp).any():
            return None
    return first, last


def _square(kind: np.ndarray, is_word: np.ndarray):
    """The order of the square matrix a literal's token classes spell, and
    per word whether it is the imaginary part joined to an entry, `a+bi`;
    None when the tokens are not a square matrix literal."""
    pair = kind * 16
    pair[:-1] += kind[1:]
    if not _NEXT_TOKEN[pair].all():
        return None
    depth = np.cumsum((kind == _OPEN).view(np.int8)
                      - (kind == _CLOSE).view(np.int8), dtype=np.int32)
    sign = (kind == _PLUS) | (kind == _MINUS)
    if (depth[-1] != 0 or depth[:-1].min() < 1 or depth.max() > 2
            or (depth[sign | is_word] != 2).any()):
        return None
    # a sign after a word joins an imaginary part, which ends the entry
    joins = np.zeros_like(is_word)
    joins[1:] = sign[1:] & is_word[:-1]
    tail = np.zeros_like(is_word)
    tail[1:] = joins[:-1]
    if (tail & (kind != _I)).any() or (joins[1:] & tail[:-1]).any():
        return None
    # the count of entries at each row's `]`
    seen = np.cumsum(is_word & ~tail, dtype=np.int32)[
        (kind == _CLOSE) & (depth == 1)]
    n = len(seen)
    if (np.diff(seen, prepend=0) != n).any():
        return None
    return n, tail[is_word]


def _tokens(lit: str):
    """The token classes of a literal's text, a real word as _DIGIT and
    an imaginary one as _I, and each word's value unsigned; None when the
    text holds a character or a word no literal holds, or a value that is
    not finite."""
    if "#" in lit:
        lit = _COMMENT.sub("", lit)
    try:
        b = np.frombuffer(lit.encode("ascii"), dtype=np.uint8)
    except UnicodeEncodeError:
        return None
    cls = _CLASS[b]
    if not cls.all():
        return None
    cls[1:][((cls[1:] == _PLUS) | (cls[1:] == _MINUS))
            & (cls[:-1] == _EXP)] = _XSIGN
    words = _words(cls)
    if words is None:
        return None
    first, last = words
    kind = cls[first | ((cls >= _OPEN) & (cls <= _MINUS))]
    imag = (cls == _I)[last]
    kind[kind >= _DIGIT] = np.where(imag, _I, _DIGIT)
    # a one-character word is a digit or `i`; the others are read as
    # decimal text by `np.fromstring`, which rounds as `float` does
    vals = b[first] - 48.0
    short = (first & last)[first]
    vals[short & imag] = 1.0
    if not short.all():
        digits = np.where((cls >= _DIGIT) & (cls <= _XSIGN), b, np.uint8(32))
        digits[first & last] = 32
        read = np.fromstring(digits.tobytes(), sep=" ")
        if len(read) != len(vals) - short.sum():
            return None
        vals[~short] = read
    if not np.isfinite(vals).all():
        return None
    return kind, vals


def _literal_array(lit: str):
    """The complex matrix a literal's text denotes, entry for entry what
    the token parse gives (signed zeros included), or None when the text
    is not a square literal with finite entries."""
    tokens = _tokens(lit)
    if tokens is None:
        return None
    kind, vals = tokens
    is_word = kind >= _DIGIT
    square = _square(kind, is_word)
    if square is None:
        return None
    n, tail = square
    minus = np.zeros_like(is_word)
    minus[1:] = kind[:-1] == _MINUS
    np.negative(vals, out=vals, where=minus[is_word])
    imag = kind[is_word] == _I

    head = ~tail
    out = np.zeros(n * n, dtype=complex)
    out.real = np.where(imag[head], 0.0, vals[head])
    out.imag = np.where(imag[head], vals[head], 0.0)
    if tail.any():
        # z + complex(0.0, b), as the token parse adds a joined part
        of = np.cumsum(head)[tail] - 1
        out.real[of] += 0.0
        with np.errstate(over="ignore"):
            out.imag[of] += vals[tail]
    return out.reshape(n, n)


# --- the token-by-token literal parsers --------------------------------------
#
# They walk token indices; the EOF token ends every list, so each index
# they read is that of a token after one that is not EOF.

_SIGNS = {"+": 1.0, "-": -1.0}


def _is_part(tok: Token) -> bool:
    """Whether `_part` reads `tok`: a number, an imaginary number or `i`."""
    return tok.kind in (NUMBER, IMAG) or (tok.kind == IDENT and tok.text == "i")


def _part(ts: TokenStream, i: int, sign: float) -> complex:
    """The real or imaginary part of a complex literal at token i."""
    tok = ts.tokens[i]
    if tok.kind == NUMBER:
        return complex(sign * float(tok.value), 0.0)
    if tok.kind == IMAG:
        return complex(0.0, sign * tok.value)
    if tok.kind == IDENT and tok.text == "i":
        return complex(0.0, sign)
    ts.pos = i
    ts.error("expected a number")


def _complex_at(ts: TokenStream, i: int) -> tuple:
    """The complex literal at token i and the index after it: `a`, `bi`,
    `a+bi`, `a-bi`, `i`, with an optional sign on the first part."""
    toks = ts.tokens
    tok = toks[i]
    sign = 1.0
    if tok.kind == PUNCT and tok.text in _SIGNS:
        sign = _SIGNS[tok.text]
        i += 1
    z = _part(ts, i, sign)
    # a+bi / a-bi: only an imaginary continuation belongs to the literal
    tok = toks[i + 1]
    if tok.kind == PUNCT and tok.text in _SIGNS:
        nxt = toks[i + 2]
        if nxt.kind == IMAG or (nxt.kind == IDENT and nxt.text == "i"):
            return z + _part(ts, i + 2, _SIGNS[tok.text]), i + 3
    return z, i + 1


def _at_comma(ts: TokenStream, i: int) -> bool:
    tok = ts.tokens[i]
    return tok.text == "," and tok.kind == PUNCT


def _expect_at(ts: TokenStream, i: int, text: str) -> int:
    tok = ts.tokens[i]
    if tok.kind != PUNCT or tok.text != text:
        ts.pos = i
        ts.error(f"expected {text!r}")
    return i + 1


def parse_matrix(ts: TokenStream) -> np.ndarray:
    """Square matrix literal `[[a, b], [c, d]]` of complex entries, as a
    complex array: a MATRIX token's, else parsed token by token."""
    tok = ts.peek()
    if tok.kind == MATRIX:
        ts.pos += 1
        return tok.value
    i = _expect_at(ts, ts.pos, "[")
    rows = []
    while True:
        i = _expect_at(ts, i, "[")
        row = []
        while True:
            z, i = _complex_at(ts, i)
            row.append(z)
            if not _at_comma(ts, i):
                break
            i += 1
        i = _expect_at(ts, i, "]")
        rows.append(row)
        if not _at_comma(ts, i):
            break
        i += 1
    ts.pos = _expect_at(ts, i, "]")
    width = len(rows[0])
    if any(len(r) != width for r in rows) or len(rows) != width:
        ts.error("matrix must be square")
    return np.array(rows, dtype=complex)


def format_complex(z: complex) -> str:
    """Canonical text for a complex literal; floats keep full precision so
    serialize -> parse round trips exactly."""
    re_, im = float(z.real), float(z.imag)
    if im == 0.0:
        return _format_real(re_)
    if re_ == 0.0:
        return _format_real(im) + "i"
    op = "+" if im >= 0.0 else "-"
    return f"{_format_real(re_)}{op}{_format_real(abs(im))}i"


def _format_real(x) -> str:
    """An integral value below 1e15 in magnitude as an integer, any other
    as its full-precision repr."""
    x = float(x)
    if x == int(x) and abs(x) < 1e15:
        return repr(int(x))
    return repr(x)
