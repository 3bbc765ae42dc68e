"""Lexing shared by the model, assertion and initial-state parsers.

Every file format is a token stream where `#` starts a comment and
whitespace (including newlines) only separates tokens; every construct is
self-delimiting, so the recursive-descent parsers never need layout rules.

A `TokenStream` over a text scans it as the parser reads, with one
`re.finditer` pass of one compiled pattern per punctuation alphabet: each
match absorbs the whitespace and comments before one token, and the name
of the group that matched is the token's kind.  Scanning stops after a
`[` that another `[` follows.  When `parse_matrix` starts at that `[`,
a large literal is read straight from the text by `_literal_array`, a
fixed sequence of numpy passes over its bytes that makes no token or
Python number per entry, and scanning resumes after the literal.  Any
other literal is parsed token by token, which raises every error a
literal can have.  `parse_text` raises a lexical error anywhere in a text
ahead of any error the parser raises, as if the whole text had been
lexed first.
"""

from __future__ import annotations

import functools
import math
import re
from typing import NamedTuple

import numpy as np

from .errors import ParseError, QmcError

IDENT = "IDENT"
NUMBER = "NUMBER"
IMAG = "IMAG"
STRING = "STRING"
PUNCT = "PUNCT"
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
    wins, and a number immediately followed by `i` is imaginary."""
    alts = "".join("|" + re.escape(p)
                   for p in sorted(puncts, key=len, reverse=True))
    return re.compile(
        r'(?:[ \t\r\n]|(?P<comment>#[^\n]*))*(?:'
        r'(?P<STRING>"[^"\n]*")|(?P<QUOTE>")'
        r'|(?P<NUMBER>\d+(?P<frac>\.\d*)?(?P<exp>[eE][+-]?\d+)?i?)'
        r'|(?P<IDENT>[A-Za-z_][A-Za-z_0-9]*)'
        rf'|(?P<PUNCT>(?!){alts})|(?P<EOF>\Z)|(?P<BAD>.))', re.S)


def parse_text(text: str, puncts, parse):
    """`parse(ts)` on a stream scanning `text`.  When `parse` raises, the
    rest of the text is scanned first, so a lexical error anywhere in it
    is what is raised."""
    ts = TokenStream.scan(text, puncts)
    try:
        return parse(ts)
    except QmcError:
        try:
            ts.scan_all()
        except ParseError as lexical:
            raise lexical from None
        raise


class TokenStream:
    """Cursor over a token list with positioned error reporting; `scan`
    makes one whose list grows from a text as it is read."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self._text = None  # the text still being scanned, if any

    @classmethod
    def scan(cls, text: str, puncts) -> "TokenStream":
        ts = cls([])
        ts._text = text
        ts._scanner = _scanner(tuple(puncts))
        ts._literals = _LITERAL_PUNCTS <= set(puncts)
        ts._offset = ts._last_start = 0
        ts._line, ts._line_start = 1, 0
        return ts

    def _fill(self, i):
        """Scan until the list holds token i, going on to just past the
        next `[` that another `[` follows (it may open a matrix literal),
        or to EOF."""
        text, tokens = self._text, self.tokens
        append = tokens.append
        new = tuple.__new__  # Token(...) without NamedTuple's __new__
        line, line_start = self._line, self._line_start
        try:
            for m in self._scanner.finditer(text, self._offset):
                kind = m.lastgroup
                start = m.start(kind)
                nl = text.rfind("\n", m.start(), start)
                if nl >= 0:
                    line += text.count("\n", m.start(), nl + 1)
                    line_start = nl + 1
                col = start - line_start + 1
                raw = m[kind]
                if kind == PUNCT or kind == IDENT:
                    append(new(Token, (kind, raw, raw, line, col)))
                    if raw == "[" and len(tokens) > i and \
                            _ROW_AHEAD.match(text, m.end()):
                        break
                elif kind == NUMBER:
                    imag = raw[-1] == "i"
                    value = float(raw[:-1] if imag else raw)
                    if value == math.inf:
                        raise ParseError("number literal out of range",
                                         line, col)
                    if imag:
                        append(new(Token, (IMAG, raw, value, line, col)))
                    else:
                        if m["frac"] is None and m["exp"] is None:
                            value = int(raw)
                        append(new(Token, (NUMBER, raw, value, line, col)))
                elif kind == STRING:
                    append(Token(STRING, raw, raw[1:-1], line, col))
                elif kind == EOF:
                    # a comment that runs to the end leaves EOF at its `#`
                    if m.end("comment") == len(text):
                        col = m.start("comment") - line_start + 1
                    append(Token(EOF, "", None, line, col))
                    self._text = None
                    return
                elif kind == "QUOTE":
                    raise ParseError("unterminated string literal", line,
                                     col)
                else:
                    raise ParseError(f"unexpected character {raw!r}", line,
                                     col)
        except ParseError:
            self._text = None
            raise
        self._offset, self._last_start = m.end(), start
        self._line, self._line_start = line, line_start

    def scan_all(self):
        """Scan the rest of the text, raising its first lexical error."""
        if self._text is not None:
            self._fill(math.inf)

    def peek(self, ahead: int = 0) -> Token:
        i = self.pos + ahead
        if i >= len(self.tokens):
            if self._text is not None:
                self._fill(i)
            i = min(i, len(self.tokens) - 1)
        return self.tokens[i]

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

    def _literal_here(self):
        """The matrix literal opening at the current token, read from the
        text, with scanning moved past it; None when the current token is
        not the last `[` scanned, the literal is small, or `_literal_array`
        refuses it."""
        if self._text is None or not self._literals:
            return None
        tok = self.peek()
        if (tok.kind, tok.text) != (PUNCT, "[") or \
                self.pos != len(self.tokens) - 1:
            return None
        text, start = self._text, self._last_start
        end = _literal_end(text, start)
        if end is None:
            return None
        lit = text[start:end]
        if lit.count(",") < _MIN_READ_COMMAS:
            return None
        mat = _literal_array(lit)
        if mat is None:
            return None
        self.tokens.pop()
        nl = lit.rfind("\n")
        if nl >= 0:
            self._line += lit.count("\n")
            self._line_start = start + nl + 1
        self._offset = end
        return mat


# --- matrix literals read from the text -------------------------------------
#
# A literal runs from its `[` to the first `]` outside a comment that is
# followed, past whitespace and comments, by another `]`: in a well-formed
# literal, the last row's `]` and the matrix's.  `_literal_array` checks
# the text against the `matrix` rule of docs/model_format.md and reads its
# entries in a fixed number of whole-array numpy passes over its bytes.
# Those passes cost about 0.2 ms however small the literal, which is more
# than the token parse of a literal with fewer than _MIN_READ_COMMAS commas
# (a 5 x 5 matrix has 24); such a literal is parsed token by token.

_LITERAL_PUNCTS = frozenset("[],+-")
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
    """The offset just past the literal whose `[` is at `start`, or None
    when no `]]` follows."""
    end = _LITERAL_END.search(text, start)
    # a match that starts in a comment is not the literal's end; look
    # again past that comment
    while end is not None:
        comment = text.rfind("#", start, end.start())
        if comment < 0 or text.find("\n", comment, end.start()) >= 0:
            return end.end()
        end = _LITERAL_END.search(text, text.find("\n", end.start()) + 1
                                  or len(text))
    return None


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
# They walk token indices, reading token i as ts.peek(i - ts.pos), which
# scans on as far as they read.

_SIGNS = {"+": 1.0, "-": -1.0}


def _part(ts: TokenStream, i: int, sign: float) -> complex:
    """The real or imaginary part of a complex literal at token i."""
    tok = ts.peek(i - ts.pos)
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
    tok = ts.peek(i - ts.pos)
    sign = 1.0
    if tok.kind == PUNCT and tok.text in _SIGNS:
        sign = _SIGNS[tok.text]
        i += 1
    z = _part(ts, i, sign)
    # a+bi / a-bi: only an imaginary continuation belongs to the literal
    tok = ts.peek(i + 1 - ts.pos)
    if tok.kind == PUNCT and tok.text in _SIGNS:
        nxt = ts.peek(i + 2 - ts.pos)
        if nxt.kind == IMAG or (nxt.kind == IDENT and nxt.text == "i"):
            return z + _part(ts, i + 2, _SIGNS[tok.text]), i + 3
    return z, i + 1


def _at_comma(ts: TokenStream, i: int) -> bool:
    tok = ts.peek(i - ts.pos)
    return tok.text == "," and tok.kind == PUNCT


def _expect_at(ts: TokenStream, i: int, text: str) -> int:
    tok = ts.peek(i - ts.pos)
    if tok.kind != PUNCT or tok.text != text:
        ts.pos = i
        ts.error(f"expected {text!r}")
    return i + 1


def parse_complex(ts: TokenStream) -> complex:
    """Complex literal; see `_complex_at`."""
    z, ts.pos = _complex_at(ts, ts.pos)
    return z


def parse_matrix(ts: TokenStream) -> np.ndarray:
    """Square matrix literal `[[a, b], [c, d]]` of complex entries, as a
    complex array: read from the text when the stream scans one and the
    literal reader takes it, else token by token."""
    mat = ts._literal_here()
    if mat is not None:
        return mat
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

    def num(x: float) -> str:
        if x == int(x) and abs(x) < 1e15:
            return repr(int(x))
        return repr(x)

    if im == 0.0:
        return num(re_)
    if re_ == 0.0:
        return num(im) + "i"
    op = "+" if im >= 0.0 else "-"
    return f"{num(re_)}{op}{num(abs(im))}i"
