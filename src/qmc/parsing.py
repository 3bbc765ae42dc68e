"""Lexing shared by the model, assertion and initial-state parsers.

Every file format is a token stream where `#` starts a comment and
whitespace (including newlines) only separates tokens; every construct is
self-delimiting, so the recursive-descent parsers never need layout rules.

`tokenize` is one `re.finditer` pass of one compiled pattern per
punctuation alphabet: each match absorbs the whitespace and comments before
one token, and the name of the group that matched is the token's kind.
"""

from __future__ import annotations

import functools
import math
import re
from typing import NamedTuple

from .errors import ParseError

IDENT = "IDENT"
NUMBER = "NUMBER"
IMAG = "IMAG"
STRING = "STRING"
PUNCT = "PUNCT"
EOF = "EOF"


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


def tokenize(text: str, puncts) -> list:
    """Token list for the given punctuation alphabet, ending in EOF."""
    tokens = []
    append = tokens.append
    new = tuple.__new__  # Token(...) without NamedTuple's Python-level __new__
    line, line_start = 1, 0
    for m in _scanner(tuple(puncts)).finditer(text):
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
        elif kind == STRING:
            append(Token(STRING, raw, raw[1:-1], line, col))
        elif kind == EOF:
            # a comment that runs to the end leaves EOF at its `#`
            if m.end("comment") == len(text):
                col = m.start("comment") - line_start + 1
            append(Token(EOF, "", None, line, col))
            break
        elif kind == "QUOTE":
            raise ParseError("unterminated string literal", line, col)
        else:
            raise ParseError(f"unexpected character {raw!r}", line, col)
    return tokens


class TokenStream:
    """Cursor over a token list with positioned error reporting."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

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


_SIGNS = {"+": 1.0, "-": -1.0}


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


def _expect_at(ts: TokenStream, i: int, text: str) -> int:
    tok = ts.tokens[i]
    if tok.kind != PUNCT or tok.text != text:
        ts.pos = i
        ts.error(f"expected {text!r}")
    return i + 1


def parse_complex(ts: TokenStream) -> complex:
    """Complex literal; see `_complex_at`."""
    z, ts.pos = _complex_at(ts, ts.pos)
    return z


def parse_matrix(ts: TokenStream) -> tuple:
    """Square matrix literal `[[a, b], [c, d]]` of complex entries, as a
    tuple of row tuples."""
    toks = ts.tokens
    i = _expect_at(ts, ts.pos, "[")
    rows = []
    while True:
        i = _expect_at(ts, i, "[")
        row = []
        while True:
            z, i = _complex_at(ts, i)
            row.append(z)
            if toks[i].text != "," or toks[i].kind != PUNCT:
                break
            i += 1
        i = _expect_at(ts, i, "]")
        rows.append(tuple(row))
        if toks[i].text != "," or toks[i].kind != PUNCT:
            break
        i += 1
    ts.pos = _expect_at(ts, i, "]")
    width = len(rows[0])
    if any(len(r) != width for r in rows) or len(rows) != width:
        ts.error("matrix must be square")
    return tuple(rows)


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
