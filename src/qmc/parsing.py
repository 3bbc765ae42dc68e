"""Hand-written lexing shared by the model and assertion parsers.

Both file formats are token streams where `#` starts a comment and
whitespace (including newlines) only separates tokens; every construct is
self-delimiting, so the recursive-descent parsers never need layout rules.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError

IDENT = "IDENT"
NUMBER = "NUMBER"
IMAG = "IMAG"
STRING = "STRING"
PUNCT = "PUNCT"
EOF = "EOF"

_NUMBER_RE = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    value: object
    line: int
    column: int

    @property
    def is_int(self) -> bool:
        return self.kind == NUMBER and isinstance(self.value, int)


def tokenize(text: str, puncts) -> list:
    """Token list for the given punctuation alphabet (longest match wins).
    A number immediately followed by `i` lexes as a single IMAG token."""
    puncts = sorted(puncts, key=len, reverse=True)
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == '"':
            j = text.find('"', i + 1)
            if j < 0 or "\n" in text[i:j]:
                raise ParseError("unterminated string literal", line, col)
            tokens.append(Token(STRING, text[i:j + 1], text[i + 1:j], line, col))
            col += j + 1 - i
            i = j + 1
            continue
        m = _NUMBER_RE.match(text, i)
        if m:
            raw = m.group(0)
            end = m.end()
            if end < n and text[end] == "i":
                tokens.append(Token(IMAG, raw + "i", float(raw), line, col))
                end += 1
            else:
                value = int(raw) if re.fullmatch(r"\d+", raw) else float(raw)
                tokens.append(Token(NUMBER, raw, value, line, col))
            col += end - i
            i = end
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            raw = m.group(0)
            tokens.append(Token(IDENT, raw, raw, line, col))
            col += len(raw)
            i += len(raw)
            continue
        for p in puncts:
            if text.startswith(p, i):
                tokens.append(Token(PUNCT, p, p, line, col))
                col += len(p)
                i += len(p)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(Token(EOF, "", None, line, col))
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


def parse_complex(ts: TokenStream) -> complex:
    """Complex literal: `a`, `bi`, `a+bi`, `a-bi`, `i`, with optional leading
    sign on the first part."""

    def part(sign: float):
        tok = ts.peek()
        if tok.kind == NUMBER:
            ts.next()
            return complex(sign * float(tok.value), 0.0)
        if tok.kind == IMAG:
            ts.next()
            return complex(0.0, sign * tok.value)
        if tok.kind == IDENT and tok.text == "i":
            ts.next()
            return complex(0.0, sign)
        ts.error("expected a number")

    sign = 1.0
    if ts.at_punct("-"):
        ts.next()
        sign = -1.0
    elif ts.at_punct("+"):
        ts.next()
    z = part(sign)
    # a+bi / a-bi: only an imaginary continuation belongs to the literal
    nxt = ts.peek(1)
    if ts.at_punct("+", "-") and (nxt.kind == IMAG or
                                  (nxt.kind == IDENT and nxt.text == "i")):
        s = -1.0 if ts.next().text == "-" else 1.0
        z += part(s)
    return z


def parse_matrix(ts: TokenStream) -> tuple:
    """Square matrix literal `[[a, b], [c, d]]` of complex entries, as a
    tuple of row tuples."""
    ts.expect_punct("[")
    rows = []
    while True:
        ts.expect_punct("[")
        row = [parse_complex(ts)]
        while ts.accept_punct(","):
            row.append(parse_complex(ts))
        ts.expect_punct("]")
        rows.append(tuple(row))
        if not ts.accept_punct(","):
            break
    ts.expect_punct("]")
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
