"""Parsing and printing of ket-string expressions like
"(|01> + |10>)/sqrt2" or "0.6|000> - (0.3+0.4i)|001>".

The bit string inside |...> is little-endian: character j is the bit of
qubit j, with weight 2**(j-1).  See docs/assertion_format.md for the
grammar.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .errors import ParseError
from .parsing import (IDENT, IMAG, NUMBER, PUNCT, Token, TokenStream,
                      parse_complex)

KET = "KET"

_KET_RE = re.compile(r"\|([01]+)>")
_NUM_RE = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?")
_PUNCTS = ("+", "-", "/", "*", "(", ")")


def _lex(text: str) -> list:
    tokens = []
    i, n = 0, len(text)
    col = 1
    while i < n:
        c = text[i]
        if c in " \t":
            i += 1
            col += 1
            continue
        m = _KET_RE.match(text, i)
        if m:
            tokens.append(Token(KET, m.group(0), m.group(1), 1, col))
            col += m.end() - i
            i = m.end()
            continue
        m = _NUM_RE.match(text, i)
        if m:
            raw = m.group(0)
            value = float(raw)
            if value == math.inf:
                raise ParseError("number literal out of range", 1, col)
            end = m.end()
            if end < n and text[end] == "i":
                tokens.append(Token(IMAG, raw + "i", value, 1, col))
                end += 1
            else:
                tokens.append(Token(NUMBER, raw, value, 1, col))
            col += end - i
            i = end
            continue
        if text.startswith("sqrt", i):
            tokens.append(Token(IDENT, "sqrt", "sqrt", 1, col))
            i += 4
            col += 4
            continue
        if c == "i":
            tokens.append(Token(IDENT, "i", "i", 1, col))
            i += 1
            col += 1
            continue
        if c in "+-/*()":
            tokens.append(Token(PUNCT, c, c, 1, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {c!r} in ket expression",
                         1, col)
    tokens.append(Token("EOF", "", None, 1, col))
    return tokens


class _KetParser:
    def __init__(self, text: str):
        self.ts = TokenStream(_lex(text))
        self.n_bits = None

    def parse(self) -> np.ndarray:
        vec = self.sum()
        tok = self.ts.peek()
        if tok.kind != "EOF":
            self.ts.error("trailing input in ket expression")
        return vec

    def sum(self) -> np.ndarray:
        sign = 1.0
        if self.ts.accept_punct("-"):
            sign = -1.0
        else:
            self.ts.accept_punct("+")
        vec = sign * self.term()
        while self.ts.at_punct("+", "-"):
            s = -1.0 if self.ts.next().text == "-" else 1.0
            vec = vec + s * self.term()
        return vec

    def term(self) -> np.ndarray:
        vec = self.factor()
        while self.ts.at_punct("/"):
            self.ts.next()
            vec = vec / self.scalar()
        return vec

    def factor(self) -> np.ndarray:
        coef = 1.0 + 0.0j
        tok = self.ts.peek()
        if tok.kind in (NUMBER, IMAG) or (tok.kind == IDENT and
                                          tok.text == "i"):
            coef = self._simple_coef()
            self.ts.accept_punct("*")
        elif self.ts.at_punct("(") and not self._group_has_ket():
            coef = self._paren_complex()
            self.ts.accept_punct("*")
        tok = self.ts.peek()
        if tok.kind == KET:
            self.ts.next()
            return coef * self._basis_vector(tok)
        if self.ts.at_punct("("):
            self.ts.next()
            vec = self.sum()
            self.ts.expect_punct(")")
            return coef * vec
        self.ts.error("expected a ket")

    def scalar(self) -> complex:
        tok = self.ts.peek()
        if tok.kind == IDENT and tok.text == "sqrt":
            self.ts.next()
            num = self.ts.peek()
            if num.kind != NUMBER:
                self.ts.error("expected a number after sqrt")
            self.ts.next()
            return complex(math.sqrt(float(num.value)))
        if tok.kind in (NUMBER, IMAG) or (tok.kind == IDENT and
                                          tok.text == "i"):
            return self._simple_coef()
        if self.ts.at_punct("("):
            return self._paren_complex()
        self.ts.error("expected a scalar")

    def _simple_coef(self) -> complex:
        tok = self.ts.next()
        if tok.kind == NUMBER:
            return complex(float(tok.value))
        if tok.kind == IMAG:
            return complex(0.0, tok.value)
        return 1j  # bare `i`

    def _paren_complex(self) -> complex:
        self.ts.expect_punct("(")
        z = parse_complex(self.ts)
        self.ts.expect_punct(")")
        return z

    def _group_has_ket(self) -> bool:
        """Lookahead: does the parenthesised group starting here contain a
        ket?  Distinguishes a complex coefficient "(0.1+0.2i)" from a
        grouped sum "(|0> + |1>)"."""
        depth = 0
        pos = self.ts.pos
        while True:
            tok = self.ts.tokens[pos]
            if tok.kind == "EOF":
                return False
            if tok.kind == PUNCT and tok.text == "(":
                depth += 1
            elif tok.kind == PUNCT and tok.text == ")":
                depth -= 1
                if depth == 0:
                    return False
            elif tok.kind == KET and depth > 0:
                return True
            pos += 1

    def _basis_vector(self, tok: Token) -> np.ndarray:
        bits = tok.value
        if self.n_bits is None:
            self.n_bits = len(bits)
        elif len(bits) != self.n_bits:
            raise ParseError(
                f"ket |{bits}> has {len(bits)} bits, expected {self.n_bits}",
                tok.line, tok.column)
        index = sum(int(b) << j for j, b in enumerate(bits))
        vec = np.zeros(2 ** len(bits), dtype=complex)
        vec[index] = 1.0
        return vec


def parse_ket(text: str) -> np.ndarray:
    """Evaluate a ket expression to a complex vector (not normalised)."""
    return _KetParser(text).parse()


def ket_string(vec: np.ndarray, tol: float = 0.0, digits: int = None) -> str:
    """Render a vector as a parseable ket expression.  Entries with
    magnitude at most `tol` are dropped; `digits` rounds for display (full
    precision by default, in which case parse(ket_string(v)) == v)."""
    vec = np.asarray(vec, dtype=complex).reshape(-1)
    n = int(round(math.log2(vec.shape[0])))
    if 2 ** n != vec.shape[0]:
        raise ParseError(f"vector of dim {vec.shape[0]} is not a ket", 1, 1)

    def num(x: float) -> str:
        x = float(x)
        if digits is not None:
            x = float(f"%.{digits}g" % x)
        if x == int(x) and abs(x) < 1e15:
            return repr(int(x))
        return repr(x)

    parts = []
    for idx in range(vec.shape[0]):
        z = vec[idx]
        if abs(z) <= tol:
            continue
        bits = "".join(str((idx >> j) & 1) for j in range(n))
        if z.imag == 0.0:
            mag, sign = abs(z.real), z.real < 0
            coef = "" if mag == 1.0 else num(mag)
        elif z.real == 0.0:
            mag, sign = abs(z.imag), z.imag < 0
            coef = "i" if mag == 1.0 else num(mag) + "i"
        else:
            sign = False
            op = "+" if z.imag >= 0 else "-"
            coef = f"({num(z.real)}{op}{num(abs(z.imag))}i)"
        term = f"{coef}|{bits}>"
        if not parts:
            parts.append(("-" if sign else "") + term)
        else:
            parts.append(("- " if sign else "+ ") + term)
    if not parts:
        return "0|" + "0" * n + ">"
    return " ".join(parts)
