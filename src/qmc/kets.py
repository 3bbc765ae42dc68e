"""Parsing and printing of ket-string expressions like
"(|01> + |10>)/sqrt2" or "0.6|000> - (0.3+0.4i)|001>".

The bit string inside |...> is little-endian: character j is the bit of
qubit j, with weight 2**(j-1).  See docs/assertion_format.md for the
grammar.  The text is lexed by `parsing.tokenize`, so whitespace and
`#` comments may stand between tokens as in any file.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParseError
from .parsing import (_KET_PUNCTS, KET, MAX_DEPTH, NUMBER, PUNCT, Token,
                      TokenStream, _complex_at, _format_real, _is_part, _part,
                      tokenize)


class _KetParser:
    """Recursive descent in one pass that evaluates as it goes; only a
    parenthesised group recurses, so the syntax tree's depth is one for
    the ket plus one per group around it, at most MAX_DEPTH.  At a `(`,
    `coef` reads the complex literal that may follow: when `)` closes it,
    the parentheses hold a coefficient, and otherwise the `(` opens a
    group, since a group holds a ket before its `)` and a literal holds
    none."""

    def __init__(self, text: str):
        self.ts = TokenStream(tokenize(text, _KET_PUNCTS))
        self.n_bits = None
        self.depth = 1

    def parse(self) -> np.ndarray:
        vec = self.sum()
        if self.ts.peek().kind != "EOF":
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
            tok = self.ts.peek()
            divisor = self.scalar()
            if divisor == 0:
                raise ParseError("division by zero", tok.line, tok.column)
            vec = vec / divisor
        return vec

    def factor(self) -> np.ndarray:
        coef = self.coef()
        if coef is None:
            coef = 1.0 + 0.0j
        else:
            self.ts.accept_punct("*")
        tok = self.ts.peek()
        if tok.kind == KET:
            self.ts.next()
            return coef * self._basis_vector(tok)
        if self.ts.at_punct("("):
            self.ts.next()
            if self.depth == MAX_DEPTH:
                raise ParseError(f"ket expression nests deeper than "
                                 f"{MAX_DEPTH} levels", tok.line, tok.column)
            self.depth += 1
            vec = self.sum()
            self.depth -= 1
            self.ts.expect_punct(")")
            return coef * vec
        self.ts.error("expected a ket")

    def scalar(self) -> complex:
        if self.ts.accept_punct("sqrt"):
            num = self.ts.peek()
            if num.kind != NUMBER:
                self.ts.error("expected a number after sqrt")
            self.ts.next()
            return complex(math.sqrt(float(num.value)))
        z = self.coef()
        if z is None:
            self.ts.error("expected a scalar")
        return z

    def coef(self):
        """The coefficient at the cursor, a number, an imaginary number, `i`
        or a complex literal in parentheses, read by `parsing._part` and
        `_complex_at`; None, with the cursor left in place, at any other
        token and at a `(` that opens a group."""
        ts = self.ts
        toks, i = ts.tokens, ts.pos
        if _is_part(toks[i]):
            ts.pos = i + 1
            return _part(ts, i, 1.0)
        if not ts.at_punct("("):
            return None
        first = i + 2 if toks[i + 1].text in ("+", "-") else i + 1
        if not _is_part(toks[first]):
            return None
        z, i = _complex_at(ts, i + 1)
        if toks[i].kind != PUNCT or toks[i].text != ")":
            return None
        ts.pos = i + 1
        return z

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
    """Evaluate a ket expression to a complex vector (not normalised); an
    amplitude that overflows is a ParseError."""
    with np.errstate(over="ignore", invalid="ignore"):
        vec = _KetParser(text).parse()
    if not np.isfinite(vec).all():
        raise ParseError("ket amplitude overflows", 1, 1)
    return vec


def ket_string(vec: np.ndarray, digits: int = None) -> str:
    """Render a vector as a parseable ket expression.  Zero entries are
    dropped; `digits` rounds for display (full precision by default, in
    which case parse(ket_string(v)) == v)."""
    vec = np.asarray(vec, dtype=complex).reshape(-1)
    n = int(round(math.log2(vec.shape[0])))
    if 2 ** n != vec.shape[0]:
        raise ParseError(f"vector of dim {vec.shape[0]} is not a ket", 1, 1)

    def num(x: float) -> str:
        if digits is not None:
            x = float(f"%.{digits}g" % x)
        return _format_real(x)

    parts = []
    for idx in range(vec.shape[0]):
        z = vec[idx]
        if z == 0:
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
