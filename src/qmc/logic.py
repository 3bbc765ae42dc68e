"""Subspace-valued propositions and the temporal assertion language.

The propositional layer interprets atoms as closed subspaces; `~` is the
orthocomplement, `&` the intersection, and `|` the join, so a state
satisfies a proposition exactly when its support lies inside the denoted
subspace.  Note that `~` is NOT classical negation: a state can fail both
`[p]` and `[~p]`.

The temporal layer is CTL-shaped: state formulas combine bracketed
propositions with `!`, `&&`, `->` and the path quantifiers `E`/`A`; path
formulas are `X f`, `f U g`, and the sugar `F f` / `G f`, expanded at parse
time so downstream code only ever sees Next and Until.

Assertion files bind atoms with `let name = span { "ket", ... }` or
`let name = matrix [[...], ...]` and state properties with
`assert "label" : formula` (grammar in docs/assertion_format.md).
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from . import linalg as la
from .errors import DimensionMismatch, ParseError, UnboundAtom
from .kets import ket_string, parse_ket
from .parsing import (EOF, IDENT, MAX_DEPTH, STRING, TokenStream,
                      parse_matrix, parse_text)

_PUNCTS = ["&&", "->", "!", "~", "&", "|", "[", "]", "(", ")", "{", "}",
           ",", ":", "=", "+", "-"]


# --- propositional layer ---------------------------------------------------

@dataclass(frozen=True)
class PTrue:
    pass


@dataclass(frozen=True)
class PFalse:
    pass


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class NotQ:
    sub: object


@dataclass(frozen=True)
class AndQ:
    left: object
    right: object


@dataclass(frozen=True)
class OrQ:
    left: object
    right: object


def eval_prop(prop, bindings: dict, ambient_dim: int = None) -> la.Subspace:
    """Denotation of a proposition given atom bindings.  `ambient_dim` is
    only needed when the proposition mentions no atoms at all.  `~p` and
    `true` come out as co-bases (see `linalg.Subspace`): membership in them
    is tested without a basis of the complement."""
    dim = ambient_dim
    for sub in _atoms(prop):
        if sub.name not in bindings:
            raise UnboundAtom(f"atom {sub.name!r} is not bound")
        d = bindings[sub.name].ambient_dim
        if dim is None:
            dim = d
        elif d != dim:
            raise DimensionMismatch(
                f"atom {sub.name!r} lives in dim {d}, expected {dim}")
    if dim is None:
        raise DimensionMismatch(
            "cannot infer the ambient dimension of a constant proposition")

    def go(p):
        if isinstance(p, PTrue):
            return la.Subspace.full(dim)
        if isinstance(p, PFalse):
            return la.Subspace.zero(dim)
        if isinstance(p, Atom):
            return bindings[p.name]
        if isinstance(p, NotQ):
            return la.orthocomplement(go(p.sub))
        if isinstance(p, AndQ):
            return la.intersect(go(p.left), go(p.right))
        if isinstance(p, OrQ):
            return la.join([go(p.left), go(p.right)])
        raise TypeError(f"not a proposition: {p!r}")

    return go(prop)


def _atoms(prop):
    if isinstance(prop, Atom):
        yield prop
    elif isinstance(prop, NotQ):
        yield from _atoms(prop.sub)
    elif isinstance(prop, (AndQ, OrQ)):
        yield from _atoms(prop.left)
        yield from _atoms(prop.right)


def satisfies_atomic(rho: np.ndarray, prop, bindings: dict) -> bool:
    """Whether a state satisfies a proposition: supp(rho) inside the
    denoted subspace.  Invariant under positive scaling of rho."""
    rho = np.asarray(rho, dtype=complex)
    target = eval_prop(prop, bindings, ambient_dim=rho.shape[0])
    return la.contains(target, la.support(rho))


# --- temporal layer ----------------------------------------------------------

@dataclass(frozen=True)
class Prop:
    prop: object


@dataclass(frozen=True)
class Not:
    sub: object


@dataclass(frozen=True)
class And:
    left: object
    right: object


@dataclass(frozen=True)
class Exists:
    path: object


@dataclass(frozen=True)
class Forall:
    path: object


@dataclass(frozen=True)
class Next:
    sub: object


@dataclass(frozen=True)
class Until:
    left: object
    right: object


TRUE = Prop(PTrue())
FALSE = Prop(PFalse())


class _FormulaParser:
    """Recursive descent over the token stream, one pass with no
    backtracking.  Precedence, loosest first: `->` (right associative),
    `&&`, then the prefix operators `!`, `E`, `A`.  After a quantifier
    comes a path formula: `X f`, `F f`, `G f`, a parenthesised path
    formula, or `f U g`.  A `(` there opens a path group when its content
    is a path formula; when it is a state formula, the group opens the
    left side of `f U g` as its first operand, and parsing goes on.

    Every method returns a tree with its height: the nodes on its longest
    path down, sugar expanded.  `depth` counts the tree levels known to lie
    above the part being parsed, and `nesting` the operators, brackets and
    parentheses open around it in the text.  A formula whose height or
    nesting passes MAX_DEPTH is refused at the token where that shows, and
    no operand or group is entered at that nesting, so neither the parser
    nor any recursive pass over its trees goes deeper.  A printed formula
    nests no deeper than its tree, so it parses again."""

    def __init__(self, ts: TokenStream):
        self.ts = ts
        self.depth = 0
        self.nesting = 0

    def _refuse(self, tok):
        raise ParseError(f"formula nests deeper than {MAX_DEPTH} levels",
                         tok.line, tok.column)

    def _fits(self, tok, height: int) -> int:
        if self.depth + height > MAX_DEPTH:
            self._refuse(tok)
        return height

    @contextlib.contextmanager
    def _below(self, tok, group=False):
        """Parse the operand of the construct at `tok`, one tree level
        down, or the content of the group it opens, at the same level."""
        if self.nesting + 2 > MAX_DEPTH:
            self._refuse(tok)
        levels = 0 if group else 1
        self.depth += levels
        self.nesting += 1
        yield
        self.depth -= levels
        self.nesting -= 1

    def _chain(self, punct, node, operand, first=None):
        """Left-associative `a op b op c`, read node(node(a, b), c); `first`
        is `a` with its height when it has already been parsed."""
        left, height = first or operand()
        while self.ts.at_punct(punct):
            tok = self.ts.next()
            right, right_height = operand()
            left = node(left, right)
            height = self._fits(tok, 1 + max(height, right_height))
        return left, height

    def state(self, first=None):
        left, height = self._chain("&&", And, self.unary, first)
        if not self.ts.at_punct("->"):
            return left, height
        tok = self.ts.next()
        with self._below(tok):
            right, right_height = self.state()
        # f -> g is !(f && !g)
        return (Not(And(left, Not(right))),
                self._fits(tok, max(height + 2, right_height + 3)))

    def unary(self):
        tok = self.ts.peek()
        if self.ts.at_punct("!"):
            self.ts.next()
            with self._below(tok):
                sub, height = self.unary()
            return Not(sub), self._fits(tok, height + 1)
        if self.ts.at_keyword("E", "A"):
            self.ts.next()
            quant, dual = (Exists, Forall) if tok.text == "E" \
                else (Forall, Exists)
            with self._below(tok):
                kind, payload, height = self.path()
            if kind == "path":
                return quant(payload), self._fits(tok, height + 1)
            # G f expands with its quantifier: E G f = !A(true U !f) and dually
            return (Not(dual(Until(TRUE, Not(payload)))),
                    self._fits(tok, height + 4))
        return self.primary()

    def path(self, grouped=False):
        """(kind, tree, height): kind "path" for X, F and U, whose tree is
        the path formula, and "G" for `G f`, whose tree is f, as its
        expansion needs the quantifier.  In a group's content (`grouped`),
        kind "state" is a state formula that no `U` follows."""
        tok = self.ts.peek()
        if self.ts.at_keyword("X", "F", "G"):
            self.ts.next()
            with self._below(tok):
                sub, height = self.unary()
            if tok.text == "X":
                return "path", Next(sub), self._fits(tok, height + 1)
            if tok.text == "F":
                return ("path", Until(TRUE, sub),
                        self._fits(tok, max(height, 2) + 1))
            return "G", sub, height
        first = None
        if self.ts.at_punct("("):
            self.ts.next()
            with self._below(tok, group=True):
                kind, payload, height = self.path(grouped=True)
            self.ts.expect_punct(")")
            if kind != "state":
                return kind, payload, height
            first = payload, height  # it opens the `f` of `f U g`
        left, left_height = self.state(first)
        if grouped and not self.ts.at_keyword("U"):
            return "state", left, left_height
        tok = self.ts.expect_keyword("U")
        right, right_height = self.state()
        return ("path", Until(left, right),
                self._fits(tok, 1 + max(left_height, right_height)))

    def primary(self):
        tok = self.ts.peek()
        if self.ts.at_punct("("):
            self.ts.next()
            with self._below(tok, group=True):
                inner = self.state()
            self.ts.expect_punct(")")
            return inner
        if self.ts.at_keyword("true", "false"):
            self.ts.next()
            return TRUE if tok.text == "true" else FALSE, self._fits(tok, 2)
        if self.ts.at_punct("["):
            self.ts.next()
            with self._below(tok):
                prop, height = self.prop_or()
            self.ts.expect_punct("]")
            return Prop(prop), self._fits(tok, height + 1)
        self.ts.error("expected a state formula")

    def prop_or(self):
        return self._chain("|", OrQ, self.prop_and)

    def prop_and(self):
        return self._chain("&", AndQ, self.prop_not)

    def prop_not(self):
        tok = self.ts.peek()
        if self.ts.at_punct("~"):
            self.ts.next()
            with self._below(tok):
                sub, height = self.prop_not()
            return NotQ(sub), self._fits(tok, height + 1)
        if self.ts.at_punct("("):
            self.ts.next()
            with self._below(tok, group=True):
                inner = self.prop_or()
            self.ts.expect_punct(")")
            return inner
        if self.ts.at_keyword("true", "false"):
            self.ts.next()
            return PTrue() if tok.text == "true" else PFalse(), 1
        if tok.kind == IDENT:
            self.ts.next()
            return Atom(tok.text), 1
        self.ts.error("expected an atomic proposition")


def parse_formula(text: str):
    """Parse one state formula."""
    return parse_text(text, _PUNCTS, _parse_formula)


def _parse_formula(ts: TokenStream):
    formula, _ = _FormulaParser(ts).state()
    tok = ts.peek()
    if tok.kind != EOF:
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.column)
    return formula


def print_prop(prop) -> str:
    if isinstance(prop, PTrue):
        return "true"
    if isinstance(prop, PFalse):
        return "false"
    if isinstance(prop, Atom):
        return prop.name
    if isinstance(prop, NotQ):
        return "~" + _prop_tight(prop.sub)
    if isinstance(prop, AndQ):
        return f"{_prop_tight(prop.left)} & {_prop_tight(prop.right)}"
    if isinstance(prop, OrQ):
        return f"{_prop_tight(prop.left)} | {_prop_tight(prop.right)}"
    raise TypeError(f"not a proposition: {prop!r}")


def _prop_tight(prop) -> str:
    if isinstance(prop, (AndQ, OrQ)):
        return "(" + print_prop(prop) + ")"
    return print_prop(prop)


def print_formula(formula) -> str:
    """Canonical text: parse(print_formula(f)) == f for sugar-free ASTs."""
    if isinstance(formula, Prop):
        if isinstance(formula.prop, PTrue):
            return "true"
        if isinstance(formula.prop, PFalse):
            return "false"
        return "[" + print_prop(formula.prop) + "]"
    if isinstance(formula, Not):
        return "! " + _state_tight(formula.sub)
    if isinstance(formula, And):
        return f"{_state_tight(formula.left)} && {_state_tight(formula.right)}"
    if isinstance(formula, Exists):
        return "E " + _print_path(formula.path)
    if isinstance(formula, Forall):
        return "A " + _print_path(formula.path)
    raise TypeError(f"not a state formula: {formula!r}")


def _state_tight(formula) -> str:
    if isinstance(formula, And):
        return "(" + print_formula(formula) + ")"
    return print_formula(formula)


def _print_path(path) -> str:
    if isinstance(path, Next):
        return "X " + _state_tight(path.sub)
    if isinstance(path, Until):
        return f"({print_formula(path.left)} U {print_formula(path.right)})"
    raise TypeError(f"not a path formula: {path!r}")


# --- assertion files ---------------------------------------------------------

@dataclass(frozen=True)
class Assertion:
    label: str
    formula: object


@dataclass(frozen=True)
class AssertionDoc:
    bindings: dict  # name -> Subspace
    assertions: tuple

    def __post_init__(self):
        object.__setattr__(self, "bindings", dict(self.bindings))
        object.__setattr__(self, "assertions", tuple(self.assertions))


def parse_assertions(text: str) -> AssertionDoc:
    """Parse an assertion file of `let` bindings and labelled `assert`s."""
    return parse_text(text, _PUNCTS, _parse_assertions)


def _parse_assertions(ts: TokenStream) -> AssertionDoc:
    bindings = {}
    assertions = []
    while ts.peek().kind != EOF:
        if ts.at_keyword("let"):
            ts.next()
            name_tok = ts.expect_ident("binding name")
            if name_tok.text in ("true", "false"):
                raise ParseError(f"{name_tok.text!r} is reserved",
                                 name_tok.line, name_tok.column)
            ts.expect_punct("=")
            if ts.at_keyword("span"):
                ts.next()
                ts.expect_punct("{")
                vectors = []
                while True:
                    tok = ts.peek()
                    if tok.kind != STRING:
                        ts.error("expected a ket string")
                    ts.next()
                    try:
                        vectors.append(parse_ket(tok.value))
                    except ParseError as exc:
                        raise ParseError(
                            f"in ket string: {exc}", tok.line, tok.column)
                    if not ts.accept_punct(","):
                        break
                ts.expect_punct("}")
                dims = {v.shape[0] for v in vectors}
                if len(dims) != 1:
                    raise ParseError("kets in a span must have equal "
                                     "qubit counts", name_tok.line,
                                     name_tok.column)
                bindings[name_tok.text] = la.Subspace.span(vectors)
            elif ts.at_keyword("matrix"):
                ts.next()
                bindings[name_tok.text] = la.Subspace(
                    la.orth_columns(parse_matrix(ts)))
            else:
                ts.error("expected span or matrix")
        elif ts.at_keyword("assert"):
            ts.next()
            label_tok = ts.peek()
            if label_tok.kind != STRING:
                ts.error("expected a quoted assertion label")
            ts.next()
            ts.expect_punct(":")
            formula, _ = _FormulaParser(ts).state()
            assertions.append(Assertion(label_tok.value, formula))
        else:
            ts.error("expected let or assert")
    return AssertionDoc(bindings, tuple(assertions))


def serialize_assertions(doc: AssertionDoc) -> str:
    """Canonical text for an assertion document (full-precision kets, so
    parse -> serialize -> parse is exact)."""
    lines = []
    for name in doc.bindings:
        sub = doc.bindings[name]
        kets = ", ".join(f'"{ket_string(col)}"' for col in sub.basis.T)
        if sub.dim == 0:
            lines.append(f"let {name} = span {{ \"0|{'0' * _nbits(sub)}>\" }}")
        else:
            lines.append(f"let {name} = span {{ {kets} }}")
    if lines:
        lines.append("")
    for a in doc.assertions:
        lines.append(f'assert "{a.label}" : {print_formula(a.formula)}')
    return "\n".join(lines) + "\n"


def _nbits(sub: la.Subspace) -> int:
    return max(1, int(round(math.log2(sub.ambient_dim))))
