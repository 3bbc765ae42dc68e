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

import math
from dataclasses import dataclass

import numpy as np

from . import linalg as la
from .errors import DimensionMismatch, ParseError, UnboundAtom
from .kets import ket_string, parse_ket
from .parsing import EOF, IDENT, STRING, TokenStream, parse_matrix, tokenize

_PUNCTS = ["&&", "->", "!", "~", "&", "|", "[", "]", "(", ")", "{", "}",
           ",", ":", "="]


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
    """Recursive descent over the token stream.  Precedence, loosest first:
    `->` (right associative), `&&`, then the prefix operators `!`, `E`, `A`.
    After a quantifier comes a path formula: `X f`, `F f`, `G f`, a
    parenthesised path formula, or `f U g`."""

    def __init__(self, ts: TokenStream):
        self.ts = ts

    def state(self):
        left = self.conj()
        if self.ts.at_punct("->"):
            self.ts.next()
            right = self.state()
            return Not(And(left, Not(right)))
        return left

    def conj(self):
        left = self.unary()
        while self.ts.at_punct("&&"):
            self.ts.next()
            left = And(left, self.unary())
        return left

    def unary(self):
        if self.ts.at_punct("!"):
            self.ts.next()
            return Not(self.unary())
        if self.ts.at_keyword("E"):
            self.ts.next()
            return self.quantified(Exists, Forall)
        if self.ts.at_keyword("A"):
            self.ts.next()
            return self.quantified(Forall, Exists)
        return self.primary()

    def quantified(self, quant, dual):
        kind, payload = self.path()
        if kind == "path":
            return quant(payload)
        # G f expands with its quantifier: E G f = !A(true U !f) and dually
        return Not(dual(Until(TRUE, Not(payload))))

    def path(self):
        if self.ts.at_keyword("X"):
            self.ts.next()
            return "path", Next(self.unary())
        if self.ts.at_keyword("F"):
            self.ts.next()
            return "path", Until(TRUE, self.unary())
        if self.ts.at_keyword("G"):
            self.ts.next()
            return "G", self.unary()
        if self.ts.at_punct("("):
            # try a parenthesised path formula, fall back to `state U state`
            saved = self.ts.pos
            self.ts.next()
            try:
                kind, payload = self.path()
                self.ts.expect_punct(")")
                return kind, payload
            except ParseError:
                self.ts.pos = saved
        left = self.state()
        self.ts.expect_keyword("U")
        right = self.state()
        return "path", Until(left, right)

    def primary(self):
        if self.ts.at_punct("("):
            self.ts.next()
            inner = self.state()
            self.ts.expect_punct(")")
            return inner
        if self.ts.at_keyword("true"):
            self.ts.next()
            return TRUE
        if self.ts.at_keyword("false"):
            self.ts.next()
            return FALSE
        if self.ts.at_punct("["):
            self.ts.next()
            prop = self.prop_or()
            self.ts.expect_punct("]")
            return Prop(prop)
        self.ts.error("expected a state formula")

    def prop_or(self):
        left = self.prop_and()
        while self.ts.at_punct("|"):
            self.ts.next()
            left = OrQ(left, self.prop_and())
        return left

    def prop_and(self):
        left = self.prop_not()
        while self.ts.at_punct("&"):
            self.ts.next()
            left = AndQ(left, self.prop_not())
        return left

    def prop_not(self):
        if self.ts.at_punct("~"):
            self.ts.next()
            return NotQ(self.prop_not())
        if self.ts.at_punct("("):
            self.ts.next()
            inner = self.prop_or()
            self.ts.expect_punct(")")
            return inner
        if self.ts.at_keyword("true"):
            self.ts.next()
            return PTrue()
        if self.ts.at_keyword("false"):
            self.ts.next()
            return PFalse()
        tok = self.ts.peek()
        if tok.kind == IDENT:
            self.ts.next()
            return Atom(tok.text)
        self.ts.error("expected an atomic proposition")


def parse_formula(text: str):
    """Parse one state formula."""
    ts = TokenStream(tokenize(text, _PUNCTS))
    formula = _FormulaParser(ts).state()
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
    ts = TokenStream(tokenize(text, _PUNCTS))
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
                rows = parse_matrix(ts)
                mat = np.array(rows, dtype=complex)
                bindings[name_tok.text] = la.Subspace(la.orth_columns(mat))
            else:
                ts.error("expected span or matrix")
        elif ts.at_keyword("assert"):
            ts.next()
            label_tok = ts.peek()
            if label_tok.kind != STRING:
                ts.error("expected a quoted assertion label")
            ts.next()
            ts.expect_punct(":")
            assertions.append(Assertion(label_tok.value,
                                        _FormulaParser(ts).state()))
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
