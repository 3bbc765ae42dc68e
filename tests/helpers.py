"""Shared random generators and small numeric oracles for the test suite."""

import hashlib
import re

import numpy as np

from qmc import channel as ch
from qmc import checker
from qmc import linalg as la
from qmc import logic as lg
from qmc import qts
from qmc.errors import ParseError
from qmc.parsing import EOF, IDENT, IMAG, NUMBER, PUNCT, STRING, Token


def random_unit_vector(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def random_psd(rng, d, rank=None):
    rank = rank or d
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    return g @ g.conj().T


def random_density(rng, d, rank=None):
    rho = random_psd(rng, d, rank)
    return rho / np.trace(rho).real


def random_subspace(rng, d, k):
    if k == 0:
        return la.Subspace.zero(d)
    g = rng.normal(size=(d, k)) + 1j * rng.normal(size=(d, k))
    return la.Subspace(la.orth_columns(g))


def random_channel(rng, n_qubits, n_kraus=3):
    """Random trace-preserving channel: Gaussian operators renormalised by
    the inverse square root of their squared sum."""
    d = 2 ** n_qubits
    gs = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
          for _ in range(n_kraus)]
    s = sum(g.conj().T @ g for g in gs)
    w, v = np.linalg.eigh(s)
    s_inv_half = v @ np.diag(w ** -0.5) @ v.conj().T
    return ch.SuperOperator.from_kraus([g @ s_inv_half for g in gs])


def random_unitary(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def block_unitary_channel(rng, n_qubits, block):
    """Unitary channel that is block diagonal over the first `block` basis
    vectors, so spans of leading basis states stay put under iteration."""
    d = 2 ** n_qubits
    u = np.zeros((d, d), dtype=complex)
    u[:block, :block] = random_unitary(rng, block)
    u[block:, block:] = random_unitary(rng, d - block)
    return ch.SuperOperator.unitary(u)


def permutation_mixture_channel(rng, n_qubits, block=None):
    """The 2-Kraus channel {sqrt(p) P_s, sqrt(1-p) P_t} for basis
    permutations s and t, as the reach-verify benchmark draws it.  With
    `block` (a sorted index array holding 0) s is one cycle through the
    block and both permutations keep it and its complement invariant, so
    the space reachable from |0...0> is span{|b> : b in block}."""
    d = 2 ** n_qubits
    if block is None:
        s, t = rng.permutation(d), rng.permutation(d)
    else:
        s, t = np.arange(d), np.arange(d)
        rest = np.setdiff1d(np.arange(d), block)
        cycle = rng.permutation(block)
        s[cycle] = np.roll(cycle, 1)
        t[block] = rng.permutation(block)
        s[rest] = rng.permutation(rest)
        t[rest] = rng.permutation(rest)
    p = float(rng.uniform(0.3, 0.7))
    return ch.SuperOperator.from_kraus(
        [np.sqrt(q) * np.eye(d)[perm].T for q, perm in ((p, s), (1.0 - p, t))])


def reference_vectorized_reach(chain, rho, rtol=la.TOL_EIG):
    """`reach.reachable_subspace_vectorized` on the materialised 4^n x 4^n
    matrix `channel.matrix_rep`: d - 1 dense matrix-vector products on
    vec(rho), renormalised by the Euclidean norm, read off by `la.schmidt`."""
    d = chain.dim
    m = ch.matrix_rep(chain.channel)
    phi_step = np.asarray(rho, dtype=complex).reshape(-1).copy()
    acc = phi_step.copy()
    for _ in range(d - 1):
        phi_step = m @ phi_step
        acc = acc + phi_step
        scale = np.linalg.norm(acc)
        acc = acc / scale
        phi_step = phi_step / scale
    terms = la.schmidt(acc, d, rtol)
    if not terms:
        return la.Subspace.zero(d)
    return la.Subspace(np.column_stack([left for _, left, _ in terms]))


def trace_distance(a, b):
    return 0.5 * float(np.abs(np.linalg.eigvalsh(a - b)).sum())


def dense_oracle_state(gates, psi):
    """Apply a list of full-register unitaries in order to a state vector."""
    out = np.asarray(psi, dtype=complex)
    for u in gates:
        out = u @ out
    return out


def random_loop_system(rng, n_qubits):
    """Single-location system looping on a random trace-preserving channel."""
    e = random_channel(rng, n_qubits, n_kraus=int(rng.integers(1, 4)))
    return qts.build_sequential(e, n_qubits, 0)


_CLOSING_GATES_1Q = ("I", "X", "Z", "H", "S")


def random_closing_qts(rng, n_qubits, n_locations):
    """Random system built from gates of finite order, measurement fan-outs,
    and flip noises: these tend to produce configuration graphs that close
    quickly, which the brute-force comparison tests need."""
    locations = [f"l{i}" for i in range(n_locations)]
    transitions = []
    for i, loc in enumerate(locations):
        kind = rng.choice(["gate", "measure", "noise"])
        if kind == "gate":
            post = locations[int(rng.integers(0, n_locations))]
            if n_qubits == 2 and rng.random() < 0.3:
                wires = (1, 2) if rng.random() < 0.5 else (2, 1)
                transitions.append(qts.gate_edge(loc, post, "CX", wires,
                                                 n_qubits))
            else:
                name = str(rng.choice(_CLOSING_GATES_1Q))
                q = int(rng.integers(1, n_qubits + 1))
                transitions.append(qts.gate_edge(loc, post, name, (q,),
                                                 n_qubits))
        elif kind == "measure":
            q = int(rng.integers(1, n_qubits + 1))
            for outcome in (0, 1):
                post = locations[int(rng.integers(0, n_locations))]
                transitions.append(qts.measure_edge(loc, post, (q,), outcome,
                                                    n_qubits))
        else:
            post = locations[int(rng.integers(0, n_locations))]
            p = float(rng.choice([0.25, 0.5, 0.75]))
            noise = ch.noise_library(str(rng.choice(["bit_flip",
                                                     "phase_flip"])), p)
            q = int(rng.integers(1, n_qubits + 1))
            transitions.append(qts.kraus_edge(loc, post, noise.kraus, (q,),
                                              n_qubits))
    return qts.QuantumTransitionSystem(n_qubits, tuple(locations),
                                       locations[0], tuple(transitions))


def random_prop(rng, atoms, depth=2):
    if depth <= 0 or rng.random() < 0.45:
        roll = rng.random()
        if roll < 0.7:
            return lg.Atom(str(rng.choice(atoms)))
        return lg.PTrue() if roll < 0.85 else lg.PFalse()
    kind = rng.choice(["not", "and", "or"])
    if kind == "not":
        return lg.NotQ(random_prop(rng, atoms, depth - 1))
    left = random_prop(rng, atoms, depth - 1)
    right = random_prop(rng, atoms, depth - 1)
    return lg.AndQ(left, right) if kind == "and" else lg.OrQ(left, right)


def random_state_formula(rng, atoms, depth):
    """Random sugar-free state formula of nesting depth at most `depth`."""
    if depth <= 0 or rng.random() < 0.25:
        return lg.Prop(random_prop(rng, atoms, 1))
    kind = rng.choice(["not", "and", "ex", "ax", "eu", "au"])
    if kind == "not":
        return lg.Not(random_state_formula(rng, atoms, depth - 1))
    if kind == "and":
        return lg.And(random_state_formula(rng, atoms, depth - 1),
                      random_state_formula(rng, atoms, depth - 1))
    if kind in ("ex", "ax"):
        sub = lg.Next(random_state_formula(rng, atoms, depth - 1))
        return lg.Exists(sub) if kind == "ex" else lg.Forall(sub)
    sub = lg.Until(random_state_formula(rng, atoms, depth - 1),
                   random_state_formula(rng, atoms, depth - 1))
    return lg.Exists(sub) if kind == "eu" else lg.Forall(sub)


_LEAF_GATES = ("H", "X", "Y", "Z", "S", "T")


def random_circuit(rng, n_qubits, depth):
    """Random dynamic circuit over gates, flip noises, and single-qubit
    measurements with both outcome branches."""
    if depth <= 0 or rng.random() < 0.3:
        q = int(rng.integers(1, n_qubits + 1))
        roll = rng.random()
        if roll < 0.45:
            return qts.Gate((q,), name=str(rng.choice(_LEAF_GATES)))
        if roll < 0.6 and n_qubits >= 2:
            wires = list(rng.choice(range(1, n_qubits + 1), size=2,
                                    replace=False))
            return qts.Gate(tuple(int(w) for w in wires), name="CX")
        noise = ch.noise_library(
            str(rng.choice(["bit_flip", "phase_flip", "bit_phase_flip"])),
            float(rng.random()))
        return qts.Gate((q,), op=noise)
    if rng.random() < 0.6:
        return qts.Seq(random_circuit(rng, n_qubits, depth - 1),
                       random_circuit(rng, n_qubits, depth - 1))
    q = int(rng.integers(1, n_qubits + 1))
    return qts.Cond(ch.computational_measurement(1), (q,), {
        0: random_circuit(rng, n_qubits, depth - 1),
        1: random_circuit(rng, n_qubits, depth - 1),
    })


def reference_fingerprint(state):
    """A whole-matrix digest: blake2b of (state + state^dagger)/2 rounded
    to FP_DECIMALS, -0.0 folded.  `dense_build_graph` buckets on it, so
    two states share a bucket only when every entry rounds alike."""
    sym = np.round((state + state.conj().T) / 2.0, checker.FP_DECIMALS)
    sym += 0.0
    return hashlib.blake2b(sym.tobytes(), digest_size=16).hexdigest()


def dense_step(system, config):
    """`qts.step` computed on the dense state: (sum_i E_i rho E_i^dagger)/p
    per outgoing transition, with p its trace."""
    results = []
    for t in system.outgoing(config.location):
        post = ch.apply(t.op, config.state)
        p = float(np.trace(post).real)
        if p > ch.TOL_PROB:
            post = (post + post.conj().T) / (2.0 * p)
            results.append((qts.Configuration(t.post, post,
                                              config.probability * p), p))
    return results


def dense_build_graph(system, rho0, bound=checker.DEFAULT_BOUND):
    """Reference for `checker.build_graph`, deduplicating on dense states by
    rounded-entry buckets: a successor merges into the first node of its
    (location, `reference_fingerprint`) bucket whose dense state is within
    TOL_FP of its own.  Node digests are computed on first read, as
    `build_graph`'s are."""
    root = qts.Configuration(system.initial, np.asarray(rho0, dtype=complex))
    nodes = [checker.GraphNode(0, root, None, 0)]
    buckets = {(root.location, reference_fingerprint(root.state)): [0]}
    frontier = [0]
    for _ in range(bound):
        if not frontier:
            break
        next_frontier = []
        for index in frontier:
            edges = []
            for succ, p in qts.step(system, nodes[index].config):
                state = succ.state
                key = (succ.location, reference_fingerprint(state))
                dst = None
                for cand in buckets.get(key, ()):
                    diff = np.abs(nodes[cand].config.state - state).max()
                    if diff <= checker.TOL_FP:
                        dst = cand
                        break
                if dst is None:
                    dst = len(nodes)
                    nodes.append(checker.GraphNode(dst, succ, None,
                                                   nodes[index].depth + 1))
                    buckets.setdefault(key, []).append(dst)
                    next_frontier.append(dst)
                edges.append((dst, p))
            nodes[index].complete = True
            nodes[index].out = tuple(edges)
        frontier = next_frontier
    closure = checker.COMPLETE if not frontier else ("truncated", bound)
    return checker.ConfigurationGraph(system, tuple(nodes), closure)



class ReferenceLabeling:
    """Three-valued CTL labeling by whole-graph fixpoint iteration, every
    operator written twice: for the nodes that certainly satisfy (lo) and
    for those that possibly do (hi).  This is the labeling that
    `checker._Labeling` replaced with one backward pass per fixpoint, kept
    as the reference it must match; `eval` returns the pair (lo, hi)."""

    def __init__(self, graph, bindings):
        self.graph = graph
        self.bindings = bindings
        self.all = frozenset(range(len(graph.nodes)))
        self.incomplete = frozenset(n.index for n in graph.nodes
                                    if not n.complete)
        self.out = {n.index: tuple(dst for dst, _ in n.out)
                    for n in graph.nodes}
        system = graph.system
        if all(system.outgoing(l) for l in system.locations):
            self.inf_lo = self.inf_hi = self.all
        else:
            self.inf_lo = self._inf(optimistic=False)
            self.inf_hi = self._inf(optimistic=True)

    def _inf(self, optimistic):
        live = set(self.all)
        while True:
            keep = {s for s in live
                    if (optimistic and s in self.incomplete)
                    or any(t in live for t in self.out[s])}
            if keep == live:
                return frozenset(live)
            live = keep

    def _pre(self, targets):
        return frozenset(s for s in self.all
                         if any(t in targets for t in self.out[s]))

    def _not(self, s):
        return self.all - s[1], self.all - s[0]

    def _ex(self, s):
        return (self._pre(s[0] & self.inf_lo),
                self._pre(s[1] & self.inf_hi) | self.incomplete)

    def _eu(self, a, b):
        lo = b[0] & self.inf_lo
        while True:
            grown = lo | (a[0] & self._pre(lo))
            if grown == lo:
                break
            lo = grown
        hi = b[1] & self.inf_hi
        while True:
            grown = hi | (a[1] & (self.incomplete | self._pre(hi)))
            if grown == hi:
                break
            hi = grown
        return lo, hi

    def _eg(self, s):
        lo = s[0]
        while True:
            shrunk = lo & self._pre(lo)
            if shrunk == lo:
                break
            lo = shrunk
        hi = s[1]
        while True:
            shrunk = hi & (self.incomplete | self._pre(hi))
            if shrunk == hi:
                break
            hi = shrunk
        return lo, hi

    def eval(self, formula):
        if isinstance(formula, lg.Prop):
            members = self.graph.label_set(formula.prop, self.bindings)
            return members, members
        if isinstance(formula, lg.Not):
            return self._not(self.eval(formula.sub))
        if isinstance(formula, lg.And):
            a, b = self.eval(formula.left), self.eval(formula.right)
            return a[0] & b[0], a[1] & b[1]
        path = formula.path
        if isinstance(formula, lg.Exists):
            if isinstance(path, lg.Next):
                return self._ex(self.eval(path.sub))
            return self._eu(self.eval(path.left), self.eval(path.right))
        if isinstance(path, lg.Next):
            # A X f = ! E X ! f
            return self._not(self._ex(self._not(self.eval(path.sub))))
        # A (f U g) = ! ( E(!g U (!f && !g)) || E G !g )
        nf = self._not(self.eval(path.left))
        ng = self._not(self.eval(path.right))
        eu = self._eu(ng, (nf[0] & ng[0], nf[1] & ng[1]))
        eg = self._eg(ng)
        return self._not((eu[0] | eg[0], eu[1] | eg[1]))


def random_closing_state(rng, n_qubits):
    """Initial states likely to produce small, closing orbits."""
    d = 2 ** n_qubits
    kind = rng.choice(["basis", "hadamard", "random"])
    if kind == "basis":
        v = np.zeros(d, dtype=complex)
        v[int(rng.integers(0, d))] = 1.0
    elif kind == "hadamard":
        h = ch.HADAMARD
        full = h
        for _ in range(n_qubits - 1):
            full = np.kron(full, h)
        v = full[:, int(rng.integers(0, d))]
    else:
        v = random_unit_vector(rng, d)
    return np.outer(v, v.conj())


_REF_NUMBER_RE = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?")
_REF_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def reference_tokenize(text, puncts):
    """`parsing.tokenize` as a character loop: the lexer the one-pass
    scanner replaced, kept as the reference its tokens and errors must
    match (it lexes an out-of-range literal as `inf`)."""
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
        m = _REF_NUMBER_RE.match(text, i)
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
        m = _REF_IDENT_RE.match(text, i)
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


def reference_parse_complex(ts):
    """`parsing.parse_complex` through the `TokenStream` cursor calls."""

    def part(sign):
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
    nxt = ts.peek(1)
    if ts.at_punct("+", "-") and (nxt.kind == IMAG or
                                  (nxt.kind == IDENT and nxt.text == "i")):
        s = -1.0 if ts.next().text == "-" else 1.0
        z += part(s)
    return z


def reference_parse_matrix(ts):
    """`parsing.parse_matrix` through the `TokenStream` cursor calls."""
    ts.expect_punct("[")
    rows = []
    while True:
        ts.expect_punct("[")
        row = [reference_parse_complex(ts)]
        while ts.accept_punct(","):
            row.append(reference_parse_complex(ts))
        ts.expect_punct("]")
        rows.append(tuple(row))
        if not ts.accept_punct(","):
            break
    ts.expect_punct("]")
    width = len(rows[0])
    if any(len(r) != width for r in rows) or len(rows) != width:
        ts.error("matrix must be square")
    return tuple(rows)


def token_key(tok):
    """A token as a tuple that tells 1 from 1.0 and -0.0 from 0.0."""
    return (tok.kind, tok.text, type(tok.value).__name__, repr(tok.value),
            tok.line, tok.column)
