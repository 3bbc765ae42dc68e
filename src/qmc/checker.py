"""Model checking of temporal assertions over configuration graphs.

A configuration graph is the explicit-state unfolding of a transition
system from an initial state: nodes are (location, state) pairs, edges
follow the system's transitions with their branch probabilities.  Every
node, the root included, holds only its state's spectral factor: the
root is given as a configuration (the CLI gives a ket as its rank-1
factor, never as a dense state) or as a dense state, decomposed once.
Two states at one location share a node when no entry differs by more
than TOL_FP, found by a range query on a scalar key and confirmed on the
factors (see `build_graph`).  The key reads the state along the first
probe of the digest's block below, so one seeded draw serves both.  The
confirm is certified in O(d r^2) for factors of rank r: a bound on the
largest entry of the difference accepts, an exact diagonal entry refuses,
each with a stated rounding margin, and only a pair within that margin of
TOL_FP is left to the O(d^2 r) blockwise check (`_within_tol`), so every
merge is the one the blockwise check alone makes.

A state's digest names it in traces and reports.  It hashes the rounded
m x m sketch V^dagger rho V for a fixed, seeded complex Gaussian d x m
probe block V, m = min(d, 16) (a randomized range sketch after Halko,
Martinsson and Tropp, SIAM Review 2011).  Equal states get equal digests,
and distinct states are told apart almost surely; for d <= 16, V is
square and invertible, so the sketch determines the state.  A node's
digest is computed only when a trace shows it, from its factor in
O(d r m).

Exploration is breadth-first up to a bound; if unexpanded nodes remain
the graph is truncated and verdicts become three-valued.

Checking labels every node with the state subformulas, three-valued; an
atomic proposition tests every node's support in one batched pass.  One
evaluator gives the nodes that certainly satisfy a formula and those that
possibly do, which differ only on truncated graphs, so `holds` and `fails`
are only ever reported when the explored prefix already decides them.  EX
is a pre-image; EU is one backward search and EG one backward pass that
counts each node's edges into the region, both over predecessor lists, so
each operator costs time linear in the graph.  Branch probabilities are
carried for reporting; verdicts ignore them.  Traces start at the root; a
lasso counterexample is the path from the root that closes a cycle.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from . import linalg as la
from . import logic as lg
from . import qts as q
from .errors import NoTraceAvailable, UnboundAtom, UnknownLocation
from .linalg import TOL_FP

FP_DECIMALS = 7     # fingerprint rounding, decimal places
SKETCH_PROBES = 16  # columns of the digest's probe block, at most d
DEFAULT_BOUND = 64  # exploration depth when none is given
_SKETCH_SEED = 1    # seed of the digest's probe block

COMPLETE = "complete"


@functools.lru_cache(maxsize=None)
def _probes(d: int) -> np.ndarray:
    """V^dagger for the sketch's probe block V, a d x m complex Gaussian,
    m = min(d, SKETCH_PROBES): an m x d array of standard normal (real,
    imaginary) pairs from a generator seeded with _SKETCH_SEED, so it is
    the same in every run.  Built once per d and kept read-only."""
    m = min(d, SKETCH_PROBES)
    rng = np.random.default_rng(_SKETCH_SEED)
    vh = rng.standard_normal((m, 2 * d)).view(complex)
    vh.setflags(write=False)
    return vh


def _sketch_digest(sketch: np.ndarray) -> str:
    """Hex digest of (S + S^dagger)/2 rounded to FP_DECIMALS, -0.0 folded
    into +0.0, for the m x m sketch S."""
    sym = np.round((sketch + sketch.conj().T) / 2.0, FP_DECIMALS)
    sym += 0.0  # fold -0.0 into +0.0
    return hashlib.blake2b(sym.tobytes(), digest_size=16).hexdigest()


def fingerprint(state: np.ndarray) -> str:
    """The digest that names a state in traces and reports: a hash of the
    rounded sketch S = V^dagger rho V of the d x d state rho, for the fixed
    seeded probe block V (`_probes`).  This dense route costs O(d^2 m); a
    graph node is digested from its factor by `spectral_fingerprint`, which
    gives the same digest."""
    vh = _probes(len(state))
    return _sketch_digest((vh @ state) @ vh.conj().T)


def spectral_fingerprint(vecs: np.ndarray, vals: np.ndarray) -> str:
    """`fingerprint` of vecs diag(vals) vecs^dagger from the factor: with
    W = V^dagger U (m x r), S = (W lambda) W^dagger, in O(d r m) and
    without a d x d array."""
    w = _probes(len(vecs)) @ vecs
    return _sketch_digest((w * vals) @ w.conj().T)


@dataclass(eq=False)
class GraphNode:
    """A configuration of the graph.  `digest` is the `fingerprint` of its
    state, computed from the node's spectral factor on first read (only
    nodes on a trace need it); `_digest` holds it once known."""

    index: int
    config: q.Configuration
    _digest: str
    depth: int
    complete: bool = False
    out: tuple = ()  # (dst index, branch probability) pairs

    @property
    def digest(self) -> str:
        if self._digest is None:
            self._digest = spectral_fingerprint(*self.config.spectrum)
        return self._digest


@dataclass(frozen=True, eq=False)
class ConfigurationGraph:
    system: q.QuantumTransitionSystem
    nodes: tuple
    closure: object  # COMPLETE or ("truncated", bound)
    _labels: dict = field(default_factory=dict, repr=False)
    _supports: dict = field(default_factory=dict, repr=False)

    @property
    def edge_count(self) -> int:
        return sum(len(n.out) for n in self.nodes)

    def label_set(self, prop, bindings: dict, member_tol: float = None,
                  eig_tol: float = None) -> frozenset:
        """Indices of the nodes whose state's support lies in the denoted
        subspace; cached per proposition, the subspaces bound to its atoms
        and the tolerances.  Each support is read from the node's spectral
        factor (`Configuration.support`) once per `eig_tol` and kept, so
        labeling decomposes no state and reads no factor twice, and `~p`
        and `true` denote co-bases (`linalg.Subspace`), so it builds no
        d x d basis for them either.  All supports are tested against the
        subspace in one batched pass (`linalg.contains_each`), which
        decides every node as `linalg.contains` does."""
        member_tol = la.TOL_MEMBER if member_tol is None else member_tol
        eig_tol = la.TOL_EIG if eig_tol is None else eig_tol
        # Subspaces hash by identity, so rebinding an atom misses the cache.
        subspaces = []
        for atom in lg._atoms(prop):
            if atom.name not in bindings:
                raise UnboundAtom(f"atom {atom.name!r} is not bound")
            subspaces.append(bindings[atom.name])
        key = (lg.print_prop(prop), tuple(subspaces), member_tol, eig_tol)
        if key not in self._labels:
            target = lg.eval_prop(prop, bindings,
                                  ambient_dim=2 ** self.system.n_qubits)
            if eig_tol not in self._supports:
                self._supports[eig_tol] = [n.config.support(eig_tol)
                                           for n in self.nodes]
            inside = la.contains_each(target, self._supports[eig_tol],
                                      member_tol)
            self._labels[key] = frozenset(np.flatnonzero(inside).tolist())
        return self._labels[key]


def _key(factor: np.ndarray, v: np.ndarray) -> float:
    """<v|rho|v> = |L^dagger v|^2 for rho = L L^dagger, in O(d r)."""
    w = factor.conj().T @ v
    return float(np.vdot(w, w).real)


_UNIT = np.finfo(float).eps / 2  # unit roundoff of a float64 operation


def _abs2(m: np.ndarray) -> np.ndarray:
    """|m_ij|^2 for each entry of a complex array."""
    return m.real ** 2 + m.imag ** 2


def _within_tol(a: np.ndarray, spectrum) -> bool:
    """Whether max |A A^dagger - B B^dagger| <= TOL_FP, for a node's factor
    A and a successor's spectrum (Q, lambda), B = Q sqrt(lambda): the
    decision of `_blockwise_within_tol`, certified in O(d r^2) when it
    can be, and left to that O(d^2 r) check otherwise.

    *Bound.*  With C = Q^dagger A and R = A - Q C,
    A A^dagger - B B^dagger = Q (C C^dagger - Lambda) Q^dagger
    + Q C R^dagger + R C^dagger Q^dagger + R R^dagger.  This holds for the
    computed C too, with R defined from it.  No row of Q has norm above 1
    (up to the orthonormality defect `Configuration.from_factor` admits),
    and the Frobenius norm bounds the 2-norm, so no entry of the difference
    exceeds beta = |C C^dagger - Lambda|_F + 2 |C|_F max_i |R_i|
    + max_i |R_i|^2.  The merge is accepted when beta <= TOL_FP - margin,
    and refused when an exact diagonal entry |A_i|^2 - |B_i|^2 differs
    from 0 by more than TOL_FP + margin.

    *Margin.*  Both states have unit trace, so every row of A, B and Q has
    norm at most about 1, every entry of either state at most 1, and
    |C|_F about 1.  A complex inner product of length k then errs by at
    most about 1.5 k u (u the unit roundoff; Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, ch. 3).  The blockwise
    check's entries err by at most 1.5 (r_A + r_B) u + 6u, and rounding
    Q sqrt(lambda) moves B B^dagger by at most 6u an entry.  The r x r
    product C C^dagger and the rows of R err by at most 1.5 r_A u + 2u
    and 1.5 r_B u + 4u, each at most twice in beta, and the diagonals by
    2 r_A u + (r_B + 2) u.  The norms in beta err relatively by at most
    (r_A + r_B + 2)^2 u, and Q's rows by r_B TOL_ORTHO, relative to beta,
    which is at most TOL_FP where it decides.  So
    margin = 16 (r_A + r_B + 2) u + TOL_FP (r_B TOL_ORTHO
    + (r_A + r_B + 2)^2 u), about 3e-14 at ranks 8, covers every
    rounding: a decision made here is the blockwise check's."""
    q, lam = spectrum
    ranks = a.shape[1] + len(lam)
    margin = 16 * (ranks + 2) * _UNIT + TOL_FP * (
        len(lam) * la.TOL_ORTHO + (ranks + 2) ** 2 * _UNIT)
    c = q.conj().T @ a
    resid = float(np.sqrt(_abs2(a - q @ c).sum(axis=1).max()))
    bound = (np.linalg.norm(c @ c.conj().T - np.diag(lam))
             + 2.0 * np.linalg.norm(c) * resid + resid ** 2)
    if bound <= TOL_FP - margin:
        return True
    if np.abs(_abs2(a).sum(axis=1) - _abs2(q) @ lam).max() > TOL_FP + margin:
        return False
    return _blockwise_within_tol(a, q * np.sqrt(lam))


def _blockwise_within_tol(a: np.ndarray, b: np.ndarray) -> bool:
    """max |A A^dagger - B B^dagger| <= TOL_FP, computed a block of rows
    at a time so no d x d matrix is built."""
    ah, bh = a.conj().T, b.conj().T
    for rows in la.row_blocks(len(a), len(a)):
        diff = a[rows] @ ah
        diff -= b[rows] @ bh
        if np.abs(diff).max() > TOL_FP:
            return False
    return True


def build_graph(sys: q.QuantumTransitionSystem, rho0,
                bound: int = DEFAULT_BOUND) -> ConfigurationGraph:
    """Breadth-first configuration graph from the root: `rho0` is a
    `Configuration` at the initial location, or a dense initial state,
    decomposed once (see `Configuration`).

    Frontier nodes are expanded layer by layer, in frontier order.  Nodes
    still unexpanded after `bound` layers leave the graph truncated.

    A successor merges into the lowest-indexed node at its location whose
    state differs from its own by at most TOL_FP in every entry.  Both
    states are compared as L L^dagger from their spectral factors.  The
    candidates come from a sorted list of keys k(rho) = <v|rho|v> per
    location, for v the first column of the digest's probe block V (see
    `_probes`): max|rho - sigma| <= TOL_FP implies |k(rho) - k(sigma)| <=
    TOL_FP |v|_1^2, so a range query of twice that radius (the slack
    covers rounding in the keys) finds every node the successor can merge
    into.  v is complex, so k reads the coherences and not only the
    diagonal.  The graph does not depend on v: the query is sound for any
    v, and the exact check picks the lowest-indexed match.  That check is
    certified from the factors in O(d r^2) and falls back to a blockwise
    O(d^2 r) pass only within a rounding margin of TOL_FP (`_within_tol`);
    its decisions, and so the graph, are the blockwise pass's."""
    if isinstance(rho0, q.Configuration):
        root = rho0
        if root.location != sys.initial:
            raise UnknownLocation(f"root location {root.location!r} is not "
                                  f"the initial location {sys.initial!r}")
    else:
        root = q.Configuration(sys.initial, rho0)
    nodes = [GraphNode(0, root, None, 0)]
    d = len(root.spectrum[0])
    v = _probes(d)[0].conj()
    radius = 2.0 * TOL_FP * float(np.abs(v).sum()) ** 2
    keys = {root.location: [(_key(root.factor, v), 0)]}
    frontier = [0]
    for _ in range(bound):
        if not frontier:
            break
        next_frontier = []
        for index in frontier:
            edges = []
            for succ, p in q.step(sys, nodes[index].config):
                factor = succ.factor
                k = _key(factor, v)
                near = keys.setdefault(succ.location, [])
                dst = None
                lo = bisect.bisect_left(near, (k - radius, -1))
                hi = bisect.bisect_right(near, (k + radius, len(nodes)))
                for cand in sorted(i for _, i in near[lo:hi]):
                    if _within_tol(nodes[cand].config.factor,
                                   succ.spectrum):
                        dst = cand
                        break
                if dst is None:
                    dst = len(nodes)
                    nodes.append(GraphNode(dst, succ, None,
                                           nodes[index].depth + 1))
                    bisect.insort(near, (k, dst))
                    next_frontier.append(dst)
                edges.append((dst, p))
            nodes[index].complete = True
            nodes[index].out = tuple(edges)
        frontier = next_frontier

    closure = COMPLETE if not frontier else ("truncated", bound)
    return ConfigurationGraph(sys, tuple(nodes), closure)


# --- three-valued CTL labeling ----------------------------------------------

LO, HI = 0, 1  # sides: the nodes that certainly, or possibly, satisfy


class _Labeling:
    """`eval(f, side)` is the set of nodes that certainly (LO) or possibly
    (HI) satisfy f.  The sides differ only in `inf`, the nodes that start
    an infinite path, and in `unexpanded`, the nodes whose successors are
    unknown: none on LO, the incomplete nodes on HI.  A negation reads
    its operand on the other side.  Each fixpoint is one backward pass
    over `pred`, which lists a node's predecessors once per edge (Clarke,
    Emerson and Sistla, TOPLAS 1986)."""

    def __init__(self, graph: ConfigurationGraph, bindings: dict,
                 member_tol: float = None, eig_tol: float = None):
        self.graph = graph
        self.bindings = bindings
        self.member_tol = member_tol
        self.eig_tol = eig_tol
        self.all = frozenset(range(len(graph.nodes)))
        self.unexpanded = (frozenset(), frozenset(
            n.index for n in graph.nodes if not n.complete))
        self.pred = [[] for _ in graph.nodes]
        for n in graph.nodes:
            for dst, _ in n.out:
                self.pred[dst].append(n.index)
        # In a system where every location has outgoing transitions, every
        # configuration keeps a successor forever (normalisation leaves at
        # least one branch above the probability floor), so every node
        # starts an infinite path.  Only models with sink locations need
        # the conservative per-node fixpoints.
        system = graph.system
        if all(system.outgoing(l) for l in system.locations):
            self.inf = (self.all, self.all)
        else:
            self.inf = tuple(self._gfp(self.all, stay)
                             for stay in self.unexpanded)

    def _lfp(self, seed, through):
        """Least Z holding `seed` and every node of `through` with an edge
        into Z: a backward search from the seed."""
        found = set(seed)
        stack = list(found)
        while stack:
            for s in self.pred[stack.pop()]:
                if s in through and s not in found:
                    found.add(s)
                    stack.append(s)
        return found

    def _gfp(self, region, stay):
        """Greatest Z within `region` whose every node is in `stay` or has
        an edge into Z: a node leaves when its count of edges into Z drops
        to zero."""
        live = set(region)
        count = {s: sum(t in live for t, _ in self.graph.nodes[s].out)
                 for s in live}
        dead = [s for s in live if not count[s] and s not in stay]
        while dead:
            t = dead.pop()
            live.remove(t)
            for s in self.pred[t]:
                if s in live:
                    count[s] -= 1
                    if not count[s] and s not in stay:
                        dead.append(s)
        return live

    def _ex(self, f, side):
        return ({s for t in f & self.inf[side] for s in self.pred[t]}
                | self.unexpanded[side])

    def _eu(self, a, b, side):
        return self._lfp((b & self.inf[side]) | (a & self.unexpanded[side]), a)

    def eval(self, formula, side):
        if isinstance(formula, lg.Prop):
            return self.graph.label_set(formula.prop, self.bindings,
                                        self.member_tol, self.eig_tol)
        if isinstance(formula, lg.Not):
            return self.all - self.eval(formula.sub, 1 - side)
        if isinstance(formula, lg.And):
            return (self.eval(formula.left, side)
                    & self.eval(formula.right, side))
        if isinstance(formula, lg.Exists):
            path = formula.path
            if isinstance(path, lg.Next):
                return self._ex(self.eval(path.sub, side), side)
            return self._eu(self.eval(path.left, side),
                            self.eval(path.right, side), side)
        if isinstance(formula, lg.Forall):
            path, other = formula.path, 1 - side
            if isinstance(path, lg.Next):
                # A X f = ! E X ! f
                return self.all - self._ex(
                    self.all - self.eval(path.sub, side), other)
            # A (f U g) = ! ( E(!g U (!f && !g)) || E G !g )
            nf = self.all - self.eval(path.left, side)
            ng = self.all - self.eval(path.right, side)
            eg = self._gfp(ng, self.unexpanded[other])
            return self.all - (self._eu(ng, nf & ng, other) | eg)
        raise TypeError(f"not a state formula: {formula!r}")


# --- verdicts and traces ------------------------------------------------------

@dataclass(frozen=True)
class TraceStep:
    location: str
    probability: float  # branch probability of the edge into this node
    state_digest: str


@dataclass(frozen=True)
class Verdict:
    label: str
    result: str  # "holds" | "fails" | "unknown"
    trace: tuple = None
    closure: object = COMPLETE
    nodes: int = 0
    edges: int = 0
    timings: dict = None


def check(sys: q.QuantumTransitionSystem, rho0, formula,
          bindings: dict, bound: int = DEFAULT_BOUND, label: str = "",
          graph: ConfigurationGraph = None,
          member_tol: float = None, eig_tol: float = None) -> Verdict:
    """Decide whether the system from the root `rho0`, a dense initial
    state or a `Configuration` at the initial location (as `build_graph`
    takes it), satisfies the formula, exploring at most `bound` steps.  On truncated graphs the
    result is `unknown` unless the explored prefix already decides it.

    `timings` holds `label_s`, and `build_s` when the graph was built here
    rather than passed in."""
    t0 = time.perf_counter()
    timings = {}
    if graph is None:
        graph = build_graph(sys, rho0, bound)
        timings["build_s"] = time.perf_counter() - t0
    t1 = time.perf_counter()
    labeling = _Labeling(graph, bindings, member_tol, eig_tol)
    if 0 in labeling.eval(formula, LO):
        result = "holds"
    elif 0 not in labeling.eval(formula, HI):
        result = "fails"
    else:
        result = "unknown"
    timings["label_s"] = time.perf_counter() - t1
    trace = None
    try:
        trace = extract_trace(graph, formula, bindings, result,
                              _labeling=labeling)
    except NoTraceAvailable:
        pass
    return Verdict(label=label, result=result, trace=trace,
                   closure=graph.closure, nodes=len(graph.nodes),
                   edges=graph.edge_count, timings=timings)


def _shortest_path(graph, start, allowed, targets):
    """BFS path (node indices) from start through `allowed` to any target;
    deterministic because successors are visited in edge order."""
    if start in targets:
        return [start]
    prev = {start: None}
    queue = [start]
    while queue:
        nxt = []
        for u in queue:
            for v, _ in graph.nodes[u].out:
                if v in prev:
                    continue
                if v in targets:
                    prev[v] = u
                    path = [v]
                    while prev[path[-1]] is not None:
                        path.append(prev[path[-1]])
                    return list(reversed(path))
                if v in allowed:
                    prev[v] = u
                    nxt.append(v)
        queue = nxt
    return None


def _lasso(graph, start, region):
    """Path from start that closes a cycle inside `region` (start must be
    in the region): the whole path from start, then the node that closes
    the cycle, which so appears twice.  Depth-first in edge
    order, kept on an explicit stack so long cycles cannot overflow the
    interpreter's."""
    path = [start]
    on_path = {start}
    seen = {start}
    pending = [iter(graph.nodes[start].out)]
    while pending:
        for v, _ in pending[-1]:
            if v not in region:
                continue
            if v in on_path:
                return path + [v]
            if v not in seen:
                seen.add(v)
                on_path.add(v)
                path.append(v)
                pending.append(iter(graph.nodes[v].out))
                break
        else:
            pending.pop()
            on_path.remove(path.pop())
    return None


def _steps_for(graph, path) -> tuple:
    steps = []
    prev = None
    for idx in path:
        node = graph.nodes[idx]
        p = 1.0
        if prev is not None:
            for dst, bp in graph.nodes[prev].out:
                if dst == idx:
                    p = bp
                    break
        steps.append(TraceStep(node.config.location, p, node.digest))
        prev = idx
    return tuple(steps)


def extract_trace(graph: ConfigurationGraph, formula, bindings: dict,
                  kind: str, _labeling=None) -> tuple:
    """Shortest witness (holds, Exists-rooted) or counterexample (fails,
    Forall-rooted); raises NoTraceAvailable for every other shape."""
    if kind == "unknown":
        raise NoTraceAvailable("no trace for an unknown verdict")
    labeling = _labeling or _Labeling(graph, bindings)
    every, inf = labeling.all, labeling.inf[LO]
    root = 0
    if kind == "holds" and isinstance(formula, lg.Exists):
        path_f = formula.path
        if isinstance(path_f, lg.Next):
            target = labeling.eval(path_f.sub, LO) & inf
            for dst, _ in graph.nodes[root].out:
                if dst in target:
                    return _steps_for(graph, [root, dst])
            raise NoTraceAvailable("no witness edge found")
        good = labeling.eval(path_f.left, LO)
        target = labeling.eval(path_f.right, LO) & inf
        path = _shortest_path(graph, root, good, target)
        if path is None:
            raise NoTraceAvailable("no witness path found")
        return _steps_for(graph, path)
    if kind == "fails" and isinstance(formula, lg.Forall):
        path_f = formula.path
        if isinstance(path_f, lg.Next):
            bad = (every - labeling.eval(path_f.sub, HI)) & inf
            for dst, _ in graph.nodes[root].out:
                if dst in bad:
                    return _steps_for(graph, [root, dst])
            raise NoTraceAvailable("no refuting edge found")
        not_f = every - labeling.eval(path_f.left, HI)
        not_g = every - labeling.eval(path_f.right, HI)
        dead = not_f & not_g & inf
        path = _shortest_path(graph, root, not_g, dead)
        if path is not None and root in not_g | dead:
            return _steps_for(graph, path)
        if root in not_g:
            lasso = _lasso(graph, root, not_g)
            if lasso is not None:
                return _steps_for(graph, lasso)
        raise NoTraceAvailable("no refuting path found")
    raise NoTraceAvailable(
        f"no finite trace for a {kind} verdict on this formula shape")
