"""Model checking of temporal assertions over configuration graphs.

A configuration graph is the explicit-state unfolding of a transition
system from an initial state: nodes are (location, state) pairs, edges
follow the system's transitions with their branch probabilities.  Every
node but the root holds only its state's spectral factor.  Two states at
one location share a node when no entry differs by more than TOL_FP,
found by a range query on a scalar key and confirmed on the factors (see
`build_graph`).  A node's rounded `fingerprint` is computed only when a
trace shows it, in one pass over blocks of rows of the state.
Exploration is breadth-first up to a bound; if unexpanded nodes remain
the graph is truncated and verdicts become three-valued.

Checking labels every node with the state subformulas using the standard
EX / EU / EG fixpoints, run twice on truncated graphs (a certain lower
bound and a possible upper bound) so that `holds` and `fails` are only ever
reported when the explored prefix already decides them.  Branch
probabilities are carried for reporting; verdicts ignore them.  Traces
start at the root; a lasso counterexample is the path from the root that
closes a cycle.
"""

from __future__ import annotations

import bisect
import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from . import linalg as la
from . import logic as lg
from . import qts as q
from .errors import NoTraceAvailable, UnboundAtom
from .linalg import TOL_FP

FP_DECIMALS = 7     # fingerprint rounding, decimal places
DEFAULT_BOUND = 64  # exploration depth when none is given
_PROBE_SEED = 0     # seed of the dedup key's random vector

COMPLETE = "complete"


def fingerprint(product: np.ndarray) -> str:
    """Hex digest of (P + P^dagger)/2 rounded to FP_DECIMALS, -0.0 folded
    into +0.0; it names a state in traces and reports.  P is a complex
    square matrix: a state, or the unsymmetrized product of a factor
    (`Configuration.product`), which digests as its symmetrization does.

    One streamed pass: each block of rows of the rounded matrix is built
    in one fresh tile and fed to the hash, so no d x d temporary is made.
    The tile is rounded through its float view as rint(x * 10^7 / 2) /
    10^7, which is bit-identical to halving (exact) and then np.round."""
    scale = 10.0 ** FP_DECIMALS
    digest = hashlib.blake2b(digest_size=16)
    for rows in la.row_blocks(*product.shape):
        block = product[rows]
        tile = np.conjugate(product[:, rows].T,
                            out=np.empty(block.shape, dtype=complex))
        tile += block
        flat = tile.view(float)
        flat *= 0.5 * scale
        np.rint(flat, out=flat)
        flat /= scale
        flat += 0.0  # fold -0.0 into +0.0
        digest.update(tile)
    return digest.hexdigest()


@dataclass(eq=False)
class GraphNode:
    """A configuration of the graph.  `digest` is `fingerprint` of its
    state, computed on first read (only nodes on a trace need it) from
    `config.product`, a transient rebuild for a factor-only node;
    `_digest` holds it once known."""

    index: int
    config: q.Configuration
    _digest: str
    depth: int
    complete: bool = False
    out: tuple = ()  # (dst index, branch probability) pairs

    @property
    def digest(self) -> str:
        if self._digest is None:
            self._digest = fingerprint(self.config.product)
        return self._digest


@dataclass(frozen=True, eq=False)
class ConfigurationGraph:
    system: q.QuantumTransitionSystem
    nodes: tuple
    closure: object  # COMPLETE or ("truncated", bound)
    _labels: dict = field(default_factory=dict, repr=False)

    @property
    def root(self) -> GraphNode:
        return self.nodes[0]

    @property
    def edge_count(self) -> int:
        return sum(len(n.out) for n in self.nodes)

    def label_set(self, prop, bindings: dict, member_tol: float = None,
                  eig_tol: float = None) -> frozenset:
        """Indices of the nodes whose state's support lies in the denoted
        subspace; cached per proposition, the subspaces bound to its atoms
        and the tolerances.  Each support is read from the node's spectral
        factor (`Configuration.support`), so labeling decomposes no state,
        and `~p` and `true` denote co-bases (`linalg.Subspace`), so it
        builds no d x d basis for them either."""
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
            members = frozenset(
                n.index for n in self.nodes
                if la.contains(target, n.config.support(eig_tol),
                               member_tol))
            self._labels[key] = members
        return self._labels[key]


def _key(factor: np.ndarray, v: np.ndarray) -> float:
    """<v|rho|v> = |L^dagger v|^2 for rho = L L^dagger, in O(d r)."""
    w = factor.conj().T @ v
    return float(np.vdot(w, w).real)


def _within_tol(a: np.ndarray, b: np.ndarray) -> bool:
    """max |A A^dagger - B B^dagger| <= TOL_FP, computed a block of rows
    at a time so no d x d matrix is built."""
    ah, bh = a.conj().T, b.conj().T
    for rows in la.row_blocks(len(a), len(a)):
        diff = a[rows] @ ah
        diff -= b[rows] @ bh
        if np.abs(diff).max() > TOL_FP:
            return False
    return True


def build_graph(sys: q.QuantumTransitionSystem, rho0: np.ndarray,
                bound: int = DEFAULT_BOUND,
                dedup: bool = True) -> ConfigurationGraph:
    """Breadth-first configuration graph from (initial location, rho0).

    Frontier nodes are expanded layer by layer, in frontier order.  Nodes
    still unexpanded after `bound` layers leave the graph truncated.

    A successor merges into the lowest-indexed node at its location whose
    state differs from its own by at most TOL_FP in every entry.  Both
    states are compared as L L^dagger from their spectral factors.  The
    candidates come from a sorted list of keys k(rho) = <v|rho|v> per
    location, for one fixed random vector v: max|rho - sigma| <= TOL_FP
    implies |k(rho) - k(sigma)| <= TOL_FP |v|_1^2, so a range query of
    twice that radius (the slack covers rounding in the keys) finds every
    node the successor can merge into.  v is complex, so k reads the
    coherences and not only the diagonal.  `dedup=False` skips merging and
    grows a tree, which only terminates within the bound; it exists to
    validate that merging never changes verdicts."""
    root = q.Configuration(sys.initial, np.asarray(rho0, dtype=complex))
    nodes = [GraphNode(0, root, None, 0)]
    d = root.state.shape[0]
    rng = np.random.default_rng(_PROBE_SEED)
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
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
                if dedup:
                    lo = bisect.bisect_left(near, (k - radius, -1))
                    hi = bisect.bisect_right(near, (k + radius, len(nodes)))
                    for cand in sorted(i for _, i in near[lo:hi]):
                        if _within_tol(nodes[cand].config.factor, factor):
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

@dataclass(frozen=True)
class _Sets:
    """Per-formula node sets: `lo` certainly satisfy, `hi` possibly do."""
    lo: frozenset
    hi: frozenset


class _Labeling:
    def __init__(self, graph: ConfigurationGraph, bindings: dict,
                 member_tol: float = None, eig_tol: float = None):
        self.graph = graph
        self.bindings = bindings
        self.member_tol = member_tol
        self.eig_tol = eig_tol
        self.all = frozenset(range(len(graph.nodes)))
        self.incomplete = frozenset(n.index for n in graph.nodes
                                    if not n.complete)
        self.out = {n.index: tuple(dst for dst, _ in n.out)
                    for n in graph.nodes}
        # In a system where every location has outgoing transitions, every
        # configuration keeps a successor forever (normalisation leaves at
        # least one branch above the probability floor), so every node
        # starts an infinite path.  Only models with sink locations need
        # the conservative per-node fixpoints.
        system = graph.system
        if all(system.outgoing(l) for l in system.locations):
            self.inf_lo = self.inf_hi = self.all
        else:
            self.inf_lo = self._inf(optimistic=False)
            self.inf_hi = self._inf(optimistic=True)

    def _inf(self, optimistic: bool) -> frozenset:
        """Nodes certainly (or possibly) starting an infinite path."""
        live = set(self.all)
        while True:
            keep = set()
            for s in live:
                if optimistic and s in self.incomplete:
                    keep.add(s)
                elif any(t in live for t in self.out[s]):
                    keep.add(s)
            if keep == live:
                return frozenset(live)
            live = keep

    def _pre(self, targets: frozenset) -> frozenset:
        return frozenset(s for s in self.all
                         if any(t in targets for t in self.out[s]))

    def _not(self, s: _Sets) -> _Sets:
        return _Sets(self.all - s.hi, self.all - s.lo)

    def _and(self, a: _Sets, b: _Sets) -> _Sets:
        return _Sets(a.lo & b.lo, a.hi & b.hi)

    def _or(self, a: _Sets, b: _Sets) -> _Sets:
        return _Sets(a.lo | b.lo, a.hi | b.hi)

    def _ex(self, s: _Sets) -> _Sets:
        lo = self._pre(s.lo & self.inf_lo)
        hi = self._pre(s.hi & self.inf_hi) | self.incomplete
        return _Sets(lo, hi)

    def _eu(self, a: _Sets, b: _Sets) -> _Sets:
        lo = b.lo & self.inf_lo
        while True:
            grown = lo | (a.lo & self._pre(lo))
            if grown == lo:
                break
            lo = grown
        hi = b.hi & self.inf_hi
        while True:
            grown = hi | (a.hi & (self.incomplete | self._pre(hi)))
            if grown == hi:
                break
            hi = grown
        return _Sets(lo, hi)

    def _eg(self, s: _Sets) -> _Sets:
        lo = s.lo
        while True:
            shrunk = lo & self._pre(lo)
            if shrunk == lo:
                break
            lo = shrunk
        hi = s.hi
        while True:
            shrunk = hi & (self.incomplete | self._pre(hi))
            if shrunk == hi:
                break
            hi = shrunk
        return _Sets(lo, hi)

    def eval(self, formula) -> _Sets:
        if isinstance(formula, lg.Prop):
            members = self.graph.label_set(formula.prop, self.bindings,
                                           self.member_tol, self.eig_tol)
            return _Sets(members, members)
        if isinstance(formula, lg.Not):
            return self._not(self.eval(formula.sub))
        if isinstance(formula, lg.And):
            return self._and(self.eval(formula.left), self.eval(formula.right))
        if isinstance(formula, lg.Exists):
            path = formula.path
            if isinstance(path, lg.Next):
                return self._ex(self.eval(path.sub))
            return self._eu(self.eval(path.left), self.eval(path.right))
        if isinstance(formula, lg.Forall):
            path = formula.path
            if isinstance(path, lg.Next):
                # A X f = ! E X ! f
                return self._not(self._ex(self._not(self.eval(path.sub))))
            # A (f U g) = ! ( E(!g U (!f && !g)) || E G !g )
            nf = self._not(self.eval(path.left))
            ng = self._not(self.eval(path.right))
            return self._not(self._or(self._eu(ng, self._and(nf, ng)),
                                      self._eg(ng)))
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


def check(sys: q.QuantumTransitionSystem, rho0: np.ndarray, formula,
          bindings: dict, bound: int = DEFAULT_BOUND, label: str = "",
          graph: ConfigurationGraph = None,
          member_tol: float = None, eig_tol: float = None) -> Verdict:
    """Decide whether the system with initial state rho0 satisfies the
    formula, exploring at most `bound` steps.  On truncated graphs the
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
    sets = labeling.eval(formula)
    if 0 in sets.lo:
        result = "holds"
    elif 0 not in sets.hi:
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
    root = 0
    if kind == "holds" and isinstance(formula, lg.Exists):
        path_f = formula.path
        if isinstance(path_f, lg.Next):
            target = labeling.eval(path_f.sub).lo & labeling.inf_lo
            for dst, _ in graph.nodes[root].out:
                if dst in target:
                    return _steps_for(graph, [root, dst])
            raise NoTraceAvailable("no witness edge found")
        good = labeling.eval(path_f.left).lo
        target = labeling.eval(path_f.right).lo & labeling.inf_lo
        path = _shortest_path(graph, root, good, target)
        if path is None:
            raise NoTraceAvailable("no witness path found")
        return _steps_for(graph, path)
    if kind == "fails" and isinstance(formula, lg.Forall):
        path_f = formula.path
        if isinstance(path_f, lg.Next):
            bad = (labeling.all - labeling.eval(path_f.sub).hi) \
                & labeling.inf_lo
            for dst, _ in graph.nodes[root].out:
                if dst in bad:
                    return _steps_for(graph, [root, dst])
            raise NoTraceAvailable("no refuting edge found")
        not_f = labeling.all - labeling.eval(path_f.left).hi
        not_g = labeling.all - labeling.eval(path_f.right).hi
        dead = not_f & not_g & labeling.inf_lo
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
