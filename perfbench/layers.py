"""Spans and per-layer replays for the traced benchmark run.

Spans are recorded from the benchmark's side of each call into a qmc
layer; nothing inside the program is instrumented.  Layer work that happens
inside a larger call (`qts.step` inside `build_graph`, `la.support` inside
`label_set`, ...) is measured by replaying the same public calls on the
finished graph, after the job's timed region.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter

import numpy as np

from qmc import channel as ch
from qmc import checker
from qmc import linalg as la
from qmc import logic as lg
from qmc import qts
from qmc import reach
from qmc import tensor as tn

_NO_SPAN = contextlib.nullcontext()
MAX_COUNTS = ("checker.frontier_max", "linalg.rank_max")  # maxima over jobs, not sums


class NullTracer:
    """Untraced runs: spans cost one attribute lookup and nothing else."""

    on = False
    job = None

    def span(self, name):
        return _NO_SPAN


class Tracer:
    """Keeps spans in memory as (name, start, end, parent id, job) rows and
    layer counts in a Counter; both are written out when the run ends."""

    on = True

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.job = None
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, start, end, parent, self.job)

    def seconds_by_name(self, first: int = 0) -> Counter:
        total = Counter()
        for name, start, end, _, _ in self.spans[first:]:
            total[name] += end - start
        return total


def prop_atoms(doc) -> dict:
    """Every proposition the document's formulas label, keyed as
    `ConfigurationGraph.label_set` caches them."""
    found = {}

    def walk(f):
        if isinstance(f, lg.Prop):
            found.setdefault(lg.print_prop(f.prop), f.prop)
        elif isinstance(f, lg.Not):
            walk(f.sub)
        elif isinstance(f, lg.And):
            walk(f.left)
            walk(f.right)
        elif isinstance(f, (lg.Exists, lg.Forall)):
            if isinstance(f.path, lg.Next):
                walk(f.path.sub)
            else:
                walk(f.path.left)
                walk(f.path.right)

    for assertion in doc.assertions:
        walk(assertion.formula)
    return found


def _graph_counts(graph) -> dict:
    nodes = graph.nodes
    widths = Counter(n.depth for n in nodes if n.complete)
    near = 0
    by_location = {}
    for n in nodes:
        by_location.setdefault(n.config.location, []).append(n.config.state)
    for states in by_location.values():
        stack = np.array(states)
        for i in range(len(stack) - 1):
            diff = np.abs(stack[i + 1:] - stack[i]).reshape(len(stack) - i - 1, -1)
            near += int(np.count_nonzero(diff.max(axis=1) <= 10 * checker.TOL_FP))
    return {
        "checker.merges": graph.edge_count - (len(nodes) - 1),
        "checker.frontier_max": max(widths.values(), default=0),
        "checker.pool_layers": sum(1 for w in widths.values() if w > 1),
        "checker.near_misses": near,
    }


def replay_check(tracer: Tracer, system, doc, graph):
    """Replays `qts.step`, `channel.apply` and `checker.fingerprint` over
    every expanded node, and `eval_prop` / `la.support` / `la.contains` per
    node and atom, as `build_graph` and `label_set` make those calls."""
    c = tracer.counts
    d = 2 ** system.n_qubits
    for node in graph.nodes:
        if not node.complete:
            continue
        with tracer.span("qts.step"):
            successors = qts.step(system, node.config)
        c["qts.step_calls"] += 1
        c["qts.successors"] += len(successors)
        for t in system.outgoing(node.config.location):
            with tracer.span("channel.apply"):
                ch.apply(t.op, node.config.state)
            k = len(t.op.kraus)
            c["channel.apply_calls"] += 1
            c["channel.kraus_applied"] += k
            # two d x d complex products per Kraus term, 8 flops per
            # complex multiply-add
            c["channel.apply_gflop"] += 16 * k * d ** 3 / 1e9
        for succ, _ in successors:
            with tracer.span("checker.fingerprint"):
                checker.fingerprint(succ.state)
    for key, value in _graph_counts(graph).items():
        c[key] = max(c[key], value) if key in MAX_COUNTS else c[key] + value
    ranks = [la.support(n.config.state, la.TOL_EIG).dim for n in graph.nodes]
    c["linalg.rank_max"] = max(c["linalg.rank_max"], *ranks)
    c["rank_sum"] += sum(ranks)
    c["rank_nodes"] += len(ranks)
    for prop in prop_atoms(doc).values():
        with tracer.span("logic.eval_prop"):
            target = lg.eval_prop(prop, doc.bindings, ambient_dim=d)
        for node in graph.nodes:
            with tracer.span("linalg.support"):
                sup = la.support(node.config.state, la.TOL_EIG)
            with tracer.span("linalg.contains"):
                la.contains(target, sup, la.TOL_MEMBER)
            c["linalg.support_calls"] += 1


def replay_reach(tracer: Tracer, channel, rho0):
    """Replays `channel.matrix_rep` on a fresh (uncached) copy of the
    channel, and `tensor.contract_network` on the vectorized route's
    two-node step for as many steps as the route takes."""
    c = tracer.counts
    fresh = ch.SuperOperator(channel.n_qubits, channel.kraus,
                             channel.trace_class)
    with tracer.span("channel.matrix_rep"):
        m = ch.matrix_rep(fresh)
    n = channel.n_qubits
    min_qubits = getattr(reach, "TENSOR_MIN_QUBITS", None)
    if min_qubits is None or n < min_qubits:
        return
    ins = tuple(f"a{i}" for i in range(2 * n))
    outs = tuple(f"b{i}" for i in range(2 * n))
    m_t = tn.tensor_from_matrix(m, outs, ins)
    phi = np.asarray(rho0, dtype=complex).reshape(-1)
    acc = phi.copy()
    for _ in range(channel.dim - 1):
        net = tn.TensorNetwork((m_t, tn.tensor_from_vector(phi, ins)), outs)
        with tracer.span("tensor.contract"):
            phi = tn.contract_network(net).to_vector(outs)
        c["tensor.contractions"] += 1
        acc = acc + phi
        scale = np.linalg.norm(acc)
        acc, phi = acc / scale, phi / scale
