"""Tensors over named binary indices, pairwise contraction, and whole-network
contraction with a greedy ordering heuristic.

A tensor with indices (q_1, ..., q_r) maps bit assignments to complex
amplitudes; the stored array has one length-2 axis per index, axis i
belonging to indices[i].  Flattened vectors and matrices follow the package
little-endian rule: the first index carries bit weight 1.

Index identity is by name.  Within a network, an index name appearing in two
node tensors is contractible and an open index appears in exactly one node.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (DimensionMismatch, IndexCollision, MalformedNetwork,
                     RankLimitExceeded)

MAX_RANK = 26  # dense storage: 2^26 complex entries = 1 GiB ceiling


@dataclass(frozen=True, eq=False)
class Tensor:
    indices: tuple
    data: np.ndarray

    def __post_init__(self):
        names = tuple(self.indices)
        if len(set(names)) != len(names):
            raise IndexCollision(f"duplicate index names in {names}")
        if len(names) > MAX_RANK:
            raise RankLimitExceeded(
                f"rank {len(names)} exceeds MAX_RANK={MAX_RANK}")
        data = np.asarray(self.data, dtype=complex)
        if data.shape != (2,) * len(names):
            data = data.reshape((2,) * len(names))
        data = data.copy()
        data.setflags(write=False)
        object.__setattr__(self, "indices", names)
        object.__setattr__(self, "data", data)

    @property
    def rank(self) -> int:
        return len(self.indices)

    def transpose_to(self, order) -> "Tensor":
        """Same tensor with its indices listed in the given order."""
        order = tuple(order)
        if set(order) != set(self.indices) or len(order) != self.rank:
            raise IndexCollision(
                f"{order} is not a permutation of {self.indices}")
        perm = [self.indices.index(n) for n in order]
        return Tensor(order, self.data.transpose(perm))

    def to_vector(self, order=None) -> np.ndarray:
        """Flatten to a length-2^rank vector; index i of `order` gets bit
        weight 2**i (little-endian)."""
        t = self if order is None else self.transpose_to(order)
        return t.data.reshape(-1, order="F").copy()

    def __repr__(self):
        return f"<Tensor {self.indices}>"


def tensor_from_vector(vec: np.ndarray, names) -> Tensor:
    names = tuple(names)
    vec = np.asarray(vec, dtype=complex).reshape(-1)
    if vec.shape[0] != 2 ** len(names):
        raise DimensionMismatch(
            f"vector of dim {vec.shape[0]} needs {len(names)} binary indices")
    return Tensor(names, vec.reshape((2,) * len(names), order="F"))


def tensor_from_matrix(mat: np.ndarray, row_names, col_names) -> Tensor:
    """Tensor of a matrix indexed little-endian by row and column bits.
    Entry (x, y) of the matrix becomes the amplitude at row bits x, col
    bits y."""
    row_names, col_names = tuple(row_names), tuple(col_names)
    mat = np.asarray(mat, dtype=complex)
    if mat.shape != (2 ** len(row_names), 2 ** len(col_names)):
        raise DimensionMismatch(
            f"matrix shape {mat.shape} does not match index counts "
            f"({len(row_names)}, {len(col_names)})")
    data = mat.reshape((2,) * (len(row_names) + len(col_names)), order="F")
    return Tensor(row_names + col_names, data)


def contract_pair(a: Tensor, b: Tensor) -> Tensor:
    """Contract two tensors over every index name they share.

    The result is indexed by the symmetric difference of the index sets,
    a's surviving indices first.  Disjoint index sets give the outer
    product."""
    shared = [n for n in a.indices if n in b.indices]
    out = tuple(n for n in a.indices if n not in shared) + \
        tuple(n for n in b.indices if n not in shared)
    if len(out) > MAX_RANK:
        raise RankLimitExceeded(
            f"contraction result has rank {len(out)} > MAX_RANK={MAX_RANK}")
    label = {}
    for n in a.indices + b.indices:
        label.setdefault(n, len(label))
    data = np.einsum(a.data, [label[n] for n in a.indices],
                     b.data, [label[n] for n in b.indices],
                     [label[n] for n in out])
    return Tensor(out, data)


@dataclass(frozen=True, eq=False)
class TensorNetwork:
    """Nodes plus a declared tuple of open indices.

    Every non-open index name must appear in exactly two node tensors and
    every open one in exactly one; anything else is malformed."""

    nodes: tuple
    open_indices: tuple

    def __post_init__(self):
        nodes = tuple(self.nodes)
        open_names = tuple(self.open_indices)
        if not nodes:
            raise MalformedNetwork("a network needs at least one node")
        if len(set(open_names)) != len(open_names):
            raise MalformedNetwork(f"duplicate open indices {open_names}")
        counts = {}
        for t in nodes:
            for n in t.indices:
                counts[n] = counts.get(n, 0) + 1
        for n in open_names:
            if counts.get(n, 0) != 1:
                raise MalformedNetwork(
                    f"open index {n!r} appears {counts.get(n, 0)} times, "
                    "expected exactly 1")
        for n, c in counts.items():
            if n not in open_names and c != 2:
                raise MalformedNetwork(
                    f"index {n!r} appears {c} times but is not open")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "open_indices", open_names)


def plan_order(net: TensorNetwork):
    """Greedy full pairwise contraction schedule.

    Node ids are positions in `net.nodes`; each step contracts a pair and
    assigns the result the next fresh id.  At every step the pair with the
    smallest intermediate size 2^rank is chosen, ties broken by the numeric
    id pair."""
    live = {i: frozenset(t.indices) for i, t in enumerate(net.nodes)}
    next_id = len(net.nodes)
    steps = []
    while len(live) > 1:
        best = None
        for i, j in combinations(sorted(live), 2):
            out_rank = len(live[i] ^ live[j])
            key = (1 << out_rank, i, j)
            if best is None or key < best[0]:
                best = (key, i, j)
        _, i, j = best
        steps.append((i, j))
        live[next_id] = live.pop(i) ^ live.pop(j)
        next_id += 1
    return steps


def contract_network(net: TensorNetwork, order=None) -> Tensor:
    """Contract a whole network down to a tensor over exactly the open
    indices (in their declared order).  The result does not depend on the
    schedule; `order` overrides the greedy plan, mainly for tests."""
    steps = plan_order(net) if order is None else list(order)
    pool = dict(enumerate(net.nodes))
    next_id = len(net.nodes)
    for i, j in steps:
        pool[next_id] = contract_pair(pool.pop(i), pool.pop(j))
        next_id += 1
    (result,) = pool.values()
    if set(result.indices) != set(net.open_indices):
        raise MalformedNetwork(
            f"contraction left indices {result.indices}, "
            f"expected {net.open_indices}")
    return result.transpose_to(net.open_indices)
