"""Super-operators in Kraus form, their matrix representation, composition,
qubit embedding, measurements, and the standard gate/noise constants.

Vectorization convention (fixed so that the maximally-entangled-state
identity holds exactly): vec(A) is the row-major flattening, the reference
state is Psi = vec(I), and the matrix representation of a channel with Kraus
operators {E_i} is

    M = sum_i kron(E_i, conj(E_i)),

which satisfies M vec(A) = vec(sum_i E_i A E_i^dagger) entrywise.  Under
this convention the matrix of the sequential composite "e then f" is
M_f @ M_e exactly.  The matrix of a parallel composite is kron(M_f, M_e)
only up to an interleaving of the doubled-space index groups; the exact
permuted identity is exercised in the test suite, and the observable
contract is that parallel application factorizes:
apply(e || f, rho_a (x) rho_b) = apply(e, rho_a) (x) apply(f, rho_b).

Register layout is little-endian throughout (qubit 1 = bit weight 1).
Multi-qubit gate constants from `gate_matrix` follow the textbook layout
where the FIRST wire is the most significant bit (so CNOT with control on
wire 1 is block-diag(I, X)); `embed` works in register terms, and the
circuit builders in `qts` reverse the wire list when placing a textbook
constant on register qubits.

A Kraus set whose operators have at most one nonzero entry in each row
(Pauli, permutation, diagonal and phase gates, computational projectors)
is applied by structure: `SuperOperator._gather` finds it on the first
`apply` or `kraus_images` call, and those then gather rows and columns
and scale them in O(K d^2) instead of multiplying d x d matrices in
O(K d^3).  For real scales the result equals the dense sum bit for bit.

`embed` is not on the checking path.  A `qts` transition keeps its channel
on its target qubits and `qts.step` contracts only those axes; the dense
2^n x 2^n lift is built on demand, for `reach` and the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import (BadParameter, DimensionMismatch, NormalisationViolation,
                     RepeatedQubit, TargetOutOfRange, UnknownGate)
from .linalg import TOL_NORM, _frozen

# The largest entry of |E^dagger E - I| a unitary channel's one Kraus
# operator may have: a few ulps, which every library gate meets (at most
# one ulp) and a literal that only TOL_NORM admits does not.
_UNITARY_DEFECT = 4 * np.finfo(float).eps


class TraceClass(Enum):
    PRESERVING = "preserving"
    REDUCING = "reducing"


@dataclass(frozen=True, eq=False)
class SuperOperator:
    """A quantum channel sum_i E_i rho E_i^dagger on n qubits.

    Trace-preserving channels satisfy sum E_i^dagger E_i = I; trace-reducing
    ones (measurement branches) only require the defect I - sum E'E to be
    positive semidefinite.  This is the one place a Kraus sum is checked:
    a set that breaks its rule raises `NormalisationViolation`, a wrong
    shape plain `DimensionMismatch`.

    The same check decides `_unitary`: one Kraus operator E with no entry
    of E^dagger E - I above `_UNITARY_DEFECT`; `_identity` narrows it to
    E = I exactly.  A channel is immutable, so the transitions of one
    model that apply the same gate share one."""

    n_qubits: int
    kraus: tuple
    trace_class: TraceClass = TraceClass.PRESERVING
    _unitary: bool = field(init=False, repr=False, default=False)

    def __post_init__(self):
        if self.n_qubits < 1:
            raise DimensionMismatch("a channel needs at least one qubit")
        d = 2 ** self.n_qubits
        mats = tuple(_frozen(k) for k in self.kraus)
        if not mats:
            raise DimensionMismatch("a channel needs at least one Kraus term")
        for k in mats:
            if k.shape != (d, d):
                raise DimensionMismatch(
                    f"Kraus operator shape {k.shape}, expected {(d, d)}")
            if not np.isfinite(k).all():
                raise NormalisationViolation(
                    "Kraus operator has a non-finite entry", defect=math.nan)
        object.__setattr__(self, "kraus", mats)
        # finite entries can still overflow the sum; that is refused below
        with np.errstate(over="ignore", invalid="ignore"):
            defect = np.eye(d) - self._gram
        worst = float(np.abs(defect).max())
        if not math.isfinite(worst):
            raise NormalisationViolation(
                f"Kraus operators have normalisation defect {worst}",
                defect=worst)
        if self.trace_class is TraceClass.PRESERVING:
            if not worst <= TOL_NORM:  # a NaN defect is refused too
                raise NormalisationViolation(
                    "Kraus operators do not sum to a trace-preserving map "
                    f"(defect {worst:.2e})", defect=worst)
        elif np.linalg.eigvalsh((defect + defect.conj().T) / 2).min() < -TOL_NORM:
            raise NormalisationViolation(
                "trace-reducing channel exceeds the identity", defect=worst)
        object.__setattr__(self, "_unitary", (
            len(mats) == 1 and self.trace_class is TraceClass.PRESERVING
            and worst <= _UNITARY_DEFECT))

    @cached_property
    def _identity(self) -> bool:
        """Whether the channel is one Kraus operator equal to the identity
        entry for entry, so that it maps every state to itself; decided on
        first read and kept."""
        return self._unitary and bool(
            (self.kraus[0] == np.eye(self.dim)).all())

    @cached_property
    def _gram(self) -> np.ndarray:
        """sum_i E_i^dagger E_i, read-only: made by the constructor's check
        and kept for the check of a location with several edges."""
        gram = sum(k.conj().T @ k for k in self.kraus)
        gram.setflags(write=False)
        return gram

    @cached_property
    def _stacked(self) -> np.ndarray:
        """The Kraus operators stacked into one read-only K 2^n x 2^n
        matrix, its columns in the order `qts._apply_local` lays out the
        target axes: wire 1 most significant.  This is the left operand
        `np.tensordot` would build on every call, built once."""
        n = self.n_qubits
        # row wires n..1 after the Kraus index, then the column wires 1..n
        cols = [2 * n - j + 1 for j in range(1, n + 1)]
        stacked = np.stack(self.kraus).reshape((-1,) + (2,) * (2 * n))
        stacked = stacked.transpose(list(range(n + 1)) + cols)
        return _frozen(stacked.reshape(-1, self.dim))

    @cached_property
    def _gather(self):
        """The gather-and-scale form of a Kraus set whose operators have
        at most one nonzero entry in each row (Pauli and permutation
        gates, diagonal and phase gates, computational projectors): per
        operator E, the column src[i] of row i's entry (i for a zero row)
        and its value scale[i], so that (E A)[i] = scale[i] A[src[i]] and
        E A E^dagger = scale[i] A[src[i], src[j]] conj(scale[j]).  Each
        operator keeps `src` (None when it is the identity, so E is
        diagonal), the scales as a d x 1 column, and their conjugates:
        O(d) memory.  None for any other set.  Found on the first `apply`
        or `kraus_images`, never when the channel is made."""
        rows = np.arange(self.dim)
        out = []
        for k in self.kraus:
            nonzero = k != 0
            if np.count_nonzero(nonzero, axis=1).max() > 1:
                return None
            src = np.where(nonzero.any(axis=1), nonzero.argmax(axis=1), rows)
            scale = k[rows, src]
            out.append((None if (src == rows).all() else src,
                        scale[:, None], scale.conj()))
        return tuple(out)

    @property
    def dim(self) -> int:
        return 2 ** self.n_qubits

    @classmethod
    def _held(cls, n_qubits, kraus, trace_class, unitary=False):
        """The channel of read-only Kraus operators whose sum its maker
        has checked, held as they are: no copy and no second check."""
        out = object.__new__(cls)
        vars(out).update(n_qubits=n_qubits, kraus=kraus,
                         trace_class=trace_class, _unitary=unitary)
        return out

    @classmethod
    def from_kraus(cls, mats, trace_class=None) -> "SuperOperator":
        """Channel of a Kraus set; without a trace class it is preserving
        when the set is normalised and reducing otherwise."""
        mats = tuple(np.asarray(m, dtype=complex) for m in mats)
        n = int(round(math.log2(mats[0].shape[0])))
        if trace_class is not None:
            return cls(n, mats, trace_class)
        try:
            return cls(n, mats, TraceClass.PRESERVING)
        except NormalisationViolation:
            return cls(n, mats, TraceClass.REDUCING)

    @classmethod
    def unitary(cls, u) -> "SuperOperator":
        u = np.asarray(u, dtype=complex)
        n = int(round(math.log2(u.shape[0])))
        return cls(n, (u,), TraceClass.PRESERVING)


def apply(e: SuperOperator, rho: np.ndarray) -> np.ndarray:
    """Channel application sum_i E_i rho E_i^dagger, summed in Kraus order.

    A set with one nonzero entry per row (`SuperOperator._gather`) is
    applied by gathering rho's rows and columns and scaling them, first
    by the row scale and then by the conjugate column scale, in
    O(K d^2) instead of the O(K d^3) of two matrix products.  Those are
    the products the dense sum makes, so for real scales the result
    equals it exactly; a complex scale may differ in the last bits."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (e.dim, e.dim):
        raise DimensionMismatch(
            f"state shape {rho.shape} vs channel dim {e.dim}")
    out = np.zeros_like(rho)
    gather = e._gather
    if gather is None:
        for k in e.kraus:
            out += k @ rho @ k.conj().T
        return out
    for src, scale, conj in gather:
        if src is None:
            term = rho * scale
        else:
            term = rho.take(src, axis=0).take(src, axis=1)
            term *= scale
        term *= conj
        out += term
    return out


def kraus_images(e: SuperOperator, vecs: np.ndarray) -> np.ndarray:
    """The d x Km stack [E_1 V, ..., E_K V] of the Kraus images of the
    d x m columns V, gathered and scaled row by row for a set with one
    nonzero entry per row."""
    vecs = np.asarray(vecs, dtype=complex)
    if vecs.ndim != 2 or vecs.shape[0] != e.dim:
        raise DimensionMismatch(
            f"columns of shape {vecs.shape} vs channel dim {e.dim}")
    gather = e._gather
    if gather is None:
        return np.hstack([k @ vecs for k in e.kraus])
    return np.hstack([
        (vecs if src is None else vecs.take(src, axis=0)) * scale
        for src, scale, _ in gather])


def matrix_rep(e: SuperOperator) -> np.ndarray:
    """The 4^n x 4^n matrix sum_i kron(E_i, conj(E_i)), built on every
    call."""
    return sum(np.kron(k, k.conj()) for k in e.kraus)


def compose_sequential(e: SuperOperator, f: SuperOperator) -> SuperOperator:
    """The channel "e then f"; Kraus set is all products F_j E_i."""
    if e.n_qubits != f.n_qubits:
        raise DimensionMismatch(
            f"channel sizes differ: {e.n_qubits} vs {f.n_qubits} qubits")
    kraus = tuple(fk @ ek for fk in f.kraus for ek in e.kraus)
    preserving = (e.trace_class is TraceClass.PRESERVING
                  and f.trace_class is TraceClass.PRESERVING)
    tc = TraceClass.PRESERVING if preserving else TraceClass.REDUCING
    return SuperOperator(e.n_qubits, kraus, tc)


def compose_parallel(e: SuperOperator, f: SuperOperator) -> SuperOperator:
    """Independent channels side by side: `e` on register qubits 1..n_e,
    `f` on the qubits above them (so f's Kraus factor is the most
    significant in the Kronecker product)."""
    kraus = tuple(np.kron(fk, ek) for fk in f.kraus for ek in e.kraus)
    preserving = (e.trace_class is TraceClass.PRESERVING
                  and f.trace_class is TraceClass.PRESERVING)
    tc = TraceClass.PRESERVING if preserving else TraceClass.REDUCING
    return SuperOperator(e.n_qubits + f.n_qubits, kraus, tc)


def check_targets(targets, shape, total: int) -> tuple:
    """The register qubits `targets` of an operator of the given matrix
    shape, validated against a `total`-qubit register: all in 1..total,
    none repeated, one target per wire (checked in that order)."""
    targets = tuple(targets)
    for t in targets:
        if not 1 <= t <= total:
            raise TargetOutOfRange(f"qubit {t} outside 1..{total}")
    k = len(targets)
    if len(set(targets)) != k:
        raise RepeatedQubit(f"repeated target in {list(targets)}")
    if tuple(shape) != (2 ** k, 2 ** k):
        raise DimensionMismatch(
            f"operator shape {tuple(shape)} does not fit {k} target qubits")
    return targets


def expand_operator(op: np.ndarray, targets, total: int) -> np.ndarray:
    """Lift a k-qubit operator (little-endian over its own wires) to `total`
    register qubits, wire j acting on qubit targets[j]."""
    op = np.asarray(op, dtype=complex)
    targets = list(check_targets(targets, op.shape, total))
    k = len(targets)
    rest = [q for q in range(1, total + 1) if q not in targets]
    dest = targets + rest  # wire j+1 of the padded operator -> qubit dest[j]
    # kron(I, op) with one axis per bit, most significant first: row axis a
    # holds wire total - a, which the result keeps on axis total - qubit
    full = np.eye(2 ** (total - k))[:, None, :, None] * op[None, :, None, :]
    axes = [0] * total
    for a in range(total):
        axes[total - dest[total - 1 - a]] = a
    full = full.reshape((2,) * (2 * total))
    return full.transpose(axes + [a + total for a in axes]).reshape(
        2 ** total, 2 ** total)


def embed(e: SuperOperator, targets, total: int) -> SuperOperator:
    """Channel acting as `e` on the listed register qubits and as the
    identity elsewhere, as dense 2^total x 2^total Kraus operators.

    The lifted set I (x) E_i has the normalisation defect
    I (x) (I - sum E_i^dagger E_i) of the checked set `e`: the same
    largest entry and the same eigenvalues.  So it keeps `e`'s trace
    class and unitarity and is not checked again, which would cost
    O(K 8^total)."""
    return SuperOperator._held(
        total, tuple(_frozen(expand_operator(k, targets, total))
                     for k in e.kraus), e.trace_class, e._unitary)


@dataclass(frozen=True, eq=False)
class Measurement:
    """A family {M_m} with sum_m M_m^dagger M_m = I, keyed by outcome."""

    n_qubits: int
    branches: dict

    def __post_init__(self):
        # together the branches are one trace-preserving channel
        whole = SuperOperator(self.n_qubits, tuple(self.branches.values()))
        object.__setattr__(self, "branches",
                           dict(zip(self.branches, whole.kraus)))

    def branch_channel(self, outcome) -> SuperOperator:
        """The trace-reducing channel {M_m} of one outcome."""
        if outcome not in self.branches:
            raise BadParameter(f"no outcome {outcome!r}; the outcomes are "
                               f"{list(self.branches)}")
        return SuperOperator(self.n_qubits, (self.branches[outcome],),
                             TraceClass.REDUCING)


def computational_measurement(n_qubits: int) -> Measurement:
    """Projective measurement in the computational basis; outcomes are the
    little-endian integers of the measured bitstrings."""
    d = 2 ** n_qubits
    branches = {}
    for m in range(d):
        p = np.zeros((d, d), dtype=complex)
        p[m, m] = 1.0
        branches[m] = p
    return Measurement(n_qubits, branches)


def entangled_reference(d: int) -> np.ndarray:
    """The unnormalised maximally entangled vector sum_k |kk> on C^d (x) C^d."""
    return np.eye(d).reshape(-1).astype(complex)


def vectorize_check(e: SuperOperator, a: np.ndarray):
    """Both sides of the vectorization identity, evaluated literally:
    lhs = (E(A) (x) I) Psi and rhs = M (A (x) I) Psi.  They agree within
    1e-10 for any channel and matrix of matching dimension."""
    a = np.asarray(a, dtype=complex)
    d = e.dim
    if a.shape != (d, d):
        raise DimensionMismatch(f"matrix shape {a.shape} vs channel dim {d}")
    psi = entangled_reference(d)
    lhs = np.kron(apply(e, a), np.eye(d)) @ psi
    rhs = matrix_rep(e) @ (np.kron(a, np.eye(d)) @ psi)
    return lhs, rhs


# --- standard gates and noises ------------------------------------------

_SQ2 = 1.0 / math.sqrt(2.0)

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex)

_FIXED_GATES = {
    "I": PAULI_I,
    "ID": PAULI_I,
    "X": PAULI_X,
    "Y": PAULI_Y,
    "Z": PAULI_Z,
    "H": HADAMARD,
    "S": np.diag([1, 1j]).astype(complex),
    "T": np.diag([1, np.exp(1j * math.pi / 4)]),
    # textbook layout: first wire (control) is the most significant bit
    "CX": np.block([[np.eye(2), np.zeros((2, 2))],
                    [np.zeros((2, 2)), PAULI_X]]),
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
    "SWAP": np.array([[1, 0, 0, 0], [0, 0, 1, 0],
                      [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex),
}
_FIXED_GATES["CNOT"] = _FIXED_GATES["CX"]

_ROTATIONS = {
    "RX": PAULI_X,
    "RY": PAULI_Y,
    "RZ": PAULI_Z,
}


def gate_matrix(name: str, *params: float) -> np.ndarray:
    """Unitary constant for a named gate, in the textbook layout (first
    wire = most significant bit).  Rotations RX/RY/RZ take one angle."""
    key = name.upper()
    if key in _FIXED_GATES:
        if params:
            raise BadParameter(f"gate {name} takes no parameters")
        return _FIXED_GATES[key].copy()
    if key in _ROTATIONS:
        if len(params) != 1:
            raise BadParameter(f"gate {name} takes exactly one angle")
        theta = float(params[0])
        if not math.isfinite(theta):
            raise BadParameter(f"gate {name} angle {theta} is not finite")
        pauli = _ROTATIONS[key]
        return (math.cos(theta / 2) * np.eye(2)
                - 1j * math.sin(theta / 2) * pauli)
    raise UnknownGate(f"unknown gate {name!r}")


def gate_on_qubits(name: str, wires, total: int, *params: float) -> SuperOperator:
    """Named gate applied to register qubits, first listed wire playing the
    gate's first (textbook most-significant) role.  The wire list is
    reversed when embedding because registers are little-endian."""
    u = gate_matrix(name, *params)
    return embed(SuperOperator.unitary(u), list(reversed(list(wires))), total)


def noise_library(name: str, p: float) -> SuperOperator:
    """Single-qubit flip noises: with probability 1-p the Pauli operator is
    applied, so the state is left alone with probability p."""
    if not 0.0 <= p <= 1.0:
        raise BadParameter(f"noise probability {p} outside [0, 1]")
    paulis = {
        "bit_flip": PAULI_X,
        "phase_flip": PAULI_Z,
        "bit_phase_flip": PAULI_Y,
    }
    key = name.lower().replace("-", "_").replace(" ", "_")
    if key not in paulis:
        raise UnknownGate(f"unknown noise {name!r}")
    kraus = []
    if p > 0.0:
        kraus.append(math.sqrt(p) * np.eye(2))
    if p < 1.0:
        kraus.append(math.sqrt(1.0 - p) * paulis[key])
    return SuperOperator(1, tuple(kraus), TraceClass.PRESERVING)


def partial_trace(rho: np.ndarray, keep, n_qubits: int) -> np.ndarray:
    """Reduced density matrix over the kept qubits (ascending order becomes
    the new little-endian register)."""
    keep = sorted(keep)
    rho = np.asarray(rho, dtype=complex)
    d = 2 ** n_qubits
    if rho.shape != (d, d):
        raise DimensionMismatch(f"state shape {rho.shape} vs dim {d}")
    for q in keep:
        if not 1 <= q <= n_qubits:
            raise TargetOutOfRange(f"qubit {q} outside 1..{n_qubits}")
    # axes: row bits little-endian, then column bits little-endian;
    # tracing a qubit gives its column axis the label of its row axis
    t = rho.reshape((2,) * (2 * n_qubits), order="F")
    rows = list(range(n_qubits))
    cols = [n_qubits + q if q + 1 in keep else q for q in range(n_qubits)]
    out = [q - 1 for q in keep] + [n_qubits + q - 1 for q in keep]
    reduced = np.einsum(t, rows + cols, out)
    k = len(keep)
    return reduced.reshape((2 ** k, 2 ** k), order="F")
