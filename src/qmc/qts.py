"""Quantum transition systems and the circuit compilers that produce them.

A transition system is a finite set of locations with super-operator
labelled edges; for every location with outgoing edges the operators sum to
a trace-preserving map, so stepping a configuration distributes all of its
probability mass over the successors.

A transition keeps its Kraus operators on its target qubits, as `local`
and `targets`; normalisation is validated on the qubits a location's edges
touch, and `step` contracts only the target axes of the state.  The
full-register channel `Transition.op` is built on first use, by `reach`
and the tests; nothing on the parse -> build -> check path builds it.

A configuration carries its state's spectral factor (U, lambda), state =
U diag(lambda) U^dagger.  Stepping maps the factor through the Kraus
operators and one thin SVD, so only a configuration built by hand (such as
the root of a graph) ever needs an eigendecomposition, of the rows and
columns its state occupies, and the checker reads every node's support
and trace digest straight from the factor.  A configuration that `step`
builds holds nothing but the factor, O(d r) numbers for a rank-r state:
its dense state is rebuilt only when it is read, and nothing on the check
path reads it.

The edge constructors `gate_edge`, `kraus_edge` and `measure_edge` are
the one place a transition is validated: `channel.check_targets` checks
its targets and arity, `channel.SuperOperator` its normalisation.  The
circuit compiler and the parser add no checks of their own; the parser
only re-raises a constructor's error at the transition's position.

This module also owns the textual model format (see docs/model_format.md
for the grammar).  Each transition keeps the surface form it was written
in, so serialize -> parse round trips reproduce the system exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import channel as ch
from .errors import (BadParameter, DimensionMismatch, InvalidDensityMatrix,
                     MalformedCircuit, NormalisationViolation, ParseError,
                     QmcError, UnknownLocation)
from .linalg import (TOL_EIG, TOL_HERM, TOL_HERM_STATE, TOL_NORM,
                     TOL_ORTHO, TOL_PROB_EXCESS, Subspace, row_blocks,
                     spectral_support)
from .parsing import (EOF, IDENT, NUMBER, TokenStream, format_complex,
                      parse_matrix, tokenize)

# Eigenvalues at or below this fraction of the largest are float noise and
# leave the spectral factor; keeping them would multiply its rank by the
# Kraus count on every noisy step.
_SPECTRUM_FLOOR = 1e-24

_PUNCTS = ["->", ":", ",", ";", "[", "]", "{", "}", "(", ")", "=", "+", "-"]
_KEYWORDS = {"qubits", "locations", "initial", "transitions",
             "gate", "kraus", "measure"}


# --- surface forms kept on transitions ------------------------------------

@dataclass(frozen=True)
class GateSpec:
    name: str
    targets: tuple
    params: tuple = ()


@dataclass(frozen=True)
class KrausSpec:
    matrices: tuple  # nested tuples of complex, little-endian over targets
    targets: tuple


@dataclass(frozen=True)
class MeasureSpec:
    name: str
    targets: tuple
    outcome: int


@dataclass(frozen=True, eq=False)
class Transition:
    """An edge whose channel `local` acts on its own wires; wire j is
    register qubit targets[j] (little-endian on both sides).  `op`, the
    same channel on the whole register, is built on first use."""

    pre: str
    post: str
    local: ch.SuperOperator
    targets: tuple
    n_qubits: int
    spec: object  # GateSpec | KrausSpec | MeasureSpec
    _op: list = field(default_factory=list, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "targets", ch.check_targets(
            self.targets, self.local.kraus[0].shape, self.n_qubits))

    @property
    def op(self) -> ch.SuperOperator:
        if not self._op:
            if self.targets == tuple(range(1, self.n_qubits + 1)):
                self._op.append(self.local)
            else:
                self._op.append(ch.embed(self.local, self.targets,
                                         self.n_qubits))
        return self._op[0]


def gate_edge(pre, post, name, targets, n_qubits, params=()) -> Transition:
    """A named gate; the first listed target plays the gate's first
    (textbook most-significant) wire, so the wire list is reversed onto the
    little-endian register."""
    spec = GateSpec(name.upper(), tuple(targets), tuple(params))
    local = ch.SuperOperator.unitary(ch.gate_matrix(name, *spec.params))
    return Transition(pre, post, local, spec.targets[::-1], n_qubits, spec)


def kraus_edge(pre, post, matrices, targets, n_qubits) -> Transition:
    arrays = [np.array(m, dtype=complex) for m in matrices]
    spec = KrausSpec(tuple(tuple(map(tuple, a.tolist())) for a in arrays),
                     tuple(targets))
    local = ch.SuperOperator.from_kraus(arrays)
    return Transition(pre, post, local, spec.targets, n_qubits, spec)


def measure_edge(pre, post, targets, outcome, n_qubits, name="M") -> Transition:
    """One outcome of a computational-basis measurement of `targets`: the
    projector onto the outcome's little-endian bitstring, and only it."""
    spec = MeasureSpec(name, tuple(targets), int(outcome))
    d = 2 ** len(spec.targets)
    # the projector grows as 4^k with the target list, so validate it first
    ch.check_targets(spec.targets, (d, d), n_qubits)
    if not 0 <= spec.outcome < d:
        raise BadParameter(f"no outcome {spec.outcome!r}; the outcomes are "
                           f"0..{d - 1}")
    proj = np.zeros((d, d), dtype=complex)
    proj[spec.outcome, spec.outcome] = 1.0
    local = ch.SuperOperator(len(spec.targets), (proj,),
                             ch.TraceClass.REDUCING)
    return Transition(pre, post, local, spec.targets, n_qubits, spec)


@dataclass(frozen=True, eq=False)
class QuantumTransitionSystem:
    n_qubits: int
    locations: tuple
    initial: str
    transitions: tuple
    _out: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        locs = tuple(self.locations)
        if len(set(locs)) != len(locs):
            raise MalformedCircuit("duplicate location names")
        if self.initial not in locs:
            raise UnknownLocation(f"initial location {self.initial!r} undeclared")
        out = {l: [] for l in locs}
        for t in self.transitions:
            if t.pre not in out or t.post not in out:
                bad = t.pre if t.pre not in out else t.post
                raise UnknownLocation(f"transition endpoint {bad!r} undeclared")
            out[t.pre].append(t)
        for l, ts in out.items():
            if not ts:
                continue
            # the dense defect is (defect on the qubits the edges touch)
            # tensor the identity, so its largest entry is found on them
            span = sorted({q for t in ts for q in t.targets})
            wire = {q: j for j, q in enumerate(span, 1)}
            kraus = tuple(
                ch.expand_operator(k, [wire[q] for q in t.targets], len(span))
                for t in ts for k in t.local.kraus)
            try:
                ch.SuperOperator(len(span), kraus)
            except NormalisationViolation as exc:
                raise NormalisationViolation(
                    f"outgoing operators at location {l!r} sum to a map with "
                    f"normalisation defect {exc.defect:.3e}", location=l,
                    defect=exc.defect) from None
        object.__setattr__(self, "locations", locs)
        object.__setattr__(self, "transitions", tuple(self.transitions))
        self._out.update(out)

    def outgoing(self, location: str):
        if location not in self._out:
            raise UnknownLocation(f"unknown location {location!r}")
        return tuple(self._out[location])

    def same_system(self, other: "QuantumTransitionSystem",
                    tol: float = 1e-12) -> bool:
        """Structural equality: locations, initial, and transitions with the
        same surface specs and numerically equal local operators."""
        if (self.n_qubits, self.locations, self.initial) != \
                (other.n_qubits, other.locations, other.initial):
            return False
        if len(self.transitions) != len(other.transitions):
            return False
        for a, b in zip(self.transitions, other.transitions):
            if (a.pre, a.post, a.spec) != (b.pre, b.post, b.spec):
                return False
            if len(a.local.kraus) != len(b.local.kraus):
                return False
            for ka, kb in zip(a.local.kraus, b.local.kraus):
                if np.abs(ka - kb).max() > tol:
                    return False
        return True


class Configuration:
    """A location paired with a normalised state; `probability` is the mass
    of the branch that led here.

    A configuration built by hand, such as the root of a graph, holds its
    dense state (a read-only complex array as it is, anything else as a
    read-only copy), checked for finite entries and Hermiticity (a block of
    rows at a time) and unit trace; its spectral factor is computed the
    first time `spectrum` is read, by one `eigh` of the rows and columns
    the state occupies.  A
    configuration that `step` builds (`from_factor`) holds only the factor
    (U, lambda), checked at O(d r^2): U orthonormal and lambda summing to
    1.  Its `state` is rebuilt on every read and never kept."""

    __slots__ = ("location", "probability", "_state", "_spectrum",
                 "_herm_defect")

    def __init__(self, location: str, state, probability: float = 1.0):
        if not (isinstance(state, np.ndarray) and state.dtype == complex
                and not state.flags.writeable):
            state = np.array(state, dtype=complex)
        if state.ndim != 2 or state.shape[0] != state.shape[1]:
            raise DimensionMismatch(f"state shape {state.shape}")
        # kept so that `support` repeats linalg.support's stricter check
        # without another pass over the matrix
        defect = 0.0
        # a finite entry so large that a difference or the trace overflows
        # fails its check as inf, without a warning
        with np.errstate(over="ignore"):
            for rows in row_blocks(*state.shape):
                diff = np.conjugate(state[:, rows].T)
                # refused before the subtraction, which would warn on them
                if not (np.isfinite(diff).all()
                        and np.isfinite(state[rows]).all()):
                    raise DimensionMismatch(
                        "configuration state has a non-finite entry")
                diff -= state[rows]
                block = float(np.abs(diff).max(initial=0.0))
                if not block <= TOL_HERM_STATE:
                    raise DimensionMismatch(
                        "configuration state is not Hermitian")
                defect = max(defect, block)
            tr = float(np.trace(state).real)
        if not abs(tr - 1.0) <= TOL_NORM:
            raise DimensionMismatch(f"configuration state trace {tr}")
        state.setflags(write=False)
        self._init(location, probability, state, None, defect)

    @classmethod
    def from_factor(cls, location: str, vecs: np.ndarray, vals: np.ndarray,
                    probability: float = 1.0) -> "Configuration":
        """The configuration of state vecs diag(vals) vecs^dagger, for
        orthonormal columns `vecs` and positive `vals`, descending.  The
        arrays are kept, not copied, and made read-only."""
        gram = vecs.conj().T @ vecs
        # `not x <= tol` also refuses a NaN
        if not np.abs(gram - np.eye(len(gram))).max(initial=0.0) <= TOL_ORTHO:
            raise DimensionMismatch("configuration factor is not orthonormal")
        tr = float(vals.sum())
        if not abs(tr - 1.0) <= TOL_NORM:
            raise DimensionMismatch(f"configuration state trace {tr}")
        vecs.setflags(write=False)
        vals.setflags(write=False)
        config = object.__new__(cls)
        config._init(location, probability, None, (vecs, vals), 0.0)
        return config

    def _init(self, location, probability, state, spectrum, herm_defect):
        if not 0.0 < probability <= 1.0 + TOL_PROB_EXCESS:
            raise DimensionMismatch(
                f"branch probability {probability} outside (0, 1]")
        self.location = location
        self.probability = probability
        self._state = state
        self._spectrum = spectrum
        self._herm_defect = herm_defect

    @property
    def state(self) -> np.ndarray:
        """The dense state: the one held, or U diag(lambda) U^dagger rebuilt
        in a fresh array and Hermitian-symmetrized in place, which makes it
        exactly Hermitian."""
        if self._state is not None:
            return self._state
        u, lam = self._spectrum
        post = (u * lam) @ u.conj().T
        post += post.conj().T
        post /= 2.0
        return post

    @property
    def spectrum(self) -> tuple:
        """(U, lambda) with state = U diag(lambda) U^dagger, lambda
        descending and U with as many columns as lambda has entries, at
        most d.  Eigenvalues at or below _SPECTRUM_FLOOR times the largest,
        negative ones included, are float noise and left out.

        A held state is decomposed on its live indices, those whose row or
        column has a nonzero entry: the others span a zero block, which
        holds no kept eigenvalue.  So |0...0><0...0| costs a 1 x 1 `eigh`,
        and a state with every index live is decomposed as it is held."""
        if self._spectrum is None:
            state = self._state
            d = len(state)
            live = np.zeros(d, dtype=bool)
            for rows in row_blocks(d, d):
                nonzero = state[rows] != 0
                live[rows] |= nonzero.any(axis=1)
                live |= nonzero.any(axis=0)
            idx = np.flatnonzero(live)
            w, v = np.linalg.eigh(
                state if len(idx) == d else state[np.ix_(idx, idx)])
            keep = w > _SPECTRUM_FLOOR * w[-1]
            vecs = v[:, keep][:, ::-1]
            if len(idx) < d:
                scattered = np.zeros((d, vecs.shape[1]), dtype=complex)
                scattered[idx] = vecs
                vecs = scattered
            self._spectrum = (vecs, w[keep][::-1])
        return self._spectrum

    @property
    def factor(self) -> np.ndarray:
        """L = U sqrt(lambda), so that state = L L^dagger (d x r)."""
        vecs, vals = self.spectrum
        return vecs * np.sqrt(vals)

    def support(self, rtol: float = TOL_EIG) -> Subspace:
        """The state's support as `linalg.support` defines it, read from
        the spectral factor."""
        if self._herm_defect > TOL_HERM:
            raise InvalidDensityMatrix("matrix is not Hermitian")
        return spectral_support(*self.spectrum, rtol)


def _apply_local(t: Transition, factor: np.ndarray) -> np.ndarray:
    """The stack [E_1 F, ..., E_K F] for the full-register Kraus operators
    E_k of `t.op`, computed from the local ones by contracting the target
    axes of F in O(K 2^n r 2^t) instead of O(K 4^n r)."""
    n, w = t.n_qubits, len(t.targets)
    r = factor.shape[1]
    # register qubit q is axis n - q of F reshaped to (2,)*n + (r,); wire j
    # of the stacked local operators is row axis w - j + 1 and column axis
    # 2w - j + 1, after the Kraus index
    kraus = np.stack(t.local.kraus).reshape((-1,) + (2,) * (2 * w))
    out = np.tensordot(kraus, factor.reshape((2,) * n + (r,)),
                       axes=([2 * w - j + 1 for j in range(1, w + 1)],
                             [n - q for q in t.targets]))
    # out: Kraus index, row wires w..1, the untouched qubit axes, r
    out = np.moveaxis(out, range(w + 1),
                      [n] + [n - q for q in t.targets[::-1]])
    return out.reshape(2 ** n, -1)


def step(sys: QuantumTransitionSystem, config: Configuration):
    """One transition step: every outgoing branch with probability above
    TOL_PROB, as (successor configuration, branch probability) pairs.  The
    branch probabilities sum to 1 and the successor configurations carry
    `config.probability` times their branch probability.

    With L = U sqrt(lambda) the configuration's factor, a branch's
    unnormalised state is S S^dagger for the stack S = [E_1 L, ..., E_K L];
    its probability is |S|_F^2 and one thin SVD of S gives the successor's
    spectral factor, which is all the successor holds.  Eigenvalues at or
    below _SPECTRUM_FLOOR times the largest are dropped as float noise.
    Each E_k L contracts only the target axes of L (see `_apply_local`), so
    a step touches O(K d r 2^t) data and builds no d x d matrix."""
    transitions = sys.outgoing(config.location)
    factor = config.factor
    results = []
    for t in transitions:
        stack = _apply_local(t, factor)
        p = float(np.vdot(stack, stack).real)
        if p > ch.TOL_PROB:
            u, s, _ = np.linalg.svd(stack, full_matrices=False)
            lam = s * s / p
            keep = lam > _SPECTRUM_FLOOR * lam[0]
            succ = Configuration.from_factor(t.post, u[:, keep], lam[keep],
                                             config.probability * p)
            results.append((succ, p))
    return results


# --- circuit intermediate representation ----------------------------------

@dataclass(frozen=True)
class Gate:
    """A (possibly noisy) gate application.  Either a library gate by name
    (textbook wire order, first wire = control for CX) or a raw channel
    whose Kraus operators are little-endian over `qubits`."""

    qubits: tuple
    name: str = None
    params: tuple = ()
    op: ch.SuperOperator = None

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(self.qubits))
        object.__setattr__(self, "params", tuple(self.params))
        if (self.name is None) == (self.op is None):
            raise MalformedCircuit("gate needs exactly one of name / op")


@dataclass(frozen=True)
class Seq:
    first: object
    second: object


@dataclass(frozen=True)
class Cond:
    """Measure `qubits`, then continue with the branch of the outcome."""

    measurement: ch.Measurement
    qubits: tuple
    branches: dict

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(self.qubits))
        object.__setattr__(self, "branches", dict(self.branches))


def _branch_edge(pre, post, cond: Cond, outcome, n_qubits) -> Transition:
    """The edge of one outcome of `cond`: a `measure` edge when its branch
    operator is the computational-basis projector on `cond.qubits`, else a
    Kraus edge carrying the operator."""
    mat = cond.measurement.branch_channel(outcome).kraus[0]
    if (len(mat) == 2 ** len(cond.qubits) and outcome in range(len(mat))
            and mat[outcome, outcome] == 1 and np.count_nonzero(mat) == 1):
        return measure_edge(pre, post, cond.qubits, outcome, n_qubits)
    return kraus_edge(pre, post, [mat], cond.qubits, n_qubits)


def compile_circuit(ir, n_qubits: int) -> QuantumTransitionSystem:
    """Compile a dynamic circuit into a transition system.

    Gates become single edges, sequencing chains sub-systems, and a
    measurement fans out one trace-reducing edge per outcome followed by a
    fresh copy of that outcome's branch (the result is a tree).  Every
    terminal location gets an identity self-loop so paths never end.
    The edge constructors validate every edge."""
    counter = itertools.count()
    locations = []
    transitions = []

    def fresh() -> str:
        name = f"l{next(counter)}"
        locations.append(name)
        return name

    def emit(node, pre) -> list:
        if isinstance(node, Gate):
            post = fresh()
            if node.name is not None:
                transitions.append(gate_edge(pre, post, node.name,
                                             node.qubits, n_qubits,
                                             node.params))
            else:
                transitions.append(kraus_edge(pre, post, node.op.kraus,
                                              node.qubits, n_qubits))
            return [post]
        if isinstance(node, Seq):
            terminals = []
            for mid in emit(node.first, pre):
                terminals.extend(emit(node.second, mid))
            return terminals
        if isinstance(node, Cond):
            missing = set(node.measurement.branches) - set(node.branches)
            if missing:
                raise MalformedCircuit(
                    f"no branch for outcomes {sorted(missing)}")
            terminals = []
            for outcome in sorted(node.branches):
                post = fresh()
                transitions.append(_branch_edge(pre, post, node, outcome,
                                                n_qubits))
                terminals.extend(emit(node.branches[outcome], post))
            return terminals
        raise MalformedCircuit(f"not a circuit node: {node!r}")

    start = fresh()
    for terminal in emit(ir, start):
        transitions.append(gate_edge(terminal, terminal, "I", (1,), n_qubits))
    return QuantumTransitionSystem(n_qubits, tuple(locations), start,
                                   tuple(transitions))


def build_sequential(combinational: ch.SuperOperator, state_qubits: int,
                     memory_qubits: int) -> QuantumTransitionSystem:
    """Synchronous sequential circuit: one location whose self-loop applies
    the combinational channel every clock cycle, the memory wires being fed
    back."""
    n = state_qubits + memory_qubits
    if combinational.n_qubits != n:
        raise DimensionMismatch(
            f"combinational part has {combinational.n_qubits} qubits, "
            f"expected {state_qubits}+{memory_qubits}")
    loop = kraus_edge("l0", "l0", combinational.kraus,
                      tuple(range(1, n + 1)), n)
    return QuantumTransitionSystem(n, ("l0",), "l0", (loop,))


# --- the teleportation fixture --------------------------------------------

def teleportation_qts() -> QuantumTransitionSystem:
    """The three-qubit teleportation protocol as a transition system:
    entangle, Bell-measure qubits 2 then 1, and apply the X/Z corrections
    on qubit 3; terminal locations loop on the identity."""
    n = 3
    e = []
    e.append(gate_edge("l0", "l1", "CX", (1, 2), n))
    e.append(gate_edge("l1", "l2", "H", (1,), n))
    e.append(measure_edge("l2", "l3", (2,), 0, n))
    e.append(measure_edge("l2", "l4", (2,), 1, n))
    e.append(gate_edge("l3", "l5", "I", (3,), n))
    e.append(gate_edge("l4", "l6", "X", (3,), n))
    e.append(measure_edge("l5", "l7", (1,), 0, n))
    e.append(measure_edge("l5", "l8", (1,), 1, n))
    e.append(measure_edge("l6", "l9", (1,), 0, n))
    e.append(measure_edge("l6", "l10", (1,), 1, n))
    e.append(gate_edge("l7", "l11", "I", (3,), n))
    e.append(gate_edge("l8", "l12", "Z", (3,), n))
    e.append(gate_edge("l9", "l13", "I", (3,), n))
    e.append(gate_edge("l10", "l14", "Z", (3,), n))
    for terminal in ("l11", "l12", "l13", "l14"):
        e.append(gate_edge(terminal, terminal, "I", (1,), n))
    locations = tuple(f"l{i}" for i in range(15))
    return QuantumTransitionSystem(n, locations, "l0", tuple(e))


def teleportation_circuit() -> object:
    """The same protocol as a dynamic circuit (compiles to a system
    isomorphic to `teleportation_qts`)."""
    m1 = ch.computational_measurement(1)
    fix_x = Cond(m1, (2,), {0: Gate((3,), name="I"), 1: Gate((3,), name="X")})
    fix_z = Cond(m1, (1,), {0: Gate((3,), name="I"), 1: Gate((3,), name="Z")})
    return Seq(Seq(Gate((1, 2), name="CX"), Gate((1,), name="H")),
               Seq(fix_x, fix_z))


def teleportation_input(psi) -> np.ndarray:
    """Initial density matrix: `psi` on qubit 1, qubits 2-3 sharing the
    maximally entangled pair."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.shape[0] != 2:
        raise DimensionMismatch("teleportation input must be a single qubit")
    bell = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    full = np.kron(bell, psi)
    return np.outer(full, full.conj())


# --- textual model format --------------------------------------------------

def parse_model(text: str) -> QuantumTransitionSystem:
    """Parse the textual model format; all system invariants are validated
    and violations carry source positions."""
    ts = TokenStream(tokenize(text, _PUNCTS))

    ts.expect_keyword("qubits")
    n_tok = ts.peek()
    n_qubits = ts.expect_int("qubit count")
    if n_qubits < 1:
        raise ParseError("qubit count must be positive", n_tok.line,
                         n_tok.column)

    ts.expect_keyword("locations")
    locations = []
    while ts.peek().kind == IDENT and not ts.at_keyword("initial"):
        tok = ts.next()
        if tok.text in _KEYWORDS:
            raise ParseError(f"{tok.text!r} is a reserved word", tok.line,
                             tok.column)
        locations.append(tok.text)
    if not locations:
        ts.error("expected at least one location")

    ts.expect_keyword("initial")
    initial_tok = ts.expect_ident("initial location")

    ts.expect_keyword("transitions")
    transitions = []
    positions = {}
    while ts.peek().kind != EOF:
        pre_tok = ts.peek()
        transitions.append(_parse_transition(ts, n_qubits, set(locations)))
        positions.setdefault(transitions[-1].pre, (pre_tok.line,
                                                   pre_tok.column))

    try:
        return QuantumTransitionSystem(n_qubits, tuple(locations),
                                       initial_tok.text, tuple(transitions))
    except NormalisationViolation as exc:
        line, col = positions.get(exc.location, (1, 1))
        raise NormalisationViolation(
            f"location {exc.location!r}: outgoing operators have "
            f"normalisation defect {exc.defect:.3e}", location=exc.location,
            defect=exc.defect, line=line, column=col) from None


def _parse_targets(ts: TokenStream) -> tuple:
    ts.expect_punct("[")
    targets = [ts.expect_int("qubit id")]
    while ts.accept_punct(","):
        targets.append(ts.expect_int("qubit id"))
    ts.expect_punct("]")
    return tuple(targets)


def _parse_transition(ts: TokenStream, n_qubits: int, known) -> Transition:
    pre_tok = ts.expect_ident("location")
    if pre_tok.text not in known:
        raise ParseError(f"undeclared location {pre_tok.text!r}",
                         pre_tok.line, pre_tok.column)
    ts.expect_punct("->")
    post_tok = ts.expect_ident("location")
    if post_tok.text not in known:
        raise ParseError(f"undeclared location {post_tok.text!r}",
                         post_tok.line, post_tok.column)
    ts.expect_punct(":")
    op_tok = ts.peek()
    if ts.at_keyword("gate"):
        ts.next()
        name = ts.expect_ident("gate name").text
        params = []
        if ts.accept_punct("("):
            while True:
                sign = -1.0 if ts.accept_punct("-") else 1.0
                tok = ts.peek()
                if tok.kind != NUMBER:
                    ts.error("expected a gate parameter")
                ts.next()
                params.append(sign * float(tok.value))
                if not ts.accept_punct(","):
                    break
            ts.expect_punct(")")
        make, args = gate_edge, (name, _parse_targets(ts), n_qubits,
                                 tuple(params))
    elif ts.at_keyword("kraus"):
        ts.next()
        ts.expect_punct("{")
        mats = [parse_matrix(ts)]
        while ts.accept_punct(";"):
            mats.append(parse_matrix(ts))
        ts.expect_punct("}")
        make, args = kraus_edge, (mats, _parse_targets(ts), n_qubits)
    elif ts.at_keyword("measure"):
        ts.next()
        name = ts.expect_ident("measurement name").text
        targets = _parse_targets(ts)
        ts.expect_punct("=")
        outcome = ts.expect_int("outcome")
        make, args = measure_edge, (targets, outcome, n_qubits, name)
    else:
        raise ParseError(f"expected gate, kraus, or measure, got "
                         f"{op_tok.text!r}", op_tok.line, op_tok.column)
    # the edge constructors validate the transition; a rejection is
    # reported at the position of its operation
    try:
        return make(pre_tok.text, post_tok.text, *args)
    except NormalisationViolation as exc:
        raise NormalisationViolation(
            str(exc), location=pre_tok.text, defect=exc.defect,
            line=op_tok.line, column=op_tok.column) from exc
    except QmcError as exc:
        raise ParseError(str(exc), op_tok.line, op_tok.column) from exc


def _format_matrix(rows) -> str:
    return "[" + ", ".join(
        "[" + ", ".join(format_complex(x) for x in row) + "]"
        for row in rows) + "]"


def serialize_model(sys: QuantumTransitionSystem) -> str:
    """Canonical text for a system; parse(serialize(s)) equals s."""
    lines = [f"qubits {sys.n_qubits}", ""]
    lines.append("locations " + " ".join(sys.locations))
    lines.append(f"initial {sys.initial}")
    lines.append("")
    lines.append("transitions")
    for t in sys.transitions:
        spec = t.spec
        if isinstance(spec, GateSpec):
            params = ""
            if spec.params:
                params = "(" + ", ".join(repr(float(p))
                                         for p in spec.params) + ")"
            op = f"gate {spec.name}{params}" \
                 f"[{', '.join(str(q) for q in spec.targets)}]"
        elif isinstance(spec, MeasureSpec):
            op = f"measure {spec.name}" \
                 f"[{', '.join(str(q) for q in spec.targets)}] = {spec.outcome}"
        else:
            body = " ; ".join(_format_matrix(m) for m in spec.matrices)
            op = f"kraus {{ {body} }}" \
                 f"[{', '.join(str(q) for q in spec.targets)}]"
        lines.append(f"  {t.pre} -> {t.post} : {op}")
    return "\n".join(lines) + "\n"
