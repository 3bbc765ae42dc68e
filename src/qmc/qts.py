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

A configuration holds nothing but its state's spectral factor (U,
lambda), state = U diag(lambda) U^dagger: O(d r) numbers for a rank-r
state.  Stepping maps the factor through the Kraus operators; a unitary
edge maps U to the orthonormal E U and keeps lambda, and any other edge
takes one thin SVD of the mapped factor (see `step`).  Every factor passes
one Gram check as its configuration is made.  Only a configuration built
from a dense state needs an eigendecomposition, of the rows and columns
its state occupies (its live block).  One pass over the dense state finds that block, and every other
check reads the block alone, so a dense |0...0><0...0| root costs one
pass and a 1 x 1 `eigh`.  The checker reads every node's support and
trace digest straight from the factor.  The dense state is rebuilt only
when it is read, and nothing on the check path reads it.

The edge constructors `gate_edge`, `kraus_edge` and `measure_edge` are
the one place a transition is validated: `channel.check_targets` checks
its targets and arity, `channel.SuperOperator` its normalisation.  The
circuit compiler and the parser add no checks of their own; the parser
only re-raises a constructor's error at the transition's position.
Within one `parse_model` or `compile_circuit` call each distinct library
gate (its name as written and the bits of its parameters) and each
distinct projector (its number of targets and outcome) is built and
checked once, and every edge that applies it shares that immutable
channel, with its stacked Kraus matrix (`_apply_local`); nothing is kept
between calls.  A `kraus` literal has a channel of its own.

This module also owns the textual model format (see docs/model_format.md
for the grammar).  Each transition keeps the surface form it was written
in, so serialize -> parse round trips reproduce the system exactly.  The
teleportation fixture is one dynamic circuit, `teleportation_circuit`,
which `teleportation_qts` compiles.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import channel as ch
from .errors import (BadParameter, DimensionMismatch, InvalidDensityMatrix,
                     MalformedCircuit, NormalisationViolation, ParseError,
                     QmcError, UnknownLocation)
from .linalg import (TOL_EIG, TOL_HERM, TOL_HERM_STATE, TOL_NORM,
                     TOL_ORTHO, TOL_PROB, TOL_PROB_EXCESS, Subspace,
                     _gram_defect, hermitian_part, row_blocks,
                     spectral_support)
from .parsing import (EOF, IDENT, NUMBER, TokenStream, format_complex,
                      parse_matrix, parse_text)

# Eigenvalues at or below this fraction of the largest are float noise and
# leave the spectral factor; keeping them would multiply its rank by the
# Kraus count on every noisy step.
_SPECTRUM_FLOOR = 1e-24

# The Gram defect up to which a unitary edge's successor keeps the columns
# its parent's factor is mapped to.  Each step adds about an ulp, so this
# is reached only after thousands of steps, and is far below TOL_ORTHO.
_UNITARY_DRIFT = 1e-12

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

    def __post_init__(self):
        object.__setattr__(self, "targets", ch.check_targets(
            self.targets, self.local.kraus[0].shape, self.n_qubits))

    @cached_property
    def op(self) -> ch.SuperOperator:
        if self.targets == tuple(range(1, self.n_qubits + 1)):
            return self.local
        return ch.embed(self.local, self.targets, self.n_qubits)

    @cached_property
    def _plan(self) -> tuple:
        """The two axis orders of `_apply_local`.  `into` takes the factor,
        reshaped to one axis per qubit (qubit q on axis n - q) and a last
        axis of r columns, to the target axes of wires 1..w, the other
        qubit axes in order, and the columns.  `back` takes the product's
        axes (Kraus index, row wires w..1, the other qubit axes, columns)
        to one axis per qubit, the Kraus index and the columns."""
        n, w = self.n_qubits, len(self.targets)
        wires = [n - q for q in self.targets]
        rest = [a for a in range(n) if a not in wires]
        where = {a: w - j for j, a in enumerate(wires)}
        where.update({a: w + 1 + i for i, a in enumerate(rest)})
        into = tuple(wires + rest + [n])
        back = tuple(where[a] for a in range(n)) + (0, n + 1)
        return into, back


def _shared(channels, key, build) -> ch.SuperOperator:
    """The channel `build()` makes, made and checked once per `key` in the
    dict `channels` (None keeps nothing), which one model's edges share."""
    if channels is None or key is None:
        return build()
    if key not in channels:
        channels[key] = build()
    return channels[key]


def _gate_key(name, params):
    """A gate's key among a model's shared channels: its name as written
    and the bits of its parameters, so -0.0 and 0.0 stay apart; None, so
    nothing is shared, for a parameter that is not a real number."""
    try:
        return ("gate", name) + tuple(float(p).hex() for p in params)
    except (TypeError, ValueError):
        return None


def gate_edge(pre, post, name, targets, n_qubits, params=(),
              channels=None) -> Transition:
    """A named gate; the first listed target plays the gate's first
    (textbook most-significant) wire, so the wire list is reversed onto the
    little-endian register.  `channels` is the dict of checked channels the
    edges of one model share, if any."""
    spec = GateSpec(name.upper(), tuple(targets), tuple(params))
    local = _shared(channels, _gate_key(name, spec.params),
                    lambda: ch.SuperOperator.unitary(
                        ch.gate_matrix(name, *spec.params)))
    return Transition(pre, post, local, spec.targets[::-1], n_qubits, spec)


def kraus_edge(pre, post, matrices, targets, n_qubits) -> Transition:
    """A Kraus set given as arrays or nested sequences, little-endian over
    `targets`; the spec keeps each matrix as nested tuples."""
    arrays = [np.array(m, dtype=complex) for m in matrices]
    spec = KrausSpec(tuple(tuple(map(tuple, a.tolist())) for a in arrays),
                     tuple(targets))
    local = ch.SuperOperator.from_kraus(arrays)
    return Transition(pre, post, local, spec.targets, n_qubits, spec)


def measure_edge(pre, post, targets, outcome, n_qubits, name="M",
                 channels=None) -> Transition:
    """One outcome of a computational-basis measurement of `targets`: the
    projector onto the outcome's little-endian bitstring, and only it.
    `channels` is as for `gate_edge`; a projector's key is its number of
    targets and its outcome."""
    spec = MeasureSpec(name, tuple(targets), int(outcome))
    d = 2 ** len(spec.targets)
    # the projector grows as 4^k with the target list, so validate it first
    ch.check_targets(spec.targets, (d, d), n_qubits)
    if not 0 <= spec.outcome < d:
        raise BadParameter(f"no outcome {spec.outcome!r}; the outcomes are "
                           f"0..{d - 1}")

    def projector():
        proj = np.zeros((d, d), dtype=complex)
        proj[spec.outcome, spec.outcome] = 1.0
        return ch.SuperOperator(len(spec.targets), (proj,),
                                ch.TraceClass.REDUCING)

    local = _shared(channels, ("measure", len(spec.targets), spec.outcome),
                    projector)
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
            # a lone trace-preserving edge passed this same check, at the
            # same tolerance, when its channel was built
            if not ts or (len(ts) == 1 and ts[0].local.trace_class
                          is ch.TraceClass.PRESERVING):
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
    """A location paired with a normalised state, held as nothing but its
    spectral factor `spectrum` = (U, lambda), state = U diag(lambda)
    U^dagger, with lambda positive and descending and U orthonormal with
    as many columns as lambda has entries; `probability` is the mass of
    the branch that led here.

    Built from a dense state, a configuration first finds the rows and
    columns the state occupies, its live block, in one pass over the
    state; every nonzero entry lies in that block.  It checks the block
    for finite entries, Hermiticity (a block of rows at a time), unit trace
    and positive semidefiniteness, and decomposes it once, by one `eigh`,
    so |0...0><0...0| costs one pass and a 1 x 1 `eigh`; the dense state
    is not kept.  Built by `from_factor`, as `step` builds every
    successor and the CLI a ket root, it holds the factor it is given,
    checked at O(d r^2).  Either way `state` is rebuilt on every read and
    never kept."""

    __slots__ = ("location", "probability", "spectrum")

    def __init__(self, location: str, state, probability: float = 1.0):
        state = np.asarray(state, dtype=complex)
        if state.ndim != 2 or state.shape[0] != state.shape[1]:
            raise DimensionMismatch(f"state shape {state.shape}")
        d = len(state)
        # the live indices, those whose row or column has a nonzero entry
        # (a NaN or an inf is nonzero).  Every nonzero entry and its mirror
        # lie in the live x live block, so the checks and the `eigh` read
        # that block alone; the others span a zero block, which passes
        # every check and holds no kept eigenvalue
        live = np.zeros(d, dtype=bool)
        for rows in row_blocks(d, d):
            # read as (real, imaginary) pairs, which compare several times
            # faster than complex entries
            nonzero = np.ascontiguousarray(state[rows]).view(float) != 0
            live[rows] |= nonzero.any(axis=1)
            live |= nonzero.any(axis=0).reshape(d, 2).any(axis=1)
        idx = np.flatnonzero(live)
        sub = state if len(idx) == d else state[np.ix_(idx, idx)]
        defect = 0.0
        # a finite entry so large that a difference or the trace overflows
        # fails its check as inf, without a warning
        with np.errstate(over="ignore"):
            for rows in row_blocks(d, d):
                # the live rows of this block of the whole state, so faults
                # are found in the order a scan of the whole state finds them
                rows = slice(*np.searchsorted(idx, (rows.start, rows.stop)))
                if rows.start == rows.stop:
                    continue
                diff = np.conjugate(sub[:, rows].T)
                # refused before the subtraction, which would warn on them
                if not (np.isfinite(diff).all()
                        and np.isfinite(sub[rows]).all()):
                    raise DimensionMismatch(
                        "configuration state has a non-finite entry")
                diff -= sub[rows]
                block = float(np.abs(diff).max(initial=0.0))
                if not block <= TOL_HERM_STATE:
                    raise DimensionMismatch(
                        "configuration state is not Hermitian")
                defect = max(defect, block)
            tr = float(np.trace(state).real)
        if not abs(tr - 1.0) <= TOL_NORM:
            raise DimensionMismatch(f"configuration state trace {tr}")
        if defect > TOL_HERM:
            raise InvalidDensityMatrix("matrix is not Hermitian")
        # so |0...0><0...0| costs a 1 x 1 `eigh`, and a state with every
        # index live is decomposed as it is given
        w, v = np.linalg.eigh(sub)
        if w[0] < -TOL_HERM_STATE:
            raise InvalidDensityMatrix(
                "density matrix is not positive semidefinite")
        # `eigh` leaves noise of up to about len(sub) ulps of the largest
        # eigenvalue, far above _SPECTRUM_FLOOR: |+...+><+...+| on 9 qubits
        # would keep 244 columns
        floor = max(_SPECTRUM_FLOOR, len(sub) * np.finfo(float).eps)
        keep = w > floor * w[-1]
        vecs = v[:, keep][:, ::-1]
        if len(idx) < d:
            scattered = np.zeros((d, vecs.shape[1]), dtype=complex)
            scattered[idx] = vecs
            vecs = scattered
        if not _gram_defect(vecs) <= TOL_ORTHO:
            raise DimensionMismatch("configuration factor is not orthonormal")
        self._init(location, probability, vecs, w[keep][::-1])

    @classmethod
    def from_factor(cls, location: str, vecs: np.ndarray, vals: np.ndarray,
                    probability: float = 1.0) -> "Configuration":
        """The configuration of state vecs diag(vals) vecs^dagger, for
        orthonormal columns `vecs` and positive `vals`, descending.  The
        arrays are kept, not copied, and made read-only."""
        return cls._factored(location, vecs, vals, probability,
                             _gram_defect(vecs))

    @classmethod
    def _factored(cls, location, vecs, vals, probability, defect):
        """`from_factor`, for a factor whose Gram defect is known."""
        # `not x <= tol` also refuses a NaN
        if not defect <= TOL_ORTHO:
            raise DimensionMismatch("configuration factor is not orthonormal")
        tr = float(vals.sum())
        if not abs(tr - 1.0) <= TOL_NORM:
            raise DimensionMismatch(f"configuration state trace {tr}")
        config = object.__new__(cls)
        config._init(location, probability, vecs, vals)
        return config

    def _init(self, location, probability, vecs, vals):
        if not 0.0 < probability <= 1.0 + TOL_PROB_EXCESS:
            raise DimensionMismatch(
                f"branch probability {probability} outside (0, 1]")
        vecs.setflags(write=False)
        vals.setflags(write=False)
        self.location = location
        self.probability = probability
        self.spectrum = (vecs, vals)

    @property
    def state(self) -> np.ndarray:
        """The dense state P = U diag(lambda) U^dagger, rebuilt in a fresh
        array and made exactly Hermitian as (P + P^dagger)/2 in place
        (`linalg.hermitian_part`), so no second d x d array is built."""
        u, lam = self.spectrum
        return hermitian_part((u * lam) @ u.conj().T)

    @property
    def factor(self) -> np.ndarray:
        """L = U sqrt(lambda), so that state = L L^dagger (d x r)."""
        vecs, vals = self.spectrum
        return vecs * np.sqrt(vals)

    def support(self, rtol: float = TOL_EIG) -> Subspace:
        """The state's support as `linalg.support` defines it, read from
        the spectral factor.  Its basis is a leading block of U's read-only
        columns, which passed their one Gram check when the configuration
        was made, held without a copy."""
        return spectral_support(*self.spectrum, rtol)


def _apply_local(t: Transition, factor: np.ndarray) -> np.ndarray:
    """The stack [E_1 F, ..., E_K F] for the full-register Kraus operators
    E_k of `t.op`, computed from the local ones by contracting the target
    axes of F in O(K 2^n r 2^t) instead of O(K 4^n r).

    The contraction is planned once: the channel keeps its Kraus operators
    stacked (`SuperOperator._stacked`) and the transition its two axis
    orders (`Transition._plan`), so a call is one transpose of F, one
    matrix product and one transpose back.  The operands are the ones
    `np.tensordot` would build, so the result is bit-identical to it."""
    n = t.n_qubits
    into, back = t._plan
    f = factor.reshape((2,) * n + (-1,)).transpose(into)
    out = np.dot(t.local._stacked, f.reshape(t.local.dim, -1))
    return out.reshape((-1,) + f.shape).transpose(back).reshape(2 ** n, -1)


def step(sys: QuantumTransitionSystem, config: Configuration):
    """One transition step: every outgoing branch with probability above
    TOL_PROB, as (successor configuration, branch probability) pairs.  The
    branch probabilities sum to 1 and the successor configurations carry
    `config.probability` times their branch probability.  A Kraus set
    that TOL_NORM admits may raise the trace by more than rounding does,
    so a branch probability, or a product, above 1 + TOL_PROB_EXCESS is
    returned, or carried, as 1.

    With L = U sqrt(lambda) the configuration's factor, a branch's
    unnormalised state is S S^dagger for the stack S = [E_1 L, ..., E_K L];
    its probability is p = |S|_F^2.  Each E_k L contracts only the target
    axes of L (see `_apply_local`), so a step touches O(K d r 2^t) data and
    builds no d x d matrix.  The successor's spectral factor, which is all
    it holds, comes one of two ways:

    * on a unitary edge (`SuperOperator._unitary`) S = E U sqrt(lambda),
      and E U is orthonormal, so the factor is (S / sqrt(lambda),
      lambda / p), with no decomposition.  Rounding lets its Gram defect
      grow by about an ulp a step; a successor whose defect exceeds
      _UNITARY_DRIFT takes the other way instead, so drift is reset long
      before it nears TOL_ORTHO;
    * on any other edge, one thin SVD of S, dropping eigenvalues at or
      below _SPECTRUM_FLOOR times the largest as float noise."""
    transitions = sys.outgoing(config.location)
    vecs, vals = config.spectrum
    root = np.sqrt(vals)
    factor = vecs * root  # `config.factor`
    results = []
    for t in transitions:
        stack = _apply_local(t, factor)
        p = float(np.vdot(stack, stack).real)
        if not p > TOL_PROB:
            continue
        carried = config.probability * p
        if carried > 1.0 + TOL_PROB_EXCESS:
            carried = 1.0
        succ = None
        if t.local._unitary:
            mapped = stack / root
            defect = _gram_defect(mapped)
            if defect <= _UNITARY_DRIFT:
                succ = Configuration._factored(t.post, mapped, vals / p,
                                               carried, defect)
        if succ is None:
            u, s, _ = np.linalg.svd(stack, full_matrices=False)
            lam = s * s / p
            keep = lam > _SPECTRUM_FLOOR * lam[0]
            succ = Configuration.from_factor(t.post, u[:, keep], lam[keep],
                                             carried)
        results.append((succ, 1.0 if p > 1.0 + TOL_PROB_EXCESS else p))
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


def _branch_edge(pre, post, cond: Cond, outcome, n_qubits,
                 channels) -> Transition:
    """The edge of one outcome of `cond`: a `measure` edge when its branch
    operator is the computational-basis projector on `cond.qubits`, else a
    Kraus edge carrying the operator."""
    mat = cond.measurement.branch_channel(outcome).kraus[0]
    if (len(mat) == 2 ** len(cond.qubits) and outcome in range(len(mat))
            and mat[outcome, outcome] == 1 and np.count_nonzero(mat) == 1):
        return measure_edge(pre, post, cond.qubits, outcome, n_qubits,
                            channels=channels)
    return kraus_edge(pre, post, [mat], cond.qubits, n_qubits)


def compile_circuit(ir, n_qubits: int) -> QuantumTransitionSystem:
    """Compile a dynamic circuit into a transition system.

    Gates become single edges, sequencing chains sub-systems, and a
    measurement fans out one trace-reducing edge per outcome followed by a
    fresh copy of that outcome's branch (the result is a tree).  Every
    terminal location gets an identity self-loop so paths never end.
    The edge constructors validate every edge; each distinct library gate
    and projector is built and checked once, and its edges share it."""
    counter = itertools.count()
    locations = []
    transitions = []
    channels = {}

    def fresh() -> str:
        name = f"l{next(counter)}"
        locations.append(name)
        return name

    # A depth-first walk with an explicit stack, so no nesting of the
    # circuit can exhaust the interpreter's.  ("node", node, pre, out)
    # compiles `node` from location `pre` and appends its terminal
    # locations to `out`; ("then", second, mids, out) compiles `second`
    # from each location of the list `mids`, in order; ("branch", (cond,
    # outcome), pre, out) adds one outcome's edge and then its branch.
    # Tasks run in the order a recursive walk makes its calls, so every
    # location and edge is made in the same order.
    start = fresh()
    terminals = []
    stack = [("node", ir, start, terminals)]
    while stack:
        task, node, pre, out = stack.pop()
        if task == "then":
            stack.extend(("node", node, mid, out) for mid in reversed(pre))
        elif task == "branch":
            cond, outcome = node
            post = fresh()
            transitions.append(_branch_edge(pre, post, cond, outcome,
                                            n_qubits, channels))
            stack.append(("node", cond.branches[outcome], post, out))
        elif isinstance(node, Gate):
            post = fresh()
            if node.name is not None:
                transitions.append(gate_edge(pre, post, node.name,
                                             node.qubits, n_qubits,
                                             node.params, channels))
            else:
                transitions.append(kraus_edge(pre, post, node.op.kraus,
                                              node.qubits, n_qubits))
            out.append(post)
        elif isinstance(node, Seq):
            mids = []
            stack.append(("then", node.second, mids, out))
            stack.append(("node", node.first, pre, mids))
        elif isinstance(node, Cond):
            missing = set(node.measurement.branches) - set(node.branches)
            if missing:
                raise MalformedCircuit(
                    f"no branch for outcomes {sorted(missing)}")
            stack.extend(("branch", (node, outcome), pre, out)
                         for outcome in sorted(node.branches, reverse=True))
        else:
            raise MalformedCircuit(f"not a circuit node: {node!r}")

    for terminal in terminals:
        transitions.append(gate_edge(terminal, terminal, "I", (1,), n_qubits,
                                     channels=channels))
    return QuantumTransitionSystem(n_qubits, tuple(locations), start,
                                   tuple(transitions))


# --- the teleportation fixture --------------------------------------------

def teleportation_circuit() -> Seq:
    """The three-qubit teleportation protocol as a dynamic circuit:
    entangle qubits 1 and 2, Hadamard qubit 1, measure qubit 2 and correct
    with X on qubit 3, then measure qubit 1 and correct with Z on qubit 3."""
    m1 = ch.computational_measurement(1)
    fix_x = Cond(m1, (2,), {0: Gate((3,), name="I"), 1: Gate((3,), name="X")})
    fix_z = Cond(m1, (1,), {0: Gate((3,), name="I"), 1: Gate((3,), name="Z")})
    return Seq(Seq(Gate((1, 2), name="CX"), Gate((1,), name="H")),
               Seq(fix_x, fix_z))


def teleportation_qts() -> QuantumTransitionSystem:
    """`teleportation_circuit` compiled to a transition system: 15
    locations l0..l14, whose four leaves l8, l10, l12 and l14 loop on the
    identity."""
    return compile_circuit(teleportation_circuit(), 3)


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
    and violations carry source positions.  Each distinct library gate and
    projector is built and checked once per call, and its edges share it."""
    return parse_text(text, _PUNCTS, _parse_model)


def _parse_model(ts: TokenStream) -> QuantumTransitionSystem:
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
    known = set(locations)
    transitions = []
    positions = {}
    channels = {}
    while ts.peek().kind != EOF:
        pre_tok = ts.peek()
        transitions.append(_parse_transition(ts, n_qubits, known, channels))
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


def _parse_transition(ts: TokenStream, n_qubits: int, known,
                      channels) -> Transition:
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
                                 tuple(params), channels)
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
        make, args = measure_edge, (targets, outcome, n_qubits, name,
                                    channels)
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
