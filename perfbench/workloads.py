"""Seeded input generators for the qmc benchmark.

Each generator returns a list of `Job`s: the `.qts` model text, the
initial-state ket, the `.ctql` assertion text and the expectations that
follow from how the generator built the job (derived by hand in the
comments below, never by running the checker).  The same seed always gives
the same text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qmc import channel as ch
from qmc import qts
from qmc.parsing import format_complex

HOLDS, FAILS = "holds", "fails"
EXIT_OF = {HOLDS: 0, FAILS: 1}


@dataclass(frozen=True)
class Job:
    name: str
    kind: str          # "check" or "reach"
    size: int          # orders jobs of one workload; the smallest is cross-checked
    model: str         # .qts text
    init: str          # ket expression for the initial state
    assertions: str = ""   # .ctql text (check jobs)
    verdicts: tuple = ()   # expected verdict per assertion, in file order
    bound: int = 64
    reach_dim: int = 0     # expected reachable dimension (reach jobs)
    reach_support: tuple = None  # basis indices the reachable subspace must lie in

    @property
    def exit_code(self) -> int:
        return max((EXIT_OF[v] for v in self.verdicts), default=0)


def _span(name: str, kets) -> str:
    body = ",\n    ".join(f'"{k}"' for k in kets)
    return f"let {name} = span {{\n    {body} }}\n"


def _ket(bits: str, coeff: complex = 1.0) -> str:
    return f"({format_complex(coeff)})|{bits}>"


# --- ghz-noisy ---------------------------------------------------------------
#
# H[1]; CX[i, i+1] for i < n; bit_flip(p) on qubit 1, from |0...0>.  The graph
# is a chain of n+2 nodes ending in the identity self-loop.  With
# g = span{|0...0>, |1...1>}:
# * the root |0...0> lies in g, so `A (true U [g])` and `E (true U [g])` hold;
# * every state on the chain has a |0...0> or GHZ component, so none lies in
#   the orthocomplement ~g and `A (true U [~g])` fails; its counterexample is
#   the lasso through the whole chain and its self-loop.

def ghz_noisy(rng: np.random.Generator):
    jobs = []
    for i, n in enumerate((8, 9)):
        p = float(rng.uniform(0.05, 0.95))
        ir = qts.Gate((1,), name="H")
        for q in range(1, n):
            ir = qts.Seq(ir, qts.Gate((q, q + 1), name="CX"))
        ir = qts.Seq(ir, qts.Gate((1,), op=ch.noise_library("bit_flip", p)))
        model = qts.serialize_model(qts.compile_circuit(ir, n))
        ctql = (_span("g", ["|" + "0" * n + ">", "|" + "1" * n + ">"])
                + '\nassert "reaches_ghz" : A (true U [g])\n'
                + 'assert "may_reach_ghz" : E (true U [g])\n'
                + 'assert "reaches_outside" : A (true U [~g])\n')
        jobs.append(Job(f"ghz-n{n}-{i}", "check", n, model, "|" + "0" * n + ">",
                        ctql, (HOLDS, HOLDS, FAILS)))
    return jobs


# --- qec-branching -------------------------------------------------------------
#
# Bit-flip repetition code on data qubits 1-4 with syndrome ancillas 5-7:
# encode a|0> + b|1> from qubit 1, bit_flip(p_q) on every data qubit,
# extract the parities d1^d2, d2^d3, d3^d4 into 5, 6, 7, measure the
# ancillas one after the other (8 branches), and apply the minimum-weight
# correction of the syndrome.  With code = span{data 0000, 1111} (any
# ancilla value):
# * after correction every branch holds a mixture of the logical state and
#   its logical flip, both inside code, and the terminal self-loop keeps it
#   there, so `A F A G [code]` holds;
# * once ancilla 5 reads 1 the data has d1 != d2, so every component is a
#   non-codeword and `E F [~code]` holds;
# * the first step, CX[1,2], leaves a|0000> + b|1100> on the data, outside
#   code, so `A X [code]` fails (b != 0).

_CORRECTION = {  # syndrome (s5, s6, s7) -> data qubits to flip
    (0, 0, 0): (), (1, 0, 0): (1,), (1, 1, 0): (2,), (0, 1, 1): (3,),
    (0, 0, 1): (4,), (0, 1, 0): (1, 2), (1, 0, 1): (1, 4), (1, 1, 1): (1, 3),
}


def _qec_circuit(ps):
    m1 = ch.computational_measurement(1)
    steps = [qts.Gate((1, q), name="CX") for q in (2, 3, 4)]
    steps += [qts.Gate((q,), op=ch.noise_library("bit_flip", p))
              for q, p in zip((1, 2, 3, 4), ps)]
    steps += [qts.Gate((c, t), name="CX")
              for c, t in ((1, 5), (2, 5), (2, 6), (3, 6), (3, 7), (4, 7))]

    def correction(syndrome):
        flips = _CORRECTION[syndrome] or (1,)
        name = "X" if _CORRECTION[syndrome] else "I"
        node = qts.Gate((flips[0],), name=name)
        for q in flips[1:]:
            node = qts.Seq(node, qts.Gate((q,), name="X"))
        return node

    def measure(ancilla, prefix):
        if ancilla > 7:
            return correction(prefix)
        return qts.Cond(m1, (ancilla,),
                        {b: measure(ancilla + 1, prefix + (b,)) for b in (0, 1)})

    ir = measure(5, ())
    for step in reversed(steps):
        ir = qts.Seq(step, ir)
    return ir


def qec_branching(rng: np.random.Generator):
    code = [d + "".join(map(str, a)) for d in ("0000", "1111")
            for a in np.ndindex(2, 2, 2)]
    ctql = (_span("code", ["|" + k + ">" for k in code])
            + '\nassert "recovers_code" : A F A G [code]\n'
            + 'assert "noise_escapes" : E F [~code]\n'
            + 'assert "first_step_in_code" : A X [code]\n')
    jobs = []
    for i in range(4):
        theta = float(rng.uniform(0.2, 1.35))
        phase = float(rng.uniform(0.0, 2.0 * math.pi))
        a, b = math.cos(theta), math.sin(theta) * complex(math.cos(phase),
                                                          math.sin(phase))
        init = _ket("0000000", a) + " + " + _ket("1000000", b)
        ps = [float(x) for x in rng.uniform(0.6, 0.97, size=4)]
        model = qts.serialize_model(qts.compile_circuit(_qec_circuit(ps), 7))
        jobs.append(Job(f"qec-{i}", "check", i, model, init, ctql,
                        (HOLDS, HOLDS, FAILS)))
    return jobs


# --- long-cycle ------------------------------------------------------------------
#
# One qubit looping under RY(4 pi / N) or RX(4 pi / N) from |0>.  The Bloch
# vector turns by 4 pi / N per step, so the state returns after N/2 steps: a
# cycle of N/2 nodes, which passes through |1> at step N/4 (N is a multiple
# of 4).  RY keeps the amplitudes real and never reaches |+i>; RX keeps the
# |1> amplitude imaginary and never reaches |+>.  Call that state `off`:
# * `E (! [z1] U [z1])` and `A (true U [z1])` hold on the single path;
# * `E G ! [z1]` fails, because the path reaches |1>;
# * `A (true U [off])` fails and its counterexample is the lasso around the
#   whole cycle.  The recursive lasso search overflows Python's stack on
#   cycles of 1000 nodes and more; those jobs are expected to raise.

# The fixpoints cost the square of the cycle length, so the seed moves each
# cycle by at most 1%: every seed then costs the same, and the largest
# cycle always has 1000 nodes or more.
CYCLES = ((200, 2), (450, 4), (1010, 10))  # (nodes, seeded +- range)


def long_cycle(rng: np.random.Generator):
    jobs = []
    for base, spread in CYCLES:
        nodes = base + 2 * int(rng.integers(-spread // 2, spread // 2 + 1))
        gate = ("RY", "RX")[int(rng.integers(2))]
        theta = 4.0 * math.pi / (2 * nodes)
        model = ("qubits 1\n\nlocations l0\ninitial l0\n\ntransitions\n"
                 f"  l0 -> l0 : gate {gate}({theta!r})[1]\n")
        off = "(|0> + i|1>)/sqrt2" if gate == "RY" else "(|0> + |1>)/sqrt2"
        ctql = (_span("z1", ["|1>"]) + _span("off", [off])
                + '\nassert "eu" : E (! [z1] U [z1])\n'
                + 'assert "au" : A (true U [z1])\n'
                + 'assert "eg" : E G ! [z1]\n'
                + 'assert "lasso" : A (true U [off])\n')
        jobs.append(Job(f"cycle-{gate}-{nodes}", "check", nodes, model, "|0>",
                        ctql, (HOLDS, HOLDS, FAILS, FAILS), bound=nodes + 8))
    return jobs


# --- reach-verify -------------------------------------------------------------
#
# One location looping under the 2-Kraus channel {sqrt(p) P_s, sqrt(1-p) P_t}
# on all n qubits, from |0...0>, where P_s and P_t permute the basis.  (The
# `.qts` tokenizer reads no `+` or `-`, so Kraus entries must be
# non-negative reals; permutation mixtures are the 2-Kraus channels it can
# express.)  The reachable subspace is span{|x> : x in the orbit of 0 under
# s and t}.  A random job draws s and t on all 2^n states; a block job draws
# a cycle through a seeded set T (with 0 in T) and a second permutation of T,
# and permutes the complement of T separately, so the reachable subspace is
# exactly span{|t> : t in T}.  A draw is redrawn when some reached state's
# accumulated weight in sum_{i<d} E^i(rho) is below 1e-3 of the largest, so
# the expected dimension stays far from the checker's 1e-8 relative rank cut.

def _orbit_weights(s, t, p, d):
    """sum_{i<d} of the chain's distribution from state 0 (the diagonal
    the closed form accumulates), relative to its largest entry."""
    cur = np.zeros(d)
    cur[0] = 1.0
    acc = cur.copy()
    for _ in range(d - 1):
        nxt = np.zeros(d)
        np.add.at(nxt, s, p * cur)
        np.add.at(nxt, t, (1.0 - p) * cur)
        cur = nxt
        acc += cur
    return acc / acc.max()


def _permutation_channel(rng, d, block):
    """Permutations s, t of range(d) that keep `block` and its complement
    invariant; on `block`, s is one cycle through all of it."""
    s, t = np.arange(d), np.arange(d)
    rest = np.setdiff1d(np.arange(d), block)
    cycle = rng.permutation(block)
    s[cycle] = np.roll(cycle, 1)
    t[block] = rng.permutation(block)
    if rest.size:
        s[rest] = rng.permutation(rest)
        t[rest] = rng.permutation(rest)
    return s, t


def _loop_model(n, kraus):
    def rows(k):
        return "[" + ", ".join("[" + ", ".join(format_complex(x) for x in row)
                               + "]" for row in k) + "]"
    body = " ;\n    ".join(rows(k) for k in kraus)
    targets = ", ".join(str(q) for q in range(1, n + 1))
    return ("qubits %d\n\nlocations l0\ninitial l0\n\ntransitions\n"
            "  l0 -> l0 : kraus { %s }[%s]\n" % (n, body, targets))


def reach_verify(rng: np.random.Generator):
    jobs = []
    for n in (3, 4, 5):
        d = 2 ** n
        for kind in ("random", "block"):
            while True:
                if kind == "random":
                    s, t = rng.permutation(d), rng.permutation(d)
                else:
                    k = int(rng.integers(d // 4, 3 * d // 4 + 1))
                    block = np.sort(np.concatenate(([0], rng.choice(
                        np.arange(1, d), size=k - 1, replace=False))))
                    s, t = _permutation_channel(rng, d, block)
                p = float(rng.uniform(0.3, 0.7))
                weights = _orbit_weights(s, t, p, d)
                reached = np.nonzero(weights > 0.0)[0]
                if weights[reached].min() > 1e-3:
                    break
            kraus = [np.sqrt(q) * np.eye(d)[perm].T
                     for q, perm in ((p, s), (1.0 - p, t))]
            jobs.append(Job(f"reach-{kind}-n{n}", "reach", n,
                            _loop_model(n, kraus), "|" + "0" * n + ">",
                            reach_dim=int(reached.size),
                            reach_support=tuple(int(x) for x in reached)))
    return jobs


WORKLOADS = {
    "ghz-noisy": ghz_noisy,
    "qec-branching": qec_branching,
    "long-cycle": long_cycle,
    "reach-verify": reach_verify,
}


def generate(workload: str, seed: int):
    return WORKLOADS[workload](np.random.default_rng(seed))
