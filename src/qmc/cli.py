"""Command-line front end.

Subcommands:

* ``qmc check --model M.qts --assert A.ctql --init "|0>"`` checks every
  assertion and exits with the worst verdict (0 holds, 1 fails, 2 unknown,
  3 error; an internal crash is reported in one line and also exits 3).
* ``qmc reach --model M.qts --init "|0>" [--verify]`` prints the reachable
  subspace of a single-location model; --verify cross-runs the three
  reachability algorithms and reports their largest mutual residual.
* ``qmc simulate --model M.qts --init "|0>" --depth K`` dumps the branch
  tree with probabilities.
* ``qmc fmt --model M.qts`` re-serializes a model canonically.

Reports are byte-identical across runs for a fixed configuration; timing
measurements are only included when --timings is passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import checker, kets, linalg as la, logic, qts, reach
from . import channel as ch
from .errors import QmcError
from .parsing import EOF, TokenStream, parse_matrix, tokenize

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_UNKNOWN = 2
EXIT_ERROR = 3

_EXIT_OF = {"holds": EXIT_HOLDS, "fails": EXIT_FAILS, "unknown": EXIT_UNKNOWN}


@dataclass
class RunConfig:
    model: str
    assertion: str = None
    init: str = "|0>"
    bound: int = checker.DEFAULT_BOUND
    depth: int = 5
    output_format: str = "text"
    timings: bool = False
    verify: bool = False
    tol_member: float = None
    tol_eig: float = None

    def __post_init__(self):
        if self.bound < 1:
            raise QmcError("--bound must be at least 1")
        if self.depth < 0:
            raise QmcError("--depth must not be negative")
        for name in ("tol_member", "tol_eig"):
            value = getattr(self, name)
            if value is not None and value <= 0.0:
                raise QmcError(f"--{name.replace('_', '-')} must be positive")


def _load_model(cfg: RunConfig) -> qts.QuantumTransitionSystem:
    with open(cfg.model, encoding="utf-8") as fh:
        return qts.parse_model(fh.read())


def _load_init(cfg: RunConfig, n_qubits: int) -> np.ndarray:
    """Initial state: a ket expression, or a file holding a density-matrix
    literal in the model format's complex syntax that is Hermitian,
    positive semidefinite and of unit trace.  The state is returned
    read-only, so a `qts.Configuration` can hold it without a copy."""
    spec = cfg.init
    d = 2 ** n_qubits
    if "|" in spec and ">" in spec:
        vec = kets.parse_ket(spec)
        if vec.shape[0] != d:
            raise QmcError(
                f"initial ket has dim {vec.shape[0]}, model needs {d}")
        peak = np.abs(vec).max()
        if peak == 0.0:
            raise QmcError("initial ket is the zero vector")
        # scaled first by the power of two nearest its largest magnitude,
        # so the norm cannot overflow; that scaling is exact, so the state
        # is the one the unscaled norm gives
        vec = np.ldexp(vec.view(float), -np.frexp(peak)[1]).view(complex)
        vec = vec / np.linalg.norm(vec)
        rho = np.outer(vec, vec.conj())
        rho.setflags(write=False)
        return rho
    if not os.path.exists(spec):
        raise QmcError(f"initial state file {spec!r} does not exist")
    with open(spec, encoding="utf-8") as fh:
        ts = TokenStream(tokenize(fh.read(), ["[", "]", ",", "+", "-"]))
    rows = parse_matrix(ts)
    if ts.peek().kind != EOF:
        ts.error("unexpected text after the density matrix")
    rho = np.array(rows, dtype=complex)
    if rho.shape != (d, d):
        raise QmcError(f"density matrix is {rho.shape}, model needs ({d},{d})")
    if not la.is_hermitian(rho, la.TOL_HERM_STATE):
        raise QmcError("density matrix is not Hermitian")
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > la.TOL_HERM_STATE or tr <= 0.0:
        raise QmcError(f"density matrix trace is {tr}, expected 1")
    rho = (rho + rho.conj().T) / (2.0 * tr)
    if np.linalg.eigvalsh(rho).min() < -la.TOL_HERM_STATE:
        raise QmcError("density matrix is not positive semidefinite")
    rho.setflags(write=False)
    return rho


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _sig(x: float) -> str:
    return f"{x:.10g}"


def _closure_json(closure):
    if closure == checker.COMPLETE:
        return "complete"
    return {"truncated": closure[1]}


def _trace_json(trace):
    if trace is None:
        return None
    return [{"location": s.location, "probability": s.probability,
             "state_digest": s.state_digest} for s in trace]


def cmd_check(cfg: RunConfig) -> int:
    system = _load_model(cfg)
    rho0 = _load_init(cfg, system.n_qubits)
    if cfg.assertion is None:
        raise QmcError("check needs --assert")
    with open(cfg.assertion, encoding="utf-8") as fh:
        doc = logic.parse_assertions(fh.read())
    reports = []
    worst = EXIT_HOLDS
    t0 = time.perf_counter()
    graph = checker.build_graph(system, rho0, cfg.bound)
    build_s = time.perf_counter() - t0
    for assertion in doc.assertions:
        verdict = checker.check(system, rho0, assertion.formula,
                                doc.bindings, bound=cfg.bound,
                                label=assertion.label, graph=graph,
                                member_tol=cfg.tol_member,
                                eig_tol=cfg.tol_eig)
        worst = max(worst, _EXIT_OF[verdict.result])
        reports.append({
            "model": cfg.model,
            "formula": logic.print_formula(assertion.formula),
            "label": verdict.label,
            "verdict": verdict.result,
            "closure": _closure_json(verdict.closure),
            "nodes": verdict.nodes,
            "edges": verdict.edges,
            "trace": _trace_json(verdict.trace),
            "timings": verdict.timings if cfg.timings else None,
        })
    if cfg.output_format == "json":
        result = {"model": cfg.model}
        if cfg.timings:
            result["timings"] = {"build_s": build_s}
        result["reports"] = reports
        print(_json_dump(result), end="")
    else:
        for r in reports:
            closure = r["closure"] if isinstance(r["closure"], str) \
                else f"truncated@{r['closure']['truncated']}"
            print(f"{r['label'] or r['formula']}: {r['verdict']}  "
                  f"[nodes={r['nodes']} edges={r['edges']} {closure}]")
            if r["trace"]:
                for s in r["trace"]:
                    print(f"    {s['location']}  p={_sig(s['probability'])}  "
                          f"{s['state_digest']}")
    return worst


def _single_location_channel(system: qts.QuantumTransitionSystem):
    if len(system.locations) != 1:
        raise QmcError(
            "reach needs a single-location model (a sequential circuit); "
            f"this one has {len(system.locations)} locations")
    kraus = []
    for t in system.transitions:
        kraus.extend(t.op.kraus)
    return ch.SuperOperator(system.n_qubits, tuple(kraus),
                            ch.TraceClass.PRESERVING)


def _mutual_residual(a: la.Subspace, b: la.Subspace) -> float:
    worst = 0.0
    for x, y in ((a, b), (b, a)):
        if y.dim == 0:
            continue
        resid = y.basis - x.basis @ (x.basis.conj().T @ y.basis)
        worst = max(worst, float(np.linalg.norm(resid, axis=0).max()))
    return worst


def cmd_reach(cfg: RunConfig) -> int:
    system = _load_model(cfg)
    rho0 = _load_init(cfg, system.n_qubits)
    channel = _single_location_channel(system)
    chain = reach.QuantumMarkovChain(channel.dim, channel)
    eig = cfg.tol_eig if cfg.tol_eig is not None else la.TOL_EIG
    space = reach.reachable_subspace(chain, rho0, rtol=eig)
    result = {
        "model": cfg.model,
        "dim": space.dim,
        "basis": [kets.ket_string(col, tol=0.0, digits=10)
                  for col in space.basis.T],
    }
    if cfg.verify:
        routes = {
            "power_sum": space,
            "vectorized": reach.reachable_subspace_vectorized(chain, rho0,
                                                              rtol=eig),
            "fixpoint": reach.reachable_fixpoint_oracle(chain, rho0,
                                                        rtol=eig),
        }
        names = list(routes)
        residual = 0.0
        for i, na in enumerate(names):
            for nb in names[i + 1:]:
                residual = max(residual,
                               _mutual_residual(routes[na], routes[nb]))
        result["verify"] = {
            "dims": {name: routes[name].dim for name in names},
            "max_residual": residual,
        }
        member = cfg.tol_member if cfg.tol_member is not None else la.TOL_MEMBER
        result["verify"]["agree"] = bool(
            residual <= member
            and len({routes[n].dim for n in names}) == 1)
    if cfg.output_format == "json":
        print(_json_dump(result), end="")
    else:
        print(f"reachable dim {result['dim']}")
        for b in result["basis"]:
            print(f"  {b}")
        if cfg.verify:
            v = result["verify"]
            dims = " ".join(f"{k}={d}" for k, d in v["dims"].items())
            print(f"verify: {dims} max_residual={_sig(v['max_residual'])} "
                  f"agree={v['agree']}")
    return EXIT_HOLDS


def cmd_simulate(cfg: RunConfig) -> int:
    system = _load_model(cfg)
    rho0 = _load_init(cfg, system.n_qubits)
    root = qts.Configuration(system.initial, rho0)

    def grow(config, depth):
        entry = {"location": config.location,
                 "probability": config.probability,
                 "state_digest": checker.spectral_fingerprint(
                     *config.spectrum)}
        if depth < cfg.depth:
            entry["children"] = [grow(succ, depth + 1)
                                 for succ, _ in qts.step(system, config)]
        return entry

    tree = grow(root, 0)
    if cfg.output_format == "json":
        print(_json_dump({"model": cfg.model, "depth": cfg.depth,
                          "tree": tree}), end="")
    else:
        def show(entry, depth):
            pad = "  " * depth
            print(f"{pad}{entry['location']}  "
                  f"p={_sig(entry['probability'])}  "
                  f"{entry['state_digest']}")
            for child in entry.get("children", ()):
                show(child, depth + 1)

        show(tree, 0)
    return EXIT_HOLDS


def cmd_fmt(cfg: RunConfig) -> int:
    system = _load_model(cfg)
    print(qts.serialize_model(system), end="")
    return EXIT_HOLDS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmc", description="model checker for quantum circuits")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, init=True):
        p.add_argument("--model", required=True, help="model file (.qts)")
        if init:
            p.add_argument("--init", default="|0>",
                           help="initial state: ket string or density-matrix file")
        p.add_argument("--format", dest="output_format",
                       choices=("text", "json"), default="text")

    p_check = sub.add_parser("check", help="check temporal assertions")
    common(p_check)
    p_check.add_argument("--assert", dest="assertion", required=True,
                         help="assertion file (.ctql)")
    p_check.add_argument("--bound", type=int, default=checker.DEFAULT_BOUND)
    p_check.add_argument("--timings", action="store_true")
    p_check.add_argument("--tol-member", type=float, default=None)
    p_check.add_argument("--tol-eig", type=float, default=None)

    p_reach = sub.add_parser("reach", help="reachable subspace of a loop model")
    common(p_reach)
    p_reach.add_argument("--verify", action="store_true",
                         help="cross-run all three reachability algorithms")
    p_reach.add_argument("--tol-member", type=float, default=None)
    p_reach.add_argument("--tol-eig", type=float, default=None)

    p_sim = sub.add_parser("simulate", help="dump the branch tree")
    common(p_sim)
    p_sim.add_argument("--depth", type=int, default=5)

    p_fmt = sub.add_parser("fmt", help="re-serialize a model canonically")
    common(p_fmt, init=False)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    fields = {k: v for k, v in vars(args).items() if k != "command"}
    try:
        cfg = RunConfig(**fields)
        if not os.path.exists(cfg.model):
            raise QmcError(f"model file {cfg.model!r} does not exist")
        if cfg.assertion is not None and not os.path.exists(cfg.assertion):
            raise QmcError(f"assertion file {cfg.assertion!r} does not exist")
        handler = {"check": cmd_check, "reach": cmd_reach,
                   "simulate": cmd_simulate, "fmt": cmd_fmt}[args.command]
        return handler(cfg)
    except QmcError as exc:
        print(f"qmc: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # a crash must never read as a verdict
        message = " ".join(str(exc).split())
        print(f"qmc: internal error: {type(exc).__name__}: {message}",
              file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
