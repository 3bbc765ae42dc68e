"""Command-line front end.

Subcommands:

* ``qmc check --model M.qts --assert A.ctql --init "|0>"`` checks every
  assertion and exits with the worst verdict (0 holds, 1 fails, 2 unknown,
  3 error; a usage error and an internal crash are reported in one line
  and also exit 3).
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
from dataclasses import dataclass

import numpy as np

from . import checker, kets, linalg as la, logic, qts, reach
from . import channel as ch
from .errors import QmcError
from .parsing import EOF, parse_matrix, parse_text

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
            # NaN fails both comparisons
            if value is not None and not 0.0 < value < math.inf:
                raise QmcError(f"--{name.replace('_', '-')} must be "
                               f"positive and finite")


def _load_model(cfg: RunConfig) -> qts.QuantumTransitionSystem:
    with open(cfg.model, encoding="utf-8") as fh:
        return qts.parse_model(fh.read())


def _load_init(cfg: RunConfig,
               system: qts.QuantumTransitionSystem) -> qts.Configuration:
    """The root configuration at the initial location.  A ket expression
    becomes the rank-1 factor of the normalised ket, and is never made
    dense; a file holds a density-matrix literal in the model format's
    complex syntax that is Hermitian, positive semidefinite (which the
    configuration checks as it decomposes it) and of unit trace."""
    spec = cfg.init
    d = 2 ** system.n_qubits
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
        return qts.Configuration.from_factor(system.initial, vec[:, None],
                                             np.ones(1))
    if not os.path.exists(spec):
        raise QmcError(f"initial state file {spec!r} does not exist")
    with open(spec, encoding="utf-8") as fh:
        text = fh.read()
    rho = parse_text(text, ["[", "]", ",", "+", "-"], _density_literal)
    if rho.shape != (d, d):
        raise QmcError(f"density matrix is {rho.shape}, model needs ({d},{d})")
    # checked and then made (rho + rho^dagger)/(2 tr) a block of rows at a
    # time, in place, so no whole-matrix temporary is built; a non-finite
    # or overflowing entry fails a check, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        hermitian = la.is_hermitian(rho, la.TOL_HERM_STATE)
        tr = float(np.trace(rho).real)
    if not hermitian:
        raise QmcError("density matrix is not Hermitian")
    if abs(tr - 1.0) > la.TOL_HERM_STATE or tr <= 0.0:
        raise QmcError(f"density matrix trace is {tr}, expected 1")
    return qts.Configuration(system.initial, la.hermitian_part(rho, tr))


def _density_literal(ts) -> np.ndarray:
    """The one matrix literal of a density-matrix file."""
    rho = parse_matrix(ts)
    if ts.peek().kind != EOF:
        ts.error("unexpected text after the density matrix")
    return rho


def _json_dump(obj) -> str:
    """`json.dumps(obj, indent=2)` and a newline, for dicts with string
    keys, lists and JSON scalars, written with an explicit stack so that
    no depth of nesting can exhaust the interpreter's."""
    out = []
    stack = []  # per open container: (iterator over its items, closer)
    end = object()
    value = obj
    while True:
        if isinstance(value, (dict, list, tuple)) and value:
            is_dict = isinstance(value, dict)
            out.append("{" if is_dict else "[")
            stack.append((iter(value.items() if is_dict else value),
                          "}" if is_dict else "]"))
            sep = ""
        else:
            out.append(json.dumps(value))
            sep = ","
        while stack:
            items, closer = stack[-1]
            item = next(items, end)
            if item is end:
                stack.pop()
                out.append("\n" + "  " * len(stack) + closer)
                continue
            out.append(sep + "\n" + "  " * len(stack))
            if closer == "}":
                out.append(json.dumps(item[0]) + ": ")
                item = item[1]
            value = item
            break
        else:
            return "".join(out) + "\n"


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
    root = _load_init(cfg, system)
    if cfg.assertion is None:
        raise QmcError("check needs --assert")
    with open(cfg.assertion, encoding="utf-8") as fh:
        doc = logic.parse_assertions(fh.read())
    reports = []
    worst = EXIT_HOLDS
    t0 = time.perf_counter()
    graph = checker.build_graph(system, root, cfg.bound)
    build_s = time.perf_counter() - t0
    for assertion in doc.assertions:
        verdict = checker.check(system, root, assertion.formula,
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
    """The union of the one location's lifted Kraus sets, held with no
    copy and no second check: the system checked their sum."""
    if len(system.locations) != 1:
        raise QmcError(
            "reach needs a single-location model (a sequential circuit); "
            f"this one has {len(system.locations)} locations")
    if not system.transitions:
        raise QmcError("reach needs a model with at least one transition")
    kraus = tuple(k for t in system.transitions for k in t.op.kraus)
    return ch.SuperOperator._held(system.n_qubits, kraus,
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
    rho0 = _load_init(cfg, system).state
    channel = _single_location_channel(system)
    chain = reach.QuantumMarkovChain(channel.dim, channel)
    eig = cfg.tol_eig if cfg.tol_eig is not None else la.TOL_EIG
    space = reach.reachable_subspace(chain, rho0, rtol=eig)
    result = {
        "model": cfg.model,
        "dim": space.dim,
        "basis": [kets.ket_string(col, digits=10)
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
            # the residual is float noise when the routes agree, so it is
            # printed only when they do not; JSON keeps it always
            resid = "" if v["agree"] else \
                f" max_residual={_sig(v['max_residual'])}"
            print(f"verify: {dims}{resid} agree={v['agree']}")
    return EXIT_HOLDS


def cmd_simulate(cfg: RunConfig) -> int:
    system = _load_model(cfg)
    root = _load_init(cfg, system)

    def entry(config):
        return {"location": config.location,
                "probability": config.probability,
                "state_digest": checker.spectral_fingerprint(
                    *config.spectrum)}

    # grown and printed with explicit stacks, so any --depth fits
    tree = entry(root)
    stack = [(root, tree, 0)]
    while stack:
        config, node, depth = stack.pop()
        if depth < cfg.depth:
            node["children"] = []
            for succ, _ in qts.step(system, config):
                node["children"].append(entry(succ))
                stack.append((succ, node["children"][-1], depth + 1))
    if cfg.output_format == "json":
        print(_json_dump({"model": cfg.model, "depth": cfg.depth,
                          "tree": tree}), end="")
    else:
        stack = [(tree, 0)]
        while stack:
            node, depth = stack.pop()
            print(f"{'  ' * depth}{node['location']}  "
                  f"p={_sig(node['probability'])}  {node['state_digest']}")
            stack.extend((child, depth + 1)
                         for child in reversed(node.get("children", ())))
    return EXIT_HOLDS


def cmd_fmt(cfg: RunConfig) -> int:
    system = _load_model(cfg)
    print(qts.serialize_model(system), end="")
    return EXIT_HOLDS


class _Parser(argparse.ArgumentParser):
    """argparse's parser, but a usage error exits 3 like any other error,
    not 2, the code of an `unknown` verdict.  Subparsers are made with the
    same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qmc", description="model checker for quantum circuits")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, run=True):
        p.add_argument("--model", required=True, help="model file (.qts)")
        if run:
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
    common(p_fmt, run=False)
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
