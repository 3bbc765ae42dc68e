"""The benchmark's job runner, correctness gate and measurement loop.

`run.py` pins the environment, puts `src/` on the path and then calls
`measure`; everything that imports numpy or qmc lives here.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import importlib.util
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

import layers
import workloads
from qmc import channel as ch
from qmc import checker, cli, kets, logic, qts, reach
from qmc import linalg as la
from qmc.errors import QmcError

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ORACLE = os.path.join(ROOT, "tests", "oracle.py")

SECOND_SEED_OFFSET = 1_000_003  # the second seed never collides with a small first seed
MIN_ROUNDS = 3


def _ordered(jobs):
    """Jobs by kind and size; the first is the workload's smallest."""
    return sorted(jobs, key=lambda j: (j.kind, j.size, j.name))


@dataclass
class Outcome:
    """One execution of one job."""

    job: object
    setup_s: float = 0.0
    check_s: float = 0.0
    results: list = field(default_factory=list)  # verdicts, or reach dims
    error: str = None      # exception type name, when the job raised
    wrong: str = None      # what differed from the expectation
    counts: Counter = field(default_factory=Counter)
    # kept for the traced run's replays, dropped after them
    state: tuple = None
    graph: object = None
    channel: object = None
    routes: tuple = None

    @property
    def seconds(self) -> float:
        return self.setup_s + self.check_s


def initial_state(spec: str, n_qubits: int):
    """The ket branch of `qmc check --init`: parse, normalise, outer product."""
    vec = kets.parse_ket(spec)
    if vec.shape[0] != 2 ** n_qubits:
        raise QmcError(f"initial ket has dim {vec.shape[0]}")
    vec = vec / np.linalg.norm(vec)
    return np.outer(vec, vec.conj())


class Bench:
    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.jobs = _ordered(workloads.generate(workload, seed))
        self.problems = []      # correctness problems: make `correct` false
        self.failed_jobs = {}   # job name -> why it failed

    # --- one job, as the CLI makes the calls --------------------------------

    def execute(self, job, tracer, keep=False) -> Outcome:
        out = Outcome(job)
        now = time.perf_counter
        t0, t1 = now(), None
        try:
            with tracer.span("qts.parse"):
                system = qts.parse_model(job.model)
            out.counts["qts.transitions"] = len(system.transitions)
            with tracer.span("kets.parse_ket"):
                rho0 = initial_state(job.init, system.n_qubits)
            doc = None
            if job.kind == "check":
                with tracer.span("logic.parse"):
                    doc = logic.parse_assertions(job.assertions)
            t1 = now()
            if keep:
                out.state = (system, rho0, doc)
            if doc is not None:
                self._check(job, tracer, system, rho0, doc, out)
            else:
                self._reach(tracer, system, rho0, out)
        except Exception as exc:  # a crash inside qmc fails the job, not the run
            out.error = type(exc).__name__
        t2 = now()
        t1 = t2 if t1 is None else t1
        out.setup_s, out.check_s = t1 - t0, t2 - t1
        self._judge(out)
        return out

    def _check(self, job, tracer, system, rho0, doc, out):
        with tracer.span("checker.build"):
            graph = checker.build_graph(system, rho0, job.bound)
        out.graph = graph
        out.counts["checker.nodes"] = len(graph.nodes)
        out.counts["checker.edges"] = graph.edge_count
        if tracer.on:
            for prop in layers.prop_atoms(doc).values():
                with tracer.span("checker.label"):
                    graph.label_set(prop, doc.bindings)
        for assertion in doc.assertions:
            with tracer.span("checker.verdict"):
                verdict = checker.check(
                    system, rho0, assertion.formula, doc.bindings,
                    bound=job.bound, label=assertion.label, graph=graph)
            out.results.append(verdict.result)
            out.counts["checker.trace_len"] += len(verdict.trace or ())

    def _reach(self, tracer, system, rho0, out):
        kraus = [k for t in system.transitions for k in t.op.kraus]
        channel = ch.SuperOperator(system.n_qubits, tuple(kraus),
                                   ch.TraceClass.PRESERVING)
        chain = reach.QuantumMarkovChain(channel.dim, channel)
        out.channel = channel
        with tracer.span("reach.closed"):
            closed = reach.reachable_subspace(chain, rho0)
        with tracer.span("reach.vectorized"):
            vectorized = reach.reachable_subspace_vectorized(chain, rho0)
        with tracer.span("reach.fixpoint"):
            fixpoint = reach.reachable_fixpoint_oracle(chain, rho0)
        out.routes = (closed, vectorized, fixpoint)
        out.results = [s.dim for s in out.routes]
        out.counts["reach.dim"] = sum(out.results)

    def _judge(self, out):
        job = out.job
        if job.kind == "check":
            expected = list(job.verdicts[:len(out.results)])
            if out.results != expected:
                out.wrong = f"verdicts {out.results}, expected {expected}"
            return
        if out.error is not None:
            return
        if out.results != [job.reach_dim] * 3:
            out.wrong = f"reach dims {out.results}, expected {job.reach_dim}"
            return
        outside = np.setdiff1d(np.arange(out.routes[0].ambient_dim),
                               job.reach_support)
        for space in out.routes:
            if np.abs(space.basis[outside]).max(initial=0.0) > la.TOL_MEMBER:
                out.wrong = "reachable subspace leaves the expected support"

    def record(self, out):
        name = out.job.name
        if out.wrong is not None:
            self.problems.append(f"{name}: {out.wrong}")
            self.failed_jobs.setdefault(name, "wrong result")
        if out.error is not None:
            self.failed_jobs.setdefault(name, f"raised {out.error}")

    # --- checks made once per run, untimed ------------------------------------

    def cli_checks(self, workdir: str):
        """Each job's files once through `qmc.cli.main`: exit code and the
        verdicts or reachable dimension of its JSON report."""
        for job in self.jobs:
            model = os.path.join(workdir, job.name + ".qts")
            with open(model, "w", encoding="utf-8") as fh:
                fh.write(job.model)
            argv = ["--model", model, "--init", job.init, "--format", "json"]
            if job.kind == "check":
                ctql = os.path.join(workdir, job.name + ".ctql")
                with open(ctql, "w", encoding="utf-8") as fh:
                    fh.write(job.assertions)
                argv = ["check", "--assert", ctql, "--bound", str(job.bound)] + argv
            else:
                argv = ["reach", "--verify"] + argv
            stdout, stderr = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(stdout), \
                        contextlib.redirect_stderr(stderr):
                    code = cli.main(argv)
            except Exception as exc:  # `qmc` would exit 1 with a traceback
                self.failed_jobs.setdefault(
                    job.name, f"qmc {argv[0]} crashed with {type(exc).__name__}")
                continue
            if code != job.exit_code:
                self.problems.append(f"{job.name} (cli): exit code {code}, "
                                     f"expected {job.exit_code}")
                self.failed_jobs.setdefault(job.name, "wrong exit code (cli)")
                continue
            try:
                report = json.loads(stdout.getvalue())
                if job.kind == "check":
                    got = [r["verdict"] for r in report["reports"]]
                    ok = got == list(job.verdicts)
                else:
                    got = report["verify"]
                    ok = got["agree"] and report["dim"] == job.reach_dim
            except (ValueError, KeyError, TypeError):
                got, ok = stdout.getvalue()[:200], False
            if not ok:
                self.problems.append(f"{job.name} (cli): report {got}")
                self.failed_jobs.setdefault(job.name, "wrong report (cli)")

    def oracle_check(self):
        """Verdicts of the smallest check job against tests/oracle.py."""
        smallest = [j for j in self.jobs if j.kind == "check"][:1]
        if not smallest:
            return
        spec = importlib.util.spec_from_file_location("qmc_path_oracle", ORACLE)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        job = smallest[0]
        try:
            system = qts.parse_model(job.model)
            rho0 = initial_state(job.init, system.n_qubits)
            doc = logic.parse_assertions(job.assertions)
            graph = checker.build_graph(system, rho0, job.bound)
            oracle = module.PathOracle(graph, doc.bindings)
            got = ["holds" if oracle.holds(0, a.formula) else "fails"
                   for a in doc.assertions]
        except Exception as exc:  # reported like a wrong verdict
            got = f"raised {type(exc).__name__}"
        if got != list(job.verdicts):
            self.problems.append(f"{job.name} (oracle): {got}, "
                                 f"expected {list(job.verdicts)}")

    def second_seed_check(self):
        """The smallest job of a second seed must give the same verdict
        classes as this seed's smallest job."""
        other = _ordered(workloads.generate(self.workload,
                                            self.seed + SECOND_SEED_OFFSET))
        mine, theirs = self.jobs[0], other[0]
        out = self.execute(theirs, layers.NullTracer())
        if out.error is not None or out.wrong is not None:
            self.problems.append(f"second seed {theirs.name}: "
                                 f"{out.error or out.wrong}")
            return
        if mine.kind == "check":
            same = out.results == list(mine.verdicts)
        else:
            same = (out.results[0] == 2 ** theirs.size) == \
                   (mine.reach_dim == 2 ** mine.size)
        if not same:
            self.problems.append(f"second seed {theirs.name}: verdict class "
                                 f"differs from {mine.name}")

    # --- rounds ---------------------------------------------------------------

    def round(self, tracer, replay: bool):
        """The whole job list once.  Returns the outcomes, the counts that
        must repeat exactly in every round (per job, plus the replays' counts
        when traced) and the counts summed over the jobs."""
        outcomes = []
        if replay:
            tracer.counts = Counter()
        for job in self.jobs:
            tracer.job = job.name
            out = self.execute(job, tracer, keep=replay)
            self.record(out)
            outcomes.append(out)
            # replay whatever the job built, also when a later call raised
            if replay and out.graph is not None:
                system, _, doc = out.state
                layers.replay_check(tracer, system, doc, out.graph)
            elif replay and out.channel is not None:
                layers.replay_reach(tracer, out.channel, out.state[1])
            out.state = out.graph = out.channel = out.routes = None
        counts = {f"{o.job.name}:{k}": v for o in outcomes
                  for k, v in o.counts.items()}
        totals = Counter()
        for o in outcomes:
            totals.update(o.counts)
        if replay:
            counts.update(tracer.counts)
            totals.update(tracer.counts)
        return outcomes, counts, totals

    def inputs_hash(self) -> str:
        h = hashlib.sha256()
        for job in self.jobs:
            for text in (job.name, job.model, job.init, job.assertions):
                h.update(text.encode())
                h.update(b"\0")
        return h.hexdigest()


def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas_threads() -> str:
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs",
                                      "*openblas*")):
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, name):
                return str(getattr(handle, name)())
    return "unknown"


def environment(bench) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": bench.workload,
        "seed": bench.seed,
        "inputs_sha256": bench.inputs_hash(),
        "git_commit": _git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "QMC_THREADS": os.environ.get("QMC_THREADS", "unset (all cores)"),
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def measure(bench, seconds: float, trace: bool):
    """Rounds of the whole job list for `seconds` (at least MIN_ROUNDS,
    untraced and traced alternating when `trace`).  Returns the metrics as
    {name: (value, unit)} and the tracer."""
    null, tracer = layers.NullTracer(), layers.Tracer()
    walls = {False: [], True: []}
    setups, checks, per_job = [], [], {j.name: [] for j in bench.jobs}
    layer_secs, layer_totals = [], None
    first_counts = {False: None, True: None}
    start = time.perf_counter()
    n, longest = 0, 0.0
    # a round starts only if it can end within --seconds, after the minimum
    while n < MIN_ROUNDS + trace or \
            time.perf_counter() - start + longest <= seconds:
        round_start = time.perf_counter()
        traced = trace and n % 2 == 1
        first_span = len(tracer.spans)
        outcomes, counts, totals = bench.round(tracer if traced else null,
                                               traced)
        walls[traced].append(sum(o.seconds for o in outcomes))
        if traced:
            layer_secs.append(tracer.seconds_by_name(first_span))
            layer_totals = layer_totals or totals
        else:
            setups.append(sum(o.setup_s for o in outcomes))
            checks.append(sum(o.check_s for o in outcomes))
            for o in outcomes:
                per_job[o.job.name].append(o.seconds)
        seen = first_counts[traced]
        if seen is None:
            first_counts[traced] = counts
        elif counts != seen:
            diff = sorted(k for k in set(counts) | set(seen)
                          if counts.get(k) != seen.get(k))
            bench.problems.append(f"counts changed between rounds: {diff}")
            print(f"perfbench: COUNT MISMATCH in round {n}: {diff}",
                  file=sys.stderr)
        n += 1
        longest = max(longest, time.perf_counter() - round_start)

    for job in bench.jobs:
        times = per_job[job.name]
        print(f"job {job.name}: median {_median(times):.4f} s over "
              f"{len(times)} rounds, times {[round(t, 4) for t in times]}, "
              f"{bench.failed_jobs.get(job.name, 'ok')}")
    print(f"rounds: {len(walls[False])} untraced, {len(walls[True])} traced")
    if trace:
        return per_layer_metrics(layer_totals, layer_secs, walls), \
            {"counts": first_counts[True], "spans": tracer.spans}
    ok = 1.0 - len(bench.failed_jobs) / len(bench.jobs)
    return {
        "wall_s": (_median(walls[False]), "s"),
        "setup_s": (_median(setups), "s"),
        "check_s": (_median(checks), "s"),
        "job_s.p50": (_median([_median(t) for t in per_job.values()]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "ok_frac": (ok, "ratio"),
    }, None



LAYER_TIMES = ("qts.parse", "qts.step", "channel.apply", "channel.matrix_rep",
               "checker.build", "checker.fingerprint", "checker.label",
               "checker.verdict", "linalg.support", "linalg.contains",
               "logic.parse", "logic.eval_prop", "reach.closed",
               "reach.vectorized", "reach.fixpoint", "tensor.contract")
LAYER_COUNTS = ("qts.transitions", "qts.step_calls", "qts.successors",
                "channel.apply_calls", "channel.kraus_applied",
                "channel.apply_gflop", "checker.nodes", "checker.edges",
                "checker.merges", "checker.frontier_max", "checker.pool_layers",
                "checker.near_misses", "checker.trace_len",
                "linalg.support_calls", "linalg.rank_max", "reach.dim",
                "tensor.contractions")


def per_layer_metrics(totals, layer_secs, walls) -> dict:
    metrics = {}
    for name in LAYER_TIMES:
        metrics[name + "_s"] = (_median([s[name] for s in layer_secs]), "s")
    for name in LAYER_COUNTS:
        unit = "GFLOP" if name.endswith("gflop") else "count"
        metrics[name] = (totals[name], unit)
    metrics["linalg.rank_mean"] = (
        totals["rank_sum"] / totals["rank_nodes"] if totals["rank_nodes"] else 0.0,
        "count")
    metrics["trace.overhead_s"] = (_median(walls[True]) - _median(walls[False]), "s")
    return metrics
