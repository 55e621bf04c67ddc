"""Workloads, the replicate loop, output checks and metrics of the benchmark.

The loop drives the library the way ``harness.run_experiment`` does, one
replicate at a time: ``gen_instance``, then the initial model, then every
method from that model with the truth attached.  Each call is timed from
outside.  Only public names are used, so the loop keeps working when the
library's internals change.

``reference.json`` holds the seed commit's final errors for every replicate
of each preset's own seed, and every run with a record is checked against it.
Every run starts with the first few of those replicates, the *calibration*
replicates; the convergence metrics (``*.time_to_tol_s``, ``*.rel_err``)
come from them, so those metrics do not depend on which instances a seed
draws.  The run then adds replicates of the workload seed until its time is
up; they feed the timings, and those without a record (any seed but the
preset's) get only the checks that need none.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from dataclasses import dataclass, field, replace

from segreopt import als, harness, initialization, solvers
from segreopt.rng import substream_seed

from tracing import TARGETS, Tracer, patched, span_name

METHODS = ("rgn", "rgd", "als")
# A final error may exceed the seed commit's by this factor; the same factor
# sets the time-to-tolerance target on noisy workloads.
REF_SLACK = 1.05
# Tolerance on the noiseless workload, where errors end at round-off.
NOISELESS_TOL = 1e-10
# Errors below this are round-off; rel_err reports them as this value.
REL_ERR_FLOOR = 1e-12
# An untraced run ends by setting up extra replicates, never solved, until
# setup_s has this many samples; a regress-base run solves only two.
MIN_SETUPS = 5
# Extra set-ups take replicate indices from here up, apart from the solved
# replicates 0, 1, 2, ... of the workload seed.
EXTRA_SETUP_REP = 1_000_000
DESIGN_OPS = ("tensor.batched_contract_all_but", "operators.apply", "operators.adjoint")
# Per-iteration layer metrics are reported for these targets under every method.
LAYER_TARGETS = tuple(span_name(m, a) for m, a in TARGETS
                      if m in ("tensor", "manifold") or a in (
                          "GaussianDesignOp.apply", "GaussianDesignOp.adjoint", "solve_tangent_ls"))
SETUP_TARGETS = ("harness.gen_instance", "operators.from_seed",
                 "initialization.init_regression", "initialization.init_decomposition")
SOLVER_ENTRY = {"rgn": ("solvers.run",), "rgd": ("solvers.run",),
                "als": ("als.cp_als_regress", "als.cp_als_decompose")}


# Workload name (a built-in preset) -> calibration replicates per run.  Why
# each workload is here: see "workloads" in BENCHMARK.json.
CALIBRATION = {"regress-base": 1, "decompose-noiseless": 5, "regress-coherent": 5}


def workload_config(name: str, seed: int | None = None) -> harness.ExperimentConfig:
    """The preset with all three methods; ``seed=None`` keeps the preset's seed."""
    cfg = replace(harness.config_from_preset(name), methods=METHODS)
    return cfg if seed is None else replace(cfg, seed=seed)


def tolerance_floor(cfg: harness.ExperimentConfig) -> float:
    return NOISELESS_TOL if cfg.noise_sd == 0 else 0.0


# -- the replicate loop ------------------------------------------------------

def initialize(cfg: harness.ExperimentConfig, problem: solvers.Problem, rep: int):
    """The harness's initial model, built through the public initializers."""
    method = cfg.init_method or ("random" if cfg.task == "decompose" else "adjoint-cpca")
    if method == "adjoint-cpca":
        return initialization.init_regression(problem.op, problem.y, cfg.rank, cfg.cpca_split)
    spec = initialization.InitSpec(method=method, seed=substream_seed(cfg.seed, "init", rep),
                                   cpca_split=cfg.cpca_split,
                                   refine_sweeps=cfg.init_refine_sweeps)
    y = (problem.y.reshape(cfg.dims) if cfg.task == "decompose"
         else problem.op.adjoint(problem.y))
    return initialization.init_decomposition(y, cfg.rank, spec)


def solve(method: str, cfg: harness.ExperimentConfig, problem: solvers.Problem, init,
          max_iters: int) -> solvers.ConvergenceTrace:
    if method in ("rgd", "rgn"):
        scfg = solvers.SolverConfig(method=method, step_size=cfg.step_size, max_iters=max_iters,
                                    stop_tol=cfg.stop_tol, pinv_tol=cfg.pinv_tol,
                                    gauss_seidel=cfg.gauss_seidel)
        return solvers.run(problem, scfg, init)[1]
    if cfg.task == "decompose":
        return als.cp_als_decompose(problem.y.reshape(cfg.dims), cfg.rank, init, max_iters,
                                    truth=problem.truth)[1]
    return als.cp_als_regress(problem.op, problem.y, cfg.rank, init, max_iters,
                              truth=problem.truth)[1]


@dataclass
class SolverRun:
    wall_s: float
    rows: list[tuple]  # (iter, rel_fro_err, max_comp_err, residual) per trace record
    error: str | None = None
    failure: str | None = None  # set by the output check
    iters_to_tol: int | None = None  # set when the run has an error target

    @property
    def iters(self) -> int:
        return len(self.rows) - 1


@dataclass
class Instance:
    seed: int
    replicate: int
    setup_s: float
    design_bytes: int = 0
    calibration: bool = False
    runs: dict[str, SolverRun] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return self.setup_s + sum(r.wall_s for r in self.runs.values())


def timed_solve(method, cfg, problem, init) -> SolverRun:
    tic = time.perf_counter()
    try:
        trace, error = solve(method, cfg, problem, init, cfg.max_iters), None
    except solvers.SolverError as exc:
        trace, error = exc.trace, str(exc)
    wall = time.perf_counter() - tic
    rows = [(r.iteration, r.rel_fro_err, r.max_comp_err, r.residual)
            for r in (trace.records if trace is not None else ())]
    return SolverRun(wall, rows, error)


def run_instance(cfg: harness.ExperimentConfig, rep: int, tracer: Tracer | None = None,
                 solve_methods: bool = True) -> Instance:
    """Set up one replicate and run every method on it.  With a tracer, each
    phase is labelled, and each method also runs once with zero iterations so
    that its one-off set-up work can be subtracted from per-iteration figures."""
    if tracer is not None:
        tracer.label = "setup"
    tic = time.perf_counter()
    problem = harness.gen_instance(cfg, rep)
    init = initialize(cfg, problem, rep)
    inst = Instance(cfg.seed, rep, time.perf_counter() - tic,
                    int(getattr(getattr(problem.op, "designs", None), "nbytes", 0)))
    for method in METHODS if solve_methods else ():
        if tracer is not None:
            tracer.label = method
        inst.runs[method] = timed_solve(method, cfg, problem, init)
        if tracer is not None:
            tracer.label = method + ":zero"
            try:
                solve(method, cfg, problem, init, 0)
            except solvers.SolverError:
                pass  # the full run carries the failure
    if tracer is not None:
        tracer.label = ""
    return inst


# -- output checks -----------------------------------------------------------

def iters_to_tol(errors, tol: float) -> int | None:
    """First iteration whose error is at or below ``tol``; None if none is."""
    for i, e in enumerate(errors):
        if e <= tol:
            return i
    return None


def reference_for(refs: dict, workload: str, inst: Instance) -> dict | None:
    return refs.get(workload, {}).get(str(inst.seed), {}).get(str(inst.replicate))


def tolerance(ref: dict | None, floor: float) -> float | None:
    """Error target of one run: 1.05 x the seed commit's final error, or the
    noiseless tolerance; None for a noisy run without a record."""
    if ref is not None:
        return max(REF_SLACK * ref["rel_fro_err"], floor)
    return floor or None


def check_run(run: SolverRun, ref: dict | None, floor: float) -> str | None:
    """Why the run fails its output check, or None.

    With a seed-commit record, the final ``rel_fro_err`` and ``max_comp_err``
    may exceed the recorded ones by at most 5% (or reach the noiseless
    tolerance).  Without one, a noiseless run must reach the tolerance and a
    noisy run must end below its initial error.
    """
    if run.error is not None:
        return f"SolverError: {run.error}"
    if run.iters < 1:
        return "no iterations recorded"
    final = run.rows[-1]
    if not all(math.isfinite(v) for v in final[1:]):
        return f"non-finite final values {final[1:]}"
    rel, comp = final[1], final[2]
    if ref is not None:
        for key, value in (("rel_fro_err", rel), ("max_comp_err", comp)):
            limit = max(REF_SLACK * ref[key], floor)
            if not value <= limit:
                return f"{key} {value:.6e} above {limit:.6e} (seed commit {ref[key]:.6e})"
    elif floor:
        if not (rel <= floor and comp <= floor):
            return f"errors {rel:.3e}/{comp:.3e} above the tolerance {floor:.0e}"
    elif not rel < run.rows[0][1]:
        return f"final error {rel:.6e} not below the initial {run.rows[0][1]:.6e}"
    return None


def parity_check(cfg: harness.ExperimentConfig, inst: Instance) -> str | None:
    """Compare the loop's traces of one replicate with ``run_experiment`` on
    the same config; returns the mismatch, or None."""
    if inst.replicate != 0:
        raise ValueError("parity runs on replicate 0")
    try:
        summary = harness.run_experiment(replace(cfg, replicates=1))
    except solvers.SolverError as exc:
        return f"run_experiment failed: {exc}"
    for method in METHODS:
        trace = summary.traces[method][0]
        rows = [(r.iteration, r.rel_fro_err, r.max_comp_err, r.residual)
                for r in (trace.records if trace is not None else ())]
        if inst.runs[method].rows != rows:  # every column but wall_ms
            return f"{method} trace differs from run_experiment"
    return None


# -- measurement -------------------------------------------------------------

@dataclass
class Measurement:
    instances: list[Instance] = field(default_factory=list)  # untraced
    traced_instances: list[Instance] = field(default_factory=list)
    extra_setups: list[float] = field(default_factory=list)
    tracer: Tracer | None = None
    absent: list[str] = field(default_factory=list)
    parity: str | None = None
    parity_checked: bool = False
    refs_missing: list[tuple[int, int]] = field(default_factory=list)

    def all_runs(self):
        for inst in self.instances + self.traced_instances:
            yield from inst.runs.values()

    @property
    def attempted(self) -> int:
        return sum(1 for _ in self.all_runs()) + int(self.parity_checked)

    @property
    def failed(self) -> int:
        return (sum(r.failure is not None for r in self.all_runs())
                + int(self.parity is not None) + len(self.refs_missing))

    @property
    def correct(self) -> bool:
        return self.failed == 0


def measure(workload: str, seed: int, seconds: float, trace: bool, refs: dict) -> Measurement:
    """Run calibration replicates, then replicates of ``seed`` until
    ``seconds`` are used up (ending as close to it as whole replicates
    allow).  Untraced runs then add set-ups (see ``MIN_SETUPS``);
    traced runs repeat each replicate under the tracer and check parity."""
    n_cal = CALIBRATION[workload]
    cal_cfg = workload_config(workload)
    seed_cfg = workload_config(workload, seed)
    floor = tolerance_floor(cal_cfg)
    tracer = Tracer() if trace else None
    out = Measurement(tracer=tracer)

    t0 = time.perf_counter()
    seeded = 0
    while True:
        n = len(out.instances)
        calibrating = n < n_cal
        elapsed = time.perf_counter() - t0
        if not calibrating and (trace or n > n_cal):
            # stop where the run ends closest to its time budget
            if elapsed + 0.5 * elapsed / n > seconds:
                break
        cfg, rep = (cal_cfg, n) if calibrating else (seed_cfg, seeded)
        seeded += not calibrating
        out.instances.append(run_instance(cfg, rep))
        if trace:
            with patched(tracer) as absent:
                out.traced_instances.append(run_instance(cfg, rep, tracer))
            out.absent = absent
        for i in out.instances[-1:] + out.traced_instances[-1:]:
            i.calibration = calibrating
    if not trace:
        while len(out.instances) + len(out.extra_setups) < MIN_SETUPS:
            rep = EXTRA_SETUP_REP + len(out.extra_setups)
            out.extra_setups.append(run_instance(seed_cfg, rep, solve_methods=False).setup_s)

    for inst in out.instances + out.traced_instances:
        ref_block = reference_for(refs, workload, inst)
        if inst.calibration and ref_block is None:
            out.refs_missing.append((inst.seed, inst.replicate))
            continue
        for method, run in inst.runs.items():
            ref = None if ref_block is None else ref_block[method]
            run.failure = check_run(run, ref, floor)
            tol = tolerance(ref, floor)
            if tol is not None and run.rows:
                run.iters_to_tol = iters_to_tol([row[1] for row in run.rows], tol)

    if trace:
        out.parity_checked = True
        out.parity = parity_check(cal_cfg, out.instances[0])
    return out


# -- metrics -----------------------------------------------------------------

def summary(samples: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples above it
    (absent below eleven samples), and the sample count."""
    xs = sorted(samples)
    out = {"median": statistics.median(xs) if xs else None, "n": len(xs)}
    k = len(xs) - 10  # 1-based rank of the order statistic with ten above it
    if k >= 1:
        out["percentile"] = round(100.0 * k / len(xs), 1)
        out["percentile_value"] = xs[k - 1]
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def to_tol_iters(run: SolverRun) -> int:
    """Iterations to the error target; a run that misses it is charged its
    whole horizon (and has already failed its check)."""
    return run.iters if run.iters_to_tol is None else run.iters_to_tol


def end_to_end(m: Measurement) -> dict[str, dict]:
    """Every end-to-end metric as ``{"value", "unit", ...}``."""
    out = {}
    setups = [i.setup_s for i in m.instances] + m.extra_setups
    out["setup_s"] = {"unit": "s", "summary": summary(setups)}
    cal = [i for i in m.instances if i.calibration]
    for method in METHODS:
        ok = [i.runs[method] for i in m.instances if i.runs[method].failure is None]
        out[f"{method}.iter_ms"] = {
            "unit": "ms", "summary": summary([1e3 * r.wall_s / r.iters for r in ok])}
        iter_ms = out[f"{method}.iter_ms"]["summary"]["median"]
        runs = [i.runs[method] for i in cal]
        # each calibration replicate's iterations to its target, priced at the
        # run's median iteration time, which is steadier than a single call's
        to_tol = [to_tol_iters(r) * iter_ms / 1e3 for r in runs] if iter_ms else []
        out[f"{method}.time_to_tol_s"] = {"unit": "s", "summary": summary(to_tol)}
        finals = [r.rows[-1][1] if r.rows else math.inf for r in runs]
        rms = math.sqrt(sum(e * e for e in finals) / len(finals))
        out[f"{method}.rel_err"] = {"unit": "ratio", "value": max(rms, REL_ERR_FLOOR),
                                    "raw": rms}
    out["peak_rss_mb"] = {"unit": "MB", "value": peak_rss_mb()}
    runs = [r for i in m.instances for r in i.runs.values()]
    out["failed_runs"] = {"unit": "share", "value": sum(r.failure is not None for r in runs)
                          / max(len(runs), 1), "attempted": len(runs)}
    for metric in out.values():
        if "value" not in metric:
            metric["value"] = metric["summary"]["median"]
    return out


def per_layer(m: Measurement) -> dict[str, dict]:
    """Per-iteration calls and self time of each traced target under each
    method (the zero-iteration calls subtracted), design-stack traffic,
    set-up layers per replicate, iteration counts and tracing overhead."""
    totals = m.tracer.totals()
    insts = m.traced_instances
    out: dict[str, dict] = {}

    def get(label, name):
        return totals.get((label, name), (0, 0))

    design_bytes = max((i.design_bytes for i in insts), default=0)
    cal = [i for i in m.instances if i.calibration]
    for method in METHODS:
        iters = sum(i.runs[method].iters for i in insts)
        per_iter = {}
        for name in LAYER_TARGETS + SOLVER_ENTRY[method]:
            full, zero = get(method, name), get(method + ":zero", name)
            per_iter[name] = ((full[0] - zero[0]) / max(iters, 1),
                              (full[1] - zero[1]) / 1e6 / max(iters, 1))
        for name in LAYER_TARGETS:
            out[f"{method}.{name}.calls"] = {"value": per_iter[name][0], "unit": "count"}
            out[f"{method}.{name}.self_ms"] = {"value": per_iter[name][1], "unit": "ms"}
        for name in SOLVER_ENTRY[method]:
            out[f"{method}.{name}.self_ms"] = {"value": per_iter[name][1], "unit": "ms"}
        passes = sum(per_iter[n][0] for n in DESIGN_OPS)
        busy_ms = sum(per_iter[n][1] for n in DESIGN_OPS)
        gb = passes * design_bytes / 1e9
        out[f"{method}.operators.design_passes_per_iter"] = {"value": passes, "unit": "count"}
        out[f"{method}.operators.design_gb_per_iter"] = {"value": gb, "unit": "GB"}
        out[f"{method}.operators.design_gbps"] = {
            "value": gb / (busy_ms / 1e3) if busy_ms > 0 else 0.0, "unit": "GB/s"}
        out[f"{method}.solvers.iters"] = {
            "value": statistics.median(i.runs[method].iters for i in insts), "unit": "count"}
        hits = [to_tol_iters(i.runs[method]) for i in cal]
        out[f"{method}.solvers.iters_to_tol"] = {
            "value": statistics.median(hits) if hits else 0, "unit": "count"}
    for name in SETUP_TARGETS:
        out[f"setup.{name}.self_ms"] = {
            "value": get("setup", name)[1] / 1e6 / max(len(insts), 1), "unit": "ms"}
    untraced = sum(i.wall_s for i in m.instances)
    traced = sum(i.wall_s for i in insts)
    out["trace.overhead_pct"] = {"value": 100.0 * (traced - untraced) / untraced, "unit": "%"}
    return out
