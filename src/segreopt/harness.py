"""Synthetic instance generation, the experiment runner, and aggregation.

Instances follow two factor regimes: ``rho=None`` draws factors i.i.d.
uniformly on the unit sphere; a numeric ``rho`` builds coherence-controlled
factors from an order-one autoregressive Gram matrix followed by a Haar
rotation, so the worst pairwise factor alignment equals ``rho`` per mode.

Aggregation across replicates reports, per iteration and method, the square
root of the mean of squared relative errors.  Replicates whose trace stopped
early are carried forward at their final row so every iteration aggregates
all replicates.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field, fields
from importlib import resources
from itertools import product

import numpy as np

from . import __version__
from .initialization import (INIT_METHODS, InitSpec, init_decomposition, init_regression,
                             unfolding_split)
from .manifold import CPModel, DegenerateInputError, align_and_error, incoherence
from .operators import GaussianDesignOp, IdentityOp
from .rng import substream, substream_seed
from .solvers import (METHODS, ConvergenceTrace, Problem, SolverConfig, SolverError,
                      _check_field_types, run)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment bit-for-bit."""

    task: str  # "decompose" | "regress"
    dims: tuple[int, ...] = (30, 30, 30)
    rank: int = 3
    rho: float | None = None          # None: sphere factors; value: AR(1) coherence
    weight_law: str = "unif-scaled"   # "unif-scaled" | "geometric-kappa"
    kappa: float = 1.0
    noise_sd: float = 1.0
    n_samples: int | None = None      # regression only; None -> floor(2 * pbar^1.5 * r)
    methods: tuple[str, ...] = ("rgd", "rgn")
    init_method: str | None = None    # None -> random (decompose) / adjoint-cpca (regress)
    init_refine_sweeps: int = 0       # greedy deflation passes after a random init
    cpca_split: tuple[int, ...] | None = None
    replicates: int = 20
    seed: int = 0
    max_iters: int = 30
    step_size: float = 0.2
    stop_tol: float = 1e-12
    pinv_tol: float = 1e-10
    gauss_seidel: bool = False        # RGN fits one component at a time; RGD and ALS ignore it

    def __post_init__(self):
        _check_field_types(self)
        if self.task not in ("decompose", "regress"):
            raise ValueError(f"unknown task {self.task!r}")
        if len(self.dims) < 2 or min(self.dims) < 1:
            raise ValueError(f"dims must list two or more modes of length >= 1, got {self.dims}")
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if self.n_samples is not None and self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")
        if self.rho is not None and not 0 <= self.rho < 1:
            raise ValueError(f"rho must lie in [0, 1), got {self.rho}")
        if self.rho is not None and self.rank > min(self.dims):
            raise ValueError(f"rank {self.rank} exceeds dimension {min(self.dims)} (rho is set)")
        if self.weight_law not in ("unif-scaled", "geometric-kappa"):
            raise ValueError(f"unknown weight law {self.weight_law!r}")
        if not 1 <= self.kappa < math.inf:
            raise ValueError(f"kappa (condition number) must be finite and >= 1, got {self.kappa}")
        if self.weight_law == "geometric-kappa":
            # (r w_max)^2 bounds the truth's squared norm, which scoring needs finite
            try:
                top = self.rank * _geometric_weight(self, self.rank)
            except OverflowError:
                top = math.inf
            if not math.isfinite(top * top):
                raise ValueError(f"kappa {self.kappa} is too large: the squared norm of the "
                                 f"truth overflows at rank {self.rank}")
        if not 0 <= self.noise_sd < math.inf:
            raise ValueError(f"noise_sd must be finite and >= 0, got {self.noise_sd}")
        if self.init_refine_sweeps < 0:
            raise ValueError(f"init_refine_sweeps must be >= 0, got {self.init_refine_sweeps}")
        if self.init_method not in (None,) + INIT_METHODS:
            raise ValueError(f"unknown init_method {self.init_method!r}")
        if self.init_method == "adjoint-cpca" and self.task != "regress":
            raise ValueError("init_method 'adjoint-cpca' needs a design operator, "
                             f"which task {self.task!r} does not have")
        if _init_method(self) != "random":
            unfolding_split(self.dims, self.rank, self.cpca_split)
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not self.methods or len(set(self.methods) & set(METHODS)) < len(self.methods):
            raise ValueError(f"methods must be a nonempty selection from {METHODS} without "
                             f"repeats, got {self.methods}")
        self.solver_config(self.methods[0])  # checks the solver fields' ranges

    def solver_config(self, method: str) -> SolverConfig:
        """The settings of every run of ``method`` in this experiment."""
        return SolverConfig(method=method, step_size=self.step_size, max_iters=self.max_iters,
                            stop_tol=self.stop_tol, pinv_tol=self.pinv_tol,
                            gauss_seidel=self.gauss_seidel)

    @property
    def pbar(self) -> int:
        return max(self.dims)

    def sample_size(self) -> int:
        return self.n_samples or math.floor(2.0 * self.pbar**1.5 * self.rank)

    def to_dict(self) -> dict:
        """Every field by name, tuples as lists (the inverse of :meth:`from_dict`)."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: list(v) if isinstance(v, tuple) else v for k, v in values.items()}

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
        return cls(**d)


def gen_coherent_factors(p: int, r: int, rho: float, rng: np.random.Generator) -> np.ndarray:
    """A ``p x r`` factor matrix with unit columns whose Gram matrix is
    ``rho^|i-j|``, rotated by a Haar-random orthogonal matrix."""
    if r > p:
        raise ValueError(f"rank {r} exceeds dimension {p}")
    if not 0 <= rho < 1:
        raise ValueError("coherence must lie in [0, 1)")
    idx = np.arange(r)
    gram = rho ** np.abs(idx[:, None] - idx[None, :])
    chol = np.linalg.cholesky(gram)
    q0 = np.zeros((p, r))
    q0[:r, :] = np.eye(r)
    m = q0 @ chol.T
    m /= np.linalg.norm(m, axis=0)
    z = rng.standard_normal((p, p))
    q, rr = np.linalg.qr(z)
    signs = np.sign(np.diag(rr))
    signs[signs == 0] = 1.0
    return (q * signs) @ m


def _truth_weights(config: ExperimentConfig, rng: np.random.Generator) -> np.ndarray:
    d = len(config.dims)
    scale = math.sqrt(d) + 1.0
    pbar = config.pbar
    r = config.rank
    if config.weight_law == "unif-scaled":
        if config.task == "decompose":
            lo, hi = pbar**0.75, 2.0 * pbar**0.75
        else:
            lo, hi = 0.5, 1.5
        return scale * rng.uniform(lo, hi, size=r)
    return np.array([_geometric_weight(config, i) for i in range(1, r + 1)])


def _geometric_weight(config: ExperimentConfig, i: int) -> float:
    """Truth weight ``i`` (from 1) under the ``geometric-kappa`` law; ``i = r`` is the largest."""
    if config.task == "decompose":
        return 2.0 * config.kappa ** ((i - 1) / 2.0) * config.pbar**0.75 * math.sqrt(config.rank)
    return 2.0 * config.kappa ** ((i - 2) / 2.0)


def gen_truth(config: ExperimentConfig, replicate: int = 0) -> CPModel:
    """Ground-truth model for one replicate, from the seeded substreams."""
    r = config.rank
    if config.rho is None:
        rng = substream(config.seed, "factors", replicate)
        mats = []
        for p in config.dims:
            u = rng.standard_normal((p, r))
            mats.append(u / np.linalg.norm(u, axis=0))
    else:
        rng = substream(config.seed, "rotation", replicate)
        mats = [gen_coherent_factors(p, r, config.rho, rng) for p in config.dims]
    weights = _truth_weights(config, substream(config.seed, "weights", replicate))
    return CPModel.from_factors(weights, mats)


def gen_instance(config: ExperimentConfig, replicate: int = 0) -> Problem:
    """Full problem instance (operator, observations, truth attached)."""
    truth = gen_truth(config, replicate)
    signal = truth.embed()
    noise_rng = substream(config.seed, "noise", replicate)
    if config.task == "decompose":
        y = signal + config.noise_sd * noise_rng.standard_normal(signal.shape)
        op = IdentityOp(config.dims)
        return Problem(op=op, y=y.ravel(), rank=config.rank, truth=truth)
    n = config.sample_size()
    op = GaussianDesignOp.from_seed(config.seed, config.dims, n, replicate=replicate)
    # raw observations <X_m, T> + noise, stored rescaled by 1/sqrt(n) so they
    # pair with the rescaled designs
    y = op.apply(signal)
    y += config.noise_sd * noise_rng.standard_normal(n) / math.sqrt(n)
    return Problem(op=op, y=y, rank=config.rank, truth=truth)


def _init_method(config: ExperimentConfig) -> str:
    """The configured start, or the task's default one."""
    return config.init_method or ("random" if config.task == "decompose" else "adjoint-cpca")


def _initial_model(config: ExperimentConfig, problem: Problem, replicate: int) -> CPModel:
    method = _init_method(config)
    if method == "adjoint-cpca":
        return init_regression(problem.op, problem.y, config.rank, config.cpca_split)
    spec = InitSpec(method=method, seed=substream_seed(config.seed, "init", replicate),
                    cpca_split=config.cpca_split, refine_sweeps=config.init_refine_sweeps)
    y_tensor = (problem.y.reshape(config.dims) if config.task == "decompose"
                else problem.op.adjoint(problem.y))
    return init_decomposition(y_tensor, config.rank, spec)


def _run_method(method: str, config: ExperimentConfig, problem: Problem,
                init: CPModel) -> ConvergenceTrace:
    return run(problem, config.solver_config(method), init)[1]


@dataclass
class ReplicateSummary:
    """Outcome of one experiment: per-method traces and the RMS aggregate."""

    config: ExperimentConfig
    traces: dict[str, list[ConvergenceTrace | None]] = field(default_factory=dict)
    failures: list[dict] = field(default_factory=list)
    init_errors: list[float] = field(default_factory=list)
    measured_eta: list[float] = field(default_factory=list)

    def aggregate(self) -> dict[str, dict[str, np.ndarray]]:
        """Per method: iteration grid plus RMS curves of both error metrics,
        short traces carried forward at their final row."""
        out = {}
        for method, traces in self.traces.items():
            done = [t for t in traces if t is not None and t.records]
            if not done:
                continue
            horizon = max(len(t.records) for t in done)
            rel = np.empty((len(done), horizon))
            comp = np.empty((len(done), horizon))
            for i, t in enumerate(done):
                r = t.column("rel_fro_err")
                c = t.column("max_comp_err")
                rel[i, : r.size] = r
                rel[i, r.size :] = r[-1]
                comp[i, : c.size] = c
                comp[i, c.size :] = c[-1]
            out[method] = {
                "iter": np.arange(horizon),
                "rel_fro_err": np.sqrt(np.mean(rel**2, axis=0)),
                "max_comp_err": np.sqrt(np.mean(comp**2, axis=0)),
            }
        return out

    def final_error(self, method: str) -> float:
        agg = self.aggregate()[method]
        return float(agg["rel_fro_err"][-1])


def run_experiment(config: ExperimentConfig, out_dir: str | os.PathLike | None = None) -> ReplicateSummary:
    """Run every configured method on every replicate and aggregate.

    When ``out_dir`` is given, writes ``trace_<method>_<rep>.csv`` per run,
    ``aggregate.csv``, and ``manifest.json``.  Solver failures are recorded
    and skipped, and so is a replicate whose observations overflow or whose
    initialization degenerates (as a failure of every method, with a NaN
    initial error); a method with a recorded failure on every replicate
    raises ``SolverError``, after the outputs are written.
    """
    summary = ReplicateSummary(config=config, traces={m: [] for m in config.methods})

    def fail(method: str, rep: int, component: int | None, message: str) -> None:
        summary.failures.append({"method": method, "replicate": rep,
                                 "component": component, "message": message})

    for rep in range(config.replicates):
        # measured on the truth alone, which stays finite when the observations overflow
        summary.measured_eta.append(incoherence(gen_truth(config, rep))[1])
        try:
            problem = gen_instance(config, rep)
            init = _initial_model(config, problem, rep)
        except DegenerateInputError as exc:
            summary.init_errors.append(math.nan)
            for method in config.methods:
                fail(method, rep, None, f"initialization failed: {exc}")
                summary.traces[method].append(None)
            continue
        summary.init_errors.append(align_and_error(init, problem.truth).rel_frobenius_error)
        for method in config.methods:
            try:
                trace = _run_method(method, config, problem, init)
            except SolverError as exc:
                fail(method, rep, exc.component, str(exc))
                trace = exc.trace
            summary.traces[method].append(trace)
    if out_dir is not None:
        write_outputs(summary, out_dir)
    for method in config.methods:
        failed = {f["replicate"] for f in summary.failures if f["method"] == method}
        if len(failed) == config.replicates:
            raise SolverError(f"method {method!r} failed on every replicate")
    return summary


def _finite_or_null(values: list[float]) -> list[float | None]:
    return [v if math.isfinite(v) else None for v in values]


def write_outputs(summary: ReplicateSummary, out_dir: str | os.PathLike) -> None:
    """Write the trace CSVs, ``aggregate.csv`` and a strict-JSON
    ``manifest.json``, in which a non-finite ``measured_eta`` or
    ``init_rel_errors`` entry (say, a failed initialization's NaN) is null."""
    os.makedirs(out_dir, exist_ok=True)
    config = summary.config
    for method, traces in summary.traces.items():
        for rep, trace in enumerate(traces):
            if trace is None:
                continue
            trace.write_csv(os.path.join(out_dir, f"trace_{method}_{rep}.csv"))
    agg = summary.aggregate()
    with open(os.path.join(out_dir, "aggregate.csv"), "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["method", "iter", "rel_fro_err", "max_comp_err"])
        for method in config.methods:
            if method not in agg:
                continue
            a = agg[method]
            for i in range(a["iter"].size):
                w.writerow([method, int(a["iter"][i]),
                            repr(float(a["rel_fro_err"][i])),
                            repr(float(a["max_comp_err"][i]))])
    manifest = {
        "config": config.to_dict(),
        "replicate_seeds": {
            purpose: [substream_seed(config.seed, purpose, rep)
                      for rep in range(config.replicates)]
            for purpose in ("factors", "rotation", "noise", "designs", "init", "weights")
        },
        "measured_eta": _finite_or_null(summary.measured_eta),
        "init_rel_errors": _finite_or_null(summary.init_errors),
        "failures": summary.failures,
        "versions": {"segreopt": __version__, "numpy": np.__version__},
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


# -- presets -----------------------------------------------------------------

def preset_names() -> list[str]:
    files = resources.files("segreopt").joinpath("presets")
    return sorted(f.name[: -len(".json")] for f in files.iterdir() if f.name.endswith(".json"))


def load_preset(name: str) -> dict:
    path = resources.files("segreopt").joinpath("presets", f"{name}.json")
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise ValueError(f"unknown preset {name!r}; available: {preset_names()}") from None
    return json.loads(text)


def config_from_preset(name: str, **overrides) -> ExperimentConfig:
    d = load_preset(name)
    d.pop("grid", None)
    d.update(overrides)
    return ExperimentConfig.from_dict(d)


def expand_grid(preset: dict) -> list[ExperimentConfig]:
    """A preset may carry a ``grid`` of per-field value lists; expand it into
    one config per combination (fields iterate in sorted name order)."""
    grid = preset.get("grid") or {}
    if not isinstance(grid, dict):
        raise ValueError(f"grid must map config fields to lists of values, got {grid!r}")
    for key, values in grid.items():
        if not isinstance(values, list) or not values:
            raise ValueError(f"grid values of {key!r} must be a nonempty list, got {values!r}")
    base = {k: v for k, v in preset.items() if k != "grid"}
    keys = sorted(grid)
    return [ExperimentConfig.from_dict({**base, **dict(zip(keys, values))})
            for values in product(*(grid[k] for k in keys))]
