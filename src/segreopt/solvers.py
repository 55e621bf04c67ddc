"""Iterative solvers: Riemannian gradient descent and Riemannian Gauss-Newton
over products of rank-one manifolds, and the driver that iterates them.

Each method is a step function from one :class:`SolverState` to the next:
:func:`rgd_step`, :func:`rgn_step`, and the CP-ALS sweep ``als.als_step``.
:func:`run` iterates any of them and owns the stall rule, the divergence
guard and the trace.  RGD and RGN update the factor matrices in column
blocks: one block of every component, fitted from the residual frozen at
iteration start (Jacobi style), or under ``gauss_seidel`` one block per
component, fitted against the components updated before it.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .manifold import (
    CPModel,
    DegenerateInputError,
    _point_factors,
    align_and_error,
    embed_tangent,
    project_tangent,
    retract_factored,
    tangent_parts,
)
from .operators import IdentityOp, MeasurementOp
from .tensor import batched_contract_all_but

logger = logging.getLogger(__name__)

TRACE_COLUMNS = ("iter", "rel_fro_err", "max_comp_err", "residual", "wall_ms")
METHODS = ("rgd", "rgn", "als")


class SolverError(RuntimeError):
    """An iteration could not proceed (e.g. an update annihilated a component).

    Carries the offending component index and, when raised out of
    :func:`run`, the partial convergence trace.
    """

    def __init__(self, message: str, component: int | None = None,
                 trace: "ConvergenceTrace | None" = None):
        super().__init__(message)
        self.component = component
        self.trace = trace


def _check_observations(y: np.ndarray) -> None:
    if not np.all(np.isfinite(y)):
        raise ValueError("observations y contain non-finite values")


@dataclass(frozen=True)
class Problem:
    """One recovery instance: operator, observations, target rank, and an
    optional reference model used only for tracing."""

    op: MeasurementOp
    y: np.ndarray
    rank: int
    truth: CPModel | None = None

    def __post_init__(self):
        y = np.asarray(self.y, dtype=np.float64)
        if y.shape != (self.op.output_dim,):
            raise ValueError(f"observation length {y.shape} does not match operator output "
                             f"{self.op.output_dim}")
        _check_observations(y)
        object.__setattr__(self, "y", y)
        if self.rank < 1:
            raise ValueError("rank must be >= 1")


@dataclass(frozen=True)
class SolverConfig:
    """Settings of one :func:`run`; ``step_size`` is RGD's constant step, in (0, 1]."""

    method: str = "rgn"  # one of METHODS
    step_size: float = 0.2
    max_iters: int = 50
    stop_tol: float = 1e-12
    pinv_tol: float = 1e-10
    gauss_seidel: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if not 0 < self.step_size <= 1:
            raise ValueError(f"step_size must lie in (0, 1], got {self.step_size}")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        for name in ("stop_tol", "pinv_tol"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


@dataclass(frozen=True)
class SolverState:
    model: CPModel
    iteration: int
    residual: np.ndarray  # y - op(sum of components)
    # batched_contract_all_but(op.designs, factors, range(d)) at ``model``, when
    # a design-operator step has already computed it; None otherwise
    contractions: list[np.ndarray] | None = field(default=None, compare=False, repr=False)

    @classmethod
    def initial(cls, problem: Problem, model: CPModel) -> "SolverState":
        return cls(model, 0, _residual(problem, model))


def _residual(problem: Problem, model: CPModel) -> np.ndarray:
    return problem.y - problem.op.apply(model.embed())


def _blocks(rank: int, gauss_seidel: bool) -> list[slice]:
    """Column blocks updated in turn: all at once, or one by one (Gauss-Seidel)."""
    return [slice(i, i + 1) for i in range(rank)] if gauss_seidel else [slice(0, rank)]


def _update(weights: np.ndarray, factors: list[np.ndarray], cols: slice, block_weights: np.ndarray,
             directions: list[np.ndarray]) -> CPModel:
    """:func:`retract_factored` of the block ``cols``, whose columns of ``factors`` still
    hold the starting factors, written into ``weights`` and ``factors`` and returned;
    a degenerate column is a :class:`SolverError` naming its component."""
    try:
        new = retract_factored(block_weights, [u[:, cols] for u in factors], directions)
    except DegenerateInputError as exc:
        i = cols.start + exc.column
        raise SolverError(f"update of component {i} failed: {exc}", component=i) from exc
    weights[cols] = new.weights
    for u, v in zip(factors, new.factors):
        u[:, cols] = v
    return new


def rgd_step(state: SolverState, problem: Problem, alpha: float,
             gauss_seidel: bool = False) -> SolverState:
    """One gradient step: project the ambient gradient of the squared misfit
    onto each component's tangent space, step, retract."""
    if not 0 < alpha <= 1:
        raise ValueError("step size must lie in (0, 1]")
    op = problem.op
    start = state.model
    weights, factors = start.weights.copy(), [u.copy() for u in start.factors]
    for cols in _blocks(start.rank, gauss_seidel):
        residual = (state.residual if cols.start == 0
                    else _residual(problem, CPModel.from_factors(weights, factors)))
        cores, hs = tangent_parts(op.adjoint(-residual), [u[:, cols] for u in start.factors])
        _update(weights, factors, cols, weights[cols] - alpha * cores, [-alpha * h for h in hs])
    model = CPModel._of(weights, factors)
    return SolverState(model, state.iteration + 1, _residual(problem, model))


def _fit_tangent(vs: list[np.ndarray], i: int, factors: tuple[np.ndarray, ...],
                 rhs: np.ndarray, pinv_tol: float) -> tuple[float, list[np.ndarray]]:
    """Least-squares fit of ``rhs`` over the tangent space at the point with
    unit factors ``factors``, whose design contractions are column ``i`` of
    the per-mode contractions ``vs`` of :func:`batched_contract_all_but`.

    The unknowns are the core and one full direction ``h_k`` per mode.  The
    normal system is projected by ``blockdiag(1, I - u_k u_k^T)``, so each
    ``u_k`` is a null direction that the minimum-norm eigen-solve drops and
    every ``h_k`` comes out orthogonal to its ``u_k``.  Eigenvalues below
    ``pinv_tol`` times the largest are dropped; keeping fewer than the
    tangent dimension is flagged.  Returns the core and the ``h_k``.
    """
    design = np.column_stack([vs[0][:, :, i] @ factors[0]] + [v[:, :, i] for v in vs])
    ends = np.cumsum([1] + [u.size for u in factors])
    proj = np.eye(ends[-1])
    for u, lo, hi in zip(factors, ends[:-1], ends[1:]):
        proj[lo:hi, lo:hi] -= np.outer(u, u)
    gram = proj @ (design.T @ design) @ proj
    b = proj @ (design.T @ rhs)
    evals, evecs = np.linalg.eigh(gram)
    keep = evals > pinv_tol * max(evals[-1], 0.0)
    kept = int(np.count_nonzero(keep))
    df = ends[-1] - len(factors)
    if kept == 0:
        logger.warning("tangent normal system is numerically zero; returning zero update")
    elif kept < df:
        logger.warning("tangent normal system rank-deficient (%d/%d kept); minimum-norm solution",
                       kept, df)
    x = evecs[:, keep] @ ((evecs[:, keep].T @ b) / evals[keep])
    return float(x[0]), [x[lo:hi] for lo, hi in zip(ends[:-1], ends[1:])]


def solve_tangent_ls(point: CPModel, op: MeasurementOp, rhs: np.ndarray,
                     pinv_tol: float = 1e-10) -> np.ndarray:
    """Least-squares fit of ``rhs`` over the tangent space at the rank-1 model ``point``.

    Returns the ambient tangent tensor minimizing ``||rhs - op(xi)||``, from
    the normal equations solved by pseudo-inverse with eigenvalues below
    ``pinv_tol`` times the largest dropped (see :func:`_fit_tangent`).  A
    rank-deficient system is flagged and the minimum-norm solution returned.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.shape != (op.output_dim,):
        raise ValueError(f"rhs length {rhs.shape} does not match operator output {op.output_dim}")
    if isinstance(op, IdentityOp):
        # P A*A P = P: the tangent projection solves the subproblem exactly.
        return project_tangent(point, rhs.reshape(op.shape))
    us = _point_factors(point)
    vs = batched_contract_all_but(op.designs, point.factors, range(len(us)))
    core, hs = _fit_tangent(vs, 0, us, rhs, pinv_tol)
    return embed_tangent(core, us, hs)


def _applied(vs: list[np.ndarray], factors0: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Row ``i`` is the operator image of component ``i``, read from the
    mode-0 contraction of :func:`batched_contract_all_but`."""
    return np.einsum("mai,ai->im", vs[0], factors0) * weights[:, None]


def rgn_step(state: SolverState, problem: Problem, pinv_tol: float = 1e-10,
             gauss_seidel: bool = False) -> SolverState:
    """One Gauss-Newton step: each component is replaced by the retracted
    tangent-space least-squares fit of its leave-one-out residual."""
    op = problem.op
    if isinstance(op, IdentityOp):
        # With full observations the Gauss-Newton step coincides with a unit
        # step of gradient descent; share the code path so they match exactly.
        return rgd_step(state, problem, 1.0, gauss_seidel)
    # One pass over the designs (or the contractions the previous step
    # carried over) yields every component's tangent design matrix and its
    # image under the operator; under Gauss-Seidel too, since each design
    # matrix depends only on its own component's starting factors.
    start = state.model
    d = len(start.shape)
    vs = state.contractions
    if vs is None:
        vs = batched_contract_all_but(op.designs, start.factors, range(d))
    applied = _applied(vs, start.factors[0], start.weights)
    weights, factors = start.weights.copy(), [u.copy() for u in start.factors]
    for cols in _blocks(start.rank, gauss_seidel):
        if cols.start > 0:
            # Gauss-Seidel: the image of the one component just updated
            applied[cols.start - 1] = op.apply(new.embed())
        total = applied.sum(axis=0)
        cores, hs = zip(*(_fit_tangent(vs, i, tuple(u[:, i] for u in start.factors),
                                       problem.y - (total - applied[i]), pinv_tol)
                          for i in range(cols.start, cols.stop)))
        new = _update(weights, factors, cols, np.array(cores), [np.column_stack(h) for h in zip(*hs)])
    model = CPModel._of(weights, factors)
    # one pass at the new factors gives the residual now and the next
    # iteration's design matrices
    vs = batched_contract_all_but(op.designs, model.factors, range(d))
    residual = problem.y - _applied(vs, model.factors[0], model.weights).sum(axis=0)
    return SolverState(model, state.iteration + 1, residual, vs)


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    rel_fro_err: float
    max_comp_err: float
    residual: float
    wall_ms: float


@dataclass
class ConvergenceTrace:
    """Per-iteration diagnostics of one solver run."""

    records: list[TraceRecord] = field(default_factory=list)

    def append(self, rec: TraceRecord) -> None:
        self.records.append(rec)

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name if name != "iter" else "iteration") for r in self.records])

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(TRACE_COLUMNS)
        for r in self.records:
            w.writerow([r.iteration, repr(r.rel_fro_err), repr(r.max_comp_err),
                        repr(r.residual), repr(r.wall_ms)])
        return buf.getvalue()

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.to_csv())


def _record(trace: ConvergenceTrace, iteration: int, model: CPModel, truth: CPModel | None,
            residual: float, wall_ms: float) -> float:
    """Append the trace row of ``model`` and return its residual norm; a
    non-finite norm ends the run with the trace so far."""
    rel = math.nan
    comp = math.nan
    if truth is not None:
        report = align_and_error(model, truth)
        rel = report.rel_frobenius_error
        comp = report.max_component_error
    trace.append(TraceRecord(iteration, rel, comp, residual, wall_ms))
    if not math.isfinite(residual):
        raise SolverError(f"residual norm is {residual} at iteration {iteration}; "
                          "the iteration diverged", trace=trace)
    return residual


def run(problem: Problem, config: SolverConfig, init: CPModel) -> tuple[CPModel, ConvergenceTrace]:
    """Iterate the configured solver from ``init`` until ``max_iters`` or the
    relative residual change drops below ``stop_tol``.  Raises
    :class:`SolverError`, carrying the trace so far, if an update degenerates
    or the residual norm stops being finite."""
    from .als import als_step  # als imports this module

    if init.rank != problem.rank:
        raise ValueError(f"init rank {init.rank} does not match problem rank {problem.rank}")
    if init.shape != problem.op.shape:
        raise ValueError(f"init shape {init.shape} does not match operator shape {problem.op.shape}")
    state = SolverState.initial(problem, init)
    trace = ConvergenceTrace()
    prev_res = _record(trace, 0, init, problem.truth, float(np.linalg.norm(state.residual)), 0.0)
    for _ in range(config.max_iters):
        tic = time.perf_counter()
        try:
            if config.method == "rgd":
                state = rgd_step(state, problem, config.step_size, config.gauss_seidel)
            elif config.method == "rgn":
                state = rgn_step(state, problem, config.pinv_tol, config.gauss_seidel)
            else:
                state = als_step(state, problem)
        except SolverError as exc:
            exc.trace = trace
            raise
        wall_ms = (time.perf_counter() - tic) * 1e3
        res = _record(trace, state.iteration, state.model, problem.truth,
                      float(np.linalg.norm(state.residual)), wall_ms)
        if res == 0.0 or abs(res - prev_res) < config.stop_tol * max(prev_res, 1e-300):
            break
        prev_res = res
    return state.model, trace
