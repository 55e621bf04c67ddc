"""Iterative solvers: Riemannian gradient descent and Riemannian Gauss-Newton
over products of rank-one manifolds, and the driver that iterates them.

Each method is a step function from one :class:`SolverState` to the next:
:func:`rgd_step`, :func:`rgn_step`, and the CP-ALS sweep ``als.als_step``.
:func:`run` iterates any of them and owns the stall rule, the divergence
guard and the trace.  RGD steps every component from the residual at
iteration start; RGN updates the factor matrices in column blocks: one block
of every component, or under ``gauss_seidel`` (which RGD and ALS ignore) one
block per component, fitted against the components updated before it.  RGN
fits each block jointly (under Jacobi, Gauss-Newton on the product of the
components' manifolds), then retracts each trial from the start in one call,
halving it until the residual norm does not rise.
"""

from __future__ import annotations

import csv
import functools
import io
import logging
import math
import numbers
import time
import types
import typing
from dataclasses import dataclass, field

import numpy as np

from .manifold import (
    CPModel,
    DegenerateInputError,
    _align_batch,
    _point_factors,
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
        raise DegenerateInputError("observations y contain non-finite values")


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
        if not _is_integer(self.rank) or self.rank < 1:
            raise ValueError(f"rank must be an integer >= 1, got {self.rank!r}")
        if self.truth is not None and (self.truth.rank, self.truth.shape) != (self.rank,
                                                                              self.op.shape):
            raise ValueError(f"truth of rank {self.truth.rank} and shape {self.truth.shape} does "
                             f"not match rank {self.rank} and operator shape {self.op.shape}")


def _is_integer(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


# What a config field annotated with each type accepts (a bool is neither an
# integer nor a real number here), and the type's name alone and as list items.
_FIELD_KINDS = {
    int: (numbers.Integral, "an integer", "integers"),
    float: (numbers.Real, "a real number", "real numbers"),
    bool: (bool, "a bool", "bools"),
    str: (str, "a string", "strings"),
}


@functools.cache
def _field_types(cls: type) -> tuple[tuple[str, type, bool, bool, str], ...]:
    """Per field of the dataclass ``cls``, read off its annotation: the name,
    the item type, whether it is a ``tuple[T, ...]``, whether it is ``| None``,
    and what it must be."""
    checks = []
    for name, hint in typing.get_type_hints(cls).items():
        args = typing.get_args(hint) if isinstance(hint, types.UnionType) else (hint,)
        (hint,) = [a for a in args if a is not type(None)]
        listed = typing.get_origin(hint) is tuple
        item = typing.get_args(hint)[0] if listed else hint
        _, one, many = _FIELD_KINDS[item]
        kind = ("a list of " + many if listed else one) + (" or null" if len(args) > 1 else "")
        checks.append((name, item, listed, len(args) > 1, kind))
    return tuple(checks)


def _is_kind(v, item: type) -> bool:
    return isinstance(v, _FIELD_KINDS[item][0]) and (item is bool or not isinstance(v, bool))


def _check_field_types(obj) -> None:
    """Raise ``ValueError`` on the first field of the dataclass ``obj`` whose
    value is not of its annotated type: ``int``, ``float``, ``bool`` or
    ``str``, ``tuple[T, ...]`` (a list or tuple of ``T``), or one of these
    ``| None``.  Store each value as that type (a list as a tuple)."""
    for name, item, listed, nullable, kind in _field_types(type(obj)):
        v = getattr(obj, name)
        if v is None and nullable:
            continue
        if not (isinstance(v, (list, tuple)) and all(_is_kind(x, item) for x in v) if listed
                else _is_kind(v, item)):
            raise ValueError(f"{name} must be {kind}, got {v!r}")
        try:
            object.__setattr__(obj, name, tuple(map(item, v)) if listed else item(v))
        except OverflowError:
            raise ValueError(f"{name} is out of a float's range, got {v!r}") from None


@dataclass(frozen=True)
class SolverConfig:
    """Settings of one :func:`run`; ``step_size`` is RGD's constant step, in (0, 1]."""

    method: str = "rgn"  # one of METHODS
    step_size: float = 0.2
    max_iters: int = 50
    stop_tol: float = 1e-12
    pinv_tol: float = 1e-10
    gauss_seidel: bool = False  # RGN fits one component at a time; RGD and ALS ignore it

    def __post_init__(self):
        _check_field_types(self)
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
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
    """Column blocks RGN updates in turn: all at once, or one by one (Gauss-Seidel)."""
    return [slice(i, i + 1) for i in range(rank)] if gauss_seidel else [slice(0, rank)]


def _retract(weights: np.ndarray, factors: list[np.ndarray] | tuple[np.ndarray, ...],
             directions: list[np.ndarray], first: int = 0) -> CPModel:
    """:func:`retract_factored`, with a degenerate column a :class:`SolverError`
    naming its component, ``first`` plus the column."""
    try:
        return retract_factored(weights, factors, directions)
    except DegenerateInputError as exc:
        i = first + exc.column
        raise SolverError(f"update of component {i} failed: {exc}", component=i) from exc


def rgd_step(state: SolverState, problem: Problem, alpha: float,
             cols: slice = slice(0, None)) -> SolverState:
    """One gradient step: project the ambient gradient of the squared misfit
    at the stored residual onto the tangent space of each component in
    ``cols`` (every one by default), step, retract."""
    if not 0 < alpha <= 1:
        raise ValueError("step size must lie in (0, 1]")
    start = state.model
    us = [u[:, cols] for u in start.factors]
    cores, hs = tangent_parts(problem.op.adjoint(-state.residual), us)
    new = _retract(start.weights[cols] - alpha * cores, us, [-alpha * h for h in hs], cols.start)
    weights, factors = start.weights.copy(), [u.copy() for u in start.factors]
    weights[cols] = new.weights
    for u, v in zip(factors, new.factors):
        u[:, cols] = v
    model = CPModel._of(weights, factors)
    return SolverState(model, state.iteration + 1, _residual(problem, model))


def _fit_tangent(vs: list[np.ndarray], cols: slice, factors: tuple[np.ndarray, ...],
                 rhs: np.ndarray, pinv_tol: float) -> tuple[np.ndarray, list[np.ndarray]]:
    """Joint least-squares fit of ``rhs`` over the sum of the tangent spaces
    at the points ``cols``: column ``i`` of the unit factor matrices
    ``factors`` is point ``i``, and column ``i`` of the per-mode contractions
    ``vs`` of :func:`batched_contract_all_but` holds its design contractions.

    The unknowns are every point's core and one full direction ``h_k`` per
    mode, so the fit is one Gauss-Newton system over the whole block,
    cross-point terms included.  Each ``h_k`` column block of the design is
    projected onto the complement of its ``u_k`` (``v - (v . u) u^T``), so
    each ``u_k`` is a null direction.  The solution is the minimum-norm one
    with eigenvalues below ``pinv_tol`` times the largest dropped, and keeping
    fewer than the tangent dimension ``|cols| (1 + sum(p_k - 1))`` is flagged.
    When a Cholesky factorization certifies every eigenvalue of the tangent
    part above ``pinv_tol`` times the trace, none is dropped, and the system,
    with the null directions filled in, is solved directly instead, with one
    step of iterative refinement on the residual of the design.  Every
    ``h_k`` is re-projected onto the complement of its ``u_k``.  Returns the
    cores and one ``p_k x |cols|`` direction matrix per mode.
    """
    us = [u[:, cols] for u in factors]
    n, b = rhs.size, us[0].shape[1]
    # unknowns: the cores, then mode by mode h_k as a p_k x b matrix in C order
    core = np.einsum("mai,ai->mi", vs[0][:, :, cols], us[0])
    design = np.concatenate([core] + [v[:, :, cols].reshape(n, -1) for v in vs], axis=1)
    ends = np.cumsum([b] + [u.size for u in us])
    # orthonormal columns, one per mode and point: its u_k in the place of its h_k
    null = np.zeros((ends[-1], len(us) * b))
    points = np.arange(b)
    for k, (u, lo) in enumerate(zip(us, ends[:-1])):
        null[lo + b * np.arange(u.shape[0])[:, None] + points, k * b + points] = u
    # v - (v . u) u^T for every h_k column block v, by two thin products
    design -= (design @ null) @ null.T
    gram = design.T @ design
    jtr = design.T @ rhs
    df = ends[-1] - null.shape[1]
    scale = np.trace(gram)
    # the null directions get the mean tangent eigenvalue instead of 0
    filled = gram + (scale / df) * (null @ null.T)
    try:
        np.linalg.cholesky(filled - pinv_tol * scale * np.eye(ends[-1]))
        x = np.linalg.solve(filled, jtr)
        # refined once on the design's residual: the normal equations lose cond(design)^2
        x += np.linalg.solve(filled, design.T @ (rhs - design @ x))
    except np.linalg.LinAlgError:
        evals, evecs = np.linalg.eigh(gram)
        keep = evals > pinv_tol * max(evals[-1], 0.0)
        kept = int(np.count_nonzero(keep))
        if kept == 0:
            logger.warning("tangent normal system is numerically zero; returning zero update")
        elif kept < df:
            logger.warning("tangent normal system rank-deficient (%d/%d kept); "
                           "minimum-norm solution", kept, df)
        x = evecs[:, keep] @ ((evecs[:, keep].T @ jtr) / evals[keep])
    hs = [x[lo:hi].reshape(u.shape) for u, lo, hi in zip(us, ends[:-1], ends[1:])]
    return x[:b], [h - u * np.einsum("ai,ai->i", u, h) for u, h in zip(us, hs)]


def solve_tangent_ls(point: CPModel, op: MeasurementOp, rhs: np.ndarray,
                     pinv_tol: float = 1e-10) -> np.ndarray:
    """Least-squares fit of ``rhs`` over the tangent space at the rank-1 model ``point``.

    Returns the ambient tangent tensor minimizing ``||rhs - op(xi)||``: the
    one-point fit of :func:`_fit_tangent`, whose normal equations keep only
    eigenvalues above ``pinv_tol`` times the largest.  A rank-deficient
    system is flagged and the minimum-norm solution returned.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.shape != (op.output_dim,):
        raise ValueError(f"rhs length {rhs.shape} does not match operator output {op.output_dim}")
    if isinstance(op, IdentityOp):
        # P A*A P = P: the tangent projection solves the subproblem exactly.
        return project_tangent(point, rhs.reshape(op.shape))
    us = _point_factors(point)
    vs = batched_contract_all_but(op.designs, point.factors, range(len(us)))
    cores, hs = _fit_tangent(vs, slice(0, 1), point.factors, rhs, pinv_tol)
    return embed_tangent(float(cores[0]), us, [h[:, 0] for h in hs])


def _applied(vs: list[np.ndarray], factors0: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Row ``i`` is the operator image of component ``i``, read from the
    mode-0 contraction of :func:`batched_contract_all_but`."""
    return np.einsum("mai,ai->im", vs[0], factors0) * weights[:, None]


# A trial step is accepted when its residual norm is at most this factor
# times the starting one, and halved toward the start at most this often.
_ACCEPT_RISE = 1.0 + 1e-12
_MAX_HALVINGS = 5


def rgn_step(state: SolverState, problem: Problem, pinv_tol: float = 1e-10,
             gauss_seidel: bool = False) -> SolverState:
    """One Gauss-Newton step on the product of the components' manifolds.

    Fit phase: each block is fitted (:func:`_fit_tangent`) to the
    observations minus the images of the components outside it: under
    Jacobi, the one block of all components to the observations (the
    Gauss-Newton step); under ``gauss_seidel``, one component at a time,
    with the images of those before it taken at their retractions.  Step
    phase: the trial with core ``w + a (c - w)`` and directions ``a h_k`` is
    retracted from the start for ``a = 1, 1/2, ..., 2^-_MAX_HALVINGS``; the
    first whose residual norm does not rise is kept, else the start is kept
    and the stall rule of :func:`run` ends the run.  Each trial is one pass
    over the designs, which also yields the next step's contractions."""
    op = problem.op
    if isinstance(op, IdentityOp):
        # With full observations the Gauss-Newton step of a block coincides
        # with its unit gradient step; share the code so they match exactly.
        stepped = state
        for cols in _blocks(state.model.rank, gauss_seidel):
            stepped = rgd_step(stepped, problem, 1.0, cols)
        return SolverState(stepped.model, state.iteration + 1, stepped.residual)
    # One pass over the designs (or the contractions the previous step
    # carried over) yields every component's tangent design matrix, under
    # Gauss-Seidel too, since each depends only on its component's start.
    start = state.model
    d = len(start.shape)
    vs = state.contractions
    if vs is None:
        vs = batched_contract_all_but(op.designs, start.factors, range(d))
    # row-major, so every trial's factors are too: the design pass is faster on them
    cores, hs = np.empty_like(start.weights), [np.empty(u.shape) for u in start.factors]
    applied = _applied(vs, start.factors[0], start.weights) if gauss_seidel else None
    for cols in _blocks(start.rank, gauss_seidel):
        rhs = problem.y if applied is None else (
            problem.y - (applied.sum(axis=0) - applied[cols].sum(axis=0)))
        cores[cols], block_hs = _fit_tangent(vs, cols, start.factors, rhs, pinv_tol)
        for h, block_h in zip(hs, block_hs):
            h[:, cols] = block_h
        if cols.stop < start.rank:
            # Gauss-Seidel: the later components see this one's retraction
            new = _retract(cores[cols], [u[:, cols] for u in start.factors], block_hs, cols.start)
            applied[cols] = op.apply(new.embed())
    bound = _ACCEPT_RISE * np.linalg.norm(state.residual)
    for a in 0.5 ** np.arange(_MAX_HALVINGS + 1):
        model = _retract(cores if a == 1 else start.weights + a * (cores - start.weights),
                         start.factors, [a * h for h in hs])
        # one pass at the trial factors gives its residual and the next
        # iteration's design matrices
        trial = batched_contract_all_but(op.designs, model.factors, range(d))
        residual = problem.y - _applied(trial, model.factors[0], model.weights).sum(axis=0)
        if np.linalg.norm(residual) <= bound:
            return SolverState(model, state.iteration + 1, residual, trial)
    return SolverState(start, state.iteration + 1, state.residual, vs)


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


def _check_finite(iteration: int, residual: float) -> None:
    """A non-finite residual norm ends the run with a :class:`SolverError`."""
    if not math.isfinite(residual):
        raise SolverError(f"residual norm is {residual} at iteration {iteration}; "
                          "the iteration diverged")


# The most rows a run keeps unscored, all scored in one batched pass.  The
# kept models and the pass's working memory grow with it (about 15 KB per
# row at 30^3 and rank 3); the pass's cost per row stops falling at about 32.
_SCORED_ROWS = 32


def _score_rows(trace: ConvergenceTrace, models: list[CPModel],
                rows: list[tuple[int, float, float]], truth: CPModel | None) -> None:
    """Append one record per ``(iteration, residual norm, wall_ms)`` row to
    ``trace``, its model of ``models`` scored against ``truth`` (NaN errors
    without one), all in one batched pass; then empty both lists."""
    if truth is None:
        errors = [(math.nan, math.nan)] * len(rows)
    else:
        rel, max_err, _, _ = _align_batch(models, truth)
        errors = zip(rel.tolist(), max_err.tolist())
    trace.records.extend(TraceRecord(i, *err, res, ms) for (i, res, ms), err in zip(rows, errors))
    models.clear()
    rows.clear()


def run(problem: Problem, config: SolverConfig, init: CPModel) -> tuple[CPModel, ConvergenceTrace]:
    """Iterate the configured solver from ``init`` until ``max_iters`` or the
    relative residual change drops below ``stop_tol``.  Raises
    :class:`SolverError`, carrying the trace so far, if an update degenerates
    or the residual norm stops being finite.  The trace is scored against
    ``problem.truth`` in batched passes: each time ``_SCORED_ROWS`` rows
    are waiting, and once more when the loop ends or before the error
    leaves."""
    from .als import als_step  # als imports this module

    if init.rank != problem.rank:
        raise ValueError(f"init rank {init.rank} does not match problem rank {problem.rank}")
    if init.shape != problem.op.shape:
        raise ValueError(f"init shape {init.shape} does not match operator shape {problem.op.shape}")
    state = SolverState.initial(problem, init)
    prev_res = float(np.linalg.norm(state.residual))
    trace = ConvergenceTrace()
    # the model and (iteration, residual norm, wall_ms) of each row not yet scored
    models, rows = [init], [(0, prev_res, 0.0)]
    try:
        _check_finite(0, prev_res)
        for _ in range(config.max_iters):
            tic = time.perf_counter()
            if config.method == "rgd":
                state = rgd_step(state, problem, config.step_size)
            elif config.method == "rgn":
                state = rgn_step(state, problem, config.pinv_tol, config.gauss_seidel)
            else:
                state = als_step(state, problem)
            wall_ms = (time.perf_counter() - tic) * 1e3
            res = float(np.linalg.norm(state.residual))
            if len(rows) == _SCORED_ROWS:
                _score_rows(trace, models, rows, problem.truth)
            models.append(state.model)
            rows.append((state.iteration, res, wall_ms))
            _check_finite(state.iteration, res)
            if res == 0.0 or abs(res - prev_res) < config.stop_tol * max(prev_res, 1e-300):
                break
            prev_res = res
    except SolverError as exc:
        _score_rows(trace, models, rows, problem.truth)
        exc.trace = trace
        raise
    _score_rows(trace, models, rows, problem.truth)
    return state.model, trace
