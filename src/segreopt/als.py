"""Plain alternating least squares baselines for decomposition and regression.

Each sweep solves the exact block least-squares problem for one factor matrix
while the others stay fixed, then renormalizes columns and folds the scales
into the component weights so the model invariants hold continuously.
"""

from __future__ import annotations

import logging
import time

import numpy as np

from .manifold import CPModel
from .operators import GaussianDesignOp
from .solvers import ConvergenceTrace, SolverError, _check_observations, _record
from .tensor import batched_contract_all_but, check_tensor, fro_norm, khatri_rao, unfold

logger = logging.getLogger(__name__)


def _renormalize(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a solved scaled factor block into unit columns and weights."""
    norms = np.linalg.norm(w, axis=0)
    if np.any(norms == 0.0):
        dead = int(np.argmin(norms))
        raise SolverError(f"ALS solve annihilated component {dead}", component=dead)
    return w / norms, norms


def _solve_psd(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a small PSD system, falling back to pseudo-inverse when singular."""
    try:
        return np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        logger.warning("singular ALS normal matrix; using pseudo-inverse")
        return np.linalg.pinv(gram) @ rhs


def _check_iters(iters: int) -> None:
    if iters < 0:
        raise ValueError(f"iters must be >= 0, got {iters}")


def cp_als_decompose(y: np.ndarray, r: int, init: CPModel, iters: int,
                     truth: CPModel | None = None) -> tuple[CPModel, ConvergenceTrace]:
    """ALS for the full-observation problem ``min ||y - sum_i T_i||``.

    Raises :class:`SolverError`, carrying the trace so far, if a solve
    annihilates a component or the residual norm stops being finite."""
    y = check_tensor(y)
    _check_observations(y)
    _check_iters(iters)
    if init.rank != r or init.shape != y.shape:
        raise ValueError("init does not match the requested rank/shape")
    d = y.ndim
    weights = init.weights.copy()
    factors = [init.factor_matrix(l) for l in range(d)]
    trace = ConvergenceTrace()

    def model() -> CPModel:
        return CPModel.from_factors(weights, factors)

    try:
        m = model()
        _record(trace, 0, m, truth, fro_norm(y - m.embed()), 0.0)
        for sweep in range(iters):
            tic = time.perf_counter()
            for k in range(d):
                others = [factors[l] for l in range(d) if l != k]
                kr = khatri_rao(others)
                gram = np.ones((r, r))
                for l in range(d):
                    if l != k:
                        gram *= factors[l].T @ factors[l]
                # weights folded into mode k for the solve
                w = _solve_psd(gram, (unfold(y, k) @ kr).T).T
                factors[k], weights = _renormalize(w)
            wall_ms = (time.perf_counter() - tic) * 1e3
            m = model()
            _record(trace, sweep + 1, m, truth, fro_norm(y - m.embed()), wall_ms)
    except SolverError as exc:
        exc.trace = trace
        raise
    return model(), trace


def cp_als_regress(op: GaussianDesignOp, y: np.ndarray, r: int, init: CPModel,
                   iters: int, truth: CPModel | None = None) -> tuple[CPModel, ConvergenceTrace]:
    """ALS adapted to the regression loss: each mode update solves the normal
    equations of the design rewritten as linear in that mode's scaled factors.
    Fails like :func:`cp_als_decompose`."""
    if init.rank != r or init.shape != op.shape:
        raise ValueError("init does not match the requested rank/shape")
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (op.output_dim,):
        raise ValueError("observation length does not match the operator")
    _check_observations(y)
    _check_iters(iters)
    d = len(op.shape)
    n = op.output_dim
    weights = init.weights.copy()
    factors = [init.factor_matrix(l) for l in range(d)]
    trace = ConvergenceTrace()

    def model() -> CPModel:
        return CPModel.from_factors(weights, factors)

    try:
        m = model()
        _record(trace, 0, m, truth, float(np.linalg.norm(y - op.apply(m.embed()))), 0.0)
        for sweep in range(iters):
            tic = time.perf_counter()
            for k in range(d):
                # coefficient block: design m, column i holds X_m contracted with
                # the other modes' factors of component i
                (coeff,) = batched_contract_all_but(op.designs, factors, (k,))
                flat = coeff.reshape(n, -1)
                sol = _solve_psd(flat.T @ flat, flat.T @ y)
                factors[k], weights = _renormalize(sol.reshape(op.shape[k], r))
            # the last block solve's fit is the model's image under the operator
            residual = float(np.linalg.norm(y - flat @ sol))
            wall_ms = (time.perf_counter() - tic) * 1e3
            _record(trace, sweep + 1, model(), truth, residual, wall_ms)
    except SolverError as exc:
        exc.trace = trace
        raise
    return model(), trace
