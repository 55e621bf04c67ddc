"""Plain alternating least squares baselines for decomposition and regression.

:func:`als_step` is one sweep: it solves the exact block least-squares
problem for one factor matrix while the others stay fixed, then renormalizes
columns and folds the scales into the component weights so the model
invariants hold continuously.  :func:`solvers.run` iterates it like the
manifold steps, with the same stall rule, divergence guard and trace.

A regression sweep reads the design stack twice for any order: once for
mode 0's coefficient block (one :func:`batched_contract_all_but` pass), and
once for the head ``U_0^T x_0 X`` of every design under the new ``U_0``
(:func:`design_head`), off which every later mode's block is contracted
(:func:`contract_head`) with the factors as the sweep has left them.  The
head stays in memory for the sweep; it is ``r / p_0`` the size of the stack.
This is the dimension-tree reuse of partial MTTKRP products (Phan,
Tichavsky & Cichocki 2013; Kaya & Ucar 2018).  Each block comes from the
kernel's own two stages, so it equals the block of a kernel pass bit for bit.
"""

from __future__ import annotations

import logging

import numpy as np

from .manifold import CPModel
from .operators import GaussianDesignOp, IdentityOp
from .solvers import ConvergenceTrace, Problem, SolverConfig, SolverError, SolverState, _residual, run
from .tensor import batched_contract_all_but, check_tensor, contract_head, design_head, khatri_rao, unfold

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


def als_step(state: SolverState, problem: Problem) -> SolverState:
    """One ALS sweep over the modes in order, each solve using the factors
    the earlier modes of this sweep produced.  Raises :class:`SolverError`
    if a solve annihilates a component.

    With full observations, mode ``k`` solves against the Hadamard product
    of the other modes' Grams.  With a design operator, mode ``k``'s
    unknowns are its scaled factors, whose design matrix is mode 0's kernel
    pass or, for later modes, read off the shared head (see the module
    docstring); the last solve's fit is then the new model's image under the
    operator, which gives the residual.  A mode with fewer observations than
    unknowns (``n < p_k r``) has a singular Gram: it gets the minimum-norm
    least-squares solution, and the first sweep of a run logs a warning."""
    op, y, model = problem.op, problem.y, state.model
    d, r = len(model.shape), model.rank
    factors = list(model.factors)
    if isinstance(op, IdentityOp):
        y_tensor = y.reshape(op.shape)
        for k in range(d):
            kr = khatri_rao([factors[l] for l in range(d) if l != k])
            gram = np.ones((r, r))
            for l in range(d):
                if l != k:
                    gram *= factors[l].T @ factors[l]
            # weights folded into mode k for the solve
            w = _solve_psd(gram, (unfold(y_tensor, k) @ kr).T).T
            factors[k], weights = _renormalize(w)
        model = CPModel.from_factors(weights, factors)
        return SolverState(model, state.iteration + 1, _residual(problem, model))
    n = op.output_dim
    under = [k for k in range(d) if n < op.shape[k] * r]
    if under and state.iteration == 0:
        logger.warning("ALS regression under-determined in modes %s (%d observations for "
                       "p_k * r unknowns); minimum-norm solutions", under, n)
    for k in range(d):
        # coefficient block: design m, column i holds X_m contracted with
        # the other modes' factors of component i
        if k == 0:
            (coeff,) = batched_contract_all_but(op.designs, factors, (0,))
        else:
            coeff = contract_head(head, factors, k)
        flat = coeff.reshape(n, -1)
        if k in under:
            # the Gram is singular, and solve() would return an arbitrary fit
            sol = np.linalg.lstsq(flat, y, rcond=None)[0]
        else:
            sol = _solve_psd(flat.T @ flat, flat.T @ y)
        factors[k], weights = _renormalize(sol.reshape(op.shape[k], r))
        if k == 0:
            head = design_head(op.designs, factors[0])
    return SolverState(CPModel.from_factors(weights, factors), state.iteration + 1,
                       y - flat @ sol)


def cp_als_decompose(y: np.ndarray, r: int, init: CPModel, iters: int,
                     truth: CPModel | None = None) -> tuple[CPModel, ConvergenceTrace]:
    """ALS for the full-observation problem ``min ||y - sum_i T_i||``: at most
    ``iters`` sweeps of :func:`als_step` under :func:`solvers.run`, which
    raises :class:`SolverError`, carrying the trace so far, if a solve
    annihilates a component or the residual norm stops being finite."""
    y = check_tensor(y)
    _check_iters(iters)
    problem = Problem(IdentityOp(y.shape), y.ravel(), r, truth)
    return run(problem, SolverConfig(method="als", max_iters=iters), init)


def cp_als_regress(op: GaussianDesignOp, y: np.ndarray, r: int, init: CPModel,
                   iters: int, truth: CPModel | None = None) -> tuple[CPModel, ConvergenceTrace]:
    """ALS adapted to the regression loss: each mode update solves the normal
    equations of the design rewritten as linear in that mode's scaled factors.
    Runs and fails like :func:`cp_als_decompose`."""
    _check_iters(iters)
    return run(Problem(op, y, r, truth), SolverConfig(method="als", max_iters=iters), init)
