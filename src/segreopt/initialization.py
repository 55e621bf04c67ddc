"""Initialization strategies: random unit-sphere starts (optionally refined
by greedy deflation), composite-PCA spectral starts, and the regression warm
start built on the operator adjoint.

Each start fills a weight vector and one factor matrix per mode and makes
one :meth:`~segreopt.manifold.CPModel.from_factors` call.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .manifold import (
    CPModel,
    DegenerateInputError,
    _sign_fix,
    leading_singular_vector,
    retract_thosvd,
)
from .operators import GaussianDesignOp
from .rng import substream
from .solvers import _check_field_types, _check_observations
from .tensor import check_tensor, contract_all_modes, fro_norm, outer_rank_one, unfold

logger = logging.getLogger(__name__)

INIT_METHODS = ("random", "cpca", "adjoint-cpca")


@dataclass(frozen=True)
class InitSpec:
    """How to build the starting model.

    ``cpca_split`` optionally pins the mode subset used by the balanced
    unfolding; ``None`` selects it automatically.  ``refine_sweeps`` applies
    that many greedy rank-one deflation passes after a random draw (full
    observations only); see :func:`refine_by_deflation`.
    """

    method: str = "random"  # one of INIT_METHODS
    seed: int = 0
    cpca_split: tuple[int, ...] | None = None
    refine_sweeps: int = 0

    def __post_init__(self):
        _check_field_types(self)
        if self.method not in INIT_METHODS:
            raise ValueError(f"unknown init method {self.method!r}")
        if self.refine_sweeps < 0:
            raise ValueError("refine_sweeps must be >= 0")


def choose_split(shape: tuple[int, ...]) -> tuple[int, ...]:
    """Mode subset for the balanced unfolding.

    Among nonempty proper subsets ``S`` whose row-dimension dominates
    (``p_S >= p*/p_S``), maximize ``min(p_S, p*/p_S)``; break ties by the
    smallest subset, then lexicographically.
    """
    d = len(shape)
    p_star = int(np.prod(shape, dtype=np.int64))
    best: tuple[int, ...] | None = None
    best_key = None
    for size in range(1, d):
        for s in combinations(range(d), size):
            p_s = int(np.prod([shape[l] for l in s], dtype=np.int64))
            p_c = p_star // p_s
            if p_s < p_c:
                continue
            key = (-min(p_s, p_c), len(s), s)
            if best_key is None or key < best_key:
                best_key = key
                best = s
    assert best is not None
    return best


def unfolding_split(shape: tuple[int, ...], r: int,
                    split: tuple[int, ...] | None = None) -> tuple[int, ...]:
    """The row modes of a rank-``r`` spectral start's unfolding (``split``
    sorted, or :func:`choose_split`), checked to leave ``r`` rows and columns."""
    d = len(shape)
    split = choose_split(shape) if split is None else tuple(sorted(int(l) for l in split))
    if not split or len(set(split)) < len(split) or not set(split) < set(range(d)):
        raise ValueError(f"cpca_split {split} must be a nonempty proper subset of modes 0..{d - 1}")
    rows = math.prod(shape[l] for l in split)
    bound = (rows, math.prod(shape) // rows)
    if r > min(bound):
        raise ValueError(f"rank {r} exceeds the {bound} unfolding bound")
    return split


def _multi_unfold(t: np.ndarray, split: tuple[int, ...]) -> np.ndarray:
    """Matricization with the modes in ``split`` grouped as rows (both index
    groups enumerated in the C-order convention of :mod:`segreopt.tensor`)."""
    d = t.ndim
    rest = tuple(l for l in range(d) if l not in split)
    perm = tuple(split) + rest
    p_s = int(np.prod([t.shape[l] for l in split], dtype=np.int64))
    return np.transpose(t, perm).reshape(p_s, -1)


def _extract_mode_vectors(vec: np.ndarray, dims: tuple[int, ...]) -> list[np.ndarray]:
    """Leading per-mode singular vectors of ``vec`` refolded to ``dims``."""
    if len(dims) == 1:
        return [_sign_fix(vec / np.linalg.norm(vec))]
    sub = vec.reshape(dims)
    return [leading_singular_vector(unfold(sub, k)) for k in range(len(dims))]


def cpca(t: np.ndarray, r: int, split: tuple[int, ...] | None = None) -> CPModel:
    """Composite-PCA spectral estimate of ``r`` rank-one components.

    Unfolds ``t`` along a balanced mode split, takes the top-``r`` SVD, and
    extracts each mode's factor as the leading singular vector of the refolded
    singular vectors.  Component weights are the projections
    ``<t, u_0 ⊗ ... ⊗ u_{d-1}>`` (their magnitudes track the unfolding's
    singular values; the sign parity of the extracted factors is absorbed).
    Components are ordered by descending absolute weight.
    """
    t = check_tensor(t)
    if not np.all(np.isfinite(t)):
        raise DegenerateInputError("cannot run spectral initialization on a non-finite tensor")
    if fro_norm(t) == 0.0:
        raise DegenerateInputError("cannot run spectral initialization on the zero tensor")
    d = t.ndim
    split = unfolding_split(t.shape, r, split)
    rest = tuple(l for l in range(d) if l not in split)
    mat = _multi_unfold(t, split)
    left, _, right_t = np.linalg.svd(mat, full_matrices=False)
    dims_s = tuple(t.shape[l] for l in split)
    dims_c = tuple(t.shape[l] for l in rest)
    comps = []
    for j in range(r):
        by_mode = dict(zip(split, _extract_mode_vectors(left[:, j], dims_s)))
        by_mode.update(zip(rest, _extract_mode_vectors(right_t[j, :], dims_c)))
        comps.append([by_mode[l] for l in range(d)])
    weights = np.array([contract_all_modes(t, us) for us in comps])
    if (weights == 0.0).any():
        j = int(np.argmax(weights == 0.0))
        raise DegenerateInputError(f"spectral component {j} has zero projection weight")
    order = np.argsort(-np.abs(weights), kind="stable")
    return CPModel.from_factors(weights[order], [np.column_stack(us)[:, order] for us in zip(*comps)])


def random_model(y: np.ndarray, r: int, rng: np.random.Generator) -> CPModel:
    """Factors i.i.d. uniform on each unit sphere; weights set by projecting
    ``y`` onto each random rank-one direction."""
    y = check_tensor(y)
    # drawn component by component, each mode in turn
    comps = [[u / np.linalg.norm(u) for u in (rng.standard_normal(p) for p in y.shape)]
             for _ in range(r)]
    weights = np.array([contract_all_modes(y, us) for us in comps])
    if (weights == 0.0).any():
        raise DegenerateInputError("random direction has zero projection weight")
    return CPModel.from_factors(weights, [np.column_stack(us) for us in zip(*comps)])


def refine_by_deflation(y: np.ndarray, model: CPModel, sweeps: int = 1) -> CPModel:
    """Greedy rank-one deflation passes over a starting model.

    Each pass replaces component ``i`` by the best rank-one fit (via the
    rank-one truncated multilinear SVD) of the residual with every other
    component subtracted, updating the running sum as it goes.  Independent
    random starts frequently place two components in the attraction basin of
    the same dominant structure; one pass assigns each component a distinct
    basin, after which the manifold iterations contract locally.  A component
    whose deflated residual degenerates is left unchanged; a residual whose
    norm overflows raises :class:`DegenerateInputError`.
    """
    weights, factors = model.weights.copy(), [u.copy() for u in model.factors]
    embeds = [outer_rank_one(w, [u[:, i] for u in factors]) for i, w in enumerate(weights)]
    total = np.sum(embeds, axis=0)
    for _ in range(sweeps):
        for i in range(model.rank):
            rhs = y - (total - embeds[i])
            try:
                new = retract_thosvd(rhs)
            except DegenerateInputError:
                if not math.isfinite(fro_norm(rhs)):
                    raise  # overflow, not a degenerate residual
                logger.warning("deflation pass left component %d unchanged (degenerate residual)", i)
                continue
            weights[i] = new.weights[0]
            for u, v in zip(factors, new.factors):
                u[:, i] = v[:, 0]
            new_embed = new.embed()
            total += new_embed - embeds[i]
            embeds[i] = new_embed
    return CPModel.from_factors(weights, factors)


def init_decomposition(y: np.ndarray, r: int, spec: InitSpec) -> CPModel:
    """Starting model for full-observation problems."""
    if spec.method == "random":
        model = random_model(y, r, substream(spec.seed, "init"))
        if spec.refine_sweeps:
            model = refine_by_deflation(y, model, spec.refine_sweeps)
        return model
    if spec.method == "cpca":
        return cpca(y, r, spec.cpca_split)
    raise ValueError(f"init method {spec.method!r} needs a design operator")


def init_regression(op: GaussianDesignOp, y: np.ndarray, r: int,
                    split: tuple[int, ...] | None = None) -> CPModel:
    """Warm start for regression: spectral estimate of the adjoint
    ``sum_m y_m X̃_m`` of the (rescaled) observations."""
    if not isinstance(op, GaussianDesignOp):
        raise ValueError("regression initialization needs a Gaussian design operator")
    y = np.asarray(y, dtype=np.float64)
    _check_observations(y)
    adjoint = op.adjoint(y)
    if not np.all(np.isfinite(adjoint)):
        raise ValueError("design tensors contain non-finite values")
    return cpca(adjoint, r, split)
