"""Dense reference implementations, built only from materialized tensors.

These are the textbook forms of kernels the library computes in factored
form; the tests use them as oracles, next to a few shared model builders.
Nothing in ``src/`` imports them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from segreopt.manifold import CPModel, embed_tangent, retract_thosvd, tangent_basis
from segreopt.tensor import fro_norm


def point(weight, vectors) -> CPModel:
    """The rank-one tensor ``weight * v_0 ⊗ ... ⊗ v_{d-1}`` of unit vectors, as a rank-1 model."""
    return CPModel.from_factors([weight], [np.asarray(v)[:, None] for v in vectors])


def unit_columns(m: np.ndarray) -> np.ndarray:
    """``m`` with every column scaled to unit norm."""
    return m / np.linalg.norm(m, axis=0)


def orthogonal_model(rng: np.random.Generator, shape, r: int, weights) -> CPModel:
    """A model whose mode-``k`` factors are the first ``r`` columns of the Q
    factor of a ``p_k x p_k`` standard normal draw from ``rng``."""
    mats = []
    for p in shape:
        q, _ = np.linalg.qr(rng.standard_normal((p, p)))
        mats.append(q[:, :r])
    return CPModel.from_factors(weights, mats)


def columns(model: CPModel) -> list[CPModel]:
    """The components of ``model``, each as a rank-1 model."""
    return [point(w, [u[:, i] for u in model.factors]) for i, w in enumerate(model.weights)]


def stack(points) -> CPModel:
    """The model whose components are the rank-1 models ``points``, in order."""
    points = list(points)
    return CPModel.from_factors(np.concatenate([p.weights for p in points]),
                                [np.hstack(mats) for mats in zip(*(p.factors for p in points))])


def refold(m: np.ndarray, mode: int, shape: tuple[int, ...]) -> np.ndarray:
    """Inverse of :func:`segreopt.tensor.unfold` for a tensor of the given shape."""
    shape = tuple(shape)
    if not 0 <= mode < len(shape):
        raise ValueError(f"mode {mode} out of range for shape {shape}")
    rest = shape[:mode] + shape[mode + 1 :]
    m = np.asarray(m)
    if m.shape != (shape[mode], int(np.prod(rest, dtype=np.int64))):
        raise ValueError(f"matrix shape {m.shape} does not match unfolding of {shape}")
    return np.moveaxis(m.reshape((shape[mode],) + rest), 0, mode)


def contract_all_but(t: np.ndarray, vectors: list[np.ndarray] | tuple[np.ndarray, ...], keep: int) -> np.ndarray:
    """Contract every mode except ``keep`` with the matching vector.

    Returns the length-``p_keep`` vector ``t x_{l != keep} v_l^T``.
    """
    out = np.asarray(t)
    for l in range(len(vectors) - 1, -1, -1):
        if l == keep:
            continue
        out = np.tensordot(out, vectors[l], axes=([l], [0]))
    return out


def retract_columns(weights, factors, directions) -> list[CPModel]:
    """Per column ``i``: ``retract_thosvd`` of the dense tangent tensor
    ``w_i u_0 ⊗ ... ⊗ u_{d-1} + sum_k (u_0, ..., h_k, ..., u_{d-1})``."""
    return [retract_thosvd(embed_tangent(float(w), tuple(u[:, i] for u in factors),
                                         [h[:, i] for h in directions]))
            for i, w in enumerate(weights)]


def joint_tangent_fit(model: CPModel, designs: np.ndarray, rhs: np.ndarray) -> list[np.ndarray]:
    """Least-squares fit of ``rhs`` over the sum of the tangent spaces of every
    component of ``model``, observed through the inner products with
    ``designs``: ``lstsq`` on the stacked dense ``tangent_basis`` of all
    components (minimum-norm when they overlap).  Returns one ambient
    tangent tensor per component."""
    bases = [tangent_basis(c).vectors for c in columns(model)]
    flat = np.concatenate([v.reshape(len(v), -1) for v in bases])
    n = designs.shape[0]
    coords = np.linalg.lstsq(designs.reshape(n, -1) @ flat.T, rhs, rcond=None)[0]
    ends = np.cumsum([0] + [len(v) for v in bases])
    return [np.tensordot(coords[lo:hi], v, axes=1)
            for v, lo, hi in zip(bases, ends[:-1], ends[1:])]


def _factor_inner(a: CPModel, b: CPModel) -> float:
    """``<embed(a), embed(b)>`` of two rank-1 models via the factorization identity."""
    out = float(a.weights[0] * b.weights[0])
    for ua, ub in zip(a.factors, b.factors):
        out *= float(ua[:, 0] @ ub[:, 0])
    return out


@dataclass(frozen=True)
class DenseErrorReport:
    """The fields of :class:`segreopt.manifold.ErrorReport`, with the aligned
    model built here rather than by the library's lazy property."""

    max_component_error: float
    rel_frobenius_error: float
    permutation: tuple[int, ...]
    sign_flips: tuple[int, ...]
    aligned: CPModel


def align_and_error(estimate: CPModel, truth: CPModel) -> DenseErrorReport:
    """Greedily match estimate components to truth components and report errors.

    Matching maximizes the absolute normalized inner product of embedded
    components (without replacement; ties broken by lowest index pair).
    Matched estimates get their weight sign flipped so each pairs
    nonnegatively with its truth component.  Reported errors:
    ``max_i ||E_i - T_i|| / |lam_i|`` over matched pairs, and the relative
    Frobenius error of the summed aligned estimate.
    """
    if estimate.rank != truth.rank:
        raise ValueError(f"rank mismatch: {estimate.rank} vs {truth.rank}")
    if estimate.shape != truth.shape:
        raise ValueError(f"shape mismatch: {estimate.shape} vs {truth.shape}")
    r = estimate.rank
    ests, truths = columns(estimate), columns(truth)
    corr = np.empty((r, r))
    for i, e in enumerate(ests):
        for j, t in enumerate(truths):
            corr[i, j] = abs(_factor_inner(e, t)) / abs(e.weights[0] * t.weights[0])
    perm = [-1] * r
    scratch = corr.copy()
    for _ in range(r):
        i, j = np.unravel_index(int(np.argmax(scratch)), scratch.shape)
        perm[j] = int(i)
        scratch[i, :] = -1.0
        scratch[:, j] = -1.0

    flips = [-1 if _factor_inner(ests[perm[j]], t) < 0 else 1 for j, t in enumerate(truths)]
    # the estimate's columns in truth order, weights sign-flipped
    aligned_model = CPModel._of(estimate.weights[perm] * flips,
                                [u[:, perm] for u in estimate.factors])

    max_err = 0.0
    total_diff = np.zeros(truth.shape)
    total_truth = np.zeros(truth.shape)
    for e, t in zip(columns(aligned_model), truths):
        et = t.embed()
        diff = e.embed() - et
        max_err = max(max_err, fro_norm(diff) / abs(t.weights[0]))
        total_diff += diff
        total_truth += et
    rel = fro_norm(total_diff) / fro_norm(total_truth)
    return DenseErrorReport(
        max_component_error=max_err,
        rel_frobenius_error=rel,
        permutation=tuple(perm),
        sign_flips=tuple(flips),
        aligned=aligned_model,
    )


def als_regression_sweep(designs: np.ndarray, y: np.ndarray,
                         factors: list[np.ndarray] | tuple[np.ndarray, ...]
                         ) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """One textbook CP-ALS sweep of ``min ||y - A(sum_i w_i u_0i ⊗ ... ⊗ u_{d-1,i})||``
    over the modes in order.  Mode ``k``'s coefficient column ``j * r + i``
    holds every design's inner product with the dense rank-one tensor whose
    mode-``k`` factor is the unit vector ``e_j`` and whose other factors are
    the current columns ``i``; its least-squares solution, read as a
    ``p_k x r`` matrix, is the new mode-``k`` factor matrix with the weights
    folded in.  Returns the weights, the unit-column factors and the residual
    of the last solve."""
    n = designs.shape[0]
    flat = designs.reshape(n, -1)
    factors = [np.array(u, dtype=np.float64) for u in factors]
    r = factors[0].shape[1]
    for k, p in enumerate(designs.shape[1:]):
        cols = []
        for j in range(p):
            for i in range(r):
                vecs = [np.eye(p)[j] if l == k else u[:, i] for l, u in enumerate(factors)]
                cols.append(reduce(np.multiply.outer, vecs).ravel())
        coeff = flat @ np.column_stack(cols)
        sol = np.linalg.lstsq(coeff, y, rcond=None)[0]
        weights = np.linalg.norm(sol.reshape(p, r), axis=0)
        factors[k] = sol.reshape(p, r) / weights
    return weights, factors, y - coeff @ sol
