"""Dense reference implementations, built only from materialized tensors.

These are the textbook forms of kernels the library computes in factored
form; the tests use them as oracles.  Nothing in ``src/`` imports them.
"""

from __future__ import annotations

import numpy as np

from segreopt.manifold import CPModel, ErrorReport, SegrePoint, embed_tangent, retract_thosvd
from segreopt.tensor import fro_norm


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


def retract_columns(weights, factors, directions) -> list[SegrePoint]:
    """Per column ``i``: ``retract_thosvd`` of the dense tangent tensor
    ``w_i u_0 ⊗ ... ⊗ u_{d-1} + sum_k (u_0, ..., h_k, ..., u_{d-1})``."""
    return [retract_thosvd(embed_tangent(float(w), tuple(u[:, i] for u in factors),
                                         [h[:, i] for h in directions]))
            for i, w in enumerate(weights)]


def _factor_inner(a: SegrePoint, b: SegrePoint) -> float:
    """``<embed(a), embed(b)>`` via the factorization identity."""
    out = a.weight * b.weight
    for ua, ub in zip(a.factors, b.factors):
        out *= float(np.dot(ua, ub))
    return out


def align_and_error(estimate: CPModel, truth: CPModel) -> ErrorReport:
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
    corr = np.empty((r, r))
    for i, e in enumerate(estimate.components):
        for j, t in enumerate(truth.components):
            corr[i, j] = abs(_factor_inner(e, t)) / (abs(e.weight) * abs(t.weight))
    perm = [-1] * r
    scratch = corr.copy()
    for _ in range(r):
        i, j = np.unravel_index(int(np.argmax(scratch)), scratch.shape)
        perm[j] = int(i)
        scratch[i, :] = -1.0
        scratch[:, j] = -1.0

    aligned = []
    flips = []
    for j, t in enumerate(truth.components):
        e = estimate.components[perm[j]]
        s = -1 if _factor_inner(e, t) < 0 else 1
        flips.append(s)
        aligned.append(e if s == 1 else SegrePoint(-e.weight, e.factors))
    aligned_model = CPModel(tuple(aligned))

    max_err = 0.0
    total_diff = np.zeros(truth.shape)
    total_truth = np.zeros(truth.shape)
    for e, t in zip(aligned_model.components, truth.components):
        et = t.embed()
        diff = e.embed() - et
        max_err = max(max_err, fro_norm(diff) / abs(t.weight))
        total_diff += diff
        total_truth += et
    rel = fro_norm(total_diff) / fro_norm(total_truth)
    return ErrorReport(
        max_component_error=max_err,
        rel_frobenius_error=rel,
        permutation=tuple(perm),
        sign_flips=tuple(flips),
        aligned=aligned_model,
    )
