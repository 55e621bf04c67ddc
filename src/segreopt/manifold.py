"""Geometry of the manifold of nonzero rank-one tensors (the Segre manifold).

A point of it is a rank-1 :class:`CPModel`, which the single-point functions
take or return; the solvers' factored forms work on every column at once.

Factor signs are arbitrary, except that the retractions and ``cpca`` make
each factor's largest-magnitude entry positive and absorb the sign parity
into the weight; generated truths, random starts and ALS sweeps do not.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .tensor import (
    check_tensor,
    contract_all_modes,
    fro_norm,
    khatri_rao,
    outer_rank_one,
    unfold,
)

logger = logging.getLogger(__name__)

_UNIT_TOL = 1e-6
_TIE_TOL = 1e-12


class DegenerateInputError(ValueError):
    """Raised when an operation receives an input it cannot represent
    (zero tensor to retract, zero weight, ...).  ``column`` is the index of
    the offending column when the operation works on several at once."""

    def __init__(self, message: str, column: int | None = None):
        super().__init__(message)
        self.column = column


@dataclass(frozen=True, init=False, eq=False)
class CPModel:
    """``r`` rank-one components of one shape in Kruskal form: ``weights`` ``(r,)``
    and ``factors``, one read-only ``p_k x r`` matrix of unit columns per mode.
    A single rank-one tensor, one point of the Segre manifold, is a rank-1
    model.  :meth:`from_factors` is the checked constructor."""

    weights: np.ndarray
    factors: tuple[np.ndarray, ...]

    @classmethod
    def _of(cls, weights: np.ndarray, factors: list[np.ndarray]) -> "CPModel":
        """A model over arrays known to pass :meth:`from_factors`, frozen in place."""
        for a in (weights, *factors):
            a.setflags(write=False)
        model = cls.__new__(cls)
        object.__setattr__(model, "weights", weights)
        object.__setattr__(model, "factors", tuple(factors))
        return model

    @classmethod
    def from_factors(cls, weights, factor_matrices) -> "CPModel":
        """Build from a weight vector and per-mode ``p_k x r`` factor matrices,
        copied and checked: every weight nonzero and finite, every column unit
        norm within 1e-6 and then renormalized to machine precision.  A bad
        weight or column raises :class:`DegenerateInputError` naming its column."""
        w = np.array(weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ValueError(f"weights must be a nonempty vector, got shape {w.shape}")
        bad = (w == 0) | ~np.isfinite(w)
        if bad.any():
            i = int(np.argmax(bad))
            raise DegenerateInputError(f"weight of column {i} must be nonzero and finite, "
                                       f"got {w[i]}", column=i)
        if len(factor_matrices) < 2:
            raise ValueError("need at least two modes")
        mats = [np.asarray(u, dtype=np.float64) for u in factor_matrices]
        for k, u in enumerate(mats):
            if u.ndim != 2:
                raise ValueError(f"mode {k} factor matrix must be 2-D, got shape {u.shape}")
            if u.shape[1] != w.size:
                raise ValueError(f"mode {k} factor matrix has {u.shape[1]} columns "
                                 f"for {w.size} weights")
        norms = np.sqrt([np.einsum("ai,ai->i", u, u) for u in mats])
        off = ~(np.abs(norms - 1.0) <= _UNIT_TOL)
        if off.any():
            k, i = np.argwhere(off)[0]
            raise DegenerateInputError(f"mode {k} column {i} is not unit norm "
                                       f"(||u|| = {norms[k, i]})", column=int(i))
        return cls._of(w, [u / n for u, n in zip(mats, norms)])

    @property
    def rank(self) -> int:
        return self.weights.size

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(u.shape[0] for u in self.factors)

    def embed(self) -> np.ndarray:
        """The dense sum of the components, as one product
        ``(U_0 diag(w)) khatri_rao(U_1, ..., U_{d-1})^T`` of the mode-0 unfolding."""
        kr = khatri_rao(list(self.factors[1:]))
        return ((self.factors[0] * self.weights) @ kr.T).reshape(self.shape)


def tangent_parts(x: np.ndarray, factors: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Factored projections of ``x`` onto the tangent spaces of several points.

    ``factors[k]`` is a ``p_k x r`` matrix whose column ``i`` is the mode-``k``
    factor of point ``i``.  Returns the ``r`` core coordinates ``c_i`` and one
    ``p_k x r`` direction matrix per mode, whose column ``i`` is ``h_{k,i}``
    (orthogonal to ``u_{k,i}``): the projection onto the tangent space at
    point ``i`` is ``c_i u_0 ⊗ ... ⊗ u_{d-1} + sum_k (u_0, ..., h_k, ...,
    u_{d-1})``.  One product ``unfold(x, k) @ khatri_rao(other modes)`` per
    mode serves every point.
    """
    d = x.ndim
    vs = [unfold(x, k) @ khatri_rao([factors[l] for l in range(d) if l != k]) for k in range(d)]
    cores = np.einsum("ai,ai->i", factors[0], vs[0])
    hs = [v - u * np.einsum("ai,ai->i", u, v) for u, v in zip(factors, vs)]
    return cores, hs


def embed_tangent(core: float, factors: tuple[np.ndarray, ...],
                  directions: list[np.ndarray]) -> np.ndarray:
    """The dense tensor ``core * u_0 ⊗ ... ⊗ u_{d-1} + sum_k (u_0, ..., h_k, ..., u_{d-1})``."""
    out = outer_rank_one(core, factors)
    for k, h in enumerate(directions):
        out += outer_rank_one(1.0, factors[:k] + (h,) + factors[k + 1 :])
    return out


def _point_factors(point: CPModel) -> tuple[np.ndarray, ...]:
    """The unit factor vectors of the rank-1 model ``point``; any other rank
    is a ``ValueError``."""
    if point.rank != 1:
        raise ValueError(f"need a rank-1 model (one rank-one tensor), got rank {point.rank}")
    return tuple(u[:, 0] for u in point.factors)


def project_tangent(point: CPModel, x: np.ndarray) -> np.ndarray:
    """Orthogonal projection of ``x`` onto the tangent space at the rank-1
    model ``point``.

    The tangent space of the rank-one manifold at ``u_0 ⊗ ... ⊗ u_{d-1}`` is
    spanned by the core direction (all factors) plus, per mode ``k``, the
    directions with ``u_k`` replaced by any vector orthogonal to it.  The
    projector applies ``P_l = u_l u_l^T`` in every mode for the core term and
    ``I - P_k`` in mode ``k`` (``P_l`` elsewhere) for the mode terms.
    """
    us = _point_factors(point)
    x = np.asarray(x)
    if x.shape != point.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs point shape {point.shape}")
    cores, hs = tangent_parts(x, point.factors)
    return embed_tangent(float(cores[0]), us, [h[:, 0] for h in hs])


def _complement_basis(u: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of the complement of the unit vector ``u``,
    as a ``p x (p-1)`` matrix."""
    q, _, _ = np.linalg.svd(u[:, None], full_matrices=True)
    return q[:, 1:]


@dataclass(frozen=True)
class TangentBasis:
    """Orthonormal ambient basis of the tangent space at the rank-1 model ``point``.

    ``vectors`` has shape ``(df,) + point.shape`` with ``df = 1 + sum(p_l - 1)``.
    Coordinate layout: index 0 is the core direction, followed by one block of
    ``p_k - 1`` entries per mode ``k`` in ascending mode order, each block in
    the column order of the deterministic complement basis of ``u_k``.
    """

    point: CPModel
    vectors: np.ndarray = field(repr=False)

    def __post_init__(self):
        _point_factors(self.point)

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]


def tangent_dim(shape: tuple[int, ...]) -> int:
    return 1 + sum(p - 1 for p in shape)


def tangent_basis(point: CPModel) -> TangentBasis:
    """Materialize the orthonormal tangent basis at the rank-1 model ``point``."""
    us = _point_factors(point)
    shape = point.shape
    df = tangent_dim(shape)
    vectors = np.empty((df,) + shape)
    vectors[0] = outer_rank_one(1.0, us)
    pos = 1
    for k, u in enumerate(us):
        comp = _complement_basis(u)
        for j in range(comp.shape[1]):
            fs = list(us)
            fs[k] = comp[:, j]
            vectors[pos] = outer_rank_one(1.0, fs)
            pos += 1
    return TangentBasis(point=point, vectors=vectors)


def _warn_if_tied(top, second, skip=False) -> None:
    """Log once per (near-)tied pair of leading eigenvalues, elementwise over
    arrays; pairs where ``skip`` holds are not checked."""
    tied = (top - second <= _TIE_TOL * np.maximum(top, 1e-300)) & ~np.asarray(skip)
    for _ in range(int(np.count_nonzero(tied))):
        logger.warning("leading singular value is (near-)tied; taking the lowest-index vector")


def _lead_signs(u: np.ndarray):
    """-1 where the largest-magnitude entry of a vector, or of each column
    of a matrix, is negative (first index on ties), else 1."""
    j = np.argmax(np.abs(u), axis=0)
    lead = u[j, np.arange(u.shape[1])] if u.ndim == 2 else u[j]
    return np.where(lead < 0, -1.0, 1.0)


def _sign_fix(u: np.ndarray) -> np.ndarray:
    """Flip so the largest-magnitude entry is positive (first index on ties)."""
    return u * _lead_signs(u)


def leading_singular_vector(m: np.ndarray) -> np.ndarray:
    """Sign-fixed leading left singular vector of a matrix."""
    gram = m @ m.T
    if not np.all(np.isfinite(gram)):
        raise DegenerateInputError("Gram matrix of the unfolding is not finite")
    evals, evecs = np.linalg.eigh(gram)
    if evals.size > 1:
        _warn_if_tied(evals[-1], evals[-2])
    return _sign_fix(evecs[:, -1])


def retract_thosvd(x: np.ndarray) -> CPModel:
    """Rank-one retraction, as a rank-1 model: per-mode leading singular vectors
    of the unfoldings, weight set by projecting ``x`` onto the resulting direction.

    For matrices (``d = 2``) this is the best rank-one approximation.
    """
    x = check_tensor(x)
    if fro_norm(x) == 0.0:
        raise DegenerateInputError("cannot retract the zero tensor")
    us = [leading_singular_vector(unfold(x, k)) for k in range(x.ndim)]
    lam = contract_all_modes(x, us)
    if lam == 0.0:
        raise DegenerateInputError("retraction produced a zero weight")
    return CPModel.from_factors([lam], [u[:, None] for u in us])


def retract_factored(weights: np.ndarray, factors: list[np.ndarray],
                     directions: list[np.ndarray]) -> CPModel:
    """:func:`retract_thosvd` of ``w_i u_0 ⊗ ... ⊗ u_{d-1} + sum_k (u_0, ...,
    h_k, ..., u_{d-1})`` for every column ``i``, without forming those tensors.

    ``weights`` holds one ``w_i`` per column; ``factors[k]`` is a ``p_k x r``
    matrix of unit columns ``u_k`` and ``directions[k]`` the matching
    ``p_k x r`` matrix of ``h_k``, each orthogonal to its ``u_k``.  In the
    basis ``(u_k, h_k / ||h_k||)`` the Gram matrix of the mode-``k``
    unfolding is ``[[w^2 + s_k, w ||h_k||], [w ||h_k||, ||h_k||^2]]`` with
    ``s_k = sum_{j != k} ||h_j||^2``, so each new factor is the sign-fixed
    leading eigenvector of that 2 x 2 matrix.  The new weight is the sum's
    projection onto the new factors: for new factors ``sigma_k (cos t_k u_k
    + sin t_k h_k / ||h_k||)``, with ``sigma_k = +-1`` from the sign fix, it
    is ``prod_k sigma_k (w prod_k cos t_k + sum_k ||h_k|| sin t_k prod_{j !=
    k} cos t_j)``.  A mode with ``h_k = 0`` keeps ``u_k``.  Every step is an
    array operation over all columns.  Raises :class:`DegenerateInputError`,
    naming the first bad column, for a zero input, a zero weight, a
    non-finite weight, or an ``h_k`` so far from orthogonal to ``u_k`` that
    the new factor is off the unit sphere by more than 1e-6.
    """
    w = np.asarray(weights, dtype=np.float64)
    sq = np.array([np.einsum("ai,ai->i", h, h) for h in directions])  # (d, r)
    norms = np.sqrt(sq)
    total = w * w + sq.sum(axis=0)  # trace of every mode's Gram matrix
    zero = total == 0.0
    half_gap = 0.5 * total - sq  # half the difference of the diagonal entries
    off = w * norms
    radius = np.hypot(half_gap, off)
    _warn_if_tied(0.5 * total + radius, 0.5 * total - radius, skip=zero)
    # the leading eigenvector of [[a, b], [b, c]] is (cos t, sin t) with
    # t = atan2(2b, a - c) / 2
    theta = 0.5 * np.arctan2(off, half_gap)
    cos, sin = np.cos(theta), np.sin(theta)
    us, signs = [], []
    for u, h, c, s in zip(factors, directions, cos, sin / np.where(norms > 0.0, norms, 1.0)):
        v = c * u + s * h
        signs.append(_lead_signs(v))
        us.append(v * signs[-1])
    # row k: the product of cos t_j over j != k
    others = np.prod(np.where(np.eye(len(us), dtype=bool)[:, :, None], 1.0, cos), axis=1)
    lam = np.prod(signs, axis=0) * (w * np.prod(cos, axis=0) + (norms * sin * others).sum(axis=0))
    bad = zero | (lam == 0.0) | ~np.isfinite(lam)
    if bad.any():
        i = int(np.argmax(bad))
        if zero[i]:
            reason = "cannot retract the zero tensor"
        elif lam[i] == 0.0:
            reason = "retraction produced a zero weight"
        else:
            reason = f"retraction produced a non-finite weight {lam[i]}"
        raise DegenerateInputError(f"column {i}: {reason}", column=i)
    return CPModel.from_factors(lam, us)


def incoherence(model: CPModel) -> tuple[list[float], float]:
    """Per-mode incoherence ``mu_l = p_l * max_{i != j} <u_{l,i}, u_{l,j}>^2``
    and the worst-mode root ``eta = max_l sqrt(mu_l / p_l)``.

    By convention a rank-one model has ``mu_l = 0`` and ``eta = 0``.
    """
    if model.rank < 2:
        return [0.0] * len(model.shape), 0.0
    mus = []
    eta = 0.0
    for l, p in enumerate(model.shape):
        gram = model.factors[l].T @ model.factors[l]
        off = np.abs(gram - np.diag(np.diag(gram))).max()
        mus.append(p * off**2)
        eta = max(eta, off)
    return mus, float(eta)


@dataclass(frozen=True)
class ErrorReport:
    """Result of matching an estimated model against a reference model:
    ``permutation[j]`` is the estimate component matched to truth component
    ``j``, and ``sign_flips[j]`` the sign its weight takes in ``aligned``."""

    max_component_error: float
    rel_frobenius_error: float
    permutation: tuple[int, ...]
    sign_flips: tuple[int, ...]
    estimate: CPModel = field(repr=False, compare=False)

    @cached_property
    def aligned(self) -> CPModel:
        """The matched estimate components in truth order, sign-flipped: the
        estimate's columns indexed by ``permutation``, its weights times
        ``sign_flips``.  Built on first access: a trace row reads only the two
        errors."""
        perm = list(self.permutation)
        return CPModel._of(self.estimate.weights[perm] * self.sign_flips,
                           [u[:, perm] for u in self.estimate.factors])


def align_and_error(estimate: CPModel, truth: CPModel) -> ErrorReport:
    """Greedily match estimate components to truth components and report errors.

    Matching maximizes the absolute normalized inner product of embedded
    components, ``|prod_k <u_k, x_k>|`` (without replacement; ties broken by
    lowest index pair).  Matched estimates get their weight sign flipped so
    each pairs nonnegatively with its truth component.  Reported errors:
    ``max_i ||E_i - T_i|| / |lam_i|`` over matched pairs, and the relative
    Frobenius error of the summed aligned estimate.  This is the batch of
    one of :func:`_align_batch`, which holds the method.
    """
    rel, max_err, perm, flips = _align_batch([estimate], truth)
    return ErrorReport(
        max_component_error=float(max_err[0]),
        rel_frobenius_error=float(rel[0]),
        permutation=tuple(perm[0].tolist()),
        sign_flips=tuple(flips[0].tolist()),
        estimate=estimate,
    )


def _align_batch(estimates: list[CPModel], truth: CPModel
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`align_and_error` of every model of ``estimates`` against
    ``truth``, in one pass of array operations over the ``n`` models: the
    relative Frobenius and maximum component errors ``(n,)``, the
    permutations ``(n, r)`` and the sign flips ``(n, r)``.

    No dense tensor is formed.  With the factor signs of each aligned
    ``E_i = a_i u_0 ⊗ ... ⊗ u_{d-1}`` chosen so that every ``<u_k, x_k> >= 0``
    (the signs absorbed into ``a_i``), the error against ``T_i = b_i x_0 ⊗
    ... ⊗ x_{d-1}`` is the sum of ``d + 1`` rank-one terms that shrink with
    it: ``(a_i - b_i) u_0 ⊗ ... ⊗ u_{d-1}`` and, per mode ``k``, ``b_i (x_0,
    ..., x_{k-1}, u_k - x_k, u_{k+1}, ..., u_{d-1})``.  Inner products of
    rank-one terms are products of per-mode factor inner products, so the
    Gram matrix of all ``r (d + 1)`` terms gives each ``||E_i - T_i||^2``
    (its diagonal blocks) and ``||sum_i (E_i - T_i)||^2`` (its sum), in
    ``O(r^2 d^2 sum_k p_k)`` per model.  Every product is a batched
    ``matmul``, and the greedy matching takes ``r`` rounds of one ``argmax``
    per model.
    """
    for estimate in estimates:
        if estimate.rank != truth.rank:
            raise ValueError(f"rank mismatch: {estimate.rank} vs {truth.rank}")
        if estimate.shape != truth.shape:
            raise ValueError(f"shape mismatch: {estimate.shape} vs {truth.shape}")
    r, d, n = truth.rank, len(truth.shape), len(estimates)
    xs, b = truth.factors, truth.weights
    models = np.arange(n)
    weights = np.stack([e.weights for e in estimates])  # (n, r)
    factors = [np.stack([e.factors[k] for e in estimates]) for k in range(d)]  # (n, p_k, r)
    grams = np.stack([np.matmul(u.transpose(0, 2, 1), x) for u, x in zip(factors, xs)])
    scratch = np.abs(np.prod(grams, axis=0))  # (n, r, r)
    perm = np.empty((n, r), dtype=np.intp)
    for _ in range(r):
        i, j = np.divmod(np.argmax(scratch.reshape(n, r * r), axis=1), r)
        perm[models, j] = i
        scratch[models, i, :] = -1.0
        scratch[models, :, j] = -1.0

    a = np.take_along_axis(weights, perm, axis=1)
    us = [np.take_along_axis(u, perm[:, None, :], axis=2) for u in factors]
    # <u_k, x_k> per mode, model and pair
    inner = grams[:, models[:, None], perm, np.arange(r)]
    flips = np.where(a * b * np.prod(inner, axis=0) < 0, -1, 1)
    signs = np.where(inner < 0, -1.0, 1.0)
    us = [u * s[:, None, :] for u, s in zip(us, signs)]
    a = a * flips * np.prod(signs, axis=0)

    # Gram matrices of the difference terms, ordered term-major: column
    # t * r + i is term t of pair i (t = 0 the weight term, t = k + 1 mode k's)
    coef = np.concatenate([a - b] + [np.broadcast_to(b, a.shape)] * d, axis=1)
    gram = coef[:, :, None] * coef[:, None, :]
    for k, (u, x) in enumerate(zip(us, xs)):
        x = np.broadcast_to(x, u.shape)
        f = np.concatenate([u] + [x if k < t else u - x if k == t else u for t in range(d)],
                           axis=2)
        gram *= np.matmul(f.transpose(0, 2, 1), f)
    comp_sq = np.einsum("nsiti->ni", gram.reshape(n, d + 1, r, d + 1, r))
    truth_sq = b @ np.prod([x.T @ x for x in xs], axis=0) @ b
    max_err = np.max(np.sqrt(np.maximum(comp_sq, 0.0)) / np.abs(b), axis=1)
    rel = np.sqrt(np.maximum(gram.reshape(n, -1).sum(axis=1), 0.0)) / math.sqrt(truth_sq)
    return rel, max_err, perm, flips
