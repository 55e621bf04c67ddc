"""Dense multilinear primitives shared by every other module.

Conventions (used everywhere in this package):

* A dense order-``d`` tensor is a ``numpy.ndarray`` of ``float64`` with
  ``d >= 2`` axes, each of length >= 1.  Its linear storage order is C
  order (row major, last index varies fastest), and ``vec`` always means
  ``ravel(order="C")``.
* Modes are 0-indexed.
* ``unfold(t, k)`` returns the ``p_k x (p*/p_k)`` matrix whose columns are
  the mode-``k`` fibers.  Columns are ordered by enumerating the remaining
  multi-indices in ascending lexicographic order (leftmost remaining mode
  most significant), which is exactly the C-order enumeration.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import cache, reduce

import numpy as np


def check_tensor(t: np.ndarray) -> np.ndarray:
    """Validate an ndarray as a dense tensor (order >= 2, no empty axes)."""
    t = np.asarray(t, dtype=np.float64)
    if t.ndim < 2:
        raise ValueError(f"tensor order must be >= 2, got {t.ndim}")
    if any(p < 1 for p in t.shape):
        raise ValueError(f"all mode sizes must be >= 1, got {t.shape}")
    return t


def outer_rank_one(weight: float, factors: list[np.ndarray] | tuple[np.ndarray, ...]) -> np.ndarray:
    """Weighted outer product ``weight * f_0 ⊗ f_1 ⊗ ... ⊗ f_{d-1}``.

    Entry ``(i_0, ..., i_{d-1})`` of the result equals
    ``weight * prod_l factors[l][i_l]``.  Factors need not be unit norm.
    """
    if len(factors) < 2:
        raise ValueError("need at least two factor vectors")
    vecs = []
    for l, f in enumerate(factors):
        f = np.asarray(f, dtype=np.float64)
        if f.ndim != 1 or f.size == 0:
            raise ValueError(f"factor {l} must be a nonempty vector")
        vecs.append(f)
    out = reduce(np.multiply.outer, vecs)
    return weight * out


def unfold(t: np.ndarray, mode: int) -> np.ndarray:
    """Mode-``mode`` matricization, shape ``(p_k, p*/p_k)``.

    Fiber/column ordering follows the module convention above.
    """
    t = np.asarray(t)
    if not 0 <= mode < t.ndim:
        raise ValueError(f"mode {mode} out of range for order-{t.ndim} tensor")
    return np.moveaxis(t, mode, 0).reshape(t.shape[mode], -1)


def inner(t: np.ndarray, s: np.ndarray) -> float:
    """Ambient inner product: sum of elementwise products."""
    t = np.asarray(t)
    s = np.asarray(s)
    if t.shape != s.shape:
        raise ValueError(f"shape mismatch: {t.shape} vs {s.shape}")
    return float(np.dot(t.ravel(), s.ravel()))


def fro_norm(t: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(t).ravel()))


def khatri_rao(matrices: list[np.ndarray]) -> np.ndarray:
    """Column-wise Kronecker product, columns consistent with :func:`unfold`.

    For unit-rank components, column ``i`` of ``khatri_rao([U_l for l != k])``
    (modes in ascending order) equals the mode-``k`` fiber pattern of
    ``outer_rank_one(1, [u_{l,i}])`` under the C-order column enumeration.
    """
    if not matrices:
        raise ValueError("need at least one factor matrix")
    r = matrices[0].shape[1]
    if any(m.shape[1] != r for m in matrices):
        raise ValueError("all factor matrices must share the column count")
    out = matrices[0]
    for m in matrices[1:]:
        out = (out[:, None, :] * m[None, :, :]).reshape(-1, r)
    return out


def contract_all_modes(t: np.ndarray, vectors: list[np.ndarray] | tuple[np.ndarray, ...]) -> float:
    """``<t, v_0 ⊗ ... ⊗ v_{d-1}>`` without materializing the outer product."""
    out = np.asarray(t)
    for v in reversed(vectors):
        out = np.tensordot(out, v, axes=([out.ndim - 1], [0]))
    return float(out)


# The stack is streamed in blocks of whole tensors spanning about this many
# bytes, so that every contraction of a block reads it from cache.
_BLOCK_BYTES = 2 << 20


def design_head(stack: np.ndarray, u0: np.ndarray) -> np.ndarray:
    """Every tensor of a stack contracted in mode 0 with every column of
    ``u0``: shape ``(n, r) + shape[1:]`` for a stack of shape ``(n,) + shape``
    and ``u0`` of shape ``p_0 x r``, which is ``r / p_0`` the size of the
    stack.  Slice ``[m, i]`` is ``X_m x_0 u0[:, i]^T``."""
    n, p0 = stack.shape[:2]
    r = u0.shape[1]
    return np.matmul(u0.T, stack.reshape(n, p0, -1)).reshape((n, r) + stack.shape[2:])


@cache
def _head_subscripts(d: int, k: int) -> str:
    # einsum over a head: "Y" the tensor, "Z" the column, one letter per mode
    modes = "abcdefghijklmnopqrstuvwx"[:d]
    others = [l for l in range(1, d) if l != k]
    return ",".join(["YZ" + modes[1:]] + [modes[l] + "Z" for l in others]) + f"->Y{modes[k]}Z"


def contract_head(head: np.ndarray, factors: list[np.ndarray] | tuple[np.ndarray, ...],
                  k: int) -> np.ndarray:
    """Mode ``k > 0`` read off a :func:`design_head`: contracts slice
    ``[m, i]`` with column ``i`` of every factor matrix but those of modes 0
    and ``k``.  Returns ``(n, p_k, r)``, slice ``[:, :, i]`` the contraction
    of every tensor with column ``i`` of every mode but ``k``."""
    d = len(factors)
    return np.einsum(_head_subscripts(d, k), head,
                     *(factors[l] for l in range(1, d) if l != k))


def batched_contract_all_but(stack: np.ndarray, factors: list[np.ndarray] | tuple[np.ndarray, ...],
                             keep: Iterable[int]) -> list[np.ndarray]:
    """Contractions of every tensor of a stack with the factor columns of
    all modes but one, for every column and every kept mode, reading the
    stack once.

    ``stack`` has shape ``(n,) + shape`` and ``factors[l]`` is ``p_l x r``.
    Returns one ``(n, p_k, r)`` array per mode ``k`` in ``keep`` (in that
    order) whose slice ``[:, :, i]`` contracts every tensor with column ``i``
    of every other mode's factor matrix.  Per block, mode 0 is kept through
    one product with the Khatri-Rao matrix of the other modes, and every
    other kept mode is read by :func:`contract_head` off the block's
    :func:`design_head`.
    """
    keep = tuple(keep)
    n, p0 = stack.shape[:2]
    r = factors[0].shape[1]
    rest = stack[0].size // p0
    outs = [np.empty((n, stack.shape[1 + k], r)) for k in keep]
    kr = khatri_rao(list(factors[1:])) if 0 in keep else None
    heads = any(k > 0 for k in keep)
    step = max(1, _BLOCK_BYTES // stack[0].nbytes)
    for lo in range(0, n, step):
        block = stack[lo : lo + step]
        b = block.shape[0]
        if heads:
            head = design_head(block, factors[0])
        for out, k in zip(outs, keep):
            if k == 0:
                out[lo : lo + b] = (block.reshape(b * p0, rest) @ kr).reshape(b, p0, r)
            else:
                out[lo : lo + b] = contract_head(head, factors, k)
    return outs
