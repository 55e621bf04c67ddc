"""Linear observation operators and their adjoints.

Two kinds are supported: the identity (full observation, decomposition) and
a Gaussian design (regression, one inner product per design tensor).

Scaling convention: a design operator stores its tensors divided by
``sqrt(n) * sigma`` for raw entries of variance ``sigma^2`` (``from_raw``
takes ``sigma`` as ``scale``; ``from_seed`` draws N(0, 1) entries), which
makes the adjoint the literal transpose pairing ``sum_m y_m X̃_m`` and folds
the usual ``1/(n sigma^2)`` factor into ``adjoint(apply(.))``.  Observation
vectors must be rescaled the same way by the caller.
"""

from __future__ import annotations

import numpy as np

from .rng import substream


class MeasurementOp:
    """Base interface: a linear map from tensors to vectors plus its adjoint."""

    shape: tuple[int, ...]
    output_dim: int

    def apply(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _check_tensor(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        if t.shape != self.shape:
            raise ValueError(f"tensor shape {t.shape} does not match operator shape {self.shape}")
        return t

    def _check_vector(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self.output_dim,):
            raise ValueError(f"vector length {y.shape} does not match output dim {self.output_dim}")
        return y


class IdentityOp(MeasurementOp):
    """Full observation: apply is vectorization (C order), adjoint undoes it."""

    def __init__(self, shape: tuple[int, ...]):
        self.shape = tuple(int(p) for p in shape)
        self.output_dim = int(np.prod(self.shape, dtype=np.int64))

    def apply(self, t: np.ndarray) -> np.ndarray:
        return self._check_tensor(t).ravel()

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        return self._check_vector(y).reshape(self.shape)


class GaussianDesignOp(MeasurementOp):
    """Inner products against ``n`` dense Gaussian design tensors.

    ``designs`` are taken as already divided by ``sqrt(n) * sigma``; construct
    via :meth:`from_raw` or :meth:`from_seed` to get that rescaling applied.
    """

    def __init__(self, designs: np.ndarray):
        designs = np.asarray(designs, dtype=np.float64)
        if designs.ndim < 3:
            raise ValueError("designs must stack n tensors of order >= 2")
        self.designs = designs
        self.shape = designs.shape[1:]
        self.output_dim = designs.shape[0]

    @classmethod
    def from_raw(cls, raw_designs: np.ndarray, scale: float = 1.0) -> "GaussianDesignOp":
        if not 0 < scale < np.inf:
            raise ValueError(f"scale must be positive and finite, got {scale}")
        raw_designs = np.asarray(raw_designs, dtype=np.float64)
        n = raw_designs.shape[0]
        return cls(raw_designs / (np.sqrt(n) * scale))

    @classmethod
    def from_seed(cls, seed: int, shape: tuple[int, ...], n: int,
                  replicate: int = 0) -> "GaussianDesignOp":
        """Regenerable operator: entries i.i.d. N(0, 1) from the ``designs``
        substream of ``seed``, divided by ``sqrt(n)`` in place."""
        n = int(n)
        designs = substream(seed, "designs", replicate).standard_normal((n,) + tuple(shape))
        designs /= np.sqrt(n)
        return cls(designs)

    def apply(self, t: np.ndarray) -> np.ndarray:
        t = self._check_tensor(t)
        return self.designs.reshape(self.output_dim, -1) @ t.ravel()

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        y = self._check_vector(y)
        return (y @ self.designs.reshape(self.output_dim, -1)).reshape(self.shape)
