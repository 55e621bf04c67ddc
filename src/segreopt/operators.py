"""Linear observation operators and their adjoints.

Two kinds are supported: the identity (full observation, decomposition) and
a Gaussian design (regression, one inner product per design tensor).

Scaling convention: design tensors are divided by ``sqrt(n) * scale`` at
construction (``rescaled=True``), which makes the adjoint the literal
transpose pairing ``sum_m y_m X̃_m`` and folds the usual ``1/(n sigma^2)``
factor into the composition ``adjoint(apply(.))`` automatically.  Observation
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

    def normal_apply(self, t: np.ndarray) -> np.ndarray:
        """``adjoint(apply(t))``; subclasses shortcut when profitable."""
        return self.adjoint(self.apply(t))

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

    def normal_apply(self, t: np.ndarray) -> np.ndarray:
        return self._check_tensor(t)

    def to_config(self) -> dict:
        return {"kind": "identity", "shape": list(self.shape)}


class GaussianDesignOp(MeasurementOp):
    """Inner products against ``n`` dense Gaussian design tensors.

    ``designs`` are stored pre-divided by ``sqrt(n) * scale``; construct via
    :meth:`from_raw` or :meth:`from_seed` to get that rescaling applied.
    Operators built with ``rescaled=False`` keep raw designs and do not form
    a true adjoint pair; the solvers refuse them.
    """

    def __init__(self, designs: np.ndarray, scale: float = 1.0, rescaled: bool = True,
                 seed: int | None = None):
        designs = np.asarray(designs, dtype=np.float64)
        if designs.ndim < 3:
            raise ValueError("designs must stack n tensors of order >= 2")
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        self.designs = designs
        self.scale = float(scale)
        self.rescaled = bool(rescaled)
        self.seed = seed
        self.shape = designs.shape[1:]
        self.output_dim = designs.shape[0]

    @classmethod
    def from_raw(cls, raw_designs: np.ndarray, scale: float = 1.0,
                 seed: int | None = None) -> "GaussianDesignOp":
        raw_designs = np.asarray(raw_designs, dtype=np.float64)
        n = raw_designs.shape[0]
        return cls(raw_designs / (np.sqrt(n) * scale), scale=scale, rescaled=True, seed=seed)

    @classmethod
    def from_seed(cls, seed: int, shape: tuple[int, ...], n: int,
                  scale: float = 1.0, replicate: int = 0) -> "GaussianDesignOp":
        """Regenerable operator: entries i.i.d. N(0, scale^2) from the
        ``designs`` substream of ``seed``, then rescaled."""
        n = int(n)
        rng = substream(seed, "designs", replicate)
        designs = rng.standard_normal((n,) + tuple(shape))
        # rescale in place, in the order from_raw uses, so that only one stack
        # is ever alive
        designs *= scale
        designs /= np.sqrt(n) * scale
        op = cls(designs, scale=scale, rescaled=True, seed=seed)
        op._replicate = replicate
        return op

    _replicate = 0

    def apply(self, t: np.ndarray) -> np.ndarray:
        t = self._check_tensor(t)
        return self.designs.reshape(self.output_dim, -1) @ t.ravel()

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        y = self._check_vector(y)
        return (y @ self.designs.reshape(self.output_dim, -1)).reshape(self.shape)

    def to_config(self) -> dict:
        if self.seed is None:
            raise ValueError("only seed-constructed design operators serialize")
        return {
            "kind": "gaussian",
            "seed": int(self.seed),
            "replicate": int(self._replicate),
            "shape": list(self.shape),
            "n": int(self.output_dim),
            "scale": self.scale,
        }


def op_from_config(cfg: dict) -> MeasurementOp:
    kind = cfg.get("kind")
    if kind == "identity":
        return IdentityOp(tuple(cfg["shape"]))
    if kind == "gaussian":
        return GaussianDesignOp.from_seed(
            cfg["seed"], tuple(cfg["shape"]), cfg["n"],
            scale=cfg.get("scale", 1.0), replicate=cfg.get("replicate", 0),
        )
    raise ValueError(f"unknown operator kind {kind!r}")
