import numpy as np
import pytest

from segreopt import tensor as tc
from segreopt.operators import GaussianDesignOp, IdentityOp
from segreopt.rng import substream


class TestIdentityOp:
    def test_apply_is_vec(self):
        rng = np.random.default_rng(0)
        t = rng.standard_normal((3, 4, 2))
        op = IdentityOp(t.shape)
        assert np.array_equal(op.apply(t), t.ravel())

    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(1)
        t = rng.standard_normal((2, 5, 3))
        op = IdentityOp(t.shape)
        assert np.array_equal(op.adjoint(op.apply(t)), t)
        y = rng.standard_normal(op.output_dim)
        assert np.array_equal(op.apply(op.adjoint(y)), y)

    def test_shape_mismatch(self):
        op = IdentityOp((2, 2))
        with pytest.raises(ValueError):
            op.apply(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            op.adjoint(np.zeros(5))


class TestGaussianDesignOp:
    def _op(self, rng, shape=(3, 4, 2), n=30):
        return GaussianDesignOp.from_raw(rng.standard_normal((n,) + shape))

    def test_single_self_design(self):
        rng = np.random.default_rng(3)
        t = rng.standard_normal((3, 3))
        design = (t / tc.fro_norm(t))[None]
        op = GaussianDesignOp(design)
        assert op.apply(t) == pytest.approx([tc.fro_norm(t)], rel=1e-12)

    def test_apply_matches_brute_force(self):
        rng = np.random.default_rng(4)
        op = self._op(rng)
        t = rng.standard_normal(op.shape)
        brute = np.array([
            sum(op.designs[m][idx] * t[idx]
                for idx in np.ndindex(*op.shape))
            for m in range(op.output_dim)
        ])
        assert np.allclose(op.apply(t), brute, atol=1e-12)

    def test_adjoint_pairing(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            op = self._op(rng, shape=(3, 2, 2), n=11)
            t = rng.standard_normal(op.shape)
            y = rng.standard_normal(op.output_dim)
            lhs = float(op.apply(t) @ y)
            rhs = tc.inner(t, op.adjoint(y))
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_adjoint_of_zero(self):
        rng = np.random.default_rng(6)
        op = self._op(rng)
        assert np.array_equal(op.adjoint(np.zeros(op.output_dim)), np.zeros(op.shape))

    def test_normal_apply_self_adjoint_psd(self):
        rng = np.random.default_rng(8)
        op = self._op(rng)
        s = rng.standard_normal(op.shape)
        t = rng.standard_normal(op.shape)
        lhs = tc.inner(s, op.adjoint(op.apply(t)))
        rhs = tc.inner(op.adjoint(op.apply(s)), t)
        assert lhs == pytest.approx(rhs, rel=1e-10)
        assert tc.inner(t, op.adjoint(op.apply(t))) >= -1e-12

    def test_rescaling_gives_paper_adjoint(self):
        # adjoint of rescaled pairs equals (1/(n sigma^2)) sum y_m X_m on raw data
        rng = np.random.default_rng(9)
        sigma = 2.0
        raw = sigma * rng.standard_normal((7, 3, 3))
        op = GaussianDesignOp.from_raw(raw, scale=sigma)
        y_raw = rng.standard_normal(7)
        y = y_raw / (np.sqrt(7) * sigma)
        expected = np.tensordot(y_raw, raw, axes=([0], [0])) / (7 * sigma**2)
        assert np.allclose(op.adjoint(y), expected, atol=1e-12)

    def test_restricted_isometry_sanity(self):
        # with n >> p* the normal operator is close to the identity on
        # low-rank inputs; report-only check with a loose band
        rng = np.random.default_rng(10)
        shape = (4, 3, 2)
        p_star = int(np.prod(shape))
        n = 50 * p_star
        op = GaussianDesignOp.from_raw(rng.standard_normal((n,) + shape))
        u = [rng.standard_normal(p) for p in shape]
        t = tc.outer_rank_one(1.0, [x / np.linalg.norm(x) for x in u])
        rel = tc.fro_norm(op.adjoint(op.apply(t)) - t) / tc.fro_norm(t)
        assert rel < 0.5

    def test_seed_round_trip(self):
        # an operator is regenerated bit for bit from its (seed, replicate)
        op = GaussianDesignOp.from_seed(123, (3, 4, 2), 17, replicate=2)
        again = GaussianDesignOp.from_seed(123, (3, 4, 2), 17, replicate=2)
        other = GaussianDesignOp.from_seed(123, (3, 4, 2), 17, replicate=3)
        assert np.array_equal(again.designs, op.designs)
        assert not np.allclose(other.designs, op.designs)

    def test_seed_matches_raw_rescaling(self):
        # from_seed is from_raw of the same unit-variance draw, bit for bit
        op = GaussianDesignOp.from_seed(4, (3, 4, 2), 17, replicate=1)
        raw = substream(4, "designs", 1).standard_normal((17, 3, 4, 2))
        assert np.array_equal(op.designs, GaussianDesignOp.from_raw(raw, scale=1.0).designs)

    def test_non_positive_scale_rejected(self):
        with pytest.raises(ValueError, match="scale"):
            GaussianDesignOp.from_raw(np.ones((3, 2, 2)), scale=-1.0)

    @pytest.mark.parametrize("scale", [np.nan, np.inf])
    def test_non_finite_scale_rejected(self, scale):
        # a NaN scale gave all-NaN designs and an infinite one all-zero designs
        with pytest.raises(ValueError, match="scale"):
            GaussianDesignOp.from_raw(np.ones((3, 2, 2)), scale=scale)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_bad_seed_named(self, seed):
        with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {seed}"):
            GaussianDesignOp.from_seed(seed, (2, 2), 3)

    def test_length_mismatch(self):
        rng = np.random.default_rng(11)
        op = self._op(rng)
        with pytest.raises(ValueError):
            op.adjoint(np.zeros(op.output_dim + 1))
