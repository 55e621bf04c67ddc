import numpy as np
import pytest

import dense_reference as dense

from segreopt import tensor as tc
from segreopt.initialization import (
    InitSpec,
    choose_split,
    cpca,
    init_decomposition,
    init_regression,
    refine_by_deflation,
)
from segreopt.manifold import DegenerateInputError, align_and_error
from segreopt.operators import GaussianDesignOp


class TestChooseSplit:
    def test_balanced_cube_prefers_tall_pair(self):
        # all splits of (4,4,4) tie at min 4; the tall-side rule with the
        # smallest-cardinality-then-lexicographic tie-break picks {0, 1}
        assert choose_split((4, 4, 4)) == (0, 1)

    def test_exhaustive_enumeration_oracle(self):
        from itertools import combinations
        for shape in [(4, 4, 4), (2, 3, 4), (5, 2, 2, 3), (6, 3)]:
            p_star = int(np.prod(shape))
            candidates = []
            for size in range(1, len(shape)):
                for s in combinations(range(len(shape)), size):
                    p_s = int(np.prod([shape[l] for l in s]))
                    if p_s >= p_star // p_s:
                        candidates.append((-min(p_s, p_star // p_s), len(s), s))
            expected = min(candidates)[2]
            assert choose_split(shape) == expected

    def test_matrix_case(self):
        assert choose_split((2, 2)) == (0,)
        assert choose_split((3, 5)) == (1,)


class TestCPCA:
    def test_exact_rank_one_any_split(self):
        rng = np.random.default_rng(0)
        truth = dense.orthogonal_model(rng, (5, 4, 3), 1, [2.3])
        t = truth.embed()
        from itertools import combinations
        for size in range(1, 3):
            for split in combinations(range(3), size):
                model = cpca(t, 1, split)
                assert tc.fro_norm(model.embed() - t) <= 1e-12 * tc.fro_norm(t)

    @pytest.mark.parametrize("r, split, message", [
        (1, (), "cpca_split"), (1, (0, 1, 2), "cpca_split"), (1, (1, 1), "cpca_split"),
        (1, (3,), "cpca_split"), (5, None, r"rank 5 exceeds the \(16, 4\) unfolding bound"),
        (5, (2,), r"rank 5 exceeds the \(4, 16\) unfolding bound"),
    ])
    def test_bad_split_or_rank_rejected(self, r, split, message):
        t = np.random.default_rng(2).standard_normal((4, 4, 4))
        with pytest.raises(ValueError, match=message):
            cpca(t, r, split)

    def test_orthogonal_rank3_recovery(self):
        rng = np.random.default_rng(1)
        truth = dense.orthogonal_model(rng, (6, 5, 4), 3, [5.0, 3.0, 2.0])
        model = cpca(truth.embed(), 3)
        rep = align_and_error(model, truth)
        assert rep.max_component_error <= 1e-8

    def test_components_sorted_by_weight(self):
        rng = np.random.default_rng(2)
        truth = dense.orthogonal_model(rng, (6, 5, 4), 3, [2.0, 5.0, 3.0])
        model = cpca(truth.embed(), 3)
        mags = np.abs(model.weights)
        assert np.all(mags[:-1] >= mags[1:] - 1e-12)

    def test_unit_factor_invariants(self):
        rng = np.random.default_rng(3)
        t = rng.standard_normal((5, 4, 3))
        model = cpca(t, 2)
        for f in model.factors:
            assert np.all(np.abs(np.linalg.norm(f, axis=0) - 1.0) <= 1e-12)

    def test_zero_tensor_degenerate(self):
        with pytest.raises(DegenerateInputError):
            cpca(np.zeros((3, 3, 3)), 1)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_tensor_degenerate(self, bad):
        # once a raw LinAlgError from the SVD, which did not converge
        t = np.full((3, 3, 3), bad)
        with pytest.raises(DegenerateInputError, match="non-finite"):
            cpca(t, 1)
        with pytest.raises(DegenerateInputError, match="non-finite"):
            init_decomposition(t, 1, InitSpec(method="cpca"))

    def test_rank_exceeds_unfolding(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            cpca(rng.standard_normal((3, 3, 3)), 4)


@pytest.mark.parametrize("field, value", [
    ("seed", 1.5), ("seed", True), ("refine_sweeps", 1.5), ("refine_sweeps", -1),
    ("cpca_split", "01"), ("cpca_split", (0, 1.0)), ("cpca_split", 0), ("method", "bogus"),
])
def test_init_spec_field_rejected(field, value):
    # seed 1.5 drew seed 1's stream, refine_sweeps 1.5 failed in range() and
    # the split "01" was read as (0, 1)
    with pytest.raises(ValueError, match=field if field != "method" else "init method"):
        InitSpec(**{field: value})


def test_init_spec_stores_split_as_tuple():
    # a list split once left the spec unhashable and unequal to its tuple twin
    spec = InitSpec(method="cpca", cpca_split=[0])
    assert spec == InitSpec(method="cpca", cpca_split=(0,))
    assert hash(spec) == hash(InitSpec(method="cpca", cpca_split=(0,)))


def test_negative_init_seed_named():
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -2"):
        init_decomposition(np.ones((2, 2, 2)), 1, InitSpec(seed=-2))


class TestInitDecomposition:
    def test_random_is_deterministic(self):
        rng = np.random.default_rng(5)
        y = rng.standard_normal((4, 4, 4))
        spec = InitSpec(method="random", seed=99)
        a = init_decomposition(y, 3, spec)
        b = init_decomposition(y, 3, spec)
        assert np.array_equal(a.weights, b.weights)
        for fa, fb in zip(a.factors, b.factors):
            assert np.array_equal(fa, fb)

    def test_random_factors_unit_norm(self):
        rng = np.random.default_rng(6)
        y = rng.standard_normal((5, 3, 4))
        model = init_decomposition(y, 2, InitSpec(method="random", seed=1))
        for f in model.factors:
            assert np.all(np.abs(np.linalg.norm(f, axis=0) - 1.0) <= 1e-12)

    def test_random_weights_are_projections(self):
        rng = np.random.default_rng(7)
        y = rng.standard_normal((4, 4, 3))
        model = init_decomposition(y, 2, InitSpec(method="random", seed=2))
        for i, w in enumerate(model.weights):
            assert w == pytest.approx(
                tc.inner(y, tc.outer_rank_one(1.0, [u[:, i] for u in model.factors])), rel=1e-10)

    def test_cpca_method_on_orthogonal_instance(self):
        rng = np.random.default_rng(8)
        truth = dense.orthogonal_model(rng, (6, 5, 4), 3, [4.0, 3.0, 2.0])
        model = init_decomposition(truth.embed(), 3, InitSpec(method="cpca", seed=0))
        assert align_and_error(model, truth).max_component_error <= 1e-8

    def test_sphere_symmetry_of_random_factors(self):
        # empirical mean of factor entries over many draws stays within
        # three standard errors of zero
        p, draws = 6, 10_000
        entries = np.empty((draws, p))
        for s in range(draws):
            m = init_decomposition(np.ones((p, p)), 1, InitSpec(method="random", seed=s))
            entries[s] = m.factors[0][:, 0]
        se = entries.std(axis=0) / np.sqrt(draws)
        assert np.all(np.abs(entries.mean(axis=0)) <= 3 * se + 1e-12)

    def test_refine_sweep_separates_components(self):
        rng = np.random.default_rng(9)
        truth = dense.orthogonal_model(rng, (10, 10, 10), 3, [6.0, 5.0, 4.0])
        y = truth.embed()
        raw = init_decomposition(y, 3, InitSpec(method="random", seed=3))
        refined = refine_by_deflation(y, raw, 1)
        rep = align_and_error(refined, truth)
        assert rep.max_component_error < 0.2
        assert init_decomposition(
            y, 3, InitSpec(method="random", seed=3, refine_sweeps=1)
        ).weights == pytest.approx(refined.weights)


class TestInitRegression:
    def test_noiseless_rank_one_concentrates(self):
        rng = np.random.default_rng(10)
        shape = (4, 3, 2)
        p_star = int(np.prod(shape))
        n = 50 * p_star
        errs = []
        for seed in range(10):
            truth = dense.orthogonal_model(np.random.default_rng(seed), shape, 1, [3.0])
            op = GaussianDesignOp.from_seed(seed, shape, n)
            y = op.apply(truth.embed())
            model = init_regression(op, y, 1)
            errs.append(align_and_error(model, truth).rel_frobenius_error)
        assert np.mean(errs) <= 0.1

    def test_zero_observations_degenerate(self):
        op = GaussianDesignOp.from_seed(0, (3, 3, 3), 20)
        with pytest.raises(DegenerateInputError):
            init_regression(op, np.zeros(20), 1)

    def test_deterministic(self):
        op = GaussianDesignOp.from_seed(5, (4, 3, 3), 60)
        rng = np.random.default_rng(11)
        y = op.apply(rng.standard_normal(op.shape))
        a = init_regression(op, y, 2)
        b = init_regression(op, y, 2)
        assert np.array_equal(a.weights, b.weights)

    def test_non_finite_designs_rejected(self):
        op = GaussianDesignOp.from_seed(3, (4, 3, 3), 40)
        y = op.apply(np.ones(op.shape))
        for bad in (np.nan, np.inf):
            op.designs[7, 1, 2, 0] = bad
            with pytest.raises(ValueError, match="design"):
                init_regression(op, y, 1)

    def test_requires_design_operator(self):
        from segreopt.operators import IdentityOp
        with pytest.raises(ValueError):
            init_regression(IdentityOp((3, 3)), np.zeros(9), 1)
