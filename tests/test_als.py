import numpy as np
import pytest

from segreopt.als import als_step, cp_als_decompose, cp_als_regress
from segreopt.initialization import InitSpec, init_decomposition
from segreopt.manifold import CPModel, align_and_error
from segreopt.operators import GaussianDesignOp, IdentityOp
from segreopt.solvers import Problem, SolverError, SolverState


def orthogonal_model(rng, shape, r, weights):
    mats = []
    for p in shape:
        q, _ = np.linalg.qr(rng.standard_normal((p, p)))
        mats.append(q[:, :r])
    return CPModel.from_factors(weights, mats)


class TestDecompose:
    def test_rank_one_exact_in_two_sweeps(self):
        rng = np.random.default_rng(0)
        truth = orthogonal_model(rng, (6, 5, 4), 1, [3.0])
        y = truth.embed()
        init = init_decomposition(y, 1, InitSpec(method="random", seed=4))
        model, trace = cp_als_decompose(y, 1, init, 2, truth=truth)
        assert align_and_error(model, truth).rel_frobenius_error <= 1e-10

    def test_truth_is_fixed_point(self):
        rng = np.random.default_rng(1)
        truth = orthogonal_model(rng, (5, 4, 3), 2, [3.0, 2.0])
        model, _ = cp_als_decompose(truth.embed(), 2, truth, 3, truth=truth)
        assert align_and_error(model, truth).max_component_error <= 1e-10

    def test_zero_sweeps_returns_init(self):
        rng = np.random.default_rng(2)
        truth = orthogonal_model(rng, (4, 4, 4), 2, [2.0, 1.0])
        init = init_decomposition(truth.embed(), 2, InitSpec(method="random", seed=1))
        model, trace = cp_als_decompose(truth.embed(), 2, init, 0)
        assert len(trace.records) == 1
        assert align_and_error(model, init).max_component_error <= 1e-12

    def test_loss_nonincreasing(self):
        rng = np.random.default_rng(3)
        truth = orthogonal_model(rng, (6, 6, 6), 3, [4.0, 3.0, 2.0])
        y = truth.embed() + 0.5 * rng.standard_normal(truth.shape)
        init = init_decomposition(y, 3, InitSpec(method="random", seed=2))
        _, trace = cp_als_decompose(y, 3, init, 15, truth=truth)
        res = trace.column("residual")
        assert np.all(res[1:] <= res[:-1] + 1e-10)

    def test_stalled_residual_ends_the_sweeps(self):
        rng = np.random.default_rng(3)
        truth = orthogonal_model(rng, (6, 6, 6), 3, [4.0, 3.0, 2.0])
        y = truth.embed() + 0.1 * rng.standard_normal(truth.shape)
        init = init_decomposition(y, 3, InitSpec(method="random", seed=0))
        _, trace = cp_als_decompose(y, 3, init, 50, truth=truth)
        assert len(trace.records) < 51

    def test_unit_columns_every_sweep(self):
        rng = np.random.default_rng(4)
        truth = orthogonal_model(rng, (5, 5, 5), 2, [3.0, 1.5])
        y = truth.embed() + 0.1 * rng.standard_normal(truth.shape)
        init = init_decomposition(y, 2, InitSpec(method="random", seed=3))
        model, _ = cp_als_decompose(y, 2, init, 7)
        for c in model.components:
            for f in c.factors:
                assert abs(np.linalg.norm(f) - 1.0) <= 1e-12


class TestRegress:
    def test_large_sample_noiseless_recovery(self):
        rng = np.random.default_rng(5)
        shape = (4, 3, 3)
        p_star = int(np.prod(shape))
        n = 50 * p_star
        errs = []
        for seed in range(3):
            truth = orthogonal_model(np.random.default_rng(seed), shape, 2, [3.0, 2.0])
            op = GaussianDesignOp.from_seed(seed, shape, n)
            y = op.apply(truth.embed())
            init = init_decomposition(op.adjoint(y), 2, InitSpec(method="random", seed=seed))
            model, _ = cp_als_regress(op, y, 2, init, 30, truth=truth)
            errs.append(align_and_error(model, truth).rel_frobenius_error)
        assert max(errs) <= 1e-4

    def test_truth_is_fixed_point(self):
        rng = np.random.default_rng(6)
        shape = (4, 4, 3)
        truth = orthogonal_model(rng, shape, 2, [2.0, 1.5])
        op = GaussianDesignOp.from_seed(11, shape, 200)
        y = op.apply(truth.embed())
        model, _ = cp_als_regress(op, y, 2, truth, 3, truth=truth)
        assert align_and_error(model, truth).max_component_error <= 1e-10

    def test_zero_sweeps_returns_init(self):
        rng = np.random.default_rng(7)
        shape = (3, 3, 3)
        truth = orthogonal_model(rng, shape, 1, [2.0])
        op = GaussianDesignOp.from_seed(12, shape, 60)
        y = op.apply(truth.embed())
        init = init_decomposition(op.adjoint(y), 1, InitSpec(method="random", seed=9))
        model, trace = cp_als_regress(op, y, 1, init, 0)
        assert len(trace.records) == 1
        assert align_and_error(model, init).max_component_error <= 1e-12


@pytest.mark.parametrize("task", ["decompose", "regress"])
def test_step_residual_matches_the_model(task):
    # the regression sweep reads its residual off the last block solve's fit
    rng = np.random.default_rng(8)
    shape = (5, 4, 3)
    truth = orthogonal_model(rng, shape, 2, [3.0, 2.0])
    op = IdentityOp(shape) if task == "decompose" else GaussianDesignOp.from_seed(13, shape, 150)
    y = op.apply(truth.embed()) + 0.05 * rng.standard_normal(op.output_dim)
    problem = Problem(op, y, 2)
    state = SolverState.initial(
        problem, init_decomposition(op.adjoint(y), 2, InitSpec(method="random", seed=5)))
    for _ in range(3):
        state = als_step(state, problem)
        expected = y - op.apply(state.model.embed())
        assert np.linalg.norm(state.residual - expected) <= 1e-12 * np.linalg.norm(expected)


@pytest.mark.parametrize("task", ["decompose", "regress"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_observations_rejected(task, bad):
    rng = np.random.default_rng(20)
    shape = (3, 3, 2)
    init = orthogonal_model(rng, shape, 1, [1.0])
    with pytest.raises(ValueError, match="observations y"):
        if task == "decompose":
            y = rng.standard_normal(shape)
            y[1, 2, 0] = bad
            cp_als_decompose(y, 1, init, 2)
        else:
            op = GaussianDesignOp.from_raw(rng.standard_normal((20,) + shape))
            y = rng.standard_normal(20)
            y[7] = bad
            cp_als_regress(op, y, 1, init, 2)


@pytest.mark.parametrize("task", ["decompose", "regress"])
def test_divergence_raises_solver_error(task):
    # observations so large that the residual norm overflows: the run ends
    # with the trace so far instead of a misleading solve failure
    rng = np.random.default_rng(0)
    shape = (4, 4, 4)
    y = 1e160 * rng.standard_normal(shape)
    init = init_decomposition(y, 2, InitSpec(seed=1))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SolverError, match="diverged") as exc_info:
            if task == "decompose":
                cp_als_decompose(y, 2, init, 5)
            else:
                op = GaussianDesignOp.from_seed(3, shape, 200)
                cp_als_regress(op, 1e160 * rng.standard_normal(200), 2, init, 5)
    assert len(exc_info.value.trace.records) == 1
