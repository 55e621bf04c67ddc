import logging

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dense_reference as dense

from segreopt import als
from segreopt.als import als_step, cp_als_decompose, cp_als_regress
from segreopt.initialization import InitSpec, init_decomposition
from segreopt.manifold import CPModel, align_and_error
from segreopt.operators import GaussianDesignOp, IdentityOp
from segreopt.solvers import Problem, SolverError, SolverState


def perturbed(model, rng, scale=0.3):
    return CPModel.from_factors(model.weights, [
        dense.unit_columns(u + scale * rng.standard_normal(u.shape)) for u in model.factors])


class TestDecompose:
    def test_rank_one_exact_in_two_sweeps(self):
        rng = np.random.default_rng(0)
        truth = dense.orthogonal_model(rng, (6, 5, 4), 1, [3.0])
        y = truth.embed()
        init = init_decomposition(y, 1, InitSpec(method="random", seed=4))
        model, trace = cp_als_decompose(y, 1, init, 2, truth=truth)
        assert align_and_error(model, truth).rel_frobenius_error <= 1e-10

    def test_truth_is_fixed_point(self):
        rng = np.random.default_rng(1)
        truth = dense.orthogonal_model(rng, (5, 4, 3), 2, [3.0, 2.0])
        model, _ = cp_als_decompose(truth.embed(), 2, truth, 3, truth=truth)
        assert align_and_error(model, truth).max_component_error <= 1e-10

    def test_zero_sweeps_returns_init(self):
        rng = np.random.default_rng(2)
        truth = dense.orthogonal_model(rng, (4, 4, 4), 2, [2.0, 1.0])
        init = init_decomposition(truth.embed(), 2, InitSpec(method="random", seed=1))
        model, trace = cp_als_decompose(truth.embed(), 2, init, 0)
        assert len(trace.records) == 1
        assert align_and_error(model, init).max_component_error <= 1e-12

    def test_loss_nonincreasing(self):
        rng = np.random.default_rng(3)
        truth = dense.orthogonal_model(rng, (6, 6, 6), 3, [4.0, 3.0, 2.0])
        y = truth.embed() + 0.5 * rng.standard_normal(truth.shape)
        init = init_decomposition(y, 3, InitSpec(method="random", seed=2))
        _, trace = cp_als_decompose(y, 3, init, 15, truth=truth)
        res = trace.column("residual")
        assert np.all(res[1:] <= res[:-1] + 1e-10)

    def test_stalled_residual_ends_the_sweeps(self):
        rng = np.random.default_rng(3)
        truth = dense.orthogonal_model(rng, (6, 6, 6), 3, [4.0, 3.0, 2.0])
        y = truth.embed() + 0.1 * rng.standard_normal(truth.shape)
        init = init_decomposition(y, 3, InitSpec(method="random", seed=0))
        _, trace = cp_als_decompose(y, 3, init, 50, truth=truth)
        assert len(trace.records) < 51

    def test_unit_columns_every_sweep(self):
        rng = np.random.default_rng(4)
        truth = dense.orthogonal_model(rng, (5, 5, 5), 2, [3.0, 1.5])
        y = truth.embed() + 0.1 * rng.standard_normal(truth.shape)
        init = init_decomposition(y, 2, InitSpec(method="random", seed=3))
        model, _ = cp_als_decompose(y, 2, init, 7)
        for f in model.factors:
            assert np.all(np.abs(np.linalg.norm(f, axis=0) - 1.0) <= 1e-12)


class TestRegress:
    def test_large_sample_noiseless_recovery(self):
        rng = np.random.default_rng(5)
        shape = (4, 3, 3)
        p_star = int(np.prod(shape))
        n = 50 * p_star
        errs = []
        for seed in range(3):
            truth = dense.orthogonal_model(np.random.default_rng(seed), shape, 2, [3.0, 2.0])
            op = GaussianDesignOp.from_seed(seed, shape, n)
            y = op.apply(truth.embed())
            init = init_decomposition(op.adjoint(y), 2, InitSpec(method="random", seed=seed))
            model, _ = cp_als_regress(op, y, 2, init, 30, truth=truth)
            errs.append(align_and_error(model, truth).rel_frobenius_error)
        assert max(errs) <= 1e-4

    def test_truth_is_fixed_point(self):
        rng = np.random.default_rng(6)
        shape = (4, 4, 3)
        truth = dense.orthogonal_model(rng, shape, 2, [2.0, 1.5])
        op = GaussianDesignOp.from_seed(11, shape, 200)
        y = op.apply(truth.embed())
        model, _ = cp_als_regress(op, y, 2, truth, 3, truth=truth)
        assert align_and_error(model, truth).max_component_error <= 1e-10

    def test_zero_sweeps_returns_init(self):
        rng = np.random.default_rng(7)
        shape = (3, 3, 3)
        truth = dense.orthogonal_model(rng, shape, 1, [2.0])
        op = GaussianDesignOp.from_seed(12, shape, 60)
        y = op.apply(truth.embed())
        init = init_decomposition(op.adjoint(y), 1, InitSpec(method="random", seed=9))
        model, trace = cp_als_regress(op, y, 1, init, 0)
        assert len(trace.records) == 1
        assert align_and_error(model, init).max_component_error <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           shape=st.lists(st.integers(2, 6), min_size=2, max_size=4),
           r=st.integers(1, 3),
           extra=st.integers(0, 10))
    def test_sweep_matches_dense_reference(self, seed, shape, r, extra):
        # orders 2 and 4 are the edge cases of the head contraction: no
        # factor to contract at order 2, two at order 4
        shape = tuple(shape)
        # every mode's coefficient columns independent
        assume(all(np.prod(shape[:k] + shape[k + 1:]) >= r for k in range(len(shape))))
        rng = np.random.default_rng(seed)
        n = 2 * max(shape) * r + extra
        op = GaussianDesignOp.from_raw(rng.standard_normal((n,) + shape))
        truth = CPModel.from_factors(rng.uniform(1.0, 3.0, r), [dense.unit_columns(
            np.linalg.qr(rng.standard_normal((p, p)))[0][:, :r] if r <= p
            else rng.standard_normal((p, r))) for p in shape])
        y = op.apply(truth.embed()) + 0.1 * rng.standard_normal(n)
        start = perturbed(truth, rng)
        problem = Problem(op, y, r)
        got = als_step(SolverState.initial(problem, start), problem)
        weights, factors, residual = dense.als_regression_sweep(op.designs, y, start.factors)
        assert np.max(np.abs(got.model.weights - weights) / weights) <= 1e-10
        for u, v in zip(got.model.factors, factors, strict=True):
            assert np.max(np.abs(u - v)) <= 1e-10  # unit columns
        assert np.linalg.norm(got.residual - residual) <= 1e-10 * np.linalg.norm(y)

    @pytest.mark.parametrize("shape", [(5, 4), (5, 4, 3), (4, 3, 3, 2)])
    def test_two_design_reads_per_sweep(self, monkeypatch, shape):
        # mode 0's kernel pass and the head under the new U_0; every later
        # mode reads the head, never the stack
        rng = np.random.default_rng(9)
        op = GaussianDesignOp.from_seed(14, shape, 80)
        truth = dense.orthogonal_model(rng, shape, 2, [2.0, 1.0])
        problem = Problem(op, op.apply(truth.embed()), 2)
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                if name == "contract_head":
                    assert not any(a is op.designs for a in args)
                elif name not in ("apply", "adjoint"):
                    assert args[0] is op.designs  # the whole stack
                return fn(*args, **kwargs)
            return wrapper

        for name in ("batched_contract_all_but", "design_head", "contract_head"):
            monkeypatch.setattr(als, name, counted(name, getattr(als, name)))
        for name in ("apply", "adjoint"):
            monkeypatch.setattr(GaussianDesignOp, name, counted(name, getattr(GaussianDesignOp, name)))
        state = SolverState.initial(problem, perturbed(truth, rng))
        calls.clear()
        for sweeps in (1, 2, 3):
            state = als_step(state, problem)
            assert len(calls) - calls.count("contract_head") == 2 * sweeps
        assert calls == 3 * (["batched_contract_all_but", "design_head"]
                             + ["contract_head"] * (len(shape) - 1))

    def test_under_determined_mode_gets_minimum_norm_solution(self, caplog):
        # n < p_k r: the mode's Gram is singular, which solve() does not detect
        rng = np.random.default_rng(10)
        shape, r, n = (6, 6, 6), 2, 5
        op = GaussianDesignOp.from_seed(15, shape, n)
        truth = dense.orthogonal_model(rng, shape, r, [2.0, 1.0])
        y = op.apply(truth.embed())
        problem = Problem(op, y, r)
        state = SolverState.initial(problem, perturbed(truth, rng))
        with caplog.at_level(logging.WARNING, logger="segreopt.als"):
            for _ in range(3):
                state = als_step(state, problem)
        warnings = [rec for rec in caplog.records if "under-determined" in rec.getMessage()]
        assert len(warnings) == 1
        model = state.model
        assert np.all(np.isfinite(model.weights)) and all(np.all(np.isfinite(u)) for u in model.factors)
        # the last mode's scaled factors are the minimum-norm solution
        # against the block the other (new) factors give
        (coeff,) = als.batched_contract_all_but(op.designs, model.factors, (2,))
        flat = coeff.reshape(n, -1)
        min_norm = np.linalg.pinv(flat) @ y
        scaled = model.factors[2] * model.weights
        assert np.allclose(scaled.ravel(), min_norm, rtol=0, atol=1e-10 * np.linalg.norm(min_norm))

    def test_well_posed_modes_keep_the_normal_equations(self, monkeypatch):
        rng = np.random.default_rng(11)
        shape = (4, 3, 3)
        op = GaussianDesignOp.from_seed(16, shape, 30)
        truth = dense.orthogonal_model(rng, shape, 2, [2.0, 1.0])
        problem = Problem(op, op.apply(truth.embed()), 2)
        solves = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda *a: solves.append(1) or solve(*a))
        als_step(SolverState.initial(problem, perturbed(truth, rng)), problem)
        assert len(solves) == len(shape)


@pytest.mark.parametrize("task", ["decompose", "regress"])
def test_step_residual_matches_the_model(task):
    # the regression sweep reads its residual off the last block solve's fit
    rng = np.random.default_rng(8)
    shape = (5, 4, 3)
    truth = dense.orthogonal_model(rng, shape, 2, [3.0, 2.0])
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
    init = dense.orthogonal_model(rng, shape, 1, [1.0])
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
