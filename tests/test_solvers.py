import dataclasses
import logging

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dense_reference as dense

from segreopt import tensor as tc
from segreopt.als import cp_als_decompose, cp_als_regress
from segreopt.harness import ExperimentConfig, config_from_preset, gen_instance, run_experiment
from segreopt.initialization import InitSpec, init_decomposition, init_regression
from segreopt.manifold import (
    CPModel,
    align_and_error,
    embed_tangent,
    project_tangent,
    retract_thosvd,
    tangent_basis,
    tangent_dim,
)
from segreopt.operators import GaussianDesignOp, IdentityOp
from segreopt.solvers import (
    Problem,
    SolverConfig,
    SolverError,
    SolverState,
    _fit_tangent,
    rgd_step,
    rgn_step,
    run,
    solve_tangent_ls,
)


def random_point(rng, shape, weight=None):
    us = []
    for p in shape:
        u = rng.standard_normal(p)
        us.append(u / np.linalg.norm(u))
    return dense.point(weight if weight is not None else float(rng.uniform(1.0, 3.0)), us)


def perturbed(model, eps, rng):
    comps = []
    for c in dense.columns(model):
        t = c.embed()
        delta = rng.standard_normal(t.shape)
        delta *= eps * abs(c.weights[0]) / tc.fro_norm(delta)
        comps.append(retract_thosvd(t + delta))
    return dense.stack(comps)


def smoke_start(preset):
    """Replicate 0 of a smoke preset, its config and the harness's starting model."""
    cfg = config_from_preset(preset)
    prob = gen_instance(cfg, 0)
    if cfg.task == "decompose":
        start = init_decomposition(prob.y.reshape(cfg.dims), cfg.rank,
                                   InitSpec(seed=cfg.seed, refine_sweeps=cfg.init_refine_sweeps))
    else:
        start = init_regression(prob.op, prob.y, cfg.rank, cfg.cpca_split)
    return cfg, prob, start


def assert_orthogonal(factors, directions):
    """Every column of every direction matrix is orthogonal to its factor to 1e-14 relative."""
    for u, h in zip(factors, directions, strict=True):
        along = np.abs(np.einsum("ai,ai->i", u, h))
        assert np.all(along <= 1e-14 * np.linalg.norm(h, axis=0))


def identity_problem(model, noise=None):
    y = model.embed()
    if noise is not None:
        y = y + noise
    return Problem(op=IdentityOp(model.shape), y=y.ravel(), rank=model.rank, truth=model)


class TestRgdStep:
    def test_truth_is_fixed_point(self):
        rng = np.random.default_rng(0)
        truth = dense.orthogonal_model(rng, (6, 5, 4), 2, [3.0, 2.0])
        prob = identity_problem(truth)
        state = SolverState.initial(prob, truth)
        out = rgd_step(state, prob, alpha=0.2)
        assert align_and_error(out.model, truth).max_component_error <= 1e-10

    def test_monotone_descent_to_high_accuracy(self):
        rng = np.random.default_rng(1)
        truth = dense.orthogonal_model(rng, (5, 5, 5), 1, [2.0])
        prob = identity_problem(truth)
        state = SolverState.initial(prob, perturbed(truth, 0.1, rng))
        errs = [align_and_error(state.model, truth).max_component_error]
        for _ in range(100):
            state = rgd_step(state, prob, alpha=0.2)
            errs.append(align_and_error(state.model, truth).max_component_error)
        assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 1e-8

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        truth = dense.orthogonal_model(rng, (5, 4, 3), 2, [2.0, 1.5])
        noise = 0.3 * rng.standard_normal(truth.shape)
        prob = identity_problem(truth, noise)
        model = perturbed(truth, 0.1, rng)
        embeds = [c.embed() for c in dense.columns(model)]

        def loss(replacement, i):
            total = sum(embeds[j] if j != i else replacement for j in range(model.rank))
            r = prob.y - prob.op.apply(total)
            return 0.5 * float(r @ r)

        misfit = prob.op.apply(sum(embeds)) - prob.y
        ambient = prob.op.adjoint(misfit)
        h = 1e-6
        for i, point in enumerate(dense.columns(model)):
            g = project_tangent(point, ambient)
            for _ in range(20 // model.rank + 1):
                xi = project_tangent(point, rng.standard_normal(point.shape))
                xi /= tc.fro_norm(xi)
                fd = (loss(embeds[i] + h * xi, i) - loss(embeds[i] - h * xi, i)) / (2 * h)
                assert tc.inner(g, xi) == pytest.approx(fd, rel=1e-5)

    def test_step_size_validated(self):
        rng = np.random.default_rng(3)
        truth = dense.orthogonal_model(rng, (4, 4, 4), 1, [2.0])
        prob = identity_problem(truth)
        state = SolverState.initial(prob, truth)
        with pytest.raises(ValueError):
            rgd_step(state, prob, alpha=1.5)

    @pytest.mark.parametrize("preset", ["smoke-decompose", "smoke-regress"])
    def test_matches_dense_formulation(self, preset):
        # one step equals projecting the ambient gradient at the stored
        # residual onto each tangent space, stepping and retracting the dense tensor
        cfg, prob, start = smoke_start(preset)
        state = SolverState.initial(prob, start)
        alpha = cfg.step_size
        got = rgd_step(state, prob, alpha)
        ambient = prob.op.adjoint(-state.residual)
        for i, point in enumerate(dense.columns(start)):
            expected = retract_thosvd(point.embed() - alpha * project_tangent(point, ambient)).embed()
            assert tc.fro_norm(dense.columns(got.model)[i].embed() - expected) <= (
                1e-12 * tc.fro_norm(expected))


class TestProblem:
    def test_non_finite_observations_rejected(self):
        op = IdentityOp((2, 3))
        for bad in (np.nan, np.inf, -np.inf):
            y = np.ones(6)
            y[4] = bad
            with pytest.raises(ValueError, match="observations y"):
                Problem(op=op, y=y, rank=1)

    @pytest.mark.parametrize("rank", [0, 2.5, True, "2"])
    def test_rank_not_a_positive_integer_rejected(self, rank):
        with pytest.raises(ValueError, match="rank must be an integer >= 1"):
            Problem(op=IdentityOp((2, 3)), y=np.ones(6), rank=rank)

    @pytest.mark.parametrize("shape, rank", [((2, 3), 2), ((3, 2), 1)])
    def test_truth_of_another_rank_or_shape_rejected(self, shape, rank):
        truth = dense.point(1.0, [np.eye(p)[0] for p in shape])
        with pytest.raises(ValueError, match="^truth of rank 1 and shape"):
            Problem(op=IdentityOp((2, 3)), y=np.ones(6), rank=rank, truth=truth)


class TestTangentLeastSquares:
    def test_identity_reduces_to_projection(self):
        rng = np.random.default_rng(4)
        pt = random_point(rng, (4, 3, 5))
        op = IdentityOp(pt.shape)
        rhs = rng.standard_normal(op.output_dim)
        xi = solve_tangent_ls(pt, op, rhs)
        assert np.allclose(xi, project_tangent(pt, rhs.reshape(pt.shape)), atol=1e-10)

    def test_matches_dense_ls_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            shape = tuple(rng.integers(2, 6, size=int(rng.integers(2, 5))))
            pt = random_point(rng, shape)
            df = 1 + sum(p - 1 for p in shape)
            n = 3 * df + int(rng.integers(0, 10))
            op = GaussianDesignOp.from_raw(rng.standard_normal((n,) + shape))
            rhs = rng.standard_normal(n)
            xi = solve_tangent_ls(pt, op, rhs)
            basis = tangent_basis(pt)
            flat = basis.vectors.reshape(basis.dim, -1)
            design = op.designs.reshape(n, -1) @ flat.T
            coords, *_ = np.linalg.lstsq(design, rhs, rcond=None)
            oracle = (flat.T @ coords).reshape(shape)
            scale = max(tc.fro_norm(oracle), 1e-12)
            assert tc.fro_norm(xi - oracle) <= 1e-8 * scale

    def test_residual_orthogonal_to_projected_design(self):
        rng = np.random.default_rng(6)
        pt = random_point(rng, (4, 3, 2))
        n = 60
        op = GaussianDesignOp.from_raw(rng.standard_normal((n,) + pt.shape))
        rhs = rng.standard_normal(n)
        xi = solve_tangent_ls(pt, op, rhs)
        resid = rhs - op.apply(xi)
        basis = tangent_basis(pt)
        for v in basis.vectors:
            assert abs(float(op.apply(v) @ resid)) <= 1e-8 * np.linalg.norm(rhs)

    def test_solution_lies_in_tangent_space(self):
        rng = np.random.default_rng(7)
        pt = random_point(rng, (3, 4, 3))
        op = GaussianDesignOp.from_raw(rng.standard_normal((50,) + pt.shape))
        xi = solve_tangent_ls(pt, op, rng.standard_normal(50))
        assert np.allclose(project_tangent(pt, xi), xi, atol=1e-9)

    def test_rank_deficient_returns_min_norm(self, caplog):
        rng = np.random.default_rng(8)
        pt = random_point(rng, (3, 3))
        # two identical designs cannot span the 5-dim tangent space
        x = rng.standard_normal((1,) + pt.shape)
        op = GaussianDesignOp(np.repeat(x, 2, axis=0))
        with caplog.at_level(logging.WARNING, logger="segreopt.solvers"):
            xi = solve_tangent_ls(pt, op, np.ones(2))
        # the denominator is the tangent dimension 1 + 2 + 2, without the
        # gauge directions u_k that the fit's unknowns add
        assert any("rank-deficient (1/5 kept)" in m for m in caplog.messages)
        resid0 = np.linalg.norm(np.ones(2) - op.apply(xi))
        # oracle: dense min-norm solution has the same residual and norm
        basis = tangent_basis(pt)
        flat = basis.vectors.reshape(basis.dim, -1)
        design = op.designs.reshape(2, -1) @ flat.T
        coords = np.linalg.pinv(design) @ np.ones(2)
        oracle = (flat.T @ coords).reshape(pt.shape)
        assert resid0 <= np.linalg.norm(np.ones(2) - op.apply(oracle)) + 1e-10
        assert tc.fro_norm(xi) <= tc.fro_norm(oracle) + 1e-10


class TestRgnStep:
    def test_truth_is_fixed_point(self):
        rng = np.random.default_rng(9)
        truth = dense.orthogonal_model(rng, (5, 4, 3), 2, [3.0, 2.0])
        prob = identity_problem(truth)
        state = SolverState.initial(prob, truth)
        out = rgn_step(state, prob)
        assert align_and_error(out.model, truth).max_component_error <= 1e-10

    def test_identity_equals_unit_step_rgd_bitwise(self):
        rng = np.random.default_rng(10)
        truth = dense.orthogonal_model(rng, (6, 5, 4), 3, [4.0, 3.0, 2.0])
        noise = 0.5 * rng.standard_normal(truth.shape)
        prob = identity_problem(truth, noise)
        start = perturbed(truth, 0.2, rng)
        state = SolverState.initial(prob, start)
        a = rgn_step(state, prob)
        b = rgd_step(state, prob, alpha=1.0)
        assert np.array_equal(a.model.weights, b.model.weights)
        for fa, fb in zip(a.model.factors, b.model.factors):
            assert np.array_equal(fa, fb)

    def test_identity_matches_leave_one_out_projection_form(self):
        # each component's step is the projection of its leave-one-out
        # residual, retracted; under Gauss-Seidel the later components' targets
        # see the earlier ones at their retractions
        rng = np.random.default_rng(11)
        truth = dense.orthogonal_model(rng, (5, 4, 3), 3, [3.0, 2.0, 1.5])
        prob = identity_problem(truth)
        start = perturbed(truth, 0.1, rng)
        state = SolverState.initial(prob, start)
        y = prob.y.reshape(truth.shape)
        for gauss_seidel in (False, True):
            stepped = rgn_step(state, prob, gauss_seidel=gauss_seidel)
            seen = [c.embed() for c in dense.columns(start)]  # by the later targets
            for i, point in enumerate(dense.columns(start)):
                rhs = y - (sum(seen) - seen[i])
                expected = retract_thosvd(project_tangent(point, rhs)).embed()
                assert np.allclose(dense.columns(stepped.model)[i].embed(), expected, atol=1e-9)
                if gauss_seidel:
                    seen[i] = expected
            fresh = prob.y - stepped.model.embed().ravel()
            assert np.allclose(stepped.residual, fresh, atol=1e-12)

    def test_quadratic_contraction_rank_one(self):
        rng = np.random.default_rng(12)
        ratios = []
        for seed in range(20):
            local = np.random.default_rng(seed)
            truth = dense.orthogonal_model(local, (10, 10, 10), 1, [2.0])
            prob = identity_problem(truth)
            eps0 = 0.1
            start = perturbed(truth, eps0, local)
            e0 = align_and_error(start, truth).max_component_error
            if not 0.01 <= e0 <= 0.2:
                continue
            state = SolverState.initial(prob, start)
            out = rgn_step(state, prob)
            e1 = align_and_error(out.model, truth).max_component_error
            ratios.append(e1 / e0**2)
        assert len(ratios) >= 15
        assert np.median(ratios) <= 20.0

    def test_regression_matches_per_component_formulation(self):
        # under Jacobi one step retracts, component by component, the joint
        # least-squares fit of y over the sum of every component's tangent
        # space (the dense oracle); under Gauss-Seidel it equals fitting each
        # component's leave-one-out residual on its own tangent space, then
        # retracting, with the operator images refreshed after each component
        cfg = config_from_preset("smoke-regress")
        prob = gen_instance(cfg, 0)
        op = prob.op
        start = init_regression(op, prob.y, cfg.rank, cfg.cpca_split)
        got = rgn_step(SolverState.initial(prob, start), prob)
        fresh = prob.y - op.apply(got.model.embed())
        assert np.linalg.norm(got.residual - fresh) <= 1e-12 * np.linalg.norm(fresh)
        for xi, comp in zip(dense.joint_tangent_fit(start, op.designs, prob.y),
                            dense.columns(got.model), strict=True):
            expected = retract_thosvd(xi).embed()
            assert tc.fro_norm(comp.embed() - expected) <= 1e-10 * tc.fro_norm(expected)

        got = rgn_step(SolverState.initial(prob, start), prob, gauss_seidel=True)
        fresh = prob.y - op.apply(got.model.embed())
        assert np.linalg.norm(got.residual - fresh) <= 1e-12 * np.linalg.norm(fresh)
        applied = [op.apply(c.embed()) for c in dense.columns(start)]
        total = np.sum(applied, axis=0)
        for i, point in enumerate(dense.columns(start)):
            rhs = prob.y - (total - applied[i])
            expected = retract_thosvd(solve_tangent_ls(point, op, rhs)).embed()
            assert tc.fro_norm(dense.columns(got.model)[i].embed() - expected) <= (
                1e-12 * tc.fro_norm(expected))
            new = op.apply(expected)
            total += new - applied[i]
            applied[i] = new

    @pytest.mark.parametrize("gauss_seidel", [False, True])
    def test_full_rank_fit_logs_no_warning(self, gauss_seidel, caplog):
        # the gauge directions u_k dropped by every fit are not rank loss
        cfg = config_from_preset("smoke-regress")
        prob = gen_instance(cfg, 0)
        start = init_regression(prob.op, prob.y, cfg.rank, cfg.cpca_split)
        with caplog.at_level(logging.WARNING, logger="segreopt.solvers"):
            rgn_step(SolverState.initial(prob, start), prob, gauss_seidel=gauss_seidel)
        assert not [m for m in caplog.messages
                    if "rank-deficient" in m or "numerically zero" in m]

    def test_jacobi_carries_contractions(self):
        # the contractions a Jacobi step attaches are those of its new model:
        # a second step from them equals a second step from a fresh state
        cfg = config_from_preset("smoke-regress")
        prob = gen_instance(cfg, 0)
        op = prob.op
        start = init_regression(op, prob.y, cfg.rank, cfg.cpca_split)
        first = rgn_step(SolverState.initial(prob, start), prob)
        assert first.contractions is not None
        fresh = prob.y - op.apply(first.model.embed())
        assert np.linalg.norm(first.residual - fresh) <= 1e-12 * np.linalg.norm(fresh)
        chained = rgn_step(first, prob)
        restarted = rgn_step(SolverState.initial(prob, first.model), prob)
        assert np.array_equal(chained.model.weights, restarted.model.weights)
        for fa, fb in zip(chained.model.factors, restarted.model.factors):
            assert np.array_equal(fa, fb)
        for va, vb in zip(chained.contractions, restarted.contractions):
            assert np.array_equal(va, vb)

    def test_component_annihilation_raises(self):
        # a one-component model whose observation is exactly zero after
        # removing the others: the tangent fit collapses to the zero tensor
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        point = dense.point(1.0, (e1, e1))
        y = tc.outer_rank_one(1.0, [e2, e2])  # orthogonal to tangent space
        prob = Problem(op=IdentityOp((2, 2)), y=y.ravel(), rank=1,
                       truth=None)
        state = SolverState.initial(prob, point)
        with pytest.raises(SolverError) as exc_info:
            rgn_step(state, prob)
        assert exc_info.value.component == 0


class TestJointTangentFit:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           shape=st.lists(st.integers(2, 6), min_size=2, max_size=4),
           r=st.integers(1, 3),
           extra=st.integers(0, 10))
    # a certified but ill-conditioned design (cond ~ 1.2e4): the normal
    # equations alone were off by 8.4e-9, refined by 4.4e-12
    @example(seed=21740, shape=[2, 3, 5], r=3, extra=8)
    def test_matches_dense_oracle(self, seed, shape, r, extra):
        # the fit over all components at once, cross-component terms
        # included; where their tangent spaces overlap (small shapes, r = 3)
        # both sides take the minimum-norm split
        shape = tuple(shape)
        rng = np.random.default_rng(seed)
        n = 3 * r * tangent_dim(shape) + extra
        op = GaussianDesignOp.from_raw(rng.standard_normal((n,) + shape))
        model = CPModel.from_factors(rng.uniform(1.0, 3.0, r),
                                     [dense.unit_columns(rng.standard_normal((p, r))) for p in shape])
        rhs = rng.standard_normal(n)
        vs = tc.batched_contract_all_but(op.designs, model.factors, range(len(shape)))
        cores, hs = _fit_tangent(vs, slice(0, r), model.factors, rhs, 1e-10)
        assert_orthogonal(model.factors, hs)
        oracle = dense.joint_tangent_fit(model, op.designs, rhs)
        scale = np.sqrt(sum(tc.fro_norm(xi) ** 2 for xi in oracle))
        for i, xi in enumerate(oracle):
            got = embed_tangent(float(cores[i]), tuple(u[:, i] for u in model.factors),
                                [h[:, i] for h in hs])
            assert tc.fro_norm(got - xi) <= 1e-9 * scale


def rejecting_state():
    """A small noisy regression one Jacobi step past its adjoint-CPCA start,
    where the next full Gauss-Newton step raises the residual and is halved
    twice before one is accepted."""
    cfg = ExperimentConfig(task="regress", dims=(6, 6, 6), rank=3, noise_sd=1.0, seed=21)
    prob = gen_instance(cfg, 0)
    start = init_regression(prob.op, prob.y, cfg.rank, cfg.cpca_split)
    return prob, rgn_step(SolverState.initial(prob, start), prob)


class TestRgnSafeguard:
    def test_halvings_one_pass_each_and_carried_state(self, monkeypatch):
        import segreopt.solvers as solvers

        prob, state = rejecting_state()
        kernel = tc.batched_contract_all_but
        calls = {"kernel": 0, "retract": []}

        def counted(*args):
            calls["kernel"] += 1
            return kernel(*args)

        def recorded(weights, factors, directions):
            # copies: the step writes the new factors over views of the old
            calls["retract"].append(([u.copy() for u in factors], directions))
            return retract(weights, factors, directions)

        retract = solvers.retract_factored
        monkeypatch.setattr(solvers, "batched_contract_all_but", counted)
        monkeypatch.setattr(solvers, "retract_factored", recorded)
        out = rgn_step(state, prob)
        # the full step and every halving: one retraction and one pass each
        trials = len(calls["retract"])
        assert trials == 3
        assert calls["kernel"] == trials
        for factors, directions in calls["retract"]:
            assert_orthogonal(factors, directions)
        assert np.linalg.norm(out.residual) <= np.linalg.norm(state.residual)
        fresh = prob.y - prob.op.apply(out.model.embed())
        assert np.linalg.norm(out.residual - fresh) <= 1e-12 * np.linalg.norm(fresh)
        # the contractions carried are those of the accepted trial
        monkeypatch.undo()
        expected = tc.batched_contract_all_but(prob.op.designs, out.model.factors, range(3))
        for got, want in zip(out.contractions, expected, strict=True):
            assert np.array_equal(got, want)

    def test_residual_never_rises(self):
        prob, state = rejecting_state()
        _, trace = run(prob, SolverConfig(method="rgn", max_iters=30), state.model)
        res = trace.column("residual")
        assert np.all(res[1:] <= (1 + 1e-12) * res[:-1])

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="with full observations a Jacobi RGN step is a unit gradient step "
               "with no safeguard; where the components' tangent spaces overlap it "
               "diverges (residual 15.9, 14.5, 25.5, ..., 1.15e4 by iteration 11; "
               "final rel_fro_err 1.2e8, RGD 0.23) and nothing records it",
    )
    def test_full_observations_do_not_diverge(self):
        # three rank-one terms in a 3 x 3 matrix: the decomposition-side
        # Gauss-Newton system is what should flip this
        summary = run_experiment(ExperimentConfig(task="decompose", dims=(3, 3), rank=3,
                                                  replicates=1, methods=("rgn",)))
        trace = summary.traces["rgn"][0]
        res = trace.column("residual")
        assert np.all(res[1:] <= (1 + 1e-12) * res[:-1])
        assert trace.records[-1].rel_fro_err < 1


class TestRegressionQuadraticPhase:
    def test_jacobi_rgn_converges_quadratically(self):
        # the paper's local quadratic phase, in noiseless regression: from a
        # start inside the basin, the joint Gauss-Newton step reaches
        # round-off within 6 iterations, at a log-log error slope near 2
        cfg = ExperimentConfig(task="regress", dims=(10, 10, 10), rank=3, noise_sd=0.0, seed=7)
        slopes = []
        for rep in range(10):
            prob = gen_instance(cfg, rep)
            truth = prob.truth
            rng = np.random.default_rng(rep)
            init = CPModel.from_factors(1.02 * truth.weights, [
                dense.unit_columns(u + 0.03 * rng.standard_normal(u.shape)) for u in truth.factors])
            _, trace = run(prob, SolverConfig(method="rgn", max_iters=6), init)
            eps = trace.column("rel_fro_err")
            assert eps.min() <= 1e-12, f"replicate {rep}: {eps}"
            pairs = [(eps[t], eps[t + 1]) for t in range(len(eps) - 1)
                     if 1e-8 <= eps[t] <= 1e-1 and eps[t + 1] > 0]
            x, y = np.log(pairs).T
            slopes.append(np.polyfit(x, y, 1)[0])
        assert np.median(slopes) >= 1.8, slopes


class TestRun:
    def test_zero_iters_returns_init(self):
        rng = np.random.default_rng(13)
        truth = dense.orthogonal_model(rng, (4, 4, 4), 2, [2.0, 1.5])
        prob = identity_problem(truth)
        init = perturbed(truth, 0.2, rng)
        model, trace = run(prob, SolverConfig(method="rgn", max_iters=0), init)
        assert len(trace.records) == 1
        assert trace.records[0].iteration == 0
        assert align_and_error(model, init).max_component_error <= 1e-12

    def test_feasibility_every_iterate(self):
        rng = np.random.default_rng(14)
        truth = dense.orthogonal_model(rng, (5, 5, 5), 2, [3.0, 2.0])
        noise = 0.5 * rng.standard_normal(truth.shape)
        prob = identity_problem(truth, noise)
        init = perturbed(truth, 0.2, rng)
        cfg = SolverConfig(method="rgd", step_size=0.2, max_iters=10)
        model, trace = run(prob, cfg, init)
        # the returned model satisfies the invariants (constructor re-checks)
        for f in model.factors:
            assert np.all(np.abs(np.linalg.norm(f, axis=0) - 1.0) <= 1e-12)
        assert np.all(model.weights != 0)

    def test_deterministic_traces(self):
        cfg = ExperimentConfig(task="decompose", dims=(6, 6, 6), rank=2, rho=0.0,
                               noise_sd=0.3, seed=5, replicates=1, max_iters=8)
        prob = gen_instance(cfg, 0)
        init = init_decomposition(prob.y.reshape(cfg.dims), 2, InitSpec(seed=7))
        runs = []
        for _ in range(2):
            _, trace = run(prob, SolverConfig(method="rgn", max_iters=8), init)
            runs.append([(r.iteration, r.rel_fro_err, r.max_comp_err, r.residual)
                         for r in trace.records])
        assert runs[0] == runs[1]

    def test_stopping_on_residual_stall(self):
        rng = np.random.default_rng(15)
        truth = dense.orthogonal_model(rng, (5, 4, 3), 1, [2.0])
        prob = identity_problem(truth)
        # exact fixed point: residual change is zero immediately
        model, trace = run(prob, SolverConfig(method="rgn", max_iters=50), truth)
        assert len(trace.records) < 51

    def test_solver_error_carries_partial_trace(self):
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        point = dense.point(1.0, (e1, e1))
        y = tc.outer_rank_one(1.0, [e2, e2])
        prob = Problem(op=IdentityOp((2, 2)), y=y.ravel(), rank=1, truth=None)
        with pytest.raises(SolverError) as exc_info:
            run(prob, SolverConfig(method="rgn", max_iters=5), point)
        assert exc_info.value.trace is not None
        assert len(exc_info.value.trace.records) >= 1

    def test_failed_run_trace_is_scored(self):
        # the degenerate update above, with a truth attached
        e1, e2 = np.eye(2)
        point, truth = dense.point(1.0, (e1, e1)), dense.point(1.0, (e2, e2))
        prob = Problem(op=IdentityOp((2, 2)), y=truth.embed().ravel(), rank=1, truth=truth)
        with pytest.raises(SolverError, match="component 0") as exc_info:
            run(prob, SolverConfig(method="rgn", max_iters=5), point)
        (row,) = exc_info.value.trace.records
        want = align_and_error(point, truth)
        assert (row.rel_fro_err, row.max_comp_err) == (want.rel_frobenius_error,
                                                       want.max_component_error)

    @pytest.mark.parametrize("failure", ["step", "divergence"])
    def test_trace_of_run_failing_partway_is_scored(self, monkeypatch, failure):
        # the 40th step raises, or leaves a non-finite residual; every row of
        # the trace the error carries, in every batch it is scored in, is
        # scored like align_and_error
        import segreopt.solvers as solvers

        rng = np.random.default_rng(17)
        truth = dense.orthogonal_model(rng, (5, 4, 3), 2, [3.0, 2.0])
        prob = identity_problem(truth, 0.1 * rng.standard_normal(truth.shape))
        init = perturbed(truth, 0.3, rng)
        models = [init]

        def failing(state, problem, alpha):
            new = rgd_step(state, problem, alpha)
            if new.iteration == 40:
                if failure == "step":
                    raise SolverError("update of component 1 failed", component=1)
                new = dataclasses.replace(new, residual=np.full_like(new.residual, np.inf))
            models.append(new.model)
            return new

        monkeypatch.setattr(solvers, "rgd_step", failing)
        with pytest.raises(SolverError, match="component 1" if failure == "step" else "diverged"
                           ) as exc_info:
            run(prob, SolverConfig(method="rgd", max_iters=50), init)
        rows = exc_info.value.trace.records
        assert [r.iteration for r in rows] == list(range(len(models)))
        assert len(rows) == (40 if failure == "step" else 41)
        for row, model in zip(rows, models):
            want = align_and_error(model, truth)
            assert (row.rel_fro_err, row.max_comp_err) == (want.rel_frobenius_error,
                                                           want.max_component_error)

    def test_trace_csv_contract(self, tmp_path):
        rng = np.random.default_rng(16)
        truth = dense.orthogonal_model(rng, (4, 4, 4), 1, [2.0])
        prob = identity_problem(truth)
        _, trace = run(prob, SolverConfig(method="rgd", max_iters=3), perturbed(truth, 0.1, rng))
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iter,rel_fro_err,max_comp_err,residual,wall_ms"
        assert len(lines) == len(trace.records) + 1

    @pytest.mark.parametrize("method", ["rgd", "rgn"])
    def test_divergence_raises_solver_error(self, method):
        # observations so large that the residual norm overflows
        rng = np.random.default_rng(0)
        y = 1e160 * rng.standard_normal(64)
        prob = Problem(op=IdentityOp((4, 4, 4)), y=y, rank=2)
        init = init_decomposition(y.reshape(4, 4, 4), 2, InitSpec(seed=1))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SolverError, match="diverged") as exc_info:
                run(prob, SolverConfig(method=method), init)
            assert len(exc_info.value.trace.records) == 1
            # the step itself overflows inside the retraction
            state = SolverState.initial(prob, init)
            with pytest.raises(SolverError, match="non-finite weight"):
                if method == "rgd":
                    rgd_step(state, prob, 0.2)
                else:
                    rgn_step(state, prob)

    @pytest.mark.parametrize("gauss_seidel", [False, True])
    def test_design_passes_per_iteration(self, monkeypatch, gauss_seidel):
        # RGN reads the design stack once per iteration plus once at the start,
        # and Gauss-Seidel adds one apply per component but the last; RGD reads
        # it twice per iteration (the adjoint of the stored residual and the
        # new residual) whatever the setting
        import segreopt.solvers as solvers

        cfg = config_from_preset("smoke-regress")
        prob = gen_instance(cfg, 0)
        init = init_regression(prob.op, prob.y, cfg.rank, cfg.cpca_split)
        calls = {"kernel": 0, "apply": 0, "adjoint": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(solvers, "batched_contract_all_but",
                            counted("kernel", solvers.batched_contract_all_but))
        monkeypatch.setattr(GaussianDesignOp, "apply", counted("apply", GaussianDesignOp.apply))
        monkeypatch.setattr(GaussianDesignOp, "adjoint",
                            counted("adjoint", GaussianDesignOp.adjoint))
        k = 4
        rgn_applies = 1 + (cfg.rank - 1) * k if gauss_seidel else 1
        for method, expected in (("rgn", {"kernel": k + 1, "apply": rgn_applies, "adjoint": 0}),
                                 ("rgd", {"kernel": 0, "apply": 1 + k, "adjoint": k})):
            calls.update(kernel=0, apply=0, adjoint=0)
            _, trace = run(prob, SolverConfig(method=method, max_iters=k, stop_tol=1e-300,
                                              gauss_seidel=gauss_seidel), init)
            assert len(trace.records) == k + 1
            assert calls == expected, method

    @pytest.mark.parametrize("method", ["rgd", "rgn", "als"])
    def test_no_dense_rank_one_tensor_per_decomposition_iteration(self, monkeypatch, method):
        # the identity residual, the retraction and the trace row all stay in
        # factored form: no outer_rank_one call after the initial trace row
        import segreopt.manifold as manifold

        rng = np.random.default_rng(19)
        truth = dense.orthogonal_model(rng, (6, 5, 4), 3, [3.0, 2.0, 1.5])
        prob = identity_problem(truth, 0.1 * rng.standard_normal(truth.shape))
        init = perturbed(truth, 0.2, rng)
        calls = []

        def counted(weight, factors):
            calls.append(1)
            return dense_outer(weight, factors)

        dense_outer = tc.outer_rank_one
        monkeypatch.setattr(tc, "outer_rank_one", counted)
        monkeypatch.setattr(manifold, "outer_rank_one", counted)
        counts = []
        for k in (0, 4):
            calls.clear()
            _, trace = run(prob, SolverConfig(method=method, max_iters=k, stop_tol=1e-300), init)
            assert len(trace.records) == k + 1
            counts.append(len(calls))
        assert counts[1] - counts[0] == 0

    @pytest.mark.parametrize("gauss_seidel", [False, True])
    @pytest.mark.parametrize("preset", ["smoke-regress", "smoke-decompose"])
    @pytest.mark.parametrize("method", ["rgd", "rgn", "als"])
    def test_no_segre_point_per_iteration(self, monkeypatch, method, preset, gauss_seidel):
        # the steps and the retraction work on the factor matrices: without a
        # truth to score against, an iteration calls none of the single-point
        # functions, which take or return one rank-one tensor as a rank-1 model
        import segreopt.manifold as manifold
        import segreopt.solvers as solvers

        cfg, prob, init = smoke_start(preset)
        prob = Problem(prob.op, prob.y, prob.rank, truth=None)
        calls = []
        for module, name in ((manifold, "_point_factors"), (solvers, "_point_factors"),
                             (manifold, "retract_thosvd")):
            fn = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, fn=fn: calls.append(1) or fn(*args))
        counts = []
        for k in (0, 4):
            calls.clear()
            _, trace = run(prob, SolverConfig(method=method, step_size=cfg.step_size, max_iters=k,
                                              stop_tol=1e-300, gauss_seidel=gauss_seidel), init)
            assert len(trace.records) == k + 1
            counts.append(len(calls))
        assert counts[1] == counts[0]

    @pytest.mark.parametrize("gauss_seidel", [False, True])
    @pytest.mark.parametrize("preset", ["smoke-regress", "smoke-decompose"])
    def test_methods_leave_init_unchanged(self, preset, gauss_seidel):
        # run_experiment hands one starting model to every method in turn
        cfg, prob, init = smoke_start(preset)
        weights, factors = init.weights.tobytes(), [u.tobytes() for u in init.factors]
        for method in ("rgd", "rgn", "als"):
            run(prob, SolverConfig(method=method, step_size=cfg.step_size, max_iters=3,
                                   gauss_seidel=gauss_seidel), init)
            assert init.weights.tobytes() == weights
            assert [u.tobytes() for u in init.factors] == factors
        with pytest.raises(ValueError, match="read-only"):
            init.factors[0][0, 0] = 0.0

    def test_rank_mismatch_rejected(self):
        rng = np.random.default_rng(17)
        truth = dense.orthogonal_model(rng, (4, 4, 4), 2, [2.0, 1.0])
        prob = identity_problem(truth)
        bad_init = dense.columns(truth)[0]
        for method in ("rgd", "rgn", "als"):
            with pytest.raises(ValueError, match="init rank"):
                run(prob, SolverConfig(method=method), bad_init)


class TestNoiselessMonotonePhase:
    def test_rgn_error_nonincreasing_until_tiny(self):
        # from eps0 <= 0.1 the component error decreases monotonically until
        # it crosses 1e-10, in at least 95% of seeded runs
        good = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            truth = dense.orthogonal_model(rng, (12, 10, 8), 2, [3.0, 2.0])
            prob = identity_problem(truth)
            init = perturbed(truth, 0.35, rng)
            if align_and_error(init, truth).max_component_error > 0.1:
                init = perturbed(truth, 0.2, rng)
            state = SolverState.initial(prob, init)
            eps = [align_and_error(state.model, truth).max_component_error]
            monotone = True
            for _ in range(25):
                state = rgn_step(state, prob)
                eps.append(align_and_error(state.model, truth).max_component_error)
                if eps[-1] < 1e-10:
                    break
                if eps[-1] > eps[-2] + 1e-12:
                    monotone = False
                    break
            if monotone and eps[-1] < 1e-10:
                good += 1
        assert good >= 19


class TestTwoPhaseCoherent:
    @pytest.mark.xfail(
        strict=True,
        reason="at eta=0.75 the cross-component terms dominate everywhere below "
               "the stated window top, so the measured contraction exponent stays "
               "near 1 throughout (ratios 0.6-0.95); no super-linear window exists "
               "for the tangent-projected update at this coherence level",
    )
    def test_contraction_exponent_drops_after_threshold(self):
        # stated property: exponent >= 1.8 while eps > eta^(d-1)/10, dropping
        # toward 1 afterwards, on coherent noiseless instances
        from segreopt.harness import gen_coherent_factors
        from segreopt.rng import substream

        def perturb_factors(model, sigma, rng):
            comps = []
            for c in dense.columns(model):
                us = []
                for u in c.factors:
                    v = u[:, 0] + sigma * rng.standard_normal(u.shape[0])
                    us.append(v / np.linalg.norm(v))
                comps.append(dense.point(c.weights[0], us))
            return dense.stack(comps)

        upper_all, lower_all = [], []
        d = 3
        eta = 0.75
        threshold = eta ** (d - 1) * 0.1
        for seed in range(10):
            rng = substream(seed, "rotation")
            mats = [gen_coherent_factors(20, 3, eta, rng) for _ in range(3)]
            truth = CPModel.from_factors(np.full(3, 30.0), mats)
            prob = identity_problem(truth)
            init = perturb_factors(truth, 0.3, substream(seed, "init"))
            state = SolverState.initial(prob, init)
            eps = [align_and_error(state.model, truth).max_component_error]
            for _ in range(40):
                state = rgn_step(state, prob, gauss_seidel=True)
                eps.append(align_and_error(state.model, truth).max_component_error)
            eps = np.array(eps)
            for t in range(len(eps) - 1):
                if eps[t + 1] <= 0 or eps[t] <= 1e-14:
                    continue
                pair = (np.log(eps[t]), np.log(eps[t + 1]))
                (upper_all if eps[t] > threshold else lower_all).append(pair)

        def fit(pairs):
            x = np.array([p[0] for p in pairs])
            y = np.array([p[1] for p in pairs])
            return np.linalg.lstsq(np.vstack([x, np.ones_like(x)]).T, y, rcond=None)[0][0]

        assert len(upper_all) >= 5 and len(lower_all) >= 5
        assert fit(upper_all) >= 1.8
        assert fit(lower_all) <= 1.5


@pytest.mark.parametrize("make, field", [
    (lambda: SolverConfig(max_iters=-3), "max_iters"),
    (lambda: ExperimentConfig(task="decompose", max_iters=-1), "max_iters"),
    (lambda: ExperimentConfig(task="decompose", init_refine_sweeps=-1), "init_refine_sweeps"),
    (lambda: cp_als_decompose(np.ones((2, 2, 2)), 1, _unit_model((2, 2, 2)), -1), "iters"),
    (lambda: cp_als_regress(GaussianDesignOp(np.ones((3, 2, 2, 2))), np.ones(3), 1,
                            _unit_model((2, 2, 2)), -1), "iters"),
], ids=["SolverConfig", "ExperimentConfig.max_iters", "ExperimentConfig.init_refine_sweeps",
        "cp_als_decompose", "cp_als_regress"])
def test_negative_iteration_count_rejected(make, field):
    with pytest.raises(ValueError, match=f"^{field} must be >= 0"):
        make()


@pytest.mark.parametrize("make, message", [
    (lambda: SolverConfig(gauss_seidel="no"), "gauss_seidel must be a bool, got 'no'"),
    (lambda: SolverConfig(stop_tol=True), "stop_tol must be a real number, got True"),
    (lambda: SolverConfig(max_iters=2.5), "max_iters must be an integer, got 2.5"),
    (lambda: SolverConfig(step_size="0.2"), "step_size must be a real number, got '0.2'"),
    (lambda: SolverConfig(pinv_tol=None), "pinv_tol must be a real number, got None"),
    (lambda: cp_als_regress(GaussianDesignOp(np.ones((3, 2, 2, 2))), np.ones(3), 1,
                            _unit_model((2, 2, 2)), 2.5), "max_iters must be an integer, got 2.5"),
], ids=["gauss_seidel-string", "stop_tol-bool", "max_iters-float", "step_size-string",
        "pinv_tol-none", "cp_als_regress-float-iters"])
def test_solver_config_field_of_wrong_type_rejected(make, message):
    # once Gauss-Seidel switched on, a stop after one iteration, or a raw TypeError
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


@pytest.mark.parametrize("cls, name", [
    (cls, f.name) for cls in (SolverConfig, InitSpec, ExperimentConfig)
    for f in dataclasses.fields(cls)
], ids=lambda v: v if isinstance(v, str) else v.__name__)
def test_every_config_field_checks_its_type(cls, name):
    # each field's annotation is its type contract, so a field added later is
    # checked too; a dict is of none of the annotated types
    required = {"task": "decompose"} if cls is ExperimentConfig else {}
    with pytest.raises(ValueError, match=f"^{name} must be "):
        cls(**{**required, name: {}})


def _unit_model(shape):
    return dense.point(1.0, [np.eye(p)[0] for p in shape])
