import logging

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dense_reference as dense

from segreopt import tensor as tc
from segreopt.manifold import (
    CPModel,
    DegenerateInputError,
    TangentBasis,
    _align_batch,
    align_and_error,
    embed_tangent,
    incoherence,
    project_tangent,
    retract_factored,
    retract_thosvd,
    tangent_basis,
    tangent_dim,
)


def random_point(rng, shape, weight=None):
    us = []
    for p in shape:
        u = rng.standard_normal(p)
        us.append(u / np.linalg.norm(u))
    return dense.point(weight if weight is not None else float(rng.uniform(0.5, 3.0)), us)


def vectors(pt):
    """The factor vectors of a rank-1 model."""
    return tuple(u[:, 0] for u in pt.factors)


def dense_projector(point):
    """Projector as an explicit p* x p* matrix (oracle for small shapes)."""
    p_star = int(np.prod(point.shape))
    cols = []
    for j in range(p_star):
        e = np.zeros(p_star)
        e[j] = 1.0
        cols.append(project_tangent(point, e.reshape(point.shape)).ravel())
    return np.column_stack(cols)


class TestSegrePoint:
    """A point of the Segre manifold, one rank-one tensor, is a rank-1 model,
    checked by ``from_factors``."""

    def test_requires_unit_factors(self):
        with pytest.raises(ValueError):
            CPModel.from_factors([1.0], [np.array([[1.0], [1.0]]), np.array([[1.0], [0.0]])])

    def test_requires_finite_factors(self):
        with pytest.raises(ValueError, match="not unit norm"):
            CPModel.from_factors([1.0], [np.array([[np.nan], [0.0]]), np.array([[1.0], [0.0]])])

    def test_requires_nonzero_weight(self):
        with pytest.raises(ValueError):
            CPModel.from_factors([0.0], [np.array([[1.0], [0.0]]), np.array([[1.0], [0.0]])])

    def test_embed_matches_outer(self):
        rng = np.random.default_rng(0)
        pt = random_point(rng, (3, 4, 2), weight=-2.5)
        assert np.allclose(pt.embed(), tc.outer_rank_one(-2.5, vectors(pt)))
        assert abs(tc.fro_norm(pt.embed()) - 2.5) < 1e-10

    def test_stored_factors_renormalized(self):
        u = np.array([1.0 + 3e-8, 0.0])
        pt = dense.point(1.0, (u, np.array([0.0, 1.0])))
        for f in vectors(pt):
            assert abs(np.linalg.norm(f) - 1.0) <= 1e-12

    def test_no_public_constructor_from_points(self):
        rng = np.random.default_rng(1)
        with pytest.raises(TypeError):
            CPModel((random_point(rng, (2, 2)), random_point(rng, (2, 2))))

    @pytest.mark.parametrize("use", [
        lambda m: project_tangent(m, np.zeros(m.shape)),
        tangent_basis,
        lambda m: TangentBasis(m, np.zeros((1,) + m.shape)),
    ], ids=["project_tangent", "tangent_basis", "TangentBasis"])
    def test_single_point_functions_reject_other_ranks(self, use):
        model = CPModel.from_factors([1.0, 2.0], [np.eye(3)[:, :2]] * 3)
        with pytest.raises(ValueError, match="rank-1 model"):
            use(model)


class TestCPModel:
    @pytest.mark.parametrize("weights,factors,message", [
        ([1.0], [np.ones(3) / np.sqrt(3)] * 3, "mode 0 factor matrix must be 2-D"),
        ([1.0], [np.eye(3)[:, :2]] * 3, "mode 0 factor matrix has 2 columns for 1 weights"),
        ([1.0, 2.0, 3.0], [np.eye(3)[:, :2]] * 3, "mode 0 factor matrix has 2 columns for 3"),
        ([1.0, 2.0], [np.eye(3)[:, :2]], "at least two modes"),
        ([], [np.zeros((3, 0))] * 3, "nonempty vector"),
        ([1.0, 2.0], [np.eye(3)[:, :2], np.eye(3)[:, :2] * [1.0, 1.001]],
         "mode 1 column 1 is not unit norm"),
        ([1.0, 2.0], [np.eye(3)[:, :2], np.array([[1.0, np.nan], [0, 0], [0, 0]])],
         "mode 1 column 1 is not unit norm"),
        ([1.0, 0.0], [np.eye(3)[:, :2]] * 3, "column 1 must be nonzero and finite"),
        ([np.inf, 1.0], [np.eye(3)[:, :2]] * 3, "column 0 must be nonzero and finite"),
        ([1.0, np.nan], [np.eye(3)[:, :2]] * 3, "column 1 must be nonzero and finite"),
    ], ids=["vector-factor", "extra-column", "missing-column", "one-mode", "no-weights",
            "non-unit-column", "nan-column", "zero-weight", "infinite-weight", "nan-weight"])
    def test_from_factors_rejects_bad_input(self, weights, factors, message):
        with pytest.raises(ValueError, match=message):
            CPModel.from_factors(weights, factors)

    def test_factor_matrix_round_trip(self):
        rng = np.random.default_rng(2)
        model = dense.stack(random_point(rng, (4, 3)) for _ in range(3))
        rebuilt = CPModel.from_factors(model.weights, model.factors)
        assert np.allclose(rebuilt.embed(), model.embed())

    @pytest.mark.parametrize("shape", [(4, 3), (2, 5, 3), (3, 2, 4, 2)])
    def test_embed_is_sum_of_outer_products(self, shape):
        rng = np.random.default_rng(3)
        model = dense.stack(random_point(rng, shape) for _ in range(3))
        want = sum(tc.outer_rank_one(c.weights[0], vectors(c)) for c in dense.columns(model))
        got = model.embed()
        assert got.shape == shape
        assert tc.fro_norm(got - want) <= 1e-14 * tc.fro_norm(want)


class TestProjectTangent:
    def test_point_is_fixed(self):
        rng = np.random.default_rng(3)
        pt = random_point(rng, (4, 3, 5))
        x = pt.embed()
        assert np.allclose(project_tangent(pt, x), x, atol=1e-12)

    def test_doubly_orthogonal_direction_killed(self):
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        pt = dense.point(1.0, (e1, e1))
        x = tc.outer_rank_one(1.0, [e2, e2])
        assert np.allclose(project_tangent(pt, x), 0.0)

    def test_idempotent_and_self_adjoint(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            pt = random_point(rng, (3, 4, 2))
            x = rng.standard_normal(pt.shape)
            px = project_tangent(pt, x)
            ppx = project_tangent(pt, px)
            assert np.allclose(ppx, px, atol=1e-10)
            # residual orthogonal to the range
            assert abs(tc.inner(x - px, px)) <= 1e-10 * max(tc.fro_norm(x) ** 2, 1.0)

    def test_contraction(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            pt = random_point(rng, (4, 3))
            x = rng.standard_normal(pt.shape)
            assert tc.fro_norm(project_tangent(pt, x)) <= tc.fro_norm(x) * (1 + 1e-12)

    def test_matches_dense_projector_oracle(self):
        rng = np.random.default_rng(6)
        pt = random_point(rng, (3, 2, 2))
        mat = dense_projector(pt)
        assert np.allclose(mat, mat.T, atol=1e-10)
        assert np.allclose(mat @ mat, mat, atol=1e-10)
        x = rng.standard_normal(pt.shape)
        assert np.allclose(mat @ x.ravel(), project_tangent(pt, x).ravel(), atol=1e-12)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(7)
        pt = random_point(rng, (3, 3))
        with pytest.raises(ValueError):
            project_tangent(pt, np.zeros((2, 2)))

    def test_projector_rank_equals_manifold_dim(self):
        rng = np.random.default_rng(8)
        for shape in [(2, 2), (3, 2), (2, 3, 2), (4, 4, 4)]:
            pt = random_point(rng, shape)
            rank = np.linalg.matrix_rank(dense_projector(pt), tol=1e-8)
            assert rank == tangent_dim(shape)


class TestTangentBasis:
    def test_dimension_d2(self):
        rng = np.random.default_rng(9)
        pt = random_point(rng, (2, 2))
        assert tangent_basis(pt).dim == 3

    def test_gram_is_identity(self):
        rng = np.random.default_rng(10)
        pt = random_point(rng, (4, 3, 2))
        b = tangent_basis(pt)
        flat = b.vectors.reshape(b.dim, -1)
        assert np.allclose(flat @ flat.T, np.eye(b.dim), atol=1e-10)

    def test_vectors_lie_in_tangent_space(self):
        rng = np.random.default_rng(11)
        pt = random_point(rng, (3, 3, 2))
        b = tangent_basis(pt)
        for v in b.vectors:
            assert np.allclose(project_tangent(pt, v), v, atol=1e-10)

    def test_expansion_equals_projector(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            pt = random_point(rng, (4, 3, 5))
            b = tangent_basis(pt)
            x = rng.standard_normal(pt.shape)
            flat = b.vectors.reshape(b.dim, -1)
            expansion = (flat.T @ (flat @ x.ravel())).reshape(pt.shape)
            assert np.allclose(expansion, project_tangent(pt, x), atol=1e-9)


class TestRetraction:
    def test_fixed_point_on_rank_one(self):
        # the same tensor comes back; the representative is canonical, so the
        # weight matches in magnitude (its sign absorbs factor sign flips)
        rng = np.random.default_rng(14)
        pt = random_point(rng, (4, 3, 5), weight=2.0)
        back = retract_thosvd(pt.embed())
        assert np.allclose(back.embed(), pt.embed(), rtol=1e-12, atol=1e-12)
        assert abs(back.weights[0]) == pytest.approx(2.0, rel=1e-12)
        again = retract_thosvd(back.embed())
        assert again.weights[0] == pytest.approx(back.weights[0], rel=1e-12)

    def test_negative_weight_recovered(self):
        rng = np.random.default_rng(15)
        pt = random_point(rng, (3, 3, 3), weight=-1.7)
        back = retract_thosvd(pt.embed())
        assert np.allclose(back.embed(), pt.embed(), rtol=1e-12, atol=1e-12)

    def test_d2_matches_svd_oracle(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            x = rng.standard_normal((8, 6))
            pt = retract_thosvd(x)
            u_mat, s, vt = np.linalg.svd(x)
            u, v = u_mat[:, 0], vt[0]
            # apply the same sign convention as the implementation
            if u[np.argmax(np.abs(u))] < 0:
                u = -u
            if v[np.argmax(np.abs(v))] < 0:
                v = -v
            lam = float(x.ravel() @ np.outer(u, v).ravel())
            assert abs(abs(pt.weights[0]) - s[0]) <= 1e-10 * s[0]
            assert np.allclose(pt.factors[0][:, 0], u, atol=1e-10)
            assert np.allclose(pt.factors[1][:, 0], v, atol=1e-10)
            assert pt.weights[0] == pytest.approx(lam, rel=1e-10)

    def test_second_order_retraction_slope(self):
        rng = np.random.default_rng(17)
        pt = random_point(rng, (6, 5, 4), weight=1.0)
        x = pt.embed()
        xi = project_tangent(pt, rng.standard_normal(pt.shape))
        xi /= tc.fro_norm(xi)
        hs = [1e-1, 1e-2, 1e-3, 1e-4]
        resids = []
        for h in hs:
            target = x + h * xi
            resids.append(tc.fro_norm(retract_thosvd(target).embed() - target))
        slope = np.polyfit(np.log(hs), np.log(resids), 1)[0]
        assert 1.8 <= slope <= 2.2

    def test_zero_tensor_degenerate(self):
        with pytest.raises(DegenerateInputError):
            retract_thosvd(np.zeros((3, 3, 3)))


def one_column(vectors):
    """One-column matrices, the form :func:`retract_factored` takes for a single point."""
    return [np.asarray(v)[:, None] for v in vectors]


class TestFactoredRetraction:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.lists(st.integers(1, 7), min_size=2, max_size=4),
        weight=st.sampled_from(["positive", "negative", "zero"]),
        zero_modes=st.lists(st.booleans(), min_size=4, max_size=4),
    )
    def test_equals_dense_retraction(self, seed, shape, weight, zero_modes):
        rng = np.random.default_rng(seed)
        pt = random_point(rng, tuple(shape))
        w = {"positive": 1.0, "negative": -1.0, "zero": 0.0}[weight] * rng.uniform(0.1, 3.0)
        hs = []
        for u, zero in zip(vectors(pt), zero_modes):
            h = rng.standard_normal(u.size) * rng.uniform(0.01, 2.0)
            h -= np.dot(u, h) * u
            hs.append(np.zeros(u.size) if zero or u.size == 1 else h)
        x = embed_tangent(w, vectors(pt), hs)
        assume(tc.fro_norm(x) > 0.0)
        # the leading singular vectors must be well defined, and the weight
        # clear of round-off (a zero weight in exact arithmetic is degenerate)
        for k in range(x.ndim):
            s = np.linalg.svd(tc.unfold(x, k), compute_uv=False)
            assume(s.size == 1 or s[1] <= 0.999 * s[0])
        try:
            want = retract_thosvd(x)
        except DegenerateInputError:
            assume(False)
        assume(abs(want.weights[0]) >= 1e-6 * tc.fro_norm(x))
        got = retract_factored(np.array([w]), pt.factors, one_column(hs))
        want = want.embed()
        assert tc.fro_norm(got.embed() - want) <= 1e-12 * tc.fro_norm(want)

    def test_zero_input_degenerate(self):
        rng = np.random.default_rng(40)
        pt = random_point(rng, (3, 4, 5))
        with pytest.raises(DegenerateInputError):
            retract_factored(np.zeros(1), pt.factors, [np.zeros((p, 1)) for p in pt.shape])

    def test_zero_weight_degenerate_like_dense(self):
        e1, e2 = np.eye(3)[0], np.eye(3)[1]
        factors = (e1, e1, e1)
        hs = [e2, e2, e2]
        with pytest.raises(DegenerateInputError):
            retract_thosvd(embed_tangent(0.0, factors, hs))
        with pytest.raises(DegenerateInputError):
            retract_factored(np.zeros(1), one_column(factors), one_column(hs))

    def test_zero_direction_keeps_factor(self):
        rng = np.random.default_rng(41)
        pt = random_point(rng, (4, 5, 3))
        us = vectors(pt)
        h = rng.standard_normal(5)
        h -= np.dot(us[1], h) * us[1]
        got = retract_factored(pt.weights, pt.factors, one_column([np.zeros(4), h, np.zeros(3)]))
        for k in (0, 2):
            u = us[k]
            assert np.allclose(got.factors[k][:, 0], u if u[np.argmax(np.abs(u))] > 0 else -u,
                               rtol=0, atol=1e-15)

    def test_tie_warns_like_dense(self, caplog):
        e1, e2 = np.eye(3)[0], np.eye(3)[1]
        factors = (e1, e1)
        hs = [e2, e2]  # e2 ⊗ e1 + e1 ⊗ e2 has two equal singular values
        for retract in (lambda: retract_thosvd(embed_tangent(0.0, factors, hs)),
                        lambda: retract_factored(np.zeros(1), one_column(factors), one_column(hs))):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="segreopt.manifold"):
                try:
                    retract()
                except DegenerateInputError:
                    pass  # the tied vectors taken may pair to a zero weight
            assert any("tied" in m for m in caplog.messages)


    def test_direction_along_its_factor_degenerate(self):
        # h_0 = u_0 / 2 is not orthogonal to u_0, so the new factor is off the
        # unit sphere: a degenerate column, not a raw ValueError
        e4, e3 = np.eye(4)[0], np.eye(3)[0]
        with pytest.raises(DegenerateInputError, match="column 0 is not unit norm") as exc_info:
            retract_factored(np.array([1.0]), one_column([e4, e3]),
                             one_column([0.5 * e4, np.zeros(3)]))
        assert exc_info.value.column == 0

    def test_first_bad_column_named(self):
        rng = np.random.default_rng(42)
        pts = [random_point(rng, (3, 4, 2)) for _ in range(3)]
        factors = [np.hstack([p.factors[k] for p in pts]) for k in range(3)]
        weights = np.array([pts[0].weights[0], 0.0, 0.0])
        directions = [np.zeros_like(u) for u in factors]  # columns 1 and 2 are zero
        with pytest.raises(DegenerateInputError, match="column 1") as exc_info:
            retract_factored(weights, factors, directions)
        assert exc_info.value.column == 1


def perturbed_copy(truth, rng, scale):
    """``truth`` with its components permuted, every factor and weight sign
    drawn at random, and every factor and weight perturbed at ``scale``."""
    comps = []
    for i in rng.permutation(truth.rank):
        c = dense.columns(truth)[i]
        fs = []
        for u in vectors(c):
            v = rng.choice([-1.0, 1.0]) * (u + scale * rng.standard_normal(u.size))
            fs.append(v / np.linalg.norm(v))
        w = rng.choice([-1.0, 1.0]) * c.weights[0] * (1.0 + scale * rng.standard_normal())
        comps.append(dense.point(w, fs))
    return dense.stack(comps)


def greedy_margin(estimate, truth):
    """Smallest margin, over the greedy matching's steps, by which the
    picked correlation beats the others in its row and column.  Near-ties
    between entries in different rows and columns do not change the result:
    both get picked."""
    corr = np.abs(np.prod([u.T @ x for u, x in zip(estimate.factors, truth.factors)], axis=0))
    margin = np.inf
    for _ in range(truth.rank):
        i, j = np.unravel_index(int(np.argmax(corr)), corr.shape)
        rivals = np.concatenate([np.delete(corr[i], j), np.delete(corr[:, j], i)])
        if rivals.size:
            margin = min(margin, corr[i, j] - rivals.max())
        corr = np.delete(np.delete(corr, i, axis=0), j, axis=1)
    return margin


class TestAgainstDenseReference:
    """The factored kernels against the dense forms in ``dense_reference``."""

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.lists(st.integers(2, 6), min_size=2, max_size=4),
        r=st.integers(1, 3),
        log_scale=st.floats(-14.0, -1.0),
    )
    def test_align_and_error_matches_dense(self, seed, shape, r, log_scale):
        rng = np.random.default_rng(seed)
        truth = dense.stack(
            random_point(rng, tuple(shape), weight=float(rng.choice([-1, 1]) * rng.uniform(0.5, 3.0)))
            for _ in range(r))
        est = perturbed_copy(truth, rng, 10.0**log_scale)
        assume(greedy_margin(est, truth) > 1e-9)
        got = align_and_error(est, truth)
        want = dense.align_and_error(est, truth)
        assert got.permutation == want.permutation
        assert got.sign_flips == want.sign_flips
        assert abs(got.max_component_error - want.max_component_error) <= 1e-13
        assert abs(got.rel_frobenius_error - want.rel_frobenius_error) <= 1e-13
        assert np.array_equal(got.aligned.weights, want.aligned.weights)
        assert all(np.array_equal(f, g) for f, g in zip(got.aligned.factors, want.aligned.factors))

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.lists(st.integers(2, 6), min_size=2, max_size=4),
        r=st.integers(1, 3),
    )
    def test_batched_retraction_matches_dense_per_column(self, seed, shape, r):
        rng = np.random.default_rng(seed)
        factors, directions = [], []
        for p in shape:
            u = rng.standard_normal((p, r))
            u /= np.linalg.norm(u, axis=0)
            h = rng.standard_normal((p, r)) * rng.uniform(0.01, 2.0, size=r)
            h -= u * np.einsum("ai,ai->i", u, h)
            h[:, rng.random(r) < 0.25] = 0.0
            factors.append(u)
            directions.append(h)
        weights = rng.choice([-1.0, 1.0], size=r) * rng.uniform(0.1, 3.0, size=r)
        want = dense.retract_columns(weights, factors, directions)
        for i in range(r):
            x = embed_tangent(weights[i], tuple(u[:, i] for u in factors),
                              [h[:, i] for h in directions])
            # the leading singular vectors must be well defined, and the
            # weight clear of round-off
            for k in range(x.ndim):
                s = np.linalg.svd(tc.unfold(x, k), compute_uv=False)
                assume(s[1] <= 0.999 * s[0])
            assume(abs(want[i].weights[0]) >= 1e-6 * tc.fro_norm(x))
        got = retract_factored(weights, factors, directions)
        for g, w in zip(dense.columns(got), want):
            assert tc.fro_norm(g.embed() - w.embed()) <= 1e-12 * tc.fro_norm(w.embed())


class TestIncoherence:
    def test_orthonormal_factors_zero(self):
        eye = np.eye(4)
        model = CPModel.from_factors([1.0, 2.0], [eye[:, :2]] * 3)
        mus, eta = incoherence(model)
        assert mus == [0.0, 0.0, 0.0]
        assert eta == 0.0

    def test_identical_components_maximal(self):
        rng = np.random.default_rng(18)
        pt = random_point(rng, (5, 5))
        model = dense.stack([pt, dense.point(2.0, vectors(pt))])
        mus, eta = incoherence(model)
        assert mus[0] == pytest.approx(5.0, rel=1e-12)
        assert eta == pytest.approx(1.0, rel=1e-12)

    def test_rank_one_is_zero_by_convention(self):
        rng = np.random.default_rng(19)
        model = random_point(rng, (3, 3))
        assert incoherence(model) == ([0.0, 0.0], 0.0)

    def test_ar1_eta_is_rho_and_rotation_invariant(self):
        from segreopt.harness import gen_coherent_factors
        rng = np.random.default_rng(20)
        rho = 0.75
        mats = [gen_coherent_factors(12, 3, rho, rng) for _ in range(3)]
        model = CPModel.from_factors([1.0, 1.0, 1.0], mats)
        _, eta = incoherence(model)
        assert eta == pytest.approx(rho, abs=1e-10)
        # direct pairwise-product oracle
        worst = max(abs(float(m[:, i] @ m[:, j]))
                    for m in mats for i in range(3) for j in range(3) if i != j)
        assert eta == pytest.approx(worst, abs=1e-12)


class TestAlignAndError:
    def _model(self, rng, shape=(4, 3, 2), r=3):
        return dense.stack(random_point(rng, shape, weight=float(rng.uniform(1, 3)))
                           for _ in range(r))

    def test_identical_models(self):
        rng = np.random.default_rng(21)
        m = self._model(rng)
        rep = align_and_error(m, m)
        assert rep.max_component_error == 0.0
        assert rep.rel_frobenius_error == 0.0
        assert rep.permutation == (0, 1, 2)

    def test_reversed_order_matched(self):
        rng = np.random.default_rng(22)
        m = self._model(rng)
        rev = dense.stack(reversed(dense.columns(m)))
        rep = align_and_error(rev, m)
        assert rep.max_component_error <= 1e-12
        assert rep.permutation == (2, 1, 0)

    def test_sign_group_all_patterns(self):
        # every sign pattern of the factors is undone via the weight flip
        rng = np.random.default_rng(23)
        m = self._model(rng, r=2)
        first, second = dense.columns(m)
        for pattern in range(8):
            signs = [(-1.0 if pattern & (1 << l) else 1.0) for l in range(3)]
            flipped = dense.point(first.weights[0],
                                  [s * f for s, f in zip(signs, vectors(first))])
            est = dense.stack([flipped, second])
            rep = align_and_error(est, m)
            assert rep.max_component_error <= 1e-12
            expected_flip = -1 if np.prod(signs) < 0 else 1
            assert rep.sign_flips[0] == expected_flip

    def test_rank_mismatch(self):
        rng = np.random.default_rng(24)
        m = self._model(rng, r=2)
        with pytest.raises(ValueError):
            align_and_error(m, dense.columns(m)[0])

    def test_reported_metrics_match_direct_computation(self):
        rng = np.random.default_rng(25)
        truth = self._model(rng)
        est = dense.stack(
            retract_thosvd(c.embed() + 0.05 * abs(c.weights[0]) * rng.standard_normal(c.shape))
            for c in dense.columns(truth))
        rep = align_and_error(est, truth)
        direct_max = max(
            tc.fro_norm(e.embed() - t.embed()) / abs(t.weights[0])
            for e, t in zip(dense.columns(rep.aligned), dense.columns(truth)))
        assert rep.max_component_error == pytest.approx(direct_max, rel=1e-12)
        direct_rel = tc.fro_norm(rep.aligned.embed() - truth.embed()) / tc.fro_norm(truth.embed())
        assert rep.rel_frobenius_error == pytest.approx(direct_rel, rel=1e-9)


    def test_aligned_is_built_on_first_access(self, monkeypatch):
        # scoring reads only the errors: no model is built per report
        rng = np.random.default_rng(26)
        truth = self._model(rng)
        est = CPModel.from_factors(-truth.weights[::-1], [u[:, ::-1] for u in truth.factors])
        built = []
        of = CPModel._of.__func__
        monkeypatch.setattr(CPModel, "_of",
                            classmethod(lambda cls, *args: built.append(1) or of(cls, *args)))
        rep = align_and_error(est, truth)
        assert built == []
        aligned = rep.aligned
        assert built == [1] and rep.aligned is aligned
        assert rep.permutation == (2, 1, 0) and rep.sign_flips == (-1, -1, -1)
        assert np.array_equal(aligned.weights, truth.weights)


class TestBatchedScoring:
    """``_align_batch``, which scores a run's trace, row by row against
    ``align_and_error``.  A mutation this must catch: dropping the column
    exclusion ``scratch[models, :, j] = -1.0`` from the batched matching,
    which then matches two estimate components to one truth component."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.lists(st.integers(2, 7), min_size=2, max_size=4, unique=True),
        r=st.integers(1, 4),
        # per estimate, the log10 of its perturbation; None for an exact copy
        log_scales=st.lists(st.one_of(st.none(), st.floats(-15.0, 0.5)), min_size=1, max_size=6),
    )
    def test_batch_matches_align_and_error_per_model(self, seed, shape, r, log_scales):
        rng = np.random.default_rng(seed)
        truth = CPModel.from_factors(
            rng.choice([-1.0, 1.0], r) * rng.uniform(0.5, 3.0, r),
            [u / np.linalg.norm(u, axis=0) for u in (rng.standard_normal((p, r)) for p in shape)])
        estimates = []
        for log_scale in log_scales:
            # a permuted, sign-flipped and perturbed copy of the truth
            eps = 0.0 if log_scale is None else 10.0**log_scale
            perm = rng.permutation(r)
            signs = rng.choice([-1.0, 1.0], (len(shape), r))
            factors = [u[:, perm] * s + eps * rng.standard_normal(u.shape)
                       for u, s in zip(truth.factors, signs)]
            weights = (truth.weights[perm] * np.prod(signs, axis=0)
                       * (1.0 + eps * rng.standard_normal(r)))
            estimates.append(CPModel.from_factors(
                weights, [u / np.linalg.norm(u, axis=0) for u in factors]))
        batch = _align_batch(estimates, truth)
        for t, est in enumerate(estimates):
            rel, max_err, perm, flips = (a[t] for a in batch)
            want = align_and_error(est, truth)
            assert sorted(perm.tolist()) == list(range(r))
            assert rel == want.rel_frobenius_error
            assert max_err == want.max_component_error
            assert tuple(perm.tolist()) == want.permutation
            assert tuple(flips.tolist()) == want.sign_flips

    def test_models_of_another_rank_rejected(self):
        rng = np.random.default_rng(27)
        truth = dense.stack(random_point(rng, (3, 4)) for _ in range(2))
        with pytest.raises(ValueError, match="rank mismatch"):
            _align_batch([truth, dense.columns(truth)[0]], truth)


class TestPerturbationBounds:
    """Numerical checks of the tangent-space perturbation inequalities."""

    def test_own_component_quadratic_bound(self):
        rng = np.random.default_rng(26)
        d = 3
        checked = 0
        while checked < 100:
            truth = random_point(rng, (6, 5, 4), weight=float(rng.uniform(1.0, 4.0)))
            t_emb = truth.embed()
            delta = rng.standard_normal(truth.shape)
            delta *= rng.uniform(0.01, 1.0 / (4 * d)) * abs(truth.weights[0]) / tc.fro_norm(delta)
            est = retract_thosvd(t_emb + delta)
            diff = tc.fro_norm(est.embed() - t_emb)
            if diff / abs(truth.weights[0]) > 1.0 / (4 * d):
                continue
            checked += 1
            resid = tc.fro_norm(t_emb - project_tangent(est, t_emb))
            assert resid <= 3 * d * diff**2 / abs(truth.weights[0]) + 1e-12

    def test_cross_component_bound(self):
        from segreopt.harness import gen_coherent_factors
        rng = np.random.default_rng(27)
        d = 3
        checked = 0
        while checked < 100:
            rho = float(rng.choice([0.0, 0.3, 0.6]))
            mats = [gen_coherent_factors(8, 2, rho, rng) for _ in range(d)]
            lams = rng.uniform(1.0, 3.0, size=2)
            truth = CPModel.from_factors(lams, mats)
            _, eta = incoherence(truth)
            ests, diffs = [], []
            ok = True
            for c in dense.columns(truth):
                delta = rng.standard_normal(c.shape)
                delta *= rng.uniform(0.01, 1.0 / (4 * d)) * abs(c.weights[0]) / tc.fro_norm(delta)
                e = retract_thosvd(c.embed() + delta)
                if tc.inner(e.embed(), c.embed()) < 0:
                    ok = False
                    break
                ests.append(e)
                diffs.append(tc.fro_norm(e.embed() - c.embed()))
            if not ok:
                continue
            checked += 1
            for i, j in ((0, 1), (1, 0)):
                comps = dense.columns(truth)
                lhs = tc.fro_norm(project_tangent(ests[i], ests[j].embed() - comps[j].embed()))
                eps_i = diffs[i] / abs(comps[i].weights[0])
                eps_j = diffs[j] / abs(comps[j].weights[0])
                rhs = (np.sqrt(2) * (d + 1) * diffs[j]
                       * ((eps_j + eta) ** (d - 1) + eps_i))
                assert lhs <= rhs + 1e-12
