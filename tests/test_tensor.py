import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import contract_all_but, refold

from segreopt import tensor as tc


def random_tensor(rng, shape):
    return rng.standard_normal(shape)


shapes = st.lists(st.integers(min_value=1, max_value=4), min_size=2, max_size=4)


class TestOuterRankOne:
    def test_basis_outer_product(self):
        t = tc.outer_rank_one(1.0, [np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        expected = np.zeros((2, 2))
        expected[0, 1] = 1.0
        assert np.array_equal(t, expected)

    def test_zero_weight_annihilates(self):
        t = tc.outer_rank_one(0.0, [np.ones(3), np.ones(2), np.ones(4)])
        assert np.array_equal(t, np.zeros((3, 2, 4)))

    def test_all_ones_scaling(self):
        t = tc.outer_rank_one(2.0, [np.ones(2)] * 3)
        assert np.array_equal(t, np.full((2, 2, 2), 2.0))

    def test_empty_factor_rejected(self):
        with pytest.raises(ValueError):
            tc.outer_rank_one(1.0, [np.ones(2), np.array([])])

    def test_single_factor_rejected(self):
        with pytest.raises(ValueError):
            tc.outer_rank_one(1.0, [np.ones(2)])


class TestUnfold:
    def test_matrix_unfold_is_outer(self):
        u = np.array([1.0, 2.0, 3.0])
        v = np.array([4.0, 5.0])
        t = tc.outer_rank_one(1.0, [u, v])
        assert np.allclose(tc.unfold(t, 0), np.outer(u, v))
        assert np.allclose(tc.unfold(t, 1), np.outer(v, u))

    def test_enumerated_entries_match_index_oracle(self):
        # Entries 1..8 in the documented C storage order; the oracle places
        # each entry by walking all multi-indices explicitly.
        t = np.arange(1.0, 9.0).reshape(2, 2, 2)
        for mode in range(3):
            rest = [l for l in range(3) if l != mode]
            oracle = np.zeros((2, 4))
            for idx in itertools.product(range(2), range(2), range(2)):
                col = idx[rest[0]] * 2 + idx[rest[1]]
                oracle[idx[mode], col] = t[idx]
            assert np.array_equal(tc.unfold(t, mode), oracle)

    def test_round_trip_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = rng.integers(2, 5)
            shape = tuple(int(s) for s in rng.integers(1, 5, size=d))
            t = random_tensor(rng, shape)
            for mode in range(d):
                assert np.array_equal(refold(tc.unfold(t, mode), mode, shape), t)

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError):
            tc.unfold(np.zeros((2, 2)), 2)

    @given(shapes, st.integers(min_value=0, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, shape, mode):
        mode = mode % len(shape)
        rng = np.random.default_rng(abs(hash(tuple(shape))) % 2**32)
        t = rng.standard_normal(tuple(shape))
        assert np.array_equal(refold(tc.unfold(t, mode), mode, tuple(shape)), t)


class TestInner:
    def test_all_ones(self):
        t = np.ones((2, 2, 2))
        assert tc.inner(t, t) == 8.0

    def test_zero(self):
        rng = np.random.default_rng(6)
        t = random_tensor(rng, (3, 3))
        assert tc.inner(t, np.zeros_like(t)) == 0.0

    def test_factorization_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a, c = rng.standard_normal((2, 4))
            b, d = rng.standard_normal((2, 3))
            lhs = tc.inner(tc.outer_rank_one(1.0, [a, b]), tc.outer_rank_one(1.0, [c, d]))
            direct = sum(a[i] * b[j] * c[i] * d[j] for i in range(4) for j in range(3))
            assert lhs == pytest.approx(float(np.dot(a, c) * np.dot(b, d)), rel=1e-12)
            assert lhs == pytest.approx(direct, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            tc.inner(np.zeros((2, 2)), np.zeros((2, 3)))

    @given(shapes)
    @settings(max_examples=40, deadline=None)
    def test_norm_consistency(self, shape):
        rng = np.random.default_rng(abs(hash(tuple(shape))) % 2**32)
        t = rng.standard_normal(tuple(shape))
        nrm = tc.fro_norm(t)
        assert abs(tc.inner(t, t) - nrm**2) <= 1e-12 * max(nrm**2, 1e-30)
        for mode in range(len(shape)):
            m_nrm = np.linalg.norm(tc.unfold(t, mode))
            assert abs(nrm - m_nrm) <= 1e-12 * max(nrm, 1e-30)


class TestContractions:
    def test_contract_all_modes_matches_inner(self):
        rng = np.random.default_rng(8)
        t = random_tensor(rng, (3, 4, 2))
        vecs = [rng.standard_normal(p) for p in t.shape]
        assert tc.contract_all_modes(t, vecs) == pytest.approx(
            tc.inner(t, tc.outer_rank_one(1.0, vecs)), rel=1e-12)

    def test_contract_all_but_matches_loops(self):
        rng = np.random.default_rng(9)
        t = random_tensor(rng, (3, 4, 2))
        vecs = [rng.standard_normal(p) for p in t.shape]
        for keep in range(3):
            got = contract_all_but(t, vecs, keep)
            oracle = np.zeros(t.shape[keep])
            for idx in itertools.product(*(range(p) for p in t.shape)):
                prod = t[idx]
                for l in range(3):
                    if l != keep:
                        prod *= vecs[l][idx[l]]
                oracle[idx[keep]] += prod
            assert np.allclose(got, oracle)

    def test_batched_matches_scalar_version(self, monkeypatch):
        rng = np.random.default_rng(10)
        for shape, r, n in itertools.product([(5, 2), (3, 4, 2), (2, 3, 4, 2)], [1, 3], [3, 10]):
            stack = rng.standard_normal((n,) + shape)
            # blocks of 4 tensors: n=10 ends in a partial block, n=3 fits in one
            monkeypatch.setattr(tc, "_BLOCK_BYTES", 4 * stack[0].nbytes)
            factors = [rng.standard_normal((p, r)) for p in shape]
            d = len(shape)
            for keep in [tuple(range(d)), (d - 1, 0), (d - 1,)]:
                got = tc.batched_contract_all_but(stack, factors, keep)
                assert len(got) == len(keep)
                for out, k in zip(got, keep):
                    expected = np.empty((n, shape[k], r))
                    for m in range(n):
                        for i in range(r):
                            expected[m, :, i] = contract_all_but(
                                stack[m], [f[:, i] for f in factors], k)
                    assert out.shape == expected.shape
                    assert np.allclose(out, expected, rtol=0, atol=1e-12)


def unsplit_kernel(stack, factors, keep):
    """``batched_contract_all_but`` as one function, before its head product
    and head contraction became separate stages: the split must not move a
    bit of its output."""
    keep = tuple(keep)
    n, p0 = stack.shape[:2]
    shape = stack.shape[1:]
    d = len(shape)
    r = factors[0].shape[1]
    rest = stack[0].size // p0
    outs = [np.empty((n, shape[k], r)) for k in keep]
    kr = tc.khatri_rao(list(factors[1:])) if 0 in keep else None
    modes = "abcdefghijklmnopqrstuvwx"[:d]
    others = {k: [l for l in range(1, d) if l != k] for k in keep if k > 0}
    subs = {k: ",".join(["YZ" + modes[1:]] + [modes[l] + "Z" for l in ls]) + f"->Y{modes[k]}Z"
            for k, ls in others.items()}
    step = max(1, tc._BLOCK_BYTES // stack[0].nbytes)
    for lo in range(0, n, step):
        block = stack[lo : lo + step]
        b = block.shape[0]
        if others:
            head = np.matmul(factors[0].T, block.reshape(b, p0, rest)).reshape((b, r) + shape[1:])
        for out, k in zip(outs, keep):
            if k == 0:
                out[lo : lo + b] = (block.reshape(b * p0, rest) @ kr).reshape(b, p0, r)
                continue
            out[lo : lo + b] = np.einsum(subs[k], head, *(factors[l] for l in others[k]))
    return outs


class TestKernelStages:
    CASES = [((5, 4, 3), (0,)), ((5, 4, 3), (1, 2)), ((5, 4, 3), (0, 1, 2)),
             ((3, 4, 2, 3), (0, 1, 2, 3)), ((3, 4, 2, 3), (3, 1)), ((6, 5), (0, 1))]

    @pytest.mark.parametrize("shape,keep", CASES)
    def test_kernel_bit_identical_to_unsplit_form(self, monkeypatch, shape, keep):
        rng = np.random.default_rng(12)
        stack = rng.standard_normal((23,) + shape)
        # blocks of 5 tensors: 23 ends in a partial block of 3
        monkeypatch.setattr(tc, "_BLOCK_BYTES", 5 * stack[0].nbytes)
        factors = [rng.standard_normal((p, 3)) for p in shape]
        got = tc.batched_contract_all_but(stack, factors, keep)
        want = unsplit_kernel(stack, factors, keep)
        assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))

    @pytest.mark.parametrize("shape", [(6, 5), (5, 4, 3), (3, 4, 2, 3)])
    def test_whole_stack_head_matches_kernel_bitwise(self, monkeypatch, shape):
        # ALS contracts one head of the whole stack; the kernel one per block
        rng = np.random.default_rng(13)
        stack = rng.standard_normal((23,) + shape)
        monkeypatch.setattr(tc, "_BLOCK_BYTES", 5 * stack[0].nbytes)
        factors = [rng.standard_normal((p, 2)) for p in shape]
        head = tc.design_head(stack, factors[0])
        assert head.shape == (23, 2) + shape[1:]
        want = tc.batched_contract_all_but(stack, factors, range(1, len(shape)))
        for k, expected in enumerate(want, start=1):
            assert np.array_equal(tc.contract_head(head, factors, k), expected)


class TestKhatriRao:
    def test_columns_match_unfolded_outer(self):
        rng = np.random.default_rng(11)
        mats = [rng.standard_normal((p, 2)) for p in (3, 4, 2)]
        kr = tc.khatri_rao([mats[1], mats[2]])
        for i in range(2):
            t = tc.outer_rank_one(1.0, [m[:, i] for m in mats])
            assert np.allclose(tc.unfold(t, 0)[0] / mats[0][0, i], kr[:, i])

    def test_column_count_mismatch(self):
        with pytest.raises(ValueError):
            tc.khatri_rao([np.zeros((2, 2)), np.zeros((3, 4))])


def test_check_tensor_rejects_vectors():
    with pytest.raises(ValueError):
        tc.check_tensor(np.zeros(3))
