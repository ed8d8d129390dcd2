"""Tensor algebra: unfold, Khatri-Rao, compose, norms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpchan.tensor_core import (
    ComplexTensor3,
    FactorTriple,
    compose,
    frobenius_norm,
    khatri_rao,
    unfold,
)
from cpchan.training_design import TrainingDesign


def random_tensor(rng, dims):
    return ComplexTensor3(rng.standard_normal(dims) + 1j * rng.standard_normal(dims))


def random_factors(rng, dims, rank):
    mats = [rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank)) for d in dims]
    return FactorTriple(*mats)


dims_strategy = st.tuples(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=8),
)


class TestUnfold:
    def test_zero_tensor(self):
        X = ComplexTensor3(np.zeros((2, 2, 2), dtype=complex))
        assert unfold(X, 1).shape == (2, 4)
        assert np.all(unfold(X, 1) == 0)

    def test_rank1_mode1_elementwise(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        # brute-force elementwise construction X_{ijk} = a_i b_j c_k
        X = np.empty((2, 3, 4), dtype=complex)
        for i in range(2):
            for j in range(3):
                for k in range(4):
                    X[i, j, k] = a[i] * b[j] * c[k]
        expected = np.outer(a, np.kron(c, b))
        np.testing.assert_allclose(unfold(ComplexTensor3(X), 1), expected, atol=1e-13)

    def test_invalid_mode(self):
        X = ComplexTensor3(np.zeros((2, 2, 2), dtype=complex))
        with pytest.raises(ValueError):
            unfold(X, 0)
        with pytest.raises(ValueError):
            unfold(X, 4)

    @pytest.mark.parametrize("mode", [1, 2, 3])
    def test_unfold_of_compose_matches_khatri_rao_identity(self, mode):
        rng = np.random.default_rng(2)
        F = random_factors(rng, (4, 5, 6), 3)
        X = compose(F)
        others = {
            1: khatri_rao(F.C, F.B) @ F.A.T,
            2: khatri_rao(F.C, F.A) @ F.B.T,
            3: khatri_rao(F.B, F.A) @ F.C.T,
        }[mode].T
        np.testing.assert_allclose(unfold(X, mode), others, atol=1e-12)


class TestKhatriRao:
    def test_scalar(self):
        out = khatri_rao(np.array([[2.0]]), np.array([[3.0]]))
        np.testing.assert_array_equal(out, [[6.0]])

    def test_identity_columns(self):
        out = khatri_rao(np.eye(2), np.eye(2))
        expected = np.zeros((4, 2))
        expected[0, 0] = 1.0
        expected[3, 1] = 1.0
        np.testing.assert_array_equal(out, expected)

    def test_per_column_kron_oracle(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        B = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        out = khatri_rao(A, B)
        for r in range(2):
            np.testing.assert_allclose(out[:, r], np.kron(A[:, r], B[:, r]), atol=1e-14)

    def test_column_mismatch(self):
        with pytest.raises(ValueError):
            khatri_rao(np.eye(2), np.eye(3))


class TestCompose:
    def test_empty_factors(self):
        F = FactorTriple(
            np.zeros((2, 0), dtype=complex),
            np.zeros((3, 0), dtype=complex),
            np.zeros((4, 0), dtype=complex),
        )
        X = compose(F)
        assert X.dims == (2, 3, 4)
        assert np.all(X.data == 0)

    def test_unit_rank_one(self):
        e = lambda n: np.eye(n, 1, dtype=complex)
        X = compose(FactorTriple(e(2), e(2), e(2)))
        expected = np.zeros((2, 2, 2), dtype=complex)
        expected[0, 0, 0] = 1.0
        np.testing.assert_array_equal(X.data, expected)

    def test_elementwise_oracle(self):
        rng = np.random.default_rng(8)
        F = random_factors(rng, (4, 5, 6), 3)
        X = compose(F)
        # triple-loop elementwise sum
        expected = np.zeros((4, 5, 6), dtype=complex)
        for i in range(4):
            for j in range(5):
                for k in range(6):
                    expected[i, j, k] = np.sum(F.A[i] * F.B[j] * F.C[k])
        np.testing.assert_allclose(X.data, expected, atol=1e-12)


class TestNorms:
    def test_zero(self):
        assert frobenius_norm(ComplexTensor3(np.zeros((2, 2, 2), dtype=complex))) == 0.0

    def test_all_ones(self):
        X = ComplexTensor3(np.ones((2, 2, 2), dtype=complex))
        assert frobenius_norm(X) == pytest.approx(np.sqrt(8))

    def test_norm_equals_unfold_norm(self):
        rng = np.random.default_rng(10)
        X = random_tensor(rng, (3, 4, 5))
        for mode in (1, 2, 3):
            assert frobenius_norm(X) == pytest.approx(np.linalg.norm(unfold(X, mode)))

class TestInvariants:
    @settings(max_examples=30, deadline=None)
    @given(dims=dims_strategy, rank=st.integers(1, 4), seed=st.integers(0, 2**31 - 1))
    def test_compose_unfold_consistency(self, dims, rank, seed):
        rng = np.random.default_rng(seed)
        F = random_factors(rng, dims, rank)
        X = compose(F)
        rhs = F.C @ khatri_rao(F.B, F.A).T
        assert np.linalg.norm(unfold(X, 3) - rhs) <= 1e-12 * max(np.linalg.norm(rhs), 1.0)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_mixed_product_identity(self, seed):
        rng = np.random.default_rng(seed)
        A, B, C, D = (
            rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)),
            rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)),
            rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
            rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)),
        )
        lhs = np.kron(A, B) @ np.kron(C, D)
        rhs = np.kron(A @ C, B @ D)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

class TestTypeInvariants:
    def test_dims_positive(self):
        with pytest.raises(ValueError):
            ComplexTensor3(np.zeros((2, 2), dtype=complex))

    def test_immutability(self):
        X = ComplexTensor3(np.zeros((2, 2, 2), dtype=complex))
        with pytest.raises((ValueError, RuntimeError)):
            X.data[0, 0, 0] = 1.0

    def test_factor_column_mismatch(self):
        with pytest.raises(ValueError):
            FactorTriple(np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((2, 2)))

    def test_wrapping_leaves_caller_arrays_writeable(self):
        # the wrappers freeze private copies, never the arrays they were given
        rng = np.random.default_rng(0)
        data = rng.standard_normal((2, 3, 4)) + 0j
        A, B, C = (rng.standard_normal((d, 2)) + 0j for d in (2, 3, 4))
        P, Q, S = (rng.standard_normal((4, 2)) + 0j for _ in range(3))
        X = ComplexTensor3(data)
        F = FactorTriple(A, B, C)
        TrainingDesign(P=P, Q=Q, S=S)
        for arr in (data, A, B, C, P, Q, S):
            assert arr.flags.writeable
        data[0, 0, 0] = 5.0
        A[0, 0] = 5.0
        assert X.data[0, 0, 0] != 5.0 and F.A[0, 0] != 5.0
