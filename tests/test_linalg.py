import math

import numpy as np
import pytest

from behaviorcloak import linalg
from behaviorcloak.linalg import (
    gram_solve,
    is_schur,
    lstsq_min_norm,
    matrix_exponential,
    nullspace_basis,
)
from support import RESIDUAL_TOL, pseudoinverse, traced_peak


def random_matrix_of_rank(rng, p, q, r):
    """Product construction: exactly rank r (up to rounding)."""
    if r == 0:
        return np.zeros((p, q))
    return rng.standard_normal((p, r)) @ rng.standard_normal((r, q))


class TestPseudoinverse:
    """``support.pseudoinverse``, the SVD oracle that the Gram solves are checked against."""

    def test_row_of_equal_entries(self):
        # Full-row-rank row: pinv = M' / (M M')
        M = np.array([[0.5, 0.5]])
        np.testing.assert_allclose(pseudoinverse(M), [[1.0], [1.0]], atol=1e-12)

    def test_zero_matrix(self):
        np.testing.assert_array_equal(pseudoinverse(np.zeros((2, 3))), np.zeros((3, 2)))

    def test_invertible_matches_inverse(self):
        M = np.array([[2.0, 1.0], [1.0, 3.0]])
        np.testing.assert_allclose(M @ pseudoinverse(M), np.eye(2), atol=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            pseudoinverse([[np.nan, 1.0]])

    def test_penrose_identities_random_ranks(self):
        rng = np.random.default_rng(1)
        for case in range(100):
            p, q = rng.integers(1, 7, size=2)
            r = int(rng.integers(0, min(p, q) + 1))
            M = random_matrix_of_rank(rng, p, q, r)
            Mp = pseudoinverse(M)
            scale = max(1.0, np.linalg.norm(M))
            assert np.max(np.abs(M @ Mp @ M - M)) <= RESIDUAL_TOL * scale
            assert np.max(np.abs(Mp @ M @ Mp - Mp)) <= RESIDUAL_TOL * max(
                1.0, np.linalg.norm(Mp)
            )
            assert np.max(np.abs((M @ Mp) - (M @ Mp).T)) <= 1e-10 * scale
            assert np.max(np.abs((Mp @ M) - (Mp @ M).T)) <= 1e-10 * scale


class TestNullspaceBasis:
    def test_sum_zero_kernel(self):
        basis = nullspace_basis(np.array([[0.5, 0.5]]))
        assert basis.shape == (2, 1)
        expected = np.array([1.0, -1.0]) / math.sqrt(2.0)
        assert min(
            np.linalg.norm(basis[:, 0] - expected),
            np.linalg.norm(basis[:, 0] + expected),
        ) < 1e-12

    def test_trivial_kernel_zero_width(self):
        assert nullspace_basis(np.eye(3)).shape == (3, 0)

    @pytest.mark.parametrize(
        "M, message",
        [
            (np.zeros((2, 2, 2)), "M must be at most two-dimensional"),
            ([[1.0, np.nan]], "M contains non-finite entries"),
        ],
        ids=["3d", "nan"],
    )
    def test_refusals_are_named(self, M, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            nullspace_basis(M)

    def test_averaging_row_against_projector_oracle(self):
        # Oracle: the orthogonal projector I - M^+ M with M^+ the column of
        # ones (since M M' = 1/3 for M = ones(1,3)/3).
        M = np.ones((1, 3)) / 3.0
        projector = np.eye(3) - np.ones((3, 1)) @ M
        basis = nullspace_basis(M)
        assert basis.shape == (3, 2)
        np.testing.assert_allclose(basis.sum(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(basis.T @ basis, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(basis @ basis.T, projector, atol=1e-12)

    def test_orthonormality_and_width_random(self):
        rng = np.random.default_rng(2)
        for case in range(100):
            p, q = rng.integers(1, 8, size=2)
            r = int(rng.integers(0, min(p, q) + 1))
            M = random_matrix_of_rank(rng, p, q, r)
            basis = nullspace_basis(M)
            assert basis.shape == (q, q - r)
            if basis.shape[1]:
                np.testing.assert_allclose(
                    basis.T @ basis, np.eye(basis.shape[1]), atol=1e-12
                )
                residuals = np.linalg.norm(M @ basis, axis=0)
                assert np.max(residuals) <= RESIDUAL_TOL * max(
                    1.0, np.linalg.norm(M)
                )


    def test_width_agrees_with_matrix_rank(self):
        # One cutoff: the kernel width here and the ranks that UtilitySpec
        # and validate_mode take from numpy's matrix_rank must agree.
        rng = np.random.default_rng(5)
        for case in range(100):
            p, q = rng.integers(1, 8, size=2)
            r = int(rng.integers(0, min(p, q) + 1))
            M = random_matrix_of_rank(rng, p, q, r) * 10.0 ** rng.uniform(-8, 8)
            M[:, rng.integers(q)] *= 10.0 ** rng.uniform(-10, 0)
            assert nullspace_basis(M).shape[1] == q - np.linalg.matrix_rank(M)


class TestLstsqMinNorm:
    def test_identity(self):
        x, res = lstsq_min_norm(np.eye(2), [3.0, 4.0])
        np.testing.assert_allclose(x, [3.0, 4.0])
        assert res == pytest.approx(0.0, abs=1e-12)

    def test_minimum_norm_pick(self):
        x, res = lstsq_min_norm(np.array([[1.0, 1.0]]), [2.0])
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-12)
        assert res == pytest.approx(0.0, abs=1e-12)

    def test_inconsistent_column_scalar_calculus_oracle(self):
        # Minimize (x - 0)^2 + (x - 2)^2: derivative zero at x = 1.
        x_star = 1.0
        M = np.array([[1.0], [1.0]])
        b = np.array([0.0, 2.0])
        oracle_residual = np.linalg.norm(M @ [x_star] - b)
        x, res = lstsq_min_norm(M, b)
        assert x == pytest.approx([x_star], abs=1e-12)
        assert res == pytest.approx(oracle_residual, abs=1e-12)
        assert res == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            lstsq_min_norm(np.eye(2), [1.0, 2.0, 3.0])

    def test_consistent_systems_have_tiny_residual(self):
        rng = np.random.default_rng(3)
        for case in range(100):
            p, q = rng.integers(1, 8, size=2)
            M = rng.standard_normal((p, q))
            x0 = rng.standard_normal(q)
            _, res = lstsq_min_norm(M, M @ x0)
            assert res <= RESIDUAL_TOL * max(1.0, np.linalg.norm(M @ x0))


class TestGramSolve:
    def test_row_space_projection_matches_pseudoinverse(self):
        # M' (M M')^+ M z projects z onto the row space of M, as pinv(M) M z
        # does by SVD; ranks 0..min(p, q), scales 1e-4..1e4.
        rng = np.random.default_rng(6)
        for case in range(200):
            p, q = rng.integers(1, 8, size=2)
            r = int(rng.integers(0, min(p, q) + 1))
            M = random_matrix_of_rank(rng, p, q, r) * 10.0 ** rng.uniform(-4, 4)
            z = rng.standard_normal(q)
            projected = M.T @ gram_solve(M @ M.T, M @ z, max(M.shape))
            expected = pseudoinverse(M) @ (M @ z)
            assert np.linalg.norm(projected - expected) <= 1e-8 * np.linalg.norm(z)

    def test_squared_cutoff(self):
        # Eigenvalues at or below lambda_max * (long_side * eps)^2 are dropped.
        eps = np.finfo(float).eps
        G = np.diag([1.0, (10 * eps) ** 2, 0.5 * (10 * eps) ** 2])
        np.testing.assert_array_equal(
            gram_solve(G, np.ones(3), 8), [1.0, 1.0 / (10 * eps) ** 2, 0.0]
        )
        np.testing.assert_array_equal(gram_solve(G, np.ones(3), 10), [1.0, 0.0, 0.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            gram_solve(np.array([[np.inf]]), [1.0], 1)


class TestEigenvaluesAndSchur:
    def test_diagonal_spectrum(self):
        assert is_schur(np.diag([0.1, 0.2, 0.3]))
        assert not is_schur(np.diag([0.1, 0.2, 1.5]))

    def test_identity_not_strictly_inside(self):
        assert not is_schur(np.eye(2))

    def test_nilpotent(self):
        assert is_schur(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            is_schur(np.ones((2, 3)))


class TestMatrixExponential:
    def test_zero(self):
        np.testing.assert_array_equal(matrix_exponential(np.zeros((3, 3))), np.eye(3))

    def test_nilpotent_series_terminates(self):
        M = np.array([[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(
            matrix_exponential(M), [[1.0, 1.0], [0.0, 1.0]], atol=1e-15
        )

    def test_scalar_against_series_oracle(self):
        # exp(-10) = 1 / exp(10); the series for exp(10) has no cancellation.
        term, total = 1.0, 1.0
        for k in range(1, 60):
            term *= 10.0 / k
            total += term
        oracle = 1.0 / total
        result = matrix_exponential([[-10.0]])[0, 0]
        assert result == pytest.approx(oracle, rel=1e-12)
        assert result == pytest.approx(4.539993e-5, abs=1e-11)

    def test_inverse_consistency_random(self):
        rng = np.random.default_rng(4)
        for case in range(100):
            n = int(rng.integers(1, 6))
            M = rng.standard_normal((n, n))
            norm = np.linalg.norm(M)
            if norm > 5.0:
                M *= 5.0 / norm
            product = matrix_exponential(M) @ matrix_exponential(-M)
            np.testing.assert_allclose(product, np.eye(n), atol=1e-8)

    def test_rotation_needs_scaling_and_squaring(self):
        t = 20.0
        c, s = np.cos(t), np.sin(t)
        np.testing.assert_allclose(
            matrix_exponential([[0.0, t], [-t, 0.0]]), [[c, s], [-s, c]], atol=1e-12
        )


class TestStableNorm:
    """``stable_norm`` and ``stable_row_norms`` against the norm of the unscaled data."""

    @pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e-150, 1.0, 1e160, 1e300])
    def test_norm_is_the_scale_times_the_unit_norm(self, scale):
        # Below 1e-154 the squares underflow, above 1e154 they overflow (the caller
        # silences numpy's overflow warning, as the package's callers do).
        x = np.random.default_rng(5).standard_normal(36000)
        norm = np.linalg.norm(x)
        with np.errstate(over="ignore"):
            assert linalg.stable_norm(scale * x) == pytest.approx(scale * norm, rel=1e-14)
            rows = linalg.stable_row_norms(scale * x.reshape(4, -1))
        expected = scale * np.linalg.norm(x.reshape(4, -1), axis=1)
        np.testing.assert_allclose(rows, expected, rtol=1e-14)

    @pytest.mark.parametrize(
        "x, expected", [([0.0, 0.0], 0.0), ([1.0, np.nan], np.nan), ([1.0, -np.inf], np.inf)]
    )
    def test_zero_nan_and_inf(self, x, expected):
        np.testing.assert_equal(linalg.stable_norm(np.array(x)), expected)
        np.testing.assert_equal(linalg.stable_row_norms(np.array([x])), [expected])

    def test_only_a_rescaled_norm_allocates(self):
        # An array of 36000 floats is 288 KB; the normal norm takes no copy of it.
        x = np.random.default_rng(6).standard_normal((1, 36000))
        assert traced_peak(lambda: linalg.stable_norm(x)) < 4096
        assert traced_peak(lambda: linalg.stable_row_norms(x)) < 4096
        assert traced_peak(lambda: linalg.stable_norm(1e-170 * x)) >= x.nbytes
        assert traced_peak(lambda: linalg.stable_row_norms(1e-170 * x)) >= x.nbytes

    def test_squares_normal_bounds(self):
        tiny, huge = np.finfo(float).tiny, np.finfo(float).max
        small, big = np.sqrt(tiny), np.sqrt(huge)
        norms = np.array([0.0, small / 2, small, 1.0, big, np.inf, np.nan])
        np.testing.assert_array_equal(
            linalg.squares_normal(norms), [False, False, True, True, False, False, False]
        )


class TestProduct:
    """``product`` against ``np.dot``, compared as bytes."""

    @pytest.mark.parametrize("W", [1, 5, 36000])
    @pytest.mark.parametrize("p", [1, 3])
    def test_outer_product_is_np_dot(self, W, p):
        rng = np.random.default_rng(W + p)
        a, b = rng.standard_normal((W, 1)), rng.standard_normal((1, p))
        assert linalg.product(a, b).tobytes() == np.dot(a, b).tobytes()
        out = np.empty((W, p))
        assert linalg.product(a, b, out=out) is out
        assert out.tobytes() == np.dot(a, b).tobytes()

    @pytest.mark.parametrize("N", [1, 3, 36000])
    def test_vector_times_row_is_np_dot(self, N):
        rng = np.random.default_rng(N)
        a, b = rng.standard_normal(1), rng.standard_normal((1, N))
        assert linalg.product(a, b).shape == (N,)
        assert linalg.product(a, b).tobytes() == np.dot(a, b).tobytes()
        out = np.empty(N)
        assert linalg.product(a, b, out=out) is out
        assert out.tobytes() == np.dot(a, b).tobytes()

    def test_a_zero_product_keeps_its_sign(self):
        # BLAS adds each product to +0; the multiply leaves 0 * -1 at -0.
        a, b = np.array([[0.0], [2.0]]), np.array([[-1.0, 3.0]])
        np.testing.assert_array_equal(linalg.product(a, b), np.dot(a, b))
        assert np.signbit(linalg.product(a, b)[0]).tolist() == [True, False]
        assert not np.signbit(np.dot(a, b)[0]).any()

    @pytest.mark.parametrize(
        "a_shape, b_shape", [((7, 2), (2, 3)), ((2,), (2, 5)), ((7, 3), (3,)), ((7, 1), (1,))]
    )
    def test_other_shapes_go_to_np_dot(self, monkeypatch, a_shape, b_shape):
        rng = np.random.default_rng(7)
        a, b = rng.standard_normal(a_shape), rng.standard_normal(b_shape)
        expected, calls = np.dot(a, b), []
        dot = np.dot
        monkeypatch.setattr(np, "dot", lambda *args, **kw: calls.append(1) or dot(*args, **kw))
        assert linalg.product(a, b).tobytes() == expected.tobytes()
        assert calls == [1]

    def test_unit_inner_dimension_skips_np_dot(self, monkeypatch):
        monkeypatch.setattr(np, "dot", None)
        assert linalg.product(np.ones((4, 1)), np.ones((1, 2))).shape == (4, 2)
