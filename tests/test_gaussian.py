"""Gaussian construction, conditioning, entropy, and seeded sampling."""

import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gffresist import (
    DEGENERATE_ENTROPY,
    ConstraintSet,
    DegenerateEntropy,
    GaussianVector,
    condition_on_value,
    condition_on_zero,
    entropy_scalar,
    independent_gaussian,
    linear_functional_variance,
    sample,
    sum_independent,
)
from gffresist import gaussian
from gffresist.errors import (
    DimensionMismatchError,
    InconsistentConstraintError,
    NegativeVarianceError,
    NonpositiveVarianceError,
    ValidationError,
)

from gffresist.gaussian import (
    condition_diagonal,
    conditioned_variance,
    functional_draws,
    functional_root,
)

HALF_LN_2PIE = 0.5 * math.log(2.0 * math.pi * math.e)


def schur_condition_single_row(cov: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Oracle for one constraint row: cov - cov m' m cov / (m cov m')."""
    m_cov = row @ cov
    return cov - np.outer(m_cov, m_cov) / (row @ cov @ row)


class TestConstruction:
    def test_independent_diag(self):
        g = independent_gaussian([1.0, 2.0])
        np.testing.assert_allclose(g.covariance, np.diag([1.0, 2.0]))
        np.testing.assert_allclose(g.mean, 0.0)

    def test_scalar(self):
        g = independent_gaussian([1.0])
        np.testing.assert_allclose(g.covariance, [[1.0]])

    def test_zero_variance_rejected(self):
        with pytest.raises(NonpositiveVarianceError):
            independent_gaussian([1.0, 0.0])

    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(ValidationError):
            GaussianVector(np.zeros(2), np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_indefinite_covariance_rejected(self):
        with pytest.raises(ValidationError):
            GaussianVector(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_point_mass_is_legal(self):
        g = GaussianVector(np.array([1.0, -1.0]), np.zeros((2, 2)))
        assert g.dim == 2


# Covariances with the verdict GaussianVector must reach at every scale:
# (name, matrix, accepted).
SCALED_COVARIANCES = [
    ("diagonal", [[1.0, 0.0], [0.0, 2.0]], True),
    ("singular", [[1.0, 1.0], [1.0, 1.0]], True),
    ("point-mass", [[0.0, 0.0], [0.0, 0.0]], True),
    ("rounding-negative", [[1.0, 0.0], [0.0, -1e-13]], True),
    ("asymmetric", [[1.0, 0.5], [0.2, 1.0]], False),
    ("indefinite", [[1.0, 2.0], [2.0, 1.0]], False),
    ("slightly-negative", [[1.0, 0.0], [0.0, -1e-9]], False),
]


class TestUnitFreeTolerances:
    @pytest.mark.parametrize("t", [10.0 ** k for k in range(-12, 13, 3)])
    @pytest.mark.parametrize("name,cov,accepted", SCALED_COVARIANCES,
                             ids=[case[0] for case in SCALED_COVARIANCES])
    def test_verdict_does_not_depend_on_scale(self, t, name, cov, accepted):
        scaled = t * np.array(cov)
        if accepted:
            GaussianVector(np.zeros(2), scaled)
        else:
            with pytest.raises(ValidationError):
                GaussianVector(np.zeros(2), scaled)

    @pytest.mark.parametrize("t", [10.0 ** k for k in range(-12, 13, 3)])
    def test_negative_variance_verdict_does_not_depend_on_scale(self, t):
        # Both covariances pass the PSD check; a variance of -1e-11 of the
        # trace is an error, one of -1e-14 is rounding and clamps to 0.
        wrong = GaussianVector(np.zeros(2), t * np.diag([1.0, -1e-11]))
        with pytest.raises(NegativeVarianceError):
            linear_functional_variance(wrong, [0.0, 1.0])
        rounding = GaussianVector(np.zeros(2), t * np.diag([1.0, -1e-14]))
        assert linear_functional_variance(rounding, [0.0, 1.0]) == 0.0

    @pytest.mark.parametrize("t", [10.0 ** k for k in range(-12, 13, 3)])
    def test_inconsistency_verdict_does_not_depend_on_scale(self, t):
        # x1 = x2 surely: x1 - x2 pinned 1e-3 standard deviations away from 0
        # is unreachable, pinned to 0 it is satisfied.
        g = GaussianVector(np.zeros(2), t * np.ones((2, 2)))
        rows = ConstraintSet([[1.0, -1.0]])
        with pytest.raises(InconsistentConstraintError):
            condition_on_value(g, rows, 1e-3 * math.sqrt(t))
        condition_on_value(g, rows, 0.0)


class TestSumIndependent:
    def test_variances_add(self):
        g = sum_independent(independent_gaussian([1.0, 1.0]),
                            independent_gaussian([1.0, 2.0]))
        np.testing.assert_allclose(g.covariance, np.diag([2.0, 3.0]))

    def test_point_mass_is_identity(self):
        g = independent_gaussian([1.0, 2.0])
        zero = GaussianVector(np.zeros(2), np.zeros((2, 2)))
        out = sum_independent(g, zero)
        np.testing.assert_allclose(out.covariance, g.covariance)
        np.testing.assert_allclose(out.mean, g.mean)

    def test_means_add(self):
        g1 = GaussianVector(np.array([1.0, 0.0]), np.eye(2))
        g2 = GaussianVector(np.array([0.0, 1.0]), np.eye(2))
        np.testing.assert_allclose(sum_independent(g1, g2).mean, [1.0, 1.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            sum_independent(independent_gaussian([1.0]),
                            independent_gaussian([1.0, 1.0]))


class TestConditioning:
    def test_parallel_pair_schur_oracle(self):
        g = independent_gaussian([1.0, 2.0])
        row = np.array([1.0, -1.0])
        conditioned = condition_on_zero(g, ConstraintSet([row]))
        oracle = schur_condition_single_row(g.covariance, row)
        np.testing.assert_allclose(conditioned.covariance, oracle, atol=1e-12)
        np.testing.assert_allclose(conditioned.covariance,
                                   np.full((2, 2), 2.0 / 3.0), atol=1e-12)
        # conditional variance of either coordinate is R1 R2 / (R1 + R2)
        for c in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
            assert linear_functional_variance(conditioned, c) == pytest.approx(
                2.0 / 3.0, abs=1e-12)

    def test_empty_constraints_are_identity(self):
        g = independent_gaussian([1.0, 2.0])
        out = condition_on_zero(g, ConstraintSet(np.zeros((0, 2))))
        np.testing.assert_allclose(out.covariance, g.covariance)

    def test_duplicated_row_equals_single_row(self):
        g = independent_gaussian([1.0, 2.0, 0.5])
        row = np.array([1.0, -1.0, 0.5])
        once = condition_on_zero(g, ConstraintSet([row]))
        twice = condition_on_zero(g, ConstraintSet([row, row]))
        np.testing.assert_allclose(twice.covariance, once.covariance, atol=1e-12)

    def test_result_satisfies_constraints(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 4))
        g = GaussianVector(rng.standard_normal(4), a @ a.T)
        rows = rng.standard_normal((2, 4))
        conditioned = condition_on_value(g, ConstraintSet(rows),
                                         rows @ g.covariance @ rng.standard_normal(4))
        for row in rows:
            assert linear_functional_variance(conditioned, row) <= 1e-10

    def test_zero_mean_after_zero_conditioning(self):
        g = independent_gaussian([1.0, 2.0])
        conditioned = condition_on_zero(g, ConstraintSet([[1.0, -1.0]]))
        np.testing.assert_allclose(conditioned.mean, 0.0, atol=1e-12)

    def test_inconsistent_constraint(self):
        point = GaussianVector(np.array([1.0]), np.zeros((1, 1)))
        with pytest.raises(InconsistentConstraintError):
            condition_on_zero(point, ConstraintSet([[1.0]]))

    def test_satisfied_degenerate_constraint_is_harmless(self):
        point = GaussianVector(np.array([0.0]), np.zeros((1, 1)))
        out = condition_on_zero(point, ConstraintSet([[1.0]]))
        np.testing.assert_allclose(out.covariance, 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            condition_on_zero(independent_gaussian([1.0]),
                              ConstraintSet([[1.0, 2.0]]))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_conditioning_is_a_projection(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 6))
        a = rng.standard_normal((dim, dim))
        g = GaussianVector(rng.standard_normal(dim), a @ a.T)
        rows = ConstraintSet(rng.standard_normal((int(rng.integers(1, dim)), dim)))
        once = condition_on_zero(g, rows)
        twice = condition_on_zero(once, rows)
        np.testing.assert_allclose(twice.covariance, once.covariance, atol=1e-10)
        np.testing.assert_allclose(twice.mean, once.mean, atol=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_conditioning_never_raises_variance(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 7))
        a = rng.standard_normal((dim, dim))
        g = GaussianVector(np.zeros(dim), a @ a.T)
        rows = ConstraintSet(rng.standard_normal((int(rng.integers(1, dim + 2)), dim)))
        conditioned = condition_on_zero(g, rows)
        for _ in range(5):
            c = rng.standard_normal(dim)
            before = linear_functional_variance(g, c)
            after = linear_functional_variance(conditioned, c)
            assert after <= before + 1e-12 * max(1.0, before)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_rank_accounting(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 7))
        a = rng.standard_normal((dim, dim))
        cov = a @ a.T
        g = GaussianVector(np.zeros(dim), cov)
        k = int(rng.integers(1, dim))
        rows = rng.standard_normal((k, dim))
        conditioned = condition_on_zero(g, ConstraintSet(rows))
        rank_before = np.linalg.matrix_rank(cov, tol=1e-9)
        rank_killed = np.linalg.matrix_rank(rows @ cov, tol=1e-9)
        rank_after = np.linalg.matrix_rank(conditioned.covariance, tol=1e-9)
        assert rank_after == rank_before - rank_killed


class TestEntropy:
    def test_unit_variance(self):
        assert entropy_scalar(1.0) == pytest.approx(1.418939, abs=1e-6)
        assert entropy_scalar(1.0) == pytest.approx(HALF_LN_2PIE, abs=1e-12)

    def test_chain_variance(self):
        # oracle: entropy shifts by half the log of the variance ratio
        assert entropy_scalar(1.2) == pytest.approx(
            HALF_LN_2PIE + 0.5 * math.log(1.2), abs=1e-12)
        assert entropy_scalar(1.2) == pytest.approx(1.510100, abs=1e-5)

    def test_degenerate(self):
        assert entropy_scalar(0.0) == DEGENERATE_ENTROPY
        assert isinstance(entropy_scalar(1e-13, tol=1e-12), DegenerateEntropy)

    @pytest.mark.parametrize("v", [0.0, 5e-13, 1e-300, 1.0, 3.7e5])
    def test_default_verdict_is_unit_free(self, v):
        degenerate = isinstance(entropy_scalar(v), DegenerateEntropy)
        assert degenerate == (v == 0.0)
        for k in range(-12, 13):
            t = 10.0 ** k
            assert isinstance(entropy_scalar(t * v), DegenerateEntropy) \
                == degenerate, f"variance {v} times {t}"

    def test_negative_rejected(self):
        with pytest.raises(NegativeVarianceError):
            entropy_scalar(-1e-6)

    def test_monotone_in_variance(self):
        values = [entropy_scalar(v) for v in (0.1, 0.5, 1.0, 2.0, 10.0)]
        assert values == sorted(values)

    def test_degenerate_ordering(self):
        assert DEGENERATE_ENTROPY == DegenerateEntropy()
        assert DEGENERATE_ENTROPY < -100.0
        assert -100.0 > DEGENERATE_ENTROPY
        assert not DEGENERATE_ENTROPY >= 0.0
        assert DEGENERATE_ENTROPY >= DegenerateEntropy()

    @pytest.mark.parametrize(
        "other", [DEGENERATE_ENTROPY, -1e300, 0, 3.5, np.float64(2.0)],
        ids=["degenerate", "-1e300", "int-0", "3.5", "np.float64"])
    def test_degenerate_truth_table(self, other):
        d = DegenerateEntropy()
        same = isinstance(other, DegenerateEntropy)
        # degenerate vs other: equal to itself, strictly below every real
        assert [bool(d < other), bool(d <= other), bool(d == other),
                bool(d != other), bool(d > other), bool(d >= other)] == \
            [not same, True, same, not same, False, same]
        # other vs degenerate: the mirror image
        assert [bool(other < d), bool(other <= d), bool(other == d),
                bool(other != d), bool(other > d), bool(other >= d)] == \
            [False, same, same, not same, not same, True]

    def test_degenerate_unordered_against_str(self):
        d = DegenerateEntropy()
        assert d != "x" and not d == "x"
        for compare in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                compare(d, "x")
            with pytest.raises(TypeError):
                compare("x", d)


class TestSampling:
    def test_point_mass(self):
        g = GaussianVector(np.array([2.0, -1.0]), np.zeros((2, 2)))
        draws = sample(g, 100, seed=1)
        assert draws.shape == (100, 2)
        np.testing.assert_allclose(draws, np.tile([2.0, -1.0], (100, 1)))

    def test_moments_within_five_standard_errors(self):
        cov = np.array([[2.0, 0.6, 0.0], [0.6, 1.0, -0.3], [0.0, -0.3, 0.5]])
        g = GaussianVector(np.array([1.0, -2.0, 0.0]), cov)
        count = 100_000
        draws = sample(g, count, seed=7)
        se_mean = np.sqrt(np.diag(cov) / count)
        assert np.all(np.abs(draws.mean(axis=0) - g.mean) <= 5 * se_mean)
        emp_cov = np.cov(draws, rowvar=False)
        # Var of a sample covariance entry: (s_ii s_jj + s_ij^2) / n
        se_cov = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov ** 2)
                         / count)
        assert np.all(np.abs(emp_cov - cov) <= 5 * se_cov)

    def test_singular_support(self):
        g = condition_on_zero(independent_gaussian([1.0, 2.0]),
                              ConstraintSet([[1.0, -1.0]]))
        draws = sample(g, 1000, seed=3)
        assert np.max(np.abs(draws[:, 0] - draws[:, 1])) <= 1e-6

    def test_bit_reproducible(self):
        g = independent_gaussian([1.0, 2.0, 3.0])
        first = sample(g, 50, seed=42)
        second = sample(g, 50, seed=42)
        assert np.array_equal(first, second)
        assert not np.array_equal(first, sample(g, 50, seed=43))

    def test_count_validated(self):
        with pytest.raises(ValidationError):
            sample(independent_gaussian([1.0]), 0, seed=1)


class TestDiagonalConditioning:
    """condition_diagonal's QR factor and its full-rank precondition."""

    def test_basis_is_orthonormal_and_spans_the_scaled_rows(self):
        rng = np.random.default_rng(21)
        rows = rng.standard_normal((4, 9))
        s, q = condition_diagonal(rng.uniform(0.1, 10.0, 9), rows)
        assert q.shape == (9, 4)
        np.testing.assert_allclose(q.T @ q, np.eye(4), atol=1e-14)
        b = (rows * s).T
        np.testing.assert_allclose(q @ (q.T @ b), b, atol=1e-13)

    @pytest.mark.parametrize("dim", [3, 12, 60])
    def test_duplicated_row_raises(self, dim):
        rng = np.random.default_rng(dim)
        rows = rng.integers(-1, 2, (dim // 3, dim)).astype(float)
        rows[0, 0] = 1.0
        rows = np.vstack([rows, rows[0]])
        with pytest.raises(ValidationError, match="linearly dependent"):
            condition_diagonal(rng.uniform(0.1, 10.0, dim), rows)

    def test_combination_of_rows_raises(self):
        rows = np.array([[1.0, -1.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0],
                         [2.0, -1.0, 1.0, 2.0]])
        with pytest.raises(ValidationError, match="linearly dependent"):
            condition_diagonal([1.0, 2.0, 3.0, 4.0], rows)

    def test_zero_row_raises(self):
        with pytest.raises(ValidationError, match="linearly dependent"):
            condition_diagonal([1.0, 2.0], np.array([[1.0, 1.0], [0.0, 0.0]]))

    def test_more_rows_than_coordinates_raises(self):
        # Reduced QR of a 2 x 3 matrix has a full-size R diagonal; only the
        # row count shows that 3 rows cannot be independent in 2 dimensions.
        rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 2.0]])
        with pytest.raises(ValidationError, match="linearly dependent"):
            condition_diagonal([1.0, 2.0], rows)


def all_draws(factor, c, count, seed):
    return np.concatenate(list(functional_draws(factor, c, count, seed)))


class TestFunctionalSampling:
    """c . x drawn as u . z under the projection-form factor, in blocks."""

    def test_chunked_stream_is_the_unchunked_stream(self):
        whole = np.random.default_rng(5).standard_normal((1000, 7))
        rng = np.random.default_rng(5)
        blocks = [rng.standard_normal((rows, 7)) for rows in (1, 333, 600, 66)]
        assert np.array_equal(np.vstack(blocks), whole)

    def test_block_size_does_not_change_draws(self, monkeypatch):
        # Same normals whatever the blocks; u . z per row may differ in the
        # last bit where BLAS sums a one-row block in another order.
        factor = condition_diagonal([1.0, 2.0, 3.0], np.array([[1.0, 1.0, 1.0]]))
        c = np.array([1.0, -1.0, 0.0])
        whole = all_draws(factor, c, 1000, seed=9)
        for block in (3 * 64, 1):
            monkeypatch.setattr(gaussian, "DRAW_BLOCK", block)
            np.testing.assert_allclose(
                all_draws(factor, c, 1000, seed=9), whole,
                rtol=0, atol=1e-14)

    def test_variance_within_five_standard_errors(self):
        factor = condition_diagonal([1.0, 2.0, 3.0], np.array([[1.0, 1.0, 1.0]]))
        c = np.array([1.0, -1.0, 0.0])
        count = 100_000
        draws = all_draws(factor, c, count, seed=4)
        var = conditioned_variance(factor, c)
        # Schur complement: c'Dc - (c'D1)^2 / 1'D1 = 3 - 1/6.
        assert var == pytest.approx(17.0 / 6.0, rel=1e-12)
        assert abs(np.var(draws) - var) <= 5 * var * math.sqrt(2.0 / count)

    def test_unconstrained_draws_are_scaled_normals(self):
        # One coordinate, no rows: c . x = z sqrt(r) c exactly.
        draws = all_draws(condition_diagonal([4.0], np.zeros((0, 1))),
                                  [-1.0], 50, seed=3)
        z = np.random.default_rng(3).standard_normal((50, 1))
        assert np.array_equal(draws, z[:, 0] * -2.0)

    def test_count_validated(self):
        with pytest.raises(ValidationError):
            all_draws(condition_diagonal([1.0], np.zeros((0, 1))),
                              [1.0], 0, seed=1)

    def test_row_stack_matches_row_by_row_roots(self):
        rng = np.random.default_rng(12)
        # Relative to w = s c, the scale of the roots' rounding: with as many
        # rows as coordinates every root is 0 up to that rounding.
        for k, dim in ((0, 3), (2, 5), (6, 9), (9, 9)):
            rows = rng.standard_normal((k, dim))
            factor = condition_diagonal(rng.uniform(0.1, 10.0, dim), rows)
            c = rng.standard_normal((7, dim))
            stacked = functional_root(factor, c)
            single = np.array([functional_root(factor, row) for row in c])
            assert stacked.shape == single.shape
            assert (np.max(np.abs(stacked - single))
                    <= 1e-14 * np.max(np.abs(factor[0] * c)))


class TestLinearFunctionalVariance:
    def test_coordinate(self):
        g = independent_gaussian([1.0, 2.0])
        assert linear_functional_variance(g, [0.0, 1.0]) == pytest.approx(2.0)

    def test_constraint_direction_is_dead(self):
        g = condition_on_zero(independent_gaussian([1.0, 2.0]),
                              ConstraintSet([[1.0, -1.0]]))
        assert linear_functional_variance(g, [1.0, -1.0]) == 0.0

    def test_zero_functional(self):
        g = independent_gaussian([1.0, 2.0])
        assert linear_functional_variance(g, [0.0, 0.0]) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            linear_functional_variance(independent_gaussian([1.0]), [1.0, 0.0])
