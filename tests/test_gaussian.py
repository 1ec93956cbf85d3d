"""Gaussian construction, conditioning, entropy, and seeded sampling."""

import math
import operator
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
from hypothesis import given, settings
from hypothesis import strategies as st

from gffresist import (
    GaussianVector,
    circuit_matrix,
    condition_on_value,
    entropy_scalar,
    fundamental_circuits,
    independent_gaussian,
    linear_functional_variance,
    sample,
)
from gffresist import gaussian
from gffresist.errors import (
    DimensionMismatchError,
    NegativeVarianceError,
    NonpositiveVarianceError,
    SingularSystemError,
    ValidationError,
)

from gffresist.cli import parse_network
from gffresist.electric import ResistiveNetwork
from gffresist.gaussian import (
    condition_block_diagonal,
    condition_diagonal,
    conditioned_variance,
    functional_draws,
    functional_root,
)
from gffresist.graph import (
    PANEL,
    RowMergePlan,
    build_multigraph,
    cycle_plan,
    tree_walk_vector,
    walk_between,
    walk_sign_vector,
)
from gffresist.gff import build_free_field, eta_field
from gffresist.verify import (
    entropy_chain,
    instance_rng,
    random_network,
    random_resistances,
)
from test_electric import grid_network
from test_graph import chord_order

HALF_LN_2PIE = 0.5 * math.log(2.0 * math.pi * math.e)
DATA = Path(__file__).parent / "data"
EPS = np.finfo(float).eps


def row_plan(rows):
    """The RowMergePlan of dense rows M (k x size), from their nonzeros: up
    to PANEL rows make one panel, whose stack is diag(s) M' whole."""
    rows = np.asarray(rows, dtype=float)
    column, coordinate = np.nonzero(rows)
    return RowMergePlan(*rows.shape, coordinate, column,
                        rows[column, coordinate])


def diagonal(variances, rows):
    """condition_diagonal on the dense rows ``rows``."""
    return condition_diagonal(variances, row_plan(rows))


def block_diagonal(factor, variances, rows):
    """condition_block_diagonal on the dense rows ``rows``."""
    return condition_block_diagonal(factor, variances, row_plan(rows))


def fine_factor(graph, r, r_bar):
    """The factor of blockdiag(C, C) as entropy_chain builds it."""
    plan = cycle_plan(graph)
    return condition_block_diagonal(condition_diagonal(r, plan), r_bar, plan)


def cycle_rows(graph):
    """The fundamental circuit rows, from the walk API's circuits, in
    cycle_plan's column order (apex order)."""
    return circuit_matrix(graph, fundamental_circuits(graph))[
        chord_order(graph)]


def schur_condition_single_row(cov: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Oracle for one constraint row: cov - cov m' m cov / (m cov m')."""
    m_cov = row @ cov
    return cov - np.outer(m_cov, m_cov) / (row @ cov @ row)


class TestConstruction:
    def test_independent_diag(self):
        g = independent_gaussian([1.0, 2.0])
        np.testing.assert_allclose(g.covariance, np.diag([1.0, 2.0]))
        assert g.dim == 2

    def test_scalar(self):
        g = independent_gaussian([1.0])
        np.testing.assert_allclose(g.covariance, [[1.0]])

    def test_zero_variance_rejected(self):
        with pytest.raises(NonpositiveVarianceError):
            independent_gaussian([1.0, 0.0])

    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(ValidationError):
            GaussianVector(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_indefinite_covariance_rejected(self):
        with pytest.raises(ValidationError):
            GaussianVector(np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("cov", [
        [[math.nan]], [[math.inf]], [[-math.inf]],
        [[1.0, math.nan], [math.nan, 1.0]],
    ])
    def test_non_finite_input_rejected(self, cov):
        with pytest.raises(ValidationError,
                           match="^covariance has a non-finite"):
            GaussianVector(cov)

    @pytest.mark.parametrize("variances", [[math.nan], [1.0, math.inf]])
    def test_non_finite_variances_rejected(self, variances):
        # A NaN compares false with 0, so the positivity test passes it.
        with pytest.raises(ValidationError, match="^variances have"):
            independent_gaussian(variances)

    def test_point_mass_is_legal(self):
        g = GaussianVector(np.zeros((2, 2)))
        assert g.dim == 2

    def test_variance_near_the_double_limit_is_stored_as_given(self):
        # Symmetrizing as (cov + cov') / 2 would overflow 2e308 to inf.
        g = independent_gaussian([1e308, 1.0])
        assert np.array_equal(g.covariance, np.diag([1e308, 1.0]))
        assert np.isfinite(sample(g, 4, 0)).all()

    def test_functional_variance_past_the_double_range_raises(self):
        # c' cov c = 2e309, as conditioned_variance raises on its own.
        g = GaussianVector(np.diag([1e307, 1e307]))
        with pytest.raises(SingularSystemError, match="double range"):
            linear_functional_variance(g, [10.0, 10.0])


class TestNonFiniteInputs:
    """A NaN or infinite row or functional raises ValidationError naming
    it before any arithmetic (under the suite's warnings-as-errors, a
    RuntimeWarning would fail the test first)."""

    BAD = [math.nan, math.inf, -math.inf]

    @pytest.mark.parametrize("bad", BAD)
    def test_condition_on_value_rows(self, bad):
        # Used to end in numpy's LinAlgError: SVD did not converge.
        with pytest.raises(ValidationError,
                           match="^constraint rows have a non-finite"):
            condition_on_value(independent_gaussian([1.0, 2.0]),
                               [[1.0, 1.0], [bad, 0.0]])

    @pytest.mark.parametrize("bad", BAD)
    def test_linear_functional_variance(self, bad):
        # Used to raise SingularSystemError, "past the double range".
        with pytest.raises(ValidationError,
                           match="^functional has a non-finite"):
            linear_functional_variance(independent_gaussian([1.0, 2.0]),
                                       [1.0, bad])

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("kernel", [
        conditioned_variance, functional_root,
        lambda factor, c: next(functional_draws(factor, c, 10, 0))],
        ids=["conditioned_variance", "functional_root", "functional_draws"])
    def test_reflector_kernel_functionals(self, kernel, bad):
        # conditioned_variance used to raise SingularSystemError and
        # functional_draws to yield NaN draws.
        factor = diagonal([1.0, 2.0, 3.0], [[1.0, -1.0, 1.0]])
        with pytest.raises(ValidationError,
                           match="^functional has a non-finite"):
            kernel(factor, [1.0, bad, 0.0])

    def test_a_functional_row_of_a_stack(self):
        factor = diagonal([1.0, 2.0, 3.0], [[1.0, -1.0, 1.0]])
        with pytest.raises(ValidationError,
                           match="^functional has a non-finite"):
            functional_root(factor, [[1.0, 0.0, 0.0], [0.0, math.nan, 0.0]])


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
            GaussianVector(scaled)
        else:
            with pytest.raises(ValidationError):
                GaussianVector(scaled)

    @pytest.mark.parametrize("t", [10.0 ** k for k in range(-12, 13, 3)])
    def test_negative_variance_verdict_does_not_depend_on_scale(self, t):
        # Both covariances pass the PSD check; a variance of -1e-11 of the
        # trace is an error, one of -1e-14 is rounding and clamps to 0.
        wrong = GaussianVector(t * np.diag([1.0, -1e-11]))
        with pytest.raises(NegativeVarianceError):
            linear_functional_variance(wrong, [0.0, 1.0])
        rounding = GaussianVector(t * np.diag([1.0, -1e-14]))
        assert linear_functional_variance(rounding, [0.0, 1.0]) == 0.0

    @pytest.mark.parametrize("t", [10.0 ** k for k in range(-12, 13, 3)])
    def test_rank_cutoff_verdict_does_not_depend_on_scale(self, t):
        # x2 = 0 with x2's standard deviation 1e-12 of x1's is below
        # RANK_CUTOFF of the ambient spread: already satisfied, x2 keeps its
        # variance. At 1e-8 of it the constraint is live and x2 dies.
        satisfied = condition_on_value(
            GaussianVector(t * np.diag([1.0, 1e-24])), [[0.0, 1.0]])
        np.testing.assert_allclose(np.diag(satisfied.covariance),
                                   t * np.array([1.0, 1e-24]), rtol=1e-12)
        live = condition_on_value(
            GaussianVector(t * np.diag([1.0, 1e-16])), [[0.0, 1.0]])
        np.testing.assert_allclose(np.diag(live.covariance), [t, 0.0],
                                   rtol=1e-12, atol=1e-30 * t)


class TestConditioning:
    def test_parallel_pair_schur_oracle(self):
        g = independent_gaussian([1.0, 2.0])
        row = np.array([1.0, -1.0])
        conditioned = condition_on_value(g, [row])
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
        out = condition_on_value(g, np.zeros((0, 2)))
        np.testing.assert_allclose(out.covariance, g.covariance)

    def test_duplicated_row_equals_single_row(self):
        g = independent_gaussian([1.0, 2.0, 0.5])
        row = np.array([1.0, -1.0, 0.5])
        once = condition_on_value(g, [row])
        twice = condition_on_value(g, [row, row])
        np.testing.assert_allclose(twice.covariance, once.covariance, atol=1e-12)

    def test_result_satisfies_constraints(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 4))
        g = GaussianVector(a @ a.T)
        rows = rng.standard_normal((2, 4))
        conditioned = condition_on_value(g, rows)
        for row in rows:
            assert linear_functional_variance(conditioned, row) <= 1e-10

    def test_satisfied_degenerate_constraint_is_harmless(self):
        point = GaussianVector(np.zeros((1, 1)))
        out = condition_on_value(point, [[1.0]])
        np.testing.assert_allclose(out.covariance, 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            condition_on_value(independent_gaussian([1.0]),
                               [[1.0, 2.0]])

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_conditioning_is_a_projection(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 6))
        a = rng.standard_normal((dim, dim))
        g = GaussianVector(a @ a.T)
        rows = rng.standard_normal((int(rng.integers(1, dim)), dim))
        once = condition_on_value(g, rows)
        twice = condition_on_value(once, rows)
        np.testing.assert_allclose(twice.covariance, once.covariance, atol=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_conditioning_never_raises_variance(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 7))
        a = rng.standard_normal((dim, dim))
        g = GaussianVector(a @ a.T)
        rows = rng.standard_normal((int(rng.integers(1, dim + 2)), dim))
        conditioned = condition_on_value(g, rows)
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
        g = GaussianVector(cov)
        k = int(rng.integers(1, dim))
        rows = rng.standard_normal((k, dim))
        conditioned = condition_on_value(g, rows)
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
        assert entropy_scalar(0.0) == -math.inf
        assert entropy_scalar(1e-13, tol=1e-12) == -math.inf

    @pytest.mark.parametrize("v", [0.0, 5e-13, 1e-300, 1.0, 3.7e5])
    def test_default_verdict_is_unit_free(self, v):
        degenerate = entropy_scalar(v) == -math.inf
        assert degenerate == (v == 0.0)
        for k in range(-12, 13):
            t = 10.0 ** k
            assert (entropy_scalar(t * v) == -math.inf) == degenerate, \
                f"variance {v} times {t}"

    def test_negative_rejected(self):
        with pytest.raises(NegativeVarianceError):
            entropy_scalar(-1e-6)

    def test_monotone_in_variance(self):
        values = [entropy_scalar(v) for v in (0.1, 0.5, 1.0, 2.0, 10.0)]
        assert values == sorted(values)

    def test_degenerate_ordering(self):
        d = entropy_scalar(0.0)
        assert d == entropy_scalar(1.0, tol=1.0)
        assert d < -100.0
        assert -100.0 > d
        assert not d >= 0.0
        assert d >= entropy_scalar(1.0, tol=1.0)

    @pytest.mark.parametrize(
        "other", [-math.inf, -1e300, 0, 3.5, np.float64(2.0)],
        ids=["degenerate", "-1e300", "int-0", "3.5", "np.float64"])
    def test_degenerate_truth_table(self, other):
        d = entropy_scalar(0.0)
        same = other == -math.inf
        # degenerate vs other: equal to itself, strictly below every real
        assert [bool(d < other), bool(d <= other), bool(d == other),
                bool(d != other), bool(d > other), bool(d >= other)] == \
            [not same, True, same, not same, False, same]
        # other vs degenerate: the mirror image
        assert [bool(other < d), bool(other <= d), bool(other == d),
                bool(other != d), bool(other > d), bool(other >= d)] == \
            [False, same, same, not same, not same, True]

    def test_degenerate_unordered_against_str(self):
        d = entropy_scalar(0.0)
        assert d != "x" and not d == "x"
        for compare in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                compare(d, "x")
            with pytest.raises(TypeError):
                compare("x", d)


class TestSampling:
    def test_point_mass(self):
        g = GaussianVector(np.zeros((2, 2)))
        draws = sample(g, 100, seed=1)
        assert draws.shape == (100, 2)
        np.testing.assert_allclose(draws, np.zeros((100, 2)))

    def test_moments_within_five_standard_errors(self):
        cov = np.array([[2.0, 0.6, 0.0], [0.6, 1.0, -0.3], [0.0, -0.3, 0.5]])
        g = GaussianVector(cov)
        count = 100_000
        draws = sample(g, count, seed=7)
        se_mean = np.sqrt(np.diag(cov) / count)
        assert np.all(np.abs(draws.mean(axis=0)) <= 5 * se_mean)
        emp_cov = np.cov(draws, rowvar=False)
        # Var of a sample covariance entry: (s_ii s_jj + s_ij^2) / n
        se_cov = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov ** 2)
                         / count)
        assert np.all(np.abs(emp_cov - cov) <= 5 * se_cov)

    def test_singular_support(self):
        g = condition_on_value(independent_gaussian([1.0, 2.0]),
                               [[1.0, -1.0]])
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
        s, ((_, _, h, tau),) = diagonal(rng.uniform(0.1, 10.0, 9), rows)
        # Q is the reflectors applied to the first 4 columns of the identity.
        q, _, info = scipy.linalg.lapack.dormqr(
            "L", "N", h, tau, np.eye(9)[:, :4], 4 * 64)
        assert info == 0
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
            diagonal(rng.uniform(0.1, 10.0, dim), rows)

    def test_combination_of_rows_raises(self):
        rows = np.array([[1.0, -1.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0],
                         [2.0, -1.0, 1.0, 2.0]])
        with pytest.raises(ValidationError, match="linearly dependent"):
            diagonal([1.0, 2.0, 3.0, 4.0], rows)

    def test_zero_row_raises(self):
        with pytest.raises(ValidationError, match="linearly dependent"):
            diagonal([1.0, 2.0], np.array([[1.0, 1.0], [0.0, 0.0]]))

    def test_more_rows_than_coordinates_raises(self):
        # Reduced QR of a 2 x 3 matrix has a full-size R diagonal; only the
        # row count shows that 3 rows cannot be independent in 2 dimensions.
        rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 2.0]])
        with pytest.raises(ValidationError, match="linearly dependent"):
            diagonal([1.0, 2.0], rows)


class TestBlockDiagonalConditioning:
    """condition_block_diagonal against the dense QR of blockdiag(C, C)."""

    @staticmethod
    def fine_and_dense(graph, r, r_bar):
        """The fine factor as entropy_chain builds it, and one plain dgeqrf
        of blockdiag(C, C) with C from the walk API's circuits."""
        phi, s = cycle_rows(graph), np.sqrt(np.concatenate([r, r_bar]))
        dense = dense_factor(s, (scipy.linalg.block_diag(phi, phi) * s).T)
        return fine_factor(graph, r, r_bar), dense

    def assert_same_factor(self, graph, r, r_bar, c, ulps, variance_ulps=None):
        """The fine factor's variance of c on both fields within
        ``variance_ulps`` (default ``ulps``) of the dense QR's, and its
        reflectors within ``ulps`` of the dense QR's, column by column; past
        PANEL circuits, where the panels hold other reflectors, its final
        rows of R."""
        fine, dense = self.fine_and_dense(graph, r, r_bar)
        assert np.array_equal(fine[0], dense[0])
        c = np.concatenate([c, c])
        expected = conditioned_variance(dense, c)
        assert (abs(conditioned_variance(fine, c) - expected)
                <= (variance_ulps or ulps) * EPS * expected)
        if not graph.cycle_rank:  # a tree: no reflectors on either side
            assert fine[1] == dense[1] == ()
            return
        if graph.cycle_rank > PANEL:
            # R is unique up to the signs of its rows, which the pivots fix.
            got, r_dense = final_r(fine), final_r(dense)
            scale = np.max(np.abs(r_dense), axis=0)
            assert np.all(np.abs(got - r_dense) <= ulps * EPS * scale)
            return
        ((_, _, h, tau),) = dense[1]
        assert len(fine[1]) == 2
        e, k = len(r), graph.cycle_rank
        # The dense reflectors follow blockdiag's zeros: off the first
        # block's top-left E x k and the padded block from row and column k
        # on, h holds only zeros.
        assert not h[e:, :k].any() and not h[:k, k:].any()
        for block, rows, expected, expected_tau in (
                (fine[1][0], np.arange(e), h[:e, :k], tau[:k]),
                (fine[1][1], np.arange(k, 2 * e), h[k:, k:], tau[k:])):
            assert np.array_equal(block.rows, rows) and block.kept == k
            assert block.h.shape == expected.shape
            assert block.h.flags.f_contiguous
            # Column by column: R's entries carry the scale of sqrt(r), the
            # reflectors' entries do not.
            scale = np.max(np.abs(expected), axis=0, initial=0.0)
            assert np.all(np.abs(block.h - expected) <= ulps * EPS * scale)
            assert np.all(np.abs(block.tau - expected_tau) <= ulps * EPS)

    def test_suite_instances_match_the_dense_factor(self):
        # run_suite's 200 instances, drawn as it draws them: every one has
        # at most PANEL circuits, so its plan is one panel.
        for i in range(200):
            rng = instance_rng(12345, i)
            net = random_network(rng)
            assert net.graph.cycle_rank <= PANEL
            r_bar = random_resistances(rng, net.graph.n_edges)
            c = rng.standard_normal(net.graph.n_edges)
            self.assert_same_factor(net.graph, net.resistances, r_bar, c, 4)

    @pytest.mark.parametrize("side", [12, 16])
    def test_grids_match_the_dense_factor(self, side):
        # Past PANEL circuits the panels merge the rows in another order
        # than the dense QR, so R and the variance agree to rounding:
        # measured at most 7.9 and 2.7 ulps.
        for seed in range(3):
            rng = np.random.default_rng((side, seed))
            net = grid_network(side, rng)
            assert net.graph.cycle_rank > PANEL
            r_bar = grid_network(side, rng).resistances
            c = rng.standard_normal(net.graph.n_edges)
            self.assert_same_factor(net.graph, net.resistances, r_bar, c, 32,
                                    12)

    def test_tree_has_no_reflectors(self, series_path):
        # k = 0: every coordinate is free, so the variance is |s c|^2.
        graph = series_path.graph
        r, r_bar = np.array([1.0, 4.0]), np.array([0.25, 9.0])
        fine, dense = self.fine_and_dense(graph, r, r_bar)
        assert conditioned_variance(fine, np.ones(4)) == 14.25
        self.assert_same_factor(graph, r, r_bar, np.ones(2), 0)

    def test_more_rows_than_half_the_coordinates(self):
        # k = 9 of E = 12: the last pivots of the padded block fall in its
        # own rows, past the E - k = 3 zero rows.
        net = parse_network(str(DATA / "wide_span.json"))
        k = net.graph.cycle_rank
        assert 2 * k > net.graph.n_edges
        r_bar = net.resistances[::-1].copy()
        fine, _ = self.fine_and_dense(net.graph, net.resistances, r_bar)
        assert [block.tau.size for block in fine[1]] == [k] * 2
        self.assert_same_factor(net.graph, net.resistances, r_bar,
                                np.linspace(-1.0, 1.0, net.graph.n_edges), 4)

    def test_dependent_second_block_row_raises(self):
        first = diagonal([1.0, 2.0, 3.0], [[1.0, 1.0, 0.0]])
        rows = np.array([[1.0, -1.0, 0.0], [2.0, -2.0, 0.0]])
        with pytest.raises(ValidationError, match="the 3 conditioning rows"):
            block_diagonal(first, [1.0, 1.0, 1.0], rows)

    def test_rank_rule_judges_both_blocks_together(self):
        # Each block passes on its own; next to the other block's scale a
        # direction falls below RANK_CUTOFF, and the dense QR of the whole
        # matrix raises too.
        rows = np.array([[1.0, 1.0, 0.0]])
        for variances, bar in (([1.0, 1.0, 1.0], [1e-24] * 3),
                               ([1e-24] * 3, [1.0, 1.0, 1.0])):
            diagonal(bar, rows)
            with pytest.raises(ValidationError, match="linearly dependent"):
                block_diagonal(diagonal(variances, rows), bar, rows)
            with pytest.raises(ValidationError, match="linearly dependent"):
                diagonal(np.concatenate([variances, bar]),
                         scipy.linalg.block_diag(rows, rows))

    def test_more_rows_than_free_coordinates_raises(self):
        # The first block pins both its coordinates, so the padded block
        # has only the 2 coordinates of y for its 3 rows.
        first = diagonal([1.0, 2.0], np.eye(2))
        rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ValidationError, match="linearly dependent"):
            block_diagonal(first, [1.0, 2.0], rows)


def assembled(factor):
    """The composed one-panel fine factor (s, (x block, y block)) as one
    block: h holds the x block's h top-left and the y block's from row and
    column k1 on, zeros elsewhere."""
    s, (first, second) = factor
    (e1, k1), k = first.h.shape, first.kept + second.kept
    h = np.zeros((s.size, k), order="F")
    h[:e1, :k1] = first.h
    h[k1:, k1:] = second.h
    return s, (gaussian.Block(np.arange(s.size), k, h,
                              np.concatenate([first.tau, second.tau])),)


class TestComposedFactor:
    """The fine factor's blocks, each applied on its own rows: one panel
    each gives every variance and root bit for bit as the blocks
    assembled into one matrix; more give them within rounding of the dense
    QR of blockdiag(C, C)."""

    def test_suite_instances(self):
        for i in range(200):
            rng = instance_rng(12345, i)
            net = random_network(rng)
            r_bar = random_resistances(rng, net.graph.n_edges)
            fine = fine_factor(net.graph, net.resistances, r_bar)
            if not fine[1]:  # a tree: no blocks to compose
                continue
            reference = assembled(fine)
            c = rng.standard_normal((3, 2 * net.graph.n_edges))
            assert np.array_equal(functional_root(fine, c),
                                  functional_root(reference, c))
            assert np.array_equal(functional_root(fine, c[0]),
                                  functional_root(reference, c[0]))
            assert (conditioned_variance(fine, c[1])
                    == conditioned_variance(reference, c[1]))

    @pytest.mark.parametrize("side", [12, 16, 24])
    def test_grids(self, side):
        # At 24x24 the dense QR's 2k = 1058 columns run dgeqrf's blocked
        # path. Each root within 32 ulps of its |s c| (measured 8.5), the
        # variance within 4 ulps (measured 0.9).
        rng = np.random.default_rng(side)
        net = grid_network(side, rng)
        g = net.graph
        assert g.cycle_rank > PANEL
        fine, dense = TestBlockDiagonalConditioning.fine_and_dense(
            g, net.resistances, grid_network(side, rng).resistances)
        c = rng.standard_normal((3, 2 * g.n_edges))
        scale = np.max(np.abs(fine[0] * c), axis=1)
        for got, expected, row_scale in (
                (functional_root(fine, c), functional_root(dense, c),
                 scale[:, None]),
                (functional_root(fine, c[0]), functional_root(dense, c[0]),
                 scale[0])):
            assert np.all(np.abs(got - expected) <= 32 * EPS * row_scale)
        expected = conditioned_variance(dense, c[1])
        assert (abs(conditioned_variance(fine, c[1]) - expected)
                <= 4 * EPS * expected)


def plain_qr(b):
    """(h, tau) of one plain dgeqrf of a Fortran copy of b, with the
    workspace its query asks for."""
    b = np.array(b, dtype=float, order="F")
    lwork = int(scipy.linalg.lapack.dgeqrf(b, lwork=-1)[2][0])
    h, tau, _, info = scipy.linalg.lapack.dgeqrf(b, lwork=lwork)
    assert info == 0
    return h, tau


def plain_variance(s, blocks, c):
    """|w[k:]|^2 for w = Q' s c, k the reflectors of every (h, tau) in
    ``blocks``, each applied by dormqr from the row where the reflectors
    before it end; inf where it overflows."""
    w, start = (s * c)[:, None].copy(order="F"), 0
    for h, tau in blocks:
        if tau.size:
            w[start:start + len(h)] = scipy.linalg.lapack.dormqr(
                "L", "T", h, tau, w[start:start + len(h)], 1)[0]
        start += tau.size
    with np.errstate(over="ignore"):
        return float(w[start:, 0] @ w[start:, 0])


def dense_factor(s, b):
    """A factor of one plain dgeqrf of b = diag(s) M', in the factor
    format: one block on every coordinate, none for no rows."""
    h, tau = plain_qr(b)
    if not tau.size:
        return s, ()
    return s, (gaussian.Block(np.arange(s.size), tau.size, h, tau),)


def final_r(factor):
    """The k x k R of a factor, from the final rows of its blocks in order,
    each row signed to a positive pivot. A block's h spans the columns from
    its first final row's on."""
    k = sum(block.kept for block in factor[1])
    r, start = np.zeros((k, k)), 0
    for block in factor[1]:
        columns = block.h.shape[1]
        r[start:start + block.kept, start:start + columns] = np.triu(
            block.h[:block.kept])
        start += block.kept
    return r * np.sign(np.diagonal(r))[:, None]


def one_panel_inputs():
    """Every network file and the first 50 suite instances (seed 12345),
    each with a second resistance vector: (label, network, r_bar)."""
    for path in sorted(DATA.glob("*.json")):
        net = parse_network(str(path))
        yield path.name, net, net.resistances[::-1].copy()
    for i in range(50):
        rng = instance_rng(12345, i)
        net = random_network(rng)
        yield f"suite {i}", net, random_resistances(rng, net.graph.n_edges)


class TestOnePanel:
    """Up to PANEL circuit rows make one panel, which keeps the arithmetic
    of one plain dgeqrf of the dense matrix, bit for bit: the free field's
    diag(sqrt(R)) C', the coarse side's 2E x k stack and the fine side's
    padded [0; D]."""

    @staticmethod
    def assert_blocks(factor, expected):
        """The factor's blocks are these (rows, (h, tau)), bit for bit; a
        tree (k = 0) has none."""
        expected = [(rows, qr) for rows, qr in expected if qr[1].size]
        assert len(factor[1]) == len(expected)
        for block, (rows, (h, tau)) in zip(factor[1], expected):
            assert np.array_equal(block.rows, rows)
            assert block.kept == tau.size
            assert block.h.shape == h.shape
            assert block.h.tobytes() == h.tobytes()
            assert block.tau.tobytes() == tau.tobytes()

    def test_matches_plain_dgeqrf(self):
        for label, net, r_bar in one_panel_inputs():
            g, r = net.graph, net.resistances
            e, k = g.n_edges, g.cycle_rank
            assert k <= PANEL, label
            phi, s, s_bar = cycle_rows(g), np.sqrt(r), np.sqrt(r_bar)
            doubled = np.concatenate([s, s_bar])
            padded = np.zeros((2 * e - k, k))
            padded[e - k:] = (phi * s_bar).T
            free = plain_qr((phi * s).T)
            rng = np.random.default_rng(k)
            walk = tree_walk_vector(g, 0, 1)
            one = [walk, rng.uniform(-1.0, 1.0, e)]
            two = [np.concatenate([walk, walk]), rng.uniform(-1.0, 1.0, 2 * e)]
            field = build_free_field(net)
            for factor, expected, functionals in (
                    (field.factor, [(np.arange(e), free)], one),
                    (condition_diagonal(np.concatenate([r, r_bar]),
                                        cycle_plan(g, 2)),
                     [(np.arange(2 * e), plain_qr(
                         (np.hstack([phi, phi]) * doubled).T))], two),
                    (condition_block_diagonal(field.factor, r_bar,
                                              cycle_plan(g)),
                     [(np.arange(e), free),
                      (np.arange(k, 2 * e), plain_qr(padded))], two)):
                self.assert_blocks(factor, expected)
                for c in functionals:
                    variance = plain_variance(
                        factor[0], [qr for _, qr in expected], c)
                    if math.isfinite(variance):
                        assert conditioned_variance(factor, c) == variance
                    else:  # overflow_path.json's 1e308 ohms
                        with pytest.raises(gaussian.SingularSystemError):
                            conditioned_variance(factor, c)


class TestMultiPanel:
    """More than PANEL circuit rows: the panels agree to rounding with one
    plain dgeqrf of the same dense matrix, its columns in the plan's
    order."""

    # Each agreement in ulps of its scale: the bound at about four times
    # the worst measured on the three grids and the 33-circuit graph.
    ULPS = {
        # name: bound                 measured worst
        "variance": 16,               # 4.0
        "root": 28,                   # 6.9
        "draws": 100,                 # 24.9
        "eta": 32,                    # 8.1
        "var_hat": 13,                # 3.2
        "var_joint_hat": 13,          # 3.1
        "var_joint_split": 15,        # 3.6
        "var_sum": 12,                # 3.0
    }

    @staticmethod
    def references(g, r, r_bar):
        """Dense-QR factors of the free field of r, of [C, C] on (r, r_bar)
        and of r + r_bar, and the padded fine block's (h, tau)."""
        phi, e, k = cycle_rows(g), g.n_edges, g.cycle_rank
        s, s_bar = np.sqrt(r), np.sqrt(r_bar)
        doubled = np.concatenate([s, s_bar])
        padded = np.zeros((2 * e - k, k))
        padded[e - k:] = (phi * s_bar).T
        return (dense_factor(s, (phi * s).T),
                dense_factor(doubled, (np.hstack([phi, phi]) * doubled).T),
                dense_factor(np.sqrt(r + r_bar), (phi * np.sqrt(r + r_bar)).T),
                plain_qr(padded))

    def assert_agrees(self, name, got, expected, scale):
        error = np.max(np.abs(got - expected), initial=0.0)
        assert error <= self.ULPS[name] * EPS * scale, (name, error / scale)

    def check(self, net, r_bar, rng):
        g, r = net.graph, net.resistances
        e, k = g.n_edges, g.cycle_rank
        field = build_free_field(net)
        free, coarse, hat, (h2, tau2) = self.references(g, r, r_bar)
        s = free[0]
        walk = tree_walk_vector(g, 0, g.n_vertices - 1)
        c = rng.standard_normal((4, e))
        for row in (walk, *c):
            expected = conditioned_variance(free, row)
            self.assert_agrees("variance", conditioned_variance(
                field.factor, row), expected, expected)
        self.assert_agrees("root", functional_root(field.factor, c),
                           functional_root(free, c), np.max(np.abs(s * c)))
        draws = [np.concatenate(list(functional_draws(f, walk, 200, 7)))
                 for f in (field.factor, free)]
        self.assert_agrees("draws", draws[0], draws[1],
                           np.max(np.abs(draws[1])))
        eta = eta_field(field, 0).covariance
        paths = np.zeros((g.n_vertices, e))
        for v in range(1, g.n_vertices):
            paths[v] = walk_sign_vector(g, walk_between(g, 0, v))
        root = functional_root(free, paths)
        self.assert_agrees("eta", eta, root @ root.T, np.max(np.abs(eta)))
        doubled = np.concatenate([walk, walk])
        fine = plain_variance(np.concatenate([s, np.sqrt(r_bar)]),
                              [plain_qr((cycle_rows(g) * s).T), (h2, tau2)],
                              doubled)
        expected = {
            "var_hat": conditioned_variance(hat, walk),
            "var_joint_hat": conditioned_variance(coarse, doubled),
            "var_joint_split": fine,
            "var_sum": (conditioned_variance(free, walk)
                        + conditioned_variance(dense_factor(
                            np.sqrt(r_bar), (cycle_rows(g) * np.sqrt(r_bar)).T),
                            walk)),
        }
        report = entropy_chain(g, r, r_bar, 0, g.n_vertices - 1)
        for name, value in expected.items():
            self.assert_agrees(name, report.quantity(name), value, value)

    @pytest.mark.parametrize("side", [12, 16, 24])
    def test_grids_agree_with_the_dense_factor(self, side):
        for seed in range(3):
            rng = np.random.default_rng((side, seed))
            net = grid_network(side, rng)
            assert len(cycle_plan(net.graph).panels()) > 1
            self.check(net, grid_network(side, rng).resistances, rng)

    def test_thirty_three_circuits(self):
        # A 5 x 9 grid has 32 circuits; a parallel edge makes 33, one
        # panel of 32 and one of 1.
        specs = [(i * 9 + j, i * 9 + j + 1) for i in range(5) for j in range(8)]
        specs += [(i * 9 + j, (i + 1) * 9 + j) for i in range(4)
                  for j in range(9)]
        g = build_multigraph(list(range(45)), specs + [(20, 21)])
        assert g.cycle_rank == PANEL + 1
        assert [p.kept for p in cycle_plan(g).panels()] == [PANEL, 1]
        rng = np.random.default_rng(33)
        r, r_bar = (np.exp(rng.uniform(np.log(0.1), np.log(10.0), g.n_edges))
                    for _ in range(2))
        self.check(ResistiveNetwork(g, r), r_bar, rng)

    def test_tree(self, series_path):
        plan = cycle_plan(series_path.graph)
        assert plan.k == 0 and plan.panels() == () and plan.panels(2) == ()
        self.check(series_path, np.array([0.25, 9.0]),
                   np.random.default_rng(0))

    def test_row_duplicated_across_panels_raises(self):
        # Circuit 0's row again, as a last column: it enters panel 0 and
        # its duplicate is final in the last panel.
        net = grid_network(12, np.random.default_rng(1))
        plan = cycle_plan(net.graph)
        first = plan.column == 0
        duplicated = RowMergePlan(
            plan.k + 1, plan.size,
            np.concatenate([plan.coordinate, plan.coordinate[first]]),
            np.concatenate([plan.column,
                            np.full(first.sum(), plan.k)]),
            np.concatenate([plan.value, plan.value[first]]))
        assert len(duplicated.panels()) > 1
        condition_diagonal(net.resistances, plan)
        with pytest.raises(ValidationError, match="linearly dependent"):
            condition_diagonal(net.resistances, duplicated)


class TestReflectorKernel:
    """The compact factor against an explicit Q from numpy.linalg.qr."""

    @pytest.mark.parametrize("k, dim", [(0, 1), (0, 6), (1, 6), (4, 9),
                                        (8, 9), (1, 1), (9, 9), (70, 150),
                                        (150, 150)])
    def test_roots_and_variances_match_an_explicit_basis(self, k, dim):
        rng = np.random.default_rng(100 * k + dim)
        variances = rng.uniform(0.1, 10.0, dim)
        rows = rng.standard_normal((k, dim))
        factor = diagonal(variances, rows)
        q, _ = np.linalg.qr((rows * np.sqrt(variances)).T)
        c = rng.standard_normal((5, dim))
        w = np.sqrt(variances) * c
        expected = w - (q @ (q.T @ w.T)).T
        stacked = functional_root(factor, c)
        if k == dim:  # the rows pin every coordinate
            assert np.max(np.abs(stacked)) <= 1e-13 * np.max(np.abs(w))
        for row, w_row, u_row, root in zip(c, w, expected, stacked):
            scale = float(w_row @ w_row)
            for u in (functional_root(factor, row), root):
                assert np.max(np.abs(u - u_row)) <= 1e-13 * math.sqrt(scale)
            assert (abs(conditioned_variance(factor, row) - u_row @ u_row)
                    <= 1e-13 * scale)


    def test_shape_mismatch_raises(self):
        factor = diagonal([1.0, 2.0, 3.0], np.array([[1.0, 1.0, 1.0]]))
        for route in (functional_root, conditioned_variance):
            with pytest.raises(DimensionMismatchError, match="dimension 3"):
                route(factor, [1.0, -1.0])
            with pytest.raises(DimensionMismatchError, match=r"\(2, 2, 3\)"):
                route(factor, np.ones((2, 2, 3)))

    def test_variance_takes_one_functional(self):
        # A stack used to return the first row's variance and drop the rest.
        factor = diagonal([1.0, 2.0, 3.0], np.array([[1.0, 1.0, 1.0]]))
        with pytest.raises(DimensionMismatchError, match="one functional"):
            conditioned_variance(factor, np.eye(3)[:2])


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
        factor = diagonal([1.0, 2.0, 3.0], np.array([[1.0, 1.0, 1.0]]))
        c = np.array([1.0, -1.0, 0.0])
        whole = all_draws(factor, c, 1000, seed=9)
        for block in (3 * 64, 1):
            monkeypatch.setattr(gaussian, "DRAW_BLOCK", block)
            np.testing.assert_allclose(
                all_draws(factor, c, 1000, seed=9), whole,
                rtol=0, atol=1e-14)

    def test_variance_within_five_standard_errors(self):
        factor = diagonal([1.0, 2.0, 3.0], np.array([[1.0, 1.0, 1.0]]))
        c = np.array([1.0, -1.0, 0.0])
        count = 100_000
        draws = all_draws(factor, c, count, seed=4)
        var = conditioned_variance(factor, c)
        # Schur complement: c'Dc - (c'D1)^2 / 1'D1 = 3 - 1/6.
        assert var == pytest.approx(17.0 / 6.0, rel=1e-12)
        assert abs(np.var(draws) - var) <= 5 * var * math.sqrt(2.0 / count)

    def test_unconstrained_draws_are_scaled_normals(self):
        # One coordinate, no rows: c . x = z sqrt(r) c exactly.
        draws = all_draws(diagonal([4.0], np.zeros((0, 1))),
                                  [-1.0], 50, seed=3)
        z = np.random.default_rng(3).standard_normal((50, 1))
        assert np.array_equal(draws, z[:, 0] * -2.0)

    def test_count_validated(self):
        with pytest.raises(ValidationError):
            all_draws(diagonal([1.0], np.zeros((0, 1))),
                              [1.0], 0, seed=1)

    def test_row_stack_matches_row_by_row_roots(self):
        rng = np.random.default_rng(12)
        # Relative to w = s c, the scale of the roots' rounding: with as many
        # rows as coordinates every root is 0 up to that rounding.
        for k, dim in ((0, 3), (2, 5), (6, 9), (9, 9)):
            rows = rng.standard_normal((k, dim))
            factor = diagonal(rng.uniform(0.1, 10.0, dim), rows)
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
        g = condition_on_value(independent_gaussian([1.0, 2.0]),
                               [[1.0, -1.0]])
        assert linear_functional_variance(g, [1.0, -1.0]) == 0.0

    def test_zero_functional(self):
        g = independent_gaussian([1.0, 2.0])
        assert linear_functional_variance(g, [0.0, 0.0]) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            linear_functional_variance(independent_gaussian([1.0]), [1.0, 0.0])


@pytest.mark.parametrize("shape", [(2, 3), (3,), (2, 2, 2)],
                         ids=["not-square", "vector", "three-axes"])
def test_mismatched_shapes_raise(shape):
    with pytest.raises(DimensionMismatchError, match="do not describe one"):
        GaussianVector(np.ones(shape))
