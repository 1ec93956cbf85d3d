"""Theorem-harness checks: worked instances, equality cases, randomization."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gffresist import (
    AppendixInstance,
    VerificationReport,
    appendix_check,
    check_concavity_segment,
    check_monotonicity,
    check_scaling,
    check_superadditivity,
    entropy_chain,
    melvin_chain,
    monte_carlo_variance_check,
    random_appendix_instance,
    run_suite,
)
from gffresist import electric, verify
from gffresist.electric import (
    VOLTAGE_MEMO_SIZE,
    ResistiveNetwork,
    effective_resistance,
)
from gffresist.errors import (
    DimensionMismatchError,
    NotASpanningTreeError,
    SameVertexError,
    SingularSystemError,
    SizeLimitExceededError,
    ValidationError,
)
from gffresist.gaussian import conditioned_variance
from gffresist.gff import build_free_field
from gffresist.graph import build_multigraph, tree_walk_vector
from gffresist.verify import (
    DEFAULT_TOL,
    Inequality,
    _block_diag,
    _judged,
    _suite_instance,
    _suite_reports,
    instance_rng,
    random_network,
    random_pair,
)
from test_electric import dense_circuit_caches, grid_network
from test_gaussian import block_diagonal, cycle_rows, diagonal

HALF_LN_2PIE = 0.5 * math.log(2.0 * math.pi * math.e)


class TestReportPlumbing:
    def test_quantity_and_margin_lookup(self, parallel_pair):
        report = check_superadditivity(parallel_pair.graph, [1.0, 1.0],
                                       [1.0, 2.0], 0, 1)
        assert report.quantity("reff") == pytest.approx(0.5)
        assert report.margin("reff_hat", "reff_sum") == pytest.approx(1 / 30)
        with pytest.raises(KeyError):
            report.quantity("nope")
        with pytest.raises(KeyError):
            report.margin("reff", "reff_bar")

    def test_unknown_label_rejected(self):
        with pytest.raises(ValidationError):
            VerificationReport(
                "bad", (("x", 1.0),),
                (Inequality("x", ">=", "ghost", 0.0, True),), 1e-8)

    def test_to_dict_shape(self, parallel_pair):
        doc = check_superadditivity(parallel_pair.graph, [1.0, 1.0],
                                    [1.0, 2.0], 0, 1).to_dict()
        assert set(doc) == {"name", "quantities", "inequalities",
                            "tolerance", "pass"}
        assert doc["pass"] is True
        assert doc["inequalities"][0]["rel"] == ">="


class TestSuperadditivity:
    def test_worked_parallel_pair(self, parallel_pair):
        report = check_superadditivity(parallel_pair.graph, [1.0, 1.0],
                                       [1.0, 2.0], 0, 1)
        assert report.quantity("reff_hat") == pytest.approx(1.2, abs=1e-12)
        assert report.quantity("reff_sum") == pytest.approx(7 / 6, abs=1e-12)
        assert report.margin("reff_hat", "reff_sum") == pytest.approx(
            1 / 30, abs=1e-9)
        assert report.passed

    def test_equal_assignments_are_tight(self, bridge):
        r = bridge.resistances
        report = check_superadditivity(bridge.graph, r, r, 0, 3)
        assert abs(report.margin("reff_hat", "reff_sum")) <= 1e-9

    def test_series_is_tight(self, series_path):
        report = check_superadditivity(series_path.graph, [1.0, 1.0],
                                       [2.0, 0.5], 0, 2)
        assert abs(report.margin("reff_hat", "reff_sum")) <= 1e-9

    def test_random_instances(self):
        for i in range(40):
            rng = instance_rng(401, i)
            net = random_network(rng)
            r_bar = np.exp(rng.uniform(np.log(0.1), np.log(10.0),
                                       net.graph.n_edges))
            a, b = random_pair(rng, net.graph.n_vertices)
            report = check_superadditivity(net.graph, net.resistances,
                                           r_bar, a, b)
            assert report.passed


class TestConcavity:
    def test_proportional_segment_is_affine(self, bridge):
        r = bridge.resistances
        report = check_concavity_segment(bridge.graph, r, 2.0 * r, 11, 0, 3)
        assert abs(report.quantity("second_diff_max")) <= 1e-10
        assert abs(report.quantity("second_diff_min")) <= 1e-10
        assert report.passed

    def test_parallel_pair_closed_form(self, parallel_pair):
        # oracle: f(lam) = (1 + 8 lam) / (2 + 8 lam) by the parallel law
        grid = 21
        report = check_concavity_segment(parallel_pair.graph, [1.0, 1.0],
                                         [1.0, 9.0], grid, 0, 1)
        lams = np.linspace(0.0, 1.0, grid)
        f = (1.0 + 8.0 * lams) / (2.0 + 8.0 * lams)
        second = f[:-2] - 2.0 * f[1:-1] + f[2:]
        assert report.quantity("second_diff_max") == pytest.approx(
            float(np.max(second)), abs=1e-12)
        assert report.quantity("second_diff_max") < -1e-6
        assert report.passed

    def test_tree_is_affine(self, series_path):
        report = check_concavity_segment(series_path.graph, [1.0, 1.0],
                                         [3.0, 0.2], 11, 0, 2)
        assert abs(report.quantity("second_diff_max")) <= 1e-10
        assert report.passed

    def test_grid_validated(self, series_path):
        with pytest.raises(ValidationError):
            check_concavity_segment(series_path.graph, [1.0, 1.0],
                                    [2.0, 2.0], 2, 0, 2)

    @pytest.mark.parametrize("grid, message", [
        (3.5, "3.5 is not an integer index"),
        (True, "True is not an integer index"), (2, "2 is below 3")])
    def test_grid_must_be_an_integer_of_at_least_3(self, triangle, grid,
                                                   message):
        # 3.5 used to end in np.linspace's TypeError.
        with pytest.raises(ValidationError,
                           match=f"^concavity grid point count {message}$"):
            check_concavity_segment(triangle.graph, triangle.resistances,
                                    triangle.resistances, grid, 0, 1)

    def test_bridge_strict_negativity(self, bridge):
        report = check_concavity_segment(
            bridge.graph, np.ones(5), [5.0, 3.0, 1.0, 2.0, 4.0], 21, 0, 3)
        assert report.passed
        assert report.quantity("second_diff_max") < -1e-6

    @pytest.mark.parametrize("grid", [3, 4, 11, 12, 21, 31, 33, 99])
    def test_midpoint_is_solved_once(self, monkeypatch, grid):
        # A grid that holds lambda = 0.5 reuses that solve while the memo
        # holds it: the midpoint comes last, VOLTAGE_MEMO_SIZE rows after
        # the centre's on grid 31. The midpoint keeps the bits of a
        # separate solve at 0.5 (r0 + r1) either way. The odd grid 99 has
        # 0.49999999999999994 at its centre.
        solved = []
        solve = electric._solved_row

        def counted(n, a, b):
            solved.append(n)
            return solve(n, a, b)

        monkeypatch.setattr(electric, "_solved_row", counted)
        centred = np.linspace(0.0, 1.0, grid)[grid // 2] == 0.5
        assert centred == (grid in (3, 11, 21, 31, 33))
        reused = centred and grid // 2 + VOLTAGE_MEMO_SIZE >= grid
        assert reused == (grid in (3, 11, 21, 31))
        for i in range(30):
            graph, r0, r1, a, b, _, _ = _suite_instance(99, i)
            report = check_concavity_segment(graph, r0, r1, grid, a, b)
            assert len(solved) == grid + (not reused)
            assert report.quantity("reff_midpoint") == effective_resistance(
                ResistiveNetwork(graph, 0.5 * (r0 + r1)), a, b)
            solved.clear()


class TestMelvinChain:
    def test_worked_parallel_pair(self, parallel_pair):
        report = melvin_chain(parallel_pair.graph, [1.0, 1.0], [1.0, 2.0], 0, 1)
        assert report.quantity("reff_hat") == pytest.approx(1.2, abs=1e-12)
        assert report.quantity("hat_flow_power") == pytest.approx(1.2, abs=1e-12)
        assert report.quantity("own_flow_power") == pytest.approx(7 / 6, abs=1e-12)
        assert report.quantity("reff_sum") == pytest.approx(7 / 6, abs=1e-12)
        assert report.passed

    def test_proportional_assignments_collapse(self, triangle):
        r = triangle.resistances
        report = melvin_chain(triangle.graph, r, 3.0 * r, 0, 1)
        assert abs(report.margin("hat_flow_power", "own_flow_power")) <= 1e-9
        assert report.passed

    def test_tree_chain_is_flat(self, series_path):
        report = melvin_chain(series_path.graph, [1.0, 2.0], [0.5, 3.0], 0, 2)
        values = [report.quantity(q) for q in
                  ("reff_hat", "hat_flow_power", "own_flow_power", "reff_sum")]
        assert max(values) - min(values) <= 1e-9
        assert report.passed

    def test_random_instances(self):
        for i in range(25):
            rng = instance_rng(409, i)
            net = random_network(rng)
            r_bar = np.exp(rng.uniform(np.log(0.1), np.log(10.0),
                                       net.graph.n_edges))
            a, b = random_pair(rng, net.graph.n_vertices)
            assert melvin_chain(net.graph, net.resistances, r_bar, a, b).passed


class TestEntropyChain:
    def test_worked_parallel_pair(self, parallel_pair):
        report = entropy_chain(parallel_pair.graph, [1.0, 1.0], [1.0, 2.0], 0, 1)
        assert report.quantity("h_hat") == pytest.approx(1.510100, abs=1e-5)
        assert report.quantity("h_sum") == pytest.approx(1.496015, abs=1e-5)
        # frozen closed forms
        assert report.quantity("h_hat") == pytest.approx(
            HALF_LN_2PIE + 0.5 * math.log(1.2), abs=1e-9)
        assert report.quantity("h_sum") == pytest.approx(
            HALF_LN_2PIE + 0.5 * math.log(7 / 6), abs=1e-9)
        assert report.passed

    def test_margin_is_half_log_resistance_ratio(self, parallel_pair):
        report = entropy_chain(parallel_pair.graph, [1.0, 1.0], [1.0, 2.0], 0, 1)
        expected = 0.5 * math.log(1.2 / (7 / 6))
        assert report.margin("h_joint_hat", "h_joint_split") == pytest.approx(
            expected, abs=1e-10)

    def test_equal_assignments_are_tight(self, bridge):
        r = bridge.resistances
        report = entropy_chain(bridge.graph, r, r, 0, 3)
        assert abs(report.margin("h_joint_hat", "h_joint_split")) <= 1e-9
        assert report.passed

    def test_tree_chain_is_flat(self, series_path):
        report = entropy_chain(series_path.graph, [1.0, 2.0], [0.5, 3.0], 0, 2)
        reff_sum = 3.0 + 3.5
        expected = HALF_LN_2PIE + 0.5 * math.log(reff_sum)
        for q in ("h_hat", "h_joint_hat", "h_joint_split", "h_sum"):
            assert report.quantity(q) == pytest.approx(expected, abs=1e-9)
        assert report.passed

    @pytest.mark.parametrize("a, b, error", [(1, 1, SameVertexError),
                                             (0, 9, NotASpanningTreeError)])
    def test_bad_pair_raises_before_any_free_field(self, monkeypatch,
                                                   parallel_pair, a, b, error):
        def build(network):
            raise AssertionError("a free field was built for a bad pair")
        monkeypatch.setattr(verify, "build_free_field", build)
        with pytest.raises(error):
            entropy_chain(parallel_pair.graph, [1.0, 1.0], [1.0, 2.0], a, b)

    def test_tiny_resistances_are_not_degenerate(self):
        # A valid network in picohms: the same verdict and the same
        # (unit-free) entropy margins as the copy in ohms.
        g = build_multigraph(["a", "b"], [("a", "b"), ("a", "b")])
        tiny = np.array([1e-12, 1e-12])
        report = entropy_chain(g, tiny, tiny, 0, 1)
        ohms = entropy_chain(g, 1e12 * tiny, 1e12 * tiny, 0, 1)
        assert report.passed and ohms.passed
        for small, big in zip(report.inequalities, ohms.inequalities):
            assert small.holds == big.holds
            assert small.margin == pytest.approx(big.margin, abs=1e-12)

    def test_peak_memory_is_one_doubled_matrix_and_a_field(self):
        # Units of one 2E x k matrix: the coarse factor is one, the fine
        # side the free field of r (a half) and its padded block. Holding
        # the three fields, [C, C] and its scaled copy read 4.28.
        rng = np.random.default_rng(24)
        net = grid_network(24, rng)
        g, r = net.graph, net.resistances
        r_bar = grid_network(24, rng).resistances
        entropy_chain(g, r, r_bar, 0, 575)  # the graph's caches
        tracemalloc.start()
        try:
            entropy_chain(g, r_bar, r, 0, 575)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * (2 * g.n_edges * g.cycle_rank * 8)

    def test_cold_cache_peak_memory(self):
        # The same chain on a fresh graph, its caches built inside the
        # trace: no k x E circuit matrix is cached beside the fields.
        # Caching one read 2.12 units.
        rng = np.random.default_rng(24)
        net = grid_network(24, rng)
        g, r = net.graph, net.resistances
        r_bar = grid_network(24, rng).resistances
        tracemalloc.start()
        try:
            entropy_chain(g, r, r_bar, 0, 575)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.8 * (2 * g.n_edges * g.cycle_rank * 8)
        assert not dense_circuit_caches(g)

    @pytest.mark.parametrize("side", [12, 16, 24])
    def test_bit_identical_to_circuit_rows(self, side):
        # Every variance of the chain, and the free field's factor, as the
        # dense circuit rows of the walk API give them, bit for bit: their
        # nonzeros, in the plan's column order, make the same panels.
        rng = np.random.default_rng(side)
        net = grid_network(side, rng)
        g, r = net.graph, net.resistances
        r_bar = grid_network(side, rng).resistances
        a, b = 0, g.n_vertices - 1
        phi = cycle_rows(g)
        free = [diagonal(x, phi) for x in (r + r_bar, r_bar, r)]
        got, expected = build_free_field(net).factor, free[2]
        assert np.array_equal(got[0], expected[0])
        for block, dense in zip(got[1], expected[1], strict=True):
            assert all(np.array_equal(*parts) for parts in zip(block, dense))
        walk = tree_walk_vector(g, a, b)
        doubled = np.concatenate([walk, walk])
        var_hat, var_bar, var = (conditioned_variance(f, walk) for f in free)
        expected = {
            "var_hat": var_hat,
            "var_joint_hat": conditioned_variance(diagonal(
                np.concatenate([r, r_bar]), np.hstack([phi, phi])), doubled),
            "var_joint_split": conditioned_variance(
                block_diagonal(free[2], r_bar, phi), doubled),
            "var_sum": var + var_bar,
        }
        report = entropy_chain(g, r, r_bar, a, b)
        for name, value in expected.items():
            assert report.quantity(name) == value, name

    def test_random_instances(self):
        for i in range(25):
            rng = instance_rng(419, i)
            net = random_network(rng)
            r_bar = np.exp(rng.uniform(np.log(0.1), np.log(10.0),
                                       net.graph.n_edges))
            a, b = random_pair(rng, net.graph.n_vertices)
            report = entropy_chain(net.graph, net.resistances, r_bar, a, b)
            assert report.passed


class TestChainCrossValidation:
    def test_power_route_equals_entropy_route(self):
        for i in range(20):
            rng = instance_rng(421, i)
            net = random_network(rng)
            r_bar = np.exp(rng.uniform(np.log(0.1), np.log(10.0),
                                       net.graph.n_edges))
            a, b = random_pair(rng, net.graph.n_vertices)
            power = melvin_chain(net.graph, net.resistances, r_bar, a, b)
            entropy = entropy_chain(net.graph, net.resistances, r_bar, a, b)
            assert power.quantity("hat_flow_power") == pytest.approx(
                entropy.quantity("var_hat"), rel=1e-9)


class TestScaling:
    def test_identity_scale(self, triangle):
        report = check_scaling(triangle.graph, triangle.resistances, 1.0, 0, 1)
        assert report.margin("reff_scaled", "reff_times_t") == pytest.approx(
            0.0, abs=1e-12)

    def test_triangle_times_three(self, triangle):
        report = check_scaling(triangle.graph, triangle.resistances, 3.0, 0, 1)
        assert report.quantity("reff_scaled") == pytest.approx(2.0, abs=1e-12)
        assert report.quantity("reff_times_t") == pytest.approx(2.0, abs=1e-12)
        assert report.passed

    def test_parallel_pair_halved(self, parallel_pair):
        report = check_scaling(parallel_pair.graph, parallel_pair.resistances,
                               0.5, 0, 1)
        assert report.quantity("reff_scaled") == pytest.approx(1 / 3, abs=1e-12)
        assert report.passed

    def test_scale_validated(self, triangle):
        with pytest.raises(ValidationError):
            check_scaling(triangle.graph, triangle.resistances, 0.0, 0, 1)


class TestMonotonicity:
    def test_tree_edge_adds_exactly(self, series_path):
        report = check_monotonicity(series_path.graph, [1.0, 1.0], 0, 0.7, 0, 2)
        assert report.margin("reff_bumped", "reff") == pytest.approx(
            0.7, abs=1e-12)

    def test_balanced_bridge_edge_is_inert(self):
        g = build_multigraph(
            ["a", "b", "c", "d"],
            [("a", "b"), ("a", "c"), ("b", "c"), ("b", "d"), ("c", "d")])
        # balanced bridge: the b-c edge carries no current between a and d
        report = check_monotonicity(g, np.ones(5), 2, 10.0, 0, 3)
        assert abs(report.margin("reff_bumped", "reff")) <= 1e-10
        assert report.passed

    def test_parallel_pair_bump(self, parallel_pair):
        report = check_monotonicity(parallel_pair.graph, [1.0, 2.0], 0, 1.0, 0, 1)
        assert report.quantity("reff_bumped") == pytest.approx(1.0, abs=1e-12)
        assert report.margin("reff_bumped", "reff") == pytest.approx(
            1 / 3, abs=1e-12)

    def test_delta_validated(self, triangle):
        with pytest.raises(ValidationError):
            check_monotonicity(triangle.graph, triangle.resistances,
                               0, -1.0, 0, 1)
        with pytest.raises(ValidationError):
            check_monotonicity(triangle.graph, triangle.resistances,
                               9, 1.0, 0, 1)

    @pytest.mark.parametrize("edge", [1.5, 1.0, True, np.True_, "0", None])
    def test_edge_must_be_an_integer_index(self, triangle, edge):
        # Read as an index, 1.5 would bump no edge and True edge 1.
        with pytest.raises(ValidationError,
                           match=r"^edge id .* is not an integer index$"):
            check_monotonicity(triangle.graph, triangle.resistances,
                               edge, 1.0, 0, 1)

    def test_numpy_integer_edge_is_accepted(self, triangle):
        args = triangle.graph, triangle.resistances
        assert (check_monotonicity(*args, np.int64(1), 1.0, 0, 1).quantities
                == check_monotonicity(*args, 1, 1.0, 0, 1).quantities)


class TestDerivedNetworks:
    """A network a check derives from valid inputs is named when invalid."""

    @pytest.fixture
    def huge_path(self):
        # a-b-c with two 1e308-ohm edges: valid, but 2 * r overflows.
        g = build_multigraph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        return g, np.array([1e308, 1e308])

    @pytest.mark.parametrize("check", [check_superadditivity, melvin_chain,
                                       entropy_chain])
    def test_sum_overflow_names_r_plus_r_bar(self, huge_path, check):
        g, r = huge_path
        with pytest.raises(ValidationError,
                           match=r"^r \+ r_bar overflows at edges\[0\]$"):
            check(g, r, r, 0, 2)

    def test_scale_overflow_names_t_times_r(self, huge_path):
        g, r = huge_path
        with pytest.raises(ValidationError,
                           match=r"^t \* r overflows at edges\[0\]$"):
            check_scaling(g, r, 2.0, 0, 2)

    def test_bump_overflow_names_r_plus_delta(self, huge_path):
        g, r = huge_path
        with pytest.raises(ValidationError,
                           match=r"^r \+ delta overflows at edges\[1\]$"):
            check_monotonicity(g, r, 1, 1e308, 0, 2)

    def test_scale_underflow_names_t_times_r(self, triangle):
        with pytest.raises(ValidationError,
                           match=r"^t \* r: edges\[0\]: resistance must be"):
            check_scaling(triangle.graph, triangle.resistances, 1e-13, 0, 1)

    def test_invalid_input_is_named_before_the_derived_network(self, huge_path):
        g, r = huge_path
        bad = np.array([np.inf, 1.0])
        for call in (lambda: check_superadditivity(g, bad, r, 0, 2),
                     lambda: check_scaling(g, bad, 2.0, 0, 2),
                     lambda: check_concavity_segment(g, bad, r, 3, 0, 2)):
            with pytest.raises(ValidationError, match=r"^edges\[0\]: "):
                call()

    def test_segment_between_floor_resistances_stays_valid(self):
        # (1 - 0.35) * 1e-12 + 0.35 * 1e-12 rounds to 9.999999999999998e-13.
        g = build_multigraph(["a", "b"], [("a", "b")])
        r = np.array([1e-12])
        assert check_concavity_segment(g, r, r, 21, 0, 1).passed

    def test_reff_past_the_double_range_is_singular(self, huge_path):
        # No derived network overflows here; the solves do.
        g, r = huge_path
        for call in (lambda: check_concavity_segment(g, r, r, 3, 0, 2),
                     lambda: check_scaling(g, r, 0.5, 0, 2)):
            with pytest.raises(SingularSystemError,
                               match="resistances exceed the double range"):
                call()


class TestBlockDiag:
    """verify's numpy block is scipy.linalg.block_diag, bit for bit."""

    @pytest.mark.parametrize("a_shape, b_shape", [
        ((3, 3), (2, 2)),
        ((2, 5), (2, 5)),
        ((1, 4), (3, 2)),
        ((0, 4), (0, 4)),
        ((0, 3), (2, 1)),
    ])
    def test_matches_scipy(self, a_shape, b_shape):
        rng = np.random.default_rng(36)
        a, b = rng.standard_normal(a_shape), rng.standard_normal(b_shape)
        got, expected = _block_diag(a, b), scipy.linalg.block_diag(a, b)
        assert got.shape == expected.shape
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)


class TestAppendixLemma:
    @pytest.mark.parametrize("fields", [
        {"cov_w": 1.0},
        {"cov_w_bar": 1.0},
        {"cov_w": [1.0]},
        {"cov_w": [[[1.0]]]},
        {"functional": [[1.0, 1.0]]},
        {"conditioning": [[[1.0]]]},
        {"conditioning": [[1.0, 1.0]]},
        {"cov_w": np.zeros((0, 0)), "cov_w_bar": np.zeros((0, 0)),
         "functional": [], "conditioning": []},
    ])
    def test_malformed_shapes_raise(self, fields):
        valid = {"cov_w": [[1.0]], "cov_w_bar": [[2.0]],
                 "functional": [1.0, 1.0], "conditioning": [[1.0]]}
        with pytest.raises(DimensionMismatchError):
            AppendixInstance(**(valid | fields))

    @pytest.mark.parametrize("field, value", [
        ("cov_w", [[np.nan]]),
        ("cov_w_bar", [[np.inf]]),
        ("functional", [np.inf, 1.0]),
        ("conditioning", [[np.nan]]),
    ])
    def test_non_finite_values_raise(self, field, value):
        valid = {"cov_w": [[1.0]], "cov_w_bar": [[2.0]],
                 "functional": [1.0, 1.0], "conditioning": [[1.0]]}
        with pytest.raises(ValidationError, match=f"^{field} must be finite"):
            AppendixInstance(**(valid | {field: value}))

    def test_fully_determined_functional_degenerates(self):
        # the functional IS the conditioned statistic; both sides collapse
        inst = AppendixInstance(cov_w=[[1.0]], cov_w_bar=[[2.0]],
                                functional=[1.0, 1.0], conditioning=[[1.0]])
        report = appendix_check(inst)
        assert report.quantity("var_given_hat") == pytest.approx(0.0, abs=1e-12)
        assert report.quantity("var_given_split") == pytest.approx(0.0, abs=1e-12)
        assert report.quantity("h_given_hat") is not None
        assert report.passed  # equality of degenerates

    def test_independent_coordinates_are_tight(self):
        inst = AppendixInstance(cov_w=np.diag([1.0, 3.0]),
                                cov_w_bar=np.diag([2.0, 0.5]),
                                functional=[1.0, 0.0, 1.0, 0.0],
                                conditioning=[[0.0, 1.0]])
        report = appendix_check(inst)
        assert report.quantity("var_given_hat") == pytest.approx(3.0, abs=1e-12)
        assert report.quantity("var_given_split") == pytest.approx(3.0, abs=1e-12)
        assert report.passed

    def test_hand_checkable_correlated_instance(self):
        inst = AppendixInstance(cov_w=[[1.0, 0.5], [0.5, 1.0]],
                                cov_w_bar=np.eye(2),
                                functional=[1.0, 0.0, 1.0, 0.0],
                                conditioning=[[0.0, 1.0]])
        report = appendix_check(inst)
        assert report.quantity("var_given_hat") == pytest.approx(
            1.875, abs=1e-12)
        assert report.quantity("var_given_split") == pytest.approx(
            1.75, abs=1e-12)
        assert report.margin("var_given_hat", "var_given_split") == \
            pytest.approx(0.125, abs=1e-12)
        assert report.passed

    def test_variances_near_the_double_limit(self):
        # w1 + w1_bar = 0 leaves w1 half its variance; w1 = 0 pins it.
        inst = AppendixInstance(cov_w=np.diag([1e308, 1e308]),
                                cov_w_bar=np.diag([1e308, 1e308]),
                                functional=[1.0, 0.0, 0.0, 0.0],
                                conditioning=[[1.0, 0.0]])
        report = appendix_check(inst)
        assert report.quantity("var_given_hat") == pytest.approx(
            5e307, rel=1e-12)
        assert report.quantity("var_given_split") == 0.0
        assert report.passed

    def test_a_row_null_under_a_singular_covariance(self):
        # w2 and w2_bar are point masses, so the row pins nothing and both
        # sides keep the prior variance: the general path accepts this row.
        inst = AppendixInstance(cov_w=np.diag([1.0, 0.0]),
                                cov_w_bar=np.diag([1.0, 0.0]),
                                functional=[1.0, 0.0, 1.0, 0.0],
                                conditioning=[[0.0, 1.0]])
        report = appendix_check(inst)
        assert report.quantity("var_given_hat") == pytest.approx(
            2.0, abs=1e-12)
        assert report.quantity("var_given_split") == pytest.approx(
            2.0, abs=1e-12)
        assert report.passed

    def test_a_duplicated_row(self):
        # Coarse: w1 + w1_bar = 0 leaves 1 - 1 / 2.5 = 0.6 of w1's variance;
        # fine: w1 = 0 makes it a point mass. The repeat changes neither.
        inst = AppendixInstance(cov_w=np.eye(2), cov_w_bar=1.5 * np.eye(2),
                                functional=[1.0, 0.0, 0.0, 0.0],
                                conditioning=[[1.0, 0.0], [1.0, 0.0]])
        report = appendix_check(inst)
        assert report.quantity("var_given_hat") == pytest.approx(
            0.6, abs=1e-12)
        assert report.quantity("h_given_split") == -math.inf
        assert report.passed

    def test_random_instances(self):
        for i in range(60):
            rng = instance_rng(431, i)
            dim = int(rng.integers(1, 7))
            inst = random_appendix_instance(dim, seed=int(rng.integers(0, 2**31)))
            assert appendix_check(inst).passed

    def test_dimension_past_the_limit_draws_nothing(self, monkeypatch):
        monkeypatch.setattr(verify, "MAX_APPENDIX_DIM", 4)
        assert random_appendix_instance(4, seed=0).cov_w.shape == (4, 4)

        def forbidden(*args, **kwargs):
            raise AssertionError("an instance was drawn past the limit")

        monkeypatch.setattr(np.random, "default_rng", forbidden)
        with pytest.raises(SizeLimitExceededError,
                           match="dimension 5 .* MAX_APPENDIX_DIM = 4"):
            random_appendix_instance(5, seed=0)

    @pytest.mark.parametrize("dim, message", [
        (0, "dimension 0 is below 1"), (-1, "dimension -1 is below 1"),
        (2.5, "dimension 2.5 is not an integer index")])
    def test_a_dimension_not_a_positive_integer_draws_nothing(
            self, monkeypatch, dim, message):
        def forbidden(*args, **kwargs):
            raise AssertionError("an instance was drawn")

        monkeypatch.setattr(np.random, "default_rng", forbidden)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            random_appendix_instance(dim, seed=0)

    @pytest.mark.parametrize("seed, message", [
        (-1, "seed -1 is below 0"), (0.5, "seed 0.5 is not an integer index"),
        (False, "seed False is not an integer index")])
    def test_a_seed_not_a_nonnegative_integer_draws_nothing(
            self, monkeypatch, seed, message):
        def forbidden(*args, **kwargs):
            raise AssertionError("an instance was drawn")

        monkeypatch.setattr(np.random, "default_rng", forbidden)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            random_appendix_instance(2, seed=seed)


class TestMonteCarlo:
    @pytest.mark.parametrize("count, seed, pair, error, message", [
        pytest.param(count, seed, (0, 1), ValidationError, message,
                     id=f"{count}-{seed}-{message}")
        for count, seed, message in [
            (True, 0, "sample count True is not an integer index"),
            (2.5, 0, "sample count 2.5 is not an integer index"),
            (0, 0, "sample count 0 is below 1"),
            (10, -1, "seed -1 is below 0"),
            (10, 1.5, "seed 1.5 is not an integer index")]] + [
        pytest.param(10, 0, pair, error, message, id=f"pair{pair}-{message}")
        for pair, error, message in [
            ((2, 2), SameVertexError,
             "vertex 'c' named twice: vertices must differ"),
            ((0, 3), NotASpanningTreeError,
             "vertex 3 out of range for 3 vertices"),
            ((0.5, 1), ValidationError,
             "vertex 0.5 is not an integer index")]])
    def test_count_and_seed_are_checked_before_the_field(
            self, monkeypatch, triangle, count, seed, pair, error, message):
        # count=True used to run one sample, 2.5 to raise TypeError and
        # seed=-1 numpy's ValueError; a bad pair used to raise only after
        # the free field's factorization.
        def forbidden(*args, **kwargs):
            raise AssertionError("a free field was built")

        monkeypatch.setattr(verify, "build_free_field", forbidden)
        with pytest.raises(error, match=f"^{message}$"):
            monte_carlo_variance_check(triangle.graph, triangle.resistances,
                                       *pair, count, seed)

    def test_single_edge(self):
        g = build_multigraph(["a", "b"], [("a", "b")])
        report = monte_carlo_variance_check(g, [1.0], 0, 1, 100_000, seed=5)
        assert (report.quantity("variance_low")
                <= report.quantity("empirical_variance")
                <= report.quantity("variance_high"))
        assert report.passed

    def test_triangle(self, triangle):
        report = monte_carlo_variance_check(triangle.graph,
                                            triangle.resistances,
                                            0, 1, 100_000, seed=6)
        assert report.quantity("empirical_variance") == pytest.approx(
            2 / 3, rel=0.02)
        assert report.passed

    def test_small_counts_keep_their_tail(self):
        # sum(d^2) / reff is chi-square(count) exactly, at any count: 15,000
        # runs expect 0.95 failures at the 6.3e-5 two-sided tail (the
        # normal approximation this replaced gave 30).
        g = build_multigraph(["a", "b"], [("a", "b")])
        failures = sum(
            not monte_carlo_variance_check(g, [1.0], 0, 1, count, seed).passed
            for count in (2, 3, 5, 10, 20) for seed in range(3000))
        assert failures <= 5



def unit_free(report: VerificationReport) -> list:
    """(holds, margin / scale) per relation, with a scale proportional to the
    resistance unit: 1 for entropies, which have no units; the endpoint
    resistances for a second difference; else the larger operand."""
    values = dict(report.quantities)
    out = []
    for iq in report.inequalities:
        if iq.lhs.startswith("h_"):
            scale = 1.0
        elif iq.lhs == "second_diff_max":
            scale = max(values["reff_at_r0"], values["reff_at_r1"])
        else:
            scale = max(abs(values[iq.lhs]), abs(values[iq.rhs]))
        out.append((iq.holds, iq.margin / scale))
    return out


def suite_unit_free(seed: int, index: int, unit: float) -> list:
    graph, r, r_bar, a, b, edge, delta = _suite_instance(seed, index)
    instance = graph, unit * r, unit * r_bar, a, b, edge, unit * delta
    return [(name, unit_free(report)) for name, report in
            _suite_reports(*instance, DEFAULT_TOL, 11)]


def assert_same_verdicts(scaled: list, reference: list):
    for (name, relations), (ref_name, ref_relations) in zip(scaled, reference):
        assert name == ref_name
        for (holds, margin), (ref_holds, ref_margin) in zip(relations,
                                                            ref_relations):
            assert holds == ref_holds, name
            assert margin == pytest.approx(ref_margin, abs=1e-9), name


class TestUnitFreeVerdicts:
    """r -> t r (and delta -> t delta) changes no verdict and no unit-free
    margin: the theorems hold in any units, and so must their checks."""

    @settings(max_examples=60, deadline=None)
    @given(index=st.integers(0, 10_000), log_t=st.floats(-6.0, 6.0))
    @example(index=7, log_t=6.0)  # failed with an absolute tolerance
    @example(index=27, log_t=6.0)
    def test_suite_checks_are_unit_free(self, index, log_t):
        assert_same_verdicts(suite_unit_free(12345, index, 10.0 ** log_t),
                             suite_unit_free(12345, index, 1.0))

    @pytest.fixture(scope="class")
    def battery_in_ohms(self):
        return [suite_unit_free(12345, i, 1.0) for i in range(200)]

    @pytest.mark.parametrize("unit", [1e-6, 1e6])
    def test_suite_battery_in_other_units(self, battery_in_ohms, unit):
        for i, reference in enumerate(battery_in_ohms):
            scaled = suite_unit_free(12345, i, unit)
            assert all(holds for _, relations in scaled
                       for holds, _ in relations), i
            assert_same_verdicts(scaled, reference)

    @pytest.mark.parametrize("t", [10.0 ** k for k in range(-12, 13, 3)])
    def test_rule_detects_a_violation_in_any_units(self, t):
        # 1 % apart fails every relation; 1e-10 apart (within tol = 1e-8
        # of the operands) passes every one, whatever the unit t.
        for gap, expected in ((1e-2, False), (1e-10, True)):
            quantities = (("x", t), ("y", t * (1.0 + gap)))
            report = _judged("rule", quantities, [
                ("x", ">=", "y"), ("y", "<=", "x"), ("x", "==", "y")],
                DEFAULT_TOL)
            assert [iq.holds for iq in report.inequalities] == [expected] * 3

    def test_entropy_margins_are_absolute(self):
        # An entropy difference has no units: 1e-8 nats is the bound
        # whatever the entropies' size.
        quantities = (("h_a", 50.0), ("h_b", 50.0 + 2e-8))
        report = _judged("rule", quantities, [("h_a", ">=", "h_b", 1.0)],
                         DEFAULT_TOL)
        assert not report.passed

    @pytest.mark.parametrize("t", [1e-12, 1.0, 1e12])
    def test_pinned_functional_in_any_units(self, t):
        # The functional lies in the span of the coarse rows, so both
        # conditioned variances are 0 by the lemma and rounding otherwise;
        # they are judged against the unconditioned variance.
        failures = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 6))
            phi = rng.standard_normal((int(rng.integers(1, n + 1)), n))
            a, a_bar = rng.standard_normal((2, n, n))
            pinned = phi.T @ rng.standard_normal(phi.shape[0])
            inst = AppendixInstance(t * a @ a.T, t * a_bar @ a_bar.T,
                                    np.concatenate([pinned, pinned]), phi)
            failures += not appendix_check(inst).passed
        assert failures == 0


class TestSuite:
    def test_small_battery_passes(self):
        summary = run_suite(seed=777, instances=5)
        assert summary["pass"]
        assert set(summary["checks"]) == {
            "superadditivity", "melvin_chain", "entropy_chain",
            "scaling", "monotonicity", "concavity"}
        for entry in summary["checks"].values():
            assert entry["failures"] == 0

    @pytest.mark.parametrize("seed, instances, message", [
        (0, 2.5, "instance count 2.5 is not an integer index"),
        (0, True, "instance count True is not an integer index"),
        (0, 0, "instance count 0 is below 1"),
        (-1, 1, "seed -1 is below 0"),
        (1.0, 1, "seed 1.0 is not an integer index")])
    def test_seed_and_instances_are_checked_first(self, seed, instances,
                                                  message):
        # instances=2.5 used to end in range's TypeError.
        with pytest.raises(ValidationError, match=f"^{message}$"):
            run_suite(seed, instances)

    def test_deterministic_for_a_seed(self):
        first = run_suite(seed=31, instances=3)
        second = run_suite(seed=31, instances=3)
        assert first == second


# Each public check that judges its relations, called on the triangle with
# tolerance tol: a valid network that passes at DEFAULT_TOL.
TOLERANT_CHECKS = {
    "superadditivity": lambda n, tol: check_superadditivity(
        n.graph, n.resistances, 2.0 * n.resistances, 0, 1, tol),
    "melvin_chain": lambda n, tol: melvin_chain(
        n.graph, n.resistances, 2.0 * n.resistances, 0, 1, tol),
    "entropy_chain": lambda n, tol: entropy_chain(
        n.graph, n.resistances, 2.0 * n.resistances, 0, 1, tol),
    "concavity": lambda n, tol: check_concavity_segment(
        n.graph, n.resistances, [1.0, 2.0, 3.0], 5, 0, 1, tol),
    "scaling": lambda n, tol: check_scaling(
        n.graph, n.resistances, 3.0, 0, 1, tol),
    "monotonicity": lambda n, tol: check_monotonicity(
        n.graph, n.resistances, 1, 0.5, 0, 1, tol),
    "appendix": lambda n, tol: appendix_check(
        random_appendix_instance(3, 0), tol),
    "suite": lambda n, tol: run_suite(0, 1, tol),
}


class TestToleranceIsChecked:
    """A tolerance that is not finite and >= 0, the CLI's --tol rule,
    raises ValidationError before any network is solved: a NaN or negative
    one used to report a valid network as failed."""

    @pytest.mark.parametrize("name", TOLERANT_CHECKS)
    def test_a_valid_network_passes(self, triangle, name):
        result = TOLERANT_CHECKS[name](triangle, DEFAULT_TOL)
        assert result["pass"] if name == "suite" else result.passed

    @pytest.mark.parametrize("tol", [math.nan, -1.0, -1e-300, math.inf])
    @pytest.mark.parametrize("name", TOLERANT_CHECKS)
    def test_a_bad_tolerance_raises(self, monkeypatch, triangle, name, tol):
        # entropy_chain used to build three free fields and two doubled
        # factorizations, and the concavity check to solve every row,
        # before rejecting tol.
        def forbidden(*args, **kwargs):
            raise AssertionError("computed before the tolerance was checked")

        for name_in_verify in ("build_free_field", "node_voltages",
                               "effective_resistance", "GaussianVector",
                               "_suite_instance"):
            monkeypatch.setattr(verify, name_in_verify, forbidden)
        with pytest.raises(ValidationError,
                           match=r"^tolerance must be finite and >= 0, got "):
            TOLERANT_CHECKS[name](triangle, tol)


class TestChiSquareQuantiles:
    """verify mc's bounds come from its own inverse of the chi-square tails,
    not from scipy.special, whose import cost 3 MB of the command's RSS."""

    # 4 is the first count whose lower Wilson-Hilferty point is positive;
    # from count 40 the tails take Stirling's prefactor.
    @pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 10, 20, 39, 40, 41, 50,
                                       100, *(10 ** k for k in range(3, 10))])
    @pytest.mark.parametrize("upper", [True, False])
    def test_matches_chdtri(self, count, upper):
        from scipy.special import chdtri

        y = verify.MC_ALPHA / 2 if upper else 1 - verify.MC_ALPHA / 2
        assert verify._chi2_tail_quantile(count, upper) == pytest.approx(
            float(chdtri(count, y)), rel=1e-13, abs=0.0)
