"""Free-field construction and the variance = effective resistance identity."""

from pathlib import Path

import networkx as nx
import numpy as np
import pytest
import scipy.linalg.lapack

import gffresist
from gffresist import (
    ResistiveNetwork,
    build_free_field,
    build_multigraph,
    circuit_matrix,
    condition_on_value,
    dissipated_power,
    effective_resistance,
    entropy_chain,
    eta_field,
    fundamental_circuits,
    gaussian,
    gff,
    independent_gaussian,
    linear_functional_variance,
    min_energy_flow_oracle,
    potential_difference_variance,
    sample,
    tree_walk_vector,
    verify,
)
from gffresist.cli import parse_network
from gffresist.errors import NotASpanningTreeError
from gffresist.verify import (
    instance_rng,
    random_network,
    random_pair,
    random_resistances,
)

from cycle_oracles import edge_field, enumerate_circuits, path_independence_check

DATA = Path(__file__).parent / "data"


def pinv_conditioned_covariance(cov, rows):
    """Oracle: the raw pseudo-inverse identity, evaluated directly."""
    gram = rows @ cov @ rows.T
    return cov - cov @ rows.T @ np.linalg.pinv(gram) @ rows @ cov


class TestBuildFreeField:
    def test_tree_is_unconditioned(self, series_path):
        field = build_free_field(series_path)
        np.testing.assert_allclose(edge_field(field).covariance,
                                   np.diag(series_path.resistances))

    def test_parallel_pair_covariance(self, parallel_pair):
        field = build_free_field(parallel_pair)
        np.testing.assert_allclose(edge_field(field).covariance,
                                   np.full((2, 2), 2.0 / 3.0), atol=1e-12)

    def test_triangle_against_pinv_oracle(self, triangle):
        field = build_free_field(triangle)
        g = triangle.graph
        oracle = pinv_conditioned_covariance(
            np.diag(triangle.resistances),
            circuit_matrix(g, fundamental_circuits(g)))
        cov = edge_field(field).covariance
        np.testing.assert_allclose(cov, oracle, atol=1e-12)
        np.testing.assert_allclose(np.diag(cov), 2.0 / 3.0, atol=1e-12)
        assert np.linalg.matrix_rank(cov, tol=1e-9) == 2

    def test_field_invariants_on_random_networks(self):
        for i in range(25):
            net = random_network(instance_rng(307, i))
            field = edge_field(build_free_field(net))
            for row in circuit_matrix(net.graph,
                                      fundamental_circuits(net.graph)):
                assert linear_functional_variance(field, row) <= 1e-10
            rank = np.linalg.matrix_rank(field.covariance, tol=1e-9)
            assert rank == net.graph.n_vertices - 1


class TestVarianceIsEffectiveResistance:
    def test_single_edge(self, single_edge):
        field = build_free_field(single_edge)
        assert potential_difference_variance(field, 0, 1) == pytest.approx(3.0)

    def test_parallel_pair(self, parallel_pair):
        field = build_free_field(parallel_pair)
        assert potential_difference_variance(field, 0, 1) == pytest.approx(
            2.0 / 3.0, abs=1e-12)

    def test_triangle(self, triangle):
        field = build_free_field(triangle)
        assert potential_difference_variance(field, 0, 1) == pytest.approx(
            2.0 / 3.0, abs=1e-12)

    def test_all_pairs_on_random_networks(self):
        for i in range(25):
            net = random_network(instance_rng(311, i))
            field = build_free_field(net)
            for a in range(net.graph.n_vertices):
                for b in range(a + 1, net.graph.n_vertices):
                    assert potential_difference_variance(field, a, b) == \
                        pytest.approx(effective_resistance(net, a, b), rel=1e-9)


class TestEtaField:
    def test_reference_coordinate_is_dead(self, triangle):
        eta = eta_field(build_free_field(triangle), 0)
        assert eta.covariance[0, 0] == 0.0

    def test_single_edge_variance(self, single_edge):
        eta = eta_field(build_free_field(single_edge), 0)
        assert eta.covariance[1, 1] == pytest.approx(3.0)

    def test_triangle_variances_match_resistances_to_reference(self, triangle):
        eta = eta_field(build_free_field(triangle), 0)
        assert eta.covariance[1, 1] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert eta.covariance[2, 2] == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_edge_variance_near_the_double_limit(self):
        # Path a-b-c, a tree: the edge field is diag(r) stored as given,
        # and each vertex's potential variance is its tree walk's.
        g = build_multigraph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        field = build_free_field(ResistiveNetwork(g, [1.5e308, 1.0]))
        assert np.array_equal(edge_field(field).covariance,
                              np.diag([1.5e308, 1.0]))
        eta = eta_field(field, 0)
        assert np.diag(eta.covariance).tolist() == [0.0, 1.5e308, 1.5e308]

    @pytest.mark.parametrize("v_star", [-1, 3])
    def test_reference_out_of_range(self, triangle, v_star):
        with pytest.raises(NotASpanningTreeError):
            eta_field(build_free_field(triangle), v_star)

    def test_differences_ignore_reference_choice(self):
        for i in range(10):
            net = random_network(instance_rng(313, i))
            n_v = net.graph.n_vertices
            eta0 = eta_field(build_free_field(net), 0)
            eta1 = eta_field(build_free_field(net), n_v - 1)
            for a in range(n_v):
                for b in range(a + 1, n_v):
                    d = np.zeros(n_v)
                    d[a], d[b] = 1.0, -1.0
                    v0 = d @ eta0.covariance @ d
                    v1 = d @ eta1.covariance @ d
                    assert abs(v0 - v1) <= 1e-10


class TestPathIndependence:
    def test_tree_is_exact(self, series_path):
        field = build_free_field(series_path)
        assert path_independence_check(field, 0, 2) == 0.0

    def test_triangle(self, triangle):
        field = build_free_field(triangle)
        assert path_independence_check(field, 0, 1) <= 1e-10

    def test_parallel_pair(self, parallel_pair):
        field = build_free_field(parallel_pair)
        assert path_independence_check(field, 0, 1) <= 1e-10

    def test_random_networks(self):
        for i in range(15):
            rng = instance_rng(317, i)
            net = random_network(rng)
            a, b = random_pair(rng, net.graph.n_vertices)
            field = build_free_field(net)
            assert path_independence_check(field, a, b) <= 1e-10


class TestBasisIndependence:
    def test_all_circuits_give_the_same_field(self):
        for i in range(15):
            net = random_network(instance_rng(331, i))
            field = build_free_field(net)
            all_rows = circuit_matrix(net.graph, enumerate_circuits(net.graph))
            conditioned = condition_on_value(
                independent_gaussian(net.resistances), all_rows)
            diff = np.max(np.abs(conditioned.covariance
                                 - edge_field(field).covariance))
            assert diff <= 1e-9


class TestMonteCarlo:
    def test_sampled_variance_matches(self, triangle):
        field = build_free_field(triangle)
        functional = tree_walk_vector(field.network.graph, 0, 1)
        draws = sample(edge_field(field), 200_000, seed=11) @ functional
        reff = 2.0 / 3.0
        z = abs(float(np.var(draws)) - reff) / (reff * np.sqrt(2.0 / 200_000))
        assert z <= 4.0

    def test_check_draws_the_functional_in_blocks(self, monkeypatch):
        # No Gaussian object (so no E x E edge covariance), no
        # eigendecomposition and no count x E normals: the block size
        # changes the empirical variance by rounding.
        net = parse_network(str(DATA / "grid4.json"))

        def run(block):
            monkeypatch.setattr(gaussian, "DRAW_BLOCK", block)
            return verify.monte_carlo_variance_check(
                net.graph, net.resistances, 0, 15, 20_000, seed=1)

        def forbidden(*args, **kwargs):
            raise AssertionError("dense sampling path used")

        for module in (gaussian, gff, verify):
            monkeypatch.setattr(module, "GaussianVector", forbidden)
        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        whole, blocked = run(24 * 20_000), run(24 * 7)
        assert whole.passed and blocked.passed
        assert blocked.quantity("empirical_variance") == pytest.approx(
            whole.quantity("empirical_variance"), rel=1e-12)


class TestProjectionForm:
    def test_networkx_resistance_distance_oracle(self):
        # A third-party Laplacian route, on grids up to 12 x 12.
        for side in (2, 3, 5, 8, 12):
            rng = np.random.default_rng(side)
            n_v = side * side
            specs = [(i * side + j, i * side + j + 1)
                     for i in range(side) for j in range(side - 1)]
            specs += [(i * side + j, (i + 1) * side + j)
                      for i in range(side - 1) for j in range(side)]
            r = random_resistances(rng, len(specs))
            field = build_free_field(ResistiveNetwork(
                build_multigraph(list(range(n_v)), specs), r))
            oracle = nx.Graph()
            oracle.add_weighted_edges_from(
                ((u, v, x) for (u, v), x in zip(specs, r)), weight="r")
            for _ in range(3):
                a, b = random_pair(rng, n_v)
                expected = nx.resistance_distance(oracle, a, b, weight="r")
                assert potential_difference_variance(field, a, b) == \
                    pytest.approx(expected, rel=1e-9)

    def test_no_dense_edge_conditioning(self, monkeypatch):
        # The free field and the entropy chain need no eigendecomposition
        # and no E x E conditioning; patch every module binding.
        def forbidden(*args, **kwargs):
            raise AssertionError("dense conditioning path used")

        for module in (gffresist, gaussian, gff, verify):
            if hasattr(module, "condition_on_value"):
                monkeypatch.setattr(module, "condition_on_value", forbidden)
        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        net = parse_network(str(DATA / "grid4.json"))
        field = build_free_field(net)
        assert potential_difference_variance(field, 0, 15) > 0.0
        assert entropy_chain(net.graph, net.resistances,
                             2.0 * net.resistances, 0, 15).passed

    def test_no_route_forms_an_explicit_basis(self, monkeypatch):
        # The conditioning works through the Householder reflectors alone.
        def formed(*args, **kwargs):
            raise AssertionError("an explicit Q was formed")
        monkeypatch.setattr(np.linalg, "qr", formed)
        monkeypatch.setattr(scipy.linalg.lapack, "dorgqr", formed)
        net = parse_network(str(DATA / "grid4.json"))
        field = build_free_field(net)
        assert potential_difference_variance(field, 0, 15) == pytest.approx(
            effective_resistance(net, 0, 15), rel=1e-12)
        assert eta_field(field, 3).dim == net.graph.n_vertices
        assert entropy_chain(net.graph, net.resistances,
                             2.0 * net.resistances, 0, 15).passed
        assert verify.monte_carlo_variance_check(
            net.graph, net.resistances, 0, 15, 1000, 5).passed

    def test_wide_span_keeps_every_circuit_row(self):
        # Resistances over [1e-6, 1e6]: the factor keeps one column per
        # circuit row, and the variance matches the cycle-space flow power,
        # by the projection and by the general conditioning path alike.
        # A singular-value cutoff of 1e-6 dropped a row on one network here
        # and left a relative gap of 1.8e-8.
        worst = 0.0
        for i in range(150):
            rng = instance_rng(99, i)
            graph = random_network(rng).graph
            net = ResistiveNetwork(
                graph, random_resistances(rng, graph.n_edges, 1e-6, 1e6))
            a, b = random_pair(rng, graph.n_vertices)
            field = build_free_field(net)
            assert (sum(block.tau.size for block in field.factor[1])
                    == graph.cycle_rank)
            power = dissipated_power(net, min_energy_flow_oracle(net, a, b))
            general = condition_on_value(
                independent_gaussian(net.resistances),
                circuit_matrix(graph, fundamental_circuits(graph)))
            for variance in (
                    potential_difference_variance(field, a, b),
                    linear_functional_variance(
                        general, tree_walk_vector(field.network.graph, a, b))):
                worst = max(worst, abs(variance - power) / power)
        assert worst <= 1e-9, f"worst relative gap {worst:.3e}"

    def test_edge_covariance_passes_psd_check_on_wide_spans(self):
        # Resistances over [1e-6, 1e6]: the Gram forms of the edge and
        # vertex covariances pass the public checks on every network.
        for i in range(300):
            rng = instance_rng(99, i)
            graph = random_network(rng).graph
            net = ResistiveNetwork(
                graph, random_resistances(rng, graph.n_edges, 1e-6, 1e6))
            field = build_free_field(net)
            assert edge_field(field).dim == graph.n_edges
            assert eta_field(field).dim == graph.n_vertices
