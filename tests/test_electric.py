"""Laplacian solves, Thomson flows, and the minimum-energy cross-check."""

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import LinAlgWarning

from gffresist import (
    FlowVector,
    ResistiveNetwork,
    circuit_matrix,
    dissipated_power,
    effective_resistance,
    fundamental_circuits,
    kcl_residual,
    kvl_residual,
    laplacian,
    min_energy_flow_oracle,
    node_voltages,
    thomson_flow,
)
from gffresist.electric import _laplacian, _spd_solve
from gffresist.errors import (
    DimensionMismatchError,
    SameVertexError,
    SingularSystemError,
    ValidationError,
)
from gffresist.graph import (
    EdgeRecord,
    Multigraph,
    build_multigraph,
    walk_between,
    walk_sign_vector,
)
from gffresist.verify import instance_rng, random_network, random_pair


def pinv_effective_resistance(net: ResistiveNetwork, a: int, b: int) -> float:
    """Oracle: R_eff = (d_a - d_b)' L^+ (d_a - d_b) via the full pseudo-inverse."""
    pinv = np.linalg.pinv(laplacian(net))
    d = np.zeros(net.graph.n_vertices)
    d[a], d[b] = 1.0, -1.0
    return float(d @ pinv @ d)


class TestLaplacian:
    def test_single_edge(self):
        g = build_multigraph(["a", "b"], [("a", "b")])
        net = ResistiveNetwork(g, np.array([2.0]))
        np.testing.assert_allclose(laplacian(net), [[0.5, -0.5], [-0.5, 0.5]])

    def test_parallel_conductances_add(self):
        g = build_multigraph(["a", "b"], [("a", "b"), ("a", "b")])
        net = ResistiveNetwork(g, np.array([1.0, 1.0]))
        np.testing.assert_allclose(laplacian(net), [[2, -2], [-2, 2]])

    def test_triangle(self, triangle):
        lap = laplacian(triangle)
        np.testing.assert_allclose(np.diag(lap), [2, 2, 2])
        np.testing.assert_allclose(lap - np.diag(np.diag(lap)),
                                   -(np.ones((3, 3)) - np.eye(3)))

    def test_nullspace_is_constant_vector(self, bridge):
        np.testing.assert_allclose(laplacian(bridge) @ np.ones(4), 0, atol=1e-12)

    def test_matches_edge_loop_bit_for_bit(self):
        # parallel edges repeat entries; they must add up in edge order
        for i in range(30):
            net = random_network(instance_rng(71, i))
            g = net.graph
            ref = np.zeros((g.n_vertices, g.n_vertices))
            for e, rec in enumerate(g.edges):
                c = 1.0 / net.resistances[e]
                ref[rec.tail, rec.head] -= c
                ref[rec.head, rec.tail] -= c
                ref[rec.tail, rec.tail] += c
                ref[rec.head, rec.head] += c
            np.testing.assert_array_equal(laplacian(net), ref)


    def test_ground_reduced_assembly_drops_one_row_and_column(self):
        for i in range(30):
            net = random_network(instance_rng(73, i))
            full = laplacian(net)
            for ground in range(net.graph.n_vertices):
                expected = np.delete(np.delete(full, ground, 0), ground, 1)
                np.testing.assert_array_equal(_laplacian(net, ground), expected)


def grid_network(side: int, rng) -> ResistiveNetwork:
    """side x side grid with log-uniform resistances in [0.1, 10]."""
    specs = [(i * side + j, i * side + j + 1)
             for i in range(side) for j in range(side - 1)]
    specs += [(i * side + j, (i + 1) * side + j)
              for i in range(side - 1) for j in range(side)]
    g = build_multigraph(list(range(side * side)), specs)
    return ResistiveNetwork(g, np.exp(rng.uniform(np.log(0.1), np.log(10.0),
                                                  g.n_edges)))


def scipy_voltages(net: ResistiveNetwork, a: int, b: int) -> np.ndarray:
    """Reference: slice the full Laplacian, solve with scipy.linalg.solve."""
    keep = [v for v in range(net.graph.n_vertices) if v != b]
    rhs = np.zeros(len(keep))
    rhs[keep.index(a)] = 1.0
    potentials = np.zeros(net.graph.n_vertices)
    potentials[keep] = scipy.linalg.solve(
        laplacian(net)[np.ix_(keep, keep)], rhs, assume_a="pos")
    return potentials


def scipy_oracle_flow(net: ResistiveNetwork, a: int, b: int) -> np.ndarray:
    """Reference: the cycle-coordinate normal equations through scipy."""
    g = net.graph
    base = walk_sign_vector(g, walk_between(g, a, b))
    weighted = g.cycle_matrix * net.resistances
    t = scipy.linalg.solve(weighted @ g.cycle_matrix.T, -weighted @ base,
                           assume_a="pos")
    return base + g.cycle_matrix.T @ t


class TestSpdSolve:
    def test_matches_scipy_on_grids(self):
        rng = np.random.default_rng(2024)
        for side in (4, 8, 12, 16):
            net = grid_network(side, rng)
            n_v = net.graph.n_vertices
            pairs = [(0, n_v - 1), (n_v - 1, 0)] + [
                random_pair(rng, n_v) for _ in range(3)]
            for a, b in pairs:
                assert np.array_equal(node_voltages(net, a, b).potentials,
                                      scipy_voltages(net, a, b))
                assert np.array_equal(min_energy_flow_oracle(net, a, b).currents,
                                      scipy_oracle_flow(net, a, b))

    def test_matches_scipy_on_small_systems(self):
        # 1x1 and 2x2 systems: parallel pairs, paths and triangles
        for i in range(100):
            rng = instance_rng(79, i)
            net = random_network(rng, max_vertices=3, max_edges=4)
            a, b = random_pair(rng, net.graph.n_vertices)
            assert np.array_equal(node_voltages(net, a, b).potentials,
                                  scipy_voltages(net, a, b))
            assert np.array_equal(min_energy_flow_oracle(net, a, b).currents,
                                  scipy_oracle_flow(net, a, b))

    @pytest.mark.parametrize("matrix", [[[1.0, 2.0], [2.0, 1.0]],
                                        [[0.0, 0.0], [0.0, 1.0]],
                                        [[0.0]], [[-1.0]]])
    def test_not_positive_definite_raises(self, matrix):
        with pytest.raises(SingularSystemError, match="^no factor$"):
            _spd_solve(np.array(matrix), np.ones(len(matrix)), "no factor")

    def test_ill_conditioned_warns(self):
        matrix = np.diag([1.0, 1e-17])
        with pytest.warns(LinAlgWarning, match="ill-conditioned"):
            x = _spd_solve(matrix, np.ones(2), "unused")
        np.testing.assert_allclose(x, [1.0, 1e17])

    def test_empty_system(self):
        x = _spd_solve(np.zeros((0, 0)), np.zeros(0), "unused")
        assert x.shape == (0,)

    def test_reads_the_upper_triangle(self):
        matrix = np.array([[4.0, 1.0], [-7.0, 3.0]])
        symmetric = np.array([[4.0, 1.0], [1.0, 3.0]])
        rhs = np.array([1.0, 2.0])
        np.testing.assert_array_equal(_spd_solve(matrix, rhs, "unused"),
                                      _spd_solve(symmetric, rhs, "unused"))


class TestNodeVoltages:
    def test_single_edge_ohm(self, single_edge):
        volts = node_voltages(single_edge, 0, 1)
        assert volts.potentials[0] == pytest.approx(3.0)
        assert volts.potentials[1] == 0.0

    def test_series_drop(self, series_path):
        volts = node_voltages(series_path, 0, 2)
        np.testing.assert_allclose(volts.potentials, [2.0, 1.0, 0.0])

    def test_triangle_against_pinv_oracle(self, triangle):
        volts = node_voltages(triangle, 0, 1)
        # frozen from the pseudo-inverse oracle
        assert volts.potentials[0] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert volts.potentials[2] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert pinv_effective_resistance(triangle, 0, 1) == pytest.approx(
            2.0 / 3.0, abs=1e-12)

    def test_same_vertex(self, triangle):
        with pytest.raises(SameVertexError):
            node_voltages(triangle, 1, 1)

    def test_singular_system_detected(self):
        # a disconnected graph that slipped past construction validation
        g = Multigraph(("a", "b", "c"), (EdgeRecord(0, 1, 0),))
        net = ResistiveNetwork(g, np.array([1.0]))
        with pytest.raises(SingularSystemError):
            node_voltages(net, 0, 2)


class TestEffectiveResistance:
    def test_series_adds(self, series_path):
        assert effective_resistance(series_path, 0, 2) == pytest.approx(2.0)

    def test_parallel_law(self, parallel_pair):
        assert effective_resistance(parallel_pair, 0, 1) == pytest.approx(2.0 / 3.0)

    def test_triangle_oracle(self, triangle):
        assert effective_resistance(triangle, 0, 1) == pytest.approx(
            pinv_effective_resistance(triangle, 0, 1), rel=1e-12)

    def test_symmetry(self):
        for i in range(30):
            rng = instance_rng(101, i)
            net = random_network(rng)
            a, b = random_pair(rng, net.graph.n_vertices)
            assert effective_resistance(net, a, b) == pytest.approx(
                effective_resistance(net, b, a), rel=1e-12)

    def test_matches_pinv_everywhere(self):
        for i in range(30):
            rng = instance_rng(103, i)
            net = random_network(rng)
            a, b = random_pair(rng, net.graph.n_vertices)
            assert effective_resistance(net, a, b) == pytest.approx(
                pinv_effective_resistance(net, a, b), rel=1e-9)


class TestThomsonFlow:
    def test_single_edge_unit(self):
        g = build_multigraph(["a", "b"], [("a", "b")])
        net = ResistiveNetwork(g, np.array([7.0]))
        np.testing.assert_allclose(thomson_flow(net, 0, 1).currents, [1.0])

    def test_triangle_split(self, triangle):
        currents = thomson_flow(triangle, 0, 1).currents
        np.testing.assert_allclose(np.abs(currents), [2 / 3, 1 / 3, 1 / 3],
                                   atol=1e-12)
        oracle = min_energy_flow_oracle(triangle, 0, 1).currents
        np.testing.assert_allclose(currents, oracle, atol=1e-10)

    def test_parallel_inverse_to_resistance(self, parallel_pair):
        currents = thomson_flow(parallel_pair, 0, 1).currents
        np.testing.assert_allclose(currents, [2 / 3, 1 / 3], atol=1e-12)
        oracle = min_energy_flow_oracle(parallel_pair, 0, 1).currents
        np.testing.assert_allclose(currents, oracle, atol=1e-10)


class TestMinEnergyOracle:
    def test_tree_flow_is_forced(self, series_path):
        np.testing.assert_allclose(
            min_energy_flow_oracle(series_path, 0, 2).currents, [1.0, 1.0])

    def test_symmetric_parallel_split(self):
        g = build_multigraph(["a", "b"], [("a", "b"), ("a", "b")])
        net = ResistiveNetwork(g, np.array([1.0, 1.0]))
        np.testing.assert_allclose(
            min_energy_flow_oracle(net, 0, 1).currents, [0.5, 0.5])

    def test_agrees_with_thomson(self):
        for i in range(30):
            rng = instance_rng(107, i)
            net = random_network(rng)
            a, b = random_pair(rng, net.graph.n_vertices)
            np.testing.assert_allclose(
                min_energy_flow_oracle(net, a, b).currents,
                thomson_flow(net, a, b).currents, atol=1e-10)


class TestPowerAndResiduals:
    def test_zero_flow(self, triangle):
        f = FlowVector(np.zeros(3))
        assert dissipated_power(triangle, f) == 0.0
        assert kcl_residual(triangle, f, 0, 1) == 1.0
        assert kvl_residual(triangle, f) == 0.0

    def test_single_edge(self, single_edge):
        f = FlowVector(np.array([1.0]))
        assert dissipated_power(single_edge, f) == pytest.approx(3.0)
        assert kcl_residual(single_edge, f, 0, 1) == 0.0

    def test_triangle_power_equals_reff(self, triangle):
        f = thomson_flow(triangle, 0, 1)
        assert dissipated_power(triangle, f) == pytest.approx(2 / 3, abs=1e-12)
        assert kcl_residual(triangle, f, 0, 1) <= 1e-10
        assert kvl_residual(triangle, f) <= 1e-10

    def test_kvl_on_unbalanced_parallel_split(self, parallel_pair):
        assert kvl_residual(parallel_pair, FlowVector(np.array([0.5, 0.5]))) \
            == pytest.approx(0.5)

    def test_tree_kvl_is_zero(self, series_path):
        assert kvl_residual(series_path, FlowVector(np.array([2.0, -1.0]))) == 0.0

    def test_kcl_same_vertex(self, triangle):
        # A zero source is no a-to-b source: no residual is returned for it.
        with pytest.raises(SameVertexError):
            kcl_residual(triangle, FlowVector(np.zeros(3)), 1, 1)

    def test_dimension_mismatch(self, triangle):
        with pytest.raises(DimensionMismatchError):
            dissipated_power(triangle, FlowVector(np.zeros(2)))
        with pytest.raises(DimensionMismatchError):
            kcl_residual(triangle, FlowVector(np.zeros(2)), 0, 1)
        with pytest.raises(DimensionMismatchError):
            kvl_residual(triangle, FlowVector(np.zeros(2)))


class TestNetworkConstruction:
    def test_rejects_nonpositive_resistance(self, triangle):
        with pytest.raises(ValidationError):
            ResistiveNetwork(triangle.graph, np.array([1.0, 0.0, 1.0]))

    def test_rejects_subfloor_resistance(self, triangle):
        with pytest.raises(ValidationError):
            ResistiveNetwork(triangle.graph, np.array([1.0, 1e-13, 1.0]))

    @pytest.mark.parametrize("bad", [0.0, -1.0, 1e-13, np.inf, np.nan])
    def test_message_names_the_first_bad_edge(self, triangle, bad):
        with pytest.raises(ValidationError, match=r"^edges\[1\]: "):
            ResistiveNetwork(triangle.graph, np.array([1.0, bad, bad]))

    def test_rejects_wrong_count(self, triangle):
        with pytest.raises(DimensionMismatchError):
            ResistiveNetwork(triangle.graph, np.array([1.0]))


class TestProperties:
    def test_triple_agreement(self):
        for i in range(50):
            rng = instance_rng(211, i)
            net = random_network(rng)
            a, b = random_pair(rng, net.graph.n_vertices)
            reff = effective_resistance(net, a, b)
            p_thomson = dissipated_power(net, thomson_flow(net, a, b))
            p_oracle = dissipated_power(net, min_energy_flow_oracle(net, a, b))
            assert p_thomson == pytest.approx(reff, rel=1e-9)
            assert p_oracle == pytest.approx(reff, rel=1e-9)

    def test_thomson_is_the_minimizer(self):
        for i in range(20):
            rng = instance_rng(223, i)
            net = random_network(rng)
            a, b = random_pair(rng, net.graph.n_vertices)
            flow = thomson_flow(net, a, b)
            base_power = dissipated_power(net, flow)
            cycles = circuit_matrix(net.graph, fundamental_circuits(net.graph))
            if cycles.shape[0] == 0:
                continue
            for _ in range(5):
                t = rng.normal(size=cycles.shape[0])
                perturbed = FlowVector(flow.currents + cycles.T @ t)
                assert kcl_residual(net, perturbed, a, b) <= 1e-10
                assert dissipated_power(net, perturbed) >= base_power - 1e-12

    def test_scaling_linearity(self):
        for i in range(20):
            rng = instance_rng(227, i)
            net = random_network(rng)
            a, b = random_pair(rng, net.graph.n_vertices)
            reff = effective_resistance(net, a, b)
            for t in (0.5, 2.0, 10.0):
                scaled = effective_resistance(net.with_resistances(
                    t * net.resistances), a, b)
                assert scaled == pytest.approx(t * reff, rel=1e-9)

    def test_monotone_in_each_resistance(self):
        for i in range(20):
            rng = instance_rng(229, i)
            net = random_network(rng)
            a, b = random_pair(rng, net.graph.n_vertices)
            reff = effective_resistance(net, a, b)
            edge = int(rng.integers(0, net.graph.n_edges))
            bumped = net.resistances.copy()
            bumped[edge] += float(rng.uniform(0.1, 5.0))
            assert effective_resistance(net.with_resistances(bumped), a, b) \
                >= reff - 1e-10
