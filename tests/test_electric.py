"""Laplacian solves, Thomson flows, and the minimum-energy cross-check."""

import dataclasses
import tracemalloc
import warnings
from itertools import permutations
from pathlib import Path

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
from gffresist import electric
from gffresist.electric import (
    VOLTAGE_MEMO_SIZE,
    VoltageVector,
    _band_solve,
)
from gffresist.cli import parse_network
from gffresist.errors import (
    DimensionMismatchError,
    NotASpanningTreeError,
    SameVertexError,
    SingularSystemError,
    ValidationError,
)
from gffresist.graph import (
    Multigraph,
    build_multigraph,
    cycle_plan,
    spanning_tree,
    walk_between,
    walk_sign_vector,
)
from gffresist.verify import (
    _suite_instance,
    check_concavity_segment,
    check_monotonicity,
    check_scaling,
    check_superadditivity,
    instance_rng,
    melvin_chain,
    random_network,
    random_pair,
    random_resistances,
)

DATA = Path(__file__).parent / "data"
EPS = np.finfo(float).eps


def dense(band: np.ndarray) -> np.ndarray:
    """The symmetric matrix whose LAPACK upper band storage is ``band``."""
    kd, size = band.shape[0] - 1, band.shape[1]
    i, j = np.triu_indices(size)
    i, j = i[j - i <= kd], j[j - i <= kd]
    full = np.zeros((size, size))
    full[i, j] = full[j, i] = band[kd + i - j, j]
    return full


def pack(matrix, kd: int) -> np.ndarray:
    """Upper band storage, half-bandwidth ``kd``, of a dense matrix's upper
    triangle; the slots that hold no entry are 0."""
    matrix = np.asarray(matrix, dtype=float)
    band = np.zeros((kd + 1, len(matrix)))
    for d in range(kd + 1):
        band[kd - d, d:] = np.diagonal(matrix, d)
    return band


def pinv_effective_resistance(net: ResistiveNetwork, a: int, b: int) -> float:
    """Oracle: R_eff = (d_a - d_b)' L^+ (d_a - d_b) via the full pseudo-inverse."""
    pinv = np.linalg.pinv(dense(laplacian(net)))
    d = np.zeros(net.graph.n_vertices)
    d[a], d[b] = 1.0, -1.0
    return float(d @ pinv @ d)


class TestLaplacian:
    def test_single_edge(self):
        g = build_multigraph(["a", "b"], [("a", "b")])
        net = ResistiveNetwork(g, np.array([2.0]))
        np.testing.assert_allclose(dense(laplacian(net)),
                                   [[0.5, -0.5], [-0.5, 0.5]])

    def test_parallel_conductances_add(self):
        g = build_multigraph(["a", "b"], [("a", "b"), ("a", "b")])
        net = ResistiveNetwork(g, np.array([1.0, 1.0]))
        np.testing.assert_allclose(dense(laplacian(net)), [[2, -2], [-2, 2]])

    def test_triangle(self, triangle):
        lap = dense(laplacian(triangle))
        np.testing.assert_allclose(np.diag(lap), [2, 2, 2])
        np.testing.assert_allclose(lap - np.diag(np.diag(lap)),
                                   -(np.ones((3, 3)) - np.eye(3)))

    def test_nullspace_is_constant_vector(self, bridge):
        np.testing.assert_allclose(dense(laplacian(bridge)) @ np.ones(4), 0,
                                   atol=1e-12)

    def test_matches_edge_loop_bit_for_bit(self):
        # parallel edges repeat entries; they must add up in edge order
        for i in range(30):
            net = random_network(instance_rng(71, i))
            g = net.graph
            ref = np.zeros((g.n_vertices, g.n_vertices))
            for e, (tail, head, _) in enumerate(g.edges):
                c = 1.0 / net.resistances[e]
                ref[tail, head] -= c
                ref[head, tail] -= c
                ref[tail, tail] += c
                ref[head, head] += c
            np.testing.assert_array_equal(dense(laplacian(net)), ref)

    def test_ground_reduced_assembly_drops_one_row_and_column(self):
        for i in range(30):
            net = random_network(instance_rng(73, i))
            full = dense(laplacian(net))
            for ground in range(net.graph.n_vertices):
                expected = np.delete(np.delete(full, ground, 0), ground, 1)
                np.testing.assert_array_equal(dense(laplacian(net, ground)),
                                              expected)

    def test_half_bandwidth_is_the_longest_kept_edge(self):
        for i in range(30):
            net = random_network(instance_rng(83, i))
            g = net.graph
            for ground in range(g.n_vertices):
                kept = (g.tails != ground) & (g.heads != ground)
                spans = (g.heads - g.tails - ((g.tails < ground)
                                              & (ground < g.heads)))[kept]
                assert laplacian(net, ground).shape == (
                    int(np.max(spans, initial=0)) + 1, g.n_vertices - 1)

    @pytest.mark.parametrize("side", [3, 8, 16])
    def test_row_major_grid_has_half_bandwidth_side(self, side):
        # What the band solve's speed rests on: O(V side^2), not O(V^3).
        net = grid_network(side, np.random.default_rng(side))
        assert laplacian(net).shape == (side + 1, side * side)
        for ground in (0, side * side // 2, side * side - 1):
            assert laplacian(net, ground).shape == (side + 1, side * side - 1)


def grid_network(side: int, rng) -> ResistiveNetwork:
    """side x side grid with log-uniform resistances in [0.1, 10]."""
    specs = [(i * side + j, i * side + j + 1)
             for i in range(side) for j in range(side - 1)]
    specs += [(i * side + j, (i + 1) * side + j)
              for i in range(side - 1) for j in range(side)]
    g = build_multigraph(list(range(side * side)), specs)
    return ResistiveNetwork(g, np.exp(rng.uniform(np.log(0.1), np.log(10.0),
                                                  g.n_edges)))


def scipy_banded_solve(matrix: np.ndarray, kd: int,
                       rhs: np.ndarray) -> np.ndarray:
    """Reference: pack the upper triangle at half-bandwidth kd, then scipy's
    cholesky_banded and cho_solve_banded (LAPACK dpbtrf, dpbtrs), a 1x1
    system included; a 0x0 system has the empty solution."""
    if not len(matrix):
        return rhs
    factor = scipy.linalg.cholesky_banded(pack(matrix, kd))
    return scipy.linalg.cho_solve_banded((factor, False), rhs)


def scipy_voltages(net: ResistiveNetwork, a: int, b: int) -> np.ndarray:
    """Reference: slice the full Laplacian, solve it banded through scipy
    at the half-bandwidth of its nonzero entries."""
    keep = [v for v in range(net.graph.n_vertices) if v != b]
    rhs = np.zeros(len(keep))
    rhs[keep.index(a)] = 1.0
    reduced = dense(laplacian(net))[np.ix_(keep, keep)]
    i, j = np.nonzero(reduced)
    potentials = np.zeros(net.graph.n_vertices)
    potentials[keep] = scipy_banded_solve(reduced, int(np.max(j - i)), rhs)
    return potentials


def block_gram(net: ResistiveNetwork) -> tuple:
    """Reference: the cycle Gram in the documented block form, read off
    the walk API's circuit matrix: its tree-edge columns D and the identity
    on the chords, so the Gram is ``W W^T + diag(r_chords)`` with ``W = D
    sqrt(r_tree)``. Returns ``(gram, D r_tree, tree_ids, chords, D)``."""
    g, r = net.graph, net.resistances
    tree_ids = np.array(sorted(spanning_tree(g)), dtype=int)
    chords = np.setdiff1d(np.arange(g.n_edges), tree_ids)
    block = np.ascontiguousarray(
        circuit_matrix(g, fundamental_circuits(g))[:, tree_ids])
    scaled = block * np.sqrt(r[tree_ids])
    gram = scaled @ scaled.T
    gram[np.diag_indices(len(chords))] += r[chords]
    weighted = block * r[tree_ids]
    return gram, weighted, tree_ids, chords, block


def dense_circuit_caches(g: Multigraph) -> list:
    """Names of the graph's caches holding, at any depth of tuples, lists,
    dict values and dataclass fields (RowMergePlan's arrays and its cached
    Panels), an array of any dtype the size of a dense walk or circuit
    form: E k entries (the circuit matrix), V E (every vertex's tree walk)
    or k (V - 1) (the circuits' tree block). For a graph with circuits
    (k > 0)."""
    sizes = {g.n_edges * g.cycle_rank, g.n_vertices * g.n_edges,
             g.cycle_rank * (g.n_vertices - 1)}

    def holds(value):
        if dataclasses.is_dataclass(value):
            value = vars(value)
        if isinstance(value, dict):
            value = list(value.values())
        if isinstance(value, (tuple, list)):
            return any(map(holds, value))
        return isinstance(value, np.ndarray) and value.size in sizes
    return [name for name, value in vars(g).items() if holds(value)]


def apex_order(net: ResistiveNetwork) -> tuple:
    """``block_gram``'s circuits (rows in chord order) listed in
    ``cycle_plan``'s apex order, read off the plan's chord entries, and
    kd, the widest apex-order spread of the circuits through one edge."""
    g = net.graph
    _, _, tree_ids, chords, block = block_gram(net)
    plan = cycle_plan(g)
    on_chord = np.isin(plan.coordinate, chords)
    column = np.empty(len(chords), dtype=int)
    column[np.searchsorted(chords, plan.coordinate[on_chord])] = (
        plan.column[on_chord])
    circuit, edge = np.nonzero(block)
    first = np.full(len(tree_ids), len(chords))
    last = np.full(len(tree_ids), -1)
    np.minimum.at(first, edge, column[circuit])
    np.maximum.at(last, edge, column[circuit])
    return np.argsort(column), int(np.max(last - first, initial=0))


def scipy_oracle_flow(net: ResistiveNetwork, a: int, b: int) -> np.ndarray:
    """Reference: the cycle-coordinate normal equations through scipy's
    banded Cholesky (LAPACK dpbtrf, dpbtrs), on the apex-order band cut
    from ``block_gram``'s dense Gram, with its right-hand side."""
    g = net.graph
    base = walk_sign_vector(g, walk_between(g, a, b))
    gram, weighted, tree_ids, chords, block = block_gram(net)
    order, kd = apex_order(net)
    t = np.empty(len(chords))
    t[order] = scipy_banded_solve(gram[np.ix_(order, order)], kd,
                                  -(weighted @ base[tree_ids])[order])
    flow = base.copy()
    flow[tree_ids] += block.T @ t
    flow[chords] = t
    return flow


def uncached_laplacian(net: ResistiveNetwork, ground=None) -> np.ndarray:
    """Reference: the band assembly with every index array rebuilt and no
    plan kept: one np.bincount over the (t,h), (t,t), (h,h) entries of each
    edge in edge order, the ground's entries dropped."""
    g = net.graph
    t, h, c = g.tails, g.heads, 1.0 / net.resistances
    rows = np.column_stack([t, t, h]).ravel()
    cols = np.column_stack([h, t, h]).ravel()
    values = np.column_stack([-c, c, c]).ravel()
    size = g.n_vertices
    if ground is not None:
        kept = (rows != ground) & (cols != ground)
        rows, cols, values = rows[kept], cols[kept], values[kept]
        rows = rows - (rows > ground)
        cols = cols - (cols > ground)
        size -= 1
    kd = int(np.max(cols - rows, initial=0))
    flat = np.bincount(kd * (cols + 1) + rows, values,
                       minlength=(kd + 1) * size)
    return flat.reshape(size, kd + 1).T


def shuffled_grid(side: int, rng) -> tuple:
    """A row-major side x side grid network and the same network with its
    vertices listed in a random order, edges in the same order."""
    net = grid_network(side, rng)
    order = rng.permutation(side * side)
    specs = list(zip(net.graph.tails.tolist(), net.graph.heads.tolist()))
    graph = build_multigraph([int(v) for v in order], specs)
    return net, ResistiveNetwork(graph, net.resistances)


def assert_oracle_matches_scipy(net: ResistiveNetwork, a: int, b: int):
    """The oracle's flow within 1e-13 of its largest current of
    ``scipy_oracle_flow``'s: the band is summed in another order than the
    dense Gram."""
    flow, expected = (min_energy_flow_oracle(net, a, b).currents,
                      scipy_oracle_flow(net, a, b))
    assert np.max(np.abs(flow - expected)) <= 1e-13 * np.max(np.abs(expected))


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
                assert_oracle_matches_scipy(net, a, b)

    def test_matches_scipy_on_small_systems(self):
        # 1x1 and 2x2 systems: parallel pairs, paths and triangles
        for i in range(100):
            rng = instance_rng(79, i)
            net = random_network(rng, max_vertices=3, max_edges=4)
            a, b = random_pair(rng, net.graph.n_vertices)
            assert np.array_equal(node_voltages(net, a, b).potentials,
                                  scipy_voltages(net, a, b))
            assert_oracle_matches_scipy(net, a, b)

    @pytest.mark.parametrize("matrix", [[[1.0, 2.0], [2.0, 1.0]],
                                        [[0.0, 0.0], [0.0, 1.0]],
                                        [[0.0]], [[-1.0]]])
    def test_not_positive_definite_raises(self, matrix):
        with pytest.raises(SingularSystemError,
                           match="^cycle Gram matrix is singular$"):
            _band_solve(pack(matrix, len(matrix) - 1), np.ones(len(matrix)))

    def test_ill_conditioned_warns(self):
        with pytest.warns(LinAlgWarning, match="ill-conditioned"):
            x, rcond = _band_solve(pack(np.diag([1.0, 1e-17]), 1), np.ones(2))
        np.testing.assert_allclose(x, [1.0, 1e17])
        assert rcond == pytest.approx(1e-17, rel=1e-12)

    def test_empty_system(self):
        x, rcond = _band_solve(np.zeros((1, 0)), np.zeros(0))
        assert x.shape == (0,)
        assert rcond == 1.0

    @pytest.mark.parametrize("size", [0, 1, 2, 5, 40])
    def test_matches_cho_solve(self, size):
        rng = np.random.default_rng(size)
        rows = rng.standard_normal((size, size))
        gram = rows @ rows.T + size * np.eye(size)
        rhs = rng.standard_normal(size)
        kd = max(size - 1, 0)
        assert np.array_equal(_band_solve(pack(gram, kd), rhs)[0],
                              scipy_banded_solve(gram, kd, rhs))

    @pytest.mark.parametrize("resistances", [[1e308, 1e308],
                                             [np.finfo(float).max]])
    def test_non_finite_solution_raises(self, resistances):
        # A path a-b-c of two 1e308-ohm edges has Reff 2e308, and a single
        # edge at the largest double a reciprocal conductance past it.
        names = ["a", "b", "c"][:len(resistances) + 1]
        g = build_multigraph(names, list(zip(names, names[1:])))
        net = ResistiveNetwork(g, np.array(resistances))
        with pytest.raises(SingularSystemError,
                           match="resistances exceed the double range"):
            effective_resistance(net, 0, len(names) - 1)


def random_spd_band(rng, kind: str) -> np.ndarray:
    """A random SPD band, size 2-40: "band", a random half-bandwidth and a
    1-norm condition number up to about 1e12; or "gram", the Gram matrix of
    +-1 rows plus a small diagonal, at full bandwidth, on which the
    estimate's alternating-sign test and its later steps decide."""
    size = int(rng.integers(2, 41))
    if kind == "gram":
        rows = rng.choice([-1.0, 1.0], (size, size))
        shift = 10.0 ** rng.uniform(-8, 0)
        return pack(rows @ rows.T + shift * np.eye(size), size - 1)
    kd = int(rng.integers(0, size))
    sym = rng.standard_normal((size, size))
    offsets = np.subtract.outer(np.arange(size), np.arange(size))
    sym = np.where(np.abs(offsets) <= kd, sym + sym.T, 0.0)
    lowest = np.linalg.eigvalsh(sym)[0]
    shift = 10.0 ** rng.uniform(-12, 0) * np.abs(sym).max()
    return pack(sym + (shift - lowest) * np.eye(size), kd)


def laplacian_rcond(net: ResistiveNetwork, a: int, b: int) -> float:
    """The exact M-matrix rcond of the Laplacian solve, grounded at b, as
    the voltage memo keeps it."""
    node_voltages(net, a, b)
    return net.graph.voltage_memo[net.resistances.tobytes(), a, b][1]


class TestConditionEstimate:
    """The cycle Gram's rcond estimate and the Laplacian's exact M-matrix
    rcond against LAPACK dpocon on the dense form of the same Cholesky
    factor."""

    @staticmethod
    def dpocon(band) -> float:
        factor = scipy.linalg.cholesky_banded(band)
        expected, info = scipy.linalg.lapack.dpocon(
            np.triu(dense(factor)), np.linalg.norm(dense(band), 1))
        assert info == 0
        return expected

    @staticmethod
    def grounded_laplacians():
        """The first 50 (network, ground) pairs with at least 3 vertices, so
        every system is at least 2x2; tests/test_accuracy.py checks the
        two-vertex networks' rcond."""
        nets = (random_network(instance_rng(89, i)) for i in range(1000))
        big = (n for n in nets if n.graph.n_vertices >= 3)
        return [(net, i % net.graph.n_vertices)
                for i, net in zip(range(50), big)]

    @classmethod
    def gram_rcond(cls, band) -> tuple:
        """The Gram route's rcond on ``band``, and dpocon on the dense form
        of the same band Cholesky factor."""
        rcond = _band_solve(np.array(band, order="F"),
                            np.ones(band.shape[1]))[1]
        return rcond, cls.dpocon(band)

    @pytest.mark.parametrize("kind", ["band", "gram"])
    def test_random_spd_matrices(self, kind):
        # With this seed, the alternating-sign test raises the estimate of
        # two Gram matrices, and five need more than one step.
        rng = np.random.default_rng(2028)
        for _ in range(25):
            rcond, expected = self.gram_rcond(random_spd_band(rng, kind))
            assert rcond == pytest.approx(expected, rel=1e-12, abs=0)

    def test_grounded_laplacians(self):
        # dpocon's estimate of the inverse's norm is a lower bound, so the
        # Gram route's rcond is at least the Laplacian route's exact one.
        for net, ground in self.grounded_laplacians():
            estimate, expected = self.gram_rcond(laplacian(net, ground))
            assert estimate == pytest.approx(expected, rel=1e-12, abs=0)
            a = (ground + 1) % net.graph.n_vertices
            assert laplacian_rcond(net, a, ground) <= estimate * (1 + 1e-12)

    def test_the_oracles_estimate_on_the_suite_networks(self, monkeypatch):
        # The oracle's own bands, both networks of each seed-12345 suite
        # instance that has a circuit.
        solved = []

        def recorded(band, rhs):
            copy = band.copy()
            t, rcond = _band_solve(band, rhs)
            solved.append((copy, rcond))
            return t, rcond
        monkeypatch.setattr(electric, "_band_solve", recorded)
        for i in range(200):
            graph, r, r_bar, a, b = _suite_instance(12345, i)[:5]
            for resistances in (r, r_bar):
                min_energy_flow_oracle(ResistiveNetwork(graph, resistances),
                                       a, b)
        solved = [(band, rcond) for band, rcond in solved if band.size]
        assert len(solved) > 300
        for band, rcond in solved:
            assert rcond == pytest.approx(self.dpocon(band), rel=1e-13, abs=0)

    def test_m_matrix_rcond_of_grounded_laplacians(self):
        # node_voltages' exact rcond, from its second right-hand side.
        for net, ground in self.grounded_laplacians():
            a = (ground + 1) % net.graph.n_vertices
            assert laplacian_rcond(net, a, ground) == pytest.approx(
                self.dpocon(laplacian(net, ground)), rel=1e-12, abs=0)


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

    def test_two_vertices_without_an_edge_are_singular(self):
        # A 1x1 reduced Laplacian [[0]] is not positive definite.
        g = Multigraph(("a", "b"), [], [])
        with pytest.raises(SingularSystemError, match="is the network connected"):
            node_voltages(ResistiveNetwork(g, np.zeros(0)), 0, 1)

    def test_singular_system_detected(self):
        # a disconnected graph that slipped past construction validation
        g = Multigraph(("a", "b", "c"), [0], [1])
        with pytest.raises(SingularSystemError):
            node_voltages(ResistiveNetwork(g, [1.0]), 0, 2)


@pytest.fixture
def solves(monkeypatch):
    """The ground of each network that node_voltages solves, memo hits
    left out: it solves each one ``_solved_row`` call."""
    calls = []
    solve = electric._solved_row

    def counted(n, a, b):
        calls.append(b)
        return solve(n, a, b)

    monkeypatch.setattr(electric, "_solved_row", counted)
    return calls


def series_network(r0: float, r1: float) -> ResistiveNetwork:
    """The path a - b - c with these two resistances."""
    g = build_multigraph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    return ResistiveNetwork(g, np.array([r0, r1]))


# Checks on the path a - b - c, pair (0, 2), whose last network, and no
# earlier one, has a Reff past the double range; with the rows they solve
# before it. melvin_chain solves r + r_bar first, so it has no such case.
RAISING_CHECKS = {
    # r + r_bar is 9e307 and 1.1e308 in series.
    "check_superadditivity": (lambda g: check_superadditivity(
        g, [5e307, 5e307], [4e307, 6e307], 0, 2),
        [[5e307, 5e307], [4e307, 6e307]]),
    "check_scaling": (lambda g: check_scaling(g, [5e307, 5e307], 2.0, 0, 2),
                      [[5e307, 5e307]]),
    "check_monotonicity": (lambda g: check_monotonicity(
        g, [5e307, 5e307], 0, 1.2e308, 0, 2), [[5e307, 5e307]]),
    # lambda = 0, 0.5 and 1; the midpoint would come after the last.
    "check_concavity_segment": (lambda g: check_concavity_segment(
        g, [1.0, 1.0], [1e308, 1e308], 3, 0, 2),
        [[1.0, 1.0], [5e307, 5e307]]),
}


class TestVoltageMemo:
    """node_voltages' per-graph memo of recent solves, which
    effective_resistance, thomson_flow and the verify checks share."""

    def test_repeat_returns_bit_identical_potentials_without_a_solve(
            self, solves):
        net = grid_network(6, np.random.default_rng(6))
        first = node_voltages(net, 0, 35).potentials
        again = node_voltages(
            ResistiveNetwork(net.graph, net.resistances.copy()), 0, 35)
        assert np.array_equal(again.potentials, first)
        assert solves == [35]
        # effective_resistance shares the memo.
        assert effective_resistance(net, 0, 35) == first[0]
        assert solves == [35]
        # A new graph has its own memo and solves to the same bits.
        fresh = grid_network(6, np.random.default_rng(6))
        assert np.array_equal(node_voltages(fresh, 0, 35).potentials, first)
        assert solves == [35, 35]

    def test_a_repeated_network_is_solved_once(self, solves):
        net = grid_network(4, np.random.default_rng(4))
        other = ResistiveNetwork(net.graph, 2.0 * net.resistances)
        volts = [node_voltages(m, 0, 15).potentials
                 for m in (net, other, net, net)]
        assert solves == [15, 15]
        assert all(np.array_equal(volts[0], v) for v in volts[2:])
        assert len(net.graph.voltage_memo) == 2

    def test_repeat_on_an_ill_conditioned_network_warns_again(self, solves):
        # Conductances 1 and 2^-51 in series, grounded past the small one:
        # rcond about 2^-53, below eps.
        net = series_network(1.0, 2.0 ** 51)
        for _ in range(2):
            with pytest.warns(LinAlgWarning, match="ill-conditioned"):
                node_voltages(net, 0, 2)
        assert solves == [2]

    def test_a_hit_warns_for_its_own_network_only(self, solves):
        ill = series_network(1.0, 2.0 ** 51)
        fine = ResistiveNetwork(ill.graph, np.array([1.0, 2.0]))
        with pytest.warns(LinAlgWarning, match="ill-conditioned"):
            node_voltages(ill, 0, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            node_voltages(fine, 0, 2)
        with pytest.warns(LinAlgWarning, match="ill-conditioned") as record:
            node_voltages(ill, 0, 2)
        assert len(record) == 1
        assert solves == [2, 2]

    def test_misses_on_another_pair_and_a_one_ulp_change(self, solves):
        net = grid_network(6, np.random.default_rng(7))
        bumped = net.resistances.copy()
        bumped[3] = np.nextafter(bumped[3], np.inf)
        for r, a, b in [(net.resistances, 0, 35), (net.resistances, 35, 0),
                        (net.resistances, 0, 1), (bumped, 0, 35),
                        (net.resistances, 0, 35)]:
            node_voltages(ResistiveNetwork(net.graph, r), a, b)
        assert solves == [35, 0, 1, 35]

    def test_never_stores_an_error(self, solves):
        # A disconnected graph that slipped past construction validation,
        # and a Reff of 2e308, past the double range.
        singular = ResistiveNetwork(Multigraph(("a", "b", "c"), [0], [1]),
                                    np.array([1.0]))
        overflow = series_network(1e308, 1e308)
        for net, match in [(singular, "is the network connected"),
                           (overflow, "resistances exceed the double range")]:
            for _ in range(2):
                with pytest.raises(SingularSystemError, match=match):
                    node_voltages(net, 0, 2)
            assert net.graph.voltage_memo == {}
        assert solves == [2] * 4

    @pytest.mark.parametrize("check", sorted(RAISING_CHECKS))
    def test_a_check_that_raises_keeps_its_earlier_solves(self, solves, check):
        # The last network's Reff is past the double range; it is not
        # stored, and the rows solved before it stay.
        call, solved = RAISING_CHECKS[check]
        g = series_network(1.0, 1.0).graph
        with pytest.raises(SingularSystemError,
                           match="resistances exceed the double range"):
            call(g)
        assert solves == [2] * (len(solved) + 1)
        assert list(g.voltage_memo) == [
            (np.array(row).tobytes(), 0, 2) for row in solved]

    def test_holds_at_most_its_constant_number_of_entries(self, solves):
        net = grid_network(4, np.random.default_rng(4))
        nets = [ResistiveNetwork(net.graph, net.resistances * (1 + k))
                for k in range(VOLTAGE_MEMO_SIZE + 5)]
        for m in nets:
            node_voltages(m, 0, 15)
        assert len(net.graph.voltage_memo) == VOLTAGE_MEMO_SIZE
        # The oldest entries went first; a hit makes an entry the newest.
        for k in (5, 4, 5):
            node_voltages(nets[k], 0, 15)
        assert len(solves) == len(nets) + 1
        assert len(net.graph.voltage_memo) == VOLTAGE_MEMO_SIZE
        assert list(net.graph.voltage_memo)[-2:] == [
            (nets[k].resistances.tobytes(), 0, 15) for k in (4, 5)]
        # More networks than the memo holds leave the last of them.
        for m in nets:
            node_voltages(m, 0, 15)
        assert list(net.graph.voltage_memo) == [
            (m.resistances.tobytes(), 0, 15)
            for m in nets[-VOLTAGE_MEMO_SIZE:]]


class TestSolvesAreIndependent:
    """Each network's potentials are its own solve, bit for bit, whatever
    the memo and band plan hold from the solves before it."""

    @staticmethod
    def check_networks(nets, a, b):
        g = nets[0].graph
        g.voltage_memo.clear()
        in_turn = [node_voltages(n, a, b).potentials for n in nets]
        rconds = [g.voltage_memo[n.resistances.tobytes(), a, b][1]
                  for n in nets]
        for n, v, rcond in zip(nets, in_turn, rconds):
            g.voltage_memo.clear()
            assert np.array_equal(node_voltages(n, a, b).potentials, v)
            assert g.voltage_memo[n.resistances.tobytes(), a, b][1] == rcond
            assert np.array_equal(scipy_voltages(n, a, b), v)

    @pytest.mark.parametrize("side", [4, 16, 32, 33])
    def test_grids(self, side):
        # At 33x33 the half-bandwidth reaches 32, where dpbtrf is blocked;
        # 32x32 has the widest band it factors unblocked.
        rng = np.random.default_rng(side)
        net = grid_network(side, rng)
        g, n_v = net.graph, net.graph.n_vertices
        nets = [net] + [ResistiveNetwork(g, random_resistances(
            rng, g.n_edges)) for _ in range(4)]
        for a, b in [(0, n_v - 1), (n_v - 1, side), random_pair(rng, n_v)]:
            assert laplacian(net, b).shape[0] - 1 == side
            self.check_networks(nets, a, b)

    def test_one_by_one_systems(self):
        rng = np.random.default_rng(1)
        g = build_multigraph(["a", "b"], [("a", "b")] * 3)
        nets = [ResistiveNetwork(g, random_resistances(rng, 3))
                for _ in range(5)]
        for a, b in [(0, 1), (1, 0)]:
            self.check_networks(nets, a, b)


# Each verify check that solves Laplacians, on (graph, r, a, b): the
# networks it builds, and the distinct ones among them that it solves.
SOLVING_CHECKS = {
    "check_superadditivity": (lambda g, r, a, b: check_superadditivity(
        g, r, 2.0 * r, a, b), 3, 3),
    "melvin_chain": (lambda g, r, a, b: melvin_chain(g, r, 2.0 * r, a, b),
                     3, 3),
    "check_scaling": (lambda g, r, a, b: check_scaling(g, r, 2.0, a, b), 2, 2),
    "check_monotonicity": (lambda g, r, a, b: check_monotonicity(
        g, r, 0, 1.0, a, b), 2, 2),
    # r0, r1 and six rows, lambda = 0.5 twice.
    "check_concavity_segment": (lambda g, r, a, b: check_concavity_segment(
        g, r, 2.0 * r, 5, a, b), 8, 5),
}


class TestChecksSolveTheirNetworks:
    """A check solves the networks it built, one node_voltages call each,
    through the memo that the public routes share."""

    @pytest.mark.parametrize("check", sorted(SOLVING_CHECKS))
    def test_each_network_is_built_once_and_solved_once(
            self, monkeypatch, check):
        call, n_built, n_solved = SOLVING_CHECKS[check]
        net = grid_network(4, np.random.default_rng(4))
        built, solved = [], []
        check_network = ResistiveNetwork.__post_init__
        solve = electric._solved_row

        def counted_build(n):
            built.append(n)
            check_network(n)

        def counted_solve(n, a, b):
            solved.append(n)
            return solve(n, a, b)

        monkeypatch.setattr(ResistiveNetwork, "__post_init__", counted_build)
        monkeypatch.setattr(electric, "_solved_row", counted_solve)
        first = call(net.graph, net.resistances, 0, 15)
        assert len(built) == n_built
        assert len(solved) == n_solved
        assert all(any(n is m for m in built) for n in solved)
        # Run again, the check builds its networks and solves none of them.
        built.clear()
        again = call(net.graph, net.resistances, 0, 15)
        assert len(built) == n_built
        assert len(solved) == n_solved
        assert again.quantities == first.quantities

    @pytest.mark.parametrize("route, values", [
        (node_voltages, lambda v: v.potentials),
        (effective_resistance, lambda reff: reff),
        (thomson_flow, lambda flow: flow.currents)])
    def test_a_checked_network_is_a_hit_for_the_routes(
            self, solves, route, values):
        net = grid_network(4, np.random.default_rng(5))
        melvin_chain(net.graph, net.resistances, 2.0 * net.resistances, 0, 15)
        assert solves == [15] * 3
        same = ResistiveNetwork(net.graph, net.resistances.copy())
        hit = values(route(same, 0, 15))
        assert solves == [15] * 3
        net.graph.voltage_memo.clear()
        assert np.array_equal(values(route(same, 0, 15)), hit)
        assert solves == [15] * 4


class TestWarningLocation:
    """A LinAlgWarning names the line that called into the package."""

    def test_names_the_callers_file(self):
        g = build_multigraph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        net = ResistiveNetwork(g, np.array([1.0, 2.0 ** 51]))
        triple = build_multigraph(["a", "b"], [("a", "b")] * 3)
        calls = {
            "a fresh solve": lambda: effective_resistance(net, 0, 2),
            "a memo hit": lambda: effective_resistance(net, 0, 2),
            "a check": lambda: check_concavity_segment(
                g, net.resistances, 2.0 * net.resistances, 3, 0, 2),
            "the cycle-space oracle": lambda: min_energy_flow_oracle(
                ResistiveNetwork(triple, np.array([1e4, 1e-12, 1e-12])), 0, 1),
        }
        for label, call in calls.items():
            with pytest.warns(LinAlgWarning) as record:
                call()
            assert {w.filename for w in record} == {__file__}, label


class TestBandOrder:
    def test_shuffled_vertices_give_the_same_reff(self):
        # A random vertex order spreads the grid's band to nearly V - 1: the
        # cost changes, the value only by rounding.
        rng = np.random.default_rng(12)
        net, shuffled = shuffled_grid(12, rng)
        position = {name: v for v, name in enumerate(shuffled.graph.vertices)}
        assert laplacian(shuffled).shape[0] - 1 > 100
        for a, b in [(0, 143), (143, 0), (5, 77), *(
                random_pair(rng, 144) for _ in range(5))]:
            assert effective_resistance(shuffled, position[a], position[b]) \
                == pytest.approx(effective_resistance(net, a, b), rel=1e-12,
                                 abs=0)

    def test_kirchhoff_current_law_on_a_100_grid(self):
        net = grid_network(100, np.random.default_rng(100))
        g = net.graph
        a, b = 0, g.n_vertices - 1
        v = node_voltages(net, a, b).potentials
        current = (v[g.tails] - v[g.heads]) / net.resistances
        out = (np.bincount(g.tails, current, minlength=g.n_vertices)
               - np.bincount(g.heads, current, minlength=g.n_vertices))
        source = np.zeros(g.n_vertices)
        source[a], source[b] = 1.0, -1.0
        assert np.max(np.abs(out - source)) <= 1e-12


class TestBandPlan:
    """laplacian's per-graph plan: the graph-only indexing, kept for the
    last ground."""

    def test_planned_assembly_equals_an_uncached_one(self):
        rng = np.random.default_rng(12)
        for net in shuffled_grid(12, rng):
            other = ResistiveNetwork(net.graph, net.resistances[::-1])
            for ground in [None, *range(net.graph.n_vertices), None, 5]:
                # The second network reuses the plan the first one made.
                for n in (net, other):
                    expected = uncached_laplacian(n, ground)
                    band = laplacian(n, ground)
                    assert band.shape == expected.shape
                    assert band.flags.f_contiguous
                    assert np.array_equal(band, expected)

    def test_keeps_the_plan_of_the_last_ground_only(self):
        net = grid_network(6, np.random.default_rng(6))
        plans = net.graph.band_plans
        for ground in [None, 0, 7, np.int64(35), 7]:
            laplacian(net, ground)
            assert list(plans) == [ground]
        node_voltages(net, 0, 20)
        assert list(plans) == [20]

    @pytest.mark.parametrize("ground, error", [
        (-1, NotASpanningTreeError), (3, NotASpanningTreeError),
        (7, NotASpanningTreeError), (1.5, ValidationError),
        (True, ValidationError)])
    def test_rejects_an_invalid_ground(self, ground, error):
        # -1, 3 and 7 used to end in numpy's raw ValueError, 1.5 in a wrong
        # 2x2 band and True in vertex 1's; no such key is ever planned.
        net = parse_network(str(DATA / "triangle.json"))
        laplacian(net, 0)
        with pytest.raises(error):
            laplacian(net, ground)
        assert list(net.graph.band_plans) == [0]


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

    @pytest.mark.parametrize("specs", [[("a", "b"), ("b", "c"), ("c", "a")],
                                       [("a", "b"), ("a", "b")]])
    def test_gram_past_the_double_range_raises(self, specs):
        # At 1e308 ohms per edge the Gram overflows to inf; a Cholesky of
        # inf would give t = 0 and the tree path's flow.
        names = sorted({v for edge in specs for v in edge})
        net = ResistiveNetwork(build_multigraph(names, specs),
                               np.full(len(specs), 1e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularSystemError,
                               match="resistances exceed the double range"):
                min_energy_flow_oracle(net, 0, 1)

    def parallel_triple(self, big: float) -> ResistiveNetwork:
        g = build_multigraph(["a", "b"], [("a", "b")] * 3)
        return ResistiveNetwork(g, np.array([big, 1e-12, 1e-12]))

    def test_ill_conditioned_gram_warns(self):
        # The R edge is the tree, so the Gram is R [[1, 1], [1, 1]] plus
        # 1e-12 I: eigenvalues 1e-12 and about 2R, rcond about 1e-16.
        with pytest.warns(LinAlgWarning, match="ill-conditioned"):
            min_energy_flow_oracle(self.parallel_triple(1e4), 0, 1)

    def test_numerically_singular_gram_raises(self):
        # At R = 1e20 the 1e-12 vanishes in R + 1e-12: the Gram is R times
        # a singular matrix of ones.
        with pytest.raises(SingularSystemError,
                           match="^cycle Gram matrix is singular$"):
            min_energy_flow_oracle(self.parallel_triple(1e20), 0, 1)


class TestBlockOracle:
    """The oracle's cycle Gram in chord/tree block form."""

    @staticmethod
    def edge_cases():
        """A tree (k = 0), a parallel pair and wide_span.json (2k > E)."""
        g = build_multigraph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        yield ResistiveNetwork(g, np.array([1.0, 3.0]))
        g = build_multigraph(["a", "b"], [("a", "b"), ("b", "a")])
        yield ResistiveNetwork(g, np.array([1.0, 2.0]))
        yield parse_network(str(DATA / "wide_span.json"))

    def networks(self):
        """12x12 and 16x16 grids, the seed-12345 suite instances and the
        edge cases."""
        rng = np.random.default_rng(1216)
        yield from (grid_network(side, rng) for side in (12, 16) for _ in "ab")
        for i in range(200):
            graph, r = _suite_instance(12345, i)[:2]
            yield ResistiveNetwork(graph, r)
        yield from self.edge_cases()

    def test_block_gram_matches_the_dense_gram(self):
        # The chord block adds an exact diagonal; the tree block's sums
        # round differently from the dense product's.
        for net in self.networks():
            cycles = circuit_matrix(net.graph, fundamental_circuits(net.graph))
            dense_gram = (cycles * net.resistances) @ cycles.T
            error = np.max(np.abs(block_gram(net)[0] - dense_gram), initial=0)
            assert error <= 4 * EPS * np.max(np.abs(dense_gram), initial=0)

    def test_tree_parallel_pair_and_wide_span(self):
        for net in self.edge_cases():
            for a, b in permutations(range(net.graph.n_vertices), 2):
                assert_oracle_matches_scipy(net, a, b)
                flow = min_energy_flow_oracle(net, a, b).currents
                assert dissipated_power(net, FlowVector(flow)) == pytest.approx(
                    effective_resistance(net, a, b), rel=1e-9)

    def test_never_forms_the_dense_circuit_matrix(self):
        net = grid_network(8, np.random.default_rng(8))
        min_energy_flow_oracle(net, 0, 63)
        assert not dense_circuit_caches(net.graph)

    def test_a_32x32_oracle_peaks_below_one_dense_gram(self):
        # k = 961: one k x k Gram is 7.4 MB, and the k x (V - 1) tree block
        # 7.9 MB. The band is 62 x 961, each panel's block at most 94 x 93.
        net = grid_network(32, np.random.default_rng(32))
        k = net.graph.cycle_rank
        tracemalloc.start()
        try:
            min_energy_flow_oracle(net, 0, 1023)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert k == 961 and peak < 7e6, peak


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

    @pytest.mark.parametrize("span", [None, 1e12])
    def test_kvl_matches_the_dense_circuit_sums(self, span):
        # The tree integration against the maximum of C @ drops, C the
        # circuit matrix: within eps * max|phi| on Thomson flows, and on
        # arbitrary flows, whose chord drops can outgrow phi, within a few
        # ulps of the larger of the two.
        for i in range(150):
            rng = instance_rng(99, i)
            net = random_network(rng)
            g = net.graph
            if span is not None:
                net = ResistiveNetwork(g, random_resistances(
                    rng, g.n_edges, 1.0, span))
            a, b = random_pair(rng, g.n_vertices)
            thomson = thomson_flow(net, a, b)
            arbitrary = FlowVector(rng.standard_normal(g.n_edges))
            cycles = circuit_matrix(g, fundamental_circuits(g))
            # The tree walks from vertex 0, phi's coefficients.
            paths = np.stack([walk_sign_vector(g, walk_between(g, 0, v))
                              for v in range(1, g.n_vertices)])
            for flow in (thomson, arbitrary):
                drops = flow.currents * net.resistances
                phi = np.max(np.abs(paths @ drops))
                dense = np.max(np.abs(cycles @ drops), initial=0.0)
                error = abs(kvl_residual(net, flow) - dense)
                if flow is thomson:
                    assert error <= EPS * phi
                else:
                    assert error <= 4 * EPS * max(phi, np.max(np.abs(drops)))

    def test_kvl_needs_neither_circuits_nor_tree_paths(self):
        net = grid_network(8, np.random.default_rng(9))
        kvl_residual(net, thomson_flow(net, 0, 63))
        assert "row_merge_plans" not in vars(net.graph)
        assert not dense_circuit_caches(net.graph)

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
                scaled = effective_resistance(ResistiveNetwork(
                    net.graph, t * net.resistances), a, b)
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
            assert effective_resistance(ResistiveNetwork(net.graph, bumped),
                                        a, b) >= reff - 1e-10


@pytest.mark.parametrize("make, match", [
    (lambda: FlowVector([1.0, np.nan]), "currents must be finite"),
    (lambda: FlowVector([np.inf]), "currents must be finite"),
    (lambda: VoltageVector([1.0, 0.5], ground=1), "ground potential"),
], ids=["flow-nan", "flow-inf", "nonzero-ground"])
def test_malformed_flow_and_voltage_vectors_raise(make, match):
    with pytest.raises(ValidationError, match=match):
        make()
