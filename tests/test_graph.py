"""Multigraph construction, spanning trees, circuits, and sign vectors."""

import importlib
import pkgutil
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

import gffresist
from gffresist import (
    Circuit,
    Multigraph,
    build_multigraph,
    circuit_matrix,
    enumerate_circuits,
    enumerate_simple_walks,
    fundamental_circuits,
    spanning_tree,
    tree_walk_vector,
    walk_between,
    walk_sign_vector,
)
from gffresist import electric, gff, verify
from gffresist import graph as graph_module
from gffresist.cli import parse_network
from gffresist.electric import kvl_residual, min_energy_flow_oracle
from gffresist.errors import (
    DisconnectedError,
    DuplicateVertexNameError,
    EdgeNotInGraphError,
    NotASpanningTreeError,
    SameVertexError,
    SelfLoopError,
    SizeLimitExceededError,
    UnknownEndpointError,
    ValidationError,
)
from gffresist.gff import build_free_field, eta_field, potential_difference_variance
from gffresist.graph import EdgeRecord, make_circuit
from gffresist.verify import (
    entropy_chain,
    instance_rng,
    monte_carlo_variance_check,
    random_network,
)

DATA = Path(__file__).parent / "data"


def count_circuits_brute(multiplicity) -> int:
    """Independent circuit count from the edge-multiplicity matrix.

    Enumerates vertex tuples of length >= 3 starting at their minimum
    vertex, dedupes the reflection, and weights each vertex cycle by the
    product of its consecutive-pair multiplicities; parallel pairs add
    C(m, 2) two-edge circuits. Never looks at edge ids, so it cross-checks
    the DFS route.
    """
    m = np.asarray(multiplicity)
    n = len(m)
    cycles = {}
    for size in range(3, n + 1):
        for perm in permutations(range(n), size):
            if perm[0] != min(perm):
                continue
            weight = 1
            for i in range(size):
                weight *= m[perm[i]][perm[(i + 1) % size]]
            if weight == 0:
                continue
            mirrored = (perm[0],) + tuple(reversed(perm[1:]))
            cycles[min(perm, mirrored)] = weight
    two_edge = sum(m[i][j] * (m[i][j] - 1) // 2
                   for i in range(n) for j in range(i + 1, n))
    return int(sum(cycles.values())) + int(two_edge)


def grid_graph(side):
    """side x side grid: row edges first, then column edges."""
    specs = [(i * side + j, i * side + j + 1)
             for i in range(side) for j in range(side - 1)]
    specs += [(i * side + j, (i + 1) * side + j)
              for i in range(side - 1) for j in range(side)]
    return build_multigraph(list(range(side * side)), specs)


class TestBuild:
    def test_single_edge(self):
        g = build_multigraph(["a", "b"], [("a", "b")])
        assert g.edges == (EdgeRecord(0, 1, 0),)

    def test_reversed_spec_is_canonicalized(self):
        g = build_multigraph(["a", "b"], [("a", "b"), ("b", "a")])
        assert g.edges == (EdgeRecord(0, 1, 0), EdgeRecord(0, 1, 1))

    def test_disconnected(self):
        with pytest.raises(DisconnectedError):
            build_multigraph(["a", "b", "c"], [("a", "b")])

    def test_self_loop(self):
        with pytest.raises(SelfLoopError):
            build_multigraph(["a", "b"], [("a", "a")])

    def test_duplicate_vertex(self):
        with pytest.raises(DuplicateVertexNameError):
            build_multigraph(["a", "a"], [("a", "a")])

    def test_unknown_endpoint(self):
        with pytest.raises(UnknownEndpointError):
            build_multigraph(["a", "b"], [("a", "z")])

    def test_extra_spec_entries_ignored(self):
        g = build_multigraph(["a", "b"], [("a", "b", 2.5)])
        assert g.n_edges == 1

    def test_derived_views(self, triangle):
        g = triangle.graph
        assert g.tails.tolist() == [0, 1, 0]
        assert g.heads.tolist() == [1, 2, 2]
        assert g.adjacency == (((0, 1), (2, 2)), ((0, 0), (1, 2)),
                               ((1, 1), (2, 0)))
        assert g.tree == ({0: None, 1: (0, 0), 2: (0, 2)}, {0: 0, 1: 1, 2: 1})
        # cached views are not fields: equality and hashing ignore them
        fresh = Multigraph(g.vertices, g.edges)
        assert fresh == g and hash(fresh) == hash(g)

    @pytest.mark.parametrize("name", ["triangle.json", "grid4.json"])
    def test_cycle_matrix_view(self, name):
        g = parse_network(str(DATA / name)).graph
        m = g.cycle_matrix
        assert m is g.cycle_matrix
        assert not m.flags.writeable
        for expected in (circuit_matrix(g, fundamental_circuits(g)),
                         circuit_matrix(g, fundamental_circuits(
                             g, spanning_tree(g)))):
            assert m.shape == expected.shape
            assert m.tobytes() == expected.tobytes()

    def test_cycle_matrix_of_a_tree_is_empty(self, series_path):
        assert series_path.graph.cycle_matrix.shape == (0, 2)

    def test_one_circuit_build_per_graph(self, monkeypatch, bridge):
        # Every route reads the cycle basis through the cached cycle_matrix,
        # so the basis is built once per graph.
        calls = []
        original = graph_module._cycle_basis

        def counting(g):
            calls.append(g)
            return original(g)

        monkeypatch.setattr(graph_module, "_cycle_basis", counting)
        flow = min_energy_flow_oracle(bridge, 0, 3)
        kvl_residual(bridge, flow)
        build_free_field(bridge)
        entropy_chain(bridge.graph, bridge.resistances,
                      2.0 * bridge.resistances, 0, 3)
        assert calls == [bridge.graph]

    def test_cycle_matrix_equals_the_circuit_oracle(self):
        # Random multigraphs with parallel edges: the array-built basis
        # equals the stacked sign vectors of the built circuits, byte for
        # byte.
        parallel = 0
        for i in range(300):
            g = random_network(instance_rng(83, i)).graph
            expected = circuit_matrix(g, fundamental_circuits(g))
            assert g.cycle_matrix.shape == expected.shape
            assert g.cycle_matrix.tobytes() == expected.tobytes()
            parallel += any(rec.parallel_index for rec in g.edges)
        assert parallel > 100

    def test_cycle_matrix_needs_a_spanning_tree(self):
        g = Multigraph(("a", "b", "c"), (EdgeRecord(0, 1, 0),))
        with pytest.raises(NotASpanningTreeError):
            g.cycle_matrix
        with pytest.raises(NotASpanningTreeError):
            g.tree_paths


class TestSpanningTree:
    def test_triangle_bfs_tie_break(self, triangle):
        assert spanning_tree(triangle.graph) == {0, 2}

    def test_parallel_pair_keeps_first_edge(self, parallel_pair):
        assert spanning_tree(parallel_pair.graph) == {0}

    def test_path_is_its_own_tree(self, series_path):
        assert spanning_tree(series_path.graph) == {0, 1}

    def test_disconnected_graph_has_none(self):
        # Built directly, past build_multigraph: the tree itself refuses.
        g = Multigraph(("a", "b", "c"), (EdgeRecord(0, 1, 0),))
        with pytest.raises(DisconnectedError, match=r"\[2\] unreachable"):
            g.tree
        with pytest.raises(NotASpanningTreeError):
            spanning_tree(g)
        with pytest.raises(NotASpanningTreeError):
            walk_between(g, 0, 2)
        with pytest.raises(NotASpanningTreeError):
            fundamental_circuits(g)


class TestFundamentalCircuits:
    def test_triangle(self, triangle):
        (c,) = fundamental_circuits(triangle.graph)
        assert c.vertices == (1, 2, 0, 1)
        assert c.edges == (1, 2, 0)

    def test_parallel_pair(self, parallel_pair):
        (c,) = fundamental_circuits(parallel_pair.graph)
        assert c.vertices == (0, 1, 0)
        assert c.edges == (1, 0)

    def test_tree_has_none(self, series_path):
        assert fundamental_circuits(series_path.graph) == []

    def test_rejects_non_tree(self, triangle):
        with pytest.raises(NotASpanningTreeError):
            fundamental_circuits(triangle.graph, tree={0, 1, 2})
        with pytest.raises(NotASpanningTreeError):
            fundamental_circuits(triangle.graph, tree={0})

    @pytest.mark.parametrize("tree", [{0, 99}, {0, "x"}])
    def test_rejects_ids_outside_the_graph(self, triangle, tree):
        with pytest.raises(NotASpanningTreeError):
            fundamental_circuits(triangle.graph, tree=tree)

    def test_user_tree_triangle(self, triangle):
        (c,) = fundamental_circuits(triangle.graph, tree={0, 1})
        assert c.vertices == (0, 2, 1, 0)
        assert c.edges == (2, 1, 0)

    def test_bfs_tree_passed_explicitly(self):
        g = grid_graph(5)
        assert fundamental_circuits(g, tree=spanning_tree(g)) == \
            fundamental_circuits(g)

    def test_user_tree_on_grid(self):
        # comb: every row edge plus the first column, unlike the BFS tree
        side = 5
        g = grid_graph(side)
        tree = {e for e, rec in enumerate(g.edges)
                if rec.head == rec.tail + 1 or rec.tail % side == 0}
        assert len(tree) == g.n_vertices - 1 and tree != spanning_tree(g)
        circuits = fundamental_circuits(g, tree=tree)
        assert [c.edges[0] for c in circuits] == \
            [e for e in range(g.n_edges) if e not in tree]
        for c in circuits:
            assert isinstance(c, Circuit) and set(c.edges[1:]) <= tree
        rows = circuit_matrix(g, circuits)
        assert np.linalg.matrix_rank(rows) == g.cycle_rank
        assert np.max(np.abs(g.incidence_matrix() @ rows.T)) == 0.0

    def test_count_equals_cycle_rank(self):
        for i in range(30):
            g = random_network(instance_rng(11, i)).graph
            assert len(fundamental_circuits(g)) == g.cycle_rank


class TestEnumerateCircuits:
    def test_triangle(self, triangle):
        assert len(enumerate_circuits(triangle.graph)) == 1

    def test_parallel_pair(self, parallel_pair):
        assert len(enumerate_circuits(parallel_pair.graph)) == 1

    def test_k4_against_brute_force(self):
        names = ["a", "b", "c", "d"]
        specs = [(names[i], names[j]) for i in range(4) for j in range(i + 1, 4)]
        g = build_multigraph(names, specs)
        adjacency = np.ones((4, 4)) - np.eye(4)
        assert count_circuits_brute(adjacency) == 7
        assert len(enumerate_circuits(g)) == 7

    def test_random_simple_graphs_match_brute_force(self):
        for i in range(20):
            rng = instance_rng(23, i)
            n = int(rng.integers(3, 7))
            adjacency = np.zeros((n, n), dtype=int)
            specs = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.6]
            for u, v in specs:
                adjacency[u, v] = adjacency[v, u] = 1
            # keep it connected by adding a path when needed
            for v in range(1, n):
                if not adjacency[v, :v].any():
                    specs.append((v - 1, v))
                    adjacency[v - 1, v] = adjacency[v, v - 1] = 1
            g = build_multigraph(list(range(n)), specs)
            assert len(enumerate_circuits(g)) == count_circuits_brute(adjacency)

    def test_random_multigraphs_match_brute_force(self):
        for i in range(20):
            g = random_network(instance_rng(29, i), max_vertices=6).graph
            multiplicity = np.zeros((g.n_vertices, g.n_vertices), dtype=int)
            for rec in g.edges:
                multiplicity[rec.tail, rec.head] += 1
                multiplicity[rec.head, rec.tail] += 1
            assert len(enumerate_circuits(g)) == \
                count_circuits_brute(multiplicity)

    def test_edge_set_key_keeps_the_sequence_key_circuits(self):
        # The earlier key, the smallest rotation or reflection of the edge-id
        # sequence, is the oracle: same circuits, order and orientation.
        def by_sequence_key(g):
            found = {}
            for s in range(g.n_vertices):
                for vs, es in graph_module._simple_paths(g, s, s, s):
                    key = min(tuple(seq[k:] + seq[:k])
                              for seq in (es, es[::-1]) for k in range(len(es)))
                    found.setdefault(key, make_circuit(g, vs, es))
            return list(found.values())

        parallel = 0
        for i in range(300):
            g = random_network(instance_rng(61, i)).graph
            assert enumerate_circuits(g) == by_sequence_key(g)
            parallel += any(rec.parallel_index for rec in g.edges)
        assert parallel > 100

    def test_limit_guard(self):
        names = ["a", "b", "c", "d"]
        specs = [(names[i], names[j]) for i in range(4) for j in range(i + 1, 4)]
        g = build_multigraph(names, specs)
        with pytest.raises(SizeLimitExceededError):
            enumerate_circuits(g, limit=3)


    def test_long_cycle_needs_no_recursion(self):
        n = 1100
        g = build_multigraph(list(range(n)),
                             [(v, (v + 1) % n) for v in range(n)])
        (c,) = enumerate_circuits(g)
        assert c.length == n


class TestSignVectors:
    def test_triangle_circuit(self, triangle):
        c = make_circuit(triangle.graph, [0, 1, 2, 0], [0, 1, 2])
        assert walk_sign_vector(triangle.graph, c).tolist() == [1, 1, -1]

    def test_parallel_pair_circuit(self, parallel_pair):
        (c,) = fundamental_circuits(parallel_pair.graph)
        assert walk_sign_vector(parallel_pair.graph, c).tolist() == [-1, 1]

    def test_reversal_negates(self, triangle):
        g = triangle.graph
        forward = make_circuit(g, [0, 1, 2, 0], [0, 1, 2])
        backward = make_circuit(g, [0, 2, 1, 0], [2, 1, 0])
        np.testing.assert_array_equal(
            walk_sign_vector(g, backward), -walk_sign_vector(g, forward))

    def test_foreign_circuit_rejected(self, triangle, parallel_pair):
        (c,) = fundamental_circuits(parallel_pair.graph)
        with pytest.raises(EdgeNotInGraphError):
            walk_sign_vector(triangle.graph, c)

    def test_orthogonal_to_incidence(self):
        for i in range(30):
            net = random_network(instance_rng(31, i))
            g = net.graph
            rows = circuit_matrix(g, fundamental_circuits(g))
            if rows.shape[0] == 0:
                continue
            product = g.incidence_matrix() @ rows.T
            assert np.max(np.abs(product)) == 0.0


class TestWalkBetween:
    def test_path_ascending(self, series_path):
        w = walk_between(series_path.graph, 0, 2)
        assert w.length == 2 and w.signs == (1, 1)

    def test_single_edge_descending(self):
        g = build_multigraph(["a", "b"], [("a", "b")])
        w = walk_between(g, 1, 0)
        assert w.length == 1 and w.signs == (-1,)

    def test_triangle_through_tree_root(self, triangle):
        w = walk_between(triangle.graph, 1, 2)
        assert w.vertices == (1, 0, 2) and w.signs == (-1, 1)

    def test_same_vertex_rejected(self, triangle):
        with pytest.raises(SameVertexError):
            walk_between(triangle.graph, 1, 1)

    def test_reversal_antisymmetry(self):
        for i in range(20):
            net = random_network(instance_rng(47, i))
            g = net.graph
            a, b = 0, g.n_vertices - 1
            fwd = walk_sign_vector(g, walk_between(g, a, b))
            rev = walk_sign_vector(g, walk_between(g, b, a))
            np.testing.assert_array_equal(fwd, -rev)


class TestTreePaths:
    def test_view(self, triangle):
        g = triangle.graph
        paths = g.tree_paths
        assert paths is g.tree_paths
        assert paths.dtype == np.int8 and not paths.flags.writeable
        # tree edges 0 (0-1) and 2 (0-2); chord 1 is on no root path
        assert paths.tolist() == [[0, 0, 0], [1, 0, 0], [0, 0, 1]]

    def test_same_vertex_rejected(self, triangle):
        with pytest.raises(SameVertexError):
            tree_walk_vector(triangle.graph, 2, 2)

    @pytest.mark.parametrize("a, b", [(-1, 1), (1, -1), (0, 3), (3, 0)])
    def test_vertex_out_of_range(self, triangle, a, b):
        # As the walk oracle: no row of another vertex stands in.
        for walk in (walk_between, tree_walk_vector, enumerate_simple_walks):
            with pytest.raises(NotASpanningTreeError):
                walk(triangle.graph, a, b)

    def test_equals_the_walk_oracle(self):
        # Every ordered pair on random multigraphs with parallel edges: the
        # row difference is the built walk's sign vector, byte for byte.
        parallel = 0
        for i in range(300):
            g = random_network(instance_rng(99, i)).graph
            for a in range(g.n_vertices):
                for b in range(g.n_vertices):
                    if a != b:
                        expected = walk_sign_vector(g, walk_between(g, a, b))
                        assert (tree_walk_vector(g, a, b).tobytes()
                                == expected.tobytes())
            parallel += any(rec.parallel_index for rec in g.edges)
        assert parallel > 100

    def test_no_route_builds_a_walk(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a route built a Walk")

        for info in pkgutil.iter_modules(gffresist.__path__):
            module = importlib.import_module(f"gffresist.{info.name}")
            for name in ("walk_between", "make_walk"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
        net = parse_network(str(DATA / "grid4.json"))
        g, r = net.graph, net.resistances
        min_energy_flow_oracle(net, 0, 15)
        field = build_free_field(net)
        potential_difference_variance(field, 0, 15)
        eta_field(field)
        entropy_chain(g, r, 2.0 * r, 0, 15)
        monte_carlo_variance_check(g, r, 0, 15, 1000, seed=1)


# Every public function that takes a vertex pair, called as f(network, a, b).
PAIR_ROUTES = {
    "tree_walk_vector": lambda n, a, b: tree_walk_vector(n.graph, a, b),
    "walk_between": lambda n, a, b: walk_between(n.graph, a, b),
    "enumerate_simple_walks": lambda n, a, b: enumerate_simple_walks(n.graph, a, b),
    "node_voltages": electric.node_voltages,
    "effective_resistance": electric.effective_resistance,
    "thomson_flow": electric.thomson_flow,
    "min_energy_flow_oracle": electric.min_energy_flow_oracle,
    "kcl_residual": lambda n, a, b: electric.kcl_residual(
        n, electric.FlowVector(np.zeros(n.graph.n_edges)), a, b),
    "potential_difference_functional": lambda n, a, b:
        gff.potential_difference_functional(build_free_field(n), a, b),
    "potential_difference_variance": lambda n, a, b:
        potential_difference_variance(build_free_field(n), a, b),
    "path_independence_check": lambda n, a, b:
        gff.path_independence_check(build_free_field(n), a, b),
    "check_superadditivity": lambda n, a, b: verify.check_superadditivity(
        n.graph, n.resistances, 2.0 * n.resistances, a, b),
    "melvin_chain": lambda n, a, b: verify.melvin_chain(
        n.graph, n.resistances, 2.0 * n.resistances, a, b),
    "entropy_chain": lambda n, a, b: entropy_chain(
        n.graph, n.resistances, 2.0 * n.resistances, a, b),
    "check_concavity_segment": lambda n, a, b: verify.check_concavity_segment(
        n.graph, n.resistances, 2.0 * n.resistances, 5, a, b),
    "check_scaling": lambda n, a, b: verify.check_scaling(
        n.graph, n.resistances, 2.0, a, b),
    "check_monotonicity": lambda n, a, b: verify.check_monotonicity(
        n.graph, n.resistances, 0, 1.0, a, b),
    "monte_carlo_variance_check": lambda n, a, b: monte_carlo_variance_check(
        n.graph, n.resistances, a, b, 100, seed=0),
}


class TestCheckVertices:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("a, b", [(-1, 0), (0, -1), (3, 0), (0, 3), (1, 1)])
    @pytest.mark.parametrize("route", sorted(PAIR_ROUTES))
    def test_every_route_rejects_a_bad_pair(self, route, a, b):
        # A negative index must not wrap to vertex 2 on one route and be
        # rejected on another; no raw IndexError or singular solve either.
        net = parse_network(str(DATA / "triangle.json"))
        with pytest.raises((SameVertexError, NotASpanningTreeError)):
            PAIR_ROUTES[route](net, a, b)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("a, b", [(0.5, 1), (True, 2), (0, 2.0),
                                      (np.True_, 2), ("1", 2), (None, 1)])
    @pytest.mark.parametrize("route", sorted(PAIR_ROUTES))
    def test_every_route_rejects_a_non_integer_vertex(self, route, a, b):
        # 0.5 used to end in numpy's raw IndexError and True in a TypeError.
        net = parse_network(str(DATA / "triangle.json"))
        with pytest.raises(ValidationError, match="not an integer index"):
            PAIR_ROUTES[route](net, a, b)

    def test_numpy_integers_are_vertices(self, triangle):
        triangle.graph.check_vertices(np.int64(0), np.int32(2))

    def test_repeat_is_checked_before_range(self, triangle):
        with pytest.raises(SameVertexError):
            triangle.graph.check_vertices(5, 5)

    def test_message_names_vertex_and_count(self, triangle):
        with pytest.raises(NotASpanningTreeError, match="vertex -1 .* 3 vertices"):
            triangle.graph.check_vertices(0, -1)


class TestSpanEquivalence:
    def test_all_circuits_span_the_fundamental_basis(self):
        checked = 0
        for i in range(30):
            net = random_network(instance_rng(59, i))
            g = net.graph
            basis = circuit_matrix(g, fundamental_circuits(g))
            everything = circuit_matrix(g, enumerate_circuits(g))
            expected = g.cycle_rank
            if expected == 0:
                assert basis.shape[0] == 0 and everything.shape[0] == 0
            else:
                assert np.linalg.matrix_rank(basis) == expected
                assert np.linalg.matrix_rank(everything) == expected
                stacked = np.vstack([basis, everything])
                assert np.linalg.matrix_rank(stacked) == expected
                checked += 1
        assert checked > 5


class TestSimpleWalks:
    def test_triangle_has_two_routes(self, triangle):
        assert len(enumerate_simple_walks(triangle.graph, 0, 1)) == 2

    def test_parallel_pair_has_two_routes(self, parallel_pair):
        assert len(enumerate_simple_walks(parallel_pair.graph, 0, 1)) == 2

    def test_limit_guard(self, triangle):
        with pytest.raises(SizeLimitExceededError):
            enumerate_simple_walks(triangle.graph, 0, 1, limit=1)

    def test_long_path_needs_no_recursion(self):
        n = 1100
        g = build_multigraph(list(range(n)), [(v, v + 1) for v in range(n - 1)])
        (w,) = enumerate_simple_walks(g, 0, n - 1)
        assert w.vertices == tuple(range(n))


def test_disconnected_bypass_is_caught_later():
    # construction-time validation can be bypassed by building records directly
    g = Multigraph(("a", "b", "c"), (EdgeRecord(0, 1, 0),))
    assert g.cycle_rank == -1
