"""Multigraph construction, spanning trees, circuits, and sign vectors."""

import importlib
import pkgutil
from collections import deque
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

import gffresist
from gffresist import (
    Multigraph,
    build_multigraph,
    circuit_matrix,
    fundamental_circuits,
    spanning_tree,
    tree_walk_vector,
    walk_between,
    walk_sign_vector,
)
from gffresist import electric, verify
from gffresist import graph as graph_module
from gffresist.cli import parse_network
from gffresist.electric import kvl_residual, min_energy_flow_oracle
from gffresist.errors import (
    DimensionMismatchError,
    DisconnectedError,
    GffResistError,
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
from gffresist.gaussian import condition_diagonal
from gffresist.graph import (
    PANEL,
    Circuit,
    Walk,
    cycle_plan,
    make_circuit,
    make_walk,
)
from gffresist.verify import (
    entropy_chain,
    instance_rng,
    monte_carlo_variance_check,
    random_network,
)

from cycle_oracles import (
    _simple_paths,
    enumerate_circuits,
    enumerate_simple_walks,
    path_independence_check,
)
from test_electric import dense_circuit_caches, grid_network


def planned(g, copies):
    """M' of cycle_plan(g, copies), assembled from its entries."""
    plan = cycle_plan(g, copies)
    dense = np.zeros((plan.size, plan.k))
    dense[plan.coordinate, plan.column] = plan.value
    return dense


def written(g, s):
    """The stacks cycle_plan writes for the deviations s (one E-long block
    of coordinates per copy), assembled as diag(s) M' in column order."""
    plan = cycle_plan(g, len(s) // g.n_edges)
    out = np.zeros((len(s), plan.k), order="F")
    for p, panel in enumerate(plan.panels()):
        stack = np.zeros((panel.rows.size, panel.columns), order="F")
        stack.reshape(-1, order="F")[panel.flat] = (s[panel.source]
                                                    * panel.value)
        # Each row enters one panel; the carried rows' stack rows are 0.
        out[panel.rows, p * PANEL:p * PANEL + panel.columns] += stack
    return out


def chord_order(g):
    """The circuits in cycle_plan's column order, as indices into the
    increasing chords: a chord's coordinate is nonzero in its own
    circuit's row only."""
    plan, chords = cycle_plan(g), tree_chords(g)
    at_chord = np.isin(plan.coordinate, chords)
    order = np.full(plan.k, -1)
    order[plan.column[at_chord]] = np.searchsorted(
        chords, plan.coordinate[at_chord])
    return order


def tree_chords(g):
    """The increasing ids of the edges off the walk API's spanning tree."""
    return np.setdiff1d(np.arange(g.n_edges), list(spanning_tree(g)))


def oracle_scaled(g, s):
    """diag(s) C' from the walk API's circuits, one copy of C per E-long
    block of s, columns in cycle_plan's order."""
    cycles = circuit_matrix(g, fundamental_circuits(g))
    return (np.tile(cycles[chord_order(g)], len(s) // g.n_edges) * s).T

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


def reference_build(names, specs) -> tuple:
    """The dict-based build that the array build replaced, kept as its
    oracle: ``(tails, heads, parallel, parent, order)`` as lists, ``parent``
    mapping each reached vertex to the (vertex, edge id) it was reached
    through, None at the root, and ``order`` the BFS queue's. It raises as
    the first bad spec in input order makes it."""
    index = {}
    for i, name in enumerate(names):
        if name in index:
            raise DuplicateVertexNameError(f"duplicate vertex name {name!r}")
        index[name] = i
    tails, heads, parallel, counts = [], [], [], {}
    for spec in specs:
        u, v = spec[0], spec[1]
        for endpoint in (u, v):
            if endpoint not in index:
                raise UnknownEndpointError(f"unknown vertex {endpoint!r}")
        if index[u] == index[v]:
            raise SelfLoopError(f"self-loop at vertex {u!r}")
        tail, head = sorted((index[u], index[v]))
        parallel.append(counts.get((tail, head), 0))
        counts[tail, head] = parallel[-1] + 1
        tails.append(tail)
        heads.append(head)
    adjacency = [[] for _ in names]
    for e, (tail, head) in enumerate(zip(tails, heads)):
        adjacency[tail].append((e, head))
        adjacency[head].append((e, tail))
    parent, order, queue = {0: None}, [], deque([0])
    while queue:
        v = queue.popleft()
        order.append(v)
        for e, w in adjacency[v]:
            if w not in parent:
                parent[w] = (v, e)
                queue.append(w)
    return tails, heads, parallel, parent, order


def random_specs(rng, n_vertices: int, n_extra: int) -> list:
    """A random spanning tree plus extra random edges, parallel ones and
    both orientations included, in shuffled order, as index pairs."""
    specs = [(int(rng.integers(0, v)), v) for v in range(1, n_vertices)]
    specs += [tuple(int(x) for x in rng.integers(0, n_vertices, 2))
              for _ in range(n_extra)]
    specs = [(u, v) for u, v in specs if u != v]
    specs += specs[:n_extra // 3]  # parallel copies
    specs = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in specs]
    return [specs[k] for k in rng.permutation(len(specs))]


def outcome(build, names, specs):
    """What ``build(names, specs)`` returns, or its error's type and text."""
    try:
        return build(names, specs)
    except GffResistError as exc:
        return type(exc), str(exc)


class TestArrayBuild:
    """The array build against the dict-based reference build."""

    def test_matches_the_reference_on_random_multigraphs(self):
        rng = np.random.default_rng(2021)
        parallel = 0
        for _ in range(400):
            n_v = int(rng.integers(2, 31))
            names = [f"v{k}" for k in rng.permutation(n_v)]
            specs = [(names[u], names[v], 1.0) for u, v in
                     random_specs(rng, n_v, int(rng.integers(0, 50)))]
            g = build_multigraph(names, specs)
            tails, heads, par, parent, order = reference_build(names, specs)
            assert g.tails.tolist() == tails and g.heads.tolist() == heads
            assert g.parallel.tolist() == par
            assert g.edges == tuple(zip(tails, heads, par))
            up, up_edge, queue = (part.tolist() for part in g.tree)
            assert queue == order
            assert {v: None if up[v] < 0 else (up[v], up_edge[v])
                    for v in queue} == parent
            parallel += any(par)
        assert parallel > 100

    def test_first_bad_spec_raises_as_the_reference(self):
        # An unknown name and a self-loop planted at random places: the
        # first bad spec in input order decides, u before v within it.
        rng = np.random.default_rng(2022)
        kinds = set()
        for _ in range(400):
            n_v = int(rng.integers(2, 12))
            names = list(range(n_v))
            specs = random_specs(rng, n_v, int(rng.integers(0, 10)))
            for _ in range(int(rng.integers(1, 4))):
                u = int(rng.integers(0, n_v))
                bad = rng.choice([(u, u), (u, -1), (-1, u), (-2, -1)])
                specs.insert(int(rng.integers(0, len(specs) + 1)),
                             tuple(int(x) for x in bad))
            expected = outcome(reference_build, names, specs)
            assert outcome(build_multigraph, names, specs) == expected
            kinds.add(expected[0])
        assert kinds == {UnknownEndpointError, SelfLoopError}

    def test_disconnected_and_duplicate_names_raise_as_before(self):
        for names, specs in [(["a", "b", "c", "d"], [("a", "b"), ("c", "d")]),
                             (["a", "b", "a"], [("a", "b")]),
                             ([1, 2, 1, 2], [(1, 2)])]:
            try:
                reference = reference_build(names, specs)
            except DuplicateVertexNameError as exc:
                reference = (DuplicateVertexNameError, str(exc))
            else:
                missing = sorted(set(range(len(names))) - set(reference[4]))
                reference = (DisconnectedError,
                             f"vertices {missing} unreachable from vertex 0")
            assert outcome(build_multigraph, names, specs) == reference


class TestBuild:
    def test_single_edge(self):
        g = build_multigraph(["a", "b"], [("a", "b")])
        assert g.edges == ((0, 1, 0),)

    def test_reversed_spec_is_canonicalized(self):
        g = build_multigraph(["a", "b"], [("a", "b"), ("b", "a")])
        assert g.edges == ((0, 1, 0), (0, 1, 1))

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

    def test_a_graph_never_equals_a_non_graph(self, triangle):
        assert (triangle.graph == "x") is False
        assert triangle.graph != "x"

    def test_derived_views(self, triangle):
        g = triangle.graph
        assert g.tails.tolist() == [0, 1, 0]
        assert g.heads.tolist() == [1, 2, 2]
        assert g.parallel.tolist() == [0, 0, 0]
        assert g.edges == ((0, 1, 0), (1, 2, 0), (0, 2, 0))
        # Vertex 0 meets edges 0 and 2, vertex 1 edges 0 and 1, vertex 2
        # edges 1 and 2.
        assert g.adjacency == ([0, 2, 4, 6], [(0, 1), (2, 2), (0, 0),
                                              (1, 2), (1, 1), (2, 0)])
        assert [part.tolist() for part in g.tree] == [[-1, 0, 0], [-1, 0, 2],
                                                      [0, 1, 2]]
        # cached views are not fields: equality and hashing ignore them
        fresh = Multigraph(g.vertices, g.tails.tolist(), g.heads.tolist())
        assert fresh == g and hash(fresh) == hash(g)
        assert fresh != Multigraph(g.vertices, [0, 1, 1], [1, 2, 2])

    @pytest.mark.parametrize("name", ["triangle.json", "grid4.json"])
    def test_cycle_plan_on_network_files(self, name):
        g = parse_network(str(DATA / name)).graph
        s = np.random.default_rng(7).uniform(0.1, 10.0, g.n_edges)
        out, expected = written(g, s), oracle_scaled(g, s)
        assert out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()

    def test_cycle_plan_of_a_tree_is_empty(self, series_path):
        for copies in (1, 2):
            plan = cycle_plan(series_path.graph, copies)
            assert (plan.k, plan.size) == (0, 2 * copies)
            assert plan.coordinate.size == 0 and plan.panels() == ()

    def test_one_circuit_build_per_graph(self, monkeypatch, bridge):
        # The free field and the entropy chain read the circuits through
        # the cached cycle_plan, built once per graph; the oracle walks
        # them on each call and keeps nothing on the graph.
        g, calls = bridge.graph, []
        original = graph_module._circuit_walks

        def counting(graph):
            calls.append(graph)
            return original(graph)

        for module in (graph_module, electric):
            monkeypatch.setattr(module, "_circuit_walks", counting)
        cached = set(vars(g))
        for _ in range(2):
            flow = min_energy_flow_oracle(bridge, 0, 3)
        assert calls == [g, g] and set(vars(g)) == cached
        kvl_residual(bridge, flow)
        build_free_field(bridge)
        entropy_chain(g, bridge.resistances, 2.0 * bridge.resistances, 0, 3)
        assert calls == [g, g, g]

    def test_cycle_plan_equals_the_circuit_oracle(self):
        # Random multigraphs with parallel edges, one block and two stacked
        # blocks: the plan's entries are the sign vectors of the built
        # circuits, and the stacks it writes their scaled copies, byte for
        # byte.
        parallel = 0
        for i in range(300):
            g = random_network(instance_rng(83, i)).graph
            rng = np.random.default_rng(i)
            for m in (1, 2):
                s = np.exp(rng.uniform(-12.0, 12.0, m * g.n_edges))
                out, expected = written(g, s), oracle_scaled(g, s)
                assert out.shape == expected.shape
                assert out.tobytes() == expected.tobytes()
                assert planned(g, m).tobytes() == oracle_scaled(
                    g, np.ones(m * g.n_edges)).tobytes()
            parallel += bool(g.parallel.any())
        assert parallel > 100

    @staticmethod
    def block_form_networks():
        """Grids, random multigraphs with parallel edges, a tree, a parallel
        pair and wide_span.json (2k > E)."""
        rng = np.random.default_rng(5)
        yield from (grid_network(side, rng).graph for side in (4, 12, 16))
        yield from (random_network(instance_rng(83, i)).graph
                    for i in range(100))
        yield build_multigraph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        yield build_multigraph(["a", "b"], [("a", "b"), ("b", "a")])
        yield parse_network(str(DATA / "wide_span.json")).graph

    def test_cycle_blocks_are_the_circuit_matrix_in_block_form(self):
        # _circuit_walks' entries, scattered into a k x (V - 1) tree block
        # as the oracle does on each call, are the circuit matrix's tree
        # columns, byte for byte; its chord columns are the identity.
        for g in self.block_form_networks():
            chords, _, _, circuit, edge, sign = graph_module._circuit_walks(g)
            tree_ids = np.sort(g.tree[1][1:])
            assert tree_ids.tolist() == sorted(spanning_tree(g))
            assert chords.tolist() == tree_chords(g).tolist()
            assert sorted([*tree_ids, *chords]) == list(range(g.n_edges))
            assert set(np.unique(sign)) <= {-1.0, 1.0}
            block = np.zeros((chords.size, tree_ids.size))
            block[circuit, np.searchsorted(tree_ids, edge)] = sign
            # Each (circuit, edge) entry is written once.
            assert np.count_nonzero(block) == circuit.size
            cycles = circuit_matrix(g, fundamental_circuits(g))
            assert np.array_equal(cycles[:, chords], np.eye(len(chords)))
            assert cycles[:, tree_ids].tobytes() == block.tobytes()

    def test_cycle_plan_keeps_the_dense_construction(self):
        # The dense form built directly, chord row e_e plus the sign
        # vector of the tree walk from its head to its tail: the plan holds
        # it in its column order, for one block and for m = 2 stacked
        # blocks, and its stacks write it scaled.
        rng = np.random.default_rng(11)
        for g in self.block_form_networks():
            chords = tree_chords(g)
            dense = np.zeros((len(chords), g.n_edges))
            for row, chord in zip(dense, chords):
                row += walk_sign_vector(g, walk_between(
                    g, g.heads[chord], g.tails[chord]))
            dense[np.arange(len(chords)), chords] = 1.0
            dense = dense[chord_order(g)]
            for m in (1, 2):
                assert planned(g, m).tobytes() == np.tile(dense, m).T.tobytes()
                s = rng.uniform(0.1, 10.0, m * g.n_edges)
                expected = (np.tile(dense, m) * s).T
                assert written(g, s).tobytes() == expected.tobytes()

    def test_cycle_plan_order(self):
        # Every plan sorts the circuits by their apex's queue position, then
        # their later end's.
        for g in self.block_form_networks():
            plan, order = cycle_plan(g), chord_order(g)
            assert cycle_plan(g) is plan and plan.k == g.cycle_rank
            assert sorted(order) == list(range(plan.k))
            queue = np.argsort(g.tree[2])
            parent = g.tree[0]
            keys = []
            for chord in tree_chords(g)[order]:
                ends = [int(g.tails[chord]), int(g.heads[chord])]
                ancestors = set()
                v = ends[0]
                while v >= 0:
                    ancestors.add(v)
                    v = parent[v]
                apex = ends[1]
                while apex not in ancestors:
                    apex = parent[apex]
                keys.append((queue[apex], max(queue[ends])))
            assert keys == sorted(keys)

    @pytest.mark.parametrize("slots", [0, 1, 40, 500])
    def test_panel_layout(self, slots):
        # Every row enters one panel, after the rows of R the panel before
        # carried: slot j at column min(j, k - 1), a coordinate's row at its
        # first nonzero column (an empty row at the last), in row order.
        # Every panel finalizes its columns and scatters each entry of the
        # rows entering it once, inside its stack.
        for g in self.block_form_networks():
            plan = cycle_plan(g, 2)
            if not plan.k:  # a tree has no panel
                assert plan.panels(slots) == ()
                continue
            dense = planned(g, 2)
            lead = np.where(dense.any(axis=1), np.argmax(dense != 0, axis=1),
                            plan.k - 1)
            assert np.array_equal(plan.lead, lead)
            lead = np.concatenate([np.minimum(np.arange(slots), plan.k - 1),
                                   lead])
            panels = plan.panels(slots)
            assert plan.panels(slots) is panels
            assert sum(panel.kept for panel in panels) == plan.k
            entered, carried, start = [], np.zeros(0, dtype=int), 0
            for panel in panels:
                assert panel.kept == min(PANEL, plan.k - start)
                assert panel.columns >= panel.kept
                assert np.array_equal(panel.rows[:carried.size], carried)
                enter = panel.rows[carried.size:]
                assert np.array_equal(
                    enter, np.flatnonzero(lead // PANEL == start // PANEL))
                entered.extend(enter.tolist())
                height = panel.rows.size
                assert np.unique(panel.flat).size == panel.flat.size
                row, column = panel.flat % height, panel.flat // height
                assert np.all(row >= carried.size)
                assert np.all(column < panel.columns)
                assert np.array_equal(panel.rows[row] - slots, panel.source)
                carried = panel.rows[panel.kept:min(height, panel.columns)]
                start += panel.kept
            assert sorted(entered) == list(range(slots + plan.size))

    def test_cycle_plan_needs_a_spanning_tree(self):
        g = Multigraph(("a", "b", "c"), [0], [1])
        with pytest.raises(DisconnectedError):
            cycle_plan(g)
        with pytest.raises(NotASpanningTreeError):
            fundamental_circuits(g)
        with pytest.raises(NotASpanningTreeError):
            tree_walk_vector(g, 0, 1)

    @pytest.mark.parametrize("size, copies", [(4, 1), (3, 2), (6, 1)])
    def test_plan_size_mismatch_raises(self, triangle, size, copies):
        # The variances must cover the plan's coordinates: 3 per copy.
        with pytest.raises(DimensionMismatchError,
                           match=f"on {3 * copies} coordinates"):
            condition_diagonal(np.ones(size),
                               cycle_plan(triangle.graph, copies))


class TestSpanningTree:
    def test_triangle_bfs_tie_break(self, triangle):
        assert spanning_tree(triangle.graph) == {0, 2}

    def test_parallel_pair_keeps_first_edge(self, parallel_pair):
        assert spanning_tree(parallel_pair.graph) == {0}

    def test_path_is_its_own_tree(self, series_path):
        assert spanning_tree(series_path.graph) == {0, 1}

    def test_disconnected_graph_has_none(self):
        # Built directly, past build_multigraph: the tree itself refuses.
        g = Multigraph(("a", "b", "c"), [0], [1])
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
            for tail, head, _ in g.edges:
                multiplicity[tail, head] += 1
                multiplicity[head, tail] += 1
            assert len(enumerate_circuits(g)) == \
                count_circuits_brute(multiplicity)

    def test_edge_set_key_keeps_the_sequence_key_circuits(self):
        # The earlier key, the smallest rotation or reflection of the edge-id
        # sequence, is the oracle: same circuits, order and orientation.
        def by_sequence_key(g):
            found = {}
            for s in range(g.n_vertices):
                for vs, es in _simple_paths(g, s, s, s):
                    key = min(tuple(seq[k:] + seq[:k])
                              for seq in (es, es[::-1]) for k in range(len(es)))
                    found.setdefault(key, make_circuit(g, vs, es))
            return list(found.values())

        parallel = 0
        for i in range(300):
            g = random_network(instance_rng(61, i)).graph
            assert enumerate_circuits(g) == by_sequence_key(g)
            parallel += bool(g.parallel.any())
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
            incidence = np.zeros((g.n_vertices, g.n_edges))
            incidence[g.tails, np.arange(g.n_edges)] = 1.0
            incidence[g.heads, np.arange(g.n_edges)] = -1.0
            product = incidence @ rows.T
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
        # Tree edges 0 (0-1) and 2 (0-2); chord 1 is on no tree walk. Each
        # call returns a fresh float vector and caches nothing on the graph.
        g = triangle.graph
        cached = set(vars(g))
        walks = {(a, b): tree_walk_vector(g, a, b)
                 for a, b in permutations(range(3), 2)}
        assert walks[0, 1].tolist() == [1.0, 0.0, 0.0]
        assert walks[0, 2].tolist() == [0.0, 0.0, 1.0]
        assert walks[1, 2].tolist() == [-1.0, 0.0, 1.0]
        for (a, b), vec in walks.items():
            assert vec.dtype == float and vec.flags.writeable
            assert vec.tolist() == (-walks[b, a]).tolist()
        assert tree_walk_vector(g, 0, 1) is not walks[0, 1]
        assert set(vars(g)) - cached <= {"tree"}

    def test_same_vertex_rejected(self, triangle):
        with pytest.raises(SameVertexError):
            tree_walk_vector(triangle.graph, 2, 2)

    def test_single_edge_is_coordinate(self, single_edge):
        assert tree_walk_vector(single_edge.graph, 0, 1).tolist() == [1.0]

    @pytest.mark.parametrize("a, b", [(-1, 1), (1, -1), (0, 3), (3, 0)])
    def test_vertex_out_of_range(self, triangle, a, b):
        # As the walk oracle: no row of another vertex stands in.
        for walk in (walk_between, tree_walk_vector, enumerate_simple_walks):
            with pytest.raises(NotASpanningTreeError):
                walk(triangle.graph, a, b)

    def test_equals_the_walk_oracle(self):
        # Every ordered pair on random multigraphs with parallel edges: the
        # tree walk's vector is the built walk's sign vector, byte for byte.
        parallel = 0
        for i in range(300):
            g = random_network(instance_rng(99, i)).graph
            for a in range(g.n_vertices):
                for b in range(g.n_vertices):
                    if a != b:
                        expected = walk_sign_vector(g, walk_between(g, a, b))
                        assert (tree_walk_vector(g, a, b).tobytes()
                                == expected.tobytes())
            parallel += bool(g.parallel.any())
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

    def test_route_walks_share_no_code_with_the_walk_api(self, monkeypatch):
        # The routes climb the parent arrays themselves, so the walk oracle
        # above checks one algorithm against another.
        def forbidden(*args, **kwargs):
            raise AssertionError("a route walked the tree with _tree_path")

        monkeypatch.setattr(graph_module, "_tree_path", forbidden)
        net = parse_network(str(DATA / "grid4.json"))
        g, r = net.graph, net.resistances
        for a, b in permutations(range(g.n_vertices), 2):
            tree_walk_vector(g, a, b)
        field = build_free_field(net)
        eta_field(field)
        min_energy_flow_oracle(net, 0, 15)
        potential_difference_variance(field, 0, 15)
        entropy_chain(g, r, 2.0 * r, 0, 15)


def test_no_dense_walk_or_circuit_cache_on_the_graph():
    # Every route on an 8x8 grid, then no graph cache holds the tree walks
    # of all vertices, the circuits' tree block or the circuit matrix.
    net = grid_network(8, np.random.default_rng(28))
    g, r = net.graph, net.resistances
    min_energy_flow_oracle(net, 0, 63)
    electric.thomson_flow(net, 0, 63)
    potential_difference_variance(build_free_field(net), 0, 63)
    entropy_chain(g, r, 2.0 * r, 0, 63)
    monte_carlo_variance_check(g, r, 0, 63, 1000, seed=1)
    assert not dense_circuit_caches(g)


# Every public function that takes a vertex pair, and the walk oracles of
# cycle_oracles, called as f(network, a, b).
PAIR_ROUTES = {
    "tree_walk_vector": lambda n, a, b: tree_walk_vector(n.graph, a, b),
    "walk_between": lambda n, a, b: walk_between(n.graph, a, b),
    "enumerate_simple_walks": lambda n, a, b: enumerate_simple_walks(n.graph, a, b),
    "node_voltages": electric.node_voltages,
    "stacked_voltages": lambda n, a, b: electric.stacked_voltages(
        n.graph, [n.resistances], a, b),
    "effective_resistance": electric.effective_resistance,
    "thomson_flow": electric.thomson_flow,
    "min_energy_flow_oracle": electric.min_energy_flow_oracle,
    "kcl_residual": lambda n, a, b: electric.kcl_residual(
        n, electric.FlowVector(np.zeros(n.graph.n_edges)), a, b),
    "potential_difference_variance": lambda n, a, b:
        potential_difference_variance(build_free_field(n), a, b),
    "path_independence_check": lambda n, a, b:
        path_independence_check(build_free_field(n), a, b),
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

    def test_repeat_message_names_the_vertex(self, triangle):
        name = triangle.graph.vertices[1]
        with pytest.raises(SameVertexError, match=f"vertex {name!r} named twice"):
            triangle.graph.check_vertices(1, 1)
        with pytest.raises(SameVertexError, match="vertex 5 named twice"):
            triangle.graph.check_vertices(np.int64(5), 5)

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
    g = Multigraph(("a", "b", "c"), [0], [1])
    assert g.cycle_rank == -1


@pytest.mark.parametrize("make, error, match", [
    (lambda g: Walk((0,), ()), ValidationError, "at least one edge"),
    (lambda g: Walk((0, 1, 2), (0,)), ValidationError, "inconsistent lengths"),
    (lambda g: Circuit((0, 0), (0,)), ValidationError, "at least two edges"),
    (lambda g: Circuit((0, 1, 2), (0, 1)), ValidationError,
     "end where it starts"),
    (lambda g: Circuit((0, 1, 0, 1, 0), (0, 1, 2, 3)), ValidationError,
     "revisit a vertex"),
    (lambda g: Circuit((0, 1, 0), (0, 0)), ValidationError, "reuse an edge"),
    (lambda g: make_walk(g, (0, 1), (g.n_edges,)), EdgeNotInGraphError,
     "out of range"),
    (lambda g: build_multigraph(["a"], []), ValidationError,
     "at least 2 vertices"),
], ids=["walk-no-edge", "walk-lengths", "circuit-one-edge",
        "circuit-open", "circuit-revisit", "circuit-reused-edge",
        "step-edge-id", "one-vertex"])
def test_malformed_walks_and_graphs_raise(make, error, match):
    g = build_multigraph("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    with pytest.raises(error, match=match):
        make(g)
