"""Multigraph with a total vertex order, walks, circuits, and cycle-space machinery.

Vertices are identified by their position in the input list, which also fixes
the total order used for canonical edge orientation and traversal signs.
Edges are identified by their position in the edge list; parallel edges are
legal and distinguished by a per-endpoint-pair parallel index.
"""

import operator
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
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

DEFAULT_CIRCUIT_LIMIT = 1_000_000


@dataclass(frozen=True)
class EdgeRecord:
    """One edge in canonical orientation: tail < head in the vertex order."""

    tail: int
    head: int
    parallel_index: int


@dataclass(frozen=True)
class Multigraph:
    """Connected undirected multigraph without self-loops.

    ``vertices`` holds the vertex names; list position defines both the
    vertex index and the total order. ``edges`` holds one EdgeRecord per
    edge; list position is the edge identifier.
    """

    vertices: tuple
    edges: tuple

    # Derived views, computed once per graph. They are cached attributes, not
    # fields, so equality and hashing still see only vertices and edges.
    @cached_property
    def tails(self) -> np.ndarray:
        return _frozen_ints([rec.tail for rec in self.edges])

    @cached_property
    def heads(self) -> np.ndarray:
        return _frozen_ints([rec.head for rec in self.edges])

    @cached_property
    def adjacency(self) -> tuple:
        """Per vertex, its (edge id, other endpoint) pairs in increasing edge id."""
        adj = [[] for _ in self.vertices]
        for e, rec in enumerate(self.edges):
            adj[rec.tail].append((e, rec.head))
            adj[rec.head].append((e, rec.tail))
        return tuple(map(tuple, adj))

    @cached_property
    def tree(self) -> tuple:
        """The BFS spanning tree's ``(parent, depth)`` maps; shared, never
        mutated. Raises DisconnectedError when the BFS misses a vertex."""
        parent, depth = _bfs(self)
        if len(parent) != self.n_vertices:
            missing = sorted(set(range(self.n_vertices)) - parent.keys())
            raise DisconnectedError(
                f"vertices {missing} unreachable from vertex 0")
        return parent, depth

    @cached_property
    def tree_paths(self) -> np.ndarray:
        """Read-only int8 sign vectors of the tree walks from vertex 0, one
        row per vertex; row v is its parent's row plus v's tree edge, and the
        BFS order fills a parent's row before its children's."""
        parent, _ = self.tree
        paths = np.zeros((self.n_vertices, self.n_edges), dtype=np.int8)
        for v, link in parent.items():
            if link is not None:
                p, e = link
                paths[v] = paths[p]
                paths[v, e] = 1 if v > p else -1
        paths.setflags(write=False)
        return paths

    @cached_property
    def cycle_blocks(self) -> tuple:
        """The fundamental circuits of ``tree`` in chord/tree block form:
        ``(tree_ids, chords, block)``, see ``_cycle_basis``; read-only."""
        return _cycle_basis(self)

    @cached_property
    def cycle_matrix(self) -> np.ndarray:
        """Read-only fundamental circuit sign vectors of ``tree``, one per row.

        Row i is the sign vector of the i-th circuit of
        ``fundamental_circuits``: ``cycle_blocks``' tree block in the tree
        edges' columns and the identity in the chords' columns, so the
        circuits are never made.
        """
        tree_ids, chords, block = self.cycle_blocks
        cycles = np.zeros((len(chords), self.n_edges))
        cycles[:, tree_ids] = block
        cycles[np.arange(len(chords)), chords] = 1.0
        cycles.setflags(write=False)
        return cycles

    @cached_property
    def voltage_memo(self) -> dict:
        """electric.node_voltages' recent solves on this graph, oldest
        first; node_voltages keys and bounds it."""
        return {}

    @cached_property
    def band_plans(self) -> dict:
        """electric.laplacian's band plan for the last ground it assembled,
        keyed by that ground; laplacian keys it and keeps one entry."""
        return {}

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def cycle_rank(self) -> int:
        return self.n_edges - self.n_vertices + 1

    def vertex_index(self, name) -> int:
        try:
            return self.vertices.index(name)
        except ValueError:
            raise UnknownEndpointError(f"unknown vertex {name!r}") from None

    def check_vertices(self, *vertices):
        """Raise ValidationError for a vertex that is not an integer (bool
        included), else SameVertexError if a vertex repeats, else
        NotASpanningTreeError for one outside 0 <= v < n_vertices: a negative
        index never wraps."""
        for v in vertices:
            try:
                if isinstance(v, (bool, np.bool_)):
                    raise TypeError
                operator.index(v)
            except TypeError:
                raise ValidationError(
                    f"vertex {v!r} is not an integer index") from None
        for i, v in enumerate(vertices):
            if v in vertices[:i]:
                name = self.vertices[v] if 0 <= v < self.n_vertices else int(v)
                raise SameVertexError(
                    f"vertex {name!r} named twice: vertices must differ")
        for v in vertices:
            if not 0 <= v < self.n_vertices:
                raise NotASpanningTreeError(
                    f"vertex {v} out of range for {self.n_vertices} vertices")

    def incidence_matrix(self) -> np.ndarray:
        """Signed vertex-edge incidence: +1 at the tail, -1 at the head."""
        b = np.zeros((self.n_vertices, self.n_edges))
        ids = np.arange(self.n_edges)
        b[self.tails, ids] = 1.0
        b[self.heads, ids] = -1.0
        return b


def _frozen_ints(values) -> np.ndarray:
    arr = np.array(values, dtype=int)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Walk:
    """Alternating vertex/edge sequence; its traversal signs follow from
    the vertex order."""

    vertices: tuple
    edges: tuple

    def __post_init__(self):
        n = len(self.edges)
        if n < 1:
            raise ValidationError("a walk needs at least one edge")
        if len(self.vertices) != n + 1:
            raise ValidationError("walk sequences have inconsistent lengths")

    @property
    def signs(self) -> tuple:
        """signs[k] is +1 when the k-th step ascends in the vertex order
        (v_{k+1} > v_k) and -1 when it descends."""
        vs = self.vertices
        return tuple(1 if vs[k + 1] > vs[k] else -1 for k in range(self.length))

    @property
    def length(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class Circuit(Walk):
    """Simple closed walk: returns to its start, no vertex or edge repeats."""

    def __post_init__(self):
        super().__post_init__()
        if self.length < 2:
            raise ValidationError("a circuit needs at least two edges")
        if self.vertices[0] != self.vertices[-1]:
            raise ValidationError("a circuit must end where it starts")
        interior = self.vertices[:-1]
        if len(set(interior)) != len(interior):
            raise ValidationError("a circuit may not revisit a vertex")
        if len(set(self.edges)) != len(self.edges):
            raise ValidationError("a circuit may not reuse an edge")


def _check_steps(g: Multigraph, vertex_seq, edge_seq):
    """Every edge id must exist in g and join the consecutive vertex pair."""
    for k, e in enumerate(edge_seq):
        if not 0 <= e < g.n_edges:
            raise EdgeNotInGraphError(f"edge id {e} out of range")
        if {g.edges[e].tail, g.edges[e].head} != {vertex_seq[k], vertex_seq[k + 1]}:
            raise EdgeNotInGraphError(
                f"edge {e} does not join vertices {vertex_seq[k]} and {vertex_seq[k + 1]}")


def make_walk(g: Multigraph, vertex_seq, edge_seq) -> Walk:
    _check_steps(g, vertex_seq, edge_seq)
    return Walk(tuple(vertex_seq), tuple(edge_seq))


def make_circuit(g: Multigraph, vertex_seq, edge_seq) -> Circuit:
    _check_steps(g, vertex_seq, edge_seq)
    return Circuit(tuple(vertex_seq), tuple(edge_seq))


def build_multigraph(vertex_names, edge_specs) -> Multigraph:
    """Build a validated multigraph from vertex names and (u, v, ...) specs.

    Edge specs may carry extra entries (e.g. a resistance) past the two
    endpoint names; they are ignored here. Orientation is canonicalized to
    tail < head; parallel indices follow input order within each endpoint
    pair. Raises SelfLoopError, DuplicateVertexNameError,
    UnknownEndpointError, or DisconnectedError on invalid input.
    """
    names = list(vertex_names)
    if len(names) < 2:
        raise ValidationError("a multigraph needs at least 2 vertices")
    seen = set()
    for name in names:
        if name in seen:
            raise DuplicateVertexNameError(f"duplicate vertex name {name!r}")
        seen.add(name)
    index = {name: i for i, name in enumerate(names)}

    records = []
    pair_counts = {}
    for spec in edge_specs:
        u, v = spec[0], spec[1]
        for endpoint in (u, v):
            if endpoint not in index:
                raise UnknownEndpointError(f"unknown vertex {endpoint!r}")
        iu, iv = index[u], index[v]
        if iu == iv:
            raise SelfLoopError(f"self-loop at vertex {u!r}")
        tail, head = min(iu, iv), max(iu, iv)
        k = pair_counts.get((tail, head), 0)
        pair_counts[(tail, head)] = k + 1
        records.append(EdgeRecord(tail, head, k))

    g = Multigraph(tuple(names), tuple(records))
    g.tree  # raises DisconnectedError
    return g


def _bfs(g: Multigraph) -> tuple:
    """Breadth-first search from vertex 0 scanning incident edges in increasing id.

    Returns ``(parent, depth)`` over the reached vertices: ``parent[v]`` is
    the (vertex, edge id) pair v was reached through, None at the root. The
    search order fixes the spanning tree, hence every circuit orientation.
    """
    parent, depth = {0: None}, {0: 0}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for e, w in g.adjacency[v]:
            if w not in parent:
                parent[w] = (v, e)
                depth[w] = depth[v] + 1
                queue.append(w)
    return parent, depth


def _tree_edges(parent) -> frozenset:
    return frozenset(link[1] for link in parent.values() if link is not None)


def spanning_tree(g: Multigraph) -> frozenset:
    """Deterministic BFS spanning tree from vertex 0, edge-id tie-break."""
    return _tree_edges(g.tree[0])


def _cycle_basis(g: Multigraph) -> tuple:
    """Fundamental circuits of the BFS tree in chord/tree block form.

    Returns ``(tree_ids, chords, block)``: the tree edges' ids and the
    chords' ids, each increasing, and the k x (V - 1) float tree block D,
    all read-only. The chords are the edges no root path uses. The circuit
    of chord e runs tail to head along e, then back along the tree, so it
    owns its chord and its tree part is ``P[tail] - P[head]`` with
    ``P = g.tree_paths``: the shared part of the two root paths cancels and
    every entry of D is exactly -1, 0 or 1. The circuit matrix is
    ``[I_k | D]`` up to a column permutation.
    """
    paths = g.tree_paths
    on_tree = paths.any(axis=0)
    tree_ids, chords = np.flatnonzero(on_tree), np.flatnonzero(~on_tree)
    tree_part = paths[:, tree_ids]
    block = (tree_part[g.tails[chords]]
             - tree_part[g.heads[chords]]).astype(float)
    for part in (tree_ids, chords, block):
        part.setflags(write=False)
    return tree_ids, chords, block


def tree_walk_vector(g: Multigraph, a: int, b: int) -> np.ndarray:
    """Sign vector ``P[b] - P[a]``, ``P = g.tree_paths``, of the tree walk
    from a to b: ``walk_sign_vector(g, walk_between(g, a, b))`` without the
    walk."""
    g.check_vertices(a, b)
    return (g.tree_paths[b] - g.tree_paths[a]).astype(float)


def _tree_path(parent, depth, a: int, b: int):
    """Unique a-to-b path in the BFS tree, as (vertex_seq, edge_seq).

    Walks up from the deeper end until both ends meet at their lowest
    common ancestor.
    """
    up_vs, up_es, down_vs, down_es = [a], [], [b], []
    while a != b:
        if depth[a] >= depth[b]:
            a, e = parent[a]
            up_vs.append(a)
            up_es.append(e)
        else:
            b, e = parent[b]
            down_vs.append(b)
            down_es.append(e)
    return up_vs + down_vs[-2::-1], up_es + down_es[::-1]


def walk_between(g: Multigraph, a: int, b: int) -> Walk:
    """The unique spanning-tree walk from a to b."""
    g.check_vertices(a, b)
    vs, es = _tree_path(*g.tree, a, b)
    return make_walk(g, vs, es)


def fundamental_circuits(g: Multigraph) -> list:
    """One circuit per non-tree edge: the edge plus the BFS tree path closing it.

    The list is ordered by non-tree edge id and has length equal to the
    cycle rank |E| - |V| + 1.
    """
    parent, depth = g.tree
    tree = _tree_edges(parent)
    circuits = []
    for e, rec in enumerate(g.edges):
        if e in tree:
            continue
        path_vs, path_es = _tree_path(parent, depth, rec.head, rec.tail)
        circuits.append(make_circuit(g, [rec.tail] + path_vs, [e] + path_es))
    return circuits


def _simple_paths(g: Multigraph, start: int, stop: int, floor: int):
    """Every path from start to stop, by depth-first search without recursion.

    Interior vertices are distinct, differ from both ends and exceed floor;
    start == stop gives closed paths. Incident edges are scanned in
    increasing id, so paths come in the order a recursive search finds
    them. Yields fresh (vertex list, edge list) pairs.
    """
    path_vs, path_es = [start], []
    on_path = {start}
    frames = [iter(g.adjacency[start])]
    while frames:
        for e, w in frames[-1]:
            # The only path edge incident to the tip is the one that entered it.
            if path_es and e == path_es[-1]:
                continue
            if w == stop:
                yield path_vs + [w], path_es + [e]
            elif w > floor and w not in on_path:
                path_vs.append(w)
                path_es.append(e)
                on_path.add(w)
                frames.append(iter(g.adjacency[w]))
                break
        else:
            frames.pop()
            if path_es:
                path_es.pop()
                on_path.discard(path_vs.pop())


def enumerate_circuits(g: Multigraph, limit: int = DEFAULT_CIRCUIT_LIMIT) -> list:
    """Every circuit of g, once up to starting point and direction.

    Each circuit is found from its smallest vertex in both directions and
    kept as first found; its edge set, which determines it, is the key.
    Intended for desk-scale graphs; raises SizeLimitExceededError once more
    than ``limit`` distinct circuits are found.
    """
    found = {}
    for s in range(g.n_vertices):
        for path_vs, path_es in _simple_paths(g, s, s, s):
            key = frozenset(path_es)
            if key not in found:
                found[key] = make_circuit(g, path_vs, path_es)
                if len(found) > limit:
                    raise SizeLimitExceededError(f"more than {limit} circuits")
    return list(found.values())


def walk_sign_vector(g: Multigraph, w: Walk) -> np.ndarray:
    """Signed edge-incidence vector of a walk (repeat traversals add up)."""
    _check_steps(g, w.vertices, w.edges)
    vec = np.zeros(g.n_edges)
    for e, s in zip(w.edges, w.signs):
        vec[e] += s
    return vec


def circuit_matrix(g: Multigraph, circuits) -> np.ndarray:
    """Stack of circuit sign vectors, one row per circuit."""
    if not circuits:
        return np.zeros((0, g.n_edges))
    return np.stack([walk_sign_vector(g, c) for c in circuits])


def enumerate_simple_walks(g: Multigraph, a: int, b: int,
                           limit: int = 10_000) -> list:
    """All walks from a to b visiting no vertex twice, parallel edges distinct."""
    g.check_vertices(a, b)
    walks = []
    for path_vs, path_es in _simple_paths(g, a, b, -1):
        walks.append(make_walk(g, path_vs, path_es))
        if len(walks) > limit:
            raise SizeLimitExceededError(
                f"more than {limit} simple walks from {a} to {b}")
    return walks
