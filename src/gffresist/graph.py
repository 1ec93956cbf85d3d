"""Multigraph with a total vertex order, walks, circuits, and cycle-space machinery.

Vertices are identified by their position in the input list, which also fixes
the total order used for canonical edge orientation and traversal signs.
Edges are identified by their position in the edge list; parallel edges are
legal and distinguished by a per-endpoint-pair parallel index. A graph is
int arrays, never an object per edge: tails and heads, then a CSR adjacency
and the BFS tree's parent, parent-edge and queue order, built on first use.
"""

import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import (
    DisconnectedError,
    DuplicateVertexNameError,
    EdgeNotInGraphError,
    NotASpanningTreeError,
    SameVertexError,
    SelfLoopError,
    UnknownEndpointError,
    ValidationError,
)

# Columns of R each panel of a row-merge QR finalizes.
PANEL = 32


def check_index(value, what: str):
    """Raise ValidationError naming ``what`` unless ``value`` is an integer
    index: numpy integers are, a bool is not, though Python counts True
    as 1."""
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError
        operator.index(value)
    except TypeError:
        raise ValidationError(
            f"{what} {value!r} is not an integer index") from None


@dataclass(frozen=True, eq=False)
class Multigraph:
    """Connected undirected multigraph without self-loops. ``vertices``
    holds the names, position being index and order; edge ``e`` joins
    ``tails[e] < heads[e]``, read-only int arrays. Equality and hashing
    compare the names and both arrays."""

    vertices: tuple
    tails: np.ndarray
    heads: np.ndarray

    def __post_init__(self):
        for name in ("tails", "heads"):
            object.__setattr__(self, name, _frozen_ints(getattr(self, name)))

    def _key(self) -> tuple:
        return self.vertices, self.tails.tobytes(), self.heads.tobytes()

    def __eq__(self, other):
        return (self._key() == other._key() if isinstance(other, Multigraph)
                else NotImplemented)

    def __hash__(self):
        return hash(self._key())

    # Derived views, computed once per graph on first use.
    @cached_property
    def parallel(self) -> np.ndarray:
        """Per edge, its 0-based index among the edges joining the same pair,
        in input order: its rank in its run of a stable argsort by pair."""
        key = self.tails * self.n_vertices + self.heads
        order, ranks = np.argsort(key, kind="stable"), np.arange(self.n_edges)
        # Keys are positive, so the first sorted edge starts a run.
        starts = np.where(np.diff(key[order], prepend=-1) != 0, ranks, 0)
        parallel = np.empty_like(ranks)
        parallel[order] = ranks - np.maximum.accumulate(starts)
        return _frozen_ints(parallel)

    @cached_property
    def edges(self) -> tuple:
        """``(tail, head, parallel index)`` per edge, in Python ints."""
        return tuple(zip(self.tails.tolist(), self.heads.tolist(),
                         self.parallel.tolist()))

    @cached_property
    def adjacency(self) -> tuple:
        """CSR ``(starts, incident)``: vertex v's (edge id, other end) pairs,
        in increasing id, are ``incident[starts[v]:starts[v + 1]]``."""
        # A stable sort of the interleaved ends: entry p is of edge p // 2.
        ends = np.column_stack([self.tails, self.heads]).ravel()
        order = np.argsort(ends, kind="stable")
        starts = np.searchsorted(ends[order], np.arange(self.n_vertices + 1))
        others = np.column_stack([self.heads, self.tails]).ravel()[order]
        return starts.tolist(), list(zip((order // 2).tolist(),
                                         others.tolist()))

    @cached_property
    def tree(self) -> tuple:
        """BFS tree from vertex 0, incident edges in increasing id, as
        read-only int arrays ``(parent, parent_edge, order)`` (-1 at the
        root; ``order`` lists each parent before its children). It fixes
        every circuit orientation; DisconnectedError if it misses a vertex.
        """
        starts, incident = self.adjacency
        parent, parent_edge = [-1] * self.n_vertices, [-1] * self.n_vertices
        reached = [True] + [False] * (self.n_vertices - 1)
        order = [0]
        for v in order:  # the queue: order grows while it is read
            for e, w in incident[starts[v]:starts[v + 1]]:
                if not reached[w]:
                    reached[w], parent[w], parent_edge[w] = True, v, e
                    order.append(w)
        if len(order) != self.n_vertices:
            missing = sorted(set(range(self.n_vertices)) - set(order))
            raise DisconnectedError(
                f"vertices {missing} unreachable from vertex 0")
        return tuple(map(_frozen_ints, (parent, parent_edge, order)))

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

    @cached_property
    def row_merge_plans(self) -> dict:
        """cycle_plan's plans of the circuit rows, keyed by copies."""
        return {}

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.tails)

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
            check_index(v, "vertex")
        for i, v in enumerate(vertices):
            if v in vertices[:i]:
                name = self.vertices[v] if 0 <= v < self.n_vertices else int(v)
                raise SameVertexError(
                    f"vertex {name!r} named twice: vertices must differ")
        for v in vertices:
            if not 0 <= v < self.n_vertices:
                raise NotASpanningTreeError(
                    f"vertex {v} out of range for {self.n_vertices} vertices")


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
        if {g.tails[e], g.heads[e]} != {vertex_seq[k], vertex_seq[k + 1]}:
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
    tail < head. Raises ValidationError, DuplicateVertexNameError, then for
    the first bad spec in order UnknownEndpointError (u before v) or
    SelfLoopError, then DisconnectedError.
    """
    names = list(vertex_names)
    if len(names) < 2:
        raise ValidationError("a multigraph needs at least 2 vertices")
    index = {}
    for i, name in enumerate(names):
        if index.setdefault(name, i) != i:
            raise DuplicateVertexNameError(f"duplicate vertex name {name!r}")

    specs = list(edge_specs)
    # Each end's vertex index, -1 for an unknown name.
    ends = [np.fromiter(map(index.get, map(operator.itemgetter(k), specs),
                            repeat(-1)), dtype=int, count=len(specs))
            for k in (0, 1)]
    tails, heads = np.minimum(*ends), np.maximum(*ends)
    bad = (tails < 0) | (tails == heads)
    if bad.any():
        u, v = specs[int(np.argmax(bad))][:2]
        for endpoint in (u, v):
            if endpoint not in index:
                raise UnknownEndpointError(f"unknown vertex {endpoint!r}")
        raise SelfLoopError(f"self-loop at vertex {u!r}")

    g = Multigraph(tuple(names), tails, heads)
    g.tree  # raises DisconnectedError
    return g


def spanning_tree(g: Multigraph) -> frozenset:
    """Deterministic BFS spanning tree from vertex 0, edge-id tie-break."""
    return frozenset(g.tree[1][1:].tolist())


class Panel(NamedTuple):
    """One dgeqrf of a row-merge plan. Its stack is ``rows``, indices into
    the block's row list (the carried rows of R, then the rows entering
    here in position order), over ``columns`` active columns; the first
    ``kept`` rows of its R are final. The entering rows' entries are
    written into the zeroed Fortran stack as ``stack.reshape(-1,
    order="F")[flat] = s[source] * value``."""

    rows: np.ndarray
    columns: int
    kept: int
    flat: np.ndarray
    source: np.ndarray
    value: np.ndarray


@dataclass(frozen=True, eq=False)
class RowMergePlan:
    """k conditioning rows M on ``size`` coordinates, laid out for
    the row-merge Householder QR of M' (George & Heath, Linear Algebra
    Appl. 34, 1980). The nonzeros of M' are the triples (``coordinate``,
    ``column``, ``value``), kept in the order of the panels they enter. A
    coordinate's row enters the panel of PANEL columns that holds its
    ``lead``ing column (the last column for an empty row) and reaches up
    to column ``reach`` - 1. Read-only arrays; ``panels`` lays them out.
    """

    k: int
    size: int
    coordinate: np.ndarray
    column: np.ndarray
    value: np.ndarray

    def __post_init__(self):
        coordinate, column = np.asarray(self.coordinate), np.asarray(
            self.column)
        lead = np.full(self.size, self.k - 1)
        np.minimum.at(lead, coordinate, column)
        reach = np.zeros(self.size, dtype=int)
        np.maximum.at(reach, coordinate, column + 1)
        by_panel = np.argsort(lead[coordinate] // PANEL, kind="stable")
        for name, part in (("coordinate", coordinate[by_panel]),
                           ("column", column[by_panel]),
                           ("value", np.asarray(self.value)[by_panel]),
                           ("lead", lead), ("reach", reach)):
            part.setflags(write=False)
            object.__setattr__(self, name, part)

    @cached_property
    def layouts(self) -> dict:
        """``panels``' layouts, keyed by their slot count."""
        return {}

    def panels(self, slots: int = 0) -> tuple:
        """The Panels of the plan's QR below ``slots`` zero rows, row list
        indices 0 to slots - 1 (the coordinates are slots onward): slot j
        enters at column min(j, k - 1). Panel p finalizes columns p PANEL
        to (p + 1) PANEL - 1; its stack is the rows of R the panel before
        it did not finalize, then the rows entering, and it spans every
        column those reach. Computed once per slot count."""
        layout = self.layouts.get(slots)
        if layout is None:
            layout = self.layouts[slots] = _panel_layout(self, slots)
        return layout


def _panel_layout(plan: RowMergePlan, slots: int) -> tuple:
    """RowMergePlan.panels, computed."""
    k = plan.k
    if k == 0:
        return ()
    count = -(-k // PANEL)
    panel_of = np.concatenate([np.minimum(np.arange(slots), k - 1),
                               plan.lead]) // PANEL
    starts = np.arange(count) * PANEL
    kept = np.minimum(starts + PANEL, k) - starts
    far = starts + kept
    np.maximum.at(far, panel_of[slots:], plan.reach)
    columns = np.maximum.accumulate(far) - starts
    entering = np.argsort(panel_of, kind="stable")
    bounds = np.searchsorted(panel_of[entering], np.arange(count + 1))
    at = np.empty(panel_of.size, dtype=int)  # a row's index in its stack
    stacks, carried = [], entering[:0]
    for p in range(count):
        enter = entering[bounds[p]:bounds[p + 1]]
        at[enter] = np.arange(carried.size, carried.size + enter.size)
        stacks.append(np.concatenate([carried, enter]))
        carried = stacks[-1][kept[p]:min(stacks[-1].size, columns[p])]
    heights = np.array([rows.size for rows in stacks])
    row = slots + plan.coordinate
    panel = panel_of[row]  # nondecreasing: the entries are in panel order
    flat = at[row] + (plan.column - starts[panel]) * heights[panel]
    cuts = np.searchsorted(panel, np.arange(count + 1)).tolist()
    return tuple(
        Panel(rows, int(columns[p]), int(kept[p]),
              *(part[cuts[p]:cuts[p + 1]]
                for part in (flat, plan.coordinate, plan.value)))
        for p, rows in enumerate(stacks))


def cycle_plan(g: Multigraph, copies: int = 1) -> RowMergePlan:
    """The plan of the fundamental circuit rows of ``tree``, repeated on
    ``copies`` E-long blocks of coordinates ([C, C] for two), in panels of
    PANEL columns; cached in ``g.row_merge_plans``. A chord's circuit runs
    tail to head along it, then back along the tree, so it holds 1 at the
    chord and +-1 on the tree walk. The circuits are in apex order, by
    the queue position of the circuit's apex (the lowest common ancestor
    of the chord's ends), ties by its later end's, which keeps each row's
    columns in a band: a bandwidth-reducing order in the spirit of
    Cuthill & McKee (1969) with no search."""
    plan = g.row_merge_plans.get(copies)
    if plan is not None:
        return plan
    if copies > 1:
        one = cycle_plan(g)
        shifts = np.repeat(np.arange(copies) * g.n_edges, one.coordinate.size)
        plan = RowMergePlan(one.k, copies * g.n_edges,
                            np.tile(one.coordinate, copies) + shifts,
                            np.tile(one.column, copies),
                            np.tile(one.value, copies))
    else:
        chords, apex, later, circuit, edge, sign = _circuit_walks(g)
        k = chords.size
        column = _apex_columns(apex, later)
        plan = RowMergePlan(k, g.n_edges,
                            np.concatenate([chords, edge]),
                            column[np.concatenate([np.arange(k), circuit])],
                            np.concatenate([np.ones(k), sign]))
    g.row_merge_plans[copies] = plan
    return plan


def _apex_columns(apex: np.ndarray, later: np.ndarray) -> np.ndarray:
    """Each circuit's column in apex order (see cycle_plan): by its apex,
    ties by its later end, both as ``_circuit_walks`` gives them."""
    column = np.empty(apex.size, dtype=int)
    column[np.lexsort((later, apex))] = np.arange(apex.size)
    return column


def _circuit_walks(g: Multigraph) -> tuple:
    """The fundamental circuits of ``tree`` from its parent arrays, in
    O(total circuit length): ``(chords, apex, later, circuit, edge,
    sign)``. The chords are increasing ids; per chord, ``apex`` is the
    queue position of its ends' lowest common ancestor and ``later`` the
    larger of its ends' queue positions. Each tree edge of circuit i
    gives an entry (i, edge, sign), its coefficient in
    ``tree_walk_vector(g, head, tail)``. Nothing is cached here:
    cycle_plan keeps its plan, and min_energy_flow_oracle assembles its
    band from the entries on each call. The ends are walked as
    queue positions: each step moves the later end of every unfinished
    circuit to its parent (it is never the other end's ancestor) until
    the ends meet."""
    parent, parent_edge, order = g.tree
    queue = np.empty(g.n_vertices, dtype=int)
    queue[order] = np.arange(g.n_vertices)
    up = queue[parent[order]]  # the parent's queue position; -1 at the root
    up[0] = -1
    on_tree = np.zeros(g.n_edges, dtype=bool)
    on_tree[parent_edge[1:]] = True
    chords = np.flatnonzero(~on_tree)
    at_tail, at_head = queue[g.tails[chords]], queue[g.heads[chords]]
    later, lower = np.maximum(at_tail, at_head), np.minimum(at_tail, at_head)
    # +1 while the later end climbs from the tail, -1 from the head.
    side = np.where(at_tail > at_head, 1.0, -1.0)
    apex = np.empty(chords.size, dtype=int)
    live, position, steps = np.arange(chords.size), later, []
    while live.size:
        steps.append((live, position, side))
        position = up[position]
        met, swap = position == lower, position < lower
        apex[live[met]] = lower[met]
        position, lower = (np.maximum(position, lower),
                           np.minimum(position, lower))
        side = np.where(swap, -side, side)
        live, position, lower, side = (
            part[~met] for part in (live, position, lower, side))
    circuit, walked, sides = map(np.concatenate, zip(
        *steps or [(np.zeros(0, dtype=int),) * 3]))
    v = order[walked]
    # The coefficient of v's parent edge in P[v]: +1 when it ascends to v.
    sign = sides * np.where(v > parent[v], 1.0, -1.0)
    return chords, apex, later, circuit, parent_edge[v], sign


def tree_walk_vector(g: Multigraph, a: int, b: int) -> np.ndarray:
    """Sign vector of the tree walk from a to b: the root's walk to b minus
    its walk to a, each climbed up ``tree``'s parent arrays. Their shared
    part above the lowest common ancestor cancels to an exact 0.0, so this
    is ``walk_sign_vector(g, walk_between(g, a, b))`` byte for byte."""
    g.check_vertices(a, b)
    parent, parent_edge, _ = g.tree
    vec = np.zeros(g.n_edges)
    for v, sign in ((b, 1.0), (a, -1.0)):
        while v:  # the root is vertex 0
            up = parent[v]
            # The root's walk runs down v's parent edge, +1 when it ascends.
            vec[parent_edge[v]] += sign if v > up else -sign
            v = up
    return vec


def _tree_path(parent, parent_edge, a: int, b: int):
    """Unique a-to-b path in the BFS tree, given as lists, as (vertex_seq,
    edge_seq): a's walk up to the root, cut where b's walk up meets it."""
    up, down = [a], [b]
    while parent[up[-1]] >= 0:
        up.append(parent[up[-1]])
    on_up = set(up)
    while down[-1] not in on_up:
        down.append(parent[down[-1]])
    vs = up[:up.index(down[-1])] + down[::-1]
    # Each step runs along the parent edge of its child end.
    return vs, [parent_edge[v] if parent[v] == w else parent_edge[w]
                for v, w in zip(vs, vs[1:])]


def walk_between(g: Multigraph, a: int, b: int) -> Walk:
    """The unique spanning-tree walk from a to b."""
    g.check_vertices(a, b)
    parent, parent_edge, _ = (part.tolist() for part in g.tree)
    return make_walk(g, *_tree_path(parent, parent_edge, a, b))


def fundamental_circuits(g: Multigraph) -> list:
    """One circuit per non-tree edge: the edge plus the BFS tree path closing it.

    The list is ordered by non-tree edge id and has length equal to the
    cycle rank |E| - |V| + 1.
    """
    parent, parent_edge, _ = (part.tolist() for part in g.tree)
    tree = set(parent_edge)
    circuits = []
    for e, (tail, head) in enumerate(zip(g.tails.tolist(), g.heads.tolist())):
        if e in tree:
            continue
        path_vs, path_es = _tree_path(parent, parent_edge, head, tail)
        circuits.append(make_circuit(g, [tail] + path_vs, [e] + path_es))
    return circuits


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

