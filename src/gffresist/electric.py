"""Deterministic circuit theory for resistive multigraphs.

Node voltages come from a band Cholesky solve of the ground-reduced
Laplacian under a unit current source, assembled in LAPACK upper band
storage; its half-bandwidth ``kd`` is the largest ``head - tail`` over the
edges that keep both ends, so the vertex order sets the cost, O(V kd^2),
not the value. ``stacked_voltages`` solves a check's networks, one
resistance row each, as one stack, each row bit for bit its solve alone.
The Thomson flow follows by Ohm's law; an independent minimum-energy route
re-derives it by ``dposv`` on the dense cycle Gram, formed as one
symmetric product ``W W^T`` and sharing no arithmetic with the Laplacian's
``dpbsv``. Both raise the same errors (``_check_solve``)
and warn (``LinAlgWarning``) when the reciprocal 1-norm condition number,
exact for the Laplacian (an M-matrix, its 1-norm read from its own band's
row sums) and ``dpocon``'s estimate for the Gram, falls below machine
epsilon. Each graph keeps its last
VOLTAGE_MEMO_SIZE voltage solves and the band plan for the last ground;
the oracle walks the fundamental circuits on each call and keeps nothing.
"""

import math
import sys
import warnings
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgWarning
from scipy.linalg.blas import dsbmv
from scipy.linalg.lapack import dlange, dpbsv, dpocon, dposv

from .errors import (
    DimensionMismatchError,
    SingularSystemError,
    ValidationError,
)
from .graph import Multigraph, _circuit_walks, tree_walk_vector

MIN_RESISTANCE = 1e-12
EPS = np.finfo(float).eps
# Solves stacked_voltages keeps per graph: one suite instance or
# grid-electric op solves at most 16 distinct networks.
VOLTAGE_MEMO_SIZE = 16
# Band bytes stacked_voltages assembles at once, at least one row: a
# grid-electric stack (at most 12 rows of 35 KB) is one slice, a 100x100
# grid's 8 MB bands go two at a time.
STACK_BYTES = 1 << 24


@dataclass(frozen=True)
class ResistiveNetwork:
    """Multigraph plus a resistance per edge (ohms), finite and at least
    MIN_RESISTANCE so that every conductance is finite: the rule
    ``_check_resistances`` applies here and to stacked_voltages' rows."""

    graph: Multigraph
    resistances: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.resistances, dtype=float).copy()
        if r.shape != (self.graph.n_edges,):
            raise DimensionMismatchError(
                f"expected {self.graph.n_edges} resistances, got shape {r.shape}")
        _check_resistances(r)
        r.setflags(write=False)
        object.__setattr__(self, "resistances", r)


# Networks on one graph, a row of checked resistances each, for laplacian.
_Stack = namedtuple("_Stack", "graph resistances")


def _check_resistances(r: np.ndarray, where: str = ""):
    """The one resistance rule: each finite and >= MIN_RESISTANCE."""
    valid = (r >= MIN_RESISTANCE) & (r < np.inf)  # NaN fails both
    if not valid.all():
        e = int(np.argmin(valid))
        raise ValidationError(
            f"{where}edges[{e}]: resistance must be finite and >= "
            f"{MIN_RESISTANCE} ohms, got {float(r[e])}")


@dataclass(frozen=True)
class FlowVector:
    """Signed current per edge, relative to canonical orientation (amperes)."""

    currents: np.ndarray

    def __post_init__(self):
        i = np.asarray(self.currents, dtype=float).copy()
        if not np.all(np.isfinite(i)):
            raise ValidationError("currents must be finite")
        i.setflags(write=False)
        object.__setattr__(self, "currents", i)


@dataclass(frozen=True)
class VoltageVector:
    """Potential per vertex (volts); the ground vertex sits at exactly 0."""

    potentials: np.ndarray
    ground: int

    def __post_init__(self):
        v = np.asarray(self.potentials, dtype=float).copy()
        if v[self.ground] != 0.0:
            raise ValidationError("ground potential must be exactly 0")
        v.setflags(write=False)
        object.__setattr__(self, "potentials", v)


def _check_flow(n: ResistiveNetwork, f: FlowVector):
    if f.currents.shape != (n.graph.n_edges,):
        raise DimensionMismatchError(
            f"flow has shape {f.currents.shape}, network has "
            f"{n.graph.n_edges} edges")


def _warn_if_ill_conditioned(rcond: float):
    """Warn below machine epsilon, at the first caller outside the package."""
    if not rcond >= EPS:
        frame, level = sys._getframe(1), 2
        while frame.f_back and frame.f_globals.get("__name__", "").startswith(
                f"{__package__}."):
            frame, level = frame.f_back, level + 1
        warnings.warn(f"ill-conditioned matrix (rcond={rcond:.6g}): "
                      "result may not be accurate", LinAlgWarning,
                      stacklevel=level)


def _check_solve(info: int, message: str, *values):
    """Raise SingularSystemError: ``message`` when LAPACK's ``info`` says
    not positive definite, else the double range when ``values`` are not."""
    if info > 0:
        raise SingularSystemError(message)
    if not all(np.isfinite(v).all() for v in values):
        raise SingularSystemError(
            "solution is not finite: the network's resistances exceed the "
            "double range")


@dataclass(frozen=True)
class _BandPlan:
    """The graph-only part of ``laplacian(n, ground)``: per band entry kept,
    in edge order, its ``np.bincount`` slot, its edge and its sign, -1.0 for
    an off-diagonal entry; and the band's ``kd`` and ``size``."""

    slots: np.ndarray
    edge_ids: np.ndarray
    signs: np.ndarray
    kd: int
    size: int


def _band_plan(g: Multigraph, ground) -> _BandPlan:
    """The graph's band plan for ``ground``. A miss makes it and puts it in
    ``band_plans`` in place of the previous ground's."""
    plan = g.band_plans.get(ground)
    if plan is not None:
        return plan
    t, h = g.tails, g.heads
    # Per edge, in edge order: (t,h) loses c and (t,t), (h,h) gain it; the
    # lower triangle's (h,t) mirrors (t,h) and is not stored.
    rows = np.column_stack([t, t, h]).ravel()
    cols = np.column_stack([h, t, h]).ravel()
    edge_ids = np.repeat(np.arange(g.n_edges), 3)
    signs = np.tile([-1.0, 1.0, 1.0], g.n_edges)
    size = g.n_vertices
    if ground is not None:
        kept = (rows != ground) & (cols != ground)
        rows, cols = rows[kept], cols[kept]
        edge_ids, signs = edge_ids[kept], signs[kept]
        rows = rows - (rows > ground)
        cols = cols - (cols > ground)
        size -= 1
    kd = int(np.max(cols - rows, initial=0))
    # Column-major, slot (kd + i - j, j) lies at offset kd * (j + 1) + i.
    plan = _BandPlan(kd * (cols + 1) + rows, edge_ids, signs, kd, size)
    g.band_plans.clear()
    g.band_plans[ground] = plan
    return plan


def laplacian(n: ResistiveNetwork, ground=None) -> np.ndarray:
    """Weighted Laplacian L with edge conductances 1/R_e, in LAPACK upper
    band storage: a Fortran-ordered array of shape ``(kd + 1, size)`` whose
    entry ``(kd + i - j, j)`` holds ``L[i, j]`` for ``j - kd <= i <= j``, so
    row ``kd`` is the diagonal; the slots with ``i < 0`` are 0; a ``_Stack``
    gets one per row. ``ground`` (a vertex, checked) leaves its row and
    column out. ``kd`` is the largest ``head - tail`` over the edges that
    keep both ends. The graph-only indexing is planned once per ground
    (``_band_plan``): an assembly is a gather of the conductances, a
    product with the signs and one ``np.bincount``, each row's slots
    offset, which sums the entries in edge order, as an edge loop would.
    """
    g = n.graph
    if ground is not None:
        g.check_vertices(ground)
    plan = _band_plan(g, ground)
    values = (1.0 / n.resistances).take(plan.edge_ids, axis=-1) * plan.signs
    rows, width = n.resistances.shape[:-1], (plan.kd + 1) * plan.size
    offsets = width * np.arange(math.prod(rows)).reshape(*rows, 1)
    flat = np.bincount((plan.slots + offsets).ravel(), values.ravel(),
                       minlength=offsets.size * width)
    return np.swapaxes(flat.reshape(*rows, plan.size, plan.kd + 1), -1, -2)


def stacked_voltages(graph: Multigraph, resistances, a: int,
                     b: int) -> np.ndarray:
    """Vertex potentials for a unit current injected at a and extracted at
    grounded b (0 there), one row per row of ``resistances``: bit for bit
    the solve of that network on ``graph`` alone.

    ``voltage_memo`` keeps the last VOLTAGE_MEMO_SIZE rows solved with their
    rcond, keyed by bytes and pair: a row found there or repeated is not
    solved again, and warns again if its solve did. The others are checked
    as ResistiveNetwork checks them, assembled by ``laplacian`` in slices of
    at most STACK_BYTES of band (at least one row) and solved by one
    ``dpbsv`` call each (one for all would leave cache), with
    a second right-hand side for the exact rcond of the M-matrix A: the
    ones vector times the power of two c in ``(||A||_1 / 2, ||A||_1]``, so
    ``||A^-1||_1 = max(y) / c`` (A^-1 >= 0), with ``||A||_1`` read from the
    band's own row sums (``_solved_slice``), a 1x1 system included. An error
    is never kept. Threads sharing a graph must not call this at once: the
    memo takes no lock.
    """
    graph.check_vertices(a, b)
    r = np.asarray(resistances, dtype=float)
    if r.ndim != 2 or r.shape[1] != graph.n_edges:
        raise DimensionMismatchError(
            f"expected rows of {graph.n_edges} resistances, got {r.shape}")
    memo = graph.voltage_memo
    keys = [(row.tobytes(), a, b) for row in r]
    found = {key: memo.get(key) for key in keys}
    todo = {}  # each missing row once, where it first appears
    for i, key in enumerate(keys):
        if found[key] is None and key not in todo:
            _check_resistances(r[i], f"rows[{i}]: ")
            todo[key] = i
    if todo:
        r, missing = r[list(todo.values())], list(todo)
        plan = _band_plan(graph, b)
        rows = max(1, STACK_BYTES // (8 * (plan.kd + 1) * plan.size))
        for i in range(0, len(r), rows):
            found.update(zip(missing[i:i + rows], _solved_slice(
                graph, r[i:i + rows], a, b)))
    for key, entry in found.items():
        memo.pop(key, None)
        if len(memo) >= VOLTAGE_MEMO_SIZE:
            del memo[next(iter(memo))]
        memo[key] = entry
    for key in keys:
        _warn_if_ill_conditioned(found[key][1])
    return np.array([found[key][0] for key in keys]).reshape(
        len(keys), graph.n_vertices)


def _solved_slice(graph: Multigraph, r: np.ndarray, a: int, b: int) -> list:
    """(potentials, rcond) of each row of ``r`` by stacked_voltages' solve,
    its bands assembled by one ``laplacian`` call. Off-diagonals are <= 0,
    so ``||A||_1 = max_j(2 A_jj - (A 1)_j)``; one ``dsbmv`` forms every
    ``A 1`` before ``dpbsv`` overwrites the bands, which side by side are
    the band of blockdiag(A, ...): the slots above each A are 0."""
    bands = laplacian(_Stack(graph, r), ground=b)
    kd, size = bands.shape[1] - 1, bands.shape[2]
    sums = dsbmv(kd, 1.0, bands.swapaxes(1, 2).reshape(-1, kd + 1).T,
                 np.ones(len(r) * size)).reshape(len(r), size)
    norms = (2.0 * bands[:, -1] - sums).max(axis=1)
    scales = np.ldexp(0.5, np.frexp(norms)[1])
    rhs = np.zeros((len(r), 2, size))
    rhs[:, 0, a - (a > b)] = 1.0
    rhs[:, 1] = scales[:, None]
    # Each row's pair of right-hand sides is solved in place.
    for band, source in zip(bands, rhs):
        info = dpbsv(band, source.T, overwrite_ab=1, overwrite_b=1)[2]
        _check_solve(info, "reduced Laplacian is singular; is the "
                     "network connected?", source)
    rconds = 1.0 / rhs[:, 1].max(axis=1) / (norms / scales)
    potentials = np.zeros((len(r), graph.n_vertices))
    potentials[:, :b] = rhs[:, 0, :b]
    potentials[:, b + 1:] = rhs[:, 0, b:]
    return list(zip(potentials, rconds.tolist()))


def node_voltages(n: ResistiveNetwork, a: int, b: int) -> VoltageVector:
    """``stacked_voltages`` of the one network n, memo included."""
    return VoltageVector(
        stacked_voltages(n.graph, n.resistances[None], a, b)[0], ground=b)


def effective_resistance(n: ResistiveNetwork, a: int, b: int) -> float:
    """Voltage at a under a unit a-to-b current source with b grounded."""
    return float(node_voltages(n, a, b).potentials[a])


def ohm_flow(n: ResistiveNetwork, volts: VoltageVector) -> FlowVector:
    """Edge currents that the given vertex potentials drive, by Ohm's law."""
    v = volts.potentials
    return FlowVector((v[n.graph.tails] - v[n.graph.heads]) / n.resistances)


def thomson_flow(n: ResistiveNetwork, a: int, b: int) -> FlowVector:
    """The unique unit a-to-b flow satisfying both Kirchhoff laws (Ohm route)."""
    return ohm_flow(n, node_voltages(n, a, b))


def _gram_solve(gram: np.ndarray, rhs: np.ndarray) -> tuple:
    """Solve ``gram @ t = rhs`` in place for a bitwise-symmetric Gram;
    returns ``(t, rcond)``. Being symmetric, the Gram is ``gram.T`` in
    Fortran order, which ``dposv``, ``dlange`` (its 1-norm) and ``dpocon``
    (its rcond; Hager 1984, Higham 1988) take without a copy. A non-finite
    Gram or right-hand side raises before the solve. A 0x0 system (a tree
    has no cycles) has the empty solution.
    """
    if not len(rhs):
        return rhs, 1.0
    norm = dlange("1", gram.T)
    _check_solve(0, "", norm, rhs)
    factor, t, info = dposv(gram.T, rhs, overwrite_a=1)
    _check_solve(info, "cycle Gram matrix is singular", t)
    rcond = dpocon(factor, norm)[0]
    _warn_if_ill_conditioned(rcond)
    return t, rcond


def min_energy_flow_oracle(n: ResistiveNetwork, a: int, b: int) -> FlowVector:
    """Unit a-to-b flow minimizing dissipated power, without any voltage solve.

    Feasible flows are the tree-path flow plus the span of the fundamental
    circuit sign vectors; the power quadratic is minimized by solving its
    normal equations in cycle coordinates. The circuit matrix is ``[I_k |
    D]`` up to a column permutation, so with the tree-path flow ``base``
    (zero on the chords) the Gram is ``W W^T + diag(r_chords)`` with ``W =
    D sqrt(r_tree)``, the right-hand side ``-(D r_tree) base_tree``, and
    the flow ``base`` plus ``D^T t`` on the tree edges and ``t`` on the
    chords: the dense k x E circuit matrix is never formed. D, rows in
    chord order and columns in tree-edge order, is scattered from
    ``_circuit_walks`` on each call and kept on no graph; it is scaled to
    W in place and read back as D by its signs, as sqrt(r) > 0. numpy
    forms ``W @ W.T`` by SYRK and fills both triangles from one, so the
    Gram is bitwise symmetric, as ``_gram_solve`` requires.
    """
    g = n.graph
    flow = tree_walk_vector(g, a, b)
    chords, _, _, circuit, edge, sign = _circuit_walks(g)
    tree_ids = np.sort(g.tree[1][1:])
    block = np.zeros((chords.size, tree_ids.size))
    block[circuit, np.searchsorted(tree_ids, edge)] = sign
    r = n.resistances
    # Resistances near the double's limit overflow here; the inf or NaN
    # reaches the Gram's norm or the right-hand side, and _gram_solve
    # raises.
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = -(block @ (r[tree_ids] * flow[tree_ids]))
        block *= np.sqrt(r[tree_ids])
        gram = block @ block.T
        gram[np.diag_indices(len(chords))] += r[chords]
    np.sign(block, out=block)
    t, _ = _gram_solve(gram, rhs)
    flow[tree_ids] += block.T @ t
    flow[chords] = t
    return FlowVector(flow)


def dissipated_power(n: ResistiveNetwork, f: FlowVector) -> float:
    """Total power sum(I_e^2 R_e) dissipated by the flow."""
    _check_flow(n, f)
    return float(np.sum(f.currents ** 2 * n.resistances))


def kcl_residual(n: ResistiveNetwork, f: FlowVector, a: int, b: int) -> float:
    """Worst-vertex violation of current conservation for a unit a-to-b source."""
    _check_flow(n, f)
    g = n.graph
    g.check_vertices(a, b)
    source = np.zeros(g.n_vertices)
    source[a] += 1.0
    source[b] -= 1.0
    # Current leaving each vertex: out through its tails, in through its heads.
    net = (np.bincount(g.tails, f.currents, minlength=g.n_vertices)
           - np.bincount(g.heads, f.currents, minlength=g.n_vertices))
    return float(np.max(np.abs(net - source)))


def kvl_residual(n: ResistiveNetwork, f: FlowVector) -> float:
    """Worst fundamental-circuit violation of the voltage-drop sum law.

    The drops ``I_e R_e`` are integrated down the BFS tree, in its queue
    order, into potentials phi, 0 at vertex 0. The residual, ``max |drops -
    (phi[tails] - phi[heads])|``, is 0 on tree edges up to rounding and a
    chord's circuit drop sum: O(E) memory, no cycle matrix or tree paths.
    """
    _check_flow(n, f)
    g = n.graph
    drops = f.currents * n.resistances
    down = drops.tolist()
    phi = [0.0] * g.n_vertices
    parent, parent_edge, order = (part.tolist() for part in g.tree)
    for v in order[1:]:
        p, e = parent[v], parent_edge[v]
        # A tree edge points from tail to head, the lower vertex first.
        phi[v] = phi[p] - down[e] if v > p else phi[p] + down[e]
    phi = np.array(phi)
    return float(np.max(np.abs(drops - (phi[g.tails] - phi[g.heads])),
                        initial=0.0))
