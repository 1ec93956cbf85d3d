"""Deterministic circuit theory for resistive multigraphs.

Node voltages come from a band Cholesky solve of the ground-reduced
Laplacian under a unit current source. The reduced matrix is assembled
directly in LAPACK upper band storage, without the ground vertex's row and
column and without ever forming the dense matrix; its half-bandwidth ``kd``
is the largest ``head - tail`` over the edges that keep both ends, so the
vertex order sets the cost, O(V kd^2), but not the value beyond rounding.
The Thomson flow follows by Ohm's law; an independent minimum-energy route
re-derives the same flow by unconstrained quadratic minimization in cycle
coordinates, so the two can cross-check each other. Each route has its own
Cholesky solve and shares no arithmetic with the other: LAPACK ``dpbsv`` on
the Laplacian's band, ``dposv`` on the dense cycle Gram. Both raise the
same errors (``_check_solve``) and give a ``LinAlgWarning`` when the
reciprocal 1-norm condition number falls below machine epsilon.

A grounded Laplacian of a connected network is a nonsingular M-matrix: its
inverse is entrywise positive, so ``||A^-1||_1 = max(A^-1 1)`` exactly
(Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002), and
``node_voltages`` reads its condition number from a second right-hand side
in the same ``dpbsv`` call. The cycle Gram is not an M-matrix; LAPACK
``dpocon`` estimates its condition number from the ``dposv`` factor. Each
graph keeps its last VOLTAGE_MEMO_SIZE voltage solves, so a network solved
again for the same pair costs a lookup. What depends on
the graph alone, the Laplacian's band plan for the last ground and the
cycle basis in chord/tree block form, is built once per graph, so each
solve does only the arithmetic that depends on the resistances.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgWarning
from scipy.linalg.lapack import dlange, dpbsv, dpocon, dposv

from .errors import (
    DimensionMismatchError,
    SingularSystemError,
    ValidationError,
)
from .graph import Multigraph, tree_walk_vector

MIN_RESISTANCE = 1e-12
# Solves node_voltages keeps per graph: one suite instance or grid-electric
# op solves at most 16 distinct networks.
VOLTAGE_MEMO_SIZE = 16


@dataclass(frozen=True)
class ResistiveNetwork:
    """Multigraph plus a resistance per edge (ohms), finite and at least
    MIN_RESISTANCE so that every conductance is finite; the one place
    resistances are checked."""

    graph: Multigraph
    resistances: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.resistances, dtype=float).copy()
        if r.shape != (self.graph.n_edges,):
            raise DimensionMismatchError(
                f"expected {self.graph.n_edges} resistances, got shape {r.shape}")
        valid = (r >= MIN_RESISTANCE) & (r < np.inf)  # NaN fails both
        if not valid.all():
            e = int(np.argmin(valid))
            raise ValidationError(
                f"edges[{e}]: resistance must be finite and >= "
                f"{MIN_RESISTANCE} ohms, got {float(r[e])}")
        r.setflags(write=False)
        object.__setattr__(self, "resistances", r)


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
    if not rcond >= np.finfo(float).eps:
        warnings.warn(f"ill-conditioned matrix (rcond={rcond:.6g}): "
                      "result may not be accurate", LinAlgWarning,
                      stacklevel=3)


def _check_finite(*values):
    """Raise SingularSystemError unless every entry of ``values`` is
    finite: a system or solution past the double range."""
    if not all(np.isfinite(v).all() for v in values):
        raise SingularSystemError(
            "solution is not finite: the network's resistances exceed the "
            "double range")


def _check_solve(info: int, x: np.ndarray, message: str):
    """Raise SingularSystemError after a LAPACK Cholesky solve: with
    ``message`` when ``info`` says the matrix is not positive definite, and
    as ``_check_finite`` does when the solution ``x`` is not finite."""
    if info > 0:
        raise SingularSystemError(message)
    _check_finite(x)


@dataclass(frozen=True)
class _BandPlan:
    """The graph-only part of ``laplacian(n, ground)``: per band entry kept,
    in edge order, its ``np.bincount`` slot, its edge and whether it is an
    off-diagonal (negated) entry; the band's ``kd`` and ``size``; and for
    the ground norm, the ground's edges and the reduced index of each one's
    other end (both empty without a ground)."""

    slots: np.ndarray
    edge_ids: np.ndarray
    negated: np.ndarray
    kd: int
    size: int
    ground_edges: np.ndarray
    ground_ends: np.ndarray


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
    negated = np.tile([True, False, False], g.n_edges)
    size = g.n_vertices
    ground_edges = ground_ends = np.zeros(0, dtype=int)
    if ground is not None:
        kept = (rows != ground) & (cols != ground)
        rows, cols = rows[kept], cols[kept]
        edge_ids, negated = edge_ids[kept], negated[kept]
        rows = rows - (rows > ground)
        cols = cols - (cols > ground)
        size -= 1
        # Each edge at the ground joins it to its other end, t + h - ground.
        at_ground = (t == ground) | (h == ground)
        ground_edges = np.flatnonzero(at_ground)
        ground_ends = (t + h - ground)[at_ground]
        ground_ends = ground_ends - (ground_ends > ground)
    kd = int(np.max(cols - rows, initial=0))
    # Column-major, slot (kd + i - j, j) lies at offset kd * (j + 1) + i.
    plan = _BandPlan(kd * (cols + 1) + rows, edge_ids, negated, kd, size,
                     ground_edges, ground_ends)
    g.band_plans.clear()
    g.band_plans[ground] = plan
    return plan


def laplacian(n: ResistiveNetwork, ground=None) -> np.ndarray:
    """Weighted Laplacian L with edge conductances 1/R_e, in LAPACK upper
    band storage: a Fortran-ordered array of shape ``(kd + 1, size)`` whose
    entry ``(kd + i - j, j)`` holds ``L[i, j]`` for ``j - kd <= i <= j``, so
    row ``kd`` is the diagonal; the slots with ``i < 0`` are 0. With
    ``ground`` (a vertex index, checked as ``Multigraph.check_vertices``
    does) the ground vertex's row and column are left out, the other
    vertices keeping their order. ``kd`` is the largest ``head - tail`` over
    the edges that keep both ends (0 when none do); no vertex is reordered.

    The indexing depends on the graph and the ground only. It is planned
    once (``_band_plan``) and kept in the graph's ``band_plans``, so an
    assembly is one gather of the conductances, one negation and one
    ``np.bincount`` pass, which sums the entries, parallel edges and
    diagonal terms in edge order, as an edge loop would.
    """
    g = n.graph
    if ground is not None:
        g.check_vertices(ground)
    plan = _band_plan(g, ground)
    values = (1.0 / n.resistances)[plan.edge_ids]
    np.negative(values, out=values, where=plan.negated)
    flat = np.bincount(plan.slots, values,
                       minlength=(plan.kd + 1) * plan.size)
    return flat.reshape(plan.size, plan.kd + 1).T


def _grounded_potentials(n: ResistiveNetwork, a: int, b: int) -> tuple:
    """Potentials of every vertex under a unit current injected at a and
    extracted at grounded b (exactly 0 there), and the reciprocal 1-norm
    condition number of the reduced Laplacian A, both from one ``dpbsv``
    call on the public ``laplacian(n, ground=b)``.

    The second right-hand side is the all-ones vector times the power of
    two c in ``(||A||_1 / 2, ||A||_1]``: A is an M-matrix, so its solution
    y gives ``||A^-1||_1 = max(y) / c`` exactly, with no iteration. The
    scale c is exact, and it keeps y finite where the entries of A^-1 pass
    the double range. ``||A||_1`` is ``max_j(2 d_j - g_j)``, the diagonal d
    less each vertex's conductance g to ground: one ``np.bincount`` over
    the ground's edges, which the assembly's band plan lists. A positive
    1x1 system is one division, with rcond 1.
    """
    g = n.graph
    reduced = laplacian(n, ground=b)
    plan = _band_plan(g, b)
    to_ground = np.bincount(plan.ground_ends,
                            1.0 / n.resistances[plan.ground_edges],
                            minlength=plan.size)
    norm = float(np.max(2.0 * reduced[-1] - to_ground))
    scale = math.ldexp(0.5, math.frexp(norm)[1])
    rhs = np.zeros((2, plan.size))
    rhs[0, a - (a > b)] = 1.0
    rhs[1] = scale
    if plan.size == 1 and reduced[-1, 0] > 0.0:
        with np.errstate(over="ignore"):
            x, info = rhs.T / reduced[-1, 0], 0
    else:
        _, x, info = dpbsv(reduced, rhs.T)
    _check_solve(info, x,
                 "reduced Laplacian is singular; is the network connected?")
    rcond = 1.0 if plan.size == 1 else float(
        1.0 / np.max(x[:, 1]) / (norm / scale))
    _warn_if_ill_conditioned(rcond)
    potentials = np.zeros(g.n_vertices)
    potentials[:b] = x[:b, 0]
    potentials[b + 1:] = x[b:, 0]
    return potentials, rcond


def node_voltages(n: ResistiveNetwork, a: int, b: int) -> VoltageVector:
    """Vertex potentials for a unit current injected at a, extracted at
    grounded b.

    The graph's ``voltage_memo`` keeps the last VOLTAGE_MEMO_SIZE results,
    keyed by the resistances' bytes and the pair: a repeated call returns
    the same potentials without a solve, and warns again when the solve
    warned. An error is raised anew each time, never kept. The memo takes
    no lock, so threads that share a graph must not call this at once.
    """
    n.graph.check_vertices(a, b)
    memo = n.graph.voltage_memo
    key = (n.resistances.tobytes(), a, b)
    entry = memo.pop(key, None)
    if entry is None:
        potentials, rcond = _grounded_potentials(n, a, b)
        entry = VoltageVector(potentials, ground=b), rcond
        if len(memo) >= VOLTAGE_MEMO_SIZE:
            del memo[next(iter(memo))]
    else:
        _warn_if_ill_conditioned(entry[1])
    memo[key] = entry
    return entry[0]


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
    """Solve ``gram @ t = rhs`` for the dense symmetric positive definite
    cycle Gram; returns ``(t, rcond)``.

    LAPACK ``dposv`` factors the Gram's upper triangle and solves. ``dlange``
    reads its 1-norm and ``dpocon`` estimates its reciprocal 1-norm
    condition number from the factor (Hager 1984; Higham 1988). A Gram or
    right-hand side that is not finite raises before the solve; otherwise
    it raises and warns as the Laplacian's solve does. A 0x0 system (a
    tree has no cycles) has the empty solution.
    """
    if not len(rhs):
        return rhs, 1.0
    norm = dlange("1", gram)
    _check_finite(norm, rhs)
    factor, t, info = dposv(gram, rhs)
    _check_solve(info, t, "cycle Gram matrix is singular")
    rcond = dpocon(factor, norm)[0]
    _warn_if_ill_conditioned(rcond)
    return t, rcond


def min_energy_flow_oracle(n: ResistiveNetwork, a: int, b: int) -> FlowVector:
    """Unit a-to-b flow minimizing dissipated power, without any voltage solve.

    Feasible flows are the tree-path flow plus the span of the fundamental
    circuit sign vectors; the power quadratic is minimized by solving its
    normal equations in cycle coordinates. The circuit matrix is
    ``[I_k | D]`` up to a column permutation (``Multigraph.cycle_blocks``),
    so with the tree-path flow ``base`` (zero on the chords) the Gram is
    ``(D r_tree) D^T + diag(r_chords)``, the right-hand side is
    ``-(D r_tree) base_tree``, and the flow is ``base`` plus ``D^T t`` on
    the tree edges and ``t`` on the chords: the dense k x E circuit matrix
    is never formed. ``_gram_solve`` solves the Gram; at most one LAPACK
    copy of it is held beside it.
    """
    g = n.graph
    flow = tree_walk_vector(g, a, b)
    tree_ids, chords, block = g.cycle_blocks
    r = n.resistances
    # Resistances near the double's limit overflow here; the inf or NaN
    # reaches the Gram's norm or the right-hand side, and _gram_solve
    # raises.
    with np.errstate(over="ignore", invalid="ignore"):
        gram = (block * r[tree_ids]) @ block.T
        gram[np.diag_indices(len(chords))] += r[chords]
        rhs = -(block @ (r[tree_ids] * flow[tree_ids]))
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

    The drops ``I_e R_e`` are integrated down the BFS tree (``tree``'s
    parent map lists every parent before its children) into potentials phi,
    0 at vertex 0. The residual is ``max |drops - (phi[tails] -
    phi[heads])|``: 0 on tree edges up to rounding, and on a chord its
    fundamental circuit's drop sum. It takes O(E) memory: no cycle matrix
    and no tree paths.
    """
    _check_flow(n, f)
    g = n.graph
    drops = f.currents * n.resistances
    down = drops.tolist()
    phi = [0.0] * g.n_vertices
    for v, link in g.tree[0].items():
        if link is not None:
            p, e = link
            # A tree edge points from tail to head, the lower vertex first.
            phi[v] = phi[p] - down[e] if v > p else phi[p] + down[e]
    phi = np.array(phi)
    return float(np.max(np.abs(drops - (phi[g.tails] - phi[g.heads])),
                        initial=0.0))
