"""Deterministic circuit theory for resistive multigraphs.

Node voltages come from a band Cholesky solve of the ground-reduced
Laplacian under a unit current source. The reduced matrix is assembled
directly in LAPACK upper band storage, without the ground vertex's row and
column and without ever forming the dense matrix; its half-bandwidth ``kd``
is the largest ``head - tail`` over the edges that keep both ends, so the
vertex order sets the cost, O(V kd^2), but not the value beyond rounding.
The Thomson flow follows by Ohm's law; an independent minimum-energy route
re-derives the same flow by unconstrained quadratic minimization in cycle
coordinates, so the two can cross-check each other. Both routes solve
through one kernel, ``_spd_solve``: LAPACK ``dpbsv`` on the band, then the
reciprocal 1-norm condition number that the caller derives, with a
``LinAlgWarning`` below machine epsilon.

A grounded Laplacian of a connected network is a nonsingular M-matrix: its
inverse is entrywise positive, so ``||A^-1||_1 = max(A^-1 1)`` exactly
(Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002), and
``node_voltages`` reads its condition number from a second right-hand side
in the same ``dpbsv`` call. The cycle Gram is not an M-matrix and keeps a
Hager-Higham estimate (LAPACK ``dlacn2``'s iteration, re-solving with
``dpbtrs``). Each graph keeps its last VOLTAGE_MEMO_SIZE voltage solves, so
a network solved again for the same pair costs a lookup. What depends on
the graph alone, the Laplacian's band plan for the last ground and the
cycle basis in chord/tree block form, is built once per graph, so each
solve does only the arithmetic that depends on the resistances.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgWarning
from scipy.linalg.lapack import dpbsv, dpbtrs

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


def _power_of_two_near(norm: float) -> float:
    """The power of two in ``(norm / 2, norm]``. A right-hand side scaled by
    it is scaled exactly, so A^-1 applied to it is of order
    ``||A^-1||_1 ||A||_1`` and finite unless A is numerically singular,
    even where the entries of A^-1 pass the double range."""
    return math.ldexp(0.5, math.frexp(norm)[1])


def _band_rcond(factor: np.ndarray, norm: float) -> float:
    """Reciprocal 1-norm condition number of the SPD matrix with 1-norm
    ``norm`` and upper band Cholesky factor ``factor`` (at least 2x2).

    ``||A^-1||_1`` is estimated as LAPACK ``dpocon`` does, by ``dlacn2``'s
    iteration (Hager, SIAM J. Sci. Stat. Comput. 5(2), 1984; Higham, ACM
    TOMS 14(4), 1988): at most five steps, then the alternating-sign test.
    A symmetric A needs no transposed solve, so every step re-solves with
    ``dpbtrs``. Every right-hand side is scaled by ``_power_of_two_near``
    the norm, which changes no bit of the estimate beyond that exact scale;
    only an estimate that overflows even so gives 0, as ``dpocon`` does.
    """
    size = factor.shape[1]
    scale = _power_of_two_near(norm)

    def solve(x):
        return dpbtrs(factor, scale * x)[0]

    def signs(x):
        return np.where(x >= 0.0, 1.0, -1.0)

    with np.errstate(over="ignore", invalid="ignore"):
        x = solve(np.full(size, 1.0 / size))
        estimate, sign = np.abs(x).sum(), signs(x)
        j = np.argmax(np.abs(solve(sign)))
        for _ in range(4):
            x = solve(np.eye(1, size, j)[0])
            previous, estimate = estimate, np.abs(x).sum()
            if np.array_equal(signs(x), sign) or estimate <= previous:
                break
            sign = signs(x)
            z = solve(sign)
            j_last, j = j, np.argmax(np.abs(z))
            if z[j_last] == abs(z[j]):
                break
        i = np.arange(size)
        alternating = np.where(i % 2, -1.0, 1.0) * (1.0 + i / (size - 1))
        estimate = max(estimate,
                       2.0 * np.abs(solve(alternating)).sum() / (3 * size))
    return float(1.0 / estimate / (norm / scale)) if estimate > 0.0 else 0.0


def _warn_if_ill_conditioned(rcond: float):
    if not rcond >= np.finfo(float).eps:
        warnings.warn(f"ill-conditioned matrix (rcond={rcond:.6g}): "
                      "result may not be accurate", LinAlgWarning,
                      stacklevel=3)


def _spd_solve(band: np.ndarray, rhs: np.ndarray, message: str,
               condition) -> tuple:
    """Solve ``A @ x = rhs`` for the symmetric positive definite A whose
    LAPACK upper band storage is ``band``, shape ``(kd + 1, size)``; returns
    ``(x, rcond)``.

    LAPACK ``dpbsv`` factors the band. A matrix that is not positive
    definite raises SingularSystemError with ``message``, and a solution
    that is not finite raises it saying that the resistances exceed the
    double range. ``condition(factor, x)`` gives A's reciprocal 1-norm
    condition number from the upper band Cholesky factor and the solution:
    each caller knows its matrix and supplies its own. Below machine
    epsilon a ``LinAlgWarning`` says the result may be inaccurate. A 1x1
    system is one division, with rcond 1, and a 0x0 system has the empty
    solution.
    """
    size = band.shape[1]
    if size == 1:
        if not band[-1, 0] > 0.0:
            raise SingularSystemError(message)
        with np.errstate(over="ignore"):
            x = rhs / band[-1, 0]
    else:
        factor, x, info = dpbsv(band, rhs)
        if info > 0:
            raise SingularSystemError(message)
    if not np.isfinite(x).all():
        raise SingularSystemError(
            "solution is not finite: the network's resistances exceed the "
            "double range")
    rcond = float(condition(factor, x)) if size > 1 else 1.0
    _warn_if_ill_conditioned(rcond)
    return x, rcond


def _full_band(matrix: np.ndarray) -> np.ndarray:
    """Upper band storage, ``kd = size - 1``, of the dense symmetric
    ``matrix``; its upper triangle is the one used."""
    size = len(matrix)
    if size == 0:
        return np.zeros((1, 0))
    kd = size - 1
    flat = np.zeros(size * size)
    # Column-major, slot (kd + i - j, j) lies at offset kd * (j + 1) + i:
    # the first kd entries of each column go at stride kd from offset kd.
    # Entries below the diagonal land in slots that hold no entry; the last
    # diagonal entry is the one left over.
    flat[kd:-1].reshape(size, kd)[:] = matrix[:kd].T
    flat[-1] = matrix[-1, -1]
    return flat.reshape(size, size).T


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
    y gives ``||A^-1||_1 = max(y) / c`` exactly, with no iteration.
    ``||A||_1`` is ``max_j(2 d_j - g_j)``, the diagonal d less each
    vertex's conductance g to ground: one ``np.bincount`` over the ground's
    edges, which the assembly's band plan lists.
    """
    g = n.graph
    reduced = laplacian(n, ground=b)
    plan = _band_plan(g, b)
    to_ground = np.bincount(plan.ground_ends,
                            1.0 / n.resistances[plan.ground_edges],
                            minlength=plan.size)
    norm = float(np.max(2.0 * reduced[-1] - to_ground))
    scale = _power_of_two_near(norm)
    rhs = np.zeros((2, plan.size))
    rhs[0, a - (a > b)] = 1.0
    rhs[1] = scale
    x, rcond = _spd_solve(
        reduced, rhs.T,
        "reduced Laplacian is singular; is the network connected?",
        lambda factor, x: 1.0 / np.max(x[:, 1]) / (norm / scale))
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
    is never formed. The cycle Gram has its own Cholesky solve and
    condition estimate, shared with no other route.
    """
    g = n.graph
    flow = tree_walk_vector(g, a, b)
    tree_ids, chords, block = g.cycle_blocks
    r = n.resistances
    weighted = block * r[tree_ids]
    gram = weighted @ block.T
    diagonal = np.arange(len(chords))
    gram[diagonal, diagonal] += r[chords]
    norm = float(np.max(np.abs(gram).sum(axis=0), initial=0.0))
    t, _ = _spd_solve(_full_band(gram), -(weighted @ flow[tree_ids]),
                      "cycle Gram matrix is singular",
                      lambda factor, _: _band_rcond(factor, norm))
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
