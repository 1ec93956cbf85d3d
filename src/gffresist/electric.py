"""Deterministic circuit theory for resistive multigraphs.

Node voltages come from a band Cholesky solve of the ground-reduced
Laplacian under a unit current source, assembled in LAPACK upper band
storage; its half-bandwidth ``kd`` is the largest ``head - tail`` over the
edges that keep both ends, so the vertex order sets the cost, O(V kd^2),
not the value. ``stacked_voltages`` solves a check's networks, one
resistance row each, one band at a time (``_solved_row``).
The Thomson flow follows by Ohm's law; an independent minimum-energy route
re-derives it from the cycle Gram, its circuits in apex order and
assembled straight into band storage a panel of PANEL columns at a time,
one small GEMM each, then solved by ``dpbtrf`` and ``dpbtrs``: no dense
Gram or circuit block, and no arithmetic shared with the Laplacian's
``dpbsv``. Both raise the same errors (``_check_solve``)
and warn (``LinAlgWarning``) when the reciprocal 1-norm condition number
falls below machine epsilon: exact for the Laplacian (an M-matrix, its
1-norm read from its own band's row sums), and for the Gram the estimate
``dpocon`` makes (Hager and Higham's), run on ``dpbtrs`` solves. Each
graph keeps its last VOLTAGE_MEMO_SIZE voltage solves and the band plan
for the last ground; the oracle walks the fundamental circuits on each
call and keeps nothing.
"""

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgWarning
from scipy.linalg.blas import dsbmv
from scipy.linalg.lapack import dpbsv, dpbtrf, dpbtrs

from .errors import (
    DimensionMismatchError,
    SingularSystemError,
    ValidationError,
)
from .graph import (
    PANEL,
    Multigraph,
    _apex_columns,
    _circuit_walks,
    tree_walk_vector,
)

MIN_RESISTANCE = 1e-12
EPS = np.finfo(float).eps
# Solves stacked_voltages keeps per graph: one suite instance or
# grid-electric op solves at most 16 distinct networks.
VOLTAGE_MEMO_SIZE = 16


@dataclass(frozen=True)
class ResistiveNetwork:
    """Multigraph plus a resistance per edge (ohms), finite and at least
    MIN_RESISTANCE so that every conductance is finite: the one resistance
    rule, which stacked_voltages applies to each row it solves by building
    the row's network."""

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
    row ``kd`` is the diagonal; the slots with ``i < 0`` are 0. ``ground``
    (a vertex, checked) leaves its row and column out. ``kd`` is the
    largest ``head - tail`` over the edges that keep both ends. The
    graph-only indexing is planned once per ground (``_band_plan``): an
    assembly is a gather of the conductances, a product with the signs and
    one ``np.bincount``, which sums the entries in edge order, as an edge
    loop would.
    """
    g = n.graph
    if ground is not None:
        g.check_vertices(ground)
    plan = _band_plan(g, ground)
    values = (1.0 / n.resistances)[plan.edge_ids] * plan.signs
    flat = np.bincount(plan.slots, values, minlength=(plan.kd + 1) * plan.size)
    return flat.reshape(plan.size, plan.kd + 1).T


def stacked_voltages(graph: Multigraph, resistances, a: int,
                     b: int) -> np.ndarray:
    """Vertex potentials for a unit current injected at a and extracted at
    grounded b (0 there), one row per row of ``resistances``: bit for bit
    the solve of that network on ``graph`` alone.

    ``voltage_memo`` keeps the last VOLTAGE_MEMO_SIZE rows solved with their
    rcond, keyed by bytes and pair: a row found there or repeated is not
    solved again, and warns again if its solve did. Every other row is
    checked, by building its ResistiveNetwork, before the first is solved
    by ``_solved_row``. An error is never kept. Threads sharing a graph
    must not call this at once: the memo takes no lock.
    """
    graph.check_vertices(a, b)
    r = np.asarray(resistances, dtype=float)
    if r.ndim != 2 or r.shape[1] != graph.n_edges:
        raise DimensionMismatchError(
            f"expected rows of {graph.n_edges} resistances, got {r.shape}")
    memo = graph.voltage_memo
    keys = [(row.tobytes(), a, b) for row in r]
    found = {key: memo.get(key) for key in keys}
    todo = {}  # each missing row's network once, where it first appears
    for i, key in enumerate(keys):
        if found[key] is None and key not in todo:
            try:
                todo[key] = ResistiveNetwork(graph, r[i])
            except ValidationError as exc:
                raise ValidationError(f"rows[{i}]: {exc}") from None
    for key, n in todo.items():
        found[key] = _solved_row(n, a, b)
    for key, entry in found.items():
        memo.pop(key, None)
        if len(memo) >= VOLTAGE_MEMO_SIZE:
            del memo[next(iter(memo))]
        memo[key] = entry
    for key in keys:
        _warn_if_ill_conditioned(found[key][1])
    return np.array([found[key][0] for key in keys]).reshape(
        len(keys), graph.n_vertices)


def _solved_row(n: ResistiveNetwork, a: int, b: int) -> tuple:
    """(potentials, rcond) of n by one ``dpbsv`` call on its reduced
    Laplacian A, 1x1 included. Its second right-hand side, ones times the
    power of two c in ``(||A||_1 / 2, ||A||_1]``, gives the M-matrix's exact
    rcond: ``||A^-1||_1 = max(y) / c`` (A^-1 >= 0). Off-diagonals are <= 0,
    so ``||A||_1 = max_j(2 A_jj - (A 1)_j)``, ``A 1`` one ``dsbmv``."""
    band = laplacian(n, ground=b)
    kd, size = band.shape[0] - 1, band.shape[1]
    norm = float((2.0 * band[kd] - dsbmv(kd, 1.0, band, np.ones(size))).max())
    scale = math.ldexp(0.5, math.frexp(norm)[1])
    rhs = np.zeros((size, 2), order="F")
    rhs[a - (a > b), 0] = 1.0
    rhs[:, 1] = scale
    info = dpbsv(band, rhs, overwrite_ab=1, overwrite_b=1)[2]
    _check_solve(info, "reduced Laplacian is singular; is the network "
                 "connected?", rhs)
    potentials = np.zeros(size + 1)
    potentials[:b], potentials[b + 1:] = rhs[:b, 0], rhs[b:, 0]
    return potentials, 1.0 / float(rhs[:, 1].max()) / (norm / scale)


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


def _inverse_norm_estimate(solve, size: int) -> float:
    """A lower estimate of ``||A^-1||_1`` for a symmetric A, given ``solve(x)
    = A^-1 x``: Hager's method (SIAM J. Sci. Stat. Comput. 5(2), 1984) as
    Higham refined it (ACM TOMS 14(4), 1988), step for step LAPACK's
    ``dlacn2``, which ``dpocon`` runs: at most five solves by sign vectors,
    then the alternating vector's estimate when it is larger."""
    x = solve(np.full(size, 1.0 / size))
    if size == 1:
        return abs(x[0])
    estimate = np.abs(x).sum()
    signs = np.where(x >= 0, 1.0, -1.0)
    j = np.argmax(np.abs(solve(signs)))
    for _ in range(4):
        x = solve(np.eye(1, size, j)[0])
        old, estimate = estimate, np.abs(x).sum()
        new = np.where(x >= 0, 1.0, -1.0)
        if np.array_equal(new, signs) or estimate <= old:
            break
        signs = new
        x = solve(signs)
        last, j = j, np.argmax(np.abs(x))
        if x[last] == abs(x[j]):
            break
    alternating = np.resize([1.0, -1.0], size) * (
        1.0 + np.arange(size) / (size - 1))
    return max(estimate,
               2.0 * (np.abs(solve(alternating)).sum() / (3 * size)))


def _band_solve(band: np.ndarray, rhs: np.ndarray) -> tuple:
    """Solve ``A t = rhs`` for the symmetric positive definite A whose
    upper band storage is ``band``, a Fortran-ordered array that ``dpbtrf``
    factors in place; returns ``(t, rcond)``. ``dpbtrs`` solves, and the
    rcond is ``1 / (||A||_1 est)``: ``||A||_1`` is the largest row sum of
    ``|A|``, one ``dsbmv``, and est ``_inverse_norm_estimate``'s on
    ``dpbtrs`` solves with the factor, the estimate ``dpocon`` makes
    (``dpbcon`` is not exposed). A non-finite band or right-hand side
    raises before the factorization. A 0x0 system (a tree has no cycles)
    has the empty solution.
    """
    if not len(rhs):
        return rhs, 1.0
    size, kd = len(rhs), band.shape[0] - 1
    norm = dsbmv(kd, 1.0, np.abs(band), np.ones(size)).max()
    _check_solve(0, "", norm, rhs)
    factor, info = dpbtrf(band, overwrite_ab=1)
    _check_solve(info, "cycle Gram matrix is singular")

    def solve(x):
        return dpbtrs(factor, x[:, None])[0][:, 0]
    t = solve(rhs)
    _check_solve(0, "", t)
    rcond = 1.0 / _inverse_norm_estimate(solve, size) / norm
    _warn_if_ill_conditioned(rcond)
    return t, rcond


def _cycle_gram_band(at: np.ndarray, edge: np.ndarray, value: np.ndarray,
                     diagonal: np.ndarray) -> np.ndarray:
    """The cycle Gram ``C diag(r) C^T`` in upper band storage, in apex
    order: circuit column ``at`` holds ``value`` = sign sqrt(r) on tree
    ``edge``, and ``diagonal`` adds each chord's r exactly. ``kd`` is the
    widest apex-order spread of the circuits through one edge. Per panel
    of PANEL columns [j0, j1), the edges whose last circuit is at or past
    j0, in edge order, give the rows of one dense block over the columns
    [j0 - kd, j0 + PANEL), and the GEMM of its transpose with its panel
    columns holds the panel's band columns on diagonals: one O(E) array
    numbers every panel's rows, with the block as scratch, never a k x k
    or k x (V - 1) array."""
    k = diagonal.size
    order = np.argsort(at, kind="stable")
    at, edge, value = at[order], edge[order], value[order]
    last = np.zeros(edge.max(initial=0) + 1, dtype=int)
    np.maximum.at(last, edge, at)
    kd = int(np.max(last[edge] - at, initial=0))
    band = np.zeros((kd + 1, k), order="F")
    starts = np.arange(0, k, PANEL)
    bounds = zip(starts.tolist(), np.searchsorted(at, starts - kd).tolist(),
                 np.searchsorted(at, starts + PANEL).tolist())
    number = np.zeros_like(last)
    for j0, i0, i1 in bounds:
        keep = last[edge[i0:i1]] >= j0
        e, c, v = (part[i0:i1][keep] for part in (edge, at, value))
        # Mark the panel's edges; the running count numbers them from 1.
        number[:] = 0
        number[e] = 1
        np.cumsum(number, out=number)
        block = np.zeros((number[-1], kd + PANEL))
        block[number[e] - 1, c - (j0 - kd)] = v
        width = min(PANEL, k - j0)
        product = block.T @ block[:, kd:kd + width]
        # Band column j0 + c holds product[c:c + kd + 1, c].
        step = product.strides[0]
        band[:, j0:j0 + width] = np.lib.stride_tricks.as_strided(
            product, (kd + 1, width), (step, step + product.strides[1]))
    band[kd] += diagonal
    return band


def min_energy_flow_oracle(n: ResistiveNetwork, a: int, b: int) -> FlowVector:
    """Unit a-to-b flow minimizing dissipated power, without any voltage solve.

    Feasible flows are the tree-path flow plus the span of the fundamental
    circuit sign vectors; the power quadratic is minimized by solving its
    normal equations in cycle coordinates. With the tree-path flow
    ``base`` (zero on the chords), the circuits from ``_circuit_walks`` in
    cycle_plan's apex order and C their k x E matrix, the Gram ``C diag(r)
    C^T`` is assembled straight into band storage by ``_cycle_gram_band``
    and solved by ``_band_solve``; the right-hand side ``-C (r base)`` and
    the flow ``base + C^T t`` are one ``np.bincount`` each over the
    circuit entries. Neither C nor a dense Gram is ever formed, and
    nothing is kept on the graph.
    """
    g = n.graph
    flow = tree_walk_vector(g, a, b)
    chords, apex, later, circuit, edge, sign = _circuit_walks(g)
    column = _apex_columns(apex, later)
    at = column[circuit]
    r = n.resistances
    # Resistances near the double's limit overflow here; the inf or NaN
    # reaches the Gram's norm or the right-hand side, and _band_solve
    # raises.
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = -np.bincount(at, sign * r[edge] * flow[edge],
                           minlength=chords.size)
        band = _cycle_gram_band(at, edge, sign * np.sqrt(r[edge]),
                                r[chords][np.argsort(column)])
    t, _ = _band_solve(band, rhs)
    flow += np.bincount(edge, sign * t[at], minlength=g.n_edges)
    flow[chords] = t[column]
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
