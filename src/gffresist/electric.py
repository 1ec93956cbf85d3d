"""Deterministic circuit theory for resistive multigraphs.

Node voltages come from a dense Cholesky solve of the ground-reduced
Laplacian under a unit current source; the reduced matrix is assembled
directly, without the ground vertex's row and column. The Thomson flow
follows by Ohm's law; an independent minimum-energy route re-derives the
same flow by unconstrained quadratic minimization in cycle coordinates, so
the two can cross-check each other. Both routes solve through one kernel,
``_spd_solve``: LAPACK ``dposv`` on the upper triangle, then ``dpocon`` for
the reciprocal condition number, with a ``LinAlgWarning`` below machine
epsilon.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgWarning
from scipy.linalg.lapack import dpocon, dposv

from .errors import (
    DimensionMismatchError,
    SingularSystemError,
    ValidationError,
)
from .graph import Multigraph, tree_walk_vector

MIN_RESISTANCE = 1e-12


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


def _spd_solve(matrix: np.ndarray, rhs: np.ndarray, message: str) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` for a symmetric positive definite matrix.

    LAPACK ``dposv`` factors the upper triangle, so only that triangle is
    read. A matrix that is not positive definite raises SingularSystemError
    with ``message``. When the ``dpocon`` estimate of the reciprocal
    1-norm condition number is below machine epsilon, a ``LinAlgWarning``
    says the result may be inaccurate. A 1x1 system is one division and a
    0x0 system has the empty solution.
    """
    if matrix.shape == (1, 1):
        if not matrix[0, 0] > 0.0:
            raise SingularSystemError(message)
        return rhs / matrix[0, 0]
    if matrix.size == 0:
        return np.zeros(0)
    factor, x, info = dposv(matrix, rhs)
    if info > 0:
        raise SingularSystemError(message)
    rcond, _ = dpocon(factor, np.linalg.norm(matrix, 1))
    if not rcond >= np.finfo(float).eps:
        warnings.warn(f"ill-conditioned matrix (rcond={rcond:.6g}): "
                      "result may not be accurate", LinAlgWarning, stacklevel=3)
    return x.ravel()


def laplacian(n: ResistiveNetwork, ground=None) -> np.ndarray:
    """Weighted Laplacian with edge conductances 1/R_e; without the ground
    vertex's row and column when ``ground`` is given, the other vertices
    keeping their order."""
    g = n.graph
    t, h, c = g.tails, g.heads, 1.0 / n.resistances
    # Per edge, in edge order: (t,h), (h,t) lose c and (t,t), (h,h) gain it.
    # np.add.at sums repeated entries in this order, as an edge loop would.
    rows = np.column_stack([t, h, t, h]).ravel()
    cols = np.column_stack([h, t, t, h]).ravel()
    values = np.column_stack([-c, -c, c, c]).ravel()
    size = g.n_vertices
    if ground is not None:
        kept = (rows != ground) & (cols != ground)
        rows, cols, values = rows[kept], cols[kept], values[kept]
        rows = rows - (rows > ground)
        cols = cols - (cols > ground)
        size -= 1
    lap = np.zeros((size, size))
    np.add.at(lap, (rows, cols), values)
    return lap


def node_voltages(n: ResistiveNetwork, a: int, b: int) -> VoltageVector:
    """Vertex potentials for a unit current injected at a, extracted at grounded b."""
    n.graph.check_vertices(a, b)
    reduced = laplacian(n, ground=b)
    rhs = np.zeros(len(reduced))
    rhs[a - (a > b)] = 1.0
    sol = _spd_solve(reduced, rhs,
                     "reduced Laplacian is singular; is the network connected?")
    return VoltageVector(np.insert(sol, b, 0.0), ground=b)


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
    normal equations in cycle coordinates.
    """
    base = tree_walk_vector(n.graph, a, b)
    cycles = n.graph.cycle_matrix
    weighted = cycles * n.resistances
    t = _spd_solve(weighted @ cycles.T, -weighted @ base,
                   "cycle Gram matrix is singular")
    return FlowVector(base + cycles.T @ t)


def dissipated_power(n: ResistiveNetwork, f: FlowVector) -> float:
    """Total power sum(I_e^2 R_e) dissipated by the flow."""
    _check_flow(n, f)
    return float(np.sum(f.currents ** 2 * n.resistances))


def kcl_residual(n: ResistiveNetwork, f: FlowVector, a: int, b: int) -> float:
    """Worst-vertex violation of current conservation for a unit a-to-b source."""
    _check_flow(n, f)
    n.graph.check_vertices(a, b)
    source = np.zeros(n.graph.n_vertices)
    source[a] += 1.0
    source[b] -= 1.0
    net = n.graph.incidence_matrix() @ f.currents
    return float(np.max(np.abs(net - source)))


def kvl_residual(n: ResistiveNetwork, f: FlowVector) -> float:
    """Worst fundamental-circuit violation of the voltage-drop sum law."""
    _check_flow(n, f)
    drops = n.graph.cycle_matrix @ (f.currents * n.resistances)
    return float(np.max(np.abs(drops), initial=0.0))
