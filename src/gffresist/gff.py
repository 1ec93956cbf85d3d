"""Gaussian free field of a resistive network.

The field lives on edges: the independent edge Gaussian with variances R_e,
conditioned to vanish on every circuit functional. The fundamental circuits
span every circuit, so the field is conditioned on them alone and kept as
that conditioning's factor, never as an E x E covariance. The a-to-b
potential difference is the tree walk functional, and its variance
reproduces the effective resistance.
"""

from dataclasses import dataclass

import numpy as np

from .electric import ResistiveNetwork
from .gaussian import (
    GaussianVector,
    condition_diagonal,
    conditioned_variance,
    functional_root,
)
from .graph import cycle_plan, tree_walk_vector


@dataclass(frozen=True)
class FreeField:
    """Conditioned edge field of a network; ``factor`` is the (s, blocks) of
    gaussian.condition_diagonal on the graph's fundamental circuits, laid
    out by graph.cycle_plan: s the edge standard deviations, blocks the
    Householder reflectors Q, one Block per panel of the row-merge QR, to
    which gaussian.condition_block_diagonal can append another field's."""

    network: ResistiveNetwork
    factor: tuple


def build_free_field(n: ResistiveNetwork) -> FreeField:
    """Condition the independent edge Gaussian on the fundamental cycle basis."""
    return FreeField(n, condition_diagonal(n.resistances, cycle_plan(n.graph)))


def potential_difference_variance(f: FreeField, a: int, b: int) -> float:
    """Variance of the a-to-b potential difference; equals the effective resistance."""
    return conditioned_variance(f.factor,
                                tree_walk_vector(f.network.graph, a, b))


def eta_field(f: FreeField, v_star: int = 0) -> GaussianVector:
    """Vertex potential field, grounded at the reference vertex ``v_star``.

    Coordinate v applies the tree-path functional from v_star to v; the
    v_star coordinate is identically zero. The V x E tree walks are built
    for the call and not kept: the root's walk to each vertex in one pass
    down the BFS order, its parent's plus one +-1 entry, less the root's
    walk to v_star, as tree_walk_vector(g, v_star, v) computes them.
    """
    g = f.network.graph
    g.check_vertices(v_star)
    parent, parent_edge, order = g.tree
    walks = np.zeros((g.n_vertices, g.n_edges))
    for v in order[1:]:
        walks[v] = walks[parent[v]]
        walks[v, parent_edge[v]] = 1.0 if v > parent[v] else -1.0
    walks -= walks[v_star].copy()
    b = functional_root(f.factor, walks)
    return GaussianVector(b @ b.T)

