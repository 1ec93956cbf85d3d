"""Gaussian free field of a resistive network.

The field lives on edges: the independent edge Gaussian with variances R_e,
conditioned to vanish on every circuit functional. Vertex potentials are
derived through tree-path functionals, and the variance of any a-to-b
potential difference reproduces the effective resistance.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .electric import ResistiveNetwork
from .gaussian import (
    GaussianVector,
    condition_diagonal,
    conditioned_variance,
    functional_root,
)
from .graph import (
    cycle_plan,
    enumerate_simple_walks,
    tree_walk_vector,
    walk_sign_vector,
)


@dataclass(frozen=True)
class FreeField:
    """Conditioned edge field of a network; ``factor`` is the (s, blocks) of
    gaussian.condition_diagonal on the graph's fundamental circuits, laid
    out by graph.cycle_plan: s the edge standard deviations, blocks the
    Householder reflectors Q, one Block per panel of the row-merge QR, to
    which gaussian.condition_block_diagonal can append another field's."""

    network: ResistiveNetwork
    factor: tuple

    @functools.cached_property
    def edge_field(self) -> GaussianVector:
        """The E x E edge Gaussian, formed on first use as the Gram matrix
        M M' of the identity rows' roots M = diag(s) (I - Q Q'); diag(R) -
        (s Q)(s Q)' can come out indefinite on wide resistance spans."""
        m = functional_root(self.factor, np.eye(self.network.graph.n_edges))
        return GaussianVector(m @ m.T)


def build_free_field(n: ResistiveNetwork) -> FreeField:
    """Condition the independent edge Gaussian on the fundamental cycle basis."""
    return FreeField(n, condition_diagonal(n.resistances, cycle_plan(n.graph)))


def potential_difference_functional(f: FreeField, a: int, b: int) -> np.ndarray:
    """Edge functional whose value on the field is the a-to-b potential difference.

    Any a-to-b walk gives the same value almost surely; the spanning-tree
    walk is used as the representative.
    """
    return tree_walk_vector(f.network.graph, a, b)


def potential_difference_variance(f: FreeField, a: int, b: int) -> float:
    """Variance of the a-to-b potential difference; equals the effective resistance."""
    return conditioned_variance(f.factor,
                                potential_difference_functional(f, a, b))


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


def path_independence_check(f: FreeField, a: int, b: int) -> float:
    """Worst variance of the difference between two a-to-b walk functionals.

    Enumerates simple walks only; any other walk differs from a simple one
    by circuit functionals, which the conditioning already kills. The
    contract is a value at most 1e-10.
    """
    g = f.network.graph
    walks = enumerate_simple_walks(g, a, b)
    vectors = [walk_sign_vector(g, w) for w in walks]
    worst = 0.0
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            var = conditioned_variance(f.factor, vectors[i] - vectors[j])
            worst = max(worst, var)
    return worst
