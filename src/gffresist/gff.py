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
from .errors import NotASpanningTreeError
from .gaussian import (
    ConstraintSet,
    GaussianVector,
    condition_diagonal,
    conditioned_variance,
    functional_root,
)
from .graph import enumerate_simple_walks, tree_walk_vector, walk_sign_vector


@dataclass(frozen=True)
class FreeField:
    """Conditioned edge field of a network, with its conditioning basis;
    ``factor`` is the (s, q) of gaussian.condition_diagonal."""

    network: ResistiveNetwork
    factor: tuple
    reference_vertex: int
    constraint_basis: ConstraintSet

    @functools.cached_property
    def edge_field(self) -> GaussianVector:
        """The E x E edge Gaussian, formed on first use as the Gram matrix
        M M' of the identity rows' roots M = diag(s) (I - q q'); diag(R) -
        (s q)(s q)' can come out indefinite on wide resistance spans."""
        m = functional_root(self.factor, np.eye(self.network.graph.n_edges))
        return GaussianVector(np.zeros(m.shape[0]), m @ m.T)


def build_free_field(n: ResistiveNetwork, v_star: int = 0) -> FreeField:
    """Condition the independent edge Gaussian on the fundamental cycle basis."""
    basis = ConstraintSet(n.graph.cycle_matrix)
    return FreeField(n, condition_diagonal(n.resistances, basis.rows),
                     v_star, basis)


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


def eta_field(f: FreeField) -> GaussianVector:
    """Vertex potential field, grounded at the reference vertex.

    Coordinate v applies the tree-path functional from the reference vertex
    to v; the reference coordinate is identically zero.
    """
    paths = f.network.graph.tree_paths
    # A negative index would wrap to another vertex's row.
    if not 0 <= f.reference_vertex < len(paths):
        raise NotASpanningTreeError(f"no tree path from {f.reference_vertex}")
    b = functional_root(f.factor, paths - paths[f.reference_vertex])
    return GaussianVector(np.zeros(len(b)), b @ b.T)


def path_independence_check(f: FreeField, a: int, b: int,
                            limit: int = 10_000) -> float:
    """Worst variance of the difference between two a-to-b walk functionals.

    Enumerates simple walks only; any other walk differs from a simple one
    by circuit functionals, which the conditioning already kills. The
    contract is a value at most 1e-10.
    """
    g = f.network.graph
    walks = enumerate_simple_walks(g, a, b, limit=limit)
    vectors = [walk_sign_vector(g, w) for w in walks]
    worst = 0.0
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            var = conditioned_variance(f.factor, vectors[i] - vectors[j])
            worst = max(worst, var)
    return worst
