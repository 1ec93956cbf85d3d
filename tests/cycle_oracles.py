"""Exhaustive circuit and walk enumerations, the oracles of the cycle-space tests.

The free field is defined by conditioning on every circuit, and the routes
condition on the fundamental basis alone. These enumerations let the tests
show that the two agree, and that every a-to-b walk functional has the same
value on the field. They are exponential in the graph size and meant for
desk-scale graphs only.
"""

import numpy as np

from gffresist.errors import SizeLimitExceededError
from gffresist.gaussian import (
    GaussianVector,
    conditioned_variance,
    functional_root,
)
from gffresist.gff import FreeField
from gffresist.graph import (
    Multigraph,
    make_circuit,
    make_walk,
    walk_sign_vector,
)

DEFAULT_CIRCUIT_LIMIT = 1_000_000


def _simple_paths(g: Multigraph, start: int, stop: int, floor: int):
    """Every path from start to stop, by depth-first search without recursion.

    Interior vertices are distinct, differ from both ends and exceed floor;
    start == stop gives closed paths. Incident edges are scanned in
    increasing id, so paths come in the order a recursive search finds
    them. Yields fresh (vertex list, edge list) pairs.
    """
    starts, incident = g.adjacency
    path_vs, path_es = [start], []
    on_path = {start}
    frames = [iter(incident[starts[start]:starts[start + 1]])]
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
                frames.append(iter(incident[starts[w]:starts[w + 1]]))
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


def path_independence_check(f: FreeField, a: int, b: int) -> float:
    """Worst variance of the difference between two a-to-b walk functionals
    of the free field ``f``.

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


def edge_field(f: FreeField) -> GaussianVector:
    """The E x E edge Gaussian of the free field ``f``: the Gram matrix
    M M' of the identity rows' roots M = diag(s) (I - Q Q'); diag(R) -
    (s Q)(s Q)' can come out indefinite on wide resistance spans."""
    m = functional_root(f.factor, np.eye(f.network.graph.n_edges))
    return GaussianVector(m @ m.T)
