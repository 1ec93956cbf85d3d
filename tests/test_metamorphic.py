"""Metamorphic relations: renumbering a network changes none of its physics.

Permuting the edge list or relabelling the vertices of a random network
changes the canonical orientations, the BFS spanning tree and hence the
cycle basis, but not the effective resistance by any route, nor any suite
verdict.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gffresist import (
    ResistiveNetwork,
    build_free_field,
    build_multigraph,
    circuit_matrix,
    dissipated_power,
    effective_resistance,
    fundamental_circuits,
    min_energy_flow_oracle,
    potential_difference_variance,
)
from gffresist.verify import DEFAULT_TOL, _suite_instance, _suite_reports

SEED = 12345
REL = 1e-12


def permute_edges(instance, perm):
    """The instance with edge k of the result being edge perm[k]."""
    graph, r, r_bar, a, b, edge, delta = instance
    specs = [(graph.vertices[graph.tails[e]],
              graph.vertices[graph.heads[e]]) for e in perm]
    moved = build_multigraph(graph.vertices, specs)
    return (moved, r[perm], r_bar[perm], a, b, perm.index(edge), delta)


def relabel_vertices(instance, order):
    """The instance with vertex k of the result being vertex order[k]."""
    graph, r, r_bar, a, b, edge, delta = instance
    names = [graph.vertices[v] for v in order]
    specs = [(graph.vertices[tail], graph.vertices[head])
             for tail, head, _ in graph.edges]
    moved = build_multigraph(names, specs)
    return (moved, r, r_bar, order.index(a), order.index(b), edge, delta)


def routes(instance) -> list:
    """Effective resistance by the Laplacian, oracle-flow and free-field routes."""
    graph, r, _, a, b, _, _ = instance
    net = ResistiveNetwork(graph, r)
    return [effective_resistance(net, a, b),
            dissipated_power(net, min_energy_flow_oracle(net, a, b)),
            potential_difference_variance(build_free_field(net), a, b)]


def verdicts(instance) -> list:
    return [(name, report.passed, [iq.holds for iq in report.inequalities])
            for name, report in _suite_reports(*instance, DEFAULT_TOL, 11)]


def assert_invariant(instance, moved):
    for before, after in zip(routes(instance), routes(moved)):
        assert after == pytest.approx(before, rel=REL, abs=0.0)
    assert verdicts(moved) == verdicts(instance)


@settings(max_examples=60, deadline=None)
@given(index=st.integers(0, 10_000), data=st.data())
def test_edge_permutation(index, data):
    instance = _suite_instance(SEED, index)
    n_edges = instance[0].n_edges
    perm = data.draw(st.permutations(range(n_edges)), label="perm")
    assert_invariant(instance, permute_edges(instance, list(perm)))


@settings(max_examples=60, deadline=None)
@given(index=st.integers(0, 10_000), data=st.data())
def test_vertex_relabelling(index, data):
    instance = _suite_instance(SEED, index)
    n_vertices = instance[0].n_vertices
    order = data.draw(st.permutations(range(n_vertices)), label="order")
    assert_invariant(instance, relabel_vertices(instance, list(order)))


def test_relabelling_changes_the_cycle_basis():
    # Reversing the vertex order of a 4-cycle with a chord roots the BFS at
    # the other end, so the relation above runs on another basis.
    graph = build_multigraph(list(range(4)),
                             [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    r = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    instance = (graph, r, r[::-1].copy(), 1, 3, 0, 0.5)
    moved = relabel_vertices(instance, [3, 2, 1, 0])
    before, after = (circuit_matrix(g, fundamental_circuits(g))
                     for g in (graph, moved[0]))
    assert after.shape == before.shape
    assert not np.array_equal(np.abs(after), np.abs(before))
    assert_invariant(instance, moved)
