"""Accuracy of the routes against a 50-digit mpmath Laplacian solve.

The inputs are the 150 networks ``random_network(instance_rng(99, i))``
with resistances log-uniform on [1, span] (``exp(U(0, ln span))``), the
pair and a second resistance vector drawn from the same generator. Each
bound is the worst relative error measured on these inputs, with the
headroom stated next to it, so a change that loses digits fails here.
"""

import mpmath
import pytest

from gffresist import (
    ResistiveNetwork,
    build_free_field,
    dissipated_power,
    effective_resistance,
    entropy_chain,
    min_energy_flow_oracle,
    potential_difference_variance,
)
from gffresist.verify import (
    instance_rng,
    random_network,
    random_pair,
    random_resistances,
)

DIGITS = 50
N_NETWORKS = 150
# The worst relative error measured on these inputs (numpy 2.4.6, scipy
# 1.17.1, OpenBLAS) and the bound pinned at about four times it; the flow
# oracle's 1e8 error is under two ulps, and its bound is nine.
BOUNDS = {
    # span: {route: bound}                      measured worst
    1e8: {"laplacian": 1.5e-8,                  # 3.42e-9
          "flow_oracle": 2e-15,                 # 3.64e-16
          "free_field": 2e-12,                  # 5.21e-13
          "fine_side": 2.5e-13},                # 6.19e-14
    1e12: {"laplacian": 6e-5,                   # 1.46e-5
           "flow_oracle": 1e-11,                # 2.43e-12
           "free_field": 7e-11,                 # 1.78e-11
           "fine_side": 1e-11},                 # 2.31e-12
}


def mp_reff(graph, r, a: int, b: int):
    """Effective resistance between a and b at DIGITS digits: the Laplacian
    grounded at b, solved by mpmath's LU."""
    with mpmath.workdps(DIGITS):
        index = {v: i for i, v in
                 enumerate(v for v in range(graph.n_vertices) if v != b)}
        lap = mpmath.zeros(len(index))
        for u, v, x in zip(graph.tails, graph.heads, r):
            g = 1 / mpmath.mpf(float(x))
            for p, q in ((u, v), (v, u)):
                if p in index:
                    lap[index[p], index[p]] += g
                    if q in index:
                        lap[index[p], index[q]] -= g
        rhs = mpmath.zeros(len(index), 1)
        rhs[index[a]] = 1
        return mpmath.lu_solve(lap, rhs)[index[a]]


def worst_errors(span: float) -> dict:
    """Worst relative error of each route over the N_NETWORKS networks."""
    worst = dict.fromkeys(BOUNDS[span], 0.0)
    for i in range(N_NETWORKS):
        rng = instance_rng(99, i)
        graph = random_network(rng).graph
        r = random_resistances(rng, graph.n_edges, 1.0, span)
        a, b = random_pair(rng, graph.n_vertices)
        r_bar = random_resistances(rng, graph.n_edges, 1.0, span)
        reff = mp_reff(graph, r, a, b)
        reff_sum = mpmath.fadd(reff, mp_reff(graph, r_bar, a, b), dps=DIGITS)
        net = ResistiveNetwork(graph, r)
        split = entropy_chain(graph, r, r_bar, a, b).quantity(
            "var_joint_split")
        for route, value, exact in (
                ("laplacian", effective_resistance(net, a, b), reff),
                ("flow_oracle", dissipated_power(
                    net, min_energy_flow_oracle(net, a, b)), reff),
                ("free_field", potential_difference_variance(
                    build_free_field(net), a, b), reff),
                ("fine_side", split, reff_sum)):
            with mpmath.workdps(DIGITS):
                error = float(abs((mpmath.mpf(value) - exact) / exact))
            worst[route] = max(worst[route], error)
    return worst


@pytest.fixture(scope="module", params=sorted(BOUNDS), ids=lambda s: f"{s:g}")
def wide_span(request):
    return request.param, worst_errors(request.param)


@pytest.mark.parametrize("route", ["laplacian", "flow_oracle", "free_field",
                                   "fine_side"])
def test_route_error_within_its_bound(wide_span, route):
    span, worst = wide_span
    assert worst[route] <= BOUNDS[span][route], (
        f"span {span:g}: {route} worst relative error {worst[route]:.3e}")
