"""Accuracy of the routes, and of the Laplacian route's exact rcond, against
a 50-digit mpmath Laplacian solve.

The inputs are the 150 networks ``random_network(instance_rng(99, i))``
with resistances log-uniform on [1, span] (``exp(U(0, ln span))``), the
pair and a second resistance vector drawn from the same generator, and
for the free field's panels 40 such draws on an 8 x 8 grid. Each bound
is the worst relative error measured on these inputs, with the headroom
stated next to it, so a change that loses digits fails here.
"""

import itertools

import mpmath
import pytest

from gffresist import (
    ResistiveNetwork,
    build_free_field,
    build_multigraph,
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

from test_electric import laplacian_rcond

DIGITS = 50
N_NETWORKS = 150
# The worst relative error measured on these inputs (numpy 2.4.6, scipy
# 1.17.1, OpenBLAS) and the bound pinned at about four times it; the flow
# oracle's 1e8 error is under two ulps, and its bound is nine.
BOUNDS = {
    # span: {route: bound}                      measured worst
    1e8: {"laplacian": 1.5e-8,                  # 3.42e-9
          "flow_oracle": 2e-15,                 # 4.26e-16
          "free_field": 2e-12,                  # 5.08e-13
          "fine_side": 2.5e-13},                # 9.47e-14
    1e12: {"laplacian": 6e-5,                   # 1.46e-5
           "flow_oracle": 1e-11,                # 1.18e-12
           "free_field": 7e-11,                 # 1.86e-11
           "fine_side": 1e-11},                 # 2.31e-12
}
# The same for the free field and the entropy chain's fine side on the 8 x 8
# grid: k = 49 circuits, two panels of the row-merge QR, where every network
# above is one panel. The draws are instance_rng(seed, i), i < 20, for seed
# 99 (the networks' seed) and 88, where the panels measured furthest from
# one dense QR, which measured 2.03e-14 and 2.60e-14 at span 1e8, 4.79e-14
# and 2.66e-13 at 1e12 on the same draws. Over the 400 draws of seeds 80 to
# 99 the worst was 5.20e-14, 2.39e-14, 1.25e-12 and 3.36e-13 (one dense QR
# 9.10e-14, 2.83e-14, 3.38e-12 and 2.80e-12), inside every bound; the
# median draw's error is 1.0 to 1.6 times the dense QR's.
GRID_SIDE, GRID_SEEDS, N_GRIDS = 8, (88, 99), 20
GRID_BOUNDS = {
    # span: {route: bound}                      measured worst
    1e8: {"free_field": 8e-14,                  # 1.92e-14
          "fine_side": 4e-14},                  # 1.05e-14
    1e12: {"free_field": 2.4e-12,               # 6.02e-13
           "fine_side": 1.1e-12},               # 2.82e-13
}
# The Laplacian route's exact M-matrix rcond on all 150 networks (the 14
# two-vertex ones measure 2.2e-16 at both spans): the worst relative error
# measured and the bound at about four times it.
RCOND_BOUNDS = {1e8: 1.5e-8,                     # 3.42e-9
                1e12: 6e-5}                      # 1.46e-5


def mp_grounded_laplacian(graph, r, b: int) -> tuple:
    """The Laplacian grounded at b, in mpmath at the working precision, and
    the index of each other vertex in it."""
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
    return lap, index


def mp_reff(graph, r, a: int, b: int):
    """Effective resistance between a and b at DIGITS digits: the Laplacian
    grounded at b, solved by mpmath's LU."""
    with mpmath.workdps(DIGITS):
        lap, index = mp_grounded_laplacian(graph, r, b)
        rhs = mpmath.zeros(len(index), 1)
        rhs[index[a]] = 1
        return mpmath.lu_solve(lap, rhs)[index[a]]


def mp_band_reff(graph, r, a: int, b: int, width: int):
    """mp_reff by Gaussian elimination inside the grounded Laplacian's band
    of half-width ``width``, where the elimination fills nothing in: no
    pivoting, as the matrix is symmetric positive definite."""
    with mpmath.workdps(DIGITS):
        lap, index = mp_grounded_laplacian(graph, r, b)
        n = len(index)
        x = [mpmath.mpf(0)] * n
        x[index[a]] = mpmath.mpf(1)
        for p in range(n):
            for i in range(p + 1, min(n, p + width + 1)):
                f = lap[i, p] / lap[p, p]
                if f:
                    for j in range(p, min(n, p + width + 1)):
                        lap[i, j] -= f * lap[p, j]
                    x[i] -= f * x[p]
        for p in reversed(range(n)):
            x[p] = (x[p] - sum((lap[p, j] * x[j] for j in
                                range(p + 1, min(n, p + width + 1))),
                               mpmath.mpf(0))) / lap[p, p]
        return x[index[a]]


def mp_rcond(graph, r, b: int):
    """1 / (||A||_1 ||A^-1||_1) of the Laplacian A grounded at b, at DIGITS
    digits. A^-1 >= 0 for this M-matrix, so ||A^-1||_1 = max(A^-1 1): one
    solve."""
    with mpmath.workdps(DIGITS):
        lap, index = mp_grounded_laplacian(graph, r, b)
        n = len(index)
        norm = max(sum(abs(lap[i, j]) for i in range(n)) for j in range(n))
        y = mpmath.lu_solve(lap, mpmath.ones(n, 1))
        return 1 / (norm * max(y[i] for i in range(n)))


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


def grid_worst_errors(span: float) -> dict:
    """Worst relative error of the free field and the fine side over the
    N_GRIDS draws of each of GRID_SEEDS on the GRID_SIDE x GRID_SIDE grid."""
    side = GRID_SIDE
    graph = build_multigraph(
        list(range(side * side)),
        [(v, v + 1) for v in range(side * side) if (v + 1) % side]
        + [(v, v + side) for v in range(side * (side - 1))])
    worst = dict.fromkeys(GRID_BOUNDS[span], 0.0)
    for seed, i in itertools.product(GRID_SEEDS, range(N_GRIDS)):
        rng = instance_rng(seed, i)
        r = random_resistances(rng, graph.n_edges, 1.0, span)
        a, b = random_pair(rng, graph.n_vertices)
        r_bar = random_resistances(rng, graph.n_edges, 1.0, span)
        reff = mp_band_reff(graph, r, a, b, side)
        reff_sum = mpmath.fadd(reff, mp_band_reff(graph, r_bar, a, b, side),
                               dps=DIGITS)
        for route, value, exact in (
                ("free_field", potential_difference_variance(
                    build_free_field(ResistiveNetwork(graph, r)), a, b),
                 reff),
                ("fine_side", entropy_chain(graph, r, r_bar, a, b).quantity(
                    "var_joint_split"), reff_sum)):
            with mpmath.workdps(DIGITS):
                error = float(abs((mpmath.mpf(value) - exact) / exact))
            worst[route] = max(worst[route], error)
    return worst


@pytest.mark.parametrize("span", sorted(GRID_BOUNDS), ids="{:g}".format)
def test_panel_error_within_its_bound(span):
    worst = grid_worst_errors(span)
    for route, bound in GRID_BOUNDS[span].items():
        assert worst[route] <= bound, (
            f"span {span:g}: {route} on the {GRID_SIDE}x{GRID_SIDE} grid "
            f"worst relative error {worst[route]:.3e}")


@pytest.mark.parametrize("span", sorted(RCOND_BOUNDS), ids="{:g}".format)
def test_laplacian_rcond_within_its_bound(span):
    worst, count = 0.0, 0
    for i in range(N_NETWORKS):
        rng = instance_rng(99, i)
        graph = random_network(rng).graph
        r = random_resistances(rng, graph.n_edges, 1.0, span)
        a, b = random_pair(rng, graph.n_vertices)
        count += 1
        rcond = laplacian_rcond(ResistiveNetwork(graph, r), a, b)
        exact = mp_rcond(graph, r, b)
        with mpmath.workdps(DIGITS):
            error = float(abs((mpmath.mpf(rcond) - exact) / exact))
        worst = max(worst, error)
    assert count == 150
    assert worst <= RCOND_BOUNDS[span], (
        f"span {span:g}: rcond worst relative error {worst:.3e}")
