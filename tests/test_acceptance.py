"""Acceptance battery: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The randomized instances are fixed-seed, so every run checks the
same 200 desk-scale networks.
"""

import contextlib
import io
import math
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from gffresist import (
    appendix_check,
    build_free_field,
    check_concavity_segment,
    check_monotonicity,
    check_scaling,
    check_superadditivity,
    circuit_matrix,
    condition_on_zero,
    dissipated_power,
    effective_resistance,
    entropy_chain,
    enumerate_circuits,
    independent_gaussian,
    melvin_chain,
    min_energy_flow_oracle,
    monte_carlo_variance_check,
    potential_difference_functional,
    potential_difference_variance,
    random_appendix_instance,
    thomson_flow,
)
from gffresist.cli import run_command
from gffresist.gaussian import (
    ConstraintSet,
    condition_diagonal,
    conditioned_variance,
    linear_functional_variance,
)
from gffresist.graph import build_multigraph
from gffresist.verify import (
    instance_rng,
    random_network,
    random_pair,
    random_resistances,
)

ACCEPTANCE_SEED = 20240
N_INSTANCES = 200
SUITE_SEED = 12345
TOL = 1e-8
DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def draw_instances(seed):
    """200 seeded desk-scale instances: (network, r_bar, a, b), drawn in
    the order of run_suite's loop."""
    out = []
    for i in range(N_INSTANCES):
        rng = instance_rng(seed, i)
        net = random_network(rng)
        r_bar = random_resistances(rng, net.graph.n_edges)
        a, b = random_pair(rng, net.graph.n_vertices)
        out.append((net, r_bar, a, b))
    return out


@pytest.fixture(scope="module")
def instances():
    return draw_instances(ACCEPTANCE_SEED)


def report_line(number, name, passed=True):
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if passed else 'FAIL'}")


def test_criterion_1_triple_route_agreement(instances):
    start = time.perf_counter()
    for net, _, a, b in instances:
        routes = [
            effective_resistance(net, a, b),
            dissipated_power(net, thomson_flow(net, a, b)),
            dissipated_power(net, min_energy_flow_oracle(net, a, b)),
            potential_difference_variance(build_free_field(net), a, b),
        ]
        for i, first in enumerate(routes):
            for second in routes[i + 1:]:
                assert abs(first - second) <= 1e-9 * min(first, second)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"triple-route sweep took {elapsed:.1f}s"
    report_line(1, "triple-route agreement")


def test_criterion_2_superadditivity(instances):
    for net, r_bar, a, b in instances:
        report = check_superadditivity(net.graph, net.resistances, r_bar,
                                       a, b, TOL)
        assert report.margin("reff_hat", "reff_sum") >= -TOL
        assert report.passed
    g = build_multigraph(["a", "b"], [("a", "b"), ("b", "a")])
    worked = check_superadditivity(g, [1.0, 1.0], [1.0, 2.0], 0, 1, TOL)
    assert worked.margin("reff_hat", "reff_sum") == pytest.approx(
        1.0 / 30.0, abs=1e-9)
    report_line(2, "superadditivity")


def test_criterion_3_entropy_chain(instances):
    for net, r_bar, a, b in instances:
        report = entropy_chain(net.graph, net.resistances, r_bar, a, b, TOL)
        assert report.passed
        assert abs(report.margin("h_hat", "h_joint_hat")) <= 1e-9
        assert abs(report.margin("h_joint_split", "h_sum")) <= 1e-9
        reff_hat = effective_resistance(
            net.with_resistances(net.resistances + r_bar), a, b)
        reff_sum = (effective_resistance(net, a, b)
                    + effective_resistance(net.with_resistances(r_bar), a, b))
        expected_margin = 0.5 * math.log(reff_hat / reff_sum)
        assert report.margin("h_joint_hat", "h_joint_split") == pytest.approx(
            expected_margin, abs=1e-10)

    g = build_multigraph(["a", "b"], [("a", "b"), ("b", "a")])
    worked = entropy_chain(g, [1.0, 1.0], [1.0, 2.0], 0, 1, TOL)
    assert worked.quantity("h_hat") == pytest.approx(1.510100, abs=1e-5)
    assert worked.quantity("h_sum") == pytest.approx(1.496015, abs=1e-5)
    report_line(3, "entropy chain")


def test_criterion_4_melvin_chain(instances):
    for net, r_bar, a, b in instances:
        report = melvin_chain(net.graph, net.resistances, r_bar, a, b, TOL)
        assert report.passed
        reff_hat = report.quantity("reff_hat")
        assert abs(report.margin("reff_hat", "hat_flow_power")) \
            <= 1e-9 * reff_hat
        assert abs(report.margin("own_flow_power", "reff_sum")) \
            <= 1e-9 * report.quantity("reff_sum")
        assert report.margin("hat_flow_power", "own_flow_power") >= -TOL
    for i, (net, _, a, b) in enumerate(instances[::10]):
        c = (0.5, 3.0)[i % 2]
        report = melvin_chain(net.graph, net.resistances,
                              c * net.resistances, a, b, TOL)
        assert abs(report.margin("hat_flow_power", "own_flow_power")) <= 1e-9
    report_line(4, "melvin chain")


def test_criterion_5_gff_identity_and_monte_carlo(instances):
    for net, _, _, _ in instances:
        field = build_free_field(net)
        for a in range(net.graph.n_vertices):
            for b in range(a + 1, net.graph.n_vertices):
                reff = effective_resistance(net, a, b)
                var = potential_difference_variance(field, a, b)
                assert abs(var - reff) <= 1e-9 * reff
    start = time.perf_counter()
    for i, (net, _, a, b) in enumerate(instances[:10]):
        report = monte_carlo_variance_check(
            net.graph, net.resistances, a, b, 1_000_000, seed=1000 + i)
        assert report.passed, f"mc instance {i}: {report.to_dict()}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"monte carlo sweep took {elapsed:.1f}s"
    report_line(5, "gff identity + monte carlo")


def test_criterion_6_circuit_basis_equivalence(instances):
    checked = 0
    for net, _, _, _ in instances:
        g = net.graph
        circuits = enumerate_circuits(g, limit=20_000)
        field = build_free_field(net)
        all_rows = circuit_matrix(g, circuits)
        conditioned = condition_on_zero(independent_gaussian(net.resistances),
                                        ConstraintSet(all_rows))
        diff = np.max(np.abs(conditioned.covariance
                             - field.edge_field.covariance))
        assert diff <= 1e-9
        rank = g.cycle_rank
        if rank:
            assert np.linalg.matrix_rank(g.cycle_matrix) == rank
            assert np.linalg.matrix_rank(all_rows) == rank
            checked += 1
    assert checked >= 100
    report_line(6, "circuit/basis equivalence")


def test_criterion_7_appendix_lemma():
    from gffresist import AppendixInstance

    for i in range(N_INSTANCES):
        rng = instance_rng(ACCEPTANCE_SEED + 1, i)
        dim = int(rng.integers(1, 7))
        inst = random_appendix_instance(dim, seed=int(rng.integers(0, 2**31)))
        assert appendix_check(inst, TOL).passed
    hand = AppendixInstance(cov_w=[[1.0, 0.5], [0.5, 1.0]],
                            cov_w_bar=np.eye(2),
                            functional=[1.0, 0.0, 1.0, 0.0],
                            conditioning=[[0.0, 1.0]])
    report = appendix_check(hand, TOL)
    assert report.quantity("var_given_hat") == pytest.approx(1.875, abs=1e-12)
    assert report.quantity("var_given_split") == pytest.approx(1.75, abs=1e-12)
    assert report.passed
    report_line(7, "appendix lemma")


def test_criterion_8_concavity_scaling_monotonicity(instances):
    for i, (net, r_bar, a, b) in enumerate(instances):
        rng = instance_rng(ACCEPTANCE_SEED + 2, i)
        report = check_concavity_segment(net.graph, net.resistances, r_bar,
                                         21, a, b, TOL)
        assert report.passed
        for t in (0.5, 2.0, 10.0):
            assert check_scaling(net.graph, net.resistances, t, a, b,
                                 TOL).passed
        edge = int(rng.integers(0, net.graph.n_edges))
        delta = float(rng.uniform(0.1, 2.0))
        assert check_monotonicity(net.graph, net.resistances, edge, delta,
                                  a, b, TOL).passed
    bridge = build_multigraph(
        ["a", "b", "c", "d"],
        [("a", "b"), ("a", "c"), ("b", "c"), ("b", "d"), ("c", "d")])
    strict = check_concavity_segment(
        bridge, np.ones(5), [5.0, 3.0, 1.0, 2.0, 4.0], 21, 0, 3, TOL)
    assert strict.passed
    assert strict.quantity("second_diff_max") < -1e-6
    report_line(8, "concavity + scaling + monotonicity")


def test_criterion_9_cli_golden_files():
    commands = {
        "reff_series_path.txt": [
            "reff", "--network", str(DATA / "series_path.json"),
            "--pair", "a,c"],
        "thomson_triangle.txt": [
            "thomson", "--network", str(DATA / "triangle.json"),
            "--pair", "a,b"],
        "entropy_parallel_pair.txt": [
            "verify", "entropy",
            "--network", str(DATA / "parallel_pair_base.json"),
            "--bar-network", str(DATA / "parallel_pair.json"),
            "--pair", "a,b"],
        # 4x4 grid, edges shuffled and half reversed: 9 independent cycles
        # pin the spanning-tree tie-break, the circuit orientation and the
        # Melvin chain's bits.
        "thomson_grid4.txt": [
            "thomson", "--network", str(DATA / "grid4.json"),
            "--pair", "v0,v15"],
        "melvin_grid4.txt": [
            "verify", "melvin",
            "--network", str(DATA / "grid4.json"),
            "--bar-network", str(DATA / "grid4_bar.json"),
            "--pair", "v0,v15"],
        # Worst margins of the default battery: they pin the bits of every
        # solve, conditioning and cycle basis the suite runs.
        "suite_12345_200.txt": [
            "suite", "--seed", "12345", "--instances", "200"],
    }
    for name, argv in commands.items():
        outputs = []
        for _ in range(2):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = run_command(argv)
            assert code == 0
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1], f"{name}: runs differ"
        golden = (GOLDEN / name).read_text(encoding="utf-8")
        assert outputs[0] == golden, f"{name}: output diverged from golden"
    report_line(9, "cli golden files")


def test_criterion_10_projection_matches_general_conditioning(instances):
    # Every diagonal conditioning of the free field and the entropy chain
    # agrees with condition_on_value, on this battery and run_suite's.
    worst = 0.0
    for net, r_bar, a, b in instances + draw_instances(SUITE_SEED):
        phi = net.graph.cycle_matrix
        c = potential_difference_functional(build_free_field(net), a, b)
        cases = [(x, phi, c) for x in
                 (net.resistances, r_bar, net.resistances + r_bar)]
        doubled = np.concatenate([net.resistances, r_bar])
        cases += [(doubled, rows, np.concatenate([c, c])) for rows in
                  (np.hstack([phi, phi]), scipy.linalg.block_diag(phi, phi))]
        for variances, rows, functional in cases:
            fast = conditioned_variance(
                condition_diagonal(variances, rows), functional)
            reference = linear_functional_variance(
                condition_on_zero(independent_gaussian(variances),
                                  ConstraintSet(rows)), functional)
            worst = max(worst, abs(fast - reference) / reference)
    assert worst <= 1e-12, f"worst relative gap {worst:.3e}"
    report_line(10, "projection form matches general conditioning")


def test_criterion_11_circuit_rows_keep_full_rank(instances):
    # Each circuit row owns a chord column, so the QR factor keeps one
    # basis column per row: k for C and [C, C], 2k for blockdiag(C, C).
    for net, r_bar, _, _ in instances + draw_instances(SUITE_SEED):
        phi = net.graph.cycle_matrix
        k = net.graph.cycle_rank
        doubled = np.concatenate([net.resistances, r_bar])
        for variances, rows, kept in (
                (net.resistances, phi, k),
                (doubled, np.hstack([phi, phi]), k),
                (doubled, scipy.linalg.block_diag(phi, phi), 2 * k)):
            _, q = condition_diagonal(variances, rows)
            assert q.shape == (variances.size, kept)
    report_line(11, "circuit rows keep full rank")
