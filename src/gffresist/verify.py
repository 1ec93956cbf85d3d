"""Theorem harness: machine-checks every step of both effective-resistance
superadditivity proofs (the minimum-energy power chain and the conditional-
entropy chain), the supporting conditional-variance lemma, and the concavity,
scaling, and monotonicity statements themselves.

Each check returns a VerificationReport listing the computed quantities and
one record per verified equality or inequality, with a signed margin so that
near-equality cases are visibly tight rather than silently passing.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .electric import (
    ResistiveNetwork,
    dissipated_power,
    effective_resistance,
    node_voltages,
    ohm_flow,
)
from .errors import DimensionMismatchError, ValidationError
from .gaussian import (
    VARIANCE_CLAMP,
    ConstraintSet,
    DegenerateEntropy,
    GaussianVector,
    condition_diagonal,
    condition_on_value,
    condition_on_zero,
    conditioned_variance,
    entropy_scalar,
    functional_draws,
    linear_functional_variance,
)
from .gff import (
    build_free_field,
    potential_difference_functional,
    potential_difference_variance,
)
from .graph import Multigraph, build_multigraph

DEFAULT_TOL = 1e-8
# Two-sided tail of the Monte Carlo check: that of a normal 4-sigma test.
MC_ALPHA = math.erfc(4.0 / math.sqrt(2.0))


@dataclass(frozen=True)
class Inequality:
    """One verified relation between two labeled quantities.

    The margin is lhs - rhs (rhs - lhs for "<="). An inequality holds when
    its margin is at least -tolerance * scale, an equality when it is at
    most tolerance * scale in magnitude. scale is the larger operand
    magnitude, so verdicts have no units, except 1 for entropies (margins
    in nats), max|f| for a concavity second difference and c' cov c for the
    appendix lemma's variances. A comparison with a degenerate (point-mass)
    entropy has a non-finite margin, serialized as null.
    """

    lhs: str
    rel: str
    rhs: str
    margin: float
    holds: bool


@dataclass(frozen=True)
class VerificationReport:
    """Named check outcome: ordered quantities plus verified relations."""

    name: str
    quantities: tuple
    inequalities: tuple
    tolerance: float

    def __post_init__(self):
        labels = {label for label, _ in self.quantities}
        for ineq in self.inequalities:
            if ineq.lhs not in labels or ineq.rhs not in labels:
                raise ValidationError(
                    f"inequality references unknown quantity in {self.name}")

    @property
    def passed(self) -> bool:
        return all(ineq.holds for ineq in self.inequalities)

    def quantity(self, label: str):
        return dict(self.quantities)[label]

    def margin(self, lhs: str, rhs: str) -> float:
        return {(iq.lhs, iq.rhs): iq.margin for iq in self.inequalities}[lhs, rhs]

    def to_dict(self) -> dict:
        def jsonable(value):
            if isinstance(value, DegenerateEntropy):
                return None
            if isinstance(value, float) and not math.isfinite(value):
                return None
            return value

        return {
            "name": self.name,
            "quantities": {label: jsonable(v) for label, v in self.quantities},
            "inequalities": [
                {"lhs": iq.lhs, "rel": iq.rel, "rhs": iq.rhs,
                 "margin": jsonable(iq.margin), "holds": iq.holds}
                for iq in self.inequalities
            ],
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def _judged(name: str, quantities, relations, tol: float) -> VerificationReport:
    """Report ``quantities`` with each (lhs, rel, rhs[, scale]) relation over
    their labels judged by the one rule Inequality states; scale defaults to
    the larger operand magnitude. A degenerate entropy sits below all floats.
    """
    values = dict(quantities)
    ineqs = []
    for lhs, rel, rhs, *scale in relations:
        x, y = values[lhs], values[rhs]
        if rel == "<=":
            x, y = y, x
        deg_x, deg_y = (isinstance(v, DegenerateEntropy) for v in (x, y))
        if deg_x or deg_y:
            margin = (0.0 if deg_x and deg_y else math.nan if rel == "=="
                      else math.inf if deg_y else -math.inf)
            holds = margin >= 0
        else:
            margin = x - y
            bound = tol * (scale[0] if scale else max(abs(x), abs(y)))
            holds = abs(margin) <= bound if rel == "==" else margin >= -bound
        ineqs.append(Inequality(lhs, rel, rhs, margin, bool(holds)))
    return VerificationReport(name, tuple(quantities), tuple(ineqs), tol)


def check_superadditivity(graph: Multigraph, r, r_bar, a: int, b: int,
                          tol: float = DEFAULT_TOL) -> VerificationReport:
    """Effective resistance of the edgewise sum dominates the sum of parts."""
    r = np.asarray(r, dtype=float)
    r_bar = np.asarray(r_bar, dtype=float)
    reff_hat = effective_resistance(ResistiveNetwork(graph, r + r_bar), a, b)
    reff = effective_resistance(ResistiveNetwork(graph, r), a, b)
    reff_bar = effective_resistance(ResistiveNetwork(graph, r_bar), a, b)
    quantities = (
        ("reff_hat", reff_hat),
        ("reff", reff),
        ("reff_bar", reff_bar),
        ("reff_sum", reff + reff_bar),
    )
    return _judged("superadditivity", quantities,
                   [("reff_hat", ">=", "reff_sum")], tol)


def check_concavity_segment(graph: Multigraph, r0, r1, grid_points: int,
                            a: int, b: int,
                            tol: float = DEFAULT_TOL) -> VerificationReport:
    """Concavity of the effective resistance along a resistance segment.

    Evaluates lambda -> Reff((1-lambda) r0 + lambda r1) on a uniform grid
    and requires every second difference to be at most tol * max|f|; also
    checks the midpoint inequality directly.
    """
    if grid_points < 3:
        raise ValidationError("concavity grid needs at least 3 points")
    r0 = np.asarray(r0, dtype=float)
    r1 = np.asarray(r1, dtype=float)

    def reff_at(lam):
        return effective_resistance(
            ResistiveNetwork(graph, (1.0 - lam) * r0 + lam * r1), a, b)

    lams = np.linspace(0.0, 1.0, grid_points)
    f = np.array([reff_at(lam) for lam in lams])
    second = f[:-2] - 2.0 * f[1:-1] + f[2:]
    # Most odd grids hold lambda = 0.5 exactly at their centre (99 does not).
    centre = grid_points // 2
    mid = float(f[centre]) if lams[centre] == 0.5 else reff_at(0.5)
    endpoint_mean = 0.5 * (f[0] + f[-1])
    quantities = (
        ("reff_at_r0", float(f[0])),
        ("reff_at_r1", float(f[-1])),
        ("second_diff_max", float(np.max(second))),
        ("second_diff_min", float(np.min(second))),
        ("reff_midpoint", mid),
        ("endpoint_mean", endpoint_mean),
        ("zero", 0.0),
    )
    # A second difference is judged against the function it differences.
    return _judged("concavity_segment", quantities, [
        ("second_diff_max", "<=", "zero", float(np.max(np.abs(f)))),
        ("reff_midpoint", ">=", "endpoint_mean"),
    ], tol)


def melvin_chain(graph: Multigraph, r, r_bar, a: int, b: int,
                 tol: float = DEFAULT_TOL) -> VerificationReport:
    """Minimum-energy route to superadditivity, every chain step checked.

    The summed network's optimal flow dissipates its own effective
    resistance; splitting that dissipation across the two resistance
    assignments and re-optimizing each part separately can only lower it.
    """
    r = np.asarray(r, dtype=float)
    r_bar = np.asarray(r_bar, dtype=float)
    net = ResistiveNetwork(graph, r)
    net_bar = ResistiveNetwork(graph, r_bar)
    net_hat = ResistiveNetwork(graph, r + r_bar)

    # One solve per network gives both its Thomson flow and its Reff.
    volts_hat, volts, volts_bar = (node_voltages(m, a, b)
                                   for m in (net_hat, net, net_bar))
    flow_hat = ohm_flow(net_hat, volts_hat)

    reff_hat = float(volts_hat.potentials[a])
    hat_flow_power = (dissipated_power(net, flow_hat)
                      + dissipated_power(net_bar, flow_hat))
    own_flow_power = (dissipated_power(net, ohm_flow(net, volts))
                      + dissipated_power(net_bar, ohm_flow(net_bar, volts_bar)))
    reff_sum = float(volts.potentials[a]) + float(volts_bar.potentials[a])

    quantities = (
        ("reff_hat", reff_hat),
        ("hat_flow_power", hat_flow_power),
        ("own_flow_power", own_flow_power),
        ("reff_sum", reff_sum),
    )
    return _judged("melvin_chain", quantities, [
        ("reff_hat", "==", "hat_flow_power"),
        ("hat_flow_power", ">=", "own_flow_power"),
        ("own_flow_power", "==", "reff_sum"),
    ], tol)


def _coarse_and_fine_rows(phi: np.ndarray) -> tuple:
    """Conditioning rows on the pair (w, w_bar), coarse then fine.

    Coarse: each row of phi pins phi . (w + w_bar) to 0. Fine: it pins
    phi . w and phi . w_bar to 0 separately.
    """
    return np.hstack([phi, phi]), scipy.linalg.block_diag(phi, phi)


def entropy_chain(graph: Multigraph, r, r_bar, a: int, b: int,
                  tol: float = DEFAULT_TOL) -> VerificationReport:
    """Conditional-entropy route to superadditivity.

    Builds the three free fields plus the doubled-dimension joint Gaussian
    over (x, x_bar) and compares conditioning on the summed-field circuit
    constraints (rows acting on x + x_bar) against conditioning each block
    on its own circuit constraints. Coarser conditioning leaves at least as
    much entropy in the a-to-b potential difference.
    """
    r = np.asarray(r, dtype=float)
    r_bar = np.asarray(r_bar, dtype=float)
    fields = [build_free_field(ResistiveNetwork(graph, x))
              for x in (r, r_bar, r + r_bar)]
    var, var_bar, var_hat = (potential_difference_variance(f, a, b)
                             for f in fields)

    # The appendix lemma, applied to the fundamental cycle basis. The fine
    # side stays one doubled projection, so that h_joint_split == h_sum
    # compares it with the two separate free fields.
    walk_vec = potential_difference_functional(fields[2], a, b)
    var_joint_hat, var_joint_split = (
        conditioned_variance(
            condition_diagonal(np.concatenate([r, r_bar]), rows),
            np.concatenate([walk_vec, walk_vec]))
        for rows in _coarse_and_fine_rows(graph.cycle_matrix))

    variances = {"hat": var_hat, "joint_hat": var_joint_hat,
                 "joint_split": var_joint_split, "sum": var + var_bar}
    # Positive by theorem on a valid network, however small its resistances.
    entropies = {f"h_{k}": entropy_scalar(v, 0.0) for k, v in variances.items()}

    quantities = (*entropies.items(),
                  *((f"var_{k}", v) for k, v in variances.items()))
    # An entropy difference is a log variance ratio: it has no units.
    return _judged("entropy_chain", quantities, [
        ("h_hat", "==", "h_joint_hat", 1.0),
        ("h_joint_hat", ">=", "h_joint_split", 1.0),
        ("h_joint_split", "==", "h_sum", 1.0),
    ], tol)


def check_scaling(graph: Multigraph, r, t: float, a: int, b: int,
                  tol: float = DEFAULT_TOL) -> VerificationReport:
    """Scaling every resistance by t scales the effective resistance by t."""
    if t <= 0:
        raise ValidationError("scale factor must be positive")
    r = np.asarray(r, dtype=float)
    reff = effective_resistance(ResistiveNetwork(graph, r), a, b)
    reff_scaled = effective_resistance(ResistiveNetwork(graph, t * r), a, b)
    quantities = (
        ("reff", reff),
        ("scale_factor", float(t)),
        ("reff_scaled", reff_scaled),
        ("reff_times_t", t * reff),
    )
    return _judged("scaling", quantities,
                   [("reff_scaled", "==", "reff_times_t")], tol)


def check_monotonicity(graph: Multigraph, r, edge: int, delta: float,
                       a: int, b: int,
                       tol: float = DEFAULT_TOL) -> VerificationReport:
    """Raising one edge resistance never lowers the effective resistance."""
    if delta <= 0:
        raise ValidationError("resistance bump must be positive")
    r = np.asarray(r, dtype=float)
    if not 0 <= edge < graph.n_edges:
        raise ValidationError(f"edge id {edge} out of range")
    bumped = r.copy()
    bumped[edge] += delta
    reff = effective_resistance(ResistiveNetwork(graph, r), a, b)
    reff_bumped = effective_resistance(ResistiveNetwork(graph, bumped), a, b)
    quantities = (
        ("reff", reff),
        ("reff_bumped", reff_bumped),
        ("edge", float(edge)),
        ("delta", float(delta)),
    )
    return _judged("monotonicity", quantities,
                   [("reff_bumped", ">=", "reff")], tol)


@dataclass(frozen=True)
class AppendixInstance:
    """Inputs for the conditional-variance lemma check.

    Two independent mean-zero Gaussian blocks w and w_bar of equal
    dimension, a scalar functional of the pair, and conditioning rows
    acting on the w-space: each row phi pins phi . (w + w_bar) on the
    coarse side versus phi . w and phi . w_bar separately on the fine side.
    """

    cov_w: np.ndarray
    cov_w_bar: np.ndarray
    functional: np.ndarray
    conditioning: np.ndarray

    def __post_init__(self):
        cov_w = np.asarray(self.cov_w, dtype=float)
        cov_w_bar = np.asarray(self.cov_w_bar, dtype=float)
        functional = np.asarray(self.functional, dtype=float)
        conditioning = np.atleast_2d(np.asarray(self.conditioning, dtype=float))
        n = cov_w.shape[0]
        if cov_w.shape != (n, n) or cov_w_bar.shape != (n, n):
            raise DimensionMismatchError("covariance blocks must be square and equal-size")
        if functional.shape != (2 * n,):
            raise DimensionMismatchError(
                f"functional must have length {2 * n}, got {functional.shape}")
        if conditioning.shape[1] != n:
            raise DimensionMismatchError(
                f"conditioning rows must have {n} columns")
        object.__setattr__(self, "cov_w", cov_w)
        object.__setattr__(self, "cov_w_bar", cov_w_bar)
        object.__setattr__(self, "functional", functional)
        object.__setattr__(self, "conditioning", conditioning)

    @property
    def dim(self) -> int:
        return self.cov_w.shape[0]


def random_appendix_instance(dim: int, seed: int) -> AppendixInstance:
    """Seeded random jointly-Gaussian instance for the lemma check."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim))
    a_bar = rng.standard_normal((dim, dim))
    k = int(rng.integers(1, dim + 1))
    return AppendixInstance(
        cov_w=a @ a.T,
        cov_w_bar=a_bar @ a_bar.T,
        functional=rng.standard_normal(2 * dim),
        conditioning=rng.standard_normal((k, dim)),
    )


def appendix_check(instance: AppendixInstance,
                   tol: float = DEFAULT_TOL) -> VerificationReport:
    """Conditioning on the sum leaves at least the variance of conditioning
    on the parts, and the conditional variance ignores the pinned value."""
    joint = GaussianVector(
        np.zeros(2 * instance.dim),
        scipy.linalg.block_diag(instance.cov_w, instance.cov_w_bar))
    hat_rows, split_rows = map(ConstraintSet,
                               _coarse_and_fine_rows(instance.conditioning))
    var_hat, var_split = (
        linear_functional_variance(condition_on_zero(joint, rows),
                                   instance.functional)
        for rows in (hat_rows, split_rows))
    # Conditioned variances are judged against the unconditioned c' cov c:
    # within its rounding they are point masses, and zero by the lemma when
    # the functional is pinned.
    prior = linear_functional_variance(joint, instance.functional)
    h_hat = entropy_scalar(var_hat, VARIANCE_CLAMP * prior)
    h_split = entropy_scalar(var_split, VARIANCE_CLAMP * prior)

    # The conditional covariance formula has no dependence on the pinned
    # value; witness it at a second, reachable value.
    gram = hat_rows.rows @ joint.covariance @ hat_rows.rows.T
    alt_value = gram @ np.ones(hat_rows.n_constraints)
    cond_alt = condition_on_value(joint, hat_rows, alt_value)
    var_hat_alt = linear_functional_variance(cond_alt, instance.functional)

    quantities = (
        ("var_given_hat", var_hat),
        ("var_given_split", var_split),
        ("h_given_hat", h_hat),
        ("h_given_split", h_split),
        ("var_given_hat_alt", var_hat_alt),
    )
    return _judged("appendix_lemma", quantities, [
        ("var_given_hat", ">=", "var_given_split", prior),
        ("h_given_hat", ">=", "h_given_split", 1.0),
        ("var_given_hat", "==", "var_given_hat_alt", prior),
    ], tol)


def monte_carlo_variance_check(graph: Multigraph, r, a: int, b: int,
                               count: int, seed: int) -> VerificationReport:
    """Statistical route: a potential difference d has mean 0, so sum(d^2) /
    reff is chi-square(count), exactly; test it at two-sided level MC_ALPHA."""
    net = ResistiveNetwork(graph, np.asarray(r, dtype=float))
    field = build_free_field(net)
    functional = potential_difference_functional(field, a, b)
    # Block by block: memory does not grow with count.
    squares = sum(d @ d for d in
                  functional_draws(field.factor, functional, count, seed))
    # Late: at import it slows CLI start, before the draws it adds peak RSS.
    from scipy.special import chdtri
    reff = effective_resistance(net, a, b)
    quantities = (
        ("reff", reff),
        ("empirical_variance", float(squares / count)),
        ("variance_low", float(reff * chdtri(count, 1 - MC_ALPHA / 2) / count)),
        ("variance_high", float(reff * chdtri(count, MC_ALPHA / 2) / count)),
        ("sample_count", float(count)),
    )
    return _judged("monte_carlo_variance", quantities, [
        ("empirical_variance", ">=", "variance_low"),
        ("empirical_variance", "<=", "variance_high"),
    ], 0.0)


# --- randomized desk-scale instance generation -----------------------------

R_LOW, R_HIGH = 0.1, 10.0
MAX_VERTICES, MAX_EDGES = 8, 16


def random_resistances(rng, n_edges: int,
                       low: float = R_LOW, high: float = R_HIGH) -> np.ndarray:
    """Log-uniform resistances on [low, high]."""
    return np.exp(rng.uniform(math.log(low), math.log(high), n_edges))


def random_network(rng, max_vertices: int = MAX_VERTICES,
                   max_edges: int = MAX_EDGES) -> ResistiveNetwork:
    """Random connected multigraph (parallel edges allowed) with log-uniform
    resistances; a random spanning tree guarantees connectivity."""
    n_v = int(rng.integers(2, max_vertices + 1))
    specs = [(int(rng.integers(0, v)), v) for v in range(1, n_v)]
    specs += [random_pair(rng, n_v) for _ in
              range(int(rng.integers(0, max_edges - (n_v - 1) + 1)))]
    graph = build_multigraph(list(range(n_v)), specs)
    return ResistiveNetwork(graph, random_resistances(rng, graph.n_edges))


def random_pair(rng, n_vertices: int) -> tuple:
    """An ordered pair of distinct vertices, uniform over all such pairs."""
    a = int(rng.integers(0, n_vertices))
    b = int(rng.integers(0, n_vertices - 1))
    if b >= a:
        b += 1
    return a, b


def instance_rng(suite_seed: int, index: int):
    """Deterministic per-instance generator derived from (suite seed, index)."""
    return np.random.default_rng((suite_seed, index))


SUITE_CHECKS = ("superadditivity", "melvin_chain", "entropy_chain",
                "scaling", "monotonicity", "concavity")
SUITE_GRID_POINTS = 11


def _suite_instance(seed: int, index: int, unit: float = 1.0) -> tuple:
    """``(graph, r, r_bar, a, b, edge, delta)`` of suite instance ``index``,
    its resistances and resistance bump given in ``unit`` ohms."""
    rng = instance_rng(seed, index)
    net = random_network(rng)
    graph, r = net.graph, unit * net.resistances
    r_bar = unit * random_resistances(rng, graph.n_edges)
    a, b = random_pair(rng, graph.n_vertices)
    edge = int(rng.integers(0, graph.n_edges))
    delta = unit * float(rng.uniform(0.1, 2.0))
    return graph, r, r_bar, a, b, edge, delta


def _suite_reports(graph: Multigraph, r, r_bar, a: int, b: int, edge: int,
                   delta: float, tol: float, grid_points: int):
    """(check name, report) of every suite check on one instance."""
    yield "superadditivity", check_superadditivity(graph, r, r_bar, a, b, tol)
    yield "melvin_chain", melvin_chain(graph, r, r_bar, a, b, tol)
    yield "entropy_chain", entropy_chain(graph, r, r_bar, a, b, tol)
    for t in (0.5, 2.0, 10.0):
        yield "scaling", check_scaling(graph, r, t, a, b, tol)
    yield "monotonicity", check_monotonicity(graph, r, edge, delta, a, b, tol)
    yield "concavity", check_concavity_segment(graph, r, r_bar, grid_points,
                                               a, b, tol)


def run_suite(seed: int, instances: int, tol: float = DEFAULT_TOL) -> dict:
    """Randomized property battery over desk-scale networks.

    Returns a summary mapping each check name to its failure count and the
    worst signed margin seen, plus an overall pass flag.
    """
    summary = {name: {"failures": 0, "worst_margin": math.inf}
               for name in SUITE_CHECKS}

    def absorb(name: str, report: VerificationReport):
        entry = summary[name]
        if not report.passed:
            entry["failures"] += 1
        for ineq in report.inequalities:
            margin = ineq.margin
            if isinstance(margin, float) and math.isnan(margin):
                margin = -math.inf
            if ineq.rel == "==":
                margin = -abs(margin)
            entry["worst_margin"] = min(entry["worst_margin"], margin)

    for i in range(instances):
        for name, report in _suite_reports(*_suite_instance(seed, i), tol,
                                           SUITE_GRID_POINTS):
            absorb(name, report)

    overall = all(entry["failures"] == 0 for entry in summary.values())
    return {
        "name": "suite",
        "seed": seed,
        "instances": instances,
        "tolerance": tol,
        "checks": summary,
        "pass": overall,
    }
