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
    VoltageVector,
    dissipated_power,
    effective_resistance,
    ohm_flow,
    stacked_voltages,
)
from .errors import (
    DimensionMismatchError,
    SingularSystemError,
    SizeLimitExceededError,
    ValidationError,
)
from .gaussian import (
    VARIANCE_CLAMP,
    GaussianVector,
    condition_block_diagonal,
    condition_diagonal,
    condition_on_value,
    conditioned_variance,
    entropy_scalar,
    functional_draws,
    linear_functional_variance,
)
from .gff import build_free_field, potential_difference_variance
from .graph import (
    Multigraph,
    build_multigraph,
    check_index,
    cycle_plan,
    tree_walk_vector,
)

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
    appendix lemma's variances. Two point-mass entropies (-inf) tie with
    margin 0; a point mass against a finite entropy has an infinite margin,
    serialized as null.
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
            return value if math.isfinite(value) else None

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
    the larger operand magnitude, which an entropy relation must override:
    a point-mass entropy is -inf.
    """
    if not 0.0 <= tol < math.inf:  # NaN fails too, as for the CLI's --tol
        raise ValidationError(f"tolerance must be finite and >= 0, got {tol}")
    values = dict(quantities)
    ineqs = []
    for lhs, rel, rhs, *scale in relations:
        x, y = values[lhs], values[rhs]
        if rel == "<=":
            x, y = y, x
        # Two point masses tie, where -inf - -inf would be NaN.
        margin = 0.0 if x == y else x - y
        bound = tol * (scale[0] if scale else max(abs(x), abs(y)))
        holds = abs(margin) <= bound if rel == "==" else margin >= -bound
        ineqs.append(Inequality(lhs, rel, rhs, margin, bool(holds)))
    return VerificationReport(name, tuple(quantities), tuple(ineqs), tol)


def _check_at_least(value, what: str, low: int):
    """Raise ValidationError unless ``value`` is an integer index
    (``check_index``) of at least ``low``, as the CLI's options are."""
    check_index(value, what)
    if value < low:
        raise ValidationError(f"{what} {value} is below {low}")


def _derived_network(graph: Multigraph, label: str,
                     compute) -> ResistiveNetwork:
    """The network whose resistances ``compute()`` derives from valid ones;
    an invalid result names ``label``, not an edge value of the input."""
    with np.errstate(over="ignore"):
        r = compute()
    overflow = np.isinf(r)
    if overflow.any():
        raise ValidationError(
            f"{label} overflows at edges[{int(np.argmax(overflow))}]")
    try:
        return ResistiveNetwork(graph, r)
    except ValidationError as exc:
        raise ValidationError(f"{label}: {exc}") from exc


def _summed_networks(graph: Multigraph, r, r_bar) -> tuple:
    """Networks of r, r_bar and r + r_bar, checked in that order."""
    net, net_bar = ResistiveNetwork(graph, r), ResistiveNetwork(graph, r_bar)
    return net, net_bar, _derived_network(
        graph, "r + r_bar", lambda: net.resistances + net_bar.resistances)


def check_superadditivity(graph: Multigraph, r, r_bar, a: int, b: int,
                          tol: float = DEFAULT_TOL) -> VerificationReport:
    """Effective resistance of the edgewise sum dominates the sum of parts."""
    nets = _summed_networks(graph, r, r_bar)
    reff, reff_bar, reff_hat = stacked_voltages(
        graph, [net.resistances for net in nets], a, b)[:, a].tolist()
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
    checks the midpoint inequality directly, in the same stacked solve: on
    most odd grids (not 99) lambda = 0.5 is the centre's row, solved once.
    """
    _check_at_least(grid_points, "concavity grid point count", 3)
    r0, r1 = (ResistiveNetwork(graph, r).resistances for r in (r0, r1))
    lams = np.append(np.linspace(0.0, 1.0, grid_points), 0.5)[:, None]
    # Rounding can carry a convex combination past its ends, such as below
    # MIN_RESISTANCE when both ends sit on it. Clipped, each row lies
    # between two valid rows, so it is valid too.
    segment = np.clip((1.0 - lams) * r0 + lams * r1, np.minimum(r0, r1),
                      np.maximum(r0, r1))
    *f, mid = stacked_voltages(graph, segment, a, b)[:, a].tolist()
    f = np.array(f)
    second = f[:-2] - 2.0 * f[1:-1] + f[2:]
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
    net, net_bar, net_hat = _summed_networks(graph, r, r_bar)

    # One stacked solve gives each network its Thomson flow and its Reff.
    potentials = stacked_voltages(
        graph, [m.resistances for m in (net_hat, net, net_bar)], a, b)
    volts_hat, volts, volts_bar = (VoltageVector(v, b) for v in potentials)
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

    The coarse side factors [S C'; S_bar C'] whole, its 2E rows entering
    the row-merge panels of graph.cycle_plan(graph, 2) by leading column.
    The fine side's factor is that of blockdiag(C, C), built by
    condition_block_diagonal from the free field of r, whose reflectors
    are its own: one QR of the padded second block, the free positions of
    r's field as zero slot rows above S_bar C', not of the 2E x 2k matrix.
    That is one doubled factorization still, not the two separate ones of
    var + var_bar. Each free field and the coarse factor is dropped once
    its variance is read, so at most one doubled factor and one free field
    are held at a time.
    """
    graph.check_vertices(a, b)  # before the factorizations
    net, net_bar, net_hat = _summed_networks(graph, r, r_bar)
    r, r_bar = net.resistances, net_bar.resistances
    var_hat, var_bar = (
        potential_difference_variance(build_free_field(n), a, b)
        for n in (net_hat, net_bar))

    # The appendix lemma, applied to the fundamental cycle basis. The fine
    # side stays one doubled projection, so that h_joint_split == h_sum
    # compares it with the two separate free fields.
    walk_vec = tree_walk_vector(graph, a, b)
    doubled_walk = np.concatenate([walk_vec, walk_vec])
    var_joint_hat = conditioned_variance(
        condition_diagonal(np.concatenate([r, r_bar]), cycle_plan(graph, 2)),
        doubled_walk)
    field = build_free_field(net)
    var = potential_difference_variance(field, a, b)
    var_joint_split = conditioned_variance(
        condition_block_diagonal(field.factor, r_bar, cycle_plan(graph)),
        doubled_walk)

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
    net = ResistiveNetwork(graph, r)
    net_scaled = _derived_network(graph, "t * r", lambda: t * r)
    reff, reff_scaled = stacked_voltages(
        graph, [net.resistances, net_scaled.resistances], a, b)[:, a].tolist()
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
    """Raising one edge resistance never lowers the effective resistance.
    ``edge`` is an integer index (``check_index``) below the edge count."""
    if delta <= 0:
        raise ValidationError("resistance bump must be positive")
    r = np.asarray(r, dtype=float)
    check_index(edge, "edge id")
    if not 0 <= edge < graph.n_edges:
        raise ValidationError(f"edge id {edge} out of range")
    net = ResistiveNetwork(graph, r)
    net_bumped = _derived_network(
        graph, "r + delta",
        lambda: np.where(np.arange(graph.n_edges) == edge, r + delta, r))
    reff, reff_bumped = stacked_voltages(
        graph, [net.resistances, net_bumped.resistances], a, b)[:, a].tolist()
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
        n = len(cov_w) if cov_w.ndim == 2 else -1
        if cov_w.shape != (n, n) or cov_w_bar.shape != (n, n):
            raise DimensionMismatchError("covariance blocks must be square and equal-size")
        if n == 0:
            raise DimensionMismatchError(
                "covariance blocks need dimension >= 1")
        if functional.shape != (2 * n,):
            raise DimensionMismatchError(
                f"functional must have length {2 * n}, got {functional.shape}")
        if conditioning.ndim != 2 or conditioning.shape[1] != n:
            raise DimensionMismatchError(
                f"conditioning rows must have {n} columns, got shape "
                f"{conditioning.shape}")
        for name, value in (("cov_w", cov_w), ("cov_w_bar", cov_w_bar),
                            ("functional", functional),
                            ("conditioning", conditioning)):
            if not np.isfinite(value).all():
                raise ValidationError(f"{name} must be finite")
            object.__setattr__(self, name, value)


# Largest dimension random_appendix_instance draws: the lemma check is
# dense, O(dim^2) memory and O(dim^3) time.
MAX_APPENDIX_DIM = 1024


def random_appendix_instance(dim: int, seed: int) -> AppendixInstance:
    """Seeded random jointly-Gaussian instance for the lemma check. Before
    anything is drawn, a ``dim`` that is not an integer of at least 1, or
    a ``seed`` not one of at least 0, raises ValidationError, and a
    ``dim`` past MAX_APPENDIX_DIM SizeLimitExceededError."""
    _check_at_least(dim, "dimension", 1)
    _check_at_least(seed, "seed", 0)
    if dim > MAX_APPENDIX_DIM:
        raise SizeLimitExceededError(
            f"dimension {dim} is above the limit MAX_APPENDIX_DIM = "
            f"{MAX_APPENDIX_DIM} of the dense appendix check")
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
    """Conditioning on the sum leaves at least the variance, and the
    entropy, of conditioning on the parts."""
    joint = GaussianVector(
        scipy.linalg.block_diag(instance.cov_w, instance.cov_w_bar))
    hat_rows, split_rows = _coarse_and_fine_rows(instance.conditioning)
    var_hat, var_split = (
        linear_functional_variance(condition_on_value(joint, rows),
                                   instance.functional)
        for rows in (hat_rows, split_rows))
    # Conditioned variances are judged against the unconditioned c' cov c:
    # within its rounding they are point masses, and zero by the lemma when
    # the functional is pinned.
    prior = linear_functional_variance(joint, instance.functional)
    h_hat = entropy_scalar(var_hat, VARIANCE_CLAMP * prior)
    h_split = entropy_scalar(var_split, VARIANCE_CLAMP * prior)

    quantities = (
        ("var_given_hat", var_hat),
        ("var_given_split", var_split),
        ("h_given_hat", h_hat),
        ("h_given_split", h_split),
    )
    return _judged("appendix_lemma", quantities, [
        ("var_given_hat", ">=", "var_given_split", prior),
        ("h_given_hat", ">=", "h_given_split", 1.0),
    ], tol)


def monte_carlo_variance_check(graph: Multigraph, r, a: int, b: int,
                               count: int, seed: int) -> VerificationReport:
    """Statistical route: a potential difference d has mean 0, so sum(d^2) /
    reff is chi-square(count), exactly; test it at two-sided level MC_ALPHA.
    ``count`` is an integer of at least 1 and ``seed`` one of at least 0."""
    _check_at_least(count, "sample count", 1)
    _check_at_least(seed, "seed", 0)
    net = ResistiveNetwork(graph, np.asarray(r, dtype=float))
    field = build_free_field(net)
    functional = tree_walk_vector(graph, a, b)
    # Block by block: memory does not grow with count.
    with np.errstate(over="ignore"):
        squares = sum(d @ d for d in functional_draws(
            field.factor, functional, count, seed))
    if not np.isfinite(squares):
        raise SingularSystemError(
            "sample variance is not finite: the network's resistances "
            "exceed the double range")
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


SUITE_GRID_POINTS = 11


def _suite_instance(seed: int, index: int) -> tuple:
    """``(graph, r, r_bar, a, b, edge, delta)`` of suite instance ``index``."""
    rng = instance_rng(seed, index)
    net = random_network(rng)
    graph, r = net.graph, net.resistances
    r_bar = random_resistances(rng, graph.n_edges)
    a, b = random_pair(rng, graph.n_vertices)
    edge = int(rng.integers(0, graph.n_edges))
    delta = float(rng.uniform(0.1, 2.0))
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

    Returns a summary mapping each check name, in the order _suite_reports
    runs them, to its failure count and the worst signed margin seen, plus
    an overall pass flag. The count is of instances: one fails a check when
    any of that check's reports on it fails (scaling has three).
    ``seed`` is an integer of at least 0 and ``instances`` one of at least 1.
    """
    _check_at_least(seed, "seed", 0)
    _check_at_least(instances, "instance count", 1)
    summary = {}
    for i in range(instances):
        failed = set()
        for name, report in _suite_reports(*_suite_instance(seed, i), tol,
                                           SUITE_GRID_POINTS):
            entry = summary.setdefault(name, {"failures": 0,
                                              "worst_margin": math.inf})
            if not report.passed:
                failed.add(name)
            for ineq in report.inequalities:
                margin = -abs(ineq.margin) if ineq.rel == "==" else ineq.margin
                entry["worst_margin"] = min(entry["worst_margin"], margin)
        for name in failed:
            summary[name]["failures"] += 1

    overall = all(entry["failures"] == 0 for entry in summary.values())
    return {
        "name": "suite",
        "seed": seed,
        "instances": instances,
        "tolerance": tol,
        "checks": summary,
        "pass": overall,
    }
