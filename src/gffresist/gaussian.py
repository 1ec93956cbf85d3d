"""Multivariate Gaussian calculus with first-class singular covariances.

Conditioning on linear statistics is done through the square root of the
covariance: with S = cov^(1/2) and B = M S, the conditional covariance is
S (I - P) S where P projects onto the row space of B. This equals the
textbook pseudo-inverse form cov - cov M' (M cov M')^+ M cov but stays
symmetric PSD by construction; condition_on_value takes P from a thin SVD
of B, whose singular-value cutoff absorbs linearly dependent constraint
rows. condition_diagonal keeps only the factor, for an independent Gaussian
whose square root is diagonal, and takes P from a Householder QR of B':
its rows must be linearly independent, as circuit rows are.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InconsistentConstraintError,
    NegativeVarianceError,
    NonpositiveVarianceError,
    ValidationError,
)

SYMMETRY_TOL = 1e-12
PSD_TOL = 1e-10
# Eigenvalues of M cov M' below EIG_CUTOFF * largest count as zero; the
# equivalent singular-value cutoff on B = M cov^(1/2) is its square root.
EIG_CUTOFF = 1e-12
# condition_diagonal's test for a dependent row, on |diag(R)| / max|diag(R)|.
# Rounding leaves a dependent 0/+-1 row below 20 k eps (4e-12 at k = 961);
# a circuit row stays above min s / (max s sqrt(cycle length)), 2e-6 on the
# 150 test networks at resistance span 1e12.
RANK_CUTOFF = 1e-10
VARIANCE_CLAMP = 1e-12
INCONSISTENCY_TOL = 1e-8
DRAW_BLOCK = 1 << 19  # normals functional_draws draws at once (4 MB)


@functools.total_ordering
class DegenerateEntropy:
    """Entropy of a point mass: a distinguished signal, not a numeric -inf.

    Compares equal to itself and strictly below every real number, so
    entropy chains can order degenerate and finite values explicitly.
    """

    __slots__ = ()

    def __repr__(self):
        return "DegenerateEntropy"

    def __eq__(self, other):
        return isinstance(other, DegenerateEntropy)

    def __hash__(self):
        return hash(DegenerateEntropy)

    def __lt__(self, other):
        if isinstance(other, DegenerateEntropy):
            return False
        if isinstance(other, (int, float)):
            return True
        return NotImplemented


DEGENERATE_ENTROPY = DegenerateEntropy()


@dataclass(frozen=True)
class GaussianVector:
    """Mean vector plus symmetric PSD covariance; rank deficiency is legal."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).copy()
        cov = np.asarray(self.covariance, dtype=float).copy()
        if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
            raise DimensionMismatchError(
                f"mean shape {mean.shape} and covariance shape {cov.shape} "
                "do not describe one Gaussian vector")
        # Both tolerances scale with the covariance itself, so a Gaussian is
        # accepted or rejected whatever its units.
        scale = float(np.max(np.abs(cov), initial=0.0))
        if np.max(np.abs(cov - cov.T), initial=0.0) > SYMMETRY_TOL * scale:
            raise ValidationError("covariance is not symmetric")
        cov = 0.5 * (cov + cov.T)
        if cov.size:
            eigs = np.linalg.eigvalsh(cov)
            if eigs[0] < -PSD_TOL * max(-eigs[0], eigs[-1]):
                raise ValidationError(
                    f"covariance has eigenvalue {eigs[0]:.3e}, not PSD")
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)

    @property
    def dim(self) -> int:
        return self.mean.size


@dataclass(frozen=True)
class ConstraintSet:
    """Rows of linear functionals to be pinned to given values (usually 0)."""

    rows: np.ndarray

    def __post_init__(self):
        rows = np.atleast_2d(np.asarray(self.rows, dtype=float)).copy()
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    @property
    def n_constraints(self) -> int:
        return self.rows.shape[0]


def independent_gaussian(variances) -> GaussianVector:
    """Mean-zero Gaussian with independent coordinates of the given variances."""
    v = np.asarray(variances, dtype=float)
    if np.any(v <= 0):
        raise NonpositiveVarianceError(
            "independent coordinates need strictly positive variances; "
            "degeneracy only arises through conditioning")
    return GaussianVector(np.zeros(v.size), np.diag(v))


def sum_independent(g1: GaussianVector, g2: GaussianVector) -> GaussianVector:
    """Law of the sum of two independent Gaussian vectors."""
    if g1.dim != g2.dim:
        raise DimensionMismatchError(f"dimensions {g1.dim} and {g2.dim} differ")
    return GaussianVector(g1.mean + g2.mean, g1.covariance + g2.covariance)


def condition_on_value(g: GaussianVector, m: ConstraintSet,
                       values) -> GaussianVector:
    """Gaussian conditional law given the linear statistics M x = values.

    The conditional covariance does not depend on ``values``; the mean
    shifts by cov M' (M cov M')^+ (values - M mean). Raises
    InconsistentConstraintError when the requested values lie outside the
    support of M x (a probability-zero conditioning event).
    """
    rows = m.rows
    if rows.shape[0] == 0:
        return g
    if rows.shape[1] != g.dim:
        raise DimensionMismatchError(
            f"constraint rows have {rows.shape[1]} columns, Gaussian has "
            f"dimension {g.dim}")
    try:
        values = np.broadcast_to(np.asarray(values, dtype=float),
                                 (rows.shape[0],))
    except ValueError:
        raise DimensionMismatchError(
            f"expected {rows.shape[0]} conditioning values") from None

    eigs, q = np.linalg.eigh(g.covariance)
    eigs = np.clip(eigs, 0.0, None)
    sqrt_cov = (q * np.sqrt(eigs)) @ q.T
    u, s, vt = np.linalg.svd(rows @ sqrt_cov, full_matrices=False)
    # Constraint directions whose variance is negligible relative to the
    # ambient covariance count as already satisfied; anchoring the cutoff
    # to the ambient scale (not just to max(s)) makes re-conditioning on
    # satisfied constraints a no-op instead of a noise amplifier.
    spread = math.sqrt(eigs.max(initial=0.0)) * float(
        np.max(np.linalg.norm(rows, axis=1), initial=0.0))
    cutoff = math.sqrt(EIG_CUTOFF) * max(s[0] if s.size else 0.0, spread)
    kept = int(np.sum(s > cutoff))
    u_r, s_r, vt_r = u[:, :kept], s[:kept], vt[:kept]

    offset = values - rows @ g.mean
    residual = offset - u_r @ (u_r.T @ offset)
    # Relative to the constraint's own spread, so the verdict has no units.
    tol = INCONSISTENCY_TOL * max(spread, float(np.max(np.abs(values))),
                                  float(np.max(np.abs(rows @ g.mean))))
    if np.max(np.abs(residual), initial=0.0) > tol:
        raise InconsistentConstraintError(
            "conditioning values are unreachable: a constraint has zero "
            "variance but a nonzero offset under this Gaussian")

    mean = g.mean
    if s_r.size:
        mean = mean + sqrt_cov @ (vt_r.T @ ((u_r.T @ offset) / s_r))
    # The Gram form keeps c' cov c within rounding of trace(cov) |c|^2 of a
    # nonnegative value, the scale linear_functional_variance clamps at.
    projected = sqrt_cov - (sqrt_cov @ vt_r.T) @ vt_r
    return GaussianVector(mean, projected @ projected.T)


def condition_on_zero(g: GaussianVector, m: ConstraintSet) -> GaussianVector:
    """Conditional law of g given that every constraint functional equals 0."""
    return condition_on_value(g, m, np.zeros(m.n_constraints))


def linear_functional_variance(g: GaussianVector, c) -> float:
    """Variance c' cov c of a linear functional; tiny negatives clamp to 0."""
    c = np.asarray(c, dtype=float)
    if c.shape != (g.dim,):
        raise DimensionMismatchError(
            f"functional has shape {c.shape}, Gaussian has dimension {g.dim}")
    var = float(c @ g.covariance @ c)
    if var < 0:
        if var < -VARIANCE_CLAMP * float(np.trace(g.covariance) * (c @ c)):
            raise NegativeVarianceError(f"functional variance {var:.3e} < 0")
        var = 0.0
    return var


def condition_diagonal(variances, rows) -> tuple:
    """Factor (s, q) of the independent Gaussian with these variances given
    rows . x = 0: s = sqrt(variances) and q, the Householder QR basis of
    col(diag(s) rows'). O(E k^2) for k rows.

    The k rows must be linearly independent, as every circuit-row stack is:
    each row of C, [C, C] or blockdiag(C, C) owns a chord column with entry
    1. A diagonal entry of R at or below RANK_CUTOFF times the largest marks
    a dependent row and raises ValidationError: unpivoted QR does not drop
    it, so q would gain a spurious direction. Not the normal equations
    c'Dc - y'(C D C')^-1 y: that is the cycle-Gram solve of
    min_energy_flow_oracle, and the free-field route would then share its
    arithmetic with the flow route it cross-checks.
    """
    s = np.sqrt(np.asarray(variances, dtype=float))
    q, r = np.linalg.qr((rows * s).T)
    diag = np.abs(np.diagonal(r))
    if q.shape[1] < len(rows) or np.any(
            diag <= RANK_CUTOFF * diag.max(initial=0.0)):
        raise ValidationError(
            f"the {len(rows)} conditioning rows are linearly dependent")
    return s, q


def functional_root(factor: tuple, c) -> np.ndarray:
    """u = w - q q' w, w = s c: under condition_diagonal, c . x = u . z; a
    stack of rows c gets one root per row, and u u' is their covariance."""
    s, q = factor
    w = s * np.asarray(c, dtype=float)
    return w - (q @ (q.T @ w.T)).T


def conditioned_variance(factor: tuple, c) -> float:
    """Variance |u|^2 of c . x under condition_diagonal: its rounding error
    is about eps |w| |u|, where w . u would lose eps |w|^2 on a wide span."""
    u = functional_root(factor, c)
    return float(u @ u)


def functional_draws(factor: tuple, c, count: int, seed: int):
    """Yield ``count`` draws u . z of c . x under condition_diagonal in
    blocks of at most DRAW_BLOCK normals z: one ``default_rng(seed)`` stream
    whatever the blocks, in O(DRAW_BLOCK) memory."""
    if count < 1:
        raise ValidationError("need at least one sample")
    u = functional_root(factor, c)
    rng = np.random.default_rng(seed)
    block = max(1, DRAW_BLOCK // u.size)  # rows of z
    for start in range(0, count, block):
        yield rng.standard_normal((min(block, count - start), u.size)) @ u


def entropy_scalar(variance: float, tol: float = 0.0):
    """Differential entropy (nats) of a scalar Gaussian with this variance.

    Returns 0.5 * ln(2*pi*e*variance) for variance > tol, the
    DEGENERATE_ENTROPY signal at or below tol. The default threshold 0.0
    makes only a zero variance a point mass, in any units; a caller whose
    variances carry rounding error passes a threshold on their scale.
    """
    if variance < 0:
        raise NegativeVarianceError(f"variance {variance:.3e} is negative")
    if variance <= tol:
        return DEGENERATE_ENTROPY
    return 0.5 * math.log(2.0 * math.pi * math.e * variance)


def sample(g: GaussianVector, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` rows from g, reproducibly for a fixed (g, count, seed).

    Draws mean + Q sqrt(L) z through the covariance eigendecomposition, so
    singular covariances sample on their support. The generator is numpy's
    PCG64 (``numpy.random.default_rng``); identical inputs give bit-identical
    output on one build, cross-build bit-identity is not promised.
    """
    if count < 1:
        raise ValidationError("need at least one sample")
    eigs, q = np.linalg.eigh(g.covariance)
    root = q * np.sqrt(np.clip(eigs, 0.0, None))
    z = np.random.default_rng(seed).standard_normal((count, g.dim))
    return g.mean + z @ root.T
