"""Centred multivariate Gaussians with first-class singular covariances.

Every Gaussian here has mean zero and is conditioned on M x = 0, as the
free field is; the conditional covariance would be the same for any
reachable value of M x. Conditioning is done through the square root of
the covariance: with S = cov^(1/2) and B = M S, the conditional covariance is
S (I - P) S where P projects onto the row space of B. This equals the
textbook pseudo-inverse form cov - cov M' (M cov M')^+ M cov but stays
symmetric PSD by construction; condition_on_value takes P from a thin SVD
of B, whose singular-value cutoff absorbs linearly dependent constraint
rows. condition_diagonal keeps only the factor, for an independent Gaussian
whose square root is diagonal: P = Q Q' for the Householder QR of B',
kept in LAPACK's compact form (the reflectors, never Q itself) and applied
through them; the rows of M must be linearly independent, as circuit
rows are. It takes M as a graph.RowMergePlan of M's nonzeros
(graph.cycle_plan for circuit rows), which scatters B' = diag(s) M' panel
by panel into the zeroed stacks QR then overwrites, so no M and no E x k
matrix is held. A factor is (s, blocks): s and a sequence of Blocks, one
per panel, each the reflectors of one stack, acting on the coordinates
its ``rows`` name, with its ``kept`` leading rows final rows of R. Q' w
keeps its part in col(B) at those kept coordinates and the residual at
the free ones. condition_block_diagonal, the one constructor, appends the
panels of an independent block with its own coordinates and QR-factors
only them; condition_diagonal appends them to the empty factor. dgeqrf
and dormqr are scipy's own wrappers, loaded by ``_lapack``.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._lapack import dgeqrf, dormqr
from .errors import (
    DimensionMismatchError,
    NegativeVarianceError,
    NonpositiveVarianceError,
    SingularSystemError,
    ValidationError,
)
from .graph import check_at_least

SYMMETRY_TOL = 1e-12
PSD_TOL = 1e-10
# The rank rule of both conditioning paths: a direction of B = M cov^(1/2)
# at or below RANK_CUTOFF times its scale counts as dependent. For
# condition_diagonal the scale is max|diag(R)| of the QR of B'; for
# condition_on_value it is the larger of the top singular value and the
# ambient spread. Rounding leaves a dependent 0/+-1 row below 20 k eps
# (4e-12 at k = 961); a circuit row stays above min s / (max s sqrt(cycle
# length)), 2e-6 on the 150 test networks at resistance span 1e12.
RANK_CUTOFF = 1e-10
VARIANCE_CLAMP = 1e-12
DRAW_BLOCK = 1 << 15  # normals functional_draws draws at once (256 KB)


@dataclass(frozen=True)
class GaussianVector:
    """Centred Gaussian: a symmetric PSD covariance, rank deficiency legal,
    stored as its upper triangle mirrored: no entry overflows in the sum."""

    covariance: np.ndarray

    def __post_init__(self):
        cov = np.asarray(self.covariance, dtype=float).copy()
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise DimensionMismatchError(
                f"covariance rows and columns of shape {cov.shape} do not "
                "describe one Gaussian vector")
        if not np.all(np.isfinite(cov)):
            raise ValidationError("covariance has a non-finite entry")
        # Both tolerances scale with the covariance itself, so a Gaussian is
        # accepted or rejected whatever its units.
        scale = float(np.max(np.abs(cov), initial=0.0))
        if np.max(np.abs(cov - cov.T), initial=0.0) > SYMMETRY_TOL * scale:
            raise ValidationError("covariance is not symmetric")
        cov = np.triu(cov) + np.triu(cov, 1).T
        if cov.size:
            eigs = np.linalg.eigvalsh(cov)
            if eigs[0] < -PSD_TOL * max(-eigs[0], eigs[-1]):
                raise ValidationError(
                    f"covariance has eigenvalue {eigs[0]:.3e}, not PSD")
        cov.setflags(write=False)
        object.__setattr__(self, "covariance", cov)

    @property
    def dim(self) -> int:
        return self.covariance.shape[0]


def independent_gaussian(variances) -> GaussianVector:
    """Centred Gaussian with independent coordinates of the given variances."""
    v = np.asarray(variances, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValidationError("variances have a non-finite entry")
    if np.any(v <= 0):
        raise NonpositiveVarianceError(
            "independent coordinates need strictly positive variances; "
            "degeneracy only arises through conditioning")
    return GaussianVector(np.diag(v))


def condition_on_value(g: GaussianVector, rows) -> GaussianVector:
    """Gaussian conditional law given the linear statistics M x = 0, M the
    2-D float array of ``rows`` (one row may be given flat). The law stays
    centred; its covariance would be the same for any reachable value."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.shape[0] == 0:
        return g
    if rows.shape[1] != g.dim:
        raise DimensionMismatchError(
            f"constraint rows have {rows.shape[1]} columns, Gaussian has "
            f"dimension {g.dim}")
    if not np.all(np.isfinite(rows)):
        raise ValidationError("constraint rows have a non-finite entry")

    eigs, q = np.linalg.eigh(g.covariance)
    eigs = np.clip(eigs, 0.0, None)
    sqrt_cov = (q * np.sqrt(eigs)) @ q.T
    _, s, vt = np.linalg.svd(rows @ sqrt_cov, full_matrices=False)
    # Constraint directions whose variance is negligible relative to the
    # ambient covariance count as already satisfied; anchoring the cutoff
    # to the ambient scale (not just to max(s)) makes re-conditioning on
    # satisfied constraints a no-op instead of a noise amplifier.
    spread = math.sqrt(eigs.max(initial=0.0)) * float(
        np.max(np.linalg.norm(rows, axis=1), initial=0.0))
    cutoff = RANK_CUTOFF * max(s[0] if s.size else 0.0, spread)
    vt_r = vt[:int(np.sum(s > cutoff))]
    # The Gram form keeps c' cov c within rounding of trace(cov) |c|^2 of a
    # nonnegative value, the scale linear_functional_variance clamps at.
    projected = sqrt_cov - (sqrt_cov @ vt_r.T) @ vt_r
    return GaussianVector(projected @ projected.T)


def linear_functional_variance(g: GaussianVector, c) -> float:
    """Variance c' cov c of a linear functional; tiny negatives clamp to 0,
    and a variance past the double range raises SingularSystemError."""
    c = np.asarray(c, dtype=float)
    if c.shape != (g.dim,):
        raise DimensionMismatchError(
            f"functional has shape {c.shape}, Gaussian has dimension {g.dim}")
    if not np.all(np.isfinite(c)):
        raise ValidationError("functional has a non-finite entry")
    with np.errstate(over="ignore"):
        var = float(c @ g.covariance @ c)
    if not math.isfinite(var):
        raise SingularSystemError(
            "functional variance is not finite: past the double range")
    if var < 0:
        if var < -VARIANCE_CLAMP * float(np.trace(g.covariance) * (c @ c)):
            raise NegativeVarianceError(f"functional variance {var:.3e} < 0")
        var = 0.0
    return var


class Block(NamedTuple):
    """One panel of a factor: the compact QR (h, tau) of the stack whose
    rows stand for the coordinates ``rows``. The first ``kept`` of them
    hold final rows of R: Q' w holds its part in col(B) there."""

    rows: np.ndarray
    kept: int
    h: np.ndarray
    tau: np.ndarray


def condition_diagonal(variances, plan) -> tuple:
    """Factor (s, blocks) of the independent Gaussian with these variances
    given M x = 0 for the k rows M of ``plan`` (graph.cycle_plan for
    circuit rows): s = sqrt(variances) and one Block per panel of the
    row-merge Householder QR of B = diag(s) M', whose reflectors Q span
    col(B), never formed: condition_block_diagonal on the empty factor,
    the one path that builds reflector blocks. A one-panel plan is one
    dgeqrf of B, in O(E k^2); PANEL-column panels over a band of width w
    cost O(E w^2).

    The k rows must be linearly independent, as every circuit-row stack is:
    each row of C, [C, C] or blockdiag(C, C) owns a chord column with entry
    1. More rows than coordinates, or a final diagonal entry of R at or
    below RANK_CUTOFF times the largest, marks a dependent row and raises
    ValidationError: unpivoted QR does not drop it, so Q would gain a
    spurious direction. Not the normal equations c'Dc - y'(C D C')^-1 y:
    that is the cycle-Gram solve of min_energy_flow_oracle, and the
    free-field route would then share its arithmetic with the flow route it
    cross-checks.
    """
    return condition_block_diagonal((np.zeros(0), ()), variances, plan)


def condition_block_diagonal(factor: tuple, variances, plan) -> tuple:
    """Factor of the pair (x, y) given the rows of ``factor`` on x and the
    k rows M . y = 0 of ``plan``, for y independent of x with these
    variances: ``factor`` with the panels of one QR of the new block
    appended, the same projector as condition_diagonal's for
    blockdiag(rows of x, M), never assembled into one matrix.

    Each panel is one dgeqrf of its stack: the rows of R the panel before
    it carried, then the rows entering, whose entries the plan scatters
    scaled by s. It finalizes ``kept`` rows of R and carries the rest, so
    a band of width w costs O(E w^2), not the O(E k^2) of the dense QR
    (George & Heath, Linear Algebra Appl. 34, 1980). Householder QR
    follows the zero blocks of blockdiag(B, D) (Golub & Van Loan, Matrix
    Computations, 4th ed., 5.1-5.2): the reflectors of B never reach the
    rows of y, so they are ``factor``'s own, and the new ones are the QR
    of P = [0; D], D below zero slot rows at the free positions of x,
    where B's residual lives. Slot j enters at column j, so the pivots
    mix the two fields; a one-panel plan makes the stack P itself, one
    dgeqrf. The rank rule judges the final |diag R| of both factors
    together against its largest entry, as for the whole matrix.
    """
    s1, blocks = factor
    s2 = np.sqrt(np.asarray(variances, dtype=float))
    if s2.shape != (plan.size,):
        raise DimensionMismatchError(
            f"{s2.size} variances for rows on {plan.size} coordinates")
    free = _free(factor)
    positions = np.concatenate([free, np.arange(s1.size, s1.size + s2.size)])
    carried = np.zeros((0, 0))
    for panel in plan.panels(free.size):
        stack = np.zeros((panel.rows.size, panel.columns), order="F")
        stack[:len(carried), :carried.shape[1]] = carried
        stack.reshape(-1, order="F")[panel.flat] = (s2[panel.source]
                                                    * panel.value)
        h, tau = _compact_qr(stack)
        blocks += (Block(positions[panel.rows], panel.kept, h, tau),)
        carried = np.triu(h[panel.kept:tau.size, panel.kept:])
    return _independent((np.concatenate([s1, s2]), blocks),
                        s1.size - free.size + plan.k)


def _compact_qr(b: np.ndarray) -> tuple:
    """(h, tau) of dgeqrf on b, in place when b is Fortran-ordered, with the
    workspace its lwork=-1 query asks for (the default 3n words is 4x
    slower at E x k = 1984 x 961)."""
    lwork = int(dgeqrf(b, lwork=-1, overwrite_a=True)[2][0])
    h, tau, _, _ = dgeqrf(b, lwork=lwork, overwrite_a=True)
    return h, tau


def _kept(factor: tuple) -> np.ndarray:
    """The positions of every final row of R: Q' w's part in col(B)."""
    return np.concatenate([block.rows[:block.kept] for block in factor[1]]
                          or [np.zeros(0, dtype=int)])


def _free(factor: tuple) -> np.ndarray:
    """The other positions, increasing: Q' w's residual part."""
    free = np.ones(factor[0].size, dtype=bool)
    free[_kept(factor)] = False
    return np.flatnonzero(free)


def _independent(factor: tuple, k: int) -> tuple:
    """``factor`` once its k rows pass the rank rule on the final |diag R|
    of all its blocks. dgeqrf keeps min(m, n) reflectors of an m x n stack,
    so a panel with fewer than ``kept`` shows more rows than coordinates."""
    blocks = factor[1]
    diag = np.abs(np.concatenate(
        [np.diagonal(block.h)[:block.kept] for block in blocks] or [[]]))
    if any(block.tau.size < block.kept for block in blocks) or np.any(
            diag <= RANK_CUTOFF * diag.max(initial=0.0)):
        raise ValidationError(
            f"the {k} conditioning rows are linearly dependent")
    return factor


def _reflected(factor: tuple, w: np.ndarray, trans: str) -> np.ndarray:
    """Q' w (trans "T") or Q w (trans "N") for the columns of w, in place:
    Q' applies the blocks in order, Q in reverse, each by one dormqr on its
    own rows of w, gathered and written back. The minimum workspace, one
    word per column, keeps dormqr unblocked."""
    blocks = factor[1]
    for block in blocks if trans == "T" else blocks[::-1]:
        w[block.rows] = dormqr("L", trans, block.h[:, :block.tau.size],
                               block.tau, w[block.rows], w.shape[1],
                               overwrite_c=True)[0]
    return w


def _scaled_columns(factor: tuple, c) -> np.ndarray:
    """w = s c, one column per functional: (s c').T is Fortran-ordered. The
    reflector kernel's one check of its functionals."""
    c = np.asarray(c, dtype=float)
    s = factor[0]
    if c.ndim not in (1, 2) or c.shape[-1] != s.size:
        raise DimensionMismatchError(
            f"functional has shape {c.shape}, Gaussian has dimension {s.size}")
    if not np.all(np.isfinite(c)):
        raise ValidationError("functional has a non-finite entry")
    return (s * np.atleast_2d(c)).T


def functional_root(factor: tuple, c) -> np.ndarray:
    """u = w - Q Q' w, w = s c: under condition_diagonal, c . x = u . z; a
    stack of rows c gets one root per row, and u u' is their covariance.
    Q Q' w is Q applied to the kept coordinates of Q' w, so u is Q
    applied to Q' w with those coordinates zeroed."""
    w = _reflected(factor, _scaled_columns(factor, c), "T")
    w[_kept(factor)] = 0.0
    w = _reflected(factor, w, "N")
    return w[:, 0] if np.ndim(c) == 1 else w.T


def conditioned_variance(factor: tuple, c) -> float:
    """Variance |u|^2 of c . x under condition_diagonal, read as the squared
    norm of the E - k free coordinates of Q' w (Q is orthogonal): the
    least-squares residual, with rounding error about eps |w| |u|, where
    w . u would lose eps |w|^2 on a wide span. One functional only; a
    variance past the double range raises SingularSystemError."""
    if np.ndim(c) != 1:
        raise DimensionMismatchError(
            f"one functional expected, got shape {np.shape(c)}")
    tail = _reflected(factor, _scaled_columns(factor, c), "T")[
        _free(factor), 0]
    with np.errstate(over="ignore"):
        variance = float(tail @ tail)
    if not math.isfinite(variance):
        raise SingularSystemError(
            "conditioned variance is not finite: the variances exceed the "
            "double range")
    return variance


def functional_draws(factor: tuple, c, count: int, seed: int):
    """An iterator of ``count`` draws u . z of c . x under condition_diagonal
    in blocks of at most DRAW_BLOCK normals z: one ``default_rng(seed)``
    stream whatever the blocks, in O(DRAW_BLOCK) memory. ``count`` is an
    integer of at least 1 and ``seed`` one of at least 0 (``check_at_least``),
    and they and the functional are checked when this is called."""
    check_at_least(count, "sample count", 1)
    check_at_least(seed, "seed", 0)
    u = functional_root(factor, c)
    rng = np.random.default_rng(seed)
    block = max(1, DRAW_BLOCK // u.size)  # rows of z
    return (rng.standard_normal((min(block, count - start), u.size)) @ u
            for start in range(0, count, block))


def entropy_scalar(variance: float, tol: float = 0.0) -> float:
    """Differential entropy (nats) of a scalar Gaussian with this variance.

    Returns 0.5 * (ln(2*pi*e) + ln(variance)), a sum that cannot overflow,
    for variance > tol, and -inf, the entropy of a point mass, at or below
    tol. The default threshold 0.0 makes only a zero variance a point mass,
    in any units; a caller whose variances carry rounding error passes a
    threshold on their scale.
    """
    if variance < 0:
        raise NegativeVarianceError(f"variance {variance:.3e} is negative")
    if variance <= tol:
        return -math.inf
    return 0.5 * (math.log(2.0 * math.pi * math.e) + math.log(variance))


def sample(g: GaussianVector, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` rows from g, reproducibly for a fixed (g, count, seed).

    Draws Q sqrt(L) z through the covariance eigendecomposition, so
    singular covariances sample on their support. The generator is numpy's
    PCG64 (``numpy.random.default_rng``); identical inputs give bit-identical
    output on one build, cross-build bit-identity is not promised.
    ``count`` is an integer of at least 1 and ``seed`` one of at least 0
    (``check_at_least``), checked before anything is computed.
    """
    check_at_least(count, "sample count", 1)
    check_at_least(seed, "seed", 0)
    eigs, q = np.linalg.eigh(g.covariance)
    root = q * np.sqrt(np.clip(eigs, 0.0, None))
    z = np.random.default_rng(seed).standard_normal((count, g.dim))
    return z @ root.T
