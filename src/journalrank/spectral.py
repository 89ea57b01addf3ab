"""The citation-share operator and its stationary vectors.

The only module that knows how the share matrix S = diag(1 / row_sums) @
counts acts. ``share_step(matrix)`` is the product x -> x @ S: the power
path iterates it and the EF and AF flows apply it. ``reference_shares``
builds S densely, for the direct path.

Two independent paths solve the same fixed-point problems: dense direct
elimination (oracle-grade on small instances) and power iteration (scales
to larger ones). Tests cross-check them against each other, so keep the
implementations independent. The power path extrapolates: when its last two
steps show one real error mode, such as the slow field split of a nearly
decomposable matrix, it jumps to that mode's limit (vector Aitken
extrapolation) and measures the contraction afresh before it may stop. An
alpha = 1 solve checks irreducibility with
``core.require_irreducible``; the strongly connected components are
computed only to describe a failure. Solved vectors are not cached: every
call solves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .errors import NoConvergence, ZeroOutgoing

DIRECT_LIMIT = 64
# The values of SolverConfig.method.
METHODS = ("auto", "direct", "power")
# Share of non-zero cells below which the power path iterates over the
# non-zeros instead of the dense matrix. Measured at n = 1000-2000 (one BLAS
# thread, x86-64): a sparse step costs as much as a dense one at 9-10 %
# density, and extracting the non-zeros costs 17-26 dense steps. That
# extraction, paid once per matrix, is repaid after 40-55 steps at 5 %
# density but only after 60-95 at 7 %, so the lower cut keeps the sparse
# path ahead on a matrix solved at several dampings. Since the power path
# extrapolates, alpha = 0.85 to 1 takes about 22-73 steps at n = 1500, 1 %,
# so one lone solve near the cut may not repay the extraction; the cut has
# not been measured again with these step counts.
SPARSE_DENSITY = 0.05

# Power iteration stops once the extrapolated error (step size times
# rho/(1-rho) for contraction estimate rho) drops below the tolerance, not
# merely the step size itself: on slowly mixing chains the raw step
# understates the remaining error by 1/(1-rho). rho is the ratio of the last
# two step sizes, floored by the largest rate jumped over (below), and a step
# whose rate was not measured since the last jump never stops.
_PLATEAU_RATIO = 0.9999
_PLATEAU_PATIENCE = 50
# Vector Aitken extrapolation (Kamvar, Haveliwala, Manning & Golub, WWW 2003):
# while the step size is above the tolerance, the rate lam = <d, d'> / <d', d'>
# of the last two step differences d', d is fitted; when d - lam d' is within
# _JUMP_FIT of d in L1 (one real mode dominates) and 0 < lam < _JUMP_MAX_RATE,
# the iterate jumps to x + d lam / (1 - lam), the mode's limit, and the fit
# starts afresh. A periodic chain's modes are complex and never fit; a looser
# fit (1e-1) accepted a lam near 1 on 40- and 90-journal cycles, whose
# solves then never converged.
_JUMP_FIT = 1e-2
_JUMP_MAX_RATE = 1.0 - 1e-6


@dataclass(frozen=True)
class SolverConfig:
    """How to solve the fixed-point systems.

    tolerance is a relative L1 threshold on the solution (the iterate lives
    on the probability simplex, so absolute and relative L1 coincide).
    method "auto" picks direct elimination up to DIRECT_LIMIT journals and
    power iteration beyond.
    """

    tolerance: float = 1e-12
    max_iterations: int = 100_000
    method: str = "auto"

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")


@dataclass(frozen=True)
class SolverReport:
    """Outcome of one solve: iteration count, final step size, path taken."""

    iterations: int
    residual: float
    method_used: str


def reference_shares(matrix: core.CitationMatrix) -> np.ndarray:
    """Row-normalize the citation matrix.

    Entry [j, i] is the share of journal j's outgoing citations received by
    journal i. Raises ZeroOutgoing for the first dangling row: a journal
    without outgoing citations has no reference shares.
    """
    sums = matrix.row_sums
    dangling = np.flatnonzero(sums == 0)
    if dangling.size:
        raise ZeroOutgoing(int(dangling[0]))
    return matrix.counts / sums[:, None]


def share_step(matrix: core.CitationMatrix):
    """Return the product x -> x @ S with S the row-normalized counts.

    Below SPARSE_DENSITY non-zero cells it sums over the non-zeros alone,
    each divided by its row sum once per call of ``share_step``; denser
    inputs use the dense ``(x / row_sums) @ counts``. Meaningful once every
    row sum is positive.
    """
    n = matrix.n
    sums = matrix.row_sums
    if matrix.nonzero_count >= SPARSE_DENSITY * n * n:
        counts = matrix.counts
        return lambda x: (x / sums) @ counts
    rows, cols, counts = matrix.nonzeros
    shares = counts / sums[rows]
    return lambda x: np.bincount(cols, weights=x[rows] * shares, minlength=n)


def _direct(matrix: core.CitationMatrix, alpha: float, teleport: np.ndarray):
    n = matrix.n
    shares = reference_shares(matrix)
    if alpha == 1.0:
        # Singular eigen-system: replace one equation with the sum constraint.
        system = np.eye(n) - shares.T
        system[-1, :] = 1.0
        rhs = np.zeros(n)
        rhs[-1] = 1.0
    else:
        system = np.eye(n) - alpha * shares.T
        rhs = (1.0 - alpha) * teleport
    x = np.linalg.solve(system, rhs)
    x = x / x.sum()
    if alpha == 1.0:
        step = x @ shares
    else:
        step = alpha * (x @ shares) + (1.0 - alpha) * teleport
    residual = float(np.abs(x - step).sum())
    return x, SolverReport(0, residual, "direct")


def _power(matrix: core.CitationMatrix, alpha: float, teleport: np.ndarray, config: SolverConfig):
    step = share_step(matrix)
    x = np.array(teleport, dtype=float)
    x /= x.sum()
    lazy = alpha == 1.0
    tol = config.tolerance
    prev_delta = np.inf
    plateau = 0
    delta = np.inf
    prev_diff = None  # the last step's difference, None right after a jump
    jumped = 0.0  # largest mode rate extrapolated away so far
    for iteration in range(1, config.max_iterations + 1):
        if lazy:
            # Half-lazy step: same fixed point, converges for periodic chains.
            x_next = 0.5 * step(x) + 0.5 * x
        else:
            x_next = alpha * step(x) + (1.0 - alpha) * teleport
        x_next /= x_next.sum()
        diff = x_next - x
        delta = float(np.abs(diff).sum())
        x = x_next
        if delta == 0.0:
            return x, SolverReport(iteration, delta, "power")
        if delta > tol and prev_diff is not None:
            lam = float(diff @ prev_diff) / float(prev_diff @ prev_diff)
            if 0.0 < lam < _JUMP_MAX_RATE and np.abs(diff - lam * prev_diff).sum() <= _JUMP_FIT * delta:
                # One real mode of rate lam dominates the error: its tail
                # sums to diff * lam / (1 - lam). The limit is non-negative,
                # so clipping at zero only brings an entry closer to it.
                x = np.maximum(x + diff * (lam / (1.0 - lam)), 0.0)
                x /= x.sum()
                jumped = max(jumped, lam)
                prev_diff, prev_delta, plateau = None, np.inf, 0
                continue
        prev_diff = diff
        if delta <= tol:
            if np.isfinite(prev_delta):
                rho = max(delta / prev_delta, jumped)
            else:
                # First step: no rate to measure. After a jump: not yet measured.
                rho = 1.0 if jumped else 0.0
            if rho < 1.0 and delta * rho / (1.0 - rho) <= tol:
                return x, SolverReport(iteration, delta, "power")
            if delta >= prev_delta * _PLATEAU_RATIO:
                # Step size stopped shrinking: rounding floor reached.
                plateau += 1
                if plateau >= _PLATEAU_PATIENCE:
                    return x, SolverReport(iteration, delta, "power")
            else:
                plateau = 0
        else:
            plateau = 0
        prev_delta = delta
    raise NoConvergence(config.max_iterations, delta)


def stationary(
    shares: core.CitationMatrix | np.ndarray,
    alpha: float,
    teleport: np.ndarray,
    config: SolverConfig | None = None,
) -> tuple[np.ndarray, SolverReport]:
    """Fixed point of  x = alpha * (x @ S) + (1 - alpha) * teleport,  where S
    is ``shares`` with each row divided by its sum.

    Parameters
    ----------
    shares : a CitationMatrix, or a square array that is wrapped in one.
        Its cells must be finite and non-negative and its rows must have
        positive sums; a negative cell raises ValueError naming the first
        one. The row normalization is implicit: the power path iterates
        ``share_step``, so no share matrix is built (only the direct path
        forms S, for its own small solve). Every call runs every check, but
        the scans behind them run once per CitationMatrix: the non-zero
        count and negative cell on its construction, the non-zeros and
        irreducibility on first use.
    alpha : damping weight in [0, 1]. 0 returns the teleport vector exactly;
        1 solves the pure eigen-problem and requires an irreducible pattern.
    teleport : non-negative vector summing to 1.
    config : solver settings; defaults to ``SolverConfig()``.

    Returns the probability vector (non-negative, sums to 1) and a report.
    """
    config = config or SolverConfig()
    matrix = shares if isinstance(shares, core.CitationMatrix) else core.CitationMatrix(shares)
    teleport = np.asarray(teleport, dtype=float)
    n = matrix.n
    if teleport.shape != (n,):
        raise ValueError("teleport length must match the matrix")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if not np.all(np.isfinite(teleport)):
        raise ValueError("teleport must be finite")
    if np.any(teleport < 0) or abs(teleport.sum() - 1.0) > 1e-9:
        raise ValueError("teleport must be a probability vector")
    sums = matrix.row_sums
    # A NaN or infinite cell makes its row sum non-finite.
    if not np.all(np.isfinite(sums)):
        raise ValueError("shares must be finite")
    if matrix.negative_cell is not None:
        i, j = matrix.negative_cell
        raise ValueError(f"shares cell ({i}, {j}) is negative")
    empty = np.flatnonzero(sums <= 0)
    if empty.size:
        raise ValueError(f"shares row {int(empty[0])} has no positive sum")

    if alpha == 0.0:
        return teleport.copy(), SolverReport(0, 0.0, "exact")
    if alpha == 1.0:
        core.require_irreducible(matrix)

    method = config.method
    if method == "auto":
        method = "direct" if n <= DIRECT_LIMIT else "power"
    if method == "direct":
        return _direct(matrix, alpha, teleport)
    return _power(matrix, alpha, teleport, config)
