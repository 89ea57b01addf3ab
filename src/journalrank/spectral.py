"""Stationary-vector machinery for the citation-share operator.

Two independent paths solve the same fixed-point problems: dense direct
elimination (oracle-grade on small instances) and power iteration (scales
to larger ones). Tests cross-check them against each other, so keep the
implementations independent.

Both take the citation counts and their row sums; the row normalization
is implicit and the power path never builds a share matrix. Below
SPARSE_DENSITY non-zero cells, each power solve extracts the non-zeros
once as (row, col, count / row sum) triplets and every step is one
``np.bincount`` over them; denser inputs use the dense
``(x / row_sums) @ counts``. An alpha = 1 solve first checks irreducibility
with ``core.require_irreducible``; the strongly connected components are
computed only to describe a failure.
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
# extraction is repaid after 40-55 steps at 5 % density but only after
# 60-95 at 7 %, so the lower cut keeps the sparse path ahead on solves of
# typical length (alpha = 0.85 to 1 takes 70-270 steps at n = 1500, 1 %).
SPARSE_DENSITY = 0.05

# Power iteration stops once the extrapolated error (step size times
# rho/(1-rho) for contraction estimate rho) drops below the tolerance, not
# merely the step size itself: on slowly mixing chains the raw step
# understates the remaining error by 1/(1-rho).
_PLATEAU_RATIO = 0.9999
_PLATEAU_PATIENCE = 50


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


def _direct(counts: np.ndarray, sums: np.ndarray, alpha: float, teleport: np.ndarray):
    n = counts.shape[0]
    shares = counts / sums[:, None]
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


def _matvec(counts: np.ndarray, sums: np.ndarray):
    """Return a function computing ``x`` times the row-normalized ``counts``,
    sparse-aware by density."""
    n = counts.shape[0]
    if np.count_nonzero(counts) >= SPARSE_DENSITY * n * n:
        return lambda x: (x / sums) @ counts
    flat = np.flatnonzero(counts)
    rows, cols = np.divmod(flat, n)
    vals = counts.ravel()[flat] / sums[rows]
    return lambda x: np.bincount(cols, weights=x[rows] * vals, minlength=n)


def _power(counts: np.ndarray, sums: np.ndarray, alpha: float, teleport: np.ndarray, config: SolverConfig):
    step = _matvec(counts, sums)
    x = np.array(teleport, dtype=float)
    x /= x.sum()
    lazy = alpha == 1.0
    tol = config.tolerance
    prev_delta = np.inf
    plateau = 0
    delta = np.inf
    for iteration in range(1, config.max_iterations + 1):
        if lazy:
            # Half-lazy step: same fixed point, converges for periodic chains.
            x_next = 0.5 * step(x) + 0.5 * x
        else:
            x_next = alpha * step(x) + (1.0 - alpha) * teleport
        x_next /= x_next.sum()
        delta = float(np.abs(x_next - x).sum())
        x = x_next
        if delta == 0.0:
            return x, SolverReport(iteration, delta, "power")
        if delta <= tol:
            rho = delta / prev_delta if np.isfinite(prev_delta) and prev_delta > 0 else 0.0
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
    shares: np.ndarray,
    alpha: float,
    teleport: np.ndarray,
    config: SolverConfig | None = None,
) -> tuple[np.ndarray, SolverReport]:
    """Fixed point of  x = alpha * (x @ S) + (1 - alpha) * teleport,  where S
    is ``shares`` with each row divided by its sum.

    Parameters
    ----------
    shares : (n, n) finite, non-negative array whose rows have positive
        sums, such as ``CitationMatrix.counts``; a negative cell raises
        ValueError naming the first one. The row normalization is implicit:
        the power path divides the iterate by the row sums, so no share
        matrix is built (only the direct path forms S, for its own small
        solve).
    alpha : damping weight in [0, 1]. 0 returns the teleport vector exactly;
        1 solves the pure eigen-problem and requires an irreducible pattern.
    teleport : non-negative vector summing to 1.
    config : solver settings; defaults to ``SolverConfig()``.

    Returns the probability vector (non-negative, sums to 1) and a report.
    """
    config = config or SolverConfig()
    shares = np.asarray(shares, dtype=float)
    teleport = np.asarray(teleport, dtype=float)
    n = shares.shape[0]
    if shares.ndim != 2 or shares.shape != (n, n):
        raise ValueError("shares must be a square matrix")
    if teleport.shape != (n,):
        raise ValueError("teleport length must match the matrix")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if not np.all(np.isfinite(teleport)):
        raise ValueError("teleport must be finite")
    if np.any(teleport < 0) or abs(teleport.sum() - 1.0) > 1e-9:
        raise ValueError("teleport must be a probability vector")
    sums = shares.sum(axis=1)
    # A NaN or infinite cell makes its row sum non-finite.
    if not np.all(np.isfinite(sums)):
        raise ValueError("shares must be finite")
    if shares.min() < 0:
        i, j = np.argwhere(shares < 0)[0]
        raise ValueError(f"shares cell ({i}, {j}) is negative")
    empty = np.flatnonzero(sums <= 0)
    if empty.size:
        raise ValueError(f"shares row {int(empty[0])} has no positive sum")

    if alpha == 0.0:
        return teleport.copy(), SolverReport(0, 0.0, "exact")
    if alpha == 1.0:
        core.require_irreducible(shares)

    method = config.method
    if method == "auto":
        method = "direct" if n <= DIRECT_LIMIT else "power"
    if method == "direct":
        return _direct(shares, sums, alpha, teleport)
    return _power(shares, sums, alpha, teleport, config)
