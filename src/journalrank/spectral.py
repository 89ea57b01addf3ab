"""The citation-share operator and its stationary vectors.

The only module that knows how the share matrix S = diag(1 / row_sums) @
counts acts. ``share_step(matrix)`` is the product x -> x @ S, over the
stored non-zeros of a sparse-stored matrix and over the dense counts
otherwise: the power path iterates it and the EF and AF flows apply it.
``reference_shares`` builds S densely, for the direct path.

Two independent paths solve the same fixed-point problems: dense direct
elimination (oracle-grade on small instances) and power iteration (scales
to larger ones). Tests cross-check them against each other and against an
extended-precision solve, so keep the implementations independent. Direct
elimination solves one nonsingular system at every damping, alpha = 1
included: x (I - alpha S + 1 t^T) = (2 - alpha) t, whose solution sums
to 1. The power path extrapolates: when its last two steps show one real
error mode, such as the slow field split of a nearly decomposable matrix,
it jumps to that mode's limit (vector Aitken extrapolation). It has one
stop rule: the step and the step times rho / (1 - rho) are both at most the
tolerance, where rho is the measured contraction rate, 1 until a rate is
measured, and capped at alpha. For alpha < 1 the map contracts L1
distances by alpha, so a stop under the cap bounds the error by the
tolerance. Every power step is one damping, x <- w xS + (1 - w) a: weight
w = alpha toward the teleport a = t (at alpha = 1 the plain step x <- xS)
and, at alpha = 1 once plain steps have not settled within a fixed budget
(a periodic or nearly periodic chain), weight w = 1/2 toward the current
iterate a = x, a half-lazy step that converges on every irreducible chain.
An alpha = 1 solve checks irreducibility with
``core.require_irreducible``; the strongly connected components are
computed only to describe a failure. Solved vectors are not cached: every
call solves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .errors import NoConvergence

# Largest journal count that method "auto" solves by direct elimination: the
# largest size of the grid n = 64, 96, 128, 160, 200, 256 at which direct was
# no slower than power on both generators below. Measured with one BLAS
# thread (x86-64), median of 100 solves, article-share teleport, alpha 0.85
# and 1, on block_model's default dense fields and on weakly coupled ones
# (within_mean 1, cross_mean 0.01): at n = 128 direct took 0.46-0.51 ms and
# power 0.48-0.50 ms on the dense fields, 0.64-0.84 ms on the weak ones; at
# n = 160 direct took 0.77-1.05 ms and power 0.39-0.87 ms. Power's step
# count moves the crossover: at n = 112 the dense fields took 11-16 steps
# and power was 0.04-0.12 ms faster. Direct's cost does not depend on how
# slowly the chain mixes; power's does.
DIRECT_LIMIT = 128
# The values of SolverConfig.method.
METHODS = ("auto", "direct", "power")

# Power iteration stops once the extrapolated error (step size times
# rho/(1-rho) for contraction estimate rho) drops below the tolerance, and the
# step itself does too: on slowly mixing chains the raw step understates the
# remaining error by 1/(1-rho). rho is the ratio of the last two step sizes,
# floored by the largest rate jumped over (below); it is 1 while no rate has
# been measured (the first step, and the first after a jump or after the
# switch to half-lazy steps), and it is capped at alpha. For alpha < 1 the map
# shrinks L1 distances on the simplex by alpha, so whenever the cap binds the
# stop is a proof: the returned vector lies within alpha * step / (1 - alpha)
# <= tolerance of the fixed point in L1.

# Vector Aitken extrapolation (Kamvar, Haveliwala, Manning & Golub, WWW 2003):
# at every step size, lam = <d, d'> / <d', d'> is fitted to the last two step
# differences d', d; when d - lam d' is within _JUMP_FIT of d in L1 (one real
# mode dominates) and 0 < lam < _JUMP_MAX_RATE, the iterate jumps to the
# mode's limit x + d lam / (1 - lam) and the fit starts afresh. A periodic
# chain's modes are complex and never fit; a looser fit (1e-1) accepted a lam
# near 1 on 40- and 90-journal cycles, whose solves then never converged.
_JUMP_FIT = 1e-2
_JUMP_MAX_RATE = 1.0 - 1e-6
# At alpha = 1 the first _PLAIN_STEPS steps are plain, x <- xS, whose error
# modes shrink at their own rate |lam|; the half-lazy step, weight 1/2
# toward x, maps each lam to (1 + lam)/2, so no mode shrinks by more than
# half a step. A plain step never converges on a periodic chain and crawls
# on a nearly periodic one, so a solve still running after _PLAIN_STEPS
# steps goes on half-lazy.
_PLAIN_STEPS = 200


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
        if isinstance(self.tolerance, (bool, np.bool_)):
            raise ValueError("tolerance must be a number, not a bool")
        if not 0.0 < self.tolerance < np.inf:
            raise ValueError("tolerance must be positive and finite")
        count = self.max_iterations
        if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < 1:
            raise ValueError("max_iterations must be an integer of at least 1")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")


@dataclass(frozen=True)
class SolverReport:
    """Outcome of one solve: iteration count, final step size, path taken."""

    iterations: int
    residual: float
    method_used: str


def reference_shares(matrix: core.CitationMatrix) -> np.ndarray:
    """Row-normalize the citation matrix after ``stationary``'s checks,
    ``core.require_citing``: entry [j, i] is the share of journal j's
    outgoing citations received by journal i."""
    return matrix.counts / core.require_citing(matrix)[:, None]


def share_step(matrix: core.CitationMatrix):
    """Return the product x -> x @ S with S the row-normalized counts.

    On a sparse-stored matrix (``core.SPARSE_DENSITY``) it sums over the
    stored non-zeros alone, each divided by its row sum once per call of
    ``share_step``; a dense one uses ``(x / row_sums) @ counts``. The
    non-zeros are row-major, so repeating each x_j (and each row sum) by
    its row's non-zero count gives the same array as the gather
    ``x[rows]``, at less cost. Meaningful once every row sum is positive.
    """
    n = matrix.n
    sums = matrix.row_sums
    if not matrix.sparse:
        counts = matrix.counts
        return lambda x: (x / sums) @ counts
    rows, cols, counts = matrix.nonzeros
    per_row = np.bincount(rows, minlength=n)
    shares = counts / np.repeat(sums, per_row)

    def step(x):
        weights = np.repeat(x, per_row)
        weights *= shares
        return np.bincount(cols, weights=weights, minlength=n)

    return step


def _direct(matrix: core.CitationMatrix, alpha: float, teleport: np.ndarray):
    # x (I - alpha S + 1 t^T) = (2 - alpha) t. Summing both sides gives
    # sum(x) = 1, and then x = alpha x S + (1 - alpha) t. The eigenvalues are
    # 2 - alpha and 1 - alpha lam for the other eigenvalues lam of S, so the
    # system is nonsingular for alpha < 1 and, on an irreducible S, at 1.
    shares = reference_shares(matrix)
    system = np.eye(matrix.n) - alpha * shares.T + teleport[:, None]
    x = np.linalg.solve(system, (2.0 - alpha) * teleport)
    x = x / x.sum()
    step = alpha * (x @ shares) + (1.0 - alpha) * teleport
    residual = float(np.abs(x - step).sum())
    return x, SolverReport(0, residual, "direct")


def _power(matrix: core.CitationMatrix, alpha: float, teleport: np.ndarray, config: SolverConfig):
    step = share_step(matrix)
    x = np.array(teleport, dtype=float)
    x /= x.sum()
    # Each step is x <- weight * xS + (1 - weight) * anchor(x).
    weight, anchor = alpha, lambda current: teleport
    tol = config.tolerance
    prev_delta = np.inf
    delta = np.inf
    prev_diff = None  # the last step's difference, None right after a jump
    jumped = 0.0  # largest mode rate extrapolated away so far
    for iteration in range(1, config.max_iterations + 1):
        if alpha == 1.0 and iteration == _PLAIN_STEPS + 1:
            # The plain steps stalled (a periodic or nearly periodic chain):
            # go on with half-lazy steps, which share the fixed point and
            # converge on any irreducible chain. Rates measured so far
            # belong to the other map; the floor from past jumps stays.
            weight, anchor = 0.5, lambda current: current
            prev_diff, prev_delta = None, np.inf
        x_next = weight * step(x) + (1.0 - weight) * anchor(x)
        x_next /= x_next.sum()
        diff = x_next - x
        delta = float(np.abs(diff).sum())
        x = x_next
        if delta == 0.0:
            return x, SolverReport(iteration, delta, "power")
        if prev_diff is not None:
            lam = float(diff @ prev_diff) / float(prev_diff @ prev_diff)
            if 0.0 < lam < _JUMP_MAX_RATE and np.abs(diff - lam * prev_diff).sum() <= _JUMP_FIT * delta:
                # One real mode of rate lam dominates the error: its tail
                # sums to diff * lam / (1 - lam). The limit is non-negative,
                # so clipping at zero only brings an entry closer to it.
                x = np.maximum(x + diff * (lam / (1.0 - lam)), 0.0)
                x /= x.sum()
                jumped = max(jumped, lam)
                prev_diff, prev_delta = None, np.inf
                continue
        prev_diff = diff
        # The one stop rule, stated above the jump constants.
        rho = min(max(delta / prev_delta, jumped) if np.isfinite(prev_delta) else 1.0, alpha)
        if delta <= tol and rho < 1.0 and delta * rho / (1.0 - rho) <= tol:
            return x, SolverReport(iteration, delta, "power")
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
        ``core.require_citing`` checks it, naming the first unsound cell or
        overflowing sum (ValueError) or row without citations (ZeroOutgoing).
        The row normalization is implicit: the power path iterates
        ``share_step``, so no share matrix is built (only the direct path
        forms S, for its own small solve). Every call runs every check, but
        the scans behind them run once per CitationMatrix: the non-zero
        count, the negative cell and the stored non-zeros of a sparse one
        on its construction, irreducibility on first use.
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
    core.require_citing(matrix)

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
