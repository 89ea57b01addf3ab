"""Exact rational references built from integer citation counts.

With integer counts every fixed point the indicators solve for is a vector
of rationals, so ``fractions.Fraction`` gives it exactly, with no precision
to choose. Each number passed in is taken at its exact value, a float's
binary one included, so a reference is the exact answer for the very floats
a solver receives.
"""

from fractions import Fraction
from math import lcm

import numpy as np

# The relative gap of a float score from the exact one that the tests allow.
# The largest measured: 7.4e-14 (IW and IPP) over 400 seeded instances of
# test_hypothesis.cycle_instances' shape at its EXACT_ALPHAS.
EXACT_RTOL = 1e-12


def exact_stationary(counts, alpha, teleport=None):
    """The fixed point of the integer counts as Fractions: of x (I - alpha S) =
    (1 - alpha) t for alpha < 1, and at alpha = 1 of x (I - S) = 0 with its last
    equation replaced by sum(x) = 1, independent of the formulation ``spectral``
    solves. In y = x / s each system is integer, and Bareiss's fraction-free
    Gauss-Jordan elimination keeps it so, ending with one common diagonal."""
    c = [[int(v) for v in row] for row in np.asarray(counts)]
    assert np.array_equal(c, counts), "counts must be integers"
    n, (p, q) = len(c), Fraction(alpha).as_integer_ratio()
    s = [sum(row) for row in c]
    # Row i is q times column i of x (I - alpha S) in y, for alpha = p / q.
    rows = [[(i == j) * q * s[j] - p * c[j][i] for j in range(n)] for i in range(n)]
    if p == q:
        rows[-1], rhs = s, [0] * (n - 1) + [1]
    else:  # a positive multiple of (1 - alpha) t scales x, not x / sum(x)
        scale = lcm(*(Fraction(v).denominator for v in teleport))
        rhs = [int(Fraction(v) * scale) for v in teleport]
    rows = [row + [b] for row, b in zip(rows, rhs)]
    previous = 1
    for k in range(n):
        pivot = next(r for r in range(k, n) if rows[r][k])
        rows[k], rows[pivot] = rows[pivot], rows[k]
        top = rows[k]
        for i, row in enumerate(rows):
            if i != k:  # exact division: every entry is a minor of the system
                rows[i] = [(u * top[k] - row[k] * v) // previous for u, v in zip(row, top)]
        previous = top[k]
    x = [row[n] * sk for row, sk in zip(rows, s)]
    return [Fraction(v, sum(x)) for v in x]


def exact_scores(kind, journals, counts, alpha=None, beta=None, gamma=None):
    """The scores of ``indicators.KINDS`` entry ``kind`` as Fractions, restated
    from the formulas of the ``indicators`` docstrings. EF and AI take alpha,
    WPR and SJR beta and gamma; a parameter is needed only by its kinds."""
    c = [[int(v) for v in row] for row in np.asarray(counts)]
    n, s = len(c), [sum(row) for row in c]
    a1 = [Fraction(j.articles_t1) for j in journals.journals]
    a2 = [Fraction(j.articles_t2) for j in journals.journals]
    share = [a / sum(a1) for a in a1]

    def flow(x):  # x S: the references of journal j spread by x[j] over what it cites
        return [sum(x[j] * Fraction(c[j][i], s[j]) for j in range(n)) for i in range(n)]

    if kind == "if":
        return [Fraction(sum(row[i] for row in c)) / a1[i] for i in range(n)]
    if kind == "af":
        return [sum(s) / sum(a2) * f / a for f, a in zip(flow(a2), a1)]
    if kind in ("iw", "ipp"):
        # q sums to 1, so IW = (q / s) sum(s) has citation-weighted mean 1.
        q = exact_stationary(c, 1)
        iw = [qi / si * sum(s) for qi, si in zip(q, s)]
        return iw if kind == "iw" else [w * si / (n * a) for w, si, a in zip(iw, s, a1)]
    if kind in ("ef", "ai"):
        flows = flow(exact_stationary(c, alpha, share))
        return [100 * f for f in flows] if kind == "ef" else [f / a for f, a in zip(flows, a1)]
    beta, gamma = Fraction(beta), Fraction(gamma)
    if beta == 1:
        teleport = [Fraction(1, n)] * n
    else:
        teleport = [(max(0, 1 - beta - gamma) / n + gamma * t) / (1 - beta) for t in share]
    r = exact_stationary(c, beta, teleport)
    return r if kind == "wpr" else [v / a for v, a in zip(r, a1)]
