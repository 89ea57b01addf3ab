"""The eight journal performance indicators.

Citation conventions: ``matrix.counts[j, i]`` counts citations from journal
j to journal i, and ``matrix.row_sums[j]`` is journal j's outgoing citation
volume. Column sums are therefore received citations.

Scale conventions worth knowing:

* Impact factor and audience factor are raw per-article citation rates;
  they scale linearly with the citation counts.
* Influence weights are normalized so their citation-weighted mean is 1
  (per-reference basis); they are invariant under rescaling the matrix.
* Per-article influence divides the weighted citation volume by journal
  count as well as article count, which keeps scores directly comparable
  when the journal set changes (for instance between databases with
  different coverage of minor journals). Multiplying by the journal count
  recovers the classic normalization.
* Damped stationary scores sum to 100 (total basis) and their per-article
  variant divides that by 100 times the article count.

Damped vectors (alpha < 1) are solved on every call. At alpha = 1 the
teleport drops out, so IW, IPP, EF(1), AI(1), WPR(1, 0) and SJR(1, 0) read
one vector, ``spectral.undamped``'s, solved once per matrix and solver
configuration from the uniform start; ``_stationary`` routes the damped
kinds to it at alpha = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

import numpy as np

from . import core, spectral
from .errors import ZeroArticles

DEFAULT_ALPHA = 0.85
DEFAULT_BETA = 0.9
DEFAULT_GAMMA = 0.0999


@dataclass(frozen=True, eq=False)
class IndicatorVector:
    """One score per journal, tagged with the indicator kind and parameters.

    The normalization basis is a function of the kind and is derived, not
    supplied. Values are stored read-only; a solver report is attached when
    a fixed-point solve produced the scores.
    """

    kind: str
    values: np.ndarray
    params: Mapping[str, float] = field(default_factory=dict)
    solver: spectral.SolverReport | None = None
    basis: str = field(init=False)

    def __post_init__(self):
        if not self.kind.isupper() or self.kind.lower() not in KINDS:
            raise ValueError(f"unknown indicator kind {self.kind!r}")
        values = np.array(self.values, dtype=float)
        if values.ndim != 1:
            raise ValueError("indicator values must be a vector")
        if not np.all(np.isfinite(values)):
            raise ValueError("indicator values must be finite")
        # Forgive sub-rounding negative dust from the linear solver.
        tiny = 1e-12 * max(1.0, float(np.abs(values).max(initial=0.0)))
        if np.any(values < -tiny):
            raise ValueError("indicator values must be non-negative")
        np.clip(values, 0.0, None, out=values)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))
        object.__setattr__(self, "basis", KINDS[self.kind.lower()].basis)
        if self.kind == "EF" and abs(values.sum() - 100.0) > 1e-6:
            raise ValueError("EF scores must sum to 100")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def label(self) -> str:
        """Short display label, e.g. IF, AI(0.85), WPR(0.9,0.0999): the
        parameters in the order the kind lists them."""
        names = [name for name in KINDS[self.kind.lower()].params if name in self.params]
        shown = ",".join(f"{self.params[name]:g}" for name in names)
        return f"{self.kind}({shown})" if shown else self.kind


def _article_share(journals: core.JournalSet) -> np.ndarray:
    a1 = core.require_articles(journals, 1)
    total = a1.sum()
    # Sound counts sum to zero only when every one is zero, journal 0's too.
    if total == 0:
        raise ZeroArticles(0, journals.journals[0].id)
    return a1 / total


def _per_article(values: np.ndarray, factor: float, a1: np.ndarray) -> np.ndarray:
    """values / (factor * a1), divided in two steps where that product overflows."""
    with np.errstate(over="ignore"):
        product = factor * a1
    return np.where(np.isfinite(product), values / product, values / factor / a1)


def _stationary(
    matrix: core.CitationMatrix,
    alpha: float,
    teleport: np.ndarray | None,
    solver: spectral.SolverConfig | None,
) -> tuple[np.ndarray, spectral.SolverReport]:
    """``spectral.stationary``, solved on every call, except at alpha = 1:
    there no teleport moves the fixed point, and the matrix's stored
    ``spectral.undamped`` vector is returned, without reading ``teleport``
    (None for WPR at beta = 1)."""
    if alpha == 1.0:
        return spectral.undamped(matrix, solver)
    return spectral.stationary(matrix, alpha, teleport, solver)


def impact_factor(journals: core.JournalSet, matrix: core.CitationMatrix) -> IndicatorVector:
    """Received citations per earlier-period article."""
    a1 = core.require_published(journals, 1)
    core.require_sound(matrix, journals)
    return IndicatorVector("IF", core.received_citations(matrix) / a1)


def audience_factor(journals: core.JournalSet, matrix: core.CitationMatrix) -> IndicatorVector:
    """Impact factor with each citation down-weighted by the citing journal's
    referencing intensity relative to the overall average.

    A citation from journal j counts overall_rate * a2[j] / s[j], one at the
    average rate. The weighted received citations, overall_rate * (a2 @ S)
    with S the row-normalized counts, are the scaled alpha = 0 flow of the
    a2 teleport, taken from EF's product ``spectral.share_step``.
    """
    a1 = core.require_published(journals, 1)
    a2 = core.require_published(journals, 2)
    sums = core.require_citing(matrix, journals)
    overall_rate = sums.sum() / a2.sum()
    return IndicatorVector("AF", overall_rate * spectral.share_step(matrix)(a2) / a1)


def influence_weights(
    journals: core.JournalSet,
    matrix: core.CitationMatrix,
    solver: spectral.SolverConfig | None = None,
) -> IndicatorVector:
    """Recursive per-reference weights on an irreducible citation matrix.

    The returned vector w satisfies w[i] = sum_j w[j] * counts[j, i] / s[i]
    and is scaled so that the citation-weighted mean weight is one:
    sum_i w[i] * s[i] equals sum_i s[i]. w is the undamped (alpha = 1)
    stationary vector of the row-normalized counts divided by the row sums,
    ``spectral.undamped``'s: solved once per matrix and solver
    configuration, from the uniform start.
    """
    sums = core.require_citing(matrix, journals)
    q, report = spectral.undamped(matrix, solver)
    direction = q / sums
    scale = sums.sum() / float(direction @ sums)
    return IndicatorVector("IW", direction * scale, solver=report)


def influence_per_publication(
    journals: core.JournalSet,
    matrix: core.CitationMatrix,
    solver: spectral.SolverConfig | None = None,
) -> IndicatorVector:
    """Per-article variant of the recursive influence weights.

    The weighted citation volume w[i] * s[i] is divided by the article count
    and by the number of journals. The journal-count divisor pins the scale
    to the average reference volume instead of the total, so scores barely
    move when an insignificant journal enters or leaves the set; multiply by
    the journal count to recover the classic per-reference-mean scale.
    """
    a1 = core.require_published(journals, 1)
    iw = influence_weights(journals, matrix, solver)
    values = _per_article(iw.values * matrix.row_sums, journals.n, a1)
    return IndicatorVector("IPP", values, solver=iw.solver)


def eigenfactor(
    journals: core.JournalSet,
    matrix: core.CitationMatrix,
    alpha: float = DEFAULT_ALPHA,
    solver: spectral.SolverConfig | None = None,
) -> IndicatorVector:
    """Damped stationary citation score, total basis, summing to 100.

    A stationary vector p solves
    p[i] = alpha * sum_j p[j] * counts[j, i] / s[j] + (1 - alpha) * a1[i] / sum(a1),
    and the score of journal i is 100 times the citation flow it receives
    under p, p @ S through the solver's own product ``spectral.share_step``.
    p is solved on every call for alpha < 1. alpha = 1 requires an
    irreducible matrix, and p is then IW's undamped vector, solved once per
    matrix and solver configuration, from the uniform start.
    """
    core.require_citing(matrix, journals)
    teleport = _article_share(journals)
    p, report = _stationary(matrix, alpha, teleport, solver)
    scores = 100.0 * spectral.share_step(matrix)(p)
    return IndicatorVector("EF", scores, {"alpha": alpha}, report)


def article_influence(
    journals: core.JournalSet,
    matrix: core.CitationMatrix,
    alpha: float = DEFAULT_ALPHA,
    solver: spectral.SolverConfig | None = None,
) -> IndicatorVector:
    """Damped stationary score per article: the 0-to-1 damping sweep of this
    indicator interpolates between audience-factor-like and recursive
    influence-like behavior."""
    a1 = core.require_published(journals, 1)
    ef = eigenfactor(journals, matrix, alpha, solver)
    return IndicatorVector("AI", _per_article(ef.values, 100.0, a1), {"alpha": alpha}, ef.solver)


def weighted_pagerank(
    journals: core.JournalSet,
    matrix: core.CitationMatrix,
    beta: float,
    gamma: float,
    solver: spectral.SolverConfig | None = None,
) -> IndicatorVector:
    """Stationary score with separate article-share and uniform teleports.

    Solves r[i] = beta * sum_j r[j] * counts[j, i] / s[j]
                 + gamma * a1[i] / sum(a1) + (1 - beta - gamma) / n
    with sum(r) = 1, solved on every call for beta < 1. beta = 1 (hence
    gamma = 0) is the pure eigen-problem and requires irreducibility; r is
    then IW's undamped vector, solved once per matrix and solver
    configuration, from the uniform start.
    """
    # Written so that a NaN beta or gamma fails the check too.
    if not (beta >= 0 and gamma >= 0 and beta + gamma <= 1 + 1e-12):
        raise ValueError("need beta >= 0, gamma >= 0 and beta + gamma <= 1")
    core.require_citing(matrix, journals)
    n = journals.n
    if beta == 1.0:
        teleport = None  # the undamped vector reads no teleport
    else:
        # At beta + gamma = 1 the subtraction can round to -1e-17; clamp it so
        # a journal without earlier-period articles keeps a zero teleport.
        mix = np.full(n, max(0.0, 1.0 - beta - gamma) / n)
        if gamma > 0:
            mix = mix + gamma * _article_share(journals)
        teleport = mix / (1.0 - beta)
    r, report = _stationary(matrix, beta, teleport, solver)
    return IndicatorVector("WPR", r, {"beta": beta, "gamma": gamma}, report)


def scimago_jr(
    journals: core.JournalSet,
    matrix: core.CitationMatrix,
    beta: float = DEFAULT_BETA,
    gamma: float = DEFAULT_GAMMA,
    solver: spectral.SolverConfig | None = None,
) -> IndicatorVector:
    """Weighted-PageRank score divided by the earlier-period article count."""
    a1 = core.require_published(journals, 1)
    wpr = weighted_pagerank(journals, matrix, beta, gamma, solver)
    return IndicatorVector("SJR", wpr.values / a1, {"beta": beta, "gamma": gamma}, wpr.solver)


class Kind(NamedTuple):
    """One indicator kind: its function, score basis and parameters.

    ``params`` maps each keyword parameter to its default, None where the
    caller must give a value. Functions with ``solved`` set also take the
    solver configuration.
    """

    function: Callable[..., IndicatorVector]
    basis: str
    params: Mapping[str, float | None]
    solved: bool = True


# Lower-case kind token -> Kind, in the order the CLI lists the kinds.
KINDS = {
    "if": Kind(impact_factor, "per_article", {}, solved=False),
    "af": Kind(audience_factor, "per_article", {}, solved=False),
    "iw": Kind(influence_weights, "per_reference", {}),
    "ipp": Kind(influence_per_publication, "per_article", {}),
    "ef": Kind(eigenfactor, "total", {"alpha": DEFAULT_ALPHA}),
    "ai": Kind(article_influence, "per_article", {"alpha": DEFAULT_ALPHA}),
    "wpr": Kind(weighted_pagerank, "total", {"beta": None, "gamma": None}),
    "sjr": Kind(scimago_jr, "per_article", {"beta": DEFAULT_BETA, "gamma": DEFAULT_GAMMA}),
}


def compute(
    kind: str,
    journals: core.JournalSet,
    matrix: core.CitationMatrix,
    *,
    solver: spectral.SolverConfig | None = None,
    **params: float | None,
) -> IndicatorVector:
    """Dispatch by lower-case kind token, one of the keys of ``KINDS``.

    ``params`` are the kind's parameters as listed in ``KINDS``; a None value
    counts as not given. Rejects parameters that do not belong to the
    requested indicator and fills the ones not given from the kind's defaults.
    """
    token = kind.lower()
    if token not in KINDS:
        raise ValueError(f"unknown indicator kind {kind!r}")
    spec = KINDS[token]
    names = tuple(spec.params)
    given = {k: v for k, v in params.items() if v is not None}
    foreign = [name for name in given if name not in names]
    if foreign:
        if not names:
            rule = "takes no parameters"
        elif len(names) == 1:
            rule = f"takes {names[0]} only"
        else:
            rule = f"takes {' and '.join(names)}, not {' and '.join(foreign)}"
        raise ValueError(f"indicator {token!r} {rule}")
    values = {name: given.get(name, default) for name, default in spec.params.items()}
    if None in values.values():
        raise ValueError(f"indicator {token!r} needs both {' and '.join(names)}")
    if spec.solved:
        return spec.function(journals, matrix, solver=solver, **values)
    return spec.function(journals, matrix)
