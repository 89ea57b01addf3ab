"""Journal/citation data model, validation, and citation-graph structure.

The citation matrix follows the row = citing, column = cited convention:
``counts[i, j]`` is the number of citations from articles in journal ``i``
(later period) to articles in journal ``j`` (earlier period).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import IndexOutOfRange, Issue, NotIrreducible, ValidationError


@dataclass(frozen=True)
class Journal:
    """One journal: opaque id, optional display name, articles per period."""

    id: str
    name: str | None = None
    articles_t1: int = 0
    articles_t2: int = 0


@dataclass(frozen=True)
class JournalSet:
    """Ordered collection of journals; order defines the index <-> id mapping."""

    journals: tuple[Journal, ...]

    def __post_init__(self):
        object.__setattr__(self, "journals", tuple(self.journals))
        a1 = np.array([j.articles_t1 for j in self.journals], dtype=float)
        a2 = np.array([j.articles_t2 for j in self.journals], dtype=float)
        a1.flags.writeable = False
        a2.flags.writeable = False
        object.__setattr__(self, "_a1", a1)
        object.__setattr__(self, "_a2", a2)
        object.__setattr__(self, "_index", {j.id: k for k, j in enumerate(self.journals)})

    @property
    def n(self) -> int:
        return len(self.journals)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(j.id for j in self.journals)

    @property
    def articles_t1(self) -> np.ndarray:
        """Earlier-period article counts as a read-only float vector."""
        return self._a1

    @property
    def articles_t2(self) -> np.ndarray:
        """Later-period article counts as a read-only float vector."""
        return self._a2

    def index_of(self, journal_id: str) -> int:
        try:
            return self._index[journal_id]
        except KeyError:
            raise KeyError(f"unknown journal id {journal_id!r}") from None


@dataclass(frozen=True)
class CitationMatrix:
    """Square grid of citing -> cited counts with cached row sums.

    Entries are stored as float64, which keeps integral inputs exact.
    Construction only enforces squareness; content checks (finite,
    non-negative, dimensions matching a JournalSet) live in ``validate``
    so that a single call can report every violation at once.
    """

    counts: np.ndarray
    row_sums: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = np.array(self.counts, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"citation matrix must be square, got shape {arr.shape}")
        arr.flags.writeable = False
        object.__setattr__(self, "counts", arr)
        sums = arr.sum(axis=1)
        sums.flags.writeable = False
        object.__setattr__(self, "row_sums", sums)

    @property
    def n(self) -> int:
        return self.counts.shape[0]


@dataclass(frozen=True)
class StructureReport:
    """Connectivity facts about the citation graph's non-zero pattern."""

    irreducible: bool
    dangling_rows: tuple[int, ...]
    zero_columns: tuple[int, ...]


MAX_ISSUES_PER_CODE = 20
"""Issues of one code that ``validate`` stores; further ones are only counted."""


def validate(journals: JournalSet, matrix: CitationMatrix) -> tuple[JournalSet, CitationMatrix]:
    """Check a journal set / matrix pair and return it unchanged if sound.

    Raises ValidationError reporting every violation found: duplicate or
    empty ids, negative or non-finite article counts, a dimension mismatch,
    and negative or non-finite matrix cells. The first
    ``MAX_ISSUES_PER_CODE`` issues of each code are stored; the error's
    ``issue_count`` is the exact total.
    """
    issues: list[Issue] = []
    found: Counter[str] = Counter()

    def add(issue: Issue) -> None:
        found[issue.code] += 1
        if found[issue.code] <= MAX_ISSUES_PER_CODE:
            issues.append(issue)

    seen: dict[str, int] = {}
    for k, journal in enumerate(journals.journals):
        if journal.id == "":
            add(Issue("EmptyId", f"journal at index {k} has an empty id"))
        elif journal.id in seen:
            add(
                Issue(
                    "DuplicateId",
                    f"journal id {journal.id!r} appears at indices {seen[journal.id]} and {k}",
                    journal=journal.id,
                )
            )
        else:
            seen[journal.id] = k
        for label, count in (("articles_t1", journal.articles_t1), ("articles_t2", journal.articles_t2)):
            if not math.isfinite(count):
                add(Issue("NonFiniteCount", f"{label} of journal {journal.id!r} is not finite", journal=journal.id))
            elif count < 0:
                add(Issue("NegativeCount", f"{label} of journal {journal.id!r} is negative", journal=journal.id))

    if matrix.n != journals.n:
        add(
            Issue(
                "DimensionMismatch",
                f"journal set has {journals.n} journals but matrix is {matrix.n}x{matrix.n}",
            )
        )

    finite = np.isfinite(matrix.counts)
    for code, bad, what in (
        ("NonFiniteCount", ~finite, "is not finite"),
        ("NegativeCount", finite & (matrix.counts < 0), "is negative"),
    ):
        cells = np.argwhere(bad)
        room = max(MAX_ISSUES_PER_CODE - found[code], 0)
        found[code] += len(cells)
        issues.extend(
            Issue(code, f"matrix cell ({i}, {j}) {what}", cell=(int(i), int(j))) for i, j in cells[:room]
        )

    if issues:
        raise ValidationError(issues, sum(found.values()))
    return journals, matrix


def _counts_of(matrix) -> np.ndarray:
    if isinstance(matrix, CitationMatrix):
        return matrix.counts
    return np.asarray(matrix, dtype=float)


def _reaches_all(pattern: np.ndarray) -> bool:
    """Whether every node is reachable from node 0 along pattern's rows."""
    seen = np.zeros(pattern.shape[0], dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = pattern[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.all())


def is_irreducible(matrix) -> bool:
    """Whether the non-zero citation pattern is strongly connected.

    Same verdict as ``structure(matrix).irreducible`` (a single journal
    counts only when it cites itself, an empty matrix never), from a forward
    and a backward breadth-first sweep out of journal 0 instead of a full
    SCC pass.
    """
    pattern = _counts_of(matrix) > 0
    n = pattern.shape[0]
    if n <= 1:
        return bool(n and pattern[0, 0])
    return _reaches_all(pattern) and _reaches_all(pattern.T)


def require_irreducible(matrix) -> None:
    """Raise NotIrreducible unless ``is_irreducible(matrix)``.

    Only a failure pays for the full ``structure`` report and the strongly
    connected components that the error carries.
    """
    if not is_irreducible(matrix):
        raise NotIrreducible(structure(matrix), strongly_connected_components(matrix))


def strongly_connected_components(matrix) -> list[list[int]]:
    """Strongly connected components of the non-zero citation pattern.

    Iterative Tarjan; accepts a CitationMatrix or a bare array. Components
    are returned as lists of journal indices.
    """
    counts = _counts_of(matrix)
    n = counts.shape[0]
    adjacency = [np.nonzero(counts[v] > 0)[0].tolist() for v in range(n)]

    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            v, edge_pos = work[-1]
            if edge_pos == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            descended = False
            neighbours = adjacency[v]
            for k in range(edge_pos, len(neighbours)):
                w = neighbours[k]
                if index[w] == -1:
                    work[-1] = (v, k + 1)
                    work.append((w, 0))
                    descended = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if descended:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    component.append(w)
                    if w == v:
                        break
                components.append(component)
    return components


def structure(matrix) -> StructureReport:
    """Structural preflight report: connectivity, degenerate rows/columns.

    Depends only on the zero/non-zero pattern. A single journal counts as
    irreducible only when it cites itself. Periodicity is not reported: no
    solver needs it, since the alpha = 1 power path takes lazy half-steps.
    """
    counts = _counts_of(matrix)
    n = counts.shape[0]
    components = strongly_connected_components(counts)
    if n == 1:
        irreducible = bool(counts[0, 0] > 0)
    else:
        irreducible = len(components) == 1

    row_sums = counts.sum(axis=1)
    col_sums = counts.sum(axis=0)
    dangling = tuple(int(i) for i in np.flatnonzero(row_sums == 0))
    zero_cols = tuple(int(i) for i in np.flatnonzero(col_sums == 0))
    return StructureReport(irreducible, dangling, zero_cols)


def drop_journal(
    journals: JournalSet, matrix: CitationMatrix, index: int
) -> tuple[JournalSet, CitationMatrix]:
    """Remove one journal: delete its row and column, recompute row sums.

    The original instance is untouched; a fresh pair is returned.
    """
    n = journals.n
    if not 0 <= index < n:
        raise IndexOutOfRange(index, n)
    if n < 2:
        raise ValueError("cannot drop the only journal")
    kept = tuple(j for k, j in enumerate(journals.journals) if k != index)
    reduced = np.delete(np.delete(matrix.counts, index, axis=0), index, axis=1)
    return JournalSet(kept), CitationMatrix(reduced)
