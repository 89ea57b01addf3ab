"""Journal/citation data model, validation, and citation-graph structure.

The citation matrix follows the row = citing, column = cited convention:
``counts[i, j]`` is the number of citations from articles in journal ``i``
(later period) to articles in journal ``j`` (earlier period).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import IndexOutOfRange, Issue, NotIrreducible, ValidationError, quote


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
            raise KeyError(f"unknown journal id {quote(journal_id)}") from None


@dataclass(frozen=True)
class CitationMatrix:
    """Square grid of citing -> cited counts, immutable, with the storage
    facts every solve needs derived once.

    The constructor copies its input into one C-ordered float64 array, so
    integral counts stay exact and no derived value depends on the caller's
    memory layout. The counts are read-only, so what depends on them alone
    is computed once: the row sums, the non-zero count and the first
    negative cell (row-major, or None) on construction; the raw non-zeros
    and the irreducibility verdict, which only the sparse product and
    alpha = 1 need, in full on first use, so concurrent first use is safe.
    Construction only enforces squareness; content checks live in
    ``validate`` so that one call reports every violation. How the shares
    act is ``spectral``'s. ``np.asarray(matrix)`` gives the counts.
    """

    counts: np.ndarray
    row_sums: np.ndarray = field(init=False, repr=False, compare=False)
    nonzero_count: int = field(init=False, repr=False, compare=False)
    negative_cell: tuple[int, int] | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = np.array(self.counts, dtype=float, order="C")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"citation matrix must be square, got shape {arr.shape}")
        self._own(arr)

    @classmethod
    def _adopt(
        cls, counts: np.ndarray, *, nonzero_count: int | None = None, no_negative_cell: bool = False
    ) -> CitationMatrix:
        """Wrap a square C-ordered float64 array that nothing else
        references, without copying it: ``drop_journal``'s reduced counts
        and ``synth.block_model``'s draws. ``nonzero_count`` (when given)
        and ``no_negative_cell=True`` must equal what a scan of ``counts``
        would give; the facts not given are scanned for.
        """
        matrix = cls.__new__(cls)
        matrix._own(counts, nonzero_count, no_negative_cell)
        return matrix

    def _own(self, arr: np.ndarray, nonzero_count: int | None = None, no_negative_cell: bool = False) -> None:
        arr.flags.writeable = False
        sums = arr.sum(axis=1)
        sums.flags.writeable = False
        if nonzero_count is None:
            nonzero_count = int(np.count_nonzero(arr))
        object.__setattr__(self, "counts", arr)
        object.__setattr__(self, "row_sums", sums)
        object.__setattr__(self, "nonzero_count", nonzero_count)
        object.__setattr__(self, "negative_cell", None if no_negative_cell else _negative_cell(arr))

    def __array__(self, dtype=None, copy=None):
        # numpy 1.x passes no copy argument and rejects copy=None itself.
        if copy:
            return np.array(self.counts, dtype=dtype)
        return np.asarray(self.counts, dtype=dtype)

    @property
    def n(self) -> int:
        return self.counts.shape[0]

    @cached_property
    def nonzeros(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (rows, cols, counts) of the non-zero cells, row-major."""
        return _nonzeros(self.counts)

    @cached_property
    def irreducible(self) -> bool:
        """Whether the non-zero citation pattern is strongly connected.

        Same verdict as ``structure(matrix).irreducible`` (a single journal
        counts only when it cites itself, an empty matrix never), from a
        forward and a backward breadth-first sweep out of journal 0 instead
        of a full SCC pass.
        """
        return _pattern_irreducible(self.counts > 0)


def _negative_cell(counts: np.ndarray) -> tuple[int, int] | None:
    # min() needs no n x n boolean temporary, which keeps the peak memory of
    # many short-lived matrices flat. It is NaN when a cell is NaN; the scan
    # decides then.
    if counts.size == 0 or counts.min() >= 0:
        return None
    negative = np.flatnonzero(counts < 0)
    return divmod(int(negative[0]), counts.shape[0]) if negative.size else None


def _nonzeros(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    flat = np.flatnonzero(counts)
    rows, cols = np.divmod(flat, counts.shape[0])
    values = counts.ravel()[flat]
    for array in (rows, cols, values):
        array.flags.writeable = False
    return rows, cols, values


@dataclass(frozen=True)
class StructureReport:
    """Connectivity facts about the citation graph's non-zero pattern."""

    irreducible: bool


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
                    f"journal id {quote(journal.id)} appears at indices {seen[journal.id]} and {k}",
                    journal=journal.id,
                )
            )
        else:
            seen[journal.id] = k
        for label, count in (("articles_t1", journal.articles_t1), ("articles_t2", journal.articles_t2)):
            if not math.isfinite(count):
                add(Issue("NonFiniteCount", f"{label} of journal {quote(journal.id)} is not finite", journal=journal.id))
            elif count < 0:
                add(Issue("NegativeCount", f"{label} of journal {quote(journal.id)} is negative", journal=journal.id))

    mismatch = size_mismatch(journals, matrix)
    if mismatch:
        add(Issue("DimensionMismatch", mismatch))

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


def size_mismatch(journals: JournalSet, matrix: CitationMatrix) -> str | None:
    """``validate``'s DimensionMismatch message, or None when the sizes agree."""
    if matrix.n == journals.n:
        return None
    return f"journal set has {journals.n} journals but matrix is {matrix.n}x{matrix.n}"


def _reaches_all(pattern: np.ndarray) -> bool:
    """Whether every node is reachable from node 0 along pattern's rows."""
    seen = np.zeros(pattern.shape[0], dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = pattern[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.all())


def _pattern_irreducible(pattern: np.ndarray) -> bool:
    n = pattern.shape[0]
    if n <= 1:
        return bool(n and pattern[0, 0])
    return _reaches_all(pattern) and _reaches_all(pattern.T)


def require_irreducible(matrix: CitationMatrix) -> None:
    """Raise NotIrreducible unless ``matrix.irreducible``.

    Only a failure pays for the strongly connected components that the
    error carries.
    """
    if not matrix.irreducible:
        raise NotIrreducible(strongly_connected_components(matrix))


def strongly_connected_components(matrix) -> list[list[int]]:
    """Strongly connected components of the non-zero citation pattern.

    Iterative Tarjan; accepts a CitationMatrix or a bare array. Components
    are returned as lists of journal indices.
    """
    counts = np.asarray(matrix, dtype=float)
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
    """Structural preflight report: whether the pattern is strongly connected.

    Depends only on the zero/non-zero pattern. A single journal counts as
    irreducible only when it cites itself. Periodicity is not reported: no
    solver needs it, since the alpha = 1 power path takes lazy half-steps.
    """
    counts = np.asarray(matrix, dtype=float)
    if counts.shape[0] == 1:
        return StructureReport(bool(counts[0, 0] > 0))
    return StructureReport(len(strongly_connected_components(counts)) == 1)


def drop_journal(
    journals: JournalSet, matrix: CitationMatrix, index: int
) -> tuple[JournalSet, CitationMatrix]:
    """Remove one journal: delete its row and column, recompute row sums.

    The original instance is untouched; a fresh pair is returned. The reduced
    counts are copied once, around row and column ``index``. The reduced
    matrix is handed the parent's non-zero count less the cells of that row
    and column, and the absence of negative cells when the parent has none;
    it derives its non-zeros and irreducibility itself, since a drop can
    disconnect the citation graph. The result equals ``CitationMatrix`` of
    the counts without that row and column.

    Raises TypeError unless ``index`` is an integer (bool is not one), and
    IndexOutOfRange unless it names a journal.
    """
    if isinstance(index, (bool, np.bool_)):
        # numpy 1.x names np.bool_ "bool_", numpy 2 "bool".
        raise TypeError(f"journal index must be an integer, got bool {quote(str(index))}")
    if not isinstance(index, (int, np.integer)):
        raise TypeError(f"journal index must be an integer, got {type(index).__name__} {quote(str(index))}")
    n = journals.n
    if not 0 <= index < n:
        raise IndexOutOfRange(index, n)
    if n < 2:
        raise ValueError("cannot drop the only journal")
    k = int(index)
    counts = matrix.counts
    reduced = np.empty((n - 1, n - 1))
    reduced[:k, :k] = counts[:k, :k]
    reduced[:k, k:] = counts[:k, k + 1 :]
    reduced[k:, :k] = counts[k + 1 :, :k]
    reduced[k:, k:] = counts[k + 1 :, k + 1 :]
    lost = np.count_nonzero(counts[k]) + np.count_nonzero(counts[:, k]) - (counts[k, k] != 0)
    kept = journals.journals[:k] + journals.journals[k + 1 :]
    reduced_matrix = CitationMatrix._adopt(
        reduced, nonzero_count=matrix.nonzero_count - int(lost), no_negative_cell=matrix.negative_cell is None
    )
    return JournalSet(kept), reduced_matrix
