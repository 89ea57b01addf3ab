"""The data model (journals, citation matrix, two-field split), its
validation, the matrix preconditions every indicator and solve shares, and
citation-graph structure.

The citation matrix follows the row = citing, column = cited convention:
``counts[i, j]`` is the number of citations from articles in journal ``i``
(later period) to articles in journal ``j`` (earlier period). A matrix
with fewer than ``SPARSE_DENSITY`` non-zero cells, as a real citation
database is, stores only its row-major non-zeros and derives its facts
(row sums, irreducibility, journal drops) and its failure reports
(``validate``'s unsound cells, the strongly connected components) from
them; the dense counts of such a matrix are built only on request, by
direct elimination and ``np.asarray``.

``validate`` reports every issue of an instance; the gates that every
indicator and solve runs, ``require_sound`` and ``require_citing``, raise
for the first matrix fault alone, in ``validate``'s words, and scan the
non-zeros only when the stored facts show a fault. Their journals-side
twins, ``require_articles`` and ``require_published``, gate one period's
article counts: AF reads both periods, IW none, the rest the earlier one
(WPR only when gamma > 0). The CLI validates first, so only library calls
reach the gates.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    IndexOutOfRange, Issue, NotIrreducible, ValidationError, ZeroArticles, ZeroArticlesT2, ZeroOutgoing, quote
)


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


# Share of non-zero cells below which a CitationMatrix stores only its
# non-zeros, and the power path iterates over them instead of the dense
# matrix. Measured at n = 1000-2000 (one BLAS thread, x86-64): a sparse
# step costs as much as a dense one at 9-10 % density, and extracting the
# non-zeros costs 17-26 dense steps. That extraction, paid once per matrix,
# is repaid after 40-55 steps at 5 % density but only after 60-95 at 7 %,
# so the lower cut keeps the sparse path ahead on a matrix solved at several
# dampings. Since the power path extrapolates and takes plain steps at
# alpha = 1, alpha = 0.85 to 1 takes about 22-31 steps at n = 1500, 1 %, so
# one lone solve near the cut may not repay the extraction; the cut has not
# been measured again with these step counts. Below the cut the triplets
# (24 bytes a non-zero) also take less memory than the dense array (8 bytes
# a cell) by a factor of at least 6.7.
SPARSE_DENSITY = 0.05


@dataclass(frozen=True, eq=False, init=False)
class CitationMatrix:
    """Square grid of citing -> cited counts, immutable, with the storage
    facts every solve needs derived once.

    The constructor copies its input as C-ordered float64, so integral
    counts stay exact and no derived value depends on the caller's memory
    layout, and picks the storage once, by the actual non-zero count: below
    ``SPARSE_DENSITY * n**2`` non-zero cells the matrix keeps only its
    row-major non-zeros (``sparse`` is True), otherwise the dense array.
    The counts are read-only, so what depends on them alone is computed
    once: the row sums, the non-zero count and the first negative cell
    (row-major, or None) on construction; the irreducibility verdict, the
    non-zeros of a dense matrix and the dense counts of a sparse one in
    full on first use, so concurrent first use is safe. Construction only
    enforces squareness; content checks live in ``validate`` so that one
    call reports every violation. How the shares act is ``spectral``'s.
    ``np.asarray(matrix)`` gives the counts.
    """

    n: int
    nonzero_count: int
    sparse: bool
    row_sums: np.ndarray = field(repr=False)
    negative_cell: tuple[int, int] | None = field(repr=False)

    def __init__(self, counts):
        arr = np.array(counts, dtype=float, order="C")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"citation matrix must be square, got shape {arr.shape}")
        self._own(arr)

    @classmethod
    def _adopt(
        cls,
        counts,
        *,
        n: int | None = None,
        nonzero_count: int | None = None,
        no_negative_cell: bool = False,
    ) -> CitationMatrix:
        """Wrap counts that nothing else references, without copying them:
        a square C-ordered float64 array or, with ``n``, the row-major
        (rows, cols, values) non-zeros of an n x n matrix, as
        ``drop_journal``, ``synth.block_model`` and ``dataio.read_matrix``
        hand them over. The matrix still picks its storage by the non-zero
        count. ``nonzero_count`` (when given with an array) and
        ``no_negative_cell=True`` must equal what a scan of the counts would
        give; the facts not given are scanned for.
        """
        matrix = cls.__new__(cls)
        matrix._own(counts, n, nonzero_count, no_negative_cell)
        return matrix

    def _own(
        self, counts, n: int | None = None, nonzero_count: int | None = None, no_negative_cell: bool = False
    ) -> None:
        if n is None:
            n = counts.shape[0]
            if nonzero_count is None:
                nonzero_count = int(np.count_nonzero(counts))
            if nonzero_count < SPARSE_DENSITY * n * n:
                counts = _nonzeros(counts)
        else:
            nonzero_count = counts[2].size
            if nonzero_count >= SPARSE_DENSITY * n * n:
                counts = _densify(n, *counts)
        sparse = isinstance(counts, tuple)
        cell = None
        if sparse:
            rows, cols, values = counts
            for array in counts:
                array.flags.writeable = False
            # Without non-zeros bincount would return int64 zeros.
            sums = np.bincount(rows, weights=values, minlength=n).astype(float, copy=False)
            if not no_negative_cell:
                negative = np.flatnonzero(values < 0)
                if negative.size:
                    cell = (int(rows[negative[0]]), int(cols[negative[0]]))
            self.__dict__["nonzeros"] = counts
        else:
            counts.flags.writeable = False
            with np.errstate(over="ignore"):  # an overflowing row is validate's to report
                sums = counts.sum(axis=1)
            if not no_negative_cell:
                cell = _negative_cell(counts)
            self.__dict__["counts"] = counts
        sums.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "nonzero_count", nonzero_count)
        object.__setattr__(self, "sparse", sparse)
        object.__setattr__(self, "row_sums", sums)
        object.__setattr__(self, "negative_cell", cell)

    def __array__(self, dtype=None, copy=None):
        # numpy 1.x passes no copy argument and rejects copy=None itself.
        if copy:
            return np.array(self.counts, dtype=dtype)
        return np.asarray(self.counts, dtype=dtype)

    @cached_property
    def counts(self) -> np.ndarray:
        """The read-only n x n counts, C-ordered float64: what a dense
        matrix stores, and built on request from a sparse one's non-zeros."""
        dense = _densify(self.n, *self.nonzeros)
        dense.flags.writeable = False
        return dense

    @cached_property
    def nonzeros(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (rows, cols, counts) of the non-zero cells, row-major:
        what a sparse matrix stores, and scanned on request from a dense one.
        Every NaN, infinite or negative cell is among them, in the order
        ``np.argwhere`` would list it."""
        return _nonzeros(self.counts)

    @cached_property
    def irreducible(self) -> bool:
        """Whether the pattern of positive cells is strongly connected.

        Same verdict as ``structure(matrix).irreducible``: a single journal
        counts only when it cites itself, an empty matrix never. A larger
        matrix takes a forward and a backward breadth-first sweep out of
        journal 0 instead of a full SCC pass, one ``_reaches_all`` each;
        the storage gives the one-link step, along the rows and columns of
        the dense pattern or along the positive stored non-zeros.
        """
        n = self.n
        if n <= 1:
            # A lone journal's row sum is its self-citation count.
            return bool(n and self.row_sums[0] > 0)
        if self.sparse:
            rows, cols = _positive_links(self)
            steps = (
                lambda frontier: np.bincount(cols[frontier[rows]], minlength=n) > 0,
                lambda frontier: np.bincount(rows[frontier[cols]], minlength=n) > 0,
            )
        else:
            pattern = self.counts > 0
            steps = (
                lambda frontier: pattern[frontier].any(axis=0),
                lambda frontier: pattern[:, frontier].any(axis=1),
            )
        return all(_reaches_all(n, step) for step in steps)


def _negative_cell(counts: np.ndarray) -> tuple[int, int] | None:
    # min() needs no n x n boolean temporary, which keeps the peak memory of
    # many short-lived matrices flat. It is NaN when a cell is NaN; the scan
    # decides then.
    if counts.size == 0 or counts.min() >= 0:
        return None
    negative = np.flatnonzero(counts < 0)
    return divmod(int(negative[0]), counts.shape[0]) if negative.size else None


def _nonzeros(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # The boolean mask is scanned several times faster than the float cells.
    flat = np.flatnonzero(counts != 0)
    rows, cols = np.divmod(flat, counts.shape[0])
    values = counts.ravel()[flat]
    for array in (rows, cols, values):
        array.flags.writeable = False
    return rows, cols, values


def _densify(n: int, rows: np.ndarray, cols: np.ndarray, values: np.ndarray) -> np.ndarray:
    dense = np.zeros((n, n))
    dense[rows, cols] = values
    return dense


@dataclass(frozen=True)
class FieldPartition:
    """Assignment of every journal to field 1 or field 2."""

    field_of: tuple[int, ...]

    def __post_init__(self):
        labels = tuple(self.field_of)
        if any(isinstance(f, (bool, np.bool_)) or not isinstance(f, (int, np.integer)) for f in labels):
            raise ValueError("field labels must be integers")
        object.__setattr__(self, "field_of", tuple(int(f) for f in labels))
        if any(f not in (1, 2) for f in self.field_of):
            raise ValueError("fields must be labelled 1 or 2")
        if not self.j1.size or not self.j2.size:
            raise ValueError("both fields must be non-empty")

    @property
    def n(self) -> int:
        return len(self.field_of)

    @property
    def j1(self) -> np.ndarray:
        return np.flatnonzero(np.array(self.field_of) == 1)

    @property
    def j2(self) -> np.ndarray:
        return np.flatnonzero(np.array(self.field_of) == 2)

    def is_balanced(self, journals: JournalSet) -> bool:
        """True when both fields published the same number of earlier-period articles."""
        a1 = journals.articles_t1
        return float(a1[self.j1].sum()) == float(a1[self.j2].sum())


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
    negative or non-finite matrix cells, and, when every cell is sound, the
    journals whose citations made or received sum beyond the float range
    (``SumOverflow``). The first
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
        for period, count in enumerate((journal.articles_t1, journal.articles_t2), 1):
            issue = _count_issue(journal.id, period, count)
            if issue:
                add(issue)

    mismatch = size_mismatch(journals, matrix)
    if mismatch:
        add(Issue("DimensionMismatch", mismatch))

    if _may_be_unsound(matrix):
        rows, cols, values = matrix.nonzeros
        finite = np.isfinite(values)
        for code, bad, what in (
            ("NonFiniteCount", ~finite, "is not finite"),
            ("NegativeCount", finite & (values < 0), "is negative"),
        ):
            cells = np.column_stack((rows[bad], cols[bad]))
            room = max(MAX_ISSUES_PER_CODE - found[code], 0)
            found[code] += len(cells)
            issues.extend(
                Issue(code, f"matrix cell ({i}, {j}) {what}", cell=(int(i), int(j))) for i, j in cells[:room]
            )
        if matrix.negative_cell is None and finite.all():
            for issue in _sum_overflows(matrix, journals if mismatch is None else None):
                add(issue)

    if issues:
        raise ValidationError(issues, sum(found.values()))
    return journals, matrix


def size_mismatch(journals: JournalSet, matrix: CitationMatrix) -> str | None:
    """``validate``'s DimensionMismatch message, or None when the sizes agree."""
    if matrix.n == journals.n:
        return None
    return f"journal set has {journals.n} journals but matrix is {matrix.n}x{matrix.n}"


def _may_be_unsound(matrix: CitationMatrix) -> bool:
    # With no negative cell, a finite total has only finite cells, and it
    # bounds every row and column sum too, so the scans would find nothing.
    with np.errstate(over="ignore", invalid="ignore"):
        return matrix.negative_cell is not None or not np.isfinite(matrix.row_sums.sum())


def _sum_overflows(matrix: CitationMatrix, journals: JournalSet | None) -> list[Issue]:
    """``validate``'s SumOverflow issues for a matrix of sound cells: each row,
    then each column, beyond the float range, else the total. Journals are
    named by id when given, else by matrix index."""
    _, cols, values = matrix.nonzeros
    received = np.bincount(cols, weights=values, minlength=matrix.n)
    issues = []
    for what, sums in (("made", matrix.row_sums), ("received", received)):
        for i in np.flatnonzero(~np.isfinite(sums)):
            journal = journals.journals[i].id if journals is not None else None
            who = f"journal {quote(journal)}" if journal is not None else f"matrix index {i}"
            message = f"citations {what} by {who} sum beyond the float range"
            issues.append(Issue("SumOverflow", message, journal=journal))
    return issues or [Issue("SumOverflow", "the matrix's citations sum beyond the float range")]


def require_sound(matrix: CitationMatrix, journals: JournalSet | None = None) -> np.ndarray:
    """Return the row sums, or raise ValueError in ``validate``'s words for
    the first fault: a size mismatch with ``journals``, no journals, the
    first non-finite or negative cell in row-major order, and the first sum
    beyond the float range (rows, then columns, then the total), naming a
    journal by id when ``journals`` is given."""
    mismatch = journals is not None and size_mismatch(journals, matrix)
    if mismatch:
        raise ValueError(mismatch)
    if matrix.n == 0:
        raise ValueError("the citation matrix has no journals")
    if _may_be_unsound(matrix):
        rows, cols, values = matrix.nonzeros
        unsound = np.flatnonzero(~np.isfinite(values) | (values < 0))
        if unsound.size:
            k = unsound[0]
            what = "is negative" if np.isfinite(values[k]) else "is not finite"
            raise ValueError(f"matrix cell ({rows[k]}, {cols[k]}) {what}")
        raise ValueError(_sum_overflows(matrix, journals)[0].message)
    return matrix.row_sums


def require_citing(matrix: CitationMatrix, journals: JournalSet | None = None) -> np.ndarray:
    """``require_sound``, then ZeroOutgoing for the first journal that cites
    nothing; returns the row sums, all positive and finite."""
    return require_nonzero(require_sound(matrix, journals), journals, ZeroOutgoing)


def _count_issue(journal_id: str, period: int, count: float) -> Issue | None:
    """``validate``'s issue for one article count of period 1 or 2, or None."""
    if not math.isfinite(count):
        code, what = "NonFiniteCount", "is not finite"
    elif count < 0:
        code, what = "NegativeCount", "is negative"
    else:
        return None
    return Issue(code, f"articles_t{period} of journal {quote(journal_id)} {what}", journal=journal_id)


def require_articles(journals: JournalSet, period: int) -> np.ndarray:
    """Return the article counts of period 1 or 2, or raise ValueError in
    ``validate``'s words for the first non-finite or negative one."""
    counts = getattr(journals, f"articles_t{period}")
    unsound = np.flatnonzero(~np.isfinite(counts) | (counts < 0))
    if unsound.size:
        k = unsound[0]
        raise ValueError(_count_issue(journals.journals[k].id, period, counts[k]).message)
    return counts


def require_published(journals: JournalSet, period: int) -> np.ndarray:
    """``require_articles``, then ZeroArticles or ZeroArticlesT2 for the first
    journal without articles; returns the counts, all positive and finite."""
    error = ZeroArticles if period == 1 else ZeroArticlesT2
    return require_nonzero(require_articles(journals, period), journals, error)


def _reaches_all(n: int, step) -> bool:
    """Whether every node is reachable from node 0, where step(frontier)
    marks the nodes one link away from the boolean mask frontier."""
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = step(frontier) & ~seen
        seen |= frontier
    return bool(seen.all())


def _positive_links(matrix: CitationMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Row-major (rows, cols) of the matrix's positive cells."""
    rows, cols, values = matrix.nonzeros
    positive = values > 0
    return rows[positive], cols[positive]


def require_nonzero(values: np.ndarray, journals: JournalSet | None, error) -> np.ndarray:
    """Return values, or raise error for the first journal whose value is 0."""
    zero = np.flatnonzero(values == 0)
    if zero.size:
        i = int(zero[0])
        raise error(i, journals.journals[i].id if journals is not None else None)
    return values


def require_irreducible(matrix: CitationMatrix) -> None:
    """Raise NotIrreducible unless ``matrix.irreducible``.

    Only a failure pays for the strongly connected components that the
    error carries.
    """
    if not matrix.irreducible:
        raise NotIrreducible(strongly_connected_components(matrix))


def strongly_connected_components(matrix) -> list[list[int]]:
    """Strongly connected components of the pattern of positive cells.

    Iterative Tarjan over the positive stored non-zeros, never the dense
    counts; accepts a CitationMatrix or a bare array, which is wrapped in
    one. Components are returned as lists of journal indices.
    """
    matrix = matrix if isinstance(matrix, CitationMatrix) else CitationMatrix(matrix)
    n = matrix.n
    rows, cols = _positive_links(matrix)
    bounds = np.searchsorted(rows, np.arange(n + 1)).tolist()
    adjacency = [cols[a:b].tolist() for a, b in zip(bounds[:-1], bounds[1:])]

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
    solver needs it, since the alpha = 1 power path goes on with lazy
    half-steps when its plain steps do not settle.
    """
    matrix = matrix if isinstance(matrix, CitationMatrix) else CitationMatrix(matrix)
    if matrix.n == 1:
        return StructureReport(bool(np.any(matrix.nonzeros[2] > 0)))
    return StructureReport(len(strongly_connected_components(matrix)) == 1)


def drop_journal(
    journals: JournalSet, matrix: CitationMatrix, index: int
) -> tuple[JournalSet, CitationMatrix]:
    """Remove one journal: delete its row and column, recompute row sums.

    The original instance is untouched; a fresh pair is returned. A dense
    matrix's reduced counts are copied once, around row and column
    ``index``, and handed the parent's non-zero count less the cells of
    that row and column; a sparse matrix's non-zeros are filtered and
    renumbered, never densified. The reduced matrix is handed the absence
    of negative cells when the parent has none, picks its own storage by
    its non-zero count and derives its irreducibility itself, since a drop
    can disconnect the citation graph. The result equals ``CitationMatrix``
    of the counts without that row and column.

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
    kept = journals.journals[:k] + journals.journals[k + 1 :]
    no_negative_cell = matrix.negative_cell is None
    if matrix.sparse:
        rows, cols, values = matrix.nonzeros
        keep = (rows != k) & (cols != k)
        rows, cols = rows[keep], cols[keep]
        reduced = (rows - (rows > k), cols - (cols > k), values[keep])
        return JournalSet(kept), CitationMatrix._adopt(reduced, n=n - 1, no_negative_cell=no_negative_cell)
    counts = matrix.counts
    reduced = np.empty((n - 1, n - 1))
    reduced[:k, :k] = counts[:k, :k]
    reduced[:k, k:] = counts[:k, k + 1 :]
    reduced[k:, :k] = counts[k + 1 :, :k]
    reduced[k:, k:] = counts[k + 1 :, k + 1 :]
    lost = np.count_nonzero(counts[k]) + np.count_nonzero(counts[:, k]) - (counts[k, k] != 0)
    reduced_matrix = CitationMatrix._adopt(
        reduced, nonzero_count=matrix.nonzero_count - int(lost), no_negative_cell=no_negative_cell
    )
    return JournalSet(kept), reduced_matrix
