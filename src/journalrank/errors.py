"""Typed errors shared across the package."""

from __future__ import annotations

from dataclasses import dataclass

_QUOTE_LIMIT = 40
"""Characters of an id or a file cell that an error message quotes."""


def quote(text: str) -> str:
    """repr of an id or cell, or of its first _QUOTE_LIMIT characters and its length."""
    if len(text) <= _QUOTE_LIMIT:
        return repr(text)
    return f"{text[:_QUOTE_LIMIT]!r}… ({len(text)} characters)"


class JournalRankError(Exception):
    """Base class for every error raised by this package."""


@dataclass(frozen=True)
class Issue:
    """One validation violation with a machine-readable code and location.

    `journal` carries the offending journal id when the problem is
    journal-level; `cell` carries (row, column) indices for matrix cells.
    """

    code: str
    message: str
    journal: str | None = None
    cell: tuple[int, int] | None = None


class ValidationError(JournalRankError):
    """A journal set / citation matrix pair failed validation.

    `issues` holds the violations found, not just the first one; when some
    were only counted, `issue_count` (the exact total) exceeds
    ``len(issues)`` and the message ends with "… and N more".
    """

    def __init__(self, issues, issue_count: int | None = None):
        self.issues = tuple(issues)
        self.issue_count = len(self.issues) if issue_count is None else issue_count
        summary = "; ".join(issue.message for issue in self.issues)
        hidden = self.issue_count - len(self.issues)
        if hidden:
            summary += f"; … and {hidden} more"
        super().__init__(f"{self.issue_count} validation issue(s): {summary}")


class IndexOutOfRange(JournalRankError, IndexError):
    """A journal index does not exist in the instance."""

    def __init__(self, index: int, n: int):
        self.index = index
        self.n = n
        super().__init__(f"journal index {index} out of range for {n} journals")


class _ZeroCount(JournalRankError):
    """A journal whose zero count an indicator cannot divide by.

    Subclasses set ``what``, the message tail after the journal label.
    """

    what = ""

    def __init__(self, index: int, journal_id: str | None = None):
        self.index = index
        self.journal_id = journal_id
        label = f"{quote(journal_id)} (index {index})" if journal_id else f"index {index}"
        super().__init__(f"journal {label} {self.what}")


class ZeroArticles(_ZeroCount):
    """A per-article indicator needs articles in the earlier period."""

    what = "published no articles in the earlier period"


class ZeroArticlesT2(_ZeroCount):
    """Citing-side weights need articles in the later period."""

    what = "published no articles in the later period"


class ZeroOutgoing(_ZeroCount):
    """A journal has no outgoing citations (dangling row)."""

    what = "has no outgoing citations"


class NotIrreducible(JournalRankError):
    """The citation graph is not strongly connected.

    `components` lists the strongly connected components (index lists),
    which identify the cut that disconnects the graph; None when there are
    none (an empty matrix).
    """

    def __init__(self, components=None):
        self.components = [list(c) for c in components] if components else None
        detail = ""
        if self.components:
            detail = f" ({len(self.components)} strongly connected components)"
        super().__init__(f"citation matrix is not irreducible{detail}")


class NoConvergence(JournalRankError):
    """The iterative solver did not reach its tolerance."""

    def __init__(self, iterations: int, residual: float):
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            f"no convergence after {iterations} iterations (residual {residual:.3e})"
        )


class PreconditionViolated(JournalRankError):
    """A check was asked to run on an instance outside its assumptions."""


class DegenerateInput(JournalRankError):
    """Correlation input has fewer than two points or zero variance."""


class GenerationFailed(JournalRankError):
    """A random-instance generator exhausted its retry budget."""
