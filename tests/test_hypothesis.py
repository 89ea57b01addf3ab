"""Property-based checks of the paper's relations on random small instances.

Most instances have positive citation counts (hence an irreducible,
aperiodic pattern) and at most 12 journals, so the direct solver is exact
and each example costs a few milliseconds. The sparse instances (21-40
journals, below ``SPARSE_DENSITY``) reach the power path's triplet matvec.
The cycle instances (2-8 journals, zero counts allowed) are also scored in
exact rational arithmetic (``exact.py``), so the paper's endpoint relations
are checked as equalities, with no tolerance.
"""

import math
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

import journalrank as jr
from journalrank import core, dataio, spectral
from journalrank.core import SPARSE_DENSITY
from journalrank.errors import quote
from journalrank.spectral import SolverConfig, stationary

from exact import EXACT_RTOL, exact_scores

DIRECT = SolverConfig(method="direct")
POWER = SolverConfig(method="power")
KINDS = (
    ("if", {}),
    ("af", {}),
    ("iw", {}),
    ("ipp", {}),
    ("ef", {"alpha": 0.85}),
    ("ai", {"alpha": 0.85}),
    ("wpr", {"beta": 0.9, "gamma": 0.0999}),
    ("sjr", {}),
)
# Fixed examples keep the suite deterministic; no example database is written.
PROPERTY = settings(max_examples=30, deadline=None, database=None, derandomize=True)


@st.composite
def instances(draw, proportional=False):
    """A (journals, matrix) pair with 1-12 journals and positive counts.

    With ``proportional`` the later-period article counts are one integer
    multiple of the earlier-period ones.
    """
    n = draw(st.integers(1, 12))
    counts = draw(st.lists(st.integers(1, 1000), min_size=n * n, max_size=n * n))
    a1 = draw(st.lists(st.integers(1, 500), min_size=n, max_size=n))
    if proportional:
        eta = draw(st.integers(1, 3))
        a2 = [eta * a for a in a1]
    else:
        a2 = draw(st.lists(st.integers(1, 500), min_size=n, max_size=n))
    journals = jr.JournalSet(tuple(jr.Journal(f"J{k}", None, a1[k], a2[k]) for k in range(n)))
    return journals, jr.CitationMatrix(np.array(counts, dtype=float).reshape(n, n))


@PROPERTY
@given(st.data())
def test_relabelling_permutes_every_kind(data):
    journals, matrix = data.draw(instances())
    perm = np.array(data.draw(st.permutations(range(journals.n))))
    permuted_journals = jr.JournalSet(tuple(journals.journals[i] for i in perm))
    permuted_matrix = jr.CitationMatrix(matrix.counts[np.ix_(perm, perm)])
    for kind, params in KINDS:
        base = jr.compute(kind, journals, matrix, **params, solver=DIRECT)
        shuffled = jr.compute(kind, permuted_journals, permuted_matrix, **params, solver=DIRECT)
        np.testing.assert_allclose(shuffled.values, base.values[perm], rtol=1e-9, atol=1e-12, err_msg=kind)


@PROPERTY
@given(instances(), st.floats(0.01, 100.0))
def test_influence_weights_ignore_rescaling(instance, factor):
    journals, matrix = instance
    base = jr.influence_weights(journals, matrix, DIRECT).values
    scaled = jr.influence_weights(journals, jr.CitationMatrix(factor * matrix.counts), DIRECT).values
    np.testing.assert_allclose(scaled, base, rtol=1e-9)


@PROPERTY
@given(instances(), st.floats(0.0, 1.0))
def test_eigenfactor_sums_to_hundred(instance, alpha):
    assert jr.eigenfactor(*instance, alpha=alpha, solver=DIRECT).values.sum() == pytest.approx(100.0, abs=1e-9)


@PROPERTY
@given(instances(proportional=True))
def test_audience_factor_is_proportional_to_undamped_article_influence(instance):
    assert jr.af_endpoint_check(*instance, DIRECT).passed


@PROPERTY
@given(instances())
def test_ipp_is_proportional_to_fully_damped_article_influence(instance):
    assert jr.ipp_endpoint_check(*instance, DIRECT).passed


@PROPERTY
@given(instances(), st.sampled_from((0.25, 0.5, 0.85, 0.99, 1.0)))
def test_direct_and_power_agree(instance, alpha):
    journals, matrix = instance
    teleport = journals.articles_t1 / journals.articles_t1.sum()
    direct, _ = stationary(matrix.counts, alpha, teleport, DIRECT)
    power, _ = stationary(matrix.counts, alpha, teleport, POWER)
    assert np.abs(direct - power).max() < 1e-10


@st.composite
def sparse_instances(draw):
    """A (counts, teleport) pair of 21-40 journals whose counts are a random
    cycle through every journal plus a few extra citations, so the pattern
    is irreducible and sparser than SPARSE_DENSITY."""
    n = draw(st.integers(21, 40))
    order = np.array(draw(st.permutations(range(n))))
    counts = np.zeros((n, n))
    counts[order, np.roll(order, -1)] = draw(st.lists(st.integers(1, 1000), min_size=n, max_size=n))
    room = math.ceil(SPARSE_DENSITY * n * n) - 1 - n
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 1000))
    for i, j, count in draw(st.lists(cell, max_size=min(5, room))):
        counts[i, j] += count
    weights = np.array(draw(st.lists(st.integers(1, 500), min_size=n, max_size=n)), dtype=float)
    return counts, weights / weights.sum()


@PROPERTY
@given(sparse_instances(), st.sampled_from((0.5, 0.85, 1.0)))
def test_direct_and_power_agree_on_sparse_inputs(instance, alpha):
    counts, teleport = instance
    n = counts.shape[0]
    assert np.count_nonzero(counts) < SPARSE_DENSITY * n * n
    direct, _ = stationary(counts, alpha, teleport, DIRECT)
    power, _ = stationary(counts, alpha, teleport, POWER)
    assert np.abs(direct - power).max() < 1e-10


EXACT_ALPHAS = (0.0, 0.25, 0.5, 0.85, 1.0)


@st.composite
def cycle_instances(draw, proportional=False):
    """A (journals, matrix) pair of 2-8 journals whose integer counts hold a
    cycle through every journal, so the pattern is irreducible and every row
    cites, plus further counts, zeros among them. With ``proportional`` the
    later-period article counts are one integer multiple of the earlier ones.
    """
    n = draw(st.integers(2, 8))
    order = np.array(draw(st.permutations(range(n))))
    counts = np.array(draw(st.lists(st.integers(0, 1000), min_size=n * n, max_size=n * n)), dtype=float)
    counts = counts.reshape(n, n)
    counts[order, np.roll(order, -1)] += draw(st.lists(st.integers(1, 1000), min_size=n, max_size=n))
    a1 = draw(st.lists(st.integers(1, 500), min_size=n, max_size=n))
    if proportional:
        eta = draw(st.integers(1, 3))
        a2 = [eta * a for a in a1]
    else:
        a2 = draw(st.lists(st.integers(1, 500), min_size=n, max_size=n))
    journals = jr.JournalSet(tuple(jr.Journal(f"J{k}", None, a1[k], a2[k]) for k in range(n)))
    return journals, jr.CitationMatrix(counts)


def one_ratio(numerators, denominators):
    """The one value every numerator / denominator takes, or None."""
    ratios = {a / b for a, b in zip(numerators, denominators)}
    return ratios.pop() if len(ratios) == 1 else None


@PROPERTY
@given(cycle_instances(proportional=True))
def test_endpoint_relations_hold_exactly(instance):
    journals, matrix = instance
    # Both constants follow from the formulas: AF / AI(0) is the citation
    # total, and IPP / AI(1) the total over the journal count.
    total = Fraction(int(matrix.row_sums.sum()))
    af, ai0 = exact_scores("af", *instance), exact_scores("ai", *instance, alpha=0)
    assert one_ratio(af, ai0) == total
    ipp, ai1 = exact_scores("ipp", *instance), exact_scores("ai", *instance, alpha=1)
    assert one_ratio(ipp, ai1) == total / journals.n
    for alpha in EXACT_ALPHAS:
        assert sum(exact_scores("ef", *instance, alpha=Fraction(alpha))) == 100


@PROPERTY
@given(cycle_instances(), st.sampled_from(EXACT_ALPHAS))
def test_every_kind_lies_near_its_exact_scores(instance, alpha):
    for kind, params in KINDS:
        params = {name: alpha if name == "alpha" else value for name, value in params.items()}
        values = jr.compute(kind, *instance, **params).values
        exact = exact_scores(kind, *instance, **(dict(jr.indicators.KINDS[kind].params) | params))
        expected = np.array([float(v) for v in exact])
        np.testing.assert_allclose(values, expected, rtol=EXACT_RTOL, atol=0, err_msg=kind)


# Ids and names mix the characters CSV must quote with any other text. NUL
# is left out: the csv module of Python 3.10 cannot read it back.
CSV_TEXT = st.text(
    st.sampled_from(',"\n\r') | st.characters(exclude_characters="\x00", exclude_categories=("Cs",)),
    max_size=8,
)


@PROPERTY
@given(st.data())
def test_csv_files_round_trip_byte_for_byte(data):
    ids = data.draw(st.lists(CSV_TEXT.filter(bool), min_size=1, max_size=6, unique=True))
    n = len(ids)
    names = data.draw(st.lists(CSV_TEXT, min_size=n, max_size=n))
    articles = data.draw(st.lists(st.integers(0, 10**6), min_size=2 * n, max_size=2 * n))
    counts = data.draw(st.lists(st.integers(0, 10**12), min_size=n * n, max_size=n * n))
    journals = jr.JournalSet(
        tuple(jr.Journal(ids[k], names[k] or None, articles[k], articles[n + k]) for k in range(n))
    )
    matrix = jr.CitationMatrix(np.array(counts, dtype=float).reshape(n, n))
    with tempfile.TemporaryDirectory() as root:
        journals_csv, matrix_csv = Path(root, "journals.csv"), Path(root, "matrix.csv")
        dataio.write_journals(journals_csv, journals)
        dataio.write_matrix(matrix_csv, journals, matrix)
        written = journals_csv.read_bytes(), matrix_csv.read_bytes()
        read_journals = dataio.read_journals(journals_csv)
        dataio.write_matrix(matrix_csv, read_journals, dataio.read_matrix(matrix_csv, read_journals))
        dataio.write_journals(journals_csv, read_journals)
        assert (journals_csv.read_bytes(), matrix_csv.read_bytes()) == written


@st.composite
def awkward_counts(draw):
    """A 2-9 journal count matrix that may hold NaN cells, negative cells
    and zero rows, in C or Fortran layout."""
    n = draw(st.integers(2, 9))
    values = [0.0, 1.0, 2.0, 0.5, 1000.0]
    if draw(st.booleans()):
        values.append(-1.0)
    if draw(st.booleans()):
        values.append(math.nan)
    counts = np.array(draw(st.lists(st.sampled_from(values), min_size=n * n, max_size=n * n))).reshape(n, n)
    for row in draw(st.sets(st.integers(0, n - 1), max_size=2)):
        counts[row] = 0.0
    return np.asfortranarray(counts) if draw(st.booleans()) else counts


@st.composite
def reducible_counts(draw):
    """A 2-9 journal count matrix in which every journal cites itself and
    no journal of the second block cites the first: every row sum is
    positive, yet the pattern is reducible."""
    n = draw(st.integers(2, 9))
    split = draw(st.integers(1, n - 1))
    counts = np.array(draw(st.lists(st.sampled_from((0.0, 1.0, 3.0)), min_size=n * n, max_size=n * n))).reshape(n, n)
    counts[split:, :split] = 0.0
    counts[np.diag_indices(n)] += 1.0
    return counts


FACTS = ("nonzero_count", "nonzeros", "negative_cell", "irreducible")


def assert_same_matrix(actual, expected):
    arrays = [("counts", actual.counts, expected.counts), ("row_sums", actual.row_sums, expected.row_sums)]
    arrays += [(f"nonzeros[{i}]", a, e) for i, (a, e) in enumerate(zip(actual.nonzeros, expected.nonzeros))]
    for name, a, e in arrays:
        assert a.dtype == e.dtype and a.shape == e.shape, name
        assert a.tobytes() == e.tobytes(), name
        assert (a.flags.c_contiguous, a.flags.f_contiguous) == (e.flags.c_contiguous, e.flags.f_contiguous), name
        assert not a.flags.writeable and not e.flags.writeable, name
    for name in ("nonzero_count", "negative_cell", "irreducible"):
        a, e = getattr(actual, name), getattr(expected, name)
        assert type(a) is type(e) and a == e, name


LAYOUT_COUNTS = np.random.default_rng(0).random((200, 200))
LAYOUT_JOURNALS = jr.JournalSet(tuple(jr.Journal(f"J{k}", None, 1 + k % 5, 1 + k % 5) for k in range(200)))


@PROPERTY
@given(awkward_counts())
def test_drop_equals_a_fresh_matrix_of_the_deleted_counts(counts):
    n = counts.shape[0]
    journals = jr.JournalSet(tuple(jr.Journal(f"J{k}", None, k, k) for k in range(n)))
    original = counts.tobytes()
    # The memory layout of the input changes no bit of the matrix or its scores.
    assert_same_matrix(jr.CitationMatrix(counts), jr.CitationMatrix(np.ascontiguousarray(counts)))
    c_scores, f_scores = (
        jr.compute("ai", LAYOUT_JOURNALS, jr.CitationMatrix(layout), alpha=0.85).values
        for layout in (LAYOUT_COUNTS, np.asfortranarray(LAYOUT_COUNTS))
    )
    assert c_scores.tobytes() == f_scores.tobytes()
    for k in range(n):
        expected = jr.CitationMatrix(np.delete(np.delete(counts, k, 0), k, 1))
        for derived in (False, True):
            parent = jr.CitationMatrix(counts)
            if derived:
                for name in FACTS:
                    getattr(parent, name)
            held = set(parent.__dict__)
            reduced_journals, reduced = jr.drop_journal(journals, parent, k)
            # A drop reads only the facts the parent holds; it derives none on it.
            assert set(parent.__dict__) == held
            assert reduced_journals == jr.JournalSet(journals.journals[:k] + journals.journals[k + 1 :])
            assert_same_matrix(reduced, expected)
            assert parent.counts.tobytes() == original and not parent.counts.flags.writeable
            assert_same_matrix(parent, jr.CitationMatrix(counts))


def outcome(call):
    """call()'s result, or the type and text of the error it raises, with
    a ValidationError's issues and issue_count."""
    try:
        return call()
    except jr.ValidationError as exc:
        return type(exc), str(exc), exc.issues, exc.issue_count
    except (ValueError, jr.JournalRankError) as exc:
        return type(exc), str(exc)


def outcomes(journals, matrix):
    """Every kind's scores under forced power, or the type and text of the
    error it raises."""
    return {
        kind: outcome(lambda: jr.compute(kind, journals, matrix, solver=POWER, **params).values)
        for kind, params in KINDS
    }


def stored(layout, counts, journals, partition):
    """The matrix of counts and of each drop, stored as layout says
    whatever the density, and what every kind, ``validate``, the components
    and ``min_delta`` (its bits) give on it."""
    with mock.patch.object(core, "SPARSE_DENSITY", {"sparse": 2.0, "dense": 0.0}[layout]):
        matrix = jr.CitationMatrix(counts)
        drops = [jr.drop_journal(journals, matrix, k)[1] for k in range(journals.n)]
        fresh = [jr.CitationMatrix(np.delete(np.delete(counts, k, 0), k, 1)) for k in range(journals.n)]
        results = outcomes(journals, matrix)
        results["validate"] = outcome(lambda: jr.validate(journals, matrix) and None)
        results["components"] = core.strongly_connected_components(matrix)
        results["min_delta"] = outcome(lambda: jr.min_delta(matrix, partition).hex())
        held = set(matrix.__dict__)
    return matrix, drops, fresh, held, results


@PROPERTY
@given(st.data())
def test_sparse_and_dense_storage_agree(data):
    counts = data.draw(
        st.one_of(awkward_counts(), reducible_counts(), sparse_instances().map(lambda instance: instance[0]))
    )
    n = counts.shape[0]
    journals = jr.JournalSet(tuple(jr.Journal(f"J{k}", None, k + 1, 2 * k + 1) for k in range(n)))
    partition = jr.FieldPartition((1, *data.draw(st.lists(st.sampled_from((1, 2)), min_size=n - 2, max_size=n - 2)), 2))
    sparse, sparse_drops, sparse_fresh, held, sparse_results = stored("sparse", counts, journals, partition)
    dense, dense_drops, dense_fresh, _, dense_results = stored("dense", counts, journals, partition)
    assert sparse.sparse and not dense.sparse
    # Neither building the matrix, its drops, any kind's outcome, validate,
    # the components nor min_delta densified the sparse one.
    assert "counts" not in held
    assert_same_matrix(sparse, dense)
    for k in range(n):
        assert sparse_drops[k].sparse and not dense_drops[k].sparse
        assert_same_matrix(sparse_drops[k], dense_drops[k])
        assert_same_matrix(sparse_drops[k], sparse_fresh[k])
        assert_same_matrix(dense_drops[k], dense_fresh[k])
    for name in ("validate", "components", "min_delta"):
        assert sparse_results[name] == dense_results[name], name
    # IF sums each column in row order on both layouts, so its bits agree.
    # The other kinds step with the sparse or the dense product, which round
    # differently, so they agree to the solver's accuracy.
    for kind, _ in KINDS:
        s, d = sparse_results[kind], dense_results[kind]
        if isinstance(d, tuple):
            assert s == d, kind
        elif kind == "if":
            assert s.tobytes() == d.tobytes()
        else:
            np.testing.assert_allclose(s, d, rtol=1e-9, atol=1e-12 * np.abs(d).max(), err_msg=kind)


@st.composite
def balanced_fields(draw):
    """A two-field (journals, matrix, partition) instance meeting the
    preconditions of the audience factor's field-mean bound: both fields
    publish the same number of earlier-period articles, later-period
    counts are eta times the earlier ones, and every journal cites."""
    field1 = draw(st.lists(st.integers(1, 500), min_size=1, max_size=6))
    field2 = draw(st.lists(st.integers(1, 500), min_size=1, max_size=6))
    gap = sum(field1) - sum(field2)
    if gap > 0:
        field2.append(gap)
    elif gap < 0:
        field1.append(-gap)
    a1 = field1 + field2
    n = len(a1)
    order = draw(st.permutations(range(n)))
    labels = [1] * len(field1) + [2] * len(field2)
    eta = draw(st.integers(1, 4))
    journals = jr.JournalSet(tuple(jr.Journal(f"J{k}", None, a1[i], eta * a1[i]) for k, i in enumerate(order)))
    partition = jr.FieldPartition(tuple(labels[i] for i in order))
    same_field = np.equal.outer(partition.field_of, partition.field_of)
    within = np.array(draw(st.lists(st.integers(0, 1000), min_size=n * n, max_size=n * n)), dtype=float)
    cross = np.array(draw(st.lists(st.integers(0, 50), min_size=n * n, max_size=n * n)), dtype=float)
    counts = np.where(same_field, within.reshape(n, n), cross.reshape(n, n))
    counts[np.diag_indices(n)] += 1.0
    return journals, jr.CitationMatrix(counts), partition


@PROPERTY
@given(balanced_fields())
def test_audience_factor_field_means_stay_within_one_plus_minus_delta(instance):
    journals, matrix, partition = instance
    report = jr.field_insensitivity_check(journals, matrix, partition, jr.audience_factor(journals, matrix))
    assert report.balanced and report.eta is not None
    assert report.bounds_hold == (True, True), report


FAULTS = ("nan", "inf", "-inf", "negative", "negative zeroes its row", "row overflow", "column overflow", "zero row")


@st.composite
def faulty_counts(draw, fault):
    """Positive counts of 2-6 journals with the fault injected, and the row
    it was injected in."""
    n = draw(st.integers(2, 6))
    counts = np.array(draw(st.lists(st.integers(1, 1000), min_size=n * n, max_size=n * n)), dtype=float).reshape(n, n)
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    other = draw(st.integers(0, n - 1).filter(lambda k: k != j))
    if fault in ("nan", "inf", "-inf"):
        counts[i, j] = float(fault)
    elif fault == "negative":
        counts[i, j] = -draw(st.integers(1, 1000))
    elif fault == "negative zeroes its row":
        counts[i] = 0.0
        counts[i, j] = -counts[i - 1, j]
        counts[i, other] = counts[i - 1, j]
    elif fault == "row overflow":
        counts[i, j] = counts[i, other] = 1e308
    elif fault == "column overflow":
        counts[i, j] = counts[(i + 1) % n, j] = 1e308
    else:
        counts[i] = 0.0
    return counts, i


@pytest.mark.parametrize("fault", FAULTS)
@PROPERTY
@given(data=st.data())
def test_every_entry_point_names_the_first_matrix_fault_in_validates_words(fault, data):
    counts, row = data.draw(faulty_counts(fault))
    n = counts.shape[0]
    journals = jr.JournalSet(tuple(jr.Journal(f"J{k}", None, k + 1, k + 2) for k in range(n)))
    partition = jr.FieldPartition(tuple(1 + k % 2 for k in range(n)))
    uniform = np.full(n, 1.0 / n)
    for layout, density in (("dense", 0.0), ("sparse", 2.0)):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "SPARSE_DENSITY", density)
            matrix = jr.CitationMatrix(counts)
        assert matrix.sparse == (layout == "sparse")
        try:
            jr.validate(journals, matrix)
        except jr.ValidationError as err:
            assert fault != "zero row" and err.issue_count == 1
            (issue,) = err.issues
            named = unnamed = (ValueError, issue.message)
            if issue.journal is not None:
                index = f"matrix index {journals.index_of(issue.journal)}"
                unnamed = (ValueError, issue.message.replace(f"journal {quote(issue.journal)}", index))
        else:
            assert fault == "zero row"
            named = (jr.ZeroOutgoing, str(jr.ZeroOutgoing(row, f"J{row}")))
            unnamed = (jr.ZeroOutgoing, str(jr.ZeroOutgoing(row)))
        with_journals = {
            kind: lambda kind=kind, params=params: jr.compute(kind, journals, matrix, **params)
            for kind, params in KINDS
        }
        with_journals["field_insensitivity_check"] = lambda: jr.field_insensitivity_check(
            journals, matrix, partition, jr.IndicatorVector("IF", np.ones(n))
        )
        without_journals = {
            "stationary direct": lambda: stationary(matrix, 0.85, uniform, DIRECT),
            "stationary power": lambda: stationary(matrix, 0.85, uniform, POWER),
            "reference_shares": lambda: spectral.reference_shares(matrix),
            "min_delta": lambda: jr.min_delta(matrix, partition),
        }
        for calls, expected in ((with_journals, named), (without_journals, unnamed)):
            for name, call in calls.items():
                if not (fault == "zero row" and name == "if"):
                    assert outcome(call) == expected, (layout, fault, name)
