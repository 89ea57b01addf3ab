"""Property-based checks of the paper's relations on random small instances.

Most instances have positive citation counts (hence an irreducible,
aperiodic pattern) and at most 12 journals, so the direct solver is exact
and each example costs a few milliseconds. The sparse instances (21-40
journals, below ``SPARSE_DENSITY``) reach the power path's triplet matvec.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

import journalrank as jr
from journalrank import dataio
from journalrank.spectral import SPARSE_DENSITY, SolverConfig, stationary

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
