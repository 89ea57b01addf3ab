import numpy as np
import pytest

import journalrank as jr
from journalrank.errors import DegenerateInput

from conftest import make_block


def rank_oracle(values):
    """Independent average-rank implementation: group sorted positions by
    value and hand each group the mean of its one-based positions."""
    values = list(map(float, values))
    by_value = {}
    for position, value in enumerate(sorted(values), start=1):
        by_value.setdefault(value, []).append(position)
    return np.array([sum(by_value[v]) / len(by_value[v]) for v in values])


class TestPearson:
    def test_self_correlation(self):
        x = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
        assert jr.pearson(x, x) == pytest.approx(1.0, abs=1e-15)

    def test_sign_flip(self):
        x = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
        assert jr.pearson(x, -x) == pytest.approx(-1.0, abs=1e-15)

    def test_small_example_against_two_pass_oracle(self):
        # covariance / (sigma_x sigma_y) computed by hand for this triple
        assert jr.pearson([1, 2, 3], [2, 4, 6.2]) == pytest.approx(
            0.9996222851612186, abs=1e-15
        )

    def test_matches_numpy_on_random_vectors(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.normal(size=30)
            y = rng.normal(size=30)
            assert jr.pearson(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1], abs=1e-12)

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateInput):
            jr.pearson([1.0], [2.0])
        with pytest.raises(DegenerateInput):
            jr.pearson([1.0, 1.0], [1.0, 2.0])
        with pytest.raises(DegenerateInput):
            jr.pearson([1.0, 2.0], [1.0, 2.0, 3.0])


@pytest.mark.parametrize("correlation", (jr.pearson, jr.spearman))
@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
@pytest.mark.parametrize("side", ("x", "y"))
def test_non_finite_input_rejected(correlation, bad, side):
    clean = [1.0, 2.0, 3.0, 4.0]
    dirty = [1.0, bad, 3.0, 2.0]
    x, y = (dirty, clean) if side == "x" else (clean, dirty)
    with pytest.raises(DegenerateInput, match="inputs must be finite"):
        correlation(x, y)


SCALE_X = np.array([1.0, 2.0, 3.0, 5.0])
SCALE_Y = np.array([2.0, 1.0, 4.0, 3.0])


@pytest.mark.parametrize("correlation", (jr.pearson, jr.spearman))
@pytest.mark.parametrize("scale", (1e200, 1e-200))
def test_extreme_magnitudes_keep_the_correlation(correlation, scale):
    # Squares of 1e200 overflow and of 1e-200 underflow; each vector is
    # scaled by its largest magnitude before the products.
    expected = correlation(SCALE_X, SCALE_Y)
    assert correlation(SCALE_X * scale, SCALE_Y) == pytest.approx(expected, abs=1e-15)
    assert correlation(SCALE_X, SCALE_Y * scale) == pytest.approx(expected, abs=1e-15)
    assert correlation(SCALE_X * scale, SCALE_Y * scale) == pytest.approx(expected, abs=1e-15)


class TestSpearman:
    def test_tie_ranks_use_run_means(self):
        np.testing.assert_array_equal(jr.average_ranks([1.0, 2.0, 2.0, 3.0]), [1.0, 2.5, 2.5, 4.0])
        # Neighbours within TIE_TOLERANCE relative of each other tie as well.
        close = [0.0024752475247524753, 0.002475247524752475, 1.0, 1.0 + 2e-9, np.inf, np.inf]
        np.testing.assert_array_equal(jr.average_ranks(close), [1.5, 1.5, 3.0, 4.0, 5.5, 5.5])

    def test_rank_helper_matches_independent_oracle(self):
        rng = np.random.default_rng(4)
        cases = [rng.integers(0, 10, size=25).astype(float) for _ in range(20)]
        cases += [rng.integers(0, 2, size=40).astype(float) for _ in range(5)]  # tie-heavy
        cases += [np.full(7, 3.5), np.array([2.0, 1.0]), np.array([4.0, 4.0]), np.array([5.0])]
        for values in cases:
            np.testing.assert_array_equal(jr.average_ranks(values), rank_oracle(values))

    def test_invariant_under_strictly_increasing_transforms(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=40)
        y = rng.normal(size=40)
        base = jr.spearman(x, y)
        assert jr.spearman(np.exp(x), y) == pytest.approx(base, abs=1e-12)
        assert jr.spearman(x, y**3) == pytest.approx(base, abs=1e-12)
        assert jr.spearman(np.exp(x), x) == pytest.approx(1.0, abs=1e-15)

    def test_random_pairs_against_brute_force(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            x = rng.integers(0, 8, size=50).astype(float)
            y = rng.integers(0, 8, size=50).astype(float)
            expected = np.corrcoef(rank_oracle(x), rank_oracle(y))[0, 1]
            assert jr.spearman(x, y) == pytest.approx(expected, abs=1e-12)


@pytest.fixture(scope="module")
def vectors():
    journals, matrix, _ = make_block(seed=42, m=10, within=25.0, cross=3.0)
    return journals, [
        jr.impact_factor(journals, matrix),
        jr.audience_factor(journals, matrix),
        jr.article_influence(journals, matrix, alpha=0.0),
        jr.article_influence(journals, matrix, alpha=1.0),
    ]


class TestCorrelationTable:

    def test_unit_diagonal_and_exact_symmetry(self, vectors):
        _, vecs = vectors
        table = jr.correlation_table(vecs)
        np.testing.assert_array_equal(np.diag(table.pearson), 1.0)
        np.testing.assert_array_equal(np.diag(table.spearman), 1.0)
        np.testing.assert_array_equal(table.pearson, table.pearson.T)
        np.testing.assert_array_equal(table.spearman, table.spearman.T)
        assert np.all(np.abs(table.pearson) <= 1.0 + 1e-15)
        assert table.labels == ("IF", "AF", "AI(0)", "AI(1)")

    def test_entries_match_pairwise_calls(self, vectors):
        _, vecs = vectors
        table = jr.correlation_table(vecs)
        for i in range(len(vecs)):
            for j in range(len(vecs)):
                if i == j:
                    continue
                assert table.pearson[i, j] == pytest.approx(
                    jr.pearson(vecs[i].values, vecs[j].values), abs=1e-15
                )
                assert table.spearman[i, j] == pytest.approx(
                    jr.spearman(vecs[i].values, vecs[j].values), abs=1e-15
                )

    def test_journal_permutation_leaves_correlations_unchanged(self, vectors):
        _, vecs = vectors
        table = jr.correlation_table(vecs)
        rng = np.random.default_rng(9)
        perm = rng.permutation(vecs[0].n)
        permuted = [
            jr.IndicatorVector(v.kind, v.values[perm], dict(v.params)) for v in vecs
        ]
        shuffled = jr.correlation_table(permuted)
        np.testing.assert_allclose(shuffled.pearson, table.pearson, atol=1e-12)
        np.testing.assert_allclose(shuffled.spearman, table.spearman, atol=1e-12)

    def test_needs_two_equal_length_vectors(self, vectors):
        _, vecs = vectors
        with pytest.raises(DegenerateInput, match="need at least two indicator vectors"):
            jr.correlation_table(vecs[:1])
        short = jr.IndicatorVector("IF", vecs[0].values[:5])
        with pytest.raises(DegenerateInput, match="indicator vectors must have equal length"):
            jr.correlation_table([vecs[0], short])

    def test_single_journal_and_constant_vectors_are_degenerate(self, vectors):
        _, vecs = vectors
        cases = [
            ([jr.IndicatorVector("IF", [1.0]), jr.IndicatorVector("AF", [2.0])], "need at least two points"),
            ([vecs[0], jr.IndicatorVector("IF", np.full(vecs[0].n, 0.25))], "zero variance input"),
            ([jr.IndicatorVector("IF", np.zeros(vecs[0].n)), vecs[1]], "zero variance input"),
        ]
        for bad, message in cases:
            with pytest.raises(DegenerateInput, match=message):
                jr.correlation_table(bad)

    @pytest.mark.parametrize("scale", (1e200, 1e-200))
    def test_extreme_magnitudes_keep_the_grids(self, scale):
        plain = [jr.IndicatorVector("IF", SCALE_X), jr.IndicatorVector("AF", SCALE_Y)]
        scaled = [jr.IndicatorVector("IF", SCALE_X * scale), jr.IndicatorVector("AF", SCALE_Y)]
        expected = jr.correlation_table(plain)
        table = jr.correlation_table(scaled)
        np.testing.assert_allclose(table.pearson, expected.pearson, rtol=0, atol=1e-15)
        np.testing.assert_allclose(table.spearman, expected.spearman, rtol=0, atol=1e-15)

    def test_perfect_correlations_stay_within_one(self, two_field):
        # On the two-field example IF, IW, WPR(0.9, 0.05) and SJR correlate
        # perfectly; unclipped, rounding puts some Pearson entries at 1 + 2^-52.
        journals, matrix = two_field
        vecs = [
            jr.impact_factor(journals, matrix),
            jr.influence_weights(journals, matrix),
            jr.weighted_pagerank(journals, matrix, 0.9, 0.05),
            jr.scimago_jr(journals, matrix),
        ]
        table = jr.correlation_table(vecs)
        for grid in (table.pearson, table.spearman):
            assert np.all((-1.0 <= grid) & (grid <= 1.0))
        for a in vecs:
            for b in vecs:
                assert -1.0 <= jr.pearson(a.values, b.values) <= 1.0


@pytest.fixture(scope="module")
def sweep_family():
    """The indicator family of the damping sweep on a sparse 1500-journal
    instance (two fields of 750, within_mean 0.02, cross_mean 0.002, seed 1)."""
    journals, matrix, _ = jr.block_model(
        jr.BlockModelSpec(750, within_mean=0.02, cross_mean=0.002, seed=1)
    )
    family = [jr.compute("ai", journals, matrix, alpha=a) for a in (0.0, 0.25, 0.5, 0.85, 0.99, 1.0)]
    family += [jr.compute(kind, journals, matrix) for kind in ("if", "af", "ipp", "sjr")]
    family.append(jr.compute("wpr", journals, matrix, beta=1.0, gamma=0.0))
    return family


def test_sweep_family_grid_matches_pairwise_calls(sweep_family):
    table = jr.correlation_table(sweep_family)
    assert table.pearson.shape == (11, 11)
    for i, a in enumerate(sweep_family):
        for j, b in enumerate(sweep_family):
            if i != j:
                assert table.pearson[i, j] == pytest.approx(jr.pearson(a.values, b.values), abs=1e-15)
                assert table.spearman[i, j] == pytest.approx(jr.spearman(a.values, b.values), abs=1e-15)
    np.testing.assert_array_equal(table.pearson, table.pearson.T)
    np.testing.assert_array_equal(np.diag(table.spearman), 1.0)
    # numpy's own formula as an independent reference.
    values = np.array([v.values for v in sweep_family])
    np.testing.assert_allclose(table.pearson, np.corrcoef(values), rtol=0, atol=1e-13)


class TestTopK:
    def test_value_ties_break_by_id(self, two_field):
        journals, matrix = two_field
        ipp = jr.influence_per_publication(journals, matrix)
        top = jr.top_k(journals, ipp, 4)
        assert [ident for ident, _ in top] == ["J1", "J2", "J5", "J6"]
        assert all(value == pytest.approx(5.5, abs=5e-4) for _, value in top)

    def test_full_ranking_is_a_permutation(self, two_field):
        journals, matrix = two_field
        ranking = jr.top_k(journals, jr.impact_factor(journals, matrix), journals.n)
        assert sorted(ident for ident, _ in ranking) == sorted(journals.ids)

    def test_repeated_calls_identical(self, two_field):
        journals, matrix = two_field
        vector = jr.audience_factor(journals, matrix)
        assert jr.top_k(journals, vector, 8) == jr.top_k(journals, vector, 8)

    def test_k_bounds(self, two_field):
        journals, matrix = two_field
        vector = jr.impact_factor(journals, matrix)
        assert jr.top_k(journals, vector, 0) == []
        with pytest.raises(ValueError):
            jr.top_k(journals, vector, 9)

    def test_indicator_of_another_length_rejected(self, two_field):
        journals, _ = two_field
        with pytest.raises(ValueError, match="^indicator length must match the journal set$"):
            jr.top_k(journals, jr.IndicatorVector("IF", np.ones(7)), 3)

    def test_ranking_overlap_shrinks_across_the_damping_sweep(self):
        # Desk-scale version of the top-list comparison: on a seeded
        # 20-journal instance the undamped and fully damped per-article
        # scores share 9 of their top 10 journals.
        journals, matrix, _ = make_block(seed=42, m=10, within=25.0, cross=3.0)
        ai0 = jr.article_influence(journals, matrix, alpha=0.0)
        ai1 = jr.article_influence(journals, matrix, alpha=1.0)
        top0 = {ident for ident, _ in jr.top_k(journals, ai0, 10)}
        top1 = {ident for ident, _ in jr.top_k(journals, ai1, 10)}
        assert len(top0 & top1) == 9

    def test_k_must_be_an_integer(self, two_field):
        journals, matrix = two_field
        vector = jr.impact_factor(journals, matrix)
        for k in (True, np.True_, 2.0, "2", None):
            with pytest.raises(TypeError, match="k must be an integer"):
                jr.top_k(journals, vector, k)
        assert jr.top_k(journals, vector, np.int64(2)) == jr.top_k(journals, vector, 2)

    def test_matches_sorted_ranking_with_ties_and_awkward_ids(self):
        rng = np.random.default_rng(11)
        ids = [f"J{i}" for i in rng.permutation(1400)]
        # Prefixes, a trailing NUL, non-ASCII and duplicated ids.
        ids += ["J1", "J10", "J1\x00", "J1\x00\x00", "J", "é", "Ω", "ǅ", "😀", "e\u0301", ""]
        ids += [ids[k] for k in rng.integers(0, len(ids), 1500 - len(ids))]
        journals = jr.JournalSet([jr.Journal(i) for i in ids])
        # Few distinct values: most journals share their score with others.
        vector = jr.IndicatorVector("IF", rng.integers(0, 12, len(ids)) / 7.0)
        values = vector.values
        order = sorted(range(len(ids)), key=lambda i: (-values[i], ids[i]))
        expected = [(ids[i], float(values[i])) for i in order]
        assert jr.top_k(journals, vector, len(ids)) == expected
        for k in range(len(ids) + 1):
            assert jr.top_k(journals, vector, k) == expected[:k]
