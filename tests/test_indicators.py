import numpy as np
import pytest

import journalrank as jr
from journalrank.errors import (
    NotIrreducible,
    ZeroArticles,
    ZeroArticlesT2,
    ZeroOutgoing,
)
from journalrank.indicators import IndicatorVector
from journalrank.spectral import SolverConfig

from conftest import counted_solves, make_block

DIRECT = SolverConfig(method="direct")
POWER = SolverConfig(method="power")

ALL_KINDS = (
    ("if", {}),
    ("af", {}),
    ("iw", {}),
    ("ipp", {}),
    ("ef", {"alpha": 0.85}),
    ("ai", {"alpha": 0.85}),
    ("wpr", {"beta": 0.5, "gamma": 0.3}),
    ("sjr", {}),
)


# Each kind with the article periods it divides by, where a zero count
# raises ZeroArticles / ZeroArticlesT2, and those it only teleports on, where
# a zero count still scores. WPR reads the earlier period only when gamma > 0.
ARTICLE_READS = (
    ("if", {}, (1,), ()),
    ("af", {}, (1, 2), ()),
    ("iw", {}, (), ()),
    ("ipp", {}, (1,), ()),
    ("ef", {"alpha": 0.85}, (), (1,)),
    ("ai", {"alpha": 0.85}, (1,), ()),
    ("wpr", {"beta": 0.5, "gamma": 0.3}, (), (1,)),
    ("wpr", {"beta": 0.85, "gamma": 0.0}, (), ()),
    ("sjr", {}, (1,), ()),
)


def with_count(journals, index, period, count):
    """The journal set with one article count of one journal replaced."""
    j = journals.journals[index]
    counts = {"articles_t1": j.articles_t1, "articles_t2": j.articles_t2, f"articles_t{period}": count}
    replaced = jr.Journal(j.id, j.name, **counts)
    return jr.JournalSet(journals.journals[:index] + (replaced,) + journals.journals[index + 1 :])


def single_journal(citations, a1=5, a2=5):
    journals = jr.JournalSet((jr.Journal("only", None, a1, a2),))
    return journals, jr.CitationMatrix(np.array([[float(citations)]]))


class TestImpactFactor:
    def test_two_field_values(self, two_field):
        vector = jr.impact_factor(*two_field)
        np.testing.assert_allclose(vector.values, [44.0, 44.0, 0.44, 0.44, 44.0, 44.0, 0.44, 0.44])

    def test_no_citations_means_zero(self):
        vector = jr.impact_factor(*single_journal(0))
        assert vector.values[0] == 0.0

    def test_linear_in_citations(self, two_field):
        journals, matrix = two_field
        doubled = jr.CitationMatrix(2.0 * matrix.counts)
        np.testing.assert_allclose(
            jr.impact_factor(journals, doubled).values,
            2.0 * jr.impact_factor(journals, matrix).values,
        )

    def test_zero_articles_rejected(self):
        journals = jr.JournalSet((jr.Journal("a", None, 0, 5), jr.Journal("b", None, 5, 5)))
        with pytest.raises(ZeroArticles) as err:
            jr.impact_factor(journals, jr.CitationMatrix(np.ones((2, 2))))
        assert err.value.journal_id == "a"
        assert str(err.value) == "journal 'a' (index 0) published no articles in the earlier period"


class TestAudienceFactor:
    def test_scenario_one_equals_reference(self, two_field):
        vector = jr.audience_factor(*two_field)
        np.testing.assert_allclose(
            vector.values, [44.0, 44.0, 0.44, 0.44, 44.0, 44.0, 0.44, 0.44], atol=1e-12
        )

    def test_scenario_two_equals_reference(self, two_field):
        reduced = jr.drop_journal(*two_field, 7)
        vector = jr.audience_factor(*reduced)
        np.testing.assert_allclose(
            vector.values,
            [42.938, 42.938, 0.429, 0.429, 34.063, 34.063, 0.341],
            atol=5e-4,
        )

    def test_equals_impact_factor_when_rates_match(self):
        # Equal outgoing volume and equal later-period articles make every
        # citing journal's rate the overall rate, so all weights are one.
        journals = jr.JournalSet(
            (jr.Journal("a", None, 10, 20), jr.Journal("b", None, 30, 20))
        )
        matrix = jr.CitationMatrix(np.array([[6.0, 4.0], [1.0, 9.0]]))
        np.testing.assert_allclose(
            jr.audience_factor(journals, matrix).values,
            jr.impact_factor(journals, matrix).values,
        )

    def test_zero_later_articles_rejected(self):
        journals = jr.JournalSet((jr.Journal("a", None, 5, 0), jr.Journal("b", None, 5, 5)))
        with pytest.raises(ZeroArticlesT2) as err:
            jr.audience_factor(journals, jr.CitationMatrix(np.ones((2, 2))))
        assert (err.value.index, err.value.journal_id) == (0, "a")
        assert str(err.value) == "journal 'a' (index 0) published no articles in the later period"

    def test_dangling_row_rejected(self):
        journals = jr.JournalSet((jr.Journal("a", None, 5, 5), jr.Journal("b", None, 5, 5)))
        matrix = jr.CitationMatrix(np.array([[0.0, 0.0], [1.0, 1.0]]))
        with pytest.raises(ZeroOutgoing) as err:
            jr.audience_factor(journals, matrix)
        assert err.value.index == 0
        assert str(err.value) == "journal 'a' (index 0) has no outgoing citations"
        # The share matrix has no journal ids to name, only the index.
        with pytest.raises(ZeroOutgoing) as err:
            jr.reference_shares(matrix)
        assert (err.value.index, err.value.journal_id) == (0, None)
        assert str(err.value) == "journal index 0 has no outgoing citations"


class TestInfluenceWeights:
    def test_near_decomposable_solved_by_hand(self, near_decomposable):
        # w1 = 3 w2 from the eigen-system; the citation-weighted mean of one
        # forces w1 + w2 = 2.
        journals, matrix, _ = near_decomposable
        vector = jr.influence_weights(journals, matrix)
        np.testing.assert_allclose(vector.values, [1.5, 0.5], atol=1e-12)

    def test_doubly_balanced_gives_unit_weights(self):
        journals = jr.JournalSet((jr.Journal("a", None, 5, 5), jr.Journal("b", None, 5, 5)))
        matrix = jr.CitationMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(
            jr.influence_weights(journals, matrix).values, [1.0, 1.0], atol=1e-12
        )

    def test_weighted_mean_normalization_holds(self, zoo):
        for name, journals, matrix in zoo:
            vector = jr.influence_weights(journals, matrix, DIRECT)
            ratio = float(vector.values @ matrix.row_sums) / matrix.row_sums.sum()
            assert abs(ratio - 1.0) < 1e-12, name

    def test_reducible_rejected_with_report(self):
        journals = jr.JournalSet((jr.Journal("a", None, 5, 5), jr.Journal("b", None, 5, 5)))
        matrix = jr.CitationMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(NotIrreducible) as err:
            jr.influence_weights(journals, matrix)
        assert sorted(map(sorted, err.value.components)) == [[0], [1]]


class TestInfluencePerPublication:
    def test_two_field_matches_reference_table(self, two_field):
        vector = jr.influence_per_publication(*two_field)
        np.testing.assert_allclose(
            vector.values, [5.5, 5.5, 0.055, 0.055, 5.5, 5.5, 0.055, 0.055], atol=5e-4
        )

    def test_two_field_drop8_matches_reference_table(self, two_field):
        reduced = jr.drop_journal(*two_field, 7)
        vector = jr.influence_per_publication(*reduced)
        np.testing.assert_allclose(
            vector.values, [5.513, 5.513, 0.055, 0.055, 5.490, 5.490, 0.055], atol=5e-4
        )

    def test_near_decomposable_values_and_classic_scale(self, near_decomposable):
        journals, matrix, _ = near_decomposable
        vector = jr.influence_per_publication(journals, matrix)
        np.testing.assert_allclose(vector.values, [7.5, 2.5], atol=1e-12)
        # Multiplying by the journal count recovers the per-reference-mean
        # scale, i.e. weights times citation volume per article.
        weights = jr.influence_weights(journals, matrix)
        classic = weights.values * matrix.row_sums / journals.articles_t1
        np.testing.assert_allclose(journals.n * vector.values, classic, atol=1e-12)
        np.testing.assert_allclose(classic, [15.0, 5.0], atol=1e-12)


class TestEigenfactor:
    def test_alpha_zero_closed_form(self, zoo):
        for name, journals, matrix in zoo:
            vector = jr.eigenfactor(journals, matrix, alpha=0.0)
            share = journals.articles_t1 / journals.articles_t1.sum()
            shares = matrix.counts / matrix.row_sums[:, None]
            np.testing.assert_allclose(vector.values, 100.0 * (share @ shares), atol=1e-12)

    @pytest.mark.parametrize("alpha", (0.0, 0.25, 0.5, 0.85, 1.0))
    def test_scores_sum_to_hundred(self, zoo, alpha):
        for name, journals, matrix in zoo:
            vector = jr.eigenfactor(journals, matrix, alpha=alpha, solver=DIRECT)
            assert abs(vector.values.sum() - 100.0) < 1e-9, name

    def test_full_damping_proportional_to_per_article_influence(self, two_field):
        journals, matrix = two_field
        ef = jr.eigenfactor(journals, matrix, alpha=1.0)
        ipp = jr.influence_per_publication(journals, matrix)
        ratio = ef.values / (100.0 * journals.articles_t1) / ipp.values
        assert ratio.max() / ratio.min() - 1.0 < 1e-12

    def test_reducible_allowed_below_full_damping(self):
        journals = jr.JournalSet((jr.Journal("a", None, 5, 5), jr.Journal("b", None, 5, 5)))
        matrix = jr.CitationMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
        vector = jr.eigenfactor(journals, matrix, alpha=0.85)
        assert abs(vector.values.sum() - 100.0) < 1e-9
        with pytest.raises(NotIrreducible):
            jr.eigenfactor(journals, matrix, alpha=1.0)

    def test_alpha_out_of_range(self, two_field):
        with pytest.raises(ValueError):
            jr.eigenfactor(*two_field, alpha=1.5)

    def test_no_earlier_period_articles_anywhere(self, two_field):
        journals, matrix = two_field
        journals = jr.JournalSet(tuple(jr.Journal(j.id, None, 0, j.articles_t2) for j in journals.journals))
        with pytest.raises(ZeroArticles) as err:
            jr.eigenfactor(journals, matrix)
        assert str(err.value) == "journal 'J1' (index 0) published no articles in the earlier period"


class TestArticleInfluence:
    def test_matches_audience_factor_at_zero_damping(self, two_field):
        journals, matrix = two_field
        af = jr.audience_factor(journals, matrix)
        ai0 = jr.article_influence(journals, matrix, alpha=0.0)
        ratio = af.values / ai0.values
        assert ratio.max() / ratio.min() - 1.0 < 1e-12

    def test_doubling_articles_halves_score_at_full_damping(self, two_field):
        journals, matrix = two_field
        base = jr.article_influence(journals, matrix, alpha=1.0)
        bigger = jr.JournalSet(
            (jr.Journal("J1", None, 200, 100),) + journals.journals[1:]
        )
        changed = jr.article_influence(bigger, matrix, alpha=1.0)
        assert changed.values[0] == pytest.approx(base.values[0] / 2.0, rel=1e-12)
        np.testing.assert_allclose(changed.values[1:], base.values[1:], rtol=1e-12)

    def test_default_alpha(self, two_field):
        vector = jr.article_influence(*two_field)
        assert vector.params["alpha"] == 0.85


class TestWeightedPagerank:
    def test_uniform_when_fully_undamped(self, two_field):
        journals, matrix = two_field
        vector = jr.weighted_pagerank(journals, matrix, beta=0.0, gamma=0.0)
        np.testing.assert_allclose(vector.values, np.full(8, 1 / 8), atol=1e-15)

    def test_article_shares_when_teleport_only(self, zoo):
        for name, journals, matrix in zoo:
            vector = jr.weighted_pagerank(journals, matrix, beta=0.0, gamma=1.0)
            share = journals.articles_t1 / journals.articles_t1.sum()
            np.testing.assert_allclose(vector.values, share, atol=1e-15, err_msg=name)

    def test_pure_recursion_matches_per_article_influence(self, two_field):
        journals, matrix = two_field
        wpr = jr.weighted_pagerank(journals, matrix, beta=1.0, gamma=0.0)
        ipp = jr.influence_per_publication(journals, matrix)
        ratio = wpr.values / journals.articles_t1 / ipp.values
        assert ratio.max() / ratio.min() - 1.0 < 1e-12

    def test_scores_sum_to_one(self, zoo):
        for name, journals, matrix in zoo:
            for beta, gamma in ((0.2, 0.3), (0.9, 0.0999), (0.5, 0.5), (1.0, 0.0)):
                vector = jr.weighted_pagerank(journals, matrix, beta, gamma, DIRECT)
                assert abs(vector.values.sum() - 1.0) < 1e-12, name

    def test_bad_parameters(self, two_field):
        journals, matrix = two_field
        for beta, gamma in ((-0.1, 0.5), (0.5, -0.1), (0.7, 0.5), (np.nan, 0.05), (0.5, np.nan)):
            with pytest.raises(ValueError) as err:
                jr.weighted_pagerank(journals, matrix, beta, gamma)
            assert str(err.value) == "need beta >= 0, gamma >= 0 and beta + gamma <= 1", (beta, gamma)

    @pytest.mark.parametrize("beta, gamma", [(0.9, 0.1), (0.8, 0.2), (0.7, 0.3)])
    def test_beta_plus_gamma_one_with_a_journal_without_articles(self, two_field, beta, gamma):
        # 1 - beta - gamma rounds to -2.8e-17 for the first two pairs; the
        # journal without earlier-period articles must still get a zero
        # teleport share, not a negative one.
        journals, matrix = two_field
        first = journals.journals[0]
        journals = jr.JournalSet(
            (jr.Journal(first.id, first.name, 0, first.articles_t2),) + journals.journals[1:]
        )
        share = journals.articles_t1 / journals.articles_t1.sum()
        expected, _ = jr.stationary(jr.reference_shares(matrix), beta, share, DIRECT)
        for solver in (DIRECT, SolverConfig(method="power")):
            vector = jr.weighted_pagerank(journals, matrix, beta, gamma, solver)
            np.testing.assert_allclose(vector.values, expected, rtol=1e-9, atol=1e-15)


class TestScimagoJr:
    def test_teleport_only_gives_identical_scores(self, zoo):
        for name, journals, matrix in zoo:
            vector = jr.scimago_jr(journals, matrix, beta=0.0, gamma=1.0)
            assert vector.values.max() - vector.values.min() < 1e-12, name

    def test_defaults(self, two_field):
        vector = jr.scimago_jr(*two_field)
        assert vector.params["beta"] == 0.9
        assert vector.params["gamma"] == 0.0999

    def test_default_parameters_match_dense_oracle(self, two_field):
        # Independent oracle: assemble and solve the damped linear system for
        # the stationary shares directly, then divide by article counts.
        journals, matrix = two_field
        beta, gamma = 0.9, 0.0999
        n = journals.n
        shares = matrix.counts / matrix.row_sums[:, None]
        teleport = gamma * journals.articles_t1 / journals.articles_t1.sum()
        teleport = teleport + (1.0 - beta - gamma) / n
        r = np.linalg.solve(np.eye(n) - beta * shares.T, teleport)
        r = r / r.sum()
        expected = r / journals.articles_t1
        vector = jr.scimago_jr(journals, matrix, beta=beta, gamma=gamma)
        np.testing.assert_allclose(vector.values, expected, rtol=1e-10)
        assert np.all(vector.values > 0)

    def test_pure_recursion_on_near_decomposable(self, near_decomposable):
        journals, matrix, _ = near_decomposable
        vector = jr.scimago_jr(journals, matrix, beta=1.0, gamma=0.0)
        assert vector.values[0] / vector.values[1] == pytest.approx(3.0, abs=1e-12)


class TestCrossCuttingInvariants:
    @pytest.mark.parametrize("kind,params", ALL_KINDS)
    def test_permutation_equivariance(self, two_field, kind, params):
        journals, matrix = two_field
        rng = np.random.default_rng(11)
        perm = rng.permutation(journals.n)
        permuted_journals = jr.JournalSet(tuple(journals.journals[i] for i in perm))
        permuted_matrix = jr.CitationMatrix(matrix.counts[np.ix_(perm, perm)])
        base = jr.compute(kind, journals, matrix, **params, solver=DIRECT)
        shuffled = jr.compute(kind, permuted_journals, permuted_matrix, **params, solver=DIRECT)
        np.testing.assert_allclose(shuffled.values, base.values[perm], rtol=1e-9, atol=1e-12)

    def test_matrix_rescaling(self, two_field):
        # The raw per-article rates scale with the citation counts; every
        # stationary-vector indicator and the per-reference weights do not.
        journals, matrix = two_field
        k = 3.7
        scaled = jr.CitationMatrix(k * matrix.counts)
        for kind, params, scales in (
            ("if", {}, True),
            ("af", {}, True),
            ("ipp", {}, True),
            ("iw", {}, False),
            ("ef", {"alpha": 0.85}, False),
            ("ai", {"alpha": 0.85}, False),
            ("wpr", {"beta": 0.6, "gamma": 0.2}, False),
            ("sjr", {}, False),
        ):
            base = jr.compute(kind, journals, matrix, **params).values
            after = jr.compute(kind, journals, scaled, **params).values
            factor = k if scales else 1.0
            np.testing.assert_allclose(after, factor * base, rtol=1e-9, err_msg=kind)


UNDAMPED_KINDS = (
    ("iw", {}),
    ("ipp", {}),
    ("ef", {"alpha": 1.0}),
    ("ai", {"alpha": 1.0}),
    ("wpr", {"beta": 1.0, "gamma": 0.0}),
    ("sjr", {"beta": 1.0, "gamma": 0.0}),
)


class TestUndampedSharing:
    """At alpha = 1 every kind reads the matrix's one undamped vector,
    solved once per solver configuration; damped vectors are solved on
    every call."""

    def test_one_solve_per_config(self, two_field, monkeypatch):
        journals, matrix = two_field
        matrix = jr.CitationMatrix(matrix.counts)  # a store of its own
        calls = counted_solves(monkeypatch)
        # None and the default config are one key.
        for config in (None, SolverConfig(), DIRECT, POWER):
            vectors = [jr.compute(kind, journals, matrix, solver=config, **params) for kind, params in UNDAMPED_KINDS]
            assert len({id(v.solver) for v in vectors}) == 1, config
        # Forced direct and forced power solve apart, so they still check each other.
        assert calls == [(1.0, SolverConfig()), (1.0, DIRECT), (1.0, POWER)]
        assert [report.method_used for _, report in matrix.undamped_solves.values()] == ["direct", "direct", "power"]
        for _ in range(2):
            jr.compute("ef", journals, matrix, alpha=0.85)
        assert [alpha for alpha, _ in calls[3:]] == [0.85, 0.85]

    @pytest.mark.parametrize("config", (DIRECT, POWER))
    def test_scores_read_the_undamped_vector(self, two_field, config):
        journals, matrix = two_field
        q, report = jr.spectral.undamped(matrix, config)
        ef = jr.compute("ef", journals, matrix, alpha=1.0, solver=config)
        wpr = jr.compute("wpr", journals, matrix, beta=1.0, gamma=0.0, solver=config)
        np.testing.assert_array_equal(ef.values, 100.0 * jr.spectral.share_step(matrix)(q))
        np.testing.assert_array_equal(wpr.values, q)
        assert ef.solver == wpr.solver == report


def bipartite_cycle():
    """Six journals, each citing the next one and the one opposite: every
    citation goes between an even and an odd index, so the chain has period 2."""
    counts = np.zeros((6, 6))
    for i in range(6):
        counts[i, (i + 1) % 6] = 1 + i
        counts[i, (i + 3) % 6] = 2
    journals = jr.JournalSet(tuple(jr.Journal(f"P{i}", None, 10 + i, 20 - i) for i in range(6)))
    return journals, jr.CitationMatrix(counts)


class TestEdgeCases:
    def test_periodic_chain_direct_and_power_agree(self):
        # Periodicity is no solver precondition: at alpha = 1 the power path
        # falls back from plain steps, which never settle on a period-2
        # chain, to lazy half-steps, which converge on it.
        journals, matrix = bipartite_cycle()
        assert all((i + j) % 2 == 1 for i, j in np.argwhere(matrix.counts > 0))
        assert jr.structure(matrix).irreducible
        for kind, params in (
            ("iw", {}),
            ("ipp", {}),
            ("ef", {"alpha": 1.0}),
            ("ai", {"alpha": 1.0}),
            ("wpr", {"beta": 1.0, "gamma": 0.0}),
        ):
            direct = jr.compute(kind, journals, matrix, **params, solver=DIRECT)
            power = jr.compute(kind, journals, matrix, **params, solver=POWER)
            assert power.solver.method_used == "power", kind
            assert np.abs(direct.values - power.values).max() < 1e-10, kind

    def test_periodic_chain_passes_the_ipp_endpoint_check(self):
        journals, matrix = bipartite_cycle()
        for solver in (DIRECT, POWER):
            assert jr.ipp_endpoint_check(journals, matrix, solver).passed

    @pytest.mark.parametrize("instance", ("periodic", "sparse"))
    def test_undamped_power_solve_is_start_free(self, instance):
        # IPP and AI(1) share one stored solve from the uniform start, so the
        # endpoint check no longer compares two starts. Power steps from the
        # article share, the start EF(1) and AI(1) once used, must reach the
        # same fixed point: on a period-2 chain and on a sparse instance above
        # DIRECT_LIMIT, within the endpoint check's spread.
        if instance == "periodic":
            journals, matrix = bipartite_cycle()
        else:
            journals, matrix, _ = make_block(seed=3, m=200, within=0.025, cross=0.0025)
            assert matrix.sparse and matrix.n > jr.spectral.DIRECT_LIMIT
        a1 = np.array([j.articles_t1 for j in journals.journals], dtype=float)
        share = a1 / a1.sum()
        assert np.ptp(share) > 0
        stored, stored_report = jr.spectral.undamped(matrix, POWER)
        started, started_report = jr.spectral.stationary(matrix, 1.0, share, POWER)
        assert stored_report.method_used == started_report.method_used == "power"
        ratios = started / stored
        assert ratios.max() / ratios.min() - 1.0 < 1e-9
        assert np.abs(started - stored).sum() < 1e-10

    @pytest.mark.parametrize("kind,params", ALL_KINDS)
    def test_single_self_citing_journal(self, kind, params):
        journals, matrix = single_journal(5, a1=3, a2=3)
        vector = jr.compute(kind, journals, matrix, **params)
        assert vector.n == 1 and np.all(np.isfinite(vector.values)), kind
        if kind == "iw":
            np.testing.assert_array_equal(vector.values, [1.0])
        if kind == "ef":
            np.testing.assert_array_equal(vector.values, [100.0])


    @pytest.mark.parametrize("size", (1, 4))
    @pytest.mark.parametrize("kind,params", ALL_KINDS)
    def test_size_mismatch_rejected(self, kind, params, size):
        journals = jr.JournalSet(tuple(jr.Journal(f"J{i}", None, 5, 5) for i in range(3)))
        matrix = jr.CitationMatrix(np.ones((size, size)))
        with pytest.raises(ValueError) as err:
            jr.compute(kind, journals, matrix, **params)
        assert str(err.value) == f"journal set has 3 journals but matrix is {size}x{size}"
        with pytest.raises(jr.ValidationError) as invalid:
            jr.validate(journals, matrix)
        assert invalid.value.issues[0].message == str(err.value)

    @pytest.mark.parametrize("kind,params", ALL_KINDS)
    def test_empty_instance_rejected(self, kind, params):
        # validate accepts an instance without journals; no kind scores one.
        journals, matrix = jr.validate(jr.JournalSet(()), jr.CitationMatrix(np.zeros((0, 0))))
        with pytest.raises(ValueError, match="^the citation matrix has no journals$"):
            jr.compute(kind, journals, matrix, **params)

    def test_article_reads_cover_every_kind(self):
        assert list(dict.fromkeys(kind for kind, *_ in ARTICLE_READS)) == list(jr.indicators.KINDS)

    @pytest.mark.parametrize("count", (-1.0, np.nan, np.inf, 0.0))
    @pytest.mark.parametrize("period", (1, 2))
    @pytest.mark.parametrize("kind,params,divides,teleports", ARTICLE_READS)
    def test_bad_article_count_named_in_validates_words(
        self, two_field, kind, params, divides, teleports, period, count
    ):
        # The third journal, J3, so that a message naming the first journal
        # cannot pass.
        journals, matrix = two_field
        faulty = with_count(journals, 2, period, count)
        if count == 0 and period in divides:
            with pytest.raises((ZeroArticles, ZeroArticlesT2)[period - 1]) as err:
                jr.compute(kind, faulty, matrix, **params)
            assert (err.value.index, err.value.journal_id) == (2, "J3")
        elif count != 0 and period in divides + teleports:
            with pytest.raises(jr.ValidationError) as invalid:
                jr.validate(faulty, matrix)
            (issue,) = invalid.value.issues
            assert issue.journal == "J3"
            with pytest.raises(ValueError) as err:
                jr.compute(kind, faulty, matrix, **params)
            assert type(err.value) is ValueError and str(err.value) == issue.message
        elif period in teleports:
            vector = jr.compute(kind, faulty, matrix, **params)
            assert vector.n == 8 and vector.values[2] > 0, kind
        else:
            # A kind that does not read the period scores as before, bit for bit.
            vector = jr.compute(kind, faulty, matrix, **params)
            assert vector.values.tobytes() == jr.compute(kind, journals, matrix, **params).values.tobytes()

    @pytest.mark.parametrize("period", (1, 2))
    @pytest.mark.parametrize("kind,params,divides,teleports", ARTICLE_READS)
    def test_article_counts_summing_beyond_the_float_range(self, two_field, kind, params, divides, teleports, period):
        # J1 and J2 hold 1e308 articles each: finite counts whose sum is not.
        journals, matrix = two_field
        huge = with_count(with_count(journals, 0, period, 1e308), 1, period, 1e308)
        with pytest.raises(jr.ValidationError) as invalid:
            jr.validate(huge, matrix)
        (issue,) = invalid.value.issues
        assert (issue.code, issue.message) == ("SumOverflow", f"articles_t{period} counts sum beyond the float range")
        if period in divides + teleports:
            with pytest.raises(ValueError) as err:
                jr.compute(kind, huge, matrix, **params)
            assert type(err.value) is ValueError and str(err.value) == issue.message
        else:
            vector = jr.compute(kind, huge, matrix, **params)
            assert vector.values.tobytes() == jr.compute(kind, journals, matrix, **params).values.tobytes()

    @pytest.mark.parametrize("kind,params", ALL_KINDS)
    def test_one_article_count_near_the_float_maximum(self, two_field, kind, params):
        # J1 holds 1e308 earlier-period articles: the counts and their sum are
        # finite, but 8 * 1e308 and 100 * 1e308 are not. IPP and AI divide by
        # such a product in two steps; every other journal keeps the bits of
        # the one division by the product.
        journals, matrix = two_field
        huge = with_count(journals, 0, 1, 1e308)
        jr.validate(huge, matrix)
        values = jr.compute(kind, huge, matrix, **params).values
        assert np.all(np.isfinite(values)) and values[0] > 0, kind
        a1 = huge.articles_t1
        if kind == "ipp":
            weighted = jr.influence_weights(huge, matrix).values * matrix.row_sums
            np.testing.assert_array_equal(values[1:], weighted[1:] / (8 * a1[1:]))
            assert values[0] == weighted[0] / 8 / 1e308
        if kind == "ai":
            ef = jr.eigenfactor(huge, matrix, **params).values
            np.testing.assert_array_equal(values[1:], ef[1:] / (100.0 * a1[1:]))
            assert values[0] == ef[0] / 100.0 / 1e308

    def test_negative_count_no_longer_scored_by_weighted_pagerank(self, two_field):
        # J3 = -5 leaves the article-share teleport a probability vector, so
        # only the article gate rejects it.
        journals, matrix = two_field
        with pytest.raises(ValueError, match="^articles_t1 of journal 'J3' is negative$"):
            jr.weighted_pagerank(with_count(journals, 2, 1, -5), matrix, 0.85, 0.1)

    @pytest.mark.parametrize("kind,params", (("ef", {}), ("wpr", {"beta": 0.85, "gamma": 0.1})))
    def test_counts_summing_to_zero_name_the_negative_one(self, two_field, kind, params):
        # 5 and -5 sum to zero; J1, which has 5 articles, is not at fault.
        _, matrix = two_field
        counts = [5, -5, 0, 0, 0, 0, 0, 0]
        journals = jr.JournalSet(tuple(jr.Journal(f"J{k + 1}", None, a, 5) for k, a in enumerate(counts)))
        with pytest.raises(ValueError, match="^articles_t1 of journal 'J2' is negative$"):
            jr.compute(kind, journals, matrix, **params)

    @pytest.mark.parametrize(
        "kind,params,rejected",
        (
            ("if", {}, True),
            ("af", {}, True),
            ("iw", {}, False),
            ("ipp", {}, True),
            ("ef", {}, False),
            ("ai", {}, True),
            ("wpr", {"beta": 0.9, "gamma": 0.0999}, False),
            ("sjr", {}, True),
        ),
    )
    def test_journal_without_earlier_articles(self, two_field, kind, params, rejected):
        journals, matrix = two_field
        first = journals.journals[0]
        journals = jr.JournalSet((jr.Journal(first.id, None, 0, first.articles_t2),) + journals.journals[1:])
        if rejected:
            with pytest.raises(ZeroArticles) as err:
                jr.compute(kind, journals, matrix, **params)
            assert str(err.value) == "journal 'J1' (index 0) published no articles in the earlier period"
        else:
            vector = jr.compute(kind, journals, matrix, **params)
            assert vector.n == 8 and np.all(vector.values > 0), kind


class TestIndicatorVector:
    def test_basis_is_fixed_per_kind(self, two_field):
        journals, matrix = two_field
        assert jr.impact_factor(journals, matrix).basis == "per_article"
        assert jr.audience_factor(journals, matrix).basis == "per_article"
        assert jr.influence_weights(journals, matrix).basis == "per_reference"
        assert jr.influence_per_publication(journals, matrix).basis == "per_article"
        assert jr.eigenfactor(journals, matrix).basis == "total"
        assert jr.article_influence(journals, matrix).basis == "per_article"
        assert jr.weighted_pagerank(journals, matrix, 0.5, 0.2).basis == "total"
        assert jr.scimago_jr(journals, matrix).basis == "per_article"

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            IndicatorVector("IF", np.array([1.0, -5.0]))
        with pytest.raises(ValueError):
            IndicatorVector("IF", np.array([np.inf, 1.0]))
        with pytest.raises(ValueError):
            IndicatorVector("XX", np.array([1.0]))

    def test_ef_sum_contract(self):
        with pytest.raises(ValueError):
            IndicatorVector("EF", np.array([10.0, 10.0]))

    def test_rejects_a_matrix_of_values(self):
        with pytest.raises(ValueError, match="^indicator values must be a vector$"):
            IndicatorVector("IF", np.ones((2, 2)))

    def test_labels(self, two_field):
        journals, matrix = two_field
        assert jr.impact_factor(journals, matrix).label() == "IF"
        assert jr.article_influence(journals, matrix, alpha=0.5).label() == "AI(0.5)"
        assert jr.scimago_jr(journals, matrix).label() == "SJR(0.9,0.0999)"

    def test_values_read_only(self, two_field):
        vector = jr.impact_factor(*two_field)
        with pytest.raises(ValueError):
            vector.values[0] = 1.0


class TestComputeDispatcher:
    def test_rejects_foreign_parameters(self, two_field):
        journals, matrix = two_field
        for kind, params, message in (
            ("if", {"alpha": 0.5}, "indicator 'if' takes no parameters"),
            ("af", {"beta": 0.5}, "indicator 'af' takes no parameters"),
            ("iw", {"gamma": 0.1}, "indicator 'iw' takes no parameters"),
            ("IPP", {"alpha": 1.0}, "indicator 'ipp' takes no parameters"),
            ("ef", {"beta": 0.5}, "indicator 'ef' takes alpha only"),
            ("ai", {"beta": 0.5}, "indicator 'ai' takes alpha only"),
            ("ai", {"alpha": 0.5, "gamma": 0.1}, "indicator 'ai' takes alpha only"),
            ("ai", {"alfa": 0.5}, "indicator 'ai' takes alpha only"),
            ("wpr", {"alpha": 0.5, "beta": 0.5, "gamma": 0.1}, "indicator 'wpr' takes beta and gamma, not alpha"),
            ("wpr", {"alpha": 0.5}, "indicator 'wpr' takes beta and gamma, not alpha"),
            ("sjr", {"alpha": 0.5}, "indicator 'sjr' takes beta and gamma, not alpha"),
            ("wpr", {"beta": 0.5}, "indicator 'wpr' needs both beta and gamma"),
            ("wpr", {"gamma": 0.5}, "indicator 'wpr' needs both beta and gamma"),
            ("wpr", {}, "indicator 'wpr' needs both beta and gamma"),
            ("nope", {}, "unknown indicator kind 'nope'"),
            ("Nope", {"alpha": 0.5}, "unknown indicator kind 'Nope'"),
        ):
            with pytest.raises(ValueError) as err:
                jr.compute(kind, journals, matrix, **params)
            assert str(err.value) == message, (kind, params)

    def test_defaults(self, two_field):
        journals, matrix = two_field
        assert jr.compute("ai", journals, matrix).params["alpha"] == 0.85
        sjr = jr.compute("sjr", journals, matrix)
        assert sjr.params["beta"] == 0.9 and sjr.params["gamma"] == 0.0999
