"""End-to-end acceptance suite.

One test per acceptance criterion, each printing a single verdict line
(visible with ``pytest tests/test_acceptance.py -v -s``). Tolerances are
stated inline next to every assertion.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import journalrank as jr
from journalrank.spectral import SolverConfig, reference_shares, stationary

from conftest import make_block

DIRECT = SolverConfig(method="direct")
POWER = SolverConfig(method="power")

ALPHA_GRID = (0.0, 0.25, 0.5, 0.85, 1.0)


@contextmanager
def verdict(number, description):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:>2}: FAIL - {description}")
        raise
    print(f"[acceptance] criterion {number:>2}: PASS - {description}")


def test_criterion_01_first_scenario_scores():
    with verdict(1, "bundled two-field example reproduces reference IPP and AF"):
        journals, matrix = jr.two_field_example()
        start = time.perf_counter()
        ipp = jr.influence_per_publication(journals, matrix)
        af = jr.audience_factor(journals, matrix)
        elapsed = time.perf_counter() - start
        np.testing.assert_allclose(
            ipp.values, [5.500, 5.500, 0.055, 0.055, 5.500, 5.500, 0.055, 0.055], atol=5e-4
        )
        np.testing.assert_allclose(
            af.values, [44.000, 44.000, 0.440, 0.440, 44.000, 44.000, 0.440, 0.440], atol=5e-4
        )
        assert elapsed < 1.0


def test_criterion_02_reduced_coverage_scores():
    with verdict(2, "dropping the minor journal reproduces reference IPP and AF"):
        journals, matrix = jr.two_field_example()
        reduced_journals, reduced_matrix = jr.drop_journal(journals, matrix, 7)
        start = time.perf_counter()
        ipp = jr.influence_per_publication(reduced_journals, reduced_matrix)
        af = jr.audience_factor(reduced_journals, reduced_matrix)
        elapsed = time.perf_counter() - start
        np.testing.assert_allclose(
            ipp.values, [5.513, 5.513, 0.055, 0.055, 5.490, 5.490, 0.055], atol=5e-4
        )
        np.testing.assert_allclose(
            af.values, [42.938, 42.938, 0.429, 0.429, 34.063, 34.063, 0.341], atol=5e-4
        )
        assert elapsed < 1.0


def test_criterion_03_near_decomposable_worked_values():
    with verdict(3, "near-decomposable example: delta 0.003, means 15 > 10.03, bounds fail"):
        journals, matrix, partition = jr.near_decomposable_example()
        delta = jr.min_delta(matrix, partition)
        assert delta == 0.003

        # The published worked values live on the classic scale, where the
        # citation-weighted mean of the reference weights is one; the
        # indicator itself reports the coverage-stable scale (1/n of it).
        weights = jr.influence_weights(journals, matrix)
        classic = weights.values * matrix.row_sums / journals.articles_t1
        ipp = jr.influence_per_publication(journals, matrix)
        np.testing.assert_allclose(journals.n * ipp.values, classic, atol=1e-12)

        a1 = journals.articles_t1
        field1 = partition.j1
        field1_mean = float((classic[field1] * a1[field1]).sum() / a1[field1].sum())
        overall_mean = float((classic * a1).sum() / a1.sum())
        upper_bound = (1.0 + delta) * overall_mean
        assert abs(field1_mean - 15.0) < 1e-9
        assert abs(overall_mean - 10.0) < 1e-9
        assert abs(upper_bound - 10.03) < 1e-9
        assert field1_mean > upper_bound

        report = jr.field_insensitivity_check(journals, matrix, partition, ipp)
        assert report.bounds_hold[0] is False


def test_criterion_04_audience_factor_is_the_undamped_endpoint(family100):
    with verdict(4, "AF proportional to AI(0) on 100 seeded instances (spread < 1e-9)"):
        worst = 0.0
        for journals, matrix, _ in family100:
            af = jr.audience_factor(journals, matrix)
            ai0 = jr.article_influence(journals, matrix, alpha=0.0, solver=DIRECT)
            ratio = af.values / ai0.values
            worst = max(worst, float(ratio.max() / ratio.min() - 1.0))
        assert worst < 1e-9


def test_criterion_05_per_article_influence_is_the_damped_endpoint(family100):
    with verdict(5, "IPP proportional to AI(1) on the same 100 instances (spread < 1e-9)"):
        worst = 0.0
        for journals, matrix, _ in family100:
            ipp = jr.influence_per_publication(journals, matrix, DIRECT)
            ai1 = jr.article_influence(journals, matrix, alpha=1.0, solver=DIRECT)
            ratio = ipp.values / ai1.values
            worst = max(worst, float(ratio.max() / ratio.min() - 1.0))
        assert worst < 1e-9


def test_criterion_06_pagerank_family_endpoints(family100):
    with verdict(6, "WPR(1,0) per article matches IPP; SJR(0,1) is constant"):
        journals, matrix = jr.two_field_example()
        instances = [(journals, matrix)] + [(j, m) for j, m, _ in family100[:20]]
        for js, cm in instances:
            wpr = jr.weighted_pagerank(js, cm, beta=1.0, gamma=0.0, solver=DIRECT)
            ipp = jr.influence_per_publication(js, cm, DIRECT)
            ratio = wpr.values / js.articles_t1 / ipp.values
            assert float(ratio.max() / ratio.min() - 1.0) < 1e-9
            sjr = jr.scimago_jr(js, cm, beta=0.0, gamma=1.0)
            assert float(sjr.values.max() - sjr.values.min()) < 1e-12


def test_criterion_07_audience_factor_field_bounds(family100):
    with verdict(7, "AF satisfies both field-mean bounds on 100 balanced instances"):
        violations = 0
        for journals, matrix, partition in family100:
            assert partition.is_balanced(journals)
            af = jr.audience_factor(journals, matrix)
            report = jr.field_insensitivity_check(journals, matrix, partition, af)
            assert report.eta is not None
            if not all(report.bounds_hold):
                violations += 1
        assert violations == 0


def test_criterion_08_stationary_mass_conservation(zoo):
    with verdict(8, "EF sums to 100 and the stationary vector to 1 across the damping grid"):
        for name, journals, matrix in zoo:
            shares = reference_shares(matrix)
            teleport = journals.articles_t1 / journals.articles_t1.sum()
            for alpha in ALPHA_GRID:
                ef = jr.eigenfactor(journals, matrix, alpha=alpha)
                assert abs(ef.values.sum() - 100.0) < 1e-9, (name, alpha)
                p, _ = stationary(shares, alpha, teleport)
                assert abs(p.sum() - 1.0) <= 1e-12, (name, alpha)
                assert np.all(p >= 0.0), (name, alpha)


def test_criterion_09_direct_and_power_paths_agree(zoo):
    with verdict(9, "direct solve and power iteration agree to 1e-10 on all small instances"):
        for name, journals, matrix in zoo:
            assert matrix.n <= 64
            shares = reference_shares(matrix)
            teleport = journals.articles_t1 / journals.articles_t1.sum()
            for alpha in ALPHA_GRID[1:]:
                direct, _ = stationary(shares, alpha, teleport, DIRECT)
                power, _ = stationary(shares, alpha, teleport, POWER)
                assert float(np.abs(direct - power).max()) < 1e-10, (name, alpha)
            d_dir = jr.influence_weights(journals, matrix, DIRECT).values
            d_pow = jr.influence_weights(journals, matrix, POWER).values
            d_dir = d_dir / d_dir.sum()
            d_pow = d_pow / d_pow.sum()
            assert float(np.abs(d_dir - d_pow).max()) < 1e-10, name


def test_criterion_10_correlation_machinery_and_damping_sweep():
    with verdict(10, "correlation oracles pass and the 200-journal sweep shows the high-end drift"):
        # Full-scale reference tables from licensed raw data are out of
        # reach, so the correlation machinery is checked against independent
        # oracles and the qualitative damping effect is demonstrated on
        # synthetic data.
        rng = np.random.default_rng(123)
        for _ in range(10):
            x = rng.normal(size=60)
            y = rng.normal(size=60)
            assert jr.pearson(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1], abs=1e-12)
            assert jr.spearman(x, y) == pytest.approx(
                np.corrcoef(jr.average_ranks(x), jr.average_ranks(y))[0, 1], abs=1e-12
            )
            assert jr.spearman(np.exp(x), x) == pytest.approx(1.0, abs=1e-12)

        wins = 0
        for seed in range(100):
            journals, matrix, _ = make_block(
                seed, m=100, within=10.0, cross=0.5, within2=12.0
            )
            ai = {
                alpha: jr.article_influence(journals, matrix, alpha=alpha, solver=DIRECT).values
                for alpha in (0.0, 0.5, 0.85, 1.0)
            }
            low_end = jr.spearman(ai[0.0], ai[0.5])
            high_end = jr.spearman(ai[0.5], ai[1.0])
            if low_end > high_end:
                wins += 1
        assert wins >= 95
