import numpy as np
import pytest

import journalrank as jr
from journalrank.errors import GenerationFailed


class TestTwoFieldExample:
    def test_first_row_and_sizes(self, two_field):
        journals, matrix = two_field
        assert journals.n == 8
        np.testing.assert_array_equal(matrix.counts[0], [1000, 1000, 10, 10, 100, 100, 1, 1])
        np.testing.assert_array_equal(matrix.counts[4], [100, 100, 1, 1, 1000, 1000, 10, 10])
        np.testing.assert_array_equal(journals.articles_t1, np.full(8, 100))
        np.testing.assert_array_equal(journals.articles_t2, np.full(8, 100))

    def test_every_row_sum_is_2222(self, two_field):
        _, matrix = two_field
        np.testing.assert_array_equal(matrix.row_sums, np.full(8, 2222))

    def test_structure(self, two_field):
        _, matrix = two_field
        report = jr.structure(matrix)
        assert report.irreducible

    def test_validates(self, two_field):
        assert jr.validate(*two_field)


class TestNearDecomposableExample:
    def test_contents(self, near_decomposable):
        journals, matrix, partition = near_decomposable
        assert journals.n == 2
        np.testing.assert_array_equal(matrix.counts, [[999, 1], [3, 997]])
        np.testing.assert_array_equal(journals.articles_t1, [100, 100])
        assert partition.field_of == (1, 2)
        assert partition.is_balanced(journals)

    def test_delta(self, near_decomposable):
        _, matrix, partition = near_decomposable
        assert jr.min_delta(matrix, partition) == 0.003


class TestBlockModel:
    def test_same_seed_reproduces_instance(self):
        spec = jr.BlockModelSpec(journals_per_field=5, seed=7)
        first = jr.block_model(spec)
        second = jr.block_model(spec)
        assert first[0] == second[0]
        np.testing.assert_array_equal(first[1].counts, second[1].counts)
        assert first[2] == second[2]

    @pytest.mark.parametrize("seed", range(8))
    def test_generated_instances_are_valid_and_irreducible(self, seed):
        journals, matrix, partition = jr.block_model(
            jr.BlockModelSpec(journals_per_field=4, seed=seed)
        )
        assert jr.validate(journals, matrix)
        assert jr.structure(matrix).irreducible
        assert partition.is_balanced(journals)
        assert np.all(matrix.row_sums > 0)

    def test_article_growth_multiplier_is_exact(self):
        journals, _, _ = jr.block_model(
            jr.BlockModelSpec(journals_per_field=4, eta=2.0, seed=3)
        )
        np.testing.assert_array_equal(journals.articles_t2, 2 * journals.articles_t1)

    def test_zero_cross_traffic_forces_a_single_bridge(self):
        journals, matrix, partition = jr.block_model(
            jr.BlockModelSpec(journals_per_field=3, within_mean=30.0, cross_mean=0.0, seed=1)
        )
        labels = np.array(partition.field_of)
        cross_mask = labels[:, None] != labels[None, :]
        cross = np.where(cross_mask, matrix.counts, 0.0)
        assert cross.sum() == 2.0  # one bridge citation each way
        bridged_rows = np.flatnonzero(cross.sum(axis=1) > 0)
        expected = max(
            1.0 / matrix.row_sums[i] for i in bridged_rows
        )
        assert jr.min_delta(matrix, partition) == pytest.approx(expected, abs=1e-15)

    def test_asymmetric_fields(self):
        journals, matrix, partition = jr.block_model(
            jr.BlockModelSpec(journals_per_field=10, within_mean=10.0, cross_mean=1.0,
                              within_mean_2=20.0, seed=2)
        )
        labels = np.array(partition.field_of)
        field1 = matrix.counts[np.ix_(labels == 1, labels == 1)].mean()
        field2 = matrix.counts[np.ix_(labels == 2, labels == 2)].mean()
        assert field2 > field1

    def test_retry_budget_exhausts_on_degenerate_spec(self):
        # Nearly zero within-field traffic leaves non-bridged rows empty, so
        # every attempt has dangling journals.
        spec = jr.BlockModelSpec(
            journals_per_field=2, within_mean=1e-9, cross_mean=0.0, seed=0
        )
        with pytest.raises(GenerationFailed):
            jr.block_model(spec)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"journals_per_field": 0},
            {"journals_per_field": 2, "within_mean": 1.0, "cross_mean": 2.0},
            {"journals_per_field": 2, "articles_t1": 0},
            {"journals_per_field": 2, "eta": 0.0},
            {"journals_per_field": 2, "within_mean_2": 0.5, "cross_mean": 1.0, "within_mean": 2.0},
        ],
    )
    def test_spec_validation(self, kwargs):
        with pytest.raises(ValueError):
            jr.BlockModelSpec(**kwargs)
