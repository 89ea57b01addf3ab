import tracemalloc

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
            {"journals_per_field": 2.0},
            {"journals_per_field": True},
            {"journals_per_field": 2, "articles_t1": 2.5},
            {"journals_per_field": 2, "articles_t1": True},
            {"journals_per_field": 2, "within_mean": np.inf},
            {"journals_per_field": 2, "within_mean_2": np.inf},
            {"journals_per_field": 2, "cross_mean": np.nan},
            {"journals_per_field": 2, "eta": np.inf},
        ],
    )
    def test_spec_validation(self, kwargs):
        with pytest.raises(ValueError):
            jr.BlockModelSpec(**kwargs)

    def test_numpy_integer_sizes_are_accepted(self):
        journals, _, _ = jr.block_model(
            jr.BlockModelSpec(np.int64(3), articles_t1=np.int32(10), seed=1)
        )
        assert journals.n == 6


def one_shot_block_model(spec):
    """block_model's draw as one rng.poisson call on the n x n means, with
    the same retry loop; returns the attempt that succeeded as well."""
    rng = np.random.default_rng(spec.seed)
    m = spec.journals_per_field
    n = 2 * m
    low = max(1, spec.articles_t1 // 2)
    high = spec.articles_t1 + spec.articles_t1 // 2
    for attempt in range(1, 51):
        field_a1 = rng.integers(low, high + 1, size=m)
        a1 = np.concatenate([field_a1, field_a1])
        a2 = np.rint(spec.eta * a1).astype(int)
        means = np.full((n, n), spec.cross_mean)
        means[:m, :m] = spec.within_mean
        means[m:, m:] = spec.within_mean if spec.within_mean_2 is None else spec.within_mean_2
        counts = rng.poisson(means).astype(float)
        if spec.cross_mean == 0:
            counts[0, m] = max(counts[0, m], 1.0)
            counts[m, 0] = max(counts[m, 0], 1.0)
        if np.all(counts.sum(axis=1) > 0) and jr.structure(counts).irreducible:
            return a1, a2, counts, (1,) * m + (2,) * m, attempt
    raise AssertionError("the reference draw found no irreducible instance")


class TestBlockModelStream:
    """The row-block draw gives bitwise the one-shot draw's instances."""

    # block_model draws at most 128 rows at a time, within one field.
    @pytest.mark.parametrize(
        "spec",
        [
            pytest.param(jr.BlockModelSpec(20, 3.0, 0.5, within_mean_2=6.0, seed=1), id="within_mean_2"),
            pytest.param(jr.BlockModelSpec(10, 30.0, 0.0, seed=1), id="bridge"),
            pytest.param(jr.BlockModelSpec(5, seed=2), id="below_one_block"),
            pytest.param(jr.BlockModelSpec(130, 0.5, 0.05, seed=3), id="not_a_block_multiple"),
            # Rows 128..255 would be one block if blocks crossed fields; the
            # second field starts at row 200.
            pytest.param(jr.BlockModelSpec(200, 1.0, 0.1, within_mean_2=4.0, seed=4), id="boundary_in_block"),
            pytest.param(jr.BlockModelSpec(750, 0.02, 0.002, seed=1), id="damping_sweep_size"),
            pytest.param(jr.BlockModelSpec(500, 0.4, 0.02, seed=1), id="loo_sweep_size"),
        ],
    )
    def test_same_instance_as_one_shot_draw(self, spec):
        self.assert_same_instance(spec)

    @pytest.mark.parametrize(
        "spec",
        [jr.BlockModelSpec(1, seed=0), jr.BlockModelSpec(130, 0.04, 0.01, seed=0)],
        ids=["one_journal_per_field", "several_blocks"],
    )
    def test_retried_spec_continues_the_same_stream(self, spec):
        attempt = self.assert_same_instance(spec)
        assert attempt > 1

    @staticmethod
    def assert_same_instance(spec):
        a1, a2, counts, field_of, attempt = one_shot_block_model(spec)
        journals, matrix, partition = jr.block_model(spec)
        np.testing.assert_array_equal(journals.articles_t1, a1)
        np.testing.assert_array_equal(journals.articles_t2, a2)
        assert matrix.counts.dtype == counts.dtype
        assert matrix.counts.tobytes() == counts.tobytes()
        assert partition.field_of == field_of
        return attempt

    def test_peak_memory_stays_near_the_counts(self):
        jr.block_model(jr.BlockModelSpec(1))  # loads numpy.random's lazy modules
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            _, matrix, _ = jr.block_model(jr.BlockModelSpec(750, 0.02, 0.002, seed=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before <= 1.25 * matrix.counts.nbytes
