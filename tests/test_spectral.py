import re
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import journalrank as jr
from journalrank import core, spectral
from journalrank.errors import NoConvergence, NotIrreducible
from journalrank.spectral import SolverConfig, reference_shares, stationary

from conftest import make_block

ALPHAS = (0.25, 0.5, 0.85, 1.0)
TWO_JOURNALS = jr.JournalSet((jr.Journal("A", None, 5, 5), jr.Journal("B", None, 5, 5)))


def dense_oracle(shares, alpha, teleport):
    """Independent dense formulation: for alpha < 1 solve the damped linear
    system; for alpha = 1 take the unit-eigenvalue left eigenvector."""
    n = shares.shape[0]
    if alpha < 1.0:
        x = np.linalg.solve(np.eye(n) - alpha * shares.T, (1.0 - alpha) * teleport)
        return x / x.sum()
    eigenvalues, eigenvectors = np.linalg.eig(shares.T)
    k = int(np.argmin(np.abs(eigenvalues - 1.0)))
    vector = np.real(eigenvectors[:, k])
    vector = vector * np.sign(vector.sum())
    return vector / vector.sum()


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tolerance": 0.0},
            {"tolerance": -1.0},
            {"max_iterations": 0},
            {"method": "magic"},
            # Any first step meets an infinite tolerance: on block_model(40,
            # seed=7), AI(0.85) would be reported converged 6.1e-3 L1 away.
            {"tolerance": float("inf")},
            {"tolerance": float("nan")},
            {"max_iterations": True},
            {"max_iterations": 2.5},
            {"max_iterations": 100.0},
            # A bool is an int: True read as tolerance 1.0 reported IPP on
            # table1 converged after one power step, residual 0.98.
            {"tolerance": True},
            {"tolerance": np.True_},
        ],
    )
    def test_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    def test_numpy_integer_iterations_accepted(self):
        assert SolverConfig(max_iterations=np.int64(5)).max_iterations == 5


class TestStationary:
    def test_alpha_zero_returns_teleport_exactly(self, two_field):
        _, matrix = two_field
        shares = reference_shares(matrix)
        teleport = np.array([0.5, 0.1, 0.1, 0.1, 0.05, 0.05, 0.05, 0.05])
        p, report = stationary(shares, 0.0, teleport)
        np.testing.assert_array_equal(p, teleport)
        assert report.residual == 0.0

    def test_periodic_two_cycle_at_full_damping(self):
        shares = reference_shares(jr.CitationMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
        for method in ("direct", "power"):
            p, _ = stationary(shares, 1.0, np.array([0.9, 0.1]), SolverConfig(method=method))
            np.testing.assert_allclose(p, [0.5, 0.5], atol=1e-12)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_matches_independent_dense_oracle(self, zoo, alpha):
        for name, journals, matrix in zoo:
            shares = reference_shares(matrix)
            teleport = np.full(matrix.n, 1.0 / matrix.n)
            p, _ = stationary(shares, alpha, teleport, SolverConfig(method="direct"))
            expected = dense_oracle(shares, alpha, teleport)
            np.testing.assert_allclose(p, expected, atol=1e-10, err_msg=name)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_direct_and_power_agree(self, zoo, alpha):
        for name, journals, matrix in zoo:
            shares = reference_shares(matrix)
            teleport = np.full(matrix.n, 1.0 / matrix.n)
            direct, _ = stationary(shares, alpha, teleport, SolverConfig(method="direct"))
            power, _ = stationary(shares, alpha, teleport, SolverConfig(method="power"))
            assert np.abs(direct - power).max() < 1e-10, name

    @pytest.mark.parametrize("alpha", (0.0,) + ALPHAS)
    def test_output_is_probability_vector(self, zoo, alpha):
        for name, journals, matrix in zoo:
            shares = reference_shares(matrix)
            teleport = np.full(matrix.n, 1.0 / matrix.n)
            for method in ("direct", "power"):
                p, report = stationary(shares, alpha, teleport, SolverConfig(method=method))
                assert np.all(p >= -1e-15), name
                assert abs(p.sum() - 1.0) <= 1e-12, name
                assert report.residual <= 1e-12

    def test_not_irreducible_only_at_full_damping(self):
        matrix = jr.CitationMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
        shares = reference_shares(matrix)
        teleport = np.array([0.5, 0.5])
        p, _ = stationary(shares, 0.85, teleport)
        assert abs(p.sum() - 1.0) < 1e-12
        with pytest.raises(NotIrreducible) as err:
            stationary(shares, 1.0, teleport)
        assert sorted(map(sorted, err.value.components)) == [[0], [1]]

    def test_no_convergence_raises(self, near_decomposable):
        _, matrix, _ = near_decomposable
        shares = reference_shares(matrix)
        with pytest.raises(NoConvergence) as err:
            stationary(
                shares,
                1.0,
                np.array([0.5, 0.5]),
                SolverConfig(method="power", max_iterations=3),
            )
        assert err.value.iterations == 3
        assert err.value.residual > 0

    @pytest.mark.parametrize(
        "teleport",
        [np.array([0.5, 0.6]), np.array([-0.5, 1.5]), np.array([1.0, 0.0, 0.0])],
    )
    def test_bad_teleport_rejected(self, teleport):
        shares = np.array([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError):
            stationary(shares, 0.5, teleport)

    def test_counts_are_row_normalized_implicitly(self, zoo):
        for name, journals, matrix in zoo:
            teleport = np.full(matrix.n, 1.0 / matrix.n)
            for alpha in (0.5, 1.0):
                for method in ("direct", "power"):
                    config = SolverConfig(method=method)
                    from_counts, _ = stationary(matrix.counts, alpha, teleport, config)
                    from_shares, _ = stationary(reference_shares(matrix), alpha, teleport, config)
                    assert np.abs(from_counts - from_shares).max() <= 1e-12, (name, alpha, method)
        counts = np.array([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="row 1 has no positive sum"):
            stationary(counts, 0.5, np.array([0.5, 0.5]))

    @pytest.mark.parametrize("method", ("direct", "power"))
    @pytest.mark.parametrize("alpha", (0.5, 1.0))
    @pytest.mark.parametrize("bad", (np.nan, np.inf))
    def test_non_finite_shares_rejected(self, method, alpha, bad):
        shares = np.array([[bad, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError, match="finite"):
            stationary(shares, alpha, np.array([0.5, 0.5]), SolverConfig(method=method))

    @pytest.mark.parametrize("method", ("direct", "power"))
    @pytest.mark.parametrize("alpha", (0.85, 1.0))
    @pytest.mark.parametrize(
        "counts, cell",
        (
            ([[2.0, -1.0, 3.0], [1.0, 1.0, 1.0], [4.0, 1.0, 0.5]], "(0, 1)"),
            ([[0.0, -5.0, 6.0], [1.0, 1.0, 1.0], [4.0, 1.0, 0.5]], "(0, 1)"),
            ([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [4.0, -1.0, -0.5]], "(2, 1)"),
        ),
    )
    def test_negative_cell_rejected(self, method, alpha, counts, cell):
        # Every row sum is positive, so only a cell check catches these.
        config = SolverConfig(method=method)
        with pytest.raises(ValueError, match=re.escape(f"shares cell {cell} is negative")):
            stationary(np.array(counts), alpha, np.full(3, 1.0 / 3.0), config)
        journals = jr.JournalSet(tuple(jr.Journal(f"J{k}", None, 5, 5) for k in range(3)))
        with pytest.raises(ValueError, match="is negative"):
            jr.eigenfactor(journals, jr.CitationMatrix(np.array(counts)), alpha, config)

    @pytest.mark.parametrize("method", ("direct", "power"))
    @pytest.mark.parametrize("teleport", ([np.nan, 0.5], [np.nan, np.nan], [np.inf, -np.inf]))
    def test_non_finite_teleport_rejected(self, method, teleport):
        shares = np.array([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError, match="finite"):
            stationary(shares, 0.5, np.array(teleport), SolverConfig(method=method))


def mp_reference(counts, alpha, teleport=None):
    """The fixed point to 40 digits, built in mpmath from the integer counts.

    For alpha < 1 it solves the damped system x (I - alpha S) = (1 - alpha) t;
    at alpha = 1 it solves x (I - S) = 0 with the last equation replaced by
    sum(x) = 1, which needs no teleport. Both are independent of the
    formulation ``spectral`` solves.
    """
    mpmath = pytest.importorskip("mpmath")
    assert np.array_equal(counts, np.round(counts))
    n = counts.shape[0]
    with mpmath.workdps(40):
        rows = [[mpmath.mpf(int(c)) for c in row] for row in counts]
        sums = [mpmath.fsum(row) for row in rows]
        a = mpmath.mpf(alpha)
        system = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(n):
                system[i, j] = (i == j) - a * rows[j][i] / sums[j]
        if alpha == 1.0:
            for j in range(n):
                system[n - 1, j] = 1
            rhs = mpmath.matrix(n, 1)
            rhs[n - 1] = 1
        else:
            rhs = mpmath.matrix([(1 - a) * mpmath.mpf(float(v)) for v in teleport])
        x = mpmath.lu_solve(system, rhs)
        total = mpmath.fsum(x)
        return np.array([float(v / total) for v in x])


def _teleports(journals, n):
    return {"uniform": np.full(n, 1.0 / n), "articles": journals.articles_t1 / journals.articles_t1.sum()}


ORACLE_CROSS = (0.002, 2e-4)


@pytest.fixture(scope="module")
def weak_block80():
    """Two 40-journal fields that cite each other rarely, each with its alpha
    = 1 reference (about 1.3 s of mpmath each)."""
    instances = {}
    for cross in ORACLE_CROSS:
        journals, matrix, _ = jr.block_model(jr.BlockModelSpec(40, cross_mean=cross, seed=1))
        instances[cross] = (journals, matrix, mp_reference(matrix.counts, 1.0))
    return instances


@pytest.fixture(scope="module")
def small_chains(two_field, near_decomposable):
    """Instances of at most 30 journals with their uniform and article-share
    teleports."""
    rng = np.random.default_rng(7)
    bipartite = rng.poisson(0.02, (30, 30)).astype(float)
    bipartite[:15, 15:] = rng.poisson(2.0, (15, 15))
    bipartite[15:, :15] = rng.poisson(2.0, (15, 15))
    ramp = np.arange(1.0, 31.0) / np.arange(1.0, 31.0).sum()
    journals, matrix, _ = jr.block_model(jr.BlockModelSpec(15, cross_mean=0.002, seed=1))
    items = [("table1", *two_field), ("near_decomposable", *near_decomposable[:2]), ("block_m15", journals, matrix)]
    chains = [(name, m, _teleports(js, m.n)) for name, js, m in items]
    for name, counts in (("cycle_30", np.roll(np.eye(30), 1, axis=1)), ("bipartite_30", bipartite)):
        chains.append((name, jr.CitationMatrix(counts), {"uniform": np.full(30, 1.0 / 30), "ramp": ramp}))
    return chains


class TestExtendedPrecisionOracle:
    """Direct elimination against a 40-digit solve. On weakly coupled fields
    (lambda_2 up to 0.99994) at alpha = 1, swapping one equation of the
    singular system for the sum constraint sat 2.25e-12 and 3.06e-12 L1 off."""

    @pytest.mark.parametrize("teleport", ("uniform", "articles"))
    @pytest.mark.parametrize("cross", ORACLE_CROSS)
    def test_full_damping_on_weakly_coupled_fields(self, weak_block80, cross, teleport):
        journals, matrix, expected = weak_block80[cross]
        p, report = stationary(matrix, 1.0, _teleports(journals, matrix.n)[teleport], SolverConfig(method="direct"))
        assert report.method_used == "direct"
        assert np.abs(p - expected).sum() <= 1e-12

    @pytest.mark.parametrize("alpha", (0.5, 0.85, 0.99))
    def test_damped_small_chains(self, small_chains, alpha):
        for name, matrix, teleports in small_chains:
            for label, teleport in teleports.items():
                p, _ = stationary(matrix, alpha, teleport, SolverConfig(method="direct"))
                gap = np.abs(p - mp_reference(matrix.counts, alpha, teleport)).sum()
                assert gap <= 5e-14, (name, label)

    def test_ipp_at_default_settings(self, weak_block80):
        # Forced power raises NoConvergence here after 100,000 steps; 80
        # journals lie within DIRECT_LIMIT, so auto solves it directly.
        journals, matrix, q = weak_block80[2e-4]
        ipp = jr.compute("ipp", journals, matrix)
        assert ipp.solver.method_used == "direct"
        # IW is q / s scaled to sum(w s) = sum(s), and q sums to 1.
        sums = matrix.row_sums
        expected = q * sums.sum() / (journals.n * journals.articles_t1)
        assert np.abs(ipp.values - expected).sum() <= 1e-12 * expected.sum()

    def test_auto_switches_to_power_above_the_limit(self):
        for n, method in ((spectral.DIRECT_LIMIT, "direct"), (spectral.DIRECT_LIMIT + 1, "power")):
            counts = np.random.default_rng(n).poisson(5.0, (n, n)) + 1.0
            for alpha in (0.85, 1.0):
                _, report = stationary(counts, alpha, np.full(n, 1.0 / n))
                assert report.method_used == method, (n, alpha)


@pytest.fixture(scope="module")
def sparse_instances():
    """Row-stochastic matrices sparse enough for the power path's COO matvec."""
    _, matrix, _ = make_block(seed=3, m=200, within=0.025, cross=0.0025)
    cycle = np.roll(np.eye(30), 1, axis=1)  # journal i cites only journal i + 1
    return [("block_model_n400", reference_shares(matrix)), ("cycle_n30", cycle)]


class TestSparsePowerPath:
    @pytest.mark.parametrize("alpha", (0.5, 0.85, 1.0))
    def test_matches_dense_matvec_and_direct(self, sparse_instances, alpha, monkeypatch):
        power = SolverConfig(method="power")
        for name, shares in sparse_instances:
            n = shares.shape[0]
            assert np.count_nonzero(shares) < core.SPARSE_DENSITY * n * n, name
            teleport = np.random.default_rng(n).dirichlet(np.ones(n))
            coo, coo_report = stationary(shares, alpha, teleport, power)
            direct, _ = stationary(shares, alpha, teleport, SolverConfig(method="direct"))
            with monkeypatch.context() as patch:
                patch.setattr(core, "SPARSE_DENSITY", 0.0)
                dense, dense_report = stationary(shares, alpha, teleport, power)
            assert coo_report.method_used == "power" and coo_report.residual <= 1e-12, name
            assert abs(coo_report.iterations - dense_report.iterations) <= 1, name
            assert np.abs(coo - dense).max() < 1e-13, name
            assert np.abs(coo - direct).max() < 1e-10, name


class TestShareStep:
    """``share_step`` is the one product x -> x @ S; both of its realizations
    agree with the dense share matrix, and the indicators' flows do not
    depend on which one runs."""

    # Above 1 even a matrix without a zero cell is stored sparse.
    @pytest.mark.parametrize("density", (0.0, 2.0), ids=("dense", "sparse"))
    def test_matches_the_dense_share_matrix(self, zoo, density, monkeypatch):
        monkeypatch.setattr(core, "SPARSE_DENSITY", density)
        rng = np.random.default_rng(5)
        for name, journals, stored in zoo:
            shares = reference_shares(stored)
            matrix = jr.CitationMatrix(stored.counts)
            assert matrix.sparse is (density > 0), name
            for x in (journals.articles_t2, rng.dirichlet(np.ones(matrix.n))):
                step = spectral.share_step(matrix)(x)
                np.testing.assert_allclose(step, x @ shares, rtol=1e-14, atol=0, err_msg=name)

    def test_sparse_sum_repeats_the_gather_bitwise(self):
        # The sparse sum spreads x over the non-zeros by repeating each x_j
        # per non-zero of row j; the gather x[rows] is the reference form.
        _, matrix, _ = make_block(seed=3, m=200, within=0.025, cross=0.0025)
        assert matrix.nonzero_count < core.SPARSE_DENSITY * matrix.n**2
        rows, cols, counts = matrix.nonzeros
        shares = counts / matrix.row_sums[rows]
        step = spectral.share_step(matrix)
        dense = reference_shares(matrix)
        for x in (np.full(matrix.n, 1.0 / matrix.n), np.random.default_rng(6).dirichlet(np.ones(matrix.n))):
            gather = np.bincount(cols, weights=x[rows] * shares, minlength=matrix.n)
            np.testing.assert_array_equal(step(x), gather)
            assert np.abs(step(x) - x @ dense).sum() <= 1e-15

    def test_indicator_flows_do_not_depend_on_the_realization(self, monkeypatch):
        journals, matrix, _ = make_block(seed=3, m=200, within=0.025, cross=0.0025)
        assert matrix.nonzero_count < core.SPARSE_DENSITY * matrix.n**2
        for kind in ("ef", "af"):
            sparse = jr.compute(kind, journals, matrix).values
            with monkeypatch.context() as patch:
                patch.setattr(core, "SPARSE_DENSITY", 0.0)
                dense = jr.compute(kind, journals, jr.CitationMatrix(matrix.counts)).values
            assert np.abs(sparse - dense).sum() <= 1e-12 * np.abs(dense).sum(), kind
            if kind == "ef":
                assert sparse.sum() == pytest.approx(100.0, abs=1e-9)

    def test_non_square_array_rejected(self):
        with pytest.raises(ValueError, match="square"):
            stationary(np.ones((2, 3)), 0.5, np.array([0.5, 0.5]))


class TestOperatorFacts:
    """What a CitationMatrix derives once: the solve on it equals the solve
    on its bare counts, and its checks still run on every call."""

    @pytest.mark.parametrize("method", ("direct", "power"))
    @pytest.mark.parametrize("alpha", (0.5, 0.85, 1.0))
    def test_matrix_and_counts_solve_bitwise_alike(self, zoo, alpha, method):
        config = SolverConfig(method=method)
        for name, journals, matrix in zoo:
            assert np.asarray(matrix) is matrix.counts, name
            teleport = journals.articles_t1 / journals.articles_t1.sum()
            for _ in range(2):  # the second solve reads the cached facts
                from_matrix, matrix_report = stationary(matrix, alpha, teleport, config)
                from_counts, counts_report = stationary(matrix.counts, alpha, teleport, config)
                np.testing.assert_array_equal(from_matrix, from_counts, err_msg=name)
                assert matrix_report == counts_report, name

    @pytest.mark.parametrize("method", ("direct", "power"))
    def test_checks_raise_on_every_call(self, method):
        config = SolverConfig(method=method)
        uniform = np.full(3, 1.0 / 3.0)
        negative = jr.CitationMatrix(np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [4.0, -1.0, -0.5]]))
        reducible = jr.CitationMatrix(np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]))
        for _ in range(2):
            with pytest.raises(ValueError, match=re.escape("shares cell (2, 1) is negative")):
                stationary(negative, 0.85, uniform, config)
            with pytest.raises(NotIrreducible) as err:
                stationary(reducible, 1.0, uniform, config)
            assert sorted(map(sorted, err.value.components)) == [[0, 1], [2]]
            p, _ = stationary(reducible, 0.85, uniform, config)
            assert abs(p.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize(
        "counts, cell",
        (
            ([[1.0, 2.0], [3.0, 0.0]], None),
            ([[1.0, 2.0], [-3.0, -1.0]], (1, 0)),
            ([[np.nan, 2.0], [3.0, 0.0]], None),
            ([[np.nan, -2.0], [3.0, 0.0]], (0, 1)),
            (np.zeros((0, 0)), None),
        ),
    )
    def test_negative_cell_is_the_first_in_row_major_order(self, counts, cell):
        assert jr.CitationMatrix(np.array(counts)).negative_cell == cell

    def test_non_zeros_are_extracted_once_per_matrix(self, monkeypatch):
        calls = {"extract": 0, "sweep": 0}

        def counted(name, function):
            def call(*args):
                calls[name] += 1
                return function(*args)

            return call

        # Both sweeps count: the pattern's (dense storage) and the links' (sparse).
        monkeypatch.setattr(core, "_nonzeros", counted("extract", core._nonzeros))
        monkeypatch.setattr(core, "_pattern_irreducible", counted("sweep", core._pattern_irreducible))
        monkeypatch.setattr(core, "_links_irreducible", counted("sweep", core._links_irreducible))
        matrix = jr.CitationMatrix(np.roll(np.eye(30), 1, axis=1))  # a 30-cycle, 3.3 % dense
        assert matrix.nonzero_count < core.SPARSE_DENSITY * matrix.n**2
        uniform = np.full(30, 1.0 / 30.0)
        power = SolverConfig(method="power")
        first = stationary(matrix, 1.0, uniform, power)
        second = stationary(matrix, 1.0, uniform, power)
        stationary(matrix, 0.85, uniform, power)
        assert calls == {"extract": 1, "sweep": 1}
        np.testing.assert_array_equal(first[0], second[0])
        assert first[1] == second[1] and first[1].iterations > 0
        # A bare array is wrapped afresh, so each of its solves extracts again.
        stationary(matrix.counts, 0.85, uniform, power)
        assert calls == {"extract": 2, "sweep": 1}


    def test_concurrent_first_use_solves_alike(self):
        _, sparse, _ = make_block(seed=3, m=200, within=0.025, cross=0.0025)
        uniform = np.full(sparse.n, 1.0 / sparse.n)
        alphas = (0.5, 0.85, 1.0) * 4
        expected = [stationary(sparse.counts, alpha, uniform) for alpha in alphas]
        fresh = jr.CitationMatrix(sparse.counts)
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(lambda alpha: stationary(fresh, alpha, uniform), alphas))
        for (x, report), (y, expected_report) in zip(results, expected):
            np.testing.assert_array_equal(x, y)
            assert report == expected_report


class TestIwEigensystem:
    """The IW direction: the alpha = 1 stationary vector over the row sums,
    solved through ``influence_weights`` (IW is scale-free, so ratios and
    normalized vectors are what the checks compare)."""

    def test_near_decomposable_direction(self, near_decomposable):
        # By hand: w1 * 1000 = 999 w1 + 3 w2  =>  w1 = 3 w2.
        journals, matrix, _ = near_decomposable
        direction = jr.influence_weights(journals, matrix).values
        assert direction[0] / direction[1] == pytest.approx(3.0, abs=1e-12)

    def test_symmetric_doubly_balanced_is_uniform(self):
        matrix = jr.CitationMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        direction = jr.influence_weights(TWO_JOURNALS, matrix).values
        assert direction[0] == pytest.approx(direction[1], rel=1e-12)

    def test_positive_on_irreducible_instances(self, zoo):
        for name, journals, matrix in zoo:
            direction = jr.influence_weights(journals, matrix).values
            assert np.all(direction > 0), name

    def test_not_irreducible_raises(self):
        matrix = jr.CitationMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(NotIrreducible):
            jr.influence_weights(TWO_JOURNALS, matrix)

    def test_direct_and_power_agree(self, zoo):
        for name, journals, matrix in zoo:
            direct = jr.influence_weights(journals, matrix, SolverConfig(method="direct")).values
            power = jr.influence_weights(journals, matrix, SolverConfig(method="power")).values
            direct = direct / direct.sum()
            power = power / power.sum()
            assert np.abs(direct - power).max() < 1e-10, name


def _power_against_direct(matrix, alpha, teleport, expected=None, **config):
    """Forced power solve, its L1 gap to direct elimination, and the report."""
    power, report = stationary(matrix, alpha, teleport, SolverConfig(method="power", **config))
    assert report.method_used == "power"
    assert np.all(power >= 0.0) and abs(power.sum() - 1.0) <= 1e-12
    if expected is None:
        expected, _ = stationary(matrix, alpha, teleport, SolverConfig(method="direct"))
    return power, float(np.abs(power - expected).sum()), report


def _without_jumps(monkeypatch, matrix, alpha, teleport):
    """The power solve with the extrapolation disabled: the plain iteration."""
    with monkeypatch.context() as patch:
        patch.setattr(spectral, "_JUMP_MAX_RATE", 0.0)
        return stationary(matrix, alpha, teleport, SolverConfig(method="power"))


WEAK_CROSS = (2e-4, 5e-5)


@pytest.fixture(scope="module")
def weakly_coupled():
    """Two 750-journal fields that cite each other 100 and 400 times more
    rarely than themselves: one slow mode, the field split."""
    instances = {}
    for cross in WEAK_CROSS:
        journals, matrix, _ = make_block(seed=1, m=750, within=0.02, cross=cross)
        teleports = {
            "uniform": np.full(matrix.n, 1.0 / matrix.n),
            "articles": journals.articles_t1 / journals.articles_t1.sum(),
        }
        instances[cross] = (matrix, teleports, {})
    return instances


class TestExtrapolation:
    """The power path's Aitken jump over a dominant real error mode, taken at
    every step size: it must leave the forced power solve within 1e-12 L1 of
    direct elimination and never fire on complex or negative modes."""

    @pytest.mark.parametrize("teleport", ("uniform", "articles"))
    @pytest.mark.parametrize("alpha", (0.85, 0.99, 1.0))
    @pytest.mark.parametrize("cross", WEAK_CROSS)
    def test_weakly_coupled_fields_match_direct(self, weakly_coupled, cross, alpha, teleport):
        matrix, teleports, direct = weakly_coupled[cross]
        key = alpha if alpha == 1.0 else (alpha, teleport)  # alpha = 1 ignores the teleport
        if key not in direct:
            direct[key], _ = stationary(matrix, alpha, teleports[teleport], SolverConfig(method="direct"))
        _, gap, _ = _power_against_direct(matrix, alpha, teleports[teleport], direct[key])
        assert gap <= 1e-12

    @pytest.mark.parametrize("tolerance", (1e-12, 1e-15))
    def test_near_decomposable_matches_direct(self, near_decomposable, tolerance):
        _, matrix, _ = near_decomposable
        for teleport in (np.array([0.5, 0.5]), np.array([0.9, 0.1])):
            _, gap, _ = _power_against_direct(matrix, 1.0, teleport, tolerance=tolerance)
            assert gap <= 1e-12, teleport

    def test_slow_field_split_is_jumped_below_the_tolerance(self, weakly_coupled, near_decomposable):
        # Left to the lazy step, the slow mode's remainder below the tolerance
        # shrinks by (1 + lam) / 2 per step: 2132 and 2967 steps here, 1276
        # and 1610 on the 2 x 2 chain. Jumped, plain steps take 47-52 and 5-7.
        matrix, teleports, _ = weakly_coupled[5e-5]
        for name, teleport in teleports.items():
            _, report = stationary(matrix, 1.0, teleport, SolverConfig(method="power"))
            assert report.iterations <= 80, name
        _, matrix, _ = near_decomposable
        for teleport in (np.array([0.5, 0.5]), np.array([0.9, 0.1])):
            _, report = stationary(matrix, 1.0, teleport, SolverConfig(method="power"))
            assert report.iterations <= 20, teleport

    @pytest.mark.parametrize("alpha", (0.85, 1.0))
    def test_periodic_cycle_takes_no_jump(self, monkeypatch, alpha):
        # Every mode of a cycle but the fixed point is complex. A fit looser
        # than _JUMP_FIT took a rate near 1 for one on this 40-cycle, and the
        # solve then never converged.
        matrix = jr.CitationMatrix(np.roll(np.eye(40), 1, axis=1))
        teleport = np.random.default_rng(40).dirichlet(np.ones(40))
        power, gap, report = _power_against_direct(matrix, alpha, teleport)
        assert gap <= 1e-12
        plain, plain_report = _without_jumps(monkeypatch, matrix, alpha, teleport)
        np.testing.assert_array_equal(power, plain)
        assert report == plain_report

    @pytest.mark.parametrize("self_weight", (1.0, 1e-4))
    def test_self_citing_cycle_falls_back_to_lazy_steps(self, self_weight):
        # Journal 0 also cites itself, so the chain is aperiodic, but at
        # weight 1e-4 its slow modes sit just inside the unit circle and
        # plain steps alone had not converged after 100,000 steps.
        counts = np.roll(np.eye(40), 1, axis=1)
        counts[0, 0] = self_weight
        matrix = jr.CitationMatrix(counts)
        teleport = np.random.default_rng(40).dirichlet(np.ones(40))
        _, gap, _ = _power_against_direct(matrix, 1.0, teleport)
        assert gap <= 1e-12

    def test_nearly_bipartite_chain_is_unchanged(self, monkeypatch):
        # Each field cites almost only the other one, so lambda_2 is close to
        # -1: a damped step's slow mode is negative and never fits.
        rng = np.random.default_rng(7)
        m = 40
        counts = rng.poisson(0.02, (2 * m, 2 * m)).astype(float)
        counts[:m, m:] = rng.poisson(2.0, (m, m))
        counts[m:, :m] = rng.poisson(2.0, (m, m))
        matrix = jr.CitationMatrix(counts)
        eigenvalues = np.linalg.eigvals(reference_shares(matrix))
        second = eigenvalues[np.argsort(-np.abs(eigenvalues))[1]]
        assert abs(second.imag) < 1e-9 and second.real < -0.9
        uniform = np.full(2 * m, 1.0 / (2 * m))
        for alpha in (0.85, 0.99, 1.0):
            power, gap, report = _power_against_direct(matrix, alpha, uniform)
            assert gap <= 1e-12, alpha
            if alpha < 1.0:
                plain, plain_report = _without_jumps(monkeypatch, matrix, alpha, uniform)
                np.testing.assert_array_equal(power, plain, err_msg=str(alpha))
                assert report == plain_report, alpha

    def test_full_damping_step_count_on_the_benchmark_instance(self):
        # damping_sweep's instance: lambda_2 = 0.82, so a lazy step contracts
        # the field split by 0.91 and the lazy iteration without jumps took
        # 267 steps. Jumped, plain steps take 29-31.
        spec = jr.BlockModelSpec(750, within_mean=0.02, cross_mean=0.002, seed=1)
        journals, matrix, _ = jr.block_model(spec)
        for teleport in (np.full(matrix.n, 1.0 / matrix.n), journals.articles_t1 / journals.articles_t1.sum()):
            _, report = stationary(matrix, 1.0, teleport)
            assert report.method_used == "power" and report.iterations <= 40

    def test_no_convergence_is_still_raised(self, weakly_coupled):
        # This solve converges in about 50 steps; 20 are far too few.
        matrix, teleports, _ = weakly_coupled[5e-5]
        with pytest.raises(NoConvergence) as err:
            stationary(matrix, 1.0, teleports["uniform"], SolverConfig(method="power", max_iterations=20))
        assert err.value.iterations == 20


@pytest.fixture(scope="module")
def table1_without_j8(two_field):
    _, matrix = jr.drop_journal(*two_field, 7)
    return matrix, np.full(matrix.n, 1.0 / matrix.n)


class TestStopRule:
    """The power path stops when the step and the step times rho / (1 - rho)
    are both within the tolerance, with rho capped at alpha: for alpha < 1
    the map contracts by alpha, so the cap makes the stop a proven bound."""

    @pytest.mark.parametrize("alpha", (0.5, 0.85))
    def test_stops_once_the_bound_holds(self, table1_without_j8, alpha):
        # The step falls to its rounding floor, about 1e-16, within 4 steps,
        # where alpha / (1 - alpha) times it is far below the tolerance.
        matrix, teleport = table1_without_j8
        _, gap, report = _power_against_direct(matrix, alpha, teleport, tolerance=1e-12)
        assert report.iterations <= 10
        assert gap <= 1e-15

    def test_bound_below_the_rounding_floor_raises(self, table1_without_j8):
        # The step holds at 2.5e-16, so the bound 0.85 / 0.15 times the step
        # stays at 1.4e-15, above the tolerance: the solve must raise rather
        # than report a convergence it did not reach.
        matrix, teleport = table1_without_j8
        config = SolverConfig(method="power", tolerance=1e-15, max_iterations=2000)
        with pytest.raises(NoConvergence) as err:
            stationary(matrix, 0.85, teleport, config)
        assert err.value.iterations == 2000

    @pytest.mark.parametrize("teleport", ("uniform", "articles"))
    @pytest.mark.parametrize("alpha", (0.9999, 0.99999))
    def test_damping_near_one_stops_on_the_measured_rate(self, alpha, teleport):
        # The certificate alpha * step / (1 - alpha) <= 1e-12 would need a
        # step near 1e-17 here, below the rounding floor; the measured rate
        # stops the solve within 28-29 steps.
        journals, matrix, _ = jr.block_model(jr.BlockModelSpec(65, within_mean=1, cross_mean=0.01, seed=1))
        teleports = {
            "uniform": np.full(matrix.n, 1.0 / matrix.n),
            "articles": journals.articles_t1 / journals.articles_t1.sum(),
        }
        _, gap, report = _power_against_direct(matrix, alpha, teleports[teleport])
        assert report.iterations <= 40
        assert gap <= 1e-12
