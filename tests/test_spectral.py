import numpy as np
import pytest

import journalrank as jr
from journalrank import spectral
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
        ],
    )
    def test_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


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
        assert err.value.report.irreducible is False
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

    def test_unnormalized_shares_rejected(self):
        with pytest.raises(ValueError):
            stationary(np.array([[1.0, 1.0], [0.5, 0.5]]), 0.5, np.array([0.5, 0.5]))

    @pytest.mark.parametrize("method", ("direct", "power"))
    @pytest.mark.parametrize("alpha", (0.5, 1.0))
    @pytest.mark.parametrize("bad", (np.nan, np.inf))
    def test_non_finite_shares_rejected(self, method, alpha, bad):
        shares = np.array([[bad, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError, match="finite"):
            stationary(shares, alpha, np.array([0.5, 0.5]), SolverConfig(method=method))

    @pytest.mark.parametrize("method", ("direct", "power"))
    @pytest.mark.parametrize("teleport", ([np.nan, 0.5], [np.nan, np.nan], [np.inf, -np.inf]))
    def test_non_finite_teleport_rejected(self, method, teleport):
        shares = np.array([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError, match="finite"):
            stationary(shares, 0.5, np.array(teleport), SolverConfig(method=method))


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
            assert np.count_nonzero(shares) < spectral.SPARSE_DENSITY * n * n, name
            teleport = np.random.default_rng(n).dirichlet(np.ones(n))
            coo, coo_report = stationary(shares, alpha, teleport, power)
            direct, _ = stationary(shares, alpha, teleport, SolverConfig(method="direct"))
            with monkeypatch.context() as patch:
                patch.setattr(spectral, "SPARSE_DENSITY", 0.0)
                dense, dense_report = stationary(shares, alpha, teleport, power)
            assert coo_report.method_used == "power" and coo_report.residual <= 1e-12, name
            assert abs(coo_report.iterations - dense_report.iterations) <= 1, name
            assert np.abs(coo - dense).max() < 1e-13, name
            assert np.abs(coo - direct).max() < 1e-10, name


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
