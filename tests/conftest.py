import numpy as np
import pytest

import journalrank as jr


def make_block(seed, m=4, within=25.0, cross=3.0, eta=1.0, articles=100, within2=None):
    spec = jr.BlockModelSpec(
        journals_per_field=m,
        within_mean=within,
        cross_mean=cross,
        articles_t1=articles,
        eta=eta,
        seed=seed,
        within_mean_2=within2,
    )
    return jr.block_model(spec)


def counted_solves(monkeypatch):
    """Wrap ``spectral.stationary`` and return the list that each call
    appends its (alpha, config) to."""
    calls = []
    solve = jr.spectral.stationary

    def counted(matrix, alpha, teleport, config=None):
        calls.append((alpha, config))
        return solve(matrix, alpha, teleport, config)

    monkeypatch.setattr(jr.spectral, "stationary", counted)
    return calls


@pytest.fixture(scope="session")
def two_field():
    return jr.two_field_example()


@pytest.fixture(scope="session")
def near_decomposable():
    return jr.near_decomposable_example()


@pytest.fixture(scope="session")
def zoo(two_field, near_decomposable):
    """Named irreducible instances (all n <= 64, within spectral.DIRECT_LIMIT
    so `auto` solves them directly; all rows citing)."""
    js8, cm8 = two_field
    js2, cm2, _ = near_decomposable
    items = [
        ("two_field", js8, cm8),
        ("two_field_drop8", *jr.drop_journal(js8, cm8, 7)),
        ("near_decomposable", js2, cm2),
        (
            "pure_cycle",
            jr.JournalSet((jr.Journal("A", None, 10, 10), jr.Journal("B", None, 10, 10))),
            jr.CitationMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])),
        ),
        (
            "doubly_balanced",
            jr.JournalSet((jr.Journal("A", None, 5, 5), jr.Journal("B", None, 5, 5))),
            jr.CitationMatrix(np.array([[2.0, 1.0], [1.0, 2.0]])),
        ),
    ]
    for k, m in enumerate((3, 5, 8, 16, 24, 32)):
        js, cm, _ = make_block(seed=100 + k, m=m)
        items.append((f"block_m{m}", js, cm))
    return items


@pytest.fixture(scope="session")
def family100():
    """100 seeded balanced two-field instances with a constant later/earlier
    article ratio (1, 2 or 3 depending on the seed)."""
    instances = []
    for seed in range(100):
        eta = (1.0, 2.0, 3.0)[seed % 3]
        instances.append(make_block(seed, m=4, eta=eta))
    return instances
