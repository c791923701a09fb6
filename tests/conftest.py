"""Every test starts with the memoized leaf helpers cold.

A helper answered from its cache runs none of its code, so a test that
counts calls, or injects a fault behind a helper, must not see what an
earlier test left there.
"""

import pytest

from threedom import cli, engine, groups, manifold, witness

MEMOIZED = (
    manifold.euler_number,
    manifold.orbifold_euler_characteristic,
    engine.seifert_cover_parameters,
    groups.free_cover_rank,
    witness.free_product_data,
)


@pytest.fixture
def memoized():
    """The memoized helpers, as the program defines them."""
    return MEMOIZED


@pytest.fixture
def every_cache():
    """Every function of the package that keeps a cache, found by looking."""
    return list(dict.fromkeys(
        fn for module in (cli, engine, groups, manifold, witness)
        for fn in vars(module).values() if hasattr(fn, "cache_clear")))


@pytest.fixture(autouse=True)
def cold_caches():
    for helper in MEMOIZED:
        helper.cache_clear()
