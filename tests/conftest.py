import pytest

from quivermotive import engine, fflab


def _fresh_caches(module):
    # the cache_clear callables are taken before the test runs: a test that
    # patches a cached function would otherwise hide the original's cache
    # from a teardown that still runs under the patch
    clears = [value.cache_clear for value in vars(module).values() if hasattr(value, "cache_clear")]
    for clear in clears:
        clear()
    yield
    for clear in clears:
        clear()


@pytest.fixture
def fresh_engine_caches():
    # the engine caches numerators and cofactors; a test that corrupts the
    # engine must neither reuse nor leave behind cached values
    yield from _fresh_caches(engine)


@pytest.fixture
def fresh_fflab_caches():
    # the kappa oracle caches block nullities; a test that corrupts the rank
    # must neither reuse nor leave behind cached values
    yield from _fresh_caches(fflab)
