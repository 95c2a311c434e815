import pytest

from quivermotive import engine, fflab


def _clear_caches(module):
    for value in vars(module).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


@pytest.fixture
def fresh_engine_caches():
    # the engine caches numerators and cofactors; a test that corrupts the
    # engine must neither reuse nor leave behind cached values
    _clear_caches(engine)
    yield
    _clear_caches(engine)


@pytest.fixture
def fresh_fflab_caches():
    # the kappa oracle caches block nullities; a test that corrupts the rank
    # must neither reuse nor leave behind cached values
    _clear_caches(fflab)
    yield
    _clear_caches(fflab)
