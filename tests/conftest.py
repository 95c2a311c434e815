import pytest

from quivermotive import engine


def _clear_engine_caches():
    for value in vars(engine).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


@pytest.fixture
def fresh_engine_caches():
    # the engine caches numerators and cofactors; a test that corrupts the
    # engine must neither reuse nor leave behind cached values
    _clear_engine_caches()
    yield
    _clear_engine_caches()
