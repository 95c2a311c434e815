import pytest

from quivermotive import engine


@pytest.fixture
def fresh_engine_caches():
    # series numerators are cached per (quiver, w, bound); a test that
    # corrupts the engine must neither reuse nor leave behind cached values
    engine._nilpotent_numerators.cache_clear()
    engine._unframed_inverse.cache_clear()
    yield
    engine._nilpotent_numerators.cache_clear()
    engine._unframed_inverse.cache_clear()
