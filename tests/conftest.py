"""Hypothesis profiles for the test suite.

``ci`` lifts the per-example deadline, which a slow or shared runner can
exceed on the exact-arithmetic tests; example counts are unchanged.  Select
it with ``python -m pytest --hypothesis-profile=ci``.

``fresh_reading`` empties the caches of the exceptional half's one proof
(``lie._g2_reading``) and of the Lie operators built once per process (the
exceptional action ``lie._g2_action``, the special linear fields
``lie._sl_field`` and ``lie._sl_cartan_field`` and the orthogonal
operators ``lie._so_operators``) before and after a test, so that the test
sees each built and leaves nothing of its own behind.
"""

import pytest
from hypothesis import settings

from flagpde import lie

settings.register_profile("ci", deadline=None)

_CACHES = (lie._g2_reading, lie._g2_action, lie._sl_field, lie._sl_cartan_field, lie._so_operators)


@pytest.fixture
def fresh_reading():
    for cache in _CACHES:
        cache.cache_clear()
    yield
    for cache in _CACHES:
        cache.cache_clear()
