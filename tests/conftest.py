"""Hypothesis profiles for the test suite.

``ci`` lifts the per-example deadline, which a slow or shared runner can
exceed on the exact-arithmetic tests; example counts are unchanged.  Select
it with ``python -m pytest --hypothesis-profile=ci``.

``fresh_reading`` empties the caches of the exceptional half's one proof
(``lie._g2_reading``) and of the exceptional action's one build
(``lie._g2_action``) before and after a test, so that the test sees both
run and leaves no result of its own behind.
"""

import pytest
from hypothesis import settings

from flagpde import lie

settings.register_profile("ci", deadline=None)


@pytest.fixture
def fresh_reading():
    lie._g2_reading.cache_clear()
    lie._g2_action.cache_clear()
    yield
    lie._g2_reading.cache_clear()
    lie._g2_action.cache_clear()
