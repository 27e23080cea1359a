"""Hypothesis profiles for the test suite.

``ci`` lifts the per-example deadline, which a slow or shared runner can
exceed on the exact-arithmetic tests; example counts are unchanged.  Select
it with ``python -m pytest --hypothesis-profile=ci``.
"""

from hypothesis import settings

settings.register_profile("ci", deadline=None)
