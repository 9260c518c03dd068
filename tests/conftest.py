"""Hypothesis settings shared by every property in the suite.

The ``nearfeas`` profile, loaded by default, draws the same examples on
every run (``derandomize=True``, with no example database), so a tier-1 run
is reproducible and covers the same paths each time; it also sets
``print_blob``, so a failing draw prints a ``@reproduce_failure`` line that
replays it.  The ``explore`` profile draws fresh, unseeded examples; select
it with ``pytest --hypothesis-profile=explore``.  In both, the number of
examples, the deadlines and the health checks keep Hypothesis' defaults or
each test's own ``settings``.
"""

from hypothesis import settings

settings.register_profile("nearfeas", print_blob=True, derandomize=True, database=None)
settings.register_profile("explore", print_blob=True)
settings.load_profile("nearfeas")
