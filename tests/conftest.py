"""Hypothesis settings shared by every property in the suite.

The loaded profile only sets ``print_blob``, so a failing draw prints a
``@reproduce_failure`` line that replays it; the number of examples, the
deadlines and the health checks keep Hypothesis' defaults or each test's own
``settings``.
"""

from hypothesis import settings

settings.register_profile("nearfeas", print_blob=True)
settings.load_profile("nearfeas")
