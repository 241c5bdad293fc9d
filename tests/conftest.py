"""One hypothesis profile for the whole suite.

Derandomized, every run tries the same examples, so a property test either
always passes or always fails; with no deadline, a loaded host cannot make
an example fail for taking long.
"""

from hypothesis import settings

settings.register_profile("repeatable", derandomize=True, deadline=None)
settings.load_profile("repeatable")
