"""Shared test settings: hypothesis runs derandomized and without deadlines.

Example generation then repeats from run to run, and a slow moment on a
shared host cannot fail a property test.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
