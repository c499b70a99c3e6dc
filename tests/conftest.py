"""Shared test settings: every hypothesis property runs deterministically."""

from hypothesis import settings

settings.register_profile("stsa", derandomize=True, database=None, deadline=None)
settings.load_profile("stsa")
