"""Hypothesis runs derandomized: every run draws the same examples, none are stored."""

from hypothesis import settings

settings.register_profile(
    "glevy", derandomize=True, database=None, deadline=None, max_examples=25
)
settings.load_profile("glevy")
