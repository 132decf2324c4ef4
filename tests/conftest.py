"""Hypothesis runs derandomized: every run draws the same examples, none are stored.

The "glevy" profile is the default; "glevy-thorough" draws 300 examples per
test (``python -m pytest tests/test_properties.py --hypothesis-profile
glevy-thorough``).
"""

from hypothesis import settings

settings.register_profile(
    "glevy", derandomize=True, database=None, deadline=None, max_examples=25
)
settings.register_profile("glevy-thorough", settings.get_profile("glevy"), max_examples=300)
settings.load_profile("glevy")
