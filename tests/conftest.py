"""Hypothesis runs derandomized: every run draws the same examples, none are stored.

The "glevy" profile is the default; "glevy-thorough" draws 300 examples per
test (``python -m pytest tests/ -m hypothesis --hypothesis-profile
glevy-thorough`` runs every hypothesis test under it).
"""

from hypothesis import settings

settings.register_profile(
    "glevy", derandomize=True, database=None, deadline=None, max_examples=25
)
settings.register_profile("glevy-thorough", settings.get_profile("glevy"), max_examples=300)
settings.load_profile("glevy")
