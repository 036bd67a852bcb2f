"""Shared test settings: property tests draw the same examples on every run
and a bounded number of them."""

from hypothesis import settings

settings.register_profile("freemult", derandomize=True, deadline=None,
                          max_examples=20)
settings.load_profile("freemult")
