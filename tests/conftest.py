"""Bounded hypothesis settings, so the property tests keep tier-1 fast
and reproducible: a fixed example budget, no per-example deadline, a
derandomized search and no example database left behind."""

from hypothesis import settings

settings.register_profile("tier1", max_examples=60, deadline=None,
                          derandomize=True, database=None)
settings.load_profile("tier1")
