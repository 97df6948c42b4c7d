"""Hypothesis profiles: ``--hypothesis-profile=reader-fuzz`` runs the reader
fuzz of ``tests/test_readers.py`` at a higher example count (as CI does)."""
from hypothesis import settings

settings.register_profile("reader-fuzz", max_examples=2000)
