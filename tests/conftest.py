"""Hypothesis profiles: ``--hypothesis-profile=reader-fuzz`` runs the reader
fuzz of ``tests/test_readers.py``, and ``--hypothesis-profile=cli-fuzz`` the
CLI flag fuzz of ``tests/test_cli_fuzz.py``, at a higher example count (as CI
does)."""
from hypothesis import settings

settings.register_profile("reader-fuzz", max_examples=2000)
settings.register_profile("cli-fuzz", max_examples=1000)
