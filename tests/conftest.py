"""Hypothesis profiles: ``--hypothesis-profile=reader-fuzz`` runs the reader
fuzz of ``tests/test_readers.py``, ``--hypothesis-profile=cli-fuzz`` the CLI
flag fuzz of ``tests/test_cli_fuzz.py``,
``--hypothesis-profile=validation-fuzz`` the bulk-against-per-item
validation fuzz of ``tests/test_validation_fuzz.py`` and the grid side
memo test of ``tests/test_extraction.py``,
``--hypothesis-profile=scanner-fuzz`` the scanner-fed reduction test, the
stopped-against-full scan test, the public row choice's agreement test,
the strict-blockers-from-first-scans test and the reduction schedule's
(``_reductions``) reference test of ``tests/test_separations.py`` and
the boundary-bound test of ``tests/test_extraction.py``, and
``--hypothesis-profile=json-fuzz`` the canonical JSON and trace writer
tests of ``tests/test_formats.py`` against ``json.dumps``, and
``--hypothesis-profile=graph-fuzz`` the working graph's adjacency against
its two-stage reference in ``tests/test_graph.py``, at a higher example
count (as CI does).  ``--hypothesis-profile=mutants`` keeps no example
database, for ``tests/mutants.py``.

The json-fuzz and mutants profiles skip the shrink and explain phases:
their runs are read only as pass or fail, and shrinking one failing
record map of the JSON tests can take minutes of CPU."""
from hypothesis import Phase, settings

_NO_SHRINK = [Phase.explicit, Phase.reuse, Phase.generate, Phase.target]

settings.register_profile("reader-fuzz", max_examples=2000)
settings.register_profile("cli-fuzz", max_examples=1000)
settings.register_profile("validation-fuzz", max_examples=2000)
settings.register_profile("scanner-fuzz", max_examples=2000)
settings.register_profile("json-fuzz", max_examples=5000, phases=_NO_SHRINK)
settings.register_profile("graph-fuzz", max_examples=5000)
settings.register_profile("mutants", database=None, phases=_NO_SHRINK)
