"""The byte-identity corpus (``tests/corpus.py``): a fixed subset of its cases.

CI runs every case with ``python tests/corpus.py``.
"""
import pytest

import corpus
from gridroots import extraction

DIGESTS = corpus.load_digests()


def test_digest_file_lists_every_case():
    assert sorted(DIGESTS) == sorted(corpus.case_ids())
    assert set(corpus.SUBSET) <= set(DIGESTS)


@pytest.mark.parametrize("case", corpus.SUBSET)
def test_corpus_case_is_byte_identical(tmp_path, case):
    assert corpus.run_case(case, tmp_path) == DIGESTS[case]


# every broken case but k = 1 hung behind one vertex, whose cut of order
# k blocks reducibly and is no refutation
REFUTED = [
    case for case in corpus.case_ids()
    if case.endswith("/detach") or (case.endswith("/hang") and "/k1/" not in case)
]


@pytest.mark.parametrize("case", REFUTED)
def test_refutation_recomputed_in_the_host_is_byte_identical(tmp_path, monkeypatch, case):
    """Each refuted case certified by a strict scan of its row in a fresh
    copy of the host, instead of by the blocking scan's own sides,
    delivers the same bytes: the sink-side cut does not depend on the
    maximum flow found."""
    refutation = extraction._Runner._refutation
    given_sides = []

    def recomputed(self, row, depth, sides):
        given_sides.append(sides is not None)
        return refutation(self, row, depth, None)

    monkeypatch.setattr(extraction._Runner, "_refutation", recomputed)
    assert corpus.run_case(case, tmp_path) == DIGESTS[case]
    assert given_sides == [True]
