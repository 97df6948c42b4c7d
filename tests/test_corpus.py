"""The byte-identity corpus (``tests/corpus.py``): a fixed subset of its cases.

CI runs every case with ``python tests/corpus.py``.
"""
import pytest

import corpus

DIGESTS = corpus.load_digests()


def test_digest_file_lists_every_case():
    assert sorted(DIGESTS) == sorted(corpus.case_ids())
    assert set(corpus.SUBSET) <= set(DIGESTS)


@pytest.mark.parametrize("case", corpus.SUBSET)
def test_corpus_case_is_byte_identical(tmp_path, case):
    assert corpus.run_case(case, tmp_path) == DIGESTS[case]
