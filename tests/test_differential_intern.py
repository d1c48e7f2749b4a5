"""The hot path against the answers of the legacy paths.

Interned ASTs, the memoised type checker and the per-sentence seed
indices could once be switched off, and this file compared the two modes
byte for byte.  The legacy paths are gone, but their answers are not:
the golden digests in ``tests/golden/`` were recorded while both modes
still agreed, so the hot path is checked against them from the two
places where its state outlives one request:

* a fresh :class:`TranslationService` per description over the whole
  Table 2 test split, so no translator, checker memo or seed index that
  an earlier description filled is there for the next one (the digests
  were pinned from one long-lived service per sheet);
* a one-worker gateway, whose single forked process serves every sheet
  in turn and carries its intern table and memos across all of them.
"""

from __future__ import annotations

import pytest

from repro.dataset import build_sheet
from repro.runtime import TranslationService

from .golden import oracle

pytestmark = pytest.mark.slow

_GATEWAY_SAMPLE = 120


@pytest.fixture(scope="module")
def golden_table2():
    return oracle.table2_pairs()


def test_service_hotpath_equals_legacy(golden_table2):
    """The full split, one fresh service per description: byte-identical
    rankings, Excel emission included, description by description."""
    workbooks = {}
    produced = []
    for d, _ in golden_table2:
        workbook = workbooks.get(d.sheet_id)
        if workbook is None:
            workbook = workbooks[d.sheet_id] = build_sheet(d.sheet_id)
        result = TranslationService(workbook).translate(d.text)
        produced.append(oracle.service_record(result, workbook))
    oracle.assert_unmoved([r for _, r in golden_table2], produced)


def test_gateway_hotpath_equals_legacy(golden_table2):
    """An even sample through a one-worker gateway: the wire-level
    replies carry the pinned digests."""
    sample = oracle.even_sample(golden_table2, _GATEWAY_SAMPLE)
    produced = oracle.run_gateway([d for d, _ in sample], workers=1)
    oracle.assert_unmoved([r for _, r in sample], produced)
