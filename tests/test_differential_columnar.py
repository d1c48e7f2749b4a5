"""The columnar backend against the answers of the row-backed lookups.

The sheet-value lexicon, seed matching and the type checker's content
probe once had a row-backed mode beside the columnar index, and this
file compared the two byte for byte.  The row-backed lookups are gone,
but their answers are not: the golden digests in ``tests/golden/`` were
recorded while both still agreed.  The columnar index is a view of the
rows memoised against the sheet revision, so it is checked here where
that view is built afresh from the rows:

* the whole Table 2 test split through one long-lived service per sheet,
  with a blank-and-restore round trip on all of the sheet's table cells
  before every description, so the index the service reads must be
  rebuilt from the restored rows, not the blank view memoised in between;
* a two-worker gateway, whose workers unpickle workbooks that carry no
  index and build their own from the rows.
"""

from __future__ import annotations

import pytest

from repro.dataset import build_sheet
from repro.runtime import TranslationService
from repro.sheet import CellValue

from .golden import oracle

pytestmark = pytest.mark.slow

_GATEWAY_SAMPLE = 120


@pytest.fixture(scope="module")
def golden_table2():
    return oracle.table2_pairs()


def _round_trip(workbook) -> None:
    """Blank every table cell, index the blank sheet, and write the old
    values back: the content is unchanged, the memoised index is stale."""
    cells = [
        table.cell(row, col)
        for table in workbook.tables
        for row in range(table.n_rows)
        for col in range(table.n_cols)
    ]
    originals = [cell.value for cell in cells]
    for cell in cells:
        cell.value = CellValue.empty()
    workbook.columnar_index()
    for cell, value in zip(cells, originals):
        cell.value = value


def test_service_columnar_equals_rows(golden_table2):
    """The full split with the index rebuilt from the rows before every
    description: byte-identical rankings, Excel emission included."""
    services = {}
    produced = []
    for d, _ in golden_table2:
        service = services.get(d.sheet_id)
        if service is None:
            service = services[d.sheet_id] = TranslationService(
                build_sheet(d.sheet_id)
            )
        _round_trip(service.workbook)
        result = service.translate(d.text)
        produced.append(oracle.service_record(result, service.workbook))
    oracle.assert_unmoved([r for _, r in golden_table2], produced)


def test_gateway_columnar_equals_rows(golden_table2):
    """An even sample through a two-worker gateway: the wire-level
    replies carry the pinned digests."""
    sample = oracle.even_sample(golden_table2, _GATEWAY_SAMPLE)
    produced = oracle.run_gateway([d for d, _ in sample], workers=2)
    oracle.assert_unmoved([r for _, r in sample], produced)
