"""The columnar backend must be indistinguishable from the row walk.

Property tests (hypothesis) build arbitrary workbooks — unicode values,
whitespace, empties, plural-trap strings, values deliberately duplicated
across columns and tables — and assert that every columnar lookup equals
a reference this module computes directly from the rows
(``Table.distinct_text_values``):

* the merged value lexicon (``Workbook.all_text_values``), including the
  slot-list *order* per value (it feeds seed and ranking order),
* ``SheetContext.match_value`` / ``match_column`` over arbitrary spans,
* the type checker's value-in-column content probe,
* the derived vocabulary artefacts (value words, max span width).

Deterministic unit tests cover the revision-memo behaviour.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset import build_sheet
from repro.sheet import (
    CellValue,
    Column,
    Table,
    ValueType,
    Workbook,
)
from repro.translate.context import (
    MAX_SPAN_WORDS,
    ColumnMatch,
    SheetContext,
    ValueMatch,
)

# A pool with deliberate traps: empties-after-strip, plurals, multi-word
# values, case/space variants that normalise together, unicode.
_TRICKY = [
    "", " ", "  chef  ", "chef", "chefs", "capitol hill",
    "CAPITOL HILL", "a b c d e", "s", "ß", "Ünïcode véry", "0", "column",
]
_VALUES = st.one_of(st.sampled_from(_TRICKY), st.text(max_size=8))


@st.composite
def workbooks(draw):
    shared = draw(st.lists(_VALUES, min_size=1, max_size=5))
    wb = Workbook()
    for t in range(draw(st.integers(1, 3))):
        n_cols = draw(st.integers(1, 4))
        n_rows = draw(st.integers(0, 8))
        dtypes = [
            draw(st.sampled_from(
                [ValueType.TEXT, ValueType.TEXT, ValueType.NUMBER]
            ))
            for _ in range(n_cols)
        ]
        columns = [
            Column(f"col{t}{j}", dtypes[j]) for j in range(n_cols)
        ]
        rows = []
        for _ in range(n_rows):
            row = []
            for j in range(n_cols):
                if dtypes[j] is ValueType.TEXT:
                    choice = draw(st.one_of(
                        st.none(), st.sampled_from(shared), _VALUES
                    ))
                    row.append(
                        CellValue.empty() if choice is None
                        else CellValue.text(choice)
                    )
                else:
                    row.append(CellValue.number(draw(st.integers(0, 5))))
            rows.append(row)
        wb.add_table(Table(f"T{t}", columns, rows))
    return wb


def _reference_lexicon(workbook) -> dict[str, list[tuple[str, str]]]:
    """value -> [(table, column)] by walking every table's rows, tables in
    workbook order and columns in first-occurrence order."""
    merged: dict[str, list[tuple[str, str]]] = {}
    for table in workbook.tables:
        for value, columns in table.distinct_text_values().items():
            slots = merged.setdefault(value, [])
            for column in columns:
                if (table.name, column) not in slots:
                    slots.append((table.name, column))
    return merged


def _reference_match_value(lexicon, words) -> list[ValueMatch]:
    widest = max((len(v.split()) for v in lexicon), default=1)
    if not words or len(words) > widest + 1:
        return []
    joined = " ".join(words)
    for candidate in (joined, joined[:-1] if joined.endswith("s") else None):
        if candidate is not None and lexicon.get(candidate):
            return [ValueMatch(candidate, t, c) for t, c in lexicon[candidate]]
    return []


def _reference_match_column(ctx, lexicon, words) -> list[ColumnMatch]:
    """Direct header matches come from the context itself (they never
    touch cell values); the ResolveCol value fallback is recomputed."""
    if not words or len(words) > MAX_SPAN_WORDS:
        return []
    direct = ctx._direct_column(words)
    if direct:
        return direct
    return [
        ColumnMatch(m.table, m.column, via_value=True)
        for m in _reference_match_value(lexicon, words)
    ]


def _spans(lexicon) -> list[tuple[str, ...]]:
    """Probe spans: every value in the lexicon, its plural, its words, and
    some junk — enough to hit every match branch."""
    spans: list[tuple[str, ...]] = [("nosuchvalue",), ("chef", "hill")]
    for value in list(lexicon)[:40]:
        words = tuple(value.split())
        if words:
            spans.append(words)
            spans.append(words[:-1] + (words[-1] + "s",))
            spans.append((words[0],))
    return spans


@settings(max_examples=60, deadline=None)
@given(workbooks())
def test_lexicon_identical(wb):
    """all_text_values: same keys, same slots, same slot order."""
    columnar = wb.all_text_values()
    assert {k: list(v) for k, v in columnar.items()} == _reference_lexicon(wb)


@settings(max_examples=60, deadline=None)
@given(workbooks())
def test_context_matches_identical(wb):
    """match_value/match_column agree span-for-span, order included."""
    lexicon = _reference_lexicon(wb)
    ctx = SheetContext(wb)
    assert ctx._max_value_words == max(
        (len(v.split()) for v in lexicon), default=1
    )
    assert set(ctx._value_words) == {w for v in lexicon for w in v.split()}
    for span in _spans(lexicon):
        assert ctx.match_value(span) == _reference_match_value(
            lexicon, span
        ), span
        assert ctx.match_column(span) == _reference_match_column(
            ctx, lexicon, span
        ), span


@settings(max_examples=60, deadline=None)
@given(workbooks(), _VALUES)
def test_occurs_probe_identical(wb, raw):
    """The content-check probe: columnar occurs_in vs the row walk, for
    every (table, column) and both in-lexicon and arbitrary needles."""
    index = wb.columnar_index()
    needles = {raw.strip().lower()}
    needles.update(list(index.all_text_values())[:20])
    for table in wb.tables:
        key = table.name.strip().lower()
        occurs = table.distinct_text_values()
        for column in table.column_names:
            for needle in needles:
                assert index.occurs_in(key, needle, column) == (
                    column in occurs.get(needle, ())
                ), (key, column, needle)


def test_index_memoised_per_revision():
    wb = build_sheet("payroll")
    first = wb.columnar_index()
    assert wb.columnar_index() is first  # same revision -> same object
    wb.table("Employees").cell(0, 0).value = CellValue.text("zoe")
    second = wb.columnar_index()
    assert second is not first
    assert second.slots("zoe") == (("Employees", "name"),)
    assert second.slots("alice") == ()


def test_lexicon_memo_tracks_mutations():
    wb = build_sheet("payroll")
    assert "alice" in wb.all_text_values()
    assert wb.all_text_values()["chef"] == [
        ("Employees", "title"), ("PayRates", "title")
    ]
    wb.table("Employees").cell(0, 0).value = CellValue.text("zoe")
    fresh = wb.all_text_values()
    assert "zoe" in fresh and "alice" not in fresh


def test_occurs_in_unknown_table_and_column():
    wb = build_sheet("payroll")
    index = wb.columnar_index()
    assert not index.occurs_in("nope", "chef", "title")
    assert not index.occurs_in("employees", "chef", "nope")
    assert not index.occurs_in("employees", "nope", "title")
    assert index.occurs_in("employees", "chef", "title")
