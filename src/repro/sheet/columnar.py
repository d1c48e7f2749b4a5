"""Columnar, array-backed view of a workbook's text content.

The translator's seed matching (``SheetContext``) and the type checker's
content check both consume the same question — *which values occur in
which columns* — and answering it from rows
(``Table.distinct_text_values``) walks every cell in Python on every
``Translator`` construction.  On a 100k-row table that walk dominates cold
translation.

This module interns every normalised text value into a string pool once
per workbook revision and stores each TEXT column as a vector of pool ids
(stdlib ``array('q')``; a numpy fast path for the distinct-id scan is
picked up automatically when numpy is importable).  Lookups then become:

* *does this span name a sheet value?* — one pool dict probe,
* *which (table, column) slots hold it?* — a per-id memo over the small
  per-column distinct-id sets,
* *does value v occur in column c?* (the ``Valid`` content check) — one
  pool probe plus one set-membership test,

instead of per-probe scans over ``dict``-of-rows.

The index is pure derived state: building it never mutates the workbook,
and :meth:`repro.sheet.workbook.Workbook.columnar_index` memoises it
against the global sheet revision counter, so forked gateway workers
inherit a warm index (and the module-level template tables) through fork
copy-on-write.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING

from .values import ValueType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .workbook import Workbook

try:  # optional numpy fast path for the distinct-id scan
    import numpy as _np
except Exception:  # pragma: no cover - numpy genuinely absent in CI
    _np = None

HAVE_NUMPY = _np is not None


class ColumnVector:
    """One TEXT column as a vector of string-pool ids (-1 = empty cell)."""

    __slots__ = ("table", "name", "ids", "distinct")

    def __init__(
        self, table: str, name: str, ids: array, distinct: frozenset[int]
    ) -> None:
        self.table = table
        self.name = name
        self.ids = ids
        self.distinct = distinct

    def contains(self, ident: int) -> bool:
        return ident in self.distinct

    def __len__(self) -> int:
        return len(self.ids)


def _distinct_ids(ids: array) -> frozenset[int]:
    """The set of non-empty pool ids in a column vector.

    numpy (when present) runs the scan as one C-level ``unique`` over a
    zero-copy int64 view of the array buffer; the stdlib path folds the
    vector through ``set`` directly.  Both exclude the -1 empty marker.
    """
    if _np is not None and len(ids) > 512:
        distinct = _np.unique(_np.frombuffer(ids, dtype=_np.int64))
        return frozenset(int(i) for i in distinct if i >= 0)
    out = set(ids)
    out.discard(-1)
    return frozenset(out)


class ColumnarIndex:
    """Interned-string-id view of every TEXT column in a workbook.

    Built once per sheet revision (see ``Workbook.columnar_index``); all
    derived artefacts — slot lists, the merged value lexicon, vocabulary
    sets — are computed lazily and memoised on the index, so they are
    shared by every ``SheetContext``/``TypeChecker`` over the same sheet
    state.  ``derived`` is a scratch memo for higher layers to stash
    revision-scoped objects (e.g. the spell corrector) without this module
    needing to know about them.
    """

    def __init__(self, workbook: "Workbook") -> None:
        self._pool: dict[str, int] = {}
        self._strings: list[str] = []
        # (table display name, vectors in column order), in table order —
        # the exact traversal order of Workbook.all_text_values().
        self._tables: list[tuple[str, tuple[ColumnVector, ...]]] = []
        # table key -> column name -> vector, for the content check.
        self._by_table: dict[str, dict[str, ColumnVector]] = {}
        self._slots: dict[int, tuple[tuple[str, str], ...]] = {}
        self._text_values: dict[str, list[tuple[str, str]]] | None = None
        self._value_words: frozenset[str] | None = None
        self._max_value_words: int | None = None
        self.derived: dict = {}
        for table in workbook.tables:
            vectors = tuple(
                self._intern_column(table, j, column.name)
                for j, column in enumerate(table.columns)
                if column.dtype is ValueType.TEXT
            )
            self._tables.append((table.name, vectors))
            self._by_table[table.name.strip().lower()] = {
                v.name: v for v in vectors
            }

    # -- construction ------------------------------------------------------

    def _intern_column(self, table, j: int, name: str) -> ColumnVector:
        """Normalise (strip + lower, exactly as ``distinct_text_values``)
        and intern one column's cells.  The raw-payload memo makes repeated
        values — the common case in large sheets — one dict probe each."""
        pool = self._pool
        strings = self._strings
        memo: dict[str, int] = {}
        ids = array("q")
        append = ids.append
        rows = table._rows
        for i in range(table.n_rows):
            v = rows[i][j].value
            if v.is_empty:
                append(-1)
                continue
            raw = v.payload if type(v.payload) is str else str(v.payload)
            ident = memo.get(raw)
            if ident is None:
                norm = raw.strip().lower()
                ident = pool.get(norm)
                if ident is None:
                    ident = len(strings)
                    pool[norm] = ident
                    strings.append(norm)
                memo[raw] = ident
            append(ident)
        return ColumnVector(table.name, name, ids, _distinct_ids(ids))

    # -- probes ------------------------------------------------------------

    def value_id(self, norm: str) -> int | None:
        """Pool id of a normalised value, or None when it occurs nowhere."""
        return self._pool.get(norm)

    def slots(self, norm: str) -> tuple[tuple[str, str], ...]:
        """Every (table name, column name) slot containing ``norm``, in
        ``Workbook.all_text_values()`` order (tables in insertion order,
        columns in header order within a table)."""
        ident = self._pool.get(norm)
        if ident is None:
            return ()
        cached = self._slots.get(ident)
        if cached is None:
            cached = tuple(
                (table, vector.name)
                for table, vectors in self._tables
                for vector in vectors
                if ident in vector.distinct
            )
            self._slots[ident] = cached
        return cached

    def occurs_in(self, table_key: str, norm: str, column_name: str) -> bool:
        """True when ``norm`` occurs in the named column — the columnar
        face of the type checker's Eq(text column, text literal) content
        check, replacing a full ``distinct_text_values`` table walk with
        one pool probe and one set test."""
        ident = self._pool.get(norm)
        if ident is None:
            return False
        columns = self._by_table.get(table_key)
        if columns is None:
            return False
        vector = columns.get(column_name)
        return vector is not None and ident in vector.distinct

    # -- derived, revision-scoped artefacts --------------------------------

    def all_text_values(self) -> dict[str, list[tuple[str, str]]]:
        """The merged value -> slots lexicon: tables in insertion order,
        columns in header order, matching what a walk over every table's
        ``distinct_text_values()`` would produce.  Callers must treat it as
        read-only: it is shared per revision."""
        if self._text_values is None:
            strings = self._strings
            merged: dict[str, list[tuple[str, str]]] = {}
            for table, vectors in self._tables:
                for vector in vectors:
                    name = vector.name
                    for ident in sorted(vector.distinct):
                        merged.setdefault(strings[ident], []).append(
                            (table, name)
                        )
            self._text_values = merged
        return self._text_values

    @property
    def value_words(self) -> frozenset[str]:
        """Every word occurring inside some sheet value (the translator's
        ``is_value_word`` / content-vocabulary source)."""
        if self._value_words is None:
            words: set[str] = set()
            for value in self._strings:
                words.update(value.split())
            self._value_words = frozenset(words)
        return self._value_words

    @property
    def max_value_words(self) -> int:
        """Longest value measured in words (bounds value-span probing)."""
        if self._max_value_words is None:
            self._max_value_words = max(
                (len(value.split()) for value in self._strings), default=1
            )
        return self._max_value_words

    @property
    def n_values(self) -> int:
        return len(self._strings)

    def n_cells(self) -> int:
        return sum(
            len(vector) for _, vectors in self._tables for vector in vectors
        )
