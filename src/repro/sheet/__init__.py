"""Spreadsheet substrate: typed values, cells, tables, and the workbook.

This package stands in for Microsoft Excel in the original system.  It models
exactly the state the NLyze algorithms consume: table schemas and values,
per-cell formatting, the active selection, and the cursor.
"""

from .address import CellAddress, column_index_to_letter, column_letter_to_index, is_cell_reference
from .cell import Cell
from .column import Column, infer_column_type
from .columnar import HAVE_NUMPY, ColumnarIndex
from .formatting import CellFormat, Color, FormatFn
from .table import Table
from .values import CellValue, ValueType, parse_literal, parse_word_number
from .workbook import Workbook

__all__ = [
    "Cell",
    "CellAddress",
    "CellFormat",
    "CellValue",
    "Color",
    "Column",
    "ColumnarIndex",
    "FormatFn",
    "HAVE_NUMPY",
    "Table",
    "ValueType",
    "Workbook",
    "column_index_to_letter",
    "column_letter_to_index",
    "infer_column_type",
    "is_cell_reference",
    "parse_literal",
    "parse_word_number",
]
