"""The NLyze DSL abstract syntax (paper §2, Fig. 2).

Every node is an immutable, hashable dataclass, so expression sets in the
translator deduplicate structurally and subtrees can be shared freely.

Grammar recap::

    Program    := MakeActive(Q) | Format(fe, Q) | v | V
    Query Q    := SelectRows(rs, f) | SelectCells(C~, rs, f)
    RowSource  := GetTable(Tbl) | GetActive() | GetFormat(Tbl, fe)
    Filter f   := relop(C, v) | relop(v, C) | relop(C, C)
                | And(f, f) | Or(f, f) | Not(f) | True
    Scalar v   := rop(C, rs, f) | Count(rs, f) | bop(v, v)
                | Lookup(v, rs, C, C) | c
    Vector V   := bop(V, V) | bop(V, v) | bop(v, V) | C
                | Lookup(C, rs, C, C)

Partial expressions extend this grammar with :class:`Hole` placeholders
(paper §3.1); see :mod:`repro.dsl.holes` for substitution machinery.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from typing import ClassVar, Iterator

from ..sheet.formatting import FormatFn
from ..sheet.values import CellValue

# ---------------------------------------------------------------------------
# Hash-consing
# ---------------------------------------------------------------------------
#
# The translator's DP creates the same (sub-)expressions millions of times
# per sentence.  :func:`intern` hash-conses them: structurally equal nodes
# become the *same object*, and every node caches its structural hash and
# ``str()`` on first use, so dedup maps, type-checker probes, and prune
# tiebreakers stop re-walking trees (docs/PERFORMANCE.md).

_INTERN_TABLE: dict["Expr", "Expr"] = {}
# Soft cap on distinct interned nodes.  A long-lived service translating
# against many workbooks must not leak; clearing only costs future identity
# sharing (correctness is structural, never identity-based).
_INTERN_CAP = 1 << 18


def intern_table_size() -> int:
    return len(_INTERN_TABLE)


def intern(expr: "Expr") -> "Expr":
    """The canonical instance structurally equal to ``expr``.

    Children are interned recursively, so every sub-expression of a
    canonical node is canonical too — which is what turns the type
    checker's structural cache probes into O(1) identity-backed hits.
    """
    table = _INTERN_TABLE
    found = table.get(expr)
    if found is not None:
        return found
    children = expr.children()
    if children:
        interned = tuple(intern(c) for c in children)
        if any(a is not b for a, b in zip(children, interned)):
            expr = expr.replace_children(interned)
            found = table.get(expr)
            if found is not None:
                return found
    if len(table) >= _INTERN_CAP:
        table.clear()
    table[expr] = expr
    return expr


class ReduceOp(enum.Enum):
    SUM = "Sum"
    AVG = "Avg"
    MIN = "Min"
    MAX = "Max"


class BinaryOp(enum.Enum):
    ADD = "Add"
    SUB = "Sub"
    MULT = "Mult"
    DIV = "Div"

    @property
    def symbol(self) -> str:
        return {"Add": "+", "Sub": "-", "Mult": "*", "Div": "/"}[self.value]


class RelOp(enum.Enum):
    LT = "Lt"
    GT = "Gt"
    EQ = "Eq"

    @property
    def symbol(self) -> str:
        return {"Lt": "<", "Gt": ">", "Eq": "="}[self.value]


class HoleKind(enum.Enum):
    """Restriction symbol on a hole (paper §3.1)."""

    GENERAL = "G"
    LITERAL = "L"
    COLUMN = "C"
    VALUE = "V"


@dataclass(frozen=True)
class Expr:
    """Base class of every DSL node.

    ``_child_fields`` names the dataclass fields holding sub-expressions
    (either a single ``Expr`` or a tuple of ``Expr``); the generic traversal
    helpers below rely on it, which keeps substitution and printing free of
    per-node boilerplate.
    """

    _child_fields: ClassVar[tuple[str, ...]] = ()

    def children(self) -> tuple["Expr", ...]:
        out: list[Expr] = []
        for name in self._child_fields:
            value = getattr(self, name)
            if isinstance(value, Expr):
                out.append(value)
            else:
                out.extend(value)
        return tuple(out)

    def replace_children(self, new_children: tuple["Expr", ...]) -> "Expr":
        """Rebuild this node with ``new_children`` in traversal order."""
        queue = list(new_children)
        updates = {}
        for name in self._child_fields:
            value = getattr(self, name)
            if isinstance(value, Expr):
                updates[name] = queue.pop(0)
            else:
                updates[name] = tuple(queue.pop(0) for _ in value)
        if queue:
            raise ValueError("wrong number of replacement children")
        kwargs = {
            f.name: updates.get(f.name, getattr(self, f.name))
            for f in fields(self)
        }
        return type(self)(**kwargs)

    def walk(self) -> Iterator["Expr"]:
        """Pre-order traversal including self."""
        yield self
        for child in self.children():
            yield from child.walk()

    @property
    def is_atom(self) -> bool:
        return not self.children()


# ---------------------------------------------------------------------------
# Holes (partial expressions)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Hole(Expr):
    """A symbolic placeholder ``□φi`` with identifier ``ident`` and
    restriction ``kind`` (G = any expression, L = literal, C = column
    header, V = sheet value)."""

    ident: int
    kind: HoleKind = HoleKind.GENERAL

    def __str__(self) -> str:
        return f"□{self.kind.value}{self.ident}"


# ---------------------------------------------------------------------------
# Atoms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Lit(Expr):
    """A literal scalar constant: number, currency, text (sheet value),
    bool, or date."""

    value: CellValue

    def __str__(self) -> str:
        return self.value.display()


@dataclass(frozen=True)
class CellRef(Expr):
    """An A1-style reference to a single cell, e.g. ``I2``."""

    a1: str

    def __str__(self) -> str:
        return self.a1.upper()


@dataclass(frozen=True)
class ColumnRef(Expr):
    """A reference to a named column; ``table`` is None for the table in
    scope (the paper drops the table argument when the context is clear)."""

    name: str
    table: str | None = None

    def __str__(self) -> str:
        if self.table:
            return f"{self.table}.{self.name}"
        return self.name


# ---------------------------------------------------------------------------
# Row sources
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GetTable(Expr):
    """All rows of a table (default table when ``table`` is None)."""

    table: str | None = None

    def __str__(self) -> str:
        return f"GetTable({self.table or ''})"


@dataclass(frozen=True)
class GetActive(Expr):
    """All rows containing actively-selected cells — the anonymous view
    created by a previous ``MakeActive`` step."""

    def __str__(self) -> str:
        return "GetActive()"


@dataclass(frozen=True)
class FormatSpec(Expr):
    """A collection of formatting attribute constraints ``{fmt1..fmtn}``."""

    fns: tuple[FormatFn, ...]

    def __str__(self) -> str:
        inner = ", ".join(fn.describe() for fn in self.fns)
        return "{" + inner + "}"


@dataclass(frozen=True)
class GetFormat(Expr):
    """Rows whose cells match the given formatting attributes — the named
    view created by a previous ``Format`` step."""

    _child_fields: ClassVar[tuple[str, ...]] = ("spec",)

    spec: FormatSpec
    table: str | None = None

    def __str__(self) -> str:
        return f"GetFormat({self.table or ''}, {self.spec})"


# ---------------------------------------------------------------------------
# Filters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrueF(Expr):
    """The trivially-true filter."""

    def __str__(self) -> str:
        return "True"


@dataclass(frozen=True)
class Compare(Expr):
    """``relop(C, v) | relop(v, C) | relop(C, C)`` — at least one operand
    must be a column reference (checked by the type system)."""

    _child_fields: ClassVar[tuple[str, ...]] = ("left", "right")

    op: RelOp
    left: Expr
    right: Expr

    def __str__(self) -> str:
        return f"{self.op.value}({self.left}, {self.right})"


@dataclass(frozen=True)
class And(Expr):
    _child_fields: ClassVar[tuple[str, ...]] = ("left", "right")

    left: Expr
    right: Expr

    def __str__(self) -> str:
        return f"And({self.left}, {self.right})"


@dataclass(frozen=True)
class Or(Expr):
    _child_fields: ClassVar[tuple[str, ...]] = ("left", "right")

    left: Expr
    right: Expr

    def __str__(self) -> str:
        return f"Or({self.left}, {self.right})"


@dataclass(frozen=True)
class Not(Expr):
    _child_fields: ClassVar[tuple[str, ...]] = ("operand",)

    operand: Expr

    def __str__(self) -> str:
        return f"Not({self.operand})"


# ---------------------------------------------------------------------------
# Scalar / vector computations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Reduce(Expr):
    """``rop(C, rs, f)``: filter the rows of ``source`` with ``condition``
    and fold ``column`` with the reduce function."""

    _child_fields: ClassVar[tuple[str, ...]] = ("column", "source", "condition")

    op: ReduceOp
    column: Expr
    source: Expr
    condition: Expr

    def __str__(self) -> str:
        return f"{self.op.value}({self.column}, {self.source}, {self.condition})"


@dataclass(frozen=True)
class Count(Expr):
    """``Count(rs, f)``: the number of rows satisfying the filter."""

    _child_fields: ClassVar[tuple[str, ...]] = ("source", "condition")

    source: Expr
    condition: Expr

    def __str__(self) -> str:
        return f"Count({self.source}, {self.condition})"


@dataclass(frozen=True)
class BinOp(Expr):
    """``bop(v, v)`` and the vector variants ``bop(V, V) | bop(V, v) |
    bop(v, V)`` — the type checker decides scalar vs. map semantics."""

    _child_fields: ClassVar[tuple[str, ...]] = ("left", "right")

    op: BinaryOp
    left: Expr
    right: Expr

    def __str__(self) -> str:
        return f"{self.op.value}({self.left}, {self.right})"


@dataclass(frozen=True)
class Lookup(Expr):
    """``Lookup(v, rs, C1, C2)`` (scalar) or ``Lookup(C, rs, C1, C2)``
    (vector / single-column join): find the row of ``source`` whose value in
    key column ``key`` equals ``needle`` and return its value in ``out``."""

    _child_fields: ClassVar[tuple[str, ...]] = ("needle", "source", "key", "out")

    needle: Expr
    source: Expr
    key: Expr
    out: Expr

    def __str__(self) -> str:
        return f"Lookup({self.needle}, {self.source}, {self.key}, {self.out})"


# ---------------------------------------------------------------------------
# Queries and top-level programs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectRows(Expr):
    """Entire rows of the row source passing the filter."""

    _child_fields: ClassVar[tuple[str, ...]] = ("source", "condition")

    source: Expr
    condition: Expr

    def __str__(self) -> str:
        return f"SelectRows({self.source}, {self.condition})"


@dataclass(frozen=True)
class SelectCells(Expr):
    """Rows passing the filter, projected onto the given columns."""

    _child_fields: ClassVar[tuple[str, ...]] = ("columns", "source", "condition")

    columns: tuple[Expr, ...]
    source: Expr
    condition: Expr

    def __str__(self) -> str:
        cols = ", ".join(str(c) for c in self.columns)
        return f"SelectCells([{cols}], {self.source}, {self.condition})"


@dataclass(frozen=True)
class MakeActive(Expr):
    """Highlight the query result (an anonymous view for later steps)."""

    _child_fields: ClassVar[tuple[str, ...]] = ("query",)

    query: Expr

    def __str__(self) -> str:
        return f"MakeActive({self.query})"


@dataclass(frozen=True)
class FormatCells(Expr):
    """Apply formatting attributes to the query result (a named view) —
    ``Format(fe, Q)`` in the paper grammar."""

    _child_fields: ClassVar[tuple[str, ...]] = ("spec", "query")

    spec: FormatSpec
    query: Expr

    def __str__(self) -> str:
        return f"Format({self.spec}, {self.query})"


# ---------------------------------------------------------------------------
# Node-level caches (structural hash, rendered string)
# ---------------------------------------------------------------------------


def _make_cached_hash(gen_hash):
    def __hash__(self):
        h = self.__dict__.get("_h")
        if h is None:
            h = gen_hash(self)
            object.__setattr__(self, "_h", h)
        return h

    return __hash__


def _make_cached_str(raw_str):
    def __str__(self):
        s = self.__dict__.get("_s")
        if s is None:
            s = raw_str(self)
            object.__setattr__(self, "_s", s)
        return s

    return __str__


def _install_node_caches() -> None:
    """Wrap every concrete node's ``__hash__``/``__str__`` in a once-only
    cache stashed on the (frozen, immutable) instance.

    The cached values are *identical* to the generated/declared ones —
    dataclass structural hash and the node's own rendering — so dict and
    sort behaviour is byte-for-byte unchanged; only the recomputation
    disappears.
    """
    for cls in Expr.__subclasses__():
        cls.__hash__ = _make_cached_hash(cls.__hash__)
        cls.__str__ = _make_cached_str(cls.__str__)


_install_node_caches()
