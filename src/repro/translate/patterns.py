"""The rule pattern language (paper §3.3.1, Fig. 3).

A rule template is a sequence of patterns::

    Template   := Pattern1 ... Patternj
    MustPat    := (w11 ... w1k | ... | wi1 ... wij)    exactly one option
    OptPat     := (wm | ... | wn)*                     zero or more, optional
                  (wm | ... | wn)*!                    ... plus one slack word
    LiteralPat := %Li                                  number/currency/cellref
    ValuePat   := %Vi                                  sheet value
    ColumnPat  := %Ci                                  column header
    ColorPat   := %Ki                                  color word (our extension
                                                       for formatting rules)
    SpanPat    := %i                                   any non-empty word span

Concrete syntax examples::

    parse_template("sum (all|the)* %C1 %2")
    parse_template("(how many|count) (the)*! %1")

Each pattern knows which token spans it can match at a given position; the
alignment algorithm composes these into full-fragment alignments.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Protocol

from ..errors import RuleParseError
from .context import MAX_SPAN_WORDS, SheetContext
from .tokenizer import Token


class Pattern(Protocol):
    """A template element; ``ends`` yields the exclusive end positions of
    token spans starting at ``start`` that this pattern can match."""

    ident: int | None

    def ends(
        self, tokens: list[Token], start: int, limit: int, ctx: SheetContext
    ) -> Iterator[int]: ...

    def render(self) -> str: ...


@dataclass(frozen=True)
class MustPat:
    """Exactly one of the multi-word options must appear."""

    options: tuple[tuple[str, ...], ...]
    ident: int | None = None

    def ends(self, tokens, start, limit, ctx):
        seen = set()
        for option in self.options:
            end = start + len(option)
            if end > limit or end in seen:
                continue
            if all(
                tokens[start + k].text == option[k] for k in range(len(option))
            ):
                seen.add(end)
                yield end

    def render(self) -> str:
        return "(" + "|".join(" ".join(o) for o in self.options) + ")"


@dataclass(frozen=True)
class OptPat:
    """Zero or more words from the option set; the slack variant tolerates
    one arbitrary extra word (sheet-specific words the rule set should not
    hard-code)."""

    words: frozenset[str]
    slack: bool = False
    ident: int | None = None

    _MAX = MAX_SPAN_WORDS + 1

    def ends(self, tokens, start, limit, ctx):
        yield start  # empty match
        slack_left = 1 if self.slack else 0
        end = start
        while end < min(limit, start + self._MAX):
            if tokens[end].text in self.words:
                end += 1
            elif slack_left:
                slack_left -= 1
                end += 1
            else:
                break
            yield end

    def render(self) -> str:
        inner = "|".join(sorted(self.words))
        return f"({inner})*" + ("!" if self.slack else "")


@dataclass(frozen=True)
class LiteralPat:
    """A single numeric/currency literal or cell reference."""

    ident: int

    def ends(self, tokens, start, limit, ctx):
        if start < limit and (
            tokens[start].literal is not None or tokens[start].is_cellref
        ):
            yield start + 1

    def render(self) -> str:
        return f"%L{self.ident}"


@dataclass(frozen=True)
class ValuePat:
    """A span naming a sheet value ("chef", "capitol hill")."""

    ident: int

    def ends(self, tokens, start, limit, ctx):
        for end in range(start + 1, min(limit, start + MAX_SPAN_WORDS) + 1):
            words = tuple(t.text for t in tokens[start:end])
            if ctx.match_value(words):
                yield end

    def render(self) -> str:
        return f"%V{self.ident}"


@dataclass(frozen=True)
class ColumnPat:
    """A span naming a column header, a value (ResolveCol fallback), or the
    two-word letter form "column H"."""

    ident: int

    def ends(self, tokens, start, limit, ctx):
        for end in range(start + 1, min(limit, start + MAX_SPAN_WORDS) + 1):
            words = tuple(t.text for t in tokens[start:end])
            if len(words) == 2 and words[0] == "column":
                if ctx.column_by_letter(words[1]) is not None:
                    yield end
                    continue
            if ctx.match_column(words):
                yield end

    def render(self) -> str:
        return f"%C{self.ident}"


@dataclass(frozen=True)
class ColorPat:
    """A single color word ("red")."""

    ident: int

    def ends(self, tokens, start, limit, ctx):
        if start < limit and ctx.match_color(tokens[start].text) is not None:
            yield start + 1

    def render(self) -> str:
        return f"%K{self.ident}"


@dataclass(frozen=True)
class SpanPat:
    """A non-deterministic span of one or more words; its semantics come
    from the translations of the sub-fragment (TMap), which is what lets the
    rule and synthesis algorithms interleave."""

    ident: int

    def ends(self, tokens, start, limit, ctx):
        for end in range(start + 1, limit + 1):
            yield end

    def render(self) -> str:
        return f"%{self.ident}"


Template = tuple  # tuple[Pattern, ...]; kept as a plain tuple for hashability


_HOLE_RE = re.compile(r"^%([LVCK]?)(\d+)$")
_GROUP_RE = re.compile(r"^\(([^()]*)\)(\*!?)?$")

# Cross-request template intern table (keyed like ``repro.dsl.ast.intern``):
# the same concrete template text always yields the *same* tuple object, so
# every rule set built from it — per-translator, per-worker, learned packs
# re-using builtin templates — shares patterns and hits the compiled-
# alignment table (:mod:`repro.translate.alignment`) by structure.  Capped
# and cleared wholesale so adversarial rule churn cannot leak; clearing only
# costs future sharing, never correctness.
_TEMPLATE_TABLE: dict[str, tuple["Pattern", ...]] = {}
_TEMPLATE_CAP = 4096


def template_table_size() -> int:
    return len(_TEMPLATE_TABLE)


def parse_template(text: str) -> tuple[Pattern, ...]:
    """Parse the concrete template syntax shown in the module docstring.

    Interned per template text (see ``_TEMPLATE_TABLE``).
    """
    cached = _TEMPLATE_TABLE.get(text)
    if cached is None:
        if len(_TEMPLATE_TABLE) >= _TEMPLATE_CAP:
            _TEMPLATE_TABLE.clear()
        cached = _parse_template(text)
        _TEMPLATE_TABLE[text] = cached
    return cached


def _parse_template(text: str) -> tuple[Pattern, ...]:
    patterns: list[Pattern] = []
    for piece in _split_template(text):
        hole = _HOLE_RE.match(piece)
        if hole:
            kind, ident = hole.group(1), int(hole.group(2))
            cls = {
                "L": LiteralPat,
                "V": ValuePat,
                "C": ColumnPat,
                "K": ColorPat,
                "": SpanPat,
            }[kind]
            patterns.append(cls(ident))
            continue
        group = _GROUP_RE.match(piece)
        if group:
            options = tuple(
                tuple(option.split())
                for option in group.group(1).split("|")
                if option.strip()
            )
            if not options:
                raise RuleParseError(f"empty group in template: {text!r}")
            if group.group(2):
                words = frozenset(w for option in options for w in option)
                patterns.append(
                    OptPat(words, slack=group.group(2) == "*!")
                )
            else:
                patterns.append(MustPat(options))
            continue
        if piece.startswith("(") or piece.startswith("%"):
            raise RuleParseError(f"bad template piece {piece!r} in {text!r}")
        patterns.append(MustPat(((piece,),)))
    if not patterns:
        raise RuleParseError(f"empty template: {text!r}")
    return tuple(patterns)


def _split_template(text: str) -> list[str]:
    """Split template text on spaces, keeping parenthesised groups whole."""
    pieces: list[str] = []
    depth = 0
    current: list[str] = []
    for ch in text.strip():
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise RuleParseError(f"unbalanced parens in {text!r}")
        if ch == " " and depth == 0:
            if current:
                pieces.append("".join(current))
                current = []
        else:
            current.append(ch)
    if depth != 0:
        raise RuleParseError(f"unbalanced parens in {text!r}")
    if current:
        pieces.append("".join(current))
    return pieces
