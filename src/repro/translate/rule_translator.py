"""Rule-based translation of one fragment (paper Algo 3).

For every rule whose template aligns with the fragment, fill the bound
holes of the rule's partial expression:

* ``L`` holes from the literal token in the aligned range (``MakeLiteral``),
* ``V`` holes from sheet values matching the range (``MakeValue``),
* ``C`` holes via ``ResolveCol`` — a direct column-header match, the
  "column H" letter form, or the columns *containing* a matched value,
* ``G`` holes from the TMap translations of the aligned sub-span,

then substitute (with the ``Valid`` check) to produce derivations.  Holes
not bound by any template pattern stay open for the synthesis algorithm.
"""

from __future__ import annotations

import itertools

from ..dsl import ast
from ..dsl.holes import holes_of, substitute
from ..dsl.types import TypeChecker
from ..runtime.budget import Budget
from ..runtime.faults import fault_point
from ..sheet import CellValue
from .alignment import CompiledTemplate, compile_template
from .context import SheetContext
from .derivation import RULE, Derivation
from .patterns import MustPat, OptPat
from .rules import Rule, RuleSet
from .seeds import _column_ref, literal_seeds
from .tokenizer import Token

_MAX_OPTIONS_PER_HOLE = 16
_MAX_COMBINATIONS = 24
_MAX_ATTEMPTS = 512

SpanMap = dict  # dict[tuple[int, int], list[Derivation]] with absolute spans


class RuleTranslator:
    """Applies a rule set to sentence fragments."""

    def __init__(
        self,
        rules: RuleSet,
        ctx: SheetContext,
        checker: TypeChecker,
        max_alignments: int = 16,
    ) -> None:
        self.rules = rules
        self.ctx = ctx
        self.checker = checker
        self.max_alignments = max_alignments
        # Compiled alignment automata, one per rule, fetched from the
        # cross-request intern table (:func:`compile_template`) so repeated
        # translator constructions — and forked workers — share them.
        # Keyed by rule identity (``self.rules`` keeps them alive); probes
        # in the DP inner loop are int-keyed dict hits, not tuple hashes.
        self._compiled: dict[int, CompiledTemplate] = {
            id(rule): compile_template(rule.template) for rule in rules
        }

    # -- entry point ----------------------------------------------------------

    def sentence_rules(self, tokens: list[Token]) -> list[Rule]:
        """The rules that can possibly align with *some* fragment of the
        sentence.

        Every fragment's word set is a subset of the sentence's, so a rule
        ``quick_reject``-ed against the whole sentence is rejected at every
        span — computing the live set once per sentence removes the
        per-(rule, span) template scans from the O(n²) DP inner loop.
        """
        words = frozenset(t.text for t in tokens)
        return [
            r for r in self.rules if not self._template(r).quick_reject(words)
        ]

    def _template(self, rule: Rule) -> CompiledTemplate:
        """The rule's compiled template; rules added to the set after
        construction go through the shared intern table."""
        compiled = self._compiled.get(id(rule))
        if compiled is None:
            compiled = compile_template(rule.template)
        return compiled

    def translate_span(
        self,
        tokens: list[Token],
        start: int,
        end: int,
        tmap: SpanMap,
        budget: Budget | None = None,
        rules: list[Rule] | None = None,
    ) -> list[Derivation]:
        """All rule-derived derivations for ``tokens[start:end]``.

        ``rules`` (optional) restricts the scan to a precomputed live set
        (see :meth:`sentence_rules`); the default scans the full rule set.
        A tripped ``budget`` stops the rule loop between rules; the
        derivations produced so far are returned so the anytime path can
        still rank them.
        """
        fault_point("rules")
        fragment = tokens[start:end]
        fragment_words = frozenset(t.text for t in fragment)
        out: list[Derivation] = []
        for rule in self.rules if rules is None else rules:
            if budget is not None and budget.exceeded("rules"):
                break
            compiled = self._template(rule)
            if compiled.quick_reject(fragment_words):
                continue
            alignments = compiled.align(
                fragment, self.ctx, cap=self.max_alignments
            )
            for alignment in alignments:
                produced = self._apply(rule, alignment, fragment, start, tmap)
                if budget is not None:
                    budget.charge(len(produced))
                out.extend(produced)
        return out

    # -- rule application ---------------------------------------------------------

    def _apply(
        self,
        rule: Rule,
        alignment: tuple,
        fragment: list[Token],
        offset: int,
        tmap: SpanMap,
    ) -> list[Derivation]:
        range_by_ident = {
            pattern.ident: alignment[k]
            for k, pattern in enumerate(rule.template)
            if pattern.ident is not None
        }
        pattern_used = self._pattern_used(rule, alignment, fragment, offset)

        options: list[tuple[int, list[Derivation]]] = []
        seen_idents: set[int] = set()
        for hole in holes_of(rule.expr):
            if hole.ident in seen_idents:
                continue  # shared ident: one binding fills every copy
            seen_idents.add(hole.ident)
            rng = range_by_ident.get(hole.ident)
            if rng is None:
                continue  # unbound: synthesis fills it later
            choices = self._bindings(hole, rng, fragment, offset, tmap)
            if not choices:
                return []
            # One option per distinct expression (TMap holds several
            # derivations of the same expression over different word sets);
            # keep the best-produced, widest-coverage one.
            by_expr: dict[ast.Expr, Derivation] = {}
            for d in choices:
                kept = by_expr.get(d.expr)
                if kept is None or d.prod_score * (1 + len(d.used)) > (
                    kept.prod_score * (1 + len(kept.used))
                ):
                    by_expr[d.expr] = d
            # Coverage-weighted order: a wide-coverage sub-derivation is a
            # far better binding candidate than a high-prod single atom.
            deduped = sorted(
                by_expr.values(),
                key=lambda d: -(d.prod_score * (1 + len(d.used))),
            )
            options.append((hole.ident, deduped[:_MAX_OPTIONS_PER_HOLE]))

        out: list[Derivation] = []
        idents = [ident for ident, _ in options]
        pools = [choices for _, choices in options]
        attempts = 0
        for combo in itertools.product(*pools):
            attempts += 1
            if attempts > _MAX_ATTEMPTS or len(out) >= _MAX_COMBINATIONS:
                break
            bindings = dict(zip(idents, (d.expr for d in combo)))
            expr = substitute(rule.expr, bindings, self.checker)
            if expr is None:
                continue
            used = frozenset(pattern_used)
            used_cols = frozenset()
            for child in combo:
                used |= child.used
                used_cols |= child.used_cols
            out.append(
                Derivation(
                    expr=expr,
                    used=used,
                    used_cols=used_cols,
                    kind=RULE,
                    rule_score=rule.score,
                    rule_children=tuple(combo),
                )
            )
        return out

    def _pattern_used(
        self, rule: Rule, alignment: tuple, fragment: list[Token], offset: int
    ) -> set[int]:
        """Absolute positions consumed by Must/Opt patterns (slack words in
        an OptPat range are *not* used — they are the ignorable words)."""
        used: set[int] = set()
        for pattern, (l, u) in zip(rule.template, alignment):
            if isinstance(pattern, MustPat):
                used.update(range(offset + l, offset + u))
            elif isinstance(pattern, OptPat):
                for k in range(l, u):
                    if fragment[k].text in pattern.words:
                        used.add(offset + k)
        return used

    # -- hole resolution --------------------------------------------------------

    def _bindings(
        self,
        hole: ast.Hole,
        rng: tuple[int, int],
        fragment: list[Token],
        offset: int,
        tmap: SpanMap,
    ) -> list[Derivation]:
        l, u = rng
        if hole.kind is ast.HoleKind.LITERAL:
            return literal_seeds(fragment[l], offset + l)
        if hole.kind is ast.HoleKind.VALUE:
            return self._make_values(fragment, l, u, offset)
        if hole.kind is ast.HoleKind.COLUMN:
            return self._resolve_col(fragment, l, u, offset)
        # GENERAL: previously computed translations of the sub-span.
        return list(tmap.get((offset + l, offset + u), ()))

    def _make_values(
        self, fragment: list[Token], l: int, u: int, offset: int
    ) -> list[Derivation]:
        words = tuple(t.text for t in fragment[l:u])
        positions = frozenset(range(offset + l, offset + u))
        out: list[Derivation] = []
        seen: set[str] = set()
        for match in self.ctx.match_value(words):
            if match.value in seen:
                continue
            seen.add(match.value)
            out.append(
                Derivation(
                    expr=ast.Lit(CellValue.text(match.value)), used=positions
                )
            )
        return out

    def _resolve_col(
        self, fragment: list[Token], l: int, u: int, offset: int
    ) -> list[Derivation]:
        words = tuple(t.text for t in fragment[l:u])
        positions = frozenset(range(offset + l, offset + u))
        out: list[Derivation] = []
        if len(words) == 2 and words[0] == "column":
            match = self.ctx.column_by_letter(words[1])
            if match is not None:
                return [
                    Derivation(
                        expr=_column_ref(self.ctx, match.table, match.column),
                        used=positions,
                        used_cols=positions,
                    )
                ]
        seen: set[tuple[str, str]] = set()
        for match in self.ctx.match_column(words):
            slot = (match.table, match.column)
            if slot in seen:
                continue
            seen.add(slot)
            out.append(
                Derivation(
                    expr=_column_ref(self.ctx, match.table, match.column),
                    used=positions,
                    used_cols=positions,
                    rule_score=0.95 if match.via_value else 1.0,
                )
            )
        return out
