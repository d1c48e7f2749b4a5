"""The main translation algorithm (paper Algo 1).

Bottom-up dynamic programming over contiguous sentence fragments.  For every
span ``[i, j)`` (increasing width):

1. seed keyword-programming atoms and operator partial expressions,
2. apply the pattern rules (``Rule``, Algo 3),
3. union the two maximal sub-spans and close under type-directed
   combination (``Synth``, Algo 2),
4. prune to a beam.

The final span's derivations are filtered to complete well-typed programs
and ranked by ``ProdSc x CoverSc x MixSc`` (§3.4).

The ablation switches in :class:`TranslatorConfig` reproduce the paper's
Table 3 rows: rules-only, synthesis-only, and production-score-only ranking.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..dsl import ast
from ..dsl.evaluator import Evaluator, ProgramResult
from ..dsl.excel import ExcelEmitter
from ..dsl.paraphrase import paraphrase
from ..dsl.types import TypeChecker
from ..errors import BudgetExceededError, TranslationError
from ..obs.trace import NULL_TRACER
from ..runtime.budget import Budget
from ..runtime.faults import fault_point
from ..sheet import Workbook
from .context import SheetContext
from .derivation import Derivation
from .rule_translator import RuleTranslator
from .rules import RuleSet
from .seeds import column_seeds, literal_seeds, operator_seeds, table_seeds, value_seeds
from .synthesis import synthesize
from .tokenizer import Token, tokenize


@dataclass(frozen=True)
class TranslatorConfig:
    """Knobs for the translation pipeline.

    ``use_rules`` / ``use_synthesis`` / ``full_ranking`` select the Table 3
    ablation rows; the remaining fields bound work per span (the paper's C#
    implementation brute-forces more; Python needs a beam, and the defaults
    are generous enough that results are stable — see the ablation bench).
    """

    use_rules: bool = True
    use_synthesis: bool = True
    full_ranking: bool = True
    use_cover_score: bool = True
    use_mix_score: bool = True
    # §7 future-work extension: similarity matching for column names
    # ("overtime hours" -> othours, "per capita gdp" -> gdppercapita).
    fuzzy_columns: bool = False
    beam_size: int = 110
    max_alignments: int = 16
    synth_max_new: int = 96
    max_results: int = 10


@dataclass
class Candidate:
    """One ranked translation result."""

    program: ast.Expr
    score: float
    derivation: Derivation
    tokens: list[Token] = field(repr=False, default_factory=list)

    def excel(self, workbook: Workbook) -> str:
        return ExcelEmitter(workbook).emit(self.program)

    def paraphrase(self) -> str:
        return paraphrase(self.program)

    def execute(self, workbook: Workbook, place: bool = True) -> ProgramResult:
        return Evaluator(workbook).run(self.program, place=place)


class Translator:
    """Translates natural-language descriptions against one workbook."""

    def __init__(
        self,
        workbook: Workbook,
        rules: RuleSet | None = None,
        config: TranslatorConfig | None = None,
    ) -> None:
        if rules is None:
            from ..rules import builtin_rules

            rules = builtin_rules()
        self.workbook = workbook
        self.config = config or TranslatorConfig()
        self.ctx = SheetContext(
            workbook,
            fuzzy_columns=self.config.fuzzy_columns,
            extra_vocabulary=_rule_vocabulary(rules),
        )
        self.checker = TypeChecker(workbook, content_check=True)
        from .lexicon import keyword_vocabulary

        self._keyword_vocab = keyword_vocabulary()
        self.rule_translator = RuleTranslator(
            rules, self.ctx, self.checker,
            max_alignments=self.config.max_alignments,
        )

    # -- public API --------------------------------------------------------------

    def translate(
        self,
        sentence: str,
        budget: Budget | None = None,
        tracer=None,
        progress=None,
    ) -> list[Candidate]:
        """A ranked list of candidate programs for ``sentence``.

        ``budget`` (optional) bounds the work: the DP polls it at span and
        stage checkpoints, and when it trips the translator switches to the
        *anytime* path — ranking every complete program derived so far
        (across all spans, including the partially processed one) instead
        of raising.  Callers detect the switch via ``budget.exhausted``.
        An unlimited budget is behaviour-identical to no budget.

        ``tracer`` (optional, :class:`repro.obs.Tracer`) records per-stage
        spans — tokenize, then seeds/rules/synthesis per sentence span,
        then ranking.  The default is the no-op tracer (docs/OBSERVABILITY.md).

        ``progress`` (optional, ``Callable[[list[Candidate]], None]``) is
        the *anytime-improvement hook*: after each completed DP width row
        it receives the current anytime ranking (the union of every
        complete program derived so far, ranked by the ordinary scorer).
        This is what streams the paper-§4 refining list over the wire
        (docs/HTTP.md) — the final returned ranking is unchanged, and with
        ``progress=None`` (the default) the path costs one ``is None``
        check per row.
        """
        tracer = tracer if tracer is not None else NULL_TRACER
        with tracer.span("translate") as root:
            with tracer.span("translate.tokenize"):
                tokens = self.prepare_tokens(sentence)
                self._validate_tokens(tokens)
                fault_point("tokenize")
            if budget is None:
                budget = Budget()
            n = len(tokens)
            root.set(tokens=n)
            tmap: dict[tuple[int, int], list[Derivation]] = {}
            # Rules that can match some fragment of this sentence — the
            # per-span quick-reject scan then only sees plausible rules.
            active_rules = None
            if self.config.use_rules:
                active_rules = self.rule_translator.sentence_rules(tokens)

            try:
                for width in range(1, n + 1):
                    for i in range(0, n - width + 1):
                        j = i + width
                        budget.checkpoint("span")
                        tmap[(i, j)] = self._translate_span(
                            tokens, i, j, tmap, budget, tracer,
                            active_rules,
                        )
                    if progress is not None and width < n:
                        # Anytime-improvement hook: the ranking over the
                        # partial table.  Skipped for the final row, whose
                        # ranking is the ordinary return value below.
                        progress(self._rank_anytime(tmap, tokens))
            except BudgetExceededError:
                root.set(anytime=True)
                with tracer.span("translate.rank", anytime=True) as rank:
                    candidates = self._rank_anytime(tmap, tokens)
                    rank.set(candidates=len(candidates))
                    return candidates

            fault_point("ranking")
            final = tmap[(0, n)]
            with tracer.span(
                "translate.rank", derivations=len(final)
            ) as rank:
                candidates = self._rank(final, tokens)
                rank.set(candidates=len(candidates))
                return candidates

    # Guard rails for degenerate input: the DP is O(n^3) in sentence length,
    # so a runaway description must be rejected up front, and a description
    # with no translatable words can never produce a program.
    MAX_TOKENS = 200

    def _validate_tokens(self, tokens: list[Token]) -> None:
        if not tokens:
            raise TranslationError(
                "empty description", code="empty_description"
            )
        if len(tokens) > self.MAX_TOKENS:
            raise TranslationError(
                f"description too long: {len(tokens)} tokens "
                f"(limit {self.MAX_TOKENS})",
                code="description_too_long",
            )
        if not any(ch.isalnum() for t in tokens for ch in t.text):
            raise TranslationError(
                "description contains only symbols", code="symbols_only"
            )

    def prepare_tokens(self, sentence: str) -> list[Token]:
        """Tokenize and spell-correct against the sheet + operator
        vocabulary (corrected tokens keep their original for the UI).

        A token is left alone when it joins with a neighbour into a column
        reference ("unit price" -> ``unitprice``) — correcting "unit" to the
        ``units`` column would destroy the joint match.
        """
        raw = tokenize(sentence)
        out: list[Token] = []
        for k, token in enumerate(raw):
            known = (
                token.text in self.ctx.corrector
                # inflections of known words are known, not typos:
                # "baristas", "selected", "multiplying"
                or (
                    token.text.endswith("s")
                    and token.text[:-1] in self.ctx.corrector
                )
                or (
                    token.text.endswith("ed")
                    and token.text[:-2] in self.ctx.corrector
                )
                or (
                    token.text.endswith("ing")
                    and token.text[:-3] in self.ctx.corrector
                )
            )
            if (
                token.literal is None
                and not token.is_cellref
                and not token.is_symbol
                and not known
                and not self._joins_with_neighbor(raw, k)
            ):
                correction = self.ctx.corrector.correct(token.text)
                if correction is not None and correction.distance > 0:
                    token = token.with_correction(correction.word)
            out.append(token)
        # Warm the per-sentence n-gram seed index: every span the DP will
        # probe for column/value matches becomes a dict hit.
        self.ctx.index_sentence(tuple(t.text for t in out))
        return out

    def _joins_with_neighbor(self, tokens: list[Token], k: int) -> bool:
        word = tokens[k].text
        neighbors = []
        if k > 0:
            neighbors.append((tokens[k - 1].text, word))
        if k + 1 < len(tokens):
            neighbors.append((word, tokens[k + 1].text))
        if k > 1:
            neighbors.append((tokens[k - 2].text, tokens[k - 1].text, word))
        if k + 2 < len(tokens):
            neighbors.append((word, tokens[k + 1].text, tokens[k + 2].text))
        return any(self.ctx.match_column(pair) for pair in neighbors)

    # -- per-span work --------------------------------------------------------------

    def _translate_span(
        self,
        tokens: list[Token],
        i: int,
        j: int,
        tmap: dict[tuple[int, int], list[Derivation]],
        budget: Budget | None = None,
        tracer=None,
        active_rules=None,
    ) -> list[Derivation]:
        if budget is None:
            budget = Budget()
        if tracer is None:
            tracer = NULL_TRACER
        derivations: list[Derivation] = []
        base: list[Derivation] = []
        new: list[Derivation] = []

        try:
            # 1. keyword-programming seeds
            with tracer.span("translate.seeds", i=i, j=j) as span:
                fault_point("seeds")
                if j - i == 1:
                    token = tokens[i]
                    derivations += literal_seeds(token, i)
                    derivations += table_seeds(self.ctx, token, i)
                    if self.config.use_synthesis:
                        derivations += operator_seeds(token, i)
                derivations += column_seeds(self.ctx, tokens, i, j, 0)
                derivations += value_seeds(self.ctx, tokens, i, j, 0)
                if j - i == 4:
                    from .excel_input import formula_seeds

                    derivations += formula_seeds(self.ctx, tokens, i, j)
                budget.charge(len(derivations))
                budget.checkpoint("seeds")
                span.set(derivations=len(derivations))

            # 2. pattern rules
            if self.config.use_rules:
                with tracer.span("translate.rules", i=i, j=j) as span:
                    produced = self.rule_translator.translate_span(
                        tokens, i, j, tmap, budget=budget,
                        rules=active_rules,
                    )
                    derivations += produced
                    budget.checkpoint("rules")
                    span.set(derivations=len(produced))

            # 3. union of sub-spans + synthesis closure
            if j - i >= 2:
                base = self._dedup(tmap[(i, j - 1)] + tmap[(i + 1, j)])
                if self.config.use_synthesis:
                    with tracer.span("translate.synthesis", i=i, j=j) as span:
                        left = [d for d in base if i in d.used]
                        right = [d for d in base if (j - 1) in d.used]
                        new = synthesize(
                            base, left, right, self.checker,
                            max_new=self.config.synth_max_new,
                            budget=budget,
                        )
                        budget.checkpoint("synthesis")
                        span.set(derivations=len(new))
        except BudgetExceededError:
            # Anytime salvage: whatever this span produced before the trip
            # is still a valid (if incomplete) span translation.  Store it
            # so the anytime ranking sees every program derived so far,
            # then let the DP loop unwind.
            tmap[(i, j)] = self._prune(
                self._dedup(base + new + derivations)
            )
            raise

        if j - i >= 2:
            derivations = base + new + derivations

        return self._prune(self._dedup(derivations))

    def _dedup(self, derivations: list[Derivation]) -> list[Derivation]:
        seen: dict[tuple, Derivation] = {}
        for d in derivations:
            key = d.key()
            kept = seen.get(key)
            if kept is None or d.prod_score > kept.prod_score:
                seen[key] = d
        return list(seen.values())

    def _prune(self, derivations: list[Derivation]) -> list[Derivation]:
        if len(derivations) <= self.config.beam_size:
            return derivations
        # Many derivations share an expression over different word subsets;
        # two variants (best-produced, widest) carry all the information the
        # ranker and the combiners need, and the freed beam slots keep rare
        # wide-coverage derivations alive on long sentences.
        by_expr: dict[ast.Expr, list[Derivation]] = {}
        for d in derivations:
            by_expr.setdefault(d.expr, []).append(d)
        trimmed: list[Derivation] = []
        for variants in by_expr.values():
            best = max(variants, key=lambda d: (d.prod_score, len(d.used)))
            widest = max(variants, key=lambda d: (len(d.used), d.prod_score))
            trimmed.append(best)
            if widest is not best:
                trimmed.append(widest)
        if len(trimmed) <= self.config.beam_size:
            return trimmed
        # Coverage-weighted quality: a full-coverage rule derivation must
        # outrank the sea of single-word atoms (prod 1.0) it competes with.
        trimmed.sort(
            key=lambda d: (
                -d.prod_score * (1 + len(d.used)),
                -len(d.used),
                str(d.expr),
            )
        )
        return trimmed[: self.config.beam_size]

    # -- ranking ------------------------------------------------------------------

    # Words whose absence from a derivation costs almost nothing (syntactic
    # glue), words that carry the user's intent (sheet content), and
    # operator keywords in between.
    _GLUE_WORDS = frozenset(
        "is are was were get take of have has the a an for all and to"
        " please computer me i want need you".split()
    )
    _CONTENT_WEIGHT = 2.0
    _KEYWORD_WEIGHT = 1.2
    _NOISE_WEIGHT = 0.4

    def _word_weight(self, token: Token) -> float:
        text = token.text
        if token.literal is not None or token.is_cellref:
            return self._CONTENT_WEIGHT
        if self.ctx.is_value_word(text) or self.ctx.is_column_word(text):
            return self._CONTENT_WEIGHT
        if SheetContext.match_color(text) is not None:
            return self._CONTENT_WEIGHT
        if text in self._GLUE_WORDS:
            return self._NOISE_WEIGHT
        if text in self._keyword_vocab:
            return self._KEYWORD_WEIGHT
        return self._NOISE_WEIGHT

    def _score(self, d: Derivation, weights: list[float]) -> float:
        cfg = self.config
        if not cfg.full_ranking:
            return d.ranking_prod_score
        score = d.ranking_prod_score
        if cfg.use_cover_score:
            score *= d.cover_score(weights)
        if cfg.use_mix_score:
            score *= d.mix_score
        return score

    def _rank(
        self, derivations: list[Derivation], tokens: list[Token]
    ) -> list[Candidate]:
        weights = [self._word_weight(t) for t in tokens]
        best: dict[ast.Expr, tuple[float, Derivation]] = {}
        for d in derivations:
            if not self.checker.valid_program(d.expr):
                continue
            score = self._score(d, weights)
            kept = best.get(d.expr)
            if (
                kept is None
                or score > kept[0]
                or (score == kept[0] and len(d.used) > len(kept[1].used))
            ):
                best[d.expr] = (score, d)
        ranked = sorted(
            best.items(),
            key=lambda kv: (-kv[1][0], -len(kv[1][1].used), str(kv[0])),
        )
        return [
            Candidate(program=expr, score=score, derivation=d, tokens=tokens)
            for expr, (score, d) in ranked[: self.config.max_results]
        ]

    def _rank_anytime(
        self,
        tmap: dict[tuple[int, int], list[Derivation]],
        tokens: list[Token],
    ) -> list[Candidate]:
        """Rank every complete program derived before the budget tripped.

        The union over all spans (not just the final one, which may not
        exist yet) is ranked with the ordinary scorer: complete wide
        derivations dominate through CoverSc, so if the DP got far enough
        to build the right program anywhere, it surfaces at the top.
        """
        pool: list[Derivation] = []
        for derivations in tmap.values():
            pool.extend(derivations)
        return self._rank(pool, tokens)


def _rule_vocabulary(rules: RuleSet) -> set[str]:
    """Every word the rule templates can match, so the spell corrector
    treats rule vocabulary (builtin or custom) as known."""
    from .patterns import MustPat, OptPat

    vocabulary: set[str] = set()
    for rule in rules:
        for pattern in rule.template:
            if isinstance(pattern, MustPat):
                for option in pattern.options:
                    vocabulary.update(option)
            elif isinstance(pattern, OptPat):
                vocabulary.update(pattern.words)
    return {w for w in vocabulary if w.isalpha()}


def ablation_config(mode: str) -> TranslatorConfig:
    """The Table 3 configurations by name."""
    if mode == "rules_only":
        return TranslatorConfig(
            use_rules=True, use_synthesis=False, full_ranking=False
        )
    if mode == "synthesis_only":
        return TranslatorConfig(
            use_rules=False, use_synthesis=True, full_ranking=False
        )
    if mode == "combined_prod_only":
        return TranslatorConfig(
            use_rules=True, use_synthesis=True, full_ranking=False
        )
    if mode == "complete":
        return TranslatorConfig()
    if mode == "no_cover":
        return TranslatorConfig(use_cover_score=False)
    if mode == "no_mix":
        return TranslatorConfig(use_mix_score=False)
    raise TranslationError(f"unknown ablation mode {mode!r}")
