"""Template alignment (paper §3.3.1).

An alignment maps each pattern of a template to a contiguous token range
such that the ranges tile the whole fragment: the first pattern starts at
the fragment start, consecutive ranges abut, and the last pattern ends at
the fragment end.  Optional patterns may map to empty ranges.

Ranges are half-open ``(l, u)`` over fragment-relative positions.

Compiled templates
------------------

``align`` runs per (rule, span) in the DP inner loop — the suffix-width
table it needs is a pure function of the template.
:func:`compile_template` builds that automaton once per *structural*
template and interns it in a cross-request table (keyed like
``repro.dsl.ast.intern``): because ``parse_template`` interns template
tuples too, every translator, forked gateway worker (via fork
copy-on-write), and learned rule pack sharing a template shares one
compiled form.
"""

from __future__ import annotations

from .context import SheetContext
from .patterns import MustPat, OptPat, Pattern
from .tokenizer import Token

Alignment = tuple  # tuple[tuple[int, int], ...] — one (l, u) per pattern


def _min_width(pattern: Pattern) -> int:
    if isinstance(pattern, OptPat):
        return 0
    if isinstance(pattern, MustPat):
        return min(len(option) for option in pattern.options)
    return 1


class CompiledTemplate:
    """A template plus everything alignment derives from it.

    * ``min_suffix[i]`` — the minimum token width patterns ``i..`` must
      still tile (prunes the backtracking search); computed once here
      instead of per ``align`` call;
    * ``must_option_sets`` — the MustPats' per-option word frozensets, laid
      out flat so ``quick_reject`` is one C-level subset test per option
      with no per-call isinstance scan.
    """

    __slots__ = ("template", "size", "min_suffix", "must_option_sets")

    def __init__(self, template: tuple[Pattern, ...]) -> None:
        self.template = template
        self.size = len(template)
        min_suffix = [0] * (len(template) + 1)
        for i in range(len(template) - 1, -1, -1):
            min_suffix[i] = min_suffix[i + 1] + _min_width(template[i])
        self.min_suffix = tuple(min_suffix)
        self.must_option_sets = tuple(
            tuple(frozenset(option) for option in p.options)
            for p in template
            if isinstance(p, MustPat)
        )

    def align(
        self, tokens: list[Token], ctx: SheetContext, cap: int = 16
    ) -> list[Alignment]:
        """All (up to ``cap``) alignments over ``tokens``, found by
        backtracking pruned with the suffix-width table."""
        n = len(tokens)
        template = self.template
        size = self.size
        min_suffix = self.min_suffix
        if min_suffix[0] > n:
            return []

        results: list[Alignment] = []
        ranges: list[tuple[int, int]] = []

        def recurse(pattern_index: int, pos: int) -> None:
            if len(results) >= cap:
                return
            if pattern_index == size:
                if pos == n:
                    results.append(tuple(ranges))
                return
            if pos + min_suffix[pattern_index] > n:
                return
            pattern = template[pattern_index]
            next_suffix = min_suffix[pattern_index + 1]
            for end in pattern.ends(tokens, pos, n, ctx):
                if end + next_suffix > n:
                    continue
                ranges.append((pos, end))
                recurse(pattern_index + 1, end)
                ranges.pop()
                if len(results) >= cap:
                    return

        recurse(0, 0)
        return results

    def quick_reject(self, fragment_words: frozenset[str]) -> bool:
        """True when some MustPat has no option whose words all occur in
        the fragment."""
        for option_sets in self.must_option_sets:
            for option_set in option_sets:
                if option_set <= fragment_words:
                    break
            else:
                return True
        return False


# Cross-request compiled-template intern table.  Keyed structurally (the
# template tuple), so even templates parsed before the text-level intern
# table warmed up land on the same compiled object.  Capped + cleared
# wholesale like the AST intern table; a cleared entry only costs a
# recompile.
_COMPILED_TABLE: dict[tuple, CompiledTemplate] = {}
_COMPILED_CAP = 4096


def compiled_table_size() -> int:
    return len(_COMPILED_TABLE)


def compile_template(template: tuple[Pattern, ...]) -> CompiledTemplate:
    """The interned compiled form of ``template``."""
    compiled = _COMPILED_TABLE.get(template)
    if compiled is None:
        if len(_COMPILED_TABLE) >= _COMPILED_CAP:
            _COMPILED_TABLE.clear()
        compiled = CompiledTemplate(template)
        _COMPILED_TABLE[template] = compiled
    return compiled


def align(
    template: tuple[Pattern, ...],
    tokens: list[Token],
    ctx: SheetContext,
    cap: int = 16,
) -> list[Alignment]:
    """All (up to ``cap``) alignments of ``template`` over ``tokens``."""
    return compile_template(template).align(tokens, ctx, cap)


def quick_reject(
    template: tuple[Pattern, ...], fragment_words: frozenset[str]
) -> bool:
    """Cheap pre-check: a MustPat whose options all need words absent from
    the fragment can never align (saves the backtracking search)."""
    return compile_template(template).quick_reject(fragment_words)
