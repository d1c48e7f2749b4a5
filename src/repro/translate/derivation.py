"""Derivation histories (paper §3.1).

Every candidate expression the translator produces is wrapped in a
:class:`Derivation` recording *how* it was produced:

* ``used`` / ``used_cols`` — the paper's ``UsedW(e)`` / ``UsedCW(e)``: the
  input word positions consumed, and the subset that was consumed to produce
  column references (excluded from the synthesis disjointness check);
* ``rule_children`` / ``synth_children`` — the paper's
  ``History(e) = (rule, [er...], [es...])``: sub-derivations bound during a
  pattern-rule instantiation vs. substituted during synthesis;
* ``rule_score`` — the score of the rule (or seed) that created the node.

Score components used by the §3.4 ranking are computed eagerly bottom-up, so
each derivation carries its production score and mix statistics at O(1) cost
to the ranker.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..dsl import ast

ATOM = "atom"
RULE = "rule"
SYNTH = "synth"


@dataclass(frozen=True, eq=False)
class Derivation:
    """One candidate (partial) expression plus its production history.

    Identity-based equality: the translator dedups explicitly on
    :meth:`key`, and score caches live in computed fields.
    """

    expr: ast.Expr
    used: frozenset[int]
    used_cols: frozenset[int] = frozenset()
    kind: str = ATOM
    rule_score: float = 1.0
    rule_children: tuple["Derivation", ...] = ()
    synth_children: tuple["Derivation", ...] = ()
    # computed in __post_init__
    node_score: float = field(init=False, default=1.0)
    prod_score: float = field(init=False, default=1.0)
    swizzled: int = field(init=False, default=0)
    all_pairs: int = field(init=False, default=0)
    # ``UsedW - UsedCW``: the words the synthesis disjointness condition
    # compares (paper §3.2).  Precomputed — ``synthesize`` reads it per pair
    # in the quadratic frontier scan.
    used_non_column: frozenset[int] = field(
        init=False, repr=False, compare=False, default=frozenset()
    )

    def __post_init__(self) -> None:
        # Hash-cons the expression: every derivation created anywhere in
        # the pipeline carries a canonical node, so downstream
        # dedup/type-checker probes are identity-backed.
        object.__setattr__(self, "expr", ast.intern(self.expr))
        object.__setattr__(self, "used_non_column", self.used - self.used_cols)
        object.__setattr__(self, "_key", (self.expr, self.used))
        object.__setattr__(self, "node_score", self._node_score())
        total, count = self._prod_parts()
        object.__setattr__(
            self, "prod_score", total / count if count else self.rule_score
        )
        swizzled, pairs = self._mix_parts()
        object.__setattr__(self, "swizzled", swizzled)
        object.__setattr__(self, "all_pairs", pairs)

    # -- identity -------------------------------------------------------------

    def key(self) -> tuple:
        """Dedup key: structurally equal expressions over the same words are
        interchangeable candidates.  Computed eagerly in ``__post_init__`` —
        the closure loops compare keys per pair."""
        return self._key

    @property
    def children(self) -> tuple["Derivation", ...]:
        return self.rule_children + self.synth_children

    # -- §3.4 production score ---------------------------------------------------

    def _node_score(self) -> float:
        """RScore x SScore of this node.

        RScore averages the pairwise mean of this node's rule score with each
        rule-bound child's rule score (pattern applications combine gently);
        SScore multiplies in the production quality of synthesis-substituted
        children (repeated synthesis decays the score toward 0).
        """
        if self.kind == ATOM:
            return self.rule_score
        if self.rule_children:
            r = sum(
                (self.rule_score + c.rule_score) / 2 for c in self.rule_children
            ) / len(self.rule_children)
        else:
            r = self.rule_score
        s = 1.0
        for c in self.synth_children:
            s *= c.prod_score
        return r * s

    def _prod_parts(self) -> tuple[float, int]:
        """(sum of node scores, count) over all non-atom sub-derivations —
        ProdSc is their mean."""
        if self.kind == ATOM:
            return (0.0, 0)
        total, count = self.node_score, 1
        for c in self.children:
            t, n = c._prod_parts()
            total += t
            count += n
        return (total, count)

    # -- §3.4 mix score ------------------------------------------------------------

    def _span(self) -> tuple[int, int] | None:
        if not self.used:
            return None
        return (min(self.used), max(self.used))

    def _mix_parts(self) -> tuple[int, int]:
        """(Swizzled, AllPairs) of this node: child-pair span overlaps plus
        the children's own counts."""
        children = self.children
        if not children:
            return (0, 0)
        swizzled = 0
        pairs = len(children) * (len(children) - 1)
        spans = [c._span() for c in children]
        for i, child in enumerate(children):
            swizzled += child.swizzled
            pairs += child.all_pairs
            a = spans[i]
            if a is None:
                continue
            overlaps = sum(
                1
                for j, b in enumerate(spans)
                if j != i and b is not None and a[0] <= b[1] and b[0] <= a[1]
            )
            swizzled += overlaps
        return (swizzled, pairs)

    @property
    def mix_score(self) -> float:
        if self.all_pairs == 0:
            return 1.0
        return 1.0 - self.swizzled / self.all_pairs

    def cover_score(self, word_weights) -> float:
        """CoverSc(e) = 1 / max(ignored^2, 1).

        ``word_weights`` is either the sentence length (every word weighs 1,
        the paper's literal formula) or a per-position weight sequence.  The
        weighted variant implements the paper's stated intuition — "not
        unduly penalizing expressions that ignore a few possibly redundant
        words" — by making ignored *content* words (values, columns,
        literals) cost much more than ignored filler ("please", "the").
        """
        if isinstance(word_weights, int):
            ignored = float(word_weights - len(self.used))
        else:
            ignored = sum(
                w for k, w in enumerate(word_weights) if k not in self.used
            )
        return 1.0 / max(ignored * ignored, 1.0)

    @property
    def ranking_prod_score(self) -> float:
        """ProdSc as used for *ranking*: the paper sums over non-terminal
        sub-expressions, so a bare atom carries no production evidence and
        scores 0 (it ranks below any actual parse)."""
        if self.kind == ATOM:
            return 0.0
        return self.prod_score

    def score(self, word_weights, full_ranking: bool = True) -> float:
        """The final §3.4 ranking score."""
        if not full_ranking:
            return self.ranking_prod_score
        return (
            self.ranking_prod_score
            * self.cover_score(word_weights)
            * self.mix_score
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Derivation({self.expr}, used={sorted(self.used)}, "
            f"kind={self.kind}, prod={self.prod_score:.3f})"
        )
