"""The base rule set (~105 rules).

The paper derived 105 rules from the 70% training split; the learned set is
not published, so this module hand-authors a base set covering the same
operator space (conditional reductions, counting, comparisons with all the
connectives, selection, formatting, lookup, and arithmetic).  The rule
learning pipeline (:mod:`repro.learning`) can re-derive a comparable set
from training data and re-score this one.

Conventions:

* hole idents in expressions correspond to ``%``-pattern idents in the
  template; holes with no matching pattern stay open for synthesis;
* two holes may share an ident (both get the same binding) — used by the
  "larger than the average" rules where the compared and averaged column
  are the same;
* rules that merely strip connective words ("where the ...") map a span to
  its own translation via a bare general hole.
"""

from __future__ import annotations

from ..dsl import ast
from ..sheet import CellValue, Color, FormatFn
from ..translate.rules import RuleSet, make_rule

_H = ast.Hole
_C = ast.HoleKind.COLUMN
_V = ast.HoleKind.VALUE
_L = ast.HoleKind.LITERAL
_G = ast.HoleKind.GENERAL

_GT = ast.GetTable


def _reduce(op: ast.ReduceOp, cond: ast.Expr) -> ast.Expr:
    return ast.Reduce(op, _H(1, _C), _GT(), cond)


_REDUCE_WORDS = {
    ast.ReduceOp.SUM: (
        "sum|sum up|add up|total|total up|totals|compute the sum of"
        "|calculate the sum of|find the sum of|get the total of"
        "|what is the sum of|what is the total of|calculate the total"
        "|compute the total sum of|add"
    ),
    ast.ReduceOp.AVG: (
        "average|get the average of|compute the average of"
        "|find the average of|take the mean of|calculate the average of"
        "|what is the average|what are the average|average of|avg"
    ),
    ast.ReduceOp.MIN: (
        "find the minimum of|get the minimum of|find the smallest"
        "|get the lowest|compute the min of|what is the smallest"
        "|what is the minimum|minimum|min of|smallest|lowest"
    ),
    ast.ReduceOp.MAX: (
        "find the maximum of|get the maximum of|find the largest"
        "|get the highest|compute the max of|what is the largest"
        "|what is the maximum|maximum|max of|largest|highest"
    ),
}

_FILLER = "all|the|of|up|values|value|for|column|columns"
_WHERE_WORDS = (
    "where|with|whose|that|which|who|that are|who are|which are|that have"
    "|which have|who have|having|for|in|at|located in|who work at|from|are"
)

_LT_WORDS = "less than|under|below|smaller than|fewer than|less|before|<"
_GT_WORDS = (
    "greater than|more than|over|above|bigger than|larger than|exceeds"
    "|after|>"
)
_BIG_WORDS = "largest|highest|biggest|greatest|maximum|top|max"

_ROW_NOUNS = (
    "rows|row|records|record|entries|entry|employees|employee|people|person"
    "|workers|worker|items|item|products|product|countries|country"
    "|invoices|invoice|orders|order|cells|lines"
)


# Rules are frozen and templates are interned (repro.translate.patterns),
# so one construction can serve every translator in the process; each call
# still gets a fresh *mutable* RuleSet over the shared Rule objects.
_BUILTIN: RuleSet | None = None


def builtin_rules() -> RuleSet:
    """The base rule set: a fresh RuleSet sharing one cached rule list."""
    global _BUILTIN
    if _BUILTIN is None:
        _BUILTIN = _build_rules()
    return RuleSet(list(_BUILTIN.rules))


def _build_rules() -> RuleSet:
    """Construct the base rule set."""
    rules = RuleSet()
    add = rules.add

    # -- conditional reductions (4 ops x 4 shapes) -------------------------
    for op, words in _REDUCE_WORDS.items():
        name = op.value.lower()
        add(make_rule(
            f"{name}_plain", f"({words}) ({_FILLER})* %C1",
            _reduce(op, ast.TrueF()), score=0.72,
        ))
        add(make_rule(
            f"{name}_open", f"({words}) ({_FILLER})* %C1",
            _reduce(op, _H(2, _G)), score=0.78,
        ))
        add(make_rule(
            f"{name}_where", f"({words}) ({_FILLER})* %C1 %2",
            _reduce(op, _H(2, _G)), score=0.82,
        ))
        add(make_rule(
            f"{name}_np_col", f"({words}) ({_FILLER})* %2 %C1",
            _reduce(op, _H(2, _G)), score=0.74,
        ))

    # -- reductions over the active selection (steps programming) -----------
    for op, words in _REDUCE_WORDS.items():
        name = op.value.lower()
        add(make_rule(
            f"{name}_active",
            f"({words}) ({_FILLER})* %C1 (from|of|in|the)* "
            "(selected|selection|active) (rows|cells|selection)*",
            ast.Reduce(op, _H(1, _C), ast.GetActive(), ast.TrueF()),
            score=0.85,
        ))

    # -- counting ------------------------------------------------------------
    count_words = (
        "count|count up|how many|number of|count the number of"
        "|get the number of|give me the count of|count how many"
    )
    add(make_rule(
        "count_where", f"({count_words}) (the|of|all|are|there|have)* %1",
        ast.Count(_GT(), _H(1, _G)), score=0.8,
    ))
    add(make_rule(
        "count_all", f"({count_words}) (the|all|of)* ({_ROW_NOUNS})",
        ast.Count(_GT(), ast.TrueF()), score=0.7,
    ))
    add(make_rule(
        "count_noun_where",
        f"({count_words}) (the|all|of)* ({_ROW_NOUNS}) "
        "(are|are there|is|there|have|has)* %1",
        ast.Count(_GT(), _H(1, _G)), score=0.85,
    ))

    # -- comparisons -----------------------------------------------------------
    lead = "(where|with|whose|the|a|an|of|is|are|has|have)*"
    add(make_rule(
        "lt_lit", f"{lead} %C1 (is|are|was|a|has|have)* ({_LT_WORDS}) (than|to|the)* %L2",
        ast.Compare(ast.RelOp.LT, _H(1, _C), _H(2, _L)), score=0.9,
    ))
    add(make_rule(
        "gt_lit", f"{lead} %C1 (is|are|was|a|has|have)* ({_GT_WORDS}) (than|to|the)* %L2",
        ast.Compare(ast.RelOp.GT, _H(1, _C), _H(2, _L)), score=0.9,
    ))
    # flipped: "with over 20 hours"
    add(make_rule(
        "lt_lit_flipped", f"(with|where|whose|has|have|having)* ({_LT_WORDS}) %L2 %C1",
        ast.Compare(ast.RelOp.LT, _H(1, _C), _H(2, _L)), score=0.8,
    ))
    add(make_rule(
        "gt_lit_flipped", f"(with|where|whose|has|have|having)* ({_GT_WORDS}) %L2 %C1",
        ast.Compare(ast.RelOp.GT, _H(1, _C), _H(2, _L)), score=0.8,
    ))
    add(make_rule(
        "eq_value",
        f"{lead} %C1 (is|are|was|equals|equal to|=|matches|of) (the|a|an)* %V2",
        ast.Compare(ast.RelOp.EQ, _H(1, _C), _H(2, _V)), score=0.9,
    ))
    add(make_rule(
        "eq_lit", f"{lead} %C1 (is|are|equals|equal to|=|matches) %L2",
        ast.Compare(ast.RelOp.EQ, _H(1, _C), _H(2, _L)), score=0.85,
    ))
    add(make_rule(
        "value_column", "%V1 %C2",
        ast.Compare(ast.RelOp.EQ, _H(2, _C), _H(1, _V)), score=0.75,
    ))
    add(make_rule(
        "column_value", "%C1 (is|of|:)* %V2",
        ast.Compare(ast.RelOp.EQ, _H(1, _C), _H(2, _V)), score=0.7,
    ))
    add(make_rule(
        "lt_col", f"{lead} %C1 (is|are)* ({_LT_WORDS}) (than|the)* %C2",
        ast.Compare(ast.RelOp.LT, _H(1, _C), _H(2, _C)), score=0.88,
    ))
    add(make_rule(
        "gt_col", f"{lead} %C1 (is|are)* ({_GT_WORDS}) (than|the)* %C2",
        ast.Compare(ast.RelOp.GT, _H(1, _C), _H(2, _C)), score=0.88,
    ))
    add(make_rule(
        "between",
        f"{lead} %C1 (is|are|was|of)* between %L2 and %L3",
        ast.And(
            ast.Compare(ast.RelOp.GT, _H(1, _C), _H(2, _L)),
            ast.Compare(ast.RelOp.LT, _H(1, _C), _H(3, _L)),
        ),
        score=0.9,
    ))
    add(make_rule(
        "at_most",
        f"{lead} %C1 (is|are|was|of)* (at most|no more than|not more than"
        "|not over|not above) %L2",
        ast.Not(ast.Compare(ast.RelOp.GT, _H(1, _C), _H(2, _L))),
        score=0.88,
    ))
    add(make_rule(
        "at_least",
        f"{lead} %C1 (is|are|was|of)* (at least|no less than|not less than"
        "|not under|not below) %L2",
        ast.Not(ast.Compare(ast.RelOp.LT, _H(1, _C), _H(2, _L))),
        score=0.88,
    ))
    add(make_rule(
        "nonzero", "(nonzero|non zero) %C1",
        ast.Compare(ast.RelOp.GT, _H(1, _C), ast.Lit(CellValue.number(0))),
        score=0.9,
    ))
    add(make_rule(
        # "othours is not 0" — on the non-negative quantities these sheets
        # hold, not-zero means strictly positive.
        "col_not_zero",
        f"{lead} %C1 (is|are|was)* (not|isn't|aren't) (0|zero)",
        ast.Compare(ast.RelOp.GT, _H(1, _C), ast.Lit(CellValue.number(0))),
        score=0.88,
    ))

    # -- comparisons against the average ("larger than the average") -----------
    avg_of_1 = ast.Reduce(ast.ReduceOp.AVG, _H(1, _C), _GT(), ast.TrueF())
    avg_of_2 = ast.Reduce(ast.ReduceOp.AVG, _H(2, _C), _GT(), ast.TrueF())
    add(make_rule(
        "gt_avg_same",
        f"{lead} %C1 (is|are)* ({_GT_WORDS}) (the)* (average|mean)",
        ast.Compare(ast.RelOp.GT, _H(1, _C), avg_of_1), score=0.88,
    ))
    add(make_rule(
        "lt_avg_same", f"{lead} %C1 (is|are)* ({_LT_WORDS}) (the)* (average|mean)",
        ast.Compare(ast.RelOp.LT, _H(1, _C), avg_of_1), score=0.88,
    ))
    add(make_rule(
        "gt_avg_named",
        f"{lead} %C1 (is|are)* ({_GT_WORDS}) (the)* (average|mean) %C2",
        ast.Compare(ast.RelOp.GT, _H(1, _C), avg_of_2), score=0.86,
    ))
    add(make_rule(
        "above_avg_prefix",
        "(above average|above the average|over average|more than average"
        "|larger than the average|greater than the average"
        "|more than the average) %C1",
        ast.Compare(ast.RelOp.GT, _H(1, _C), avg_of_1), score=0.84,
    ))
    add(make_rule(
        "below_avg_prefix",
        "(below average|below the average|under average|less than average"
        "|smaller than the average|less than the average) %C1",
        ast.Compare(ast.RelOp.LT, _H(1, _C), avg_of_1), score=0.84,
    ))
    add(make_rule(
        "with_above_avg",
        f"(with|whose|where|having)* (a|an|the)* ({_GT_WORDS}|above) "
        "(average|mean) %C1",
        ast.Compare(ast.RelOp.GT, _H(1, _C), avg_of_1), score=0.84,
    ))

    # -- negation -----------------------------------------------------------------
    add(make_rule(
        "not_span",
        "(not|excluding|except|other than) (in|at|a|an|the|use|using|of)* %1",
        ast.Not(_H(1, _G)), score=0.82,
    ))
    add(make_rule(
        "not_verb",
        "(do not|don't|does not|doesn't|is not|isn't|are not|aren't"
        "|which don't|that don't|who don't) "
        "(use|have|using|in|at|a|an|the)* %1",
        ast.Not(_H(1, _G)), score=0.85,
    ))
    add(make_rule(
        "col_is_not_value",
        f"{lead} %C1 (is|are)* (not|isn't|aren't) (a|an|the|in)* %V2",
        ast.Not(ast.Compare(ast.RelOp.EQ, _H(1, _C), _H(2, _V))), score=0.9,
    ))

    # -- connectives -----------------------------------------------------------------
    add(make_rule(
        "and_spans", "%1 (and|but) %2",
        ast.And(_H(1, _G), _H(2, _G)), score=0.62,
    ))
    add(make_rule(
        "or_spans", "%1 (or) %2",
        ast.Or(_H(1, _G), _H(2, _G)), score=0.7,
    ))
    add(make_rule(
        "either_or", "(either)* %1 or %2",
        ast.Or(_H(1, _G), _H(2, _G)), score=0.7,
    ))

    # -- forwarding rules (strip connective words, keep span semantics) ----------------
    add(make_rule(
        "where_strip", f"({_WHERE_WORDS}) (the|a|an|all|is|are|of)* %1",
        _H(1, _G), score=0.6,
    ))
    add(make_rule(
        "lookup_strip",
        "(lookup|look up|find|fetch|get|what is|what does) "
        "(the|a|an|me|is|of|for|does)* %1",
        _H(1, _G), score=0.58,
    ))
    add(make_rule(
        "for_each_strip",
        "(for each|for every|for all) (row|employee|item|country|invoice"
        "|person|worker|product|order|record|the)* %1",
        _H(1, _G), score=0.6,
    ))
    add(make_rule(
        "parens", "( %1 )", _H(1, _G), score=0.75,
    ))

    # -- selection -----------------------------------------------------------------------
    select_words = (
        "select|highlight|show|show me|get|pick|pick out|grab|display|give me"
    )
    select_fill = (
        f"the|all|me|rows|with|for|where|that|{_ROW_NOUNS}"
    )
    add(make_rule(
        "select_rows", f"({select_words}) ({select_fill})* %1",
        ast.MakeActive(ast.SelectRows(_GT(), _H(1, _G))), score=0.72,
    ))
    add(make_rule(
        "which_rows", f"(which|what) ({_ROW_NOUNS})* (have|has|are|have a|has a)* %1",
        ast.MakeActive(ast.SelectRows(_GT(), _H(1, _G))), score=0.66,
    ))
    # column projections: "show me the name and hours of the chefs"
    add(make_rule(
        "select_cells_one",
        f"({select_words}) (the|me|all)* %C1 (cells|values|column)* "
        "(of|for|from) (the|all)* %2",
        ast.MakeActive(ast.SelectCells((_H(1, _C),), _GT(), _H(2, _G))),
        score=0.8,
    ))
    add(make_rule(
        "select_cells_two",
        f"({select_words}) (the|me|all)* %C1 and (the)* %C2 "
        "(cells|values|columns)* (of|for|from) (the|all)* %3",
        ast.MakeActive(
            ast.SelectCells((_H(1, _C), _H(2, _C)), _GT(), _H(3, _G))
        ),
        score=0.82,
    ))

    # -- argmax ("which country has the largest gdp per capita") ---------------------------
    argmax_expr = ast.MakeActive(ast.SelectRows(
        _GT(),
        ast.Compare(
            ast.RelOp.EQ,
            _H(1, _C),
            ast.Reduce(ast.ReduceOp.MAX, _H(1, _C), _GT(), ast.TrueF()),
        ),
    ))
    # A wh-question implies the user wants the row, not the number ...
    add(make_rule(
        "argmax_wh",
        f"(which|what|who) (the|me|all)* "
        f"({_ROW_NOUNS})* (with|has|have|having|where|that has|the row with)* "
        f"(the)* ({_BIG_WORDS}) %C1",
        argmax_expr, score=0.85,
    ))
    # ... as does an imperative that names the row ("find the country with
    # the largest gdp"); without a row noun, "find the largest total" is a
    # max-reduce and must stay with the reduce rules.
    add(make_rule(
        "argmax_noun",
        f"(find|select|show|show me|get|give me|grab) (the|me|all)* "
        f"({_ROW_NOUNS}) (with|has|have|having|where|that has|the row with)* "
        f"(the)* ({_BIG_WORDS}) %C1",
        argmax_expr, score=0.85,
    ))
    add(make_rule(
        "argmax_is",
        f"(get|select|find|show) (the)* (row|rows) (where)* %C1 (is)* "
        f"(the)* ({_BIG_WORDS})",
        argmax_expr, score=0.8,
    ))

    # -- arithmetic -------------------------------------------------------------------------
    add(make_rule(
        "plus_spans", "%1 (plus|+|added to) %2",
        ast.BinOp(ast.BinaryOp.ADD, _H(1, _G), _H(2, _G)), score=0.8,
    ))
    add(make_rule(
        "minus_spans", "%1 (minus|-) %2",
        ast.BinOp(ast.BinaryOp.SUB, _H(1, _G), _H(2, _G)), score=0.8,
    ))
    add(make_rule(
        "times_spans", "%1 (times|multiplied by|*|x) %2",
        ast.BinOp(ast.BinaryOp.MULT, _H(1, _G), _H(2, _G)), score=0.8,
    ))
    add(make_rule(
        "div_spans", "%1 (divided by|/|per) %2",
        ast.BinOp(ast.BinaryOp.DIV, _H(1, _G), _H(2, _G)), score=0.8,
    ))
    add(make_rule(
        "add_columns",
        "(add|combine|sum) (the|up|together)* %C1 (and|with|to|plus) (the)* "
        "%C2 (columns|column|together)*",
        ast.BinOp(ast.BinaryOp.ADD, _H(1, _C), _H(2, _C)), score=0.85,
    ))
    add(make_rule(
        "multiply_columns",
        "(multiply) (the)* %C1 (and|by|with|times) (the)* %C2 (columns|column)*",
        ast.BinOp(ast.BinaryOp.MULT, _H(1, _C), _H(2, _C)), score=0.85,
    ))
    add(make_rule(
        "divide_spans",
        "(divide) (the)* %1 (by) (the)* %2",
        ast.BinOp(ast.BinaryOp.DIV, _H(1, _G), _H(2, _G)), score=0.85,
    ))
    add(make_rule(
        "subtract_spans",
        "(subtract|take away) (the)* %1 (from) (the)* %2",
        ast.BinOp(ast.BinaryOp.SUB, _H(2, _G), _H(1, _G)), score=0.85,
    ))
    add(make_rule(
        "multiply_span_by",
        "(multiply|scale) (the|each|every)* %1 (by) (the)* %2",
        ast.BinOp(ast.BinaryOp.MULT, _H(1, _G), _H(2, _G)), score=0.85,
    ))
    # trailing verbs: "... and multiply (it) by hours"
    add(make_rule(
        "then_multiply_by",
        "%1 (and|then)* (multiply|multiplied|times) (it|them)* by "
        "(the|their)* %2",
        ast.BinOp(ast.BinaryOp.MULT, _H(1, _G), _H(2, _G)), score=0.84,
    ))
    add(make_rule(
        "then_divide_by",
        "%1 (and|then)* (divide|divided) (it|them)* by (the|their)* %2",
        ast.BinOp(ast.BinaryOp.DIV, _H(1, _G), _H(2, _G)), score=0.84,
    ))
    # trailing reductions: "get the baristas ... and sum the hours"
    for op, trailing in (
        (ast.ReduceOp.SUM, "sum|add up|total|add|sum up"),
        (ast.ReduceOp.AVG, "average"),
    ):
        add(make_rule(
            f"get_then_{op.value.lower()}",
            f"(get|take|select|grab) (the|all|rows|rows with|rows for)* %2 "
            f"(and|then) ({trailing}) (the|up|them|all)* %C1",
            _reduce(op, _H(2, _G)), score=0.82,
        ))
        add(make_rule(
            f"get_col_then_{op.value.lower()}",
            f"(get|take) (the|all)* %C1 (from|of|for|in)* (the)* %2 "
            f"(and|then) ({trailing}) (them|it|up|them up|it up)*",
            _reduce(op, _H(2, _G)), score=0.82,
        ))

    # -- formatting (boolean attributes) ------------------------------------------------
    for attr, maker in (
        ("bold", FormatFn.bold),
        ("italic", FormatFn.italics),
        ("underline", FormatFn.underline),
    ):
        words = {
            "bold": "bold",
            "italic": "italic|italics|italicize",
            "underline": "underline|underlined",
        }[attr]
        spec = ast.FormatSpec((maker(True),))
        fmt = ast.FormatCells(spec, ast.SelectRows(_GT(), _H(1, _G)))
        add(make_rule(
            f"format_{attr}_suffix",
            f"(make|mark|format|turn|set) (the|all|rows)* %1 ({words})",
            fmt, score=0.85,
        ))
        add(make_rule(
            f"format_{attr}_prefix",
            f"({words}) (the|all|rows)* %1",
            fmt, score=0.7,
        ))
        add(make_rule(
            f"getformat_{attr}_cells",
            f"(the)* ({words}) (cells|rows|values)",
            ast.GetFormat(spec), score=0.8,
        ))

    # -- formatting (per color) ------------------------------------------------------------
    for color in Color:
        if color is Color.NONE:
            continue
        c = color.value
        spec = ast.FormatSpec((FormatFn.color(color),))
        fmt = ast.FormatCells(spec, ast.SelectRows(_GT(), _H(1, _G)))
        add(make_rule(
            f"format_{c}_suffix",
            f"(color|make|paint|turn|mark|highlight) (the|all|rows)* %1 "
            f"(in|to)* {c}",
            fmt, score=0.85,
        ))
        add(make_rule(
            f"format_{c}_get_and",
            f"(get|select|take) (the|all|rows)* %1 and (color|make|paint"
            f"|mark|highlight|turn) (them|it|the|rows|in)* {c}",
            fmt, score=0.85,
        ))
        add(make_rule(
            f"getformat_{c}_cells",
            f"(the)* {c} (cells|rows|values)",
            ast.GetFormat(spec), score=0.8,
        ))
        # precise cell-level emphasis: "color the chef totalpay red"
        add(make_rule(
            f"format_{c}_cells_suffix",
            f"(color|make|paint|turn|mark|highlight) (the|all)* %1 %C2 "
            f"(cells|values)* (in|to)* {c}",
            ast.FormatCells(
                spec, ast.SelectCells((_H(2, _C),), _GT(), _H(1, _G))
            ),
            score=0.84,
        ))
        add(make_rule(
            f"sum_{c}_cells",
            f"(sum|add up|total|add|total up) (the|all|up|values|in)* {c} "
            f"%C1 (cells|values|rows)*",
            ast.Reduce(ast.ReduceOp.SUM, _H(1, _C), ast.GetFormat(spec),
                       ast.TrueF()),
            score=0.85,
        ))

    return rules
