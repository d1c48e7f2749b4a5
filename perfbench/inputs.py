"""Seeded inputs for the benchmark workloads.

Every function here is a pure function of its arguments: the same seed
gives the same request sequence, so a run can be repeated exactly and two
commits can be measured on identical inputs.  Nothing in this module
touches the program under test beyond reading its public dataset.
"""

from __future__ import annotations

import random

# Width of a length stratum in the Table 2 order (see ``table2_order``).
_STRATUM = 16


def table2_order(texts: list[str], seed: int) -> list[int]:
    """A seeded order over the Table 2 test split, as split indices.

    Translation cost grows steeply with sentence length, so a plain shuffle
    would give each run a different length mix in whatever prefix it gets
    through.  Instead the split is cut into strata of similar length, and
    each round takes one member of every stratum (stratum order and the
    member taken are seeded).  Any prefix therefore has the split's length
    mix, and runs on different seeds measure comparable work.
    """
    rng = random.Random(f"table2:{seed}")
    by_length = sorted(range(len(texts)), key=lambda i: (len(texts[i].split()), i))
    strata = [by_length[k:k + _STRATUM] for k in range(0, len(by_length), _STRATUM)]
    for stratum in strata:
        rng.shuffle(stratum)
    order: list[int] = []
    for round_ in range(_STRATUM):
        visit = list(range(len(strata)))
        rng.shuffle(visit)
        order.extend(strata[s][round_] for s in visit if round_ < len(strata[s]))
    return order


def stress_sequence(n_sentences: int, seed: int, length: int) -> list[int]:
    """``length`` sentence indices: back-to-back seeded shuffles of all
    ``n_sentences``, so every prefix is close to balanced."""
    rng = random.Random(f"stress:{seed}")
    out: list[int] = []
    while len(out) < length:
        block = list(range(n_sentences))
        rng.shuffle(block)
        out.extend(block)
    return out[:length]
