"""The golden ranking oracle: rankings and accuracy, pinned absolutely.

Every test here compares the translator's output against the committed
digests in ``tests/golden/`` (see :mod:`tests.golden.oracle` for the
serialisation), not against a second mode of the same program, so a
change that moves a ranking fails here whichever code path it touches.
The same digests are checked from other paths through the program in
``test_differential_intern`` (a fresh service per description, a
one-worker gateway) and ``test_differential_columnar`` (the columnar
index rebuilt between descriptions, a two-worker gateway).
The accuracy gate asserts the TaskOracle counts the repo measures
(1038/1071 top-1 when blessed), not the paper's.

A deliberate ranking change is re-blessed with
``scripts/rebless_golden.py`` and listed in CHANGES.md.
"""

from __future__ import annotations

import pytest

from .golden import oracle

_QUICK_SAMPLE = 60


@pytest.fixture(scope="module")
def golden_table2():
    return oracle.table2_pairs()


@pytest.fixture(scope="module")
def full_split_run(golden_table2):
    return oracle.run_table2([d for d, _ in golden_table2])


def test_golden_sample(golden_table2):
    """A deterministic even sample of the split (the quick lane's check)."""
    sample = oracle.even_sample(golden_table2, _QUICK_SAMPLE)
    produced = oracle.run_table2([d for d, _ in sample])
    oracle.assert_unmoved([r for _, r in sample], produced)


@pytest.mark.slow
def test_golden_full_split(golden_table2, full_split_run):
    """All 1071 Table 2 test descriptions through the service."""
    oracle.assert_unmoved([r for _, r in golden_table2], full_split_run)


@pytest.mark.slow
def test_accuracy_equals_golden(full_split_run):
    """TaskOracle top-1, top-3 and recall over the full split equal the
    blessed counts exactly: a gain is re-blessed, a loss is a bug."""
    assert oracle.accuracy(full_split_run) == oracle.load_accuracy()


@pytest.mark.slow
def test_golden_stress():
    """The stress sentences over a 2000-row generated sheet."""
    pinned = oracle.load_records(oracle.STRESS_FILE)
    produced = oracle.run_stress()
    assert [r["text"] for r in produced] == [r["text"] for r in pinned], (
        f"the stress workload changed; {oracle.REBLESS}"
    )
    oracle.assert_unmoved(pinned, produced)
