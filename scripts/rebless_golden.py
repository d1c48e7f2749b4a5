#!/usr/bin/env python
"""Regenerate the golden ranking oracle in ``tests/golden/``.

Usage::

    PYTHONPATH=src python scripts/rebless_golden.py          # rewrite
    PYTHONPATH=src python scripts/rebless_golden.py --check  # diff only

Re-translates the full Table 2 test split and the stress workload, then
prints, for every description whose digest changed, the old and new
top-3 candidates with their scores, followed by the change in the
TaskOracle top-1, top-3 and recall counts.  Without ``--check`` it
rewrites ``table2.jsonl``, ``stress.jsonl`` and ``accuracy.json``.

Every re-bless changes what ``tests/test_golden.py`` pins, so every
re-bless must be listed in CHANGES.md with the reason the rankings moved
and the accuracy delta this script prints.  Exit status is 1 with
``--check`` when anything differs, else 0.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from tests.golden import oracle  # noqa: E402


def _key(record: dict) -> tuple:
    return (record.get("sheet", "stress"), record["text"])


def _diff(label: str, old: list[dict], new: list[dict]) -> int:
    before = {_key(r): r for r in old}
    changed = 0
    for record in new:
        prior = before.pop(_key(record), None)
        if prior is not None and prior["sha256"] == record["sha256"]:
            continue
        changed += 1
        print(f"[{label}] {_key(record)[0]}: {record['text']!r}")
        if prior is None:
            print("  old: <absent>")
        else:
            for line in prior["top3"]:
                print(f"  old: {line}")
            if prior["top3"] == record["top3"]:
                print("  (top-3 unchanged: a lower rank, tier or Excel moved)")
        for line in record["top3"]:
            print(f"  new: {line}")
    for key in before:
        changed += 1
        print(f"[{label}] {key[0]}: {key[1]!r} dropped from the workload")
    return changed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="print the diff against the committed oracle, write nothing",
    )
    args = parser.parse_args(argv)

    table2 = oracle.run_table2(oracle.table2_split())
    stress = oracle.run_stress()
    counts = oracle.accuracy(table2)

    old_table2 = (
        oracle.load_records(oracle.TABLE2_FILE)
        if oracle.TABLE2_FILE.exists() else []
    )
    old_stress = (
        oracle.load_records(oracle.STRESS_FILE)
        if oracle.STRESS_FILE.exists() else []
    )
    old_counts = (
        oracle.load_accuracy() if oracle.ACCURACY_FILE.exists()
        else {"n": 0, "top1": 0, "top3": 0, "recall": 0}
    )

    changed = _diff("table2", old_table2, table2)
    changed += _diff("stress", old_stress, stress)
    n = counts["n"]
    for name in ("top1", "top3", "recall"):
        delta = counts[name] - old_counts[name]
        print(
            f"{name}: {old_counts[name]}/{old_counts['n']} -> "
            f"{counts[name]}/{n} ({counts[name] / n:.1%}, {delta:+d})"
        )
    print(f"{changed} record(s) changed")

    if args.check:
        return 1 if changed or counts != old_counts else 0
    oracle.write_records(oracle.TABLE2_FILE, table2)
    oracle.write_records(oracle.STRESS_FILE, stress)
    oracle.write_accuracy(counts)
    print(f"wrote {oracle.GOLDEN_DIR}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
