"""Regenerate ``perfbench/pins/*.json`` from the program in ``src/``.

Run from the repository root::

    python3 perfbench/pin.py

Only a change that redefines the benchmark re-pins; review the stress
answers by hand before committing them.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main() -> None:
    from repro.dataset import SHEET_ORDER, Corpus, build_sheet, stress_sentences
    from repro.evalkit.metrics import TaskOracle
    from repro.runtime.service import TranslationService

    from perfbench import pins
    from perfbench.common import is_gold
    from perfbench.stress_http import ROWS, stress_base

    test = Corpus.default().test
    oracle = TaskOracle()
    services = {sid: TranslationService(build_sheet(sid)) for sid in SHEET_ORDER}
    top1, gold = [], []
    for d in test:
        top = services[d.sheet_id].translate(d.text).top
        top1.append(str(top.program) if top is not None else None)
        gold.append(is_gold(oracle, d, top))
    pins.write("table2.json", [d.text for d in test], top1=top1, gold=gold)
    print(f"table2: {sum(gold)}/{len(gold)} top-1 equal the TaskOracle gold")

    workbook = stress_base()
    sentences = stress_sentences(workbook)
    service = TranslationService(workbook)
    answers = [str(service.translate(s).top.program) for s in sentences]
    pins.write("stress.json", sentences, rows=ROWS, top1=answers)
    for sentence, answer in zip(sentences, answers):
        print(f"stress: {sentence!r} -> {answer}")


if __name__ == "__main__":
    main()
