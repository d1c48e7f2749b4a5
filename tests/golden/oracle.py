"""The golden ranking oracle: what the translator answers, pinned absolutely.

Every ranked answer is reduced to one canonical text and its sha256:

    tier=<tier> code=<error_code>
    <program>\t<score!r>          (one line per ranked candidate)
    excel=<top-1 Excel formula>   (``<error>`` when emission fails)

Both the in-process service (:func:`serialise_service`) and a gateway
reply (:func:`serialise_gateway`) produce this text, so one digest table
checks both; a gateway must be configured with ``top_k`` of at least
:data:`MAX_CANDIDATES` so that its reply carries the whole ranking.

The committed tables in this directory are:

* ``table2.jsonl`` — one record per Table 2 test description (sheet,
  text, digest, top-3, gold rank);
* ``stress.jsonl`` — the same for ``stress_sentences`` over a
  :data:`STRESS_ROWS`-row ``stress_workbook``;
* ``accuracy.json`` — the TaskOracle top-1 / top-3 / recall counts over
  the test split.

``scripts/rebless_golden.py`` regenerates them and prints what moved.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.dataset import (
    Corpus,
    build_sheet,
    stress_sentences,
    stress_workbook,
)
from repro.evalkit import TaskOracle, canonicalize
from repro.runtime import TranslationService
from repro.serve import GatewayConfig, TranslationGateway
from repro.translate import TranslatorConfig

GOLDEN_DIR = Path(__file__).resolve().parent
TABLE2_FILE = GOLDEN_DIR / "table2.jsonl"
STRESS_FILE = GOLDEN_DIR / "stress.jsonl"
ACCURACY_FILE = GOLDEN_DIR / "accuracy.json"

STRESS_ROWS = 2_000
MAX_CANDIDATES = TranslatorConfig().max_results
REBLESS = "re-bless with scripts/rebless_golden.py and list it in CHANGES.md"


def serialise(tier, error_code, programs, top_formula) -> str:
    """The canonical text of one ranked answer.  ``programs`` holds
    ``(program text, score)`` pairs best-first; ``top_formula`` is the
    top-1 Excel formula, ``None`` when emission failed."""
    lines = [f"tier={tier} code={error_code}"]
    lines += [f"{program}\t{score!r}" for program, score in programs]
    if programs:
        excel = "<error>" if top_formula is None else top_formula
        lines.append(f"excel={excel}")
    return "\n".join(lines)


def top_excel(result, workbook) -> str | None:
    if result.top is None:
        return None
    try:
        return result.top.excel(workbook)
    except Exception:  # noqa: BLE001 - an emission failure is pinned too
        return None


def serialise_service(result, workbook) -> str:
    """Canonical text of an in-process :class:`ServiceResult`."""
    return serialise(
        result.tier,
        result.error_code,
        [(str(c.program), c.score) for c in result.candidates],
        top_excel(result, workbook),
    )


def serialise_gateway(result) -> str:
    """Canonical text of a gateway reply (:class:`GatewayResult`)."""
    return serialise(
        result.tier,
        result.error_code,
        result.programs,
        result.top_formula,
    )


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def service_record(result, workbook) -> dict:
    """The digest and top-3 of one in-process answer."""
    return {
        "sha256": digest(serialise_service(result, workbook)),
        "top3": [f"{c.program}\t{c.score!r}" for c in result.candidates[:3]],
    }


def even_sample(items: list, n: int) -> list:
    """``n`` items evenly spread over ``items`` (all of them if n >= len)."""
    if n >= len(items):
        return list(items)
    step = len(items) / n
    return [items[int(k * step)] for k in range(n)]


def table2_split():
    return Corpus.default().test


def table2_pairs() -> list[tuple]:
    """The Table 2 test split, each description paired with its golden
    record; fails when the split no longer matches the committed table."""
    records = load_records(TABLE2_FILE)
    split = table2_split()
    assert [(r["sheet"], r["text"]) for r in records] == [
        (d.sheet_id, d.text) for d in split
    ], f"the Table 2 split changed; {REBLESS}"
    return list(zip(split, records))


def assert_unmoved(pinned: list[dict], produced: list[dict]) -> None:
    """Fail, naming a few examples, if any produced digest differs from
    its pinned record (the two lists are aligned)."""
    moved = [
        (p.get("sheet", "stress"), p["text"], p["top3"][:1], q["top3"][:1])
        for p, q in zip(pinned, produced)
        if p["sha256"] != q["sha256"]
    ]
    assert not moved, (
        f"{len(moved)}/{len(pinned)} rankings moved from the golden oracle "
        f"(sheet, text, pinned top-1, produced top-1), e.g. {moved[:3]}; "
        f"{REBLESS}"
    )


def run_table2(descriptions, oracle: TaskOracle | None = None) -> list[dict]:
    """Translate ``descriptions`` through one fresh service per sheet
    (no cache, no deadline) and return their golden records."""
    oracle = oracle or TaskOracle()
    services: dict[str, TranslationService] = {}
    records = []
    for d in descriptions:
        workbook = oracle.workbook(d.sheet_id)
        service = services.get(d.sheet_id)
        if service is None:
            service = services[d.sheet_id] = TranslationService(workbook)
        result = service.translate(d.text)
        gold = oracle.gold(d.task_id)
        rank = next(
            (
                k
                for k, c in enumerate(result.candidates)
                if canonicalize(c.program, workbook) == gold
            ),
            None,
        )
        records.append(
            {
                "sheet": d.sheet_id,
                "text": d.text,
                **service_record(result, workbook),
                "rank": rank,
            }
        )
    return records


def run_gateway(descriptions, workers: int) -> list[dict]:
    """Translate ``descriptions`` through a ``workers``-process gateway
    (no cache, ``top_k`` = :data:`MAX_CANDIDATES`) and return the golden
    fields of each wire-level reply."""
    sheets = {d.sheet_id for d in descriptions}
    workbooks = {sheet: build_sheet(sheet) for sheet in sheets}
    gateway = TranslationGateway(
        config=GatewayConfig(
            workers=workers, queue_limit=1024, top_k=MAX_CANDIDATES
        )
    )
    try:
        pendings = [
            gateway.submit(d.text, workbooks[d.sheet_id]) for d in descriptions
        ]
        replies = [p.result(timeout=120.0) for p in pendings]
    finally:
        gateway.close(drain=True)
    return [
        {
            "sheet": d.sheet_id,
            "text": d.text,
            "sha256": digest(serialise_gateway(reply)),
            "top3": [f"{p}\t{s!r}" for p, s in reply.programs[:3]],
        }
        for d, reply in zip(descriptions, replies)
    ]


def run_stress() -> list[dict]:
    workbook = stress_workbook(STRESS_ROWS)
    service = TranslationService(workbook)
    records = []
    for text in stress_sentences(workbook):
        result = service.translate(text)
        records.append({"text": text, **service_record(result, workbook)})
    return records


def accuracy(records: list[dict]) -> dict:
    """TaskOracle counts over Table 2 records: top-1, top-3, recall."""
    ranks = [r["rank"] for r in records]
    return {
        "n": len(ranks),
        "top1": sum(1 for k in ranks if k == 0),
        "top3": sum(1 for k in ranks if k is not None and k < 3),
        "recall": sum(1 for k in ranks if k is not None),
    }


def load_records(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def write_records(path: Path, records: list[dict]) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def load_accuracy() -> dict:
    return json.loads(ACCURACY_FILE.read_text())


def write_accuracy(counts: dict) -> None:
    ACCURACY_FILE.write_text(json.dumps(counts, indent=2) + "\n")
