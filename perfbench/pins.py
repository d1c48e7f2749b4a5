"""Answers pinned at the commit that defined the benchmark.

``pins/table2.json`` holds, for every description of the Table 2 test
split, the in-process top-1 program and whether it canonicalizes to the
``TaskOracle`` gold.  ``pins/stress.json`` holds the hand-checked top-1
program for each stress-sheet sentence.  The benchmark compares program
strings only; strings are never parsed back into programs.

Regenerate (only in a change that redefines the benchmark) with::

    python3 perfbench/pin.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

PIN_DIR = Path(__file__).resolve().parent / "pins"


def digest(texts: list[str]) -> str:
    return hashlib.sha256("\n".join(texts).encode("utf-8")).hexdigest()


def _load(name: str, texts: list[str]) -> dict:
    data = json.loads((PIN_DIR / name).read_text(encoding="utf-8"))
    if data["inputs_sha256"] != digest(texts):
        raise RuntimeError(f"{name}: the pinned inputs no longer match the dataset")
    return data


def load_table2(texts: list[str]) -> tuple[list[str | None], list[bool]]:
    """(pinned top-1 program, pinned gold verdict) per test description."""
    data = _load("table2.json", texts)
    return data["top1"], data["gold"]


def load_stress(sentences: list[str]) -> list[str]:
    """The hand-checked top-1 program per stress sentence."""
    return _load("stress.json", sentences)["top1"]


def write(name: str, texts: list[str], **fields) -> None:
    body = {"inputs_sha256": digest(texts), **fields}
    (PIN_DIR / name).write_text(json.dumps(body, indent=0) + "\n", encoding="utf-8")
