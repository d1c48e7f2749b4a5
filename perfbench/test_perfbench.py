"""The benchmark's own checks.  Run with ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import re
from pathlib import Path

from perfbench.hostspeed import REFERENCE_S, paired
from perfbench.inputs import stress_sequence, table2_order
from perfbench.layers import SpanLedger
from perfbench.metrics import END_TO_END, PER_LAYER

TEXTS = [" ".join(["word"] * (1 + i % 17)) + f" {i}" for i in range(300)]


def _sequences(seed: int):
    return (
        table2_order(TEXTS, seed),
        stress_sequence(12, seed, 500),
    )


def test_same_seed_same_requests():
    assert _sequences(7) == _sequences(7)


def test_other_seed_other_requests():
    for a, b in zip(_sequences(7), _sequences(8)):
        assert a != b


def test_table2_order_visits_every_description_once():
    assert sorted(table2_order(TEXTS, 3)) == list(range(len(TEXTS)))


def test_paired_time_is_on_the_reference_scale():
    assert paired(0.010, REFERENCE_S) == 0.010
    assert paired(0.010, 2 * REFERENCE_S) == 0.005


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    pattern = re.compile(r"[A-Za-z0-9_.-]+")
    names = list(END_TO_END) + list(PER_LAYER)
    assert all(pattern.fullmatch(name) for name in names)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def test_self_time_subtracts_the_union_of_children():
    def span(name, sid, parent, start, end):
        return {"name": name, "span_id": sid, "parent_id": parent, "trace_id": "t",
                "start": start, "end": end, "attrs": {}}

    ledger = SpanLedger([
        span("root", "a", None, 0.0, 10.0),
        span("child", "b", "a", 1.0, 4.0),
        span("child", "c", "a", 3.0, 6.0),  # overlaps b
        span("leaf", "d", "c", 3.0, 3.5),
    ])
    assert ledger.self_s["root"] == 5.0
    assert ledger.self_s["child"] == 3.0 + 2.5
    assert ledger.self_s["leaf"] == 0.5
    assert ledger.count["child"] == 2
