"""Metric names, units and the small statistics the benchmark reports.

This module imports nothing from the program under test, so the
benchmark's own tests can check the names without building anything.
"""

from __future__ import annotations

import math

# Latency limit for ``slo_ok_ratio``: an answer that still feels interactive.
SLO_LIMIT_S = 0.100

# Every timing below is paired with the reference loop of ``hostspeed``
# and given on the reference host's scale (``hostspeed.paired``).
END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "throughput_rps": "1/s",
    "slo_ok_ratio": "ratio",
    "top1_accuracy": "ratio",
    "answer_match_ratio": "ratio",
    "setup_s": "s",
}

PER_LAYER = {
    "translate.tokenize_ms": "ms",
    "translate.seeds_ms": "ms",
    "translate.rules_ms": "ms",
    "translate.synthesis_ms": "ms",
    "translate.rank_ms": "ms",
    "translate.unattributed_ms": "ms",
    "translate.rule_calls": "count/req",
    "translate.synthesis_calls": "count/req",
    "translate.derivations": "count/req",
    "service.overhead_ms": "ms",
    "service.degraded_ratio": "ratio",
    "sheet.fingerprint_ms": "ms",
    "sheet.columnar_build_ms": "ms",
    "sheet.translator_build_ms": "ms",
    "serve.payload_bytes": "bytes",
    "serve.pickle_ms": "ms",
    "serve.unpickle_ms": "ms",
    "gateway.queue_wait_ms": "ms",
    "gateway.pipe_ms": "ms",
    "gateway.front_ms": "ms",
    "gateway.warm_ratio": "ratio",
    "gateway.cold_loads": "count",
    "http.overhead_ms": "ms",
    "http.non200": "count",
    "dsl.excel_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1]) of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2
