"""What the three workloads share: outcomes, accounting, metric assembly."""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

from repro.dataset import SHEET_ORDER, Corpus, build_sheet
from repro.evalkit.canonical import canonicalize
from repro.runtime.service import TranslationService
from repro.serve.fingerprint import load_payload, workbook_payload

from .layers import SpanLedger
from .metrics import END_TO_END, PER_LAYER, SLO_LIMIT_S, median, percentile

perf = time.perf_counter

# Codes meaning the serving tier refused the request rather than failing it.
SHED_CODES = frozenset(
    {"shed_overload", "circuit_open", "gateway_closed", "cluster_closed", "shard_down"}
)


@dataclass
class Outcome:
    """One request as the client saw it."""

    latency: float  # seconds
    ok: bool
    code: str | None
    top1: str | None
    key: object = None  # the input's identity: one per distinct request
    match: bool = False  # top-1 equals the reference answer
    gold: bool = False  # top-1 is the oracle's gold program
    warm: bool = True


@dataclass
class Report:
    """Everything one run prints."""

    metrics: dict[str, float]
    outcomes: list[Outcome]
    problems: list[str] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def accounting(self) -> dict:
        codes = Counter(o.code or "unknown" for o in self.outcomes if not o.ok)
        shed = sum(n for code, n in codes.items() if code in SHED_CODES)
        ok = sum(o.ok for o in self.outcomes)
        return {
            "attempted": len(self.outcomes),
            "succeeded": ok,
            "failed": len(self.outcomes) - ok - shed,
            "shed": shed,
            "error_codes": dict(sorted(codes.items())),
        }


def is_gold(oracle, description, top) -> bool:
    """Whether the top candidate canonicalizes to the ``TaskOracle`` gold
    program for ``description``: the one verdict the pins and the live
    checks share."""
    return top is not None and (
        canonicalize(top.program, oracle.workbook(description.sheet_id))
        == oracle.gold(description.task_id)
    )


def end_to_end(outcomes: list[Outcome], throughput: float, setups: list[float]) -> dict:
    """The user-visible metrics over one measured window."""
    served = [o.latency for o in outcomes if o.ok] or [float("nan")]
    n = len(outcomes)
    # Accuracy counts each distinct input once, so a popular description
    # does not outweigh the rest of the mix.
    gold: dict = {}
    for o in outcomes:
        gold[o.key] = gold.get(o.key, True) and o.gold
    return {
        "latency_p50_ms": 1000 * percentile(served, 0.50),
        "latency_p95_ms": 1000 * percentile(served, 0.95),
        "throughput_rps": throughput,
        "slo_ok_ratio": sum(o.ok and o.latency <= SLO_LIMIT_S for o in outcomes) / n,
        "top1_accuracy": sum(gold.values()) / len(gold),
        "answer_match_ratio": sum(o.match for o in outcomes) / n,
        "setup_s": median(setups),
    }


def layer_defaults() -> dict[str, float]:
    """Every per-layer metric at 0: a layer the workload bypasses stays 0."""
    return {name: 0.0 for name in PER_LAYER}


def span_layers(ledger: SpanLedger, out: dict[str, float]) -> None:
    """Fill the translate/service/gateway metrics from traced spans.

    Translation metrics are per request that reached a translation
    service; gateway metrics per request that reached a gateway.
    """
    n = ledger.count.get("service.request", 0)
    if n:
        for stage in ("tokenize", "seeds", "rules", "synthesis", "rank"):
            out[f"translate.{stage}_ms"] = 1000 * ledger.self_s.get(f"translate.{stage}", 0.0) / n
        out["translate.unattributed_ms"] = 1000 * ledger.self_s.get("translate", 0.0) / n
        out["translate.rule_calls"] = ledger.count.get("translate.rules", 0) / n
        out["translate.synthesis_calls"] = ledger.count.get("translate.synthesis", 0) / n
        out["translate.derivations"] = ledger.attr_sum("service.tier", "derivations") / n
        out["service.overhead_ms"] = 1000 * (
            ledger.duration_s["service.request"] - ledger.duration_s.get("translate", 0.0)
        ) / n
    g = ledger.count.get("gateway.request", 0)
    if g:
        request = ledger.duration_s["gateway.request"]
        queue = ledger.duration_s.get("gateway.queue", 0.0)
        call = ledger.duration_s.get("gateway.worker_call", 0.0)
        worker = ledger.duration_s.get("worker.translate", 0.0)
        out["gateway.queue_wait_ms"] = 1000 * queue / g
        out["gateway.pipe_ms"] = 1000 * (call - worker) / g
        out["gateway.front_ms"] = 1000 * (request - call - queue) / g


def sheet_layers(fresh, sentence: str, out: dict[str, float]) -> None:
    """Time the sheet layer on fresh workbooks from ``fresh()``: the content
    hash, the columnar index, and a first translation (translator build)."""
    wb = fresh()
    t0 = perf()
    wb.fingerprint()
    out["sheet.fingerprint_ms"] = 1000 * (perf() - t0)
    wb = fresh()
    t0 = perf()
    wb.columnar_index()
    out["sheet.columnar_build_ms"] = 1000 * (perf() - t0)
    wb = fresh()
    t0 = perf()
    TranslationService(wb).translate(sentence)
    out["sheet.translator_build_ms"] = 1000 * (perf() - t0)


def serve_layers(workbook, out: dict[str, float]) -> None:
    """Time the gateway's workbook transport on ``workbook``."""
    t0 = perf()
    payload = workbook_payload(workbook)
    out["serve.pickle_ms"] = 1000 * (perf() - t0)
    t0 = perf()
    load_payload(payload)
    out["serve.unpickle_ms"] = 1000 * (perf() - t0)
    out["serve.payload_bytes"] = float(len(payload))


def paper_sheet_layers(warm: dict[str, str], out: dict[str, float]) -> None:
    """Sheet layers, averaged over the four paper sheets."""
    rows = []
    for sid in SHEET_ORDER:
        m: dict[str, float] = {}
        sheet_layers(lambda: build_sheet(sid), warm[sid], m)
        rows.append(m)
    for name in rows[0]:
        out[name] = sum(m[name] for m in rows) / len(rows)


def warm_sentences(corpus: Corpus) -> dict[str, str]:
    """One training-split description per sheet, used to warm services in
    set-up.  None of them occurs in the test split, so warming never
    pre-answers a measured request."""
    test = {d.text for d in corpus.test}
    return {
        sid: next(d.text for d in corpus.train if d.sheet_id == sid and d.text not in test)
        for sid in SHEET_ORDER
    }


def check_names(metrics: dict[str, float], trace: bool) -> None:
    expected = PER_LAYER if trace else END_TO_END
    if set(metrics) != set(expected):
        raise RuntimeError(f"metric set drifted: {sorted(set(metrics) ^ set(expected))}")
