"""``table2``: the translation DP alone, in process, over the Table 2 split.

One :class:`TranslationService` per paper sheet, no cache, no deadline,
one closed-loop client walking the test split once, in a seeded
stratified order.  HTTP, cluster, gateway and cache are bypassed, so a serving
change should leave this workload unchanged.

Every timing here (each translation and each set-up) is paired with the
reference loop of ``hostspeed`` and reported on the reference host's
scale; the wall-clock quantiles are printed in the ``row`` line.
"""

from __future__ import annotations

import multiprocessing

from repro.dataset import SHEET_ORDER, Corpus, build_sheet
from repro.evalkit.metrics import TaskOracle
from repro.obs import Tracer
from repro.runtime.service import TranslationService

from . import pins
from .common import (
    Outcome, Report, end_to_end, is_gold, layer_defaults, paper_sheet_layers,
    perf, span_layers, warm_sentences,
)
from .hostspeed import paired, probe
from .inputs import table2_order
from .layers import SpanLedger
from .metrics import percentile

SETUPS = 9  # set-ups per untraced run, each in a fresh process; setup_s is their median
# Descriptions per second of ``--seconds`` the traced run replays; the
# traced run is a fixed prefix so its counts repeat exactly for a seed.
TRACE_PER_SECOND = 6


def _set_up(warm: dict[str, str]) -> tuple[dict, dict, float]:
    workbooks = {sid: build_sheet(sid) for sid in SHEET_ORDER}
    t0 = perf()
    services = {sid: TranslationService(workbooks[sid]) for sid in SHEET_ORDER}
    for sid in SHEET_ORDER:
        services[sid].translate(warm[sid])
    return workbooks, services, perf() - t0


def _report_set_up(warm: dict[str, str], conn) -> None:
    reference = probe()
    conn.send(paired(_set_up(warm)[2], reference))
    conn.close()


def _cold_set_ups(warm: dict[str, str]) -> list[float]:
    """Set-up times (paired), each taken in a freshly forked process.

    Set-up fills process-wide state (the built-in rule list, the template
    memos), so only the first set-up in a process is cold.  The children
    are forked before this process translates anything, so each starts
    from that cold state and a slower cold start shows in ``setup_s``.
    """
    ctx = multiprocessing.get_context("fork")
    times = []
    for _ in range(SETUPS):
        recv, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_report_set_up, args=(warm, send))
        child.start()
        send.close()
        try:
            times.append(recv.recv())
        except EOFError:
            raise RuntimeError(f"set-up process failed (exit code {child.exitcode})") from None
        finally:
            child.join()
    return times


class _Checker:
    """Top-1 against the pinned answers and the ``TaskOracle`` gold."""

    def __init__(self, test) -> None:
        self.test = test
        self.pinned_top1, self.pinned_gold = pins.load_table2([d.text for d in test])
        self.oracle = TaskOracle()
        self.problems: list[str] = []

    def outcome(self, index: int, latency: float, result) -> Outcome:
        d = self.test[index]
        top = result.top
        top1 = str(top.program) if top is not None else None
        gold = is_gold(self.oracle, d, top)
        if self.pinned_gold[index] and not gold:
            self.problems.append(f"table2 #{index}: top-1 lost the gold program ({d.text!r})")
        return Outcome(
            latency, result.ok, result.error_code, top1, key=index,
            match=top1 == self.pinned_top1[index], gold=gold,
        )


def run(seed: int, seconds: float, trace: bool) -> Report:
    corpus = Corpus.default()
    test = corpus.test
    order = table2_order([d.text for d in test], seed)
    warm = warm_sentences(corpus)
    if trace:
        return _traced(order, test, warm, _Checker(test), seconds)

    setups = _cold_set_ups(warm)  # before anything here warms the caches
    checker = _Checker(test)
    _, services, _ = _set_up(warm)
    # At most one pass over the split: a second visit would find warm
    # per-sentence caches and measure something else.
    timed: list[tuple[int, float, float, object]] = []
    start = perf()
    stop = start + seconds
    for index in order:
        if perf() >= stop:
            break
        d = test[index]
        reference = probe()
        t0 = perf()
        result = services[d.sheet_id].translate(d.text)
        timed.append((index, perf() - t0, reference, result))
    outcomes = [
        checker.outcome(i, paired(latency, reference), r) for i, latency, reference, r in timed
    ]
    # One client's rate, from the paired latencies (the probes take time too).
    throughput = sum(o.ok for o in outcomes) / sum(o.latency for o in outcomes)
    report = Report(end_to_end(outcomes, throughput, setups), outcomes, checker.problems)
    wall = [latency for _, latency, _, _ in timed]
    report.extra["wall_p50_ms"] = round(1000 * percentile(wall, 0.50), 4)
    report.extra["wall_p95_ms"] = round(1000 * percentile(wall, 0.95), 4)
    report.extra["probe_p50_ms"] = round(1000 * percentile([t[2] for t in timed], 0.50), 4)
    report.extra["top1_correct"] = sum(o.gold for o in outcomes)
    report.extra["top1_pinned"] = sum(checker.pinned_gold[t[0]] for t in timed)
    return report


def _traced(order, test, warm, checker, seconds: float) -> Report:
    """Untraced and traced services side by side over the same prefix.

    Each description runs once on each side, alternating which side goes
    first, so warm process-wide caches favour neither; the ratio of the
    two summed latencies is the tracing overhead.
    """
    prefix = order[: max(1, min(len(order), TRACE_PER_SECOND * round(seconds)))]
    _, plain, _ = _set_up(warm)
    workbooks, traced, _ = _set_up(warm)
    tracer = Tracer(max_spans=2_000_000)
    outcomes: list[Outcome] = []
    results = []
    sums = {False: 0.0, True: 0.0}
    for n, index in enumerate(prefix):
        d = test[index]
        for with_trace in ((True, False) if n % 2 else (False, True)):
            service = (traced if with_trace else plain)[d.sheet_id]
            t0 = perf()
            result = service.translate(d.text, tracer=tracer if with_trace else None)
            latency = perf() - t0
            sums[with_trace] += latency
            outcome = checker.outcome(index, latency, result)
            if with_trace:
                outcomes.append(outcome)
                results.append((d.sheet_id, result))
    if tracer.dropped:
        checker.problems.append(f"tracer dropped {tracer.dropped} spans")
    ledger = SpanLedger(tracer.finished())
    metrics = layer_defaults()
    span_layers(ledger, metrics)
    metrics["service.degraded_ratio"] = sum(r.degraded for _, r in results) / len(results)
    metrics["trace.overhead_ratio"] = sums[True] / sums[False] - 1
    excel = []
    for sid, result in results:
        if result.top is not None:
            t0 = perf()
            result.top.excel(workbooks[sid])
            excel.append(perf() - t0)
    metrics["dsl.excel_ms"] = 1000 * sum(excel) / max(1, len(excel))
    paper_sheet_layers(warm, metrics)
    report = Report(metrics, outcomes, checker.problems)
    report.lines = ledger.table(len(prefix), sums[True])
    return report
