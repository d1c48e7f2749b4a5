"""``stress-http``: the served stack on the 10k-row stress sheet.

``stress_workbook(10_000)`` is the default workbook of a
``TranslationGateway(workers=2)`` with its cache off, behind an
``HttpServer`` on a loopback port.  One closed-loop keep-alive
connection sends ``stress_sentences`` in a seeded order.  Translation
is a few ms here; most of a request is the workbook shipped to a worker
on every call, admission, and HTTP, which is what this workload prices.

Each request and each set-up is paired with the reference loop of
``hostspeed``, run just before it while the stack is idle, and reported
on the reference host's scale; the wall-clock quantiles are printed in
the ``row`` line.  The run pins itself, and so its server threads and
the workers it forks, to one CPU: a probe and the request after it then
run on the same core, and one connection keeps the stack idle while the
probe runs.  Wall-clock timings of this workload moved by 40% within
one hour on a shared 2-vCPU host, as the host's speed changed.
"""

from __future__ import annotations

import asyncio
import http.client
import itertools
import json
import os
import threading

from repro.dataset import stress_sentences, stress_workbook
from repro.http import HttpServer
from repro.obs import Tracer
from repro.runtime.service import TranslationService
from repro.serve import TranslationGateway

from . import pins
from .common import (
    Outcome, Report, end_to_end, layer_defaults, perf, serve_layers,
    sheet_layers, span_layers,
)
from .hostspeed import paired, probe
from .inputs import stress_sequence
from .layers import SpanLedger
from .metrics import percentile

SETUPS = 5  # set-ups per untraced run; setup_s is their median
ROWS = 10_000
WARM_CONNECTIONS = 2  # set-up sends one cold request per worker at once
WORKERS = 2
WARM_SENTENCE = "total the quantity"
# Requests per second of ``--seconds`` the traced run replays per side.
TRACE_PER_SECOND = 20


def stress_base():
    """The stress workbook at the dataset's default seed (its sentences
    and pinned answers are tied to that content)."""
    return stress_workbook(ROWS)


class _Stack:
    """Gateway + HTTP server on a loopback port, served from a thread."""

    def __init__(self, workbook, tracer=None) -> None:
        self.gateway = TranslationGateway(
            workbook, workers=WORKERS, cache=False, tracer=tracer
        )
        self.server = HttpServer(self.gateway)
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._serve, name="perfbench-http")
        self._thread.start()
        if not self._ready.wait(timeout=60):
            raise RuntimeError("HTTP server did not start")
        self.port = self.server.port

    def _serve(self) -> None:
        async def main() -> None:
            await self.server.start()
            self._ready.set()
            await self.server.serve_forever()

        asyncio.run(main())

    def close(self) -> None:
        self.server.request_stop()
        self._thread.join(timeout=30)
        self.gateway.close(drain=True, timeout=30)
        if self._thread.is_alive():
            raise RuntimeError("HTTP server thread did not stop")


class _Client:
    """One keep-alive connection."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def translate(self, sentence: str, trace_id: str) -> tuple[int, dict]:
        self.conn.request(
            "POST", "/translate",
            body=json.dumps({"sentence": sentence}),
            headers={"Content-Type": "application/json", "X-Repro-Trace-Id": trace_id},
        )
        response = self.conn.getresponse()
        return response.status, json.loads(response.read())

    def close(self) -> None:
        self.conn.close()


def _in_parallel(clients, work) -> None:
    """Run ``work(client)`` on every client at once; re-raise the first error."""
    errors: list[BaseException] = []

    def body(client) -> None:
        try:
            work(client)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=body, args=(c,)) for c in clients]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def _set_up(base, tracer=None):
    """Start a stack on a fresh copy of ``base``; both workers take one
    cold request.  Returns (stack, clients, seconds)."""
    workbook = base.clone()  # a fresh copy, so no memoised fingerprint
    t0 = perf()
    stack = _Stack(workbook, tracer)
    clients = [_Client(stack.port) for _ in range(WARM_CONNECTIONS)]
    try:
        for _ in range(10):
            _in_parallel(clients, lambda c: c.translate(WARM_SENTENCE, "perfbench-warm"))
            if all(w.served for w in stack.gateway.stats().workers):
                return stack, clients, perf() - t0
        raise RuntimeError("set-up could not reach every worker")
    except BaseException:
        _close(stack, clients)
        raise


def _pin_to_one_cpu() -> None:
    """Keep this process, the threads it starts and the workers it forks
    on one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _drive(client, sentences, sequence, stop: float | None, limit: int | None):
    """Closed loop on one connection: each request is sent, right after a
    reference probe, as soon as the previous one is answered, until
    ``stop`` (a clock time) or ``limit`` requests.  Returns records
    ``(k, sentence index, latency, status, body, probe time)``."""
    records: list[tuple[int, int, float, int, dict, float]] = []
    for k in itertools.count():
        if (limit is not None and k >= limit) or (stop is not None and perf() >= stop):
            return records
        which = sequence[k % len(sequence)]
        reference = probe()
        t0 = perf()
        status, body = client.translate(sentences[which], f"pb-{k}")
        records.append((k, which, perf() - t0, status, body, reference))


def _outcomes(records, reference, gold, problems) -> list[Outcome]:
    outcomes = []
    for k, which, latency, status, body, probe_s in records:
        result = body.get("result") or {}
        programs = result.get("programs") or []
        top1 = programs[0][0] if programs else None
        ok = status == 200 and bool(result.get("ok"))
        match = top1 == reference[which]
        if ok and not match:
            problems.append(f"stress-http #{k}: served {top1!r}, in-process {reference[which]!r}")
        outcomes.append(Outcome(
            paired(latency, probe_s), ok, result.get("error_code") or (None if ok else f"http_{status}"),
            top1, key=which, match=match, gold=top1 == gold[which],
            warm=bool((body.get("serving") or {}).get("warm")),
        ))
    return outcomes


def _close(stack, clients) -> None:
    for client in clients:
        client.close()
    stack.close()


def run(seed: int, seconds: float, trace: bool) -> Report:
    base = stress_base()
    sentences = stress_sentences(base)
    gold = pins.load_stress(sentences)
    sequence = stress_sequence(len(sentences), seed, length=2000 * max(1, round(seconds)))
    problems: list[str] = []
    _pin_to_one_cpu()
    if trace:
        return _traced(base, sentences, sequence, gold, seconds, problems)

    setups = []
    for n in range(SETUPS):
        reference = probe()
        stack, clients, took = _set_up(base)
        setups.append(paired(took, reference))
        if n < SETUPS - 1:
            _close(stack, clients)
    try:
        records = _drive(clients[0], sentences, sequence, perf() + seconds, None)
    finally:
        _close(stack, clients)
    # The reference runs only now: translating in this process before the
    # workers fork would hand them warm caches a real server never has.
    _, tops = _reference(base, sentences)
    outcomes = _outcomes(records, [str(t.program) for t in tops], gold, problems)
    # One client's rate, from the paired latencies (the probes take time too).
    throughput = sum(o.ok for o in outcomes) / sum(o.latency for o in outcomes)
    report = Report(end_to_end(outcomes, throughput, setups), outcomes, problems)
    wall = [r[2] for r in records]
    report.extra["wall_p50_ms"] = round(1000 * percentile(wall, 0.50), 4)
    report.extra["wall_p95_ms"] = round(1000 * percentile(wall, 0.95), 4)
    report.extra["probe_p50_ms"] = round(1000 * percentile([r[5] for r in records], 0.50), 4)
    return report


def _reference(base, sentences):
    """An in-process service on a copy of ``base`` and its top candidate
    for each sentence."""
    service = TranslationService(base.clone())
    return service, [service.translate(s).top for s in sentences]


def _traced(base, sentences, sequence, gold, seconds, problems) -> Report:
    """The same fixed prefix on an untraced stack, then on a traced one."""
    limit = TRACE_PER_SECOND * max(1, round(seconds))
    stack, clients, _ = _set_up(base)
    try:
        plain = _drive(clients[0], sentences, sequence, None, limit)
    finally:
        _close(stack, clients)
    tracer = Tracer(max_spans=2_000_000)
    stack, clients, _ = _set_up(base, tracer)
    tracer.clear()  # keep only the measured requests' spans
    try:
        records = _drive(clients[0], sentences, sequence, None, limit)
    finally:
        _close(stack, clients)
    if tracer.dropped:
        problems.append(f"tracer dropped {tracer.dropped} spans")

    service, tops = _reference(base, sentences)
    reference = [str(t.program) for t in tops]
    _outcomes(plain, reference, gold, problems)
    outcomes = _outcomes(records, reference, gold, problems)
    ledger = SpanLedger(tracer.finished())
    metrics = layer_defaults()
    span_layers(ledger, metrics)
    served = ledger.by_trace("gateway.request")
    client_s = sum(r[2] for r in records)
    metrics["http.overhead_ms"] = 1000 * sum(
        latency - served.get(f"pb-{k}", 0.0) for k, _, latency, *_ in records
    ) / len(records)
    metrics["http.non200"] = float(sum(r[3] != 200 for r in records))
    metrics["service.degraded_ratio"] = sum(
        bool((r[4].get("result") or {}).get("degraded")) for r in records
    ) / len(records)
    metrics["gateway.warm_ratio"] = sum(o.warm for o in outcomes) / len(outcomes)
    metrics["gateway.cold_loads"] = float(sum(not o.warm for o in outcomes))
    metrics["trace.overhead_ratio"] = client_s / sum(r[2] for r in plain) - 1

    excel = []
    for top in tops:
        t0 = perf()
        top.excel(service.workbook)
        excel.append(perf() - t0)
    metrics["dsl.excel_ms"] = 1000 * sum(excel) / len(excel)
    sheet_layers(base.clone, sentences[0], metrics)
    serve_layers(base.clone(), metrics)
    report = Report(metrics, outcomes, problems)
    report.lines = ledger.table(len(records), client_s)
    return report
