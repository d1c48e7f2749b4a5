"""Per-layer self time from a :class:`repro.obs.Tracer`'s finished spans.

A span's self time is its duration minus the part of its interval that
its child spans cover.  Summed over every span of a request, self times
add up to the root span's duration, so nothing is hidden: whatever a
parent span does outside its children shows up as that parent's self
time and is printed as its ``unattributed`` remainder.
"""

from __future__ import annotations

from collections import defaultdict


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


class SpanLedger:
    """Self time, duration and count per span name over a set of records."""

    def __init__(self, records: list[dict]) -> None:
        self.records = records
        children: dict[str, list[tuple[float, float]]] = defaultdict(list)
        for r in records:
            if r.get("parent_id") is not None and r.get("end") is not None:
                children[r["parent_id"]].append((r["start"], r["end"]))
        self.self_s: dict[str, float] = defaultdict(float)
        self.duration_s: dict[str, float] = defaultdict(float)
        self.count: dict[str, int] = defaultdict(int)
        self.parents: set[str] = set()  # names whose self time is a remainder
        for r in records:
            if r.get("end") is None:
                continue
            name = r["name"]
            duration = r["end"] - r["start"]
            kids = children.get(r["span_id"], ())
            if kids:
                self.parents.add(name)
            self.duration_s[name] += duration
            self.self_s[name] += duration - _covered(r["start"], r["end"], kids)
            self.count[name] += 1

    def attr_sum(self, name: str, key: str) -> float:
        return sum(
            float(r["attrs"].get(key) or 0)
            for r in self.records
            if r["name"] == name
        )

    def by_trace(self, name: str) -> dict[str, float]:
        """Summed duration of ``name`` spans per trace id."""
        out: dict[str, float] = defaultdict(float)
        for r in self.records:
            if r["name"] == name and r.get("end") is not None:
                out[r["trace_id"]] += r["end"] - r["start"]
        return out

    def table(self, requests: int, client_s: float) -> list[str]:
        """The per-layer self-time table, one line per span name.

        ``client_s`` is the summed client-side latency of the traced
        requests; the part no span covers is printed as
        ``client.unattributed``.
        """
        roots = sum(
            r["end"] - r["start"]
            for r in self.records
            if r.get("parent_id") is None and r.get("end") is not None
        )
        lines = [
            f"  {'layer (self time)':<36} {'spans':>8} {'ms/request':>11} {'share':>7}"
        ]
        rows = sorted(self.self_s.items(), key=lambda kv: -kv[1])
        rows.append(("client.unattributed", max(0.0, client_s - roots)))
        for name, seconds in rows:
            label = f"{name} (unattributed)" if name in self.parents else name
            lines.append(
                f"  {label:<36} {self.count.get(name, '-'):>8} "
                f"{1000 * seconds / max(1, requests):>11.4f} "
                f"{seconds / client_s if client_s else 0.0:>7.1%}"
            )
        return lines
