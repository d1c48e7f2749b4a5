"""The repository's benchmark: one command, two workloads.

Run from the repository root::

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 45 --trace 0

Workloads (each is a pure function of ``--seed``; see ``inputs.py``):

* ``table2`` — the translation DP in process over the Table 2 test split;
  its timings are paired with a reference loop (``hostspeed.py``), which
  cancels the host's drifting speed;
* ``stress-http`` — HTTP → gateway → worker on the 10k-row stress sheet;
  its timings are wall-clock.

``--trace 0`` measures the end-to-end metrics (``metrics.END_TO_END``)
with tracing off.  ``--trace 1`` is the separate traced run: it replays
the workload once untraced and once with a ``repro.obs.Tracer`` passed
through the public ``tracer=`` arguments, prints a per-layer self-time
table in which each parent span's remainder is shown as
``(unattributed)``, and reports the per-layer metrics
(``metrics.PER_LAYER``).  A layer the workload bypasses reports 0.  The
traced run replays a fixed prefix of the seeded requests, so its counts
repeat exactly for a seed.

Every run checks the answers.  Standard output carries the report, a
``row`` line recording the commit, Python, ``nproc``, numpy and the
seed with the request accounting, and as its last line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from importlib.util import find_spec
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("table2", "stress-http")


def _source_digest() -> str:
    """sha256 over the program's source files: identifies the code even
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _commit() -> str | None:
    if not (ROOT / ".git").exists():  # not a clone: do not pick up an outer repository
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _stop_children() -> None:
    """Wait for every worker process the run started (and end stragglers)."""
    import multiprocessing

    for child in multiprocessing.active_children():
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join(timeout=10)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from perfbench import stress_http, table2
    from perfbench.common import check_names
    from perfbench.metrics import END_TO_END, PER_LAYER

    modules = {"table2": table2, "stress-http": stress_http}
    try:
        report = modules[args.workload].run(args.seed, args.seconds, bool(args.trace))
    finally:
        _stop_children()
    check_names(report.metrics, bool(args.trace))
    units = PER_LAYER if args.trace else END_TO_END

    accounting = report.accounting()
    row = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "numpy": find_spec("numpy") is not None,
        **accounting,
        **report.extra,
    }
    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    for line in report.lines:
        print(line)
    for name, value in report.metrics.items():
        print(f"  {name:<28} {value:>14.4f} {units[name]}")
    for problem in report.problems[:20]:
        print(f"  PROBLEM: {problem}")
    print("row " + json.dumps(row, sort_keys=True))
    print(json.dumps({
        "correct": not report.problems,
        "attempted": accounting["attempted"],
        "failed": accounting["attempted"] - accounting["succeeded"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in report.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
