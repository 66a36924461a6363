"""Benchmark for rimtori: one closed-loop client, four workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload query_mix --seed 1 --seconds 20 --trace 0

The command imports rimtori from the checkout's ``src`` directory and
nothing else from the repository.  One client in one process issues each
item after the previous one has finished; only the call into rimtori is
timed, and every output is checked outside that timing.  The run keeps
issuing items until the timed calls add up to ``--seconds`` and then
finishes the round it is in, so every run holds whole rounds of the
workload's fixed mix of input sizes.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` instead runs the
first rounds of the workload three times from a fresh set-up: untraced,
traced, and traced again.  It reports the per-layer metrics of the first
traced pass, fails unless both traced passes give the same deterministic
counters and the same outputs as the untraced pass, and writes the spans
to ``.bench_out/``.  The last line of standard output is always the JSON
result; the lines before it list the same numbers for a reader.  See
``bench/README.md`` for what each metric means and which change should
move it.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

from spans import LAYERS, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_REPEATS = 5


def import_rimtori():
    """Import a fresh copy of rimtori and every layer module from ``src``."""
    for name in [m for m in sys.modules if m == "rimtori" or m.startswith("rimtori.")]:
        del sys.modules[name]
    rt = importlib.import_module("rimtori")
    for layer in LAYERS:
        importlib.import_module(f"rimtori.{layer}")
    if Path(rt.__file__).resolve().parent != SRC / "rimtori":
        raise SystemExit(f"error: imported rimtori from {rt.__file__}, not from {SRC}")
    return rt


def rank_of(p: float, count: int) -> int:
    """1-based nearest rank of the p-th quantile among ``count`` values."""
    return max(1, math.ceil(p * count))


def run_item(workload, item):
    """The timed call; returns (output, CPU seconds, whether it raised)."""
    start = time.thread_time_ns()
    try:
        output, raised = workload.run(item), False
    except Exception:  # any failure of the library counts as a failed item
        output, raised = None, True
    return output, (time.thread_time_ns() - start) / 1e9, raised


def checked(workload, item, output) -> bool:
    try:
        return bool(workload.check(item, output))
    except Exception:  # a malformed output fails its check
        return False


def measure(name: str, seed: int, seconds: float) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.thread_time()
        rt = import_rimtori()
        workload = WORKLOADS[name](rt, ROOT, seed)
        setups.append(time.thread_time() - start)

    latencies, failed, busy = [], 0, 0.0
    stream = workload.items()
    while busy < seconds or len(latencies) % workload.round_items:
        item = next(stream)
        output, elapsed, raised = run_item(workload, item)
        busy += elapsed
        latencies.append(elapsed)
        failed += raised or not checked(workload, item, output)
    attempted = len(latencies)
    latencies.sort()
    tail = workload.tail_percentile
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_items_s": ((attempted - failed) / busy, "1/s"),
        "latency_p50_ms": (latencies[rank_of(0.5, attempted) - 1] * 1e3, "ms"),
        "latency_tail_ms": (latencies[rank_of(tail, attempted) - 1] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"{name}: {attempted} items in {busy:.3f} s of calls; latency_tail_ms is p{tail * 100:g},"
          f" {attempted - rank_of(tail, attempted)} items beyond it")
    print(f"failed_frac {failed / attempted:.6g} (failed {failed} of {attempted})")
    return result(workload.known_answers_ok and failed == 0, attempted, failed, metrics)


def trace(name: str, seed: int) -> dict:
    rt = import_rimtori()
    cls = WORKLOADS[name]

    def one_pass(tracer=None):
        start = time.thread_time()
        if tracer is not None:
            tracer.install()
        try:
            workload = cls(rt, ROOT, seed)
            items = list(itertools.islice(workload.items(),
                                          workload.round_items * workload.trace_rounds))
            outputs = [run_item(workload, item) for item in items]
        finally:
            if tracer is not None:
                tracer.remove()
        return workload, items, outputs, time.thread_time() - start

    workload, items, plain, plain_s = one_pass()
    first, second = Tracer(rt), Tracer(rt)
    _, _, traced, traced_s = one_pass(first)
    _, _, again, _ = one_pass(second)

    failed = 0
    for item, *runs in zip(items, plain, traced, again):
        if any(raised for _, _, raised in runs):
            failed += 1
            continue
        prints = {workload.fingerprint(out) for out, _, _ in runs}
        failed += not (len(prints) == 1 and checked(workload, item, runs[0][0]))
    repeatable = first.counters() == second.counters()

    metrics = first.layer_metrics()
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1, "ratio")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{name}-{seed}.json"
    path.write_text(json.dumps(first.dump(), separators=(",", ":")))
    print(f"{name}: traced {len(items)} items after a fresh set-up; spans in {path.relative_to(ROOT)}")
    print(f"deterministic counters repeat: {repeatable}")
    return result(workload.known_answers_ok and repeatable and failed == 0,
                  len(items), failed, metrics)


def result(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    for key, (value, unit) in metrics.items():
        print(f"{key} {value:.6g} {unit}")
    return {"correct": bool(correct), "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "rimtori" / "__init__.py").is_file():
        print(f"error: no rimtori sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.trace:
        outcome = trace(args.workload, args.seed)
    else:
        outcome = measure(args.workload, args.seed, args.seconds)
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
