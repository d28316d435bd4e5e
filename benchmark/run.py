"""Closed-loop benchmark of the quadres library.

    python3 benchmark/run.py --workload congruence --seed 1 --seconds 40 --trace 0

Run from the repository root; quadres is imported from src/, as the tests do.
One caller sends requests in a closed loop: each request starts after the
previous one returns. A run repeats the workload until --seconds have passed
(at least three times), each repetition in a fresh worker process so the
lru_caches start cold, as they do for a user. Each end-to-end metric is the
value that nine tenths of the repetitions meet or beat (see `settled`).
Every output is checked, outside the timed loop, by check.py, which does not
import quadres.

--trace 0 prints the end-to-end metrics; --trace 1 runs every repetition
twice, untraced and traced, and prints the per-layer metrics (tracing.py).
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_REPS = 3
SETUP_CMD = [sys.executable, "-c", "import quadres, quadres.cli"]
SETUP_RUNS = 21  # at least; one more runs before each repetition
WORKER_TIMEOUT_S = 150
TAIL_BEYOND = 10  # the tail percentile is the highest with this many samples beyond it


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def host_probe() -> float:
    """Best of three timings of a fixed pure-Python loop, in seconds.

    A diagnostic of host speed only: no metric is ever rescaled by it.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def fresh_import_s(env: dict) -> float:
    """Wall time of a fresh interpreter running `import quadres, quadres.cli`."""
    start = time.perf_counter()
    subprocess.run(SETUP_CMD, env=env, cwd=ROOT, check=True)
    return time.perf_counter() - start


def run_worker(requests, env: dict, spans: Path | None = None) -> dict:
    job = {"requests": [[r.kind, list(r.args)] for r in requests], "spans": spans and str(spans)}
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    k = len(ordered) - TAIL_BEYOND - 1
    return ordered[k], 100 * (k + 1) / len(ordered)


def settled(values, higher_is_better: bool = False) -> float:
    """The value that nine tenths of the samples meet or beat: their slowest decile.

    The shared host alternates, in episodes of 10-25 s, between a contended
    state, in which every repetition runs about 1.6 times slower at a steady
    level, and quieter spells whose speed varies. A median over a run lands
    in whichever state held for most of it, so it jumps between the two from
    run to run; the slowest decile stays at the contended level whenever a
    tenth of the run was contended. A faster program moves it as it moves
    the median.
    """
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return deciles[0] if higher_is_better else deciles[-1]


def end_to_end(reports: list[dict], setup_s: float | None) -> dict[str, tuple[float, str]]:
    metrics = {
        "throughput_rps": (settled([len(r["latencies"]) / r["loop_s"] for r in reports], True), "1/s"),
        "latency_p50_ms": (settled([statistics.median(r["latencies"]) * 1e3 for r in reports]), "ms"),
        "latency_tail_ms": (settled([tail(r["latencies"])[0] * 1e3 for r in reports]), "ms"),
        "peak_rss_mb": (settled([r["peak_rss_kb"] / 1024 for r in reports]), "MB"),
    }
    if setup_s is not None:
        metrics["setup_s"] = (setup_s, "s")
    return metrics


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, tuple[float, str]]:
    metrics = {}
    for name, (unit, _) in tracing.PER_LAYER.items():
        if name == "trace.overhead_ratio":
            ratios = (t["loop_s"] / u["loop_s"] for t, u in zip(traced, untraced))
            metrics[name] = (statistics.median(ratios), unit)
        else:
            metrics[name] = (statistics.median(t["layers"][name] for t in traced), unit)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "quadres" / "__init__.py").is_file():
        print(f"error: no quadres package under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    env = _env()
    probe_before = host_probe()
    if args.trace:
        OUT.mkdir(exist_ok=True)
        for stale in OUT.glob(f"{args.workload}-rep*.spans.csv"):
            stale.unlink()
    else:
        subprocess.run(SETUP_CMD, env=env, cwd=ROOT, check=True)  # writes the .pyc files, as installing does

    # set-up samples are spread over the run, so a burst of host noise cannot take them all
    setup_times: list[float] = []
    untraced, traced = [], []
    attempted = failed = 0
    reasons: list[str] = []
    deadline = time.monotonic() + args.seconds
    while len(untraced) < MIN_REPS or time.monotonic() < deadline:
        if not args.trace:
            setup_times.append(fresh_import_s(env))
        requests = workloads.draw(args.workload, args.seed, len(untraced))
        reports = [run_worker(requests, env)]
        if args.trace:
            spans = OUT / f"{args.workload}-rep{len(untraced)}.spans.csv"
            reports.append(run_worker(requests, env, spans))
        for report in reports:
            for req, out in zip(requests, report.pop("outputs")):
                attempted += 1
                reason = check.check(req.kind, req.args, req.meta, out)
                if reason is not None:
                    failed += 1
                    reasons.append(f"{req.kind}{tuple(req.args)}: {reason}")
        untraced.append(reports[0])
        traced.extend(reports[1:])
    while not args.trace and len(setup_times) < SETUP_RUNS:
        setup_times.append(fresh_import_s(env))
    setup_s = settled(setup_times) if setup_times else None
    probe_after = host_probe()

    requests_per_rep = len(untraced[0]["latencies"])
    e2e = end_to_end(untraced, setup_s)
    percentile = tail(untraced[0]["latencies"])[1]
    print(f"workload {args.workload}, seed {args.seed}: {len(untraced)} repetitions of "
          f"{requests_per_rep} requests, closed loop, one caller")
    over = "slowest decile over repetitions"
    notes = {
        "throughput_rps": over,
        "latency_p50_ms": f"median request, {over}",
        "latency_tail_ms": f"p{percentile:.2f}, {TAIL_BEYOND} of {requests_per_rep} samples beyond it, {over}",
        "peak_rss_mb": f"peak RSS of each fresh worker, {over}",
        "setup_s": f"fresh `import quadres, quadres.cli`, slowest decile of {len(setup_times)} spread over the run",
    }
    for name, (value, unit) in e2e.items():
        print(f"  {name:<16} {value:12.4f} {unit:<4} {notes[name]}")
    print(f"  {'failed_share':<16} {failed / attempted:12.4f} {'share':<4} {failed} of {attempted} requests")
    print(f"  host_probe_s     before {probe_before:.4f} after {probe_after:.4f} (diagnostic only)")
    for reason in reasons[:10]:
        print(f"  FAILED {reason[:300]}")
    if args.trace:
        metrics = per_layer(untraced, traced)
        for name, (value, unit) in metrics.items():
            print(f"  {name:<52} {value:14.6f} {unit}")
        print(f"  spans written to {OUT.relative_to(ROOT)}/{args.workload}-rep*.spans.csv")
    else:
        metrics = e2e
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
