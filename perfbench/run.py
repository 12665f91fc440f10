"""Benchmark of the repet2d package: closed-loop workloads with one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The workloads (see BENCHMARK.json and
perfbench/README.md) are measure-mix, represent-mix, solve-exact and
cli-tables. With --trace 0 it prints every end-to-end metric; with --trace 1
it runs every job twice in a row, untraced and traced, and prints the
per-layer metrics, writing the spans to .perfbench_work/. The last line of standard
output is always one JSON object: correct, attempted, failed, metrics.

The untraced loop runs in two fresh processes of half the time each and
their job latencies are pooled, so one process's memory layout weighs less.
Set-up time is measured in fresh processes too: three set-up-only ones plus
the two measuring ones, and the median is reported. Every time is scaled to
a reference host speed by a calibration kernel timed around it (see
harness.CALIBRATION_REFERENCE_S); the unscaled wall times are printed too.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness as H

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("measure-mix", "represent-mix", "solve-exact", "cli-tables")
SETUP_REPEATS = 3
MEASURING_PROCESSES = 2
DEADLINE_S = 170.0

# Preferred tail percentile per workload: the highest rung of the ladder that
# keeps at least ten samples beyond it at the job counts a 2-core desk
# machine reaches in a 25 s run (harness.tail steps down if a run has fewer).
TAIL_PERCENTILE = {
    "measure-mix": 90.0,
    "represent-mix": 95.0,
    "solve-exact": 95.0,
    "cli-tables": 55.0,
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def worker(args: list[str], timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pooled(parts: list[dict], key: str) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for part in parts:
        for name, values in part[key].items():
            out.setdefault(name, []).extend(values)
    return out


def timings(latencies: dict[str, list[float]], tail_pct: float) -> tuple[dict, tuple]:
    tail_value, pct, samples, beyond = H.tail(latencies, tail_pct)
    return {
        "jobs_per_s": H.pass_rate(latencies),
        "job_p50_ms": H.quantile(H.job_latencies(latencies), 0.5) * 1e3,
        "job_tail_ms": tail_value * 1e3,
    }, (pct, samples, beyond)


def pool(parts: list[dict], setups: list[dict], tail_pct: float) -> tuple[dict, dict]:
    """End-to-end metrics from the measuring processes' pooled latencies."""
    setups = setups + parts
    measured, (pct, samples, beyond) = timings(pooled(parts, "latencies"), tail_pct)
    measured.update({
        "peak_rss_mb": max(part["rss_mb"] for part in parts),
        "setup_s": statistics.median(part["setup_s"] for part in setups),
    })
    wall, _ = timings(pooled(parts, "wall"), tail_pct)
    wall["setup_s"] = statistics.median(part["setup_wall_s"] for part in setups)
    result = dict(parts[0])
    result.update({
        "attempted": sum(part["attempted"] for part in parts),
        "failed": sum(part["failed"] for part in parts),
        "problems": [p for part in parts for p in part["problems"]],
        "tail": f"job_tail_ms is p{pct:g} of {samples} samples ({beyond} beyond it) "
                f"from {len(parts)} processes",
        "setups": [part["setup_s"] for part in setups],
        "wall": wall,
    })
    return result, measured


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-digests", action="store_true",
                   help="store this run's output digests as the expected ones")
    args = p.parse_args(argv)

    began = time.monotonic()
    if not (ROOT / "src" / "repet2d" / "__init__.py").is_file():
        return fail(f"no repet2d package under {ROOT / 'src'}; run from a full checkout")
    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        if args.trace:
            extra = ["--record-digests"] if args.record_digests else []
            result = worker(common + ["--seconds", str(args.seconds), "--trace"] + extra,
                            DEADLINE_S - (time.monotonic() - began))
            measured = result["metrics"]
        else:
            setups = [worker(common + ["--seconds", "0", "--setup-only"], 60)
                      for _ in range(SETUP_REPEATS)]
            parts = []
            for i in range(MEASURING_PROCESSES):
                extra = ["--record-digests"] if args.record_digests and i == 0 else []
                share = str(args.seconds / MEASURING_PROCESSES)
                parts.append(worker(common + ["--seconds", share] + extra,
                                    DEADLINE_S - (time.monotonic() - began)))
            result, measured = pool(parts, setups, TAIL_PERCENTILE[args.workload])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        return fail(f"{args.workload}: {exc}")

    metrics = {}
    for m in wanted:
        if m["name"] not in measured:
            measured[m["name"]] = 0.0  # layer not exercised by this workload
        metrics[m["name"]] = {"value": measured[m["name"]], "unit": m["unit"]}

    print(f"workload {args.workload}  seed {args.seed}  load: closed loop, 1 client "
          f"(one process at a time, 1 thread)  nproc {result['nproc']}  jobs per pass {result['jobs_per_pass']}")
    for name, m in metrics.items():
        base = result.get("bases", {}).get(name)
        value = m["value"]
        shown = f"{value:14.0f}" if float(value).is_integer() else f"{value:14.6g}"
        print(f"  {name:44s} {shown} {m['unit']}" + (f"   (base: {base})" if base else ""))
    if "tail" in result:
        print(f"  {result['tail']}")
    if "setups" in result:
        print(f"  setup_s is the median of {len(result['setups'])} fresh processes: "
              + ", ".join(f"{s:.3f}" for s in result["setups"]))
    if "wall" in result:
        print("  unscaled wall times: "
              + ", ".join(f"{k} {v:.6g}" for k, v in result["wall"].items()))
    print(f"  failed_frac {result['failed'] / max(result['attempted'], 1):.4f} "
          f"({result['failed']} of {result['attempted']} jobs)")
    print(f"  shares {json.dumps(result['shares'])}")
    if "trace_file" in result:
        print(f"  spans written to {result['trace_file']}")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
