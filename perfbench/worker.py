"""One benchmark process: set up a workload, run its closed loop, check every
job's output, and print what it measured as JSON on the last line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S [--trace] [--setup-only]

run.py starts this process; it is not meant to be run by hand, except to
record digests (--record-digests) after a deliberate change of output.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import sys
import time
from pathlib import Path

import harness as H

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "digests.json"
DEFAULT_SEED = 1


def _digest_table() -> dict:
    if DIGESTS.exists():
        return json.loads(DIGESTS.read_text())
    return {"seed": DEFAULT_SEED, "workloads": {}}


def check_jobs(jobs, records, workload: str, seed: int) -> tuple[int, list[str]]:
    """Run every job's correctness check on its first output and compare its
    digest with the recorded one; returns (failed executions, messages)."""
    table = _digest_table()
    recorded = table["workloads"].get(workload)
    same_seed = seed == table["seed"]
    failed = 0
    messages: list[str] = []
    for job in jobs:
        rec = records[job.name]
        problem = rec.errors[0] if rec.errors else None
        if rec.digest is not None and problem is None:
            try:
                problem = job.check(rec.first_output)
            except Exception as exc:  # a crashing check is a failed job
                problem = f"check raised {type(exc).__name__}: {exc}"
        if problem is None and recorded is not None and (job.fixed or same_seed):
            want = recorded.get(job.name)
            if want != rec.digest:
                problem = f"digest {rec.digest} != recorded {want}"
        if problem is not None:
            failed += rec.attempts if not rec.errors else max(len(rec.errors), 1)
            messages.append(f"{job.name}: {problem}")
    return failed, messages


def latencies(records: dict[str, H.JobRecord]) -> dict[str, list[float]]:
    return {name: rec.latencies for name, rec in records.items()}


def wall_latencies(records: dict[str, H.JobRecord]) -> dict[str, list[float]]:
    return {name: [end - start for start, end in rec.intervals] for name, rec in records.items()}


def shares(jobs, records, work_limit_hit) -> dict:
    """Share of the jobs of one pass with each input property."""
    out: dict[str, float] = {}
    n = len(jobs)
    for job in jobs:
        for key in ("input", "shape", "alphabet"):
            label = f"{key}={job.props[key]}"
            out[label] = out.get(label, 0) + 1 / n
    hits = sum(1 for job in jobs if work_limit_hit(records[job.name].first_output))
    out["work_limit_hit"] = hits / n
    return {k: round(v, 4) for k, v in sorted(out.items())}


def per_layer(jobs, records, tracer: H.Tracer, plain_rate: float) -> tuple[dict, dict]:
    """Per-pass busy time, calls, steps and ratio bases from the spans."""
    runs: dict[str, int] = {}
    job_of: dict[int, str] = {}
    for span in tracer.spans:
        if span.parent is None:
            job_of[span.span_id] = span.name[len("job."):]
            runs[job_of[span.span_id]] = runs.get(job_of[span.span_id], 0) + 1
    # Totals per job first, divided by that job's run count at the end, so
    # that counts per pass come out exact whatever the number of repeats.
    per_job: dict[tuple[str, str], float] = {}

    def add(job: str, key: str, value: float) -> None:
        per_job[(job, key)] = per_job.get((job, key), 0) + value

    for span in tracer.spans:
        if span.parent is None:
            continue
        job = job_of[span.parent]
        module = span.name.split(".")[0]
        layers = [span.name, module]
        if span.name == "cli.experiment":
            layers.append("experiments")
        elif span.name == "cli.selftest":
            layers.append("accept")
        for layer in layers:
            add(job, f"{layer}.busy_s", span.end - span.start)
            add(job, f"{layer}.calls", 1)
        steps = sum(span.steps.values())
        add(job, f"{module}.steps", steps)
        add(job, f"{span.name}.steps", steps)
        for label, n in span.steps.items():
            add(job, f"steps.{label}", n)
        for key, value in span.extra.items():
            add(job, f"{span.name}.{key}", value)
    acc: dict[str, float] = {}
    for (job, key), total in per_job.items():
        acc[key] = acc.get(key, 0) + total / runs[job]

    def ratio(num: str, den: str, scale: float = 1.0) -> float:
        base = acc.get(den, 0.0)
        return acc.get(num, 0.0) * scale / base if base else 0.0

    metrics = dict(acc)
    metrics.update({
        "measures.delta.ns_per_step": ratio("measures.delta.busy_s", "measures.delta.steps", 1e9),
        "core2d.from_tokens.ns_per_cell": ratio("core2d.from_tokens.busy_s", "core2d.from_tokens.cells", 1e9),
        "access2d.access.ns_per_query": ratio("access2d.access.busy_s", "access2d.access.calls", 1e9),
        "access2d.hops_per_query": ratio("access2d.access.hops", "access2d.access.calls"),
        "access2d.full_scan.ns_per_cell": ratio("access2d.full_scan.busy_s", "access2d.full_scan.cells", 1e9),
        "macroscheme.decode.ns_per_cell": ratio("macroscheme.decode.busy_s", "macroscheme.decode.cells", 1e9),
        "grammar2d.g_exact.optimal_frac": ratio("grammar2d.g_exact.optimal", "grammar2d.g_exact.calls"),
        "grammar2d.g_exact.work": ratio("grammar2d.g_exact.work", "grammar2d.g_exact.calls"),
        "blocktree2d.pruned_frac": ratio("blocktree2d.build_blocktree.pruned", "blocktree2d.build_blocktree.nodes"),
        "trace_overhead_frac": 1.0 - H.pass_rate(latencies(records)) / plain_rate,
    })
    bases = {
        "measures.delta.ns_per_step": f"{acc.get('measures.delta.steps', 0):.0f} steps per pass",
        "core2d.from_tokens.ns_per_cell": f"{acc.get('core2d.from_tokens.cells', 0):.0f} cells per pass",
        "access2d.access.ns_per_query": f"{acc.get('access2d.access.calls', 0):.0f} queries per pass",
        "access2d.hops_per_query": f"{acc.get('access2d.access.calls', 0):.0f} queries per pass",
        "access2d.full_scan.ns_per_cell": f"{acc.get('access2d.full_scan.cells', 0):.0f} cells per pass",
        "macroscheme.decode.ns_per_cell": f"{acc.get('macroscheme.decode.cells', 0):.0f} cells per pass",
        "grammar2d.g_exact.optimal_frac": f"{acc.get('grammar2d.g_exact.calls', 0):.0f} calls per pass",
        "grammar2d.g_exact.work": f"{acc.get('grammar2d.g_exact.calls', 0):.0f} calls per pass",
        "blocktree2d.pruned_frac": f"{acc.get('blocktree2d.build_blocktree.nodes', 0):.0f} nodes per pass",
        "trace_overhead_frac": f"untraced {plain_rate:.3f} jobs/s",
    }
    for job in jobs:
        if job.baseline:
            metrics[f"baseline.{job.baseline}.busy_s"] = H.median(wall_latencies(records)[job.name])
    return metrics, bases


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--record-digests", action="store_true")
    args = p.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        readings = H.Readings()
        start = time.perf_counter()
        import workloads as W

        jobs = W.BUILDERS[args.workload](random.Random(f"{args.workload}/{args.seed}"), workdir)
        end = time.perf_counter()
        readings.take()
        setup_wall_s = end - start
        setup_s = readings.scaled(start, end)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
            return 0

        result: dict = {"nproc": os.cpu_count(), "jobs_per_pass": len(jobs)}
        children = W.CHILD_PROCESSES[args.workload]
        if args.trace:
            plain: dict[str, H.JobRecord] = {}
            records: dict[str, H.JobRecord] = {}
            tracer = H.Tracer()
            H.run_loop(jobs, args.seconds, W.Ledger, records, tracer, W.extra_counts, plain, children)
            result["metrics"], bases = per_layer(jobs, records, tracer, H.pass_rate(latencies(plain)))
            for name, rec in plain.items():
                records[name].attempts += rec.attempts
                records[name].errors.extend(rec.errors)
                if rec.digest != records[name].digest:
                    records[name].errors.append("traced and untraced outputs differ")
            result["bases"] = bases
            trace_path = ROOT / ".perfbench_work" / f"trace-{args.workload}-s{args.seed}.json"
            trace_path.write_text(json.dumps({
                "workload": args.workload,
                "seed": args.seed,
                "spans": [s.as_json() for s in tracer.spans],
            }))
            result["trace_file"] = str(trace_path.relative_to(ROOT))
        else:
            records = {}
            H.run_loop(jobs, args.seconds, W.Ledger, records, child_processes=children)
            rss_kb = max(resource.getrusage(who).ru_maxrss
                         for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
            result.update({"latencies": latencies(records), "wall": wall_latencies(records),
                           "rss_mb": rss_kb / 1024, "setup_s": setup_s,
                           "setup_wall_s": setup_wall_s})

        if args.record_digests:
            table = _digest_table()
            table["seed"] = args.seed
            table["workloads"][args.workload] = {j.name: records[j.name].digest for j in jobs}
            DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")

        failed, messages = check_jobs(jobs, records, args.workload, args.seed)
        attempted = sum(rec.attempts for rec in records.values())
        result.update({
            "attempted": attempted,
            "failed": failed,
            "problems": messages,
            "shares": shares(jobs, records, W.work_limit_hit),
        })
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
