#!/usr/bin/env python3
"""End-to-end engine campaign benchmark.

    python3 e2ebench/run.py --workload nash_certify --seed 1 --seconds 30 --trace 0

Run from the root of a bbng checkout. The first run builds the `bbng`
library and the harness (e2e_bench.cpp) under $CARGO_TARGET_DIR, or
.bench_build when that is unset. With --trace 0 the run measures the
end-to-end metrics; with --trace 1 it makes a separate traced run and
reports the per-layer metrics. Either way it checks every job record, and
its last line on stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
See README.md for the workloads, the metrics and the reference figures.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

# Campaign pool width: below the 4 vCPUs of the reference host, leaving a
# core for the harness and for neighbouring processes.
THREADS = 2
# A run must end within 180 s of its start once the harness is built (the
# first run of a checkout may build for longer): the harness is killed at
# this deadline, which leaves time for the checks and the report.
HARNESS_DEADLINE_S = 150


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def checkout_root():
    root = os.path.dirname(HERE)
    for needed in ("CMakeLists.txt", os.path.join("src", "engine", "runner.hpp")):
        if not os.path.exists(os.path.join(root, needed)):
            raise SystemExit(f"e2ebench: {root} is not a bbng checkout ({needed} missing)")
    return root


def build(root):
    """Configure once, then bring the harness up to date; returns its path."""
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, base, "e2ebench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise SystemExit("e2ebench: cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", "e2e_bench", "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise SystemExit("e2ebench: build failed")
    return build_dir, os.path.join(build_dir, "e2e_bench")


def run_child(cmd, deadline_s):
    """Run the harness; kill it at the deadline.

    Returns (phases, finished): the JSON lines it printed, and whether it
    printed its final "done" line and exited 0. A hung or crashed harness
    leaves finished False, with every phase it completed before that.
    """
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=deadline_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        log(f"e2ebench: harness passed its {deadline_s:.0f} s deadline and was killed")
    phases = []
    for line in out.splitlines():
        try:
            phases.append(json.loads(line))
        except json.JSONDecodeError:
            break  # a line cut off by the kill
    finished = (proc.returncode == 0 and bool(phases)
                and phases[-1].get("phase") == "done")
    return phases, finished


def read_jsonl(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def check_records(spec, records, twins=None):
    """(errors, failed ids): property violations and ids of failed jobs.

    With `twins`, each record is also checked against its twin campaign's
    record of the same job.
    """
    errors = []
    failed = set()
    if twins is not None and len(twins) != len(records):
        errors.append(f"{len(twins)} twin records for {len(records)} jobs")
        twins = None
    for job, record in enumerate(records):
        problems, uncertified = workloads.check_record(
            workloads.scenario_of(spec, record), record,
            twins[job] if twins is not None else None)
        errors += [f"job {job}: {p}" for p in problems]
        if problems or uncertified:
            failed.add(job)
    return errors, failed


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(args, binary, work, spec, twin, spec_path, twin_path, deadline_s):
    cmd = [binary, "--spec", spec_path, "--work", work,
           "--threads", str(THREADS), "--seconds", str(args.seconds)]
    if twin is not None:
        cmd += ["--twin", twin_path, "--construct"]
    phases, finished = run_child(cmd, deadline_s)
    by_phase = {}
    for p in phases:
        by_phase.setdefault(p["phase"], []).append(p)
    setup = by_phase.get("setup", [None])[0]
    rounds = by_phase.get("round", [])
    num_jobs = setup["jobs"] if setup else 0
    hung = "memory" not in by_phase

    errors = []
    bad = set()
    if rounds:
        twins = None
        if "twin" in by_phase:
            twins = read_jsonl(os.path.join(work, "twin.jsonl"))[1:]
        records = read_jsonl(os.path.join(work, "serial.jsonl"))
        errors, bad = check_records(spec, records, twins)
        if twin is not None and twins is None:
            errors.append("twin campaign did not finish")
    if twin is not None and not hung:
        cases = by_phase.get("construct", [{"cases": []}])[0]["cases"]
        if not cases:
            errors.append("Theorem 2.3 constructions were not checked")
        for case in cases:
            if not case["certified"] or case["epsilon"] != 0:
                errors.append(f"Theorem 2.3 {case['name']} {case['version']}: "
                              f"certified={case['certified']} epsilon={case['epsilon']}")
    if not hung and not finished:
        errors.append("harness stopped after its rounds, before its checks ended")
    for rnd in rounds:
        if rnd["serial_mismatch"] or rnd["campaign_mismatch"]:
            errors.append(f"round {rnd['round']}: records differ between passes "
                          f"(serial {rnd['serial_mismatch'][:5]}, "
                          f"campaign {rnd['campaign_mismatch'][:5]})")
    attempted, failed = stats.count_failures(num_jobs, rounds, bad, hung)
    if attempted == 0:
        attempted = failed = 1  # not even the set-up finished
    for e in errors[:20]:
        log("check failed:", e)

    if not rounds:
        return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}
    latencies = stats.per_job_medians([r["serial_ms"] for r in rounds])
    tail_p, tail_ms = stats.tail(latencies)
    peak_kb = by_phase["memory"][0]["peak_rss_kb"] if "memory" in by_phase else 0
    metrics = {
        "wall_s": metric(statistics.median(r["wall_s"] for r in rounds), "s"),
        "cpu_s": metric(statistics.median(r["cpu_s"] for r in rounds), "s"),
        "job_p50_ms": metric(statistics.median(latencies), "ms"),
        "job_tail_ms": metric(tail_ms, "ms"),
        "peak_rss_mb": metric(peak_kb / 1024.0, "MB"),
        "setup_s": metric(statistics.median(
            setup["setup_s"] + [s for r in rounds for s in r["setup_s"]]), "s"),
    }
    log(f"{args.workload}: {num_jobs} jobs, {len(rounds)} round(s), pool width {THREADS}, "
        f"job_tail_ms at p{tail_p:g}")
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def trace(binary, work, spec, spec_path, deadline_s):
    cmd = [binary, "--trace", "--spec", spec_path, "--work", work, "--threads", str(THREADS)]
    phases, finished = run_child(cmd, deadline_s)
    by_phase = {p["phase"]: p for p in phases}
    num_jobs = by_phase["setup"]["jobs"] if "setup" in by_phase else 1
    if not finished or "trace" not in by_phase:
        return {"correct": False, "attempted": num_jobs, "failed": num_jobs, "metrics": {}}
    result = by_phase["trace"]
    records = read_jsonl(result["artifact"])[1:]
    untraced = read_jsonl(os.path.join(work, "untraced.jsonl"))[1:]
    errors, bad = check_records(spec, records)
    bad |= {job for job, (a, b) in enumerate(zip(records, untraced)) if a != b}
    if len(records) != num_jobs or len(untraced) != num_jobs:
        errors.append("traced or untraced campaign lost records")
    for e in errors[:20]:
        log("check failed:", e)
    metrics = layers.per_layer(spec, by_phase["setup"], result, records, THREADS)
    layers.print_attribution(result["phases"], file=sys.stderr)
    return {"correct": not errors, "attempted": num_jobs, "failed": len(bad),
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = checkout_root()
    build_dir, binary = build(root)
    work = os.path.join(build_dir, "work", f"{args.workload}-{'trace' if args.trace else 'e2e'}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    spec, twin = workloads.make_specs(args.workload, args.seed)
    spec_path = os.path.join(work, "spec.json")
    twin_path = os.path.join(work, "twin.json")
    with open(spec_path, "w") as f:
        json.dump(spec, f, indent=1)
    if twin is not None:
        with open(twin_path, "w") as f:
            json.dump(twin, f, indent=1)

    if args.trace:
        result = trace(binary, work, spec, spec_path, HARNESS_DEADLINE_S)
    else:
        result = measure(args, binary, work, spec, twin, spec_path, twin_path,
                         HARNESS_DEADLINE_S)

    for name, m in sorted(result["metrics"].items()):
        print(f"{name:<44} {m['value']:>16.6g} {m['unit']}")
    print(f"jobs attempted {result['attempted']}, failed {result['failed']}, "
          f"checks {'passed' if result['correct'] else 'FAILED'}")
    print(json.dumps(result))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
