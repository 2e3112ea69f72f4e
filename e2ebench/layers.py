"""Per-layer metrics of a traced campaign pass.

Sources, all produced by the program itself:
  - the Chrome trace of the pass (`--trace` spans: runner.window,
    runner.commit, runner.summary, job, audit.nash, audit.swap, churn.apply,
    solve:<backend>), whose spans are tied to their job by thread and time
    containment;
  - the obs counter registry, as the delta across the pass;
  - the `.obs_host.json` sidecar histograms (the histogram-only
    bfs.multi.sweep), as the difference between the pass's sidecar and the
    preceding untraced pass's;
  - the pass's JSONL records;
  - the set-up timings and the untraced serial and campaign wall times.
A metric of a layer the workload does not reach reads 0.
"""

import bisect
import collections
import json
import statistics

import stats

TASK_KINDS = ("nash_audit", "churn", "dynamics", "poa", "swap_equilibrium", "audit")
VERSIONS = ("sum", "max")
CHURN_MODES = ("track", "respond")

# (name, unit, better) of every per-layer metric, in report order.
METRICS = (
    [("engine.spec.load_ms", "ms", "lower"), ("engine.jobgraph.expand_ms", "ms", "lower")]
    + [(f"engine.tasks.job_ms.{q}.{kind}", "ms", "lower")
       for kind in TASK_KINDS for q in ("p50", "tail")]
    + [("engine.runner.window_wait_s", "s", "lower"),
       ("engine.runner.speedup", "x", "higher"),
       ("engine.runner.commit_ms", "ms", "lower"),
       ("engine.sinks.summary_ms", "ms", "lower"),
       ("game.equilibrium.audit_ms.p50", "ms", "lower"),
       ("game.equilibrium.audit_ms.tail", "ms", "lower"),
       ("game.equilibrium.players_skipped", "count", "higher")]
    + [(f"game.churn.apply_ms.{q}.{mode}", "ms", "lower")
       for mode in CHURN_MODES for q in ("p50", "tail")]
    + [("game.churn.solver_searches", "count", "lower"),
       ("game.churn.solves_skipped", "count", "higher"),
       ("game.churn.search_saving", "ratio", "higher"),
       ("game.churn.checkpoint_ms", "ms", "lower"),
       ("game.dynamics.moves", "count", "lower"),
       ("game.dynamics.evaluations", "count", "lower"),
       ("game.swap_audit_ms", "ms", "lower")]
    + [(f"solver.exact_bb.solve_ms.{q}.{version}", "ms", "lower")
       for version in VERSIONS for q in ("p50", "tail")]
    + [("solver.exact_bb.nodes", "count", "lower"),
       ("solver.exact_bb.pruned", "count", "higher"),
       ("solver.exact_bb.ns_per_node", "ns", "lower"),
       ("solver.exact_bb.uncertified_solves", "count", "lower"),
       ("solver.cache.hit_ratio", "ratio", "higher"),
       ("solver.swap_ladder.solve_ms.p50", "ms", "lower"),
       ("solver.swap_ladder.solve_ms.tail", "ms", "lower"),
       ("solver.swap.evaluated", "count", "lower"),
       ("solver.swap.ns_per_evaluation", "ns", "lower"),
       ("graph.multi_bfs.sweep_ms", "ms", "lower"),
       ("graph.multi_bfs.row_scans", "count", "lower"),
       ("graph.multi_bfs.batching_gain", "ratio", "higher"),
       ("graph.dynamic_bfs.recomputes", "count", "lower"),
       ("graph.delta.bfs_avoided", "count", "higher"),
       ("parallel.workspace.grows", "count", "lower"),
       ("obs.trace_overhead_pct", "%", "lower")]
)

# Which layer each traced phase belongs to, for the attribution table.
PHASE_LAYERS = {
    "runner.window": "engine", "runner.commit": "engine", "runner.summary": "engine",
    "job": "engine", "audit.nash": "game", "audit.swap": "game", "churn.apply": "game",
}


def _ratio(num, den):
    return num / den if den else 0.0


def _p50(values):
    return statistics.median(values) if values else 0.0


def _tail(values):
    return stats.tail(values)[1] if values else 0.0


def load_spans(trace_path):
    with open(trace_path) as f:
        doc = json.load(f)
    events = doc["traceEvents"] if isinstance(doc, dict) else doc
    return [e for e in events if e.get("ph") == "X"]


class JobIndex:
    """Finds the job span that encloses a span on the same thread."""

    def __init__(self, spans):
        self._by_thread = collections.defaultdict(list)
        for s in spans:
            if s["name"] == "job":
                self._by_thread[(s["pid"], s["tid"])].append(s)
        self._starts = {}
        for key, jobs in self._by_thread.items():
            jobs.sort(key=lambda s: s["ts"])
            self._starts[key] = [s["ts"] for s in jobs]

    def job_of(self, span):
        key = (span["pid"], span["tid"])
        i = bisect.bisect_right(self._starts.get(key, []), span["ts"]) - 1
        if i < 0:
            return None
        job = self._by_thread[key][i]
        return job if span["ts"] + span["dur"] <= job["ts"] + job["dur"] else None


def window_wait_s(spans, width):
    """Lane time idle at the ordered-commit barrier: for each commit window,
    width x its wall time minus the job time inside it."""
    jobs = sorted((s for s in spans if s["name"] == "job"), key=lambda s: s["ts"])
    starts = [s["ts"] for s in jobs]
    idle_us = 0
    for w in (s for s in spans if s["name"] == "runner.window"):
        lo = bisect.bisect_left(starts, w["ts"])
        hi = bisect.bisect_right(starts, w["ts"] + w["dur"])
        idle_us += width * w["dur"] - sum(j["dur"] for j in jobs[lo:hi])
    return idle_us / 1e6


def _hist_sum_us(path, name):
    with open(path) as f:
        return json.load(f).get("histograms", {}).get(name, {}).get("sum_us", 0)


def per_layer(spec, setup, result, records, width):
    """{name: {"value", "unit"}} for every entry of METRICS."""
    spans = load_spans(result["trace"])
    counters = collections.defaultdict(int, result["counters"])
    scenarios = {s["name"]: s for s in spec["scenarios"]}
    index = JobIndex(spans)

    def scenario_of(span):
        job = index.job_of(span)
        return scenarios[job["args"]["scenario"]] if job else None

    values = {
        "engine.spec.load_ms": statistics.median(setup["load_ms"]),
        "engine.jobgraph.expand_ms": statistics.median(setup["expand_ms"]),
    }
    job_ms = collections.defaultdict(list)
    audit_ms, apply_ms = [], collections.defaultdict(list)
    solve_ms = collections.defaultdict(list)
    ladder_ms = []
    totals = collections.Counter()
    for s in spans:
        ms = s["dur"] / 1e3
        name = s["name"]
        totals[name] += ms
        if name == "job":
            job_ms[s["args"]["task"]].append(ms)
        elif name == "audit.nash":
            scenario = scenario_of(s)
            if scenario and scenario["task"] == "churn":
                totals["churn.checkpoint"] += ms
            else:
                audit_ms.append(ms)
        elif name == "churn.apply":
            apply_ms[scenario_of(s)["params"]["churn"]["mode"]].append(ms)
        elif name == "solve:exact_bb":
            solve_ms[scenario_of(s)["version"]].append(ms)
        elif name == "solve:swap_ladder":
            ladder_ms.append(ms)
    for kind in TASK_KINDS:
        values[f"engine.tasks.job_ms.p50.{kind}"] = _p50(job_ms[kind])
        values[f"engine.tasks.job_ms.tail.{kind}"] = _tail(job_ms[kind])
    for mode in CHURN_MODES:
        values[f"game.churn.apply_ms.p50.{mode}"] = _p50(apply_ms[mode])
        values[f"game.churn.apply_ms.tail.{mode}"] = _tail(apply_ms[mode])
    for version in VERSIONS:
        values[f"solver.exact_bb.solve_ms.p50.{version}"] = _p50(solve_ms[version])
        values[f"solver.exact_bb.solve_ms.tail.{version}"] = _tail(solve_ms[version])

    untraced_s = min(result["untraced_s"])
    sweep_us = (_hist_sum_us(result["sidecar_after"], "bfs.multi.sweep")
                - _hist_sum_us(result["sidecar_before"], "bfs.multi.sweep"))
    bfs_avoided = sum(v for k, v in counters.items() if k.endswith(".bfs_avoided"))
    dynamics = [r for r in records if r["task"] == "dynamics"]
    values.update({
        "engine.runner.window_wait_s": window_wait_s(spans, width),
        "engine.runner.speedup": _ratio(result["serial_s"], untraced_s),
        "engine.runner.commit_ms": totals["runner.commit"],
        "engine.sinks.summary_ms": totals["runner.summary"],
        "game.equilibrium.audit_ms.p50": _p50(audit_ms),
        "game.equilibrium.audit_ms.tail": _tail(audit_ms),
        "game.equilibrium.players_skipped": counters["audit.nash.players_skipped"],
        "game.churn.solver_searches": counters["churn.solver_searches"],
        "game.churn.solves_skipped": counters["churn.solves_skipped"],
        "game.churn.search_saving": _ratio(counters["churn.baseline_solves"],
                                           counters["churn.solver_searches"]),
        "game.churn.checkpoint_ms": totals["churn.checkpoint"],
        "game.dynamics.moves": sum(r["moves"] for r in dynamics),
        "game.dynamics.evaluations": sum(r["evaluations"] for r in dynamics),
        "game.swap_audit_ms": totals["audit.swap"],
        "solver.exact_bb.nodes": counters["solver.exact_bb.nodes"],
        "solver.exact_bb.pruned": counters["solver.exact_bb.pruned"],
        "solver.exact_bb.ns_per_node": _ratio(1e6 * totals["solve:exact_bb"],
                                              counters["solver.exact_bb.nodes"]),
        "solver.exact_bb.uncertified_solves": sum(
            r["n"] - r["players_certified"] for r in records if r["task"] == "nash_audit"),
        "solver.cache.hit_ratio": _ratio(
            counters["cache.transposition.hits"],
            counters["cache.transposition.hits"] + counters["cache.transposition.misses"]),
        "solver.swap_ladder.solve_ms.p50": _p50(ladder_ms),
        "solver.swap_ladder.solve_ms.tail": _tail(ladder_ms),
        "solver.swap.evaluated": counters["solver.swap.evaluated"],
        "solver.swap.ns_per_evaluation": _ratio(1e6 * totals["solve:swap_ladder"],
                                                counters["solver.swap.evaluated"]),
        "graph.multi_bfs.sweep_ms": sweep_us / 1e3,
        "graph.multi_bfs.row_scans": counters["bfs.multi.row_scans"],
        "graph.multi_bfs.batching_gain": _ratio(counters["bfs.multi.settled"],
                                                counters["bfs.multi.row_scans"]),
        "graph.dynamic_bfs.recomputes": counters["bfs.dynamic.recomputes"],
        "graph.delta.bfs_avoided": bfs_avoided,
        "parallel.workspace.grows": counters["workspace.grows"],
        "obs.trace_overhead_pct": 100.0 * (_ratio(min(result["traced_s"]), untraced_s) - 1.0),
    })
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in METRICS}


def print_attribution(phases, file):
    """The bbng_trace self-time table of the traced pass, with each phase's
    layer, largest self time first."""
    total = sum(p["self_us"] for p in phases.values()) or 1
    print(f"{'phase':<22} {'layer':<8} {'count':>9} {'self_ms':>12} {'self_%':>7}", file=file)
    for name, p in sorted(phases.items(), key=lambda kv: -kv[1]["self_us"]):
        layer = "solver" if name.startswith("solve:") else PHASE_LAYERS.get(name, "?")
        print(f"{name:<22} {layer:<8} {p['count']:>9} {p['self_us'] / 1e3:>12.1f} "
              f"{100.0 * p['self_us'] / total:>7.2f}", file=file)
