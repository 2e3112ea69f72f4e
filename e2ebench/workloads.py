"""Workload specs generated from the benchmark seed, and the record checks.

Every spec uses the fixed campaign base seed BASE_SEED; the benchmark seed
picks the instance seeds, so seed s runs instances s*SEED_STRIDE onward of
each scenario. A job's state depends only on the base seed, the scenario
name and the job's coordinates (src/engine/jobgraph.hpp), so a twin spec
with the same names, grids and seed ranges generates the same states.

Two kinds of nash_certify rows take fixed instance seeds instead:

- the MAX random-budget rows. exact_bb's MAX seed-distance bound leaves a
  heavy tail: about one instance in 2000 at n = 32, sigma = 1.5n, and more
  at larger n or sigma, stops at the 200 000-node limit with a player
  uncertified. With seed-dependent instances the failure count would
  depend on the seed, so these rows use instances checked to certify.
- `max_uncertified`: two MAX instances on which the bound cannot close a
  player's search within the limit. They fail in every run, the same way,
  until that bound gets stronger.

The other rows cannot reach the limit: random_tree states give every
player one arc, and the SUM rows need under 20 000 nodes per job.
"""

BASE_SEED = 2011
SEED_STRIDE = 1000
MAX_SEED = 10**12
NODE_LIMIT = 200_000
# Instance seeds of `max_uncertified` that stop at the node limit with one
# player uncertified (n = 56, sigma = 2n): the two cheapest such instances
# among seeds 0..11.
UNCERTIFIED_SEEDS = [{"begin": 5, "end": 6}, {"begin": 10, "end": 11}]
CHURN_EVENTS = 16


# Each row of a workload is split into CHUNKS scenarios, ordered round-robin
# across rows. Jobs run in id order and a scenario's jobs are consecutive,
# so without the split a row's jobs would all run within a few seconds of
# the serial pass, and a quantile set by that row would see only the host's
# speed in those seconds.
CHUNKS = 4


def _scenario(name, task, version, n, family=None, density=None, generator=None,
              params=None):
    scenario = {"name": name, "task": task, "version": version}
    if generator is not None:
        scenario["generator"] = generator
    if family is not None:
        scenario["budgets"] = {"family": family}
    scenario["grid"] = {"n": n}
    if density is not None:
        scenario["grid"]["density"] = density
    if params is not None:
        scenario["params"] = params
    return scenario


def _interleave(seed, rows):
    """Scenarios of `rows` ((scenario without seeds, instances per grid
    point, fixed) triples), each split into CHUNKS parts over its instance
    seeds, ordered chunk by chunk. A row's instance seeds start at
    seed*SEED_STRIDE, or at 0 when it is fixed."""
    scenarios = []
    for chunk in range(CHUNKS):
        for row, count, fixed in rows:
            first = 0 if fixed else seed * SEED_STRIDE
            begin = first + chunk * count // CHUNKS
            end = first + (chunk + 1) * count // CHUNKS
            if begin < end:
                part = dict(row, name=f"{row['name']}.{chunk}")
                part["seeds"] = {"begin": begin, "end": end}
                scenarios.append(part)
    return scenarios


def _campaign(name, scenarios):
    return {"name": name, "base_seed": BASE_SEED, "scenarios": scenarios}


def nash_certify(seed):
    exact = {"solver": "exact_bb", "solver_budget": {"node_limit": NODE_LIMIT}}

    def row(name, version, n, count, fixed=False, **kw):
        return _scenario(name, "nash_audit", version, n, params=exact, **kw), count, fixed

    # Counts are set so that the median job falls inside the narrow max_tree
    # n = 64 class and the p90 tail inside the max_tree n = 96 class, not in
    # a gap between classes, where a small shift of either moves it far.
    # Below 200 jobs the tail stays at p90; at 200 it would move to p95,
    # which falls in the gap above the n = 96 class. The MAX random rows are
    # fixed (see the module comment).
    rows = [
        row("max_tree_small", "max", [48], 24, generator="random_tree"),
        row("max_tree", "max", [64], 56, generator="random_tree"),
        row("max_tree_large", "max", [96], 24, generator="random_tree"),
        row("max_random", "max", [32], 16, True, family="random", density=[1.5, 2.0]),
        row("max_random_wide", "max", [40], 12, True, family="random", density=[1.5]),
        row("sum_random", "sum", [64], 16, family="random", density=[1.5, 2.0]),
        row("sum_tree", "sum", [96], 4, family="tree"),
        row("sum_tree_large", "sum", [128], 2, family="tree"),
    ]
    scenarios = _interleave(seed, rows)
    uncertified, _, _ = row("max_uncertified", "max", [56], 0, family="random", density=[2.0])
    uncertified["seeds"] = UNCERTIFIED_SEEDS
    scenarios.append(uncertified)
    twin = []
    for scenario in scenarios:
        twin_scenario = dict(scenario, task="swap_equilibrium")
        twin_scenario.pop("params")
        twin.append(twin_scenario)
    return _campaign("nash_certify", scenarios), _campaign("nash_certify_twin", twin)


def churn_certify(seed):
    def row(name, mode, n, count):
        params = {"churn": {"events": CHURN_EVENTS, "checkpoint_every": CHURN_EVENTS // 2,
                            "mode": mode}}
        return _scenario(name, "churn", "sum", n, family="tree", params=params), count, False

    rows = [
        row("track", "track", [48], 30),
        row("track_large", "track", [64], 14),
        row("respond", "respond", [32], 30),
        row("respond_large", "respond", [40], 18),
    ]
    return _campaign("churn_certify", _interleave(seed, rows)), None


def regimes_sweep(seed):
    # The median job falls in the narrow ~20 ms class (unit-budget dynamics
    # at n = 96, audits at n = 1024) and the p95 tail among the n = 40
    # random-budget dynamics and poa rows. The jobs are small, so there are
    # many of them: a round lasts as long as the other workloads' rounds.
    rows = []
    for version in ("sum", "max"):
        rows += [
            (_scenario(f"dyn_tree_{version}", "dynamics", version, [24, 32], "tree"), 24, False),
            (_scenario(f"dyn_tree_{version}_large", "dynamics", version, [40], "tree"), 14,
             False),
            (_scenario(f"dyn_unit_{version}", "dynamics", version, [96], "unit"), 84, False),
            (_scenario(f"dyn_random_{version}", "dynamics", version, [32, 40], "random",
                       [1.5]), 26, False),
        ]
    rows += [
        (_scenario("poa_random_sum", "poa", "sum", [32, 40], "random", [1.5]), 28, False),
        (_scenario("swap_random", "swap_equilibrium", "sum", [512, 1024], "random", [1.5]), 32,
         False),
        (_scenario("audit_tree", "audit", "sum", [512], "tree"), 32, False),
        (_scenario("audit_random", "audit", "sum", [1024], "random", [1.5]), 84, False),
    ]
    return _campaign("regimes_sweep", _interleave(seed, rows)), None


WORKLOADS = {
    "nash_certify": nash_certify,
    "churn_certify": churn_certify,
    "regimes_sweep": regimes_sweep,
}


def make_specs(workload, seed):
    """(spec, twin spec or None) of `workload` for benchmark seed `seed`."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if not 0 <= seed < MAX_SEED:
        raise ValueError(f"seed must lie in [0, {MAX_SEED})")
    return WORKLOADS[workload](seed)


def _sigma(scenario, n, density):
    family = scenario.get("budgets", {}).get("family")
    if family is None or family == "tree":  # implied-budget generators are trees
        return n - 1
    if family == "unit":
        return n
    return round(density * n)


def check_record(scenario, record, twin=None):
    """(errors, uncertified) of one job record.

    A nash_audit record is checked against `twin`, the swap_equilibrium
    record of the same state, when one is given.

    `errors` lists violated properties; any of them makes the run incorrect.
    `uncertified` marks a record whose certificate stopped at the node limit:
    the job failed, but its outputs are not wrong.
    """
    errors = []
    task = scenario["task"]
    uncertified = False
    if task == "nash_audit":
        if record["stable"] != (record["epsilon"] == 0):
            errors.append("stable disagrees with epsilon == 0")
        if record["certified"] and record["players_certified"] != record["n"]:
            errors.append("certified with players_certified != n")
        if not record["stable"] and record["regret"] > record["epsilon"]:
            errors.append("regret exceeds epsilon")
        if twin is not None:
            if (twin["scenario"], twin["n"], twin["seed"]) != (
                    record["scenario"], record["n"], record["seed"]):
                errors.append("twin record is for another job")
            if twin["improvement"] is not None and twin["improvement"] > record["epsilon"]:
                errors.append("a swap improves by more than epsilon")
            if not twin["stable"] and record["stable"]:
                errors.append("swap-unstable state reported Nash-stable")
        uncertified = not record["certified"]
    elif task == "churn":
        if not record["checkpoints_identical"]:
            errors.append("incremental certificate differs from the from-scratch audit")
        if record["events"] != scenario["params"]["churn"]["events"]:
            errors.append("events applied differ from events requested")
        uncertified = not record["certified"]
    elif task == "dynamics":
        if (record["converged"] and not record["connected"]
                and _sigma(scenario, record["n"], record["density"]) >= record["n"] - 1):
            errors.append("Lemma 3.1: converged disconnected with sigma >= n-1")
    elif task == "poa":
        if record["opt_lower"] > record["opt_upper"]:
            errors.append("opt_lower > opt_upper")
        if record["ratio_lower"] > record["ratio_upper"]:
            errors.append("ratio_lower > ratio_upper")
        if record["equilibrium_diameter"] < record["opt_lower"]:
            errors.append("equilibrium diameter below the optimum's lower bound")
    return errors, uncertified


def scenario_of(spec, record):
    for scenario in spec["scenarios"]:
        if scenario["name"] == record["scenario"]:
            return scenario
    raise ValueError(f"record names unknown scenario {record['scenario']!r}")
