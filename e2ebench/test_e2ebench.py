"""Tests of the benchmark's own arithmetic and control paths.

    python3 -m unittest discover -s e2ebench -p 'test_*.py'

They need no build: the deadline test drives run_child with a stand-in
harness written in Python.
"""

import os
import statistics
import sys
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


class TailRule(unittest.TestCase):
    def test_percentile_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.tail_percentile(39))
        self.assertEqual(stats.tail_percentile(40), 75.0)
        self.assertEqual(stats.tail_percentile(99), 75.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(199), 90.0)
        self.assertEqual(stats.tail_percentile(200), 95.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(10000), 99.9)

    def test_chosen_percentile_leaves_at_least_ten_above(self):
        for count in range(40, 3000, 7):
            p = stats.tail_percentile(count)
            self.assertGreaterEqual(stats.beyond(count, p), stats.TAIL_MIN_BEYOND)
            higher = [q for q in stats.TAIL_LADDER if q > p]
            for q in higher:
                self.assertLess(stats.beyond(count, q), stats.TAIL_MIN_BEYOND)

    def test_tail_value_is_a_sample_by_nearest_rank(self):
        values = list(range(1, 201))  # 200 samples: p95 -> the 190th smallest
        self.assertEqual(stats.tail(values), (95.0, 190))
        self.assertEqual(sum(v > 190 for v in values), 10)

    def test_tail_ignores_sample_order(self):
        values = [float(v) for v in range(100, 0, -1)]
        self.assertEqual(stats.tail(values), (90.0, 90.0))

    def test_few_samples_report_the_median(self):
        self.assertEqual(stats.tail([5.0, 1.0, 3.0]), (50.0, 3.0))

    def test_nearest_rank_edges(self):
        self.assertEqual(stats.nearest_rank([7.0], 99.9), 7.0)
        self.assertEqual(stats.nearest_rank([3.0, 1.0, 2.0], 0.0), 1.0)
        self.assertEqual(stats.nearest_rank([3.0, 1.0, 2.0], 100.0), 3.0)
        with self.assertRaises(ValueError):
            stats.nearest_rank([], 50.0)


class Quartiles(unittest.TestCase):
    def test_spread_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.5, 10.5, 12.0, 9.0, 10.2, 10.8, 11.5, 9.8]
        q1, median, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / median)

    def test_spread_of_hand_computed_quartiles(self):
        # Exclusive method on 1..10: q1 = 2.75, median = 5.5, q3 = 8.25.
        self.assertAlmostEqual(stats.spread([float(v) for v in range(1, 11)]), 1.0)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(stats.spread([4.0] * 10), 0.0)

    def test_per_job_medians_across_rounds(self):
        rounds = [[1.0, 10.0], [3.0, 30.0], [2.0, 20.0]]
        self.assertEqual(stats.per_job_medians(rounds), [2.0, 20.0])


class FailureCounting(unittest.TestCase):
    def round(self, serial=(), campaign=()):
        return {"serial_mismatch": list(serial), "campaign_mismatch": list(campaign)}

    def test_each_round_runs_every_job_twice(self):
        self.assertEqual(stats.count_failures(10, [self.round()] * 3, set(), False), (60, 0))

    def test_bad_records_fail_in_both_passes_of_every_round(self):
        self.assertEqual(stats.count_failures(10, [self.round()] * 2, {3, 7}, False), (40, 8))

    def test_failed_share_does_not_depend_on_round_count(self):
        shares = {stats.count_failures(172, [self.round()] * r, {0, 1}, False)[1]
                  / stats.count_failures(172, [self.round()] * r, {0, 1}, False)[0]
                  for r in range(1, 6)}
        self.assertEqual(len(shares), 1)

    def test_mismatch_counts_once_per_execution(self):
        rounds = [self.round(serial=[2], campaign=[2, 5])]
        # job 2 is also a bad record: its serial and campaign runs fail once each
        self.assertEqual(stats.count_failures(10, rounds, {2}, False), (20, 3))

    def test_hung_round_fails_all_of_its_jobs(self):
        self.assertEqual(stats.count_failures(10, [self.round()], set(), True), (40, 20))
        self.assertEqual(stats.count_failures(10, [], set(), True), (20, 20))


STAND_IN = r"""
import sys, time
print('{"phase": "setup", "jobs": 4}', flush=True)
print('{"phase": "round", "round": 0}', flush=True)
if sys.argv[1] == "hang":
    time.sleep(60)
elif sys.argv[1] == "crash":
    sys.exit(3)
print('{"phase": "done"}', flush=True)
"""


class Deadline(unittest.TestCase):
    def child(self, mode, deadline_s):
        start = time.monotonic()
        phases, finished = run.run_child([sys.executable, "-c", STAND_IN, mode], deadline_s)
        return phases, finished, time.monotonic() - start

    def test_finished_child(self):
        phases, finished, _ = self.child("ok", 30)
        self.assertTrue(finished)
        self.assertEqual([p["phase"] for p in phases], ["setup", "round", "done"])

    def test_hung_child_is_killed_and_keeps_its_finished_phases(self):
        phases, finished, elapsed = self.child("hang", 1.0)
        self.assertFalse(finished)
        self.assertLess(elapsed, 30)
        self.assertEqual([p["phase"] for p in phases], ["setup", "round"])

    def test_crashed_child_is_not_finished(self):
        phases, finished, _ = self.child("crash", 30)
        self.assertFalse(finished)
        self.assertEqual(len(phases), 2)


class Specs(unittest.TestCase):
    def test_same_seed_same_specs(self):
        for name in workloads.WORKLOADS:
            self.assertEqual(workloads.make_specs(name, 7), workloads.make_specs(name, 7))
            self.assertNotEqual(workloads.make_specs(name, 7), workloads.make_specs(name, 8))

    def test_fixed_rows_ignore_the_seed(self):
        def fixed(seed):
            spec, _ = workloads.make_specs("nash_certify", seed)
            return [s for s in spec["scenarios"]
                    if s["name"].startswith(("max_uncertified", "max_random"))]
        self.assertEqual(len(fixed(1)), 2 * workloads.CHUNKS + 1)
        self.assertEqual(fixed(1), fixed(123456))

    def test_chunks_cover_each_row_once(self):
        spec, _ = workloads.make_specs("churn_certify", 5)
        seeds = sorted((s["name"].split(".")[0], i) for s in spec["scenarios"]
                       for i in range(s["seeds"]["begin"], s["seeds"]["end"]))
        self.assertEqual(len(seeds), len(set(seeds)))
        self.assertEqual(sum(1 for name, _ in seeds if name == "track"), 30)

    def test_twin_repeats_the_states(self):
        spec, twin = workloads.make_specs("nash_certify", 3)
        self.assertEqual(spec["base_seed"], twin["base_seed"])
        for a, b in zip(spec["scenarios"], twin["scenarios"]):
            self.assertEqual(b["task"], "swap_equilibrium")
            for key in ("name", "version", "grid", "seeds"):
                self.assertEqual(a[key], b[key])

    def test_seed_range_is_checked(self):
        with self.assertRaises(ValueError):
            workloads.make_specs("nash_certify", -1)
        with self.assertRaises(ValueError):
            workloads.make_specs("nash_certify", workloads.MAX_SEED)


class RecordChecks(unittest.TestCase):
    NASH = {"task": "nash_audit"}

    def nash(self, **fields):
        record = {"scenario": "s", "n": 8, "seed": 1, "stable": False, "certified": True,
                  "epsilon": 5, "players_certified": 8, "regret": 5}
        record.update(fields)
        return record

    def test_consistent_nash_record_passes(self):
        twin = {"scenario": "s", "n": 8, "seed": 1, "stable": False, "improvement": 3}
        self.assertEqual(workloads.check_record(self.NASH, self.nash(), twin), ([], False))

    def test_nash_violations(self):
        cases = [
            self.nash(stable=True),
            self.nash(players_certified=7),
            self.nash(regret=6),
        ]
        for record in cases:
            errors, _ = workloads.check_record(self.NASH, record)
            self.assertEqual(len(errors), 1, record)

    def test_twin_violations(self):
        bigger = {"scenario": "s", "n": 8, "seed": 1, "stable": False, "improvement": 6}
        self.assertEqual(len(workloads.check_record(self.NASH, self.nash(), bigger)[0]), 1)
        stable = self.nash(stable=True, epsilon=0, regret=None)
        unstable = {"scenario": "s", "n": 8, "seed": 1, "stable": False, "improvement": 0}
        self.assertEqual(len(workloads.check_record(self.NASH, stable, unstable)[0]), 1)

    def test_uncertified_is_a_failure_not_an_error(self):
        record = self.nash(certified=False, players_certified=7)
        self.assertEqual(workloads.check_record(self.NASH, record), ([], True))

    def test_lemma_31_applies_only_with_enough_budget(self):
        tree = {"task": "dynamics", "budgets": {"family": "tree"}}
        sparse = {"task": "dynamics", "budgets": {"family": "random"}}
        record = {"n": 10, "density": 0.5, "converged": True, "connected": False}
        self.assertEqual(len(workloads.check_record(tree, record)[0]), 1)
        self.assertEqual(workloads.check_record(sparse, record), ([], False))


if __name__ == "__main__":
    unittest.main()
