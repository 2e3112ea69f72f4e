// Differential tests for the certified branch-and-bound backend: on
// exhaustively enumerable instances (n ≤ 20, b_i ≤ 2) ExactBranchAndBound
// must match BestResponseSolver::exact (brute-force enumeration) cost for
// cost with the optimality certificate set — on both cost versions,
// disconnected instances included, on the cover-table path and on the delta
// oracle fallback above ExactBranchAndBound::kMatrixLimit. The closed-form
// dominance rule is checked against the pairwise sweep it replaced, and the
// incumbent descent against BestResponseSolver's greedy+swap ladder. Anytime
// behaviour (budget truncation), the transposition cache, and the
// lower-bound invariants are pinned alongside.
#include "solver/exact_bb.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "game/best_response.hpp"
#include "game/strategy_eval.hpp"
#include "graph/bfs.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace bbng {
namespace {

/// Random instance with every budget clamped to ≤ 2 so full enumeration is
/// the cheap ground truth (C(n−1, b) ≤ C(7, 2) = 21 per player).
Digraph small_instance(std::uint32_t n, Rng& rng) {
  const std::uint64_t sigma = n / 2 + rng.next_below(n);
  std::vector<std::uint32_t> budgets = random_budgets(n, sigma, rng);
  for (auto& b : budgets) b = std::min(b, 2u);
  return random_profile(budgets, rng);
}

/// The pairwise dominance sweep exact_bb ran before the closed form, kept as
/// its differential witness: candidate t2 is dropped when some kept t1 covers
/// every v at least as well, each taken together with the cover g(v) the
/// player's in-neighbours provide for free. O(n³).
std::vector<Vertex> pairwise_dominated_heads(const Digraph& g, Vertex player) {
  const std::uint32_t n = g.num_vertices();
  const UGraph base = best_response_base(g, player);
  std::vector<std::vector<std::uint64_t>> cover(n, std::vector<std::uint64_t>(n, cinf(n)));
  BfsRunner runner(n);
  for (Vertex t = 0; t < n; ++t) {
    if (t == player) continue;
    runner.run(base, t);
    for (Vertex v = 0; v < n; ++v) {
      if (runner.dist()[v] != kUnreachable) cover[t][v] = std::uint64_t{runner.dist()[v]} + 1;
    }
  }
  std::vector<std::uint64_t> in_cover(n, ~0ULL);
  for (const Vertex w : player_in_neighbors(g, player)) {
    for (Vertex v = 0; v < n; ++v) in_cover[v] = std::min(in_cover[v], cover[w][v]);
  }
  std::vector<std::uint8_t> eliminated(n, 0);
  std::vector<Vertex> dropped;
  for (Vertex t2 = 0; t2 < n; ++t2) {
    if (t2 == player) continue;
    for (Vertex t1 = 0; t1 < n && !eliminated[t2]; ++t1) {
      if (t1 == player || t1 == t2 || eliminated[t1]) continue;
      bool dominates = true;
      for (Vertex v = 0; v < n && dominates; ++v) {
        if (v == player) continue;
        dominates = std::min(cover[t1][v], in_cover[v]) <= std::min(cover[t2][v], in_cover[v]);
      }
      if (dominates) {
        eliminated[t2] = 1;
        dropped.push_back(t2);
      }
    }
  }
  return dropped;
}

/// exact_bb must match brute-force enumeration on `g` for every player with a
/// non-empty strategy, certified, with a strategy that realises its cost.
void expect_matches_brute_force(const ExactBranchAndBound& bb, const Digraph& g,
                                CostVersion version, const std::string& context) {
  const BestResponseSolver brute(version);
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    if (g.out_degree(u) == 0) continue;
    const BestResponse reference = brute.exact(g, u);
    const SolverResult result = bb.solve(g, u, version);
    ASSERT_EQ(result.cost, reference.cost) << context << " u " << u << " " << to_string(version);
    ASSERT_TRUE(result.optimal) << context << " u " << u;
    ASSERT_EQ(result.lower_bound, result.cost);
    ASSERT_EQ(result.current_cost, reference.current_cost) << context << " u " << u;
    ASSERT_EQ(result.bfs_avoided, 0u) << "the cover-table path runs no delta oracle";
    const StrategyEvaluator eval(g, u, version);
    StrategyEvaluator::Scratch scratch(g.num_vertices());
    ASSERT_EQ(eval.evaluate(result.strategy, scratch), result.cost) << context << " u " << u;
  }
}

TEST(SolverExact, MatchesBruteForceOnExhaustiveCorpus) {
  const ExactBranchAndBound bb;
  Rng rng(4242);
  for (int round = 0; round < 200; ++round) {
    const std::uint32_t n = 4 + static_cast<std::uint32_t>(round % 5);  // 4..8
    const Digraph g = small_instance(n, rng);
    const BudgetGame game(g.budgets());
    for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
      const BestResponseSolver brute(version);
      for (Vertex u = 0; u < n; ++u) {
        const BestResponse reference = brute.exact(g, u);
        // exact_bb reads neither `incremental` nor `core`: both settings
        // must give the same certified answer.
        for (const bool incremental : {true, false}) {
          SolverBudget budget;
          budget.incremental = incremental;
          const SolverResult result = bb.solve(g, u, version, budget);
          ASSERT_EQ(result.cost, reference.cost)
              << "round " << round << " u " << u << " " << to_string(version)
              << " incremental=" << incremental;
          ASSERT_TRUE(result.optimal);
          ASSERT_EQ(result.lower_bound, result.cost);
          ASSERT_EQ(result.current_cost, reference.current_cost);
          ASSERT_EQ(result.solver, "exact_bb");
          // The returned strategy must actually realise the returned cost.
          ASSERT_EQ(result.strategy.size(), g.out_degree(u));
          const StrategyEvaluator eval(g, u, version);
          StrategyEvaluator::Scratch scratch(n);
          ASSERT_EQ(eval.evaluate(result.strategy, scratch), result.cost);
        }
      }
    }
  }
}

TEST(SolverExact, HandlesDisconnectedInstances) {
  // σ < n−1 forces disconnection; Cinf charges must round-trip through the
  // bounds without tripping an inadmissible prune.
  const ExactBranchAndBound bb;
  Rng rng(777);
  for (int round = 0; round < 50; ++round) {
    const std::uint32_t n = 5 + static_cast<std::uint32_t>(round % 3);
    std::vector<std::uint32_t> budgets = random_budgets(n, n / 2, rng);
    for (auto& b : budgets) b = std::min(b, 2u);
    const Digraph g = random_profile(budgets, rng);
    for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
      const BestResponseSolver brute(version);
      for (Vertex u = 0; u < n; ++u) {
        const BestResponse reference = brute.exact(g, u);
        const SolverResult result = bb.solve(g, u, version);
        ASSERT_EQ(result.cost, reference.cost)
            << "round " << round << " u " << u << " " << to_string(version);
        ASSERT_TRUE(result.optimal);
      }
    }
  }
}

TEST(SolverExact, MatchesBruteForceAtTwelveToTwenty) {
  // The exhaustive corpus above stops at n = 8; here n = 12–20 (C(19, 2) =
  // 171 strategies per player), connected-leaning and disconnected budgets.
  // The disconnected MAX solves drive the per-component seed refcount:
  // their costs are Cinf·(1 + unseeded components) until a head reaches
  // every component.
  const ExactBranchAndBound bb;
  Rng rng(2024);
  int disconnected_max = 0;
  for (int round = 0; round < 36; ++round) {
    const std::uint32_t n = 12 + static_cast<std::uint32_t>(round % 9);  // 12..20
    const bool sparse = round % 2 == 1;
    const std::uint64_t sigma = sparse ? n / 2 + rng.next_below(n / 3) : n + rng.next_below(n);
    std::vector<std::uint32_t> budgets = random_budgets(n, sigma, rng);
    for (auto& b : budgets) b = std::min(b, 2u);
    const Digraph g = random_profile(budgets, rng);
    const std::string context = "round " + std::to_string(round);
    for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
      expect_matches_brute_force(bb, g, version, context);
      if (HasFatalFailure()) return;
    }
    if (sparse) {
      const StrategyEvaluator eval(g, 0, CostVersion::Max);
      if (eval.current_cost() >= 2 * cinf(n)) ++disconnected_max;
    }
  }
  EXPECT_GT(disconnected_max, 0) << "no MAX instance left two components unseeded";
}

TEST(SolverExact, ClosedFormDominanceMatchesPairwiseSweep) {
  // Random instances with n ≤ 64: every player's closed-form drop set must be
  // the pairwise sweep's, element for element, so the root adds the same
  // count to nodes_pruned and the DFS sees the same candidates.
  Rng rng(8080);
  int without_in = 0;
  int with_in = 0;
  for (int round = 0; round < 40; ++round) {
    const std::uint32_t n = 2 + static_cast<std::uint32_t>(rng.next_below(63));  // 2..64
    const std::uint64_t sigma = n / 2 + rng.next_below(2 * n);
    const Digraph g = random_profile(random_budgets(n, sigma, rng), rng);
    for (Vertex u = 0; u < n; ++u) {
      const std::vector<Vertex> closed = detail::dominated_heads(g, u);
      ASSERT_EQ(closed, pairwise_dominated_heads(g, u)) << "round " << round << " u " << u;
      ++(player_in_neighbors(g, u).empty() ? without_in : with_in);
    }
  }
  EXPECT_GT(without_in, 0);
  EXPECT_GT(with_in, 0);

  // Every candidate is an in-neighbour: a star of arcs into the centre. All
  // but the largest-index in-neighbour go; the leaves have no in-neighbour
  // and keep every candidate.
  for (const std::uint32_t n : {2U, 3U, 9U, 40U}) {
    Digraph star(n);
    for (Vertex v = 1; v < n; ++v) star.add_arc(v, 0);
    for (Vertex u = 0; u < n; ++u) {
      ASSERT_EQ(detail::dominated_heads(star, u), pairwise_dominated_heads(star, u))
          << "star n " << n << " u " << u;
    }
    std::vector<Vertex> expected;
    for (Vertex v = 1; v + 1 < n; ++v) expected.push_back(v);
    EXPECT_EQ(detail::dominated_heads(star, 0), expected);
    EXPECT_TRUE(detail::dominated_heads(star, n - 1).empty());
  }
}

TEST(SolverExact, DominanceCountsTowardNodesPruned) {
  // A player pointed at by everyone but one vertex: the root drops n − 2
  // in-neighbours, each counted as a pruned node, and the survivors still
  // give the enumeration optimum on both cost versions.
  const std::uint32_t n = 10;
  Digraph g(n);
  for (Vertex v = 1; v + 1 < n; ++v) g.add_arc(v, 0);
  g.add_arc(0, n - 1);
  g.add_arc(n - 1, 1);
  const ExactBranchAndBound bb;
  for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
    const SolverResult result = bb.solve(g, 0, version);
    EXPECT_GE(result.nodes_pruned, detail::dominated_heads(g, 0).size());
    EXPECT_EQ(detail::dominated_heads(g, 0).size(), n - 2);
    expect_matches_brute_force(bb, g, version, "near-star");
  }
}

TEST(SolverExact, OracleFallbackAboveMatrixLimitMatchesEnumeration) {
  // n = kMatrixLimit + 1 skips the cover table: the search scores on the CSR
  // delta oracle. A sparse unit-budget state keeps b = 1, so every strategy
  // is one head and StrategyEvaluator enumerates all n − 1 of them.
  const std::uint32_t n = ExactBranchAndBound::kMatrixLimit + 1;
  Rng rng(31337);
  const Digraph g = random_profile(std::vector<std::uint32_t>(n, 1), rng);
  const ExactBranchAndBound bb;
  for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
    for (const Vertex u : {Vertex{0}, Vertex{n / 2}, Vertex{n - 1}}) {
      const StrategyEvaluator player_eval(g, u, version);
      StrategyEvaluator::Scratch scratch(n);
      std::uint64_t best = player_eval.current_cost();
      for (Vertex t = 0; t < n; ++t) {
        if (t == u) continue;
        const Vertex head[1] = {t};
        best = std::min(best, player_eval.evaluate(head, scratch));
      }
      const SolverResult result = bb.solve(g, u, version);
      EXPECT_TRUE(result.optimal) << "u " << u << " " << to_string(version);
      EXPECT_EQ(result.cost, best) << "u " << u << " " << to_string(version);
      EXPECT_EQ(result.current_cost, player_eval.current_cost());
      EXPECT_GT(result.bfs_avoided, 0u) << "the fallback must score on the delta oracle";
    }
  }
}

/// exact_bb's incumbent descent must equal BestResponseSolver's greedy and
/// swap_improve from the greedy result — strategy, cost and `evaluated` —
/// whichever evaluator the ladder scores on.
void expect_descent_matches_ladder(const Digraph& g, Vertex u, CostVersion version,
                                   const std::string& context) {
  const detail::IncumbentDescent descent = detail::incumbent_descent(g, u, version);
  for (const bool incremental : {true, false}) {
    const BestResponseSolver ladder(version, /*exact_limit=*/1, incremental);
    const BestResponse coarse = ladder.greedy(g, u);
    const BestResponse refined = ladder.swap_improve(g, u, coarse.strategy);
    const std::string where = context + " u " + std::to_string(u) + " " +
                              std::string(to_string(version)) +
                              (incremental ? " incremental" : " naive");
    ASSERT_EQ(descent.coarse.strategy, coarse.strategy) << where;
    ASSERT_EQ(descent.coarse.cost, coarse.cost) << where;
    ASSERT_EQ(descent.coarse.evaluated, coarse.evaluated) << where;
    ASSERT_EQ(descent.coarse.current_cost, coarse.current_cost) << where;
    ASSERT_EQ(descent.refined.strategy, refined.strategy) << where;
    ASSERT_EQ(descent.refined.cost, refined.cost) << where;
    ASSERT_EQ(descent.refined.evaluated, refined.evaluated) << where;
  }
}

TEST(SolverExact, IncumbentDescentMatchesGreedySwapLadder) {
  // Trees, random budgets (connected-leaning and sparse, so MAX meets
  // disconnected base graphs and the Cinf·(1 + unseeded) charge), on both
  // cost versions and every player: delta_scan_degenerate ones (no in-arcs,
  // ≤ 1 head), where the ladder scores naively, and out-degree-0 ones.
  Rng rng(6060);
  int degenerate = 0;
  int disconnected_max = 0;
  int swaps_committed = 0;
  for (int round = 0; round < 48; ++round) {
    const std::uint32_t n = 3 + static_cast<std::uint32_t>(rng.next_below(38));  // 3..40
    Digraph g(1);
    if (round % 3 == 0) {
      g = random_tree_digraph(n, rng);
    } else {
      const bool sparse = round % 3 == 2;
      const std::uint64_t sigma = sparse ? n / 2 + rng.next_below(n / 3 + 1)
                                         : n + rng.next_below(2 * n);
      g = random_profile(random_budgets(n, std::min<std::uint64_t>(sigma, n * (n - 1)), rng),
                         rng);
    }
    const std::string context = "round " + std::to_string(round) + " n " + std::to_string(n);
    for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
      for (Vertex u = 0; u < n; ++u) {
        expect_descent_matches_ladder(g, u, version, context);
        if (HasFatalFailure()) return;
        if (version == CostVersion::Sum) {
          degenerate += delta_scan_degenerate(g, u) ? 1 : 0;
          const detail::IncumbentDescent d = detail::incumbent_descent(g, u, version);
          swaps_committed += d.refined.strategy != d.coarse.strategy ? 1 : 0;
        } else if (StrategyEvaluator(g, u, version).current_cost() >= 2 * cinf(n)) {
          ++disconnected_max;
        }
      }
    }
  }
  EXPECT_GT(degenerate, 0);
  EXPECT_GT(disconnected_max, 0);
  EXPECT_GT(swaps_committed, 0) << "no swap descent moved off its greedy start";
}

TEST(SolverExact, IncumbentDescentOfAnEmptyStrategyUnderALargerCap) {
  // An out-degree-0 player solved under budget_cap 2: the descent runs for
  // out-degree (zero) greedy steps, as the ladder does, and the search still
  // finds the capped optimum from the empty incumbent.
  Rng rng(17);
  const Digraph g = random_profile({0, 2, 1, 1, 2, 1, 0, 1}, rng);
  const ExactBranchAndBound bb;
  for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
    for (const Vertex u : {Vertex{0}, Vertex{6}}) {
      expect_descent_matches_ladder(g, u, version, "empty strategy");
      if (HasFatalFailure()) return;
      SolverBudget budget;
      budget.budget_cap = 2;
      const SolverResult result = bb.solve(g, u, version, budget);
      const BestResponse reference =
          BestResponseSolver(version).exact(normalize_player_degree(g, u, 2), u);
      EXPECT_TRUE(result.optimal);
      EXPECT_EQ(result.cost, reference.cost) << "u " << u << " " << to_string(version);
      EXPECT_EQ(result.strategy.size(), 2u);
    }
  }
}

TEST(SolverExact, IncumbentDescentOnTheOracleAboveMatrixLimit) {
  // n = kMatrixLimit + 1: the descent scores on the search's CSR delta
  // oracle, and must still equal the ladder probe for probe.
  const std::uint32_t n = ExactBranchAndBound::kMatrixLimit + 1;
  Rng rng(4711);
  std::vector<std::uint32_t> budgets(n, 1);
  budgets[0] = 2;
  budgets[n / 2] = 3;
  const Digraph g = random_profile(budgets, rng);
  for (const CostVersion version : {CostVersion::Sum, CostVersion::Max}) {
    for (const Vertex u : {Vertex{0}, Vertex{n / 2}}) {
      expect_descent_matches_ladder(g, u, version, "n 2049");
      if (HasFatalFailure()) return;
    }
  }
}

TEST(SolverExact, ZeroBudgetPlayerIsTriviallyCertified) {
  Rng rng(3);
  std::vector<std::uint32_t> budgets{0, 2, 1, 1, 0};
  const Digraph g = random_profile(budgets, rng);
  const ExactBranchAndBound bb;
  const SolverResult result = bb.solve(g, 0, CostVersion::Sum);
  EXPECT_TRUE(result.optimal);
  EXPECT_TRUE(result.strategy.empty());
  EXPECT_EQ(result.cost, result.current_cost);
  EXPECT_FALSE(result.improves());
}

TEST(SolverExact, NodeLimitTruncationIsAnytime) {
  // Under a one-node budget the search may still close honestly (root-level
  // pruning can *prove* the seeded incumbent optimal; b ≤ 1 players close at
  // the root by construction) — but whenever it claims a certificate the
  // cost must be the true optimum, and whenever it truncates the optimum
  // must lie inside [lower_bound, cost]. Some player must actually truncate,
  // or the budget knob is dead.
  const ExactBranchAndBound bb;
  Rng rng(99);
  int truncations = 0;
  for (int round = 0; round < 20; ++round) {
    const Digraph g = small_instance(8, rng);
    const BestResponseSolver brute(CostVersion::Sum);
    for (Vertex u = 0; u < g.num_vertices(); ++u) {
      if (g.out_degree(u) == 0) continue;
      SolverBudget budget;
      budget.node_limit = 1;
      const SolverResult result = bb.solve(g, u, CostVersion::Sum, budget);
      EXPECT_LE(result.cost, result.current_cost);
      EXPECT_LE(result.lower_bound, result.cost);
      const BestResponse reference = brute.exact(g, u);
      if (result.optimal) {
        EXPECT_EQ(result.cost, reference.cost);
      } else {
        ++truncations;
        EXPECT_LE(result.lower_bound, reference.cost);
        EXPECT_GE(result.cost, reference.cost);
      }
    }
  }
  EXPECT_GT(truncations, 0);
}

TEST(SolverExact, TranspositionCacheHitsAcrossOwnStrategyChanges) {
  // The canonical key excludes the player's own out-arcs, so re-solving
  // after the player itself moved is a hit; the answer must stay certified
  // and the refreshed current_cost must track the new strategy.
  Rng rng(123);
  Digraph g = small_instance(7, rng);
  Vertex mover = 0;
  while (g.out_degree(mover) == 0) ++mover;
  const ExactBranchAndBound bb;
  TranspositionCache cache;

  const SolverResult first = bb.solve(g, mover, CostVersion::Sum, {}, nullptr, &cache);
  ASSERT_TRUE(first.optimal);
  EXPECT_EQ(cache.hits(), 0u);

  // Move the player somewhere else, then ask again.
  std::vector<Vertex> other;
  for (Vertex t = 0; t < g.num_vertices() && other.size() < g.out_degree(mover); ++t) {
    if (t != mover && !std::count(first.strategy.begin(), first.strategy.end(), t)) {
      other.push_back(t);
    }
  }
  ASSERT_EQ(other.size(), g.out_degree(mover));
  g.set_strategy(mover, other);

  const SolverResult second = bb.solve(g, mover, CostVersion::Sum, {}, nullptr, &cache);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_TRUE(second.optimal);
  EXPECT_EQ(second.cost, first.cost);  // the optimum ignores the mover's own arcs
  const StrategyEvaluator eval(g, mover, CostVersion::Sum);
  EXPECT_EQ(second.current_cost, eval.current_cost());
  // A hit performs no search work: replayed counters must not be reported.
  EXPECT_EQ(second.nodes_explored, 0u);
  EXPECT_EQ(second.evaluated, 0u);
  EXPECT_EQ(second.bfs_avoided, 0u);

  // A different player's query must NOT hit the cached entry.
  Vertex other_player = mover + 1;
  while (other_player < g.num_vertices() && g.out_degree(other_player) == 0) ++other_player;
  if (other_player < g.num_vertices()) {
    const SolverResult third = bb.solve(g, other_player, CostVersion::Sum, {}, nullptr, &cache);
    EXPECT_TRUE(third.optimal);
    EXPECT_EQ(cache.hits(), 1u);
  }
}

TEST(SolverExact, PrunesAgainstFullEnumeration) {
  // Not a correctness property, but the point of the subsystem: on a larger
  // budget the search must close while scoring far fewer candidates than
  // enumeration would.
  Rng rng(5150);
  std::vector<std::uint32_t> budgets(14, 1);
  budgets[0] = 5;  // C(13, 5) = 1287 candidate strategies
  const Digraph g = random_profile(budgets, rng);
  const ExactBranchAndBound bb;
  const SolverResult result = bb.solve(g, 0, CostVersion::Sum);
  ASSERT_TRUE(result.optimal);
  const BestResponseSolver brute(CostVersion::Sum);
  const BestResponse reference = brute.exact(g, 0);
  EXPECT_EQ(result.cost, reference.cost);
  EXPECT_LT(result.evaluated, reference.evaluated);
  EXPECT_GT(result.nodes_pruned, 0u);
}

}  // namespace
}  // namespace bbng
