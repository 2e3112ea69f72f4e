// Certified exact best-response search: depth-first branch-and-bound over
// head sets.
//
// The search space is all head sets S ⊆ V∖{u} with |S| ≤ b_u — "≤" because
// the player's cost is monotone non-increasing in its head set (every head
// only adds a seed to the distance minimisation), so the optimum over
// ≤ b-sets equals the optimum over exactly-b sets and any incumbent pads to
// budget for free.
//
// Scoring. Every u–v distance of a head set factors through the base graph
// (strategy_eval.hpp): dist(u, v) = min over seeds s ∈ In(u) ∪ S of
// 1 + d_base(s, v). Up to kMatrixLimit vertices the search precomputes the
// cover table cover[t][v] = 1 + d_base(t, v), saturated at Cinf where t cannot
// reach v, and keeps one row per DFS depth holding the cover of In(u) ∪ P for
// the partial head set P. A child probe is then one pass over two rows:
//   SUM cost(P ∪ {t}) = Σ_{v≠u} min(top[v], cover[t][v]);
//   MAX cost(P ∪ {t}) = the max of the same mins when every base component
//       holds a seed, else Cinf·(1 + unseeded components), the unseeded count
//       kept in O(1) by a per-component seed refcount along the DFS path.
// Descending is one row of mins and backtracking is free. Above kMatrixLimit
// the table would not fit, and the search falls back to the CSR delta oracle
// (DeltaEvaluator): descend/backtrack is one dynamic-BFS edge operation and a
// probe is a journaled trial insert rolled back in O(touched). Both paths
// produce the same costs, so the search tree is the same on either.
//
// Pruning (all admissible, i.e. never cuts a subtree containing a strictly
// better solution than the incumbent):
//   * SUM savings bound — per-vertex savings of a head set are the max of
//     the single-head savings, so savings are subadditive:
//     cost(P ∪ T) ≥ cost(P) − Σ_{t∈T} saving(t | P). With r head slots left,
//     LB = cost(P) − (sum of the r largest single-head savings), each
//     saving measured by one probe.
//   * MAX/SUM seed-distance bound (table path) — dist(v) ≥ the min over
//     every seed the subtree could ever own (In(u) ∪ P ∪ allowed
//     candidates) of the cover row entries; the max (MAX) or sum (SUM) over
//     v lower-bounds the cost. This is the bidirectional-bound idea of the
//     SSSP literature (Wilson–Zwick in PAPERS.md): meet the forward partial
//     assignment with precomputed backward distances from the candidates.
//   * Dominance elimination (n ≤ 256) — candidate t2 is dominated by t1 when
//     min(cover[t1][v], g(v)) ≤ min(cover[t2][v], g(v)) for every v, where
//     g(v) is the cover the in-neighbours provide for free. In closed form:
//     at v = t2 the dominated side pays min(1, g(t2)) = 1, while another head
//     pays cover[t1][t2] ≥ 2, so t2 can be dominated only if g(t2) = 1, i.e.
//     t2 ∈ In(u). Conversely an in-neighbour's row never beats g, so every
//     other candidate dominates it. The root therefore drops every
//     in-neighbour, except that the largest-index one survives when every
//     candidate is an in-neighbour (detail::dominated_heads).
//   * Zero-saving elimination (SUM only) — single-head savings shrink as P
//     grows, so a candidate saving nothing at a node saves nothing anywhere
//     below it and is dropped from the subtree.
//
// The search is anytime: it honours SolverBudget's node limit and deadline,
// returning the incumbent with `optimal = false` and `lower_bound` = the
// smallest bound among abandoned subtrees. When it runs to completion the
// result carries the optimality certificate (`optimal = true`,
// lower_bound == cost) — this is what turns "no deviation found" into a
// *certified* Nash verdict (game/equilibrium.hpp's verify_nash_equilibrium).
//
// Incumbent. Before the DFS, the search seeds its incumbent with the current
// strategy and a greedy construction refined by first-improvement swap
// descent — the loop order, tie-breaks and `evaluated` counts of
// BestResponseSolver::greedy and swap_improve — scored on the same cover
// table (or, above kMatrixLimit, the same delta oracle) as the search, so a
// solve builds one evaluator. exact_bb reads neither SolverBudget's
// `incremental` nor its `core`.
#pragma once

#include <cstdint>
#include <vector>

#include "solver/solver.hpp"

namespace bbng {

class ExactBranchAndBound final : public BestResponseBackend {
 public:
  /// Largest n scored on the n×n cover table; above it the delta oracle.
  static constexpr std::uint32_t kMatrixLimit = 2048;

  [[nodiscard]] std::string_view name() const noexcept override { return "exact_bb"; }
  [[nodiscard]] std::string_view description() const noexcept override {
    return "certified branch-and-bound over head sets: cover-table probes (delta oracle "
           "above n = 2048), admissible savings/seed-distance bounds, dominance elimination, "
           "anytime under a node/deadline budget";
  }

  /// `budget.node_limit` caps expanded search-tree nodes (0 = unlimited);
  /// `cache` memoises certified results across calls with the same relevant
  /// state. `pool` is accepted for interface uniformity but unused — the
  /// DFS is sequential (callers parallelise across players/jobs instead).
  [[nodiscard]] SolverResult solve(const Digraph& g, Vertex player, CostVersion version,
                                   const SolverBudget& budget = {}, ThreadPool* pool = nullptr,
                                   TranspositionCache* cache = nullptr) const override;
};

namespace detail {

/// exact_bb's incumbent descent for `player`, scored on the search's own
/// evaluator: `coarse` is BestResponseSolver::greedy's construction and
/// `refined` its swap_improve descent, equal to theirs in strategy, cost
/// and `evaluated` (bfs_avoided is left 0; the solve reports the shared
/// oracle's count).
struct IncumbentDescent {
  BestResponse coarse;
  BestResponse refined;
};
[[nodiscard]] IncumbentDescent incumbent_descent(const Digraph& g, Vertex player,
                                                 CostVersion version);

/// The candidates the root dominance rule drops for `player`, ascending:
/// every in-neighbour, bar the largest-index one when every candidate is an
/// in-neighbour. (exact_bb applies the rule only for n ≤ 256.)
[[nodiscard]] std::vector<Vertex> dominated_heads(const Digraph& g, Vertex player);

}  // namespace detail

}  // namespace bbng
