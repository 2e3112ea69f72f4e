#include "solver/exact_bb.hpp"

#include <algorithm>
#include <optional>
#include <span>

#include "game/strategy_eval.hpp"
#include "graph/connectivity.hpp"
#include "graph/csr_graph.hpp"
#include "obs/metrics.hpp"
#include "obs/timing.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace bbng {
namespace {

/// Publish one terminal solve's work to the registry (solver.exact_bb.*).
/// Counters are field-wise copies of the SolverResult the caller receives,
/// so the legacy result fields and the registry agree bit for bit. A cache
/// hit publishes cache_served instead: its result counters were zeroed (no
/// fresh search work happened) and the cache itself already counted the hit.
void publish_exact_bb(const SolverResult& result, bool cache_hit) {
  if (!obs::kCompiledIn || !obs::enabled()) return;
  static const obs::CounterId kSolves = obs::register_counter("solver.exact_bb.solves");
  static const obs::CounterId kServed = obs::register_counter("solver.exact_bb.cache_served");
  static const obs::CounterId kNodes = obs::register_counter("solver.exact_bb.nodes");
  static const obs::CounterId kPruned = obs::register_counter("solver.exact_bb.pruned");
  static const obs::CounterId kEvaluated = obs::register_counter("solver.exact_bb.evaluated");
  static const obs::CounterId kBfsAvoided =
      obs::register_counter("solver.exact_bb.bfs_avoided");
  if (cache_hit) {
    obs::add(kServed, 1);
    return;
  }
  obs::add(kSolves, 1);
  obs::add(kNodes, result.nodes_explored);
  obs::add(kPruned, result.nodes_pruned);
  obs::add(kEvaluated, result.evaluated);
  obs::add(kBfsAvoided, result.bfs_avoided);
}

constexpr std::uint64_t kInfCost = ~0ULL;

/// The O(n²)-memory cover table and its O(n·m) precompute are built up to
/// this size; above it the search scores on the delta oracle with the
/// probe-based savings bound alone (it is hopeless that far out anyway —
/// exact search is a small-instance tool).
constexpr std::uint32_t kMatrixLimit = ExactBranchAndBound::kMatrixLimit;

/// Root dominance elimination runs only up to this size.
constexpr std::uint32_t kDominanceLimit = 256;

/// The fallback above kMatrixLimit: the CSR delta oracle, where descending or
/// backtracking is one dynamic-BFS edge operation and a child probe is a
/// journaled trial insert rolled back in O(touched).
class NodeEval {
 public:
  NodeEval(const Digraph& g, Vertex player, CostVersion version) : delta_(g, player, version) {
    // The search grows P from the empty set; strip the incumbent heads.
    for (const Vertex h : delta_.current_strategy()) delta_.remove_head(h);
  }

  [[nodiscard]] std::uint64_t current_cost() const noexcept { return delta_.current_cost(); }
  [[nodiscard]] std::uint64_t cost() { return delta_.cost(); }
  [[nodiscard]] std::uint64_t probe(Vertex t) { return delta_.cost_with_head(t); }
  void push(Vertex t) { delta_.add_head(t); }
  void pop(Vertex t) { delta_.remove_head(t); }
  [[nodiscard]] std::uint64_t bfs_avoided() const noexcept { return delta_.bfs_avoided(); }

 private:
  CsrDeltaEvaluator delta_;
};

struct Candidate {
  Vertex t = 0;
  std::uint64_t cost = 0;    ///< probed cost(P ∪ {t})
  std::uint64_t saving = 0;  ///< cost(P) − cost
};

/// The table path (n ≤ kMatrixLimit). cover_[t·n + v] = 1 + d_base(t, v), the
/// charge v pays when served through head t, saturated at Cinf where t cannot
/// reach v. A flat stack holds one row per DFS depth: row d is the cover of
/// the seeds In(u) ∪ P at depth d, so every cost is a min over two rows (the
/// root row holds 0 in the player's column, so the player drops out of every
/// sum and max):
///   SUM cost(P ∪ {t}) = Σ_v min(top[v], cover[t][v]);
///   MAX cost(P ∪ {t}) = max_v of the same mins when every base component
///       holds a seed, else Cinf·(1 + unseeded components) — a per-component
///       seed refcount along the DFS path gives the unseeded count in O(1).
class CoverTable {
 public:
  CoverTable(const Digraph& g, Vertex player, CostVersion version)
      : n_(g.num_vertices()), player_(player), version_(version), inf_(cinf(n_)) {
    // One BFS per head over the base graph (strategy_eval.hpp), written
    // straight into its cover row: Cinf doubles as the unvisited mark, since
    // every reachable charge is at most n.
    const CsrUGraph base = underlying_csr(CsrGraph(g), /*skip=*/player_);
    const auto inf = static_cast<std::uint32_t>(inf_);
    cover_.assign(static_cast<std::size_t>(n_) * n_, inf);
    std::vector<Vertex> queue(n_);
    for (Vertex t = 0; t < n_; ++t) {
      if (t == player_) continue;  // row unused (never a candidate/seed)
      std::uint32_t* row = cover_.data() + std::size_t{t} * n_;
      row[t] = 1;
      queue[0] = t;
      for (std::uint32_t head = 0, tail = 1; head < tail; ++head) {
        const Vertex v = queue[head];
        for (const Vertex w : base.neighbors(v)) {
          if (row[w] != inf) continue;
          row[w] = row[v] + 1;
          queue[tail++] = w;
        }
      }
    }
    const Components comps = connected_components(base);
    comp_ = comps.id;
    seed_refs_.assign(comps.count, 0);
    unseeded_ = comps.count - 1;  // the player is an isolated singleton in base

    // Root row: the cover the player's in-neighbours provide for free.
    stack_.assign(n_, inf);
    stack_[player_] = 0;
    for (const Vertex w : player_in_neighbors(g, player_)) {
      const std::uint32_t* cover = cover_row(w);
      for (Vertex v = 0; v < n_; ++v) stack_[v] = std::min(stack_[v], cover[v]);
      add_seed(w);
    }
    const std::span<const Vertex> current = g.out_neighbors(player_);
    for (const Vertex h : current) push(h);
    current_cost_ = cost();
    for (auto it = current.rbegin(); it != current.rend(); ++it) pop(*it);
  }

  [[nodiscard]] std::uint64_t current_cost() const noexcept { return current_cost_; }

  /// Cost of the present partial head set P.
  [[nodiscard]] std::uint64_t cost() const {
    const std::uint32_t* top = row(depth_);
    if (version_ == CostVersion::Sum) {
      std::uint64_t sum = 0;
      for (Vertex v = 0; v < n_; ++v) sum += top[v];
      return sum;
    }
    if (unseeded_ > 0) return inf_ * (1 + std::uint64_t{unseeded_});
    return *std::max_element(top, top + n_);
  }

  /// Cost of P ∪ {t}: one row of probe_all.
  [[nodiscard]] std::uint64_t probe(Vertex t) const {
    const std::uint32_t n = n_;
    const std::uint32_t* top = row(depth_);
    const std::uint32_t* cover = cover_row(t);
    if (version_ == CostVersion::Sum) {
      std::uint64_t sum = 0;
      for (Vertex v = 0; v < n; ++v) sum += std::min(top[v], cover[v]);
      return sum;
    }
    std::uint32_t worst = 0;
    for (Vertex v = 0; v < n; ++v) worst = std::max(worst, std::min(top[v], cover[v]));
    return max_cost(t, worst);
  }

  /// Cost of P ∪ {t} for every allowed t, appended to `cands`; also returns
  /// the seed-distance bound of the subtree (module header): per v, the min
  /// over the top row and every allowed candidate's cover row, summed (SUM)
  /// or maxed (MAX).
  [[nodiscard]] std::uint64_t probe_all(const std::vector<Vertex>& allowed,
                                        std::uint64_t cost_p, std::vector<Candidate>& cands) {
    const std::uint32_t n = n_;  // a local bound lets the row loops vectorise
    const std::uint32_t* top = row(depth_);
    reach_.assign(top, top + n);
    std::uint32_t* reach = reach_.data();
    for (const Vertex t : allowed) {
      const std::uint32_t* cover = cover_row(t);
      std::uint64_t c = 0;
      if (version_ == CostVersion::Sum) {
        for (Vertex v = 0; v < n; ++v) {
          c += std::min(top[v], cover[v]);
          reach[v] = std::min(reach[v], cover[v]);
        }
      } else {
        std::uint32_t worst = 0;
        for (Vertex v = 0; v < n; ++v) {
          worst = std::max(worst, std::min(top[v], cover[v]));
          reach[v] = std::min(reach[v], cover[v]);
        }
        c = max_cost(t, worst);
      }
      BBNG_ASSERT(c <= cost_p);
      cands.push_back({t, c, cost_p - c});
    }
    if (version_ == CostVersion::Sum) {
      std::uint64_t sum = 0;
      for (Vertex v = 0; v < n; ++v) sum += reach[v];
      return sum;
    }
    return *std::max_element(reach, reach + n);
  }

  void push(Vertex t) {
    if (stack_.size() < std::size_t{depth_ + 2} * n_) stack_.resize(std::size_t{depth_ + 2} * n_);
    const std::uint32_t* top = row(depth_);
    const std::uint32_t* cover = cover_row(t);
    std::uint32_t* next = stack_.data() + std::size_t{depth_ + 1} * n_;
    for (Vertex v = 0; v < n_; ++v) next[v] = std::min(top[v], cover[v]);
    ++depth_;
    add_seed(t);
  }

  void pop(Vertex t) {
    BBNG_ASSERT(depth_ > 0);
    --depth_;
    if (--seed_refs_[comp_[t]] == 0) ++unseeded_;
  }

 private:
  /// MAX cost of P ∪ {t} whose largest min over the two rows is `worst`:
  /// Cinf·(1 + unseeded components) while t leaves some component unseeded.
  [[nodiscard]] std::uint64_t max_cost(Vertex t, std::uint32_t worst) const {
    const std::uint32_t unseeded = unseeded_ - (seed_refs_[comp_[t]] == 0 ? 1 : 0);
    return unseeded > 0 ? inf_ * (1 + std::uint64_t{unseeded}) : worst;
  }
  void add_seed(Vertex s) {
    if (seed_refs_[comp_[s]]++ == 0) --unseeded_;
  }
  [[nodiscard]] const std::uint32_t* cover_row(Vertex t) const {
    return cover_.data() + std::size_t{t} * n_;
  }
  [[nodiscard]] const std::uint32_t* row(std::uint32_t depth) const {
    return stack_.data() + std::size_t{depth} * n_;
  }

  const std::uint32_t n_;
  const Vertex player_;
  const CostVersion version_;
  const std::uint64_t inf_;
  std::vector<std::uint32_t> cover_;      ///< n×n, row-major by head
  std::vector<std::uint32_t> stack_;      ///< (depth+1)×n cover rows, grown on demand
  std::vector<std::uint32_t> reach_;      ///< seed-distance bound scratch row
  std::vector<std::uint32_t> comp_;       ///< component ids of the base graph
  std::vector<std::uint32_t> seed_refs_;  ///< seeds of In ∪ P per component
  std::uint32_t unseeded_ = 0;            ///< base components holding no seed
  std::uint32_t depth_ = 0;
  std::uint64_t current_cost_ = 0;
};

class Search {
 public:
  Search(const Digraph& g, Vertex player, CostVersion version, const SolverBudget& budget,
         std::uint32_t cap)
      : n_(g.num_vertices()), player_(player), version_(version), b_(cap), budget_(budget) {
    if (n_ <= kMatrixLimit) {
      table_.emplace(g, player, version);
      if (n_ <= kDominanceLimit) dominated_ = detail::dominated_heads(g, player);
    } else {
      oracle_.emplace(g, player, version);
    }
  }

  [[nodiscard]] std::uint64_t current_cost() const noexcept {
    return table_ ? table_->current_cost() : oracle_->current_cost();
  }

  /// Seed the incumbent (better seeds prune more).
  void offer(const std::vector<Vertex>& heads, std::uint64_t cost) {
    if (cost < best_cost_) {
      best_cost_ = cost;
      best_heads_ = heads;
    }
  }

  /// The incumbent descent: BestResponseSolver::greedy, then swap_improve
  /// from its sorted result, with their loop order, strict-< tie-breaks and
  /// `evaluated` counts, scored on this search's evaluator. Leaves P empty
  /// for run().
  [[nodiscard]] detail::IncumbentDescent descend(std::uint32_t degree) {
    detail::IncumbentDescent descent;
    std::vector<std::uint8_t> used(n_, 0);
    used[player_] = 1;

    // Greedy: `degree` times, the lowest-index strict minimum over unused t.
    for (std::uint32_t step = 0; step < degree; ++step) {
      Vertex best = kUnreachable;
      std::uint64_t best_cost = kInfCost;
      for (Vertex t = 0; t < n_; ++t) {
        if (used[t]) continue;
        const std::uint64_t c = probe(t);
        ++descent.coarse.evaluated;
        if (c < best_cost) {
          best_cost = c;
          best = t;
        }
      }
      BBNG_ASSERT(best != kUnreachable);
      used[best] = 1;
      push(best);
    }
    std::vector<Vertex> strategy = heads_;
    std::sort(strategy.begin(), strategy.end());
    std::uint64_t cost = node_cost();
    descent.coarse.strategy = strategy;
    descent.coarse.cost = cost;

    // Swap: first improvement over heads i × ascending t, restarting at
    // i = 0 after each commit. Dropping head i seats the other b − 1 heads.
    descent.refined.evaluated = 1;
    std::vector<Vertex> others;
    bool improved = true;
    while (improved) {
      improved = false;
      for (std::size_t i = 0; i < strategy.size() && !improved; ++i) {
        others = strategy;
        others.erase(others.begin() + static_cast<std::ptrdiff_t>(i));
        seat(others);
        for (Vertex t = 0; t < n_ && !improved; ++t) {
          if (used[t]) continue;
          const std::uint64_t c = probe(t);
          ++descent.refined.evaluated;
          if (c < cost) {
            used[strategy[i]] = 0;
            used[t] = 1;
            strategy[i] = t;
            cost = c;
            improved = true;
          }
        }
      }
    }
    seat({});
    std::sort(strategy.begin(), strategy.end());
    descent.refined.strategy = std::move(strategy);
    descent.refined.cost = cost;
    descent.coarse.current_cost = descent.refined.current_cost = current_cost();
    return descent;
  }

  void run() {
    std::vector<std::uint8_t> eliminated(n_, 0);
    for (const Vertex t : dominated_) eliminated[t] = 1;
    nodes_pruned_ += dominated_.size();  // a dominated candidate cuts its whole orbit
    std::vector<Vertex> candidates;
    candidates.reserve(n_ - 1);
    for (Vertex t = 0; t < n_; ++t) {
      if (t != player_ && !eliminated[t]) candidates.push_back(t);
    }
    dfs(candidates, /*floor_lb=*/0, /*depth=*/0);
  }

  void finish(SolverResult& result) {
    result.cost = best_cost_;
    result.strategy = std::move(best_heads_);
    result.nodes_explored = nodes_explored_;
    result.nodes_pruned += nodes_pruned_;
    result.evaluated += evaluated_;
    result.bfs_avoided = oracle_ ? oracle_->bfs_avoided() : 0;
    result.optimal = !truncated_;
    result.lower_bound = truncated_ ? std::min(trunc_lb_, best_cost_) : best_cost_;
  }

 private:
  [[nodiscard]] bool out_of_budget() {
    if (budget_.node_limit > 0 && nodes_explored_ >= budget_.node_limit) return true;
    if (budget_.deadline_seconds > 0 && timer_.elapsed_seconds() >= budget_.deadline_seconds) {
      return true;
    }
    return false;
  }

  /// Score every allowed child of P into `cands` and return the node's
  /// admissible lower bound (P fixed, ≤ r more heads from `allowed`). See
  /// the header for the two bound families.
  [[nodiscard]] std::uint64_t probe_children(const std::vector<Vertex>& allowed,
                                             std::uint64_t cost_p, std::uint32_t r,
                                             std::vector<Candidate>& cands) {
    std::uint64_t seed_lb = 0;
    if (table_) {
      seed_lb = table_->probe_all(allowed, cost_p, cands);
    } else {
      for (const Vertex t : allowed) {
        const std::uint64_t c = oracle_->probe(t);
        BBNG_ASSERT(c <= cost_p);
        cands.push_back({t, c, cost_p - c});
      }
    }
    evaluated_ += allowed.size();
    if (version_ == CostVersion::Max) return seed_lb;
    // Savings are subadditive: subtract only the r largest single-head
    // savings from the node cost.
    const std::uint64_t gain = top_savings(cands.begin(), cands.end(), r);
    return std::max(seed_lb, gain >= cost_p ? 0 : cost_p - gain);
  }

  /// Sum of the r largest savings in [first, last).
  [[nodiscard]] std::uint64_t top_savings(std::vector<Candidate>::const_iterator first,
                                          std::vector<Candidate>::const_iterator last,
                                          std::uint32_t r) {
    savings_scratch_.clear();
    for (; first != last; ++first) savings_scratch_.push_back(first->saving);
    const std::size_t keep = std::min<std::size_t>(r, savings_scratch_.size());
    std::partial_sort(savings_scratch_.begin(), savings_scratch_.begin() + keep,
                      savings_scratch_.end(), std::greater<>());
    std::uint64_t gain = 0;
    for (std::size_t i = 0; i < keep; ++i) gain += savings_scratch_[i];
    return gain;
  }

  [[nodiscard]] std::uint64_t node_cost() { return table_ ? table_->cost() : oracle_->cost(); }
  [[nodiscard]] std::uint64_t probe(Vertex t) {
    return table_ ? table_->probe(t) : oracle_->probe(t);
  }

  /// Make P the sequence `heads`: pop down to the common prefix, push the rest.
  void seat(const std::vector<Vertex>& heads) {
    std::size_t keep = 0;
    while (keep < heads_.size() && keep < heads.size() && heads_[keep] == heads[keep]) ++keep;
    while (heads_.size() > keep) pop();
    for (std::size_t k = keep; k < heads.size(); ++k) push(heads[k]);
  }

  void push(Vertex t) {
    heads_.push_back(t);
    if (table_) {
      table_->push(t);
    } else {
      oracle_->push(t);
    }
  }

  void pop() {
    const Vertex t = heads_.back();
    heads_.pop_back();
    if (table_) {
      table_->pop(t);
    } else {
      oracle_->pop(t);
    }
  }

  void dfs(const std::vector<Vertex>& allowed, std::uint64_t floor_lb, std::uint32_t depth) {
    if (truncated_ || out_of_budget()) {
      truncated_ = true;
      trunc_lb_ = std::min(trunc_lb_, floor_lb);
      return;
    }
    ++nodes_explored_;
    const std::uint64_t cost_p = node_cost();
    offer(heads_, cost_p);
    const std::uint32_t r = b_ - depth;
    if (r == 0 || allowed.empty()) return;

    // Probe every allowed candidate once.
    std::vector<Candidate> cands;
    cands.reserve(allowed.size());
    const std::uint64_t lb = probe_children(allowed, cost_p, r, cands);
    if (lb >= best_cost_) {
      ++nodes_pruned_;
      return;
    }

    // Branch best-saving-first; ties by vertex id keep the order (and with
    // it every node/evaluation count) deterministic.
    std::sort(cands.begin(), cands.end(), [](const Candidate& a, const Candidate& b) {
      return a.saving != b.saving ? a.saving > b.saving : a.t < b.t;
    });
    if (version_ == CostVersion::Sum) {
      // A candidate saving nothing at P saves nothing below P either
      // (single-head savings shrink as P grows) — drop it from the subtree.
      while (!cands.empty() && cands.back().saving == 0) cands.pop_back();
    }

    if (r == 1) {
      // Children are leaves and their costs are already probed.
      for (const Candidate& c : cands) {
        if (c.cost < best_cost_) {
          std::vector<Vertex> heads = heads_;
          heads.push_back(c.t);
          offer(heads, c.cost);
        }
      }
      return;
    }

    std::vector<Vertex> child_allowed;
    for (std::size_t k = 0; k < cands.size(); ++k) {
      if (truncated_ || out_of_budget()) {
        truncated_ = true;
        trunc_lb_ = std::min(trunc_lb_, lb);
        return;
      }
      const Candidate& child = cands[k];
      if (version_ == CostVersion::Sum) {
        // Pre-prune with the parent-level savings (≥ the child-level ones).
        const std::uint64_t gain = top_savings(cands.begin() + k + 1, cands.end(), r - 1);
        if (child.cost - std::min(child.cost, gain) >= best_cost_) {
          ++nodes_pruned_;
          continue;
        }
      }
      child_allowed.clear();
      for (std::size_t j = k + 1; j < cands.size(); ++j) child_allowed.push_back(cands[j].t);
      push(child.t);
      dfs(child_allowed, std::max(lb, floor_lb), depth + 1);
      pop();
    }
  }

  const std::uint32_t n_;
  const Vertex player_;
  const CostVersion version_;
  const std::uint32_t b_;
  const SolverBudget budget_;
  std::optional<CoverTable> table_;  ///< n ≤ kMatrixLimit
  std::optional<NodeEval> oracle_;   ///< the fallback above it
  std::vector<Vertex> dominated_;    ///< candidates dropped at the root
  Timer timer_;

  std::vector<Vertex> heads_;  ///< the DFS path P
  std::vector<std::uint64_t> savings_scratch_;

  std::uint64_t best_cost_ = kInfCost;
  std::vector<Vertex> best_heads_;
  bool truncated_ = false;
  std::uint64_t trunc_lb_ = kInfCost;
  std::uint64_t nodes_explored_ = 0;
  std::uint64_t nodes_pruned_ = 0;
  std::uint64_t evaluated_ = 0;
};

}  // namespace

namespace detail {

IncumbentDescent incumbent_descent(const Digraph& g, Vertex player, CostVersion version) {
  BBNG_REQUIRE(player < g.num_vertices());
  const std::uint32_t degree = g.out_degree(player);
  Search search(g, player, version, SolverBudget{}, degree);
  return search.descend(degree);
}

std::vector<Vertex> dominated_heads(const Digraph& g, Vertex player) {
  BBNG_REQUIRE(player < g.num_vertices());
  std::vector<Vertex> in = player_in_neighbors(g, player);
  // Every candidate is an in-neighbour: the largest-index one survives.
  if (!in.empty() && in.size() + 1 == g.num_vertices()) in.pop_back();
  return in;
}

}  // namespace detail

SolverResult ExactBranchAndBound::solve(const Digraph& g, Vertex player, CostVersion version,
                                        const SolverBudget& budget, ThreadPool* pool,
                                        TranspositionCache* cache) const {
  (void)pool;  // the DFS is sequential; callers parallelise across players
  BBNG_REQUIRE(player < g.num_vertices());
  static const obs::HistogramId kSolveHist = obs::register_histogram("solver.solve.exact_bb");
  obs::ScopedTimer span(kSolveHist, "solve:exact_bb");
  span.arg("player", std::uint64_t{player});
  const std::uint32_t n = g.num_vertices();
  // The budget cap, which is the out-degree unless a caller (churn) split
  // them. With cap > degree the search simply runs deeper; with cap < degree
  // the current strategy is infeasible and stops being a seed/floor — the
  // forced-shrink optimum may exceed current_cost.
  const std::uint32_t b = effective_budget_cap(g, player, budget);
  const bool current_feasible = g.out_degree(player) <= b;

  SolverResult result;
  result.solver = std::string(name());

  if (b == 0) {
    const StrategyEvaluator eval(g, player, version);
    result.current_cost = eval.current_cost();
    result.cost = result.current_cost;
    result.lower_bound = result.cost;
    result.optimal = true;
    result.evaluated = 1;
    publish_exact_bb(result, /*cache_hit=*/false);
    return result;
  }

  std::string key;
  if (cache != nullptr) {
    key = TranspositionCache::make_key(g, player, version, b);
    if (const SolverResult* hit = cache->find(key)) {
      SolverResult cached = *hit;
      // current_cost depends on the player's present strategy, which is not
      // part of the canonical key — refresh it. And a hit performs no
      // search work: zero the counters so consumers (dynamics totals,
      // nash_audit records) never report replayed effort as new.
      const StrategyEvaluator eval(g, player, version);
      cached.current_cost = eval.current_cost();
      cached.nodes_explored = 0;
      cached.nodes_pruned = 0;
      cached.evaluated = 0;
      cached.bfs_avoided = 0;
      BBNG_ASSERT(!current_feasible || cached.cost <= cached.current_cost);
      publish_exact_bb(cached, /*cache_hit=*/true);
      return cached;
    }
  }

  Search search(g, player, version, budget, b);
  result.current_cost = search.current_cost();

  // Incumbent seeding: the current strategy plus a greedy+swap descent on
  // the search's own evaluator — only while they fit the cap (they carry
  // exactly out-degree heads, so a forced shrink below the current degree
  // starts from the empty incumbent the DFS root offers). A strong incumbent
  // is what makes the bounds bite.
  if (current_feasible) {
    const std::span<const Vertex> current = g.out_neighbors(player);
    search.offer({current.begin(), current.end()}, result.current_cost);
    const detail::IncumbentDescent descent = search.descend(g.out_degree(player));
    search.offer(descent.coarse.strategy, descent.coarse.cost);
    search.offer(descent.refined.strategy, descent.refined.cost);
    result.evaluated += descent.coarse.evaluated + descent.refined.evaluated;
  }

  search.run();
  search.finish(result);

  // Pad the incumbent to exactly b heads (supersets never cost more) and
  // re-score it so the returned (strategy, cost) pair is exact.
  if (result.strategy.size() < b) {
    std::vector<std::uint8_t> used(n, 0);
    used[player] = 1;
    for (const Vertex h : result.strategy) used[h] = 1;
    for (Vertex t = 0; t < n && result.strategy.size() < b; ++t) {
      if (!used[t]) result.strategy.push_back(t);
    }
  }
  std::sort(result.strategy.begin(), result.strategy.end());
  {
    const StrategyEvaluator eval(g, player, version);
    StrategyEvaluator::Scratch scratch(n);
    const std::uint64_t padded = eval.evaluate(result.strategy, scratch);
    BBNG_ASSERT(padded <= result.cost);
    BBNG_ASSERT(!result.optimal || padded == result.cost);
    result.cost = padded;
  }
  BBNG_ASSERT(!current_feasible || result.cost <= result.current_cost);
  BBNG_ASSERT(result.lower_bound <= result.cost);

  if (cache != nullptr) cache->store(key, result);
  publish_exact_bb(result, /*cache_hit=*/false);
  return result;
}

}  // namespace bbng
