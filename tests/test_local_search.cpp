#include "core/local_search.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "core/baseline.hpp"
#include "core/exact.hpp"
#include "core/idb.hpp"
#include "core/rfh.hpp"
#include "helpers.hpp"
#include "obs/sink.hpp"

namespace wrsn::core {
namespace {

// Reference oracle: the same scan as refine_solution, with every candidate
// priced by a fresh charging-aware Dijkstra on a copy of the deployment
// instead of by incremental repair.
struct ReferenceRun {
  std::vector<int> deployment;
  double cost = 0.0;
  int moves_applied = 0;
  int passes = 0;
  std::uint64_t evaluations = 0;
  std::vector<obs::LocalSearchMoveEvent> moves;
};

ReferenceRun reference_refine(const Instance& inst, const Solution& start,
                              LocalSearchStrategy strategy) {
  const LocalSearchOptions defaults;
  const int n = inst.num_posts();
  CostEvalScratch scratch;
  ReferenceRun run;
  run.deployment = start.deployment;
  std::vector<int>& deployment = run.deployment;
  const double initial = total_recharging_cost(inst, start);
  double current = std::min(optimal_cost_for_deployment(inst, deployment, scratch), initial);
  run.evaluations = 1;
  const auto price = [&](int a, int b) {
    std::vector<int> trial = deployment;
    --trial[static_cast<std::size_t>(a)];
    ++trial[static_cast<std::size_t>(b)];
    ++run.evaluations;
    return optimal_cost_for_deployment(inst, trial, scratch);
  };
  const auto commit = [&](int a, int b, double cost) {
    --deployment[static_cast<std::size_t>(a)];
    ++deployment[static_cast<std::size_t>(b)];
    current = cost;
    ++run.moves_applied;
  };
  for (int pass = 0; pass < defaults.max_passes; ++pass) {
    ++run.passes;
    const int moves_before = run.moves_applied;
    if (strategy == LocalSearchStrategy::kBestImprovement) {
      const std::size_t first = run.moves.size();
      for (int a = 0; a < n; ++a) {
        if (deployment[static_cast<std::size_t>(a)] <= 1) continue;
        for (int b = 0; b < n; ++b) {
          if (b != a) run.moves.push_back({pass, a, b, current, price(a, b), false});
        }
      }
      const double threshold = current * (1.0 - defaults.min_relative_gain);
      obs::LocalSearchMoveEvent* best = nullptr;
      for (std::size_t i = first; i < run.moves.size(); ++i) {
        if (run.moves[i].new_cost < threshold &&
            (best == nullptr || run.moves[i].new_cost < best->new_cost)) {
          best = &run.moves[i];
        }
      }
      if (best != nullptr) {
        best->accepted = true;
        commit(best->from_post, best->to_post, best->new_cost);
      }
    } else {
      for (int a = 0; a < n; ++a) {
        if (deployment[static_cast<std::size_t>(a)] <= 1) continue;
        for (int b = 0; b < n; ++b) {
          if (b == a) continue;
          const double cost = price(a, b);
          const bool accepted = cost < current * (1.0 - defaults.min_relative_gain);
          run.moves.push_back({pass, a, b, current, cost, accepted});
          if (!accepted) continue;
          commit(a, b, cost);
          if (deployment[static_cast<std::size_t>(a)] <= 1) break;
        }
      }
    }
    if (run.moves_applied == moves_before) break;
  }
  const RechargingWeight weight(inst, deployment);
  const auto dag = graph::shortest_paths_to_base(inst.graph(), inst.adjacency(), weight);
  run.cost = std::min(total_recharging_cost(inst, {spt_from_dag(dag), deployment}), initial);
  return run;
}

TEST(LocalSearch, RequiresValidStart) {
  const Instance inst = test::chain_instance(3, 6);
  Solution bad{graph::RoutingTree(3, 3), {2, 2, 2}};  // tree incomplete
  EXPECT_THROW(refine_solution(inst, bad), std::invalid_argument);
}

TEST(LocalSearch, RejectsBadOptions) {
  const Instance inst = test::chain_instance(2, 4);
  const auto start = solve_balanced_baseline(inst).solution;
  LocalSearchOptions options;
  options.max_passes = 0;
  EXPECT_THROW(refine_solution(inst, start, options), std::invalid_argument);
}

TEST(LocalSearch, NeverWorsensAndConservesBudget) {
  util::Rng rng(401);
  for (int trial = 0; trial < 6; ++trial) {
    const Instance inst = test::random_instance(10, 25, 130.0, rng);
    const auto start = solve_balanced_baseline(inst).solution;
    const LocalSearchResult result = refine_solution(inst, start);
    EXPECT_TRUE(is_valid_solution(inst, result.solution));
    EXPECT_LE(result.cost, result.initial_cost * (1.0 + 1e-12));
    EXPECT_EQ(std::accumulate(result.solution.deployment.begin(),
                              result.solution.deployment.end(), 0),
              inst.num_nodes());
  }
}

TEST(LocalSearch, ImprovesNaiveBaselineSubstantially) {
  // An even deployment is far from the workload-proportional optimum; the
  // move neighborhood must recover most of the gap.
  util::Rng rng(409);
  const Instance inst = test::random_instance(12, 48, 150.0, rng);
  const auto start = solve_balanced_baseline(inst);
  const LocalSearchResult result = refine_solution(inst, start.solution);
  EXPECT_LT(result.cost, start.cost * 0.95);
  EXPECT_GT(result.moves_applied, 0);
}

TEST(LocalSearch, ReachesExactOptimumOnSmallInstances) {
  // On small instances the move neighborhood usually walks all the way to
  // the global optimum from the IDB start.
  util::Rng rng(419);
  int optimal_hits = 0;
  const int trials = 5;
  for (int trial = 0; trial < trials; ++trial) {
    const Instance inst = test::random_instance(5, 11, 100.0, rng);
    const double optimum = solve_exact(inst).cost;
    const auto start = solve_idb(inst).solution;
    const LocalSearchResult result = refine_solution(inst, start);
    EXPECT_GE(result.cost, optimum * (1.0 - 1e-9));
    if (result.cost <= optimum * (1.0 + 1e-9)) ++optimal_hits;
  }
  EXPECT_GE(optimal_hits, trials - 1);
}

TEST(LocalSearch, FixedPointOfItself) {
  util::Rng rng(421);
  const Instance inst = test::random_instance(8, 20, 120.0, rng);
  const auto first = refine_solution(inst, solve_rfh(inst).solution);
  const auto second = refine_solution(inst, first.solution);
  EXPECT_NEAR(second.cost, first.cost, first.cost * 1e-12);
  EXPECT_EQ(second.moves_applied, 0);
}

TEST(LocalSearch, TightBudgetIsNoOp) {
  util::Rng rng(431);
  const Instance inst = test::random_instance(6, 6, 100.0, rng);
  const auto start = solve_balanced_baseline(inst).solution;
  const LocalSearchResult result = refine_solution(inst, start);
  EXPECT_EQ(result.moves_applied, 0);
  for (int m : result.solution.deployment) EXPECT_EQ(m, 1);
}

TEST(LocalSearch, RfhPlusRefinementApproachesIdb) {
  // RFH is fast but ~5% behind IDB; refinement should close most of that
  // gap at a fraction of IDB's price.
  util::Rng rng(433);
  double rfh_total = 0.0;
  double refined_total = 0.0;
  double idb_total = 0.0;
  for (int trial = 0; trial < 4; ++trial) {
    const Instance inst = test::random_instance(12, 36, 150.0, rng);
    const auto rfh = solve_rfh(inst);
    rfh_total += rfh.cost;
    refined_total += refine_solution(inst, rfh.solution).cost;
    idb_total += solve_idb(inst).cost;
  }
  EXPECT_LE(refined_total, rfh_total);
  EXPECT_LE(refined_total, idb_total * 1.03);
}

TEST(LocalSearch, EvaluationsCountTheStartAndEveryCandidate) {
  util::Rng rng(9001);
  const Instance inst = test::random_instance(10, 30, 140.0, rng);
  obs::RecordingSink sink;
  LocalSearchOptions options;
  options.sink = &sink;
  const auto result = refine_solution(inst, solve_rfh(inst).solution, options);
  EXPECT_EQ(result.evaluations, sink.local_search_moves.size() + 1);
  ASSERT_EQ(sink.local_search_passes.size(), static_cast<std::size_t>(result.passes));
  std::uint64_t per_pass = 0;
  int accepted = 0;
  for (const auto& pass : sink.local_search_passes) {
    per_pass += pass.evaluated;
    accepted += pass.accepted;
  }
  EXPECT_EQ(per_pass + 1, result.evaluations);
  EXPECT_EQ(accepted, result.moves_applied);
}

TEST(LocalSearch, BestImprovementReachesComparableCost) {
  // Best-improvement walks a different trajectory but must land within tie
  // tolerance of (or below) the first-improvement local optimum's quality
  // class: never worse than the start, valid, and within a few percent of
  // the serial result on these small instances.
  for (std::uint64_t seed : {9001u, 9002u, 9003u}) {
    util::Rng rng(seed);
    const Instance inst = test::random_instance(10, 30, 140.0, rng);
    const Solution start = solve_rfh(inst).solution;

    const auto first = refine_solution(inst, start);

    LocalSearchOptions best_options;
    best_options.strategy = LocalSearchStrategy::kBestImprovement;
    const auto best = refine_solution(inst, start, best_options);
    EXPECT_TRUE(is_valid_solution(inst, best.solution));
    EXPECT_LE(best.cost, best.initial_cost * (1.0 + 1e-12)) << "seed " << seed;
    EXPECT_LE(best.cost, first.cost * 1.05) << "seed " << seed;
    // One applied move per improving pass, by construction.
    EXPECT_LE(best.moves_applied, best.passes);
  }
}

TEST(LocalSearch, GoldenRegressionAgainstPreCacheSolver) {
  // Exact outputs recorded from the pre-rework solver (seed commit), which
  // priced every candidate by a fresh Dijkstra.  Incremental pricing must
  // not change the accepted-move count or the evaluation count, and the
  // refined cost is re-priced from the deployment by a fresh Dijkstra.
  struct Golden {
    std::uint64_t seed;
    double cost;
    int moves;
    std::uint64_t evaluations;
  };
  const std::vector<Golden> goldens = {
      {9001, 4.2911625744047618e-05, 3, 271},
      {9002, 5.6360839843750001e-05, 4, 271},
      {9003, 0.00010665338541666666, 5, 145},
  };
  for (const Golden& golden : goldens) {
    util::Rng rng(golden.seed);
    const Instance inst = test::random_instance(10, 30, 140.0, rng);
    const Solution start = solve_rfh(inst).solution;
    const auto result = refine_solution(inst, start);
    EXPECT_DOUBLE_EQ(result.cost, golden.cost) << "seed " << golden.seed;
    EXPECT_EQ(result.moves_applied, golden.moves) << "seed " << golden.seed;
    EXPECT_EQ(result.evaluations, golden.evaluations) << "seed " << golden.seed;
    // The fresh-Dijkstra oracle reproduces the recording itself.
    const ReferenceRun full =
        reference_refine(inst, start, LocalSearchStrategy::kFirstImprovement);
    EXPECT_DOUBLE_EQ(full.cost, golden.cost) << "seed " << golden.seed;
    EXPECT_EQ(full.moves_applied, golden.moves) << "seed " << golden.seed;
    EXPECT_EQ(full.evaluations, golden.evaluations) << "seed " << golden.seed;
  }
}

TEST(LocalSearch, IncrementalPricingMatchesFullOnGoldenInstances) {
  // The dynamic-repair pricer changes candidate costs only at the FP
  // summation level; on the golden instances the accepted-move sequence,
  // evaluation counts, final deployment and (within 1e-9 relative) the final
  // cost must match fresh-Dijkstra pricing, for both strategies.
  for (std::uint64_t seed : {9001u, 9002u, 9003u}) {
    util::Rng rng(seed);
    const Instance inst = test::random_instance(10, 30, 140.0, rng);
    const Solution start = solve_rfh(inst).solution;
    for (const auto strategy :
         {LocalSearchStrategy::kFirstImprovement, LocalSearchStrategy::kBestImprovement}) {
      const ReferenceRun full = reference_refine(inst, start, strategy);

      obs::RecordingSink inc_sink;
      LocalSearchOptions inc;
      inc.strategy = strategy;
      inc.sink = &inc_sink;
      const auto inc_result = refine_solution(inst, start, inc);

      const auto label = [&] {
        return ::testing::Message() << "seed " << seed << " strategy "
                                    << (strategy == LocalSearchStrategy::kBestImprovement);
      };
      EXPECT_EQ(inc_result.solution.deployment, full.deployment) << label();
      EXPECT_EQ(inc_result.moves_applied, full.moves_applied) << label();
      EXPECT_EQ(inc_result.passes, full.passes) << label();
      EXPECT_EQ(inc_result.evaluations, full.evaluations) << label();
      EXPECT_NEAR(inc_result.cost, full.cost, full.cost * 1e-9) << label();
      // Identical accepted-move event stream (costs within tolerance).
      ASSERT_EQ(inc_sink.local_search_moves.size(), full.moves.size()) << label();
      for (std::size_t i = 0; i < full.moves.size(); ++i) {
        const auto& f = full.moves[i];
        const auto& g = inc_sink.local_search_moves[i];
        EXPECT_EQ(g.from_post, f.from_post) << label() << " event " << i;
        EXPECT_EQ(g.to_post, f.to_post) << label() << " event " << i;
        EXPECT_EQ(g.accepted, f.accepted) << label() << " event " << i;
        EXPECT_NEAR(g.new_cost, f.new_cost, std::abs(f.new_cost) * 1e-9)
            << label() << " event " << i;
      }
    }
  }
}

}  // namespace
}  // namespace wrsn::core
