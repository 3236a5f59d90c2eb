#include "core/local_search.hpp"

#include "core/pricer.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/sink.hpp"
#include "obs/trace.hpp"
#include "util/arena.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

namespace wrsn::core {
namespace {

struct Candidate {
  int a = 0;
  int b = 0;
  double cost = 0.0;
};

}  // namespace

LocalSearchResult refine_solution(const Instance& instance, const Solution& start,
                                  const LocalSearchOptions& options) {
  if (!is_valid_solution(instance, start)) {
    throw std::invalid_argument("local search requires a valid starting solution");
  }
  if (options.max_passes < 1) throw std::invalid_argument("max_passes must be >= 1");
  WRSN_TRACE_SPAN("ls/refine");
  static obs::Counter& incremental_evals =
      obs::Registry::global().counter("ls/incremental_evals");

  const int n = instance.num_posts();
  std::vector<int> deployment = start.deployment;
  LocalSearchResult result{start, 0.0, 0.0, 0, 0, 0};

  // One arena feeds the start pricing's scratch and the pricer's buffers.
  util::BumpArena arena;
  CostEvalScratch scratch(arena);

  // Price the start with its own routing re-optimized; the caller's tree
  // may already be optimal for the deployment (IDB) or not (RFH Phase II's
  // tie-breaking) -- refinement includes re-routing either way.
  double current = optimal_cost_for_deployment(instance, deployment, scratch);
  ++result.evaluations;
  result.initial_cost = total_recharging_cost(instance, start);
  current = std::min(current, result.initial_cost);

  // Built on the first candidate (one full Dijkstra), then kept in step with
  // `deployment` by committing every accepted move.
  std::optional<DeploymentPricer> pricer;
  const auto price = [&](int a, int b) {
    if (!pricer.has_value()) {
      DeploymentPricer::Options pricer_options;
      pricer_options.arena = &arena;
      pricer.emplace(instance, deployment, pricer_options);
    }
    incremental_evals.increment();
    return pricer->cost_with_moved_node(a, b);
  };
  const auto commit = [&](const Candidate& move) {
    --deployment[static_cast<std::size_t>(move.a)];
    ++deployment[static_cast<std::size_t>(move.b)];
    pricer->move_node(move.a, move.b);
    current = move.cost;
    ++result.moves_applied;
  };

  // Heartbeats under source "ls": never a branching input, so results stay
  // bit-identical with or without them.
  const auto emit_progress = [&](bool final_event) {
    if (options.progress == nullptr) return;
    if (!final_event && !options.progress->wants("ls")) return;
    obs::ProgressEvent event("ls", final_event);
    event.add("best_cost", current);
    event.add("moves_tried", static_cast<double>(result.evaluations));
    event.add("moves_accepted", result.moves_applied);
    event.add("passes", result.passes);
    event.add("incremental_evals", static_cast<double>(result.evaluations));
    options.progress->emit(event);
  };

  const bool best_mode = options.strategy == LocalSearchStrategy::kBestImprovement;
  std::vector<Candidate> sweep;

  for (int pass = 0; pass < options.max_passes; ++pass) {
    WRSN_TRACE_SPAN("ls/pass");
    ++result.passes;
    const std::uint64_t pass_start_evaluations = result.evaluations;
    const int pass_start_moves = result.moves_applied;

    if (best_mode) {
      // Whole-neighborhood sweep, then one move.  The scan replaces the
      // incumbent only on strict improvement, so ties resolve to the
      // smallest (a, b) without extra bookkeeping.
      sweep.clear();
      for (int a = 0; a < n; ++a) {
        if (deployment[static_cast<std::size_t>(a)] <= 1) continue;
        for (int b = 0; b < n; ++b) {
          if (b != a) sweep.push_back({a, b, price(a, b)});
        }
      }
      result.evaluations += sweep.size();
      const double threshold = current * (1.0 - options.min_relative_gain);
      int best = -1;
      for (std::size_t i = 0; i < sweep.size(); ++i) {
        if (sweep[i].cost < threshold &&
            (best < 0 || sweep[i].cost < sweep[static_cast<std::size_t>(best)].cost)) {
          best = static_cast<int>(i);
        }
      }
      if (options.sink != nullptr) {
        for (std::size_t i = 0; i < sweep.size(); ++i) {
          options.sink->on_local_search_move({pass, sweep[i].a, sweep[i].b, current,
                                              sweep[i].cost, static_cast<int>(i) == best});
        }
      }
      if (best >= 0) commit(sweep[static_cast<std::size_t>(best)]);
    } else {
      // First improvement: the scan continues past an accepted move, and
      // moves on to the next donor once the current one has no spare left.
      for (int a = 0; a < n; ++a) {
        if (deployment[static_cast<std::size_t>(a)] <= 1) continue;
        for (int b = 0; b < n; ++b) {
          if (b == a) continue;
          const Candidate cand{a, b, price(a, b)};
          ++result.evaluations;
          const bool accepted = cand.cost < current * (1.0 - options.min_relative_gain);
          if (options.sink != nullptr) {
            options.sink->on_local_search_move({pass, a, b, current, cand.cost, accepted});
          }
          if (accepted) commit(cand);
          emit_progress(false);  // liveness inside a long pass
          if (accepted && deployment[static_cast<std::size_t>(a)] <= 1) break;
        }
      }
    }

    const int pass_moves = result.moves_applied - pass_start_moves;
    if (options.sink != nullptr) {
      options.sink->on_local_search_pass(
          {pass, result.evaluations - pass_start_evaluations, pass_moves, current});
    }
    emit_progress(false);
    if (pass_moves == 0) break;
  }

  const RechargingWeight weight(instance, deployment);
  const auto dag =
      graph::shortest_paths_to_base(instance.graph(), instance.adjacency(), weight);
  Solution refined{spt_from_dag(dag), deployment};
  const double refined_cost = total_recharging_cost(instance, refined);
  if (refined_cost <= result.initial_cost) {
    result.solution = std::move(refined);
    result.cost = refined_cost;
  } else {
    // Numerically impossible, but never hand back something worse.
    result.solution = start;
    result.cost = result.initial_cost;
  }
  current = result.cost;
  emit_progress(true);
  return result;
}

}  // namespace wrsn::core
