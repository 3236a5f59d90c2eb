// Local-search refinement of deployment decisions (an extension beyond the
// paper's heuristics; evaluated in bench/ablation_local_search).
//
// Both RFH and IDB commit to a deployment and never revisit it.  This pass
// takes any valid solution and hill-climbs in two neighborhoods:
//   * move:  shift one node from post a to post b (m_a > 1),
//   * swap paths are subsumed by repeated moves, so moves suffice.
// Every candidate is priced with the charging-aware shortest-path routing
// (optimal for a fixed deployment), so the search walks the same objective
// the exact solver optimizes and terminates at a local optimum of it.
// Candidates are priced by dynamic shortest-path repair
// (core::DeploymentPricer) instead of a fresh Dijkstra each.  That changes
// candidate costs only at the floating-point summation level; the
// accepted-move sequence matches fresh-Dijkstra pricing whenever no two
// candidates price within ~1e-12 relative of each other
// (`min_relative_gain` absorbs ulp-level accept flips).  tests/
// test_local_search.cpp keeps the fresh-Dijkstra scan as the oracle.
#pragma once

#include <cstdint>

#include "core/cost.hpp"
#include "core/solution.hpp"

namespace wrsn::obs {
class Sink;
class ProgressSink;
}

namespace wrsn::core {

enum class LocalSearchStrategy {
  /// Accept the first improving move found in (a, b) scan order (default;
  /// matches the historical serial behavior exactly).
  kFirstImprovement,
  /// Sweep the whole neighborhood, apply the single best improving move per
  /// pass (ties broken toward the smallest (a, b)).
  kBestImprovement,
};

struct LocalSearchOptions {
  /// Hard cap on improvement passes (a pass scans all (a, b) moves).
  int max_passes = 50;
  /// Accept a move only when it improves by more than this relative slack
  /// (guards against cycling on floating-point noise).
  double min_relative_gain = 1e-12;
  LocalSearchStrategy strategy = LocalSearchStrategy::kFirstImprovement;
  /// Observer notified per candidate move (accept/reject + delta) and per
  /// pass (obs/sink.hpp); nullptr = none.  Purely observational; callbacks
  /// fire in scan order.
  obs::Sink* sink = nullptr;
  /// Live `wrsn-progress v1` heartbeats under source "ls" (best cost, moves
  /// tried/accepted, incremental pricing count); nullptr = silent.  Like
  /// `sink`, purely observational.
  obs::ProgressSink* progress = nullptr;
};

struct LocalSearchResult {
  Solution solution;
  double cost = 0.0;
  /// Cost of the solution the search started from.
  double initial_cost = 0.0;
  int moves_applied = 0;
  int passes = 0;
  /// Deployments priced: the start plus every candidate move.
  std::uint64_t evaluations = 0;
};

/// Refines `start` (which must be valid for `instance`). The result never
/// costs more than the input.
LocalSearchResult refine_solution(const Instance& instance, const Solution& start,
                                  const LocalSearchOptions& options = {});

}  // namespace wrsn::core
