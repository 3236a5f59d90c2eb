#include "graph/dijkstra.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace wrsn::graph {

namespace detail {

void note_run(bool bucket) noexcept {
  // Cached references: the registry lock is taken once per process, not per
  // run (obs sits below graph in the layering, see CONTRIBUTING.md).
  static obs::Counter& heap_runs = obs::Registry::global().counter("dijkstra/heap_runs");
  static obs::Counter& dial_runs = obs::Registry::global().counter("dijkstra/dial_runs");
  (bucket ? dial_runs : heap_runs).increment();
}

}  // namespace detail

ShortestPathDag shortest_paths_to_base(const ReachGraph& graph, const WeightFn& weight,
                                       double rel_tie_eps) {
  const ReachAdjacency adj(graph);
  return shortest_paths_to_base(graph, adj, weight, rel_tie_eps);
}

DagReach compute_dag_reach(const ShortestPathDag& dag) {
  DagReach reach;
  compute_dag_reach(dag, reach);
  return reach;
}

void compute_dag_reach(const ShortestPathDag& dag, DagReach& reach) {
  const int n = dag.num_vertices();
  const std::size_t bits = static_cast<std::size_t>(n);
  if (reach.through.size() == static_cast<std::size_t>(n) && n > 0 &&
      reach.through.front().size() == bits) {
    for (auto& set : reach.through) set.clear();
    for (auto& set : reach.descendants) set.clear();
    std::fill(reach.workload.begin(), reach.workload.end(), 0);
  } else {
    reach.through.assign(static_cast<std::size_t>(n), Bitset(bits));
    reach.descendants.assign(static_cast<std::size_t>(n), Bitset(bits));
    reach.workload.assign(static_cast<std::size_t>(n), 0);
  }

  // Process vertices in increasing dist order; every parent has strictly
  // smaller dist, so its through-set is already final.
  std::vector<int> order(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) order[static_cast<std::size_t>(v)] = v;
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return dag.dist[static_cast<std::size_t>(a)] <
                                       dag.dist[static_cast<std::size_t>(b)]; });

  for (int v : order) {
    if (v == dag.base_station) continue;
    if (!std::isfinite(dag.dist[static_cast<std::size_t>(v)])) continue;
    auto& through_v = reach.through[static_cast<std::size_t>(v)];
    for (int p : dag.parents[static_cast<std::size_t>(v)]) {
      through_v.set(static_cast<std::size_t>(p));
      through_v |= reach.through[static_cast<std::size_t>(p)];
    }
  }

  // Transpose: descendants[p] = { posts v : p in through[v] }.  Iterate
  // members word-wise instead of testing all n bits per vertex: Phase II
  // rebuilds this closure per trimming step, and the per-bit transpose was
  // the dominant cost of whole RFH solves at 1e4+ posts.
  for (int v = 0; v < n; ++v) {
    if (v == dag.base_station) continue;
    reach.through[static_cast<std::size_t>(v)].for_each_set_bit([&](std::size_t p) {
      reach.descendants[p].set(static_cast<std::size_t>(v));
    });
  }
  for (int p = 0; p < n; ++p) {
    reach.workload[static_cast<std::size_t>(p)] =
        static_cast<int>(reach.descendants[static_cast<std::size_t>(p)].count());
  }
}

}  // namespace wrsn::graph
