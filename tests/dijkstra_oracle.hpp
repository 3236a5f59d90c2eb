// Reference Dijkstra for the bit-identity tests: the textbook O(V^2) settle
// scan (no queue at all), relaxing the same reversed edges with the same
// `d + w` arithmetic as graph::shortest_distances_to_base.  Its distances
// are the oracle the heap and bucket loops must match to the last bit.
#pragma once

#include <cmath>
#include <cstddef>
#include <vector>

#include "graph/dijkstra.hpp"

namespace wrsn::test {

struct OracleDistances {
  std::vector<double> dist;          ///< per vertex; kInfinity when cut off
  bool all_posts_reachable = false;
};

template <class WeightT>
OracleDistances dense_scan_distances(const graph::ReachGraph& graph,
                                     const graph::ReachAdjacency& adj, const WeightT& weight) {
  const int n = graph.num_vertices();
  const int bs = graph.base_station();
  OracleDistances out;
  out.dist.assign(static_cast<std::size_t>(n), graph::kInfinity);
  std::vector<char> settled(static_cast<std::size_t>(n), 0);
  out.dist[static_cast<std::size_t>(bs)] = 0.0;
  for (int round = 0; round < n; ++round) {
    int u = -1;
    double best = graph::kInfinity;
    for (int v = 0; v < n; ++v) {
      if (!settled[static_cast<std::size_t>(v)] && out.dist[static_cast<std::size_t>(v)] < best) {
        best = out.dist[static_cast<std::size_t>(v)];
        u = v;
      }
    }
    if (u < 0) break;  // the rest is unreachable
    settled[static_cast<std::size_t>(u)] = 1;
    const auto in = adj.in(u);
    const double* tx = adj.in_tx(u);
    for (std::size_t i = 0; i < in.size(); ++i) {
      const int v = in[i];
      if (settled[static_cast<std::size_t>(v)]) continue;
      const double candidate = best + graph::detail::eval_weight(weight, v, u, tx, i);
      if (candidate < out.dist[static_cast<std::size_t>(v)]) {
        out.dist[static_cast<std::size_t>(v)] = candidate;
      }
    }
  }
  out.all_posts_reachable = true;
  for (int v = 0; v < n; ++v) {
    if (v != bs && !std::isfinite(out.dist[static_cast<std::size_t>(v)])) {
      out.all_posts_reachable = false;
    }
  }
  return out;
}

}  // namespace wrsn::test
