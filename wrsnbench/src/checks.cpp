#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <queue>
#include <sstream>
#include <utility>

namespace wrsnbench {

namespace {

std::string format(const char* what, double a, double b) {
  std::ostringstream out;
  out.precision(17);
  out << what << ": " << a << " vs " << b;
  return out.str();
}

}  // namespace

double Geometry::distance(int u, int v) const {
  const int n = posts();
  const double ux = u == n ? bs_x : x[static_cast<std::size_t>(u)];
  const double uy = u == n ? bs_y : y[static_cast<std::size_t>(u)];
  const double vx = v == n ? bs_x : x[static_cast<std::size_t>(v)];
  const double vy = v == n ? bs_y : y[static_cast<std::size_t>(v)];
  return std::hypot(ux - vx, uy - vy);
}

double Geometry::tx(int u, int v) const {
  const double d = distance(u, v);
  for (int level = 1; level <= levels; ++level) {
    const double range = range_step * level;
    if (d <= range) return kAlpha + kBeta * range * range * range * range;
  }
  return -1.0;
}

bool close(double a, double b, double rel) {
  return std::fabs(a - b) <= rel * std::max(std::fabs(a), std::fabs(b));
}

std::string check_deployment(const Geometry& g, const std::vector<int>& deployment) {
  if (static_cast<int>(deployment.size()) != g.posts()) return "deployment has wrong length";
  long long sum = 0;
  for (std::size_t p = 0; p < deployment.size(); ++p) {
    if (deployment[p] < 1) return "post " + std::to_string(p) + " holds no node";
    sum += deployment[p];
  }
  if (sum != g.nodes) {
    return "deployment sums to " + std::to_string(sum) + ", not M = " + std::to_string(g.nodes);
  }
  return {};
}

std::string check_routes(const Geometry& g, const std::vector<int>& parent) {
  const int n = g.posts();
  if (static_cast<int>(parent.size()) != n) return "routing has wrong length";
  for (int p = 0; p < n; ++p) {
    const int q = parent[static_cast<std::size_t>(p)];
    if (q < 0 || q > n || q == p) return "post " + std::to_string(p) + " has no valid parent";
    if (g.tx(p, q) < 0.0) {
      return "post " + std::to_string(p) + " -> " + std::to_string(q) + " is out of range";
    }
  }
  // Every chain must end at the base station within n hops (no cycles).
  std::vector<char> reaches(static_cast<std::size_t>(n) + 1, 0);
  reaches[static_cast<std::size_t>(n)] = 1;
  std::vector<int> path;
  for (int p = 0; p < n; ++p) {
    path.clear();
    int v = p;
    while (!reaches[static_cast<std::size_t>(v)]) {
      path.push_back(v);
      if (static_cast<int>(path.size()) > n) return "post " + std::to_string(p) + " is on a cycle";
      v = parent[static_cast<std::size_t>(v)];
    }
    for (int u : path) reaches[static_cast<std::size_t>(u)] = 1;
  }
  return {};
}

double plan_cost(const Geometry& g, const Plan& plan) {
  const int n = g.posts();
  // Descendant counts by accumulating each post along its chain; depth
  // order is not needed because every post adds 1 to each ancestor.
  std::vector<long long> descendants(static_cast<std::size_t>(n), 0);
  for (int p = 0; p < n; ++p) {
    for (int v = plan.parent[static_cast<std::size_t>(p)]; v != n;
         v = plan.parent[static_cast<std::size_t>(v)]) {
      ++descendants[static_cast<std::size_t>(v)];
    }
  }
  double cost = 0.0;
  for (int p = 0; p < n; ++p) {
    const double d = static_cast<double>(descendants[static_cast<std::size_t>(p)]);
    const double energy = (1.0 + d) * g.tx(p, plan.parent[static_cast<std::size_t>(p)]) + d * g.rx();
    cost += energy / (plan.deployment[static_cast<std::size_t>(p)] * g.eta);
  }
  return cost;
}

double optimal_cost(const Geometry& g, const std::vector<int>& deployment) {
  const int n = g.posts();
  // Neighbour lists through a uniform grid of cell size max_range.
  const double cell = g.max_range();
  double min_x = g.bs_x, min_y = g.bs_y, max_x = g.bs_x, max_y = g.bs_y;
  for (int p = 0; p < n; ++p) {
    min_x = std::min(min_x, g.x[static_cast<std::size_t>(p)]);
    max_x = std::max(max_x, g.x[static_cast<std::size_t>(p)]);
    min_y = std::min(min_y, g.y[static_cast<std::size_t>(p)]);
    max_y = std::max(max_y, g.y[static_cast<std::size_t>(p)]);
  }
  const int cols = static_cast<int>((max_x - min_x) / cell) + 1;
  const int rows = static_cast<int>((max_y - min_y) / cell) + 1;
  auto vx = [&](int v) { return v == n ? g.bs_x : g.x[static_cast<std::size_t>(v)]; };
  auto vy = [&](int v) { return v == n ? g.bs_y : g.y[static_cast<std::size_t>(v)]; };
  auto cx = [&](int v) { return static_cast<int>((vx(v) - min_x) / cell); };
  auto cy = [&](int v) { return static_cast<int>((vy(v) - min_y) / cell); };
  std::vector<std::vector<int>> grid(static_cast<std::size_t>(cols) * static_cast<std::size_t>(rows));
  for (int v = 0; v <= n; ++v) {
    grid[static_cast<std::size_t>(cy(v)) * static_cast<std::size_t>(cols) + static_cast<std::size_t>(cx(v))].push_back(v);
  }
  auto inv = [&](int p) { return 1.0 / (deployment[static_cast<std::size_t>(p)] * g.eta); };

  // Reversed search: dist[u] = min over in-range v of w(u, v) + dist[v].
  std::vector<double> dist(static_cast<std::size_t>(n) + 1, INFINITY);
  using Item = std::pair<double, int>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
  dist[static_cast<std::size_t>(n)] = 0.0;
  heap.emplace(0.0, n);
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d > dist[static_cast<std::size_t>(v)]) continue;
    const double rx_part = v == n ? 0.0 : g.rx() * inv(v);
    for (int gx = std::max(0, cx(v) - 1); gx <= std::min(cols - 1, cx(v) + 1); ++gx) {
      for (int gy = std::max(0, cy(v) - 1); gy <= std::min(rows - 1, cy(v) + 1); ++gy) {
        for (int u : grid[static_cast<std::size_t>(gy) * static_cast<std::size_t>(cols) + static_cast<std::size_t>(gx)]) {
          if (u == n || u == v) continue;
          const double tx = g.tx(u, v);
          if (tx < 0.0) continue;
          const double nd = d + tx * inv(u) + rx_part;
          if (nd < dist[static_cast<std::size_t>(u)]) {
            dist[static_cast<std::size_t>(u)] = nd;
            heap.emplace(nd, u);
          }
        }
      }
    }
  }
  double total = 0.0;
  for (int p = 0; p < n; ++p) total += dist[static_cast<std::size_t>(p)];
  return total;
}

std::string check_plan(const Geometry& g, const Plan& plan, bool must_be_optimal) {
  if (std::string e = check_deployment(g, plan.deployment); !e.empty()) return e;
  if (std::string e = check_routes(g, plan.parent); !e.empty()) return e;
  const double recomputed = plan_cost(g, plan);
  if (!close(recomputed, plan.cost)) return format("reported cost differs from recomputed", plan.cost, recomputed);
  return check_optimality(g, plan.deployment, plan.cost, must_be_optimal);
}

std::string check_optimality(const Geometry& g, const std::vector<int>& deployment, double cost,
                             bool must_be_optimal) {
  const double optimum = optimal_cost(g, deployment);
  if (cost < optimum && !close(cost, optimum)) {
    return format("plan is cheaper than the optimal routing of its deployment", cost, optimum);
  }
  if (must_be_optimal && !close(cost, optimum)) {
    return format("exact plan differs from the optimal routing of its deployment", cost, optimum);
  }
  return {};
}

std::string check_not_worse(double better, double worse, const std::string& what) {
  if (better > worse && !close(better, worse)) return format(what.c_str(), better, worse);
  return {};
}

std::string check_sim(const SimOutcome& outcome) {
  if (outcome.any_death || outcome.dead_nodes > 0) {
    return "a node died (" + std::to_string(outcome.dead_nodes) + " dead)";
  }
  if (!outcome.mobile) return {};
  const double ratio = outcome.radiated_per_round / (outcome.cost * outcome.bits_per_report);
  if (!(ratio > 0.85) || (outcome.on_demand && !(ratio < 1.30))) {
    return format("radiated energy per round over cost x bits leaves (0.85, 1.30)", ratio, 1.0);
  }
  return {};
}

std::string check_evaluate(const Geometry& g, const std::vector<std::vector<int>>& deployments,
                           const std::vector<double>& costs, std::int64_t incremental,
                           std::int64_t single_moves) {
  if (costs.size() != deployments.size()) return "evaluate returned the wrong number of costs";
  for (std::size_t i = 0; i < deployments.size(); ++i) {
    const double optimum = optimal_cost(g, deployments[i]);
    if (!close(costs[i], optimum)) return format("evaluate cost differs from the optimum", costs[i], optimum);
  }
  if (incremental != single_moves) {
    return format("incremental count differs from the single-move deltas",
                  static_cast<double>(incremental), static_cast<double>(single_moves));
  }
  return {};
}

std::string check_same_reply(const std::string& cold, const std::string& warm) {
  if (cold == warm) return {};
  std::size_t at = 0;
  while (at < cold.size() && at < warm.size() && cold[at] == warm[at]) ++at;
  return "warm reply differs from the cold reply at byte " + std::to_string(at);
}

}  // namespace wrsnbench
