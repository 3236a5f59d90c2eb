// Shows that every check can fail: each one is fed a valid output (which
// it must accept) and a corrupted copy (which it must refuse).
#include <string>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"

namespace wrsnbench {

namespace {

/// Posts on a line 20 m apart from a base station at the origin; with a
/// 25 m step and 3 levels each post reaches up to three neighbours.
Geometry line(int posts, int nodes) {
  Geometry g;
  for (int p = 0; p < posts; ++p) {
    g.x.push_back(20.0 * (p + 1));
    g.y.push_back(p % 2 ? 3.0 : -3.0);
  }
  g.nodes = nodes;
  return g;
}

/// The optimal plan for a deployment, by brute force over parents of a
/// 4-post instance (independent of the Dijkstra under test).
Plan chain_plan(const Geometry& g, const std::vector<int>& deployment) {
  Plan plan;
  plan.deployment = deployment;
  const int n = g.posts();
  double best = 1e300;
  std::vector<int> parent(static_cast<std::size_t>(n));
  const int choices = n + 1;
  int total = 1;
  for (int p = 0; p < n; ++p) total *= choices;
  for (int code = 0; code < total; ++code) {
    int c = code;
    for (int p = 0; p < n; ++p) {
      parent[static_cast<std::size_t>(p)] = c % choices;
      c /= choices;
    }
    if (!check_routes(g, parent).empty()) continue;
    Plan candidate{parent, deployment, 0.0};
    const double cost = plan_cost(g, candidate);
    if (cost < best) {
      best = cost;
      plan.parent = parent;
    }
  }
  plan.cost = best;
  return plan;
}

}  // namespace

std::vector<std::string> selftest() {
  std::vector<std::string> accepted;
  auto expect = [&accepted](const std::string& name, bool valid_ok, bool corrupt_refused) {
    if (!valid_ok) accepted.push_back(name + " (refused a valid output)");
    if (!corrupt_refused) accepted.push_back(name);
  };

  const Geometry g = line(4, 9);
  const std::vector<int> deployment = {3, 3, 2, 1};
  const Plan good = chain_plan(g, deployment);

  {  // A parent moved out of range.
    Plan bad = good;
    bad.parent[3] = g.posts();  // post 3 sits 80 m from the base station
    expect("routes: parent out of range", check_plan(g, good, true).empty(), !check_plan(g, bad).empty());
  }
  {  // A routing cycle.
    Plan bad = good;
    bad.parent[1] = 2;
    bad.parent[2] = 1;
    expect("routes: cycle", check_routes(g, good.parent).empty(), !check_routes(g, bad.parent).empty());
  }
  {  // A cost off by 1e-6 relative.
    Plan bad = good;
    bad.cost *= 1.0 + 1e-6;
    expect("cost: off by 1e-6", check_plan(g, good).empty(), !check_plan(g, bad).empty());
  }
  {  // A deployment short one node.
    Plan bad = good;
    bad.deployment[0] -= 1;
    expect("deployment: short one node", check_deployment(g, good.deployment).empty(),
           !check_plan(g, bad).empty());
  }
  {  // A post left without a node.
    std::vector<int> bad = {4, 3, 2, 0};
    expect("deployment: empty post", true, !check_deployment(g, bad).empty());
  }
  {  // A cost below the optimum of its deployment, and an exact plan above it.
    const double optimum = optimal_cost(g, deployment);
    expect("optimality: below the optimum", check_optimality(g, deployment, good.cost, true).empty(),
           !check_optimality(g, deployment, optimum * (1.0 - 1e-6), false).empty());
    expect("exact: not optimal", true,
           !check_optimality(g, deployment, optimum * (1.0 + 1e-6), true).empty());
  }
  {  // Ordering checks: exact above a heuristic, +ls above its base.
    expect("exact <= heuristic", check_not_worse(1.0, 1.0 + 1e-12, "x").empty(),
           !check_not_worse(1.0 + 1e-6, 1.0, "x").empty());
  }
  {  // Co-simulation: a death, and a ratio out of band.
    SimOutcome ok{true, true, 0, false, 1.1 * 2e-5 * 4096, 2e-5, 4096};
    SimOutcome died = ok;
    died.dead_nodes = 1;
    SimOutcome flagged = ok;
    flagged.any_death = true;
    SimOutcome low = ok;
    low.radiated_per_round = 0.8 * 2e-5 * 4096;
    SimOutcome high = ok;
    high.radiated_per_round = 1.31 * 2e-5 * 4096;
    expect("sim: node died", check_sim(ok).empty(), !check_sim(died).empty() && !check_sim(flagged).empty());
    SimOutcome early = high;
    early.on_demand = false;
    SimOutcome early_low = low;
    early_low.on_demand = false;
    expect("sim: ratio out of band", check_sim(early).empty(),
           !check_sim(low).empty() && !check_sim(high).empty() && !check_sim(early_low).empty());
  }
  {  // Evaluate: a cost off, and the incremental count off by one.
    const std::vector<std::vector<int>> batch = {deployment, {2, 4, 2, 1}, {2, 4, 1, 2}};
    std::vector<double> costs;
    for (const auto& d : batch) costs.push_back(optimal_cost(g, d));
    std::vector<double> off = costs;
    off[1] *= 1.0 + 1e-6;
    expect("evaluate: cost off", check_evaluate(g, batch, costs, 2, 2).empty(),
           !check_evaluate(g, batch, off, 2, 2).empty());
    expect("evaluate: incremental off by one", true, !check_evaluate(g, batch, costs, 1, 2).empty());
  }
  {  // A warm report with one byte changed.
    const std::string cold = "{\"report\":\"wrsn-report v1\\ncost 1.0\"}";
    std::string warm = cold;
    warm[20] ^= 1;
    expect("service: warm reply changed", check_same_reply(cold, cold).empty(),
           !check_same_reply(cold, warm).empty());
  }
  return accepted;
}

}  // namespace wrsnbench
