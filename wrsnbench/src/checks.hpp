// Checks that are independent of the program: the benchmark recomputes
// costs, reachability and optimal routings from positions, radio levels and
// the charging model with its own code, and refuses any output that does
// not agree.  Each check returns an empty string on success, else a
// one-line reason.  selftest.cpp feeds every check a corrupted output.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace wrsnbench {

/// The benchmark's own view of an instance: post coordinates, base station
/// (vertex index `x.size()`), the paper's Eq.-(1) radio with `levels`
/// ranges {step, 2 step, ...}, and linear charging k(m) = m.
struct Geometry {
  std::vector<double> x, y;  ///< posts only
  double bs_x = 0.0, bs_y = 0.0;
  double range_step = 25.0;
  int levels = 3;
  double eta = 0.01;
  int nodes = 0;  ///< M

  int posts() const { return static_cast<int>(x.size()); }
  double max_range() const { return range_step * levels; }
  double distance(int u, int v) const;
  /// Per-bit transmit energy over u -> v at the cheapest level reaching
  /// it, or a negative value when v is out of range.
  double tx(int u, int v) const;
  static constexpr double kAlpha = 50e-9;       // J/bit
  static constexpr double kBeta = 0.0013e-12;   // J/bit/m^4
  double rx() const { return kAlpha; }
};

/// A plan as the program reported it.
struct Plan {
  std::vector<int> parent;      ///< per post; posts() is the base station
  std::vector<int> deployment;  ///< nodes per post
  double cost = 0.0;            ///< the program's total recharging cost, J/bit
};

/// sum(deployment) == M, every entry >= 1, one entry per post.
std::string check_deployment(const Geometry& g, const std::vector<int>& deployment);
/// Every parent is in range and every post reaches the base station.
std::string check_routes(const Geometry& g, const std::vector<int>& parent);
/// Total recharging cost of `plan` from the formula
///   E(p) = (1 + D(p)) e_tx(p) + D(p) e_r,   cost = sum E(p) / (m_p eta).
/// Requires valid routes.
double plan_cost(const Geometry& g, const Plan& plan);
/// Optimal routing cost for a fixed deployment: a heap Dijkstra from the
/// base station under w(u,v) = e_tx(u,v)/(m_u eta) + [v != bs] e_r/(m_v eta).
double optimal_cost(const Geometry& g, const std::vector<int>& deployment);
/// |a - b| <= rel * max(|a|, |b|).
bool close(double a, double b, double rel = 1e-9);

/// `cost` is no lower than the optimal routing of `deployment`, and equal
/// to it when `must_be_optimal`.
std::string check_optimality(const Geometry& g, const std::vector<int>& deployment, double cost,
                             bool must_be_optimal);
/// Deployment, routes, and the reported cost against the recomputed one.
/// Also: the plan is no cheaper than the optimum for its own deployment
/// (and equal to it when `must_be_optimal`).
std::string check_plan(const Geometry& g, const Plan& plan, bool must_be_optimal = false);
/// `better` <= `worse` (up to rounding), else a reason naming both.
std::string check_not_worse(double better, double worse, const std::string& what);

/// One co-simulation's outcome.
struct SimOutcome {
  bool mobile = true;         ///< false for fixed-charger runs
  /// Dispatch only on a low watermark (nearest-deficit, threshold).  Policies
  /// that top posts up early (lookahead, periodic) radiate more than the
  /// analytic cost by design, so only the lower edge of the band binds them.
  bool on_demand = true;
  int dead_nodes = 0;
  bool any_death = false;
  double radiated_per_round = 0.0;  ///< mobile radiated joules per round
  double cost = 0.0;                ///< plan cost, J/bit
  int bits_per_report = 0;
};
/// No node died; mobile radiated energy per round / (cost * bits) lies in
/// the (0.85, 1.30) band of the integration tests (above 0.85 only, for
/// policies that are not on demand).
std::string check_sim(const SimOutcome& outcome);

/// An evaluate batch: `costs` are the server's replies for `deployments`,
/// `incremental` its count of incrementally priced entries, `single_moves`
/// the number of entries that are one-node moves from their predecessor.
std::string check_evaluate(const Geometry& g, const std::vector<std::vector<int>>& deployments,
                           const std::vector<double>& costs, std::int64_t incremental,
                           std::int64_t single_moves);
/// A warm reply must be byte-identical to the cold one (cache field aside,
/// which the caller blanks).
std::string check_same_reply(const std::string& cold, const std::string& warm);

}  // namespace wrsnbench
