// Stage 1: the paper's evaluation grid through exp::ExperimentRunner on one
// thread, then a sim::ChargerSim co-simulation of the plans under five
// dispatch policies, timed apart from the solves.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "core/charger_placement.hpp"
#include "core/instance.hpp"
#include "exp/runner.hpp"
#include "exp/spec.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "obs/trace.hpp"
#include "sim/charger_sim.hpp"
#include "sim/charging_policy.hpp"
#include "sim/network_sim.hpp"

namespace wrsnbench {

namespace {

const std::vector<std::string> kHeuristics = {"rfh", "rfh+ls", "idb", "idb+ls"};
const std::vector<std::string> kPolicies = {"nearest-deficit", "threshold", "lookahead",
                                            "periodic:every=20", "fixed"};

// Co-simulation set-up: chargers provisioned so that no node dies under
// any of the five policies (the simulator's fault-free round path keeps
// dead posts relaying, so a dying configuration would not show in
// delivery).  A post's per-round draw stays well below one battery, so
// rotation keeps its nodes level and little charge overflows, and batteries
// start midway between the dispatch watermarks, so that over the run the
// chargers replace what the network consumed.
constexpr int kBitsPerReport = 1024;
constexpr double kBatteryJ = 0.1;
constexpr double kInitialCharge = 0.72;
constexpr int kSimRounds = 1500;
constexpr int kFleet = 2;
constexpr double kChargerPowerW = 80.0;
constexpr double kChargerSpeedMps = 40.0;
constexpr double kFixedPowerW = 20.0;
constexpr double kFixedRadiusM = 60.0;

struct Trial {
  int spec = 0;
  int trial = 0;
  core::Instance instance;
  Geometry geometry;
};

Geometry geometry_of(const core::Instance& instance, const exp::SweepSpec& spec, int levels,
                     double eta) {
  Geometry g;
  const geom::Field& field = *instance.field();
  for (const geom::Point& p : field.posts) {
    g.x.push_back(p.x);
    g.y.push_back(p.y);
  }
  g.bs_x = field.base_station.x;
  g.bs_y = field.base_station.y;
  g.range_step = spec.range_step;
  g.levels = levels;
  g.eta = eta;
  g.nodes = instance.num_nodes();
  return g;
}

/// Counter and histogram deltas across one traced round.
struct RegistryMark {
  std::uint64_t dijkstra = 0, ls_evals = 0, ls_moves = 0, fallbacks = 0, dispatches = 0;
  std::uint64_t region_count = 0;
  double region_sum = 0.0;

  static RegistryMark take() {
    obs::Registry& r = obs::Registry::global();
    RegistryMark m;
    m.dijkstra = r.counter("dijkstra/heap_runs").value() + r.counter("dijkstra/dial_runs").value() +
                 r.counter("dijkstra/dense_runs").value();
    m.ls_evals = r.counter("ls/evaluations").value();
    m.ls_moves = r.counter("ls/moves_accepted").value();
    m.fallbacks = r.counter("pricer/full_fallbacks").value();
    m.dispatches = r.counter("policy/dispatches").value();
    const obs::Histogram& h = r.histogram("pricer/repair_region_size");
    m.region_count = h.count();
    m.region_sum = h.sum();
    return m;
  }
};

double span_seconds(const std::vector<obs::TraceEvent>& events, const std::string& name) {
  double total = 0.0;
  for (const obs::TraceEvent& e : events) {
    if (e.name == name) total += static_cast<double>(e.dur_ns) * 1e-9;
  }
  return total;
}

}  // namespace

struct SweepStage {
  std::vector<exp::SweepSpec> specs;
  std::vector<Trial> trials;  // per (spec, trial id), in spec order
  std::size_t sim_trials = 0;  ///< the first trials, whose plans are co-simulated
  RefClock ref;
  // Per-round samples.
  std::vector<double> overhead_s;
  std::vector<double> round_s, sim_s;  ///< every round's sweep and sim time, traced or not
  std::vector<double> round_scaled, sim_scaled;  ///< the same, scaled for host drift
  std::vector<double> traced_solve_s;  ///< runner-recorded solve seconds of traced rounds
  std::vector<double> costs;  ///< round 0's costs, every later round must repeat them
  double heuristic_cost = 0.0;
  std::int64_t sims_per_round = 0;
  // Traced-round accumulators (per round averages are taken at the end).
  int traced_rounds = 0;
  double ls_s = 0, idb_s = 0, exact_s = 0, exact_nodes = 0, sim_traced_s = 0;
  double dijkstra = 0, ls_evals = 0, ls_moves = 0, fallbacks = 0, dispatches = 0;
  double region_sum = 0, region_count = 0, traced_sim_rounds = 0;
};

std::shared_ptr<SweepStage> setup_sweep(Context& ctx, const StageSize& size) {
  auto stage = std::make_shared<SweepStage>();
  auto make = [&](double side, std::vector<int> posts, std::vector<int> nodes,
                  std::vector<std::string> solvers, int runs, std::uint64_t salt) {
    exp::SweepSpec spec;
    spec.name = "bench";
    spec.side = side;
    spec.posts_axis = std::move(posts);
    spec.nodes_axis = std::move(nodes);
    spec.levels_axis = {3};
    spec.eta_axis = {0.01};
    spec.runs = runs;
    spec.base_seed = ctx.seed * 7919 + salt;
    spec.seed_mode = exp::SeedMode::kIndependent;
    spec.solvers = std::move(solvers);
    stage->specs.push_back(std::move(spec));
  };
  std::vector<std::string> with_exact = kHeuristics;
  with_exact.insert(with_exact.begin(), "exact");
  if (size.full) {
    // Fig. 7 (200 m, N small enough for exact), Fig. 8 (N = 100, M from 200
    // to 1000), Fig. 9 (M = 600, N from 100 -- Fig. 8's middle point -- to
    // 300).  Several fields per point keep the round's work close to its
    // mean whatever the seed.
    make(200.0, {10, 11, 12}, {22}, with_exact, 2, 7);
    make(500.0, {100}, {200, 400, 600, 800, 1000}, kHeuristics, 2, 8);
    make(500.0, {200, 300}, {600}, kHeuristics, 3, 9);
  } else {
    // Many small, dense fields: connected at the first draws, so neither the
    // runner's rejection sampling nor one slow field sets the round's time.
    make(180.0, {8}, {16}, with_exact, 6, 7);
    make(260.0, {30}, {90}, kHeuristics, 48, 8);
  }
  for (int s = 0; s < static_cast<int>(stage->specs.size()); ++s) {
    const exp::SweepSpec& spec = stage->specs[static_cast<std::size_t>(s)];
    const std::vector<exp::ScenarioConfig> configs = spec.expand();
    for (int c = 0; c < static_cast<int>(configs.size()); ++c) {
      for (int run = 0; run < spec.runs; ++run) {
        const exp::ScenarioConfig& config = configs[static_cast<std::size_t>(c)];
        core::Instance instance = spec.build_instance(config, spec.field_seed(c, run));
        Geometry g = geometry_of(instance, spec, config.levels, config.eta);
        stage->trials.push_back({s, c * spec.runs + run, std::move(instance), std::move(g)});
      }
    }
  }
  // The small sweep co-simulates the plans of its first 24 fields (all 6
  // exact ones), enough plans to average the seed out of the rate.
  stage->sim_trials =
      size.full ? stage->trials.size() : std::min<std::size_t>(24, stage->trials.size());
  return stage;
}

void run_sweep(Context& ctx, SweepStage& stage, double budget_s) {
  obs::MetricsSink sink;
  obs::TraceBuffer& buffer = obs::TraceBuffer::global();
  const std::vector<double> local = run_rounds(ctx, stage.ref, budget_s, 2, [&](int round) {
    const bool traced = ctx.traced_round(round);
    ctx.tracer.enabled = traced;
    buffer.set_enabled(traced);
    buffer.clear();
    const RegistryMark before = RegistryMark::take();

    // Solves.
    std::vector<exp::SweepResult> results;
    double solve_seconds = 0.0;
    double sweep_s = 0.0, sweep_scaled = 0.0;
    for (std::size_t s = 0; s < stage.specs.size(); ++s) {
      const double start = now_s();
      Scope span(ctx.tracer, "exp.run", static_cast<std::int64_t>(s));
      exp::RunnerOptions options;
      options.threads = 1;
      options.keep_solutions = true;
      options.sink = traced ? &sink : nullptr;
      // The reference is sampled after every trial, and each trial's time is
      // scaled by the sample that follows it; the sampling itself is not
      // counted in the sweep's time.
      double trial_start = now_s();
      double in_ref = 0.0;
      options.on_trial = [&](const exp::TrialRow& row) {
        const double end = now_s();
        ctx.tracer.record("exp.trial", trial_start, end, row.trial);
        const double ref_s = stage.ref.sample(1);
        sweep_scaled += (end - trial_start) * RefClock::scale_for(ref_s, elasticity::kSweep);
        trial_start = now_s();
        in_ref += trial_start - end;
      };
      exp::ExperimentRunner runner(stage.specs[s], options);
      results.push_back(runner.run());
      const double end = now_s();
      sweep_s += end - start - in_ref;
      sweep_scaled += (end - trial_start) * RefClock::scale_for(stage.ref.sample(), elasticity::kSweep);
    }
    for (const exp::SweepResult& result : results) {
      for (const exp::TrialRow& row : result.trials) {
        for (const exp::SolverOutcome& outcome : row.outcomes) solve_seconds += outcome.seconds;
      }
    }

    // Co-simulation of every plan under every policy.
    double sim_s = 0.0, sim_scaled = 0.0, sim_block = 0.0;
    std::int64_t sims = 0;
    std::vector<double> costs;
    for (std::size_t t = 0; t < stage.trials.size(); ++t) {
      Trial& trial = stage.trials[t];
      const exp::SweepResult& result = results[static_cast<std::size_t>(trial.spec)];
      const exp::TrialRow& row = result.trials[static_cast<std::size_t>(trial.trial)];
      for (std::size_t k = 0; k < row.outcomes.size(); ++k) {
        const exp::SolverOutcome& outcome = row.outcomes[k];
        ++ctx.attempted;
        if (!outcome.ok || !outcome.solution) {
          ++ctx.failed;
          ctx.fail("sweep " + result.solver_names[k], outcome.error);
          continue;
        }
        costs.push_back(outcome.cost);
        for (std::size_t p = 0; t < stage.sim_trials && p < kPolicies.size(); ++p) {
          const std::string& policy = kPolicies[p];
          const double sim_start = now_s();
          Scope span(ctx.tracer, "sim.charger_sim", sims);
          sim::NetworkConfig net;
          net.bits_per_report = kBitsPerReport;
          net.battery_capacity_j = kBatteryJ;
          net.initial_charge = kInitialCharge;
          sim::NetworkSim network(trial.instance, *outcome.solution, net);
          sim::ChargerConfig charger;
          charger.speed_mps = kChargerSpeedMps;
          charger.radiated_power_w = kChargerPowerW;
          std::vector<sim::FixedCharger> fixed;
          int fleet = kFleet;
          if (policy == "fixed") {
            core::PlacementConfig placement;
            placement.coverage_radius_m = kFixedRadiusM;
            placement.radiated_power_w = kFixedPowerW;
            placement.bits_per_round = kBitsPerReport;
            fixed = sim::fixed_chargers_from(
                core::place_chargers(trial.instance, *outcome.solution, placement), kFixedPowerW,
                kFixedRadiusM);
            fleet = 0;
          }
          sim::ChargerSim co_sim(network, charger, fleet, sim::make_charging_policy(policy),
                                 std::move(fixed), traced ? &sink : nullptr);
          co_sim.run(kSimRounds);
          sim_s += now_s() - sim_start;
          sim_block += now_s() - sim_start;
          if (++sims % 16 == 0) {
            sim_scaled += sim_block * RefClock::scale_for(stage.ref.sample(), elasticity::kSim);
            sim_block = 0.0;
          }
          ++ctx.attempted;
          if (round == 0) {
            SimOutcome o;
            o.mobile = fleet > 0;
            o.on_demand = policy == "nearest-deficit" || policy == "threshold";
            o.dead_nodes = network.dead_node_count();
            o.any_death = co_sim.stats().any_death;
            o.radiated_per_round = co_sim.stats().radiated_per_round();
            o.cost = outcome.cost;
            o.bits_per_report = kBitsPerReport;
            const std::string reason = check_sim(o);
            if (!reason.empty()) {
              ctx.fail("sim " + policy + " on " + result.solver_names[k] + " " + row.config.label(),
                       reason);
            }
          }
        }
        if (round == 0) {
          Plan plan;
          plan.deployment = outcome.solution->deployment;
          plan.cost = outcome.cost;
          for (int q = 0; q < trial.geometry.posts(); ++q) {
            plan.parent.push_back(outcome.solution->tree.parent(q));
          }
          const bool exact = result.solver_names[k] == "exact";
          ctx.fail(result.solver_names[k] + " " + row.config.label(),
                   check_plan(trial.geometry, plan, exact));
          if (!exact) stage.heuristic_cost += outcome.cost;
        }
      }
      if (round == 0) {
        // Paired comparisons on the same instance.
        auto cost_of = [&](const std::string& name) {
          for (std::size_t k = 0; k < row.outcomes.size(); ++k) {
            if (result.solver_names[k] == name) return row.outcomes[k].cost;
          }
          return static_cast<double>(NAN);
        };
        const std::string label = row.config.label();
        ctx.fail("rfh+ls vs rfh " + label, check_not_worse(cost_of("rfh+ls"), cost_of("rfh"), "ls made the plan worse"));
        ctx.fail("idb+ls vs idb " + label, check_not_worse(cost_of("idb+ls"), cost_of("idb"), "ls made the plan worse"));
        const double exact = cost_of("exact");
        if (!std::isnan(exact)) {
          for (const std::string& h : kHeuristics) {
            ctx.fail("exact vs " + h + " " + label, check_not_worse(exact, cost_of(h), "exact is worse than a heuristic"));
          }
        }
      }
    }
    if (sim_block > 0.0) {
      sim_scaled += sim_block * RefClock::scale_for(stage.ref.sample(), elasticity::kSim);
    }
    if (round == 0) {
      stage.costs = costs;
      stage.sims_per_round = sims;
    } else if (costs != stage.costs) {
      ctx.fail("sweep", "round " + std::to_string(round) + " produced other plans than round 0");
    }

    if (traced) {
      const RegistryMark after = RegistryMark::take();
      const std::vector<obs::TraceEvent> events = buffer.events();
      ++stage.traced_rounds;
      stage.ls_s += span_seconds(events, "ls/refine");
      stage.idb_s += span_seconds(events, "idb/solve");
      stage.traced_solve_s.push_back(solve_seconds);
      stage.sim_traced_s += sim_s;
      stage.traced_sim_rounds += static_cast<double>(sims) * kSimRounds;
      for (const exp::SweepResult& result : results) {
        for (const exp::TrialRow& row : result.trials) {
          for (std::size_t k = 0; k < row.outcomes.size(); ++k) {
            if (result.solver_names[k] != "exact") continue;
            stage.exact_s += row.outcomes[k].seconds;
            stage.exact_nodes += row.outcomes[k].diagnostics.find("exact/evaluations").value_or(0.0);
          }
        }
      }
      stage.dijkstra += static_cast<double>(after.dijkstra - before.dijkstra);
      stage.ls_evals += static_cast<double>(after.ls_evals - before.ls_evals);
      stage.ls_moves += static_cast<double>(after.ls_moves - before.ls_moves);
      stage.fallbacks += static_cast<double>(after.fallbacks - before.fallbacks);
      stage.dispatches += static_cast<double>(after.dispatches - before.dispatches);
      stage.region_sum += after.region_sum - before.region_sum;
      stage.region_count += static_cast<double>(after.region_count - before.region_count);
    } else {
      stage.overhead_s.push_back(sweep_s - solve_seconds);
    }
    stage.round_s.push_back(sweep_s);
    stage.sim_s.push_back(sim_s);
    stage.round_scaled.push_back(sweep_scaled);
    stage.sim_scaled.push_back(sim_scaled);
  });
  ctx.tracer.enabled = false;
  buffer.set_enabled(false);
  buffer.clear();

  const double sweep = untraced_median(ctx, stage.round_s);
  const double simulated = static_cast<double>(stage.sims_per_round) * kSimRounds;
  ctx.metric("sweep_s", untraced_median(ctx, stage.round_scaled), "s");
  ctx.metric("sim_rounds_per_s", simulated / untraced_median(ctx, stage.sim_scaled), "rounds/s");
  ctx.metric("host.sweep_raw_s", sweep, "s");
  ctx.metric("host.sim_raw_rounds_per_s", simulated / untraced_median(ctx, stage.sim_s), "rounds/s");
  ctx.metric("host.sweep_ref_s", stage.ref.median(), "s");
  ctx.metric("exp.overhead_s", median(stage.overhead_s), "s");
  ctx.metric("cost.sweep_uj_per_bit", stage.heuristic_cost * 1e6, "uJ/bit");
  if (ctx.trace) {
    const double n = std::max(1, stage.traced_rounds);
    // The runner's per-solve records of the traced rounds, brought to the
    // host speed of the untraced rounds, against the untraced sweep time.
    std::vector<double> untraced_local, adjusted;
    for (std::size_t r = 0; r < local.size(); r += 2) untraced_local.push_back(local[r]);
    for (std::size_t i = 0; i < stage.traced_solve_s.size() && 2 * i + 1 < local.size(); ++i) {
      adjusted.push_back(stage.traced_solve_s[i] * median(untraced_local) / local[2 * i + 1]);
    }
    ctx.metric("exp.solve_spans_s", median(adjusted), "s");
    ctx.metric("exp.trace_gap_s", sweep - median(adjusted), "s");
    ctx.metric("core.ls.s", stage.ls_s / n, "s");
    ctx.metric("core.ls.evals", stage.ls_evals / n, "count");
    ctx.metric("core.ls.moves", stage.ls_moves / n, "count");
    ctx.metric("core.idb.s", stage.idb_s / n, "s");
    ctx.metric("core.exact.s", stage.exact_s / n, "s");
    ctx.metric("core.exact.nodes", stage.exact_nodes / n, "count");
    ctx.metric("core.pricer.repair_region_mean",
               stage.region_count > 0 ? stage.region_sum / stage.region_count : 0.0, "posts");
    ctx.metric("core.pricer.full_fallbacks", stage.fallbacks / n, "count");
    ctx.metric("graph.dijkstra_runs", stage.dijkstra / n, "count");
    ctx.metric("sim.s", stage.sim_traced_s / n, "s");
    ctx.metric("sim.round_us", stage.sim_traced_s / std::max(1.0, stage.traced_sim_rounds) * 1e6, "us");
    ctx.metric("sim.dispatches", stage.dispatches / n, "count");
    ctx.metric("obs.sweep_trace_overhead", trace_overhead(stage.round_s, local), "ratio");
  }
}

}  // namespace wrsnbench
