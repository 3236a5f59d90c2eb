// wrsn planning CLI: generate or load a field, co-design deployment and
// routing, and emit the plan as text + SVG, with a charger feasibility
// report.  The "product" face of the library: everything a deployment
// engineer needs in one command.
//
//   ./plan_tool --posts 40 --nodes 160 --out plan            # random field
//   ./plan_tool --field site.txt --nodes 90 --solver idb     # surveyed site
//   ./plan_tool --trace=t.json --metrics=m.txt --report=r.txt
//   ./plan_tool --solver exact --posts 9 --progress          # live heartbeats
//
// Planning itself (solver-spec fold-in, field sampling, feasibility, report
// sections) lives in src/svc/planner.* and is shared with the wrsn_serve
// daemon, so a `plan` RPC and this CLI produce byte-identical reports for
// the same scenario (docs/service.md).
//
// Outputs <out>.field.txt, <out>.solution.txt, <out>.svg, and -- when the
// observability flags are set -- a Chrome trace, a wrsn-metrics dump, a
// wrsn-report summary, a wrsn-metrics-series time series, and live
// wrsn-progress heartbeats on stderr (docs/observability.md).
#include <algorithm>
#include <cstdio>
#include <iostream>

#include "core/charger_placement.hpp"
#include "core/solver.hpp"
#include "io/obs_cli.hpp"
#include "io/serialize.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/sink.hpp"
#include "obs/trace.hpp"
#include "sim/charger_sim.hpp"
#include "sim/charging_policy.hpp"
#include "sim/network_sim.hpp"
#include "sim/tour.hpp"
#include "svc/planner.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"
#include "viz/svg.hpp"

using namespace wrsn;

int main(int argc, char** argv) {
  int posts = 40;
  int nodes = 160;
  double side = 300.0;
  std::int64_t seed = 1;
  std::string solver = "rfh+ls";
  std::string field_path;
  std::string out = "plan";
  double eta = 0.01;
  double charger_power = 10.0;
  double charger_speed = 5.0;
  int bits = 4096;
  int sim_rounds = 200;
  double sim_faults = 0.0;
  double sim_node_faults = 0.0;
  double sim_outages = 0.0;
  std::string sim_repair = "none";
  std::int64_t sim_fault_seed = 7;
  std::string ls_strategy = "first";
  int exact_threads = 1;
  int exact_split_depth = 0;
  double exact_budget = 0.0;
  std::vector<std::string> charging_policies;
  int policy_rounds = 2000;
  double placement_radius = 50.0;
  double placement_power = 5.0;

  util::Flags flags;
  io::ObsCli obs_cli;
  flags.add_int("posts", &posts, "posts for a generated field");
  flags.add_int("nodes", &nodes, "sensor-node budget");
  flags.add_double("side", &side, "generated field side length [m]");
  flags.add_int64("seed", &seed, "RNG seed for field generation");
  flags.add_string("solver", &solver,
                   "registry spec, e.g. rfh+ls, idb:delta=2, rfh:alloc=greedy, exact");
  flags.add_string("field", &field_path, "load a surveyed field instead of generating");
  flags.add_string("out", &out, "output file prefix");
  flags.add_double("eta", &eta, "single-node charging efficiency");
  flags.add_double("charger-power", &charger_power, "charger RF power [W]");
  flags.add_double("charger-speed", &charger_speed, "charger travel speed [m/s]");
  flags.add_int("bits", &bits, "bits per report round");
  flags.add_int("sim-rounds", &sim_rounds, "reporting rounds to simulate on the plan");
  flags.add_double("sim-faults", &sim_faults,
                   "per-round post destruction hazard during the simulation");
  flags.add_double("sim-node-faults", &sim_node_faults, "per-round node death hazard");
  flags.add_double("sim-outages", &sim_outages, "per-round transient link outage hazard");
  flags.add_string("sim-repair", &sim_repair,
                   "reaction to faults: none | reroute | maintain");
  flags.add_int64("sim-fault-seed", &sim_fault_seed, "fault model RNG seed");
  flags.add_string("ls-strategy", &ls_strategy, "local-search move rule: first | best");
  flags.add_int("exact-threads", &exact_threads,
                "exact-solver search workers (0 = all cores); closed-run results are "
                "bit-identical for every value");
  flags.add_int("exact-split-depth", &exact_split_depth,
                "exact-solver frontier split depth (0 = auto)");
  flags.add_double("exact-budget", &exact_budget,
                   "exact-solver anytime wall-clock budget [s]; 0 = closed run");
  flags.add_string_list("charging-policy", &charging_policies,
                        "charging-policy spec to co-simulate on the plan (repeatable; "
                        "'fixed' uses the greedy charger placement)");
  flags.add_int("policy-rounds", &policy_rounds, "reporting rounds per policy run");
  flags.add_double("placement-radius", &placement_radius,
                   "fixed-charger coverage radius [m] for the 'fixed' policy");
  flags.add_double("placement-power", &placement_power,
                   "fixed-charger RF power [W] for the 'fixed' policy");
  obs_cli.register_flags(flags);
  if (!flags.parse(argc, argv)) return 0;

  // Observability: one global registry + trace buffer for the whole run,
  // armed per the shared --trace/--metrics/--report/--progress/--perf flags.
  obs::Registry& registry = obs::Registry::global();
  obs::MetricsSink metrics_sink(registry);
  obs_cli.begin();

  // Scenario block shared with the service: the same fields a `plan` RPC
  // carries, so the field sampled here matches the daemon's byte for byte.
  svc::Scenario scenario;
  scenario.posts = posts;
  scenario.nodes = nodes;
  scenario.side = side;
  scenario.seed = seed;
  scenario.eta = eta;

  // Field: surveyed or generated.
  geom::Field field;
  const auto radio = energy::RadioModel::uniform_levels(scenario.levels, scenario.range_step);
  if (!field_path.empty()) {
    field = io::load_field(field_path);
    std::printf("loaded field '%s': %zu posts\n", field_path.c_str(), field.posts.size());
  } else {
    try {
      field = svc::sample_field(scenario);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "field generation: %s\n", error.what());
      return 1;
    }
    std::printf("generated %dx%.0fm field with %d posts (seed %lld)\n", static_cast<int>(side),
                side, posts, static_cast<long long>(seed));
  }

  const auto instance =
      core::Instance::geometric(field, radio, svc::make_charging(scenario), nodes);

  // Solve via the shared planner; --solver takes any registry spec, and the
  // standalone --ls-strategy / --exact-* flags are folded into
  // the spec unless it sets them explicitly (svc::resolve_solver_spec).
  svc::PlanOptions plan_options;
  plan_options.solver = solver;
  plan_options.ls_strategy = ls_strategy;
  plan_options.exact_threads = exact_threads;
  plan_options.exact_split_depth = exact_split_depth;
  plan_options.exact_budget_s = exact_budget;
  plan_options.charger_power_w = charger_power;
  plan_options.charger_speed_mps = charger_speed;
  plan_options.bits_per_report = bits;

  svc::PlanOutcome outcome;
  try {
    outcome = svc::run_plan(instance, plan_options, &metrics_sink, obs_cli.progress());
  } catch (const std::exception& error) {
    std::fprintf(stderr, "solver '%s': %s\n", solver.c_str(), error.what());
    std::fprintf(stderr, "registered solvers:\n");
    const auto& solvers = core::SolverRegistry::global();
    for (const std::string& name : solvers.names()) {
      std::fprintf(stderr, "  %-10s %s\n", name.c_str(), solvers.help(name).c_str());
    }
    return 1;
  }
  const core::Solution& solution = outcome.solution;
  const double cost = outcome.cost_j_per_bit;
  std::printf("solver %s: total recharging cost %s per reported bit\n", solver.c_str(),
              util::format_energy(cost).c_str());

  obs::RunReport run_report("wrsn deployment plan");
  svc::add_plan_sections(run_report, instance, outcome,
                         field_path.empty() ? "generated" : field_path,
                         static_cast<std::int64_t>(seed), eta, bits, solver);

  // Charger feasibility table (the sections above already carry the values).
  const sim::PatrolFeasibility& feasibility = outcome.feasibility;
  util::Table report({"charger metric", "value"});
  report.begin_row().add("patrol tour length [m]").add(outcome.tour.length_m, 1);
  report.begin_row().add("network RF demand [W]").add(feasibility.demand_w, 4);
  report.begin_row().add("charger duty cycle").add(feasibility.duty, 4);
  report.begin_row().add("feasible with one charger").add(feasibility.feasible ? "yes" : "NO");
  if (feasibility.feasible) {
    report.begin_row().add("patrol cycle [min]").add(feasibility.cycle_time_s / 60.0, 2);
    report.begin_row().add("min battery per node [J]").add(
        feasibility.min_battery_capacity_j, 4);
  }
  report.print_ascii(std::cout);

  // Dry-run the plan: rounds of reporting against finite batteries, metered
  // through the same sink so sim/* metrics land next to the solver's.
  if (sim_rounds > 0) {
    WRSN_TRACE_SPAN("plan/simulate");
    sim::NetworkConfig sim_config;
    sim_config.bits_per_report = bits;
    sim_config.sink = &metrics_sink;
    sim_config.progress = obs_cli.progress();
    sim_config.faults.seed = static_cast<std::uint64_t>(sim_fault_seed);
    sim_config.faults.post_destruction_hazard = sim_faults;
    sim_config.faults.node_death_hazard = sim_node_faults;
    sim_config.faults.link_outage_hazard = sim_outages;
    try {
      sim_config.repair = sim::repair_policy_from_name(sim_repair);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "--sim-repair: %s\n", error.what());
      return 1;
    }
    sim::NetworkSim simulation(instance, solution, sim_config);
    simulation.run_rounds(static_cast<std::uint64_t>(sim_rounds));
    double battery_min = 0.0;
    double battery_sum = 0.0;
    int battery_count = 0;
    for (const auto& post : simulation.posts()) {
      for (const auto& node : post.nodes) {
        battery_min = battery_count == 0 ? node.battery_j : std::min(battery_min, node.battery_j);
        battery_sum += node.battery_j;
        ++battery_count;
      }
    }
    std::printf("simulated %llu reporting rounds: %d dead nodes, %s drawn\n",
                static_cast<unsigned long long>(simulation.rounds_completed()),
                simulation.dead_node_count(),
                util::format_energy(simulation.total_consumed()).c_str());
    run_report.begin_section("simulation")
        .add("rounds", simulation.rounds_completed())
        .add("dead_nodes", simulation.dead_node_count())
        .add("consumed_j", simulation.total_consumed())
        .add("battery_min_j", battery_min)
        .add("battery_mean_j", battery_count > 0 ? battery_sum / battery_count : 0.0);
    if (sim_config.faults.enabled() || sim_config.repair != sim::RepairPolicy::kNone) {
      std::printf(
          "resilience: %llu faults, %d posts destroyed, delivery ratio %.4f, "
          "%llu reroutes, mean repair latency %.1f rounds\n",
          static_cast<unsigned long long>(simulation.faults_injected()),
          simulation.destroyed_post_count(), simulation.delivery_ratio(),
          static_cast<unsigned long long>(simulation.reroutes()),
          simulation.repair_latency_mean());
      run_report.begin_section("resilience")
          .add("repair_policy", sim::repair_policy_name(sim_config.repair))
          .add("faults_injected", static_cast<std::int64_t>(simulation.faults_injected()))
          .add("destroyed_posts", simulation.destroyed_post_count())
          .add("failed_nodes", simulation.failed_node_count())
          .add("delivery_ratio", simulation.delivery_ratio())
          .add("delivered_bits", simulation.delivered_bits_total())
          .add("dropped_bits", simulation.dropped_bits_total())
          .add("backlog_bits", simulation.backlog_bits_total())
          .add("reroutes", static_cast<std::int64_t>(simulation.reroutes()))
          .add("repair_latency_mean_rounds", simulation.repair_latency_mean());
    }
  }

  // Charging-policy stage: co-simulate the plan under every requested policy
  // (sim::ChargingPolicyRegistry specs) so the scheduling choice is priced
  // next to the deployment itself.  The spec "fixed" runs zero mobile
  // chargers over the greedy core::place_chargers placement.
  if (!charging_policies.empty()) {
    WRSN_TRACE_SPAN("plan/policies");
    sim::ChargerConfig policy_charger;
    policy_charger.radiated_power_w = charger_power;
    policy_charger.speed_mps = charger_speed;
    util::Table policy_table(
        {"policy", "chargers", "alive", "deaths", "visits", "RF [J]", "travel [J]"});
    run_report.begin_section("charging_policies").add("rounds", policy_rounds);
    for (const std::string& policy_spec : charging_policies) {
      try {
        sim::NetworkConfig policy_net;
        policy_net.bits_per_report = bits;
        sim::NetworkSim policy_network(instance, solution, policy_net);
        std::vector<sim::FixedCharger> fixed;
        int mobile = 1;
        std::string charger_count = "1 mobile";
        if (policy_spec == "fixed" || policy_spec.rfind("fixed:", 0) == 0) {
          core::PlacementConfig placement_cfg;
          placement_cfg.coverage_radius_m = placement_radius;
          placement_cfg.radiated_power_w = placement_power;
          placement_cfg.round_period_s = policy_charger.round_period_s;
          placement_cfg.bits_per_round = bits;
          const core::PlacementResult placement =
              core::place_chargers(instance, solution, placement_cfg);
          fixed = sim::fixed_chargers_from(placement, placement_power, placement_radius);
          mobile = 0;
          charger_count = std::to_string(placement.chargers.size()) + " fixed";
          run_report.add("placement_chargers",
                         static_cast<std::int64_t>(placement.chargers.size()))
              .add("placement_feasible", placement.feasible)
              .add("placement_power_w", placement.total_power_w);
        }
        sim::ChargerSim policy_sim(policy_network, policy_charger, mobile,
                                   sim::make_charging_policy(policy_spec),
                                   std::move(fixed), &metrics_sink);
        policy_sim.run(static_cast<std::uint64_t>(policy_rounds));
        const sim::ChargerSimStats& stats = policy_sim.stats();
        policy_table.begin_row()
            .add(policy_spec)
            .add(charger_count)
            .add(stats.any_death ? "NO" : "yes")
            .add(policy_network.dead_node_count())
            .add(static_cast<long long>(stats.visits))
            .add(stats.radiated_j + stats.fixed_radiated_j, 3)
            .add(stats.travel_j, 1);
        run_report.add(policy_spec + "/alive", !stats.any_death)
            .add(policy_spec + "/visits", static_cast<std::int64_t>(stats.visits))
            .add(policy_spec + "/radiated_j", stats.radiated_j + stats.fixed_radiated_j)
            .add(policy_spec + "/travel_j", stats.travel_j);
      } catch (const std::exception& error) {
        std::fprintf(stderr, "--charging-policy '%s': %s\n", policy_spec.c_str(),
                     error.what());
        return 1;
      }
    }
    policy_table.print_ascii(std::cout);
  }

  // Artifacts.
  io::save_field(out + ".field.txt", field);
  io::save_solution(out + ".solution.txt", solution);
  viz::save_svg(out + ".svg", instance, &solution);
  std::printf("wrote %s.field.txt, %s.solution.txt, %s.svg\n", out.c_str(), out.c_str(),
              out.c_str());
  if (!obs_cli.finish(&run_report)) return 1;
  return 0;
}
