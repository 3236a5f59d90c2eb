#include "obs/sink.hpp"

namespace wrsn::obs {

MetricsSink::MetricsSink(Registry& registry)
    : rfh_iterations_(&registry.counter("rfh/iterations")),
      rfh_final_cost_(&registry.gauge("rfh/final_cost")),
      rfh_iteration_cost_(&registry.histogram("rfh/iteration_cost")),
      rfh_fat_tree_edges_(&registry.gauge("rfh/fat_tree_edges")),
      ls_evaluations_(&registry.counter("ls/evaluations")),
      ls_moves_accepted_(&registry.counter("ls/moves_accepted")),
      ls_moves_rejected_(&registry.counter("ls/moves_rejected")),
      ls_passes_(&registry.counter("ls/passes")),
      ls_improvement_(&registry.histogram("ls/improvement")),
      ls_final_cost_(&registry.gauge("ls/final_cost")),
      idb_rounds_(&registry.counter("idb/rounds")),
      idb_evaluations_(&registry.gauge("idb/evaluations")),
      idb_final_cost_(&registry.gauge("idb/final_cost")),
      sim_rounds_(&registry.counter("sim/rounds")),
      sim_dead_nodes_(&registry.gauge("sim/dead_nodes")),
      sim_consumed_j_(&registry.gauge("sim/consumed_j")),
      sim_round_energy_j_(&registry.histogram("sim/round_energy_j")),
      sim_battery_min_j_(&registry.gauge("sim/battery_min_j")),
      sim_battery_mean_j_(&registry.gauge("sim/battery_mean_j")),
      sim_faults_injected_(&registry.counter("sim/faults_injected")),
      sim_reroutes_(&registry.counter("sim/reroutes")),
      sim_delivered_bits_(&registry.gauge("sim/delivered_bits")),
      sim_dropped_bits_(&registry.gauge("sim/dropped_bits")),
      sim_backlog_bits_(&registry.gauge("sim/backlog_bits")),
      sim_repair_latency_(&registry.histogram("sim/repair_latency_rounds")),
      policy_dispatches_(&registry.counter("policy/dispatches")),
      policy_dispatch_distance_(&registry.histogram("policy/dispatch_distance_m")),
      policy_dispatch_deficit_(&registry.histogram("policy/dispatch_deficit")) {}

void MetricsSink::on_rfh_iteration(const RfhIterationEvent& event) {
  rfh_iterations_->increment();
  rfh_final_cost_->set(event.best_cost);
  rfh_iteration_cost_->record(event.cost);
  rfh_fat_tree_edges_->set(static_cast<double>(event.fat_tree_edges));
}

void MetricsSink::on_local_search_move(const LocalSearchMoveEvent& event) {
  ls_evaluations_->increment();
  if (event.accepted) {
    ls_moves_accepted_->increment();
    ls_improvement_->record(event.improvement());
  } else {
    ls_moves_rejected_->increment();
  }
}

void MetricsSink::on_local_search_pass(const LocalSearchPassEvent& event) {
  ls_passes_->increment();
  ls_final_cost_->set(event.cost);
}

void MetricsSink::on_idb_round(const IdbRoundEvent& event) {
  idb_rounds_->increment();
  idb_evaluations_->set(static_cast<double>(event.evaluations));
  idb_final_cost_->set(event.cost);
}

void MetricsSink::on_sim_round(const SimRoundEvent& event) {
  sim_rounds_->increment();
  sim_dead_nodes_->set(static_cast<double>(event.dead_nodes));
  sim_consumed_j_->add(event.consumed_j);
  sim_round_energy_j_->record(event.consumed_j);
  sim_battery_min_j_->set(event.battery_min_j);
  sim_battery_mean_j_->set(event.battery_mean_j);
  sim_reroutes_->increment(static_cast<std::uint64_t>(event.reroutes));
  sim_delivered_bits_->add(event.delivered_bits);
  sim_dropped_bits_->add(event.dropped_bits);
  sim_backlog_bits_->set(event.backlog_bits);
}

void MetricsSink::on_sim_fault(const SimFaultEvent&) { sim_faults_injected_->increment(); }

void MetricsSink::on_sim_repair(const SimRepairEvent& event) {
  sim_repair_latency_->record(static_cast<double>(event.latency_rounds));
}

void MetricsSink::on_charger_dispatch(const ChargerDispatchEvent& event) {
  policy_dispatches_->increment();
  policy_dispatch_distance_->record(event.distance_m);
  policy_dispatch_deficit_->record(event.deficit_fraction);
}

}  // namespace wrsn::obs
