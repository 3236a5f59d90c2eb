// Solver/simulator event sink: the one interface RFH, IDB, local search and
// the network simulator report progress through.
//
// Event structs carry plain numbers only, so `obs` stays below `core`/`sim`
// in the layering (util -> obs -> ... -> core -> sim) and any consumer --
// benches, the planning CLI, future adaptive-charging policies -- can
// observe a run without re-deriving solver internals.  The base `Sink` is a
// no-op; passing nullptr (the options default everywhere) costs a branch.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"

namespace wrsn::obs {

/// One RFH iteration (phases I-IV) finished.
struct RfhIterationEvent {
  int iteration = 0;        ///< 0-based
  double cost = 0.0;        ///< total recharging cost after this iteration
  double best_cost = 0.0;   ///< best cost over iterations so far (<= cost)
  int fat_tree_edges = 0;   ///< Phase I DAG parent edges before trimming
};

/// Local search priced one candidate move (node `from_post` -> `to_post`).
struct LocalSearchMoveEvent {
  int pass = 0;             ///< 0-based improvement pass
  int from_post = 0;
  int to_post = 0;
  double old_cost = 0.0;    ///< incumbent cost before the move
  double new_cost = 0.0;    ///< candidate cost (accepted => new incumbent)
  bool accepted = false;

  double improvement() const noexcept { return old_cost - new_cost; }
};

/// Local search finished one full scan over the move neighborhood.
struct LocalSearchPassEvent {
  int pass = 0;
  std::uint64_t evaluated = 0;  ///< candidates priced during this pass
  int accepted = 0;             ///< moves kept during this pass
  double cost = 0.0;            ///< incumbent cost after the pass
};

/// IDB committed one round (delta nodes placed).
struct IdbRoundEvent {
  int round = 0;                  ///< 0-based
  double cost = 0.0;              ///< committed deployment's cost
  std::uint64_t evaluations = 0;  ///< cumulative candidates priced so far
};

/// The network simulator completed one reporting round.  The trailing
/// resilience fields stay zero when fault injection is off.
struct SimRoundEvent {
  std::uint64_t round = 0;       ///< 1-based round count after this round
  double consumed_j = 0.0;       ///< energy drawn across all posts this round
  int dead_nodes = 0;            ///< cumulative dead nodes
  double battery_min_j = 0.0;    ///< min residual battery across all nodes
  double battery_mean_j = 0.0;   ///< mean residual battery across all nodes
  double delivered_bits = 0.0;   ///< bits that reached the base this round
  double dropped_bits = 0.0;     ///< bits dropped this round (backlog overflow/loss)
  double backlog_bits = 0.0;     ///< bits buffered in orphaned subtrees right now
  int faults = 0;                ///< faults injected this round
  int reroutes = 0;              ///< routing-tree parent changes this round
};

/// The fault model injected one fault into the running simulation.
struct SimFaultEvent {
  std::uint64_t round = 0;       ///< 1-based round in which the fault landed
  int kind = 0;                  ///< 0 = post destroyed, 1 = node death, 2 = link outage
  int post = 0;
  int duration_rounds = 0;       ///< outage length; 0 for permanent faults
};

/// A previously disconnected post regained a path to the base station
/// (rerouted around the damage, outage expired, or maintenance visit).
struct SimRepairEvent {
  std::uint64_t round = 0;             ///< 1-based round of the reconnection
  int post = 0;
  std::uint64_t latency_rounds = 0;    ///< rounds the post spent disconnected
};

/// A charging policy dispatched a mobile charger (sim/charger_sim.hpp).
struct ChargerDispatchEvent {
  std::uint64_t round = 0;         ///< rounds completed when the order was issued
  double time_s = 0.0;             ///< simulation time of the dispatch
  int charger = 0;
  int post = 0;
  double deficit_fraction = 0.0;   ///< post's min battery fraction at dispatch
  double distance_m = 0.0;         ///< travel distance of this dispatch
};

/// Observer interface; every handler defaults to a no-op so sinks override
/// only what they care about.
class Sink {
 public:
  virtual ~Sink() = default;
  virtual void on_rfh_iteration(const RfhIterationEvent&) {}
  virtual void on_local_search_move(const LocalSearchMoveEvent&) {}
  virtual void on_local_search_pass(const LocalSearchPassEvent&) {}
  virtual void on_idb_round(const IdbRoundEvent&) {}
  virtual void on_sim_round(const SimRoundEvent&) {}
  virtual void on_sim_fault(const SimFaultEvent&) {}
  virtual void on_sim_repair(const SimRepairEvent&) {}
  virtual void on_charger_dispatch(const ChargerDispatchEvent&) {}
};

/// Appends every event to public vectors; the test/bench workhorse
/// (fig6_rfh_convergence reads `rfh_iterations` instead of re-deriving the
/// convergence series).
class RecordingSink : public Sink {
 public:
  void on_rfh_iteration(const RfhIterationEvent& event) override {
    rfh_iterations.push_back(event);
  }
  void on_local_search_move(const LocalSearchMoveEvent& event) override {
    local_search_moves.push_back(event);
  }
  void on_local_search_pass(const LocalSearchPassEvent& event) override {
    local_search_passes.push_back(event);
  }
  void on_idb_round(const IdbRoundEvent& event) override { idb_rounds.push_back(event); }
  void on_sim_round(const SimRoundEvent& event) override { sim_rounds.push_back(event); }
  void on_sim_fault(const SimFaultEvent& event) override { sim_faults.push_back(event); }
  void on_sim_repair(const SimRepairEvent& event) override { sim_repairs.push_back(event); }
  void on_charger_dispatch(const ChargerDispatchEvent& event) override {
    charger_dispatches.push_back(event);
  }

  void clear() {
    rfh_iterations.clear();
    local_search_moves.clear();
    local_search_passes.clear();
    idb_rounds.clear();
    sim_rounds.clear();
    sim_faults.clear();
    sim_repairs.clear();
    charger_dispatches.clear();
  }

  std::vector<RfhIterationEvent> rfh_iterations;
  std::vector<LocalSearchMoveEvent> local_search_moves;
  std::vector<LocalSearchPassEvent> local_search_passes;
  std::vector<IdbRoundEvent> idb_rounds;
  std::vector<SimRoundEvent> sim_rounds;
  std::vector<SimFaultEvent> sim_faults;
  std::vector<SimRepairEvent> sim_repairs;
  std::vector<ChargerDispatchEvent> charger_dispatches;
};

/// Folds events into a `Registry` under the canonical metric names
/// (docs/observability.md lists them all):
///   rfh/iterations, rfh/final_cost, rfh/iteration_cost, rfh/fat_tree_edges,
///   ls/evaluations, ls/moves_accepted, ls/moves_rejected, ls/passes,
///   ls/improvement, ls/final_cost,
///   idb/rounds, idb/evaluations, idb/final_cost,
///   sim/rounds, sim/dead_nodes, sim/consumed_j, sim/round_energy_j,
///   sim/battery_min_j, sim/battery_mean_j,
///   sim/faults_injected, sim/reroutes, sim/delivered_bits, sim/dropped_bits,
///   sim/backlog_bits, sim/repair_latency_rounds,
///   policy/dispatches, policy/dispatch_distance_m, policy/dispatch_deficit
class MetricsSink : public Sink {
 public:
  explicit MetricsSink(Registry& registry = Registry::global());

  void on_rfh_iteration(const RfhIterationEvent& event) override;
  void on_local_search_move(const LocalSearchMoveEvent& event) override;
  void on_local_search_pass(const LocalSearchPassEvent& event) override;
  void on_idb_round(const IdbRoundEvent& event) override;
  void on_sim_round(const SimRoundEvent& event) override;
  void on_sim_fault(const SimFaultEvent& event) override;
  void on_sim_repair(const SimRepairEvent& event) override;
  void on_charger_dispatch(const ChargerDispatchEvent& event) override;

 private:
  // Cached on construction so event handlers never touch the registry lock.
  Counter* rfh_iterations_;
  Gauge* rfh_final_cost_;
  Histogram* rfh_iteration_cost_;
  Gauge* rfh_fat_tree_edges_;
  Counter* ls_evaluations_;
  Counter* ls_moves_accepted_;
  Counter* ls_moves_rejected_;
  Counter* ls_passes_;
  Histogram* ls_improvement_;
  Gauge* ls_final_cost_;
  Counter* idb_rounds_;
  Gauge* idb_evaluations_;
  Gauge* idb_final_cost_;
  Counter* sim_rounds_;
  Gauge* sim_dead_nodes_;
  Gauge* sim_consumed_j_;
  Histogram* sim_round_energy_j_;
  Gauge* sim_battery_min_j_;
  Gauge* sim_battery_mean_j_;
  Counter* sim_faults_injected_;
  Counter* sim_reroutes_;
  Gauge* sim_delivered_bits_;
  Gauge* sim_dropped_bits_;
  Gauge* sim_backlog_bits_;
  Histogram* sim_repair_latency_;
  Counter* policy_dispatches_;
  Histogram* policy_dispatch_distance_;
  Histogram* policy_dispatch_deficit_;
};

/// Fans every event out to a list of non-owned sinks.
class MultiSink : public Sink {
 public:
  MultiSink() = default;
  explicit MultiSink(std::vector<Sink*> sinks) : sinks_(std::move(sinks)) {}
  void add(Sink* sink) {
    if (sink != nullptr) sinks_.push_back(sink);
  }

  void on_rfh_iteration(const RfhIterationEvent& event) override {
    for (Sink* s : sinks_) s->on_rfh_iteration(event);
  }
  void on_local_search_move(const LocalSearchMoveEvent& event) override {
    for (Sink* s : sinks_) s->on_local_search_move(event);
  }
  void on_local_search_pass(const LocalSearchPassEvent& event) override {
    for (Sink* s : sinks_) s->on_local_search_pass(event);
  }
  void on_idb_round(const IdbRoundEvent& event) override {
    for (Sink* s : sinks_) s->on_idb_round(event);
  }
  void on_sim_round(const SimRoundEvent& event) override {
    for (Sink* s : sinks_) s->on_sim_round(event);
  }
  void on_sim_fault(const SimFaultEvent& event) override {
    for (Sink* s : sinks_) s->on_sim_fault(event);
  }
  void on_sim_repair(const SimRepairEvent& event) override {
    for (Sink* s : sinks_) s->on_sim_repair(event);
  }
  void on_charger_dispatch(const ChargerDispatchEvent& event) override {
    for (Sink* s : sinks_) s->on_charger_dispatch(event);
  }

 private:
  std::vector<Sink*> sinks_;
};

}  // namespace wrsn::obs
