#include "core/solver.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#include "core/baseline.hpp"
#include "core/exact.hpp"
#include "core/idb.hpp"
#include "core/local_search.hpp"
#include "core/rfh.hpp"

namespace wrsn::core {
namespace {

[[noreturn]] void bad_spec(const std::string& what) { throw std::invalid_argument(what); }

/// Shared local-search sub-options of the "+ls" solver variants.
struct LsConfig {
  LocalSearchOptions options;

  static LsConfig read(SolverOptionReader& reader) {
    LsConfig config;
    config.options.max_passes = reader.get_int("ls-passes", config.options.max_passes);
    const std::string strategy = reader.get_string("ls-strategy", "first");
    if (strategy == "best") {
      config.options.strategy = LocalSearchStrategy::kBestImprovement;
    } else if (strategy != "first") {
      bad_spec("unknown ls-strategy '" + strategy + "' (expected first|best)");
    }
    return config;
  }
};

void add_ls_diagnostics(SolverDiagnostics& diagnostics, const LocalSearchResult& refined) {
  diagnostics.add("ls/initial_cost", refined.initial_cost);
  diagnostics.add("ls/moves", refined.moves_applied);
  diagnostics.add("ls/passes", refined.passes);
  diagnostics.add("ls/evaluations", static_cast<double>(refined.evaluations));
}

class RfhSolver final : public Solver {
 public:
  RfhSolver(std::string name, RfhOptions options, std::optional<LsConfig> ls)
      : Solver(std::move(name)), options_(options), ls_(ls) {}

  SolverRun solve(const Instance& instance, obs::Sink* sink,
                  obs::ProgressSink* progress) const override {
    RfhOptions options = options_;
    options.sink = sink;
    const RfhResult rfh = solve_rfh(instance, options);
    SolverRun run{rfh.solution, rfh.cost, {}};
    run.diagnostics.add("rfh/iterations",
                        static_cast<double>(rfh.per_iteration_cost.size()));
    run.diagnostics.add("rfh/best_iteration", rfh.best_iteration);
    // First iteration (1-based) within 0.01 % of the best: the convergence
    // round Fig. 6's companion table reports.
    int convergence = static_cast<int>(rfh.per_iteration_cost.size());
    for (std::size_t i = 0; i < rfh.per_iteration_cost.size(); ++i) {
      if (rfh.per_iteration_cost[i] <= rfh.cost * 1.0001) {
        convergence = static_cast<int>(i) + 1;
        break;
      }
    }
    run.diagnostics.add("rfh/convergence_round", convergence);
    for (std::size_t i = 0; i < rfh.per_iteration_cost.size(); ++i) {
      run.diagnostics.add("rfh/iter_cost_" + std::to_string(i), rfh.per_iteration_cost[i]);
    }
    if (ls_.has_value()) {
      LocalSearchOptions ls_options = ls_->options;
      ls_options.sink = sink;
      ls_options.progress = progress;
      const LocalSearchResult refined = refine_solution(instance, run.solution, ls_options);
      run.solution = refined.solution;
      run.cost = refined.cost;
      add_ls_diagnostics(run.diagnostics, refined);
    }
    return run;
  }

 private:
  RfhOptions options_;
  std::optional<LsConfig> ls_;
};

class IdbSolver final : public Solver {
 public:
  IdbSolver(std::string name, IdbOptions options, std::optional<LsConfig> ls)
      : Solver(std::move(name)), options_(options), ls_(ls) {}

  SolverRun solve(const Instance& instance, obs::Sink* sink,
                  obs::ProgressSink* progress) const override {
    IdbOptions options = options_;
    options.sink = sink;
    const IdbResult idb = solve_idb(instance, options);
    SolverRun run{idb.solution, idb.cost, {}};
    run.diagnostics.add("idb/rounds", idb.rounds);
    run.diagnostics.add("idb/evaluations", static_cast<double>(idb.evaluations));
    if (ls_.has_value()) {
      LocalSearchOptions ls_options = ls_->options;
      ls_options.sink = sink;
      ls_options.progress = progress;
      const LocalSearchResult refined = refine_solution(instance, run.solution, ls_options);
      run.solution = refined.solution;
      run.cost = refined.cost;
      add_ls_diagnostics(run.diagnostics, refined);
    }
    return run;
  }

 private:
  IdbOptions options_;
  std::optional<LsConfig> ls_;
};

class ExactSolver final : public Solver {
 public:
  ExactSolver(std::string name, ExactOptions options)
      : Solver(std::move(name)), options_(options) {}

  SolverRun solve(const Instance& instance, obs::Sink*,
                  obs::ProgressSink* progress) const override {
    ExactOptions options = options_;
    options.progress = progress;
    const ExactResult exact = solve_exact(instance, options);
    SolverRun run{exact.solution, exact.cost, {}};
    run.diagnostics.add("exact/evaluations", static_cast<double>(exact.evaluations));
    run.diagnostics.add("exact/pruned", static_cast<double>(exact.pruned));
    run.diagnostics.add("exact/complete", exact.complete ? 1.0 : 0.0);
    run.diagnostics.add("exact/lower_bound", exact.lower_bound);
    run.diagnostics.add("exact/subtrees", static_cast<double>(exact.subtrees));
    run.diagnostics.add("exact/steals", static_cast<double>(exact.steals));
    run.diagnostics.add("exact/shared_prunes", static_cast<double>(exact.shared_prunes));
    return run;
  }

 private:
  ExactOptions options_;
};

class BaselineSolver final : public Solver {
 public:
  enum class Kind { kBalanced, kMinHop };

  BaselineSolver(std::string name, Kind kind, bool rx_in_weight)
      : Solver(std::move(name)), kind_(kind), rx_in_weight_(rx_in_weight) {}

  SolverRun solve(const Instance& instance, obs::Sink*, obs::ProgressSink*) const override {
    const BaselineResult baseline = kind_ == Kind::kBalanced
                                        ? solve_balanced_baseline(instance, rx_in_weight_)
                                        : solve_min_hop_baseline(instance);
    return SolverRun{baseline.solution, baseline.cost, {}};
  }

 private:
  Kind kind_;
  bool rx_in_weight_;
};

RfhOptions read_rfh_options(SolverOptionReader& reader) {
  RfhOptions options;
  options.iterations = reader.get_int("iterations", options.iterations);
  options.concentrate_workload = reader.get_bool("concentrate", options.concentrate_workload);
  options.merge_siblings = reader.get_bool("merge", options.merge_siblings);
  options.rx_in_weight = reader.get_bool("rx-weight", options.rx_in_weight);
  const std::string workload = reader.get_string("workload", "energy");
  if (workload == "bits") {
    options.workload_kind = WorkloadKind::Bits;
  } else if (workload != "energy") {
    bad_spec("unknown workload '" + workload + "' (expected energy|bits)");
  }
  const std::string alloc = reader.get_string("alloc", "paper");
  if (alloc == "greedy") {
    options.allocation = AllocationRule::kGreedyExact;
  } else if (alloc != "paper") {
    bad_spec("unknown alloc '" + alloc + "' (expected paper|greedy)");
  }
  return options;
}

void register_builtins(SolverRegistry& registry) {
  registry.add("rfh",
               "Routing-First Heuristic (iterations, concentrate, merge, rx-weight, "
               "workload=energy|bits, alloc=paper|greedy)",
               [](const SolverSpec& spec) -> std::unique_ptr<Solver> {
                 SolverOptionReader reader(spec);
                 RfhOptions options = read_rfh_options(reader);
                 reader.check_all_consumed();
                 return std::make_unique<RfhSolver>(spec.canonical(), options, std::nullopt);
               });
  registry.add("rfh+ls",
               "RFH followed by move-neighborhood local search (RFH options plus "
               "ls-passes, ls-strategy=first|best)",
               [](const SolverSpec& spec) -> std::unique_ptr<Solver> {
                 SolverOptionReader reader(spec);
                 RfhOptions options = read_rfh_options(reader);
                 LsConfig ls = LsConfig::read(reader);
                 reader.check_all_consumed();
                 return std::make_unique<RfhSolver>(spec.canonical(), options, ls);
               });
  registry.add("idb",
               "Incremental Deployment-Based heuristic (delta)",
               [](const SolverSpec& spec) -> std::unique_ptr<Solver> {
                 SolverOptionReader reader(spec);
                 IdbOptions options;
                 options.delta = reader.get_int("delta", options.delta);
                 reader.check_all_consumed();
                 return std::make_unique<IdbSolver>(spec.canonical(), options, std::nullopt);
               });
  registry.add("idb+ls",
               "IDB followed by local search (delta plus ls-passes, "
               "ls-strategy=first|best)",
               [](const SolverSpec& spec) -> std::unique_ptr<Solver> {
                 SolverOptionReader reader(spec);
                 IdbOptions options;
                 options.delta = reader.get_int("delta", options.delta);
                 LsConfig ls = LsConfig::read(reader);
                 reader.check_all_consumed();
                 return std::make_unique<IdbSolver>(spec.canonical(), options, ls);
               });
  registry.add("exact",
               "Work-stealing branch-and-bound exact solver (threads, split_depth, "
               "budget [s, 0 = closed run], seed_incumbent, bnb, warm-start, "
               "max-per-post, max-evals); exponential, N <= ~12 closed",
               [](const SolverSpec& spec) -> std::unique_ptr<Solver> {
                 SolverOptionReader reader(spec);
                 ExactOptions options;
                 options.branch_and_bound = reader.get_bool("bnb", options.branch_and_bound);
                 options.warm_start = reader.get_bool("warm-start", options.warm_start);
                 // `seed_incumbent` is the documented alias for the warm
                 // start; either key works, the alias wins when both appear.
                 options.warm_start = reader.get_bool("seed_incumbent", options.warm_start);
                 options.max_per_post = reader.get_int("max-per-post", options.max_per_post);
                 options.max_evaluations = static_cast<std::uint64_t>(
                     reader.get_double("max-evals", 0.0));
                 options.threads = reader.get_int("threads", options.threads);
                 if (options.threads < 0) {
                   bad_spec("exact option 'threads' must be >= 0 (0 = all cores), got " +
                            std::to_string(options.threads));
                 }
                 options.split_depth = reader.get_int("split_depth", options.split_depth);
                 if (options.split_depth < 0) {
                   bad_spec("exact option 'split_depth' must be >= 0 (0 = auto), got " +
                            std::to_string(options.split_depth));
                 }
                 options.time_budget_s = reader.get_double("budget", options.time_budget_s);
                 if (options.time_budget_s < 0.0) {
                   bad_spec("exact option 'budget' must be >= 0 seconds (0 = closed run)");
                 }
                 reader.check_all_consumed();
                 return std::make_unique<ExactSolver>(spec.canonical(), options);
               });
  registry.add("balanced",
               "Charging-oblivious baseline: even deployment + min-energy SPT (rx-weight)",
               [](const SolverSpec& spec) -> std::unique_ptr<Solver> {
                 SolverOptionReader reader(spec);
                 const bool rx = reader.get_bool("rx-weight", true);
                 reader.check_all_consumed();
                 return std::make_unique<BaselineSolver>(spec.canonical(),
                                                         BaselineSolver::Kind::kBalanced, rx);
               });
  registry.add("minhop",
               "Charging-oblivious baseline: even deployment + minimum-hop routing",
               [](const SolverSpec& spec) -> std::unique_ptr<Solver> {
                 SolverOptionReader reader(spec);
                 reader.check_all_consumed();
                 return std::make_unique<BaselineSolver>(spec.canonical(),
                                                         BaselineSolver::Kind::kMinHop, false);
               });
}

}  // namespace

std::optional<double> SolverDiagnostics::find(std::string_view key) const noexcept {
  for (const auto& [name, value] : items) {
    if (name == key) return value;
  }
  return std::nullopt;
}

SolverSpec SolverSpec::parse(std::string_view text) {
  SolverSpec spec;
  const std::size_t colon = text.find(':');
  spec.name = std::string(text.substr(0, colon));
  if (spec.name.empty()) bad_spec("empty solver name in spec '" + std::string(text) + "'");
  if (colon == std::string_view::npos) return spec;
  std::string_view rest = text.substr(colon + 1);
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string_view item = rest.substr(0, comma);
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos || eq == 0 || eq == item.size() - 1) {
      bad_spec("bad option '" + std::string(item) + "' in solver spec '" + std::string(text) +
               "' (expected key=value)");
    }
    spec.options.emplace_back(std::string(item.substr(0, eq)), std::string(item.substr(eq + 1)));
    if (comma == std::string_view::npos) break;
    rest = rest.substr(comma + 1);
  }
  return spec;
}

std::string SolverSpec::canonical() const {
  std::string out = name;
  for (std::size_t i = 0; i < options.size(); ++i) {
    out += i == 0 ? ':' : ',';
    out += options[i].first;
    out += '=';
    out += options[i].second;
  }
  return out;
}

SolverOptionReader::SolverOptionReader(const SolverSpec& spec)
    : spec_(&spec), consumed_(spec.options.size(), false) {}

const std::string* SolverOptionReader::raw(std::string_view key) {
  for (std::size_t i = 0; i < spec_->options.size(); ++i) {
    if (spec_->options[i].first == key) {
      consumed_[i] = true;
      return &spec_->options[i].second;
    }
  }
  return nullptr;
}

int SolverOptionReader::get_int(std::string_view key, int fallback) {
  const std::string* value = raw(key);
  if (value == nullptr) return fallback;
  char* end = nullptr;
  const long parsed = std::strtol(value->c_str(), &end, 10);
  if (end != value->c_str() + value->size() || value->empty()) {
    bad_spec("option '" + std::string(key) + "' expects an integer, got '" + *value + "'");
  }
  return static_cast<int>(parsed);
}

double SolverOptionReader::get_double(std::string_view key, double fallback) {
  const std::string* value = raw(key);
  if (value == nullptr) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(value->c_str(), &end);
  if (end != value->c_str() + value->size() || value->empty()) {
    bad_spec("option '" + std::string(key) + "' expects a number, got '" + *value + "'");
  }
  return parsed;
}

bool SolverOptionReader::get_bool(std::string_view key, bool fallback) {
  const std::string* value = raw(key);
  if (value == nullptr) return fallback;
  if (*value == "1" || *value == "true" || *value == "on" || *value == "yes") return true;
  if (*value == "0" || *value == "false" || *value == "off" || *value == "no") return false;
  bad_spec("option '" + std::string(key) + "' expects a boolean, got '" + *value + "'");
}

std::string SolverOptionReader::get_string(std::string_view key, std::string fallback) {
  const std::string* value = raw(key);
  return value == nullptr ? fallback : *value;
}

void SolverOptionReader::check_all_consumed() const {
  for (std::size_t i = 0; i < consumed_.size(); ++i) {
    if (!consumed_[i]) {
      bad_spec("unknown option '" + spec_->options[i].first + "' for solver '" + spec_->name +
               "'");
    }
  }
}

SolverRegistry& SolverRegistry::global() {
  static SolverRegistry* registry = [] {
    auto* r = new SolverRegistry();
    register_builtins(*r);
    return r;
  }();
  return *registry;
}

void SolverRegistry::add(std::string name, std::string help, Factory factory) {
  if (contains(name)) bad_spec("solver '" + name + "' is already registered");
  entries_.emplace_back(std::move(name), Entry{std::move(help), std::move(factory)});
}

bool SolverRegistry::contains(std::string_view name) const {
  for (const auto& [registered, entry] : entries_) {
    if (registered == name) return true;
  }
  return false;
}

std::vector<std::string> SolverRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) out.push_back(name);
  std::sort(out.begin(), out.end());
  return out;
}

std::string SolverRegistry::help(std::string_view name) const {
  for (const auto& [registered, entry] : entries_) {
    if (registered == name) return entry.help;
  }
  return "";
}

std::unique_ptr<Solver> SolverRegistry::create(std::string_view spec_text) const {
  return create(SolverSpec::parse(spec_text));
}

std::unique_ptr<Solver> SolverRegistry::create(const SolverSpec& spec) const {
  for (const auto& [name, entry] : entries_) {
    if (name == spec.name) return entry.factory(spec);
  }
  std::string known;
  for (const std::string& name : names()) {
    if (!known.empty()) known += ", ";
    known += name;
  }
  bad_spec("unknown solver '" + spec.name + "' (registered: " + known + ")");
}

}  // namespace wrsn::core
