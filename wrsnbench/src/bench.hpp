// Shared plumbing of the benchmark program: the run context, the span
// tracer, metric collection, and the three stages every workload runs.
//
// A workload is a weighting of three stages -- an exp sweep with charger
// co-simulation, a sparse RFH solve, and a planning-service client -- so
// that every run measures every end-to-end metric.  The workload's own
// stage runs at full size and gets most of the run time; the other two run
// at a small fixed size (README.md, "Workloads").
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "clock.hpp"
#include "refclock.hpp"

namespace wrsn::core {}
namespace wrsn::energy {}
namespace wrsn::exp {}
namespace wrsn::geom {}
namespace wrsn::io {}
namespace wrsn::obs {}
namespace wrsn::sim {}
namespace wrsn::svc {}
namespace wrsn::util {}

namespace wrsnbench {

namespace core = wrsn::core;
namespace energy = wrsn::energy;
namespace exp = wrsn::exp;
namespace geom = wrsn::geom;
namespace io = wrsn::io;
namespace obs = wrsn::obs;
namespace sim = wrsn::sim;
namespace svc = wrsn::svc;
namespace util = wrsn::util;

/// One recorded span: a call from the benchmark into a layer of the program.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;       ///< index of the enclosing span, -1 at top level
  std::int64_t id = -1;  ///< trial, plan or request id
};

/// In-memory span recorder; written out once, at exit.  Disabled rounds
/// record nothing, so untraced rounds pay one branch per call.
class Tracer {
 public:
  bool enabled = false;

  int open(const std::string& name, std::int64_t id) {
    if (!enabled) return -1;
    spans_.push_back({name, now_s(), 0.0, stack_.empty() ? -1 : stack_.back(), id});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int index) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end = now_s();
    stack_.pop_back();
  }
  /// A span whose interval the benchmark learnt from the program after the
  /// fact (the runner's per-trial record): closed at once.
  void record(const std::string& name, double start, double end, std::int64_t id) {
    if (!enabled) return;
    spans_.push_back({name, start, end, stack_.empty() ? -1 : stack_.back(), id});
  }
  const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Writes every span as a JSON array; returns false when unwritable.
  bool write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class Scope {
 public:
  Scope(Tracer& tracer, const std::string& name, std::int64_t id = -1)
      : tracer_(tracer), index_(tracer.open(name, id)) {}
  ~Scope() { tracer_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

/// Elasticity of each timed quantity against the reference kernel: how many
/// times the log of its time moves with the log of the reference's, chosen
/// as the value that minimised the spread of same-seed rounds over runs that
/// met both host states (README.md, "Host drift").
namespace elasticity {
inline constexpr double kSweep = 1.5;
inline constexpr double kSim = 2.0;
inline constexpr double kSparse = 1.0;
inline constexpr double kService = 1.0;
inline constexpr double kSetup = 1.0;
}  // namespace elasticity

/// Median of a sample (0 when empty).
double median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 1] (0 when empty).
double percentile(std::vector<double> values, double q);

/// How large each stage runs, and what share of the run time it gets.
struct StageSize {
  double share = 0.1;  ///< fraction of --seconds spent in this stage
  bool full = false;    ///< the workload's own stage, at full size
};

struct Context {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;
  double spawned = 0.0;  ///< when run.py started this process (CLOCK_MONOTONIC)
  Tracer tracer;
  /// name -> (value, unit); end-to-end and per-layer names share the map.
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::vector<std::string> failures;  ///< check violations
  std::int64_t attempted = 0;         ///< operations run in measured rounds
  std::int64_t failed = 0;
  std::vector<double> ref_samples;  ///< every stage's reference samples

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void fail(const std::string& what, const std::string& reason) {
    if (!reason.empty()) failures.push_back(what + ": " + reason);
  }
  /// Traced runs alternate untraced and traced rounds so that the tracing
  /// overhead is measured in the same process and time window.
  bool traced_round(int round) const { return trace && round % 2 == 1; }
};

/// Runs a stage's rounds until `budget_s` has passed (and at least
/// `min_rounds`, twice that in traced runs), sampling `ref` between rounds
/// (stages may sample it inside a round too, outside their timed spans).
/// `round(index)` does one round.  Returns, per round, the median of the
/// reference samples around and inside it: the host's speed during it.
template <typename Fn>
std::vector<double> run_rounds(Context& ctx, RefClock& ref, double budget_s, int min_rounds,
                               Fn round) {
  const double start = now_s();
  const int needed = ctx.trace ? 2 * min_rounds : min_rounds;
  std::vector<double> local;
  ref.sample();
  for (int r = 0; r < needed || now_s() - start < budget_s; ++r) {
    const std::size_t first = ref.count() - 1;
    round(r);
    ref.sample();
    local.push_back(median(std::vector<double>(ref.samples().begin() + static_cast<std::ptrdiff_t>(first),
                                               ref.samples().end())));
  }
  ctx.ref_samples.insert(ctx.ref_samples.end(), ref.samples().begin(), ref.samples().end());
  return local;
}

/// Median over the untraced rounds of raw[r], each scaled by its own
/// round's reference time (`scaled`) or as measured (`!scaled`).
inline double round_median(const Context& ctx, const std::vector<double>& raw,
                           const std::vector<double>& local, double elasticity, bool scaled) {
  std::vector<double> values;
  for (std::size_t r = 0; r < raw.size() && r < local.size(); ++r) {
    if (ctx.traced_round(static_cast<int>(r))) continue;
    values.push_back(scaled ? raw[r] * RefClock::scale_for(local[r], elasticity) : raw[r]);
  }
  return median(values);
}

/// Median over the untraced rounds of per-round values.
inline double untraced_median(const Context& ctx, const std::vector<double>& values) {
  std::vector<double> untraced;
  for (std::size_t r = 0; r < values.size(); ++r) {
    if (!ctx.traced_round(static_cast<int>(r))) untraced.push_back(values[r]);
  }
  return median(untraced);
}

/// Tracing overhead from alternate rounds: the median traced round over the
/// median untraced one, each round first divided by its own reference time
/// so that drift between rounds cancels.  `seconds[r]` is round r's time.
inline double trace_overhead(const std::vector<double>& seconds, const std::vector<double>& local) {
  std::vector<double> traced, untraced;
  for (std::size_t r = 0; r < seconds.size() && r < local.size(); ++r) {
    (r % 2 == 1 ? traced : untraced).push_back(seconds[r] / local[r]);
  }
  return median(traced) / median(untraced);
}

/// Per-stage set-up (inputs, instances, server) and measured rounds.  Each
/// `setup_*` runs before the clock of the measured phase starts.
struct SweepStage;
struct SparseStage;
struct ServiceStage;
std::shared_ptr<SweepStage> setup_sweep(Context& ctx, const StageSize& size);
void run_sweep(Context& ctx, SweepStage& stage, double budget_s);
std::shared_ptr<SparseStage> setup_sparse(Context& ctx, const StageSize& size);
void run_sparse(Context& ctx, SparseStage& stage, double budget_s);
/// Starts the server and connects the client; the server stops when the
/// returned stage is destroyed.
std::shared_ptr<ServiceStage> setup_service(Context& ctx, const StageSize& size);
void run_service(Context& ctx, ServiceStage& stage, double budget_s);

/// Feeds every check a corrupted output; returns the checks that accepted
/// one (empty = every check can fail).
std::vector<std::string> selftest();

}  // namespace wrsnbench
