// Stage 2: one RFH solve on a sparse field at the CI sparse-smoke density
// (10^4 posts per 3000 m x 3000 m, 25 m range step, 3 levels, 3 nodes per
// post), repeated on the same instance.  Above 1024 posts the program takes
// its sparse path: grid index, CSR ReachGraph and bucket Dijkstra.
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "core/instance.hpp"
#include "core/solver.hpp"
#include "energy/charging_model.hpp"
#include "energy/radio_model.hpp"
#include "geom/field.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace wrsnbench {

namespace {

constexpr double kSquareMetresPerPost = 3000.0 * 3000.0 / 10000.0;
constexpr double kRangeStep = 25.0;
constexpr int kLevels = 3;
constexpr int kNodesPerPost = 3;
constexpr double kEta = 0.01;

double span_seconds(const std::vector<obs::TraceEvent>& events, const char* name) {
  double total = 0.0;
  for (const obs::TraceEvent& e : events) {
    if (e.name == name) total += static_cast<double>(e.dur_ns) * 1e-9;
  }
  return total;
}

}  // namespace

struct SparseStage {
  std::unique_ptr<core::Instance> instance;
  Geometry geometry;
  std::unique_ptr<core::Solver> solver;
  RefClock ref;
  double field_s = 0.0, build_s = 0.0;
  std::vector<double> round_s;  ///< every solve, traced or not
  double cost = 0.0;
  int traced = 0;
  double phase[4] = {0, 0, 0, 0};
  double iterations = 0, closure_rebuilds = 0;
};

std::shared_ptr<SparseStage> setup_sparse(Context& ctx, const StageSize& size) {
  auto stage = std::make_shared<SparseStage>();
  const int posts = size.full ? 3000 : 1100;
  geom::FieldConfig config;
  config.width = config.height = std::sqrt(kSquareMetresPerPost * posts);
  config.num_posts = posts;
  const energy::RadioModel radio = energy::RadioModel::uniform_levels(kLevels, kRangeStep);

  geom::Field field;
  {
    Scope span(ctx.tracer, "geom.generate_field");
    const double start = now_s();
    util::Rng rng(ctx.seed * 104729 + 11);
    field = geom::generate_field(config, rng);
    while (!geom::is_connected(field, radio.max_range())) field = geom::generate_field(config, rng);
    stage->field_s = now_s() - start;
  }
  for (const geom::Point& p : field.posts) {
    stage->geometry.x.push_back(p.x);
    stage->geometry.y.push_back(p.y);
  }
  stage->geometry.bs_x = field.base_station.x;
  stage->geometry.bs_y = field.base_station.y;
  stage->geometry.range_step = kRangeStep;
  stage->geometry.levels = kLevels;
  stage->geometry.eta = kEta;
  stage->geometry.nodes = kNodesPerPost * posts;
  {
    Scope span(ctx.tracer, "core.instance_geometric");
    const double start = now_s();
    stage->instance = std::make_unique<core::Instance>(core::Instance::geometric(
        std::move(field), radio, energy::ChargingModel::linear(kEta), kNodesPerPost * posts));
    stage->build_s = now_s() - start;
  }
  stage->solver = core::SolverRegistry::global().create("rfh");
  return stage;
}

void run_sparse(Context& ctx, SparseStage& stage, double budget_s) {
  obs::MetricsSink sink;
  obs::TraceBuffer& buffer = obs::TraceBuffer::global();
  obs::Registry& registry = obs::Registry::global();
  const std::vector<double> local = run_rounds(ctx, stage.ref, budget_s, 2, [&](int round) {
    const bool traced = ctx.traced_round(round);
    ctx.tracer.enabled = traced;
    buffer.set_enabled(traced);
    buffer.clear();
    const std::uint64_t iterations = registry.counter("rfh/iterations").value();
    const std::uint64_t rebuilds = registry.counter("rfh/closure_rebuilds").value();

    core::SolverRun run = [&] {
      Scope span(ctx.tracer, "core.solve.rfh", round);
      const double start = now_s();
      core::SolverRun solved = stage.solver->solve(*stage.instance, traced ? &sink : nullptr);
      stage.round_s.push_back(now_s() - start);
      return solved;
    }();
    ++ctx.attempted;

    if (round == 0) {
      Plan plan;
      plan.cost = run.cost;
      plan.deployment = run.solution.deployment;
      for (int p = 0; p < stage.geometry.posts(); ++p) plan.parent.push_back(run.solution.tree.parent(p));
      ctx.fail("sparse rfh", check_plan(stage.geometry, plan));
      stage.cost = run.cost;
    } else if (run.cost != stage.cost) {
      ctx.fail("sparse rfh", "round " + std::to_string(round) + " produced another plan than round 0");
    }

    if (traced) {
      const std::vector<obs::TraceEvent> events = buffer.events();
      const char* names[4] = {"rfh/phase1", "rfh/phase2", "rfh/phase3", "rfh/phase4"};
      for (int i = 0; i < 4; ++i) stage.phase[i] += span_seconds(events, names[i]);
      stage.iterations += static_cast<double>(registry.counter("rfh/iterations").value() - iterations);
      stage.closure_rebuilds +=
          static_cast<double>(registry.counter("rfh/closure_rebuilds").value() - rebuilds);
      ++stage.traced;
    }
  });
  ctx.tracer.enabled = false;
  buffer.set_enabled(false);
  buffer.clear();

  ctx.metric("solve_s", round_median(ctx, stage.round_s, local, elasticity::kSparse, true), "s");
  ctx.metric("host.solve_raw_s", round_median(ctx, stage.round_s, local, elasticity::kSparse, false), "s");
  ctx.metric("host.sparse_ref_s", stage.ref.median(), "s");
  ctx.metric("geom.field_s", stage.field_s, "s");
  ctx.metric("graph.build_s", stage.build_s, "s");
  ctx.metric("cost.sparse_uj_per_bit", stage.cost * 1e6, "uJ/bit");
  if (ctx.trace) {
    const double n = std::max(1, stage.traced);
    for (int i = 0; i < 4; ++i) {
      ctx.metric("core.rfh.phase" + std::to_string(i + 1) + "_s", stage.phase[i] / n, "s");
    }
    ctx.metric("core.rfh.iterations", stage.iterations / n, "count");
    ctx.metric("core.rfh.closure_rebuilds", stage.closure_rebuilds / n, "count");
    ctx.metric("obs.sparse_trace_overhead", trace_overhead(stage.round_s, local), "ratio");
  }
}

}  // namespace wrsnbench
