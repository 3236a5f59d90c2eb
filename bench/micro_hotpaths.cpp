// Microbenchmarks for the solver hot paths (Google Benchmark).
//
// Measures the layers of one deployment pricing separately -- edge-cost
// lookup, single-sink Dijkstra, whole-deployment pricing, candidate-move
// pricing, local search.  docs/performance.md interprets the numbers;
// scripts/perf_baseline.sh refreshes BENCH_hotpaths.json.
//
// Flags (before the --benchmark_* ones): --seed, --scale=default|paper
// (paper doubles the pricing field to 200 posts), --runs=<n> as shorthand
// for --benchmark_repetitions.
#include <benchmark/benchmark.h>

#include <sys/resource.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/cost.hpp"
#include "core/local_search.hpp"
#include "core/pricer.hpp"
#include "core/rfh.hpp"
#include "graph/dijkstra.hpp"
#include "obs/build_info.hpp"
#include "obs/metrics.hpp"
#include "util/arena.hpp"

namespace {

using namespace wrsn;

std::int64_t g_seed = 42;
int g_posts = 100;

// --- Fixtures --------------------------------------------------------------

// Density matched to the repo's test fields (~14 posts on a 160 m square).
double side_for(int posts) { return 160.0 * std::sqrt(static_cast<double>(posts) / 14.0); }

const core::Instance& pricing_instance() {
  static const core::Instance inst = [] {
    util::Rng rng(static_cast<std::uint64_t>(g_seed));
    return bench::make_paper_instance(g_posts, 3 * g_posts, side_for(g_posts), 3, rng);
  }();
  return inst;
}

const std::vector<int>& pricing_deployment() {
  static const std::vector<int> deployment(
      static_cast<std::size_t>(pricing_instance().num_posts()), 3);
  return deployment;
}

// Per-size instances for the move-pricing scaling benchmarks (N = 50/100/300
// via ->Arg), cached so repetitions reuse one field.
const core::Instance& move_instance(int posts) {
  static std::map<int, core::Instance> cache;
  auto it = cache.find(posts);
  if (it == cache.end()) {
    util::Rng rng(static_cast<std::uint64_t>(g_seed) + static_cast<std::uint64_t>(posts));
    it = cache
             .emplace(posts,
                      bench::make_paper_instance(posts, 3 * posts, side_for(posts), 3, rng))
             .first;
  }
  return it->second;
}

// Deterministic candidate-move sequence over a deployment of 3 nodes per
// post: every donor always has spares, and the (a, b) pairs sweep varied
// distances so both pricing paths see representative repairs.
struct MoveSequence {
  int n;
  std::size_t i = 0;
  std::pair<int, int> next() {
    const int a = static_cast<int>(i % static_cast<std::size_t>(n));
    const int off = 1 + static_cast<int>(i % static_cast<std::size_t>(n - 1));
    ++i;
    return {a, (a + off) % n};
  }
};

// Smaller field for the end-to-end local-search runs (a single refine prices
// thousands of deployments).
const core::Instance& ls_instance() {
  static const core::Instance inst = [] {
    util::Rng rng(static_cast<std::uint64_t>(g_seed) + 1);
    return bench::make_paper_instance(30, 90, side_for(30), 3, rng);
  }();
  return inst;
}

const core::Solution& ls_start() {
  static const core::Solution start = core::solve_rfh(ls_instance()).solution;
  return start;
}

// --- Sparse-scale fixtures -------------------------------------------------

// Process-wide resident-set high-water mark.  Monotonic across the whole
// run, so only the largest benchmark's row is a tight bound; smaller rows
// report "peak so far".  Linux reports ru_maxrss in kilobytes.
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// Deterministic square grid, 40 m spacing, three 25 m power levels: every
// post reaches its <= 75 m neighbors (degree ~8 in the interior).  Columns
// are chosen so the post count lands at ~N (cols^2 minus the post that
// coincides with the base-station corner).  Storage is pinned to sparse so
// the N=1000 row measures the same CSR builder as the larger ones (1023
// posts would otherwise sit just under kAutoSparseThreshold and take the
// dense path).
core::Instance make_sparse_instance(int posts) {
  const int cols = static_cast<int>(std::lround(std::sqrt(static_cast<double>(posts) + 1.0)));
  const double side = 40.0 * (cols - 1);
  const geom::Field field = geom::grid_field(side, side, cols, cols);
  const auto radio = energy::RadioModel::uniform_levels(3, 25.0);
  auto graph = graph::ReachGraph::from_field(field, radio, graph::ReachGraph::Storage::kSparse);
  const int n = graph.num_posts();
  return core::Instance::abstract(std::move(graph), radio, energy::ChargingModel::linear(0.01),
                                  2 * n);
}

const core::Instance& sparse_instance(int posts) {
  static std::map<int, core::Instance> cache;
  auto it = cache.find(posts);
  if (it == cache.end()) it = cache.emplace(posts, make_sparse_instance(posts)).first;
  return it->second;
}

// --- Benchmarks ------------------------------------------------------------

void BM_edge_cost_cached(benchmark::State& state) {
  const auto& inst = pricing_instance();
  const auto& adj = inst.adjacency();
  const int n = inst.graph().num_vertices();
  for (auto _ : state) {
    double sum = 0.0;
    for (int v = 0; v < n; ++v) {
      const double* row = inst.tx_cost_row(v);
      for (int u : adj.out(v)) sum += row[u];
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_edge_cost_cached);

void BM_dijkstra_heap(benchmark::State& state) {
  const auto& inst = pricing_instance();
  const core::RechargingWeight weight(inst, pricing_deployment());
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::shortest_paths_to_base(
        inst.graph(), inst.adjacency(), weight, 1e-9, graph::DijkstraVariant::kHeap));
  }
}
BENCHMARK(BM_dijkstra_heap);

// Whole-deployment pricing on the production path (kAuto: the bucket queue,
// since the recharging weight advertises bounds()).
void BM_price_deployment_cached(benchmark::State& state) {
  const auto& inst = pricing_instance();
  core::CostEvalScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimal_cost_for_deployment(inst, pricing_deployment(), scratch));
  }
}
BENCHMARK(BM_price_deployment_cached);

// Candidate-move pricing, the local-search inner loop: one fresh Dijkstra
// per move ...
void BM_move_price_full(benchmark::State& state) {
  const auto& inst = move_instance(static_cast<int>(state.range(0)));
  const int n = inst.num_posts();
  std::vector<int> deployment(static_cast<std::size_t>(n), 3);
  core::CostEvalScratch scratch;
  MoveSequence moves{n};
  for (auto _ : state) {
    const auto [a, b] = moves.next();
    --deployment[static_cast<std::size_t>(a)];
    ++deployment[static_cast<std::size_t>(b)];
    benchmark::DoNotOptimize(optimal_cost_for_deployment(inst, deployment, scratch));
    ++deployment[static_cast<std::size_t>(a)];
    --deployment[static_cast<std::size_t>(b)];
  }
}
BENCHMARK(BM_move_price_full)->Arg(50)->Arg(100)->Arg(300);

// ... vs dynamic shortest-path repair (core::DeploymentPricer).  The same
// move sequence; `region` reports the average repaired-subtree size drawn
// from the pricer/repair_region_size histogram.
void BM_move_price_incremental(benchmark::State& state) {
  const auto& inst = move_instance(static_cast<int>(state.range(0)));
  const int n = inst.num_posts();
  const core::DeploymentPricer pricer(inst, std::vector<int>(static_cast<std::size_t>(n), 3));
  MoveSequence moves{n};
  auto& regions = obs::Registry::global().histogram("pricer/repair_region_size");
  const std::uint64_t count0 = regions.count();
  const double sum0 = regions.sum();
  for (auto _ : state) {
    const auto [a, b] = moves.next();
    benchmark::DoNotOptimize(pricer.cost_with_moved_node(a, b));
  }
  const std::uint64_t repairs = regions.count() - count0;
  state.counters["region"] =
      repairs > 0 ? (regions.sum() - sum0) / static_cast<double>(repairs) : 0.0;
}
BENCHMARK(BM_move_price_incremental)->Arg(50)->Arg(100)->Arg(300);

// Sparse-core scaling rows, N in {1e3, 1e4, 1e5} posts.  These are
// *trajectory* rows: scripts/bench_check.py --track '^BM_sparse_' reports
// their drift without gating on it (absolute times at 1e5 are machine- and
// cache-bound), while the dense-storage rows above stay the hard
// regression gate.
// A dense (N+1)^2 matrix at 1e5 posts would be ~80 GB, so these rows only
// exist at all because of the CSR adjacency + grid-indexed builder.
void BM_sparse_instance_build(benchmark::State& state) {
  const int posts = static_cast<int>(state.range(0));
  double adj_bytes = 0.0;
  double built_posts = 0.0;
  for (auto _ : state) {
    const core::Instance inst = make_sparse_instance(posts);
    adj_bytes = static_cast<double>(inst.adjacency().bytes());
    built_posts = static_cast<double>(inst.num_posts());
    benchmark::DoNotOptimize(&inst);
  }
  state.counters["posts"] = built_posts;
  state.counters["adj_mb"] = adj_bytes / (1024.0 * 1024.0);
  state.counters["peak_rss_mb"] = peak_rss_mb();
}
BENCHMARK(BM_sparse_instance_build)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

// Whole-deployment pricing (one charging-aware Dijkstra + cost fold) on the
// sparse path; kAuto resolves to the bucket queue because the packed
// adjacency carries weight bounds.
void BM_sparse_price_deployment(benchmark::State& state) {
  const auto& inst = sparse_instance(static_cast<int>(state.range(0)));
  const std::vector<int> deployment(static_cast<std::size_t>(inst.num_posts()), 2);
  util::BumpArena arena;
  core::CostEvalScratch scratch(arena);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::optimal_cost_for_deployment(inst, deployment, scratch));
  }
  state.counters["peak_rss_mb"] = peak_rss_mb();
}
BENCHMARK(BM_sparse_price_deployment)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void run_local_search(benchmark::State& state, core::LocalSearchStrategy strategy) {
  const auto& inst = ls_instance();
  const auto& start = ls_start();
  core::LocalSearchOptions options;
  options.strategy = strategy;
  std::uint64_t evaluations = 0;
  double cost = 0.0;
  for (auto _ : state) {
    const auto result = core::refine_solution(inst, start, options);
    evaluations = result.evaluations;
    cost = result.cost;
    benchmark::DoNotOptimize(result.cost);
  }
  state.counters["evals"] = static_cast<double>(evaluations);
  state.counters["cost_uj"] = cost * 1e6;
}

void BM_local_search_serial(benchmark::State& state) {
  run_local_search(state, core::LocalSearchStrategy::kFirstImprovement);
}
BENCHMARK(BM_local_search_serial)->Unit(benchmark::kMillisecond);

void BM_local_search_best_improvement(benchmark::State& state) {
  run_local_search(state, core::LocalSearchStrategy::kBestImprovement);
}
BENCHMARK(BM_local_search_best_improvement)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // Our flags first (unknown --benchmark_* ones pass through untouched)...
  const auto args = bench::BenchArgs::parse(argc, argv);
  g_seed = args.seed;
  g_posts = args.paper_scale() ? 200 : 100;
  // ... then Google Benchmark's, with --runs mapped onto repetitions.
  std::vector<char*> bench_argv(argv, argv + argc);
  std::string repetitions;
  if (args.runs > 0) {
    repetitions = "--benchmark_repetitions=" + std::to_string(args.runs);
    bench_argv.push_back(repetitions.data());
  }
  // The JSON context's "library_build_type" reports how the *benchmark
  // library* was compiled (distro packages often ship it as debug), not this
  // binary.  Publish our own compile mode so scripts/perf_baseline.sh can
  // refuse to record a baseline from an unoptimized build, plus the git SHA
  // so BENCH_hotpaths.json says which revision it measured
  // (scripts/bench_check.py surfaces both when flagging a regression).
  benchmark::AddCustomContext("wrsn_build_type", wrsn::obs::build_info().build_type);
  benchmark::AddCustomContext("wrsn_git_sha", wrsn::obs::build_info().git_sha);
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
