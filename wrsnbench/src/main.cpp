// wrsnbench: runs one workload of the repository benchmark and prints its
// result as one JSON object (run.py turns it into the result line).
//
//   wrsnbench <paper-sweep|sparse-field|service-mix> --seed N --seconds S
//             --trace 0|1 --out DIR
//   wrsnbench selftest
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <sys/resource.h>

#include "bench.hpp"

namespace wrsnbench {

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  if (q == 0.5) {
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
  }
  const std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

namespace {

std::string escape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: wrsnbench <paper-sweep|sparse-field|service-mix> --seed N --seconds S "
               "--trace 0|1 --out DIR [--spawned T]\n       wrsnbench selftest\n");
  return 2;
}

}  // namespace

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "{\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,\"parent\":%d,\"id\":%lld}%s\n",
                 escape(s.name).c_str(), s.start, s.end, s.parent, static_cast<long long>(s.id),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

}  // namespace wrsnbench

int main(int argc, char** argv) {
  using namespace wrsnbench;
  if (argc >= 2 && std::strcmp(argv[1], "selftest") == 0) {
    const std::vector<std::string> accepted = selftest();
    for (const std::string& name : accepted) std::printf("check accepted a corrupted output: %s\n", name.c_str());
    std::printf("selftest %s\n", accepted.empty() ? "ok" : "FAILED");
    return accepted.empty() ? 0 : 1;
  }
  if (argc < 2) return usage();
  Context ctx;
  ctx.workload = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--seed") ctx.seed = std::strtoull(value, nullptr, 10);
    else if (key == "--seconds") ctx.seconds = std::atof(value);
    else if (key == "--trace") ctx.trace = std::atoi(value) != 0;
    else if (key == "--out") ctx.out_dir = value;
    else if (key == "--spawned") ctx.spawned = std::atof(value);
    else return usage();
  }
  StageSize sweep, sparse, service;
  if (ctx.workload == "paper-sweep") sweep = {0.8, true};
  else if (ctx.workload == "sparse-field") sparse = {0.8, true};
  else if (ctx.workload == "service-mix") service = {0.8, true};
  else return usage();
  if (ctx.out_dir.empty() || ctx.seconds <= 0.0) return usage();

  const double started = now_s();
  if (ctx.spawned <= 0.0 || ctx.spawned > started) ctx.spawned = started;
  ctx.tracer.enabled = ctx.trace;  // set-up spans; rounds set it per round
  try {
    const std::shared_ptr<SweepStage> sweep_stage = setup_sweep(ctx, sweep);
    const std::shared_ptr<SparseStage> sparse_stage = setup_sparse(ctx, sparse);
    std::shared_ptr<ServiceStage> service_stage = setup_service(ctx, service);
    const double setup_done = now_s();

    run_sweep(ctx, *sweep_stage, sweep.share * ctx.seconds);
    run_sparse(ctx, *sparse_stage, sparse.share * ctx.seconds);
    run_service(ctx, *service_stage, service.share * ctx.seconds);

    // One cold set-up per process, from spawn to the first measured round,
    // scaled by the run's pooled reference time.
    service_stage.reset();
    const double setup = setup_done - ctx.spawned;
    const double ref = median(ctx.ref_samples);
    ctx.metric("setup_s", setup * RefClock::scale_for(ref, elasticity::kSetup), "s");
    ctx.metric("host.setup_raw_s", setup, "s");
    ctx.metric("host.ref_s", ref, "s");

    // Summed cost of the heuristic plans of the sweep and sparse stages:
    // deterministic per seed, so a faster but worse solver shows.
    ctx.metric("cost_uj_per_bit",
               ctx.metrics.at("cost.sweep_uj_per_bit").first + ctx.metrics.at("cost.sparse_uj_per_bit").first,
               "uJ/bit");
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    ctx.metric("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB");
    if (ctx.trace) {
      const char* overhead = sweep.full ? "obs.sweep_trace_overhead"
                             : sparse.full ? "obs.sparse_trace_overhead"
                                           : "obs.service_trace_overhead";
      ctx.metric("obs.trace_overhead", ctx.metrics.at(overhead).first, "ratio");
      const std::string path = ctx.out_dir + "/spans-" + ctx.workload + ".json";
      if (!ctx.tracer.write(path)) ctx.fail("trace", "cannot write " + path);
      ctx.metric("obs.spans", static_cast<double>(ctx.tracer.spans().size()), "count");
    }

    std::printf("{\"setup_done\": %.9f, \"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"failures\": [",
                setup_done, ctx.failures.empty() ? "true" : "false",
                static_cast<long long>(ctx.attempted), static_cast<long long>(ctx.failed));
    for (std::size_t i = 0; i < ctx.failures.size(); ++i) {
      std::printf("%s\"%s\"", i ? ", " : "", escape(ctx.failures[i]).c_str());
    }
    std::printf("], \"metrics\": {");
    bool first = true;
    for (const auto& [name, value] : ctx.metrics) {
      std::printf("%s\"%s\": [%.17g, \"%s\"]", first ? "" : ", ", name.c_str(), value.first,
                  value.second.c_str());
      first = false;
    }
    std::printf("}}\n");
  } catch (const std::exception& error) {
    std::fprintf(stderr, "wrsnbench: %s\n", error.what());
    return 1;
  }
  return 0;
}
