// Stage 3: an in-process svc::Server on a unix socket, driven in a closed
// loop by one svc::Client.  Each round sends the same seeded sequence:
// warm `plan` requests on resident scenarios, one cold `plan` on a fresh
// seed, and `evaluate` batches of single-node moves with far jumps.
//
// Threads: the client (this thread), the connection's reader and one
// worker are the three that run; the accept thread sleeps in accept().
#include <cmath>
#include <memory>
#include <string>
#include <unistd.h>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "core/pricer.hpp"
#include "obs/trace.hpp"
#include "svc/client.hpp"
#include "svc/frame.hpp"
#include "svc/planner.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "util/rng.hpp"

namespace wrsnbench {

namespace {

constexpr const char* kSolver = "rfh";

enum Kind { kWarm = 0, kCold = 1, kEvaluate = 2 };
const char* const kKindNames[3] = {"plan_warm", "plan_cold", "evaluate"};

struct Resident {
  svc::Scenario scenario;
  std::unique_ptr<core::Instance> instance;
  Geometry geometry;
  std::string cold_reply;  ///< the first (cold) reply, cache field blanked
  double cost = 0.0;
  /// One evaluate batch: deployments plus the number of single-node moves.
  std::vector<std::vector<int>> batch;
  std::int64_t single_moves = 0;
  std::vector<double> batch_costs;  ///< round 0's replies, later rounds repeat them
};

io::Json scenario_json(const svc::Scenario& s) { return s.to_canonical_json(); }

io::Json plan_params(const svc::Scenario& s) {
  io::Json params = io::Json::object();
  params.set("scenario", scenario_json(s));
  params.set("solver", io::Json(kSolver));
  return params;
}

io::Json evaluate_params(const Resident& r) {
  io::Json params = io::Json::object();
  params.set("scenario", scenario_json(r.scenario));
  io::Json deployments = io::Json::array();
  for (const std::vector<int>& d : r.batch) {
    io::Json entry = io::Json::array();
    for (int m : d) entry.push_back(io::Json(m));
    deployments.push_back(std::move(entry));
  }
  params.set("deployments", std::move(deployments));
  return params;
}

/// Reply result with the cache field blanked, as bytes.
std::string blanked(const io::Json& result) {
  io::Json copy = result;
  copy.set("cache", io::Json(""));
  return copy.dump();
}

std::vector<int> random_deployment(int posts, int nodes, util::Rng& rng) {
  std::vector<int> d(static_cast<std::size_t>(posts), 1);
  for (int i = posts; i < nodes; ++i) d[static_cast<std::size_t>(rng.uniform_int(0, posts - 1))] += 1;
  return d;
}

int differing_posts(const std::vector<int>& a, const std::vector<int>& b) {
  int n = 0;
  for (std::size_t i = 0; i < a.size(); ++i) n += a[i] != b[i] ? 1 : 0;
  return n;
}

/// A far jump: a fresh random deployment at least 4 posts away from `from`
/// (any deployment when `from` is empty).
std::vector<int> far_jump(const std::vector<int>& from, int posts, int nodes, util::Rng& rng) {
  for (;;) {
    std::vector<int> d = random_deployment(posts, nodes, rng);
    if (from.empty() || differing_posts(d, from) >= 4) return d;
  }
}

}  // namespace

struct ServiceStage {
  ~ServiceStage();
  std::string socket_path;
  std::unique_ptr<svc::Server> server;
  svc::Client client;
  std::vector<Resident> residents;
  std::uint64_t cold_seed = 0;
  int evaluate_batch = 0;
  /// Rounds per second of budget.  The stage runs a fixed number of rounds
  /// rather than until a deadline: every rebuilt `evaluate` grows the
  /// server's memory (CHANGES.md), so a deadline would tie peak RSS to host
  /// speed.  Sized to fill the budget on the README's host.
  double rounds_per_second = 0.0;
  RefClock ref;
  // Untraced latencies (seconds) by kind, and the traced ones.
  std::vector<double> latency[3], traced_latency[3];
  std::vector<std::size_t> latency_round[3];  ///< the round of each untraced latency
  std::vector<double> round_s;  ///< every round's summed request latency
  double service_cost = 0.0;
  // Traced replays of the server's stages on the same inputs (seconds).
  std::vector<double> encode_s, decode_s, parse_s, session_build_s, run_plan_s, render_s, price_s;
  std::vector<double> eval_parse_s, eval_codec_s, eval_price_s;  ///< per evaluate request
  std::int64_t incremental = 0, rebuilt = 0, rounds = 0;
  svc::CacheStats cache_start{};
};

std::shared_ptr<ServiceStage> setup_service(Context& ctx, const StageSize& size) {
  auto stage = std::make_shared<ServiceStage>();
  stage->socket_path = ctx.out_dir + "/svc-" + std::to_string(::getpid()) + ".sock";
  svc::ServerOptions options;
  options.unix_path = stage->socket_path;
  options.workers = 1;
  options.cache_capacity = 8;
  stage->server = std::make_unique<svc::Server>(options);
  stage->server->start();
  stage->client = svc::Client::connect_unix(stage->socket_path);

  // Resident scenarios and their evaluate batches, all from the seed.  A
  // warm plan's time depends on its scenario's field, so the residents are
  // enough for their median to average the seed out; with the cold
  // scenario they fit the cache of 8.
  const int residents = 6;
  const int posts = size.full ? 100 : 60;
  stage->evaluate_batch = size.full ? 40 : 20;
  stage->rounds_per_second = size.full ? 17.5 : 35.0;
  util::Rng rng(ctx.seed * 15485863 + 3);
  for (int i = 0; i < residents; ++i) {
    Resident r;
    r.scenario.posts = posts;
    r.scenario.nodes = 3 * posts;
    r.scenario.side = 25.0 * std::sqrt(static_cast<double>(posts)) * 1.6;
    r.scenario.seed = static_cast<std::int64_t>(ctx.seed * 1000 + static_cast<std::uint64_t>(i));
    r.instance = std::make_unique<core::Instance>(svc::build_instance(r.scenario));
    const geom::Field& field = *r.instance->field();
    for (const geom::Point& p : field.posts) {
      r.geometry.x.push_back(p.x);
      r.geometry.y.push_back(p.y);
    }
    r.geometry.bs_x = field.base_station.x;
    r.geometry.bs_y = field.base_station.y;
    r.geometry.range_step = r.scenario.range_step;
    r.geometry.levels = r.scenario.levels;
    r.geometry.eta = r.scenario.eta;
    r.geometry.nodes = r.scenario.nodes;

    // The batch repeats every round, so its first entry must also be a far
    // jump from its last: every round then prices the same way.
    do {
      r.batch.clear();
      r.single_moves = 0;
      std::vector<int> current = far_jump({}, posts, r.scenario.nodes, rng);
      r.batch.push_back(current);
      for (int k = 1; k < stage->evaluate_batch; ++k) {
        if (k == stage->evaluate_batch / 2) {
          current = far_jump(current, posts, r.scenario.nodes, rng);
        } else {
          int a = 0;
          do {
            a = rng.uniform_int(0, posts - 1);
          } while (current[static_cast<std::size_t>(a)] < 2);
          int b = a;
          while (b == a) b = rng.uniform_int(0, posts - 1);
          current[static_cast<std::size_t>(a)] -= 1;
          current[static_cast<std::size_t>(b)] += 1;
          ++r.single_moves;
        }
        r.batch.push_back(current);
      }
    } while (differing_posts(r.batch.front(), r.batch.back()) < 4);
    stage->residents.push_back(std::move(r));
  }
  stage->cold_seed = ctx.seed * 1000003 + 1000000;

  // First touch of every resident: the cold reply the warm ones must equal.
  for (Resident& r : stage->residents) {
    const io::Json reply = stage->client.call("plan", plan_params(r.scenario));
    if (!reply.at("ok").as_bool()) {
      ctx.fail("service cold plan", reply.dump());
      continue;
    }
    const io::Json& result = reply.at("result");
    r.cold_reply = blanked(result);
    r.cost = result.at("cost_j_per_bit").as_double();
    stage->service_cost += r.cost;
  }
  stage->cache_start = stage->server->cache().stats();
  return stage;
}

void run_service(Context& ctx, ServiceStage& stage, double budget_s) {
  obs::TraceBuffer& buffer = obs::TraceBuffer::global();
  svc::PlanOptions plan_options;
  plan_options.solver = kSolver;

  auto call = [&](Kind kind, const std::string& method, const io::Json& params, bool traced,
                  io::Json* result) {
    Scope span(ctx.tracer, std::string("svc.call.") + kKindNames[kind], stage.client.calls() + 1);
    const double start = now_s();
    io::Json reply = stage.client.call(method, params);
    const double elapsed = now_s() - start;
    (traced ? stage.traced_latency : stage.latency)[kind].push_back(elapsed);
    if (!traced) stage.latency_round[kind].push_back(stage.round_s.size() - 1);
    stage.round_s.back() += elapsed;
    ++ctx.attempted;
    if (!reply.at("ok").as_bool()) {
      ++ctx.failed;
      ctx.fail(std::string("service ") + kKindNames[kind], reply.dump());
      return false;
    }
    *result = reply.at("result");
    if (traced) {
      // The frame codec and the envelope parse on the same bytes.
      io::Json request = io::Json::object();
      request.set("rpc", io::Json(svc::kRpcName));
      request.set("v", io::Json(static_cast<std::int64_t>(svc::kRpcVersion)));
      request.set("id", io::Json(stage.client.calls()));
      request.set("method", io::Json(method));
      request.set("params", params);
      Scope codec(ctx.tracer, "svc.replay.codec", stage.client.calls());
      double t = now_s();
      const std::string request_bytes = svc::encode_frame(request);
      const std::string reply_bytes = svc::encode_frame(reply);
      const double encode = now_s() - t;
      t = now_s();
      io::Json decoded;
      std::string error;
      svc::FrameReader reader;
      reader.feed(request_bytes.data(), request_bytes.size());
      reader.next(&decoded, &error);
      reader.feed(reply_bytes.data(), reply_bytes.size());
      io::Json decoded_reply;
      reader.next(&decoded_reply, &error);
      const double decode = now_s() - t;
      t = now_s();
      svc::Request parsed;
      const bool parsed_ok = svc::parse_request(decoded, &parsed, &error);
      const svc::Scenario scenario = svc::Scenario::from_json(*parsed.params.find("scenario"));
      const std::string fingerprint = scenario.fingerprint_hex();
      std::int64_t nodes = 0;
      if (const io::Json* deployments = parsed.params.find("deployments")) {
        for (const io::Json& entry : deployments->as_array()) {
          for (const io::Json& count : entry.as_array()) nodes += count.as_int();
        }
      }
      const double parse = now_s() - t;
      // A replay that does not round-trip would time the wrong work.
      if (!parsed_ok || parsed.method != method || decoded_reply.dump() != reply.dump() ||
          fingerprint != result->at("fingerprint").as_string() || nodes % scenario.nodes != 0) {
        ctx.fail("service replay", "codec or envelope parse did not round-trip");
      }
      stage.encode_s.push_back(encode);
      stage.decode_s.push_back(decode);
      stage.parse_s.push_back(parse);
      if (kind == kEvaluate) {
        stage.eval_codec_s.push_back(encode + decode);
        stage.eval_parse_s.push_back(parse);
      }
    }
    return true;
  };

  const int rounds = std::max(4, static_cast<int>(budget_s * stage.rounds_per_second));
  const std::vector<double> local = run_rounds(ctx, stage.ref, 0.0, rounds, [&](int round) {
    const bool traced = ctx.traced_round(round);
    ctx.tracer.enabled = traced;
    buffer.set_enabled(traced);
    buffer.clear();
    ++stage.rounds;
    stage.round_s.push_back(0.0);
    io::Json result;

    for (Resident& r : stage.residents) {
      if (call(kWarm, "plan", plan_params(r.scenario), traced, &result)) {
        if (result.at("cache").as_string() != "hit") ctx.fail("service warm plan", "not a cache hit");
        ctx.fail("service warm plan", check_same_reply(r.cold_reply, blanked(result)));
      }
    }

    svc::Scenario cold = stage.residents.front().scenario;
    cold.seed = static_cast<std::int64_t>(stage.cold_seed++);
    if (call(kCold, "plan", plan_params(cold), traced, &result)) {
      if (result.at("cache").as_string() != "miss") ctx.fail("service cold plan", "not a cache miss");
    }

    for (Resident& r : stage.residents) {
      if (!call(kEvaluate, "evaluate", evaluate_params(r), traced, &result)) continue;
      std::vector<double> costs;
      for (const io::Json& c : result.at("costs").as_array()) costs.push_back(c.is_null() ? INFINITY : c.as_double());
      const std::int64_t incremental = result.at("incremental").as_int64();
      stage.incremental += incremental;
      stage.rebuilt += result.at("rebuilt").as_int64();
      if (r.batch_costs.empty()) {
        ctx.fail("service evaluate", check_evaluate(r.geometry, r.batch, costs, incremental, r.single_moves));
        r.batch_costs = costs;
      } else {
        if (costs != r.batch_costs) ctx.fail("service evaluate", "costs differ from round 0");
        if (incremental != r.single_moves) {
          ctx.fail("service evaluate", check_evaluate(r.geometry, r.batch, costs, incremental, r.single_moves));
        }
      }
    }

    if (traced) {
      // The server's stages, replayed by the benchmark on the same inputs.
      {
        Scope span(ctx.tracer, "svc.replay.session_build", round);
        const double t = now_s();
        const core::Instance instance = svc::build_instance(cold);
        stage.session_build_s.push_back(now_s() - t);
      }
      for (Resident& r : stage.residents) {
        Scope span(ctx.tracer, "svc.replay.plan", round);
        double t = now_s();
        const svc::PlanOutcome outcome = svc::run_plan(*r.instance, plan_options, nullptr, nullptr);
        stage.run_plan_s.push_back(now_s() - t);
        t = now_s();
        const std::string report = svc::render_plan_report(*r.instance, outcome, r.scenario, kSolver);
        stage.render_s.push_back(now_s() - t);
        if (report.empty()) ctx.fail("service replay", "empty report");

        Scope price(ctx.tracer, "svc.replay.price", round);
        t = now_s();
        std::unique_ptr<core::DeploymentPricer> pricer;
        double sum = 0.0;
        for (std::size_t i = 0; i < r.batch.size(); ++i) {
          const std::vector<int>& d = r.batch[i];
          const std::vector<int>* prev = i == 0 ? nullptr : &r.batch[i - 1];
          int from = -1, to = -1;
          if (prev != nullptr && differing_posts(d, *prev) == 2) {
            for (std::size_t p = 0; p < d.size(); ++p) {
              if (d[p] < (*prev)[p]) from = static_cast<int>(p);
              if (d[p] > (*prev)[p]) to = static_cast<int>(p);
            }
          }
          if (pricer && from >= 0 && to >= 0) {
            pricer->move_node(from, to);
          } else {
            pricer = std::make_unique<core::DeploymentPricer>(*r.instance, d);
          }
          sum += pricer->base_cost();
        }
        const double elapsed = now_s() - t;
        stage.price_s.push_back(elapsed / static_cast<double>(r.batch.size()));
        stage.eval_price_s.push_back(elapsed);
        if (!(sum > 0.0)) ctx.fail("service replay", "pricer returned no cost");
      }
    }
  });
  ctx.tracer.enabled = false;
  buffer.set_enabled(false);
  buffer.clear();

  // Each latency scaled by the reference time of its own round.  Throughput
  // is one round's requests over the round's time at the median latency of
  // each kind: a round's own time includes any request that waited for a
  // descheduled thread, and on a contended host that is most rounds, so its
  // median reads the host's tail instead of the program.
  std::vector<double> scaled[3];
  for (int k = 0; k < 3; ++k) {
    for (std::size_t i = 0; i < stage.latency[k].size(); ++i) {
      scaled[k].push_back(stage.latency[k][i] *
                          RefClock::scale_for(local[stage.latency_round[k][i]], elasticity::kService));
    }
  }
  const char* e2e[3] = {"plan_warm_ms", "plan_cold_ms", "evaluate_ms"};
  for (int k = 0; k < 3; ++k) {
    ctx.metric(e2e[k], median(scaled[k]) * 1e3, "ms");
    ctx.metric(std::string("host.") + kKindNames[k] + "_raw_ms", median(stage.latency[k]) * 1e3, "ms");
    ctx.metric(std::string("svc.") + kKindNames[k] + "_p99_ms", percentile(scaled[k], 0.99) * 1e3, "ms");
    ctx.metric(std::string("svc.") + kKindNames[k] + "_n", static_cast<double>(stage.latency[k].size()), "count");
  }
  const double residents = static_cast<double>(stage.residents.size());
  const double per_round = 2 * residents + 1;
  const double round_s = residents * (median(scaled[kWarm]) + median(scaled[kEvaluate])) +
                         median(scaled[kCold]);
  ctx.metric("service_rps", per_round / round_s, "1/s");
  ctx.metric("host.service_raw_rps",
             per_round / round_median(ctx, stage.round_s, local, elasticity::kService, false), "1/s");
  ctx.metric("host.service_ref_s", stage.ref.median(), "s");
  ctx.metric("cost.service_uj_per_bit", stage.service_cost * 1e6, "uJ/bit");
  if (ctx.trace) {
    const svc::CacheStats cache = stage.server->cache().stats();
    const double rounds = static_cast<double>(std::max<std::int64_t>(1, stage.rounds));
    ctx.metric("svc.cache_hits", static_cast<double>(cache.hits - stage.cache_start.hits) / rounds, "count");
    ctx.metric("svc.cache_misses", static_cast<double>(cache.misses - stage.cache_start.misses) / rounds, "count");
    ctx.metric("svc.incremental", static_cast<double>(stage.incremental) / rounds, "count");
    ctx.metric("svc.rebuilt", static_cast<double>(stage.rebuilt) / rounds, "count");
    ctx.metric("svc.encode_us", median(stage.encode_s) * 1e6, "us");
    ctx.metric("svc.decode_us", median(stage.decode_s) * 1e6, "us");
    ctx.metric("svc.request_parse_us", median(stage.parse_s) * 1e6, "us");
    ctx.metric("svc.session_build_ms", median(stage.session_build_s) * 1e3, "ms");
    ctx.metric("svc.run_plan_us", median(stage.run_plan_s) * 1e6, "us");
    ctx.metric("svc.render_us", median(stage.render_s) * 1e6, "us");
    ctx.metric("svc.price_us", median(stage.price_s) * 1e6, "us");
    const double evaluate = median(stage.traced_latency[kEvaluate]);
    ctx.metric("svc.other_us",
               (evaluate - median(stage.eval_codec_s) - median(stage.eval_parse_s) -
                median(stage.eval_price_s)) * 1e6, "us");
    ctx.metric("obs.service_trace_overhead", trace_overhead(stage.round_s, local), "ratio");
  }
}

ServiceStage::~ServiceStage() {
  client.close();
  if (server) server->stop();
  ::unlink(socket_path.c_str());
}

}  // namespace wrsnbench
