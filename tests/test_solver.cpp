// core::Solver registry: spec parsing, option validation, and agreement of
// every registry-built solver with its direct function-call counterpart.
#include "core/solver.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "core/baseline.hpp"
#include "core/exact.hpp"
#include "core/idb.hpp"
#include "core/local_search.hpp"
#include "core/rfh.hpp"
#include "helpers.hpp"

namespace wrsn {
namespace {

TEST(SolverSpec, ParsesNameAndOptions) {
  const auto bare = core::SolverSpec::parse("rfh");
  EXPECT_EQ(bare.name, "rfh");
  EXPECT_TRUE(bare.options.empty());

  const auto spec = core::SolverSpec::parse("idb:delta=2,ls-passes=4");
  EXPECT_EQ(spec.name, "idb");
  ASSERT_EQ(spec.options.size(), 2u);
  EXPECT_EQ(spec.options[0].first, "delta");
  EXPECT_EQ(spec.options[0].second, "2");
  EXPECT_EQ(spec.options[1].first, "ls-passes");
  EXPECT_EQ(spec.canonical(), "idb:delta=2,ls-passes=4");
}

TEST(SolverSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(core::SolverSpec::parse(""), std::invalid_argument);
  EXPECT_THROW(core::SolverSpec::parse(":delta=1"), std::invalid_argument);
  EXPECT_THROW(core::SolverSpec::parse("idb:delta"), std::invalid_argument);
  EXPECT_THROW(core::SolverSpec::parse("idb:=1"), std::invalid_argument);
}

TEST(SolverRegistry, ListsBuiltins) {
  const auto& registry = core::SolverRegistry::global();
  for (const char* name : {"rfh", "rfh+ls", "idb", "idb+ls", "exact", "balanced", "minhop"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
    EXPECT_FALSE(registry.help(name).empty()) << name;
  }
  // names() is sorted for stable CLI output.
  const auto names = registry.names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(SolverRegistry, UnknownSolverAndOptionThrow) {
  const auto& registry = core::SolverRegistry::global();
  EXPECT_THROW(registry.create("no-such-solver"), std::invalid_argument);
  // Typos in option keys must fail loudly, not run a default config.
  EXPECT_THROW(registry.create("rfh:iterationz=3"), std::invalid_argument);
  EXPECT_THROW(registry.create("idb:delta=abc"), std::invalid_argument);
  EXPECT_THROW(registry.create("rfh:merge=maybe"), std::invalid_argument);
}

// Message of the std::invalid_argument `create(spec)` throws ("" if none).
std::string create_error(const std::string& spec) {
  try {
    core::SolverRegistry::global().create(spec);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(SolverRegistry, LsOptions) {
  const auto& registry = core::SolverRegistry::global();
  for (const char* spec : {"rfh+ls:ls-strategy=first", "rfh+ls:ls-strategy=best",
                           "idb+ls:ls-strategy=best,ls-passes=3"}) {
    EXPECT_NO_THROW(registry.create(spec)) << spec;
  }
  EXPECT_NE(create_error("rfh+ls:ls-strategy=worst").find("unknown ls-strategy"),
            std::string::npos);
  // Candidate pricing has one path, serial and incremental: the retired
  // thread-count and pricing-mode keys read as typos.
  for (const char* spec : {"rfh+ls:ls-threads=2", "rfh+ls:ls-pricing=full",
                           "idb+ls:ls-pricing=incremental"}) {
    EXPECT_NE(create_error(spec).find("unknown option"), std::string::npos) << spec;
  }
}

TEST(SolverRegistry, RfhMatchesDirectCall) {
  util::Rng rng(21);
  const core::Instance inst = test::random_instance(15, 60, 180.0, rng);
  const auto direct = core::solve_rfh(inst);
  const auto run = core::SolverRegistry::global().create("rfh")->solve(inst);
  EXPECT_EQ(run.cost, direct.cost);
  EXPECT_EQ(run.solution.deployment, direct.solution.deployment);
  // Per-iteration diagnostics mirror RfhResult::per_iteration_cost.
  const auto iterations = run.diagnostics.find("rfh/iterations");
  ASSERT_TRUE(iterations.has_value());
  EXPECT_EQ(static_cast<std::size_t>(*iterations), direct.per_iteration_cost.size());
  const auto first = run.diagnostics.find("rfh/iter_cost_0");
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, direct.per_iteration_cost.front());
}

TEST(SolverRegistry, RfhOptionsReachTheAlgorithm) {
  util::Rng rng(22);
  const core::Instance inst = test::random_instance(15, 60, 180.0, rng);
  core::RfhOptions options;
  options.iterations = 1;
  options.concentrate_workload = false;
  const auto direct = core::solve_rfh(inst, options);
  const auto run =
      core::SolverRegistry::global().create("rfh:iterations=1,concentrate=0")->solve(inst);
  EXPECT_EQ(run.cost, direct.cost);
}

TEST(SolverRegistry, GreedyAllocationNeverWorseOnBasicRfh) {
  // Satellite: alloc=greedy replaces the paper's rounding in Phase IV with
  // the exact greedy allocator; on the same routing tree it can only match
  // or beat the rounded allocation.
  util::Rng rng(23);
  for (int trial = 0; trial < 5; ++trial) {
    const core::Instance inst = test::random_instance(12, 50, 160.0, rng);
    const auto paper =
        core::SolverRegistry::global().create("rfh:iterations=1")->solve(inst);
    const auto greedy =
        core::SolverRegistry::global().create("rfh:iterations=1,alloc=greedy")->solve(inst);
    EXPECT_LE(greedy.cost, paper.cost * (1.0 + 1e-12));
  }
}

TEST(SolverRegistry, IdbAndExactMatchDirectCalls) {
  util::Rng rng(24);
  const core::Instance small = test::random_instance(8, 24, 120.0, rng);
  core::IdbOptions idb_options;
  idb_options.delta = 2;
  EXPECT_EQ(core::SolverRegistry::global().create("idb:delta=2")->solve(small).cost,
            core::solve_idb(small, idb_options).cost);
  const auto exact_run = core::SolverRegistry::global().create("exact")->solve(small);
  const auto exact_direct = core::solve_exact(small);
  EXPECT_EQ(exact_run.cost, exact_direct.cost);
  const auto complete = exact_run.diagnostics.find("exact/complete");
  ASSERT_TRUE(complete.has_value());
  EXPECT_EQ(*complete, 1.0);
  EXPECT_LE(exact_run.cost, core::SolverRegistry::global().create("idb")->solve(small).cost +
                                1e-15);
}

TEST(SolverRegistry, BaselinesMatchDirectCalls) {
  util::Rng rng(25);
  const core::Instance inst = test::random_instance(12, 50, 160.0, rng);
  EXPECT_EQ(core::SolverRegistry::global().create("balanced")->solve(inst).cost,
            core::solve_balanced_baseline(inst, true).cost);
  EXPECT_EQ(core::SolverRegistry::global().create("balanced:rx-weight=0")->solve(inst).cost,
            core::solve_balanced_baseline(inst, false).cost);
}

TEST(SolverRegistry, LsChainMatchesManualRefine) {
  util::Rng rng(26);
  const core::Instance inst = test::random_instance(15, 60, 180.0, rng);
  const auto chained = core::SolverRegistry::global().create("rfh+ls")->solve(inst);
  const auto rfh = core::solve_rfh(inst);
  const auto refined = core::refine_solution(inst, rfh.solution, {});
  EXPECT_EQ(chained.cost, refined.cost);
  const auto moves = chained.diagnostics.find("ls/moves");
  ASSERT_TRUE(moves.has_value());
  EXPECT_EQ(static_cast<int>(*moves), refined.moves_applied);
  EXPECT_LE(chained.cost, rfh.cost);
}

TEST(SolverRegistry, SolversAreStatelessAndReentrant) {
  // One solver object, many concurrent solves on different instances: the
  // experiment runner shares solver instances across worker threads.
  util::Rng rng(27);
  std::vector<core::Instance> instances;
  for (int i = 0; i < 4; ++i) instances.push_back(test::random_instance(12, 40, 160.0, rng));
  const auto solver = core::SolverRegistry::global().create("rfh");
  std::vector<double> serial;
  serial.reserve(instances.size());
  for (const auto& inst : instances) serial.push_back(solver->solve(inst).cost);
  std::vector<double> concurrent(instances.size(), 0.0);
  std::vector<std::thread> workers;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    workers.emplace_back(
        [&, i] { concurrent[i] = solver->solve(instances[i]).cost; });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(concurrent, serial);
}

}  // namespace
}  // namespace wrsn
