// Ablation A4: local-search refinement (library extension beyond the paper).
//
// Question: how much of the RFH-vs-IDB gap does a cheap move-neighborhood
// hill climb recover, and at what runtime? Compares RFH, RFH+LS, IDB and
// IDB+LS on mid-size fields, all as solver-registry specs through
// exp::ExperimentRunner.
#include "common.hpp"

using namespace wrsn;

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::ObsSession obs_session(args);
  const int runs = args.runs_or(args.paper_scale() ? 20 : 5);

  exp::SweepSpec spec;
  spec.name = "ablation_local_search";
  spec.side = 350.0;
  spec.posts_axis = {50};
  spec.nodes_axis = {200};
  spec.levels_axis = {3};
  spec.eta_axis = {0.01};
  spec.runs = runs;
  spec.base_seed = static_cast<std::uint64_t>(args.seed);
  spec.solvers = {"rfh", "rfh+ls", "idb", "idb+ls"};
  const exp::SweepResult result = bench::run_sweep(spec, args);

  util::Table table({"pipeline", "cost [uJ]", "vs IDB [%]", "time [s]"});
  const double reference = result.cost_stats(0, 2).mean() * 1e6;
  const std::vector<const char*> labels{"RFH", "RFH + local search", "IDB d=1",
                                        "IDB + local search"};
  for (std::size_t s = 0; s < labels.size(); ++s) {
    const double cost = result.cost_stats(0, static_cast<int>(s)).mean() * 1e6;
    table.begin_row()
        .add(labels[s])
        .add(cost, 4)
        .add((cost / reference - 1.0) * 100.0, 2)
        .add(bench::sweep_seconds(result, 0, static_cast<int>(s)).mean(), 3);
  }
  bench::emit(table, args,
              "Ablation: local-search refinement (350x350m, N=50, M=200, avg of " +
                  std::to_string(runs) + " fields; mean LS moves on RFH = " +
                  util::format_double(result.diag_stats(0, 1, "ls/moves").mean(), 1) +
                  ", on IDB = " +
                  util::format_double(result.diag_stats(0, 3, "ls/moves").mean(), 1) + ")");
  return 0;
}
