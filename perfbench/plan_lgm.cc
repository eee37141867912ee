// plan_lgm: offline A* (FindOptimalLgmPlan) over a fixed corpus, one
// thread, on one reused PlannerWorkspace (the repeat-caller path), after
// an untimed warm-up pass that grows the workspace. The corpus, its
// order and its optima are fixed, so the inputs are the same for every
// seed.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/astar.h"
#include "core/astar_workspace.h"
#include "cost/cost_function.h"

namespace perfbench {
namespace {

using namespace abivm;

struct CorpusEntry {
  std::string name;
  ProblemInstance instance;
  /// Optimal LGM cost, pinned from the reference runs (see README.md).
  double optimum;
};

ProblemInstance Fig1Instance(TimeStep horizon) {
  return ProblemInstance{
      CostModel({MakePaperFig1LinearSideCost(), MakePaperFig1ScanSideCost()}),
      ArrivalSequence::Uniform({1, 1}, horizon), kPaperFig1BudgetMs};
}

std::vector<CorpusEntry> BuildCorpus() {
  std::vector<CorpusEntry> corpus;
  corpus.push_back({"fig1", Fig1Instance(3200), 2856.957164});
  corpus.push_back(
      {"asym2",
       ProblemInstance{CostModel({std::make_shared<LinearCost>(0.3, 0.5),
                                  std::make_shared<LinearCost>(0.2, 6.0)}),
                       ArrivalSequence::Uniform({1, 1}, 3200), 15.0},
       2233.5});
  corpus.push_back(
      {"tri3",
       ProblemInstance{CostModel({std::make_shared<LinearCost>(0.05, 4.0),
                                  std::make_shared<LinearCost>(0.8, 0.0),
                                  std::make_shared<ConcaveCost>(1.5, 0.5)}),
                       ArrivalSequence::Uniform({1, 2, 1}, 400), 16.0},
       782.4701});
  return corpus;
}

bool SameCost(double a, double b) {
  return std::abs(a - b) <= 1e-6 * std::max(1.0, std::abs(b));
}

}  // namespace

Report RunPlanLgm(const Args& args) {
  Report report;

  // Set-up: build the corpus, run the Fig-1 T=1000 cross-check
  // (EXPERIMENTS.md: OPT_LGM = 928.757), and grow a fresh workspace on
  // the corpus's first instance. Repeated; the median is reported.
  constexpr int kSetups = 9;
  Samples setup_s;
  std::vector<CorpusEntry> corpus;
  std::unique_ptr<PlannerWorkspace> workspace;
  for (int i = 0; i < kSetups; ++i) {
    const Clock::time_point t0 = Clock::now();
    corpus = BuildCorpus();
    const PlanSearchResult check = FindOptimalLgmPlan(Fig1Instance(1000));
    workspace = std::make_unique<PlannerWorkspace>();
    FindOptimalLgmPlan(corpus.front().instance, {}, *workspace);
    setup_s.Add(MsBetween(t0, Clock::now()) / 1e3);
    report.Check(std::abs(check.cost - 928.757) < 5e-4,
                 "fig1 T=1000 cross-check cost " + std::to_string(check.cost) +
                     " != 928.757");
  }
  // Untimed warm-up pass: the larger instances grow the workspace.
  for (const CorpusEntry& entry : corpus) {
    FindOptimalLgmPlan(entry.instance, {}, *workspace);
  }

  Samples pass_ms;
  size_t searches = 0;
  std::map<std::string, Samples> per_instance_ms;
  std::map<std::string, uint64_t> expanded;
  uint64_t nodes_expanded = 0;
  uint64_t nodes_generated = 0;
  uint64_t frontier_peak = 0;
  double astar_ms = 0.0;
  const Clock::time_point start = Clock::now();
  int passes = 0;
  while (passes < 2 || MsBetween(start, Clock::now()) < args.seconds * 1e3) {
    double this_pass_ms = 0.0;
    for (size_t idx = 0; idx < corpus.size(); ++idx) {
      const CorpusEntry& entry = corpus[idx];
      ++report.attempted;
      const Clock::time_point t0 = Clock::now();
      const bool traced = Tracer::Begin("core.astar", idx + 1) != 0;
      const PlanSearchResult result =
          FindOptimalLgmPlan(entry.instance, {}, *workspace);
      if (traced) Tracer::End();
      const double ms = MsBetween(t0, Clock::now());
      this_pass_ms += ms;
      ++searches;
      per_instance_ms[entry.name].Add(ms);
      astar_ms += result.wall_ms;
      nodes_expanded += result.nodes_expanded;
      nodes_generated += result.nodes_generated;
      frontier_peak = std::max(frontier_peak, result.frontier_peak);

      const double plan_cost =
          result.plan.TotalCost(entry.instance.cost_model);
      bool ok = SameCost(result.cost, entry.optimum) &&
                SameCost(plan_cost, entry.optimum);
      auto [it, first] = expanded.emplace(entry.name, result.nodes_expanded);
      ok = ok && (first || it->second == result.nodes_expanded);
      if (!ok) {
        ++report.failed;
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "%s: cost %.10g plan %.10g (pinned %.10g), expanded "
                      "%llu (first pass %llu)",
                      entry.name.c_str(), result.cost, plan_cost,
                      entry.optimum,
                      static_cast<unsigned long long>(result.nodes_expanded),
                      static_cast<unsigned long long>(it->second));
        report.Fail(buf);
      }
    }
    pass_ms.Add(this_pass_ms);
    ++passes;
  }
  const double wall_s = MsBetween(start, Clock::now()) / 1e3;
  FinishTrace(args, &report);

  report.E2E("setup_s", setup_s.Quantile(0.5), "s");
  // The client request is one pass over the corpus (plan_s).
  report.E2E("latency_p50_ms", pass_ms.Quantile(0.5), "ms");
  report.E2E("latency_p90_ms", pass_ms.Quantile(0.9), "ms");
  report.E2E("throughput_per_s", searches / wall_s, "1/s");

  for (auto& [name, samples] : per_instance_ms) {
    report.Layer("core.astar_ms." + name, samples.Quantile(0.5), "ms");
    report.Info("nodes_expanded." + name, static_cast<double>(expanded[name]),
                "count");
  }
  report.Info("plan_s", pass_ms.Quantile(0.5) / 1e3, "s");
  report.Info("passes", passes, "count");
  report.Info("searches", static_cast<double>(searches), "count");
  const double per_pass = 1.0 / passes;
  report.Layer("core.astar_nodes_expanded", nodes_expanded * per_pass, "count");
  report.Layer("core.astar_nodes_generated", nodes_generated * per_pass,
               "count");
  report.Layer("core.astar_frontier_peak", static_cast<double>(frontier_peak),
               "count");
  report.Layer("core.astar_ns_per_node",
               nodes_expanded == 0 ? 0.0 : astar_ms * 1e6 / nodes_expanded,
               "ns");
  return report;
}

}  // namespace perfbench
