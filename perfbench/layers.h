// Objects the benchmark hands the program so it can observe a layer from
// outside, plus the set-up shared by the engine workloads.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <atomic>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "bench.h"
#include "core/policy.h"
#include "obs/metrics.h"
#include "storage/database.h"

namespace perfbench {

/// The TPC scale factor of every engine workload: 80k partsupp rows.
inline constexpr double kScaleFactor = 0.1;

/// Generates the TPC database at kScaleFactor and creates the paper's
/// indexes. The base data is the same for every workload seed (the
/// generator's default seed), so the view's size -- which sets the cost
/// of every snapshot and scan -- does not vary with the seed; the seed
/// drives the modification streams.
std::unique_ptr<abivm::Database> MakePaperDatabase();

/// Forwards every Policy call to `inner`, timing Act as a
/// `core.policy_act` span and counting non-zero actions. The state
/// snapshot calls are forwarded too, so WAL trimming is unchanged.
class TracedPolicy final : public abivm::Policy {
 public:
  explicit TracedPolicy(std::unique_ptr<abivm::Policy> inner)
      : inner_(std::move(inner)) {}

  void Reset(const abivm::CostModel& model, double budget) override {
    inner_->Reset(model, budget);
  }
  abivm::StateVec Act(abivm::TimeStep t, const abivm::StateVec& pre_state,
                      const abivm::StateVec& arrivals_now) override {
    abivm::StateVec action;
    {
      SpanScope span("core.policy_act", static_cast<uint64_t>(t));
      action = inner_->Act(t, pre_state, arrivals_now);
    }
    if (!abivm::IsZeroVec(action)) {
      actions_.fetch_add(1, std::memory_order_relaxed);
    }
    return action;
  }
  std::string name() const override { return inner_->name(); }
  void ExportMetrics(abivm::obs::MetricRegistry& registry) const override {
    inner_->ExportMetrics(registry);
  }
  bool SupportsStateSnapshot() const override {
    return inner_->SupportsStateSnapshot();
  }
  std::string SaveState() const override { return inner_->SaveState(); }
  abivm::Status RestoreState(std::string_view blob) override {
    return inner_->RestoreState(blob);
  }

  uint64_t actions() const { return actions_.load(std::memory_order_relaxed); }

 private:
  std::unique_ptr<abivm::Policy> inner_;
  std::atomic<uint64_t> actions_{0};
};

/// Adds the p50 and p99 of a span's durations, in `unit` (`scale` units
/// per ms), to the report as `<prefix>.p50` and `<prefix>.p99`.
void LayerQuantiles(Report* report, const SpanStats& stats,
                    const std::string& span, const std::string& prefix,
                    const std::string& unit, double scale);

/// Reports the `ivm.op.<table>.<stage>` stage timers of the partsupp and
/// supplier delta pipelines (the tables the workloads update) as total ms
/// per iteration.
void LayerStageTimers(Report* report, const abivm::obs::MetricsSnapshot& snap,
                      int iterations);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
