// engine_durable: RunOnEngine over ArrivalSequence::Uniform({2,1,0,0}, T)
// on one thread, ONLINE with a fixed cost model, and a
// ckpt::DurabilityManager with its defaults (one fsync per WAL record, a
// checkpoint every 8 steps, incremental checkpoints, policy snapshots,
// WAL trim and vacuum) writing to a fresh directory on the real disk.
// RecoverFromDir then rebuilds the run from that directory.
//
// Each run repeats set-up + run + recovery on the same seed until the
// measured time is used up (at least kMinIterations times), so every
// deterministic count must repeat exactly.

#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "ckpt/manager.h"
#include "ckpt/recovery.h"
#include "core/online.h"
#include "cost/cost_function.h"
#include "layers.h"
#include "sim/engine_runner.h"
#include "tpc/update_stream.h"
#include "tpc/views.h"

namespace perfbench {
namespace {

using namespace abivm;

constexpr int kMinIterations = 3;
constexpr TimeStep kHorizon = 600;
constexpr double kBudget = 6.0;

CostModel DurableCostModel() {
  return CostModel({std::make_shared<LinearCost>(0.002, 0.01),
                    std::make_shared<LinearCost>(0.01, 5.0),
                    std::make_shared<LinearCost>(1e-6, 0.0),
                    std::make_shared<LinearCost>(1e-6, 0.0)});
}

/// Times each engine step, from the ModificationDriver's first call in the
/// step to the return of OnStepEnd, and opens the `sim.step` span that
/// the step's storage, core, ivm and ckpt spans nest under.
class StepClock {
 public:
  void Begin() {
    if (open_) return;
    open_ = true;
    start_ = Clock::now();
    Tracer::Begin("sim.step", request());
  }
  void End() {
    if (!open_) return;
    open_ = false;
    Tracer::End();
    step_ms_.Add(MsBetween(start_, Clock::now()));
    ++steps_;
  }
  /// Span request id of the current step (steps of all iterations are
  /// numbered consecutively from 1).
  uint64_t request() const { return steps_ + 1; }
  const Samples& step_ms() const { return step_ms_; }

 private:
  bool open_ = false;
  uint64_t steps_ = 0;
  Clock::time_point start_;
  Samples step_ms_;
};

/// Forwards the runner's durability hooks to the manager, timing them as
/// ckpt spans and recording each committed batch's ivm work.
class TracedHooks final : public EngineDurabilityHooks {
 public:
  TracedHooks(ckpt::DurabilityManager* inner, StepClock* clock)
      : inner_(inner), clock_(clock) {}

  Status OnStepPlanned(const EngineStepRecord& planned, bool forced) override {
    clock_->Begin();
    SpanScope span("ckpt.wal_append", clock_->request());
    return inner_->OnStepPlanned(planned, forced);
  }
  Status OnBatchCommitted(TimeStep t, size_t table, size_t k,
                          const BatchResult& result) override {
    const Clock::time_point now = Clock::now();
    Tracer::Record("ivm.batch",
                   now - std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double, std::milli>(
                                 result.wall_ms)),
                   now, clock_->request());
    batch_ms_.Add(result.wall_ms);
    delta_rows_in_ += result.delta_rows_in;
    view_updates_ += result.view_updates;
    SpanScope span("ckpt.wal_append", clock_->request());
    return inner_->OnBatchCommitted(t, table, k, result);
  }
  Status OnStepEnd(const EngineStepRecord& record) override {
    const uint64_t published = inner_->checkpoints_published();
    const Clock::time_point t0 = Clock::now();
    Status status = Status::Ok();
    {
      SpanScope span("ckpt.step_end", clock_->request());
      status = inner_->OnStepEnd(record);
    }
    if (inner_->checkpoints_published() != published) {
      publish_ms_.Add(MsBetween(t0, Clock::now()));
    }
    clock_->End();
    return status;
  }

  const Samples& batch_ms() const { return batch_ms_; }
  const Samples& publish_ms() const { return publish_ms_; }
  uint64_t delta_rows_in() const { return delta_rows_in_; }
  uint64_t view_updates() const { return view_updates_; }

 private:
  ckpt::DurabilityManager* inner_;
  StepClock* clock_;
  Samples batch_ms_;
  Samples publish_ms_;
  uint64_t delta_rows_in_ = 0;
  uint64_t view_updates_ = 0;
};

uint64_t WalBytesOnDisk(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind("wal-", 0) == 0) {
      bytes += entry.file_size();
    }
  }
  return bytes;
}

/// What must repeat exactly between iterations of one seed.
struct Deterministic {
  uint64_t bytes = 0;
  uint64_t actions = 0;
  ExecStats exec;
  double model_cost = 0.0;
  bool operator==(const Deterministic& o) const {
    return bytes == o.bytes && actions == o.actions && exec == o.exec &&
           model_cost == o.model_cost;
  }
};

uint64_t CounterValue(const obs::MetricsSnapshot& snap, const char* name) {
  auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

}  // namespace

Report RunEngineDurable(const Args& args) {
  Report report;
  obs::MetricRegistry registry;
  const CostModel model = DurableCostModel();
  const ArrivalSequence arrivals = ArrivalSequence::Uniform({2, 1, 0, 0},
                                                            kHorizon);
  uint64_t mods_per_run = 0;
  for (TimeStep t = 0; t <= kHorizon; ++t) {
    for (Count c : arrivals.At(t)) mods_per_run += c;
  }

  Samples setup_s, recovery_s, batch_ms, publish_ms;
  StepClock clock;
  double run_s = 0.0;
  double maint_ms = 0.0;
  uint64_t delta_rows_in = 0;
  uint64_t view_updates = 0;
  uint64_t policy_actions = 0;
  Deterministic first;

  int iterations = 0;
  const Clock::time_point begin = Clock::now();
  for (int iter = 0; iter < kMinIterations ||
                     MsBetween(begin, Clock::now()) < args.seconds * 1e3;
       ++iter) {
    ++iterations;
    const std::string dir =
        args.work_dir + "/durable-" + std::to_string(iter);
    std::filesystem::remove_all(dir);

    const Clock::time_point t_setup = Clock::now();
    std::unique_ptr<Database> db = MakePaperDatabase();
    ViewMaintainer maintainer(db.get(), MakePaperMinView());
    TpcUpdater updater(db.get(), MixSeed(args.seed, 3, 0));
    TracedPolicy policy(std::make_unique<OnlinePolicy>());
    ckpt::DurabilityOptions durability;
    durability.save_policy = [&policy] { return policy.SaveState(); };
    auto started = ckpt::DurabilityManager::Start(
        dir, db.get(), &maintainer, [&] { return updater.SaveState(); },
        durability, &registry);
    setup_s.Add(MsBetween(t_setup, Clock::now()) / 1e3);
    if (!started.ok()) {
      report.Fail("DurabilityManager::Start: " + started.status().ToString());
      return report;
    }
    std::unique_ptr<ckpt::DurabilityManager> manager = std::move(*started);
    const uint64_t setup_bytes =
        registry.counter("ckpt.bytes_written").value();
    const uint64_t trimmed0 =
        registry.counter("ckpt.wal_bytes_trimmed").value();

    ModificationDriver driver = [&](size_t table) {
      clock.Begin();
      SpanScope span("storage.apply", clock.request());
      if (table == 0) {
        updater.UpdatePartSuppSupplycost();
      } else {
        updater.UpdateSupplierNationkey();
      }
    };
    TracedHooks hooks(manager.get(), &clock);
    EngineRunnerOptions options;
    options.durability = &hooks;
    // Attaching a registry turns on per-stage profiling: traced run only.
    options.metrics = args.trace ? &registry : nullptr;
    const Clock::time_point t_run = Clock::now();
    const EngineTrace trace = RunOnEngine(maintainer, arrivals, model,
                                          kBudget, policy, driver, options);
    run_s += MsBetween(t_run, Clock::now()) / 1e3;

    report.attempted += mods_per_run;
    report.failed += trace.degraded_steps + (trace.aborted ? 1 : 0);
    report.Check(!trace.aborted, "durable run aborted: " + trace.abort_reason);
    report.Check(trace.ended_consistent, "durable run ended inconsistent");
    Result<ViewState> recompute = maintainer.RecomputeAtWatermarksChecked();
    report.Check(
        recompute.ok() && (*recompute).SameContents(maintainer.state()),
        "final view != recompute");

    Deterministic det;
    det.bytes = registry.counter("ckpt.bytes_written").value() - setup_bytes +
                registry.counter("ckpt.wal_bytes_trimmed").value() - trimmed0 +
                WalBytesOnDisk(dir);
    det.actions = trace.action_count;
    det.exec = trace.exec_stats;
    det.model_cost = trace.total_model_cost;
    if (iter == 0) {
      first = det;
    } else {
      report.Check(det == first,
                   "iteration " + std::to_string(iter) +
                       " did not repeat iteration 0 (bytes, actions, exec "
                       "counts or model cost)");
    }
    maint_ms += trace.total_actual_ms;
    batch_ms.Append(hooks.batch_ms());
    publish_ms.Append(hooks.publish_ms());
    delta_rows_in += hooks.delta_rows_in();
    view_updates += hooks.view_updates();
    policy_actions += policy.actions();
    manager.reset();  // closes the WAL

    // Recovery from the directory alone must rebuild the live view.
    OnlinePolicy replay_policy;
    ckpt::RecoveryOptions recovery;
    recovery.metrics = &registry;
    const Clock::time_point t_rec = Clock::now();
    Result<ckpt::RecoveredRun> recovered = ckpt::RecoverFromDir(
        dir, MakePaperMinView(), model, kBudget, &replay_policy, recovery);
    recovery_s.Add(MsBetween(t_rec, Clock::now()) / 1e3);
    report.Check(recovered.ok(), "RecoverFromDir failed");
    if (recovered.ok()) {
      report.Check((*recovered).maintainer->state().SameContents(
                       maintainer.state()),
                   "recovered view != live view");
      report.Check((*recovered).resume.first_step == kHorizon + 1,
                   "recovery did not find the run complete");
    }
    std::filesystem::remove_all(dir);
  }

  const double mods = static_cast<double>(mods_per_run) * iterations;
  const SpanStats spans = FinishTrace(args, &report);
  report.E2E("setup_s", setup_s.Quantile(0.5), "s");
  report.E2E("latency_p50_ms", clock.step_ms().Quantile(0.5), "ms");
  report.E2E("latency_p90_ms", clock.step_ms().Quantile(0.9), "ms");
  report.E2E("throughput_per_s", mods / run_s, "1/s");
  report.Info("maint_ms_per_mod", maint_ms / mods, "ms");
  report.Info("durable_mods_per_s", mods / run_s, "1/s");
  report.Info("durable_bytes_per_mod",
              static_cast<double>(first.bytes) / mods_per_run, "B");
  report.Info("recovery_s", recovery_s.Quantile(0.5), "s");
  report.Info("model_cost", first.model_cost, "ms");
  report.Info("actions", static_cast<double>(first.actions), "count");
  report.Info("modifications_per_iteration", static_cast<double>(mods_per_run),
              "count");
  report.Info("iterations", iterations, "count");

  const double per_iter = 1.0 / iterations;
  const obs::MetricsSnapshot snap = registry.Snapshot();
  report.Layer("core.policy_actions", policy_actions * per_iter, "count");
  report.Layer("ivm.batch_ms.p50", batch_ms.Quantile(0.5), "ms");
  report.Layer("ivm.batch_ms.p99", batch_ms.Quantile(0.99), "ms");
  report.Layer("ivm.batches", batch_ms.size() * per_iter, "count");
  report.Layer("ivm.delta_rows_in", delta_rows_in * per_iter, "count");
  report.Layer("ivm.view_updates", view_updates * per_iter, "count");
  report.Layer("exec.rows_scanned",
               static_cast<double>(first.exec.rows_scanned), "count");
  report.Layer("exec.index_probes",
               static_cast<double>(first.exec.index_probes), "count");
  report.Layer("exec.hash_build_rows",
               static_cast<double>(first.exec.hash_build_rows), "count");
  report.Layer("exec.output_rows",
               static_cast<double>(first.exec.output_rows), "count");
  report.Layer("ckpt.publish_ms.p50", publish_ms.Quantile(0.5), "ms");
  const std::pair<const char*, const char*> counters[] = {
      {"ckpt.checkpoints", "ckpt.checkpoints"},
      {"ckpt.deltas", "ckpt.deltas_published"},
      {"ckpt.wal_records", "ckpt.wal_records"},
      {"gc.rows_reclaimed", "gc.rows_reclaimed"},
      {"recovery.replayed_records", "recovery.replayed_records"},
      {"recovery.chain_deltas", "recovery.chain_deltas"},
  };
  for (const auto& [name, source] : counters) {
    report.Layer(name, CounterValue(snap, source) * per_iter, "count");
  }
  report.Layer("ckpt.bytes_written",
               CounterValue(snap, "ckpt.bytes_written") * per_iter, "B");
  report.Layer("ckpt.wal_bytes_trimmed",
               CounterValue(snap, "ckpt.wal_bytes_trimmed") * per_iter, "B");
  report.Layer("sim.step_ms.p50", clock.step_ms().Quantile(0.5), "ms");
  report.Layer("sim.step_ms.p99", clock.step_ms().Quantile(0.99), "ms");
  LayerStageTimers(&report, snap, iterations);
  if (!args.trace) return report;

  LayerQuantiles(&report, spans, "storage.apply", "storage.apply_us", "us",
                 1e3);
  report.Layer("storage.applies", mods_per_run, "count");
  LayerQuantiles(&report, spans, "core.policy_act", "core.policy_act_us", "us",
                 1e3);
  LayerQuantiles(&report, spans, "ckpt.wal_append", "ckpt.wal_append_ms", "ms",
                 1.0);
  LayerQuantiles(&report, spans, "ckpt.step_end", "ckpt.step_end_ms", "ms",
                 1.0);
  // Slice identity: step = storage + core + ivm + ckpt + runner self.
  const auto total = [&](const char* name) {
    auto it = spans.duration_ms.find(name);
    return it == spans.duration_ms.end() ? 0.0 : it->second.Sum();
  };
  const double step_total = total("sim.step");
  const double slices[] = {total("storage.apply"), total("core.policy_act"),
                           total("ivm.batch"),
                           total("ckpt.wal_append") + total("ckpt.step_end")};
  const char* slice_names[] = {"storage", "core", "ivm", "ckpt"};
  double slice_sum = 0.0;
  for (size_t i = 0; i < 4; ++i) {
    slice_sum += slices[i];
    report.Info(std::string("slice.") + slice_names[i] + "_ms_per_step",
                slices[i] / clock.step_ms().size(), "ms");
  }
  auto self = spans.self_ms.find("sim.step");
  const double self_total =
      self == spans.self_ms.end() ? 0.0 : self->second.Sum();
  report.Info("slice.runner_self_ms_per_step",
              self_total / clock.step_ms().size(), "ms");
  report.Layer("sim.runner_self_ms", self_total / clock.step_ms().size(),
               "ms");
  report.Check(std::abs(slice_sum + self_total - step_total) <=
                   1e-6 * step_total,
               "step slices do not sum to sim.step");
  report.Check(self == spans.self_ms.end() || self->second.Quantile(0.0) >= 0,
               "overlapping spans inside a step");
  return report;
}

}  // namespace perfbench
