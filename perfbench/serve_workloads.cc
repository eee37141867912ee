// serve_fresh and serve_ingest: the paper's 4-way MIN view behind one
// serve::ViewServer at sf=0.1, ONLINE policy with micro_serve's cost
// model, C = 1.0, the default ingest queue (1024 ops, kBlock).
//
// Each run sets up fresh servers (iterations); every iteration warms up
// before its measured interval. Latency quantiles and rates are the
// median over the iterations of each iteration's own value, so a host
// stall during one iteration does not move them. Counts are reported per
// iteration. kExtraSetups more set-ups, not measured, make setup_s a
// median of several.

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/random.h"
#include "core/online.h"
#include "cost/cost_function.h"
#include "layers.h"
#include "serve/view_server.h"
#include "tpc/tpc_gen.h"
#include "tpc/views.h"

namespace perfbench {
namespace {

using namespace abivm;

// Set-ups per serve_fresh run; the minimum per serve_ingest run.
constexpr int kIterations = 3;
constexpr int kExtraSetups = 4;
constexpr double kWarmupS = 0.5;
/// serve_fresh: open-loop partsupp updates per second.
constexpr double kFreshProducerRate = 2000.0;
constexpr int kFreshReaders = 2;
/// serve_fresh: mean think time between a reader's fresh reads. Random
/// (exponential, seeded) think times keep the two closed-loop readers
/// from locking into either "always coalesced" or "always alternating"
/// phase, each of which is stable once entered.
constexpr double kFreshThinkMs = 2.0;
/// serve_ingest: closed-loop producers, measured writes per iteration
/// (split evenly), warm-up writes per iteration, open-loop stale reads/s.
constexpr int kProducers = 2;
constexpr uint64_t kIngestWrites = 60000;
constexpr uint64_t kIngestWarmupWrites = 3000;
constexpr double kStaleReaderRate = 2000.0;
/// Traced runs time a copy and a digest of one publish in this many.
constexpr uint64_t kSnapshotSampleEvery = 8;

CostModel ServeCostModel() {
  return CostModel({std::make_shared<LinearCost>(0.002, 0.01),
                    std::make_shared<LinearCost>(0.01, 0.40),
                    std::make_shared<LinearCost>(1e-6, 0.0),
                    std::make_shared<LinearCost>(1e-6, 0.0)});
}

Clock::time_point After(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

/// One server's worth of benchmark state. Fields under "maintenance
/// thread" are touched only by WriteOps and the publish hook (both run
/// on the server's maintenance thread) and read by the main thread after
/// Stop joined it.
struct ServeRun {
  size_t ps_view = 0;  // view base-table index of partsupp
  size_t s_view = 0;   // ... of supplier
  size_t ps_cost_col = 0;
  size_t s_nation_col = 0;
  TracedPolicy* policy = nullptr;  // owned by the server

  // Maintenance thread.
  std::vector<std::deque<std::pair<size_t, Clock::time_point>>> unseen;
  struct Visible {
    Clock::time_point stamp;
    Clock::time_point at;
  };
  std::vector<Visible> visible;
  Clock::time_point last_apply;
  size_t snapshot_entries = 0;
  uint64_t digest_mismatches = 0;

  std::atomic<uint64_t> applied{0};
};

/// One paper modification as a WriteOp: a partsupp ps_supplycost or a
/// supplier s_nationkey update, drawn from `op_seed`. `stamp` is when the
/// client issued it (the visible-lag origin).
serve::WriteOp MakeUpdate(ServeRun* run, bool supplier, uint64_t op_seed,
                          Clock::time_point stamp, uint64_t request) {
  return [run, supplier, op_seed, stamp, request](Database& db) -> Status {
    SpanScope span("storage.apply", request);
    Rng rng(op_seed);
    Table& table = db.table(supplier ? kSupplier : kPartSupp);
    const RowId id = table.SampleLiveRow(rng);
    Row row = table.RowAt(id).row;
    if (supplier) {
      row[run->s_nation_col] = Value(rng.UniformInt(0, 24));
    } else {
      row[run->ps_cost_col] = Value(rng.UniformDouble(1.0, 1000.0));
    }
    Result<RowId> applied = db.TryApplyUpdate(table, id, std::move(row));
    if (!applied.ok()) return applied.status();
    run->unseen[supplier ? run->s_view : run->ps_view].emplace_back(
        table.delta_log().size(), stamp);
    run->last_apply = Clock::now();
    run->applied.fetch_add(1, std::memory_order_release);
    return Status::Ok();
  };
}

/// Walks each table's applied-write stamps up to the snapshot's watermark
/// (those writes just became visible). In a traced run it also times a
/// copy and a digest of every kSnapshotSampleEvery-th published state
/// (every one would double the flush time) and re-checks the digest.
void OnPublish(ServeRun* run, const serve::ViewSnapshot& snap) {
  const Clock::time_point now = Clock::now();
  for (size_t i = 0; i < run->unseen.size(); ++i) {
    auto& queue = run->unseen[i];
    while (!queue.empty() && queue.front().first <= snap.positions[i]) {
      run->visible.push_back({queue.front().second, now});
      queue.pop_front();
    }
  }
  if (!Tracer::enabled() || snap.epoch % kSnapshotSampleEvery != 0) return;
  size_t entries = 0;
  {
    SpanScope span("serve.snapshot_copy");
    const ViewState copy = snap.state;
    entries = copy.NumKeys();
    if (const GroupState* group = copy.GroupOrNull(Row{})) {
      entries += group->values.size();
    }
  }
  uint64_t digest = 0;
  {
    SpanScope span("serve.snapshot_digest");
    digest = serve::DigestViewState(snap.state);
  }
  if (digest != snap.digest) ++run->digest_mismatches;
  run->snapshot_entries = entries;
}

std::unique_ptr<serve::ViewServer> StartServer(obs::MetricRegistry* registry,
                                               ServeRun* run,
                                               Samples* setup_s) {
  const Clock::time_point t0 = Clock::now();
  auto server = std::make_unique<serve::ViewServer>(
      MakePaperDatabase(), serve::ServeOptions{}, registry);
  auto policy =
      std::make_unique<TracedPolicy>(std::make_unique<OnlinePolicy>());
  run->policy = policy.get();
  server->AddView(MakePaperMinView(), std::move(policy), ServeCostModel());
  const std::vector<std::string>& tables =
      server->view_maintainer(0).binding().def().tables;
  run->unseen.resize(tables.size());
  for (size_t i = 0; i < tables.size(); ++i) {
    if (tables[i] == kPartSupp) run->ps_view = i;
    if (tables[i] == kSupplier) run->s_view = i;
  }
  run->ps_cost_col =
      server->db().table(kPartSupp).schema().ColumnIndex("ps_supplycost");
  run->s_nation_col =
      server->db().table(kSupplier).schema().ColumnIndex("s_nationkey");
  server->SetPublishHook(
      [run](size_t, const serve::ViewSnapshot& snap, const ViewMaintainer&) {
        OnPublish(run, snap);
      });
  server->Start();
  setup_s->Add(MsBetween(t0, Clock::now()) / 1e3);
  return server;
}

/// The correctness gate after Stop: the last published epoch equals the
/// recompute at the maintainer's watermarks and its digest matches.
void GateServer(serve::ViewServer& server, const ServeRun& run,
                Report* report) {
  const serve::SnapshotPtr last = server.ReadStale(0);
  const ViewMaintainer& m = server.view_maintainer(0);
  Result<ViewState> recompute = m.RecomputeAtWatermarksChecked();
  report->Check(recompute.ok() && (*recompute).SameContents(last->state),
                "last published state != recompute at watermarks");
  report->Check(last->digest == serve::DigestViewState(last->state),
                "last published digest != DigestViewState");
  for (size_t i = 0; i < m.num_tables(); ++i) {
    report->Check(last->positions[i] == m.watermark_position(i),
                  "last published watermark != maintainer watermark");
  }
  report->Check(run.digest_mismatches == 0,
                "a published snapshot's digest did not match its state");
}

/// Each iteration's p50, p90 and p99; the run reports their medians.
struct IterationQuantiles {
  Samples p50;
  Samples p90;
  Samples p99;
  void Add(const Samples& ms) {
    p50.Add(ms.Quantile(0.5));
    p90.Add(ms.Quantile(0.9));
    p99.Add(ms.Quantile(0.99));
  }
};

/// Visible-lag samples (ms) of writes stamped in [from, to); returns how
/// many of them no publish covered before the server stopped.
uint64_t CollectLag(const ServeRun& run, Clock::time_point from,
                    Clock::time_point to, Samples* lag_ms) {
  uint64_t invisible = 0;
  for (const ServeRun::Visible& v : run.visible) {
    if (v.stamp >= from && v.stamp < to) lag_ms->Add(MsBetween(v.stamp, v.at));
  }
  for (const auto& queue : run.unseen) {
    for (const auto& [pos, stamp] : queue) {
      if (stamp >= from && stamp < to) ++invisible;
    }
  }
  return invisible;
}

/// Per-layer metrics common to both serve workloads.
void ServeLayers(const Args& args, Report* report, int iterations,
                 obs::MetricRegistry& registry, const SpanStats& spans,
                 const Samples& queue_depth, const Samples& lateness_ms,
                 uint64_t policy_actions, size_t snapshot_entries) {
  const obs::MetricsSnapshot snap = registry.Snapshot();
  const auto counter = [&](const char* name) -> double {
    auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  // Writes the maintenance thread failed to apply, and failed batches.
  report->failed += static_cast<uint64_t>(counter("serve.ingest_errors") +
                                          counter("serve.batch_failures"));
  if (auto it = snap.latencies.find("serve.flush_ms");
      it != snap.latencies.end() && it->second.count > 0) {
    report->Layer("serve.flush_ms.p50", it->second.p50, "ms");
    report->Layer("serve.flush_ms.p99", it->second.p99, "ms");
  }
  if (counter("serve.flushes") > 0) {
    report->Layer("serve.reads_per_flush",
                  counter("serve.fresh_served") / counter("serve.flushes"),
                  "ratio");
  }
  for (const char* name : {"serve.cycles", "serve.publishes", "serve.batches",
                           "serve.budget_violations"}) {
    report->Layer(name, counter(name) / iterations, "count");
  }
  if (auto it = snap.latencies.find("ivm.batch_ms");
      it != snap.latencies.end() && it->second.count > 0) {
    report->Layer("ivm.batch_ms.p50", it->second.p50, "ms");
    report->Layer("ivm.batch_ms.p99", it->second.p99, "ms");
    report->Layer("ivm.batches",
                  static_cast<double>(it->second.count) / iterations,
                  "count");
  }
  LayerStageTimers(report, snap, iterations);
  report->Layer("serve.queue_depth.max", queue_depth.Max(), "count");
  report->Layer("serve.queue_depth.mean", queue_depth.Mean(), "count");
  report->Layer("serve.generator_lateness_ms.p99", lateness_ms.Quantile(0.99),
                "ms");
  report->Layer("core.policy_actions",
                static_cast<double>(policy_actions) / iterations, "count");
  if (!args.trace) return;
  if (auto it = spans.duration_ms.find("serve.snapshot_copy");
      it != spans.duration_ms.end()) {
    report->Layer("serve.snapshot_copy_ms.p50", it->second.Quantile(0.5),
                  "ms");
  }
  if (auto it = spans.duration_ms.find("serve.snapshot_digest");
      it != spans.duration_ms.end()) {
    report->Layer("serve.snapshot_digest_ms.p50", it->second.Quantile(0.5),
                  "ms");
  }
  report->Layer("serve.snapshot_entries", static_cast<double>(snapshot_entries),
                "count");
  if (auto it = spans.duration_ms.find("serve.ingest");
      it != spans.duration_ms.end()) {
    report->Layer("serve.ingest_call_us.p99", it->second.Quantile(0.99) * 1e3,
                  "us");
  }
  LayerQuantiles(report, spans, "storage.apply", "storage.apply_us", "us",
                 1e3);
  if (auto it = spans.duration_ms.find("storage.apply");
      it != spans.duration_ms.end()) {
    report->Layer("storage.applies",
                  static_cast<double>(it->second.size()) / iterations,
                  "count");
  }
  LayerQuantiles(report, spans, "core.policy_act", "core.policy_act_us", "us",
                 1e3);
}

void ExtraSetups(Samples* setup_s) {
  for (int i = 0; i < kExtraSetups; ++i) {
    obs::MetricRegistry registry;
    ServeRun run;
    StartServer(&registry, &run, setup_s)->Stop();
  }
}

}  // namespace

Report RunServeFresh(const Args& args) {
  Report report;
  obs::MetricRegistry registry;
  Samples setup_s, lateness_ms, queue_depth, fresh_rate;
  IterationQuantiles fresh_ms, lag_ms;
  uint64_t fresh_reads = 0;
  uint64_t policy_actions = 0;
  uint64_t invisible = 0;
  size_t snapshot_entries = 0;
  const double window_s =
      std::max(1.0, args.seconds / kIterations - kWarmupS);
  ExtraSetups(&setup_s);

  for (int iter = 0; iter < kIterations; ++iter) {
    ServeRun run;
    auto server = StartServer(&registry, &run, &setup_s);
    const size_t ps = run.ps_view;
    const size_t start_pos = server->ReadStale(0)->positions[ps];

    std::atomic<uint64_t> ingested{0};
    std::atomic<uint64_t> rejected{0};
    const Clock::time_point begin = Clock::now();
    const Clock::time_point from = After(begin, kWarmupS);
    const Clock::time_point to = After(from, window_s);

    // Open-loop producer: write k is due at begin + k / rate.
    Samples producer_lateness;
    obs::Gauge& depth_gauge = server->metrics().gauge("serve.queue_depth");
    uint64_t writes = 0;
    std::thread producer([&] {
      for (uint64_t k = 0;; ++k) {
        const Clock::time_point due = After(begin, k / kFreshProducerRate);
        if (due >= to) break;
        std::this_thread::sleep_until(due);
        if (due >= from) producer_lateness.Add(MsBetween(due, Clock::now()));
        Status status = Status::Ok();
        {
          SpanScope span("serve.ingest", k);
          status = server->Ingest(MakeUpdate(
              &run, /*supplier=*/false, MixSeed(args.seed, 2, k), due, k));
        }
        ++writes;
        queue_depth.Add(static_cast<double>(depth_gauge.value()));
        if (status.ok()) {
          ingested.fetch_add(1, std::memory_order_release);
        } else {
          rejected.fetch_add(1);
        }
      }
    });

    // Closed-loop fresh readers with think time; each read must cover
    // every write whose Ingest returned before the read was issued.
    struct ReaderResult {
      Samples ms;
      uint64_t attempted = 0;
      uint64_t failed = 0;
      uint64_t behind = 0;
    };
    std::vector<ReaderResult> readers(kFreshReaders);
    std::vector<std::thread> threads;
    for (int r = 0; r < kFreshReaders; ++r) {
      threads.emplace_back([&, r] {
        ReaderResult& out = readers[r];
        Rng think(MixSeed(args.seed, 20 + r, iter));
        for (uint64_t i = 0;; ++i) {
          std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
              -kFreshThinkMs * std::log(1.0 - think.UniformDouble())));
          const Clock::time_point t0 = Clock::now();
          if (t0 >= to) break;
          const uint64_t before = ingested.load(std::memory_order_acquire);
          const bool traced = Tracer::Begin("serve.read_fresh", i) != 0;
          Result<serve::SnapshotPtr> fresh = server->ReadFresh(0);
          if (traced) Tracer::End();
          const Clock::time_point t1 = Clock::now();
          ++out.attempted;
          if (!fresh.ok()) {
            ++out.failed;
            continue;
          }
          if ((*fresh)->positions[ps] < start_pos + before) ++out.behind;
          if (t0 >= from) out.ms.Add(MsBetween(t0, t1));
        }
      });
    }
    producer.join();
    for (std::thread& t : threads) t.join();

    // One last fresh read covers every write; then the log head must be
    // exactly one delta-log entry per applied write.
    Result<serve::SnapshotPtr> final_read = server->ReadFresh(0);
    report.Check(final_read.ok(), "final fresh read failed");
    if (final_read.ok()) {
      const uint64_t done = ingested.load();
      report.Check((*final_read)->positions[ps] - start_pos == done &&
                       run.applied.load() == done,
                   "partsupp log head != writes ingested");
    }
    server->Stop();
    GateServer(*server, run, &report);

    Samples iteration_ms;
    for (const ReaderResult& out : readers) {
      iteration_ms.Append(out.ms);
      report.attempted += out.attempted;
      report.failed += out.failed;
      report.Check(out.behind == 0,
                   std::to_string(out.behind) +
                       " fresh reads returned a snapshot behind the log head");
      fresh_reads += out.ms.size();
    }
    fresh_ms.Add(iteration_ms);
    fresh_rate.Add(iteration_ms.size() / window_s);
    report.attempted += writes;
    report.failed += rejected.load();
    Samples iteration_lag;
    invisible += CollectLag(run, from, to, &iteration_lag);
    lag_ms.Add(iteration_lag);
    lateness_ms.Append(producer_lateness);
    policy_actions += run.policy->actions();
    snapshot_entries = run.snapshot_entries;
  }

  const SpanStats spans = FinishTrace(args, &report);
  report.E2E("setup_s", setup_s.Quantile(0.5), "s");
  report.E2E("latency_p50_ms", fresh_ms.p50.Quantile(0.5), "ms");
  report.E2E("latency_p90_ms", fresh_ms.p90.Quantile(0.5), "ms");
  report.E2E("throughput_per_s", fresh_rate.Quantile(0.5), "1/s");
  report.Info("fresh_read_p50_ms", fresh_ms.p50.Quantile(0.5), "ms");
  report.Info("fresh_read_p99_ms", fresh_ms.p99.Quantile(0.5), "ms");
  report.Info("fresh_read_samples", static_cast<double>(fresh_reads),
              "count");
  report.Info("fresh_reads_per_s", fresh_rate.Quantile(0.5), "1/s");
  report.Info("visible_lag_p50_ms", lag_ms.p50.Quantile(0.5), "ms");
  report.Info("visible_lag_p99_ms", lag_ms.p99.Quantile(0.5), "ms");
  report.Info("writes_not_visible_in_window", static_cast<double>(invisible),
              "count");
  report.Info("producer_lateness_p99_ms", lateness_ms.Quantile(0.99), "ms");
  ServeLayers(args, &report, kIterations, registry, spans, queue_depth,
              lateness_ms, policy_actions, snapshot_entries);
  return report;
}

Report RunServeIngest(const Args& args) {
  Report report;
  obs::MetricRegistry registry;
  Samples setup_s, stale_us, lateness_ms, queue_depth, write_rate;
  IterationQuantiles lag_ms;
  uint64_t policy_actions = 0;
  uint64_t invisible = 0;
  size_t snapshot_entries = 0;
  std::vector<std::pair<uint64_t, uint64_t>> publishes_batches;
  ExtraSetups(&setup_s);

  int iterations = 0;
  const Clock::time_point begin = Clock::now();
  while (iterations < kIterations ||
         MsBetween(begin, Clock::now()) < args.seconds * 1e3) {
    ++iterations;
    ServeRun run;
    auto server = StartServer(&registry, &run, &setup_s);
    obs::Gauge& depth_gauge = server->metrics().gauge("serve.queue_depth");
    obs::Counter& publishes = server->metrics().counter("serve.publishes");
    obs::Counter& batches = server->metrics().counter("serve.batches");

    std::atomic<uint64_t> rejected{0};
    // Producer p sends writes [first, first + count) of its own stream:
    // two partsupp updates, then one supplier update.
    const auto produce = [&](int p, uint64_t first, uint64_t count) {
      for (uint64_t j = first; j < first + count; ++j) {
        const uint64_t request = (static_cast<uint64_t>(p) << 32) | j;
        const Clock::time_point t0 = Clock::now();
        Status status = Status::Ok();
        {
          SpanScope span("serve.ingest", request);
          status = server->Ingest(MakeUpdate(&run, j % 3 == 2,
                                             MixSeed(args.seed, 10 + p, j),
                                             t0, request));
        }
        if (!status.ok()) rejected.fetch_add(1);
      }
    };
    const auto run_producers = [&](uint64_t first, uint64_t per_producer) {
      std::vector<std::thread> producers;
      for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back(produce, p, first, per_producer);
      }
      for (std::thread& t : producers) t.join();
    };
    // Waits until the maintenance thread applied `target` writes.
    const auto await_applied = [&](uint64_t target) {
      const Clock::time_point give_up = After(Clock::now(), 60.0);
      while (run.applied.load(std::memory_order_acquire) <
             target - rejected.load()) {
        if (Clock::now() > give_up) {
          report.Fail("writes were not applied within 60 s");
          return;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    };

    // Warm-up: workspace growth and the first epochs.
    const uint64_t warm_per = kIngestWarmupWrites / kProducers;
    run_producers(0, warm_per);
    await_applied(warm_per * kProducers);
    const uint64_t publishes0 = publishes.value();
    const uint64_t batches0 = batches.value();

    // Measured phase, with the open-loop stale reader alongside.
    const uint64_t per = kIngestWrites / kProducers;
    std::atomic<bool> stop_reader{false};
    const Clock::time_point from = Clock::now();
    Samples reader_us, reader_lateness, reader_depth;
    uint64_t reads = 0;
    uint64_t null_reads = 0;
    std::thread reader([&] {
      for (uint64_t k = 0; !stop_reader.load(); ++k) {
        const Clock::time_point due = After(from, k / kStaleReaderRate);
        std::this_thread::sleep_until(due);
        reader_lateness.Add(MsBetween(due, Clock::now()));
        {
          SpanScope span("serve.read_stale", k);
          serve::SnapshotPtr snap = server->ReadStale(0);
          if (snap == nullptr || !snap->state.ScalarMin().has_value()) {
            ++null_reads;
          }
        }
        reader_us.Add(MsBetween(due, Clock::now()) * 1e3);
        reader_depth.Add(static_cast<double>(depth_gauge.value()));
        ++reads;
      }
    });
    run_producers(warm_per, per);
    await_applied((warm_per + per) * kProducers);
    stop_reader.store(true);
    reader.join();
    const Clock::time_point to = run.last_apply;
    publishes_batches.emplace_back(publishes.value() - publishes0,
                                   batches.value() - batches0);
    server->Stop();
    GateServer(*server, run, &report);

    write_rate.Add(per * kProducers / (MsBetween(from, to) / 1e3));
    report.attempted += (warm_per + per) * kProducers + reads;
    report.failed += rejected.load() + null_reads;
    Samples iteration_lag;
    invisible +=
        CollectLag(run, from, Clock::time_point::max(), &iteration_lag);
    lag_ms.Add(iteration_lag);
    stale_us.Append(reader_us);
    lateness_ms.Append(reader_lateness);
    queue_depth.Append(reader_depth);
    policy_actions += run.policy->actions();
    snapshot_entries = run.snapshot_entries;
  }

  const SpanStats spans = FinishTrace(args, &report);
  report.E2E("setup_s", setup_s.Quantile(0.5), "s");
  report.E2E("latency_p50_ms", lag_ms.p50.Quantile(0.5), "ms");
  report.E2E("latency_p90_ms", lag_ms.p90.Quantile(0.5), "ms");
  report.E2E("throughput_per_s", write_rate.Quantile(0.5), "1/s");
  report.Info("ingest_writes_per_s", write_rate.Quantile(0.5), "1/s");
  report.Info("visible_lag_p50_ms", lag_ms.p50.Quantile(0.5), "ms");
  report.Info("visible_lag_p99_ms", lag_ms.p99.Quantile(0.5), "ms");
  report.Info("writes_not_visible_in_window", static_cast<double>(invisible),
              "count");
  report.Info("stale_read_p99_us", stale_us.Quantile(0.99), "us");
  report.Info("stale_read_samples", static_cast<double>(stale_us.size()),
              "count");
  report.Info("reader_lateness_p99_ms", lateness_ms.Quantile(0.99), "ms");
  // The measured phase is a fixed write sequence per seed, so its
  // publishes and batches repeat up to scheduling: which writes share a
  // 256-op drain depends on how the two producers' pushes interleave,
  // which moves a batch now and then. More than 2% apart means the
  // maintenance behaviour changed.
  std::string counts;
  bool repeated = true;
  const auto near = [](uint64_t a, uint64_t b) {
    return std::max(a, b) - std::min(a, b) <= std::max(a, b) / 50;
  };
  for (const auto& [p, b] : publishes_batches) {
    counts += std::to_string(p) + "/" + std::to_string(b) + " ";
    repeated = repeated && near(p, publishes_batches.front().first) &&
               near(b, publishes_batches.front().second);
  }
  report.Info("publishes/batches per iteration", counts);
  report.Check(repeated, "publishes/batches did not repeat: " + counts);
  ServeLayers(args, &report, iterations, registry, spans, queue_depth,
              lateness_ms, policy_actions, snapshot_entries);
  return report;
}

}  // namespace perfbench
