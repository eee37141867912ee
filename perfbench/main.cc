// perfbench: the repository benchmark.
//
//   perfbench --workload <serve_fresh|serve_ingest|engine_durable|plan_lgm>
//             --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// Prints every measurement by name with its unit, then, as the last line,
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics in an untraced run, the per-layer metrics in a
// traced one. Exits 1 when a correctness gate failed, 2 on bad usage.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_p50_ms", "ms"},
    {"latency_p90_ms", "ms"},
    {"throughput_per_s", "1/s"},
};

// Must match BENCHMARK.json. A workload that does not exercise a layer
// reports 0 for it.
constexpr MetricSpec kPerLayer[] = {
    {"traced.latency_p50_ms", "ms"},
    {"traced.throughput_per_s", "1/s"},
    {"serve.flush_ms.p50", "ms"},
    {"serve.flush_ms.p99", "ms"},
    {"serve.reads_per_flush", "ratio"},
    {"serve.snapshot_copy_ms.p50", "ms"},
    {"serve.snapshot_digest_ms.p50", "ms"},
    {"serve.snapshot_entries", "count"},
    {"serve.ingest_call_us.p99", "us"},
    {"serve.queue_depth.max", "count"},
    {"serve.queue_depth.mean", "count"},
    {"serve.cycles", "count"},
    {"serve.publishes", "count"},
    {"serve.batches", "count"},
    {"serve.budget_violations", "count"},
    {"serve.generator_lateness_ms.p99", "ms"},
    {"storage.apply_us.p50", "us"},
    {"storage.apply_us.p99", "us"},
    {"storage.applies", "count"},
    {"core.policy_act_us.p50", "us"},
    {"core.policy_act_us.p99", "us"},
    {"core.policy_actions", "count"},
    {"core.astar_ms.fig1", "ms"},
    {"core.astar_ms.asym2", "ms"},
    {"core.astar_ms.tri3", "ms"},
    {"core.astar_nodes_expanded", "count"},
    {"core.astar_nodes_generated", "count"},
    {"core.astar_frontier_peak", "count"},
    {"core.astar_ns_per_node", "ns"},
    {"ivm.batch_ms.p50", "ms"},
    {"ivm.batch_ms.p99", "ms"},
    {"ivm.batches", "count"},
    {"ivm.delta_rows_in", "count"},
    {"ivm.view_updates", "count"},
    {"ivm.op.partsupp.s0.prepare", "ms"},
    {"ivm.op.partsupp.s1.join_supplier", "ms"},
    {"ivm.op.partsupp.s2.join_nation", "ms"},
    {"ivm.op.partsupp.s3.join_region", "ms"},
    {"ivm.op.supplier.s0.prepare", "ms"},
    {"ivm.op.supplier.s1.join_nation", "ms"},
    {"ivm.op.supplier.s2.join_region", "ms"},
    {"ivm.op.supplier.s3.join_partsupp", "ms"},
    {"exec.rows_scanned", "count"},
    {"exec.index_probes", "count"},
    {"exec.hash_build_rows", "count"},
    {"exec.output_rows", "count"},
    {"ckpt.wal_append_ms.p50", "ms"},
    {"ckpt.wal_append_ms.p99", "ms"},
    {"ckpt.step_end_ms.p50", "ms"},
    {"ckpt.step_end_ms.p99", "ms"},
    {"ckpt.publish_ms.p50", "ms"},
    {"ckpt.checkpoints", "count"},
    {"ckpt.deltas", "count"},
    {"ckpt.bytes_written", "B"},
    {"ckpt.wal_records", "count"},
    {"ckpt.wal_bytes_trimmed", "B"},
    {"gc.rows_reclaimed", "count"},
    {"recovery.replayed_records", "count"},
    {"recovery.chain_deltas", "count"},
    {"sim.step_ms.p50", "ms"},
    {"sim.step_ms.p99", "ms"},
    {"sim.runner_self_ms", "ms"},
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') Usage("--seed expects a number");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0)) {
        Usage("--seconds expects a positive number");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        Usage("--trace expects 0 or 1");
      }
      args.trace = value[0] == '1';
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  return args;
}

// Fills the canonical metric list from `measured`; a measured name that is
// not in the list is a benchmark bug.
template <size_t N>
std::string MetricsJson(
    const MetricSpec (&specs)[N],
    const std::map<std::string, std::pair<double, std::string>>& measured,
    Report* report) {
  for (const auto& [name, value] : measured) {
    bool known = false;
    for (const MetricSpec& spec : specs) {
      known = known || (name == spec.name && value.second == spec.unit);
    }
    if (!known) report->Fail("metric not in BENCHMARK.json: " + name);
  }
  std::string json = "{";
  for (const MetricSpec& spec : specs) {
    auto it = measured.find(spec.name);
    double value = it == measured.end() ? 0.0 : it->second.first;
    if (!std::isfinite(value)) {
      report->Fail(std::string("non-finite metric ") + spec.name);
      value = 0.0;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.size() > 1 ? ", " : "", spec.name, value, spec.unit);
    json += buf;
  }
  return json + "}";
}

void PrintMetrics(
    const char* section,
    const std::map<std::string, std::pair<double, std::string>>& metrics) {
  for (const auto& [name, value] : metrics) {
    std::printf("%-10s %-36s %.6g %s\n", section, name.c_str(), value.first,
                value.second.c_str());
  }
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) Usage(("cannot create work dir " + args.work_dir).c_str());
  Tracer::Enable(args.trace);

  Report report;
  if (args.workload == "serve_fresh") {
    report = RunServeFresh(args);
  } else if (args.workload == "serve_ingest") {
    report = RunServeIngest(args);
  } else if (args.workload == "engine_durable") {
    report = RunEngineDurable(args);
  } else if (args.workload == "plan_lgm") {
    report = RunPlanLgm(args);
  } else {
    Usage(("unknown workload " + args.workload).c_str());
  }
  if (report.attempted == 0) report.Fail("no operation attempted");

  if (args.trace) {
    // The same end-to-end numbers measured under tracing; compared with
    // the untraced run they give the tracing overhead.
    for (const char* name : {"latency_p50_ms", "throughput_per_s"}) {
      auto it = report.end_to_end.find(name);
      if (it != report.end_to_end.end()) {
        report.Layer(std::string("traced.") + name, it->second.first,
                     it->second.second);
      }
    }
  }

  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  PrintMetrics("e2e", report.end_to_end);
  PrintMetrics("layer", report.per_layer);
  for (const auto& [name, text] : report.info) {
    std::printf("%-10s %-36s %s\n", "info", name.c_str(), text.c_str());
  }
  const std::string metrics =
      args.trace ? MetricsJson(kPerLayer, report.per_layer, &report)
                 : MetricsJson(kEndToEnd, report.end_to_end, &report);
  for (const std::string& error : report.errors) {
    std::printf("%-10s %s\n", "MISMATCH", error.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      report.correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
