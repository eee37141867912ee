// Shared pieces of the repository benchmark: arguments, sample sets,
// the report every workload fills, and the span tracer.
//
// A workload measures end-to-end numbers with plain clock reads (always
// on) and, in a traced run, additionally records spans around each call
// it makes into a layer. Per-layer metrics are derived from those spans
// and from the instruments the program already exports.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout (durable run directories and
  /// the span dump go here).
  std::string work_dir = ".bench_build/work";
};

/// Deterministic 64-bit mix of a seed and a stream/index pair, so every
/// generated input derives from the workload seed alone.
uint64_t MixSeed(uint64_t seed, uint64_t stream, uint64_t index);

/// A set of raw samples; quantiles interpolate linearly between order
/// statistics (numpy's default), so they carry every measured digit.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Quantile(double q) const;
  double Sum() const;
  double Mean() const { return empty() ? 0.0 : Sum() / values_.size(); }
  double Max() const;

 private:
  std::vector<double> values_;
};

/// What one workload run produces. Metric names must appear in the
/// canonical lists in main.cc (and BENCHMARK.json); the human-readable
/// `info` lines carry everything else worth printing.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, std::pair<double, std::string>> end_to_end;
  std::map<std::string, std::pair<double, std::string>> per_layer;
  std::vector<std::pair<std::string, std::string>> info;

  void Fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
  void Check(bool ok, const std::string& why) {
    if (!ok) Fail(why);
  }
  void E2E(const std::string& name, double value, const std::string& unit) {
    end_to_end[name] = {value, unit};
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer[name] = {value, unit};
  }
  /// A named measurement that is printed but not part of the JSON result.
  void Info(const std::string& name, double value, const std::string& unit);
  void Info(const std::string& name, const std::string& text) {
    info.emplace_back(name, text);
  }
};

// ---------------------------------------------------------------------
// Tracing. Spans live in per-thread buffers in memory; Collect() runs
// after every recording thread has been joined.

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // request/step id shared by related spans
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;
  double ms() const { return MsBetween(start, end); }
};

class Tracer {
 public:
  static void Enable(bool on);
  static bool enabled();

  /// Opens a span on the calling thread (its parent is the innermost
  /// open span of this thread); returns its id, 0 when tracing is off.
  static uint64_t Begin(const char* name, uint64_t request = 0);
  /// Closes the innermost open span of the calling thread.
  static void End();
  /// Records a closed span whose interval was measured elsewhere (e.g. a
  /// BatchResult's wall time), as a child of the innermost open span.
  static void Record(const char* name, Clock::time_point start,
                     Clock::time_point end, uint64_t request = 0);

  /// Every span recorded so far, all threads. Call only after joining
  /// the threads that recorded. Clears the buffers.
  static std::vector<Span> Collect();
};

/// RAII span.
class SpanScope {
 public:
  explicit SpanScope(const char* name, uint64_t request = 0)
      : open_(Tracer::Begin(name, request) != 0) {}
  ~SpanScope() {
    if (open_) Tracer::End();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  bool open_;
};

/// Span durations (ms) by name, and self times (duration minus the time
/// covered by direct children) by name.
struct SpanStats {
  std::map<std::string, Samples> duration_ms;
  std::map<std::string, Samples> self_ms;
};

/// In a traced run: collects every span, writes them as TSV (id, parent,
/// request, name, start_us, end_us; times relative to the earliest span)
/// to `<work_dir>/spans-<workload>.tsv`, and summarizes them. Returns
/// empty stats when tracing is off.
SpanStats FinishTrace(const Args& args, Report* report);

// Workload entry points.
Report RunServeFresh(const Args& args);
Report RunServeIngest(const Args& args);
Report RunEngineDurable(const Args& args);
Report RunPlanLgm(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
