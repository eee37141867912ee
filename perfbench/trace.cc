#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "bench.h"

namespace perfbench {

uint64_t MixSeed(uint64_t seed, uint64_t stream, uint64_t index) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL ^
               (stream + 1) * 0xbf58476d1ce4e5b9ULL ^
               (index + 1) * 0x94d049bb133111ebULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double Samples::Sum() const {
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum;
}

double Samples::Max() const {
  return values_.empty() ? 0.0
                         : *std::max_element(values_.begin(), values_.end());
}

void Report::Info(const std::string& name, double value,
                  const std::string& unit) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  info.emplace_back(name, std::string(buf) + " " + unit);
}

namespace {

struct ThreadBuffer {
  uint64_t thread_index = 0;
  uint64_t next_local = 0;
  std::vector<Span> spans;
  std::vector<size_t> open;  // indices into spans
};

std::atomic<bool> g_enabled{false};
std::mutex g_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded by g_mu
thread_local ThreadBuffer* t_buffer = nullptr;

ThreadBuffer& Buffer() {
  if (t_buffer == nullptr) {
    std::lock_guard<std::mutex> lk(g_mu);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    t_buffer = g_buffers.back().get();
    t_buffer->thread_index = g_buffers.size();
  }
  return *t_buffer;
}

uint64_t NextId(ThreadBuffer& b) {
  return (b.thread_index << 40) | ++b.next_local;
}

uint64_t OpenParent(const ThreadBuffer& b) {
  return b.open.empty() ? 0 : b.spans[b.open.back()].id;
}

}  // namespace

void Tracer::Enable(bool on) { g_enabled.store(on); }
bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

uint64_t Tracer::Begin(const char* name, uint64_t request) {
  if (!enabled()) return 0;
  ThreadBuffer& b = Buffer();
  Span span;
  span.id = NextId(b);
  span.parent = OpenParent(b);
  span.request = request;
  span.name = name;
  span.start = Clock::now();
  b.open.push_back(b.spans.size());
  b.spans.push_back(span);
  return span.id;
}

void Tracer::End() {
  if (!enabled()) return;
  ThreadBuffer& b = Buffer();
  if (b.open.empty()) return;
  b.spans[b.open.back()].end = Clock::now();
  b.open.pop_back();
}

void Tracer::Record(const char* name, Clock::time_point start,
                    Clock::time_point end, uint64_t request) {
  if (!enabled()) return;
  ThreadBuffer& b = Buffer();
  Span span;
  span.id = NextId(b);
  span.parent = OpenParent(b);
  span.request = request;
  span.name = name;
  span.start = start;
  span.end = end;
  b.spans.push_back(span);
}

std::vector<Span> Tracer::Collect() {
  std::lock_guard<std::mutex> lk(g_mu);
  std::vector<Span> all;
  for (auto& b : g_buffers) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
    b->spans.clear();
    b->open.clear();
  }
  return all;
}

namespace {

SpanStats Summarize(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, double> child_ms;
  for (const Span& s : spans) {
    if (s.parent != 0) child_ms[s.parent] += s.ms();
  }
  SpanStats stats;
  for (const Span& s : spans) {
    const double ms = s.ms();
    stats.duration_ms[s.name].Add(ms);
    auto it = child_ms.find(s.id);
    stats.self_ms[s.name].Add(it == child_ms.end() ? ms : ms - it->second);
  }
  return stats;
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  Clock::time_point origin = Clock::time_point::max();
  for (const Span& s : spans) origin = std::min(origin, s.start);
  const auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  out << "id\tparent\trequest\tname\tstart_us\tend_us\n";
  for (const Span& s : spans) {
    out << s.id << '\t' << s.parent << '\t' << s.request << '\t' << s.name
        << '\t' << us(s.start) << '\t' << us(s.end) << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace

SpanStats FinishTrace(const Args& args, Report* report) {
  if (!Tracer::enabled()) return {};
  const std::vector<Span> spans = Tracer::Collect();
  const std::string path = args.work_dir + "/spans-" + args.workload + ".tsv";
  report->Check(WriteSpans(spans, path), "cannot write " + path);
  report->Info("trace.file", path);
  report->Info("trace.spans", static_cast<double>(spans.size()), "count");
  return Summarize(spans);
}

}  // namespace perfbench
