#include "layers.h"

#include "tpc/tpc_gen.h"
#include "tpc/views.h"

namespace perfbench {

std::unique_ptr<abivm::Database> MakePaperDatabase() {
  auto db = std::make_unique<abivm::Database>();
  abivm::TpcGenOptions options;
  options.scale_factor = kScaleFactor;
  abivm::GenerateTpcDatabase(db.get(), options);
  abivm::CreatePaperIndexes(db.get());
  return db;
}

void LayerQuantiles(Report* report, const SpanStats& stats,
                    const std::string& span, const std::string& prefix,
                    const std::string& unit, double scale) {
  auto it = stats.duration_ms.find(span);
  if (it == stats.duration_ms.end()) return;
  report->Layer(prefix + ".p50", it->second.Quantile(0.5) * scale, unit);
  report->Layer(prefix + ".p99", it->second.Quantile(0.99) * scale, unit);
}

void LayerStageTimers(Report* report, const abivm::obs::MetricsSnapshot& snap,
                      int iterations) {
  for (const auto& [name, timer] : snap.timers) {
    if (name.rfind("ivm.op.partsupp.", 0) == 0 ||
        name.rfind("ivm.op.supplier.", 0) == 0) {
      report->Layer(name, timer.total_ms / iterations, "ms");
    }
  }
}

}  // namespace perfbench
