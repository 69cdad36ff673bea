#include "prof_adapter.h"

#include "prof/prof.h"

namespace perfbench::telemetry {

using upaq::prof::Counter;

void start() {
  upaq::prof::set_enabled(false);
  upaq::prof::reset();
  upaq::prof::set_enabled(true);
}

std::vector<Span> stop(Counters* counters) {
  upaq::prof::set_enabled(false);
  if (counters != nullptr) {
    counters->qgemm_macs = upaq::prof::counter_value(Counter::kQgemmMacs);
    counters->gemm_flops = upaq::prof::counter_value(Counter::kGemmFlops);
    counters->panel_builds = upaq::prof::counter_value(Counter::kPanelBuilds);
  }
  std::vector<Span> out;
  for (auto& e : upaq::prof::snapshot_events())
    out.push_back({std::move(e.name), e.tid, e.start_ns, e.dur_ns});
  upaq::prof::reset();
  return out;
}

double percentile_sorted(const std::vector<double>& sorted, double q) {
  return upaq::prof::percentile(sorted, q);
}

}  // namespace perfbench::telemetry
