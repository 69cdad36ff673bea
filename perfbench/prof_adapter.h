// The benchmark's only reader of the program's in-process telemetry.
//
// Per-layer spans (nn::Layer::forward, the qnn engines, detector stages,
// serve stages, pool jobs) and the GEMM work counters are recorded by the
// program's own `prof` layer. Everything the benchmark takes from that layer
// goes through the three calls below, so replacing the telemetry layer means
// replacing this adapter and nothing else.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench::telemetry {

/// One completed program span, in the program's own naming.
struct Span {
  std::string name;
  std::uint64_t tid = 0;       ///< recording thread (program-assigned id)
  std::int64_t start_ns = 0;   ///< steady-clock nanoseconds
  std::int64_t dur_ns = 0;
};

/// Work counters accumulated while recording was on.
struct Counters {
  std::uint64_t qgemm_macs = 0;    ///< integer-GEMM multiply-accumulates
  std::uint64_t gemm_flops = 0;    ///< float GEMM scalar ops (2*m*n*k)
  std::uint64_t panel_builds = 0;  ///< packed-weight panel builds
};

/// Clears recorded spans and counters and turns recording on.
void start();

/// Turns recording off and returns what was recorded since start().
std::vector<Span> stop(Counters* counters);

/// The repository's one percentile definition (linear interpolation at
/// rank q * (n - 1)) over an ascending-sorted sample.
double percentile_sorted(const std::vector<double>& sorted, double q);

}  // namespace perfbench::telemetry
