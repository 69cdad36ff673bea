// In-memory span recording for the benchmark's traced run.
//
// The benchmark records one span around each public call it makes into the
// program (zoo load, tuned lowering, detector stages, server calls). Spans
// that belong to one scene or request carry the same id. Everything stays in
// memory until the run ends; then the spans are folded into per-layer
// metrics and written out as one chrome://tracing document together with
// the program's own spans.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "prof_adapter.h"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One span recorded by the benchmark around a call into the program.
struct BenchSpan {
  std::string name;
  std::uint64_t id = 0;  ///< scene or request id; 0 for set-up calls
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
};

/// Single-threaded recorder: every call the benchmark makes into the program
/// comes from its one main thread.
class Recorder {
 public:
  class Scope {
   public:
    Scope(Recorder* rec, const char* name, std::uint64_t id)
        : rec_(rec), name_(name), id_(id), start_(now_ns()) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (rec_ != nullptr)
        rec_->spans_.push_back({name_, id_, start_, now_ns() - start_});
    }

   private:
    Recorder* rec_;
    const char* name_;
    std::uint64_t id_;
    std::int64_t start_;
  };

  void set_enabled(bool on) { enabled_ = on; }
  /// Times the enclosing scope as span `name` when recording is enabled.
  Scope span(const char* name, std::uint64_t id = 0) {
    return Scope(enabled_ ? this : nullptr, name, id);
  }

  const std::vector<BenchSpan>& spans() const { return spans_; }
  /// Durations (ms) of every recorded span called `name`, in record order.
  std::vector<double> durations_ms(const std::string& name) const;
  /// Per-id duration (ms) of spans called `name`, summed per id.
  std::map<std::uint64_t, double> by_id_ms(const std::string& name) const;

 private:
  bool enabled_ = false;
  std::vector<BenchSpan> spans_;
};

/// Self time per span name, in ms: each span whose name is in `modules`
/// is charged its duration minus the part covered by its nearest
/// descendants that are also in `modules` (same thread). Spans of other
/// names (kernels, pool jobs) count as their nearest module ancestor's
/// own work.
std::map<std::string, double> self_ms(
    const std::vector<telemetry::Span>& spans,
    const std::set<std::string>& modules);

/// Writes both span sets as one chrome://tracing document; false on I/O
/// failure.
bool write_chrome_trace(const std::string& path,
                        const std::vector<BenchSpan>& bench,
                        const std::vector<telemetry::Span>& program);

}  // namespace perfbench
