// upaq::prof — thread-safe, near-zero-overhead-when-disabled observability.
//
// Tracing is gated by the UPAQ_TRACE environment variable (any value other
// than "0"/"" enables it) or by set_enabled(). When disabled, every entry
// point reduces to one relaxed atomic load and an early return: no clock
// reads, no allocation, no locks — so an untraced run is bitwise identical
// to a build without prof at all (timing never feeds back into arithmetic
// either way; the determinism suite pins this down).
//
// When enabled:
//   - Span is a scoped RAII timer. Spans nest (a thread-local depth counter
//     tags each event) and each thread appends completed spans to its own
//     event buffer, so recording never contends across threads beyond one
//     uncontended per-buffer mutex (taken only to coordinate with snapshot).
//   - Counters are process-global monotonic atomics (GEMM FLOPs, im2col
//     bytes, activation-quantization calls, packed-segment kernel hits,
//     thread-pool jobs/tasks) bumped with relaxed fetch_add.
//   - snapshot_events() merges every thread's buffer; aggregate() folds the
//     merged events into a per-span-name stats table (count, total, mean,
//     p50, p99) and chrome_trace_json() renders a chrome://tracing document
//     ("X" complete events, strictly timestamp-ordered per thread).
//
// Layering: prof sits below parallel/tensor — it depends on nothing but the
// standard library. The measured-vs-modeled cost report, which needs the
// hw cost model, lives in prof/report.h as a separate library.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace upaq::prof {

/// True when tracing is active. First call resolves UPAQ_TRACE from the
/// environment; afterwards it is a single relaxed atomic load.
bool enabled();

/// Overrides the UPAQ_TRACE setting (tests and the profile tools force
/// tracing on regardless of the environment).
void set_enabled(bool on);

/// Process-global monotonic counters. Each add() is one relaxed fetch_add
/// when tracing is on and a no-op when it is off.
enum class Counter : int {
  kGemmFlops = 0,     ///< float GEMM multiply+add scalar ops (2*m*n*k)
  kIm2colBytes,       ///< bytes materialized into column matrices
  kActQuantCalls,     ///< activation-quantization invocations (qnn)
  kPackedSegments,    ///< packed-GEMM scale segments executed
  kPoolJobs,          ///< thread-pool run() dispatches
  kPoolTasks,         ///< thread-pool tasks executed
  kGemmKernelCalls,   ///< blocked/sparse GEMM kernel entry invocations
  kWorkspaceBytes,    ///< bytes of workspace arena blocks allocated
  kWorkspaceReuses,   ///< workspace allocations served without the heap
  kQgemmMacs,         ///< integer-GEMM multiply-accumulates (surviving
                      ///< entries x output columns; segment + panel paths)
  kServeBatches,      ///< serve: cross-scene batches formed
  kServeScenes,       ///< serve: scenes completed through the pipeline
  kServeShed,         ///< serve: requests shed (capacity overflow + deadline)
  kPanelBuilds,       ///< packed-weight decodes/packs (qnn::build_gemm calls)
  kCount,
};

const char* counter_name(Counter c);
void add(Counter c, std::uint64_t n);
std::uint64_t counter_value(Counter c);

/// One completed span, as merged out of a thread buffer.
struct Event {
  std::string name;
  std::string detail;        ///< optional (shape string etc.), may be empty
  std::uint64_t tid = 0;     ///< prof-assigned sequential thread id
  std::int64_t start_ns = 0; ///< steady-clock nanoseconds
  std::int64_t dur_ns = 0;
  int depth = 0;             ///< nesting depth on the recording thread (1 = top)
};

/// Scoped RAII timer. Constructing with tracing disabled records nothing
/// and costs one branch; the name/detail strings are only copied when
/// tracing is on.
class Span {
 public:
  explicit Span(const char* name);
  Span(const char* name, std::string detail);
  Span(std::string name, std::string detail);
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span();

 private:
  void open(const char* name, std::string detail);
  std::string name_;
  std::string detail_;
  std::int64_t start_ns_ = -1;  ///< -1: disabled at construction, record nothing
  int depth_ = 0;
};

/// Names the calling thread for trace export ("pool/worker/2"...). Safe to
/// call whether or not tracing is on; the name sticks for the thread's life.
void set_thread_name(std::string name);

/// Key/value attached to the trace document header ("upaq_threads" etc.).
/// The thread pool records its resolved lane count here so every exported
/// trace is self-describing.
void set_metadata(const std::string& key, const std::string& value);
std::vector<std::pair<std::string, std::string>> metadata();

/// Merged copy of every thread's completed spans (unordered across threads).
std::vector<Event> snapshot_events();

/// prof-assigned thread id -> name, for threads that called set_thread_name.
std::vector<std::pair<std::uint64_t, std::string>> thread_names();

/// Clears all recorded events and zeroes every counter (metadata and thread
/// names persist). Live spans started before reset() still record on exit.
void reset();

/// Linearly-interpolated percentile over an ascending-sorted sample:
/// rank = q * (n - 1), interpolating between the two bracketing samples
/// (n == 1 returns the sample, n == 0 returns 0). Every percentile the
/// repo reports — the stats table below, the bench JSON emitters, and the
/// serve tail-latency report — goes through this one definition, so a
/// p50 printed by one surface always matches the same data printed by
/// another. `q` is a fraction in [0, 1].
double percentile(const std::vector<double>& sorted, double q);

/// Per-span-name aggregate over a set of events.
struct SpanStats {
  std::string name;
  std::int64_t count = 0;
  double total_ms = 0.0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
};

/// Groups events by name and computes count/total/mean/p50/p90/p99, sorted
/// by descending total time.
std::vector<SpanStats> aggregate(const std::vector<Event>& events);

/// Renders the stats as a fixed-width text table.
std::string stats_table(const std::vector<SpanStats>& stats,
                        std::size_t max_rows = 0);

/// chrome://tracing document of the current events: one "X" event per span
/// (per-thread strictly increasing timestamps), thread_name metadata events,
/// and counters + metadata under "otherData".
std::string chrome_trace_json();

/// Writes chrome_trace_json() to `path`; false on I/O failure.
bool write_chrome_trace(const std::string& path);

}  // namespace upaq::prof
