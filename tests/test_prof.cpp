// upaq::prof contract tests: span nesting, counter atomicity, the
// disabled-mode "costs nothing, changes nothing" guarantee, per-layer and
// per-worker span coverage on a real detector forward, and the chrome-trace
// export invariants (parseable, strictly timestamp-ordered per thread).
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "data/scene.h"
#include "detectors/pointpillars.h"
#include "parallel/thread_pool.h"
#include "prof/prof.h"
#include "prof/report.h"
#include "serve/serve.h"

namespace upaq {
namespace {

/// Every test owns the global prof state: start traced, empty, serial.
class ProfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    parallel::set_thread_count(1);
    prof::set_enabled(true);
    prof::reset();
  }
  void TearDown() override {
    prof::set_enabled(false);
    prof::reset();
    parallel::set_thread_count(1);
  }
};

const prof::Event* find_event(const std::vector<prof::Event>& events,
                              const std::string& name) {
  for (const auto& e : events)
    if (e.name == name) return &e;
  return nullptr;
}

TEST_F(ProfTest, NestedSpansRecordDepthAndContainment) {
  {
    prof::Span outer("outer");
    {
      prof::Span inner("inner", "detail-string");
      prof::Span innermost("innermost");
    }
  }
  const auto events = prof::snapshot_events();
  ASSERT_EQ(events.size(), 3u);

  const auto* outer = find_event(events, "outer");
  const auto* inner = find_event(events, "inner");
  const auto* innermost = find_event(events, "innermost");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(innermost, nullptr);

  EXPECT_EQ(outer->depth, 1);
  EXPECT_EQ(inner->depth, 2);
  EXPECT_EQ(innermost->depth, 3);
  EXPECT_EQ(inner->detail, "detail-string");

  // Children start no earlier and end no later than their parent.
  EXPECT_GE(inner->start_ns, outer->start_ns);
  EXPECT_LE(inner->start_ns + inner->dur_ns, outer->start_ns + outer->dur_ns);
  EXPECT_GE(innermost->start_ns, inner->start_ns);
  EXPECT_LE(innermost->start_ns + innermost->dur_ns,
            inner->start_ns + inner->dur_ns);
  // All on the recording (main) thread.
  EXPECT_EQ(outer->tid, inner->tid);
  EXPECT_EQ(inner->tid, innermost->tid);
}

TEST_F(ProfTest, SiblingSpansShareDepth) {
  {
    prof::Span a("first");
  }
  {
    prof::Span b("second");
  }
  const auto events = prof::snapshot_events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].depth, 1);
  EXPECT_EQ(events[1].depth, 1);
}

TEST_F(ProfTest, CountersAreExactUnderConcurrentHammer) {
  constexpr int kThreads = 4;
  constexpr int kIters = 50000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([] {
      for (int i = 0; i < kIters; ++i) {
        prof::add(prof::Counter::kGemmFlops, 3);
        prof::add(prof::Counter::kIm2colBytes, 1);
      }
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(prof::counter_value(prof::Counter::kGemmFlops),
            static_cast<std::uint64_t>(kThreads) * kIters * 3);
  EXPECT_EQ(prof::counter_value(prof::Counter::kIm2colBytes),
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(prof::counter_value(prof::Counter::kActQuantCalls), 0u);
}

TEST_F(ProfTest, ResetClearsEventsAndCounters) {
  {
    prof::Span s("before-reset");
  }
  prof::add(prof::Counter::kPoolJobs, 7);
  prof::reset();
  EXPECT_TRUE(prof::snapshot_events().empty());
  EXPECT_EQ(prof::counter_value(prof::Counter::kPoolJobs), 0u);
}

TEST_F(ProfTest, DisabledModeRecordsNothing) {
  prof::set_enabled(false);
  {
    prof::Span s("invisible", "never copied");
  }
  prof::add(prof::Counter::kGemmFlops, 1234);
  EXPECT_TRUE(prof::snapshot_events().empty());
  EXPECT_EQ(prof::counter_value(prof::Counter::kGemmFlops), 0u);
}

/// A span straddling a set_enabled(false) must not crash; one opened while
/// disabled records nothing even if tracing is re-enabled before it closes.
TEST_F(ProfTest, TogglingMidSpanIsSafe) {
  {
    prof::Span open_while_on("open-while-on");
    prof::set_enabled(false);
  }
  {
    prof::Span open_while_off("open-while-off");
    prof::set_enabled(true);
  }
  const auto events = prof::snapshot_events();
  EXPECT_NE(find_event(events, "open-while-on"), nullptr);
  EXPECT_EQ(find_event(events, "open-while-off"), nullptr);
}

/// True for cost-profile rows that name a BatchNorm layer: eval-mode
/// inference runs them fused into the preceding conv, with no span.
bool is_fused_bn(detectors::PointPillars& model, const std::string& name) {
  const nn::Layer* l = model.find_layer(name);
  return l != nullptr && l->kind() == nn::LayerKind::kBatchNorm;
}

std::vector<eval::Box3D> detect_once(bool traced) {
  prof::set_enabled(traced);
  Rng rng(4242);
  detectors::PointPillars model(detectors::PointPillarsConfig::scaled(), rng);
  model.set_training(false);
  Rng srng(99);
  data::SceneGenerator gen;
  const auto scene = gen.sample(srng);
  auto boxes = model.detect(scene);
  prof::set_enabled(true);
  return boxes;
}

TEST_F(ProfTest, TracingDoesNotPerturbDetections) {
  const auto off = detect_once(false);
  prof::reset();
  const auto on = detect_once(true);
  ASSERT_EQ(off.size(), on.size());
  for (std::size_t i = 0; i < off.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(off[i].x),
              std::bit_cast<std::uint32_t>(on[i].x));
    EXPECT_EQ(std::bit_cast<std::uint32_t>(off[i].y),
              std::bit_cast<std::uint32_t>(on[i].y));
    EXPECT_EQ(std::bit_cast<std::uint32_t>(off[i].z),
              std::bit_cast<std::uint32_t>(on[i].z));
    EXPECT_EQ(std::bit_cast<std::uint32_t>(off[i].length),
              std::bit_cast<std::uint32_t>(on[i].length));
    EXPECT_EQ(std::bit_cast<std::uint32_t>(off[i].width),
              std::bit_cast<std::uint32_t>(on[i].width));
    EXPECT_EQ(std::bit_cast<std::uint32_t>(off[i].height),
              std::bit_cast<std::uint32_t>(on[i].height));
    EXPECT_EQ(std::bit_cast<std::uint32_t>(off[i].yaw),
              std::bit_cast<std::uint32_t>(on[i].yaw));
    EXPECT_EQ(std::bit_cast<std::uint32_t>(off[i].score),
              std::bit_cast<std::uint32_t>(on[i].score));
    EXPECT_EQ(off[i].label, on[i].label);
  }
}

TEST_F(ProfTest, DetectorForwardCoversEveryProfiledLayer) {
  const auto boxes = detect_once(true);
  (void)boxes;
  const auto events = prof::snapshot_events();
  std::set<std::string> names;
  for (const auto& e : events) names.insert(e.name);

  // Host-side pipeline stages.
  for (const char* stage :
       {"detect", "pre.pillarize", "pfn.maxpool", "pre.scatter", "post.nms"})
    EXPECT_TRUE(names.count(stage)) << "missing stage span: " << stage;

  // Every weighted layer in the cost profile must have produced >= 1 span —
  // except the BatchNorms, which eval mode fuses into the preceding conv's
  // output store: they must produce none (their time is the conv's).
  Rng rng(4242);
  detectors::PointPillars model(detectors::PointPillarsConfig::scaled(), rng);
  for (const auto& p : model.cost_profile()) {
    if (p.weight_count == 0) continue;  // pre/post stages checked above
    if (is_fused_bn(model, p.name)) {
      EXPECT_FALSE(names.count(p.name)) << "unfused BN span: " << p.name;
    } else {
      EXPECT_TRUE(names.count(p.name)) << "missing layer span: " << p.name;
    }
  }

  // The GEMM and im2col counters moved during the forward.
  EXPECT_GT(prof::counter_value(prof::Counter::kGemmFlops), 0u);
  EXPECT_GT(prof::counter_value(prof::Counter::kIm2colBytes), 0u);
}

/// A barrier job with exactly one task per lane: no lane can finish its task
/// until every lane has claimed one, so each of the four lanes must execute
/// exactly one task — which guarantees a pool.job span on every worker.
TEST_F(ProfTest, EveryPoolWorkerEmitsJobSpans) {
  constexpr int kLanes = 4;
  parallel::set_thread_count(kLanes);
  std::atomic<int> arrived{0};
  parallel::parallel_for(0, kLanes, 1, [&](std::int64_t, std::int64_t) {
    arrived.fetch_add(1, std::memory_order_acq_rel);
    while (arrived.load(std::memory_order_acquire) < kLanes)
      std::this_thread::yield();
  });

  // run() returns the moment the last task finishes, which can be a hair
  // before that lane's pool.job span destructor records the event — poll
  // until all four lanes' spans have landed.
  std::set<std::uint64_t> job_tids;
  for (int tries = 0; tries < 2000; ++tries) {
    job_tids.clear();
    for (const auto& e : prof::snapshot_events())
      if (e.name == "pool.job") job_tids.insert(e.tid);
    if (job_tids.size() >= static_cast<std::size_t>(kLanes)) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(job_tids.size(), static_cast<std::size_t>(kLanes));

  // The three spawned lanes registered names; the caller lane did not.
  int named_workers = 0;
  for (const auto& [tid, name] : prof::thread_names())
    if (job_tids.count(tid) && name.rfind("pool/worker/", 0) == 0)
      ++named_workers;
  EXPECT_EQ(named_workers, kLanes - 1);

  EXPECT_GE(prof::counter_value(prof::Counter::kPoolJobs), 1u);
  EXPECT_GE(prof::counter_value(prof::Counter::kPoolTasks),
            static_cast<std::uint64_t>(kLanes));
}

/// Pulls the numeric value following `key` out of a JSON fragment. ts/dur
/// carry microseconds with three decimals (the 1 ns tie nudge lives in the
/// fraction), so parse as double.
double json_number_after(const std::string& text, std::size_t pos,
                         const char* key) {
  const auto at = text.find(key, pos);
  EXPECT_NE(at, std::string::npos) << key;
  return std::strtod(text.c_str() + at + std::strlen(key), nullptr);
}

TEST_F(ProfTest, ChromeTraceIsBalancedAndOrderedPerThread) {
  parallel::set_thread_count(4);
  const auto boxes = detect_once(true);
  (void)boxes;
  const std::string json = prof::chrome_trace_json();

  // Structural sanity: balanced braces/brackets, required top-level keys.
  std::int64_t braces = 0, brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char ch = json[i];
    if (in_string) {
      if (ch == '\\')
        ++i;
      else if (ch == '"')
        in_string = false;
      continue;
    }
    if (ch == '"') in_string = true;
    if (ch == '{') ++braces;
    if (ch == '}') --braces;
    if (ch == '[') ++brackets;
    if (ch == ']') --brackets;
    ASSERT_GE(braces, 0);
    ASSERT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"upaq_threads\""), std::string::npos);
  EXPECT_NE(json.find("\"counter.gemm_flops\""), std::string::npos);

  // Per-thread timestamps are strictly increasing across "X" events.
  std::map<std::int64_t, double> last_ts;
  std::size_t pos = 0;
  int x_events = 0;
  while ((pos = json.find("\"ph\": \"X\"", pos)) != std::string::npos) {
    const auto tid =
        static_cast<std::int64_t>(json_number_after(json, pos, "\"tid\": "));
    const double ts = json_number_after(json, pos, "\"ts\": ");
    const auto it = last_ts.find(tid);
    if (it != last_ts.end())
      EXPECT_GT(ts, it->second) << "tid " << tid << " not strictly ordered";
    last_ts[tid] = ts;
    ++x_events;
    ++pos;
  }
  EXPECT_GT(x_events, 0);
  EXPECT_GT(last_ts.size(), 1u);  // main + at least one pool worker
}

/// The single shared percentile definition, pinned at the edge cases every
/// consumer (stats table, bench JSON, serve tail report) relies on.
TEST_F(ProfTest, PercentileInterpolatesAndHandlesTinySamples) {
  EXPECT_EQ(prof::percentile({}, 0.5), 0.0);

  EXPECT_EQ(prof::percentile({5.0}, 0.0), 5.0);
  EXPECT_EQ(prof::percentile({5.0}, 0.5), 5.0);
  EXPECT_EQ(prof::percentile({5.0}, 0.99), 5.0);

  const std::vector<double> two = {10.0, 20.0};
  EXPECT_DOUBLE_EQ(prof::percentile(two, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(prof::percentile(two, 0.5), 15.0);
  EXPECT_DOUBLE_EQ(prof::percentile(two, 0.9), 19.0);
  EXPECT_DOUBLE_EQ(prof::percentile(two, 0.99), 19.9);
  EXPECT_DOUBLE_EQ(prof::percentile(two, 1.0), 20.0);

  const std::vector<double> four = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(prof::percentile(four, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(prof::percentile(four, 0.25), 1.75);
  EXPECT_DOUBLE_EQ(prof::percentile(four, 1.0), 4.0);

  // Out-of-range quantiles clamp instead of indexing out of bounds.
  EXPECT_DOUBLE_EQ(prof::percentile(four, -0.5), 1.0);
  EXPECT_DOUBLE_EQ(prof::percentile(four, 1.5), 4.0);
}

/// aggregate() must report exactly what prof::percentile says over the same
/// durations — no second, subtly different percentile in the stats path.
TEST_F(ProfTest, AggregatePercentilesMatchSharedDefinitionExactly) {
  std::vector<prof::Event> events;
  std::vector<double> durs_ms;
  for (int i = 1; i <= 100; ++i) {
    events.push_back({"op", "", 0, i * 1000, i * 1000000, 1});
    durs_ms.push_back(static_cast<double>(i));
  }
  const auto stats = prof::aggregate(events);
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_DOUBLE_EQ(stats[0].p50_ms, prof::percentile(durs_ms, 0.50));
  EXPECT_DOUBLE_EQ(stats[0].p90_ms, prof::percentile(durs_ms, 0.90));
  EXPECT_DOUBLE_EQ(stats[0].p99_ms, prof::percentile(durs_ms, 0.99));
  EXPECT_DOUBLE_EQ(stats[0].p50_ms, 50.5);
  EXPECT_DOUBLE_EQ(stats[0].p90_ms, 90.1);
  EXPECT_DOUBLE_EQ(stats[0].p99_ms, 99.01);
}

TEST_F(ProfTest, AggregateComputesCountsAndPercentiles) {
  std::vector<prof::Event> events;
  for (int i = 1; i <= 100; ++i)
    events.push_back({"op", "", 0, i * 1000, i * 1000000, 1});
  events.push_back({"rare", "", 0, 0, 5000000, 1});
  const auto stats = prof::aggregate(events);
  ASSERT_EQ(stats.size(), 2u);
  // Sorted by descending total: "op" (5050 ms) ahead of "rare" (5 ms).
  EXPECT_EQ(stats[0].name, "op");
  EXPECT_EQ(stats[0].count, 100);
  EXPECT_NEAR(stats[0].total_ms, 5050.0, 1e-6);
  EXPECT_NEAR(stats[0].mean_ms, 50.5, 1e-6);
  EXPECT_NEAR(stats[0].p50_ms, 50.0, 1.0);
  EXPECT_NEAR(stats[0].p99_ms, 99.0, 1.0);
  EXPECT_EQ(stats[1].count, 1);
  const std::string table = prof::stats_table(stats);
  EXPECT_NE(table.find("op"), std::string::npos);
  EXPECT_NE(table.find("rare"), std::string::npos);
}

TEST_F(ProfTest, CostReportMatchesProfiledLayersByName) {
  const auto boxes = detect_once(true);
  (void)boxes;
  Rng rng(4242);
  detectors::PointPillars model(detectors::PointPillarsConfig::scaled(), rng);
  const hw::CostModel cost_model(
      hw::device_spec(hw::Device::kJetsonOrinNano));
  const auto cmp = prof::build_cost_report(
      prof::snapshot_events(), cost_model, model.cost_profile(), /*passes=*/1);

  ASSERT_EQ(cmp.rows.size(), model.cost_profile().size());
  int matched = 0, fused = 0;
  for (const auto& row : cmp.rows) {
    EXPECT_GT(row.modeled_ms, 0.0) << row.name;
    if (is_fused_bn(model, row.name)) {
      // Fused into the conv: no span, so the report must not invent one.
      ++fused;
      EXPECT_EQ(row.spans, 0) << row.name;
      EXPECT_EQ(row.measured_ms, 0.0) << row.name;
    }
    if (row.spans > 0) {
      ++matched;
      EXPECT_GT(row.measured_ms, 0.0) << row.name;
      EXPECT_GT(row.drift, 0.0) << row.name;
    }
  }
  // Every other profile entry is instrumented, so every such row should be
  // measured.
  EXPECT_GT(fused, 0);
  EXPECT_EQ(matched + fused, static_cast<int>(cmp.rows.size()));
  EXPECT_GT(cmp.measured_total_ms, 0.0);
  EXPECT_GT(cmp.modeled_total_ms, 0.0);
  EXPECT_GT(cmp.median_drift, 0.0);
  const std::string table = prof::cost_report_table(cmp);
  EXPECT_NE(table.find("drift"), std::string::npos);
}

/// Serving a drained stream emits the per-stage serve spans, each stage
/// span containing its inner pipeline spans, and moves the serve counters.
TEST_F(ProfTest, ServeStageSpansNestAndCountersMove) {
  Rng rng(4242);
  detectors::PointPillars model(detectors::PointPillarsConfig::scaled(), rng);
  model.set_training(false);
  Rng srng(99);
  data::SceneGenerator gen;

  serve::ServeConfig cfg;
  cfg.max_batch = 2;
  cfg.queue_capacity = 8;
  serve::Server server(model, cfg);
  for (int i = 0; i < 3; ++i) server.submit(gen.sample(srng));
  server.drain();

  const auto events = prof::snapshot_events();
  std::set<std::string> names;
  for (const auto& e : events) names.insert(e.name);
  for (const char* stage : {"serve.step", "serve.pre", "serve.detect",
                            "serve.post", "detect.batch", "pre.pillarize",
                            "pfn.maxpool", "pre.scatter", "post.nms"})
    EXPECT_TRUE(names.count(stage)) << "missing serve span: " << stage;

  // Every stage span lies inside some serve.step span (serial fixture: the
  // pipeline inlines, so containment is exact), and the inner pipeline
  // spans lie inside their stage.
  auto contained = [&](const prof::Event& inner, const char* outer_name) {
    for (const auto& o : events)
      if (o.name == outer_name && inner.start_ns >= o.start_ns &&
          inner.start_ns + inner.dur_ns <= o.start_ns + o.dur_ns)
        return true;
    return false;
  };
  int stage_spans = 0;
  for (const auto& e : events) {
    if (e.name == "serve.pre" || e.name == "serve.detect" ||
        e.name == "serve.post") {
      ++stage_spans;
      EXPECT_TRUE(contained(e, "serve.step")) << e.name << " outside step";
    }
    if (e.name == "pre.pillarize")
      EXPECT_TRUE(contained(e, "serve.pre")) << "pillarize outside pre";
    if (e.name == "detect.batch")
      EXPECT_TRUE(contained(e, "serve.detect")) << "forward outside detect";
    if (e.name == "post.nms")
      EXPECT_TRUE(contained(e, "serve.post")) << "nms outside post";
  }
  // 2 batches x 3 stages each.
  EXPECT_EQ(stage_spans, 6);

  EXPECT_EQ(prof::counter_value(prof::Counter::kServeBatches), 2u);
  EXPECT_EQ(prof::counter_value(prof::Counter::kServeScenes), 3u);
  EXPECT_EQ(prof::counter_value(prof::Counter::kServeShed), 0u);
}

/// Forced overload: the shed counter is exact — one tick per shed request,
/// split across both shed causes, zero for served ones.
TEST_F(ProfTest, ServeShedCounterIsExactUnderForcedOverload) {
  Rng rng(4242);
  detectors::PointPillars model(detectors::PointPillarsConfig::scaled(), rng);
  model.set_training(false);
  Rng srng(99);
  data::SceneGenerator gen;
  const auto scene = gen.sample(srng);
  double vt = 0.0;

  serve::ServeConfig cfg;
  cfg.max_batch = 2;
  cfg.queue_capacity = 2;
  cfg.deadline_ms = 10.0;
  cfg.clock = [&vt] { return vt; };
  serve::Server server(model, cfg);

  // Burst of 5 into a 2-deep queue: exactly 3 capacity sheds.
  for (int i = 0; i < 5; ++i) server.submit(scene);
  EXPECT_EQ(prof::counter_value(prof::Counter::kServeShed), 3u);

  // Age the survivors past the deadline: exactly 2 deadline sheds.
  vt = 25.0;
  server.drain();
  EXPECT_EQ(prof::counter_value(prof::Counter::kServeShed), 5u);
  EXPECT_EQ(server.stats().shed_capacity, 3u);
  EXPECT_EQ(server.stats().shed_deadline, 2u);
  EXPECT_EQ(server.stats().completed, 0u);
  EXPECT_EQ(prof::counter_value(prof::Counter::kServeScenes), 0u);
  EXPECT_EQ(server.stats().submitted, 5u);
  EXPECT_EQ(server.poll().size(), 5u);
}

}  // namespace
}  // namespace upaq
