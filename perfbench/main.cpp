// perfbench — the repository benchmark.
//
// Loads a committed upaq_zoo_cache variant through the public zoo and core
// APIs (ExperimentRunner::run cache hit, then the auto-tuned QuantizedModel
// lowering), drives seeded synthetic scenes through it, checks every output
// and prints one JSON result line. See perfbench/README.md for the workloads,
// the metrics and how to run it; perfbench/run.py builds and runs it.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--commit <id>] [--src-digest <hex>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the separate
// traced run and prints the per-layer metrics. Exit codes: 0 ok, 1 an output
// check failed, 2 bad arguments, 3 a zoo cache entry is missing or
// unreadable (the benchmark never trains or compresses a model).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/qmodel.h"
#include "data/scenario.h"
#include "detectors/pointpillars.h"
#include "detectors/smoke.h"
#include "eval/map.h"
#include "parallel/thread_pool.h"
#include "qnn/autotune.h"
#include "serve/serve.h"
#include "tensor/serialize.h"
#include "tensor/workspace.h"
#include "zoo/experiment.h"

#include "prof_adapter.h"
#include "trace.h"

namespace {

using namespace upaq;
using perfbench::now_ns;
using perfbench::Recorder;
namespace telemetry = perfbench::telemetry;

/// Latency limit: one 10 Hz LiDAR frame period.
constexpr double kLimitMs = 100.0;
/// Distinct scenes per run, drawn round-robin over the five scenario
/// families; the loops cycle over them.
constexpr int kPoolScenes = 200;
/// Independent set-ups per run. setup_s is their median, and the end-to-end
/// run spreads its time evenly over all of them: the auto-tuner pins kernels
/// from timing races, so each set-up is one draw of the pin distribution,
/// and a figure over several draws repeats where a single draw does not.
constexpr int kSetups = 5;
/// Untimed scenes after lowering, and again before each model's time slice.
constexpr int kWarmupScenes = 10;
constexpr int kSliceWarmupScenes = 3;
/// Pool lanes: half the host's hardware threads, at least 1 and at most
/// kMaxThreads. Every parallel_for waits for its slowest lane, so a pool as
/// wide as the host measures whichever core a neighbour (or the hypervisor)
/// takes: on a shared 4-vCPU host, 4 lanes swung 75-270 scenes/s between
/// half-second windows of one pp_base_closed run, 2 lanes 150-230, and one
/// core kept busy beside the run cost 4 lanes 32% of their rate, 2 lanes 6%.
constexpr int kMaxThreads = 4;
constexpr const char* kCacheDir = "upaq_zoo_cache";
/// Allowed relative distance of the lowered model's held-out mAP, averaged
/// over the set-ups, from the value committed in the variant's .row file.
/// The committed value is the float execution; a fully integer SMOKE HCK
/// lowering sits 19% below it on the 15 held-out scenes, so the gate catches
/// a collapse, not the tuner's drift.
constexpr double kMapTolerance = 0.25;

/// Serving configuration of pp_hck_open. Cross-scene batching stays off:
/// the packed PFN linear quantizes its activations with one scale over the
/// whole batch, so a batched scene's detections differ from its serial
/// detect() and the served == serial check would fail on every run. The
/// traced run measures that defect as serve.batch4_mismatch_share.
constexpr int kMaxBatch = 1;
constexpr int kQueueCapacity = 64;
/// Probe batch for serve.batch4_mismatch_share.
constexpr std::size_t kProbeBatch = 4;
/// A backlog grows when the mean queue depth of a slice's last third
/// exceeds that of its first third by more than this many requests.
constexpr double kBacklogMargin = 4.0;

/// Fixed open-loop rates: roughly 35%, 55% and 180% of the served HCK
/// model's capacity (~210 Hz at kMaxBatch with 2 lanes on a 4-vCPU host),
/// measured once and never recalibrated at run time. On a shared host that
/// capacity moves by +-30% with neighbour load and by +-15% with the
/// tuner's pins, so `high` is set where every run is overloaded (its served
/// rate is the capacity), and the bounded latency comes from `low`, which
/// stays under capacity in every run. `share` is the part of the run's
/// seconds each rate gets: the two rates behind bounded metrics get the
/// most, since a 0.8 s slice at `high` swung the served rate by +-20%.
struct OpenRate {
  const char* name;
  double hz;
  double share;
};
constexpr OpenRate kRates[] = {
    {"low", 76.0, 0.4},
    {"mid", 114.0, 0.2},
    {"high", 380.0, 0.4},
};

struct Workload {
  const char* name;
  zoo::ModelKind kind;
  zoo::Framework framework;
  const char* cache_stem;  ///< upaq_zoo_cache/<stem>.{row,plan,state,packed}
  bool packed;             ///< tuned lowering onto the packed integer path
  bool open_loop;
};

const Workload kWorkloads[] = {
    {"pp_hck_closed", zoo::ModelKind::kPointPillars, zoo::Framework::kUpaqHck,
     "exp_PointPillars_UPAQ__HCK_", true, false},
    {"pp_base_closed", zoo::ModelKind::kPointPillars, zoo::Framework::kBase,
     "exp_PointPillars_Base_Model", false, false},
    {"pp_hck_open", zoo::ModelKind::kPointPillars, zoo::Framework::kUpaqHck,
     "exp_PointPillars_UPAQ__HCK_", true, true},
    {"smoke_hck_closed", zoo::ModelKind::kSmoke, zoo::Framework::kUpaqHck,
     "exp_SMOKE_UPAQ__HCK_", true, false},
};

// ---------------------------------------------------------------- helpers

std::uint32_t float_bits(float v) {
  std::uint32_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

bool same_dets(const std::vector<eval::Box3D>& a,
               const std::vector<eval::Box3D>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a[i];
    const auto& y = b[i];
    const float fx[] = {x.x, x.y, x.z, x.length, x.width, x.height, x.yaw,
                        x.score};
    const float fy[] = {y.x, y.y, y.z, y.length, y.width, y.height, y.yaw,
                        y.score};
    for (int k = 0; k < 8; ++k)
      if (float_bits(fx[k]) != float_bits(fy[k])) return false;
    if (x.label != y.label) return false;
  }
  return true;
}

/// Percentile of an unsorted sample (0 when empty).
double percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return telemetry::percentile_sorted(v, q);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

/// CPU time of the whole process (every thread) or, with
/// CLOCK_THREAD_CPUTIME_ID, of the calling thread, in seconds.
double cpu_s(clockid_t clock = CLOCK_PROCESS_CPUTIME_ID) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

/// Scenes of all five scenario families, interleaved family by family, so
/// any stretch of the pool is a balanced mix.
std::vector<data::Scene> make_pool(std::uint64_t seed) {
  const auto& families = data::all_scenario_families();
  const int per = kPoolScenes / static_cast<int>(families.size());
  std::vector<std::vector<data::Scene>> drawn;
  for (const auto f : families)
    drawn.push_back(data::make_scenario_scenes(f, per, seed));
  std::vector<data::Scene> pool;
  for (int i = 0; i < per; ++i)
    for (auto& fam : drawn)
      pool.push_back(std::move(fam[static_cast<std::size_t>(i)]));
  return pool;
}

/// The cache entry the workload needs that is missing or unreadable, or ""
/// when all are present. Checked before any program call, because a cache
/// miss inside the zoo would silently train and compress a fresh model.
std::string missing_cache_entry(const Workload& w) {
  const std::string dir = kCacheDir;
  const std::string base =
      dir + (w.kind == zoo::ModelKind::kPointPillars ? "/pointpillars.upaq"
                                                     : "/smoke.upaq");
  if (!io::is_tensor_map_file(base)) return base;
  const std::string stem = dir + "/" + w.cache_stem;
  std::vector<std::string> files = {stem + ".row", stem + ".plan",
                                    stem + ".state"};
  if (w.packed) files.push_back(stem + ".packed");
  for (const auto& f : files)
    if (!std::ifstream(f, std::ios::binary).good()) return f;
  if (!io::is_tensor_map_file(stem + ".state")) return stem + ".state";
  return "";
}

// ------------------------------------------------------------------ checks

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< exceptions and failed output checks
  void fail(const std::string& what) {
    if (failed < 5) std::fprintf(stderr, "perfbench: FAIL %s\n", what.c_str());
    ++failed;
  }
};

/// Reference detections per pool scene: the first detect() of each scene
/// on one set-up. Every later output of that scene on that set-up must
/// match it bitwise.
struct Refs {
  std::vector<std::vector<eval::Box3D>> dets;
  std::vector<bool> have;
  explicit Refs(std::size_t n) : dets(n), have(n, false) {}

  void check_or_record(std::size_t idx, std::vector<eval::Box3D> got,
                       const char* what, Tally& tally) {
    if (!have[idx]) {
      dets[idx] = std::move(got);
      have[idx] = true;
    } else if (!same_dets(got, dets[idx])) {
      tally.fail(std::string(what) + " differs from detect() on pool scene " +
                 std::to_string(idx));
    }
  }
};

// ------------------------------------------------------------ model set-up

/// One loaded and lowered variant with its reference detections. Member
/// order matters: the lowered wrapper detaches its engines from the
/// outcome's model when destroyed, so it must be destroyed first.
struct Loaded {
  zoo::FrameworkOutcome outcome;
  std::unique_ptr<core::QuantizedModel> qmodel;
  detectors::Detector3D* det = nullptr;  ///< what detect() runs on
  Refs refs;
  std::vector<data::Scene> heldout;  ///< the zoo's held-out test split
  double zoo_ms = 0.0, lower_ms = 0.0, setup_s = 0.0;

  explicit Loaded(std::size_t pool) : refs(pool) {}
  detectors::PointPillars& pointpillars() {
    return dynamic_cast<detectors::PointPillars&>(*outcome.model);
  }
};

std::unique_ptr<Loaded> load(const Workload& w,
                             const std::vector<data::Scene>& pool,
                             Recorder& rec) {
  auto l = std::make_unique<Loaded>(pool.size());
  const std::int64_t t0 = now_ns();
  {
    auto span = rec.span("zoo.load");
    zoo::ZooConfig zcfg;
    zcfg.cache_dir = kCacheDir;
    zcfg.verbose = false;
    zoo::Zoo z(zcfg);
    zoo::ExperimentRunner runner(z);
    l->outcome = runner.run(w.framework, w.kind);
    l->heldout = z.dataset().test;
  }
  l->zoo_ms = seconds_since(t0) * 1e3;
  detectors::Detector3D& inner = *l->outcome.model;
  inner.set_training(false);
  // One float pass per scenario family: every conv records its output
  // geometry, so the tuner races kernels at the real column counts.
  for (std::size_t i = 0; i < 5 && i < pool.size(); ++i)
    (void)inner.detect(pool[i]);
  l->det = &inner;
  if (w.packed) {
    const std::int64_t t1 = now_ns();
    auto span = rec.span("core.lower");
    l->qmodel = std::make_unique<core::QuantizedModel>(
        inner, l->outcome.plan, /*act_bits=*/8, qnn::TuneOptions{});
    l->det = l->qmodel.get();
    l->lower_ms = seconds_since(t1) * 1e3;
  }
  for (int i = 0; i < kWarmupScenes; ++i)
    (void)l->det->detect(pool[static_cast<std::size_t>(i) % pool.size()]);
  l->setup_s = seconds_since(t0);
  return l;
}

struct Setups {
  std::vector<std::unique_ptr<Loaded>> models;
  std::vector<double> setup_s, zoo_ms, lower_ms;
};

Setups set_up(const Workload& w, const std::vector<data::Scene>& pool,
              Recorder& rec) {
  Setups s;
  for (int k = 0; k < kSetups; ++k) {
    s.models.push_back(load(w, pool, rec));
    s.setup_s.push_back(s.models.back()->setup_s);
    s.zoo_ms.push_back(s.models.back()->zoo_ms);
    s.lower_ms.push_back(s.models.back()->lower_ms);
  }
  return s;
}

void fill_refs(Loaded& m, const std::vector<data::Scene>& pool, Tally& tally) {
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (m.refs.have[i]) continue;
    try {
      m.refs.dets[i] = m.det->detect(pool[i]);
      m.refs.have[i] = true;
    } catch (const std::exception& e) {
      tally.fail(std::string("detect() threw: ") + e.what());
    }
  }
}

/// mAP (%) of a set-up's detections on `scenes`.
double map_pct(const Loaded& m, const std::vector<data::Scene>& scenes,
               const std::vector<std::vector<eval::Box3D>>& dets,
               double iou) {
  std::vector<eval::FrameDetections> frames;
  for (std::size_t i = 0; i < scenes.size(); ++i) {
    eval::FrameDetections fd;
    fd.detections = dets[i];
    for (const auto& gt : scenes[i].objects)
      if (m.det->observes(gt)) fd.ground_truth.push_back(gt);
    frames.push_back(std::move(fd));
  }
  return eval::map_percent(frames, iou);
}

std::string dets_digest(const Refs& refs) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  const auto mix = [&h](std::uint32_t v) {
    for (int b = 0; b < 4; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (const auto& dets : refs.dets) {
    mix(static_cast<std::uint32_t>(dets.size()));
    for (const auto& d : dets) {
      for (float f : {d.x, d.y, d.z, d.length, d.width, d.height, d.yaw,
                      d.score})
        mix(float_bits(f));
      mix(static_cast<std::uint32_t>(d.label));
    }
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// Share of pool scenes whose detections from a kProbeBatch-scene
/// forward_batch differ bitwise from their serial detect(). A measurement,
/// not a check: it is why pp_hck_open serves with kMaxBatch 1.
double batch_mismatch_share(Loaded& m, const std::vector<data::Scene>& pool) {
  auto& pp = m.pointpillars();
  std::size_t differ = 0, n = 0;
  for (std::size_t i = 0; i + kProbeBatch <= pool.size(); i += kProbeBatch) {
    std::vector<detectors::PointPillars::Pillars> pils;
    for (std::size_t j = 0; j < kProbeBatch; ++j)
      pils.push_back(pp.pillarize(pool[i + j]));
    std::vector<const detectors::PointPillars::Pillars*> batch;
    for (const auto& p : pils) batch.push_back(&p);
    const auto heads = pp.forward_batch(batch);
    for (std::size_t j = 0; j < kProbeBatch; ++j, ++n)
      if (!same_dets(pp.decode(heads[j].cls_logits, heads[j].reg_out),
                     m.refs.dets[i + j]))
        ++differ;
  }
  return n ? static_cast<double>(differ) / static_cast<double>(n) : 0.0;
}

// ------------------------------------------------------------ closed loop

/// Per-request latencies in completion order, plus each set-up slice's
/// median latency and completion rate. The bounded figures come from the
/// best slice: neighbour load on a shared host (hypervisor steal) only ever
/// slows a slice, and it comes in stretches as long as a whole run, so the
/// median over slices still moves with it while the best slice repeats.
struct Samples {
  std::vector<double> lat_ms;
  std::vector<double> slice_p50_ms, slice_rate_hz;

  double best_p50_ms() const {
    return slice_p50_ms.empty()
               ? 0.0
               : *std::min_element(slice_p50_ms.begin(), slice_p50_ms.end());
  }
  double best_rate_hz() const {
    return slice_rate_hz.empty()
               ? 0.0
               : *std::max_element(slice_rate_hz.begin(), slice_rate_hz.end());
  }

  void end_slice(std::size_t first, std::size_t completed, double seconds) {
    slice_p50_ms.push_back(percentile(
        std::vector<double>(lat_ms.begin() + static_cast<std::ptrdiff_t>(first),
                            lat_ms.end()),
        0.5));
    slice_rate_hz.push_back(static_cast<double>(completed) / seconds);
  }
};

/// One caller: the next scene is issued as soon as the previous returns.
/// Runs for `seconds` on one set-up, continuing through the pool from
/// `*cursor`, and appends to `out`.
void closed_loop(Loaded& m, const std::vector<data::Scene>& pool,
                 double seconds, std::size_t* cursor, Samples& out,
                 Tally& tally) {
  for (int i = 0; i < kSliceWarmupScenes; ++i)
    (void)m.det->detect(pool[(*cursor + static_cast<std::size_t>(i)) %
                             pool.size()]);
  const std::size_t first = out.lat_ms.size();
  const std::int64_t start = now_ns();
  const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
  while (now_ns() < end) {
    const std::size_t idx = (*cursor)++ % pool.size();
    ++tally.attempted;
    const std::int64_t t0 = now_ns();
    std::vector<eval::Box3D> dets;
    try {
      dets = m.det->detect(pool[idx]);
    } catch (const std::exception& e) {
      tally.fail(std::string("detect() threw: ") + e.what());
      continue;
    }
    const std::int64_t t1 = now_ns();
    out.lat_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    m.refs.check_or_record(idx, std::move(dets), "repeated detect()", tally);
  }
  out.end_slice(first, out.lat_ms.size() - first, seconds_since(start));
}

/// Requests per window of the printed p99.
constexpr std::size_t kWindow = 1000;

/// p99 as the median over consecutive windows of at least kWindow requests,
/// so each window's p99 has kWindow / 100 samples beyond it. With fewer
/// than kWindow samples the whole sample is one short window.
struct Windowed {
  double p99_ms = 0.0;
  std::size_t windows = 0;
  std::size_t samples = 0;
};

Windowed windowed(const std::vector<double>& lat_ms) {
  Windowed out;
  out.samples = lat_ms.size();
  if (lat_ms.empty()) return out;
  out.windows = std::max<std::size_t>(1, lat_ms.size() / kWindow);
  const std::size_t len = lat_ms.size() / out.windows;
  std::vector<double> p99s;
  for (std::size_t w = 0; w < out.windows; ++w) {
    const auto first = lat_ms.begin() + static_cast<std::ptrdiff_t>(w * len);
    p99s.push_back(percentile(
        std::vector<double>(first, first + static_cast<std::ptrdiff_t>(len)),
        0.99));
  }
  out.p99_ms = percentile(p99s, 0.5);
  return out;
}

// -------------------------------------------------------------- open loop

struct RateRun {
  double schedule_s = 0.0;
  std::uint64_t attempted = 0, served = 0, wrong = 0, within_limit = 0;
  std::uint64_t served_in_schedule = 0;  ///< done before the schedule ended
  std::uint64_t shed_capacity = 0, shed_deadline = 0;
  double wait_cpu_s = 0.0;  ///< generator CPU spent waiting for due times
  Samples from_due;  ///< latency from the due time, completion order
  std::vector<double> queue_ms, pipeline_ms, gen_lag_ms;
  std::vector<int> batch;
  std::size_t backlog_max = 0;
  bool backlog_growing = false;

  double failed_share() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(attempted - served + wrong) /
                                static_cast<double>(attempted);
  }
};

/// Poisson open loop against the public Server API, on one set-up. The
/// single main thread submits each request once it is due, steps the
/// server in between and times every request from its due time, so a
/// stall that delays later submissions counts against them; how late each
/// submit ran is recorded as generator lag. Appends to `run`; completion
/// times are offset by the schedule time already in `run`.
void open_loop(Loaded& m, const std::vector<data::Scene>& pool,
               const OpenRate& rate, double seconds, std::uint64_t seed,
               Recorder& rec, RateRun& run, Tally& tally) {
  std::mt19937_64 eng(seed);
  std::vector<double> due_ms;
  for (double t = 0.0;;) {
    t += -std::log1p(-std::generate_canonical<double, 53>(eng)) / rate.hz *
         1e3;
    if (t >= seconds * 1e3) break;
    due_ms.push_back(t);
  }
  const std::size_t offset = static_cast<std::size_t>(eng() % pool.size());
  const std::size_t first_sample = run.from_due.lat_ms.size();
  const std::uint64_t in_schedule0 = run.served_in_schedule;

  serve::ServeConfig cfg;
  cfg.max_batch = kMaxBatch;
  cfg.queue_capacity = kQueueCapacity;
  cfg.deadline_ms = kLimitMs;
  serve::Server server(m.pointpillars(), cfg);
  std::map<std::uint64_t, std::size_t> request_of;
  std::vector<std::pair<double, std::size_t>> depth;  // (schedule ms, depth)
  const double origin = server.now_ms() + 1.0;

  const auto collect = [&] {
    std::vector<serve::Result> results;
    {
      auto span = rec.span("serve.poll");
      results = server.poll();
    }
    for (auto& r : results) {
      const std::size_t k = request_of.at(r.id);
      if (r.shed) continue;
      ++run.served;
      const double from_due = r.done_ms - (origin + due_ms[k]);
      run.from_due.lat_ms.push_back(from_due);
      run.queue_ms.push_back(r.queue_ms);
      run.pipeline_ms.push_back(r.pipeline_ms);
      run.batch.push_back(r.batch);
      if (from_due <= kLimitMs) ++run.within_limit;
      if (r.done_ms - origin <= seconds * 1e3) ++run.served_in_schedule;
      const std::size_t idx = (offset + k) % pool.size();
      if (!same_dets(r.detections, m.refs.dets[idx])) {
        ++run.wrong;
        tally.fail("served detections differ from serial detect() on pool "
                   "scene " + std::to_string(idx));
      }
    }
  };

  std::size_t next = 0;
  for (;;) {
    double now = server.now_ms() - origin;
    while (next < due_ms.size() && due_ms[next] <= now) {
      run.gen_lag_ms.push_back(now - due_ms[next]);
      std::uint64_t id = 0;
      {
        auto span = rec.span("serve.submit", next + 1);
        id = server.submit(pool[(offset + next) % pool.size()]);
      }
      request_of[id] = next;
      ++next;
      now = server.now_ms() - origin;
    }
    bool worked = false;
    {
      auto span = rec.span("serve.step");
      worked = server.step();
    }
    depth.emplace_back(server.now_ms() - origin, server.queue_depth());
    collect();
    if (!worked) {
      if (next >= due_ms.size()) break;
      // Spin, not sleep, until the next due time, stepping again at least
      // every 0.2 ms. On a shared VM a sleeping thread wakes only when the
      // hypervisor next runs its vCPU: sleeping put a generator lag p99 of
      // 5-16 ms into the latency from due at 76 Hz, run to run. The spin's
      // CPU time is the generator's, and cpu_ms_per_scene leaves it out.
      const double wake =
          std::min(due_ms[next], server.now_ms() - origin + 0.2);
      const double c0 = cpu_s(CLOCK_THREAD_CPUTIME_ID);
      while (server.now_ms() - origin < wake) {
      }
      run.wait_cpu_s += cpu_s(CLOCK_THREAD_CPUTIME_ID) - c0;
    }
  }
  server.drain();
  collect();

  run.from_due.end_slice(first_sample, run.served_in_schedule - in_schedule0,
                         seconds);
  run.schedule_s += seconds;
  run.attempted += due_ms.size();
  tally.attempted += due_ms.size();
  run.shed_capacity += server.stats().shed_capacity;
  run.shed_deadline += server.stats().shed_deadline;
  double first = 0.0, last = 0.0;
  std::size_t n_first = 0, n_last = 0;
  const double third = seconds * 1e3 / 3.0;
  for (const auto& [t, d] : depth) {
    run.backlog_max = std::max(run.backlog_max, d);
    if (t < third) first += static_cast<double>(d), ++n_first;
    if (t >= 2.0 * third && t < 3.0 * third)
      last += static_cast<double>(d), ++n_last;
  }
  if (n_first > 0 && n_last > 0 &&
      last / static_cast<double>(n_last) >
          first / static_cast<double>(n_first) + kBacklogMargin)
    run.backlog_growing = true;
}

// ---------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_metric(const Metric& m, const std::string& note = "") {
  std::printf("  %-40s %14.6f %-9s %s\n", m.name.c_str(), m.value,
              m.unit.c_str(), note.c_str());
}

std::string json_metrics(const std::vector<Metric>& ms) {
  std::string out = "{";
  char buf[160];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                  i ? ", " : "", ms[i].name.c_str(), ms[i].value,
                  ms[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

std::string sample_note(std::size_t n) {
  return "(n=" + std::to_string(n) + ")";
}

std::string slice_note(const Samples& s) {
  return "(n=" + std::to_string(s.lat_ms.size()) + ", best of " +
         std::to_string(s.slice_p50_ms.size()) + " set-up slices)";
}

std::string window_note(const Windowed& w) {
  const std::size_t len = w.windows ? w.samples / w.windows : 0;
  return "(n=" + std::to_string(w.samples) + ", median of " +
         std::to_string(w.windows) + " windows of " + std::to_string(len) +
         (len < kWindow ? "; fewer than 10 beyond p99: tail not resolved)"
                        : ")");
}

std::unique_ptr<detectors::Detector3D> fresh_model(zoo::ModelKind kind) {
  Rng rng(1);
  if (kind == zoo::ModelKind::kPointPillars)
    return std::make_unique<detectors::PointPillars>(
        detectors::PointPillarsConfig::scaled(), rng);
  return std::make_unique<detectors::Smoke>(detectors::SmokeConfig::scaled(),
                                            rng);
}

/// Conv and Linear layer names of a detector: the per-layer metric list
/// covers both detectors, whichever one a workload runs.
std::vector<std::string> compute_layers(zoo::ModelKind kind) {
  std::vector<std::string> out;
  const auto model = fresh_model(kind);
  for (const auto& l : model->layers())
    if (l->kind() == nn::LayerKind::kConv2d ||
        l->kind() == nn::LayerKind::kLinear)
      out.push_back(l->name());
  return out;
}

/// Span names the per-layer self times are attributed to: every layer of
/// both detectors plus the detector and serve stage spans.
std::set<std::string> module_span_names() {
  std::set<std::string> out = {
      "pre.pillarize", "pfn.maxpool",   "pre.scatter", "detect.batch",
      "post.nms",      "pre.normalize", "post.decode", "detect",
      "serve.pre",     "serve.detect",  "serve.post",  "serve.step"};
  for (auto kind : {zoo::ModelKind::kPointPillars, zoo::ModelKind::kSmoke}) {
    const auto model = fresh_model(kind);
    for (const auto& l : model->layers()) out.insert(l->name());
  }
  return out;
}

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir = ".";
  std::string commit = "unknown";
  std::string src_digest = "unknown";
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  if (argc % 2 != 1) return false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    try {
      if (key == "--workload") {
        for (const auto& w : kWorkloads)
          if (val == w.name) a.workload = &w;
      } else if (key == "--seed") {
        a.seed = std::stoull(val);
        have_seed = true;
      } else if (key == "--seconds") {
        a.seconds = std::stod(val);
        have_seconds = a.seconds > 0.0 && a.seconds <= 600.0;
      } else if (key == "--trace") {
        if (val != "0" && val != "1") return false;
        a.trace = val == "1";
        have_trace = true;
      } else if (key == "--out-dir") {
        a.out_dir = val;
      } else if (key == "--commit") {
        a.commit = val;
      } else if (key == "--src-digest") {
        a.src_digest = val;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return a.workload != nullptr && have_seed && have_seconds && have_trace;
}

/// Kernel pin counts and per-layer pins of one tuned lowering.
struct Pins {
  std::map<std::string, std::string> layer;
  std::map<std::string, int> count = {{"float", 0},
                                      {"segment", 0},
                                      {"int8_panel", 0},
                                      {"int4_panel", 0},
                                      {"pattern_panel", 0}};
  int lowered = 0;
};

Pins pins_of(const Loaded& l) {
  Pins p;
  if (!l.qmodel) return p;
  p.lowered = l.qmodel->lowered_layers();
  for (const auto& t : l.qmodel->tune_report().layers) {
    const std::string k = qnn::tuned_kernel_name(t.kernel);
    p.layer[t.name] = k;
    ++p.count[k];
  }
  return p;
}

/// The run's configuration: host, pool size, seed, commit, and per set-up
/// the tuner's pins and a digest of the reference detections.
std::string config_json(const Args& a, const Setups& su, int threads) {
  std::string s = "{\"workload\": \"" + std::string(a.workload->name) +
                  "\", \"seed\": " + std::to_string(a.seed) +
                  ", \"seconds\": " + std::to_string(a.seconds) +
                  ", \"trace\": " + (a.trace ? "1" : "0") +
                  ", \"pool_threads\": " + std::to_string(threads) +
                  ", \"nproc\": " +
                  std::to_string(std::thread::hardware_concurrency()) +
                  ", \"commit\": \"" + a.commit + "\", \"src_digest\": \"" +
                  a.src_digest + "\", \"pool_scenes\": " +
                  std::to_string(kPoolScenes) + ", \"setups\": [";
  for (std::size_t m = 0; m < su.models.size(); ++m) {
    const Pins pins = pins_of(*su.models[m]);
    s += std::string(m ? ", " : "") + "{\"dets_digest\": \"" +
         dets_digest(su.models[m]->refs) +
         "\", \"lowered_layers\": " + std::to_string(pins.lowered) +
         ", \"pin_counts\": {";
    bool comma = false;
    for (const auto& [k, n] : pins.count) {
      s += (comma ? ", \"" : "\"") + k + "\": " + std::to_string(n);
      comma = true;
    }
    s += "}, \"pins\": {";
    comma = false;
    for (const auto& [layer, k] : pins.layer) {
      s += (comma ? ", \"" : "\"") + layer + "\": \"" + k + "\"";
      comma = true;
    }
    s += "}}";
  }
  return s + "]}";
}

// -------------------------------------------------------------- the runs

/// Held-out mAP of one set-up on the zoo's test split, the split the
/// committed .row mAP was measured on. The float execution of the loaded
/// weights must reproduce the committed value exactly: the variant on disk
/// is the one timed. Returns the lowered model's mAP, which the tuner's
/// pins move (a float pin and an integer pin round differently).
double check_map(const Workload& w, Loaded& m, Tally& tally) {
  const double iou = zoo::ExperimentConfig{}.eval_iou(w.kind);
  const auto heldout_map = [&] {
    std::vector<std::vector<eval::Box3D>> dets;
    for (const auto& scene : m.heldout) dets.push_back(m.det->detect(scene));
    return map_pct(m, m.heldout, dets, iou);
  };
  const double committed = m.outcome.row.map_percent;
  if (m.qmodel) m.qmodel->set_packed(false);
  const double float_map = heldout_map();
  if (m.qmodel) m.qmodel->set_packed(true);
  const double map = heldout_map();
  if (std::fabs(float_map - committed) > 1e-9 * committed)
    tally.fail("float-path held-out mAP " + std::to_string(float_map) +
               "% differs from the committed " + std::to_string(committed) +
               "%: the loaded weights are not the committed variant");
  return map;
}

/// Held-out mAP of the lowered model averaged over the set-ups, which must
/// stay within kMapTolerance of the committed value, and the median mAP on
/// the run's own scene mix.
std::pair<double, double> check_maps(const Workload& w, Setups& su,
                                     const std::vector<data::Scene>& pool,
                                     Tally& tally) {
  const double iou = zoo::ExperimentConfig{}.eval_iou(w.kind);
  std::vector<double> heldout, mix;
  for (auto& m : su.models) {
    heldout.push_back(check_map(w, *m, tally));
    fill_refs(*m, pool, tally);
    mix.push_back(map_pct(*m, pool, m->refs.dets, iou));
  }
  const double map = mean(heldout);
  const double committed = su.models.front()->outcome.row.map_percent;
  if (std::fabs(map - committed) > kMapTolerance * committed)
    tally.fail("held-out mAP " + std::to_string(map) + "% is not within " +
               std::to_string(kMapTolerance * 100.0) + "% of the committed " +
               std::to_string(committed) + "%");
  return {map, percentile(mix, 0.5)};
}

/// End-to-end run: untraced, prints every end-to-end metric.
///
/// Every workload reports the same seven metrics, defined per loop: on a
/// closed loop a request is due when the caller issues it, so its latency
/// is the scene time and throughput is scenes per second; on pp_hck_open
/// latency and CPU time per scene come from the `low` rate, latency timed
/// from the due time, and throughput is the rate served within the
/// schedule at `high`, which is the server's capacity. CPU time per scene
/// counts every thread of the process, so stolen or idle time does not
/// enter it: it is the steadiest cost figure on a shared host, and the
/// closest one to energy. Tail percentiles are printed with their sample
/// counts but are not among the JSON metrics: on a shared host neighbour
/// load moves them by more than any bound a regression gate could use. The
/// run's seconds are split evenly over the set-ups, and latency and
/// throughput come from the best slice (see Samples).
std::vector<Metric> end_to_end(const Args& a, Setups& su,
                               const std::vector<data::Scene>& pool,
                               Tally& tally) {
  const Workload& w = *a.workload;
  const double slice = a.seconds / static_cast<double>(su.models.size());
  const Metric setup{"setup_s", percentile(su.setup_s, 0.5), "s"};
  print_metric(setup, sample_note(su.setup_s.size()) + " set-ups");
  const auto print_maps = [&](const std::pair<double, double>& maps) {
    print_metric({"map_pct", maps.first, "%"},
                 "(held-out split, mean of " +
                     std::to_string(su.models.size()) + " set-ups)");
    print_metric({"map_pct.scene_mix", maps.second, "%"},
                 "(" + std::to_string(pool.size()) + " seeded scenes)");
  };

  if (!w.open_loop) {
    Samples s;
    std::size_t cursor = 0;
    const double cpu0 = cpu_s();
    for (auto& m : su.models) closed_loop(*m, pool, slice, &cursor, s, tally);
    const double cpu_ms = (cpu_s() - cpu0) * 1e3 /
                          static_cast<double>(std::max<std::size_t>(
                              1, s.lat_ms.size()));
    const auto maps = check_maps(w, su, pool, tally);
    const Windowed win = windowed(s.lat_ms);
    const double failed_share =
        static_cast<double>(tally.failed) /
        static_cast<double>(std::max<std::uint64_t>(1, tally.attempted));
    const std::vector<Metric> out = {
        setup,
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"map_pct", maps.first, "%"},
        {"ok_share", 1.0 - failed_share, "fraction"},
        {"latency_p50_ms", s.best_p50_ms(), "ms"},
        {"throughput_hz", s.best_rate_hz(), "1/s"},
        {"cpu_ms_per_scene", cpu_ms, "ms"}};
    print_metric(out[1]);
    print_maps(maps);
    print_metric({"failed_share", failed_share, "fraction"},
                 sample_note(tally.attempted));
    print_metric({"scene_p50_ms", out[4].value, "ms"}, slice_note(s));
    print_metric({"scene_p99_ms", win.p99_ms, "ms"}, window_note(win));
    print_metric({"scenes_per_s", out[5].value, "1/s"}, slice_note(s));
    print_metric(out[6], "(all threads, incl. per-slice warm-up)");
    return out;
  }

  // Open loop: serial reference detections of every pool scene on every
  // set-up first, then the three fixed rates in increasing order, each
  // split over the set-ups.
  const auto maps = check_maps(w, su, pool, tally);
  print_metric({"peak_rss_mb", peak_rss_mb(), "MB"});
  print_maps(maps);
  Recorder off;
  std::vector<RateRun> runs(std::size(kRates));
  double max_rate = 0.0;
  std::uint64_t attempted = 0, answered = 0;
  std::vector<double> cpu_ms(std::size(kRates));
  for (std::size_t r = 0; r < std::size(kRates); ++r) {
    const OpenRate& rate = kRates[r];
    RateRun& run = runs[r];
    const double cpu0 = cpu_s();
    for (std::size_t k = 0; k < su.models.size(); ++k)
      open_loop(*su.models[k], pool, rate,
                a.seconds * rate.share / static_cast<double>(su.models.size()),
                a.seed * 1000003ull + r * 101 + k, off, run, tally);
    cpu_ms[r] = (cpu_s() - cpu0 - run.wait_cpu_s) * 1e3 /
                static_cast<double>(std::max<std::uint64_t>(1, run.served));
    const std::string tag = rate.name;
    const Windowed win = windowed(run.from_due.lat_ms);
    const bool meets = win.p99_ms <= kLimitMs && run.failed_share() <= 0.01 &&
                       !run.backlog_growing;
    if (meets) max_rate = std::max(max_rate, rate.hz);
    // Sheds under overload are the server's policy, not wrong answers:
    // ok_share counts requests left unanswered below capacity.
    if (&rate != &kRates[std::size(kRates) - 1]) {
      attempted += run.attempted;
      answered += run.served - run.wrong;
    }
    print_metric({"served_p50_ms." + tag,
                  run.from_due.best_p50_ms(), "ms"},
                 slice_note(run.from_due) + " at " +
                     std::to_string(static_cast<int>(rate.hz)) + " Hz");
    print_metric({"served_p99_ms." + tag, win.p99_ms, "ms"}, window_note(win));
    print_metric({"failed_share." + tag, run.failed_share(), "fraction"},
                 "(" + std::to_string(run.shed_capacity) + " shed full, " +
                     std::to_string(run.shed_deadline) + " shed late, " +
                     std::to_string(run.attempted) + " attempted)");
    print_metric({"served_hz." + tag,
                  run.from_due.best_rate_hz(), "1/s"},
                 slice_note(run.from_due));
    print_metric({"cpu_ms_per_scene." + tag, cpu_ms[r], "ms"});
    print_metric({"gen_lag_p99_ms." + tag, percentile(run.gen_lag_ms, 0.99),
                  "ms"},
                 std::string("backlog max ") + std::to_string(run.backlog_max) +
                     (run.backlog_growing ? ", growing" : ", steady"));
  }
  const RateRun& low = runs[0];
  const RateRun& high = runs[2];
  const double ok_share =
      static_cast<double>(answered) /
      static_cast<double>(std::max<std::uint64_t>(1, attempted));
  print_metric({"failed_share", 1.0 - ok_share, "fraction"},
               sample_note(attempted) + " at low and mid");
  print_metric({"goodput_hz",
                static_cast<double>(high.within_limit) / high.schedule_s,
                "1/s"},
               "(at high)");
  print_metric({"max_rate_hz", max_rate, "1/s"});
  return {setup,
          {"peak_rss_mb", peak_rss_mb(), "MB"},
          {"map_pct", maps.first, "%"},
          {"ok_share", ok_share, "fraction"},
          {"latency_p50_ms", low.from_due.best_p50_ms(), "ms"},
          {"throughput_hz", high.from_due.best_rate_hz(),
           "1/s"},
          {"cpu_ms_per_scene", cpu_ms[0], "ms"}};
}

/// Traced run: per-layer metrics, on the last set-up. An untraced closed
/// loop and a traced one share the run, so their difference is the tracing
/// overhead. PointPillars scenes go through the staged pillarize ->
/// forward_batch -> decode API, SMOKE scenes through render and detect.
std::vector<Metric> traced(const Args& a, Setups& su,
                           const std::vector<data::Scene>& pool, Recorder& rec,
                           Tally& tally,
                           std::vector<telemetry::Span>* program_spans) {
  const Workload& w = *a.workload;
  const bool is_pp = w.kind == zoo::ModelKind::kPointPillars;
  Loaded& m = *su.models.back();
  const double untraced_s = a.seconds * (w.open_loop ? 0.2 : 0.5);
  const double traced_s = a.seconds * (w.open_loop ? 0.2 : 0.5);

  rec.set_enabled(false);
  Samples untraced;
  std::size_t cursor = 0;
  closed_loop(m, pool, untraced_s, &cursor, untraced, tally);
  fill_refs(m, pool, tally);
  (void)check_map(w, m, tally);

  // Traced closed loop: the benchmark's own spans around each public call,
  // the program's spans and counters underneath.
  rec.set_enabled(true);
  double points = 0.0, pillars = 0.0, ndets = 0.0;
  std::uint64_t scenes = 0;
  const workspace::Stats ws0 = workspace::stats();
  telemetry::Counters counters;
  const std::int64_t t_begin = now_ns();
  const std::int64_t end = t_begin + static_cast<std::int64_t>(traced_s * 1e9);
  telemetry::start();
  for (std::size_t i = 0; now_ns() < end; ++i) {
    const std::size_t idx = i % pool.size();
    const data::Scene& scene = pool[idx];
    const std::uint64_t id = i + 1;
    ++tally.attempted;
    std::vector<eval::Box3D> dets;
    try {
      if (is_pp) {
        auto& pp = m.pointpillars();
        auto scene_span = rec.span("scene", id);
        detectors::PointPillars::Pillars pil;
        std::vector<detectors::PointPillars::HeadOutput> heads;
        {
          auto s = rec.span("detectors.pillarize", id);
          pil = pp.pillarize(scene);
        }
        {
          auto s = rec.span("detectors.forward_batch", id);
          heads = pp.forward_batch({&pil});
        }
        {
          auto s = rec.span("detectors.decode", id);
          dets = pp.decode(heads[0].cls_logits, heads[0].reg_out);
        }
        pillars += static_cast<double>(pil.coords.size());
      } else {
        {
          auto s = rec.span("detectors.render", id);
          const Tensor img =
              dynamic_cast<detectors::Smoke&>(*m.outcome.model).render(scene);
          if (img.numel() == 0) tally.fail("empty SMOKE render");
        }
        auto scene_span = rec.span("scene", id);
        auto s = rec.span("detectors.detect", id);
        dets = m.det->detect(scene);
      }
    } catch (const std::exception& e) {
      tally.fail(std::string("traced call threw: ") + e.what());
      continue;
    }
    ++scenes;
    points += static_cast<double>(scene.points.size());
    ndets += static_cast<double>(dets.size());
    m.refs.check_or_record(idx, std::move(dets),
                           is_pp ? "staged pillarize/forward_batch/decode"
                                 : "traced detect()",
                           tally);
  }
  const double window_ms = seconds_since(t_begin) * 1e3;
  auto spans = telemetry::stop(&counters);
  const workspace::Stats ws1 = workspace::stats();
  const double n = scenes ? static_cast<double>(scenes) : 1.0;

  const auto self = perfbench::self_ms(spans, module_span_names());
  const auto self_of = [&](const std::string& name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const auto program_total_ms = [&](const std::string& name) {
    double t = 0.0;
    for (const auto& s : spans)
      if (s.name == name) t += static_cast<double>(s.dur_ns) * 1e-6;
    return t;
  };
  const int threads = parallel::thread_count();
  const auto lane_share = [&](const std::vector<telemetry::Span>& ss,
                              double wall_ms) {
    double busy = 0.0;
    for (const auto& s : ss)
      if (s.name == "pool.job") busy += static_cast<double>(s.dur_ns) * 1e-6;
    return wall_ms > 0.0 ? busy / (wall_ms * threads) : 0.0;
  };
  double lane_busy = lane_share(spans, window_ms);

  // Stage times per scene.
  double pillarize_ms = 0.0, forward_ms = 0.0, decode_ms = 0.0,
         render_ms = 0.0, glue_ms = 0.0;
  if (is_pp) {
    pillarize_ms = mean(rec.durations_ms("detectors.pillarize"));
    forward_ms = mean(rec.durations_ms("detectors.forward_batch"));
    decode_ms = mean(rec.durations_ms("detectors.decode"));
    glue_ms = (self_of("detect.batch") + self_of("pfn.maxpool") +
               self_of("pre.scatter")) / n;
  } else {
    render_ms = mean(rec.durations_ms("detectors.render"));
    decode_ms = program_total_ms("post.decode") / n;
    forward_ms = mean(rec.durations_ms("detectors.detect")) -
                 program_total_ms("pre.normalize") / n - decode_ms;
    glue_ms = self_of("detect") / n;
  }
  // Scene time not covered by the benchmark's stage spans.
  const auto scene_by_id = rec.by_id_ms("scene");
  double scene_total = 0.0, covered = 0.0;
  for (const auto& [id, ms] : scene_by_id) scene_total += ms;
  for (const char* st : {"detectors.pillarize", "detectors.forward_batch",
                         "detectors.decode", "detectors.detect"})
    for (const auto& [id, ms] : rec.by_id_ms(st))
      if (scene_by_id.count(id)) covered += ms;

  std::vector<Metric> out;
  out.push_back({"zoo.load_ms", percentile(su.zoo_ms, 0.5), "ms"});
  out.push_back({"core.lower_ms", percentile(su.lower_ms, 0.5), "ms"});
  const Pins pins = pins_of(m);
  out.push_back({"core.lowered_layers", static_cast<double>(pins.lowered),
                 "count"});
  for (const auto& [k, c] : pins.count)
    out.push_back({"core.pins." + k, static_cast<double>(c), "count"});
  out.push_back({"detectors.pillarize_ms", pillarize_ms, "ms"});
  out.push_back({"detectors.forward_ms", forward_ms, "ms"});
  out.push_back({"detectors.decode_ms", decode_ms, "ms"});
  out.push_back({"detectors.render_ms", render_ms, "ms"});
  out.push_back({"detectors.forward_glue_ms", glue_ms, "ms"});
  out.push_back({"detectors.points_per_scene", points / n, "count"});
  out.push_back({"detectors.pillars_per_scene", pillars / n, "count"});
  out.push_back({"detectors.dets_per_scene", ndets / n, "count"});

  double bn = 0.0, relu = 0.0, up = 0.0;
  for (const auto& l : m.outcome.model->layers()) {
    const double ms = self_of(l->name()) / n;
    switch (l->kind()) {
      case nn::LayerKind::kBatchNorm: bn += ms; break;
      case nn::LayerKind::kRelu:
      case nn::LayerKind::kLeakyRelu: relu += ms; break;
      case nn::LayerKind::kUpsample: up += ms; break;
      default: break;
    }
  }
  for (auto kind : {zoo::ModelKind::kPointPillars, zoo::ModelKind::kSmoke}) {
    const std::string prefix =
        kind == zoo::ModelKind::kPointPillars ? "nn.pp." : "nn.smoke.";
    for (const auto& name : compute_layers(kind))
      out.push_back({prefix + name + ".self_ms",
                     kind == w.kind ? self_of(name) / n : 0.0, "ms"});
  }
  out.push_back({"nn.bn.self_ms", bn, "ms"});
  out.push_back({"nn.relu.self_ms", relu, "ms"});
  out.push_back({"nn.upsample.self_ms", up, "ms"});

  const double macs = static_cast<double>(counters.qgemm_macs);
  const double flops = static_cast<double>(counters.gemm_flops);
  // Achieved GEMM rates over the forward stage's time; ops per ns = G/s.
  const double forward_ns = std::max(forward_ms * n * 1e6, 1.0);
  out.push_back({"qnn.qgemm_macs_per_scene", macs / n, "count"});
  out.push_back({"qnn.int_gops", 2.0 * macs / forward_ns, "GOP/s"});
  out.push_back({"qnn.panel_builds", static_cast<double>(counters.panel_builds),
                 "count"});
  out.push_back({"tensor.gemm_flops_per_scene", flops / n, "count"});
  out.push_back({"tensor.fp32_gflops", flops / forward_ns, "GFLOP/s"});
  out.push_back({"tensor.workspace_block_allocs",
                 static_cast<double>(ws1.block_allocs - ws0.block_allocs),
                 "count"});
  out.push_back({"tensor.workspace_high_water_bytes",
                 static_cast<double>(ws1.high_water_bytes), "bytes"});

  // Serving layer: the traced open loop at the three fixed rates.
  RateRun all;
  if (w.open_loop) {
    const double open_s = a.seconds - untraced_s - traced_s;
    const std::int64_t t_open = now_ns();
    telemetry::start();
    for (std::size_t r = 0; r < std::size(kRates); ++r)
      open_loop(m, pool, kRates[r], open_s * kRates[r].share,
                a.seed * 1000003ull + r * 101, rec, all, tally);
    auto open_spans = telemetry::stop(nullptr);
    lane_busy = lane_share(open_spans, seconds_since(t_open) * 1e3);
    spans.insert(spans.end(), open_spans.begin(), open_spans.end());
  }
  double fill = 0.0;
  for (int b : all.batch) fill += static_cast<double>(b) / kMaxBatch;
  out.push_back({"serve.queue_ms.p50", percentile(all.queue_ms, 0.5), "ms"});
  out.push_back({"serve.queue_ms.p99", percentile(all.queue_ms, 0.99), "ms"});
  out.push_back({"serve.pipeline_ms.p50", percentile(all.pipeline_ms, 0.5),
                 "ms"});
  out.push_back({"serve.pipeline_ms.p99", percentile(all.pipeline_ms, 0.99),
                 "ms"});
  out.push_back({"serve.batch_fill",
                 all.batch.empty() ? 0.0
                                   : fill / static_cast<double>(all.batch.size()),
                 "fraction"});
  out.push_back({"serve.shed_capacity", static_cast<double>(all.shed_capacity),
                 "count"});
  out.push_back({"serve.shed_deadline", static_cast<double>(all.shed_deadline),
                 "count"});
  out.push_back({"serve.gen_lag_ms.p99", percentile(all.gen_lag_ms, 0.99),
                 "ms"});
  out.push_back({"serve.backlog_max", static_cast<double>(all.backlog_max),
                 "count"});
  out.push_back({"serve.batch4_mismatch_share",
                 is_pp ? batch_mismatch_share(m, pool) : 0.0, "fraction"});
  out.push_back({"parallel.lane_busy_share", lane_busy, "fraction"});

  const double traced_p50 = percentile(rec.durations_ms("scene"), 0.5);
  const double untraced_p50 = percentile(untraced.lat_ms, 0.5);
  out.push_back({"trace.scene_p50_ms", traced_p50, "ms"});
  out.push_back({"trace.untraced_scene_p50_ms", untraced_p50, "ms"});
  out.push_back({"trace.overhead_ms", traced_p50 - untraced_p50, "ms"});
  out.push_back({"trace.unaccounted_ms", (scene_total - covered) / n, "ms"});
  out.push_back({"trace.scenes", static_cast<double>(scenes), "count"});

  for (const auto& metric : out) print_metric(metric);
  *program_spans = std::move(spans);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <pp_hck_closed|pp_base_closed|"
                 "pp_hck_open|smoke_hck_closed> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out-dir <dir>] [--commit <id>] "
                 "[--src-digest <hex>]\n",
                 argv[0]);
    return 2;
  }
  const Workload& w = *args.workload;
  const std::string missing = missing_cache_entry(w);
  if (!missing.empty()) {
    std::fprintf(stderr,
                 "perfbench: zoo cache entry missing or unreadable: %s\n"
                 "perfbench: run from the repository root with the committed "
                 "upaq_zoo_cache; the benchmark never trains or compresses a "
                 "model.\n",
                 missing.c_str());
    return 3;
  }

  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int threads = std::clamp(hw / 2, 1, kMaxThreads);
  parallel::set_thread_count(threads);
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d threads=%d\n",
              w.name, static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, threads);

  const auto pool = make_pool(args.seed);
  Recorder rec;
  rec.set_enabled(args.trace);
  Setups su;
  try {
    su = set_up(w, pool, rec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: loading %s from %s failed: %s\n",
                 w.cache_stem, kCacheDir, e.what());
    return 3;
  }

  Tally tally;
  std::vector<Metric> metrics;
  std::vector<telemetry::Span> program_spans;
  if (args.trace)
    metrics = traced(args, su, pool, rec, tally, &program_spans);
  else
    metrics = end_to_end(args, su, pool, tally);

  const std::string cfg = config_json(args, su, threads);
  std::printf("config %s\n", cfg.c_str());
  {
    std::ofstream log(args.out_dir + "/perfbench-runs.jsonl", std::ios::app);
    log << "{\"config\": " << cfg << ", \"metrics\": " << json_metrics(metrics)
        << "}\n";
  }
  if (args.trace) {
    const std::string path =
        args.out_dir + "/perfbench-trace-" + w.name + ".json";
    if (perfbench::write_chrome_trace(path, rec.spans(), program_spans))
      std::printf("trace written to %s\n", path.c_str());
    else
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  }

  const bool correct = tally.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(
                  std::max<std::uint64_t>(1, tally.attempted)),
              static_cast<unsigned long long>(tally.failed),
              json_metrics(metrics).c_str());
  return correct ? 0 : 1;
}
