// Tests for the empirical per-layer kernel auto-tuner (qnn::tune_gemm):
//   - deterministic winner pinning through the injectable scripted timer,
//     relying on the documented clock contract (exactly 2 calls per timed
//     rep, candidates in fixed order float/segment/int8);
//   - min-of-reps timing, strict-< tie-breaking toward the earlier
//     fixed-order candidate, and the float_margin near-tie gate;
//   - the candidate list narrowing with the spec's code width (no int8
//     panel above 8 bits);
//   - the obs "autotune.pin" event carrying the winner and one <kernel>_ns
//     field per candidate.
// The packed engines' own weight images (rebuild on a version bump, no
// sharing by parameter address) are tested in test_qnn.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"
#include "obs/obs.h"
#include "qnn/autotune.h"
#include "qnn/qgemm.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace upaq {
namespace {

using qnn::TunedKernel;

/// Scripted monotonic clock: timed rep r (0-based, across the whole
/// tune_gemm call) reports duration durs[r]. Each rep makes exactly two
/// clock calls (start/stop) and eviction makes none, so with reps = R the
/// reps of candidate c occupy durs[c*R .. c*R+R-1] in candidate order.
struct ScriptedClock {
  std::vector<std::uint64_t> durs;
  std::shared_ptr<std::size_t> calls = std::make_shared<std::size_t>(0);

  std::function<std::uint64_t()> fn() const {
    auto d = durs;
    auto c = calls;
    return [d, c]() -> std::uint64_t {
      const std::size_t call = (*c)++;
      const std::size_t rep = call / 2;
      const std::uint64_t base = 1'000'000ull * (rep + 1);
      const std::uint64_t dur = rep < d.size() ? d[rep] : 1'000'000ull;
      return call % 2 == 0 ? base : base + dur;
    };
  }
};

qnn::TuneOptions scripted(const ScriptedClock& clk, int reps = 1,
                          double float_margin = 1.0) {
  qnn::TuneOptions opt;
  opt.reps = reps;
  opt.evict_bytes = 0;  // cache-hot: eviction would not change clock calls,
                        // but there is no point thrashing in a scripted test
  opt.float_margin = float_margin;
  opt.now_ns = clk.fn();
  return opt;
}

qnn::LowerSpec spec4() {
  qnn::LowerSpec spec;
  spec.weight_bits = 4;
  spec.group_size = 8;
  spec.act_bits = 8;
  return spec;
}

TEST(Autotune, ScriptedTimerPinsFastestIntegerCandidate) {
  Rng rng(7);
  nn::Parameter w("w", Tensor::normal({8, 32}, rng));
  // Candidate order float, segment, int8_panel.
  ScriptedClock clk{{400, 300, 100}};
  const qnn::TuneDecision d =
      qnn::tune_gemm(w, 8, 32, 16, spec4(), "l.pin", scripted(clk));
  ASSERT_EQ(d.candidates.size(), 3u);
  EXPECT_EQ(d.candidates[0].kernel, TunedKernel::kFloat);
  EXPECT_EQ(d.candidates[1].kernel, TunedKernel::kSegment);
  EXPECT_EQ(d.candidates[2].kernel, TunedKernel::kInt8Panel);
  EXPECT_EQ(d.candidates[0].ns, 400u);
  EXPECT_EQ(d.candidates[2].ns, 100u);
  EXPECT_EQ(d.winner, TunedKernel::kInt8Panel);
  // The clock contract the scripting relies on: 2 calls per timed rep.
  EXPECT_EQ(*clk.calls, 2u * 3u);
}

TEST(Autotune, KeepsMinOfReps) {
  Rng rng(8);
  nn::Parameter w("w", Tensor::normal({6, 24}, rng));
  // 3 reps per candidate; each candidate's ns must be its per-rep minimum.
  ScriptedClock clk{{900, 400, 800,     // float  -> 400
                     300, 700, 350,     // segment -> 300
                     600, 250, 900}};   // int8   -> 250
  const qnn::TuneDecision d = qnn::tune_gemm(w, 6, 24, 16, spec4(), "l.reps",
                                             scripted(clk, /*reps=*/3));
  ASSERT_EQ(d.candidates.size(), 3u);
  EXPECT_EQ(d.candidates[0].ns, 400u);
  EXPECT_EQ(d.candidates[1].ns, 300u);
  EXPECT_EQ(d.candidates[2].ns, 250u);
  EXPECT_EQ(d.winner, TunedKernel::kInt8Panel);
  EXPECT_EQ(*clk.calls, 2u * 3u * 3u);
}

TEST(Autotune, IntegerTieKeepsEarlierFixedOrderCandidate) {
  Rng rng(9);
  nn::Parameter w("w", Tensor::normal({8, 32}, rng));
  ScriptedClock clk{{500, 200, 200}};
  const qnn::TuneDecision d =
      qnn::tune_gemm(w, 8, 32, 16, spec4(), "l.tie", scripted(clk));
  EXPECT_EQ(d.winner, TunedKernel::kSegment);
}

TEST(Autotune, FloatMarginGatesNearTies) {
  Rng rng(10);
  nn::Parameter w("w", Tensor::normal({8, 32}, rng));
  // Float is 5% faster than the best integer candidate. Plain fastest-wins
  // (margin 1.0) pins float; the default-style 0.9 margin demands a
  // decisive >10% win, so the near-tie stays on the packed path.
  {
    ScriptedClock clk{{95, 100, 110}};
    const qnn::TuneDecision d = qnn::tune_gemm(
        w, 8, 32, 16, spec4(), "l.m1", scripted(clk, 1, /*float_margin=*/1.0));
    EXPECT_EQ(d.winner, TunedKernel::kFloat);
  }
  {
    ScriptedClock clk{{95, 100, 110}};
    const qnn::TuneDecision d = qnn::tune_gemm(
        w, 8, 32, 16, spec4(), "l.m2", scripted(clk, 1, /*float_margin=*/0.9));
    EXPECT_EQ(d.winner, TunedKernel::kSegment);
  }
  // A decisive float win clears any margin.
  {
    ScriptedClock clk{{50, 100, 110}};
    const qnn::TuneDecision d = qnn::tune_gemm(
        w, 8, 32, 16, spec4(), "l.m3", scripted(clk, 1, /*float_margin=*/0.9));
    EXPECT_EQ(d.winner, TunedKernel::kFloat);
  }
}

TEST(Autotune, CandidateListNarrowsWithCodeWidth) {
  Rng rng(11);
  nn::Parameter w("w", Tensor::normal({8, 32}, rng));
  // 8-bit codes race the same three candidates as 4-bit ones.
  qnn::LowerSpec s8 = spec4();
  s8.weight_bits = 8;
  {
    ScriptedClock clk{{400, 300, 200}};
    const qnn::TuneDecision d =
        qnn::tune_gemm(w, 8, 32, 16, s8, "l.w8", scripted(clk));
    ASSERT_EQ(d.candidates.size(), 3u);
    EXPECT_EQ(d.candidates.back().kernel, TunedKernel::kInt8Panel);
    EXPECT_EQ(d.winner, TunedKernel::kInt8Panel);
  }
  // Codes wider than 8 bits fit neither panel: segment races float alone.
  qnn::LowerSpec s12 = spec4();
  s12.weight_bits = 12;
  {
    ScriptedClock clk{{400, 300}};
    const qnn::TuneDecision d =
        qnn::tune_gemm(w, 8, 32, 16, s12, "l.w12", scripted(clk));
    ASSERT_EQ(d.candidates.size(), 2u);
    EXPECT_EQ(d.candidates.back().kernel, TunedKernel::kSegment);
    EXPECT_EQ(d.winner, TunedKernel::kSegment);
  }
}

TEST(Autotune, EmitsObsPinEventWithPerCandidateTimings) {
  obs::set_enabled(true);
  obs::set_log_level(obs::Level::kInfo);
  obs::set_ring_capacity(1024);
  obs::reset();
  Rng rng(14);
  nn::Parameter w("w", Tensor::normal({8, 32}, rng));
  ScriptedClock clk{{400, 300, 200}};
  (void)qnn::tune_gemm(w, 8, 32, 16, spec4(), "l.obs", scripted(clk));

  obs::Event pin;
  for (const auto& e : obs::events())
    if (e.name == "autotune.pin") pin = e;
  ASSERT_FALSE(pin.name.empty()) << "tune_gemm must log an autotune.pin event";
  auto field = [&](const std::string& key) -> std::string {
    for (const auto& f : pin.fields)
      if (f.key == key) return f.value;
    return "<missing>";
  };
  EXPECT_EQ(field("layer"), "l.obs");
  EXPECT_EQ(field("kernel"), "int8_panel");
  EXPECT_EQ(field("float_ns"), "400");
  EXPECT_EQ(field("segment_ns"), "300");
  EXPECT_EQ(field("int8_panel_ns"), "200");
  obs::reset();
}

TEST(Autotune, PatternPrunedConvRacesTheFixedCandidates) {
  Rng rng(99);
  // Conv-shaped weight whose kernels keep only the top-row slots {0, 1, 2}:
  // pattern sparsity adds no candidate — the segment kernel already skips
  // the pruned taps, so the fixed list stays float/segment/int8.
  Tensor wv = Tensor::normal({8, 4, 3, 3}, rng);
  for (std::int64_t i = 0; i < wv.numel(); ++i)
    if (i % 9 >= 3) wv[i] = 0.0f;
  nn::Parameter w("w", wv);
  ScriptedClock clk{{500, 100, 300}};
  const qnn::TuneDecision d =
      qnn::tune_gemm(w, 8, 36, 16, spec4(), "l.pat", scripted(clk));
  ASSERT_EQ(d.candidates.size(), 3u);
  EXPECT_EQ(d.candidates[1].kernel, TunedKernel::kSegment);
  EXPECT_EQ(d.winner, TunedKernel::kSegment);
  EXPECT_EQ(*clk.calls, 2u * 3u);
}

}  // namespace
}  // namespace upaq
