// Tests for the blocked panel-packed integer GEMM (tensor/gemm_kernel.h
// q8_* entry points, driven through qnn::PackedGemm):
//   - panel vs segment bitwise equivalence over a grid of shapes (edge
//     tiles, multi-stripe n > NC, multi-slab k > KC), weight bits 2..8,
//     group sizes (dividing, non-dividing, odd, per-tensor) and sparsity
//     levels — both paths forced explicitly via PanelMode;
//   - the kAuto density-dispatch rule (bits <= 8 and zero fraction at or
//     below gemm::kSparseZeroFraction takes the panel kernel);
//   - 1-thread vs 4-thread bitwise determinism of the panel kernel;
//   - the steady-state zero-allocation contract for panel scratch;
//   - the qgemm_macs counter (surviving entries x columns, both paths);
//   - the fused inference epilogue on every integer kernel (segment, both
//     its sub-byte and generic paths, int8 / int4 / pattern panels, and the
//     PFN's run_t): fused == layer by layer, bitwise, at 1 and 4 threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "nn/conv.h"
#include "parallel/thread_pool.h"
#include "prof/prof.h"
#include "prune/pattern.h"
#include "qnn/packed.h"
#include "qnn/qgemm.h"
#include "qnn/qlayers.h"
#include "quant/quantize.h"
#include "tensor/gemm_kernel.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"
#include "tensor/workspace.h"
#include "test_util.h"

namespace upaq {
namespace {

using qnn::PackedGemm;
using PanelMode = qnn::PackedGemm::PanelMode;

struct Case {
  std::int64_t rows, k, n;
};

// Edge tiles relative to the MR=6 / NR=8 micro-tile, plus one multi-stripe
// (n > kQNC = 256) and one multi-slab (k > kQKC = 512) entry. Odd k values
// exercise the phantom pair position of the interleaved layout.
const Case kCases[] = {
    {1, 1, 1},      // degenerate everything
    {6, 48, 8},     // exactly one full micro-tile grid
    {7, 33, 13},    // ragged m/k/n on every grain
    {5, 9, 3},      // m < MR, odd k
    {23, 64, 72},   // several row panels, ragged last
    {13, 520, 40},  // k > kQKC: multi-slab when the group divides k
    {10, 64, 300},  // n > kQNC: multi-stripe
};

/// Weight matrix with an exact fraction of zeroed entries (deterministic
/// stripe pattern so the zero count is shape-independent of rng state).
Tensor make_weight(std::int64_t rows, std::int64_t k, double zero_frac,
                   Rng& rng) {
  Tensor w = Tensor::normal({rows, k}, rng);
  if (zero_frac > 0.0)
    for (std::int64_t i = 0; i < w.numel(); ++i)
      if (static_cast<double>(i % 100) < zero_frac * 100.0) w[i] = 0.0f;
  return w;
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_EQ(a.numel(), b.numel());
  for (std::int64_t i = 0; i < a.numel(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint32_t>(a[i]),
              std::bit_cast<std::uint32_t>(b[i]))
        << what << " diverges at flat index " << i;
}

/// Runs the same packed weight through both forced paths on identical
/// activations and asserts bitwise equality of the outputs.
void check_panel_vs_segment(const Tensor& w, std::int64_t rows, std::int64_t k,
                            std::int64_t n, int bits, std::int64_t group,
                            Rng& rng, const char* what) {
  const qnn::PackedTensor packed =
      qnn::pack(w, bits, group, quant::StorageFormat::kDense);
  PackedGemm panel(packed, rows, k, PanelMode::kForcePanel);
  PackedGemm segment(packed, rows, k, PanelMode::kForceSegment);
  ASSERT_TRUE(panel.panel_active()) << what;
  ASSERT_FALSE(segment.panel_active()) << what;

  const Tensor x = Tensor::uniform({k, n}, rng);
  const qnn::QuantizedActs qa = qnn::quantize_acts(x, 8);
  std::vector<float> bias(static_cast<std::size_t>(rows));
  for (auto& b : bias) b = rng.uniform(-1.0f, 1.0f);

  Tensor yp({rows, n}), ys({rows, n});
  panel.run(qa, bias.data(), yp);
  segment.run(qa, bias.data(), ys);
  expect_bitwise_equal(yp, ys, what);
}

TEST(QgemmKernel, PanelMatchesSegmentBitwise) {
  Rng rng(4242);
  for (const auto& c : kCases) {
    for (int bits = 2; bits <= 8; ++bits) {
      // Group sizes: per-tensor (0), an odd non-divisor (9), a power of two
      // that divides k for the multi-slab case (8), and per-row (k). A
      // group that does not divide k forces the single-slab packing with
      // mid-stream flush events at drifting columns.
      for (std::int64_t group : {std::int64_t{0}, std::int64_t{9},
                                 std::int64_t{8}, c.k}) {
        for (double zero_frac : {0.0, 0.3}) {
          const Tensor w = make_weight(c.rows, c.k, zero_frac, rng);
          char what[128];
          std::snprintf(what, sizeof(what),
                        "m=%lld k=%lld n=%lld bits=%d group=%lld zeros=%.1f",
                        static_cast<long long>(c.rows),
                        static_cast<long long>(c.k),
                        static_cast<long long>(c.n), bits,
                        static_cast<long long>(group), zero_frac);
          check_panel_vs_segment(w, c.rows, c.k, c.n, bits, group, rng, what);
        }
      }
    }
  }
}

TEST(QgemmKernel, ForcedPanelOnHighSparsityMatchesSegment) {
  // Past the kAuto dispatch threshold the panel path would normally never
  // run; forcing it must still be bitwise identical (zero codes contribute
  // exactly nothing to integer accumulators, and all-zero groups emit no
  // flush event on either path).
  Rng rng(777);
  const std::int64_t rows = 19, k = 96, n = 37;
  const Tensor w = make_weight(rows, k, 0.7, rng);
  check_panel_vs_segment(w, rows, k, n, 4, 16, rng, "70% sparse forced panel");
}

TEST(QgemmKernel, AutoDispatchFollowsDensityRule) {
  Rng rng(31);
  const std::int64_t rows = 12, k = 64;
  // Dense, bits <= 8: panel.
  {
    const Tensor w = make_weight(rows, k, 0.0, rng);
    const auto p = qnn::pack(w, 8, 16, quant::StorageFormat::kDense);
    EXPECT_TRUE(PackedGemm(p, rows, k).panel_active());
  }
  // Zero fraction above gemm::kSparseZeroFraction: segment kernels keep it.
  {
    const Tensor w = make_weight(rows, k, 0.8, rng);
    const auto p = qnn::pack(w, 8, 16, quant::StorageFormat::kDense);
    EXPECT_FALSE(PackedGemm(p, rows, k).panel_active());
  }
  // Codes wider than int8: the panel layout cannot hold them.
  {
    const Tensor w = make_weight(rows, k, 0.0, rng);
    const auto p = qnn::pack(w, 16, 16, quant::StorageFormat::kDense);
    EXPECT_FALSE(PackedGemm(p, rows, k).panel_active());
  }
}

/// Shapes chosen for the nibble-packed int4 panel: odd k (the phantom
/// high-nibble tail of the last pair), k just past one packing slab
/// (k > kQKC = 512), and group sizes {9, 7, 5, 3} that do and do not divide
/// k — non-divisors force the single-slab layout with drifting scale
/// boundaries, divisors exercise the period-multiple slab rule.
TEST(QgemmKernel, Int4PanelMatchesSegmentAndInt8PanelBitwise) {
  Rng rng(2024);
  const Case cases[] = {
      {6, 47, 16},    // odd k: nibble tail inside one micro-tile row
      {11, 129, 24},  // odd k, several row panels
      {13, 520, 40},  // multi-slab k > kQKC
      {9, 515, 18},   // odd multi-slab k with group-5 divisor
  };
  for (const auto& c : cases) {
    for (std::int64_t group : {std::int64_t{9}, std::int64_t{7},
                               std::int64_t{5}, std::int64_t{3}}) {
      for (int bits : {2, 3, 4}) {
        const Tensor w = make_weight(c.rows, c.k, 0.2, rng);
        const auto packed =
            qnn::pack(w, bits, group, quant::StorageFormat::kDense);
        PackedGemm i4(packed, c.rows, c.k, PanelMode::kForceInt4);
        PackedGemm i8(packed, c.rows, c.k, PanelMode::kForceInt8);
        PackedGemm seg(packed, c.rows, c.k, PanelMode::kForceSegment);
        ASSERT_EQ(i4.kernel_kind(), PackedGemm::KernelKind::kInt4Panel);
        ASSERT_EQ(i8.kernel_kind(), PackedGemm::KernelKind::kInt8Panel);
        ASSERT_EQ(seg.kernel_kind(), PackedGemm::KernelKind::kSegment);

        const Tensor x = Tensor::uniform({c.k, c.n}, rng);
        const qnn::QuantizedActs qa = qnn::quantize_acts(x, 8);
        std::vector<float> bias(static_cast<std::size_t>(c.rows));
        for (auto& b : bias) b = rng.uniform(-1.0f, 1.0f);
        char what[128];
        std::snprintf(what, sizeof(what),
                      "int4 m=%lld k=%lld n=%lld bits=%d group=%lld",
                      static_cast<long long>(c.rows),
                      static_cast<long long>(c.k),
                      static_cast<long long>(c.n), bits,
                      static_cast<long long>(group));

        Tensor y4({c.rows, c.n}), y8({c.rows, c.n}), ysg({c.rows, c.n});
        i4.run(qa, bias.data(), y4);
        i8.run(qa, bias.data(), y8);
        seg.run(qa, bias.data(), ysg);
        expect_bitwise_equal(y4, ysg, what);
        expect_bitwise_equal(y4, y8, what);
      }
    }
  }
}

TEST(QgemmKernel, Int4PanelThreadCountInvariantBitwise) {
  // Multi-stripe n and several row panels so the parallel dispatch splits
  // work across lanes; the nibble kernel's flush order is a property of the
  // panel layout, so 1-thread and 4-thread runs must be bitwise equal.
  Rng rng(4321);
  const std::int64_t rows = 27, k = 131, n = 530;
  const Tensor w = make_weight(rows, k, 0.15, rng);
  const auto packed = qnn::pack(w, 4, 7, quant::StorageFormat::kDense);
  const Tensor x = Tensor::uniform({k, n}, rng);
  const qnn::QuantizedActs qa = qnn::quantize_acts(x, 8);
  std::vector<float> bias(static_cast<std::size_t>(rows), -0.375f);

  PackedGemm g(packed, rows, k, PanelMode::kForceInt4);
  ASSERT_EQ(g.kernel_kind(), PackedGemm::KernelKind::kInt4Panel);
  parallel::set_thread_count(1);
  Tensor y1({rows, n});
  g.run(qa, bias.data(), y1);
  parallel::set_thread_count(4);
  Tensor y4({rows, n});
  g.run(qa, bias.data(), y4);
  parallel::set_thread_count(1);
  expect_bitwise_equal(y1, y4, "int4 panel thread-count divergence");
}

TEST(QgemmKernel, Int4PanelSteadyStateRunsDoNotGrowArena) {
  // Same zero-allocation contract as the int8 panel: the nibble-packed
  // B-pack scratch must come from the workspace arena once warm.
  parallel::set_thread_count(1);
  { workspace::Scope flush; }
  Rng rng(888);
  const std::int64_t rows = 18, k = 260, n = 290;
  const Tensor w = make_weight(rows, k, 0.0, rng);
  const auto packed = qnn::pack(w, 4, 0, quant::StorageFormat::kDense);
  PackedGemm g(packed, rows, k, PanelMode::kForceInt4);
  ASSERT_EQ(g.kernel_kind(), PackedGemm::KernelKind::kInt4Panel);
  const Tensor x = Tensor::uniform({k, n}, rng);
  const qnn::QuantizedActs qa = qnn::quantize_acts(x, 8);
  Tensor y({rows, n});

  for (int i = 0; i < 2; ++i) g.run(qa, nullptr, y);  // warm-up
  const workspace::Stats warm = workspace::stats();
  for (int i = 0; i < 5; ++i) g.run(qa, nullptr, y);
  const workspace::Stats steady = workspace::stats();
  EXPECT_EQ(steady.block_allocs, warm.block_allocs)
      << "steady-state int4 panel run() grew the workspace arena";
  EXPECT_GT(steady.reuses, warm.reuses)
      << "int4 panel run() did not route its pack scratch through the arena";
}

TEST(QgemmKernel, AutoDispatchPrefersInt4PanelForNarrowCodes) {
  Rng rng(64);
  const std::int64_t rows = 10, k = 72;
  // Dense narrow codes: the nibble panel.
  {
    const Tensor w = make_weight(rows, k, 0.0, rng);
    const auto p = qnn::pack(w, 4, 8, quant::StorageFormat::kDense);
    EXPECT_EQ(PackedGemm(p, rows, k).kernel_kind(),
              PackedGemm::KernelKind::kInt4Panel);
  }
  // Dense 8-bit codes cannot use nibbles: the pair-interleaved panel.
  {
    const Tensor w = make_weight(rows, k, 0.0, rng);
    const auto p = qnn::pack(w, 8, 8, quant::StorageFormat::kDense);
    EXPECT_EQ(PackedGemm(p, rows, k).kernel_kind(),
              PackedGemm::KernelKind::kInt8Panel);
  }
  // High sparsity keeps the entry-skip segment kernel even at 4 bits.
  {
    const Tensor w = make_weight(rows, k, 0.8, rng);
    const auto p = qnn::pack(w, 4, 8, quant::StorageFormat::kDense);
    EXPECT_EQ(PackedGemm(p, rows, k).kernel_kind(),
              PackedGemm::KernelKind::kSegment);
  }
}

TEST(QgemmKernel, ThreadCountInvariantBitwise) {
  // Multi-stripe n and several row panels so the parallel dispatch actually
  // splits work; 1-thread and 4-thread runs must be bitwise equal on both
  // paths (the requantization order is a property of the entry layout).
  Rng rng(999);
  const std::int64_t rows = 30, k = 128, n = 520;
  const Tensor w = make_weight(rows, k, 0.25, rng);
  const auto packed = qnn::pack(w, 6, 32, quant::StorageFormat::kDense);
  const Tensor x = Tensor::uniform({k, n}, rng);
  const qnn::QuantizedActs qa = qnn::quantize_acts(x, 8);
  std::vector<float> bias(static_cast<std::size_t>(rows), 0.125f);

  for (PanelMode mode : {PanelMode::kForcePanel, PanelMode::kForceSegment}) {
    PackedGemm g(packed, rows, k, mode);
    parallel::set_thread_count(1);
    Tensor y1({rows, n});
    g.run(qa, bias.data(), y1);
    parallel::set_thread_count(4);
    Tensor y4({rows, n});
    g.run(qa, bias.data(), y4);
    parallel::set_thread_count(1);
    expect_bitwise_equal(y1, y4,
                         mode == PanelMode::kForcePanel
                             ? "panel thread-count divergence"
                             : "segment thread-count divergence");
  }
}

TEST(QgemmKernel, SteadyStatePanelRunsDoNotGrowArena) {
  // The panel kernel's B-pack scratch comes from the workspace arena; after
  // warm-up, repeated run() calls must be allocation-free. Single-threaded
  // so the main thread's arena observes every allocation.
  parallel::set_thread_count(1);
  { workspace::Scope flush; }  // drain earlier tests' cached blocks
  Rng rng(1212);
  const std::int64_t rows = 24, k = 300, n = 310;
  const Tensor w = make_weight(rows, k, 0.0, rng);
  const auto packed = qnn::pack(w, 8, 0, quant::StorageFormat::kDense);
  PackedGemm g(packed, rows, k, PanelMode::kForcePanel);
  const Tensor x = Tensor::uniform({k, n}, rng);
  const qnn::QuantizedActs qa = qnn::quantize_acts(x, 8);
  Tensor y({rows, n});

  for (int i = 0; i < 2; ++i) g.run(qa, nullptr, y);  // warm-up
  const workspace::Stats warm = workspace::stats();
  for (int i = 0; i < 5; ++i) g.run(qa, nullptr, y);
  const workspace::Stats steady = workspace::stats();
  EXPECT_EQ(steady.block_allocs, warm.block_allocs)
      << "steady-state panel run() grew the workspace arena";
  EXPECT_GT(steady.reuses, warm.reuses)
      << "panel run() did not route its pack scratch through the arena";
}

/// Conv-shaped weight (out_c, in_c, d, d) with a kernel pattern stamped onto
/// every kernel via expand_kernel_mask — exactly how Algorithm 3 applies a
/// root's pattern to a layer, and the input geometry the pattern panel's tap
/// derivation reads from the packed shape.
Tensor make_pattern_weight(std::int64_t out_c, std::int64_t in_c,
                           const prune::KernelPattern& p, Rng& rng) {
  Tensor w = Tensor::normal({out_c, in_c, p.d, p.d}, rng);
  const Tensor m = prune::expand_kernel_mask(p, w.shape());
  for (std::int64_t i = 0; i < w.numel(); ++i) w[i] *= m[i];
  return w;
}

/// Full-k to tap-compacted activation gather, mirroring the contract
/// s8_im2col_taps implements for convs: compacted row r holds full row
/// (r / ntaps) * period + taps[r % ntaps].
std::vector<std::int8_t> compact_acts(const qnn::QuantizedActs& qa,
                                      const PackedGemm& g, std::int64_t n) {
  const auto& taps = *g.pattern_taps();
  const std::int64_t ntaps = static_cast<std::int64_t>(taps.size());
  const std::int64_t period = g.pattern_period();
  std::vector<std::int8_t> cx(static_cast<std::size_t>(g.k_compact() * n));
  for (std::int64_t r = 0; r < g.k_compact(); ++r) {
    const std::int64_t full = (r / ntaps) * period + taps[r % ntaps];
    std::copy_n(qa.codes.data() + full * n, n, cx.data() + r * n);
  }
  return cx;
}

TEST(QgemmKernel, PatternPanelMatchesSegmentAndIntPanelsBitwise) {
  // The whole pattern grid: every PatternType all_patterns enumerates for
  // the case's (n_kept, d), against the segment kernel AND the full-k int
  // panel, at 4 and 8 weight bits, with group sizes that are one tap period
  // (UPAQ's per-kernel groups), per-tensor, and an odd non-divisor (forcing
  // the single-slab compacted layout). The 60-channel 3x3 case compacts
  // from k = 540 (> kQKC = 512, multi-slab) down to 60 * n_kept.
  Rng rng(20260);
  struct PCase {
    std::int64_t out_c, in_c;
    int n_kept, d;
    std::int64_t n;
  };
  const PCase cases[] = {
      {7, 4, 2, 3, 33},    // ragged everything, 2-tap patterns
      {13, 60, 3, 3, 40},  // multi-slab full k = 540, diag/row/col of 3
      {6, 5, 4, 5, 18},    // 5x5 kernels, 4-tap segments off the border
  };
  for (const auto& c : cases) {
    const std::vector<prune::KernelPattern> patterns =
        prune::all_patterns(c.n_kept, c.d);
    ASSERT_FALSE(patterns.empty());
    for (std::size_t pi = 0; pi < patterns.size(); ++pi) {
      const prune::KernelPattern& p = patterns[pi];
      const std::int64_t period = static_cast<std::int64_t>(c.d) * c.d;
      for (std::int64_t group :
           {std::int64_t{0}, period, std::int64_t{7}}) {
        for (int bits : {4, 8}) {
          const Tensor w = make_pattern_weight(c.out_c, c.in_c, p, rng);
          const auto packed =
              qnn::pack(w, bits, group, quant::StorageFormat::kDense);
          const std::int64_t rows = c.out_c, k = c.in_c * period;
          PackedGemm pat(packed, rows, k, PanelMode::kForcePattern);
          PackedGemm seg(packed, rows, k, PanelMode::kForceSegment);
          PackedGemm full(packed, rows, k,
                          bits <= 4 ? PanelMode::kForceInt4
                                    : PanelMode::kForceInt8);
          ASSERT_EQ(pat.kernel_kind(), PackedGemm::KernelKind::kPatternPanel);
          ASSERT_TRUE(pat.pattern_active());
          ASSERT_EQ(pat.pattern_period(), period);
          ASSERT_LE(static_cast<std::int64_t>(pat.pattern_taps()->size()),
                    std::int64_t{c.n_kept});
          ASSERT_EQ(pat.k_compact(),
                    (k / period) *
                        static_cast<std::int64_t>(pat.pattern_taps()->size()));

          const Tensor x = Tensor::uniform({k, c.n}, rng);
          const qnn::QuantizedActs qa = qnn::quantize_acts(x, 8);
          std::vector<float> bias(static_cast<std::size_t>(rows));
          for (auto& b : bias) b = rng.uniform(-1.0f, 1.0f);
          char what[160];
          std::snprintf(what, sizeof(what),
                        "pattern %s out_c=%lld in_c=%lld bits=%d group=%lld",
                        p.key().c_str(), static_cast<long long>(c.out_c),
                        static_cast<long long>(c.in_c), bits,
                        static_cast<long long>(group));

          Tensor yp({rows, c.n}), ysg({rows, c.n}), yf({rows, c.n});
          pat.run(qa, bias.data(), yp);
          seg.run(qa, bias.data(), ysg);
          full.run(qa, bias.data(), yf);
          expect_bitwise_equal(yp, ysg, what);
          expect_bitwise_equal(yp, yf, what);

          // run_compact on a pre-gathered tap matrix is the same kernel
          // without the internal gather — bitwise equal by the compaction
          // contract.
          const std::vector<std::int8_t> cx = compact_acts(qa, pat, c.n);
          Tensor yc({rows, c.n});
          pat.run_compact(cx.data(), qa.scale, c.n, bias.data(), yc.data());
          expect_bitwise_equal(yp, yc, what);
        }
      }
    }
  }
}

TEST(QgemmKernel, AutoDispatchRoutesPatternSparsityToPatternPanel) {
  Rng rng(606);
  const std::vector<prune::KernelPattern> diag3 = prune::all_patterns(3, 3);
  const prune::KernelPattern& diag = diag3.front();  // main diagonal of 3x3
  // Pattern-pruned conv shape (6/9 slots masked, zero_frac ~0.67 above the
  // density threshold): the pattern panel.
  {
    const Tensor w = make_pattern_weight(8, 6, diag, rng);
    const auto p = qnn::pack(w, 4, 9, quant::StorageFormat::kDense);
    PackedGemm g(p, 8, 6 * 9);
    EXPECT_EQ(g.kernel_kind(), PackedGemm::KernelKind::kPatternPanel);
    EXPECT_EQ(g.k_compact(), 6 * 3);
  }
  // Dense conv shape: the ordinary int panel (no taps to drop).
  {
    Tensor w = Tensor::normal({8, 6, 3, 3}, rng);
    const auto p = qnn::pack(w, 4, 9, quant::StorageFormat::kDense);
    EXPECT_EQ(PackedGemm(p, 8, 6 * 9).kernel_kind(),
              PackedGemm::KernelKind::kInt4Panel);
  }
  // Same sparsity in a rank-2 weight (no conv geometry): the segment kernel
  // keeps it — there is no tap period to compact.
  {
    const Tensor w = make_weight(8, 54, 0.67, rng);
    const auto p = qnn::pack(w, 4, 9, quant::StorageFormat::kDense);
    EXPECT_EQ(PackedGemm(p, 8, 54).kernel_kind(),
              PackedGemm::KernelKind::kSegment);
  }
  // 1x1 conv shape: degenerate kernel, nothing to compact.
  {
    Tensor w = Tensor::normal({8, 16, 1, 1}, rng);
    for (std::int64_t i = 0; i < w.numel(); ++i)
      if (i % 3 != 0) w[i] = 0.0f;
    const auto p = qnn::pack(w, 4, 0, quant::StorageFormat::kDense);
    EXPECT_NE(PackedGemm(p, 8, 16).kernel_kind(),
              PackedGemm::KernelKind::kPatternPanel);
  }
}

TEST(QgemmKernel, PatternPanelThreadCountInvariantBitwise) {
  // Multi-stripe n and enough rows that both the gather and the panel kernel
  // split across lanes; the compacted layout is a property of the tap list,
  // so 1-thread and 4-thread runs must be bitwise equal.
  Rng rng(1717);
  const std::vector<prune::KernelPattern> pats = prune::all_patterns(2, 3);
  const Tensor w = make_pattern_weight(27, 21, pats[3], rng);
  const auto packed = qnn::pack(w, 4, 9, quant::StorageFormat::kDense);
  const std::int64_t rows = 27, k = 21 * 9, n = 530;
  const Tensor x = Tensor::uniform({k, n}, rng);
  const qnn::QuantizedActs qa = qnn::quantize_acts(x, 8);
  std::vector<float> bias(static_cast<std::size_t>(rows), 0.375f);

  PackedGemm g(packed, rows, k, PanelMode::kForcePattern);
  ASSERT_EQ(g.kernel_kind(), PackedGemm::KernelKind::kPatternPanel);
  parallel::set_thread_count(1);
  Tensor y1({rows, n});
  g.run(qa, bias.data(), y1);
  parallel::set_thread_count(4);
  Tensor y4({rows, n});
  g.run(qa, bias.data(), y4);
  parallel::set_thread_count(1);
  expect_bitwise_equal(y1, y4, "pattern panel thread-count divergence");
}

TEST(QgemmKernel, PatternPanelSteadyStateRunsDoNotGrowArena) {
  // The full-k entry's tap gather and the panel's B-pack scratch both come
  // from the workspace arena — once warm, repeated run() calls allocate
  // nothing.
  parallel::set_thread_count(1);
  { workspace::Scope flush; }
  Rng rng(99);
  const std::vector<prune::KernelPattern> pats = prune::all_patterns(3, 3);
  const Tensor w = make_pattern_weight(18, 30, pats[0], rng);
  const auto packed = qnn::pack(w, 4, 9, quant::StorageFormat::kDense);
  const std::int64_t rows = 18, k = 30 * 9, n = 290;
  PackedGemm g(packed, rows, k, PanelMode::kForcePattern);
  ASSERT_EQ(g.kernel_kind(), PackedGemm::KernelKind::kPatternPanel);
  const Tensor x = Tensor::uniform({k, n}, rng);
  const qnn::QuantizedActs qa = qnn::quantize_acts(x, 8);
  Tensor y({rows, n});

  for (int i = 0; i < 2; ++i) g.run(qa, nullptr, y);  // warm-up
  const workspace::Stats warm = workspace::stats();
  for (int i = 0; i < 5; ++i) g.run(qa, nullptr, y);
  const workspace::Stats steady = workspace::stats();
  EXPECT_EQ(steady.block_allocs, warm.block_allocs)
      << "steady-state pattern panel run() grew the workspace arena";
  EXPECT_GT(steady.reuses, warm.reuses)
      << "pattern panel run() did not route its scratch through the arena";
}

TEST(QgemmKernel, PatternTapsSkippedCounterChargesElidedPositions) {
  // pattern_taps_skipped = dropped k rows x output columns per forward;
  // qgemm_macs stays surviving entries x columns on every kernel, and the
  // non-pattern kernels charge no taps at all.
  Rng rng(4040);
  const std::vector<prune::KernelPattern> pats = prune::all_patterns(3, 3);
  const Tensor w = make_pattern_weight(11, 8, pats[1], rng);
  const auto packed = qnn::pack(w, 8, 9, quant::StorageFormat::kDense);
  const std::int64_t rows = 11, k = 8 * 9, n = 23;
  const Tensor x = Tensor::uniform({k, n}, rng);
  const qnn::QuantizedActs qa = qnn::quantize_acts(x, 8);
  Tensor y({rows, n});

  prof::set_enabled(true);
  {
    PackedGemm g(packed, rows, k, PanelMode::kForcePattern);
    const std::uint64_t macs0 = prof::counter_value(prof::Counter::kQgemmMacs);
    const std::uint64_t taps0 =
        prof::counter_value(prof::Counter::kPatternTapsSkipped);
    g.run(qa, nullptr, y);
    EXPECT_EQ(prof::counter_value(prof::Counter::kQgemmMacs) - macs0,
              static_cast<std::uint64_t>(g.entry_count()) *
                  static_cast<std::uint64_t>(n));
    EXPECT_EQ(
        prof::counter_value(prof::Counter::kPatternTapsSkipped) - taps0,
        static_cast<std::uint64_t>(k - g.k_compact()) *
            static_cast<std::uint64_t>(n));
  }
  {
    PackedGemm g(packed, rows, k, PanelMode::kForceSegment);
    const std::uint64_t taps0 =
        prof::counter_value(prof::Counter::kPatternTapsSkipped);
    g.run(qa, nullptr, y);
    EXPECT_EQ(prof::counter_value(prof::Counter::kPatternTapsSkipped), taps0);
  }
  prof::set_enabled(false);
}

TEST(QgemmKernel, LayersSharingARootPatternShareOneTapList) {
  // Pattern fusion: leaf layers stamped from one root pattern derive the
  // same (period, taps) and must intern ONE immutable tap list — pointer
  // equality, not just value equality.
  Rng rng(505);
  const std::vector<prune::KernelPattern> pats = prune::all_patterns(3, 3);
  const Tensor wa = make_pattern_weight(9, 4, pats[0], rng);
  const Tensor wb = make_pattern_weight(17, 12, pats[0], rng);  // other shape
  const Tensor wc = make_pattern_weight(9, 4, pats[1], rng);  // other pattern
  PackedGemm ga(qnn::pack(wa, 8, 9, quant::StorageFormat::kDense), 9, 36,
                PanelMode::kForcePattern);
  PackedGemm gb(qnn::pack(wb, 8, 9, quant::StorageFormat::kDense), 17, 108,
                PanelMode::kForcePattern);
  PackedGemm gc(qnn::pack(wc, 8, 9, quant::StorageFormat::kDense), 9, 36,
                PanelMode::kForcePattern);
  ASSERT_TRUE(ga.pattern_taps() && gb.pattern_taps() && gc.pattern_taps());
  EXPECT_EQ(ga.pattern_taps().get(), gb.pattern_taps().get());
  EXPECT_NE(ga.pattern_taps().get(), gc.pattern_taps().get());
}

TEST(QgemmKernel, PackedConv2dPatternForwardMatchesSegmentBitwise) {
  // End to end through the conv engine: the forced-pattern engine runs the
  // tap-compacted im2col (s8_im2col_taps) + run_compact, the forced-segment
  // engine the full gather + entry-skip kernel — identical outputs, bitwise,
  // including padding rows (masked taps never materialize on the pattern
  // side, padded positions are zero codes on both).
  Rng rng(31337);
  nn::Conv2d conv(6, 10, 3, 2, 1, true, rng, "pat_conv");
  const std::vector<prune::KernelPattern> pats = prune::all_patterns(2, 3);
  const Tensor mask =
      prune::expand_kernel_mask(pats[5], conv.weight().value.shape());
  for (std::int64_t i = 0; i < conv.weight().value.numel(); ++i)
    conv.weight().value[i] *= mask[i];
  conv.weight().mark_mutated();

  qnn::LowerSpec spec;
  spec.weight_bits = 4;
  spec.group_size = 9;
  spec.mode = PanelMode::kForcePattern;
  qnn::PackedConv2d pat(conv, spec);
  spec.mode = PanelMode::kForceSegment;
  qnn::PackedConv2d seg(conv, spec);
  ASSERT_EQ(pat.gemm().kernel_kind(), PackedGemm::KernelKind::kPatternPanel);
  ASSERT_EQ(seg.gemm().kernel_kind(), PackedGemm::KernelKind::kSegment);

  const Tensor x = Tensor::uniform({2, 6, 13, 11}, rng);
  const Tensor yp = pat.forward(x);
  const Tensor ys = seg.forward(x);
  expect_bitwise_equal(yp, ys, "conv pattern-vs-segment forward");
}

TEST(QgemmKernel, QgemmMacsCounterCountsEntriesTimesColumns) {
  // Counters only accumulate while tracing is on. Both paths charge the
  // same work: surviving entries x output columns.
  Rng rng(555);
  const std::int64_t rows = 11, k = 40, n = 23;
  const Tensor w = make_weight(rows, k, 0.4, rng);
  const auto packed = qnn::pack(w, 8, 8, quant::StorageFormat::kDense);
  const Tensor x = Tensor::uniform({k, n}, rng);
  const qnn::QuantizedActs qa = qnn::quantize_acts(x, 8);
  Tensor y({rows, n});

  prof::set_enabled(true);
  for (PanelMode mode : {PanelMode::kForcePanel, PanelMode::kForceSegment}) {
    PackedGemm g(packed, rows, k, mode);
    const std::uint64_t before = prof::counter_value(prof::Counter::kQgemmMacs);
    g.run(qa, nullptr, y);
    const std::uint64_t delta =
        prof::counter_value(prof::Counter::kQgemmMacs) - before;
    EXPECT_EQ(delta, static_cast<std::uint64_t>(g.entry_count()) *
                         static_cast<std::uint64_t>(n));
  }
  prof::set_enabled(false);
}

// ------------------------------------------------------- fused epilogue

TEST(QgemmKernel, FusedEpilogueMatchesLayerByLayerOnEveryKernel) {
  struct Kernel {
    const char* name;
    PanelMode mode;
    int bits;
    PackedGemm::KernelKind kind;
  };
  // 8-bit codes take the segment kernel's in-register sub-byte path, 12-bit
  // codes its generic int32-accumulate path.
  const Kernel kernels[] = {
      {"segment(i8)", PanelMode::kForceSegment, 8,
       PackedGemm::KernelKind::kSegment},
      {"segment(generic)", PanelMode::kForceSegment, 12,
       PackedGemm::KernelKind::kSegment},
      {"int8 panel", PanelMode::kForceInt8, 8,
       PackedGemm::KernelKind::kInt8Panel},
      {"int4 panel", PanelMode::kForceInt4, 4,
       PackedGemm::KernelKind::kInt4Panel},
      {"pattern panel", PanelMode::kForcePattern, 8,
       PackedGemm::KernelKind::kPatternPanel},
  };
  // Odd columns (9 x 13 = 117 per item, batch 2) leave 16-wide, 8-wide and
  // scalar tails; the 64-channel geometry has k = 576 > kQKC (multi-slab:
  // the epilogue must wait for the last slab's flushes) and n = 289 > kQNC.
  struct Geometry {
    std::int64_t n, in_c, out_c, h, w;
  };
  const Geometry geoms[] = {{2, 5, 11, 9, 13}, {1, 64, 13, 17, 17}};
  const std::vector<prune::KernelPattern> pats = prune::all_patterns(3, 3);
  for (const Kernel& kern : kernels)
    for (const Geometry& g : geoms)
      for (const bool bias : {false, true}) {
        Rng rng(900 + kern.bits + g.in_c + bias);
        nn::Conv2d conv(g.in_c, g.out_c, 3, 1, 1, bias, rng, "fused.qconv");
        if (kern.mode == PanelMode::kForcePattern) {
          const Tensor mask = prune::expand_kernel_mask(
              pats[7], conv.weight().value.shape());
          conv.weight().value.mul_(mask);
          conv.weight().mark_mutated();
        }
        if (bias) testing::set_edge_bias(*conv.bias(), rng);
        qnn::LowerSpec spec;
        spec.weight_bits = kern.bits;
        spec.group_size = 9;
        spec.mode = kern.mode;
        ASSERT_TRUE(qnn::lower_layer(conv, spec));
        const auto* engine =
            dynamic_cast<const qnn::PackedConv2d*>(conv.engine());
        ASSERT_NE(engine, nullptr);
        ASSERT_EQ(engine->gemm().kernel_kind(), kern.kind) << kern.name;
        const Tensor x =
            testing::finite_edge_tensor({g.n, g.in_c, g.h, g.w}, rng);
        const std::string what = std::string(kern.name) + " in_c=" +
                                 std::to_string(g.in_c) +
                                 " bias=" + std::to_string(bias);
        for (const auto& c : testing::fuse_cases(/*with_bn=*/true))
          testing::check_fused_matches_layers(conv, x, c, rng, what);
      }
}

TEST(QgemmKernel, FusedEpilogueMatchesLayerByLayerOnPackedLinear) {
  // The PFN path: run_t applies the epilogue per batch row with the channel
  // on the column axis (19 channels: two 8-lane groups plus a tail). 600
  // rows cross the parallel grain.
  for (const bool bias : {false, true}) {
    Rng rng(950 + bias);
    nn::Linear lin(9, 19, bias, rng, "fused.qlinear");
    if (bias) testing::set_edge_bias(*lin.bias(), rng);
    qnn::LowerSpec spec;
    spec.weight_bits = 8;
    ASSERT_TRUE(qnn::lower_layer(lin, spec));
    const Tensor x = testing::finite_edge_tensor({600, 9}, rng);
    for (const auto& c : testing::fuse_cases(/*with_bn=*/false))
      testing::check_fused_matches_layers(
          lin, x, c, rng, "packed linear bias=" + std::to_string(bias));
  }
}

}  // namespace
}  // namespace upaq
