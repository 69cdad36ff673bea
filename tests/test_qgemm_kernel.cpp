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
//   - the segment kernel's fast path (pair table) against its portable
//     generic path, bitwise, at 1 and 4 threads, with and without an
//     epilogue;
//   - the fused inference epilogue on every integer kernel (segment, both
//     its fast and generic paths, the int8 panel at 8- and 4-bit codes, and
//     the PFN's run_t): fused == layer by layer, bitwise, at 1 and 4
//     threads.
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
  /// > 0: a conv-shaped (rows, k / 9, 3, 3) weight keeping `taps` slots of
  /// every 3x3 kernel, the slots drawn per kernel (HCK's mixed patterns).
  int taps = 0;
};

// Edge tiles relative to the MR=6 / NR=8 micro-tile, plus one multi-stripe
// (n > kQNC = 256) and one multi-slab (k > kQKC = 512) entry. Odd k values
// exercise the phantom pair position of the interleaved layout. The n = 64,
// 65, 129 and 1040 entries sit on and just past the segment fast path's
// 64-column block (a 1-column and a 16-column masked tail), and the last
// entry is head.conv0's HCK shape: 48 rows, 72 input channels, 2 taps per
// kernel.
const Case kCases[] = {
    {1, 1, 1},      // degenerate everything
    {6, 48, 8},     // exactly one full micro-tile grid
    {7, 33, 13},    // ragged m/k/n on every grain
    {5, 9, 3},      // m < MR, odd k
    {23, 64, 72},   // several row panels, ragged last
    {13, 520, 40},  // k > kQKC: multi-slab when the group divides k
    {10, 64, 300},  // n > kQNC: multi-stripe
    {9, 40, 64},    // exactly one 64-column block
    {7, 33, 65},    // one block + 1-column tail
    {11, 27, 129},  // two blocks + 1-column tail
    {5, 19, 1040},  // 16 blocks + 16-column tail
    {48, 72 * 9, 200, 2},  // HCK head.conv0 shape, 3 blocks + 8-column tail
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

/// The weight of a kCases entry: make_weight's striped zeros, or for a
/// conv-shaped case `c.taps` surviving slots per 3x3 kernel.
Tensor make_case_weight(const Case& c, double zero_frac, Rng& rng) {
  if (c.taps == 0) return make_weight(c.rows, c.k, zero_frac, rng);
  Tensor w = Tensor::normal({c.rows, c.k / 9, 3, 3}, rng);
  for (std::int64_t kern = 0; kern < c.rows * (c.k / 9); ++kern) {
    std::vector<int> slots = {0, 1, 2, 3, 4, 5, 6, 7, 8};
    for (int i = 8; i > 0; --i)
      std::swap(slots[static_cast<std::size_t>(i)],
                slots[static_cast<std::size_t>(rng.uniform_int(0, i))]);
    for (std::size_t i = static_cast<std::size_t>(c.taps); i < 9; ++i)
      w[kern * 9 + slots[i]] = 0.0f;
  }
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
  PackedGemm panel(packed, rows, k, PanelMode::kForceInt8);
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
          const Tensor w = make_case_weight(c, zero_frac, rng);
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

/// Narrow (2..4-bit) codes on shapes that stress the panel layout: odd k
/// (the phantom tail of the last pair), k just past one packing slab
/// (k > kQKC = 512), and group sizes {9, 7, 5, 3} that do and do not divide
/// k — non-divisors force the single-slab layout with drifting scale
/// boundaries, divisors exercise the period-multiple slab rule.
TEST(QgemmKernel, NarrowCodesInt8PanelMatchesSegmentBitwise) {
  Rng rng(2024);
  const Case cases[] = {
      {6, 47, 16},    // odd k: pair tail inside one micro-tile row
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
        PackedGemm i8(packed, c.rows, c.k, PanelMode::kForceInt8);
        PackedGemm seg(packed, c.rows, c.k, PanelMode::kForceSegment);
        ASSERT_EQ(i8.kernel_kind(), PackedGemm::KernelKind::kInt8Panel);
        ASSERT_EQ(seg.kernel_kind(), PackedGemm::KernelKind::kSegment);

        const Tensor x = Tensor::uniform({c.k, c.n}, rng);
        const qnn::QuantizedActs qa = qnn::quantize_acts(x, 8);
        std::vector<float> bias(static_cast<std::size_t>(c.rows));
        for (auto& b : bias) b = rng.uniform(-1.0f, 1.0f);
        char what[128];
        std::snprintf(what, sizeof(what),
                      "narrow m=%lld k=%lld n=%lld bits=%d group=%lld",
                      static_cast<long long>(c.rows),
                      static_cast<long long>(c.k),
                      static_cast<long long>(c.n), bits,
                      static_cast<long long>(group));

        Tensor y8({c.rows, c.n}), ysg({c.rows, c.n});
        i8.run(qa, bias.data(), y8);
        seg.run(qa, bias.data(), ysg);
        expect_bitwise_equal(y8, ysg, what);
      }
    }
  }
}

TEST(QgemmKernel, AutoDispatchPicksInt8PanelForDenseNarrowCodes) {
  Rng rng(64);
  const std::int64_t rows = 10, k = 72;
  // Dense narrow codes: the pair-interleaved int8 panel.
  {
    const Tensor w = make_weight(rows, k, 0.0, rng);
    const auto p = qnn::pack(w, 4, 8, quant::StorageFormat::kDense);
    EXPECT_EQ(PackedGemm(p, rows, k).kernel_kind(),
              PackedGemm::KernelKind::kInt8Panel);
  }
  // Dense 8-bit codes: the same panel.
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

  for (PanelMode mode : {PanelMode::kForceInt8, PanelMode::kForceSegment}) {
    PackedGemm g(packed, rows, k, mode);
    parallel::set_thread_count(1);
    Tensor y1({rows, n});
    g.run(qa, bias.data(), y1);
    parallel::set_thread_count(4);
    Tensor y4({rows, n});
    g.run(qa, bias.data(), y4);
    parallel::set_thread_count(1);
    expect_bitwise_equal(y1, y4,
                         mode == PanelMode::kForceInt8
                             ? "panel thread-count divergence"
                             : "segment thread-count divergence");
  }
}

/// Segment-kernel entry lists of a packed weight, built here independently
/// of qnn::PackedGemm: per row, the nonzero codes in column order, one
/// segment per (row, scale group) slice.
struct SegmentLists {
  std::vector<std::int32_t> cols, codes;
  std::vector<gemm::QSegment> segs;
  std::vector<std::int64_t> row_segs;  ///< rows + 1 offsets into segs
};

SegmentLists segment_lists(const qnn::PackedTensor& p, std::int64_t rows,
                           std::int64_t k) {
  SegmentLists l;
  std::vector<std::int64_t> seg_row;
  const std::int64_t g = p.effective_group();
  std::int64_t cur_row = -1, cur_group = -1;
  for (std::int64_t i = 0; i < p.stored_count(); ++i) {
    const std::int32_t code = p.code(i);
    if (code == 0) continue;
    const std::int64_t e = p.flat_index(i);
    const std::int64_t row = e / k, group = e / g;
    const auto at = static_cast<std::int32_t>(l.cols.size());
    if (row != cur_row || group != cur_group) {
      if (!l.segs.empty()) l.segs.back().end = at;
      l.segs.push_back({p.scales[static_cast<std::size_t>(group)], at, at});
      seg_row.push_back(row);
      cur_row = row;
      cur_group = group;
    }
    l.cols.push_back(static_cast<std::int32_t>(e % k));
    l.codes.push_back(code);
  }
  if (!l.segs.empty())
    l.segs.back().end = static_cast<std::int32_t>(l.cols.size());
  l.row_segs.assign(static_cast<std::size_t>(rows) + 1, 0);
  for (const std::int64_t r : seg_row)
    ++l.row_segs[static_cast<std::size_t>(r) + 1];
  for (std::int64_t r = 0; r < rows; ++r)
    l.row_segs[static_cast<std::size_t>(r) + 1] +=
        l.row_segs[static_cast<std::size_t>(r)];
  return l;
}

/// Per-row operands of a full epilogue (BN + residual + LeakyReLU) over a
/// (rows, cols) output, with signed zeros in the edge slots.
struct EpilogueOperands {
  std::vector<float> bias, gamma, mean, inv_std, beta;
  Tensor skip;

  EpilogueOperands(std::int64_t rows, std::int64_t cols, Rng& rng) {
    const auto per_row = [&](float lo, float hi) {
      std::vector<float> v(static_cast<std::size_t>(rows));
      for (auto& x : v) x = rng.uniform(lo, hi);
      return v;
    };
    bias = per_row(-1.0f, 1.0f);
    bias[0] = -0.0f;
    gamma = per_row(0.5f, 1.5f);
    mean = per_row(-0.5f, 0.5f);
    inv_std = per_row(0.5f, 2.0f);
    beta = per_row(-0.5f, 0.5f);
    gamma[0] = 0.0f;
    beta[0] = -0.0f;
    skip = testing::edge_tensor({rows, cols}, rng);
  }

  gemm::Epilogue full() const {
    gemm::Epilogue e;
    e.gamma = gamma.data();
    e.mean = mean.data();
    e.inv_std = inv_std.data();
    e.beta = beta.data();
    e.skip = skip.data();
    e.relu = true;
    e.slope = 0.1f;
    return e;
  }
};

TEST(QgemmKernel, SegmentFastPathMatchesGenericPathBitwise) {
  // Every packed kernel is checked against the segment kernel, so the
  // segment kernel's own fast path (the pair table) is checked here against
  // its portable generic path (no table), over the kCases grid. Groups of
  // 1, 3 and 5 make segments of those lengths, so pairs with an unpaired
  // last entry occur; groups of 9 are UPAQ's per-kernel segments and group 0
  // gives whole-row segments. The activations sit in their own exact-size
  // allocation, so a block load past the last row reads out of bounds under
  // ASan. Every output must match the 1-thread generic output bitwise, at 1
  // and 4 threads, with no epilogue and with BN + residual + LeakyReLU.
  Rng rng(6464);
  for (const auto& c : kCases)
    for (int bits : {2, 4, 8})
      for (std::int64_t group : {std::int64_t{1}, std::int64_t{3},
                                 std::int64_t{5}, std::int64_t{9},
                                 std::int64_t{0}})
        for (double zero_frac : {0.0, 0.3}) {
          const Tensor w = make_case_weight(c, zero_frac, rng);
          const auto packed =
              qnn::pack(w, bits, group, quant::StorageFormat::kDense);
          const SegmentLists l = segment_lists(packed, c.rows, c.k);
          const gemm::QPairTable pairs = gemm::s8_pack_pairs(
              l.cols.data(), l.codes.data(), l.segs.data(),
              static_cast<std::int64_t>(l.segs.size()));
          const qnn::QuantizedActs qa =
              qnn::quantize_acts(Tensor::uniform({c.k, c.n}, rng), 8);

          const EpilogueOperands ops(c.rows, c.n, rng);
          const gemm::Epilogue full = ops.full();

          const auto run = [&](const gemm::QPairTable* pt,
                               const gemm::Epilogue* epi) {
            Tensor y({c.rows, c.n});
            std::vector<std::int64_t> off(static_cast<std::size_t>(c.k));
            gemm::s8_gemm_segments(
                l.cols.data(), l.codes.data(), l.segs.data(),
                l.row_segs.data(), c.rows, c.k,
                gemm::s8_matrix_taps(qa.codes.data(), c.k, c.n, off.data()),
                qa.scale, ops.bias.data(), y.data(), pt, epi);
            return y;
          };
          const gemm::Epilogue* const epis[] = {nullptr, &full};
          for (const gemm::Epilogue* epi : epis) {
            parallel::set_thread_count(1);
            const Tensor ref = run(nullptr, epi);
            for (const int threads : {1, 4}) {
              parallel::set_thread_count(threads);
              char what[160];
              std::snprintf(what, sizeof(what),
                            "fast vs generic m=%lld k=%lld n=%lld bits=%d "
                            "group=%lld zeros=%.1f epi=%d threads=%d",
                            static_cast<long long>(c.rows),
                            static_cast<long long>(c.k),
                            static_cast<long long>(c.n), bits,
                            static_cast<long long>(group), zero_frac,
                            epi != nullptr, threads);
              expect_bitwise_equal(run(&pairs, epi), ref, what);
              expect_bitwise_equal(run(nullptr, epi), ref, what);
            }
          }
          parallel::set_thread_count(1);
        }
}

TEST(QgemmKernel, ImplicitConvMatchesIm2colPathBitwise) {
  // A segment-kernel conv reads its taps in place from the tap layout
  // (gemm::TapLayout) instead of an im2col matrix.
  // Reference: quantize the flat map, gather the explicit int8 column matrix
  // (s8_im2col) and run the generic segment path on it at 1 thread. The
  // implicit GEMM — on the pair table and on the generic path — must match
  // it bitwise at 1 and 4 threads, with no epilogue and with BN + residual +
  // LeakyReLU, over stride {1, 2} x pad {0, 1} on even, odd and wide maps:
  // output rows straddle 64-column blocks, and the 65- and 130-wide maps
  // give an output width of 65. The layout sits in an exact-size
  // allocation, so a tap read past its end is an ASan error.
  struct Map {
    std::int64_t h, w;
  };
  const Map maps[] = {{8, 8}, {9, 7}, {32, 32}, {33, 31}, {3, 65}, {4, 130}};
  const std::int64_t in_c = 3, rows = 20, k = in_c * 9;
  Rng rng(7171);
  for (const Map& m : maps)
    for (const int stride : {1, 2})
      for (const int pad : {0, 1})
        for (const int bits : {2, 4, 8}) {
          const gemm::TapLayout t =
              gemm::tap_layout(in_c, m.h, m.w, 3, stride, pad);
          ASSERT_GT(t.oh * t.ow, 0);
          const std::int64_t out_n = t.oh * t.ow;
          const Tensor w = make_case_weight({rows, k, out_n, 2}, 0.0, rng);
          const auto packed =
              qnn::pack(w, bits, 9, quant::StorageFormat::kDense);
          const SegmentLists l = segment_lists(packed, rows, k);
          const gemm::QPairTable pairs = gemm::s8_pack_pairs(
              l.cols.data(), l.codes.data(), l.segs.data(),
              static_cast<std::int64_t>(l.segs.size()));
          const Tensor x = Tensor::uniform({in_c, m.h, m.w}, rng);

          std::vector<std::int8_t> flat(static_cast<std::size_t>(x.numel()));
          const float sx = gemm::s8_quantize(x.data(), x.numel(), 8,
                                             flat.data());
          std::vector<std::int8_t> im2col(static_cast<std::size_t>(k * out_n));
          gemm::s8_im2col(flat.data(), in_c, m.h, m.w, 3, stride, pad, t.oh,
                          t.ow, im2col.data());
          std::vector<std::int64_t> im2col_off(static_cast<std::size_t>(k));
          const gemm::QTaps explicit_x = gemm::s8_matrix_taps(
              im2col.data(), k, out_n, im2col_off.data());

          std::vector<std::int8_t> layout(static_cast<std::size_t>(t.bytes()));
          const float sx_taps =
              gemm::s8_quantize_taps(x.data(), t, 8, layout.data());
          ASSERT_EQ(std::bit_cast<std::uint32_t>(sx),
                    std::bit_cast<std::uint32_t>(sx_taps));
          std::vector<std::int64_t> off(static_cast<std::size_t>(t.taps()));
          gemm::s8_tap_offsets(t, off.data());
          const gemm::QTaps implicit_x =
              gemm::s8_layout_taps(t, layout.data(), off.data());
          ASSERT_EQ(implicit_x.n, out_n);

          const EpilogueOperands ops(rows, out_n, rng);
          const gemm::Epilogue full = ops.full();
          const auto run = [&](const gemm::QTaps& xt,
                               const gemm::QPairTable* pt,
                               const gemm::Epilogue* epi) {
            Tensor y({rows, out_n});
            gemm::s8_gemm_segments(l.cols.data(), l.codes.data(),
                                   l.segs.data(), l.row_segs.data(), rows, k,
                                   xt, sx, ops.bias.data(), y.data(), pt, epi);
            return y;
          };
          const gemm::Epilogue* const epis[] = {nullptr, &full};
          for (const gemm::Epilogue* epi : epis) {
            parallel::set_thread_count(1);
            const Tensor ref = run(explicit_x, nullptr, epi);
            for (const int threads : {1, 4}) {
              parallel::set_thread_count(threads);
              char what[160];
              std::snprintf(what, sizeof(what),
                            "implicit vs im2col h=%lld w=%lld stride=%d "
                            "pad=%d bits=%d epi=%d threads=%d",
                            static_cast<long long>(m.h),
                            static_cast<long long>(m.w), stride, pad, bits,
                            epi != nullptr, threads);
              expect_bitwise_equal(run(implicit_x, &pairs, epi), ref, what);
              expect_bitwise_equal(run(implicit_x, nullptr, epi), ref, what);
            }
          }
          parallel::set_thread_count(1);
        }
  // A 5x5 kernel on maps down to 1x1: tap columns shifted by more than the
  // map is wide, whole border planes.
  for (const Map& m : {Map{1, 1}, Map{2, 3}, Map{6, 6}})
    for (const int stride : {1, 2}) {
      const std::int64_t k5 = in_c * 25;
      const gemm::TapLayout t =
          gemm::tap_layout(in_c, m.h, m.w, 5, stride, 2);
      const std::int64_t out_n = t.oh * t.ow;
      const Tensor w = make_weight(rows, k5, 0.5, rng);
      const auto packed = qnn::pack(w, 8, 25, quant::StorageFormat::kDense);
      const SegmentLists l = segment_lists(packed, rows, k5);
      const Tensor x = Tensor::uniform({in_c, m.h, m.w}, rng);
      std::vector<std::int8_t> flat(static_cast<std::size_t>(x.numel()));
      const float sx =
          gemm::s8_quantize(x.data(), x.numel(), 8, flat.data());
      std::vector<std::int8_t> im2col(static_cast<std::size_t>(k5 * out_n));
      gemm::s8_im2col(flat.data(), in_c, m.h, m.w, 5, stride, 2, t.oh, t.ow,
                      im2col.data());
      std::vector<std::int64_t> im2col_off(static_cast<std::size_t>(k5));
      std::vector<std::int8_t> layout(static_cast<std::size_t>(t.bytes()));
      ASSERT_EQ(std::bit_cast<std::uint32_t>(sx),
                std::bit_cast<std::uint32_t>(gemm::s8_quantize_taps(
                    x.data(), t, 8, layout.data())));
      std::vector<std::int64_t> off(static_cast<std::size_t>(t.taps()));
      gemm::s8_tap_offsets(t, off.data());
      const auto run = [&](const gemm::QTaps& xt) {
        Tensor y({rows, out_n});
        gemm::s8_gemm_segments(l.cols.data(), l.codes.data(), l.segs.data(),
                               l.row_segs.data(), rows, k5, xt, sx, nullptr,
                               y.data());
        return y;
      };
      expect_bitwise_equal(
          run(gemm::s8_layout_taps(t, layout.data(), off.data())),
          run(gemm::s8_matrix_taps(im2col.data(), k5, out_n,
                                   im2col_off.data())),
          "implicit vs im2col, 5x5 kernel");
    }
}

TEST(QgemmKernel, SteadyStatePanelRunsDoNotGrowArena) {
  // The panel kernel's B-pack scratch and the generic segment path's int32
  // block accumulator come from the workspace arena, and the segment fast
  // path (8-bit codes) keeps its whole block in registers; after warm-up,
  // repeated run() calls must be allocation-free on all three.
  // Single-threaded so the main thread's arena observes every allocation.
  parallel::set_thread_count(1);
  { workspace::Scope flush; }  // drain earlier tests' cached blocks
  Rng rng(1212);
  const std::int64_t rows = 24, k = 300, n = 310;
  const Tensor x = Tensor::uniform({k, n}, rng);
  const qnn::QuantizedActs qa = qnn::quantize_acts(x, 8);
  struct Kernel {
    const char* name;
    PanelMode mode;
    int bits;
    double zero_frac;
    bool arena;  ///< the kernel takes arena scratch
  };
  const Kernel kernels[] = {
      {"panel", PanelMode::kForceInt8, 8, 0.0, true},
      {"segment(fast)", PanelMode::kForceSegment, 8, 0.7, false},
      {"segment(generic)", PanelMode::kForceSegment, 12, 0.7, true},
  };
  for (const Kernel& kern : kernels) {
    const Tensor w = make_weight(rows, k, kern.zero_frac, rng);
    const auto packed =
        qnn::pack(w, kern.bits, 0, quant::StorageFormat::kDense);
    PackedGemm g(packed, rows, k, kern.mode);
    Tensor y({rows, n});

    for (int i = 0; i < 2; ++i) g.run(qa, nullptr, y);  // warm-up
    const workspace::Stats warm = workspace::stats();
    for (int i = 0; i < 5; ++i) g.run(qa, nullptr, y);
    const workspace::Stats steady = workspace::stats();
    EXPECT_EQ(steady.block_allocs, warm.block_allocs)
        << "steady-state " << kern.name << " run() grew the workspace arena";
    if (kern.arena) {
      EXPECT_GT(steady.reuses, warm.reuses)
          << kern.name << " run() did not route its scratch through the arena";
    }
  }
}

/// Conv-shaped weight (out_c, in_c, d, d) with a kernel pattern stamped onto
/// every kernel via expand_kernel_mask — exactly how Algorithm 3 applies a
/// root's pattern to a layer.
Tensor make_pattern_weight(std::int64_t out_c, std::int64_t in_c,
                           const prune::KernelPattern& p, Rng& rng) {
  Tensor w = Tensor::normal({out_c, in_c, p.d, p.d}, rng);
  const Tensor m = prune::expand_kernel_mask(p, w.shape());
  for (std::int64_t i = 0; i < w.numel(); ++i) w[i] *= m[i];
  return w;
}

TEST(QgemmKernel, AutoDispatchKeepsPatternPrunedConvsOnSegmentKernel) {
  Rng rng(606);
  const std::vector<prune::KernelPattern> diag3 = prune::all_patterns(3, 3);
  const prune::KernelPattern& diag = diag3.front();  // main diagonal of 3x3
  // Pattern-pruned conv shape (6/9 slots masked, zero_frac ~0.67 above the
  // density threshold): the segment kernel never touches the masked taps.
  {
    const Tensor w = make_pattern_weight(8, 6, diag, rng);
    const auto p = qnn::pack(w, 4, 9, quant::StorageFormat::kDense);
    EXPECT_EQ(PackedGemm(p, 8, 6 * 9).kernel_kind(),
              PackedGemm::KernelKind::kSegment);
  }
  // Dense conv shape: the int8 panel.
  {
    Tensor w = Tensor::normal({8, 6, 3, 3}, rng);
    const auto p = qnn::pack(w, 4, 9, quant::StorageFormat::kDense);
    EXPECT_EQ(PackedGemm(p, 8, 6 * 9).kernel_kind(),
              PackedGemm::KernelKind::kInt8Panel);
  }
}

TEST(QgemmKernel, QgemmMacsCounterCountsEntriesTimesColumns) {
  // Counters only accumulate while tracing is on. Every path charges the
  // same work: surviving entries x output columns — also the implicit GEMM
  // over a conv's tap layout, whose planes hold more codes than it has
  // output columns.
  Rng rng(555);
  const std::int64_t rows = 11, k = 40, n = 23;
  const Tensor w = make_weight(rows, k, 0.4, rng);
  const auto packed = qnn::pack(w, 8, 8, quant::StorageFormat::kDense);
  const Tensor x = Tensor::uniform({k, n}, rng);
  const qnn::QuantizedActs qa = qnn::quantize_acts(x, 8);
  Tensor y({rows, n});

  prof::set_enabled(true);
  for (PanelMode mode : {PanelMode::kForceInt8, PanelMode::kForceSegment}) {
    PackedGemm g(packed, rows, k, mode);
    const std::uint64_t before = prof::counter_value(prof::Counter::kQgemmMacs);
    g.run(qa, nullptr, y);
    const std::uint64_t delta =
        prof::counter_value(prof::Counter::kQgemmMacs) - before;
    EXPECT_EQ(delta, static_cast<std::uint64_t>(g.entry_count()) *
                         static_cast<std::uint64_t>(n));
  }
  {
    // 4 input channels x 9 taps = k 36; a 7 x 6 map at stride 2, pad 1
    // gives 4 x 3 outputs.
    const Tensor wc = make_weight(rows, 36, 0.4, rng);
    const auto pc = qnn::pack(wc, 8, 9, quant::StorageFormat::kDense);
    PackedGemm g(pc, rows, 36, PanelMode::kForceSegment);
    const gemm::TapLayout t = gemm::tap_layout(4, 7, 6, 3, 2, 1);
    const Tensor map = Tensor::uniform({4, 7, 6}, rng);
    std::vector<std::int8_t> layout(static_cast<std::size_t>(t.bytes()));
    const float sx = gemm::s8_quantize_taps(map.data(), t, 8, layout.data());
    std::vector<std::int64_t> off(static_cast<std::size_t>(t.taps()));
    gemm::s8_tap_offsets(t, off.data());
    ASSERT_EQ(t.oh * t.ow, 12);
    std::vector<float> yc(static_cast<std::size_t>(rows * 12));
    const std::uint64_t before = prof::counter_value(prof::Counter::kQgemmMacs);
    g.run_taps(gemm::s8_layout_taps(t, layout.data(), off.data()), sx,
               nullptr, yc.data());
    EXPECT_EQ(prof::counter_value(prof::Counter::kQgemmMacs) - before,
              static_cast<std::uint64_t>(g.entry_count()) * 12u);
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
  // 8-bit codes take the segment kernel's fast path (the pair table), 12-bit
  // codes its generic int32-accumulate path.
  const Kernel kernels[] = {
      {"segment(i8)", PanelMode::kForceSegment, 8,
       PackedGemm::KernelKind::kSegment},
      {"segment(generic)", PanelMode::kForceSegment, 12,
       PackedGemm::KernelKind::kSegment},
      {"int8 panel", PanelMode::kForceInt8, 8,
       PackedGemm::KernelKind::kInt8Panel},
      {"int8 panel(w4)", PanelMode::kForceInt8, 4,
       PackedGemm::KernelKind::kInt8Panel},
  };
  // Odd columns (9 x 13 = 117 per item, batch 2) leave 16-wide, 8-wide and
  // scalar tails; the 64-channel geometry has k = 576 > kQKC (multi-slab:
  // the epilogue must wait for the last slab's flushes) and n = 289 > kQNC;
  // 10 x 19 = 190 columns are two full 64-column segment blocks and a
  // 62-column masked tail.
  struct Geometry {
    std::int64_t n, in_c, out_c, h, w;
  };
  const Geometry geoms[] = {
      {2, 5, 11, 9, 13}, {1, 64, 13, 17, 17}, {1, 6, 16, 10, 19}};
  for (const Kernel& kern : kernels)
    for (const Geometry& g : geoms)
      for (const bool bias : {false, true}) {
        Rng rng(900 + kern.bits + g.in_c + bias);
        nn::Conv2d conv(g.in_c, g.out_c, 3, 1, 1, bias, rng, "fused.qconv");
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
