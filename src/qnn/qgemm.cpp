#include "qnn/qgemm.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "parallel/thread_pool.h"
#include "prof/prof.h"
#include "tensor/check.h"
#include "tensor/gemm_kernel.h"
#include "tensor/workspace.h"

namespace upaq::qnn {

namespace {

// Same inline-below-threshold gating as tensor/ops.cpp: the serial and
// parallel paths share chunk boundaries, so gating cannot change results.
constexpr std::int64_t kMinParallelWork = 1 << 15;
constexpr std::int64_t kRowGrain = 8;

}  // namespace

QuantizedActs quantize_acts(const Tensor& m, int bits) {
  UPAQ_CHECK(m.rank() == 2, "quantize_acts expects a 2-D matrix");
  return quantize_acts(m.data(), m.dim(0), m.dim(1), bits);
}

QuantizedActs quantize_acts(const float* src0, std::int64_t rows,
                            std::int64_t cols, int bits) {
  QuantizedActs acts;
  acts.rows = rows;
  acts.cols = cols;
  acts.bits = bits;
  acts.codes.assign(static_cast<std::size_t>(rows * cols), 0);
  acts.scale = quantize_acts_into(src0, rows * cols, bits, acts.codes.data());
  return acts;
}

float quantize_acts_into(const float* src, std::int64_t n, int bits,
                         std::int8_t* dst) {
  UPAQ_CHECK(bits >= 2 && bits <= 8,
             "quantize_acts: bits must be in [2, 8], got " + std::to_string(bits));
  prof::add(prof::Counter::kActQuantCalls, 1);
  // Hot loops live in the kernel TU (gemm_kernel.cpp) for its codegen; the
  // arithmetic is exact per element, so where it compiles cannot change the
  // codes (a libm std::round per element here dominated the packed path
  // once; a scalar abs-max/convert at this TU's -O2 was next).
  return gemm::s8_quantize(src, n, bits, dst);
}

float quantize_taps_into(const float* src, const gemm::TapLayout& t,
                         int bits, std::int8_t* dst) {
  UPAQ_CHECK(bits >= 2 && bits <= 8, "quantize_acts: bits must be in [2, 8], got " +
                                         std::to_string(bits));
  prof::add(prof::Counter::kActQuantCalls, 1);
  return gemm::s8_quantize_taps(src, t, bits, dst);
}

Tensor dequantize_acts(const QuantizedActs& acts) {
  Tensor t({acts.rows, acts.cols});
  for (std::int64_t i = 0; i < t.numel(); ++i)
    t[i] = quant::dequantize_code(acts.codes[static_cast<std::size_t>(i)],
                                  acts.scale);
  return t;
}

PackedGemm::PackedGemm(const PackedTensor& w, std::int64_t rows, std::int64_t k,
                       PanelMode mode)
    : rows_(rows), k_(k), bits_(w.bits) {
  UPAQ_CHECK(rows > 0 && k > 0 && rows * k == w.numel(),
             "PackedGemm: rows*k must match the packed element count");
  for (float s : w.scales) max_scale_ = std::max(max_scale_, s);

  const std::int64_t g = w.effective_group();
  // Cap segment length so a segment's product sum always fits int32: each
  // term is at most (2^(bits-1)-1) * 127 (int8 activations). UPAQ's
  // per-kernel groups (9 weights) never hit this; it only bites per-tensor
  // scales on large dense rows. Splitting keeps the sums exact — only the
  // order of the (already rounded) per-segment requantizations changes.
  const std::int64_t max_w = (std::int64_t{1} << (bits_ - 1)) - 1;
  const std::int64_t safe_len =
      std::max<std::int64_t>(1, ((std::int64_t{1} << 31) - 1) / (max_w * 127));

  row_segs_.assign(static_cast<std::size_t>(rows) + 1, 0);
  const std::int64_t count = w.stored_count();
  // Segments address the entry lists with int32 offsets.
  UPAQ_CHECK(count <= std::numeric_limits<std::int32_t>::max(),
             "PackedGemm: more stored codes than int32 entry offsets hold");
  std::int64_t cur_row = -1, cur_group = -1;
  for (std::int64_t i = 0; i < count; ++i) {
    const std::int32_t code = w.code(i);
    if (code == 0) continue;  // contributes nothing; never multiply it
    const std::int64_t e = w.flat_index(i);
    const std::int64_t row = e / k, group = e / g;
    if (row == cur_row && group == cur_group &&
        entry_count() - segs_.back().begin >= safe_len) {
      const auto at = static_cast<std::int32_t>(entry_count());
      segs_.back().end = at;
      segs_.push_back({segs_.back().scale, at, at});
    }
    if (row != cur_row || group != cur_group) {
      // Close the previous segment and open a new one for this (row, group)
      // slice. Stored indices are ascending, so each slice is contiguous.
      const auto at = static_cast<std::int32_t>(entry_count());
      if (!segs_.empty()) segs_.back().end = at;
      segs_.push_back({w.scales[static_cast<std::size_t>(group)], at, at});
      cur_group = group;
      if (row != cur_row) {
        for (std::int64_t r = cur_row + 1; r <= row; ++r)
          row_segs_[static_cast<std::size_t>(r)] =
              static_cast<std::int64_t>(segs_.size()) - 1;
        cur_row = row;
      }
    }
    cols_.push_back(static_cast<std::int32_t>(e % k));
    codes_.push_back(code);
  }
  if (!segs_.empty())
    segs_.back().end = static_cast<std::int32_t>(entry_count());
  for (std::int64_t r = cur_row + 1; r <= rows; ++r)
    row_segs_[static_cast<std::size_t>(r)] =
        static_cast<std::int64_t>(segs_.size());

  // Kernel dispatch (PanelMode docs): dense-ish int8-representable weights
  // get the blocked int8 panel kernel and sparse matrices keep the segment
  // kernel where the zeros cost nothing. The force modes pin one kernel for
  // the tuner's candidate timings and the cross-kernel equivalence tests.
  const bool fits_i8 = bits_ <= 8;
  const double zero_frac =
      1.0 - static_cast<double>(entry_count()) / static_cast<double>(rows * k);
  const bool want_panel =
      mode == PanelMode::kForceInt8 ||
      (mode == PanelMode::kAuto && fits_i8 &&
       zero_frac <= gemm::kSparseZeroFraction);
  if (want_panel) {
    UPAQ_CHECK(fits_i8, "PackedGemm: panel path needs weight bits <= 8, got " +
                            std::to_string(bits_));
    build_panel(g);
    return;
  }
  // The segment kernel's fast path reads entry pairs with their weight words
  // and +128 corrections pre-built here, once per weight — on builds that
  // have that path.
  if (fits_i8 && gemm::s8_pair_kernel())
    pairs_ = gemm::s8_pack_pairs(cols_.data(), codes_.data(), segs_.data(),
                                 static_cast<std::int64_t>(segs_.size()));
}

void PackedGemm::build_panel(std::int64_t group) {
  // Decode the surviving codes ONCE into a dense row-major int8 matrix
  // (bits_ <= 8 guarantees |code| <= 127) — steady-state run() calls never
  // touch the bit-packed representation again.
  std::vector<std::int8_t> dense(static_cast<std::size_t>(rows_ * k_), 0);
  for (std::int64_t r = 0; r < rows_; ++r)
    for (std::int64_t si = row_segs_[static_cast<std::size_t>(r)];
         si < row_segs_[static_cast<std::size_t>(r) + 1]; ++si) {
      const Segment& seg = segs_[static_cast<std::size_t>(si)];
      for (std::int64_t e = seg.begin; e < seg.end; ++e)
        dense[static_cast<std::size_t>(
            r * k_ + cols_[static_cast<std::size_t>(e)])] =
            static_cast<std::int8_t>(codes_[static_cast<std::size_t>(e)]);
    }
  // Slab cuts must land on requantization boundaries for EVERY row — a
  // segment straddling a cut would lose its first slab's partial sum (panel
  // accumulators reset per slab). Scale groups tile every row at the same
  // column period only when the group size divides k; otherwise the group
  // grid drifts across rows and the single safe slab is the whole k.
  const std::int64_t p = (group > 0 && k_ % group == 0) ? group : k_;
  const std::int64_t slab = std::min(k_, std::max(p, (gemm::kQKC / p) * p));
  gemm::q8_pack_a(dense.data(), rows_, k_, slab, panel_);
  // Requantization schedule: one flush event per segment, firing at the
  // column after the segment's last entry. All-zero groups yield no segment
  // and thus no event — exactly like the segment engine, which never
  // requantizes them (flushing an all-zero accumulator could still flip a
  // -0.0 bias fill to +0.0).
  auto& events = panel_.events;
  const std::int64_t panels = (rows_ + gemm::kQMR - 1) / gemm::kQMR;
  events.assign(static_cast<std::size_t>(panels), {});
  for (std::int64_t r = 0; r < rows_; ++r)
    for (std::int64_t si = row_segs_[static_cast<std::size_t>(r)];
         si < row_segs_[static_cast<std::size_t>(r) + 1]; ++si) {
      const Segment& seg = segs_[static_cast<std::size_t>(si)];
      gemm::QFlush ev;
      ev.col = cols_[static_cast<std::size_t>(seg.end - 1)] + 1;
      ev.row = static_cast<std::int32_t>(r % gemm::kQMR);
      ev.scale = seg.scale;
      events[static_cast<std::size_t>(r / gemm::kQMR)].push_back(ev);
    }
  // Per-row event columns are strictly increasing (entry columns ascend), so
  // sorting by (col, row) is a total order — the kernel replays each row's
  // segments in exactly the segment engine's ascending order.
  for (auto& evs : events)
    std::sort(evs.begin(), evs.end(),
              [](const gemm::QFlush& a, const gemm::QFlush& b) {
                if (a.col != b.col) return a.col < b.col;
                return a.row < b.row;
              });
}

void PackedGemm::run(const QuantizedActs& x, const float* bias,
                     Tensor& out) const {
  UPAQ_CHECK(x.rows == k_, "PackedGemm::run: activation rows != k");
  const std::int64_t n = x.cols;
  UPAQ_CHECK(out.rank() == 2 && out.dim(0) == rows_ && out.dim(1) == n,
             "PackedGemm::run: bad output shape");
  run(x.codes.data(), x.scale, n, bias, out.data());
}

void PackedGemm::run(const std::int8_t* qx, float sx, std::int64_t n,
                     const float* bias, float* py,
                     const gemm::Epilogue* epi) const {
  if (!panel_active()) {
    workspace::Scope ws;
    run_taps(gemm::s8_matrix_taps(qx, k_, n, ws.i64(k_)), sx, bias, py, epi);
    return;
  }
  count_run(n);
  // Bias prefill mirrors the segment path's per-row fill; the panel kernel
  // then requantizes into it with the same per-element operation order, so
  // the paths are bitwise identical (tests/test_qgemm_kernel.cpp).
  auto fill = [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t r = r0; r < r1; ++r) {
      float* yrow = py + r * n;
      std::fill(yrow, yrow + n, bias != nullptr ? bias[r] : 0.0f);
    }
  };
  if (rows_ * n < kMinParallelWork) {
    fill(0, rows_);
  } else {
    parallel::parallel_for(0, rows_, kRowGrain, fill);
  }
  gemm::q8_gemm_panel(panel_, qx, sx, n, py, epi);
}

void PackedGemm::run_taps(const gemm::QTaps& x, float sx, const float* bias,
                          float* py, const gemm::Epilogue* epi) const {
  UPAQ_CHECK(!panel_active(),
             "PackedGemm::run_taps: only the segment kernel reads taps");
  count_run(x.n);
  // Entry-skipping segment sweep, hosted wholesale in the -march=native
  // kernel TU (the -O2 loops that used to sit here were the whole packed-path
  // regression). Per output element the operation sequence (bias, then
  // segments in order) is a pure function of the entry layout, never of the
  // thread count, blocking or the activation layout.
  gemm::s8_gemm_segments(cols_.data(), codes_.data(), segs_.data(),
                         row_segs_.data(), rows_, k_, x, sx, bias, py,
                         pairs_.empty() ? nullptr : &pairs_, epi);
}

void PackedGemm::count_run(std::int64_t n) const {
  prof::add(prof::Counter::kPackedSegments,
            static_cast<std::uint64_t>(segs_.size()));
  prof::add(prof::Counter::kQgemmMacs,
            static_cast<std::uint64_t>(entry_count()) *
                static_cast<std::uint64_t>(n));
}

void PackedGemm::run_t(const QuantizedActs& x, const float* bias,
                       Tensor& out) const {
  UPAQ_CHECK(x.cols == k_, "PackedGemm::run_t: activation cols != k");
  const std::int64_t n = x.rows;
  UPAQ_CHECK(out.rank() == 2 && out.dim(0) == n && out.dim(1) == rows_,
             "PackedGemm::run_t: bad output shape");
  run_t(x.codes.data(), x.scale, n, bias, out.data());
}

void PackedGemm::run_t(const std::int8_t* qx, float act_scale, std::int64_t n,
                       const float* bias, float* py,
                       const gemm::Epilogue* epi) const {
  if (epi != nullptr && !epi->active()) epi = nullptr;
  prof::add(prof::Counter::kPackedSegments,
            static_cast<std::uint64_t>(segs_.size()) *
                static_cast<std::uint64_t>(n));
  prof::add(prof::Counter::kQgemmMacs,
            static_cast<std::uint64_t>(entry_count()) *
                static_cast<std::uint64_t>(n));
  const double sx = static_cast<double>(act_scale);

  // One activation row per batch item: batch rows are disjoint outputs, so
  // the batch loop parallelises deterministically (mirrors nn::Linear).
  auto batch_block = [&](std::int64_t b0, std::int64_t b1) {
    for (std::int64_t b = b0; b < b1; ++b) {
      const std::int8_t* xrow = qx + b * k_;
      float* yrow = py + b * rows_;
      for (std::int64_t r = 0; r < rows_; ++r) {
        double acc = bias != nullptr ? static_cast<double>(bias[r]) : 0.0;
        for (std::int64_t si = row_segs_[static_cast<std::size_t>(r)];
             si < row_segs_[static_cast<std::size_t>(r) + 1]; ++si) {
          const Segment& seg = segs_[static_cast<std::size_t>(si)];
          std::int64_t s = 0;
          for (std::int64_t e = seg.begin; e < seg.end; ++e)
            s += static_cast<std::int64_t>(codes_[static_cast<std::size_t>(e)]) *
                 xrow[cols_[static_cast<std::size_t>(e)]];
          acc += static_cast<double>(seg.scale) * sx * static_cast<double>(s);
        }
        yrow[r] = static_cast<float>(acc);
      }
      if (epi != nullptr)
        gemm::epilogue_row(*epi, yrow,
                           epi->skip != nullptr ? epi->skip + b * rows_
                                                : nullptr,
                           rows_);
    }
  };
  if (n * rows_ * k_ < kMinParallelWork) {
    batch_block(0, n);
  } else {
    parallel::parallel_for(0, n, 32, batch_block);
  }
}

}  // namespace upaq::qnn
