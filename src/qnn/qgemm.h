// Integer-accumulate GEMM over packed weights and quantized activations.
//
// Requantization math (DESIGN.md sec. 8): with per-group weight scales s_g
// and one activation scale s_x, an output element is
//   y[r, j] = sum_g s_g * s_x * ( sum_{e in group g of row r} wq_e * xq_e )
// The inner sum is exact integer arithmetic (int32 accumulate of int code
// products; the constructor splits segments so sums cannot overflow) and the
// per-group requantization factor s_g * s_x is applied in float32 — so the
// result is a pure function of the codes and scales, independent of thread
// count, and bitwise deterministic under the upaq::parallel chunking
// contract. (run_t's long dot products accumulate the requantized terms in
// double before the single rounding to float.)
//
// The engine precomputes, per output row, the list of surviving
// (column, code) entries grouped into scale segments, so positions pruned
// away by the pattern masks are never loaded or multiplied.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "qnn/packed.h"
#include "tensor/gemm_kernel.h"
#include "tensor/tensor.h"

namespace upaq::qnn {

/// Quantized activation matrix: symmetric integer codes of a float matrix
/// with one shared scale. Codes use the Algorithm-6 grid of
/// quant::mp_quantize_codes, clamped to at most 8 bits so they fit int8.
struct QuantizedActs {
  std::vector<std::int8_t> codes;  ///< row-major (rows, cols)
  std::int64_t rows = 0, cols = 0;
  float scale = 1.0f;
  int bits = 8;
};

/// Quantizes an activation matrix to `bits` (2..8) integer codes with one
/// per-tensor symmetric scale. Deterministic: one abs-max pass, then a
/// parallel elementwise conversion.
QuantizedActs quantize_acts(const Tensor& m, int bits = 8);

/// Raw-buffer variant: quantizes `rows * cols` floats laid out row-major.
/// Identical arithmetic to the Tensor overload (the scale depends only on
/// the value multiset, not the layout).
QuantizedActs quantize_acts(const float* src, std::int64_t rows,
                            std::int64_t cols, int bits = 8);

/// Allocation-free core: quantizes `count` floats into a caller-provided
/// int8 buffer (the packed layers point this at workspace arena scratch) and
/// returns the symmetric scale. The heap-returning overloads wrap this, so
/// all three produce identical codes for identical values.
float quantize_acts_into(const float* src, std::int64_t count, int bits,
                         std::int8_t* dst);

/// Exact float image of the activation codes (for the equivalence tests'
/// fake-quant reference path).
Tensor dequantize_acts(const QuantizedActs& acts);

/// Spatial tap union of a rank-4 (out_c, in_c, d, d) conv weight: the sorted
/// list of kernel slots (ky*d + kx in [0, d*d)) holding at least one nonzero
/// value across every (out_c, in_c) kernel. This is exactly the union of the
/// layer's KernelPattern masks after prune::expand_kernel_mask zeroed the
/// rest, and it is the k-axis structure the pattern panel compacts away.
/// Returns empty for non-conv geometry (rank != 4, non-square, or 1x1).
std::vector<std::int32_t> weight_tap_union(const Tensor& w);

/// True when `w` can take the pattern panel: conv geometry with d > 1,
/// codes that fit the int8 panels (weight_bits <= 8), and a tap union that
/// is non-empty yet misses at least one slot — i.e. the compaction would
/// actually shrink k. The auto-tuner gates its kPatternPanel candidate on
/// this so dense or degenerate layers never race a no-op kernel.
bool pattern_eligible(const Tensor& w, int weight_bits);

/// Order-sensitive FNV-1a hash over (d*d, tap list) — the tap-list identity
/// component of the PanelCache key, so two lowerings of one parameter whose
/// pattern masks differ can never alias one cached panel. Returns 0 for
/// non-conv geometry (no taps to identify).
std::uint64_t tap_signature(const Tensor& w);

class PackedGemm {
 public:
  /// run() execution strategy. kAuto picks per matrix: conv weights whose
  /// sparsity is pattern-structured (a rank-4 square-kernel shape whose tap
  /// union misses slots — the semi-structured pruning masks) take the
  /// pattern panel, which compacts the masked k rows away and runs the dense
  /// micro-tile over the surviving taps; other codes that fit int8 (weight
  /// bits <= 8) and are dense enough (zero fraction at or below
  /// gemm::kSparseZeroFraction) take a blocked panel kernel — the native
  /// nibble-packed int4 panel when bits <= 4, the pair-interleaved int8
  /// panel otherwise; unstructured high-sparsity matrices keep the
  /// entry-skipping segment kernels, where the zeros are never touched.
  /// kForcePanel follows the bit-width split; kForceInt8 / kForceInt4 /
  /// kForcePattern pin one specific kernel (the auto-tuner's candidates, and
  /// the cross-kernel equivalence tests). All paths are bitwise identical by
  /// construction, so forcing is never needed for correctness.
  enum class PanelMode { kAuto, kForcePanel, kForceSegment, kForceInt8,
                         kForceInt4, kForcePattern };

  /// Which kernel run() dispatches to (the auto-tuner's vocabulary).
  enum class KernelKind { kSegment, kInt8Panel, kInt4Panel, kPatternPanel };

  /// Interprets `w` as a (rows, k) row-major 2-D weight; rows * k must equal
  /// w's element count. Scale groups that straddle row boundaries are split
  /// into per-row segments. When the panel path is selected (see PanelMode),
  /// the codes are additionally decoded ONCE here into dense int8 panels so
  /// steady-state run() calls never touch the bit-packed representation.
  PackedGemm(const PackedTensor& w, std::int64_t rows, std::int64_t k,
             PanelMode mode = PanelMode::kAuto);

  /// out(rows, n) = requant(Wq * Xq) + bias, with x laid out (k, n) — the
  /// im2col orientation. `bias` (length rows) may be null.
  void run(const QuantizedActs& x, const float* bias, Tensor& out) const;

  /// Raw-buffer variant of run(): `codes` is the (k, n) activation matrix,
  /// `out` a (rows, n) buffer written in place (bias is fused into the
  /// initial fill, so no separate output pass is needed). Lets callers feed
  /// pre-gathered integer columns and write straight into an output slice.
  /// When the pattern panel is active, the full-k matrix is first compacted
  /// to the surviving tap rows (an extra copy) — callers that can gather
  /// compacted columns directly should use run_compact() instead. An active
  /// `epi` (channel = output row, skip in `out`'s layout) is applied by the
  /// kernel in its final store.
  void run(const std::int8_t* codes, float act_scale, std::int64_t n,
           const float* bias, float* out,
           const gemm::Epilogue* epi = nullptr) const;

  /// Pattern-panel entry that skips the full-k gather: `codes` is the
  /// already-compacted (k_compact, n) activation matrix whose row r holds
  /// full-matrix row (r / ntaps) * period + taps[r % ntaps] — exactly what
  /// gemm::s8_im2col_taps produces for this engine's tap list. Only valid
  /// when pattern_active(); bitwise identical to run() on the full matrix
  /// (the dropped rows multiply all-zero weight columns).
  void run_compact(const std::int8_t* codes, float act_scale, std::int64_t n,
                   const float* bias, float* out,
                   const gemm::Epilogue* epi = nullptr) const;

  /// Transposed-activation variant for Linear: x laid out (n, k) row-major
  /// (one activation row per batch item), out(n, rows).
  void run_t(const QuantizedActs& x, const float* bias, Tensor& out) const;

  /// Raw-buffer variant of run_t(): `codes` is the (n, k) activation matrix,
  /// `out` an (n, rows) buffer written in place. An active `epi` (channel =
  /// output column, skip in `out`'s layout) is applied to each batch row as
  /// soon as it is complete.
  void run_t(const std::int8_t* codes, float act_scale, std::int64_t n,
             const float* bias, float* out,
             const gemm::Epilogue* epi = nullptr) const;

  std::int64_t rows() const { return rows_; }
  std::int64_t k() const { return k_; }
  int weight_bits() const { return bits_; }
  std::int64_t entry_count() const {
    return static_cast<std::int64_t>(codes_.size());
  }
  /// Largest per-group weight scale: max_scale * act_scale is the coarsest
  /// requantization step of an output (the equivalence tolerance unit).
  float max_weight_scale() const { return max_scale_; }
  /// True when run() dispatches to one of the blocked panel kernels.
  bool panel_active() const { return !panel_.empty() || !panel4_.empty(); }
  /// True when the panels were built over the tap-compacted k axis (the
  /// pattern panel). run() then gathers full-k inputs down to the taps;
  /// run_compact() accepts pre-compacted inputs.
  bool pattern_active() const { return pattern_; }
  /// The kernel run() dispatches to.
  KernelKind kernel_kind() const {
    if (pattern_) return KernelKind::kPatternPanel;
    if (!panel4_.empty()) return KernelKind::kInt4Panel;
    if (!panel_.empty()) return KernelKind::kInt8Panel;
    return KernelKind::kSegment;
  }
  /// Compacted k extent ((k / period) * ntaps when pattern_active(), else k).
  std::int64_t k_compact() const { return pattern_ ? k_compact_ : k_; }
  /// Tap repeat period along k (d*d for conv weights; 0 when not pattern).
  std::int64_t pattern_period() const { return period_; }
  /// Interned tap list (shared across engines whose layers replicate the
  /// same root pattern — leaf fusion); null when not pattern_active().
  std::shared_ptr<const std::vector<std::int32_t>> pattern_taps() const {
    return taps_;
  }

 private:
  /// Weight scale + entry range [begin, end) of one group slice of a row.
  using Segment = gemm::QSegment;

  void build_panel(std::int64_t group, bool four);

  std::vector<std::int32_t> cols_;   ///< per entry: column index in [0, k)
  std::vector<std::int32_t> codes_;  ///< per entry: weight code (never 0)
  std::vector<Segment> segs_;
  std::vector<std::int64_t> row_segs_;  ///< rows_+1 offsets into segs_
  gemm::QPanelA panel_;    ///< non-empty iff run() takes the int8 panel kernel
  gemm::Q4PanelA panel4_;  ///< non-empty iff run() takes the int4 panel kernel
  /// Pattern-panel state: surviving kernel slots (ascending, interned so
  /// leaf layers sharing a root pattern share one list), the inverse map
  /// slot -> compacted rank (-1 for masked slots), the slot period (d*d),
  /// and the compacted k extent the panels were packed over.
  std::shared_ptr<const std::vector<std::int32_t>> taps_;
  std::vector<std::int32_t> rank_;
  std::int64_t period_ = 0, k_compact_ = 0;
  bool pattern_ = false;
  std::int64_t rows_ = 0, k_ = 0;
  int bits_ = 8;
  float max_scale_ = 0.0f;
};

}  // namespace upaq::qnn
