// Cache-blocked, panel-packed GEMM micro-kernels.
//
// The float GEMM entry points of tensor/ops.h (and the qnn integer path)
// dispatch here. Two regimes, chosen per call from the *data*, never from
// the thread count:
//
//   dense  — the value matrix A is packed into MR-row panels, B into NR-column
//            panels, and an MR x NR register micro-tile walks KC-deep slabs.
//            Blocking: the N dimension is cut into fixed kNC-column stripes
//            (one stripe per parallel chunk — stripes own disjoint C columns,
//            so results are bitwise thread-count independent); within a
//            stripe the K dimension is cut into kKC slabs whose B panels are
//            packed into the thread workspace.
//   sparse — when more than kSparseZeroFraction of A is exactly zero (the
//            pattern-pruned conv weights), the zero-skipping row kernel is
//            kept: per-element skips beat dense panel math at 2-of-9 or
//            3-of-9 density, and the panel pack would erase the sparsity.
//
// Determinism: tile constants are compile-time fixed; stripe/slab boundaries
// are pure functions of (m, k, n). A C element is written by exactly one
// stripe, accumulating KC slabs in ascending k order, so 1-thread and
// N-thread runs are bitwise identical (tests/test_determinism.cpp).
//
// All scratch (panel packs) comes from workspace::Scope — steady-state calls
// allocate nothing.
#pragma once

#include <cstdint>
#include <vector>

namespace upaq::gemm {

// Register micro-tile: MR x NR fp32 accumulators. 6x8 = 12 SSE registers of
// accumulator state, leaving room for the A broadcasts and B loads without
// spilling at the baseline x86-64 ISA.
inline constexpr std::int64_t kMR = 6;
inline constexpr std::int64_t kNR = 8;
// K slab depth: one A panel (kMR * kKC floats) stays L1-resident while it
// sweeps the stripe's B panels.
inline constexpr std::int64_t kKC = 256;
// Stripe width (multiple of kNR): the parallel grain over N. A stripe's B
// slab pack is kKC * kNC * 4 bytes = 256 KiB, L2-resident per thread.
inline constexpr std::int64_t kNC = 256;
// A-matrix zero fraction above which the zero-skipping row kernel wins over
// dense panel math (pattern-pruned weights sit at 6/9 .. 7/9 zeros).
inline constexpr double kSparseZeroFraction = 0.5;

/// Inference epilogue applied in a kernel's final output store: the eval-mode
/// BatchNorm -> residual add -> ReLU/LeakyReLU tail of a Conv2d/Linear,
/// fused so no standalone pass re-reads the output. Each part is optional.
/// Per element v of output channel ch the operation order is exactly the
/// unfused layers':
///   v = ((gamma[ch] * (v - mean[ch])) * inv_std[ch]) + beta[ch]   (BN)
///   v = v + skip[i]                                               (residual)
///   v = v < 0 ? v * slope : v                                     (ReLU)
/// with the BN product pinned against FMA contraction, so the fused output
/// is bitwise the layer-by-layer output at any vector width. The select
/// keeps the bits of v * slope (-0.0 for a negative v under plain ReLU, NaN
/// for -inf), and NaN inputs pass through unchanged.
///
/// `skip` uses the output's own layout and is indexed at the same offset as
/// the element being stored. Which output axis is the channel depends on the
/// kernel: rows for the (out_c, n) GEMMs, columns for the (n, out_f) PFN
/// batch-dot.
struct Epilogue {
  const float* gamma = nullptr;  ///< BN terms; all four null = no BN
  const float* mean = nullptr;
  const float* inv_std = nullptr;
  const float* beta = nullptr;
  const float* skip = nullptr;   ///< residual input; null = none
  bool relu = false;
  float slope = 0.0f;            ///< negative slope (0 = ReLU)
  bool active() const {
    return gamma != nullptr || skip != nullptr || relu;
  }
};

/// Applies `e` to one (channels)-long output row whose element j belongs to
/// channel j — the (n, out_f) Linear layout, for the Linear forwards that
/// do not run through a kernel here. `skip` points at the residual of y[0]
/// (ignored unless e.skip is set).
void epilogue_row(const Epilogue& e, float* y, const float* skip,
                  std::int64_t channels);

/// Pre-packed form of an (m x k) row-major A matrix, so steady-state callers
/// (conv weights) skip both the 2-D view copy and the per-call panel pack.
/// The representation matches the dispatch the values ask for: panel-packed
/// when dense, a plain row-major copy when the zero-skip path wins.
struct PackedA {
  std::int64_t m = 0, k = 0;
  bool sparse = false;
  std::vector<float> data;
  bool empty() const { return m == 0; }
};

/// Packs (and classifies) A once. Deterministic: layout and sparse/dense
/// choice depend only on the matrix contents.
PackedA pack_a(const float* a, std::int64_t m, std::int64_t k);

/// C(m,n) += alpha * A(m,k) * B(k,n); raw row-major buffers. Dispatches to
/// the sparse row kernel or the blocked panel kernel by A's zero fraction.
void gemm(const float* a, const float* b, float* c, std::int64_t m,
          std::int64_t k, std::int64_t n, float alpha);

/// gemm() over a pre-packed A (no per-call classification or A pack).
/// With an active `epi` (channel = row of C, skip in C's layout) every C
/// tile gets the epilogue right after its last K slab lands.
void gemm_packed(const PackedA& a, const float* b, float* c, std::int64_t n,
                 float alpha, const Epilogue* epi = nullptr);

/// C(m,n) += alpha * A(m,k) * B(n,k)^T — both operands row-major, B read as
/// its transpose (the conv dW orientation). Always blocked: the B panel pack
/// absorbs the transpose, so the micro-kernel is the same as gemm()'s.
void gemm_nt(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n, float alpha);

/// Column-blocked int32-accumulate helper for the qnn segment GEMM: for the
/// entry list {(cols[e], codes[e])}, e in [0, len), accumulates
///   acc[j] += codes[e] * qx[off[cols[e]] + j0 + j]   for j in [0, nb)
/// into the caller's int32 block accumulator (`off` is the activation
/// operand's row-offset table, see QTaps). Exact integer arithmetic —
/// bitwise identical to the unblocked sweep for any block decomposition.
void s8_segment_accumulate(const std::int32_t* cols, const std::int32_t* codes,
                           std::int64_t len, const std::int8_t* qx,
                           const std::int64_t* off, std::int64_t j0,
                           std::int64_t nb, std::int32_t* acc);

/// Fused short-segment kernel for the qnn segment GEMM (UPAQ patterns keep
/// 1..3 weights per kernel): for the `len` (1..3) entries {(cols[e],
/// codes[e])} computes, per column j in [0, nb),
///   t = m * float(sum_e codes[e] * qx[off[cols[e]] + j0 + j]);  yb[j] += t
/// The integer dot is exact; the requantization is exactly one float multiply
/// followed by one float add per element (spelled as two statements so the
/// compiler cannot contract them differently between the vector body and the
/// scalar tail) — so the result is independent of the vector width.
void s8_fused_segment(const std::int32_t* cols, const std::int32_t* codes,
                      std::int64_t len, const std::int8_t* qx,
                      const std::int64_t* off, std::int64_t j0,
                      std::int64_t nb, float m, float* yb);

/// Requantize-and-add flush of an int32 accumulator block: per j in [0, nb),
///   t = m * float(acc[j]);  yb[j] += t
/// The same one-multiply-one-add element sequence as s8_fused_segment and the
/// panel kernel's flush, so every integer path requantizes identically.
void s8_requant_add(const std::int32_t* acc, std::int64_t nb, float m,
                    float* yb);

/// One scale segment of a packed weight row: entries [begin, end) of the
/// qnn entry lists share the weight scale `scale`.
struct QSegment {
  float scale = 1.0f;
  std::int32_t begin = 0, end = 0;
};

/// Two entries of one segment, pre-encoded for the segment fast path: the
/// activation rows they read and their codes as the low two signed bytes of
/// a vpdpbusd weight word. A segment with an odd entry count ends in a pair
/// whose second entry repeats the first column with code 0.
struct QPair {
  std::int32_t col0 = 0, col1 = 0;
  std::int32_t word = 0;  ///< bytes (w0, w1, 0, 0)
};

/// Pair table of a segment-path weight whose codes fit int8, indexed by the
/// same segment numbers as the QSegment list (so the row_segs offsets
/// address both). Built once per weight (qnn::PackedGemm's constructor), so
/// run() does no per-call sign or word work.
struct QPairTable {
  std::vector<QPair> pairs;
  /// nseg + 1 offsets: segment s owns pairs [seg_pairs[s], seg_pairs[s+1]).
  std::vector<std::int32_t> seg_pairs;
  /// Per segment, the +128 activation-bias correction -128 * sum(w),
  /// reduced mod 2^32 (the kernel's int32 sums wrap the same way).
  std::vector<std::int32_t> corr;
  bool empty() const { return corr.empty(); }
};

/// True when this build's segment kernel has a pair-table fast path
/// (AVX-512BW + VNNI targets); elsewhere s8_gemm_segments ignores `pairs`,
/// so callers build no table.
bool s8_pair_kernel();

/// Builds the pair table of `nseg` segments over the entry lists. Every code
/// must satisfy |code| <= 127 (weight bits <= 8).
QPairTable s8_pack_pairs(const std::int32_t* cols, const std::int32_t* codes,
                         const QSegment* segs, std::int64_t nseg);

/// Activation operand of the segment GEMM, read in place: weight column
/// (im2col row) r of output column j is the code at qx[off[r] + j], for j in
/// [0, n). A conv runs its tap layout (TapLayout) this way with no column
/// matrix; an explicit (k, n) matrix is off[r] = r * n.
struct QTaps {
  const std::int8_t* qx = nullptr;
  const std::int64_t* off = nullptr;  ///< one entry per weight column
  std::int64_t n = 0;                 ///< output columns
};

/// The explicit (k, n) row-major matrix `qx` as a QTaps, with its offset
/// table written to `off` (k entries).
QTaps s8_matrix_taps(const std::int8_t* qx, std::int64_t k, std::int64_t n,
                     std::int64_t* off);

/// The tap-addressable int8 layout of one (c, h, w) conv input map, so every
/// im2col row of a k x k, stride-s, pad-p conv is one contiguous run of
/// oh * ow codes. Take the zero-bordered (c, h + 2p, w + 2p) map and its
/// stride phases: padded rows py, py + s, ... (py < min(s, k)) form the
/// `hq` rows of a phase. For each channel ch, row phase py and tap column
/// kx, plane (ch, py, kx) holds those rows at the ow columns kx, kx + s,
/// ..., kx + (ow - 1) * s, so tap (ch, ky, kx) of output (oy, ox) sits at
///   plane(ch, ky % s, kx) + (oy + ky / s) * ow + ox
/// — one offset (s8_tap_offsets) plus the dense output column j = oy * ow +
/// ox, with no dead columns to compute or drop. The layout holds
/// min(s, k) * k * hq * ow codes per channel: about k / s times the map,
/// where the im2col matrix is k^2 / s^2 times. A 1x1, pad-0, stride-1 conv's
/// layout is its flat map.
struct TapLayout {
  std::int64_t c = 0, h = 0, w = 0;
  int k = 1, stride = 1, pad = 0;
  std::int64_t oh = 0, ow = 0;  ///< conv output size
  std::int64_t phases = 1;      ///< row phases kept, min(stride, k)
  std::int64_t hq = 0;          ///< rows per plane
  std::int64_t bytes() const { return c * phases * k * hq * ow; }
  std::int64_t cols() const { return oh * ow; }
  std::int64_t taps() const { return c * k * k; }
};

TapLayout tap_layout(std::int64_t c, std::int64_t h, std::int64_t w, int k,
                     int stride, int pad);

/// The layout's offset table: off[(ch * k + ky) * k + kx] is where im2col
/// row (ch, ky, kx) has its column 0 (taps() entries).
void s8_tap_offsets(const TapLayout& t, std::int64_t* off);

/// QTaps over a filled tap layout `qx` and its offset table.
QTaps s8_layout_taps(const TapLayout& t, const std::int8_t* qx,
                     const std::int64_t* off);

/// The whole segment-path integer GEMM (qnn::PackedGemm's sparse branch):
/// y(rows, x.n) = requant(Wq * Xq) + bias over the entry lists,
/// column-blocked with the fused 1/2/3-entry kernels and the generic
/// int32-accumulate path, reading activations in place through `x` (QTaps).
/// `k` (the weight's column count) only sizes the parallel gate. Per output
/// element the operation order is: bias fill, then one requantizing
/// multiply-add per segment in ascending segment order — the invariant every
/// other integer path reproduces — then, with an active `epi` (channel =
/// row), the epilogue as the row block's final store. Parallel over row
/// blocks (disjoint outputs, shape-only gating), so thread-count
/// independent.
///
/// A non-null `pairs` (the s8_pack_pairs table of the same segments) selects
/// the fast path. On AVX-512BW/VNNI builds that is a 64-column row block:
/// four zmm float accumulators hold the output across all of a row's
/// segments; each pair streams 64 activation bytes from each of its two rows,
/// flips them to unsigned (x ^ 0x80 = x + 128), byte-interleaves the rows and
/// multiplies with vpdpbusd against the pair's weight word and its copy
/// shifted to the upper two bytes (the even and the odd columns); the
/// segment's int32 sums start at the table's -128 * sum(w) correction, so
/// they end at exactly sum(w * x) (int32 wraps mod 2^32 and the true sum
/// fits). Masked loads and stores cover n % 64 without reading past a row.
/// Builds without those ISA extensions (s8_pair_kernel() false) ignore
/// `pairs` and run the generic path. Integer sums are exact on every path
/// and the per-element float sequence is unchanged, so `pairs` can never
/// alter results — only speed. A null `pairs` runs the portable generic path.
void s8_gemm_segments(const std::int32_t* cols, const std::int32_t* codes,
                      const QSegment* segs, const std::int64_t* row_segs,
                      std::int64_t rows, std::int64_t k, const QTaps& x,
                      float sx, const float* bias, float* y,
                      const QPairTable* pairs = nullptr,
                      const Epilogue* epi = nullptr);

// ---------------------------------------------------------------------------
// Panel-packed int8 GEMM (the dense-ish branch of the qnn integer path).
//
// Weight codes are decoded ONCE (at lowering time) into row-block-major int8
// panels mirroring PackedA's slab layout, and the per-group requantization
// metadata is reorganized into per-panel "flush events": ordered (column,
// row, scale) points at which a row's int32 accumulator is requantized into
// the float output. Because integer accumulation is exact and associative,
// any k-blocking of the products is bitwise-free; the float operations per
// output element (bias fill, then one t = s_g*s_x*sum multiply-add per
// segment, in ascending column order) are exactly the segment engine's, so
// the two paths produce bitwise identical outputs (tests/test_qgemm_kernel).

// Register micro-tile of the int8 kernel: kQMR rows x kQNR int32 accumulator
// lanes. Products widen int8 x int8 -> int16 (two k-steps pair-summed in
// int16: |w*x| <= 127^2, twice that still fits) and accumulate in int32.
inline constexpr std::int64_t kQMR = 6;
inline constexpr std::int64_t kQNR = 8;
// K slab depth (B pack granularity). The effective slab of a matrix is the
// largest multiple of its uniform scale-group period <= kQKC, so slab cuts
// always land on requant boundaries for every row.
inline constexpr std::int64_t kQKC = 512;
// Column-stripe width: the grain-1 parallel unit over N. Stripes own
// disjoint output columns, so 1-vs-N-thread runs are bitwise identical.
inline constexpr std::int64_t kQNC = 256;

/// One requantization point of a panel row: fire (flush the row's int32
/// accumulator with `scale`) when the k walk reaches `col`.
struct QFlush {
  std::int32_t col = 0;  ///< first column NOT in the segment
  std::int32_t row = 0;  ///< row within the panel, [0, kQMR)
  float scale = 1.0f;    ///< weight scale of the closing segment
};

/// Panel-packed int8 weight matrix with per-panel flush-event lists. Built
/// once per layer by qnn (which owns the codes and the scale bookkeeping);
/// consumed by q8_gemm_panel.
struct QPanelA {
  std::int64_t m = 0, k = 0;
  std::int64_t slab = 0;  ///< k-slab depth; every slab cut is a group boundary
  /// PackedA-style slab/panel layout with adjacent k positions
  /// pair-interleaved ([a(p,r), a(p+1,r)] contiguous per row), matching the
  /// micro-kernel's int16 multiply-add lanes; odd slab depths get a
  /// zero-filled phantom position (an exact integer no-op).
  std::vector<std::int8_t> data;
  /// Per row-panel, sorted by column: the requantization schedule.
  std::vector<std::vector<QFlush>> events;
  bool empty() const { return m == 0; }
};

/// Packs a dense row-major int8 code matrix into QPanelA's pair-interleaved
/// slab/panel layout (rows beyond m zero-filled). `slab` must be positive;
/// the caller aligns it to the matrix's scale-group period. Does not touch
/// `events`.
void q8_pack_a(const std::int8_t* a, std::int64_t m, std::int64_t k,
               std::int64_t slab, QPanelA& out);

/// y(m, n) += requant(Wq * Xq) over a panel-packed weight: qx is the (k, n)
/// row-major int8 activation matrix, sx its scale; y must already hold the
/// bias fill. Parallel grain: one kQNC column stripe per chunk. An active
/// `epi` (channel = row) is applied to each tile once its last slab's
/// flushes have landed.
void q8_gemm_panel(const QPanelA& w, const std::int8_t* qx, float sx,
                   std::int64_t n, float* y, const Epilogue* epi = nullptr);

/// Symmetric activation quantization core (the hot half of
/// qnn::quantize_acts_into, hosted here for the kernel TU's codegen):
/// chunked-max abs scan, then per element one multiply, clamp, and
/// round-half-away-from-zero truncating cast into `dst`. Returns the scale.
/// Every per-element operation is exact and order-independent (max combines
/// associatively; the convert touches each element once), so the result is
/// identical at any vector width or thread count.
float s8_quantize(const float* src, std::int64_t n, int bits, std::int8_t* dst);

/// s8_quantize of the (t.c, t.h, t.w) map `src` written straight into its
/// tap layout `dst` (t.bytes() codes): the same scale and the same code per
/// element, with every border and unused plane position set to code 0 —
/// what quantizing a padded float zero gives.
float s8_quantize_taps(const float* src, const TapLayout& t, int bits,
                       std::int8_t* dst);

/// int8 im2col gather (the hot half of qnn's im2col, hosted here for the
/// kernel TU's codegen): pure byte moves — out-of-bounds taps become code 0,
/// interior runs of stride-1 rows collapse to memcpy. Bitwise trivially
/// deterministic. `out` must hold (c*k*k, oh*ow) codes.
void s8_im2col(const std::int8_t* in, std::int64_t c, std::int64_t h,
               std::int64_t w, int k, int stride, int pad, std::int64_t oh,
               std::int64_t ow, std::int8_t* out);

}  // namespace upaq::gemm
