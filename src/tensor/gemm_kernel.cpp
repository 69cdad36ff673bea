#include "tensor/gemm_kernel.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "parallel/thread_pool.h"
#include "prof/prof.h"
#include "tensor/workspace.h"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

// Requantization is contractually one float multiply then one float add per
// element (two roundings). This TU compiles with -march=native where the
// compiler may contract a visible mul+add pair into a single-rounding FMA —
// and it is free to do so in one code path (say the vector flush) but not
// another (a scalar tail), which would break the bitwise equivalence between
// the segment and panel paths. The empty asm pins the product to a register
// between the two operations, making contraction impossible everywhere, so
// every integer path requantizes with the exact same two roundings. The
// inference epilogue pins its BN product the same way: the standalone
// BatchNorm2d it must match compiles without FMA.
#if defined(__GNUC__) || defined(__clang__)
#if defined(__x86_64__) || defined(__i386__)
#define UPAQ_NO_CONTRACT(v) asm("" : "+x"(v))
#else
#define UPAQ_NO_CONTRACT(v) asm("" : "+g"(v))
#endif
#else
#define UPAQ_NO_CONTRACT(v) (void)(v)
#endif

namespace upaq::gemm {

namespace {

// Same below-this-runs-serial gating as tensor/ops.cpp: dispatch cost beats
// the win for tiny products, and gating on the (shape-only) work size keeps
// serial and parallel arithmetic identical.
constexpr std::int64_t kMinParallelWork = 1 << 15;
constexpr std::int64_t kSparseRowGrain = 8;

std::int64_t round_up(std::int64_t v, std::int64_t m) {
  return (v + m - 1) / m * m;
}

// ------------------------------------------------------ inference epilogue
//
// The scalar and 8-lane forms below spell out the same per-element sequence
// (see gemm::Epilogue): BN as sub, mul, mul, then add with the product
// pinned in a register so -march=native cannot fuse it into an FMA; the
// residual as one add; the activation as a select between v and v * slope
// (never a branch around the multiply, so the product's bits — -0.0, the
// NaN of -inf * 0 — are what lands). Every kernel routes its final store
// through these, so the fused output is bitwise the unfused layers' output
// at any vector width, tail or thread count.

/// One channel's BN terms (unused when the epilogue has no BN).
struct EpiTerms {
  float g = 0.0f, mu = 0.0f, is = 0.0f, be = 0.0f;
};

inline EpiTerms epi_terms(const Epilogue& e, std::int64_t ch) {
  if (e.gamma == nullptr) return {};
  return {e.gamma[ch], e.mean[ch], e.inv_std[ch], e.beta[ch]};
}

inline float epi_one(const Epilogue& e, const EpiTerms& t, float v,
                     const float* s) {
  if (e.gamma != nullptr) {
    float p = t.g * (v - t.mu);
    p = p * t.is;
    UPAQ_NO_CONTRACT(p);
    v = p + t.be;
  }
  if (e.skip != nullptr) v = v + *s;
  if (e.relu) {
    const float a = v * e.slope;
    v = v < 0.0f ? a : v;
  }
  return v;
}

#if defined(__AVX2__)
struct EpiVec {
  __m256 g, mu, is, be, slope;
};

inline EpiVec epi_vec(const Epilogue& e, const EpiTerms& t) {
  return {_mm256_set1_ps(t.g), _mm256_set1_ps(t.mu), _mm256_set1_ps(t.is),
          _mm256_set1_ps(t.be), _mm256_set1_ps(e.slope)};
}

inline __m256 epi8(const Epilogue& e, const EpiVec& c, __m256 v,
                   const float* s) {
  if (e.gamma != nullptr) {
    __m256 p = _mm256_mul_ps(_mm256_mul_ps(c.g, _mm256_sub_ps(v, c.mu)), c.is);
    UPAQ_NO_CONTRACT(p);
    v = _mm256_add_ps(p, c.be);
  }
  if (e.skip != nullptr) v = _mm256_add_ps(v, _mm256_loadu_ps(s));
  if (e.relu) {
    const __m256 a = _mm256_mul_ps(v, c.slope);
    v = _mm256_blendv_ps(
        v, a, _mm256_cmp_ps(v, _mm256_setzero_ps(), _CMP_LT_OQ));
  }
  return v;
}
#endif

/// Residual of the output element at flat offset `off` (null when the
/// epilogue has none — never offset a null pointer).
inline const float* epi_skip(const Epilogue& e, std::int64_t off) {
  return e.skip != nullptr ? e.skip + off : nullptr;
}

/// Epilogue over `len` contiguous outputs of channel `ch`.
inline void epi_run(const Epilogue& e, std::int64_t ch, float* y,
                    const float* s, std::int64_t len) {
  if (s == nullptr) s = y;  // never read: e.skip is null
  const EpiTerms t = epi_terms(e, ch);
  std::int64_t j = 0;
#if defined(__AVX2__)
  const EpiVec c = epi_vec(e, t);
  for (; j + 8 <= len; j += 8)
    _mm256_storeu_ps(y + j, epi8(e, c, _mm256_loadu_ps(y + j), s + j));
#endif
  for (; j < len; ++j) y[j] = epi_one(e, t, y[j], s + j);
}

/// MR x NR register micro-tile over one KC slab, written to `acc`.
///
/// The accumulators must be one vector register per C row (broadcast A
/// element x contiguous B row, the classic outer-product shape). Left to
/// its own devices the auto-vectorizer instead vectorizes over the A
/// panel's contiguous r axis and drowns the FMAs in cross-lane shuffles,
/// so on GNU compilers the shape is spelled out with vector extensions —
/// ISA-independent (the compiler lowers to whatever the target offers)
/// and exactly one kNR-wide lane group per C row.
#if defined(__GNUC__) || defined(__clang__)
typedef float vnr __attribute__((vector_size(kNR * sizeof(float))));
static_assert(kNR == 8, "micro-tile accumulator type assumes kNR == 8");

void micro_tile(std::int64_t kc, const float* __restrict__ ap,
                const float* __restrict__ bp, float* __restrict__ acc) {
  vnr t0{}, t1{}, t2{}, t3{}, t4{}, t5{};
  static_assert(kMR == 6, "accumulator count assumes kMR == 6");
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* __restrict__ a = ap + p * kMR;
    vnr b;
    __builtin_memcpy(&b, bp + p * kNR, sizeof(b));
    t0 += a[0] * b;
    t1 += a[1] * b;
    t2 += a[2] * b;
    t3 += a[3] * b;
    t4 += a[4] * b;
    t5 += a[5] * b;
  }
  const vnr t[kMR] = {t0, t1, t2, t3, t4, t5};
  __builtin_memcpy(acc, t, sizeof(t));
}
#else
void micro_tile(std::int64_t kc, const float* ap, const float* bp,
                float* acc) {
  float t[kMR * kNR] = {};
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* a = ap + p * kMR;
    const float* b = bp + p * kNR;
    for (int r = 0; r < kMR; ++r) {
      const float ar = a[r];
      for (int j = 0; j < kNR; ++j) t[r * kNR + j] += ar * b[j];
    }
  }
  for (int i = 0; i < kMR * kNR; ++i) acc[i] = t[i];
}
#endif

/// Packs rows [0, m) x columns [pc, pc+kc) of row-major A into MR-row panels
/// at `dst` (column-major within a panel, rows beyond m zero-filled).
void pack_a_slab(float* dst, const float* a, std::int64_t m, std::int64_t k,
                 std::int64_t pc, std::int64_t kc, std::int64_t mpad) {
  for (std::int64_t ip = 0; ip < mpad / kMR; ++ip) {
    float* panel = dst + ip * kMR * kc;
    for (std::int64_t j = 0; j < kc; ++j) {
      for (std::int64_t r = 0; r < kMR; ++r) {
        const std::int64_t row = ip * kMR + r;
        panel[j * kMR + r] = row < m ? a[row * k + pc + j] : 0.0f;
      }
    }
  }
}

/// Packs a kc x nw B slab (columns [jc, jc+nw), k-rows [pc, pc+kc)) into
/// NR-column panels. BT = false reads row-major (k, n) B; BT = true reads
/// row-major (n, k) B as its transpose.
template <bool BT>
void pack_b_slab(float* dst, const float* b, std::int64_t k, std::int64_t n,
                 std::int64_t pc, std::int64_t kc, std::int64_t jc,
                 std::int64_t nw) {
  const std::int64_t jpanels = (nw + kNR - 1) / kNR;
  for (std::int64_t jp = 0; jp < jpanels; ++jp) {
    float* panel = dst + jp * kc * kNR;
    const std::int64_t jv = std::min(kNR, nw - jp * kNR);
    if constexpr (BT) {
      // Transposed read: column (jc + j) of B^T is row (jc + j) of B, so
      // each jr strand streams contiguously over p.
      for (std::int64_t jr = 0; jr < kNR; ++jr) {
        if (jr < jv) {
          const float* src = b + (jc + jp * kNR + jr) * k + pc;
          for (std::int64_t p = 0; p < kc; ++p) panel[p * kNR + jr] = src[p];
        } else {
          for (std::int64_t p = 0; p < kc; ++p) panel[p * kNR + jr] = 0.0f;
        }
      }
    } else {
      (void)k;
      for (std::int64_t p = 0; p < kc; ++p) {
        const float* src = b + (pc + p) * n + jc + jp * kNR;
        float* row = panel + p * kNR;
        for (std::int64_t jr = 0; jr < jv; ++jr) row[jr] = src[jr];
        for (std::int64_t jr = jv; jr < kNR; ++jr) row[jr] = 0.0f;
      }
    }
  }
}

/// Blocked panel kernel over a pre-packed A (`ap`, mpad x k in slab layout).
/// Parallel grain: one kNC-column stripe per chunk — stripes own disjoint C
/// columns and accumulate KC slabs in ascending k order, so the result is a
/// pure function of (shapes, values), never the thread count.
template <bool BT>
void run_blocked(const float* ap, std::int64_t m, std::int64_t k,
                 const float* b, float* c, std::int64_t n, float alpha,
                 const Epilogue* epi = nullptr) {
  const std::int64_t mpad = round_up(m, kMR);
  const std::int64_t row_panels = mpad / kMR;
  const std::int64_t stripes = (n + kNC - 1) / kNC;
  auto stripe_body = [&](std::int64_t s0, std::int64_t s1) {
    workspace::Scope ws;
    float* bp = ws.floats(kKC * kNC);
    for (std::int64_t s = s0; s < s1; ++s) {
      const std::int64_t jc = s * kNC;
      const std::int64_t nw = std::min(kNC, n - jc);
      const std::int64_t jpanels = (nw + kNR - 1) / kNR;
      for (std::int64_t pc = 0; pc < k; pc += kKC) {
        const std::int64_t kc = std::min(kKC, k - pc);
        pack_b_slab<BT>(bp, b, k, n, pc, kc, jc, nw);
        const float* aslab = ap + mpad * pc;
        for (std::int64_t jp = 0; jp < jpanels; ++jp) {
          const std::int64_t jv = std::min(kNR, nw - jp * kNR);
          for (std::int64_t ip = 0; ip < row_panels; ++ip) {
            float acc[kMR * kNR] = {};
            micro_tile(kc, aslab + ip * kMR * kc, bp + jp * kc * kNR, acc);
            const std::int64_t rv = std::min(kMR, m - ip * kMR);
            for (std::int64_t r = 0; r < rv; ++r) {
              float* crow = c + (ip * kMR + r) * n + jc + jp * kNR;
              for (std::int64_t j = 0; j < jv; ++j)
                crow[j] += alpha * acc[r * kNR + j];
            }
            // Last slab: the tile is final, apply the epilogue while it is
            // still in L1.
            if (epi != nullptr && pc + kc == k) {
              for (std::int64_t r = 0; r < rv; ++r) {
                const std::int64_t off = (ip * kMR + r) * n + jc + jp * kNR;
                epi_run(*epi, ip * kMR + r, c + off, epi_skip(*epi, off), jv);
              }
            }
          }
        }
      }
    }
  };
  if (m * k * n < kMinParallelWork) {
    stripe_body(0, stripes);
  } else {
    parallel::parallel_for(0, stripes, 1, stripe_body);
  }
}

/// Zero-skipping row kernel (the pre-blocking i-k-j loop): per-element skips
/// make pattern-pruned weight rows cheap, which dense panel math cannot do.
void run_rowskip(const float* a, const float* b, float* c, std::int64_t m,
                 std::int64_t k, std::int64_t n, float alpha,
                 const Epilogue* epi) {
  auto rows = [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      float* crow = c + i * n;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const float av = alpha * a[i * k + kk];
        if (av == 0.0f) continue;  // free zero-skipping for pruned rows
        const float* brow = b + kk * n;
        for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
      if (epi != nullptr) epi_run(*epi, i, crow, epi_skip(*epi, i * n), n);
    }
  };
  if (m * k * n < kMinParallelWork) {
    rows(0, m);
  } else {
    parallel::parallel_for(0, m, kSparseRowGrain, rows);
  }
}

bool mostly_zero(const float* a, std::int64_t count) {
  std::int64_t zeros = 0;
  for (std::int64_t i = 0; i < count; ++i) zeros += a[i] == 0.0f;
  return static_cast<double>(zeros) >
         kSparseZeroFraction * static_cast<double>(count);
}

void count_call(std::int64_t m, std::int64_t k, std::int64_t n) {
  prof::add(prof::Counter::kGemmFlops,
            static_cast<std::uint64_t>(2 * m * k * n));
  prof::add(prof::Counter::kGemmKernelCalls, 1);
}

}  // namespace

PackedA pack_a(const float* a, std::int64_t m, std::int64_t k) {
  PackedA p;
  p.m = m;
  p.k = k;
  p.sparse = mostly_zero(a, m * k);
  if (p.sparse) {
    p.data.assign(a, a + m * k);
    return p;
  }
  const std::int64_t mpad = round_up(m, kMR);
  p.data.assign(static_cast<std::size_t>(mpad * k), 0.0f);
  for (std::int64_t pc = 0; pc < k; pc += kKC) {
    const std::int64_t kc = std::min(kKC, k - pc);
    pack_a_slab(p.data.data() + mpad * pc, a, m, k, pc, kc, mpad);
  }
  return p;
}

void gemm(const float* a, const float* b, float* c, std::int64_t m,
          std::int64_t k, std::int64_t n, float alpha) {
  if (m <= 0 || k <= 0 || n <= 0) return;
  count_call(m, k, n);
  if (mostly_zero(a, m * k)) {
    run_rowskip(a, b, c, m, k, n, alpha, nullptr);
    return;
  }
  workspace::Scope ws;
  const std::int64_t mpad = round_up(m, kMR);
  float* ap = ws.floats(mpad * k);
  for (std::int64_t pc = 0; pc < k; pc += kKC) {
    const std::int64_t kc = std::min(kKC, k - pc);
    pack_a_slab(ap + mpad * pc, a, m, k, pc, kc, mpad);
  }
  run_blocked<false>(ap, m, k, b, c, n, alpha);
}

void gemm_packed(const PackedA& a, const float* b, float* c, std::int64_t n,
                 float alpha, const Epilogue* epi) {
  if (a.m <= 0 || a.k <= 0 || n <= 0) return;
  if (epi != nullptr && !epi->active()) epi = nullptr;
  count_call(a.m, a.k, n);
  if (a.sparse) {
    run_rowskip(a.data.data(), b, c, a.m, a.k, n, alpha, epi);
    return;
  }
  run_blocked<false>(a.data.data(), a.m, a.k, b, c, n, alpha, epi);
}

void epilogue_row(const Epilogue& e, float* y, const float* skip,
                  std::int64_t channels) {
  const float* s = e.skip != nullptr ? skip : y;  // y: never read
  std::int64_t j = 0;
#if defined(__AVX2__)
  EpiVec c = epi_vec(e, EpiTerms{});
  for (; j + 8 <= channels; j += 8) {
    if (e.gamma != nullptr)  // per-lane channel terms
      c = {_mm256_loadu_ps(e.gamma + j), _mm256_loadu_ps(e.mean + j),
           _mm256_loadu_ps(e.inv_std + j), _mm256_loadu_ps(e.beta + j),
           c.slope};
    _mm256_storeu_ps(y + j, epi8(e, c, _mm256_loadu_ps(y + j), s + j));
  }
#endif
  for (; j < channels; ++j) y[j] = epi_one(e, epi_terms(e, j), y[j], s + j);
}

void gemm_nt(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n, float alpha) {
  if (m <= 0 || k <= 0 || n <= 0) return;
  count_call(m, k, n);
  workspace::Scope ws;
  const std::int64_t mpad = round_up(m, kMR);
  float* ap = ws.floats(mpad * k);
  for (std::int64_t pc = 0; pc < k; pc += kKC) {
    const std::int64_t kc = std::min(kKC, k - pc);
    pack_a_slab(ap + mpad * pc, a, m, k, pc, kc, mpad);
  }
  run_blocked<true>(ap, m, k, b, c, n, alpha);
}

void s8_segment_accumulate(const std::int32_t* cols, const std::int32_t* codes,
                           std::int64_t len, const std::int8_t* qx,
                           const std::int64_t* off, std::int64_t j0,
                           std::int64_t nb, std::int32_t* acc) {
  for (std::int64_t e = 0; e < len; ++e) {
    const std::int32_t w = codes[e];
    const std::int8_t* brow = qx + off[cols[e]] + j0;
    for (std::int64_t j = 0; j < nb; ++j)
      acc[j] += w * static_cast<std::int32_t>(brow[j]);
  }
}

// ------------------------------------------------------- int8 panel kernels

#if defined(__GNUC__) || defined(__clang__)
#define UPAQ_S8_VEC 1
namespace {
typedef std::int8_t v8qi __attribute__((vector_size(8)));
typedef std::int32_t v8si __attribute__((vector_size(32)));
typedef float v8sf __attribute__((vector_size(32)));
static_assert(kQNR == 8, "int8 vector kernels assume kQNR == 8");

// The widening load goes through pmovsx intrinsics where available: GCC 12
// scalarizes narrow-to-wide __builtin_convertvector into per-lane
// sign-extends + inserts (~20 instructions for what vpmovsxbd does in one),
// which single-handedly erased the integer path's advantage. Both forms
// compute the same exact sign extension — intrinsics are a pure codegen fix.
#if defined(__AVX2__)
inline v8si load_i8x8_as_i32(const std::int8_t* p) {
  return (v8si)_mm256_cvtepi8_epi32(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
}
#else
inline v8si load_i8x8_as_i32(const std::int8_t* p) {
  v8qi q;
  __builtin_memcpy(&q, p, sizeof(q));
  return __builtin_convertvector(q, v8si);
}
#endif
}  // namespace
#endif

void s8_fused_segment(const std::int32_t* cols, const std::int32_t* codes,
                      std::int64_t len, const std::int8_t* qx,
                      const std::int64_t* off, std::int64_t j0,
                      std::int64_t nb, float m, float* yb) {
  // Weight codes can be up to 16 bits here, so the products use int32 math
  // (the int16 pair trick is reserved for the <= 8-bit panel micro-kernel).
  const std::int32_t w0 = codes[0];
  const std::int8_t* b0 = qx + off[cols[0]] + j0;
  const std::int32_t w1 = len > 1 ? codes[1] : 0;
  const std::int8_t* b1 = len > 1 ? qx + off[cols[1]] + j0 : b0;
  const std::int32_t w2 = len > 2 ? codes[2] : 0;
  const std::int8_t* b2 = len > 2 ? qx + off[cols[2]] + j0 : b0;
  std::int64_t j = 0;
#ifdef UPAQ_S8_VEC
  for (; j + 8 <= nb; j += 8) {
    v8si s = w0 * load_i8x8_as_i32(b0 + j);
    if (len > 1) s += w1 * load_i8x8_as_i32(b1 + j);
    if (len > 2) s += w2 * load_i8x8_as_i32(b2 + j);
    v8sf t = m * __builtin_convertvector(s, v8sf);
    UPAQ_NO_CONTRACT(t);
    v8sf y;
    __builtin_memcpy(&y, yb + j, sizeof(y));
    y += t;
    __builtin_memcpy(yb + j, &y, sizeof(y));
  }
#endif
  for (; j < nb; ++j) {
    std::int32_t s = w0 * static_cast<std::int32_t>(b0[j]);
    if (len > 1) s += w1 * static_cast<std::int32_t>(b1[j]);
    if (len > 2) s += w2 * static_cast<std::int32_t>(b2[j]);
    float t = m * static_cast<float>(s);
    UPAQ_NO_CONTRACT(t);
    yb[j] += t;
  }
}

void s8_requant_add(const std::int32_t* acc, std::int64_t nb, float m,
                    float* yb) {
  std::int64_t j = 0;
#ifdef UPAQ_S8_VEC
  for (; j + 8 <= nb; j += 8) {
    v8si s;
    __builtin_memcpy(&s, acc + j, sizeof(s));
    v8sf t = m * __builtin_convertvector(s, v8sf);
    UPAQ_NO_CONTRACT(t);
    v8sf y;
    __builtin_memcpy(&y, yb + j, sizeof(y));
    y += t;
    __builtin_memcpy(yb + j, &y, sizeof(y));
  }
#endif
  for (; j < nb; ++j) {
    float t = m * static_cast<float>(acc[j]);
    UPAQ_NO_CONTRACT(t);
    yb[j] += t;
  }
}

QPairTable s8_pack_pairs(const std::int32_t* cols, const std::int32_t* codes,
                         const QSegment* segs, std::int64_t nseg) {
  QPairTable t;
  std::size_t npairs = 0;
  for (std::int64_t si = 0; si < nseg; ++si)
    npairs += static_cast<std::size_t>(segs[si].end - segs[si].begin + 1) / 2;
  t.pairs.reserve(npairs);
  t.seg_pairs.reserve(static_cast<std::size_t>(nseg) + 1);
  t.corr.reserve(static_cast<std::size_t>(nseg));
  for (std::int64_t si = 0; si < nseg; ++si) {
    const QSegment& seg = segs[si];
    t.seg_pairs.push_back(static_cast<std::int32_t>(t.pairs.size()));
    std::int64_t wsum = 0;
    for (std::int64_t e = seg.begin; e < seg.end; e += 2) {
      const bool has2 = e + 1 < seg.end;
      const std::int32_t w0 = codes[e];
      const std::int32_t w1 = has2 ? codes[e + 1] : 0;
      wsum += w0 + w1;
      QPair p;
      p.col0 = cols[e];
      p.col1 = has2 ? cols[e + 1] : cols[e];  // code 0: any in-range row
      p.word = static_cast<std::int32_t>(
          (static_cast<std::uint32_t>(w0) & 0xFFu) |
          ((static_cast<std::uint32_t>(w1) & 0xFFu) << 8));
      t.pairs.push_back(p);
    }
    // -128 * sum(w) can leave int32 on long segments; the kernel's int32
    // sums wrap mod 2^32, so the correction is stored reduced the same way.
    t.corr.push_back(static_cast<std::int32_t>(static_cast<std::uint32_t>(
        static_cast<std::uint64_t>(-128 * wsum))));
  }
  t.seg_pairs.push_back(static_cast<std::int32_t>(t.pairs.size()));
  return t;
}

#if defined(UPAQ_S8_VEC) && defined(__AVX512BW__) && defined(__AVX512VNNI__)
#define UPAQ_S8_AVX512 1
namespace {

// GCC 12 implements these 512-bit intrinsics with a pass-through operand
// seeded from a self-initialized `__m512 __Y = __Y;` that is never read
// (full write mask); -Wmaybe-uninitialized reports it at every inlined use.
// The suppression covers only the three wrappers below, so the row block's
// own accumulators and buffers stay checked.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

/// The odd-column weight word (0, 0, w0, w1) of an even word (w0, w1, 0, 0).
inline __m512i odd_word(__m512i even) { return _mm512_slli_epi32(even, 16); }

/// y + m * float(acc), the product pinned (no FMA contraction).
inline __m512 requant_add16(__m512 y, __m512 m, __m512i acc) {
  __m512 t = _mm512_mul_ps(m, _mm512_cvtepi32_ps(acc));
  UPAQ_NO_CONTRACT(t);
  return _mm512_add_ps(y, t);
}

/// Undoes s8_row_block64's column permutation. Interleaving the even/odd
/// accumulators gives 4 consecutive columns per 128-bit lane (u0: 16L+0..3,
/// u1: +4..7, u2: +8..11, u3: +12..15); a 4x4 transpose of 128-bit lanes
/// then makes out[b] columns 16b..16b+15.
inline void unpermute64(__m512 y0, __m512 y1, __m512 y2, __m512 y3,
                        __m512 out[4]) {
  const __m512 u0 = _mm512_unpacklo_ps(y0, y1);
  const __m512 u1 = _mm512_unpackhi_ps(y0, y1);
  const __m512 u2 = _mm512_unpacklo_ps(y2, y3);
  const __m512 u3 = _mm512_unpackhi_ps(y2, y3);
  const __m512 v0 = _mm512_shuffle_f32x4(u0, u1, 0x44);
  const __m512 v1 = _mm512_shuffle_f32x4(u0, u1, 0xEE);
  const __m512 v2 = _mm512_shuffle_f32x4(u2, u3, 0x44);
  const __m512 v3 = _mm512_shuffle_f32x4(u2, u3, 0xEE);
  out[0] = _mm512_shuffle_f32x4(v0, v2, 0x88);
  out[1] = _mm512_shuffle_f32x4(v0, v2, 0xDD);
  out[2] = _mm512_shuffle_f32x4(v1, v3, 0x88);
  out[3] = _mm512_shuffle_f32x4(v1, v3, 0xDD);
}

#pragma GCC diagnostic pop

/// 16-lane forms of EpiVec / epi8: the same per-element operations, so the
/// same bits. `m` masks the residual load of a partial column block.
struct EpiVec16 {
  __m512 g, mu, is, be, slope;
};

inline EpiVec16 epi_vec16(const Epilogue& e, const EpiTerms& t) {
  return {_mm512_set1_ps(t.g), _mm512_set1_ps(t.mu), _mm512_set1_ps(t.is),
          _mm512_set1_ps(t.be), _mm512_set1_ps(e.slope)};
}

inline __m512 epi16(const Epilogue& e, const EpiVec16& c, __m512 v,
                    const float* s, __mmask16 m) {
  if (e.gamma != nullptr) {
    __m512 p = _mm512_mul_ps(_mm512_mul_ps(c.g, _mm512_sub_ps(v, c.mu)), c.is);
    UPAQ_NO_CONTRACT(p);
    v = _mm512_add_ps(p, c.be);
  }
  if (e.skip != nullptr) v = _mm512_add_ps(v, _mm512_maskz_loadu_ps(m, s));
  if (e.relu) {
    const __m512 a = _mm512_mul_ps(v, c.slope);
    v = _mm512_mask_blend_ps(
        _mm512_cmp_ps_mask(v, _mm512_setzero_ps(), _CMP_LT_OQ), v, a);
  }
  return v;
}

/// One (row, 64-column) output block of the segment GEMM over the pair
/// table; `nb` (< 64 only when kTail) columns are live, read through
/// qb = qx + j0 and the QTaps row offsets. Four zmm float accumulators hold
/// the block across ALL of the row's segments (bias fill in registers, one
/// store at the end). Per pair, the two activation rows are flipped to
/// unsigned bytes (x ^ 0x80 = x + 128) and byte-interleaved, so 32-bit lane d
/// of 128-bit lane L of `lo` holds columns 16L+2d and 16L+2d+1 of both rows
/// (`hi`: the same 8 columns on); vpdpbusd against the even word
/// (w0, w1, 0, 0) sums the first column, against the odd word
/// (0, 0, w0, w1) = even << 16 the second. A segment's int32 sums start at
/// its -128 * sum(w) correction, so each lane ends at exactly sum(w * x):
/// every term is exact, the int32 adds wrap mod 2^32, and the true sum fits
/// int32 (PackedGemm caps segment length). The per-element float sequence
/// (bias, then one pinned mul+add per segment in ascending order) is the
/// generic path's; the column permutation is undone once, before the
/// epilogue.
template <bool kTail>
void s8_row_block64(const QSegment* segs, const QPairTable& pt,
                    std::int64_t s0, std::int64_t s1, const std::int8_t* qb,
                    const std::int64_t* off, float sx, std::int64_t nb,
                    float bias_v, float* yb, const Epilogue* epi,
                    const EpiVec16& ev, const float* skip) {
  const std::uint64_t live = kTail ? (std::uint64_t{1} << nb) - 1 : ~0ull;
  const __mmask64 lm = _cvtu64_mask64(live);
  const __m512i flip = _mm512_set1_epi8(static_cast<char>(0x80));
  __m512 y0 = _mm512_set1_ps(bias_v);
  __m512 y1 = y0, y2 = y0, y3 = y0;
  const QPair* pr = pt.pairs.data() + pt.seg_pairs[s0];
  for (std::int64_t si = s0; si < s1; ++si) {
    const __m512i c = _mm512_set1_epi32(pt.corr[si]);
    __m512i a0 = c, a1 = c, a2 = c, a3 = c;
    const QPair* pend = pt.pairs.data() + pt.seg_pairs[si + 1];
    for (; pr < pend; ++pr) {
      const std::int8_t* p0 = qb + off[pr->col0];
      const std::int8_t* p1 = qb + off[pr->col1];
      __m512i r0, r1;
      if constexpr (kTail) {
        r0 = _mm512_maskz_loadu_epi8(lm, p0);
        r1 = _mm512_maskz_loadu_epi8(lm, p1);
      } else {
        r0 = _mm512_loadu_si512(p0);
        r1 = _mm512_loadu_si512(p1);
      }
      r0 = _mm512_xor_si512(r0, flip);
      r1 = _mm512_xor_si512(r1, flip);
      const __m512i lo = _mm512_unpacklo_epi8(r0, r1);
      const __m512i hi = _mm512_unpackhi_epi8(r0, r1);
      const __m512i we = _mm512_set1_epi32(pr->word);
      const __m512i wo = odd_word(we);
      a0 = _mm512_dpbusd_epi32(a0, lo, we);
      a1 = _mm512_dpbusd_epi32(a1, lo, wo);
      a2 = _mm512_dpbusd_epi32(a2, hi, we);
      a3 = _mm512_dpbusd_epi32(a3, hi, wo);
    }
    const __m512 mv = _mm512_set1_ps(segs[si].scale * sx);
    y0 = requant_add16(y0, mv, a0);
    y1 = requant_add16(y1, mv, a1);
    y2 = requant_add16(y2, mv, a2);
    y3 = requant_add16(y3, mv, a3);
  }
  __m512 out[4];
  unpermute64(y0, y1, y2, y3, out);
  for (int b = 0; b < 4; ++b) {
    const __mmask16 sm = _cvtu32_mask16(
        static_cast<std::uint32_t>((live >> (16 * b)) & 0xFFFFu));
    if (epi != nullptr)  // the block is final: epilogue in registers
      out[b] = epi16(*epi, ev, out[b], skip + 16 * b, sm);
    if constexpr (kTail) {
      _mm512_mask_storeu_ps(yb + 16 * b, sm, out[b]);
    } else {
      _mm512_storeu_ps(yb + 16 * b, out[b]);
    }
  }
}

}  // namespace
#endif

bool s8_pair_kernel() {
#if defined(UPAQ_S8_AVX512)
  return true;
#else
  return false;
#endif
}

QTaps s8_matrix_taps(const std::int8_t* qx, std::int64_t k, std::int64_t n,
                     std::int64_t* off) {
  for (std::int64_t r = 0; r < k; ++r) off[r] = r * n;
  return {qx, off, n};
}

TapLayout tap_layout(std::int64_t c, std::int64_t h, std::int64_t w, int k,
                     int stride, int pad) {
  TapLayout t;
  t.c = c;
  t.h = h;
  t.w = w;
  t.k = k;
  t.stride = stride;
  t.pad = pad;
  const std::int64_t hp = h + 2 * pad, wp = w + 2 * pad;
  t.oh = hp >= k ? (hp - k) / stride + 1 : 0;
  t.ow = wp >= k ? (wp - k) / stride + 1 : 0;
  t.phases = std::min(stride, k);
  t.hq = (hp + stride - 1) / stride;
  return t;
}

void s8_tap_offsets(const TapLayout& t, std::int64_t* off) {
  const std::int64_t s = t.stride, plane = t.hq * t.ow;
  for (std::int64_t ch = 0; ch < t.c; ++ch)
    for (int ky = 0; ky < t.k; ++ky)
      for (int kx = 0; kx < t.k; ++kx)
        *off++ = ((ch * t.phases + ky % s) * t.k + kx) * plane +
                 (ky / s) * t.ow;
}

QTaps s8_layout_taps(const TapLayout& t, const std::int8_t* qx,
                     const std::int64_t* off) {
  return {qx, off, t.cols()};
}

void s8_gemm_segments(const std::int32_t* cols, const std::int32_t* codes,
                      const QSegment* segs, const std::int64_t* row_segs,
                      std::int64_t rows, std::int64_t k, const QTaps& x,
                      float sx, const float* bias, float* y,
                      const QPairTable* pairs, const Epilogue* epi) {
  if (epi != nullptr && !epi->active()) epi = nullptr;
  const std::int64_t n = x.n;
#if defined(UPAQ_S8_AVX512)
  if (pairs != nullptr) {
    constexpr std::int64_t kRowGrainI8 = 8;
    auto row_block = [&](std::int64_t r0, std::int64_t r1) {
      for (std::int64_t r = r0; r < r1; ++r) {
        float* yrow = y + r * n;
        const float bv = bias != nullptr ? bias[r] : 0.0f;
        // Residual row (y itself when there is none: never read).
        const float* srow =
            epi != nullptr && epi->skip != nullptr ? epi->skip + r * n : yrow;
        const EpiVec16 ev =
            epi != nullptr ? epi_vec16(*epi, epi_terms(*epi, r)) : EpiVec16{};
        std::int64_t j0 = 0;
        for (; j0 + 64 <= n; j0 += 64)
          s8_row_block64<false>(segs, *pairs, row_segs[r], row_segs[r + 1],
                                x.qx + j0, x.off, sx, 64, bv, yrow + j0, epi,
                                ev, srow + j0);
        if (j0 < n)
          s8_row_block64<true>(segs, *pairs, row_segs[r], row_segs[r + 1],
                               x.qx + j0, x.off, sx, n - j0, bv, yrow + j0,
                               epi, ev, srow + j0);
      }
    };
    if (rows * k * n < kMinParallelWork) {
      row_block(0, rows);
    } else {
      parallel::parallel_for(0, rows, kRowGrainI8, row_block);
    }
    return;
  }
#else
  (void)pairs;
#endif
  // Column block of the generic (len >= 4) path: the int32 accumulator
  // covers kColBlock outputs (2 KiB, L1-resident) instead of the whole
  // feature map; the y block likewise stays L1-hot across a row's segments.
  // Blocking is bitwise-free: int32 segment sums are exact and the
  // per-element requantization order (segment order) does not depend on the
  // column decomposition.
  constexpr std::int64_t kColBlock = 512;
  constexpr std::int64_t kRowGrain = 8;
  auto row_block = [&](std::int64_t r0, std::int64_t r1) {
    workspace::Scope ws;
    std::int32_t* iacc = ws.i32(std::min(n, kColBlock));
    for (std::int64_t r = r0; r < r1; ++r) {
      float* yrow = y + r * n;
      std::fill(yrow, yrow + n, bias != nullptr ? bias[r] : 0.0f);
      for (std::int64_t j0 = 0; j0 < n; j0 += kColBlock) {
        const std::int64_t nb = std::min(kColBlock, n - j0);
        for (std::int64_t si = row_segs[r]; si < row_segs[r + 1]; ++si) {
          const QSegment& seg = segs[si];
          const std::int64_t len = seg.end - seg.begin;
          const float m = seg.scale * sx;
          const std::int32_t* wc = codes + seg.begin;
          const std::int32_t* cc = cols + seg.begin;
          float* yb = yrow + j0;
          // UPAQ patterns keep 2 (HCK) or 3 (LCK) weights per kernel, so
          // almost every segment is tiny: the fused kernels fold the integer
          // sum and the requantization into one pass over the columns.
          if (len <= 3) {
            s8_fused_segment(cc, wc, len, x.qx, x.off, j0, nb, m, yb);
          } else {
            std::fill(iacc, iacc + nb, 0);
            s8_segment_accumulate(cc, wc, len, x.qx, x.off, j0, nb, iacc);
            s8_requant_add(iacc, nb, m, yb);
          }
        }
        if (epi != nullptr)
          epi_run(*epi, r, yrow + j0, epi_skip(*epi, r * n + j0), nb);
      }
    }
  };
  if (rows * k * n < kMinParallelWork) {
    row_block(0, rows);
  } else {
    parallel::parallel_for(0, rows, kRowGrain, row_block);
  }
}

void q8_pack_a(const std::int8_t* a, std::int64_t m, std::int64_t k,
               std::int64_t slab, QPanelA& out) {
  out.m = m;
  out.k = k;
  out.slab = slab;
  const std::int64_t mpad = round_up(m, kQMR);
  // Slabs are padded to an even k depth for the pair-interleaved layout
  // (the phantom position holds code 0, an exact integer no-op).
  std::int64_t kpad = 0;
  for (std::int64_t pc = 0; pc < k; pc += slab)
    kpad += round_up(std::min(slab, k - pc), 2);
  // +4 trailing bytes: the 16-byte pair loads of the micro-kernel read past
  // the final 2*kQMR-byte pair; the tail lanes land in unused permute slots.
  out.data.assign(static_cast<std::size_t>(mpad * kpad + 4), 0);
  std::int8_t* dst = out.data.data();
  for (std::int64_t pc = 0; pc < k; pc += slab) {
    const std::int64_t kc = std::min(slab, k - pc);
    const std::int64_t kcp = round_up(kc, 2);
    for (std::int64_t ip = 0; ip < mpad / kQMR; ++ip) {
      std::int8_t* panel = dst + ip * kQMR * kcp;
      for (std::int64_t j = 0; j < kc; ++j)
        for (std::int64_t r = 0; r < kQMR; ++r) {
          const std::int64_t row = ip * kQMR + r;
          panel[(j >> 1) * 2 * kQMR + 2 * r + (j & 1)] =
              row < m ? a[row * k + pc + j] : 0;
        }
    }
    dst += mpad * kcp;
  }
}

namespace {

/// Packs a kc x nw int8 B slab (columns [jc, jc+nw), k-rows [pc, pc+kc))
/// into kQNR-column panels, zero-padded to the panel width. Adjacent k-rows
/// are pair-interleaved ([b(p,j), b(p+1,j)] contiguous per column) so the
/// micro-kernel's int16 multiply-add lanes line up with one plain load; an
/// odd kc gets a zero-filled phantom row (exact integer no-op).
void q8_pack_b_slab(std::int8_t* dst, const std::int8_t* b, std::int64_t n,
                    std::int64_t pc, std::int64_t kc, std::int64_t jc,
                    std::int64_t nw) {
  const std::int64_t jpanels = (nw + kQNR - 1) / kQNR;
  const std::int64_t kcp = round_up(kc, 2);
  for (std::int64_t jp = 0; jp < jpanels; ++jp) {
    std::int8_t* panel = dst + jp * kcp * kQNR;
    const std::int64_t jv = std::min(kQNR, nw - jp * kQNR);
    const std::int8_t* src0 = b + pc * n + jc + jp * kQNR;
#if defined(UPAQ_S8_VEC) && defined(__AVX2__)
    if (jv == kQNR) {
      // Full-width panel: interleave two 8-byte k-rows with one unpack
      // instead of 16 strided byte stores.
      for (std::int64_t p = 0; p + 1 < kc; p += 2) {
        const __m128i lo = _mm_loadl_epi64(
            reinterpret_cast<const __m128i*>(src0 + p * n));
        const __m128i hi = _mm_loadl_epi64(
            reinterpret_cast<const __m128i*>(src0 + (p + 1) * n));
        _mm_storeu_si128(reinterpret_cast<__m128i*>(panel + (p >> 1) * 16),
                         _mm_unpacklo_epi8(lo, hi));
      }
      if (kc & 1) {  // odd tail k-row paired with a zero phantom row
        const __m128i lo = _mm_loadl_epi64(
            reinterpret_cast<const __m128i*>(src0 + (kc - 1) * n));
        _mm_storeu_si128(reinterpret_cast<__m128i*>(panel + (kc >> 1) * 16),
                         _mm_unpacklo_epi8(lo, _mm_setzero_si128()));
      }
      continue;
    }
#endif
    for (std::int64_t p = 0; p < kc; ++p) {
      const std::int8_t* src = src0 + p * n;
      std::int8_t* row = panel + (p >> 1) * 2 * kQNR + (p & 1);
      for (std::int64_t jr = 0; jr < jv; ++jr) row[2 * jr] = src[jr];
      for (std::int64_t jr = jv; jr < kQNR; ++jr) row[2 * jr] = 0;
    }
    if (kc & 1) {
      std::int8_t* row = panel + (kc >> 1) * 2 * kQNR + 1;
      for (std::int64_t jr = 0; jr < kQNR; ++jr) row[2 * jr] = 0;
    }
  }
}

#if defined(UPAQ_S8_VEC) && defined(__AVX2__)

/// kQMR x kQNR int8 micro-tile over one (ip, jp) pair of a slab, with the
/// panel's requantization schedule interleaved: integer products accumulate
/// in registers via vpmaddwd (int16 x int16 multiply with exact pairwise
/// int32 horizontal add — both operands are sign-extended int8, so every
/// product and pair sum is exact), and at each flush event the closing row's
/// accumulator is requantized into y with the same one-multiply-one-add
/// sequence as s8_requant_add. Events are (col, row) ascending, so per
/// output element the float operations replay the segment engine's order
/// exactly. Pairing is fixed to even panel positions (the pack layout);
/// segment boundaries at odd positions zero the partner lane instead of
/// re-aligning, so no product ever crosses a requant boundary.
void q8_micro_tile(const std::int8_t* __restrict__ ap,
                   const std::int8_t* __restrict__ bp, std::int64_t kc,
                   std::int64_t pc, const QFlush* ev, const QFlush* ev_end,
                   float sx, float* y, std::int64_t n, std::int64_t jcol,
                   std::int64_t jv, std::int64_t row_base, std::int64_t m) {
  v8si t0{}, t1{}, t2{}, t3{}, t4{}, t5{};
  static_assert(kQMR == 6, "accumulator count assumes kQMR == 6");
  const auto flush = [&](int r, float scale) {
    v8si acc{};
    switch (r) {
      case 0: acc = t0; t0 = v8si{}; break;
      case 1: acc = t1; t1 = v8si{}; break;
      case 2: acc = t2; t2 = v8si{}; break;
      case 3: acc = t3; t3 = v8si{}; break;
      case 4: acc = t4; t4 = v8si{}; break;
      default: acc = t5; t5 = v8si{}; break;
    }
    const float m_ = scale * sx;
    float* yb = y + (row_base + r) * n + jcol;
    if (jv == kQNR) {
      v8sf t = m_ * __builtin_convertvector(acc, v8sf);
      UPAQ_NO_CONTRACT(t);
      v8sf yv;
      __builtin_memcpy(&yv, yb, sizeof(yv));
      yv += t;
      __builtin_memcpy(yb, &yv, sizeof(yv));
    } else {
      for (std::int64_t j = 0; j < jv; ++j) {
        float t = m_ * static_cast<float>(acc[j]);
        UPAQ_NO_CONTRACT(t);
        yb[j] += t;
      }
    }
  };
  // One panel position p with its stored-pair partner lane zeroed: products
  // from the partner position contribute exactly 0, so half-pair steps at
  // segment boundaries stay on the vpmaddwd path.
  const auto step1 = [&](std::int64_t p) {
    const std::int64_t q = p >> 1;
    const __m256i bpair = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(bp + q * 2 * kQNR)));
    const std::int8_t* a = ap + q * 2 * kQMR + (p & 1);
    const int odd = static_cast<int>(p & 1);
    const auto lane = [&](int r) {
      const std::int32_t v = a[2 * r];
      return _mm256_set1_epi32(odd ? (v << 16) : (v & 0xFFFF));
    };
    t0 += (v8si)_mm256_madd_epi16(lane(0), bpair);
    t1 += (v8si)_mm256_madd_epi16(lane(1), bpair);
    t2 += (v8si)_mm256_madd_epi16(lane(2), bpair);
    t3 += (v8si)_mm256_madd_epi16(lane(3), bpair);
    t4 += (v8si)_mm256_madd_epi16(lane(4), bpair);
    t5 += (v8si)_mm256_madd_epi16(lane(5), bpair);
  };
  std::int64_t c = 0;  // slab-local column
  while (true) {
    const std::int64_t stop =
        ev != ev_end ? std::min<std::int64_t>(ev->col - pc, kc) : kc;
    std::int64_t p = c;
    if (p < stop && (p & 1)) {  // odd head: partner belongs to the previous run
      step1(p);
      ++p;
    }
    for (; p + 1 < stop; p += 2) {
      const std::int64_t q = p >> 1;
      const __m256i bpair = _mm256_cvtepi8_epi16(_mm_loadu_si128(
          reinterpret_cast<const __m128i*>(bp + q * 2 * kQNR)));
      // 6 interleaved (a[p], a[p+1]) int8 pairs -> int16 pairs in permute
      // slots 0..5 (the 16-byte load's tail lands in the unused slots 6..7).
      const __m256i a_all = _mm256_cvtepi8_epi16(_mm_loadu_si128(
          reinterpret_cast<const __m128i*>(ap + q * 2 * kQMR)));
      t0 += (v8si)_mm256_madd_epi16(
          _mm256_permutevar8x32_epi32(a_all, _mm256_set1_epi32(0)), bpair);
      t1 += (v8si)_mm256_madd_epi16(
          _mm256_permutevar8x32_epi32(a_all, _mm256_set1_epi32(1)), bpair);
      t2 += (v8si)_mm256_madd_epi16(
          _mm256_permutevar8x32_epi32(a_all, _mm256_set1_epi32(2)), bpair);
      t3 += (v8si)_mm256_madd_epi16(
          _mm256_permutevar8x32_epi32(a_all, _mm256_set1_epi32(3)), bpair);
      t4 += (v8si)_mm256_madd_epi16(
          _mm256_permutevar8x32_epi32(a_all, _mm256_set1_epi32(4)), bpair);
      t5 += (v8si)_mm256_madd_epi16(
          _mm256_permutevar8x32_epi32(a_all, _mm256_set1_epi32(5)), bpair);
    }
    if (p < stop) {  // odd tail: partner belongs to the next run
      step1(p);
    }
    c = stop;
    // Uniform-group matrices emit one event per row at the same column in
    // row order (the event build sorts by (col, row)); requantize all six
    // accumulators in one straight-line pass instead of six dispatched
    // switches. The per-row float sequence is identical to flush().
    if (jv == kQNR && ev_end - ev >= kQMR && ev[0].col - pc == c &&
        ev[kQMR - 1].col == ev[0].col && ev[0].row == 0 &&
        ev[kQMR - 1].row == kQMR - 1) {
      const auto one = [&](v8si& t, int r) {
        const float m_ = ev[r].scale * sx;
        float* yb = y + (row_base + r) * n + jcol;
        v8sf tv = m_ * __builtin_convertvector(t, v8sf);
        UPAQ_NO_CONTRACT(tv);
        v8sf yv;
        __builtin_memcpy(&yv, yb, sizeof(yv));
        yv += tv;
        __builtin_memcpy(yb, &yv, sizeof(yv));
        t = v8si{};
      };
      one(t0, 0);
      one(t1, 1);
      one(t2, 2);
      one(t3, 3);
      one(t4, 4);
      one(t5, 5);
      ev += kQMR;
    }
    while (ev != ev_end && ev->col - pc == c) {
      flush(static_cast<int>(ev->row), ev->scale);
      ++ev;
    }
    if (c >= kc && (ev == ev_end || ev->col - pc > kc)) break;
  }
  (void)m;
}

#else  // !(UPAQ_S8_VEC && __AVX2__)

/// Portable scalar fallback with identical per-element arithmetic.
void q8_micro_tile(const std::int8_t* ap, const std::int8_t* bp,
                   std::int64_t kc, std::int64_t pc, const QFlush* ev,
                   const QFlush* ev_end, float sx, float* y, std::int64_t n,
                   std::int64_t jcol, std::int64_t jv, std::int64_t row_base,
                   std::int64_t m) {
  std::int32_t acc[kQMR][kQNR] = {};
  const auto flush = [&](int r, float scale) {
    const float m_ = scale * sx;
    float* yb = y + (row_base + r) * n + jcol;
    for (std::int64_t j = 0; j < jv; ++j) {
      float t = m_ * static_cast<float>(acc[r][j]);
      UPAQ_NO_CONTRACT(t);
      yb[j] += t;
    }
    for (std::int64_t j = 0; j < kQNR; ++j) acc[r][j] = 0;
  };
  std::int64_t c = 0;
  while (true) {
    const std::int64_t stop =
        ev != ev_end ? std::min<std::int64_t>(ev->col - pc, kc) : kc;
    for (std::int64_t p = c; p < stop; ++p) {
      // Pair-interleaved panel layout: position p of pair q = p/2 sits at
      // byte 2*r + (p & 1) (A) / 2*j + (p & 1) (B) within the pair.
      const std::int8_t* arow = ap + (p >> 1) * 2 * kQMR + (p & 1);
      const std::int8_t* brow = bp + (p >> 1) * 2 * kQNR + (p & 1);
      for (int r = 0; r < kQMR; ++r) {
        const std::int32_t w = arow[2 * r];
        for (std::int64_t j = 0; j < kQNR; ++j)
          acc[r][j] += w * static_cast<std::int32_t>(brow[2 * j]);
      }
    }
    c = stop;
    while (ev != ev_end && ev->col - pc == c) {
      flush(static_cast<int>(ev->row), ev->scale);
      ++ev;
    }
    if (c >= kc && (ev == ev_end || ev->col - pc > kc)) break;
  }
  (void)m;
}

#endif  // UPAQ_S8_VEC && __AVX2__

/// Panel kernel's epilogue: once the last slab's micro-tile for row panel
/// `ip` and columns [jcol, jcol + jv) is done, every one of its outputs is
/// final (no later slab touches them).
void panel_tile_epilogue(const Epilogue& e, float* y, std::int64_t m,
                         std::int64_t n, std::int64_t ip, std::int64_t jcol,
                         std::int64_t jv) {
  const std::int64_t rv = std::min(kQMR, m - ip * kQMR);
  for (std::int64_t r = 0; r < rv; ++r) {
    const std::int64_t row = ip * kQMR + r;
    const std::int64_t off = row * n + jcol;
    epi_run(e, row, y + off, epi_skip(e, off), jv);
  }
}

}  // namespace

void q8_gemm_panel(const QPanelA& w, const std::int8_t* qx, float sx,
                   std::int64_t n, float* y, const Epilogue* epi) {
  if (epi != nullptr && !epi->active()) epi = nullptr;
  const std::int64_t m = w.m, k = w.k, slab = w.slab;
  const std::int64_t mpad = round_up(m, kQMR);
  const std::int64_t row_panels = mpad / kQMR;
  const std::int64_t stripes = (n + kQNC - 1) / kQNC;
  const std::int64_t slab_pad = round_up(slab, 2);
  auto stripe_body = [&](std::int64_t s0, std::int64_t s1) {
    workspace::Scope ws;
    std::int8_t* bp = ws.i8(slab_pad * kQNC);
    for (std::int64_t s = s0; s < s1; ++s) {
      const std::int64_t jc = s * kQNC;
      const std::int64_t nw = std::min(kQNC, n - jc);
      const std::int64_t jpanels = (nw + kQNR - 1) / kQNR;
      for (std::int64_t pc = 0; pc < k; pc += slab) {
        const std::int64_t kc = std::min(slab, k - pc);
        const std::int64_t kcp = round_up(kc, 2);
        q8_pack_b_slab(bp, qx, n, pc, kc, jc, nw);
        // All slabs before this one are full (kc == slab), so their padded
        // depth is slab_pad — mirrors q8_pack_a's running offset.
        const std::int8_t* aslab =
            w.data.data() + mpad * (pc / slab) * slab_pad;
        for (std::int64_t jp = 0; jp < jpanels; ++jp) {
          const std::int64_t jv = std::min(kQNR, nw - jp * kQNR);
          for (std::int64_t ip = 0; ip < row_panels; ++ip) {
            const auto& evs = w.events[static_cast<std::size_t>(ip)];
            // Events with col in (pc, pc + kc] fire inside this slab; slab
            // cuts are group boundaries, so no event range straddles slabs.
            const QFlush* lo = std::lower_bound(
                evs.data(), evs.data() + evs.size(), pc + 1,
                [](const QFlush& e, std::int64_t col) { return e.col < col; });
            const QFlush* hi = std::lower_bound(
                lo, evs.data() + evs.size(), pc + kc + 1,
                [](const QFlush& e, std::int64_t col) { return e.col < col; });
            q8_micro_tile(aslab + ip * kQMR * kcp, bp + jp * kcp * kQNR, kc,
                          pc, lo, hi, sx, y, n, jc + jp * kQNR, jv, ip * kQMR,
                          m);
            if (epi != nullptr && pc + kc == k)
              panel_tile_epilogue(*epi, y, m, n, ip, jc + jp * kQNR, jv);
          }
        }
      }
    }
  };
  if (m * k * n < kMinParallelWork) {
    stripe_body(0, stripes);
  } else {
    parallel::parallel_for(0, stripes, 1, stripe_body);
  }
}

namespace {

/// Exact abs-max of a range. Max is associative, commutative, and rounds
/// nothing, so the vector-lane decomposition returns the same value as a
/// scalar sweep for any finite input.
float abs_max_range(const float* src, std::int64_t i0, std::int64_t i1) {
  float a = 0.0f;
#if defined(UPAQ_S8_VEC) && defined(__AVX2__)
  // GCC will not vectorize float max reductions without -ffast-math, so
  // spell out the lanes (the reduction is exact either way).
  // Four accumulators keep four max chains in flight.
  const __m256 absmask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF));
  __m256 acc = _mm256_setzero_ps();
  __m256 acc1 = acc, acc2 = acc, acc3 = acc;
  std::int64_t i = i0;
  for (; i + 32 <= i1; i += 32) {
    acc = _mm256_max_ps(acc, _mm256_and_ps(absmask, _mm256_loadu_ps(src + i)));
    acc1 = _mm256_max_ps(
        acc1, _mm256_and_ps(absmask, _mm256_loadu_ps(src + i + 8)));
    acc2 = _mm256_max_ps(
        acc2, _mm256_and_ps(absmask, _mm256_loadu_ps(src + i + 16)));
    acc3 = _mm256_max_ps(
        acc3, _mm256_and_ps(absmask, _mm256_loadu_ps(src + i + 24)));
  }
  for (; i + 8 <= i1; i += 8)
    acc = _mm256_max_ps(acc, _mm256_and_ps(absmask, _mm256_loadu_ps(src + i)));
  acc = _mm256_max_ps(_mm256_max_ps(acc, acc1), _mm256_max_ps(acc2, acc3));
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, acc);
  for (float l : lanes) a = std::max(a, l);
  for (; i < i1; ++i) a = std::max(a, std::fabs(src[i]));
#else
  for (std::int64_t i = i0; i < i1; ++i) a = std::max(a, std::fabs(src[i]));
#endif
  return a;
}

// Activation quantization fans out over the pool only for maps of at least
// kQuantParallelMin elements, in kQuantChunk-element chunks. Measured on a
// 4-vCPU AVX-512 host (serial vs pool, 2 and 4 lanes): 2 lanes never beat
// serial up to 393k elements, 4 lanes start to at 131k, and every shipped
// PointPillars map (<= 74k) and all but one SMOKE map stay well below. The
// split is by element count only, so the codes never depend on it.
constexpr std::int64_t kQuantParallelMin = 1 << 18;
constexpr std::int64_t kQuantChunk = 1 << 15;

/// Abs-max of a whole map: serial below kQuantParallelMin elements, else
/// per-chunk maxima (scratch from the workspace arena) combined in chunk
/// order — max is exact, so the value never depends on the split.
float abs_max(const float* src, std::int64_t n) {
  if (n < kQuantParallelMin) return abs_max_range(src, 0, n);
  const std::int64_t chunks = (n + kQuantChunk - 1) / kQuantChunk;
  workspace::Scope ws;
  float* partial = ws.floats(chunks);
  parallel::parallel_for(0, n, kQuantChunk,
                         [&](std::int64_t i0, std::int64_t i1) {
                           partial[i0 / kQuantChunk] =
                               abs_max_range(src, i0, i1);
                         });
  float alpha = 0.0f;
  for (std::int64_t i = 0; i < chunks; ++i) alpha = std::max(alpha, partial[i]);
  return alpha;
}

/// The symmetric grid of one map: scale, its reciprocal and the clamp bound.
struct QuantGrid {
  float scale = 1.0f, inv = 1.0f, maxv = 0.0f;
};

QuantGrid quant_grid(float alpha, int bits) {
  const double max_value = std::pow(2.0, bits - 1) - 1.0;
  QuantGrid g;
  g.scale = static_cast<float>(alpha / max_value);
  g.inv = 1.0f / g.scale;
  g.maxv = static_cast<float>(max_value);
  return g;
}

/// One element of the quantization: multiply, clamp, round half away from
/// zero via a truncating cast (copysign keeps it branch-free). Clamping
/// first bounds the value, so the cast is exact. Every vector form below
/// spells out this same sequence per lane.
inline std::int8_t quantize1(float x, const QuantGrid& g) {
  float v = x * g.inv;
  v = std::min(std::max(v, -g.maxv), g.maxv);
  return static_cast<std::int8_t>(
      static_cast<std::int32_t>(v + std::copysign(0.5f, v)));
}

#if defined(UPAQ_S8_AVX512)
// The GCC 12 pass-through seeding of the 512-bit intrinsics again (see the
// segment block's wrappers).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
/// quantize1 on 16 lanes; the clamp bounds every lane inside int8 range, so
/// the truncating narrow to bytes is exact.
inline __m128i quantize16(__m512 x, const QuantGrid& g) {
  __m512 v = _mm512_mul_ps(x, _mm512_set1_ps(g.inv));
  v = _mm512_min_ps(_mm512_max_ps(v, _mm512_set1_ps(-g.maxv)),
                    _mm512_set1_ps(g.maxv));
  const __m512i sign = _mm512_and_si512(
      _mm512_castps_si512(v),
      _mm512_set1_epi32(static_cast<std::int32_t>(0x80000000u)));
  const __m512 h = _mm512_castsi512_ps(
      _mm512_or_si512(sign, _mm512_castps_si512(_mm512_set1_ps(0.5f))));
  return _mm512_cvtepi32_epi8(_mm512_cvttps_epi32(_mm512_add_ps(v, h)));
}

/// The low `lanes` bits (none for lanes <= 0, all 16 from 16 on).
inline __mmask16 low_mask16(std::int64_t lanes) {
  if (lanes <= 0) return _cvtu32_mask16(0);
  return _cvtu32_mask16(lanes >= 16 ? 0xFFFFu : (1u << lanes) - 1u);
}
#pragma GCC diagnostic pop
#endif

/// Quantizes `count` contiguous floats. Each element is converted on its
/// own — the codes cannot depend on where a range starts, the vector width
/// or the thread count.
void convert_range(const float* src, std::int64_t count, const QuantGrid& g,
                   std::int8_t* dst) {
  std::int64_t i = 0;
#if defined(UPAQ_S8_AVX512)
  for (; i + 16 <= count; i += 16)
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     quantize16(_mm512_loadu_ps(src + i), g));
  if (i < count) {  // masked tail: the dead lanes load nothing, store nothing
    const __mmask16 m = low_mask16(count - i);
    _mm_mask_storeu_epi8(dst + i, m,
                         quantize16(_mm512_maskz_loadu_ps(m, src + i), g));
  }
  return;
#elif defined(UPAQ_S8_VEC) && defined(__AVX2__)
  // Same per-element sequence as quantize1, eight lanes at a time (GCC
  // keeps this loop scalar on its own because of the int8 narrowing store).
  // The clamp bounds every lane inside int8 range, so the saturating packs
  // never saturate and the narrowing is exact.
  const __m256 vinv = _mm256_set1_ps(g.inv);
  const __m256 vmax = _mm256_set1_ps(g.maxv);
  const __m256 vmin = _mm256_set1_ps(-g.maxv);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 signmask = _mm256_castsi256_ps(
      _mm256_set1_epi32(static_cast<std::int32_t>(0x80000000)));
  for (; i + 8 <= count; i += 8) {
    __m256 v = _mm256_mul_ps(_mm256_loadu_ps(src + i), vinv);
    v = _mm256_min_ps(_mm256_max_ps(v, vmin), vmax);
    const __m256 h = _mm256_or_ps(_mm256_and_ps(v, signmask), half);
    const __m256i q = _mm256_cvttps_epi32(_mm256_add_ps(v, h));
    const __m128i w = _mm_packs_epi32(_mm256_castsi256_si128(q),
                                      _mm256_extracti128_si256(q, 1));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(dst + i),
                     _mm_packs_epi16(w, w));
  }
#endif
  for (; i < count; ++i) dst[i] = quantize1(src[i], g);
}

/// One plane row of the tap layout: count codes, of which [o0, o1) are
/// dst[o] = quantize1(live[(o - o0) * s]) and the rest the zero border.
/// Reads only live[0 .. (o1 - o0 - 1) * s].
void fill_tap_row(const float* live, std::int64_t s, std::int64_t o0,
                  std::int64_t o1, std::int64_t count, const QuantGrid& g,
                  std::int8_t* dst) {
  std::memset(dst, 0, static_cast<std::size_t>(o0));
  if (s == 1) {
    convert_range(live, o1 - o0, g, dst + o0);
  } else {
    for (std::int64_t o = o0; o < o1; ++o)
      dst[o] = quantize1(live[(o - o0) * s], g);
  }
  std::memset(dst + o1, 0, static_cast<std::size_t>(count - o1));
}

/// even[j] = quantize1(row[2j]) and odd[j] = quantize1(row[2j + 1]) for j in
/// [0, half): both column phases of a map row of 2 * half floats in one pass.
void convert_deinterleave(const float* row, std::int64_t half,
                          const QuantGrid& g, std::int8_t* even,
                          std::int8_t* odd) {
  std::int64_t j = 0;
#if defined(UPAQ_S8_AVX512)
  const __m512i ie = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20,
                                       22, 24, 26, 28, 30);
  const __m512i io = _mm512_add_epi32(ie, _mm512_set1_epi32(1));
  for (; j + 16 <= half; j += 16) {
    const __m512 lo = _mm512_loadu_ps(row + 2 * j);
    const __m512 hi = _mm512_loadu_ps(row + 2 * j + 16);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(even + j),
                     quantize16(_mm512_permutex2var_ps(lo, ie, hi), g));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(odd + j),
                     quantize16(_mm512_permutex2var_ps(lo, io, hi), g));
  }
  if (j < half) {
    const std::int64_t r = half - j;
    const __m512 lo = _mm512_maskz_loadu_ps(low_mask16(2 * r), row + 2 * j);
    const __m512 hi =
        _mm512_maskz_loadu_ps(low_mask16(2 * r - 16), row + 2 * j + 16);
    _mm_mask_storeu_epi8(even + j, low_mask16(r),
                         quantize16(_mm512_permutex2var_ps(lo, ie, hi), g));
    _mm_mask_storeu_epi8(odd + j, low_mask16(r),
                         quantize16(_mm512_permutex2var_ps(lo, io, hi), g));
  }
  return;
#endif
  for (; j < half; ++j) {
    even[j] = quantize1(row[2 * j], g);
    odd[j] = quantize1(row[2 * j + 1], g);
  }
}

/// The whole-plane fill, for a stride-1 or stride-2 conv whose output is the
/// map's width over the stride (w = s * ow: same padding, even width at
/// stride 2 — every shipped 3x3 conv). Then plane (py, kx) is phase block
/// (py, px) — rows py, py + s, ... of the padded map at its columns
/// px, px + s, ..., px = (kx - pad) mod s — shifted by (kx - pad - px) / s
/// columns: one contiguous run. Each phase block is quantized straight into
/// its unshifted plane (kx = px + pad), every map element once, and the
/// other planes are shifted copies with the columns the shift wrapped in
/// from the neighbouring row set to 0. Returns false (nothing written) for
/// any other geometry, which fills row by row.
bool fill_tap_planes_shifted(const float* src, const TapLayout& t,
                             const QuantGrid& g, std::int64_t ch,
                             std::int8_t* dst) {
  const std::int64_t s = t.stride;
  if (s > 2 || t.w != s * t.ow || t.k < s) return false;
  // Every column phase is read (k >= s) and has its unshifted plane.
  const auto phase = [&](int kx) { return ((kx - t.pad) % s + s) % s; };
  for (std::int64_t px = 0; px < s; ++px)
    if (px + t.pad >= t.k) return false;
  const std::int64_t plane = t.hq * t.ow;
  std::int8_t* d = dst + ch * t.phases * t.k * plane;
  const auto block = [&](std::int64_t py, std::int64_t px) {
    return d + (py * t.k + px + t.pad) * plane;
  };
  for (std::int64_t py = 0; py < t.phases; ++py)
    for (std::int64_t u = 0; u < t.hq; ++u) {
      const std::int64_t y = u * s + py - t.pad;
      if (y < 0 || y >= t.h) {
        for (std::int64_t px = 0; px < s; ++px)
          std::memset(block(py, px) + u * t.ow, 0,
                      static_cast<std::size_t>(t.ow));
      } else if (s == 2) {
        convert_deinterleave(src + (ch * t.h + y) * t.w, t.ow, g,
                             block(py, 0) + u * t.ow, block(py, 1) + u * t.ow);
      }
    }
  if (s == 1)  // the map rows are one run in the map and in the block
    convert_range(src + ch * t.h * t.w, t.h * t.w, g,
                  block(0, 0) + t.pad * t.ow);
  for (std::int64_t py = 0; py < t.phases; ++py)
    for (int kx = 0; kx < t.k; ++kx) {
      const std::int64_t px = phase(kx), shift = (kx - t.pad - px) / s;
      if (shift == 0) continue;
      std::int8_t* run = d + (py * t.k + kx) * plane;
      const std::int64_t i0 = std::max<std::int64_t>(0, -shift);
      const std::int64_t i1 = std::min(plane, plane - shift);
      if (i1 > i0)
        std::memcpy(run + i0, block(py, px) + i0 + shift,
                    static_cast<std::size_t>(i1 - i0));
      // Output columns o whose block column o + shift leaves [0, ow).
      const std::int64_t b0 =
          shift < 0 ? 0 : std::max<std::int64_t>(0, t.ow - shift);
      const std::int64_t b1 = shift < 0 ? std::min(t.ow, -shift) : t.ow;
      for (std::int64_t u = 0; u < t.hq; ++u)
        for (std::int64_t o = b0; o < b1; ++o) run[u * t.ow + o] = 0;
    }
  return true;
}

/// Fills channel `ch`'s planes of the tap layout, one plane row at a time:
/// plane (py, kx) row u is map row u * s + py - pad at map columns
/// o * s + kx - pad; the outputs o whose column is inside the map form the
/// same range [o0, o1) on every row of a plane.
void fill_tap_planes(const float* src, const TapLayout& t, const QuantGrid& g,
                     std::int64_t ch, std::int8_t* dst) {
  const std::int64_t s = t.stride;
  std::int8_t* d = dst + ch * t.phases * t.k * t.hq * t.ow;
  if (fill_tap_planes_shifted(src, t, g, ch, dst)) return;
  for (std::int64_t py = 0; py < t.phases; ++py)
    for (int kx = 0; kx < t.k; ++kx) {
      const std::int64_t x0 = kx - t.pad;
      const std::int64_t o0 = std::min(t.ow, x0 < 0 ? (-x0 + s - 1) / s : 0);
      const std::int64_t o1 = std::clamp<std::int64_t>(
          t.w > x0 ? (t.w - x0 + s - 1) / s : 0, o0, t.ow);
      for (std::int64_t u = 0; u < t.hq; ++u, d += t.ow) {
        const std::int64_t y = u * s + py - t.pad;
        if (y < 0 || y >= t.h) {
          std::memset(d, 0, static_cast<std::size_t>(t.ow));
        } else {
          fill_tap_row(src + (ch * t.h + y) * t.w + o0 * s + x0, s, o0, o1,
                       t.ow, g, d);
        }
      }
    }
}

}  // namespace

float s8_quantize(const float* src, std::int64_t n, int bits,
                  std::int8_t* dst) {
  const float alpha = abs_max(src, n);
  if (alpha == 0.0f) {
    // Caller scratch (workspace arena) is not pre-zeroed, so fill explicitly.
    std::fill(dst, dst + n, static_cast<std::int8_t>(0));
    return 1.0f;
  }
  const QuantGrid g = quant_grid(alpha, bits);
  if (n < kQuantParallelMin) {
    convert_range(src, n, g, dst);
  } else {
    parallel::parallel_for(0, n, kQuantChunk,
                           [&](std::int64_t i0, std::int64_t i1) {
                             convert_range(src + i0, i1 - i0, g, dst + i0);
                           });
  }
  return g.scale;
}

float s8_quantize_taps(const float* src, const TapLayout& t, int bits,
                       std::int8_t* dst) {
  const std::int64_t n = t.c * t.h * t.w;
  // A 1x1, pad-0, stride-1 layout is the flat map.
  if (t.k == 1 && t.pad == 0 && t.stride == 1)
    return s8_quantize(src, n, bits, dst);
  const float alpha = abs_max(src, n);
  if (alpha == 0.0f) {
    std::memset(dst, 0, static_cast<std::size_t>(t.bytes()));
    return 1.0f;
  }
  const QuantGrid g = quant_grid(alpha, bits);
  // Channels fill disjoint planes; the same element-count gate as
  // s8_quantize decides whether they fan out (filling the planes of a
  // 74k-301k element map on 2 lanes measured no faster than serially).
  auto channels = [&](std::int64_t c0, std::int64_t c1) {
    for (std::int64_t ch = c0; ch < c1; ++ch)
      fill_tap_planes(src, t, g, ch, dst);
  };
  if (n < kQuantParallelMin) {
    channels(0, t.c);
  } else {
    const std::int64_t per = std::max<std::int64_t>(1, t.h * t.w);
    parallel::parallel_for(
        0, t.c, std::max<std::int64_t>(1, kQuantChunk / per), channels);
  }
  return g.scale;
}

namespace {

// Gathers one im2col row (one channel + kernel offset (ky, kx)) into `dst`
// (oh*ow codes): per output row, zero the out-of-bounds flanks and copy the
// in-bounds interior with no per-element bounds checks (memcpy at stride 1,
// a tight strided gather otherwise).
void s8_im2col_row(const std::int8_t* in, std::int64_t ch, std::int64_t h,
                   std::int64_t w, int ky, int kx, int stride, int pad,
                   std::int64_t oh, std::int64_t ow, std::int8_t* dst) {
  for (std::int64_t oy = 0; oy < oh; ++oy) {
    const std::int64_t iy = oy * stride - pad + ky;
    std::int8_t* drow = dst + oy * ow;
    if (iy < 0 || iy >= h) {
      std::memset(drow, 0, static_cast<std::size_t>(ow));
      continue;
    }
    const std::int8_t* src = in + (ch * h + iy) * w;
    // In-bounds ox range for ix = ox * stride + off.
    const std::int64_t off = kx - pad;
    const std::int64_t x0 = std::clamp<std::int64_t>(
        off < 0 ? (-off + stride - 1) / stride : 0, 0, ow);
    const std::int64_t x1 =
        std::clamp<std::int64_t>((w - off + stride - 1) / stride, x0, ow);
    if (x0 > 0) std::memset(drow, 0, static_cast<std::size_t>(x0));
    if (stride == 1) {
      if (x1 > x0)
        std::memcpy(drow + x0, src + x0 + off,
                    static_cast<std::size_t>(x1 - x0));
    } else {
      const std::int8_t* s = src + x0 * stride + off;
      for (std::int64_t ox = x0; ox < x1; ++ox, s += stride) drow[ox] = *s;
    }
    if (x1 < ow) std::memset(drow + x1, 0, static_cast<std::size_t>(ow - x1));
  }
}

}  // namespace

void s8_im2col(const std::int8_t* in, std::int64_t c, std::int64_t h,
               std::int64_t w, int k, int stride, int pad, std::int64_t oh,
               std::int64_t ow, std::int8_t* out) {
  const std::int64_t rows = c * k * k;
  auto fill_rows = [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t row = r0; row < r1; ++row) {
      const std::int64_t ch = row / (k * k);
      const int ky = static_cast<int>((row / k) % k);
      const int kx = static_cast<int>(row % k);
      s8_im2col_row(in, ch, h, w, ky, kx, stride, pad, oh, ow,
                    out + row * oh * ow);
    }
  };
  if (rows * oh * ow < kMinParallelWork) {
    fill_rows(0, rows);
  } else {
    parallel::parallel_for(0, rows, 4, fill_rows);
  }
}

}  // namespace upaq::gemm
