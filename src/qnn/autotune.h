// Empirical per-layer kernel auto-tuning for the packed integer path.
//
// The cost model (hw::) predicts integer speedups the kernels do not always
// deliver — a pattern-pruned 4-bit conv may run fastest on the entry-skip
// segment kernel, a dense head on the int8 panel, and a tiny layer on the
// plain fp32 blocked GEMM. Instead of trusting the model, the tuner times
// every candidate kernel on the layer's real weight and a deterministic
// synthetic activation block of the layer's calibration shape, once at
// lowering, and pins the winner. Decisions are recorded in the obs event log
// ("autotune.pin") and surfaced through prof's measured-vs-modeled drift
// table, closing the loop the report could previously only describe.
//
// Determinism: the candidate list, their build inputs, and the synthetic
// activations are pure functions of the layer; only the timings vary. The
// timer is injectable (TuneOptions::now_ns) so tests pin winners exactly.
// Whatever wins, outputs are unchanged — every integer candidate is bitwise
// identical to every other by the requant-replay contract, and a float win
// simply keeps the layer on its fake-quant fp32 path.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "qnn/qlayers.h"

namespace upaq::qnn {

/// The tuner's kernel vocabulary. kFloat means "do not lower this layer" —
/// the fake-quant fp32 path (blocked GEMM over pre-packed panels) wins.
enum class TunedKernel : int { kFloat = 0, kSegment, kInt8Panel };

const char* tuned_kernel_name(TunedKernel k);

/// The PanelMode that pins an integer TunedKernel (kFloat has none).
PackedGemm::PanelMode tuned_mode(TunedKernel k);

struct CandidateTiming {
  TunedKernel kernel = TunedKernel::kFloat;
  std::uint64_t ns = 0;  ///< best-of-reps steady-state run time
};

struct TuneDecision {
  std::string layer;
  std::int64_t rows = 0, k = 0, n = 0;  ///< GEMM geometry timed
  std::vector<CandidateTiming> candidates;
  TunedKernel winner = TunedKernel::kSegment;
};

/// FNV-1a over float bit patterns — the same fingerprint nn::Conv2d computes
/// per float forward for its stale-pack check; exposed so tuned-lowering
/// callers can charge the float candidate for it.
std::uint64_t fingerprint_floats(const float* p, std::int64_t n);

/// Full-path candidate runner. When provided, tune_gemm does not time its
/// built-in GEMM bodies at all: for each candidate it calls prepare(kernel)
/// once untimed (attach the candidate engine / detach for kFloat), then
/// times run(kernel) — which should forward the REAL layer on a synthetic
/// input of the layer's calibration geometry. This charges every per-forward
/// cost the paths actually pay (weight fingerprint, im2col or int8 gather,
/// activation quantization, output allocation, bias fill), so the
/// float-vs-integer ranking matches the end-to-end layer cost by
/// construction instead of by modeling.
struct CandidateRunner {
  std::function<void(TunedKernel)> prepare;  ///< untimed per-candidate setup
  std::function<void(TunedKernel)> run;      ///< the timed body
};

struct TuneOptions {
  int reps = 3;  ///< timed repetitions per candidate (min is kept)
  /// Bytes of cache thrashed (untimed) before every timed rep. In the full
  /// model a layer's buffers are evicted by the rest of the network between
  /// consecutive forwards; a tight timing loop instead keeps them resident,
  /// which flatters the candidate with the LARGEST working set (the fp32
  /// path's float column matrix — ~3x the packed path's int8 one) and pins
  /// float on layers the packed path beats end to end. Evicting before each
  /// rep makes every candidate race from the cache state it actually sees
  /// in context. 0 = cache-hot timing (scripted-timer tests).
  std::int64_t evict_bytes = 32ll << 20;
  /// Cap on the calibration column count (the conv's oh*ow, which can be
  /// large at full resolution; timing a slice preserves the per-column
  /// kernel ranking).
  std::int64_t max_calib_n = 2048;
  /// A kFloat pin must beat the best integer candidate by this factor
  /// (float_ns < float_margin * best_int_ns), not merely tie it. Keeping a
  /// layer off the packed path costs working-set footprint and energy even
  /// at equal latency, and on a noisy host a near-tie measurement flips
  /// run to run — so the float path only wins decisively. 1.0 = plain
  /// fastest-wins.
  double float_margin = 0.9;
  /// Injectable monotonic clock. Called exactly twice per timed rep
  /// (start/stop), candidates in fixed order — tests script it for
  /// deterministic pinning. Null = std::chrono::steady_clock.
  std::function<std::uint64_t()> now_ns;
};

/// Times every candidate kernel for one lowered GEMM of geometry
/// (rows, k) x (k, n) under `spec` and returns the ranked decision. Fixed
/// candidate order: float, segment, int8 panel (the last only when
/// spec.weight_bits <= 8); ties keep the earlier candidate. Integer
/// candidates are built with forced modes. Emits one obs "autotune.pin"
/// event.
///
/// Each candidate's timed body includes the per-forward work that path pays
/// AROUND the GEMM, not just the GEMM itself — otherwise the ranking
/// contradicts what the end-to-end layer actually runs. Without a runner the
/// built-in bodies approximate that work (the float path's weight
/// fingerprint + a flat column gather; the panel paths' activation
/// quantization + code copy; the segment path's quantization straight into
/// a conv tap layout + the implicit GEMM over it, with no gather);
/// `im2col_expand` is the conv's kernel*kernel (1 for 1x1 and Linear, where
/// no packed path gathers) and sizes the quantized input map at
/// ~k*n/im2col_expand elements. Callers
/// that hold the real layer (core::lower_quantized_tuned) pass a
/// CandidateRunner instead, which replaces the bodies with real forwards.
TuneDecision tune_gemm(const nn::Parameter& w, std::int64_t rows,
                       std::int64_t k, std::int64_t n, const LowerSpec& spec,
                       const std::string& layer_name, const TuneOptions& opt,
                       std::int64_t im2col_expand = 1,
                       const CandidateRunner* runner = nullptr);

}  // namespace upaq::qnn
