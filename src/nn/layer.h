// Layer and Parameter: the building blocks of the UPAQ NN framework.
//
// Layers own their parameters and implement explicit forward/backward
// passes (reverse-mode differentiation with cached activations). Parameters
// carry an optional pruning mask and a bookkeeping bitwidth so the
// compression stack can account model size without a separate registry.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace upaq::gemm {
struct Epilogue;
}  // namespace upaq::gemm

namespace upaq::nn {

class BatchNorm2d;
class Relu;

/// An input tensor in the form a packed engine computes from it (integer
/// codes in the engine's activation layout plus one scale per batch item),
/// shared by sibling layers that read the same input — PointPillars'
/// head.cls / head.reg, SMOKE's hm.conv / reg.conv. The first engine to run
/// fills it; a later one whose layout key matches reuses the codes and
/// scales instead of quantizing the input again. The codes are a pure
/// function of the input, so sharing never changes an output. The caller
/// makes a fresh one for each pass and keeps the input alive and unchanged
/// while it lives, so a later input that reuses the address is never
/// mistaken for this one.
struct SharedInput {
  const float* src = nullptr;      ///< input the codes came from; null = empty
  std::vector<std::int64_t> key;   ///< the engine's layout key
  std::vector<std::int8_t> codes;  ///< per batch item, back to back
  std::vector<float> scales;       ///< per batch item
};

/// Eval-mode layers fused into a Conv2d/Linear output store — the
/// Conv -> BN -> (+residual) -> ReLU and Linear -> ReLU chains run as one
/// call with no standalone pass over the output. Every part is optional.
/// The fused result is bitwise what the same layers' forward() calls
/// produce one at a time (see gemm::Epilogue for the per-element order).
struct Epilogue {
  const BatchNorm2d* bn = nullptr;  ///< eval-mode BN (conv outputs only)
  const Tensor* residual = nullptr; ///< added after BN; output-shaped
  const Relu* act = nullptr;        ///< ReLU / LeakyReLU, applied last
  /// Output placement: when set, the result is written nearest-neighbour
  /// upsampled by `into_factor` into channels [into_channel, +out_c) of this
  /// (N, C, H * f, W * f) buffer (e.g. a concat), and forward() returns an
  /// empty tensor.
  Tensor* into = nullptr;
  int into_factor = 1;
  std::int64_t into_channel = 0;
  /// Input side: a quantized-input memo shared with sibling layers (packed
  /// conv engines use it; every other path ignores it).
  SharedInput* share = nullptr;
};

/// A trainable tensor with gradient storage, an optional pruning mask, and
/// quantization bookkeeping used by the compression-ratio accounting.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;
  /// Pruning mask: empty means dense; otherwise same shape as `value` with
  /// entries in {0,1}. `project()` keeps `value` consistent with the mask.
  Tensor mask;
  /// Storage bitwidth this parameter is *accounted* at (32 = uncompressed
  /// fp32). Quantization applies fake-quant to `value` and records the
  /// bitwidth here for size accounting.
  int quant_bits = 32;
  bool requires_grad = true;
  /// Mutation counter for derived-state caches (the conv pre-packed weight
  /// panels key on it). Every code path that rewrites `value` must call
  /// mark_mutated(); in this repo they all already funnel through project()
  /// or Module::load_state_dict, which do.
  std::uint64_t version = 0;

  Parameter() = default;
  Parameter(std::string n, Tensor v)
      : name(std::move(n)), value(std::move(v)), grad(value.shape()) {}

  void zero_grad() { grad.zero(); }

  /// Invalidates caches derived from `value` (pre-packed GEMM panels).
  void mark_mutated() { ++version; }

  /// Re-applies the pruning mask to the value (no-op when dense). Called
  /// after every optimizer step during mask-frozen fine-tuning — which makes
  /// it the natural cache-invalidation point for every weight mutation in
  /// the repo (optimizer steps, requantize, pruning application).
  void project() {
    mark_mutated();
    if (!mask.empty()) value.mul_(mask);
  }

  /// Fraction of zero entries in the mask (0 when dense).
  double sparsity() const {
    if (mask.empty() || mask.numel() == 0) return 0.0;
    return 1.0 - static_cast<double>(mask.count_nonzero()) /
                     static_cast<double>(mask.numel());
  }
};

/// Alternative execution backend a layer can host — e.g. the packed
/// integer-GEMM path in upaq::qnn. Engines are inference-only: layers that
/// support one (Conv2d, Linear) delegate eval-mode forward to it and keep
/// the float path for training, so gradients never flow through an engine.
class ForwardEngine {
 public:
  virtual ~ForwardEngine() = default;
  /// `epi`, when non-null and active, is applied by the engine's kernel in
  /// its final output store (see gemm::Epilogue).
  /// `share`, when non-null, is the caller's SharedInput for `x`.
  virtual Tensor forward(const Tensor& x, const gemm::Epilogue* epi,
                         SharedInput* share) = 0;
  Tensor forward(const Tensor& x, const gemm::Epilogue* epi) {
    return forward(x, epi, nullptr);
  }
  Tensor forward(const Tensor& x) { return forward(x, nullptr, nullptr); }
  virtual const char* engine_name() const = 0;
};

/// Kinds of layers the cost model and the compression driver dispatch on.
enum class LayerKind {
  kConv2d,
  kLinear,
  kBatchNorm,
  kRelu,
  kLeakyRelu,
  kMaxPool,
  kUpsample,
  kOther,
};

const char* layer_kind_name(LayerKind k);

/// Abstract differentiable layer. forward() caches whatever backward() needs;
/// backward() accumulates parameter gradients and returns the gradient with
/// respect to the input.
///
/// forward()/backward() are non-virtual profiled entry points: they emit a
/// prof span named after the layer (backward spans get a ".bwd" suffix) and
/// dispatch to the do_forward()/do_backward() overrides. Every call site —
/// Sequential chains and the detectors' hand-wired graphs alike — therefore
/// gets per-layer tracing without opting in; with tracing off the wrapper is
/// a single branch.
class Layer {
 public:
  virtual ~Layer() = default;

  Tensor forward(const Tensor& x);
  Tensor backward(const Tensor& grad_out);
  virtual LayerKind kind() const = 0;

  /// Eval-mode forward with `epi` fused into this layer's output store; only
  /// layers with fuses_epilogue() (Conv2d, Linear) implement it. Traced as
  /// one span under this layer's name, so the fused layers' time shows as
  /// this layer's.
  Tensor forward(const Tensor& x, const Epilogue& epi);
  virtual bool fuses_epilogue() const { return false; }

  /// Trainable parameters (may be empty for stateless layers).
  virtual std::vector<Parameter*> parameters() { return {}; }
  std::vector<const Parameter*> parameters() const {
    std::vector<const Parameter*> out;
    for (auto* p : const_cast<Layer*>(this)->parameters()) out.push_back(p);
    return out;
  }

  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  bool training() const { return training_; }
  virtual void set_training(bool t) { training_ = t; }

  /// Attaches (or with nullptr detaches) an inference engine. Only layer
  /// kinds that consult engine() in forward honour it; attaching to other
  /// layers is harmless and ignored.
  void set_engine(std::unique_ptr<ForwardEngine> engine) {
    engine_ = std::move(engine);
  }
  ForwardEngine* engine() const { return engine_.get(); }

  /// Detaches and returns the engine without destroying it, so callers can
  /// park a packed engine, run the float path, and re-attach — an A/B flip
  /// that costs two pointer moves instead of a re-pack.
  std::unique_ptr<ForwardEngine> release_engine() {
    return std::move(engine_);
  }

 protected:
  virtual Tensor do_forward(const Tensor& x) = 0;
  virtual Tensor do_backward(const Tensor& grad_out) = 0;
  virtual Tensor do_forward_fused(const Tensor& x, const Epilogue& epi);

  std::string name_;
  bool training_ = true;
  std::unique_ptr<ForwardEngine> engine_;
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace upaq::nn
