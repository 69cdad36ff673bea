// 2-D convolution with explicit backward pass and pruning-mask support.
#pragma once

#include "nn/layers.h"
#include "tensor/gemm_kernel.h"
#include "tensor/rng.h"

namespace upaq::nn {

/// NCHW convolution. Weight layout (out_c, in_c, kh, kw); square kernels.
/// The forward path goes through im2col + GEMM; the GEMM skips zero weight
/// entries, so pattern-pruned kernels get a genuine CPU speedup (exercised
/// by the sparse-conv ablation benchmark).
class Conv2d final : public Layer {
 public:
  Conv2d(std::int64_t in_channels, std::int64_t out_channels, int kernel,
         int stride, int pad, bool bias, Rng& rng, std::string name);

  LayerKind kind() const override { return LayerKind::kConv2d; }
  std::vector<Parameter*> parameters() override;
  bool fuses_epilogue() const override { return true; }

  Parameter& weight() { return weight_; }
  const Parameter& weight() const { return weight_; }
  Parameter* bias() { return has_bias_ ? &bias_ : nullptr; }
  const Parameter* bias() const { return has_bias_ ? &bias_ : nullptr; }

  std::int64_t in_channels() const { return in_c_; }
  std::int64_t out_channels() const { return out_c_; }
  int kernel() const { return kernel_; }
  int stride() const { return stride_; }
  int pad() const { return pad_; }

  /// Input and output spatial sizes recorded at the most recent forward
  /// pass; the cost model and the auto-tuner read these after a
  /// shape-probing forward.
  std::int64_t last_in_h() const { return last_in_h_; }
  std::int64_t last_in_w() const { return last_in_w_; }
  std::int64_t last_out_h() const { return last_out_h_; }
  std::int64_t last_out_w() const { return last_out_w_; }

 protected:
  Tensor do_forward(const Tensor& x) override;
  Tensor do_backward(const Tensor& grad_out) override;
  /// Channel = output channel; every kernel (fp32 blocked/row-skip and the
  /// packed engines) applies the epilogue in its final store.
  Tensor do_forward_fused(const Tensor& x, const Epilogue& epi) override;

 private:
  Tensor run_forward(const Tensor& x, const Epilogue* epi);

  /// Rebuilds the cached 2-D weight view and pre-packed GEMM panels when
  /// weight_.version has moved (optimizer step, requantize, load_state_dict).
  void refresh_weight_pack();

  std::int64_t in_c_, out_c_;
  int kernel_, stride_, pad_;
  bool has_bias_;
  Parameter weight_;
  Parameter bias_;

  // Weight-derived caches keyed on weight_.version: the (out_c, in_c*kh*kw)
  // reshape and the panel-packed (or sparse-classified) form the blocked GEMM
  // consumes. ~0 sentinel = never built.
  Tensor w2d_cache_;
  gemm::PackedA packed_w2d_;
  std::uint64_t packed_w2d_version_ = ~std::uint64_t{0};
  std::uint64_t packed_w2d_hash_ = 0;  ///< value fingerprint (out-of-band writes)

  // Cached activations for backward.
  Tensor input_cache_;
  std::int64_t last_in_h_ = 0, last_in_w_ = 0;
  std::int64_t last_out_h_ = 0, last_out_w_ = 0;
};

/// Channel-wise concat of NCHW tensors (all must share N, H, W).
Tensor concat_channels(const std::vector<Tensor>& parts);

/// Inverse of concat_channels for gradients: splits grad along the channel
/// axis into chunks of the given channel counts.
std::vector<Tensor> split_channels(const Tensor& x,
                                   const std::vector<std::int64_t>& channels);

}  // namespace upaq::nn
