// Stateless and normalization layers: BatchNorm2d, ReLU/LeakyReLU,
// MaxPool2d, nearest-neighbour Upsample, and Linear.
#pragma once

#include "nn/layer.h"
#include "tensor/gemm_kernel.h"
#include "tensor/rng.h"

namespace upaq::nn {

/// Per-channel batch normalization over (N,H,W) with running statistics.
class BatchNorm2d final : public Layer {
 public:
  BatchNorm2d(std::int64_t channels, Rng& rng, std::string name,
              float momentum = 0.1f, float eps = 1e-5f);

  LayerKind kind() const override { return LayerKind::kBatchNorm; }
  std::vector<Parameter*> parameters() override { return {&gamma_, &beta_}; }

  Parameter& gamma() { return gamma_; }
  Parameter& beta() { return beta_; }
  const Parameter& gamma() const { return gamma_; }
  const Parameter& beta() const { return beta_; }
  Tensor& running_mean() { return running_mean_; }
  Tensor& running_var() { return running_var_; }
  const Tensor& running_mean() const { return running_mean_; }
  std::int64_t channels() const { return channels_; }

  /// Eval-mode 1 / sqrt(running_var + eps) per channel into `out` — the one
  /// definition both the standalone eval forward and the fused epilogue use.
  void eval_inv_std(float* out) const;

 protected:
  Tensor do_forward(const Tensor& x) override;
  Tensor do_backward(const Tensor& grad_out) override;

 private:
  std::int64_t channels_;
  float momentum_, eps_;
  Parameter gamma_, beta_;
  Tensor running_mean_, running_var_;

  // Caches for backward.
  Tensor input_cache_, xhat_cache_;
  std::vector<float> batch_mean_, batch_inv_std_;
};

/// ReLU (slope == 0) or LeakyReLU (slope > 0).
class Relu final : public Layer {
 public:
  explicit Relu(std::string name, float negative_slope = 0.0f)
      : slope_(negative_slope) {
    set_name(std::move(name));
  }
  LayerKind kind() const override {
    return slope_ == 0.0f ? LayerKind::kRelu : LayerKind::kLeakyRelu;
  }
  float negative_slope() const { return slope_; }

 protected:
  Tensor do_forward(const Tensor& x) override;
  Tensor do_backward(const Tensor& grad_out) override;

 private:
  float slope_;
  Tensor input_cache_;
};

/// 2x2 (or kxk) max pooling with stride == kernel.
class MaxPool2d final : public Layer {
 public:
  explicit MaxPool2d(int kernel, std::string name) : kernel_(kernel) {
    set_name(std::move(name));
  }
  LayerKind kind() const override { return LayerKind::kMaxPool; }
  int kernel() const { return kernel_; }

 protected:
  Tensor do_forward(const Tensor& x) override;
  Tensor do_backward(const Tensor& grad_out) override;

 private:
  int kernel_;
  Shape input_shape_;
  std::vector<std::int64_t> argmax_;
};

/// Nearest-neighbour upsampling of NCHW `x` by `factor` into channels
/// [c0, c0 + C) of the NCHW buffer `dst` (N, C_dst, H * factor, W * factor):
/// each output row is built once and copied factor - 1 more times. Pure
/// copies, so the values are bitwise x's.
void upsample_into(const Tensor& x, int factor, Tensor& dst, std::int64_t c0);

/// Nearest-neighbour upsampling by an integer factor.
class Upsample final : public Layer {
 public:
  explicit Upsample(int factor, std::string name) : factor_(factor) {
    set_name(std::move(name));
  }
  LayerKind kind() const override { return LayerKind::kUpsample; }
  int factor() const { return factor_; }

 protected:
  Tensor do_forward(const Tensor& x) override;
  Tensor do_backward(const Tensor& grad_out) override;

 private:
  int factor_;
  Shape input_shape_;
};

/// Fully-connected layer over (N, in_features) -> (N, out_features).
/// Weight layout (out, in) so it can be treated as a bank of 1x1 kernels by
/// the compression stack.
class Linear final : public Layer {
 public:
  Linear(std::int64_t in_features, std::int64_t out_features, bool bias,
         Rng& rng, std::string name);
  LayerKind kind() const override { return LayerKind::kLinear; }
  std::vector<Parameter*> parameters() override;
  bool fuses_epilogue() const override { return true; }

  Parameter& weight() { return weight_; }
  const Parameter& weight() const { return weight_; }
  Parameter* bias() { return has_bias_ ? &bias_ : nullptr; }
  const Parameter* bias() const { return has_bias_ ? &bias_ : nullptr; }
  std::int64_t in_features() const { return in_f_; }
  std::int64_t out_features() const { return out_f_; }

 protected:
  Tensor do_forward(const Tensor& x) override;
  Tensor do_backward(const Tensor& grad_out) override;
  /// Channel = output column; BN is not supported on (N, F) outputs.
  Tensor do_forward_fused(const Tensor& x, const Epilogue& epi) override;

 private:
  Tensor run_forward(const Tensor& x, const Epilogue* epi);

  std::int64_t in_f_, out_f_;
  bool has_bias_;
  Parameter weight_, bias_;
  Tensor input_cache_;
};

/// Kernel form of `epi` for a layer producing `out_shape` whose channel
/// count is `channels`: validates the parts (eval mode, BN channel count,
/// residual shape) and fills `inv_std` with the BN terms the kernel reads.
/// Ignores the `into` placement, which the layer performs itself.
gemm::Epilogue kernel_epilogue(const Epilogue& epi, std::int64_t channels,
                               const Shape& out_shape,
                               std::vector<float>& inv_std);

/// Performs `epi`'s output placement for a finished layer output `y`:
/// upsample-copies it into `*epi.into` and returns an empty tensor, or
/// returns `y` unchanged when no placement is set.
Tensor place_output(Tensor y, const Epilogue& epi);

}  // namespace upaq::nn
