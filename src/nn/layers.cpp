#include "nn/layers.h"

#include <cmath>
#include <limits>

#include "parallel/thread_pool.h"
#include "tensor/ops.h"

namespace upaq::nn {

namespace {
// Minimum scalar ops before a layer loop is worth dispatching to the pool;
// below this the single-chunk inline path runs (identical results).
constexpr std::int64_t kLayerParallelGrain = 1 << 15;
}  // namespace

const char* layer_kind_name(LayerKind k) {
  switch (k) {
    case LayerKind::kConv2d: return "Conv2d";
    case LayerKind::kLinear: return "Linear";
    case LayerKind::kBatchNorm: return "BatchNorm2d";
    case LayerKind::kRelu: return "ReLU";
    case LayerKind::kLeakyRelu: return "LeakyReLU";
    case LayerKind::kMaxPool: return "MaxPool2d";
    case LayerKind::kUpsample: return "Upsample";
    case LayerKind::kOther: return "Other";
  }
  return "Unknown";
}

// ---------------------------------------------------------------- BatchNorm

BatchNorm2d::BatchNorm2d(std::int64_t channels, Rng& rng, std::string name,
                         float momentum, float eps)
    : channels_(channels),
      momentum_(momentum),
      eps_(eps),
      running_mean_({channels}),
      running_var_(Shape{channels}, 1.0f) {
  (void)rng;  // gamma/beta have deterministic init; rng kept for API symmetry
  UPAQ_CHECK(channels > 0, "BatchNorm2d needs positive channel count");
  set_name(std::move(name));
  gamma_ = Parameter(name_ + ".gamma", Tensor::ones({channels_}));
  beta_ = Parameter(name_ + ".beta", Tensor({channels_}));
}

Tensor BatchNorm2d::do_forward(const Tensor& x) {
  UPAQ_CHECK(x.rank() == 4 && x.dim(1) == channels_,
             name_ + ": BatchNorm2d shape mismatch for input " +
                 shape_to_string(x.shape()));
  const std::int64_t n = x.dim(0), c = channels_, h = x.dim(2), w = x.dim(3);
  const std::int64_t per_channel = n * h * w;
  Tensor out(x.shape());

  if (training_) {
    input_cache_ = x;
    batch_mean_.assign(static_cast<std::size_t>(c), 0.0f);
    batch_inv_std_.assign(static_cast<std::size_t>(c), 0.0f);
    xhat_cache_ = Tensor(x.shape());
    // Channels are fully independent (stats, running-stat updates, and the
    // normalized writes all live at index ch), so the channel loop is a
    // deterministic disjoint-write parallel loop.
    auto train_channels = [&](std::int64_t c0, std::int64_t c1) {
      for (std::int64_t ch = c0; ch < c1; ++ch) {
        double sum = 0.0, sq = 0.0;
        for (std::int64_t b = 0; b < n; ++b) {
          const float* src = x.data() + (b * c + ch) * h * w;
          for (std::int64_t i = 0; i < h * w; ++i) {
            sum += src[i];
            sq += static_cast<double>(src[i]) * src[i];
          }
        }
        const double mean = sum / per_channel;
        const double var = std::max(sq / per_channel - mean * mean, 0.0);
        const float inv_std = 1.0f / std::sqrt(static_cast<float>(var) + eps_);
        batch_mean_[static_cast<std::size_t>(ch)] = static_cast<float>(mean);
        batch_inv_std_[static_cast<std::size_t>(ch)] = inv_std;
        running_mean_[ch] = (1.0f - momentum_) * running_mean_[ch] +
                            momentum_ * static_cast<float>(mean);
        running_var_[ch] = (1.0f - momentum_) * running_var_[ch] +
                           momentum_ * static_cast<float>(var);
        const float g = gamma_.value[ch], bta = beta_.value[ch];
        for (std::int64_t b = 0; b < n; ++b) {
          const float* src = x.data() + (b * c + ch) * h * w;
          float* xh = xhat_cache_.data() + (b * c + ch) * h * w;
          float* dst = out.data() + (b * c + ch) * h * w;
          for (std::int64_t i = 0; i < h * w; ++i) {
            xh[i] = (src[i] - static_cast<float>(mean)) * inv_std;
            dst[i] = g * xh[i] + bta;
          }
        }
      }
    };
    if (c * per_channel < kLayerParallelGrain) {
      train_channels(0, c);
    } else {
      parallel::parallel_for(0, c, 1, train_channels);
    }
  } else {
    std::vector<float> inv_stds(static_cast<std::size_t>(c));
    eval_inv_std(inv_stds.data());
    auto eval_channels = [&](std::int64_t c0, std::int64_t c1) {
      for (std::int64_t ch = c0; ch < c1; ++ch) {
        const float inv_std = inv_stds[static_cast<std::size_t>(ch)];
        const float g = gamma_.value[ch], bta = beta_.value[ch];
        const float mean = running_mean_[ch];
        for (std::int64_t b = 0; b < n; ++b) {
          const float* src = x.data() + (b * c + ch) * h * w;
          float* dst = out.data() + (b * c + ch) * h * w;
          for (std::int64_t i = 0; i < h * w; ++i)
            dst[i] = g * (src[i] - mean) * inv_std + bta;
        }
      }
    };
    if (c * per_channel < kLayerParallelGrain) {
      eval_channels(0, c);
    } else {
      parallel::parallel_for(0, c, 1, eval_channels);
    }
  }
  return out;
}

void BatchNorm2d::eval_inv_std(float* out) const {
  for (std::int64_t ch = 0; ch < channels_; ++ch)
    out[ch] = 1.0f / std::sqrt(running_var_[ch] + eps_);
}

Tensor BatchNorm2d::do_backward(const Tensor& grad_out) {
  UPAQ_CHECK(!input_cache_.empty(), name_ + ": backward without forward");
  const std::int64_t n = input_cache_.dim(0), c = channels_,
                     h = input_cache_.dim(2), w = input_cache_.dim(3);
  const std::int64_t m = n * h * w;
  Tensor grad_x(input_cache_.shape());
  // Per-channel reductions and writes (gamma/beta grads, dx planes) are all
  // indexed by ch, so the channel loop parallelises with disjoint writes.
  auto backward_channels = [&](std::int64_t c0, std::int64_t c1) {
    for (std::int64_t ch = c0; ch < c1; ++ch) {
      const float inv_std = batch_inv_std_[static_cast<std::size_t>(ch)];
      const float g = gamma_.value[ch];
      // Accumulate the per-channel reductions sum(dy) and sum(dy * xhat).
      double sum_dy = 0.0, sum_dy_xhat = 0.0;
      for (std::int64_t b = 0; b < n; ++b) {
        const float* dy = grad_out.data() + (b * c + ch) * h * w;
        const float* xh = xhat_cache_.data() + (b * c + ch) * h * w;
        for (std::int64_t i = 0; i < h * w; ++i) {
          sum_dy += dy[i];
          sum_dy_xhat += static_cast<double>(dy[i]) * xh[i];
        }
      }
      gamma_.grad[ch] += static_cast<float>(sum_dy_xhat);
      beta_.grad[ch] += static_cast<float>(sum_dy);
      const float k1 = static_cast<float>(sum_dy / m);
      const float k2 = static_cast<float>(sum_dy_xhat / m);
      for (std::int64_t b = 0; b < n; ++b) {
        const float* dy = grad_out.data() + (b * c + ch) * h * w;
        const float* xh = xhat_cache_.data() + (b * c + ch) * h * w;
        float* dx = grad_x.data() + (b * c + ch) * h * w;
        for (std::int64_t i = 0; i < h * w; ++i)
          dx[i] = g * inv_std * (dy[i] - k1 - xh[i] * k2);
      }
    }
  };
  if (c * m < kLayerParallelGrain) {
    backward_channels(0, c);
  } else {
    parallel::parallel_for(0, c, 1, backward_channels);
  }
  return grad_x;
}

// --------------------------------------------------------------------- ReLU

Tensor Relu::do_forward(const Tensor& x) {
  if (training_) input_cache_ = x;
  Tensor out(x.shape());
  const float* src = x.data();
  float* dst = out.data();
  const float slope = slope_;
  // Branch-free select that keeps the bits of v * slope (-0.0 for a
  // negative v under plain ReLU, NaN for -inf); NaN inputs pass through.
  parallel::parallel_for(0, out.numel(), kLayerParallelGrain,
                         [&](std::int64_t i0, std::int64_t i1) {
                           for (std::int64_t i = i0; i < i1; ++i) {
                             const float v = src[i], a = v * slope;
                             dst[i] = v < 0.0f ? a : v;
                           }
                         });
  return out;
}

Tensor Relu::do_backward(const Tensor& grad_out) {
  UPAQ_CHECK(!input_cache_.empty(), name_ + ": backward without forward");
  Tensor grad = grad_out;
  const float* x = input_cache_.data();
  float* g = grad.data();
  parallel::parallel_for(0, grad.numel(), kLayerParallelGrain,
                         [&](std::int64_t i0, std::int64_t i1) {
                           for (std::int64_t i = i0; i < i1; ++i)
                             if (x[i] < 0.0f) g[i] *= slope_;
                         });
  return grad;
}

// ------------------------------------------------------------------ MaxPool

Tensor MaxPool2d::do_forward(const Tensor& x) {
  UPAQ_CHECK(x.rank() == 4, "MaxPool2d expects NCHW");
  const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int k = kernel_;
  UPAQ_CHECK(h % k == 0 && w % k == 0,
             name_ + ": input spatial dims must be divisible by the kernel");
  const std::int64_t oh = h / k, ow = w / k;
  Tensor out({n, c, oh, ow});
  input_shape_ = x.shape();
  argmax_.assign(static_cast<std::size_t>(out.numel()), 0);
  const float* src = x.data();
  float* dst = out.data();
  std::int64_t oi = 0;
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float* plane = src + (b * c + ch) * h * w;
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox, ++oi) {
          float best = -std::numeric_limits<float>::infinity();
          std::int64_t best_idx = 0;
          for (int dy = 0; dy < k; ++dy) {
            for (int dx = 0; dx < k; ++dx) {
              const std::int64_t idx = (oy * k + dy) * w + (ox * k + dx);
              if (plane[idx] > best) {
                best = plane[idx];
                best_idx = (b * c + ch) * h * w + idx;
              }
            }
          }
          dst[oi] = best;
          argmax_[static_cast<std::size_t>(oi)] = best_idx;
        }
      }
    }
  }
  return out;
}

Tensor MaxPool2d::do_backward(const Tensor& grad_out) {
  UPAQ_CHECK(!input_shape_.empty(), name_ + ": backward without forward");
  Tensor grad_x(input_shape_);
  const float* g = grad_out.data();
  float* dst = grad_x.data();
  for (std::int64_t i = 0; i < grad_out.numel(); ++i)
    dst[argmax_[static_cast<std::size_t>(i)]] += g[i];
  return grad_x;
}

// ----------------------------------------------------------------- Upsample

void upsample_into(const Tensor& x, int factor, Tensor& dst,
                   std::int64_t c0) {
  UPAQ_CHECK(x.rank() == 4, "Upsample expects NCHW");
  UPAQ_CHECK(factor >= 1, "Upsample factor must be >= 1");
  const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::int64_t oh = h * factor, ow = w * factor;
  UPAQ_CHECK(dst.rank() == 4 && dst.dim(0) == n && dst.dim(2) == oh &&
                 dst.dim(3) == ow && c0 >= 0 && c0 + c <= dst.dim(1),
             "upsample_into: destination " + shape_to_string(dst.shape()) +
                 " cannot hold " + shape_to_string(x.shape()) + " x" +
                 std::to_string(factor) + " at channel " +
                 std::to_string(c0));
  const std::int64_t dst_c = dst.dim(1);
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float* plane = x.data() + (b * c + ch) * h * w;
      float* oplane = dst.data() + (b * dst_c + c0 + ch) * oh * ow;
      for (std::int64_t y = 0; y < h; ++y) {
        const float* row = plane + y * w;
        float* orow = oplane + y * factor * ow;
        for (std::int64_t x0 = 0; x0 < w; ++x0)
          std::fill(orow + x0 * factor, orow + (x0 + 1) * factor, row[x0]);
        for (int r = 1; r < factor; ++r)
          std::copy(orow, orow + ow, orow + r * ow);
      }
    }
  }
}

Tensor Upsample::do_forward(const Tensor& x) {
  UPAQ_CHECK(x.rank() == 4, "Upsample expects NCHW");
  UPAQ_CHECK(factor_ >= 1, "Upsample factor must be >= 1");
  input_shape_ = x.shape();
  Tensor out({x.dim(0), x.dim(1), x.dim(2) * factor_, x.dim(3) * factor_});
  upsample_into(x, factor_, out, 0);
  return out;
}

Tensor Upsample::do_backward(const Tensor& grad_out) {
  UPAQ_CHECK(!input_shape_.empty(), name_ + ": backward without forward");
  const std::int64_t n = input_shape_[0], c = input_shape_[1],
                     h = input_shape_[2], w = input_shape_[3];
  const std::int64_t oh = h * factor_, ow = w * factor_;
  Tensor grad_x(input_shape_);
  const float* g = grad_out.data();
  float* dst = grad_x.data();
  for (std::int64_t bc = 0; bc < n * c; ++bc) {
    const float* gplane = g + bc * oh * ow;
    float* plane = dst + bc * h * w;
    for (std::int64_t oy = 0; oy < oh; ++oy)
      for (std::int64_t ox = 0; ox < ow; ++ox)
        plane[(oy / factor_) * w + ox / factor_] += gplane[oy * ow + ox];
  }
  return grad_x;
}

// ------------------------------------------------------------------- Linear

Linear::Linear(std::int64_t in_features, std::int64_t out_features, bool bias,
               Rng& rng, std::string name)
    : in_f_(in_features), out_f_(out_features), has_bias_(bias) {
  UPAQ_CHECK(in_features > 0 && out_features > 0, "Linear feature counts");
  set_name(std::move(name));
  weight_ = Parameter(name_ + ".weight", Tensor::kaiming({out_f_, in_f_}, rng));
  if (has_bias_) bias_ = Parameter(name_ + ".bias", Tensor({out_f_}));
}

std::vector<Parameter*> Linear::parameters() {
  std::vector<Parameter*> ps{&weight_};
  if (has_bias_) ps.push_back(&bias_);
  return ps;
}

Tensor Linear::do_forward(const Tensor& x) { return run_forward(x, nullptr); }

Tensor Linear::do_forward_fused(const Tensor& x, const Epilogue& epi) {
  return run_forward(x, &epi);
}

Tensor Linear::run_forward(const Tensor& x, const Epilogue* fused) {
  UPAQ_CHECK(x.rank() == 2 && x.dim(1) == in_f_,
             name_ + ": Linear expects (N," + std::to_string(in_f_) + ")");
  if (training_) input_cache_ = x;
  const std::int64_t n = x.dim(0);
  std::vector<float> inv_std;
  const gemm::Epilogue epi =
      fused != nullptr
          ? kernel_epilogue(*fused, out_f_, {n, out_f_}, inv_std)
          : gemm::Epilogue{};
  // Packed integer path (upaq::qnn): inference-only, same contract as Conv2d.
  if (engine_ != nullptr && !training_) {
    Tensor y = engine_->forward(
        x, &epi, fused != nullptr ? fused->share : nullptr);
    if (fused != nullptr) return place_output(std::move(y), *fused);
    return y;
  }
  Tensor out({n, out_f_});
  // y = x * W^T (+ b); rows of the output are independent, so the batch loop
  // parallelises deterministically (the PFN feeds thousands of point rows).
  const float* px = x.data();
  const float* pw = weight_.value.data();
  float* py = out.data();
  auto rows = [&](std::int64_t b0, std::int64_t b1) {
    for (std::int64_t b = b0; b < b1; ++b) {
      for (std::int64_t o = 0; o < out_f_; ++o) {
        double acc = has_bias_ ? bias_.value[o] : 0.0;
        const float* wrow = pw + o * in_f_;
        const float* xrow = px + b * in_f_;
        for (std::int64_t i = 0; i < in_f_; ++i)
          acc += static_cast<double>(wrow[i]) * xrow[i];
        py[b * out_f_ + o] = static_cast<float>(acc);
      }
      if (epi.active())
        gemm::epilogue_row(epi, py + b * out_f_,
                           epi.skip != nullptr ? epi.skip + b * out_f_
                                               : nullptr,
                           out_f_);
    }
  };
  if (n * out_f_ * in_f_ < kLayerParallelGrain) {
    rows(0, n);
  } else {
    parallel::parallel_for(0, n, 32, rows);
  }
  if (fused != nullptr) return place_output(std::move(out), *fused);
  return out;
}

Tensor Linear::do_backward(const Tensor& grad_out) {
  UPAQ_CHECK(!input_cache_.empty(), name_ + ": backward without forward");
  const std::int64_t n = input_cache_.dim(0);
  UPAQ_CHECK(grad_out.rank() == 2 && grad_out.dim(0) == n &&
                 grad_out.dim(1) == out_f_,
             name_ + ": grad_out shape mismatch");
  Tensor grad_x({n, in_f_});
  const float* px = input_cache_.data();
  const float* pg = grad_out.data();
  const float* pw = weight_.value.data();
  float* pgw = weight_.grad.data();
  float* pgx = grad_x.data();
  // dX rows are disjoint per batch row -> parallel. dW/db are reductions
  // over the batch; they keep the fixed serial accumulation order so results
  // match across thread counts.
  auto gx_rows = [&](std::int64_t b0, std::int64_t b1) {
    for (std::int64_t b = b0; b < b1; ++b) {
      const float* grow = pg + b * out_f_;
      float* gxrow = pgx + b * in_f_;
      for (std::int64_t o = 0; o < out_f_; ++o) {
        const float g = grow[o];
        if (g == 0.0f) continue;
        const float* wrow = pw + o * in_f_;
        for (std::int64_t i = 0; i < in_f_; ++i) gxrow[i] += g * wrow[i];
      }
    }
  };
  if (n * out_f_ * in_f_ < kLayerParallelGrain) {
    gx_rows(0, n);
  } else {
    parallel::parallel_for(0, n, 32, gx_rows);
  }
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t o = 0; o < out_f_; ++o) {
      const float g = pg[b * out_f_ + o];
      if (has_bias_) bias_.grad[o] += g;
      if (g == 0.0f) continue;
      const float* xrow = px + b * in_f_;
      float* gwrow = pgw + o * in_f_;
      for (std::int64_t i = 0; i < in_f_; ++i) gwrow[i] += g * xrow[i];
    }
  }
  if (!weight_.mask.empty()) weight_.grad.mul_(weight_.mask);
  return grad_x;
}

// ------------------------------------------------------- fused epilogue

gemm::Epilogue kernel_epilogue(const Epilogue& epi, std::int64_t channels,
                               const Shape& out_shape,
                               std::vector<float>& inv_std) {
  gemm::Epilogue k;
  if (epi.bn != nullptr) {
    const BatchNorm2d& bn = *epi.bn;
    UPAQ_CHECK(!bn.training(), bn.name() + ": fused BN must be in eval mode");
    UPAQ_CHECK(out_shape.size() == 4 && bn.channels() == channels,
               bn.name() + ": BN cannot fuse onto output " +
                   shape_to_string(out_shape));
    inv_std.resize(static_cast<std::size_t>(channels));
    bn.eval_inv_std(inv_std.data());
    k.gamma = bn.gamma().value.data();
    k.mean = bn.running_mean().data();
    k.inv_std = inv_std.data();
    k.beta = bn.beta().value.data();
  }
  if (epi.residual != nullptr) {
    UPAQ_CHECK(shape_equal(epi.residual->shape(), out_shape),
               "fused residual " + shape_to_string(epi.residual->shape()) +
                   " does not match output " + shape_to_string(out_shape));
    k.skip = epi.residual->data();
  }
  if (epi.act != nullptr) {
    UPAQ_CHECK(!epi.act->training(),
               epi.act->name() + ": fused activation must be in eval mode");
    k.relu = true;
    k.slope = epi.act->negative_slope();
  }
  return k;
}

Tensor place_output(Tensor y, const Epilogue& epi) {
  if (epi.into == nullptr) return y;
  upsample_into(y, epi.into_factor, *epi.into, epi.into_channel);
  return {};
}

}  // namespace upaq::nn
