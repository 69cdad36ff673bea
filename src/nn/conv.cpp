#include "nn/conv.h"

#include <algorithm>
#include <cstring>

#include "parallel/thread_pool.h"
#include "tensor/ops.h"
#include "tensor/workspace.h"

namespace upaq::nn {

namespace {

/// FNV-1a over the float bit patterns: the weight-pack staleness check.
/// Parameter::version covers every in-repo mutation path (they all funnel
/// through project()/load_state_dict), but numeric gradchecks and tests poke
/// values directly — the fingerprint catches those too, so a stale pack can
/// never silently change results.
std::uint64_t hash_floats(const float* p, std::int64_t n) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::int64_t i = 0; i < n; ++i) {
    std::uint32_t bits;
    std::memcpy(&bits, p + i, sizeof(bits));
    h = (h ^ bits) * 1099511628211ull;
  }
  return h;
}

/// 2-D transpose.
Tensor transpose2d(const Tensor& a) {
  const std::int64_t m = a.dim(0), n = a.dim(1);
  Tensor t({n, m});
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) t.at(j, i) = a.at(i, j);
  return t;
}

}  // namespace

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels, int kernel,
               int stride, int pad, bool bias, Rng& rng, std::string name)
    : in_c_(in_channels),
      out_c_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      has_bias_(bias) {
  UPAQ_CHECK(in_channels > 0 && out_channels > 0, "channels must be positive");
  UPAQ_CHECK(kernel > 0 && stride > 0 && pad >= 0, "bad conv geometry");
  set_name(std::move(name));
  weight_ = Parameter(name_ + ".weight",
                      Tensor::kaiming({out_c_, in_c_, kernel_, kernel_}, rng));
  if (has_bias_) bias_ = Parameter(name_ + ".bias", Tensor({out_c_}));
}

std::vector<Parameter*> Conv2d::parameters() {
  std::vector<Parameter*> ps{&weight_};
  if (has_bias_) ps.push_back(&bias_);
  return ps;
}

void Conv2d::refresh_weight_pack() {
  const std::uint64_t h = hash_floats(weight_.value.data(),
                                      weight_.value.numel());
  if (packed_w2d_version_ == weight_.version && packed_w2d_hash_ == h) return;
  w2d_cache_ = weight_.value.reshape({out_c_, in_c_ * kernel_ * kernel_});
  packed_w2d_ = gemm::pack_a(w2d_cache_.data(), out_c_,
                             in_c_ * kernel_ * kernel_);
  packed_w2d_version_ = weight_.version;
  packed_w2d_hash_ = h;
}

Tensor Conv2d::do_forward(const Tensor& x) { return run_forward(x, nullptr); }

Tensor Conv2d::do_forward_fused(const Tensor& x, const Epilogue& epi) {
  return run_forward(x, &epi);
}

Tensor Conv2d::run_forward(const Tensor& x, const Epilogue* fused) {
  UPAQ_CHECK(x.rank() == 4, "Conv2d expects (N,C,H,W), got " +
                                shape_to_string(x.shape()));
  UPAQ_CHECK(x.dim(1) == in_c_,
             name_ + ": input channels " + std::to_string(x.dim(1)) +
                 " != expected " + std::to_string(in_c_));
  const std::int64_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::int64_t oh = ops::conv_out_size(h, kernel_, stride_, pad_);
  const std::int64_t ow = ops::conv_out_size(w, kernel_, stride_, pad_);
  last_in_h_ = h;
  last_in_w_ = w;
  last_out_h_ = oh;
  last_out_w_ = ow;
  if (training_) input_cache_ = x;
  std::vector<float> inv_std;
  const gemm::Epilogue epi =
      fused != nullptr
          ? kernel_epilogue(*fused, out_c_, {n, out_c_, oh, ow}, inv_std)
          : gemm::Epilogue{};
  // Packed integer path (upaq::qnn): inference-only, so training always
  // stays on the differentiable float route below.
  if (engine_ != nullptr && !training_) {
    Tensor y = engine_->forward(
        x, &epi, fused != nullptr ? fused->share : nullptr);
    if (fused != nullptr) return place_output(std::move(y), *fused);
    return y;
  }

  refresh_weight_pack();
  const std::int64_t kcols = in_c_ * kernel_ * kernel_;
  Tensor out({n, out_c_, oh, ow});
  // Batch items write disjoint output slices, so the batch loop parallelises
  // deterministically. With a single-item batch the chunk runs inline and the
  // stripe-parallel GEMM inside provides the parallelism instead. The column
  // matrix lives in the per-thread workspace arena and the GEMM accumulates
  // straight into the (zero-initialised or bias-prefilled) output slice, so
  // the steady-state loop body performs no heap allocation.
  parallel::parallel_for(0, n, 1, [&](std::int64_t b0, std::int64_t b1) {
    for (std::int64_t b = b0; b < b1; ++b) {
      workspace::Scope ws;
      float* cols = ws.floats(kcols * oh * ow);
      ops::im2col_into(x.data() + b * in_c_ * h * w, in_c_, h, w, kernel_,
                       kernel_, stride_, pad_, cols);
      float* dst = out.data() + b * out_c_ * oh * ow;
      if (has_bias_) {
        for (std::int64_t oc = 0; oc < out_c_; ++oc)
          std::fill(dst + oc * oh * ow, dst + (oc + 1) * oh * ow,
                    bias_.value[oc]);
      }
      gemm::Epilogue item_epi = epi;
      if (epi.skip != nullptr) item_epi.skip += b * out_c_ * oh * ow;
      gemm::gemm_packed(packed_w2d_, cols, dst, oh * ow, 1.0f, &item_epi);
    }
  });
  if (fused != nullptr) return place_output(std::move(out), *fused);
  return out;
}

Tensor Conv2d::do_backward(const Tensor& grad_out) {
  UPAQ_CHECK(!input_cache_.empty(),
             name_ + ": backward without forward (or eval mode)");
  const Tensor& x = input_cache_;
  const std::int64_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::int64_t oh = last_out_h_, ow = last_out_w_;
  UPAQ_CHECK(grad_out.rank() == 4 && grad_out.dim(0) == n &&
                 grad_out.dim(1) == out_c_ && grad_out.dim(2) == oh &&
                 grad_out.dim(3) == ow,
             name_ + ": grad_out shape mismatch");

  refresh_weight_pack();
  const Tensor w2d_t = transpose2d(w2d_cache_);
  const std::int64_t kcols = in_c_ * kernel_ * kernel_;
  Tensor grad_x({n, in_c_, h, w});

  // Weight/bias gradients are batch reductions: each batch item produces its
  // partial into a private buffer (disjoint writes, parallel-safe) and the
  // partials are combined afterwards in batch order on one thread, so the
  // result is bitwise identical for every thread count.
  std::vector<Tensor> gw_partial(static_cast<std::size_t>(n));
  std::vector<Tensor> gb_partial(has_bias_ ? static_cast<std::size_t>(n) : 0);

  parallel::parallel_for(0, n, 1, [&](std::int64_t b0, std::int64_t b1) {
    for (std::int64_t b = b0; b < b1; ++b) {
      const Tensor cols = ops::im2col(x, b, kernel_, kernel_, stride_, pad_);
      Tensor g({out_c_, oh * ow});
      const float* src = grad_out.data() + b * out_c_ * oh * ow;
      std::copy(src, src + out_c_ * oh * ow, g.data());

      // dW partial = g * cols^T (row-major on both sides via the NT gemm).
      Tensor gw({out_c_, kcols});
      ops::gemm_nt_accumulate(g, cols, gw);
      gw_partial[static_cast<std::size_t>(b)] = std::move(gw);

      // dX_cols = W^T * g, then scatter back via col2im.
      Tensor gcols({kcols, oh * ow});
      ops::gemm_accumulate(w2d_t, g, gcols);
      const Tensor gx =
          ops::col2im(gcols, in_c_, h, w, kernel_, kernel_, stride_, pad_);
      std::copy(gx.data(), gx.data() + in_c_ * h * w,
                grad_x.data() + b * in_c_ * h * w);

      if (has_bias_) {
        Tensor gb({out_c_});
        for (std::int64_t oc = 0; oc < out_c_; ++oc) {
          double acc = 0.0;
          for (std::int64_t i = 0; i < oh * ow; ++i)
            acc += src[oc * oh * ow + i];
          gb[oc] = static_cast<float>(acc);
        }
        gb_partial[static_cast<std::size_t>(b)] = std::move(gb);
      }
    }
  });

  Tensor grad_w2d({out_c_, kcols});
  for (std::int64_t b = 0; b < n; ++b) {
    grad_w2d.add_(gw_partial[static_cast<std::size_t>(b)]);
    if (has_bias_) {
      const Tensor& gb = gb_partial[static_cast<std::size_t>(b)];
      for (std::int64_t oc = 0; oc < out_c_; ++oc) bias_.grad[oc] += gb[oc];
    }
  }
  weight_.grad.add_(grad_w2d.reshape(weight_.value.shape()));
  // Masked weights stay masked: zero the gradient where the mask is zero so
  // fine-tuning cannot regrow pruned connections.
  if (!weight_.mask.empty()) weight_.grad.mul_(weight_.mask);
  return grad_x;
}

Tensor concat_channels(const std::vector<Tensor>& parts) {
  UPAQ_CHECK(!parts.empty(), "concat_channels: no inputs");
  const std::int64_t n = parts[0].dim(0), h = parts[0].dim(2), w = parts[0].dim(3);
  std::int64_t total_c = 0;
  for (const auto& p : parts) {
    UPAQ_CHECK(p.rank() == 4 && p.dim(0) == n && p.dim(2) == h && p.dim(3) == w,
               "concat_channels: mismatched shapes");
    total_c += p.dim(1);
  }
  Tensor out({n, total_c, h, w});
  for (std::int64_t b = 0; b < n; ++b) {
    std::int64_t c_off = 0;
    for (const auto& p : parts) {
      const std::int64_t pc = p.dim(1);
      const float* src = p.data() + b * pc * h * w;
      float* dst = out.data() + (b * total_c + c_off) * h * w;
      std::copy(src, src + pc * h * w, dst);
      c_off += pc;
    }
  }
  return out;
}

std::vector<Tensor> split_channels(const Tensor& x,
                                   const std::vector<std::int64_t>& channels) {
  UPAQ_CHECK(x.rank() == 4, "split_channels expects NCHW");
  std::int64_t total = 0;
  for (auto c : channels) total += c;
  UPAQ_CHECK(total == x.dim(1), "split_channels: channel counts do not sum");
  const std::int64_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  std::vector<Tensor> parts;
  std::int64_t c_off = 0;
  for (auto pc : channels) {
    Tensor p({n, pc, h, w});
    for (std::int64_t b = 0; b < n; ++b) {
      const float* src = x.data() + (b * x.dim(1) + c_off) * h * w;
      std::copy(src, src + pc * h * w, p.data() + b * pc * h * w);
    }
    parts.push_back(std::move(p));
    c_off += pc;
  }
  return parts;
}

}  // namespace upaq::nn
