#include "qnn/qlayers.h"

#include <algorithm>
#include <vector>

#include "parallel/thread_pool.h"
#include "prof/prof.h"
#include "qnn/qcache.h"
#include "tensor/gemm_kernel.h"
#include "tensor/ops.h"
#include "tensor/workspace.h"

namespace upaq::qnn {

namespace {

// im2col over already-quantized activation codes: the conv input map is
// quantized once (C*H*W elements) and the column matrix gathers int8 codes,
// instead of gathering floats and quantizing the K*K-times-larger column
// matrix. Padding becomes code 0 — exactly what quantizing a padded float
// zero yields — and every input value appears in the column matrix, so the
// per-tensor scale (and therefore every code) is identical either way.
// Writes into caller-provided scratch (the workspace arena) so the
// steady-state packed-conv loop never touches the heap.
void im2col_codes_into(const std::int8_t* in, std::int64_t c, std::int64_t h,
                       std::int64_t w, int k, int stride, int pad,
                       std::int8_t* out) {
  const std::int64_t oh = ops::conv_out_size(h, k, stride, pad);
  const std::int64_t ow = ops::conv_out_size(w, k, stride, pad);
  prof::add(prof::Counter::kIm2colBytes,
            static_cast<std::uint64_t>(c * k * k * oh * ow));
  // The gather itself (pure byte moves, interior rows collapse to memcpy)
  // lives in the kernel TU for its codegen.
  gemm::s8_im2col(in, c, h, w, k, stride, pad, oh, ow, out);
}

}  // namespace

PackedConv2d::PackedConv2d(const nn::Conv2d& conv, const LowerSpec& spec)
    : in_c_(conv.in_channels()),
      out_c_(conv.out_channels()),
      kernel_(conv.kernel()),
      stride_(conv.stride()),
      pad_(conv.pad()),
      weight_(&conv.weight()),
      spec_(spec),
      gemm_(PanelCache::instance().get_or_build(
          conv.weight(), conv.out_channels(),
          conv.in_channels() * conv.kernel() * conv.kernel(),
          spec.weight_bits, spec.group_size, spec.format, spec.mode)),
      packed_version_(conv.weight().version),
      act_bits_(spec.act_bits) {
  if (const nn::Parameter* b = conv.bias()) bias_ = b->value;
}

void PackedConv2d::refresh() {
  gemm_ = PanelCache::instance().get_or_build(
      *weight_, out_c_, in_c_ * kernel_ * kernel_, spec_.weight_bits,
      spec_.group_size, spec_.format, spec_.mode);
  packed_version_ = weight_->version;
}

Tensor PackedConv2d::forward(const Tensor& x, const gemm::Epilogue* epi) {
  prof::Span span(engine_name());
  // Staleness check runs serially, before the batch fan-out: a weight
  // mutated after lowering repacks exactly once through the cache.
  if (weight_->version != packed_version_) refresh();
  UPAQ_CHECK(x.rank() == 4 && x.dim(1) == in_c_,
             "PackedConv2d expects (N," + std::to_string(in_c_) + ",H,W)");
  const std::int64_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::int64_t oh = ops::conv_out_size(h, kernel_, stride_, pad_);
  const std::int64_t ow = ops::conv_out_size(w, kernel_, stride_, pad_);
  Tensor out({n, out_c_, oh, ow});
  const float* bias = bias_.empty() ? nullptr : bias_.data();
  // Batch items write disjoint output slices (same decomposition as the
  // float Conv2d); the integer GEMM inside is exact, so the whole path is
  // bitwise deterministic at any thread count. The input map is quantized
  // BEFORE im2col — K*K times less quantization work, and the gather moves
  // int8 instead of float — which yields the same scale and codes as
  // quantizing the column matrix (same value multiset). The GEMM writes
  // straight into the output slice with bias fused into its initial fill and
  // the epilogue (if any) into its final store.
  parallel::parallel_for(0, n, 1, [&](std::int64_t b0, std::int64_t b1) {
    for (std::int64_t b = b0; b < b1; ++b) {
      workspace::Scope ws;
      const float* xs = x.data() + b * in_c_ * h * w;
      float* ys = out.data() + b * out_c_ * oh * ow;
      gemm::Epilogue item_epi;
      if (epi != nullptr) {
        item_epi = *epi;
        if (epi->skip != nullptr) item_epi.skip += b * out_c_ * oh * ow;
      }
      const gemm::Epilogue* ep = epi != nullptr ? &item_epi : nullptr;
      std::int8_t* qcodes = ws.i8(in_c_ * h * w);
      float sx;
      {
        prof::Span qspan("qnn.quant_acts");
        sx = quantize_acts_into(xs, in_c_ * h * w, act_bits_, qcodes);
      }
      if (kernel_ == 1 && stride_ == 1 && pad_ == 0) {
        // 1x1 conv: the column matrix IS the quantized map; no gather.
        prof::Span gspan("qnn.qgemm");
        gemm_->run(qcodes, sx, oh * ow, bias, ys, ep);
      } else {
        std::int8_t* cols =
            ws.i8(in_c_ * kernel_ * kernel_ * oh * ow);
        {
          prof::Span ispan("qnn.im2col");
          im2col_codes_into(qcodes, in_c_, h, w, kernel_, stride_, pad_, cols);
        }
        prof::Span gspan("qnn.qgemm");
        gemm_->run(cols, sx, oh * ow, bias, ys, ep);
      }
    }
  });
  return out;
}

PackedLinear::PackedLinear(const nn::Linear& linear, const LowerSpec& spec)
    : in_f_(linear.in_features()),
      out_f_(linear.out_features()),
      weight_(&linear.weight()),
      spec_(spec),
      gemm_(PanelCache::instance().get_or_build(
          linear.weight(), linear.out_features(), linear.in_features(),
          spec.weight_bits, spec.group_size, spec.format, spec.mode)),
      packed_version_(linear.weight().version),
      act_bits_(spec.act_bits) {
  if (const nn::Parameter* b = linear.bias()) bias_ = b->value;
}

void PackedLinear::refresh() {
  gemm_ = PanelCache::instance().get_or_build(*weight_, out_f_, in_f_,
                                              spec_.weight_bits,
                                              spec_.group_size, spec_.format,
                                              spec_.mode);
  packed_version_ = weight_->version;
}

Tensor PackedLinear::forward(const Tensor& x, const gemm::Epilogue* epi) {
  prof::Span span(engine_name());
  if (weight_->version != packed_version_) refresh();
  UPAQ_CHECK(x.rank() == 2 && x.dim(1) == in_f_,
             "PackedLinear expects (N," + std::to_string(in_f_) + ")");
  Tensor out({x.dim(0), out_f_});
  workspace::Scope ws;
  std::int8_t* qcodes = ws.i8(x.numel());
  const float sx = quantize_acts_into(x.data(), x.numel(), act_bits_, qcodes);
  gemm_->run_t(qcodes, sx, x.dim(0), bias_.empty() ? nullptr : bias_.data(),
               out.data(), epi);
  return out;
}

bool lower_layer(nn::Layer& layer, const LowerSpec& spec) {
  if (auto* conv = dynamic_cast<nn::Conv2d*>(&layer)) {
    conv->set_engine(std::make_unique<PackedConv2d>(*conv, spec));
    return true;
  }
  if (auto* linear = dynamic_cast<nn::Linear*>(&layer)) {
    linear->set_engine(std::make_unique<PackedLinear>(*linear, spec));
    return true;
  }
  return false;
}

}  // namespace upaq::qnn
