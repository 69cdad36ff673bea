#include "qnn/qlayers.h"

#include <algorithm>
#include <vector>

#include "parallel/thread_pool.h"
#include "prof/prof.h"
#include "tensor/gemm_kernel.h"
#include "tensor/ops.h"
#include "tensor/workspace.h"

namespace upaq::qnn {

PackedGemm build_gemm(const nn::Parameter& w, std::int64_t rows,
                      std::int64_t k, const LowerSpec& spec) {
  prof::add(prof::Counter::kPanelBuilds, 1);
  return PackedGemm(
      pack(w.value, spec.weight_bits, spec.group_size, spec.format, w.mask),
      rows, k, spec.mode);
}

PackedConv2d::PackedConv2d(const nn::Conv2d& conv, const LowerSpec& spec)
    : in_c_(conv.in_channels()),
      out_c_(conv.out_channels()),
      kernel_(conv.kernel()),
      stride_(conv.stride()),
      pad_(conv.pad()),
      weight_(&conv.weight()),
      spec_(spec),
      gemm_(build_gemm(conv.weight(), out_c_, in_c_ * kernel_ * kernel_,
                       spec)),
      packed_version_(conv.weight().version),
      act_bits_(spec.act_bits) {
  if (const nn::Parameter* b = conv.bias()) bias_ = b->value;
}

void PackedConv2d::refresh() {
  gemm_ = build_gemm(*weight_, out_c_, in_c_ * kernel_ * kernel_, spec_);
  packed_version_ = weight_->version;
}

Tensor PackedConv2d::forward(const Tensor& x, const gemm::Epilogue* epi,
                             nn::SharedInput* share) {
  prof::Span span(engine_name());
  // Staleness check runs serially, before the batch fan-out: a weight
  // mutated after lowering repacks exactly once.
  if (weight_->version != packed_version_) refresh();
  UPAQ_CHECK(x.rank() == 4 && x.dim(1) == in_c_,
             "PackedConv2d expects (N," + std::to_string(in_c_) + ",H,W)");
  const std::int64_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::int64_t oh = ops::conv_out_size(h, kernel_, stride_, pad_);
  const std::int64_t ow = ops::conv_out_size(w, kernel_, stride_, pad_);
  Tensor out({n, out_c_, oh, ow});
  if (oh <= 0 || ow <= 0) return out;
  const float* bias = bias_.empty() ? nullptr : bias_.data();
  // The input map is quantized once per item, straight into the layout the
  // kernel reads. The segment kernel reads every tap in place from the tap
  // layout (gemm::TapLayout: the zero-bordered map's stride phases, one
  // plane per tap column) — an implicit GEMM with no column matrix. The
  // panel kernels take an explicit (k, n) column matrix as their B-slab
  // input, gathered from the flat quantized map (a 1x1 conv's flat map is
  // that matrix already). Either way the scale and every code are what
  // quantizing the column matrix would give (same value multiset; padding is
  // code 0), and the integer GEMM is exact, so every layout gives the same
  // bits.
  const bool implicit =
      gemm_.kernel_kind() == PackedGemm::KernelKind::kSegment;
  const bool gather =
      !implicit && !(kernel_ == 1 && stride_ == 1 && pad_ == 0);
  // The layout the codes live in: the flat map is the 1x1 layout.
  const gemm::TapLayout t =
      implicit ? gemm::tap_layout(in_c_, h, w, kernel_, stride_, pad_)
               : gemm::tap_layout(in_c_, h, w, 1, 1, 0);
  const std::int64_t item_bytes = t.bytes();
  std::vector<std::int64_t> key;  // built only when there is a share
  bool reuse = false;
  if (share != nullptr) {
    key = {t.c, t.h, t.w, t.k, t.stride, t.pad, act_bits_, n};
    reuse = share->src == x.data() && share->key == key;
    if (!reuse) {
      share->src = nullptr;
      share->codes.resize(static_cast<std::size_t>(n * item_bytes));
      share->scales.resize(static_cast<std::size_t>(n));
    }
  }
  // One offset table per call, shared by every item.
  workspace::Scope table_ws;
  std::int64_t* off = nullptr;
  if (implicit) {
    off = table_ws.i64(t.taps());
    gemm::s8_tap_offsets(t, off);
  }
  // Batch items write disjoint output slices (same decomposition as the
  // float Conv2d); the GEMM writes straight into the output slice with bias
  // fused into its initial fill and the epilogue (if any) into its final
  // store.
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
      std::int8_t* qcodes = share != nullptr
                                ? share->codes.data() + b * item_bytes
                                : ws.i8(item_bytes);
      float sx;
      if (reuse) {
        sx = share->scales[static_cast<std::size_t>(b)];
      } else {
        prof::Span qspan("qnn.quant_acts");
        sx = implicit ? quantize_taps_into(xs, t, act_bits_, qcodes)
                      : quantize_acts_into(xs, in_c_ * h * w, act_bits_,
                                           qcodes);
        if (share != nullptr) share->scales[static_cast<std::size_t>(b)] = sx;
      }
      if (implicit) {
        prof::Span gspan("qnn.qgemm");
        gemm_.run_taps(gemm::s8_layout_taps(t, qcodes, off), sx, bias, ys,
                       ep);
      } else if (!gather) {
        prof::Span gspan("qnn.qgemm");
        gemm_.run(qcodes, sx, oh * ow, bias, ys, ep);
      } else {
        std::int8_t* cols = ws.i8(in_c_ * kernel_ * kernel_ * oh * ow);
        {
          prof::Span ispan("qnn.im2col");
          prof::add(prof::Counter::kIm2colBytes,
                    static_cast<std::uint64_t>(in_c_ * kernel_ * kernel_ *
                                               oh * ow));
          gemm::s8_im2col(qcodes, in_c_, h, w, kernel_, stride_, pad_, oh, ow,
                          cols);
        }
        prof::Span gspan("qnn.qgemm");
        gemm_.run(cols, sx, oh * ow, bias, ys, ep);
      }
    }
  });
  if (share != nullptr && !reuse) {
    share->src = x.data();
    share->key = key;
  }
  return out;
}

PackedLinear::PackedLinear(const nn::Linear& linear, const LowerSpec& spec)
    : in_f_(linear.in_features()),
      out_f_(linear.out_features()),
      weight_(&linear.weight()),
      spec_(spec),
      gemm_(build_gemm(linear.weight(), out_f_, in_f_, spec)),
      packed_version_(linear.weight().version),
      act_bits_(spec.act_bits) {
  if (const nn::Parameter* b = linear.bias()) bias_ = b->value;
}

void PackedLinear::refresh() {
  gemm_ = build_gemm(*weight_, out_f_, in_f_, spec_);
  packed_version_ = weight_->version;
}

Tensor PackedLinear::forward(const Tensor& x, const gemm::Epilogue* epi,
                             nn::SharedInput* /*share*/) {
  prof::Span span(engine_name());
  if (weight_->version != packed_version_) refresh();
  UPAQ_CHECK(x.rank() == 2 && x.dim(1) == in_f_,
             "PackedLinear expects (N," + std::to_string(in_f_) + ")");
  Tensor out({x.dim(0), out_f_});
  workspace::Scope ws;
  std::int8_t* qcodes = ws.i8(x.numel());
  const float sx = quantize_acts_into(x.data(), x.numel(), act_bits_, qcodes);
  gemm_.run_t(qcodes, sx, x.dim(0), bias_.empty() ? nullptr : bias_.data(),
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
