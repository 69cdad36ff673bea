#include "nn/layer.h"

#include "prof/prof.h"

namespace upaq::nn {

Tensor Layer::forward(const Tensor& x) {
  if (!prof::enabled()) return do_forward(x);
  prof::Span span(name_.empty() ? std::string(layer_kind_name(kind())) : name_,
                  shape_to_string(x.shape()));
  return do_forward(x);
}

Tensor Layer::forward(const Tensor& x, const Epilogue& epi) {
  UPAQ_CHECK(!training_, name_ + ": fused forward is inference-only");
  if (!prof::enabled()) return do_forward_fused(x, epi);
  prof::Span span(name_.empty() ? std::string(layer_kind_name(kind())) : name_,
                  shape_to_string(x.shape()));
  return do_forward_fused(x, epi);
}

Tensor Layer::do_forward_fused(const Tensor& x, const Epilogue& epi) {
  (void)x;
  (void)epi;
  UPAQ_CHECK(false, name_ + ": " + layer_kind_name(kind()) +
                        " has no fused epilogue");
  return {};
}

Tensor Layer::backward(const Tensor& grad_out) {
  if (!prof::enabled()) return do_backward(grad_out);
  prof::Span span((name_.empty() ? std::string(layer_kind_name(kind())) : name_) +
                      ".bwd",
                  shape_to_string(grad_out.shape()));
  return do_backward(grad_out);
}

}  // namespace upaq::nn
