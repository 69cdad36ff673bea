// Shared test helpers: finite-difference gradient checking for layers and
// losses, plus small tensor factories.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "eval/box.h"
#include "nn/module.h"
#include "parallel/thread_pool.h"
#include "qnn/qlayers.h"
#include "tensor/tensor.h"

namespace upaq::testing {

/// Checks a layer's input gradient and parameter gradients against central
/// finite differences of the scalar probe loss L = sum(out * probe), where
/// `probe` is a fixed random tensor. Requires the layer to be in training
/// mode. `tol` is the max allowed |analytic - numeric| (absolute+relative).
inline void gradcheck_layer(nn::Layer& layer, const Tensor& input, Rng& rng,
                            double tol = 2e-2) {
  layer.set_training(true);
  Tensor out = layer.forward(input);
  Tensor probe = Tensor::uniform(out.shape(), rng, -1.0f, 1.0f);

  // Analytic gradients.
  for (auto* p : layer.parameters()) p->zero_grad();
  Tensor grad_in = layer.backward(probe);

  auto loss_at = [&](const Tensor& x) {
    Tensor o = layer.forward(x);
    double acc = 0.0;
    for (std::int64_t i = 0; i < o.numel(); ++i)
      acc += static_cast<double>(o[i]) * probe[i];
    return acc;
  };

  const float eps = 1e-2f;
  auto close = [&](double analytic, double numeric) {
    const double err = std::fabs(analytic - numeric);
    const double scale = std::max({1.0, std::fabs(analytic), std::fabs(numeric)});
    return err / scale < tol;
  };

  // Input gradient (sampled positions to keep tests fast).
  Tensor x = input;
  const std::int64_t stride_in = std::max<std::int64_t>(1, x.numel() / 24);
  for (std::int64_t i = 0; i < x.numel(); i += stride_in) {
    const float orig = x[i];
    x[i] = orig + eps;
    const double lp = loss_at(x);
    x[i] = orig - eps;
    const double lm = loss_at(x);
    x[i] = orig;
    const double numeric = (lp - lm) / (2.0 * eps);
    EXPECT_TRUE(close(grad_in[i], numeric))
        << "input grad mismatch at " << i << ": analytic " << grad_in[i]
        << " numeric " << numeric;
  }

  // Parameter gradients (sampled).
  for (auto* p : layer.parameters()) {
    const std::int64_t stride_p = std::max<std::int64_t>(1, p->value.numel() / 16);
    for (std::int64_t i = 0; i < p->value.numel(); i += stride_p) {
      const float orig = p->value[i];
      p->value[i] = orig + eps;
      const double lp = loss_at(input);
      p->value[i] = orig - eps;
      const double lm = loss_at(input);
      p->value[i] = orig;
      const double numeric = (lp - lm) / (2.0 * eps);
      EXPECT_TRUE(close(p->grad[i], numeric))
          << p->name << " grad mismatch at " << i << ": analytic "
          << p->grad[i] << " numeric " << numeric;
    }
  }
}

/// Finite-difference check for a scalar loss function f(x) -> (loss, grad).
inline void gradcheck_scalar(
    const std::function<float(float, float&)>& loss_fn, float x,
    double tol = 1e-3) {
  float analytic = 0.0f;
  loss_fn(x, analytic);
  const float eps = 1e-3f;
  float unused = 0.0f;
  const float lp = loss_fn(x + eps, unused);
  const float lm = loss_fn(x - eps, unused);
  const double numeric = (static_cast<double>(lp) - lm) / (2.0 * eps);
  EXPECT_NEAR(analytic, numeric,
              tol * std::max(1.0, std::fabs(numeric)))
      << "at x=" << x;
}

// ------------------------------------------------ fused-epilogue checking

/// Bitwise equality, NaN payloads and signed zeros included.
inline void expect_bits_equal(const Tensor& a, const Tensor& b,
                              const std::string& what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  for (std::int64_t i = 0; i < a.numel(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint32_t>(a[i]),
              std::bit_cast<std::uint32_t>(b[i]))
        << what << " diverges at flat index " << i << ": " << a[i] << " vs "
        << b[i];
}

/// Bitwise equality of two detection lists, field by field.
inline void expect_same_boxes(const std::vector<eval::Box3D>& a,
                              const std::vector<eval::Box3D>& b,
                              const std::string& what = "") {
  ASSERT_EQ(a.size(), b.size()) << what;
  const auto bits = [](float v) { return std::bit_cast<std::uint32_t>(v); };
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(what + " box " + std::to_string(i));
    EXPECT_EQ(bits(a[i].x), bits(b[i].x));
    EXPECT_EQ(bits(a[i].y), bits(b[i].y));
    EXPECT_EQ(bits(a[i].z), bits(b[i].z));
    EXPECT_EQ(bits(a[i].length), bits(b[i].length));
    EXPECT_EQ(bits(a[i].width), bits(b[i].width));
    EXPECT_EQ(bits(a[i].height), bits(b[i].height));
    EXPECT_EQ(bits(a[i].yaw), bits(b[i].yaw));
    EXPECT_EQ(bits(a[i].score), bits(b[i].score));
    EXPECT_EQ(a[i].label, b[i].label);
  }
}

/// The epilogue inputs that pin the select and sign rules: signed zeros,
/// denormals of both signs, both infinities and a quiet NaN.
inline float edge_value(std::int64_t i) {
  const float vals[] = {-0.0f,
                        0.0f,
                        1e-40f,
                        -1e-40f,
                        std::numeric_limits<float>::infinity(),
                        -std::numeric_limits<float>::infinity(),
                        std::numeric_limits<float>::quiet_NaN()};
  return vals[i % 7];
}

/// Random tensor with every 5th element replaced by an edge value (so the
/// edge values land in vector bodies and scalar tails alike).
inline Tensor edge_tensor(const Shape& shape, Rng& rng) {
  Tensor t = Tensor::uniform(shape, rng, -2.0f, 2.0f);
  for (std::int64_t i = 0; i < t.numel(); i += 5) t[i] = edge_value(i / 5);
  return t;
}

/// Random tensor with every 5th element a signed zero or a denormal — the
/// finite edge values, safe to feed through a GEMM.
inline Tensor finite_edge_tensor(const Shape& shape, Rng& rng) {
  Tensor t = Tensor::uniform(shape, rng, -1.0f, 1.0f);
  for (std::int64_t i = 0; i < t.numel(); i += 5) t[i] = edge_value(i / 5 % 4);
  return t;
}

/// Bias with edge values on channels the edge BN leaves random: -0.0 on
/// channel 0, -inf on 6 and NaN on 7 (needs at least 8 channels).
inline void set_edge_bias(nn::Parameter& bias, Rng& rng) {
  bias.value = Tensor::uniform(bias.value.shape(), rng, -0.5f, 0.5f);
  bias.value[0] = -0.0f;
  bias.value[6] = -std::numeric_limits<float>::infinity();
  bias.value[7] = std::numeric_limits<float>::quiet_NaN();
  bias.mark_mutated();
}

/// Eval-mode BN whose first channels drive the epilogue through its edge
/// cases — gamma 0 with beta -0.0, a +inf and a NaN running mean, a tiny
/// gamma with a denormal beta and a large variance (denormal results), a
/// -inf beta, a zero variance — and whose other channels are random.
/// Needs at least 6 channels.
inline void set_edge_bn(nn::BatchNorm2d& bn, Rng& rng) {
  const std::int64_t c = bn.channels();
  bn.gamma().value = Tensor::uniform({c}, rng, 0.5f, 1.5f);
  bn.beta().value = Tensor::uniform({c}, rng, -0.5f, 0.5f);
  bn.running_mean() = Tensor::uniform({c}, rng, -0.5f, 0.5f);
  bn.running_var() = Tensor::uniform({c}, rng, 0.5f, 2.0f);
  bn.gamma().value[0] = 0.0f;
  bn.beta().value[0] = -0.0f;
  bn.running_mean()[1] = std::numeric_limits<float>::infinity();
  bn.running_mean()[2] = std::numeric_limits<float>::quiet_NaN();
  bn.gamma().value[3] = 1e-38f;
  bn.beta().value[3] = 1e-40f;
  bn.running_var()[3] = 1e6f;
  bn.beta().value[4] = -std::numeric_limits<float>::infinity();
  bn.running_var()[5] = 0.0f;
  bn.set_training(false);
}

/// Lowers every Conv2d and Linear of `m` onto the packed integer path, the
/// convs cycling through the segment kernel and the int8 panel so one
/// detector exercises both. Returns the lowered layer count.
inline int lower_all_cycling_kernels(nn::Module& m) {
  using Mode = qnn::PackedGemm::PanelMode;
  const Mode kernels[] = {Mode::kForceSegment, Mode::kForceInt8};
  int lowered = 0, convs = 0;
  for (const auto& l : m.layers()) {
    if (l->kind() != nn::LayerKind::kConv2d &&
        l->kind() != nn::LayerKind::kLinear)
      continue;
    qnn::LowerSpec spec;
    if (l->kind() == nn::LayerKind::kConv2d)
      spec.mode = kernels[convs++ % 2];
    lowered += qnn::lower_layer(*l, spec) ? 1 : 0;
  }
  return lowered;
}

/// One fused-vs-layer-by-layer case: which epilogue parts are present.
struct FuseCase {
  bool bn = false;
  bool residual = false;
  int act = 0;  ///< 0 none, 1 ReLU, 2 LeakyReLU(0.1)

  std::string label() const {
    return std::string("bn=") + (bn ? "1" : "0") +
           " residual=" + (residual ? "1" : "0") +
           " act=" + std::to_string(act);
  }
};

/// Every combination of BN / residual / activation (BN only when
/// `with_bn`).
inline std::vector<FuseCase> fuse_cases(bool with_bn) {
  std::vector<FuseCase> out;
  for (const bool bn : {false, true}) {
    if (bn && !with_bn) continue;
    for (const bool res : {false, true})
      for (const int act : {0, 1, 2}) out.push_back({bn, res, act});
  }
  return out;
}

/// Runs eval-mode `layer` (a Conv2d or Linear, possibly carrying a packed
/// engine) on `x` with the case's epilogue fused, and as the layer-by-layer
/// reference — the same layers' forward() one at a time, the residual as
/// Tensor::add_ — at 1 and 4 threads. All four outputs must agree bitwise.
inline void check_fused_matches_layers(nn::Layer& layer, const Tensor& x,
                                       const FuseCase& c, Rng& rng,
                                       const std::string& what) {
  layer.set_training(false);
  parallel::set_thread_count(1);
  const Shape out_shape = layer.forward(x).shape();
  nn::BatchNorm2d bn(out_shape[1], rng, "fuse.bn");
  set_edge_bn(bn, rng);
  nn::Relu act("fuse.act", c.act == 2 ? 0.1f : 0.0f);
  act.set_training(false);
  const Tensor skip = edge_tensor(out_shape, rng);

  nn::Epilogue epi;
  if (c.bn) epi.bn = &bn;
  if (c.residual) epi.residual = &skip;
  if (c.act != 0) epi.act = &act;
  const auto layer_by_layer = [&] {
    Tensor y = layer.forward(x);
    if (c.bn) y = bn.forward(y);
    if (c.residual) y.add_(skip);
    if (c.act != 0) y = act.forward(y);
    return y;
  };

  const Tensor ref = layer_by_layer();
  for (const int threads : {1, 4}) {
    parallel::set_thread_count(threads);
    const std::string at =
        what + " " + c.label() + " threads=" + std::to_string(threads);
    expect_bits_equal(layer.forward(x, epi), ref, at + " fused");
    expect_bits_equal(layer_by_layer(), ref, at + " layer-by-layer");
  }
  parallel::set_thread_count(1);
}

}  // namespace upaq::testing
