// NN framework tests: analytic backward passes are validated against finite
// differences for every layer, plus module/state-dict behaviour, mask
// semantics, the concat/split helpers, and the fused inference epilogue
// (fused == layer by layer, bitwise) on the fp32 kernels.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>

#include "nn/module.h"
#include "prof/prof.h"
#include "test_util.h"

namespace upaq {
namespace {

using testing::check_fused_matches_layers;
using testing::expect_bits_equal;
using testing::fuse_cases;
using testing::gradcheck_layer;

TEST(Conv2d, ForwardKnownValues) {
  Rng rng(1);
  nn::Conv2d conv(1, 1, 3, 1, 1, false, rng, "c");
  conv.weight().value.fill(1.0f);
  Tensor x = Tensor::ones({1, 1, 3, 3});
  Tensor y = conv.forward(x);
  // Centre sees all 9 ones; corners see 4.
  EXPECT_FLOAT_EQ(y.at(0, 0, 1, 1), 9.0f);
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 4.0f);
}

TEST(Conv2d, StrideHalvesResolution) {
  Rng rng(2);
  nn::Conv2d conv(2, 4, 3, 2, 1, false, rng, "c");
  Tensor x = Tensor::uniform({1, 2, 8, 8}, rng);
  Tensor y = conv.forward(x);
  EXPECT_EQ(y.shape(), (Shape{1, 4, 4, 4}));
  EXPECT_EQ(conv.last_out_h(), 4);
}

TEST(Conv2d, BiasIsAdded) {
  Rng rng(3);
  nn::Conv2d conv(1, 2, 1, 1, 0, true, rng, "c");
  conv.weight().value.fill(0.0f);
  conv.bias()->value[0] = 1.5f;
  conv.bias()->value[1] = -2.0f;
  Tensor y = conv.forward(Tensor::ones({1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 1.5f);
  EXPECT_FLOAT_EQ(y.at(0, 1, 1, 1), -2.0f);
}

TEST(Conv2d, GradCheck) {
  Rng rng(4);
  nn::Conv2d conv(2, 3, 3, 1, 1, true, rng, "c");
  gradcheck_layer(conv, Tensor::uniform({2, 2, 5, 5}, rng), rng);
}

TEST(Conv2d, GradCheckStride2OneByOne) {
  Rng rng(5);
  nn::Conv2d conv(3, 2, 1, 1, 0, false, rng, "c");
  gradcheck_layer(conv, Tensor::uniform({1, 3, 4, 4}, rng), rng);
  nn::Conv2d strided(2, 2, 3, 2, 1, false, rng, "s");
  gradcheck_layer(strided, Tensor::uniform({1, 2, 6, 6}, rng), rng);
}

// Finite-difference gradient checks over the stride/pad/bias grid at a tight
// 1e-3 tolerance. The probe loss is linear in every individual coordinate,
// so the central difference is exact up to float rounding and the tolerance
// genuinely pins the analytic backward.
TEST(Conv2d, GradCheckStride2Pad1WithBias) {
  Rng rng(40);
  nn::Conv2d conv(2, 3, 3, 2, 1, true, rng, "c");
  gradcheck_layer(conv, Tensor::uniform({2, 2, 7, 7}, rng), rng, 1e-3);
}

TEST(Conv2d, GradCheckStride2Pad1NoBias) {
  Rng rng(41);
  nn::Conv2d conv(2, 3, 3, 2, 1, false, rng, "c");
  gradcheck_layer(conv, Tensor::uniform({2, 2, 7, 7}, rng), rng, 1e-3);
}

TEST(Conv2d, GradCheckStride3Pad2WithBias) {
  Rng rng(42);
  nn::Conv2d conv(3, 2, 3, 3, 2, true, rng, "c");
  gradcheck_layer(conv, Tensor::uniform({1, 3, 8, 8}, rng), rng, 1e-3);
}

TEST(Conv2d, GradCheckStride1Pad2NoBias) {
  Rng rng(43);
  nn::Conv2d conv(2, 2, 3, 1, 2, false, rng, "c");
  gradcheck_layer(conv, Tensor::uniform({2, 2, 5, 5}, rng), rng, 1e-3);
}

TEST(Conv2d, BatchedForwardMatchesPerItemForward) {
  // Regression for the batch-offset im2col view: lowering item b of the
  // (N,C,H,W) input directly must reproduce the per-item result exactly.
  Rng rng(44);
  nn::Conv2d conv(2, 3, 3, 2, 1, true, rng, "c");
  const Tensor x = Tensor::uniform({3, 2, 6, 6}, rng);
  const Tensor y = conv.forward(x);
  const std::int64_t in_count = x.numel() / x.dim(0);
  const std::int64_t out_count = y.numel() / y.dim(0);
  for (std::int64_t b = 0; b < x.dim(0); ++b) {
    Tensor xb({1, x.dim(1), x.dim(2), x.dim(3)});
    std::copy(x.data() + b * in_count, x.data() + (b + 1) * in_count,
              xb.data());
    const Tensor yb = conv.forward(xb);
    for (std::int64_t i = 0; i < out_count; ++i)
      ASSERT_EQ(yb[i], y[b * out_count + i]) << "batch " << b << " elem " << i;
  }
}

TEST(Conv2d, MaskedGradientsStayMasked) {
  Rng rng(6);
  nn::Conv2d conv(2, 2, 3, 1, 1, false, rng, "c");
  Tensor mask(conv.weight().value.shape());
  mask[0] = 1.0f;  // keep exactly one weight
  conv.weight().mask = mask;
  conv.weight().project();
  Tensor x = Tensor::uniform({1, 2, 4, 4}, rng);
  Tensor y = conv.forward(x);
  conv.backward(Tensor::ones(y.shape()));
  for (std::int64_t i = 1; i < conv.weight().grad.numel(); ++i)
    EXPECT_EQ(conv.weight().grad[i], 0.0f) << i;
}

TEST(Conv2d, InputChannelMismatchThrows) {
  Rng rng(7);
  nn::Conv2d conv(4, 2, 3, 1, 1, false, rng, "c");
  EXPECT_THROW(conv.forward(Tensor::ones({1, 3, 8, 8})), std::invalid_argument);
}

TEST(BatchNorm2d, NormalizesTrainingBatch) {
  Rng rng(8);
  nn::BatchNorm2d bn(3, rng, "bn");
  bn.set_training(true);
  Tensor x = Tensor::uniform({2, 3, 4, 4}, rng, -4.0f, 8.0f);
  Tensor y = bn.forward(x);
  // Each channel of the output should be ~zero-mean unit-var.
  for (int c = 0; c < 3; ++c) {
    double sum = 0.0, sq = 0.0;
    for (int n = 0; n < 2; ++n)
      for (int i = 0; i < 16; ++i) {
        const float v = y.at(n, c, i / 4, i % 4);
        sum += v;
        sq += static_cast<double>(v) * v;
      }
    const double mean = sum / 32.0;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(sq / 32.0 - mean * mean, 1.0, 1e-3);
  }
}

TEST(BatchNorm2d, EvalUsesRunningStats) {
  Rng rng(9);
  nn::BatchNorm2d bn(2, rng, "bn");
  bn.set_training(true);
  // Feed several batches so running stats converge toward the data stats.
  for (int i = 0; i < 60; ++i)
    bn.forward(Tensor::uniform({2, 2, 4, 4}, rng, 2.0f, 6.0f));
  bn.set_training(false);
  Tensor y = bn.forward(Tensor::full({1, 2, 2, 2}, 4.0f));
  // Input ~= running mean (~4), so output should be near zero.
  EXPECT_NEAR(y.abs_max(), 0.0f, 0.35f);
}

TEST(BatchNorm2d, GradCheck) {
  Rng rng(10);
  nn::BatchNorm2d bn(2, rng, "bn");
  gradcheck_layer(bn, Tensor::uniform({2, 2, 3, 3}, rng, -2.0f, 2.0f), rng,
                  5e-2);
}

TEST(Relu, ForwardBackward) {
  Rng rng(11);
  nn::Relu relu("r");
  Tensor x({1, 1, 1, 4});
  x[0] = -2.0f;
  x[1] = -0.5f;
  x[2] = 0.5f;
  x[3] = 2.0f;
  Tensor y = relu.forward(x);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[2], 0.5f);
  Tensor g = relu.backward(Tensor::ones(y.shape()));
  EXPECT_EQ(g[0], 0.0f);
  EXPECT_EQ(g[3], 1.0f);
}

TEST(Relu, LeakyGradCheck) {
  Rng rng(12);
  nn::Relu leaky("l", 0.1f);
  EXPECT_EQ(leaky.kind(), nn::LayerKind::kLeakyRelu);
  gradcheck_layer(leaky, Tensor::uniform({1, 2, 3, 3}, rng, -1.0f, 1.0f), rng);
}

TEST(MaxPool2d, ForwardPicksMaxAndBackwardRoutes) {
  nn::MaxPool2d pool(2, "p");
  Tensor x({1, 1, 2, 2});
  x[0] = 1.0f;
  x[1] = 5.0f;
  x[2] = 2.0f;
  x[3] = 3.0f;
  Tensor y = pool.forward(x);
  EXPECT_EQ(y.numel(), 1);
  EXPECT_EQ(y[0], 5.0f);
  Tensor g = pool.backward(Tensor::full({1, 1, 1, 1}, 2.0f));
  EXPECT_EQ(g[1], 2.0f);
  EXPECT_EQ(g[0], 0.0f);
}

TEST(MaxPool2d, GradCheck) {
  Rng rng(13);
  nn::MaxPool2d pool(2, "p");
  // Max-pool is non-differentiable at ties; use well-separated values so the
  // finite-difference probe cannot flip the argmax.
  Tensor x = Tensor::arange(32).reshape({1, 2, 4, 4});
  std::shuffle(x.data(), x.data() + 32, rng.engine());
  x.scale_(0.5f);
  gradcheck_layer(pool, x, rng);
}

TEST(Upsample, NearestForwardAndAdjointBackward) {
  Rng rng(14);
  nn::Upsample up(2, "u");
  Tensor x = Tensor::uniform({1, 1, 2, 2}, rng);
  Tensor y = up.forward(x);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 4, 4}));
  EXPECT_EQ(y.at(0, 0, 0, 0), x.at(0, 0, 0, 0));
  EXPECT_EQ(y.at(0, 0, 1, 1), x.at(0, 0, 0, 0));
  Tensor g = up.backward(Tensor::ones(y.shape()));
  EXPECT_EQ(g.at(0, 0, 0, 0), 4.0f);  // each input feeds 4 outputs
}

TEST(Upsample, GradCheck) {
  Rng rng(15);
  nn::Upsample up(3, "u");
  gradcheck_layer(up, Tensor::uniform({1, 2, 2, 2}, rng), rng);
}

TEST(Linear, ForwardKnownValues) {
  Rng rng(16);
  nn::Linear lin(2, 2, true, rng, "l");
  lin.weight().value = Tensor({2, 2}, std::vector<float>{1, 2, 3, 4});
  lin.bias()->value = Tensor({2}, std::vector<float>{10, 20});
  Tensor x({1, 2}, std::vector<float>{1, 1});
  Tensor y = lin.forward(x);
  EXPECT_FLOAT_EQ(y.at(0, 0), 13.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 27.0f);
}

TEST(Linear, GradCheck) {
  Rng rng(17);
  nn::Linear lin(4, 3, true, rng, "l");
  gradcheck_layer(lin, Tensor::uniform({3, 4}, rng), rng);
}

TEST(Linear, GradCheckTightWithBias) {
  Rng rng(45);
  nn::Linear lin(6, 5, true, rng, "l");
  gradcheck_layer(lin, Tensor::uniform({4, 6}, rng), rng, 1e-3);
}

TEST(Linear, GradCheckTightNoBias) {
  Rng rng(46);
  nn::Linear lin(5, 7, false, rng, "l");
  gradcheck_layer(lin, Tensor::uniform({3, 5}, rng), rng, 1e-3);
}

TEST(ConcatSplit, RoundTrip) {
  Rng rng(18);
  Tensor a = Tensor::uniform({2, 2, 3, 3}, rng);
  Tensor b = Tensor::uniform({2, 4, 3, 3}, rng);
  Tensor cat = nn::concat_channels({a, b});
  EXPECT_EQ(cat.shape(), (Shape{2, 6, 3, 3}));
  auto parts = nn::split_channels(cat, {2, 4});
  for (std::int64_t i = 0; i < a.numel(); ++i) EXPECT_EQ(parts[0][i], a[i]);
  for (std::int64_t i = 0; i < b.numel(); ++i) EXPECT_EQ(parts[1][i], b[i]);
}

TEST(ConcatSplit, ValidatesShapes) {
  Tensor a({1, 2, 3, 3});
  Tensor b({1, 2, 4, 4});
  EXPECT_THROW(nn::concat_channels({a, b}), std::invalid_argument);
  EXPECT_THROW(nn::split_channels(a, {3}), std::invalid_argument);
}

TEST(Sequential, ChainsForwardAndBackward) {
  Rng rng(19);
  nn::Module m;
  auto* conv = m.add<nn::Conv2d>(1, 2, 3, 1, 1, false, rng, "conv");
  auto* relu = m.add<nn::Relu>("relu");
  nn::Sequential seq;
  seq.then(conv).then(relu);
  Tensor x = Tensor::uniform({1, 1, 4, 4}, rng);
  Tensor y = seq.forward(x);
  EXPECT_EQ(y.shape(), (Shape{1, 2, 4, 4}));
  EXPECT_GE(y.min(), 0.0f);
  Tensor g = seq.backward(Tensor::ones(y.shape()));
  EXPECT_EQ(g.shape(), x.shape());
  EXPECT_GT(conv->weight().grad.abs_max(), 0.0f);
}

TEST(Module, ParameterCountAndZeroGrad) {
  Rng rng(20);
  nn::Module m;
  m.add<nn::Conv2d>(2, 4, 3, 1, 1, true, rng, "conv");
  m.add<nn::BatchNorm2d>(4, rng, "bn");
  // conv weight 2*4*9 = 72, bias 4, bn gamma+beta 8.
  EXPECT_EQ(m.parameter_count(), 72 + 4 + 8);
  for (auto* p : m.parameters()) p->grad.fill(1.0f);
  m.zero_grad();
  for (auto* p : m.parameters()) EXPECT_EQ(p->grad.abs_max(), 0.0f);
}

TEST(Module, StateDictRoundTripIncludesRunningStats) {
  Rng rng(21);
  nn::Module m1;
  auto* c1 = m1.add<nn::Conv2d>(1, 2, 3, 1, 1, false, rng, "conv");
  auto* b1 = m1.add<nn::BatchNorm2d>(2, rng, "bn");
  // Perturb running stats so the round trip is non-trivial.
  b1->running_mean()[0] = 3.0f;
  b1->running_var()[1] = 9.0f;
  auto state = m1.state_dict();

  Rng rng2(99);
  nn::Module m2;
  auto* c2 = m2.add<nn::Conv2d>(1, 2, 3, 1, 1, false, rng2, "conv");
  auto* b2 = m2.add<nn::BatchNorm2d>(2, rng2, "bn");
  m2.load_state_dict(state);
  for (std::int64_t i = 0; i < c1->weight().value.numel(); ++i)
    EXPECT_EQ(c2->weight().value[i], c1->weight().value[i]);
  EXPECT_EQ(b2->running_mean()[0], 3.0f);
  EXPECT_EQ(b2->running_var()[1], 9.0f);
}

TEST(Module, LoadStateDictValidates) {
  Rng rng(22);
  nn::Module m;
  m.add<nn::Conv2d>(1, 2, 3, 1, 1, false, rng, "conv");
  std::map<std::string, Tensor> empty;
  EXPECT_THROW(m.load_state_dict(empty), std::invalid_argument);
}

TEST(Parameter, SparsityAndProject) {
  nn::Parameter p("w", Tensor::ones({4}));
  EXPECT_EQ(p.sparsity(), 0.0);
  p.mask = Tensor({4}, std::vector<float>{1, 0, 0, 1});
  p.project();
  EXPECT_EQ(p.value.count_nonzero(), 2);
  EXPECT_NEAR(p.sparsity(), 0.5, 1e-12);
}

// ------------------------------------------------------- fused epilogue

/// Conv2d whose fp32 GEMM takes the blocked panel kernel (dense weights) or
/// the zero-skipping row kernel (two thirds of the weights zero).
std::unique_ptr<nn::Conv2d> make_fp32_conv(std::int64_t in_c,
                                           std::int64_t out_c, bool bias,
                                           bool sparse, Rng& rng) {
  auto conv = std::make_unique<nn::Conv2d>(in_c, out_c, 3, 1, 1, bias, rng,
                                           "fused.conv");
  if (sparse) {
    for (std::int64_t i = 0; i < conv->weight().value.numel(); ++i)
      if (i % 3 != 0) conv->weight().value[i] = 0.0f;
    conv->weight().mark_mutated();
  }
  if (bias) testing::set_edge_bias(*conv->bias(), rng);
  conv->set_training(false);
  return conv;
}

TEST(FusedEpilogue, Fp32ConvKernelsMatchLayerByLayerBitwise) {
  // Odd spatial sizes leave vector tails in every tile; batch 2 checks the
  // per-item residual offset; the 64-channel geometry has k = 576 > kKC
  // (multi-slab: the epilogue must wait for the last slab) and n = 289 >
  // kNC (multi-stripe).
  struct Geometry {
    std::int64_t n, in_c, out_c, h, w;
  };
  for (const Geometry g : {Geometry{2, 5, 11, 9, 13}, Geometry{1, 64, 13, 17, 17}})
    for (const bool sparse : {false, true})
      for (const bool bias : {false, true}) {
        Rng rng(700 + g.in_c + sparse * 10 + bias);
        const auto conv = make_fp32_conv(g.in_c, g.out_c, bias, sparse, rng);
        const Tensor x =
            testing::finite_edge_tensor({g.n, g.in_c, g.h, g.w}, rng);
        const std::string what =
            std::string(sparse ? "row-skip" : "blocked") + " in_c=" +
            std::to_string(g.in_c) + " bias=" + std::to_string(bias);
        for (const auto& c : fuse_cases(/*with_bn=*/true))
          check_fused_matches_layers(*conv, x, c, rng, what);
      }
}

TEST(FusedEpilogue, Fp32LinearMatchesLayerByLayerBitwise) {
  // 19 output channels: two 8-lane groups plus a 3-wide scalar tail of the
  // channel-per-column epilogue.
  for (const bool bias : {false, true}) {
    Rng rng(720 + bias);
    nn::Linear lin(9, 19, bias, rng, "fused.linear");
    if (bias) testing::set_edge_bias(*lin.bias(), rng);
    const Tensor x = testing::finite_edge_tensor({37, 9}, rng);
    for (const auto& c : fuse_cases(/*with_bn=*/false))
      check_fused_matches_layers(lin, x, c, rng,
                                 "fp32 linear bias=" + std::to_string(bias));
  }
}

TEST(FusedEpilogue, FusionNeedsEvalModeAndMatchingShapes) {
  Rng rng(730);
  nn::Conv2d conv(3, 8, 3, 1, 1, false, rng, "c");
  nn::BatchNorm2d bn8(8, rng, "bn8"), bn4(4, rng, "bn4");
  bn8.set_training(false);
  bn4.set_training(false);
  const Tensor x = Tensor::uniform({1, 3, 6, 6}, rng);
  conv.set_training(true);
  EXPECT_THROW(conv.forward(x, {.bn = &bn8}), std::invalid_argument);
  conv.set_training(false);
  EXPECT_THROW(conv.forward(x, {.bn = &bn4}), std::invalid_argument);
  const Tensor wrong = Tensor::uniform({1, 8, 5, 6}, rng);
  EXPECT_THROW(conv.forward(x, {.residual = &wrong}), std::invalid_argument);
  bn8.set_training(true);
  EXPECT_THROW(conv.forward(x, {.bn = &bn8}), std::invalid_argument);
  // Layers without a fused store refuse instead of silently running unfused.
  nn::Relu relu("r");
  relu.set_training(false);
  EXPECT_THROW(relu.forward(x, {.act = &relu}), std::invalid_argument);
}

TEST(FusedEpilogue, EvalSequentialFusesAndMatchesLayerByLayer) {
  Rng rng(740);
  nn::Module m;
  auto* conv = m.add<nn::Conv2d>(3, 8, 3, 1, 1, true, rng, "conv");
  auto* bn = m.add<nn::BatchNorm2d>(8, rng, "bn");
  auto* relu = m.add<nn::Relu>("relu", 0.1f);
  auto* conv2 = m.add<nn::Conv2d>(8, 9, 1, 1, 0, false, rng, "conv2");
  auto* relu2 = m.add<nn::Relu>("relu2");
  auto* up = m.add<nn::Upsample>(2, "up");
  m.set_training(false);
  testing::set_edge_bn(*bn, rng);
  nn::Sequential seq;
  seq.then(conv).then(bn).then(relu).then(conv2).then(relu2).then(up);
  const Tensor x = testing::finite_edge_tensor({2, 3, 7, 5}, rng);

  Tensor ref = x;
  for (auto* l : seq.chain()) ref = l->forward(ref);

  // Fused: no span for the absorbed BN / ReLU layers.
  prof::reset();
  prof::set_enabled(true);
  const Tensor y = seq.forward(x);
  prof::set_enabled(false);
  expect_bits_equal(y, ref, "eval Sequential");
  std::set<std::string> names;
  for (const auto& e : prof::snapshot_events()) names.insert(e.name);
  prof::reset();
  EXPECT_TRUE(names.count("conv") && names.count("conv2") && names.count("up"));
  EXPECT_FALSE(names.count("bn") || names.count("relu") || names.count("relu2"));
}

TEST(Upsample, IntoConcatSliceMatchesForwardThenConcat) {
  Rng rng(750);
  const Tensor a = Tensor::uniform({2, 3, 8, 8}, rng);
  const Tensor b = testing::edge_tensor({2, 2, 4, 4}, rng);
  const Tensor c = Tensor::uniform({2, 1, 2, 2}, rng);
  nn::Upsample up2(2, "u2"), up4(4, "u4");
  const Tensor ref =
      nn::concat_channels({a, up2.forward(b), up4.forward(c)});
  Tensor cat({2, 6, 8, 8});
  nn::upsample_into(a, 1, cat, 0);
  nn::upsample_into(b, 2, cat, 3);
  nn::upsample_into(c, 4, cat, 5);
  expect_bits_equal(cat, ref, "upsample_into concat");
  EXPECT_THROW(nn::upsample_into(b, 2, cat, 5), std::invalid_argument);
}

}  // namespace
}  // namespace upaq
