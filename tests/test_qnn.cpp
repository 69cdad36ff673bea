// Equivalence + determinism suite for the packed integer inference path
// (upaq::qnn): the integer GEMM must match the fake-quant float path
// within one requantization step (max weight scale x activation scale) for
// dense, bitmap-sparse and all four pattern families, stay bitwise
// identical across thread counts, never store masked positions, and keep
// the training path on float. The final test lowers a compressed detector
// to a QuantizedModel and pins the integer-path mAP against the fake-quant
// path end to end.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <optional>
#include <set>

#include "core/qmodel.h"
#include "core/upaq.h"
#include "nn/conv.h"
#include "nn/layers.h"
#include "parallel/thread_pool.h"
#include "prof/prof.h"
#include "prune/pattern.h"
#include "qnn/packed.h"
#include "qnn/qgemm.h"
#include "qnn/qlayers.h"
#include "tensor/ops.h"
#include "zoo/experiment.h"

namespace upaq {
namespace {

/// One pattern of each of the four Algorithm-2 families for a d x d kernel.
std::vector<prune::KernelPattern> one_per_family(int n, int d) {
  std::vector<prune::KernelPattern> out;
  std::set<prune::PatternType> seen;
  for (const auto& p : prune::all_patterns(n, d)) {
    if (seen.insert(p.type).second) out.push_back(p);
  }
  EXPECT_EQ(out.size(), 4u);
  return out;
}

/// Random bitmap mask keeping roughly `keep` of the entries (always at
/// least one).
Tensor bitmap_mask(const Shape& shape, double keep, Rng& rng) {
  Tensor u = Tensor::uniform(shape, rng, 0.0f, 1.0f);
  Tensor mask(shape);
  for (std::int64_t i = 0; i < mask.numel(); ++i)
    mask[i] = u[i] < keep ? 1.0f : 0.0f;
  mask[0] = 1.0f;
  return mask;
}

/// |packed - reference| bound: one requantization step. The packed path
/// accumulates exactly (int64 + double) while the float reference rounds per
/// operation, so one grid step comfortably covers both.
float requant_step(const qnn::PackedGemm& gemm, const qnn::QuantizedActs& x) {
  return gemm.max_weight_scale() * x.scale;
}

struct GemmCase {
  int bits;
  quant::StorageFormat format;
  bool pattern_mask;  ///< pattern family masks instead of random bitmap
};

class PackedGemmEquivalence : public ::testing::TestWithParam<GemmCase> {};

TEST_P(PackedGemmEquivalence, MatchesFakeQuantReferenceWithinOneStep) {
  const GemmCase c = GetParam();
  const std::int64_t out_c = 6, in_c = 4;
  const int d = 3;
  const std::int64_t k = in_c * d * d;
  Rng rng(101);
  Tensor w = Tensor::normal({out_c, in_c, d, d}, rng, 0.0f, 0.8f);

  std::vector<Tensor> masks;
  if (c.format == quant::StorageFormat::kDense) {
    masks.push_back(Tensor());
  } else if (c.pattern_mask) {
    for (const auto& p : one_per_family(2, d))
      masks.push_back(prune::expand_kernel_mask(p, w.shape()));
  } else {
    masks.push_back(bitmap_mask(w.shape(), 0.5, rng));
  }

  for (const auto& mask : masks) {
    Tensor wm = w;  // copy; each mask case starts from the same weights
    if (!mask.empty()) wm.mul_(mask);
    const auto p = qnn::pack(wm, c.bits, /*group=*/d * d, c.format, mask);
    const qnn::PackedGemm gemm(p, out_c, k);

    Tensor acts = Tensor::normal({k, 17}, rng, 0.0f, 1.3f);
    const auto qa = qnn::quantize_acts(acts, 8);
    Tensor bias = Tensor::normal({out_c}, rng, 0.0f, 0.5f);

    Tensor got({out_c, 17});
    gemm.run(qa, bias.data(), got);

    // Fake-quant reference: the same grids through the float GEMM.
    const Tensor wq = qnn::unpack(p).reshape({out_c, k});
    const Tensor aq = qnn::dequantize_acts(qa);
    Tensor want({out_c, 17});
    ops::gemm_accumulate(wq, aq, want);
    const float tol = requant_step(gemm, qa);
    for (std::int64_t i = 0; i < got.numel(); ++i) {
      const float expect = want[i] + bias[i / 17];
      ASSERT_NEAR(got[i], expect, tol)
          << "bits=" << c.bits << " format=" << static_cast<int>(c.format)
          << " elem=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    BitsAndFormats, PackedGemmEquivalence,
    ::testing::Values(
        GemmCase{8, quant::StorageFormat::kDense, false},
        GemmCase{4, quant::StorageFormat::kDense, false},
        GemmCase{8, quant::StorageFormat::kBitmapSparse, false},
        GemmCase{4, quant::StorageFormat::kBitmapSparse, false},
        GemmCase{8, quant::StorageFormat::kPatternSparse, true},
        GemmCase{4, quant::StorageFormat::kPatternSparse, true}));

/// Conv2d layer level: the engine-attached eval forward against a manual
/// fake-quant float reference (im2col -> quantize -> dequantize -> float
/// GEMM) on a multi-item batch.
TEST(PackedConv2d, MatchesFloatFakeQuantPath) {
  for (int bits : {8, 4}) {
    Rng rng(202);
    nn::Conv2d conv(3, 5, 3, 1, 1, /*bias=*/true, rng, "conv");
    conv.bias()->value = Tensor::normal({5}, rng, 0.0f, 0.3f);
    const auto pattern = one_per_family(2, 3)[0];
    Tensor mask = prune::expand_kernel_mask(pattern, conv.weight().value.shape());
    conv.weight().mask = mask;
    conv.weight().value.mul_(mask);

    qnn::LowerSpec spec;
    spec.weight_bits = bits;
    spec.group_size = 9;
    spec.format = quant::StorageFormat::kPatternSparse;
    ASSERT_TRUE(qnn::lower_layer(conv, spec));
    conv.set_training(false);
    ASSERT_NE(conv.engine(), nullptr);
    EXPECT_STREQ(conv.engine()->engine_name(), "qnn.packed_conv2d");

    Tensor x = Tensor::normal({2, 3, 8, 8}, rng, 0.0f, 1.0f);
    const Tensor got = conv.forward(x);
    ASSERT_EQ(got.shape(), Shape({2, 5, 8, 8}));

    const auto* engine = dynamic_cast<qnn::PackedConv2d*>(conv.engine());
    ASSERT_NE(engine, nullptr);
    const auto packed = qnn::pack(conv.weight().value, bits, 9,
                                  quant::StorageFormat::kPatternSparse, mask);
    const Tensor wq = qnn::unpack(packed).reshape({5, 3 * 9});
    for (std::int64_t b = 0; b < 2; ++b) {
      const Tensor cols = ops::im2col(x, b, 3, 3, 1, 1);
      const auto qa = qnn::quantize_acts(cols, 8);
      Tensor want({5, 64});
      ops::gemm_accumulate(wq, qnn::dequantize_acts(qa), want);
      const float tol = requant_step(engine->gemm(), qa);
      for (std::int64_t oc = 0; oc < 5; ++oc)
        for (std::int64_t i = 0; i < 64; ++i)
          ASSERT_NEAR(got[(b * 5 + oc) * 64 + i],
                      want.at(oc, i) + conv.bias()->value[oc], tol)
              << "bits=" << bits;
    }
  }
}

TEST(PackedConv2d, SegmentConvGathersNoColumnMatrix) {
  // A segment-pinned 3x3 conv reads its taps in place from the quantized
  // map's tap layout, so it adds nothing to the im2col byte counter; an
  // int8-panel-pinned one still gathers the c * k^2 * oh * ow column matrix
  // per batch item. Both give the same bits. Counters only accumulate while
  // tracing is on.
  const std::int64_t n = 2, c = 6, h = 11, w = 9;
  for (const int stride : {1, 2}) {
    Rng rng(808 + stride);
    nn::Conv2d conv(c, 8, 3, stride, 1, /*bias=*/true, rng, "conv");
    const std::int64_t oh = ops::conv_out_size(h, 3, stride, 1);
    const std::int64_t ow = ops::conv_out_size(w, 3, stride, 1);
    const Tensor x = Tensor::normal({n, c, h, w}, rng);
    prof::set_enabled(true);
    Tensor outs[2];
    int i = 0;
    for (const auto mode : {qnn::PackedGemm::PanelMode::kForceSegment,
                            qnn::PackedGemm::PanelMode::kForceInt8}) {
      qnn::LowerSpec spec;
      spec.group_size = 9;
      spec.mode = mode;
      ASSERT_TRUE(qnn::lower_layer(conv, spec));
      conv.set_training(false);
      const std::uint64_t before =
          prof::counter_value(prof::Counter::kIm2colBytes);
      outs[i++] = conv.forward(x);
      const std::uint64_t delta =
          prof::counter_value(prof::Counter::kIm2colBytes) - before;
      const bool segment =
          mode == qnn::PackedGemm::PanelMode::kForceSegment;
      EXPECT_EQ(delta,
                segment ? 0u : static_cast<std::uint64_t>(n * c * 9 * oh * ow))
          << "stride=" << stride << " segment=" << segment;
    }
    prof::set_enabled(false);
    ASSERT_EQ(outs[0].shape(), outs[1].shape());
    EXPECT_EQ(std::memcmp(outs[0].data(), outs[1].data(),
                          sizeof(float) *
                              static_cast<std::size_t>(outs[0].numel())),
              0)
        << "stride=" << stride;
  }
}

TEST(PackedConv2d, SiblingConvsShareOneInputQuantization) {
  // Two packed convs reading the same input through one nn::SharedInput
  // quantize it once (one act-quant call per batch item for the pair) and
  // give exactly the outputs of separate forwards.
  Rng rng(909);
  nn::Conv2d a(5, 4, 3, 1, 1, /*bias=*/false, rng, "a");
  nn::Conv2d b(5, 7, 3, 1, 1, /*bias=*/true, rng, "b");
  qnn::LowerSpec spec;
  spec.group_size = 9;
  spec.mode = qnn::PackedGemm::PanelMode::kForceSegment;
  ASSERT_TRUE(qnn::lower_layer(a, spec));
  ASSERT_TRUE(qnn::lower_layer(b, spec));
  a.set_training(false);
  b.set_training(false);
  for (int pass = 0; pass < 2; ++pass) {
    const Tensor x = Tensor::normal({2, 5, 7, 10}, rng);
    const Tensor ya = a.forward(x), yb = b.forward(x);
    prof::set_enabled(true);
    const std::uint64_t before =
        prof::counter_value(prof::Counter::kActQuantCalls);
    nn::SharedInput share;
    const Tensor sa = a.forward(x, {.share = &share});
    const Tensor sb = b.forward(x, {.share = &share});
    const std::uint64_t calls =
        prof::counter_value(prof::Counter::kActQuantCalls) - before;
    prof::set_enabled(false);
    EXPECT_EQ(calls, 2u) << "one quantization per batch item, shared";
    EXPECT_EQ(std::memcmp(ya.data(), sa.data(),
                          sizeof(float) * static_cast<std::size_t>(ya.numel())),
              0);
    EXPECT_EQ(std::memcmp(yb.data(), sb.data(),
                          sizeof(float) * static_cast<std::size_t>(yb.numel())),
              0);
  }
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<std::size_t>(a.numel())) == 0;
}

TEST(PackedConv2d, ReusedWeightAddressGetsItsOwnPackedImage) {
  // A lowered conv is destroyed and a conv with other weights is built in
  // the same storage: its weight Parameter has the old one's address and
  // version. Its packed forward must run its own weights — bitwise what
  // the same weights give lowered at another address.
  qnn::LowerSpec spec;
  spec.group_size = 9;
  Rng xrng(1111);
  const Tensor x = Tensor::normal({1, 8, 6, 6}, xrng);
  std::optional<nn::Conv2d> slot;
  Rng r1(1);
  slot.emplace(8, 8, 3, 1, 1, /*bias=*/false, r1, "first");
  ASSERT_TRUE(qnn::lower_layer(*slot, spec));
  slot->set_training(false);
  const Tensor first = slot->forward(x);
  const nn::Parameter* first_weight = &slot->weight();
  const std::uint64_t first_version = slot->weight().version;
  slot.reset();

  Rng r2(2);
  slot.emplace(8, 8, 3, 1, 1, /*bias=*/false, r2, "second");
  ASSERT_EQ(&slot->weight(), first_weight);
  ASSERT_EQ(slot->weight().version, first_version);
  ASSERT_TRUE(qnn::lower_layer(*slot, spec));
  slot->set_training(false);
  const Tensor second = slot->forward(x);

  Rng r2_twin(2);
  nn::Conv2d twin(8, 8, 3, 1, 1, /*bias=*/false, r2_twin, "twin");
  ASSERT_TRUE(qnn::lower_layer(twin, spec));
  twin.set_training(false);
  EXPECT_TRUE(same_bits(second, twin.forward(x)));
  EXPECT_FALSE(same_bits(second, first));
}

TEST(PackedConv2d, WeightMutationRepacksLikeAFreshLowering) {
  // Mutating a lowered conv's weight (with the version bump every mutation
  // path makes) repacks once on the next forward, bitwise what a fresh
  // lowering of the new weight gives; steady-state forwards build nothing.
  // Counters only accumulate while tracing is on.
  for (const auto mode : {qnn::PackedGemm::PanelMode::kForceSegment,
                          qnn::PackedGemm::PanelMode::kForceInt8}) {
    Rng rng(1212);
    nn::Conv2d conv(6, 8, 3, 1, 1, /*bias=*/true, rng, "conv");
    qnn::LowerSpec spec;
    spec.weight_bits = 4;
    spec.group_size = 9;
    spec.mode = mode;
    ASSERT_TRUE(qnn::lower_layer(conv, spec));
    conv.set_training(false);
    const Tensor x = Tensor::normal({2, 6, 7, 5}, rng);
    const Tensor before = conv.forward(x);

    Tensor& w = conv.weight().value;
    for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = -0.5f * w[i];
    conv.weight().mark_mutated();
    prof::set_enabled(true);
    const std::uint64_t b0 = prof::counter_value(prof::Counter::kPanelBuilds);
    const Tensor after = conv.forward(x);
    const std::uint64_t b1 = prof::counter_value(prof::Counter::kPanelBuilds);
    for (int i = 0; i < 3; ++i) EXPECT_TRUE(same_bits(conv.forward(x), after));
    const std::uint64_t b2 = prof::counter_value(prof::Counter::kPanelBuilds);
    prof::set_enabled(false);
    EXPECT_EQ(b1 - b0, 1u) << "one repack after the mutation";
    EXPECT_EQ(b2 - b1, 0u) << "steady-state forwards must not repack";
    EXPECT_FALSE(same_bits(after, before));

    ASSERT_TRUE(qnn::lower_layer(conv, spec));
    EXPECT_TRUE(same_bits(after, conv.forward(x)));
  }
}

TEST(PackedLinear, MatchesFloatFakeQuantPath) {
  for (int bits : {8, 4}) {
    Rng rng(303);
    nn::Linear ref(10, 7, /*bias=*/true, rng, "fc");
    ref.bias()->value = Tensor::normal({7}, rng, 0.0f, 0.2f);
    Tensor mask = bitmap_mask(ref.weight().value.shape(), 0.6, rng);
    ref.weight().mask = mask;
    ref.weight().value.mul_(mask);

    // The packed copy shares the reference's exact weights.
    Rng rng2(303);
    nn::Linear packed(10, 7, /*bias=*/true, rng2, "fc");
    packed.weight().value = ref.weight().value;
    packed.weight().mask = mask;
    packed.bias()->value = ref.bias()->value;

    qnn::LowerSpec spec;
    spec.weight_bits = bits;
    spec.group_size = 4;  // deliberately not a divisor of in_features
    spec.format = quant::StorageFormat::kBitmapSparse;
    ASSERT_TRUE(qnn::lower_layer(packed, spec));
    packed.set_training(false);
    ref.set_training(false);

    Tensor x = Tensor::normal({9, 10}, rng, 0.0f, 1.1f);
    const Tensor got = packed.forward(x);

    const auto* engine = dynamic_cast<qnn::PackedLinear*>(packed.engine());
    ASSERT_NE(engine, nullptr);
    const auto qa = qnn::quantize_acts(x, 8);
    ref.weight().value = qnn::unpack(
        qnn::pack(ref.weight().value, bits, 4,
                  quant::StorageFormat::kBitmapSparse, mask));
    const Tensor want = ref.forward(qnn::dequantize_acts(qa));
    const float tol = requant_step(engine->gemm(), qa);
    for (std::int64_t i = 0; i < got.numel(); ++i)
      ASSERT_NEAR(got[i], want[i], tol) << "bits=" << bits;
  }
}

TEST(PackedTensorStorage, MaskedPositionsAreNeverStored) {
  Rng rng(404);
  Tensor w = Tensor::normal({8, 4, 3, 3}, rng);
  for (const auto& pattern : one_per_family(2, 3)) {
    Tensor mask = prune::expand_kernel_mask(pattern, w.shape());
    Tensor wm = w;
    wm.mul_(mask);
    const auto p =
        qnn::pack(wm, 4, 9, quant::StorageFormat::kPatternSparse, mask);
    // Exactly the mask's surviving positions are stored, in ascending order.
    std::int64_t expected = 0;
    for (std::int64_t i = 0; i < mask.numel(); ++i)
      if (mask[i] != 0.0f) ++expected;
    ASSERT_EQ(p.stored_count(), expected) << pattern.key();
    for (std::int64_t i = 0; i < p.stored_count(); ++i) {
      ASSERT_NE(mask[p.flat_index(i)], 0.0f) << pattern.key();
      if (i > 0) {
        ASSERT_LT(p.flat_index(i - 1), p.flat_index(i));
      }
    }
    // And the GEMM engine carries no masked entry either (its entries are a
    // subset: surviving positions whose code is non-zero).
    const qnn::PackedGemm gemm(p, 8, 4 * 9);
    EXPECT_LE(gemm.entry_count(), expected);
  }
}

TEST(PackedDeterminism, BitwiseIdenticalAcrossThreadCounts) {
  const int original = parallel::thread_count();
  Rng rng(505);
  nn::Conv2d conv(4, 6, 3, 1, 1, /*bias=*/true, rng, "conv");
  nn::Linear lin(24, 12, /*bias=*/true, rng, "fc");
  qnn::LowerSpec spec;
  spec.weight_bits = 8;
  spec.group_size = 9;
  ASSERT_TRUE(qnn::lower_layer(conv, spec));
  ASSERT_TRUE(qnn::lower_layer(lin, spec));
  conv.set_training(false);
  lin.set_training(false);
  // Large enough spatial size that the row-parallel GEMM engages.
  Tensor xc = Tensor::normal({2, 4, 24, 24}, rng);
  Tensor xl = Tensor::normal({64, 24}, rng);

  parallel::set_thread_count(1);
  const Tensor yc1 = conv.forward(xc);
  const Tensor yl1 = lin.forward(xl);
  parallel::set_thread_count(4);
  const Tensor yc4 = conv.forward(xc);
  const Tensor yl4 = lin.forward(xl);
  parallel::set_thread_count(original);

  ASSERT_EQ(yc1.shape(), yc4.shape());
  EXPECT_EQ(std::memcmp(yc1.data(), yc4.data(),
                        sizeof(float) * static_cast<std::size_t>(yc1.numel())),
            0);
  ASSERT_EQ(yl1.shape(), yl4.shape());
  EXPECT_EQ(std::memcmp(yl1.data(), yl4.data(),
                        sizeof(float) * static_cast<std::size_t>(yl1.numel())),
            0);
}

TEST(PackedEngines, TrainingModeStaysOnFloatPath) {
  Rng rng(606);
  nn::Conv2d with_engine(3, 4, 3, 1, 1, /*bias=*/false, rng, "conv");
  Rng rng2(606);
  nn::Conv2d without(3, 4, 3, 1, 1, /*bias=*/false, rng2, "conv");
  qnn::LowerSpec spec;
  spec.weight_bits = 4;  // coarse grid: the packed path would visibly differ
  ASSERT_TRUE(qnn::lower_layer(with_engine, spec));

  Tensor x = Tensor::normal({1, 3, 6, 6}, rng);
  with_engine.set_training(true);
  without.set_training(true);
  const Tensor a = with_engine.forward(x);
  const Tensor b = without.forward(x);
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        sizeof(float) * static_cast<std::size_t>(a.numel())),
            0)
      << "training forward must ignore the engine";
  // Backward still works with an engine attached.
  Tensor g(a.shape());
  g.fill(1.0f);
  EXPECT_NO_THROW(with_engine.backward(g));

  // Eval mode uses the engine (4-bit output differs from float).
  with_engine.set_training(false);
  without.set_training(false);
  const Tensor c = with_engine.forward(x);
  EXPECT_NE(std::memcmp(c.data(), b.data(),
                        sizeof(float) * static_cast<std::size_t>(c.numel())),
            0);
}

TEST(PackedBlob, SaveLoadRoundTripsBitwise) {
  Rng rng(707);
  std::map<std::string, qnn::PackedTensor> blobs;
  Tensor w = Tensor::normal({4, 2, 3, 3}, rng);
  const auto pattern = one_per_family(2, 3)[1];
  Tensor mask = prune::expand_kernel_mask(pattern, w.shape());
  Tensor wm = w;
  wm.mul_(mask);
  blobs["conv"] = qnn::pack(wm, 4, 9, quant::StorageFormat::kPatternSparse, mask);
  blobs["fc"] = qnn::pack(Tensor::normal({6, 5}, rng), 8, 0,
                          quant::StorageFormat::kDense);
  const std::string path = ::testing::TempDir() + "/qnn_blob_test.packed";
  qnn::save_packed_map(path, blobs);
  const auto loaded = qnn::load_packed_map(path);
  ASSERT_EQ(loaded.size(), blobs.size());
  for (const auto& [name, p] : blobs) {
    const auto& q = loaded.at(name);
    EXPECT_EQ(q.shape, p.shape);
    EXPECT_EQ(q.bits, p.bits);
    EXPECT_EQ(q.group_size, p.group_size);
    EXPECT_EQ(q.format, p.format);
    EXPECT_EQ(q.data, p.data);
    EXPECT_EQ(q.stored, p.stored);
    ASSERT_EQ(q.scales.size(), p.scales.size());
    for (std::size_t i = 0; i < p.scales.size(); ++i)
      EXPECT_EQ(q.scales[i], p.scales[i]) << name;  // bitwise
  }
  std::filesystem::remove(path);
}

/// End-to-end regression: compress a tiny trained detector with UPAQ (HCK),
/// lower it onto the integer path, and pin the packed-path mAP against the
/// fake-quant float path on the same synthetic scenes.
TEST(QuantizedModel, IntegerPathMapMatchesFakeQuantPath) {
  zoo::ZooConfig cfg;
  cfg.cache_dir = ::testing::TempDir() + "/upaq_zoo_qnn_e2e";
  cfg.scene_count = 20;
  cfg.pp_iterations = 8;
  cfg.smoke_iterations = 2;
  cfg.batch_size = 1;
  cfg.verbose = false;
  std::error_code ec;
  std::filesystem::remove_all(cfg.cache_dir, ec);
  zoo::Zoo z(cfg);
  auto model = z.pointpillars();

  auto ucfg = core::UpaqConfig::hck();
  core::UpaqCompressor compressor(ucfg);
  auto result = compressor.compress(*model);

  const double map_float =
      detectors::evaluate_map(*model, z.dataset().test, 0.25);
  {
    core::QuantizedModel qmodel(*model, result.plan);
    EXPECT_GT(qmodel.lowered_layers(), 0);
    EXPECT_STREQ(qmodel.model_name(), "Quantized(PointPillars)");
    const double map_int =
        detectors::evaluate_map(qmodel, z.dataset().test, 0.25);
    // int8 activations on top of the already-quantized weights: the packed
    // path must stay within a few mAP points of the fake-quant path.
    EXPECT_NEAR(map_int, map_float, 5.0);

    // The integer-path profile prices int GEMMs: modelled latency must not
    // exceed the weight-only execution of the same plan.
    const auto profile = qmodel.cost_profile();
    bool any_integer = false;
    for (const auto& l : profile) any_integer |= l.integer_path;
    EXPECT_TRUE(any_integer);
    const hw::CostModel cost(hw::device_spec(hw::Device::kJetsonOrinNano));
    auto weight_only = profile;
    for (auto& l : weight_only) l.integer_path = false;
    EXPECT_LE(cost.model_cost(profile).latency_s,
              cost.model_cost(weight_only).latency_s);

    // Training through the packed model is refused.
    std::vector<const data::Scene*> batch{&z.dataset().test.front()};
    EXPECT_THROW(qmodel.compute_loss_and_grad(batch), std::invalid_argument);
  }
  // The wrapper detaches its engines on destruction: float path is back.
  for (const auto& layer : model->layers())
    EXPECT_EQ(layer->engine(), nullptr) << layer->name();
  std::filesystem::remove_all(cfg.cache_dir, ec);
}

}  // namespace
}  // namespace upaq
