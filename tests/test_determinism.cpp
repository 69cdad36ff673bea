// Determinism suite: every parallel kernel must produce bitwise-identical
// results with UPAQ_THREADS=1 and UPAQ_THREADS=4. This holds because chunk
// boundaries depend only on the loop range (never the thread count) and all
// cross-chunk reductions are combined in chunk order on one thread — no
// atomics on floats anywhere.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "data/scene.h"
#include "detectors/pointpillars.h"
#include "detectors/smoke.h"
#include "nn/module.h"
#include "parallel/thread_pool.h"
#include "tensor/ops.h"
#include "test_util.h"

namespace upaq {
namespace {

void expect_bitwise_equal(const Tensor& a, const Tensor& b,
                          const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  for (std::int64_t i = 0; i < a.numel(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint32_t>(a[i]),
              std::bit_cast<std::uint32_t>(b[i]))
        << what << " diverges at flat index " << i << ": " << a[i] << " vs "
        << b[i];
}

/// Runs `fn` once at 1 thread and once at 4, restoring 1 thread after, and
/// returns the two results for comparison.
std::pair<Tensor, Tensor> run_both(const std::function<Tensor()>& fn) {
  parallel::set_thread_count(1);
  Tensor serial = fn();
  parallel::set_thread_count(4);
  Tensor parallel_result = fn();
  parallel::set_thread_count(1);
  return {std::move(serial), std::move(parallel_result)};
}

TEST(Determinism, GemmAccumulate) {
  Rng rng(100);
  const Tensor a = Tensor::uniform({57, 43}, rng);
  const Tensor b = Tensor::uniform({43, 61}, rng);
  const Tensor c0 = Tensor::uniform({57, 61}, rng);
  auto [s, p] = run_both([&] {
    Tensor c = c0.clone();
    ops::gemm_accumulate(a, b, c, 0.7f);
    return c;
  });
  expect_bitwise_equal(s, p, "gemm_accumulate");
}

TEST(Determinism, GemmAccumulateBlockedStripes) {
  // Large enough to cross multiple kNC=256 column stripes and kKC=256 k
  // slabs, so the cache-blocked panel kernel runs with a multi-chunk
  // parallel decomposition — 1-thread vs 4-thread must stay bitwise equal.
  Rng rng(110);
  const Tensor a = Tensor::uniform({150, 260}, rng);
  const Tensor b = Tensor::uniform({260, 530}, rng);
  const Tensor c0 = Tensor::uniform({150, 530}, rng);
  auto [s, p] = run_both([&] {
    Tensor c = c0.clone();
    ops::gemm_accumulate(a, b, c, 1.3f);
    return c;
  });
  expect_bitwise_equal(s, p, "gemm_accumulate (blocked, multi-stripe)");
}

TEST(Determinism, GemmNtAccumulateBlockedStripes) {
  Rng rng(111);
  const Tensor a = Tensor::uniform({70, 300}, rng);
  const Tensor b = Tensor::uniform({280, 300}, rng);
  auto [s, p] = run_both([&] {
    Tensor c({70, 280});
    ops::gemm_nt_accumulate(a, b, c, 0.9f);
    return c;
  });
  expect_bitwise_equal(s, p, "gemm_nt_accumulate (blocked, multi-stripe)");
}

TEST(Determinism, GemmNtAccumulate) {
  Rng rng(101);
  const Tensor a = Tensor::uniform({37, 129}, rng);
  const Tensor b = Tensor::uniform({41, 129}, rng);
  auto [s, p] = run_both([&] {
    Tensor c({37, 41});
    ops::gemm_nt_accumulate(a, b, c);
    return c;
  });
  expect_bitwise_equal(s, p, "gemm_nt_accumulate");
}

TEST(Determinism, Im2colAndBatchView) {
  Rng rng(102);
  const Tensor x = Tensor::uniform({3, 6, 31, 29}, rng);
  auto [s, p] = run_both([&] { return ops::im2col(x, 1, 3, 3, 2, 1); });
  expect_bitwise_equal(s, p, "im2col (batched view)");

  // The batch-offset view must also match lowering an explicit (C,H,W) copy.
  Tensor item({6, 31, 29});
  const std::int64_t count = item.numel();
  std::copy(x.data() + count, x.data() + 2 * count, item.data());
  expect_bitwise_equal(ops::im2col(item, 3, 3, 2, 1), s,
                       "im2col view vs copied item");
}

TEST(Determinism, Col2im) {
  Rng rng(103);
  const Tensor cols = Tensor::uniform({6 * 9, 16 * 15}, rng);
  auto [s, p] = run_both([&] { return ops::col2im(cols, 6, 31, 29, 3, 3, 2, 1); });
  expect_bitwise_equal(s, p, "col2im");
}

TEST(Determinism, ElementwiseOps) {
  Rng rng(104);
  const Tensor a0 = Tensor::uniform({100000}, rng);
  const Tensor b = Tensor::uniform({100000}, rng);
  auto [s, p] = run_both([&] {
    Tensor a = a0.clone();
    a.add_(b);
    a.mul_(b);
    a.scale_(1.37f);
    ops::clamp_min_(a, -0.25f);
    ops::sigmoid_(a);
    return a;
  });
  expect_bitwise_equal(s, p, "elementwise chain");
}

TEST(Determinism, Conv2dForwardBackward) {
  auto run = [&](Tensor& grad_w, Tensor& grad_b, Tensor& grad_x) {
    Rng rng(105);  // identical weights in both runs
    nn::Conv2d conv(3, 5, 3, 2, 1, true, rng, "c");
    conv.set_training(true);
    Rng drng(106);
    const Tensor x = Tensor::uniform({4, 3, 14, 14}, drng);
    const Tensor y = conv.forward(x);
    const Tensor g = Tensor::uniform(y.shape(), drng);
    grad_x = conv.backward(g);
    grad_w = conv.weight().grad.clone();
    grad_b = conv.bias()->grad.clone();
    return y;
  };
  parallel::set_thread_count(1);
  Tensor gw1, gb1, gx1;
  const Tensor y1 = run(gw1, gb1, gx1);
  parallel::set_thread_count(4);
  Tensor gw4, gb4, gx4;
  const Tensor y4 = run(gw4, gb4, gx4);
  parallel::set_thread_count(1);
  expect_bitwise_equal(y1, y4, "conv forward");
  expect_bitwise_equal(gx1, gx4, "conv input grad");
  expect_bitwise_equal(gw1, gw4, "conv weight grad");
  expect_bitwise_equal(gb1, gb4, "conv bias grad");
}

TEST(Determinism, PointPillarsForwardAndGradients) {
  auto cfg = detectors::PointPillarsConfig::scaled();
  cfg.grid = 32;
  cfg.pfn_channels = 8;
  cfg.blocks = {{1, 8}, {1, 12}, {1, 16}};
  cfg.up_channels = 8;
  cfg.head_channels = 16;
  cfg.score_threshold = 0.0f;  // decode every cell so outputs carry signal

  Rng srng(107);
  const data::Scene scene = data::SceneGenerator().sample(srng);

  auto detect_once = [&]() {
    Rng rng(108);
    detectors::PointPillars model(cfg, rng);
    return model.detect(scene);
  };
  auto grads_once = [&]() {
    Rng rng(108);
    detectors::PointPillars model(cfg, rng);
    model.zero_grad();
    std::vector<const data::Scene*> batch{&scene};
    const double loss = model.compute_loss_and_grad(batch);
    std::vector<float> flat{static_cast<float>(loss)};
    for (auto* param : model.parameters())
      for (std::int64_t i = 0; i < param->grad.numel(); ++i)
        flat.push_back(param->grad[i]);
    const std::int64_t count = static_cast<std::int64_t>(flat.size());
    return Tensor({count}, std::move(flat));
  };

  parallel::set_thread_count(1);
  const auto boxes1 = detect_once();
  parallel::set_thread_count(4);
  const auto boxes4 = detect_once();
  parallel::set_thread_count(1);

  ASSERT_FALSE(boxes1.empty());
  ASSERT_EQ(boxes1.size(), boxes4.size());
  for (std::size_t i = 0; i < boxes1.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(boxes1[i].score),
              std::bit_cast<std::uint32_t>(boxes4[i].score))
        << "box " << i;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(boxes1[i].x),
              std::bit_cast<std::uint32_t>(boxes4[i].x))
        << "box " << i;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(boxes1[i].y),
              std::bit_cast<std::uint32_t>(boxes4[i].y))
        << "box " << i;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(boxes1[i].yaw),
              std::bit_cast<std::uint32_t>(boxes4[i].yaw))
        << "box " << i;
  }

  auto [g1, g4] = run_both(grads_once);
  expect_bitwise_equal(g1, g4, "pointpillars loss+grads");
}

// ---------------------------------------------- detectors: fused inference

using testing::expect_same_boxes;

/// Non-trivial eval statistics for every BatchNorm, so the fused BN terms
/// actually move the outputs.
void randomize_bn(nn::Module& m, Rng& rng) {
  for (const auto& l : m.layers())
    if (auto* bn = dynamic_cast<nn::BatchNorm2d*>(l.get())) {
      const std::int64_t c = bn->channels();
      bn->gamma().value = Tensor::uniform({c}, rng, 0.5f, 1.5f);
      bn->beta().value = Tensor::uniform({c}, rng, -0.3f, 0.3f);
      bn->running_mean() = Tensor::uniform({c}, rng, -0.3f, 0.3f);
      bn->running_var() = Tensor::uniform({c}, rng, 0.5f, 2.0f);
    }
}

detectors::PointPillarsConfig tiny_pp() {
  auto cfg = detectors::PointPillarsConfig::scaled();
  cfg.grid = 32;
  cfg.pfn_channels = 8;
  cfg.blocks = {{2, 8}, {1, 12}, {1, 16}};
  cfg.up_channels = 8;
  cfg.head_channels = 16;
  cfg.score_threshold = 0.0f;  // decode every cell so outputs carry signal
  return cfg;
}

detectors::SmokeConfig tiny_smoke() {
  auto cfg = detectors::SmokeConfig::scaled();
  cfg.camera.width = 64;
  cfg.camera.height = 48;
  cfg.camera.cx = 32.0f;
  cfg.camera.cy = 26.0f;
  cfg.camera.fx = 60.0f;
  cfg.camera.fy = 60.0f;
  cfg.stem_channels = 6;
  cfg.stages = {{1, 8}, {2, 12}, {1, 16}};
  cfg.up_channels = 12;
  cfg.head_channels = 12;
  cfg.score_threshold = 0.0f;  // every heatmap peak up to top_k
  return cfg;
}

/// detect() spelled out layer by layer — every layer's own forward(), the
/// standalone BN / ReLU / Upsample and an explicit concat — the unfused
/// reference the fused inference path must reproduce bitwise.
std::vector<eval::Box3D> pp_layer_by_layer(detectors::PointPillars& m,
                                           const data::Scene& scene) {
  const auto& cfg = m.config();
  const auto L = [&](const std::string& name) {
    nn::Layer* l = m.find_layer(name);
    EXPECT_NE(l, nullptr) << name;
    return l;
  };
  const auto pil = m.pillarize(scene);
  const Tensor feats =
      L("pfn.relu")->forward(L("pfn.linear")->forward(pil.features));
  const int c = cfg.pfn_channels, g = cfg.grid;
  const int maxp = cfg.max_points_per_pillar;
  Tensor pseudo({1, c, g, g});
  for (std::size_t p = 0; p < pil.coords.size(); ++p) {
    const auto [row, col] = pil.coords[p];
    for (int ch = 0; ch < c; ++ch) {
      float best = -std::numeric_limits<float>::infinity();
      for (int i = 0; i < pil.valid_counts[p]; ++i)
        best = std::max(best, feats.at(static_cast<std::int64_t>(p) * maxp + i,
                                       ch));
      pseudo.at(0, ch, row, col) = best;
    }
  }
  Tensor y = pseudo;
  std::vector<Tensor> ups;
  for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
    const std::string base = "block" + std::to_string(b);
    for (int i = 0; i < cfg.blocks[b].first; ++i) {
      const std::string k = std::to_string(i);
      y = L(base + ".conv" + k)->forward(y);
      y = L(base + ".bn" + k)->forward(y);
      y = L(base + ".relu" + k)->forward(y);
    }
    const std::string up = "up" + std::to_string(b);
    Tensor u = L(up + ".conv")->forward(y);
    if (b > 0) u = L(up + ".upsample")->forward(u);
    ups.push_back(std::move(u));
  }
  Tensor t = L("head.conv0")->forward(nn::concat_channels(ups));
  t = L("head.relu0")->forward(L("head.bn0")->forward(t));
  return m.decode(L("head.cls")->forward(t), L("head.reg")->forward(t));
}

std::vector<eval::Box3D> smoke_layer_by_layer(detectors::Smoke& m,
                                              const data::Scene& scene) {
  const auto& cfg = m.config();
  const auto L = [&](const std::string& name) {
    nn::Layer* l = m.find_layer(name);
    EXPECT_NE(l, nullptr) << name;
    return l;
  };
  const auto cbr = [&](const std::string& base, Tensor x) {
    x = L(base + ".conv")->forward(x);
    x = L(base + ".bn")->forward(x);
    return L(base + ".relu")->forward(x);
  };
  Tensor y = cbr("stem", m.render(scene).reshape(
                             {1, 3, cfg.camera.height, cfg.camera.width}));
  for (std::size_t s = 0; s < cfg.stages.size(); ++s) {
    const std::string base = "stage" + std::to_string(s);
    y = cbr(base + ".down", y);
    for (int u = 0; u < cfg.stages[s].first; ++u) {
      const std::string ub = base + ".res" + std::to_string(u);
      Tensor t = L(ub + ".bn")->forward(L(ub + ".conv")->forward(y));
      t.add_(y);
      y = L(ub + ".relu")->forward(t);
    }
  }
  if (nn::Layer* up = m.find_layer("neck.upsample")) y = up->forward(y);
  y = cbr("neck", y);
  const Tensor hm =
      L("hm.out")->forward(L("hm.relu")->forward(L("hm.conv")->forward(y)));
  const Tensor reg =
      L("reg.out")->forward(L("reg.relu")->forward(L("reg.conv")->forward(y)));
  return m.decode(hm, reg);
}

data::Scene determinism_scene() {
  Rng srng(107);
  return data::SceneGenerator().sample(srng);
}

std::unique_ptr<detectors::PointPillars> make_pp(bool lowered) {
  Rng rng(108);
  auto m = std::make_unique<detectors::PointPillars>(tiny_pp(), rng);
  randomize_bn(*m, rng);
  m->set_training(false);
  if (lowered) EXPECT_GT(testing::lower_all_cycling_kernels(*m), 0);
  return m;
}

std::unique_ptr<detectors::Smoke> make_smoke(bool lowered) {
  Rng rng(109);
  auto m = std::make_unique<detectors::Smoke>(tiny_smoke(), rng);
  randomize_bn(*m, rng);
  m->set_training(false);
  if (lowered) EXPECT_GT(testing::lower_all_cycling_kernels(*m), 0);
  return m;
}

TEST(Determinism, SmokeDetectThreadCountInvariantFp32AndLowered) {
  const data::Scene scene = determinism_scene();
  for (const bool lowered : {false, true}) {
    auto m = make_smoke(lowered);
    parallel::set_thread_count(1);
    const auto boxes1 = m->detect(scene);
    parallel::set_thread_count(4);
    const auto boxes4 = m->detect(scene);
    parallel::set_thread_count(1);
    ASSERT_FALSE(boxes1.empty());
    expect_same_boxes(boxes1, boxes4,
                      lowered ? "smoke lowered 1v4" : "smoke fp32 1v4");
  }
}

TEST(Determinism, DetectFusedMatchesLayerByLayerFp32AndLowered) {
  const data::Scene scene = determinism_scene();
  for (const bool lowered : {false, true}) {
    const std::string tag = lowered ? " lowered" : " fp32";
    auto pp = make_pp(lowered);
    auto smoke = make_smoke(lowered);
    for (const int threads : {1, 4}) {
      parallel::set_thread_count(threads);
      const std::string at = tag + " threads=" + std::to_string(threads);
      const auto pp_fused = pp->detect(scene);
      ASSERT_FALSE(pp_fused.empty());
      expect_same_boxes(pp_fused, pp_layer_by_layer(*pp, scene),
                        "pointpillars" + at);
      const auto smoke_fused = smoke->detect(scene);
      ASSERT_FALSE(smoke_fused.empty());
      expect_same_boxes(smoke_fused, smoke_layer_by_layer(*smoke, scene),
                        "smoke" + at);
    }
    parallel::set_thread_count(1);
  }
}

}  // namespace
}  // namespace upaq
