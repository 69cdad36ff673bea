#include "detectors/pointpillars.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "obs/obs.h"
#include "parallel/thread_pool.h"
#include "prof/prof.h"
#include "tensor/check.h"
#include "tensor/ops.h"

namespace upaq::detectors {

namespace {
constexpr int kPointFeatures = 9;  // x,y,z,i, offsets-from-mean, offsets-from-centre
constexpr int kRegChannels = 8;    // dx,dy,dz, log l,w,h, sin,cos
constexpr float kPi = 3.14159265358979f;

/// Wraps an angle to [-pi/2, pi/2) modulo pi (BEV boxes are pi-symmetric).
float wrap_half_pi(float a) {
  while (a >= kPi / 2) a -= kPi;
  while (a < -kPi / 2) a += kPi;
  return a;
}
}  // namespace

PointPillarsConfig PointPillarsConfig::scaled() { return PointPillarsConfig{}; }

PointPillarsConfig PointPillarsConfig::multiclass() {
  PointPillarsConfig cfg;
  // Anchor means match the scenario world's class size distributions
  // (eval::kClassCar / kClassPedestrian / kClassCyclist order).
  cfg.class_anchors = {{4.2f, 1.8f, 1.55f},   // car
                       {0.6f, 0.6f, 1.7f},    // pedestrian
                       {1.76f, 0.6f, 1.73f}}; // cyclist
  // Small classes produce weaker logits from few points; keep more
  // candidates and let NMS sort it out.
  cfg.score_threshold = 0.2f;
  cfg.max_detections = 60;
  return cfg;
}

PointPillarsConfig PointPillarsConfig::full() {
  PointPillarsConfig cfg;
  cfg.grid = 448;  // ~0.1 m pillars over the same range, KITTI-like
  cfg.max_points_per_pillar = 32;
  cfg.pfn_channels = 64;
  cfg.blocks = {{4, 64}, {6, 128}, {6, 256}};
  cfg.up_channels = 128;
  cfg.head_channels = 128;
  cfg.nominal_occupancy = 0.06;
  return cfg;
}

PointPillars::PointPillars(PointPillarsConfig cfg, Rng& rng) : cfg_(std::move(cfg)) {
  UPAQ_CHECK(cfg_.grid % 8 == 0, "grid must be divisible by 8");
  UPAQ_CHECK(cfg_.blocks.size() == 3, "PointPillars uses three backbone blocks");
  head_grid_ = cfg_.grid / 2;

  const int points_node = graph_.add_node("points", nullptr, {});

  // Pillar Feature Network: per-point linear (a bank of 1x1 kernels) + ReLU.
  pfn_ = add<nn::Linear>(kPointFeatures, cfg_.pfn_channels, true, rng, "pfn.linear");
  auto* pfn_relu = add<nn::Relu>("pfn.relu");
  const int pfn_node = graph_.add_node("pfn.linear", pfn_, {points_node});
  const int pfn_relu_node = graph_.add_node("pfn.relu", pfn_relu, {pfn_node});
  const int scatter_node = graph_.add_node("scatter", nullptr, {pfn_relu_node});

  // Backbone blocks; each block's first conv downsamples 2x.
  int in_ch = cfg_.pfn_channels;
  int prev_node = scatter_node;
  std::vector<int> block_out_nodes;
  for (std::size_t b = 0; b < cfg_.blocks.size(); ++b) {
    const auto [convs, channels] = cfg_.blocks[b];
    nn::Sequential seq;
    for (int c = 0; c < convs; ++c) {
      const std::string base = "block" + std::to_string(b) + ".conv" + std::to_string(c);
      const int stride = (c == 0) ? 2 : 1;
      auto* conv = add<nn::Conv2d>(in_ch, channels, 3, stride, 1, false, rng, base);
      auto* bn = add<nn::BatchNorm2d>(channels, rng,
                                      "block" + std::to_string(b) + ".bn" + std::to_string(c));
      auto* relu = add<nn::Relu>("block" + std::to_string(b) + ".relu" + std::to_string(c));
      seq.then(conv).then(bn).then(relu);
      const int conv_node = graph_.add_node(base, conv, {prev_node});
      const int bn_node = graph_.add_node(bn->name(), bn, {conv_node});
      prev_node = graph_.add_node(relu->name(), relu, {bn_node});
      in_ch = channels;
    }
    block_seq_.push_back(seq);
    block_out_nodes.push_back(prev_node);
  }

  // Lateral 1x1 convs + upsampling back to the head resolution (grid/2).
  std::vector<int> up_out_nodes;
  for (std::size_t b = 0; b < cfg_.blocks.size(); ++b) {
    const std::string base = "up" + std::to_string(b) + ".conv";
    auto* conv = add<nn::Conv2d>(cfg_.blocks[b].second, cfg_.up_channels, 1, 1, 0,
                                 false, rng, base);
    up_convs_.push_back(conv);
    nn::Sequential seq;
    seq.then(conv);
    int node = graph_.add_node(base, conv, {block_out_nodes[b]});
    const int factor = 1 << b;
    if (factor > 1) {
      auto* up = add<nn::Upsample>(factor, "up" + std::to_string(b) + ".upsample");
      seq.then(up);
      node = graph_.add_node(up->name(), up, {node});
    }
    up_seq_.push_back(seq);
    up_out_nodes.push_back(node);
  }
  const int concat_node = graph_.add_node("concat", nullptr, up_out_nodes);

  // Head trunk + SSD-style 1x1 prediction convs.
  auto* head_conv = add<nn::Conv2d>(3 * cfg_.up_channels, cfg_.head_channels, 3, 1, 1,
                                    false, rng, "head.conv0");
  auto* head_bn = add<nn::BatchNorm2d>(cfg_.head_channels, rng, "head.bn0");
  auto* head_relu = add<nn::Relu>("head.relu0");
  head_trunk_.then(head_conv).then(head_bn).then(head_relu);
  int node = graph_.add_node("head.conv0", head_conv, {concat_node});
  node = graph_.add_node("head.bn0", head_bn, {node});
  node = graph_.add_node("head.relu0", head_relu, {node});

  const int anchors = cfg_.anchor_count();
  cls_head_ = add<nn::Conv2d>(cfg_.head_channels, anchors, 1, 1, 0, true, rng,
                              "head.cls");
  reg_head_ = add<nn::Conv2d>(cfg_.head_channels, anchors * kRegChannels, 1, 1, 0,
                              true, rng, "head.reg");
  graph_.add_node("head.cls", cls_head_, {node});
  graph_.add_node("head.reg", reg_head_, {node});

  // Bias the classification head toward "background" so early training does
  // not drown in false positives (standard focal-loss init).
  cls_head_->bias()->value.fill(-2.5f);
}

PointPillars::Pillars PointPillars::pillarize(const data::Scene& scene) const {
  prof::Span span("pre.pillarize");
  const float pillar = cfg_.pillar_size();
  const int g = cfg_.grid;
  const int maxp = cfg_.max_points_per_pillar;

  // Bucket points by pillar cell.
  std::map<std::pair<int, int>, std::vector<const data::LidarPoint*>> buckets;
  for (const auto& p : scene.points) {
    if (p.x < cfg_.x_min || p.x >= cfg_.x_max || p.y < cfg_.y_min || p.y >= cfg_.y_max)
      continue;
    const int col = static_cast<int>((p.x - cfg_.x_min) / pillar);
    const int row = static_cast<int>((p.y - cfg_.y_min) / pillar);
    if (col < 0 || col >= g || row < 0 || row >= g) continue;
    buckets[{row, col}].push_back(&p);
  }

  Pillars out;
  const auto pillar_count = static_cast<std::int64_t>(buckets.size());
  out.features = Tensor({pillar_count * maxp, kPointFeatures});
  out.valid_counts.reserve(buckets.size());
  out.coords.reserve(buckets.size());
  std::int64_t pi = 0;
  for (const auto& [coord, pts] : buckets) {
    const int v = std::min<int>(static_cast<int>(pts.size()), maxp);
    // Mean of the pillar's points (for the offset features).
    float mx = 0, my = 0, mz = 0;
    for (int i = 0; i < v; ++i) {
      mx += pts[static_cast<std::size_t>(i)]->x;
      my += pts[static_cast<std::size_t>(i)]->y;
      mz += pts[static_cast<std::size_t>(i)]->z;
    }
    mx /= static_cast<float>(v);
    my /= static_cast<float>(v);
    mz /= static_cast<float>(v);
    const float cx = cfg_.x_min + (static_cast<float>(coord.second) + 0.5f) * pillar;
    const float cy = cfg_.y_min + (static_cast<float>(coord.first) + 0.5f) * pillar;
    for (int i = 0; i < v; ++i) {
      const auto& p = *pts[static_cast<std::size_t>(i)];
      float* f = out.features.data() + (pi * maxp + i) * kPointFeatures;
      f[0] = p.x / cfg_.x_max;  // normalized absolute position
      f[1] = p.y / cfg_.y_max;
      f[2] = p.z / 3.0f;
      f[3] = p.intensity;
      f[4] = p.x - mx;
      f[5] = p.y - my;
      f[6] = p.z - mz;
      f[7] = p.x - cx;
      f[8] = p.y - cy;
    }
    out.valid_counts.push_back(v);
    out.coords.push_back(coord);
    ++pi;
  }
  return out;
}

void PointPillars::pfn_pool_scatter(const Pillars& pil,
                                    const Tensor& point_feats,
                                    std::int64_t* argmax_out,
                                    float* pseudo_plane,
                                    const std::int64_t* row_start) const {
  const auto pillar_count = static_cast<std::int64_t>(pil.coords.size());
  const int maxp = cfg_.max_points_per_pillar;
  const int c = cfg_.pfn_channels;
  const int g = cfg_.grid;

  // Masked max over each pillar's valid points; remember winners for
  // backward when requested. Pillars are independent (disjoint writes into
  // pooled and the argmax table), so the pillar loop parallelises
  // deterministically.
  Tensor pooled({std::max<std::int64_t>(pillar_count, 1), c});
  {
    prof::Span pool_span("pfn.maxpool");
    parallel::parallel_for(0, pillar_count, 64, [&](std::int64_t p0,
                                                    std::int64_t p1) {
      for (std::int64_t p = p0; p < p1; ++p) {
        const int v = pil.valid_counts[static_cast<std::size_t>(p)];
        const std::int64_t r0 = row_start != nullptr ? row_start[p] : p * maxp;
        for (int ch = 0; ch < c; ++ch) {
          float best = -std::numeric_limits<float>::infinity();
          std::int64_t best_row = r0;
          for (int i = 0; i < v; ++i) {
            const float val = point_feats.at(r0 + i, ch);
            if (val > best) {
              best = val;
              best_row = r0 + i;
            }
          }
          pooled.at(p, ch) = best;
          if (argmax_out != nullptr) argmax_out[p * c + ch] = best_row;
        }
      }
    });
  }

  // Scatter pillar embeddings to the scene's pseudo-image plane. Pillar
  // coords are unique (one bucket per occupied cell), so the writes are
  // disjoint.
  {
    prof::Span scatter_span("pre.scatter");
    parallel::parallel_for(0, pillar_count, 256, [&](std::int64_t p0,
                                                     std::int64_t p1) {
      for (std::int64_t p = p0; p < p1; ++p) {
        const auto [row, col] = pil.coords[static_cast<std::size_t>(p)];
        for (int ch = 0; ch < c; ++ch)
          pseudo_plane[(static_cast<std::int64_t>(ch) * g + row) * g + col] =
              pooled.at(p, ch);
      }
    });
  }
}

void PointPillars::forward(const data::Scene& scene, ForwardState& state) {
  state.pillars = pillarize(scene);
  const auto& pil = state.pillars;
  const auto pillar_count = static_cast<std::int64_t>(pil.coords.size());
  const int c = cfg_.pfn_channels;

  // PFN: linear + relu on every (padded) point row.
  auto* pfn_relu = static_cast<nn::Relu*>(find_layer("pfn.relu"));
  Tensor point_feats =
      pfn_relu->forward(pfn_->forward(pil.features));  // (P*maxp, C)

  state.max_argmax.assign(static_cast<std::size_t>(pillar_count * c), 0);
  Tensor pseudo({1, c, cfg_.grid, cfg_.grid});
  pfn_pool_scatter(pil, point_feats, state.max_argmax.data(), pseudo.data());

  // Backbone + FPN-style concat + head.
  const Tensor b1 = block_seq_[0].forward(pseudo);
  const Tensor b2 = block_seq_[1].forward(b1);
  const Tensor b3 = block_seq_[2].forward(b2);
  const Tensor cat = nn::concat_channels(
      {up_seq_[0].forward(b1), up_seq_[1].forward(b2), up_seq_[2].forward(b3)});
  const Tensor trunk = head_trunk_.forward(cat);
  state.cls_logits = cls_head_->forward(trunk);
  state.reg_out = reg_head_->forward(trunk);
}

std::vector<PointPillars::HeadOutput> PointPillars::forward_batch(
    const std::vector<const Pillars*>& batch) {
  UPAQ_CHECK(!batch.empty(), "forward_batch: empty batch");
  prof::Span span("detect.batch", std::to_string(batch.size()) + " scenes");
  set_training(false);
  const auto b_count = static_cast<std::int64_t>(batch.size());
  const int c = cfg_.pfn_channels;
  const int g = cfg_.grid;

  // PFN (linear with its ReLU fused into the output store) over each
  // scene's own point rows. Running scenes separately keeps every scene's
  // embedding independent of its batch-mates: the packed linear quantizes
  // its input with one activation scale per call. Only each pillar's valid
  // rows go in: the padding rows are all-zero, so dropping them changes
  // neither the activation abs-max nor any code, and both the fp32 and the
  // packed linear compute each row on its own.
  auto* pfn_relu = static_cast<nn::Relu*>(find_layer("pfn.relu"));
  const int maxp = cfg_.max_points_per_pillar;
  Tensor pseudo({b_count, c, g, g});
  std::vector<std::int64_t> row_start;
  for (std::int64_t b = 0; b < b_count; ++b) {
    const Pillars& pil = *batch[static_cast<std::size_t>(b)];
    if (pil.features.dim(0) == 0) continue;  // empty scene: all-zero plane
    const std::size_t pillars = pil.valid_counts.size();
    row_start.resize(pillars + 1);
    row_start[0] = 0;
    for (std::size_t p = 0; p < pillars; ++p)
      row_start[p + 1] = row_start[p] + pil.valid_counts[p];
    Tensor points({row_start[pillars], kPointFeatures});
    for (std::size_t p = 0; p < pillars; ++p)
      std::copy_n(pil.features.data() +
                      static_cast<std::int64_t>(p) * maxp * kPointFeatures,
                  pil.valid_counts[p] * kPointFeatures,
                  points.data() + row_start[p] * kPointFeatures);
    const Tensor point_feats = pfn_->forward(points, {.act = pfn_relu});
    pfn_pool_scatter(pil, point_feats, /*argmax_out=*/nullptr,
                     pseudo.data() + b * c * g * g, row_start.data());
  }

  // Backbone + FPN-style concat + head over the batched pseudo-image. Every
  // layer treats batch items independently (disjoint per-item writes), so
  // the batch composition cannot perturb any scene's outputs. The eval-mode
  // Sequentials run each Conv -> BN -> ReLU as one fused call, and each
  // lateral conv writes its output, nearest-neighbour upsampled, straight
  // into its channel slice of the head's concat input.
  const Tensor b1 = block_seq_[0].forward(pseudo);
  const Tensor b2 = block_seq_[1].forward(b1);
  const Tensor b3 = block_seq_[2].forward(b2);
  const Tensor* branches[] = {&b1, &b2, &b3};
  Tensor cat({b_count, 3 * cfg_.up_channels, head_grid_, head_grid_});
  for (std::size_t i = 0; i < up_convs_.size(); ++i)
    up_convs_[i]->forward(
        *branches[i],
        {.into = &cat,
         .into_factor = 1 << i,
         .into_channel = static_cast<std::int64_t>(i) * cfg_.up_channels});
  const Tensor trunk = head_trunk_.forward(cat);
  // Both prediction convs read the trunk: a packed engine quantizes it once.
  nn::SharedInput trunk_share;
  Tensor cls = cls_head_->forward(trunk, {.share = &trunk_share});
  Tensor reg = reg_head_->forward(trunk, {.share = &trunk_share});

  // Slice the contiguous NCHW batch planes back into per-scene outputs.
  std::vector<HeadOutput> out(batch.size());
  if (b_count == 1) {
    out[0] = {std::move(cls), std::move(reg)};
    return out;
  }
  const std::int64_t cls_plane = cls.numel() / b_count;
  const std::int64_t reg_plane = reg.numel() / b_count;
  for (std::int64_t b = 0; b < b_count; ++b) {
    HeadOutput& h = out[static_cast<std::size_t>(b)];
    h.cls_logits = Tensor({1, cls.dim(1), cls.dim(2), cls.dim(3)});
    std::copy(cls.data() + b * cls_plane, cls.data() + (b + 1) * cls_plane,
              h.cls_logits.data());
    h.reg_out = Tensor({1, reg.dim(1), reg.dim(2), reg.dim(3)});
    std::copy(reg.data() + b * reg_plane, reg.data() + (b + 1) * reg_plane,
              h.reg_out.data());
  }
  return out;
}

void PointPillars::backward(const ForwardState& state, const Tensor& grad_cls,
                            const Tensor& grad_reg) {
  Tensor gt = cls_head_->backward(grad_cls);
  gt.add_(reg_head_->backward(grad_reg));
  const Tensor gcat = head_trunk_.backward(gt);
  auto gs = nn::split_channels(
      gcat, {cfg_.up_channels, cfg_.up_channels, cfg_.up_channels});
  Tensor gb3 = up_seq_[2].backward(gs[2]);
  Tensor gb2 = up_seq_[1].backward(gs[1]);
  gb2.add_(block_seq_[2].backward(gb3));
  Tensor gb1 = up_seq_[0].backward(gs[0]);
  gb1.add_(block_seq_[1].backward(gb2));
  const Tensor gpseudo = block_seq_[0].backward(gb1);

  // Scatter backward -> pooled grads -> max backward -> PFN backward.
  const auto& pil = state.pillars;
  const auto pillar_count = static_cast<std::int64_t>(pil.coords.size());
  const int c = cfg_.pfn_channels;
  Tensor grad_rows({pil.features.dim(0), c});
  for (std::int64_t p = 0; p < pillar_count; ++p) {
    const auto [row, col] = pil.coords[static_cast<std::size_t>(p)];
    for (int ch = 0; ch < c; ++ch) {
      const float g = gpseudo.at(0, ch, row, col);
      if (g == 0.0f) continue;
      const std::int64_t winner =
          state.max_argmax[static_cast<std::size_t>(p * c + ch)];
      grad_rows.at(winner, ch) += g;
    }
  }
  auto* pfn_relu = static_cast<nn::Relu*>(find_layer("pfn.relu"));
  pfn_->backward(pfn_relu->backward(grad_rows));
}

std::vector<eval::Box3D> PointPillars::decode(const Tensor& cls_logits,
                                              const Tensor& reg_out) const {
  prof::Span span("post.nms");
  const int g2 = head_grid_;
  const float cell = cfg_.pillar_size() * 2.0f;
  std::vector<eval::Box3D> cands;
  // Anchor layout: [class0-yaw0, class0-yaw90, class1-yaw0, ...]. The
  // single-class default reduces to the historical two-anchor car head.
  for (int a = 0; a < cfg_.anchor_count(); ++a) {
    const int cls = a / 2;
    const auto anc = cfg_.anchor(cls);
    const float anchor_yaw = a % 2 == 0 ? 0.0f : kPi / 2;
    for (int r = 0; r < g2; ++r) {
      for (int col = 0; col < g2; ++col) {
        const float score = ops::sigmoid(cls_logits.at(0, a, r, col));
        if (score < cfg_.score_threshold) continue;
        const auto reg_at = [&](int ch) {
          return reg_out.at(0, a * kRegChannels + ch, r, col);
        };
        eval::Box3D box;
        const float ccx = cfg_.x_min + (static_cast<float>(col) + 0.5f) * cell;
        const float ccy = cfg_.y_min + (static_cast<float>(r) + 0.5f) * cell;
        box.x = ccx + reg_at(0) * cell;
        box.y = ccy + reg_at(1) * cell;
        box.z = anc.height * 0.5f + reg_at(2);
        box.length = anc.length * std::exp(std::clamp(reg_at(3), -2.0f, 2.0f));
        box.width = anc.width * std::exp(std::clamp(reg_at(4), -2.0f, 2.0f));
        box.height = anc.height * std::exp(std::clamp(reg_at(5), -2.0f, 2.0f));
        box.yaw = anchor_yaw + std::atan2(reg_at(6), reg_at(7));
        box.score = score;
        box.label = cls;
        cands.push_back(box);
      }
    }
  }
  auto kept = eval::nms_bev(std::move(cands), cfg_.nms_iou);
  if (static_cast<int>(kept.size()) > cfg_.max_detections)
    kept.resize(static_cast<std::size_t>(cfg_.max_detections));
  return kept;
}

std::vector<eval::Box3D> PointPillars::detect(const data::Scene& scene) {
  prof::Span span("detect", "PointPillars");
  obs::ScopedTimer timer(obs::Hist::kDetect);
  obs::add(obs::Counter::kDetects);
  const Pillars pil = pillarize(scene);
  const auto heads = forward_batch({&pil});
  return decode(heads[0].cls_logits, heads[0].reg_out);
}

double PointPillars::compute_loss_and_grad(
    const std::vector<const data::Scene*>& batch) {
  UPAQ_CHECK(!batch.empty(), "empty batch");
  set_training(true);
  const int g2 = head_grid_;
  const int anchors = cfg_.anchor_count();
  const float cell = cfg_.pillar_size() * 2.0f;
  double total_loss = 0.0;
  const float inv_batch = 1.0f / static_cast<float>(batch.size());

  for (const auto* scene : batch) {
    ForwardState state;
    forward(*scene, state);

    // Build targets: -1 ignore, 0 negative, 1 positive, per (anchor, cell).
    std::vector<int> cls_target(static_cast<std::size_t>(anchors * g2 * g2), 0);
    Tensor reg_target({anchors * kRegChannels, g2, g2});
    std::vector<bool> has_reg(static_cast<std::size_t>(anchors * g2 * g2), false);
    int num_pos = 0;
    for (const auto& gtb : scene->objects) {
      const int col = static_cast<int>((gtb.x - cfg_.x_min) / cell);
      const int row = static_cast<int>((gtb.y - cfg_.y_min) / cell);
      if (col < 0 || col >= g2 || row < 0 || row >= g2) continue;
      // Anchor = class pair + yaw bin. Out-of-range labels clamp to the
      // last class so a single-class model trained on multi-class scenes
      // still learns them as its one class.
      const int cls = std::clamp(gtb.label, 0, cfg_.num_classes() - 1);
      const auto anc = cfg_.anchor(cls);
      const float wrapped = wrap_half_pi(gtb.yaw);
      const int a = cls * 2 + (std::fabs(wrapped) > kPi / 4 ? 1 : 0);
      const float anchor_yaw = a % 2 == 0 ? 0.0f : kPi / 2;
      const float delta = wrap_half_pi(gtb.yaw - anchor_yaw);
      const std::size_t idx =
          static_cast<std::size_t>((a * g2 + row) * g2 + col);
      if (cls_target[idx] == 1) continue;  // cell already taken
      cls_target[idx] = 1;
      has_reg[idx] = true;
      ++num_pos;
      const float ccx = cfg_.x_min + (static_cast<float>(col) + 0.5f) * cell;
      const float ccy = cfg_.y_min + (static_cast<float>(row) + 0.5f) * cell;
      reg_target.at(a * kRegChannels + 0, row, col) = (gtb.x - ccx) / cell;
      reg_target.at(a * kRegChannels + 1, row, col) = (gtb.y - ccy) / cell;
      reg_target.at(a * kRegChannels + 2, row, col) =
          gtb.z - anc.height * 0.5f;
      reg_target.at(a * kRegChannels + 3, row, col) =
          std::log(gtb.length / anc.length);
      reg_target.at(a * kRegChannels + 4, row, col) =
          std::log(gtb.width / anc.width);
      reg_target.at(a * kRegChannels + 5, row, col) =
          std::log(gtb.height / anc.height);
      reg_target.at(a * kRegChannels + 6, row, col) = std::sin(delta);
      reg_target.at(a * kRegChannels + 7, row, col) = std::cos(delta);
      // Ignore the 8-neighbourhood of the positive for the same anchor so
      // near-duplicates are not pushed toward background.
      for (int dr = -1; dr <= 1; ++dr) {
        for (int dc = -1; dc <= 1; ++dc) {
          const int nr = row + dr, nc = col + dc;
          if (nr < 0 || nr >= g2 || nc < 0 || nc >= g2 || (dr == 0 && dc == 0))
            continue;
          const std::size_t nidx =
              static_cast<std::size_t>((a * g2 + nr) * g2 + nc);
          if (cls_target[nidx] == 0) cls_target[nidx] = -1;
        }
      }
    }
    const float norm = 1.0f / static_cast<float>(std::max(num_pos, 1));

    // Classification focal loss + gradients.
    Tensor grad_cls(state.cls_logits.shape());
    double cls_loss = 0.0;
    for (int a = 0; a < anchors; ++a) {
      for (int r = 0; r < g2; ++r) {
        for (int col = 0; col < g2; ++col) {
          const std::size_t idx =
              static_cast<std::size_t>((a * g2 + r) * g2 + col);
          if (cls_target[idx] == -1) continue;
          float grad = 0.0f;
          cls_loss += train::focal_bce(state.cls_logits.at(0, a, r, col),
                                       cls_target[idx] == 1, cfg_.focal_alpha,
                                       cfg_.focal_gamma, grad);
          grad_cls.at(0, a, r, col) = grad * norm * inv_batch;
        }
      }
    }
    cls_loss *= norm;

    // Regression smooth-L1 on positive cells.
    Tensor grad_reg(state.reg_out.shape());
    double reg_loss = 0.0;
    for (int a = 0; a < anchors; ++a) {
      for (int r = 0; r < g2; ++r) {
        for (int col = 0; col < g2; ++col) {
          const std::size_t idx =
              static_cast<std::size_t>((a * g2 + r) * g2 + col);
          if (!has_reg[idx]) continue;
          for (int ch = 0; ch < kRegChannels; ++ch) {
            float grad = 0.0f;
            reg_loss += train::smooth_l1(
                state.reg_out.at(0, a * kRegChannels + ch, r, col),
                reg_target.at(a * kRegChannels + ch, r, col), 0.5f, grad);
            grad_reg.at(0, a * kRegChannels + ch, r, col) =
                cfg_.reg_weight * grad * norm * inv_batch;
          }
        }
      }
    }
    reg_loss *= norm * cfg_.reg_weight;

    total_loss += cls_loss + reg_loss;
    backward(state, grad_cls, grad_reg);
  }
  return total_loss / static_cast<double>(batch.size());
}

std::vector<hw::LayerProfile> PointPillars::cost_profile() const {
  return cost_profile_for(cfg_);
}

std::vector<hw::LayerProfile> PointPillars::cost_profile_for(
    const PointPillarsConfig& cfg) {
  std::vector<hw::LayerProfile> out;
  const auto g = static_cast<std::int64_t>(cfg.grid);
  const auto pillars = static_cast<std::int64_t>(
      cfg.nominal_occupancy * static_cast<double>(g) * static_cast<double>(g));
  const std::int64_t points = pillars * cfg.max_points_per_pillar;

  // Pre-processing: point binning into pillars (serial host work) and the
  // pillar->pseudo-image scatter (random-access memory op). Neither has
  // weights, so no compression framework ever touches them — they are the
  // incompressible fraction that caps end-to-end speedup on the Orin.
  {
    hw::LayerProfile p;
    p.name = "pre.pillarize";
    p.serial_ops = points * 6;
    p.in_elems = points * 4;
    p.out_elems = points * kPointFeatures;
    out.push_back(p);
  }
  {
    hw::LayerProfile p;
    p.name = "pre.scatter";
    p.serial_ops = pillars;
    p.in_elems = pillars * cfg.pfn_channels;
    p.out_elems = g * g * cfg.pfn_channels;
    out.push_back(p);
  }

  {
    hw::LayerProfile p;
    p.name = "pfn.linear";
    p.weight_count = static_cast<std::int64_t>(kPointFeatures) * cfg.pfn_channels;
    p.macs = points * kPointFeatures * cfg.pfn_channels;
    p.in_elems = points * kPointFeatures;
    p.out_elems = points * cfg.pfn_channels;
    out.push_back(p);
  }

  auto conv_profile = [&](const std::string& name, std::int64_t in_c,
                          std::int64_t out_c, int k, std::int64_t oh,
                          std::int64_t ow) {
    hw::LayerProfile p;
    p.name = name;
    p.weight_count = in_c * out_c * k * k;
    p.macs = p.weight_count * oh * ow;
    p.in_elems = in_c * oh * ow;  // approx: same-resolution read
    p.out_elems = out_c * oh * ow;
    out.push_back(p);
  };
  auto bn_profile = [&](const std::string& name, std::int64_t c, std::int64_t oh,
                        std::int64_t ow) {
    hw::LayerProfile p;
    p.name = name;
    p.weight_count = 2 * c;
    p.macs = 2 * c * oh * ow;
    p.in_elems = c * oh * ow;
    p.out_elems = c * oh * ow;
    out.push_back(p);
  };

  std::int64_t size = g;
  std::int64_t in_c = cfg.pfn_channels;
  for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
    const auto [convs, channels] = cfg.blocks[b];
    size /= 2;
    for (int c = 0; c < convs; ++c) {
      const std::string base = "block" + std::to_string(b);
      conv_profile(base + ".conv" + std::to_string(c), in_c, channels, 3, size, size);
      bn_profile(base + ".bn" + std::to_string(c), channels, size, size);
      in_c = channels;
    }
  }
  const std::int64_t head_size = g / 2;
  std::int64_t up_size = g;
  for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
    up_size /= 2;
    conv_profile("up" + std::to_string(b) + ".conv", cfg.blocks[b].second,
                 cfg.up_channels, 1, up_size, up_size);
  }
  conv_profile("head.conv0", 3 * cfg.up_channels, cfg.head_channels, 3,
               head_size, head_size);
  bn_profile("head.bn0", cfg.head_channels, head_size, head_size);
  const std::int64_t anchors = cfg.anchor_count();
  conv_profile("head.cls", cfg.head_channels, anchors, 1, head_size, head_size);
  conv_profile("head.reg", cfg.head_channels, anchors * kRegChannels, 1,
               head_size, head_size);
  {
    // Post-processing: box decode + NMS on the host.
    hw::LayerProfile p;
    p.name = "post.nms";
    p.serial_ops = head_size * head_size * anchors * 4;
    p.in_elems = head_size * head_size * anchors * (1 + kRegChannels);
    p.out_elems = 1024;
    out.push_back(p);
  }
  return out;
}

}  // namespace upaq::detectors
