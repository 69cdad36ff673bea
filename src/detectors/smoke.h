// SMOKE: single-stage monocular 3-D detector via keypoint estimation
// (Liu et al., CVPRW 2020), reimplemented from scratch at configurable width.
//
// Pipeline: a ResNet-style backbone with residual stages (the residual adds
// give Algorithm 1 genuinely branched channel-coupled groups), an upsampling
// neck back to stride 4, a CenterNet-style keypoint heatmap head and a 3-D
// regression head (sub-pixel offset, depth, dimensions, yaw). Detected
// keypoints are uplifted to 3-D boxes through the pinhole camera intrinsics
// — monocular depth is regressed, which is exactly why SMOKE's mAP is far
// below the LiDAR detector's, as in the paper.
#pragma once

#include <utility>

#include "detectors/detector.h"
#include "train/losses.h"

namespace upaq::detectors {

struct SmokeConfig {
  data::Camera camera;  ///< also defines input resolution

  int stem_channels = 16;
  /// Residual stages as (extra_residual_convs, channels); every stage opens
  /// with a stride-2 conv, then `extra` residual 3x3 convs at that width.
  std::vector<std::pair<int, int>> stages = {{1, 24}, {1, 48}, {1, 64}};
  int up_channels = 48;
  int head_channels = 48;

  // Depth encoding: depth = depth_ref * exp(pred).
  float depth_ref = 18.0f;
  float depth_min = 2.0f, depth_max = 46.0f;

  // Mean car dims for the dimension regression.
  float dim_length = 4.2f, dim_width = 1.8f, dim_height = 1.55f;

  /// Per-class dimension priors, indexed by eval class id; each class gets
  /// its own heatmap channel (CenterNet-style). Empty = single car class
  /// built from the dim_* fields above — the default keeps head shapes
  /// identical to the pre-multi-class model so the zoo cache still loads.
  struct ClassDims {
    float length = 4.2f, width = 1.8f, height = 1.55f;
  };
  std::vector<ClassDims> class_dims;

  int num_classes() const {
    return class_dims.empty() ? 1 : static_cast<int>(class_dims.size());
  }
  ClassDims dims(int cls) const {
    if (class_dims.empty()) return {dim_length, dim_width, dim_height};
    return class_dims[static_cast<std::size_t>(cls)];
  }

  // Decoding.
  float score_threshold = 0.3f;
  int top_k = 24;
  double nms_iou = 0.3;

  // Loss (CenterNet focal exponents).
  float hm_alpha = 2.0f, hm_beta = 4.0f;
  float reg_weight = 1.0f;
  /// Extra weight on the depth channel — monocular depth is the weakest and
  /// most consequential regression target.
  float depth_weight = 2.5f;

  /// CPU-trainable configuration.
  static SmokeConfig scaled();
  /// Paper-scale deployment spec (~19.5 M parameters).
  static SmokeConfig full();
  /// scaled() plus car/pedestrian/cyclist heatmap channels and dim priors.
  static SmokeConfig multiclass();
};

class Smoke final : public Detector3D {
 public:
  Smoke(SmokeConfig cfg, Rng& rng);

  std::vector<eval::Box3D> detect(const data::Scene& scene) override;
  double compute_loss_and_grad(
      const std::vector<const data::Scene*>& batch) override;
  std::vector<hw::LayerProfile> cost_profile() const override;
  const char* model_name() const override { return "SMOKE"; }

  const SmokeConfig& config() const { return cfg_; }

  static std::vector<hw::LayerProfile> cost_profile_for(const SmokeConfig& cfg);

  /// Monocular detector: only objects projecting into the image count.
  bool observes(const eval::Box3D& box) const override;

  /// Camera render of a scene. Eval uses the deterministic per-scene render;
  /// training re-renders with fresh sensor noise / albedo draws each epoch
  /// (data augmentation that stops the tiny model from memorizing pixels).
  Tensor render(const data::Scene& scene) const;
  Tensor render_augmented(const data::Scene& scene);

  /// Heatmap peak extraction + uplift + NMS over the head outputs
  /// ((1, classes, H/4, W/4) logits, (1, 8, H/4, W/4) regression). Pure.
  std::vector<eval::Box3D> decode(const Tensor& hm_logits,
                                  const Tensor& reg_out) const;

 private:
  /// One backbone stage: stride-2 entry conv + `extra` residual convs.
  struct Stage {
    nn::Conv2d* down_conv = nullptr;
    nn::BatchNorm2d* down_bn = nullptr;
    nn::Relu* down_relu = nullptr;
    struct ResUnit {
      nn::Conv2d* conv = nullptr;
      nn::BatchNorm2d* bn = nullptr;
      nn::Relu* relu = nullptr;  ///< applied after the residual add
    };
    std::vector<ResUnit> units;

    Tensor forward(const Tensor& x) const;
    Tensor backward(const Tensor& grad) const;
  };

  struct ForwardState {
    Tensor heatmap_logits;  ///< (1, num_classes, H/4, W/4)
    Tensor reg_out;         ///< (1, 8, H/4, W/4) — shared across classes
  };

  /// Fused in eval mode (Sequentials and stages run each Conv -> BN ->
  /// (+skip) -> ReLU chain as one call), layer by layer when training.
  void forward(const Tensor& image, ForwardState& state);
  void backward(const Tensor& grad_hm, const Tensor& grad_reg);

  SmokeConfig cfg_;
  nn::Sequential stem_;
  std::vector<Stage> stages_;
  nn::Sequential neck_;
  nn::Sequential hm_trunk_, reg_trunk_;
  nn::Conv2d* hm_out_ = nullptr;
  nn::Conv2d* reg_out_conv_ = nullptr;
  int head_h_ = 0, head_w_ = 0;
  Rng augment_rng_{0xA06u};
};

}  // namespace upaq::detectors
