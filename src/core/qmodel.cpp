#include "core/qmodel.h"

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "obs/obs.h"
#include "qnn/qlayers.h"
#include "tensor/check.h"
#include "tensor/ops.h"

namespace upaq::core {

namespace {

/// A layer runs the packed path when the plan quantized it to a width the
/// packer supports; fp32/fp16-planned layers (and unplanned ones) stay float.
bool packable(const LayerState& state) {
  return state.compute_bits >= 2 && state.compute_bits <= 16;
}

qnn::LowerSpec spec_from_state(const LayerState& state, int act_bits) {
  qnn::LowerSpec spec;
  spec.weight_bits = state.compute_bits;
  spec.group_size = state.quant_group;
  spec.format = state.format;
  spec.act_bits = act_bits;
  return spec;
}

}  // namespace

int lower_quantized(nn::Module& model, const CompressionPlan& plan,
                    int act_bits) {
  int lowered = 0;
  for (const auto& layer : model.layers()) {
    if (layer->kind() != nn::LayerKind::kConv2d &&
        layer->kind() != nn::LayerKind::kLinear)
      continue;
    const LayerState* state = find_state(plan, layer->name());
    if (state == nullptr || !packable(*state)) continue;
    if (qnn::lower_layer(*layer, spec_from_state(*state, act_bits))) ++lowered;
  }
  return lowered;
}

int lower_quantized_tuned(nn::Module& model, const CompressionPlan& plan,
                          int act_bits, const qnn::TuneOptions& opt,
                          TuneReport* report) {
  int lowered = 0;
  // The runner forwards layers directly; engines only fire in eval mode, so
  // make sure the candidates race on equal (inference) footing.
  model.set_training(false);
  for (const auto& layer : model.layers()) {
    if (layer->kind() != nn::LayerKind::kConv2d &&
        layer->kind() != nn::LayerKind::kLinear)
      continue;
    const LayerState* state = find_state(plan, layer->name());
    if (state == nullptr || !packable(*state)) continue;
    qnn::LowerSpec spec = spec_from_state(*state, act_bits);
    TunedLayer entry;
    entry.name = layer->name();
    if (const auto* conv = dynamic_cast<const nn::Conv2d*>(layer.get())) {
      const std::int64_t rows = conv->out_channels();
      const std::int64_t in_c = conv->in_channels();
      const int kk = conv->kernel(), st = conv->stride(), pd = conv->pad();
      const std::int64_t k = in_c * kk * kk;
      // Calibrate at the conv's last-seen geometry (capped to max_calib_n
      // columns by cropping output ROWS, so the cropped input map stays
      // geometrically consistent); tune_gemm falls back to 256 columns when
      // the model has never been forwarded.
      const std::int64_t ow = conv->last_out_w();
      const std::int64_t full_oh = conv->last_out_h();
      std::int64_t oh = full_oh;
      if (ow > 0 && oh > 0)
        oh = std::max<std::int64_t>(
            1, std::min(oh, std::max<std::int64_t>(8, opt.max_calib_n) / ow));
      const std::int64_t n = oh * ow;

      // Candidate runner: forward the REAL layer on a synthetic input of the
      // calibration geometry, with each candidate's engine attached (or
      // detached, for the float path). The timing then includes everything a
      // forward actually pays — weight fingerprint, im2col or int8 gather,
      // activation quantization, output allocation, bias fill — so the
      // pinned winner is the end-to-end winner by construction.
      qnn::CandidateRunner runner;
      Tensor x;
      const bool have_geom = n > 0;
      // The input is the map the layer last saw (a cropped one keeps its
      // width and the fewest rows giving oh): several input sizes give the
      // same output at stride 2, and the packed conv fills its tap layout
      // on a different path for an odd width than for the real even one.
      const auto min_in = [&](std::int64_t o) {
        return std::max<std::int64_t>(1, (o - 1) * st + kk - 2 * pd);
      };
      const std::int64_t ih =
          !have_geom ? 0
          : oh == full_oh && conv->last_in_h() > 0 ? conv->last_in_h()
                                                   : min_in(oh);
      const std::int64_t iw =
          !have_geom ? 0
          : conv->last_in_w() > 0 ? conv->last_in_w()
                                  : min_in(ow);
      // Degenerate geometries (huge pad vs tiny map) can fail to round-trip
      // through conv_out_size; fall back to the built-in proxy bodies there
      // rather than forwarding an inconsistent shape.
      const bool geom_ok =
          have_geom && ops::conv_out_size(ih, kk, st, pd) == oh &&
          ops::conv_out_size(iw, kk, st, pd) == ow;
      if (geom_ok) {
        x = Tensor({1, in_c, ih, iw});
        // Half-zero pseudo-activations, like a post-ReLU map.
        float* xd = x.data();
        for (std::int64_t i = 0; i < x.numel(); ++i)
          xd[i] = static_cast<float>(
              std::max(0, static_cast<int>((i * 29 + 7) % 255) - 127));
        nn::Layer* raw = layer.get();
        runner.prepare = [raw, spec](qnn::TunedKernel tk) {
          if (tk == qnn::TunedKernel::kFloat) {
            raw->set_engine(nullptr);
            return;
          }
          qnn::LowerSpec forced = spec;
          forced.mode = qnn::tuned_mode(tk);
          qnn::lower_layer(*raw, forced);
        };
        runner.run = [raw, &x](qnn::TunedKernel) { (void)raw->forward(x); };
      }
      const qnn::TuneDecision d = qnn::tune_gemm(
          conv->weight(), rows, k, n, spec, layer->name(), opt,
          /*im2col_expand=*/kk * kk, geom_ok ? &runner : nullptr);
      entry.kernel = d.winner;
      entry.timings = d.candidates;
      if (d.winner == qnn::TunedKernel::kFloat) {
        // The fp32 blocked GEMM wins: keep (or put) the layer on the float
        // fake-quant path. Accuracy is unchanged either way — the float path
        // runs the same quantization-grid weights.
        layer->set_engine(nullptr);
        entry.lowered = false;
        if (report != nullptr) report->layers.push_back(std::move(entry));
        continue;
      }
      spec.mode = qnn::tuned_mode(d.winner);
    }
    // Linear layers run the transposed batch-dot path (run_t), which has a
    // single integer kernel — nothing to race, lower untimed.
    if (qnn::lower_layer(*layer, spec)) {
      ++lowered;
      if (report != nullptr) report->layers.push_back(std::move(entry));
    }
  }
  return lowered;
}

void clear_engines(nn::Module& model) {
  for (const auto& layer : model.layers()) layer->set_engine(nullptr);
}

std::map<std::string, qnn::PackedTensor> pack_planned_weights(
    const nn::Module& model, const CompressionPlan& plan) {
  std::map<std::string, qnn::PackedTensor> out;
  for (const auto& layer : model.layers()) {
    const nn::Parameter* w = nullptr;
    if (const auto* conv = dynamic_cast<const nn::Conv2d*>(layer.get()))
      w = &conv->weight();
    else if (const auto* lin = dynamic_cast<const nn::Linear*>(layer.get()))
      w = &lin->weight();
    if (w == nullptr) continue;
    const LayerState* state = find_state(plan, layer->name());
    if (state == nullptr || !packable(*state)) continue;
    out.emplace(layer->name(),
                qnn::pack(w->value, state->compute_bits, state->quant_group,
                          state->format, w->mask));
  }
  return out;
}

QuantizedModel::QuantizedModel(detectors::Detector3D& inner,
                               CompressionPlan plan, int act_bits)
    : inner_(inner), plan_(std::move(plan)) {
  lowered_ = lower_quantized(inner_, plan_, act_bits);
  finish_lowering(act_bits);
}

QuantizedModel::QuantizedModel(detectors::Detector3D& inner,
                               CompressionPlan plan, int act_bits,
                               const qnn::TuneOptions& tune)
    : inner_(inner), plan_(std::move(plan)) {
  lowered_ = lower_quantized_tuned(inner_, plan_, act_bits, tune,
                                   &tune_report_);
  finish_lowering(act_bits);
}

void QuantizedModel::finish_lowering(int act_bits) {
  UPAQ_CHECK(lowered_ > 0,
             "QuantizedModel: plan lowered no layers of " +
                 std::string(inner_.model_name()));
  inner_.set_training(false);  // engines only fire in eval mode
  name_ = "Quantized(" + std::string(inner_.model_name()) + ")";
  obs::log_event(obs::Level::kInfo, "model.lowered",
                 {obs::fstr("model", name_),
                  obs::fint("layers", lowered_),
                  obs::fint("act_bits", act_bits),
                  obs::fbool("tuned", !tune_report_.layers.empty())});
}

QuantizedModel::~QuantizedModel() { clear_engines(inner_); }

void QuantizedModel::set_packed(bool packed) {
  if (packed == packed_) return;
  if (!packed) {
    for (const auto& layer : inner_.layers())
      if (layer->engine() != nullptr)
        parked_.emplace_back(layer.get(), layer->release_engine());
  } else {
    for (auto& [layer, engine] : parked_)
      layer->set_engine(std::move(engine));
    parked_.clear();
  }
  packed_ = packed;
}

std::vector<eval::Box3D> QuantizedModel::detect(const data::Scene& scene) {
  return inner_.detect(scene);
}

double QuantizedModel::compute_loss_and_grad(
    const std::vector<const data::Scene*>& batch) {
  (void)batch;
  UPAQ_CHECK(false,
             "QuantizedModel is inference-only: fine-tune the float model and "
             "re-lower instead of training through packed engines");
  return 0.0;
}

std::vector<hw::LayerProfile> QuantizedModel::cost_profile() const {
  auto profile = apply_plan(inner_.cost_profile(), plan_);
  // Only layers that actually carry a packed engine are priced on the
  // integer path — the auto-tuner may have pinned a layer back to float.
  std::set<std::string> packed;
  for (const auto& layer : inner_.layers())
    if (layer->engine() != nullptr) packed.insert(layer->name());
  for (const auto& [layer, engine] : parked_) packed.insert(layer->name());
  for (auto& layer : profile) {
    if (layer.weight_count == 0) continue;
    const LayerState* state = find_state(plan_, layer.name);
    if (state != nullptr && packable(*state) && packed.count(layer.name) != 0)
      layer.integer_path = true;
  }
  return profile;
}

}  // namespace upaq::core
