#include "qnn/qcache.h"

#include <tuple>

#include "prof/prof.h"

namespace upaq::qnn {

bool PanelCache::Key::operator<(const Key& o) const {
  return std::tie(param, rows, k, bits, group, format, mode) <
         std::tie(o.param, o.rows, o.k, o.bits, o.group, o.format, o.mode);
}

PanelCache& PanelCache::instance() {
  static PanelCache cache;
  return cache;
}

std::shared_ptr<const PackedGemm> PanelCache::get_or_build(
    const nn::Parameter& w, std::int64_t rows, std::int64_t k, int weight_bits,
    std::int64_t group_size, quant::StorageFormat format,
    PackedGemm::PanelMode mode) {
  const Key key{&w,
                rows,
                k,
                weight_bits,
                group_size,
                static_cast<int>(format),
                static_cast<int>(mode)};
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      if (it->second.version == w.version) {
        ++stats_.hits;
        return it->second.gemm;
      }
      ++stats_.invalidations;
    } else {
      ++stats_.misses;
    }
  }
  // Build outside the lock: packing decodes the whole weight, and a second
  // thread racing on the same stale key would only duplicate work, not
  // corrupt state (last writer wins; both gemms are equivalent because the
  // build is a pure function of the parameter value at a version).
  auto gemm = std::make_shared<const PackedGemm>(
      pack(w.value, weight_bits, group_size, format, w.mask), rows, k, mode);
  prof::add(prof::Counter::kPanelBuilds, 1);
  {
    std::lock_guard<std::mutex> lock(mu_);
    map_[key] = Entry{w.version, gemm};
  }
  return gemm;
}

PanelCacheStats PanelCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t PanelCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

void PanelCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
}

void PanelCache::reset_stats() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_ = PanelCacheStats{};
}

}  // namespace upaq::qnn
