// Process-wide persistent cache of packed quantized-weight GEMMs.
//
// Quantized weights are static after lowering, so the expensive part of
// building a PackedGemm — decoding the bit-packed codes and packing the
// int8/int4 panels — should happen once per (parameter, geometry, spec), not
// once per engine construction and certainly not once per forward. Entries
// are keyed on the nn::Parameter's address plus the full pack geometry and
// validated against Parameter::version (exactly like the fp32 pre-packed
// panels): a version bump (optimizer step, projection, manual mutation)
// invalidates the entry and the next lookup rebuilds.
//
// Engines hold shared_ptr<const PackedGemm> — a rebuild never invalidates a
// gemm another engine (or an in-flight forward) still references.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>

#include "nn/layer.h"
#include "qnn/qgemm.h"

namespace upaq::qnn {

struct PanelCacheStats {
  std::uint64_t hits = 0;           ///< lookups served from a live entry
  std::uint64_t misses = 0;         ///< lookups that built a new entry
  std::uint64_t invalidations = 0;  ///< rebuilds forced by a version bump
};

class PanelCache {
 public:
  /// The process-wide instance (one packed image per parameter regardless of
  /// how many engines reference it).
  static PanelCache& instance();

  /// Returns the packed GEMM for `w` under the given pack geometry, building
  /// (and counting a prof::kPanelBuilds) on miss or version mismatch. The
  /// returned gemm is immutable and safe to share across threads.
  std::shared_ptr<const PackedGemm> get_or_build(
      const nn::Parameter& w, std::int64_t rows, std::int64_t k,
      int weight_bits, std::int64_t group_size, quant::StorageFormat format,
      PackedGemm::PanelMode mode);

  PanelCacheStats stats() const;
  std::size_t size() const;

  /// Drops every entry (engines keep their shared_ptrs alive). Does not
  /// reset the stats; see reset_stats().
  void clear();
  void reset_stats();

 private:
  struct Key {
    const void* param;
    std::int64_t rows, k;
    int bits;
    std::int64_t group;
    int format;
    int mode;
    bool operator<(const Key& o) const;
  };
  struct Entry {
    std::uint64_t version = 0;
    std::shared_ptr<const PackedGemm> gemm;
  };

  mutable std::mutex mu_;
  std::map<Key, Entry> map_;
  PanelCacheStats stats_;
};

}  // namespace upaq::qnn
