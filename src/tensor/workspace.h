// Per-thread workspace arena: zero-steady-state-allocation scratch memory.
//
// Every hot-path scratch buffer (im2col column matrices, GEMM panel packs,
// int8 activation codes, integer accumulators) is carved out of a per-thread
// bump arena instead of the general heap. Usage is strictly scoped:
//
//   workspace::Scope ws;                  // marks the thread arena
//   float* cols = ws.floats(rows * n);    // bump allocation, 64B aligned
//   ...                                   // nested Scopes are fine (LIFO)
//                                         // ~Scope releases back to the mark
//
// The arena grows by doubling blocks while a workload is warming up; when a
// release returns the arena to empty and more than one block exists, the
// blocks are coalesced into a single block sized to the high-water mark (plus
// the alignment slack already accounted per allocation), so a repeated
// workload performs ZERO heap allocations after warm-up. The zoo of pool
// worker threads each own an independent arena (plain thread_local), so no
// synchronization exists on the allocation path at all.
//
// Determinism: the arena hands out memory, never values — buffers are always
// fully written before being read (callers treat them as uninitialized), so
// arena state cannot leak into results. Statistics are relaxed atomics
// aggregated over a global registry (same pattern as prof's thread buffers).
//
// The `set_reuse(false)` switch makes every release-to-empty drop all blocks,
// restoring a fresh-allocation-per-pass regime; the workspace-on/off rows of
// bench_ablation_micro use it to price the allocations the arena removes.
#pragma once

#include <cstddef>
#include <cstdint>

namespace upaq::workspace {

/// Aggregate over every thread arena in the process.
struct Stats {
  std::uint64_t block_allocs = 0;     ///< heap blocks ever requested
  std::uint64_t reuses = 0;           ///< allocations served without the heap
  std::uint64_t high_water_bytes = 0; ///< sum of per-thread live-byte peaks
  std::uint64_t capacity_bytes = 0;   ///< sum of currently held block bytes
};

class Arena {
 public:
  Arena() = default;
  ~Arena();
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  struct Mark {
    std::size_t block = 0, offset = 0, live = 0;
  };

  struct Block;
  struct Rep;  // atomic stats + block list, defined in workspace.cpp

  /// Bump-allocates `bytes` aligned to `align` (power of two, <= 4096).
  void* alloc(std::size_t bytes, std::size_t align);

  Mark mark() const { return {cur_, off_, live_}; }

  /// Restores the arena to `m`. Releasing back to empty triggers block
  /// coalescing (reuse on) or block freeing (reuse off).
  void release(const Mark& m);

  std::uint64_t block_allocs() const;
  std::uint64_t reuses() const;
  std::uint64_t high_water() const;
  std::uint64_t capacity() const;

 private:
  Rep* rep();  // lazily built so the header stays std-light
  Rep* rep_ = nullptr;
  std::size_t cur_ = 0;   ///< index of the block being bumped
  std::size_t off_ = 0;   ///< offset within that block
  std::size_t live_ = 0;  ///< bytes (plus alignment slack) currently live
};

/// The calling thread's arena. Pool workers and the main thread each get
/// their own; arenas live until thread exit and are registered globally so
/// stats() can aggregate them.
Arena& thread_arena();

/// RAII mark/release over the calling thread's arena.
class Scope {
 public:
  Scope() : arena_(thread_arena()), mark_(arena_.mark()) {}
  ~Scope() { arena_.release(mark_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  float* floats(std::int64_t n) {
    return static_cast<float*>(
        arena_.alloc(static_cast<std::size_t>(n) * sizeof(float), 64));
  }
  std::int8_t* i8(std::int64_t n) {
    return static_cast<std::int8_t*>(
        arena_.alloc(static_cast<std::size_t>(n), 64));
  }
  std::int32_t* i32(std::int64_t n) {
    return static_cast<std::int32_t*>(
        arena_.alloc(static_cast<std::size_t>(n) * sizeof(std::int32_t), 64));
  }
  std::int64_t* i64(std::int64_t n) {
    return static_cast<std::int64_t*>(
        arena_.alloc(static_cast<std::size_t>(n) * sizeof(std::int64_t), 64));
  }

 private:
  Arena& arena_;
  Arena::Mark mark_;
};

/// Process-wide aggregate across all registered arenas.
Stats stats();

/// Reuse switch (default on). Off: arenas free their blocks whenever they
/// release to empty, so every pass pays its allocations — the ablation
/// baseline. Affects arenas on their next release; thread-safe.
void set_reuse(bool on);
bool reuse_enabled();

}  // namespace upaq::workspace
