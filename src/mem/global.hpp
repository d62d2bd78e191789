#pragma once

// Global-memory access path: coalescing -> L1 (optional) -> L2 -> DRAM.
//
// Access simulation happens in two phases. At the point of the access the
// coalescer computes the transactions (issue cost) and the unified-memory
// hook resolves page residency. Cache hits and misses, however, depend on
// the *interleaving* of the warps resident on an SM, which a coroutine-based
// simulator that runs each warp to its next barrier cannot observe directly.
// So each access's sectors are queued, and at every barrier (and at block
// end) the block runner replays all warps' queued accesses round-robin, one
// instruction per warp per round, through the caches. That reproduces the
// reuse distances a real warp scheduler produces: streaming kernels with
// per-thread strides thrash their L1 share, while cross-warp tile reuse
// (e.g. tiled matmul) stays resident.
//
// Per-block caches model the block's *share* of the SM: capacities are
// divided by the block occupancy, since co-resident blocks contend for the
// same physical L1/texture cache.

#include <cstdint>

#include "mem/cache.hpp"
#include "mem/coalesce.hpp"
#include "mem/heap.hpp"
#include "sim/device.hpp"
#include "sim/lanevec.hpp"
#include "sim/stats.hpp"

namespace vgpu {

/// Result of touching managed pages during a device access.
struct UmTouch {
  std::uint64_t faulted_pages = 0;
  std::uint64_t migrated_bytes = 0;
};

/// Interface implemented by the unified-memory directory (src/um).
class UmHook {
 public:
  virtual ~UmHook() = default;
  /// Called for every device access to [addr, addr+bytes); returns fault work.
  virtual UmTouch on_device_access(std::uint64_t addr, std::size_t bytes, bool write) = 0;
  /// True if the range belongs to a managed allocation.
  virtual bool is_managed(std::uint64_t addr) const = 0;
  /// True if any managed range exists at all. Page residency is mutable,
  /// order-dependent state, so the grid engine runs grids serially while
  /// managed memory is live (the default is conservative for custom hooks).
  virtual bool any_managed() const { return true; }
};

/// Which cache path an access takes during replay.
enum class MemPath : std::uint8_t { kGlobal, kTexture, kConstant };

/// Immediate (issue-time) cost of one warp memory instruction.
struct IssueCost {
  double issue = 0;   ///< Pipeline occupancy: one slot per transaction.
  double um_us = 0;   ///< Unified-memory fault/migration time (microseconds).
};

/// Caches seen by one resident thread block: its *share* of the physically
/// shared capacity. L1 and the texture cache are per-SM resources divided by
/// the blocks resident on that SM; L2 is a device-wide resource divided by
/// every co-resident block on the device. Partitioning approximates the
/// contention a fully occupied GPU produces — which is what makes streaming
/// kernels with poor locality thrash, exactly as on hardware.
struct BlockCaches {
  Cache l1;
  Cache tex;
  Cache cst;
  Cache l2;
  BlockCaches(const DeviceProfile& p, int blocks_per_sm, long long blocks_on_device)
      : l1(p.l1_size / static_cast<std::size_t>(std::max(1, blocks_per_sm)),
           p.l1_assoc),
        tex((p.tex_cache_size != 0 ? p.tex_cache_size : p.l1_size) /
                static_cast<std::size_t>(std::max(1, blocks_per_sm)),
            p.tex_assoc),
        cst(8u << 10, 4),
        l2(p.l2_size / static_cast<std::size_t>(std::max(1LL, blocks_on_device)),
           p.l2_assoc) {}

  /// Cold-start the caches for the next block without reallocating sets.
  void reset() {
    l1.reset();
    tex.reset();
    cst.reset();
    l2.reset();
  }
};

class GlobalMemory {
 public:
  explicit GlobalMemory(const DeviceProfile& profile)
      : profile_(&profile), heap_(profile.gmem_bytes),
        l2_(profile.l2_size, profile.l2_assoc) {}

  DeviceHeap& heap() { return heap_; }
  const DeviceHeap& heap() const { return heap_; }
  Cache& l2() { return l2_; }

  void set_um_hook(UmHook* hook) { um_ = hook; }
  UmHook* um_hook() const { return um_; }

  /// Reset device-wide cache state between kernels (deterministic runs).
  void begin_kernel() { l2_.reset(); }

  /// Phase 1 of a global access: coalesce, resolve managed pages, count
  /// transactions. `sectors_out` receives the sector byte-addresses the
  /// replay phase must probe. `memo` is the caller's per-warp coalescing
  /// memo cache (nullptr re-derives every access — same results, slower).
  ///
  /// Addresses are used only as coalescing/cache keys — never dereferenced.
  /// vgpu-san relies on this: cost accounting runs *before* memcheck vets
  /// the lanes (so clean-kernel counters are identical with checking on or
  /// off), which is only safe because a wild address cannot fault here.
  IssueCost begin_access(const LaneVec<std::uint64_t>& addrs, Mask active,
                         std::size_t elem_bytes, bool write, KernelStats& stats,
                         std::vector<std::uint64_t>& sectors_out,
                         CoalesceCache* memo = nullptr);

  /// Phase 1 for texture fetches (keys are swizzled cache addresses).
  IssueCost begin_tex(const LaneVec<std::uint64_t>& keys, Mask active,
                      std::size_t elem_bytes, KernelStats& stats,
                      std::vector<std::uint64_t>& sectors_out,
                      CoalesceCache* memo = nullptr);

  /// Phase 1 for constant loads: distinct addresses serialize.
  IssueCost begin_const(const LaneVec<std::uint64_t>& addrs, Mask active,
                        KernelStats& stats, std::vector<std::uint64_t>& sectors_out);

  /// Phase 2: probe one sector through the chosen path; returns the exposed
  /// latency in cycles and accounts DRAM traffic.
  double replay_sector(MemPath path, bool write, std::uint64_t sector_addr,
                       BlockCaches& caches, KernelStats& stats);

 private:
  const DeviceProfile* profile_;
  DeviceHeap heap_;
  Cache l2_;
  UmHook* um_ = nullptr;
};

}  // namespace vgpu
