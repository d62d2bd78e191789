#pragma once

// WarpCtx: the device-side programming surface of the simulator.
//
// One WarpCtx is handed to each warp coroutine. It exposes
//   - thread identity (threadIdx/blockIdx/blockDim/gridDim equivalents),
//   - predicated SIMT control flow (branch, loop_while) with divergence
//     accounting (paper section III-A),
//   - global / shared / constant / texture memory access with full
//     coalescing, banking and cache modelling,
//   - warp intrinsics: shuffles, ballot/any/all (section IV-E),
//   - block barriers (co_await w.syncthreads()),
//   - device-side kernel launch (dynamic parallelism, section III-B),
//   - the Ampere memcpy_async global->shared pipeline (section IV-D).
//
// Every operation charges issue and stall cycles to the warp; the block
// runner rolls these up into block times (DESIGN.md section 4).

#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "mem/constant.hpp"
#include "mem/global.hpp"
#include "mem/shared.hpp"
#include "mem/texture.hpp"
#include "san/checker.hpp"
#include "sim/kernel.hpp"
#include "sim/lanevec.hpp"
#include "sim/stats.hpp"

namespace vgpu {

class BlockRunner;
class GpuExec;

/// Awaitable returned by WarpCtx::syncthreads().
struct BarrierAwaiter {
  WarpCtx* w;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<>) noexcept;
  void await_resume() const noexcept {}
};

class WarpCtx {
 public:
  WarpCtx(GpuExec& gpu, BlockRunner& block, Dim3 grid_dim, Dim3 block_dim,
          Dim3 block_idx, int warp_in_block, Mask valid);

  WarpCtx(const WarpCtx&) = delete;
  WarpCtx& operator=(const WarpCtx&) = delete;

  /// Rebind this context to a new block (arena reuse): resets identity,
  /// predication and cost accumulators while keeping buffer capacity.
  void reset(Dim3 grid_dim, Dim3 block_dim, Dim3 block_idx, int warp_in_block,
             Mask valid);

  // --- Identity -----------------------------------------------------------
  const Dim3& grid_dim() const { return grid_dim_; }
  const Dim3& block_dim() const { return block_dim_; }
  const Dim3& block_idx() const { return block_idx_; }
  int warp_in_block() const { return warp_in_block_; }
  /// Lanes that correspond to real threads (the tail warp may be partial).
  Mask valid_lanes() const { return valid_; }

  /// threadIdx linearized within the block (warp*32 + lane).
  LaneI thread_linear() const { return LaneI::iota(warp_in_block_ * kWarpSize, 1); }
  LaneI thread_x() const;  ///< threadIdx.x for 1-D/2-D blocks.
  LaneI thread_y() const;  ///< threadIdx.y.
  /// blockIdx.x*blockDim.x + threadIdx.x — the 1-D global id of Fig. 2/8.
  LaneI global_tid_x() const;
  /// Total threads in the grid (gridDim.x * blockDim.x), for cyclic loops.
  int total_threads_x() const { return grid_dim_.x * block_dim_.x; }

  // --- Predication ----------------------------------------------------------
  Mask active() const { return mask_stack_.back(); }

  /// SIMT branch. Executes `then_f` with the active lanes where pred holds,
  /// then `else_f` with the rest; if both sides are non-empty the warp has
  /// diverged and pays for both paths, exactly like hardware. Templated on
  /// the callables (no std::function erasure): branches sit inside every
  /// kernel's inner loop, and the closures must inline into the caller.
  template <typename ThenF>
  void branch(Mask pred, ThenF&& then_f) {
    Mask taken = branch_masks(pred, /*has_else=*/false);
    if (taken != 0) {
      push_mask(taken);
      then_f();
      pop_mask();
    }
  }
  template <typename ThenF, typename ElseF>
  void branch(Mask pred, ThenF&& then_f, ElseF&& else_f) {
    Mask fallthrough = ~pred & active();
    Mask taken = branch_masks(pred, /*has_else=*/true);
    if (taken != 0) {
      push_mask(taken);
      then_f();
      pop_mask();
    }
    if (fallthrough != 0) {
      push_mask(fallthrough);
      else_f();
      pop_mask();
    }
  }

  /// SIMT loop: iterate while any lane's `cond` holds; lanes drop out as
  /// their condition fails (the Mandelbrot escape loop pattern).
  template <typename CondF, typename BodyF>
  void loop_while(CondF&& cond, BodyF&& body) {
    Mask live = active();
    while (true) {
      note_loop_head();
      live &= cond();
      if (live == 0) break;
      if (live != active()) note_loop_divergence();
      push_mask(live);
      body();
      pop_mask();
    }
  }

  /// Charge `n` ALU instructions (FMA-class) to the active lanes.
  void alu(int n = 1) { charge_instr(n); }

  // --- Global memory ----------------------------------------------------------
  template <typename T>
  LaneVec<T> load(const DevSpan<T>& a, const LaneI& idx) {
    LaneVec<std::uint64_t> addrs = element_addrs(a, idx);
    global_cost(addrs, sizeof(T), /*write=*/false);
    Mask ok = vet_global_lanes(addrs, sizeof(T), /*write=*/false, MemSpace::kGlobal);
    LaneVec<T> out;
    for (int l = 0; l < kWarpSize; ++l)
      if (lane_in(ok, l)) out[l] = heap().load<T>(addrs[l]);
    return out;
  }

  template <typename T>
  void store(const DevSpan<T>& a, const LaneI& idx, const LaneVec<T>& v) {
    LaneVec<std::uint64_t> addrs = element_addrs(a, idx);
    global_cost(addrs, sizeof(T), /*write=*/true);
    Mask ok = vet_global_lanes(addrs, sizeof(T), /*write=*/true, MemSpace::kGlobal);
    for (int l = 0; l < kWarpSize; ++l)
      if (lane_in(ok, l)) heap().store<T>(addrs[l], v[l]);
  }

  // --- Atomics -----------------------------------------------------------------
  /// Global atomicAdd: lanes targeting the same address serialize (resolved
  /// at the L2, like hardware). Returns each lane's pre-update value.
  ///
  /// Integer adds are genuinely atomic on the host arena, so concurrent
  /// blocks of a parallel grid produce the same final counts as the serial
  /// run (integer addition is associative). Floating-point adds are not
  /// associative: under parallel execution they are queued per block and
  /// committed in block-index order at grid end (see BlockRunner), which
  /// reproduces the serial run's rounding sequence bit for bit.
  template <typename T>
  LaneVec<T> atomic_add(const DevSpan<T>& a, const LaneI& idx, const LaneVec<T>& v) {
    static_assert(std::is_integral_v<T> || std::is_floating_point_v<T>,
                  "atomic_add supports arithmetic element types");
    LaneVec<std::uint64_t> addrs = element_addrs(a, idx);
    atomic_cost(addrs, sizeof(T));
    Mask ok = vet_global_lanes(addrs, sizeof(T), /*write=*/true, MemSpace::kGlobal);
    LaneVec<T> old;
    for (int l = 0; l < kWarpSize; ++l) {
      if (!lane_in(ok, l)) continue;
      if constexpr (std::is_integral_v<T>) {
        old[l] = heap().atomic_fetch_add(addrs[l], v[l]);
      } else {
        old[l] = fp_atomic_add(addrs[l], v[l]);
      }
    }
    return old;
  }

  /// Shared-memory atomicAdd: serializes per duplicated address and per
  /// bank conflict, like hardware shared atomics.
  template <typename T>
  LaneVec<T> sh_atomic_add(const SharedArray<T>& a, const LaneI& idx,
                           const LaneVec<T>& v) {
    LaneVec<std::uint64_t> addrs = shared_addrs(a, idx);
    sh_atomic_cost(addrs, sizeof(T));
    LaneVec<T> old;
    for (int l = 0; l < kWarpSize; ++l) {
      if (!lane_in(active(), l)) continue;
      T cur = shared_mem().load<T>(addrs[l]);
      old[l] = cur;
      shared_mem().store<T>(addrs[l], static_cast<T>(cur + v[l]));
    }
    return old;
  }

  // --- Shared memory -----------------------------------------------------------
  /// Block-level shared array; every warp of the block executing the same
  /// allocation sequence receives the same storage (like __shared__).
  template <typename T>
  SharedArray<T> shared_array(std::size_t n) {
    return SharedArray<T>{shared_alloc_raw(n * sizeof(T), alignof(T)), n};
  }

  template <typename T>
  LaneVec<T> sh_load(const SharedArray<T>& a, const LaneI& idx) {
    LaneVec<std::uint64_t> addrs = shared_addrs(a, idx);
    shared_cost(addrs, sizeof(T), /*write=*/false);
    note_shared_access(addrs, sizeof(T), /*write=*/false);
    LaneVec<T> out;
    for (int l = 0; l < kWarpSize; ++l)
      if (lane_in(active(), l)) out[l] = shared_mem().load<T>(addrs[l]);
    return out;
  }

  template <typename T>
  void sh_store(const SharedArray<T>& a, const LaneI& idx, const LaneVec<T>& v) {
    LaneVec<std::uint64_t> addrs = shared_addrs(a, idx);
    shared_cost(addrs, sizeof(T), /*write=*/true);
    note_shared_access(addrs, sizeof(T), /*write=*/true);
    for (int l = 0; l < kWarpSize; ++l)
      if (lane_in(active(), l)) shared_mem().store<T>(addrs[l], v[l]);
  }

  // --- Constant / texture ---------------------------------------------------------
  template <typename T>
  LaneVec<T> cload(const ConstSpan<T>& a, const LaneI& idx) {
    LaneVec<std::uint64_t> addrs = lane_addrs<T>(a.addr, idx);
    const_cost(addrs, sizeof(T));
    Mask ok = vet_global_lanes(addrs, sizeof(T), /*write=*/false, MemSpace::kConstant);
    LaneVec<T> out;
    for (int l = 0; l < kWarpSize; ++l)
      if (lane_in(ok, l)) out[l] = heap().load<T>(addrs[l]);
    return out;
  }

  template <typename T>
  LaneVec<T> tex1d(const Texture<T>& t, const LaneI& x) {
    return tex_fetch(t, x, LaneI(0));
  }
  template <typename T>
  LaneVec<T> tex2d(const Texture<T>& t, const LaneI& x, const LaneI& y) {
    return tex_fetch(t, x, y);
  }

  // --- Warp intrinsics -----------------------------------------------------------
  template <typename T>
  LaneVec<T> shfl_down(const LaneVec<T>& v, int delta) {
    charge_shuffle();
    LaneVec<T> r = v;
    for (int l = 0; l + delta < kWarpSize; ++l) r[l] = v[l + delta];
    return r;
  }
  template <typename T>
  LaneVec<T> shfl_up(const LaneVec<T>& v, int delta) {
    charge_shuffle();
    LaneVec<T> r = v;
    for (int l = kWarpSize - 1; l - delta >= 0; --l) r[l] = v[l - delta];
    return r;
  }
  template <typename T>
  LaneVec<T> shfl_xor(const LaneVec<T>& v, int lane_mask) {
    charge_shuffle();
    return LaneVec<T>::generate([&](int l) { return v[l ^ lane_mask]; });
  }
  template <typename T>
  LaneVec<T> shfl_idx(const LaneVec<T>& v, const LaneI& src) {
    charge_shuffle();
    return LaneVec<T>::generate([&](int l) { return v[src[l] & (kWarpSize - 1)]; });
  }

  Mask ballot(Mask pred) {
    charge_instr(1);
    return pred & active();
  }
  bool warp_any(Mask pred) { return ballot(pred) != 0; }
  bool warp_all(Mask pred) { return ballot(pred) == active(); }

  // --- Barrier ------------------------------------------------------------------
  BarrierAwaiter syncthreads() { return BarrierAwaiter{this}; }

  // --- Dynamic parallelism ---------------------------------------------------------
  /// Device-side kernel launch; charged at the cheaper device-launch cost.
  /// Child grids complete before the parent grid is considered finished.
  void launch_device(Dim3 grid, Dim3 block, KernelFn fn, std::string name = "child");

  // --- memcpy_async pipeline (Ampere) -------------------------------------------------
  /// Stage src[src_idx[lane]] -> dst[dst_idx[lane]] for the active lanes
  /// without bouncing through registers. On hardware without async-copy
  /// support this degrades to the software load+store path, as CUDA does.
  template <typename T>
  void memcpy_async(const SharedArray<T>& dst, const LaneI& dst_idx,
                    const DevSpan<T>& src, const LaneI& src_idx) {
    LaneVec<std::uint64_t> gaddrs = element_addrs(src, src_idx);
    LaneVec<std::uint64_t> saddrs = shared_addrs(dst, dst_idx);
    async_copy_cost(gaddrs, saddrs, sizeof(T));
    Mask ok = vet_global_lanes(gaddrs, sizeof(T), /*write=*/false, MemSpace::kGlobal);
    note_shared_access(saddrs, sizeof(T), /*write=*/true);
    for (int l = 0; l < kWarpSize; ++l)
      if (lane_in(ok, l))
        shared_mem().store<T>(saddrs[l], heap().load<T>(gaddrs[l]));
  }
  /// Commit the staged batch (cuda::pipeline producer_commit).
  void pipeline_commit();
  /// Block until the oldest committed batch has landed (consumer_wait).
  void pipeline_wait();

  // --- Cost accounting (read by the block runner) -----------------------------------------
  double issue_cycles() const { return issue_; }
  double stall_cycles() const { return stall_; }
  double sync_stall_cycles() const { return sync_stall_; }
  double um_microseconds() const { return um_us_; }
  void add_issue(double c) { issue_ += c; }
  void add_stall(double c) { stall_ += c; }
  /// Synchronization time (barrier waits/drains): never hidden by the warp
  /// scheduler, unlike memory stalls.
  void add_sync_stall(double c) { sync_stall_ += c; }

  KernelStats& stats();  ///< Defined inline in block.hpp (needs BlockRunner).
  BlockRunner& block() { return *block_; }
  /// Per-warp coalescing memo cache (cleared at each block rebind; hit/miss
  /// counters drained per block by BlockRunner).
  CoalesceCache& coalesce_memo() { return co_memo_; }

 private:
  friend struct BarrierAwaiter;

  // Address generation is branch-free: an active lane gets addr_of(idx) ==
  // base + idx*sizeof(T), an inactive one masks its offset to 0 and gets
  // base. The loop stays scalar on baseline x86-64 (no 64-bit vector
  // multiply); generate() only spares it the zero-fill.
  template <typename T>
  LaneVec<std::uint64_t> lane_addrs(std::uint64_t base, const LaneI& idx) const {
    const Mask m = active();
    return LaneVec<std::uint64_t>::generate([&](int l) {
      const std::uint64_t on = 0 - static_cast<std::uint64_t>((m & kLaneBits[l]) != 0);
      return base + (on & static_cast<std::uint64_t>(static_cast<std::size_t>(idx[l])) *
                              sizeof(T));
    });
  }
  template <typename T>
  LaneVec<std::uint64_t> element_addrs(const DevSpan<T>& a, const LaneI& idx) const {
    return lane_addrs<T>(a.addr, idx);
  }
  template <typename T>
  LaneVec<std::uint64_t> shared_addrs(const SharedArray<T>& a, const LaneI& idx) const {
    return lane_addrs<T>(a.offset, idx);
  }

  template <typename T>
  LaneVec<T> tex_fetch(const Texture<T>& t, const LaneI& x, const LaneI& y) {
    const Mask m = active();
    LaneVec<std::uint64_t> keys = LaneVec<std::uint64_t>::generate([&](int l) {
      return lane_in(m, l) ? t.cache_key(t.clamp_x(x[l]), t.clamp_y(y[l])) : t.cache_key(0, 0);
    });
    LaneVec<std::uint64_t> addrs = LaneVec<std::uint64_t>::generate(
        [&](int l) { return t.addr_of(t.clamp_x(x[l]), t.clamp_y(y[l])); });
    tex_cost(keys, sizeof(T));
    Mask ok = vet_global_lanes(addrs, sizeof(T), /*write=*/false, MemSpace::kTexture);
    LaneVec<T> out;
    for (int l = 0; l < kWarpSize; ++l)
      if (lane_in(ok, l)) out[l] = heap().load<T>(addrs[l]);
    return out;
  }

  friend class BlockRunner;

  /// One queued memory instruction awaiting the interleaved cache replay.
  struct PendingAccess {
    MemPath path;
    bool write;
    float stall_scale;            ///< <1 for pipelined (memcpy_async) copies.
    std::uint32_t sector_begin;   ///< Range into sector_buf_.
    std::uint32_t sector_count;
  };

  // Helpers needing a complete BlockRunner/GpuExec. The hot one-liners
  // (heap, shared_mem, charge_instr, charge_shuffle) are defined inline at
  // the bottom of gpu.hpp / block.hpp; the rest live in warp.cpp.
  DeviceHeap& heap();
  SharedSegment& shared_mem();
  float fp_atomic_add(std::uint64_t addr, float v);
  double fp_atomic_add(std::uint64_t addr, double v);
  std::uint32_t shared_alloc_raw(std::size_t bytes, std::size_t align);
  void global_cost(const LaneVec<std::uint64_t>& addrs, std::size_t elem, bool write);
  void shared_cost(const LaneVec<std::uint64_t>& addrs, std::size_t elem, bool write);
  void atomic_cost(const LaneVec<std::uint64_t>& addrs, std::size_t elem);
  void sh_atomic_cost(const LaneVec<std::uint64_t>& addrs, std::size_t elem);
  void const_cost(const LaneVec<std::uint64_t>& addrs, std::size_t elem);
  void tex_cost(const LaneVec<std::uint64_t>& keys, std::size_t elem);
  void async_copy_cost(const LaneVec<std::uint64_t>& gaddrs,
                       const LaneVec<std::uint64_t>& saddrs, std::size_t elem);
  void queue_access(MemPath path, bool write, float stall_scale,
                    const std::vector<std::uint64_t>& sectors);
  /// vgpu-san memcheck: active lanes whose addresses are valid (invalid
  /// lanes are reported and suppressed). Identity when memcheck is off.
  Mask vet_global_lanes(const LaneVec<std::uint64_t>& addrs, std::size_t elem,
                        bool write, MemSpace space);
  /// vgpu-san racecheck: record a shared access (no-op when off).
  void note_shared_access(const LaneVec<std::uint64_t>& addrs,
                          std::size_t elem, bool write);
  void charge_instr(int n);
  void charge_shuffle();
  void push_mask(Mask m) { mask_stack_.push_back(m); }
  void pop_mask() { mask_stack_.pop_back(); }
  /// Branch bookkeeping (counters + divergence classification); returns the
  /// taken mask. Out of line so the templated branch() stays lean.
  Mask branch_masks(Mask pred, bool has_else);
  void note_loop_head();        ///< Per-iteration branch charge of loop_while.
  void note_loop_divergence();  ///< A loop iteration ran with a split warp.

  GpuExec* gpu_;
  BlockRunner* block_;
  Dim3 grid_dim_, block_dim_, block_idx_;
  int warp_in_block_;
  Mask valid_;
  std::vector<Mask> mask_stack_;

  double issue_ = 0;
  double stall_ = 0;
  double sync_stall_ = 0;
  double um_us_ = 0;

  // Deferred cache work, drained by BlockRunner::replay_segment().
  std::vector<PendingAccess> pending_;
  std::vector<std::uint64_t> sector_buf_;
  std::vector<std::uint64_t> scratch_sectors_;

  CoalesceCache co_memo_;
  // VGPU_FIDELITY=fast: queue only every kFastSampleEvery-th access for the
  // cache replay, scaling the survivor's stall by the same factor. The
  // counter restarts per block so sampling is deterministic per (block,
  // warp) at any thread count.
  bool fast_timing_ = false;
  std::uint32_t fast_tick_ = 0;
};

}  // namespace vgpu
