#pragma once

// GPU executor: runs whole grids and rolls per-warp cycle counts up into a
// kernel duration (DESIGN.md section 4).
//
// Functional semantics are exact and deterministic. Blocks of a grid are
// independent (CUDA's own guarantee), so the block loop fans out across a
// persistent host worker pool (sim/pool.hpp, sized by VGPU_THREADS or
// hardware concurrency; VGPU_THREADS=1 reproduces the serial path). Every
// observable output is merged in block-index order — per-block cycle
// vectors, counter deltas, dynamic-parallelism child queues and deferred
// floating-point atomic commits — so results, KernelStats and timing are
// bitwise identical at any thread count. Children (dynamic parallelism) run
// level by level after their parents; all child grids of one level are
// flattened into a single block-job list so small child grids still fill the
// pool. Timing is reconstructed from the recorded per-block cycle costs:
// blocks are list-scheduled onto sm_count x occupancy slots and the makespan
// is capped by the DRAM roofline. The returned KernelRun is what the
// stream/graph timeline layer schedules.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mem/constant.hpp"
#include "mem/global.hpp"
#include "san/check.hpp"
#include "sim/block.hpp"
#include "sim/device.hpp"
#include "sim/fidelity.hpp"
#include "sim/kernel.hpp"
#include "sim/pool.hpp"
#include "sim/stats.hpp"

namespace vgpu {

/// Everything known about one executed kernel.
struct KernelRun {
  std::string name;
  KernelStats stats;
  CheckReport check;  ///< vgpu-san diagnostics (empty when checking is off).
  /// Per-block cycle costs, one vector per dynamic-parallelism level
  /// (level 0 = the host-launched grid).
  std::vector<std::vector<double>> level_block_cycles;
  double dram_bytes = 0;     ///< Global-path DRAM traffic.
  double tex_bytes = 0;      ///< Texture-path DRAM traffic.
  int threads_per_block = 1;
  int blocks_per_sm = 1;     ///< Occupancy of the level-0 grid.
  int preferred_sms = 1;     ///< SMs the grid can usefully occupy.
  std::size_t shared_bytes = 0;  ///< Largest per-block shared allocation.
  /// Coalesce-memo cache behaviour across the whole run (all DP levels).
  /// Outside KernelStats on purpose: goldens pin KernelStats byte-for-byte.
  std::uint64_t coalesce_hits = 0;
  std::uint64_t coalesce_misses = 0;

  /// Kernel execution time given `granted_sms` SMs (excludes launch overhead).
  double duration_us(const DeviceProfile& p, int granted_sms) const;

  /// Fraction of granted SM-time idle under the list schedule, in [0, 1):
  /// 0 for a balanced grid, approaching 1 when one long block (Mandelbrot's
  /// hot tile) serializes the tail. Evidence for the advisor's
  /// block-imbalance rule.
  double sm_slack(const DeviceProfile& p, int granted_sms) const;
};

class GpuExec {
 public:
  /// `sim_threads` 0 means one worker per hardware thread (clamped [1, 256]).
  /// Environment knobs never reach this layer: the Runtime resolves
  /// RuntimeOptions (explicit or from_env) and passes the values down.
  explicit GpuExec(const DeviceProfile& profile, int sim_threads = 0,
                   Fidelity fidelity = Fidelity::kExact,
                   CheckMode check = CheckMode::kOff)
      : profile_(profile), gmem_(profile_), constants_(gmem_.heap()),
        check_(check), fidelity_(fidelity) {
    set_sim_threads(sim_threads);
  }

  // gmem_ keeps a pointer to profile_, so a copy or move would dangle.
  GpuExec(const GpuExec&) = delete;
  GpuExec& operator=(const GpuExec&) = delete;

  const DeviceProfile& profile() const { return profile_; }
  GlobalMemory& gmem() { return gmem_; }
  DeviceHeap& heap() { return gmem_.heap(); }
  ConstantRegion& constants() { return constants_; }

  /// Execute a grid functionally and collect its timing profile.
  KernelRun run_kernel(const LaunchConfig& cfg, const KernelFn& fn);

  /// Occupancy: resident blocks per SM for a given block shape.
  int occupancy(int threads_per_block, std::size_t shared_bytes) const;

  // --- Host-side parallelism -------------------------------------------------
  /// Simulation threads for the block loop (RuntimeOptions::sim_threads;
  /// 0 = hardware concurrency). 1 disables the worker pool.
  int sim_threads() const { return threads_; }
  void set_sim_threads(int threads);

  /// Run body(j) for every j in [0, count) on the same pool — host work of
  /// a driver (inputs, references) between launches, not blocks. Runs
  /// inline when sim_threads is 1 or count <= 1. On the pool every index
  /// runs once, even after another throws, and the exception of the lowest
  /// index that threw is rethrown: the one the inline loop raises. Bodies
  /// must write disjoint outputs and must not call back into this GpuExec.
  void parallel_for(long long count, const std::function<void(long long)>& body);

  // --- Fidelity ---------------------------------------------------------------
  /// Simulation fidelity for subsequent launches (RuntimeOptions::fidelity).
  /// kExact is bit-identical to the goldens; kFast samples the cache replay
  /// (see sim/fidelity.hpp).
  Fidelity fidelity() const { return fidelity_; }
  void set_fidelity(Fidelity f) { fidelity_ = f; }

  // --- Self-performance introspection ----------------------------------------
  /// Host wall-clock spent in the two phases of run_grids since
  /// construction: executing blocks (pool fan-out included) and merging
  /// per-worker results. perfbench attributes engine time with it.
  struct SimPhaseTimes {
    double execute_ms = 0;
    double merge_ms = 0;
  };
  SimPhaseTimes phase_times() const { return {execute_ms_, merge_ms_}; }
  /// Lifetime coalesce-memo counters (every launch since construction).
  std::uint64_t coalesce_cache_hits() const { return co_hits_total_; }
  std::uint64_t coalesce_cache_misses() const { return co_misses_total_; }

  // --- vgpu-san ---------------------------------------------------------------
  /// Dynamic checkers applied to subsequent launches
  /// (RuntimeOptions::check; off by default).
  CheckMode check_mode() const { return check_; }
  void set_check_mode(CheckMode m) { check_ = m; }
  /// Diagnostics accumulated across every launch since the last clear.
  const CheckReport& check_report() const { return check_accum_; }
  void clear_check_report() { check_accum_ = CheckReport{}; }

  // --- Used by WarpCtx -------------------------------------------------------
  std::uint32_t next_texture_id() { return ++texture_ids_; }

  /// Maximum dynamic-parallelism nesting (CUDA default depth limit is 24).
  static constexpr int kMaxLaunchDepth = 24;

 private:
  /// One grid of a dynamic-parallelism level, by reference.
  struct GridRef {
    const LaunchConfig* cfg;
    const KernelFn* fn;
  };

  /// Per-worker merge log: everything a worker accumulates while running
  /// blocks, merged deterministically after the pool drains. Counters are
  /// commutative sums; ordered outputs (children, FP commits, check
  /// reports) are tagged with their block-job index — each worker's log is
  /// already job-ascending, so a k-way merge replays them in exact
  /// block-index order without any per-job slot vectors or global lock.
  /// Cache-line aligned so workers never false-share.
  struct alignas(64) WorkerLane {
    KernelStats stats;
    std::size_t shared_max = 0;
    std::uint64_t co_hits = 0;
    std::uint64_t co_misses = 0;
    std::vector<std::pair<long long, ChildLaunch>> children;
    std::vector<std::pair<long long, FpCommit>> fp_commits;
    std::vector<std::pair<long long, CheckReport>> checks;  ///< Non-clean only.

    void clear() {
      stats = KernelStats{};
      shared_max = 0;
      co_hits = co_misses = 0;
      children.clear();
      fp_commits.clear();
      checks.clear();
    }
  };

  /// Validate a launch and compute its loop-invariant per-block state once.
  GridPlan plan_grid(const LaunchConfig& cfg, const KernelFn& fn) const;

  /// Run every block of every grid in `grids` (one dynamic-parallelism
  /// level), in parallel when profitable. Returns per-grid block cycle
  /// vectors in block-index order; accumulates stats; appends recorded child
  /// launches to pending_children_ in block-index order; reports the largest
  /// per-block shared allocation via `shared_bytes_out` if non-null.
  std::vector<std::vector<double>> run_grids(const std::vector<GridRef>& grids,
                                             KernelStats& stats,
                                             std::size_t* shared_bytes_out,
                                             CheckReport* check_out);

  double block_time_cycles(const BlockOutcome& b, int threads_per_block,
                           long long grid_blocks) const;

  /// Threads to actually use for a level of `total_blocks` jobs: clamped to
  /// the job count (tiny grids engage few workers), and 1 while managed
  /// memory is live (page residency is order-dependent state).
  int effective_threads(long long total_blocks) const;
  void ensure_arenas(int count);
  /// The worker pool, created on first use at the configured thread count.
  WorkerPool& pool();

  DeviceProfile profile_;  // Owned: callers may pass a temporary.
  GlobalMemory gmem_;
  ConstantRegion constants_;
  std::vector<ChildLaunch> pending_children_;
  std::uint32_t texture_ids_ = 0;
  std::uint64_t plan_epoch_ = 0;  // Tags GridPlans so arenas detect rebinds.
  CheckMode check_ = CheckMode::kOff;
  CheckReport check_accum_;

  int threads_ = 1;  // Overwritten by the constructor's set_sim_threads.
  Fidelity fidelity_ = Fidelity::kExact;
  std::unique_ptr<WorkerPool> pool_;                 // Lazy, recreated on resize.
  std::vector<std::unique_ptr<BlockRunner>> arenas_; // One per worker, reused.
  std::vector<WorkerLane> lanes_;                    // One per worker, reused.
  std::vector<double> cycles_scratch_;               // Per-job cycles, reused.

  double execute_ms_ = 0;
  double merge_ms_ = 0;
  std::uint64_t co_hits_total_ = 0;
  std::uint64_t co_misses_total_ = 0;
};

// Needs a complete GpuExec; inline so every load/store template reaches the
// heap without an out-of-line hop (see the matching block in block.hpp).
inline DeviceHeap& WarpCtx::heap() { return gpu_->heap(); }

}  // namespace vgpu
