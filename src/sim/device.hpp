#pragma once

// Device models for the vgpu SIMT simulator.
//
// A DeviceProfile bundles every architectural constant the timing model
// consumes: SM counts and clocks, cache geometry and latencies, DRAM and PCIe
// bandwidth, and software overheads (kernel launch, graph launch, unified-
// memory faults). Three presets mirror the paper's testbeds: v100() (Carina),
// k80() (Fornax) and rtx3080() (the Ampere machine used for memcpy_async and
// dynamic-parallelism runs). All values are *calibrated*, not measured: they
// are public datasheet numbers where available and otherwise chosen so the
// relative behaviour of the paper's experiments is preserved.

#include <cstddef>
#include <string>

namespace vgpu {

/// Architectural and timing constants for one simulated GPU.
struct DeviceProfile {
  std::string name = "generic";

  // --- Execution resources -------------------------------------------------
  int sm_count = 80;                 ///< Number of streaming multiprocessors.
  double clock_ghz = 1.4;            ///< SM clock, cycles per nanosecond.
  int warp_schedulers = 4;           ///< Warp issue slots per SM per cycle.
  int max_threads_per_sm = 2048;
  int max_blocks_per_sm = 32;
  std::size_t shared_mem_per_sm = 96u << 10;
  std::size_t shared_mem_per_block = 48u << 10;
  /// Number of co-resident warps whose memory stalls overlap; the latency
  /// denominator in the block-time model (see DESIGN.md section 4).
  int latency_hiding = 12;
  /// Compute and memory never overlap perfectly: the roofline is
  /// max(compute, memory) + interference * min(compute, memory).
  double roofline_interference = 0.35;

  // --- Memory system (latencies in SM cycles) ------------------------------
  bool l1_enabled_for_global = true; ///< Kepler-class parts cache global loads only in L2.
  std::size_t l1_size = 128u << 10;
  int l1_assoc = 4;
  std::size_t l2_size = 6u << 20;
  int l2_assoc = 16;
  std::size_t tex_cache_size = 48u << 10;
  int tex_assoc = 4;
  /// Kepler has a dedicated texture unit with its own path to DRAM; on Volta
  /// and later the texture cache is unified with L1. A factor > 1 models the
  /// additional read bandwidth of the dedicated path (paper section V-B).
  double tex_bw_factor = 1.0;
  double l1_latency = 28;
  double l2_latency = 190;
  double dram_latency = 440;
  double smem_latency = 24;
  double const_latency = 8;
  double barrier_latency = 15;       ///< __syncthreads pipeline-drain cost per warp.
  double dram_bw_gbps = 900.0;       ///< Device-memory bandwidth, GB/s.
  /// Device-memory capacity: allocations past it fail with
  /// cudaErrorMemoryAllocation (the real OOM path of the error model).
  /// The heap reserves this much address space once and the host backs
  /// pages on first touch, so datasheet-sized capacities cost no RAM until
  /// used.
  std::size_t gmem_bytes = 16ull << 30;

  // --- Host link ------------------------------------------------------------
  double pcie_bw_gbps = 12.0;        ///< Host<->device bandwidth with pinned memory.
  double pcie_latency_us = 8.0;      ///< Per-transfer fixed cost.
  /// Pageable copies bounce through a pinned staging buffer: lower effective
  /// bandwidth, and "async" copies of pageable memory synchronize the host.
  double pageable_bw_factor = 0.55;

  // --- Software overheads (microseconds) ------------------------------------
  double kernel_launch_us = 6.5;     ///< Host-side kernel launch.
  double device_launch_us = 1.2;     ///< Device-side (dynamic parallelism) launch.
  double stream_op_us = 1.0;         ///< Per-op stream submission cost.
  double graph_launch_us = 0.8;      ///< Whole-graph launch.
  double graph_per_node_us = 1.0;    ///< Marginal cost per node in a graph launch.

  // --- Unified memory --------------------------------------------------------
  std::size_t um_page_bytes = 4096;
  double um_fault_us = 1.5;          ///< Amortized fault cost per page (batched).
  double um_host_fault_us = 1.0;     ///< Host-side fault cost per page.
  double um_migrate_bw_gbps = 12.0;  ///< Page-migration bandwidth.

  // --- Feature flags ----------------------------------------------------------
  bool supports_dynamic_parallelism = true;  ///< Compute capability >= 3.5.
  bool supports_memcpy_async = false;        ///< Ampere hardware async copy.
  bool supports_graphs = true;               ///< CUDA >= 10 runtime.
  bool supports_concurrent_kernels = true;   ///< Fermi and later.

  /// Cycles elapsed in `us` microseconds of wall time.
  double cycles_per_us() const { return clock_ghz * 1e3; }

  static DeviceProfile v100();
  static DeviceProfile k80();
  static DeviceProfile rtx3080();
  /// The Ampere A100 the paper's section II-A describes (108 SMs, 40 GB).
  static DeviceProfile a100();
  /// RTX 3080 with 12 SMs: used by experiments whose paper-scale inputs
  /// (e.g. a 16000x16000 Mandelbrot) saturate the full GPU. Scaling the SM
  /// count together with the input keeps the blocks-per-SM ratio — and thus
  /// the regime the paper measured — while staying simulatable.
  static DeviceProfile rtx3080_scaled();
  /// Tiny four-SM device used by unit tests to make schedules easy to reason about.
  static DeviceProfile test_tiny();
};

/// Resident blocks per SM for a block shape: the limiter is whichever of the
/// block-count, thread-count or shared-memory budgets runs out first. Shared
/// between the timing model (GpuExec::occupancy) and the advisor's
/// OccupancyCalculator / cudaOccupancyMaxActiveBlocksPerMultiprocessor shim so
/// the two can never drift apart.
inline int max_resident_blocks_per_sm(const DeviceProfile& p, int threads_per_block,
                                      std::size_t shared_bytes) {
  int by_threads = p.max_threads_per_sm / (threads_per_block < 1 ? 1 : threads_per_block);
  int by_shared = shared_bytes == 0
                      ? p.max_blocks_per_sm
                      : static_cast<int>(p.shared_mem_per_sm / shared_bytes);
  int occ = p.max_blocks_per_sm;
  if (by_threads < occ) occ = by_threads;
  if (by_shared < occ) occ = by_shared;
  return occ < 1 ? 1 : occ;
}

}  // namespace vgpu
