#pragma once

// vgpu-prof: the nvprof / nsight-systems equivalent for the simulator.
//
// The paper's whole methodology is profiler-driven: every inefficiency
// pattern is diagnosed with counters (warp execution efficiency, gld/gst
// transactions, shared bank conflicts) and timeline inspection (Figs. 3-17).
// vgpu-prof makes the same views a first-class simulator output:
//
//   summary - nvprof --print-gpu-summary: per-kernel count/min/avg/max/total
//             time plus per-direction copy throughput,
//   metrics - derived metric reports per kernel, under the nvprof metric
//             names the paper quotes (warp_execution_efficiency,
//             gld_transactions_per_request, achieved_occupancy, ...),
//   trace   - a chrome://tracing JSON export with one row per stream plus
//             the copy engines, so concurrent-kernel and overlap benchmarks
//             can be inspected visually,
//   gantt   - the same records drawn as the nvvp-style ASCII timeline the
//             paper screenshots for concurrent kernels (Fig. 6).
//
// Profiling is opt-in (Runtime::set_prof_mode or the VGPU_PROF env var) and
// purely observational: the activity stream is recorded on the submitting
// host thread in program order, so it is bitwise deterministic at any
// VGPU_THREADS, and KernelStats/timing are bit-identical with profiling on
// or off.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "sim/stats.hpp"

namespace vgpu {

namespace grade {
class JsonWriter;
}

/// Which profiler outputs are produced. Bits compose; kFull is all of them.
enum class ProfMode : unsigned {
  kOff = 0,
  kSummary = 1u << 0,  ///< nvprof-style GPU summary table at flush.
  kTrace = 1u << 1,    ///< chrome://tracing JSON activity export.
  kMetrics = 1u << 2,  ///< Derived metric reports per kernel.
  kFull = kSummary | kTrace | kMetrics,
};

constexpr ProfMode operator|(ProfMode a, ProfMode b) {
  return static_cast<ProfMode>(static_cast<unsigned>(a) |
                               static_cast<unsigned>(b));
}
constexpr bool prof_has(ProfMode m, ProfMode bit) {
  return (static_cast<unsigned>(m) & static_cast<unsigned>(bit)) != 0;
}

/// Parse "off", "summary", "trace", "metrics", "full" (also "on", "all",
/// "1"/"0") or a comma-separated combination. Throws std::invalid_argument
/// on an unknown token — a typo silently disabling profiling would defeat
/// the point.
ProfMode parse_prof_mode(std::string_view s);

/// One entry of the activity stream: everything the device side did, with
/// simulated begin/end timestamps from the Timeline.
struct ActivityRecord {
  enum class Kind : std::uint8_t {
    kKernel = 0,    ///< Kernel execution on the SM pool.
    kMemcpyH2D,     ///< Host-to-device copy on the H2D DMA engine.
    kMemcpyD2H,     ///< Device-to-host copy on the D2H DMA engine.
    kMemset,        ///< Device-side fill on its stream.
    kUmMigration,   ///< Unified-memory page migration (host-side faults).
    kHostFunc,      ///< Host callback occupying a stream (cudaLaunchHostFunc).
    kEventRecord,   ///< cudaEventRecord marker (instant).
    kMemcpyP2P,     ///< Peer-to-peer copy (recorded on the source device).
  };

  Kind kind = Kind::kKernel;
  std::string name;
  int stream = 0;            ///< Stream id; kHostStream for host-side work.
  double start_us = 0;
  double end_us = 0;
  double bytes = 0;          ///< Payload of copies / memsets / UM migrations.
  std::uint32_t correlation = 0;  ///< Submission order, assigned by Profiler.

  // Kernel-only payload.
  KernelStats stats;
  long long grid_blocks = 0;
  int block_threads = 0;
  int blocks_per_sm = 0;     ///< Occupancy limit for this block shape.
  int granted_sms = 0;       ///< SM slots the scheduler actually granted.
  double achieved_occupancy = 0;  ///< Resident warps / max warps per SM.
  double launch_overhead_us = 0;  ///< Host launch cost charged (0 inside graphs).
  double sm_slack = 0;       ///< Idle fraction of granted SM-time (imbalance).
  std::size_t shared_bytes = 0;   ///< Largest per-block shared allocation.
  std::uint64_t coalesce_hits = 0;    ///< Coalesce-memo cache hits (simulator).
  std::uint64_t coalesce_misses = 0;  ///< Coalesce-memo cache misses.

  // kMemcpyP2P-only payload.
  int peer_device = -1;      ///< Destination device ordinal.
  bool peer_staged = false;  ///< True when the copy bounced through the host.
  double peer_direct_us = 0; ///< What the direct route would have cost.

  double duration_us() const { return end_us - start_us; }
  bool operator==(const ActivityRecord&) const = default;

  /// Pseudo stream id for host-side activities (UM fault servicing).
  static constexpr int kHostStream = -1;
};

const char* activity_kind_name(ActivityRecord::Kind k);

/// One derived metric under its nvprof name.
struct Metric {
  std::string name;
  double value = 0;
  const char* unit = "";  ///< "%", "", "bytes", ...

  bool operator==(const Metric& o) const {
    return name == o.name && value == o.value &&
           std::string_view(unit) == std::string_view(o.unit);
  }
};

/// nvprof-named derived metrics for one kernel activity record. Every value
/// is computed from the record's KernelStats (plus the launch shape captured
/// at schedule time), exactly the way nvprof defines it.
std::vector<Metric> derived_metrics(const ActivityRecord& kernel);

/// One kernel name's launches folded into a single record the way nvprof
/// aggregates metrics: summed stats and coalesce counters, end_us - start_us
/// holding the summed duration, duration-weighted achieved occupancy.
struct KernelAggregate {
  ActivityRecord record;
  int calls = 0;
};

/// Fold kernel records by name, in first-launch order. Shared by
/// Profiler::metrics_report() and vgpu-grade, so a verdict's per-kernel
/// metrics are the same numbers nvprof-style reports print.
std::vector<KernelAggregate> aggregate_kernel_records(
    const std::vector<ActivityRecord>& records);

/// Collects the activity stream of one Runtime and renders the three
/// profiler views. Records arrive from the Timeline (device ops) and the
/// Runtime (UM host faults) on the submitting thread, in program order.
class Profiler {
 public:
  explicit Profiler(ProfMode mode = ProfMode::kOff) : mode_(mode) {}

  ProfMode mode() const { return mode_; }
  void set_mode(ProfMode m) { mode_ = m; }
  bool active() const { return mode_ != ProfMode::kOff; }

  /// Where flush() writes the chrome trace; empty disables the file write.
  void set_trace_path(std::string path) { trace_path_ = std::move(path); }
  const std::string& trace_path() const { return trace_path_; }

  /// Append one activity (assigns its correlation id).
  void record(ActivityRecord r);
  void clear();
  const std::vector<ActivityRecord>& records() const { return records_; }

  /// nvprof --print-gpu-summary: kernels grouped by name (time%, total,
  /// calls, avg/min/max), then copy/memset rows with throughput.
  std::string summary() const;

  /// Derived metric report: per kernel name, every metric of
  /// derived_metrics() computed on the summed stats of its launches.
  std::string metrics_report() const;

  /// chrome://tracing JSON (trace-event format): one row per stream, one
  /// per copy engine, one for host/UM work.
  std::string chrome_trace_json() const;
  /// The rows of chrome_trace_json() under process `pid`: row-label
  /// metadata, then one event per record, appended to the trace-event
  /// array `w` is inside. A DeviceSet calls it once per device ordinal.
  void write_trace_events(grade::JsonWriter& w, int pid) const;
  /// Write chrome_trace_json() to `path`; returns false on I/O failure.
  bool write_chrome_trace(const std::string& path) const;

  /// nvvp-style ASCII Gantt chart: one row per stream, `width` columns
  /// spanning [min(start), max(end)]; '#' kernel, '>' H2D, '<' D2H,
  /// 'm' memset, '@' anything else (host functions, UM migrations, peer
  /// copies). Instant event records are skipped.
  std::string gantt(int width = 100) const;

  /// End-of-run emission (Runtime destructor / explicit call): prints the
  /// summary and metrics reports to `out` when their modes are on, writes
  /// the chrome trace when trace mode is on and a path is set. Subsequent
  /// flushes are no-ops until new records arrive.
  void flush(std::ostream& out);

 private:
  ProfMode mode_;
  std::string trace_path_;
  std::vector<ActivityRecord> records_;
  std::uint32_t next_correlation_ = 1;
  bool flushed_ = false;
};

}  // namespace vgpu
