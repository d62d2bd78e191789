#pragma once

// vgpu-advise: a counter-driven performance advisor.
//
// The paper's purpose is to *assist CUDA performance programming*: each of
// its 14 microbenchmarks teaches one inefficiency pattern and its fix
// (Table I). vgpu-prof already emits the nvprof-style evidence; this layer
// closes the loop from counters back to advice. The Advisor consumes the
// same ActivityRecord stream the profiler sees (kernel launches with full
// KernelStats, copies, UM migrations) and runs one rule per Table-I pattern,
// emitting ranked Advice diagnostics: rule id, severity, the counter
// evidence that fired it, an estimated-speedup bound derived from the timing
// model, and a remediation string naming the paper's fix.
//
// Rules are evaluated per *phase* — a host-delimited span of the activity
// stream (Runtime::advise_phase). Per-kernel rules aggregate the stats of
// every launch of one kernel name inside the phase; timeline rules look at
// the phase's record intervals (overlap, engine busy time, launch overhead).
//
// Advising is opt-in (Runtime::set_advise_mode or VGPU_ADVISE=off|warn|full)
// and strictly observational: KernelStats and simulated times are
// bit-identical with it on or off, and the advice list is deterministic at
// any VGPU_THREADS because records arrive on the submitting host thread in
// program order.

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "prof/prof.hpp"
#include "sim/device.hpp"

namespace vgpu {

/// How much advice is rendered at flush. Both active modes run every rule;
/// kWarn only prints warning/critical findings, kFull prints notes too.
enum class AdviseMode : unsigned char { kOff = 0, kWarn = 1, kFull = 2 };

/// Parse "off", "warn", "full" (also "on" == full, "0"/"1"). Throws
/// std::invalid_argument on an unknown token — a typo silently disabling
/// the advisor would defeat the point.
AdviseMode parse_advise_mode(std::string_view s);

enum class Severity : unsigned char { kNote = 0, kWarning = 1, kCritical = 2 };

const char* severity_name(Severity s);

/// One diagnostic: a rule that fired on a kernel (or on a phase's timeline).
struct Advice {
  std::string rule;        ///< Stable rule id, e.g. "warp-divergence".
  std::string phase;       ///< Phase the evidence came from.
  std::string target;      ///< Kernel name, or "timeline" for phase rules.
  Severity severity = Severity::kNote;
  double est_speedup = 1;  ///< Upper-bound speedup from the timing model.
  std::vector<Metric> evidence;  ///< Counters/ratios that fired the rule.
  std::string remediation;       ///< The paper's fix, by benchmark name.

  bool operator==(const Advice&) const = default;
};

/// Occupancy math shared with the cudaOccupancy* shims. Wraps the same
/// max_resident_blocks_per_sm() the timing model uses, so suggestions can
/// never disagree with what the simulator will actually schedule.
class OccupancyCalculator {
 public:
  explicit OccupancyCalculator(const DeviceProfile& p) : p_(p) {}

  /// Resident blocks per SM for a block shape (the shim's numBlocks).
  int max_active_blocks(int block_size, std::size_t dynamic_smem) const {
    return max_resident_blocks_per_sm(p_, block_size, dynamic_smem);
  }

  /// Theoretical occupancy: resident warps over the SM's warp capacity.
  double theoretical_occupancy(int block_size, std::size_t dynamic_smem) const;

  struct BlockSuggestion {
    int min_grid = 0;   ///< Blocks needed to fully occupy the device.
    int block = 0;      ///< Suggested threads per block.
  };

  /// Scan warp-multiple block sizes (32 .. limit, default the device cap,
  /// capped at 1024) and return the size maximizing resident threads per SM;
  /// ties go to the larger block (matching cudaOccupancyMaxPotentialBlockSize,
  /// which prefers fewer, fatter blocks).
  BlockSuggestion max_potential_block_size(std::size_t dynamic_smem,
                                           int block_size_limit = 0) const;

 private:
  DeviceProfile p_;
};

/// Collects the activity stream of one Runtime and diagnoses Table-I
/// anti-patterns. Strictly observational; see file comment.
class Advisor {
 public:
  Advisor(AdviseMode mode, const DeviceProfile& profile)
      : mode_(mode), profile_(profile) {
    phases_.push_back(Phase{});  // Implicit unnamed phase.
  }

  AdviseMode mode() const { return mode_; }
  void set_mode(AdviseMode m) { mode_ = m; }
  bool active() const { return mode_ != AdviseMode::kOff; }

  /// Where flush() writes the JSON report; empty disables the file write.
  void set_json_path(std::string path) { json_path_ = std::move(path); }

  /// Start a new evidence phase. Rules never correlate records across a
  /// phase boundary, so callers can bracket e.g. one benchmark variant.
  void begin_phase(std::string name);

  /// Append one activity (called by the Timeline / Runtime, program order).
  void record(const ActivityRecord& r);
  void clear();

  /// Run every rule over every phase; advice ranked by severity desc,
  /// est_speedup desc, rule, target. Deterministic for a given record stream.
  std::vector<Advice> analyze() const;

  /// Same, restricted to phases named `phase` (vgpu-grade scopes rules to
  /// the submission stage this way).
  std::vector<Advice> analyze(std::string_view phase) const;

  /// Human-readable report of analyze(), filtered by mode (kWarn drops
  /// notes).
  std::string report() const;

  /// Machine-readable report: {"advice":[...]} with every finding.
  std::string report_json() const;

  /// End-of-run emission (Runtime destructor / explicit call): prints the
  /// text report to `out`, writes the JSON report when a path is set.
  /// Subsequent flushes are no-ops until new records arrive.
  void flush(std::ostream& out);

 private:
  struct Phase {
    std::string name;
    std::vector<ActivityRecord> records;
  };

  void analyze_phase(const Phase& ph, std::vector<Advice>& out) const;

  AdviseMode mode_;
  DeviceProfile profile_;
  std::string json_path_;
  std::vector<Phase> phases_;
  bool flushed_ = false;
};

}  // namespace vgpu
