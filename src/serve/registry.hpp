#pragma once

// vgpu-serve kernel registry: the namespace of things a job can run.
//
// Three families of kernel ids:
//
//   bench:<id>               one of the 17 rows of the pair catalog
//                            (core/catalog.hpp), e.g. "bench:comem". Runs
//                            the row's naive and optimized variant inside a
//                            Runtime built from the job's RuntimeOptions and
//                            renders the PairResult as a small deterministic
//                            JSON blob (grade/json.hpp shortest-round-trip
//                            numbers, fixed field order). The default size
//                            is the row's smoke_n.
//
//   grade:<task>/<submission> a vgpu-grade evaluation, e.g.
//                            "grade:comem/comem_coalesced". Dispatches to
//                            run_grade (which owns its Runtime and device
//                            profile); the blob is the full verdict JSON.
//                            Available only after attach_grade() wires in
//                            the task/plugin registries (they live in the
//                            tasks/ layer, above this library).
//
//   multi:<name>             one of the multi-GPU scaling pairs
//                            (multi/ports.hpp), e.g. "multi:halo". Runs on a
//                            DeviceSet shaped by opts.devices/topology; the
//                            blob adds devices, transfer counts and the
//                            result checksum.
//
// All blob families are byte-deterministic for a fixed (kernel, size,
// result-affecting options) triple — the property the serve result cache is
// built on.
//
// The four-argument run() overload is the retry engine's entry point: it
// threads an ExecHooks through the execution so the caller can (a) keep one
// FaultInjector alive across attempts — a fresh Runtime per attempt would
// otherwise reset `nth=`/`after=` counters and re-fire the same deterministic
// fault forever — and (b) read back a structured RunOutcome (recorded
// ErrorCode, verification flag, per-device errors) instead of parsing blobs.

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "fault/error.hpp"
#include "grade/grade.hpp"
#include "multi/ports.hpp"
#include "rt/options.hpp"

namespace cumb {
struct PairDef;
}

namespace vgpu {
class FaultInjector;
}

namespace vgpu::serve {

/// Which family a kernel id belongs to — the retry engine branches on it
/// (bench: shared-injector retries; grade: single attempt, failures are
/// structured verdicts; multi: per-device attribution and eviction).
enum class KernelKind { kBench, kGrade, kMulti };

/// Structured result of one execution attempt, alongside the blob.
struct RunOutcome {
  ErrorCode code = ErrorCode::kSuccess;  ///< Recorded device error, if any.
  bool verified = true;                  ///< Result matched its reference.
  /// Multi kernels: numeric ErrorCode per device ordinal (0 = healthy).
  /// Empty for bench/grade, and for multi attempts that threw before the
  /// ports layer could collect per-device state.
  std::vector<int> device_errors;
};

/// Execution-level hooks for run(). Both members optional.
struct ExecHooks {
  /// Bench kernels adopt this injector instead of parsing opts.fault_spec,
  /// so `nth=`/`after=` call counters persist across retry attempts.
  /// Ignored for grade (run_grade owns its Runtime) and multi (DeviceSet
  /// builds one Runtime per ordinal; retries there re-fire deterministic
  /// faults, which is why eviction — not retry — is multi's recovery).
  std::shared_ptr<FaultInjector> injector;
  RunOutcome* outcome = nullptr;  ///< Filled when non-null, even on throw.
};

class KernelRegistry {
 public:
  /// The registry with every catalog row as bench:<id> and every
  /// multi:<name> pair registered.
  static KernelRegistry builtin();

  /// Enable grade:<task>/<submission> ids. Non-owning: the registries (and
  /// optional baselines map for the perf gate) must outlive this object.
  void attach_grade(const grade::TaskRegistry* tasks,
                    const grade::PluginRegistry* plugins,
                    const std::map<std::string, grade::PerfBaseline>* baselines =
                        nullptr);

  /// Every runnable id, sorted (bench:*, then grade:*, then multi:*).
  std::vector<std::string> ids() const;

  bool known(std::string_view kernel) const;

  /// The family of a known kernel. Throws std::invalid_argument otherwise.
  KernelKind kind(std::string_view kernel) const;

  /// The size a job with n == 0 resolves to. Grade kernels have no size knob
  /// (the task spec owns its inputs); they resolve to 0. Throws
  /// std::invalid_argument for unknown kernels.
  long long default_size(std::string_view kernel) const;

  /// The size a job asking for `n` runs at: n, or default_size(kernel) when
  /// n <= 0. Throws std::invalid_argument for unknown kernels and for bench
  /// and multi sizes above INT_MAX (their pairs take an int).
  long long resolve_size(std::string_view kernel, long long n) const;

  /// Execute `kernel` at problem size resolve_size(kernel, n) under `opts`
  /// and return the deterministic JSON blob. Bench jobs construct
  /// Runtime(opts) directly; multi jobs a DeviceSet over opts.devices; grade
  /// jobs map opts onto GradeOptions (sim_threads, fidelity, fault_spec —
  /// the task spec owns the profile). Throws std::invalid_argument for
  /// unknown kernels and for the sizes resolve_size rejects; kernel-side
  /// failures in grade jobs come back as structured error verdicts, not
  /// exceptions.
  std::string run(std::string_view kernel, long long n,
                  const RuntimeOptions& opts) const;

  /// run() with execution hooks (see ExecHooks). hooks.outcome, when set, is
  /// filled on every path — including before an exception propagates, so a
  /// throwing attempt still reports what the devices recorded.
  std::string run(std::string_view kernel, long long n,
                  const RuntimeOptions& opts, const ExecHooks& hooks) const;

 private:
  struct MultiEntry {
    long long default_n;
    std::function<cumb::MultiPairResult(const RuntimeOptions&, int)> fn;
  };

  std::map<std::string, const cumb::PairDef*> bench_;
  std::map<std::string, MultiEntry> multi_;
  const grade::TaskRegistry* grade_tasks_ = nullptr;
  const grade::PluginRegistry* grade_plugins_ = nullptr;
  const std::map<std::string, grade::PerfBaseline>* grade_baselines_ = nullptr;
};

/// FNV-1a 64-bit over `s` — the serve layer's content-hash for cache keys,
/// rendered as 16 lowercase hex digits in reports.
std::string fnv1a64_hex(std::string_view s);

}  // namespace vgpu::serve
