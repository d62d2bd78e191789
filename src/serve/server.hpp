#pragma once

// vgpu-serve JobServer: a fault-tolerant multi-tenant batch front-end over
// the simulator.
//
// Tenants submit JobSpecs; run() executes the whole queue across a bounded
// pool of worker threads, each job simulating inside its own Runtime built
// from the job's RuntimeOptions (two tenants can run exact/checked and
// fast/unchecked jobs side by side in one process).
//
// Scheduling is quota-aware and deterministic: dispatch proceeds in waves,
// each wave taking up to TenantQuota::max_in_flight jobs per tenant in
// tenant-name order (default 1, which reproduces plain round-robin). A job
// dispatched in wave W records W * quota_wave_us of simulated queueing delay
// (`quota_wait_us`) — the cost its tenant's in-flight quota imposed — so the
// schedule is a pure function of the submission sequence, never of thread
// timing.
//
// Failed executions RETRY under a RetryPolicy (Config::retry, overridable
// per job via RuntimeOptions::retry_spec and capped by the tenant's
// max_attempts quota). Transient faults back off exponentially — simulated
// microseconds charged to a shared HostClock, exact integers, deterministic
// at any worker count. Sticky (context-corrupting) faults get a device
// reset + full replay: the next attempt constructs a fresh Runtime, which
// IS cudaDeviceReset in this simulator, and re-runs the job from scratch.
// Bench attempts share one FaultInjector so `nth=`/`after=` call counters
// persist — a deterministic transient fault fires once and the retry
// verifies clean. Every failed attempt is logged (code, name, recovery
// action) in the record's attempt_log.
//
// Multi-GPU jobs recover by EVICTION instead: a device ordinal whose fault
// site trips RetryPolicy::evict_after times is marked unhealthy, its clauses
// dropped from the job's fault spec (FaultInjector::without_device) and the
// job replayed over the surviving ordinals. Such results are flagged
// `degraded` (correct, but computed on fewer devices), aggregated into
// per-device health rows, and never spilled to the persistent cache — a
// restart recomputes them.
//
// Results are memoized in a content-addressed ResultCache. The cache key is
//
//   <kernel id> "|n=" <resolved size> "|" RuntimeOptions::canonical()
//
// — resolved size so n=0 and an explicit default size share an entry, and
// canonical() so only result-affecting knobs discriminate (sim_threads, the
// prof/advise observability knobs, and the serve-layer retry/cache-dir
// policy knobs do not; see rt/options.hpp). Duplicate keys in flight PARK
// rather than re-simulate: the first job with a key executes, later ones
// wait on it and complete from the cache, so each record's `cached` flag is
// deterministic (first submission of a key in dispatch order is the one and
// only uncached run) no matter how worker threads interleave. With
// Config::cache_dir set the cache is also crash-safe persistent (see
// serve/cache.hpp): a restarted server pointed at the same directory serves
// prior keys from disk byte-identically, and corrupt entries are
// quarantined and recomputed.
//
// Determinism contract of the report: for a fixed submission sequence and
// config, every field of report_json() — blobs, cached flags, attempt
// counts, backoffs, health rows, hit/miss counters, per-tenant stats — is
// byte-identical across runs, worker counts and VGPU_THREADS. Two caveats,
// both outside the happy path: eviction counts (and the re-misses evictions
// cause) are deterministic only when the queue's unique keys fit the cache
// or workers == 1, and a key whose execution FAILS is never cached, so its
// duplicates' hit/miss split depends on whether they parked behind the
// failure — the records themselves (ok, error, cached) stay deterministic
// in both cases.

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "fault/error.hpp"
#include "serve/cache.hpp"
#include "serve/registry.hpp"
#include "serve/retry.hpp"
#include "xfer/timeline.hpp"

namespace vgpu::serve {

/// One unit of work: which kernel, how big, under which options, for whom.
struct JobSpec {
  std::string tenant;
  std::string kernel;     ///< Registry id ("bench:comem", "grade:comem/...").
  long long n = 0;        ///< Problem size; 0 = registry default.
  RuntimeOptions options; ///< Full runtime configuration for this job.
};

/// One failed execution attempt and the recovery the engine chose:
/// "retry" (transient: back off and try again), "reset_replay" (sticky:
/// fresh Runtime, replay from scratch), "evict" (multi: drop the tripping
/// ordinal and re-route), "give_up" (attempts exhausted / not recoverable).
struct AttemptRecord {
  int attempt = 0;         ///< 1-based attempt number.
  int error_code = 0;      ///< Numeric ErrorCode the attempt recorded.
  std::string error_name;  ///< CUDA spelling ("cudaErrorLaunchFailure").
  std::string action;
};

/// The finished state of one submitted job.
struct JobRecord {
  std::uint64_t id = 0;   ///< Submission order, dense from 0.
  JobSpec spec;
  long long resolved_n = 0;
  std::string key;        ///< Full cache key ("" when the spec was invalid).
  std::string key_hash;   ///< fnv1a64_hex(key).
  bool ok = false;
  bool cached = false;    ///< Served from the result cache (or a parked dup).
  std::string blob;       ///< Result JSON; empty on error.
  std::string error;      ///< Diagnostic when !ok.
  int error_code = 0;     ///< Numeric ErrorCode when !ok (0 otherwise).
  std::string error_name; ///< CUDA spelling when !ok ("" otherwise).
  int attempts = 0;       ///< Execution attempts consumed (1 = first try).
  std::uint64_t backoff_us = 0;     ///< Simulated backoff charged, total.
  std::uint64_t quota_wait_us = 0;  ///< Simulated quota queueing delay.
  bool degraded = false;  ///< Result computed after device eviction.
  std::vector<AttemptRecord> attempt_log;  ///< One entry per failed attempt.
  std::map<int, int> device_trips;   ///< Ordinal → fault trips (multi).
  std::vector<int> evicted_devices;  ///< Original ordinals evicted (multi).
  RetryPolicy policy;     ///< Resolved policy (config < job < tenant cap).
};

struct TenantStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;  ///< ok only.
  std::uint64_t cached = 0;
  std::uint64_t failed = 0;
  std::uint64_t retried = 0;    ///< Jobs needing more than one attempt.
  std::uint64_t quota_wait_us = 0;
};

/// Per-ordinal health aggregated across every job of a run.
struct DeviceHealth {
  std::uint64_t trips = 0;         ///< Fault trips attributed to the ordinal.
  std::uint64_t evicted_jobs = 0;  ///< Jobs that evicted it mid-retry.
};

class JobServer {
 public:
  /// Per-tenant scheduling limits.
  struct TenantQuota {
    int max_in_flight = 1;  ///< Jobs dispatched per wave; clamped to >= 1.
    int max_attempts = 0;   ///< Retry-attempt cap, 0 = policy's own cap.
  };

  struct Config {
    int workers = 4;              ///< Concurrent jobs; clamped to [1, 64].
    std::size_t cache_capacity = 256;
    /// Worker Runtimes with options.sim_threads == 0 run single-threaded by
    /// default (job-level × block-level thread products explode); set false
    /// to let each job claim full hardware concurrency.
    bool serialize_default_threads = true;
    // The {} initialisers let designated initialisers skip these fields
    // without -Wmissing-field-initializers.
    RetryPolicy retry{};          ///< Default policy for every job.
    std::map<std::string, TenantQuota> quotas{};  ///< Absent tenant = defaults.
    std::string cache_dir{};      ///< Non-empty = persistent result cache.
    /// Simulated cost of waiting one dispatch wave on a tenant quota.
    std::uint64_t quota_wave_us = 100;
  };

  /// `registry` must outlive the server. Throws when Config::cache_dir is
  /// set but cannot be created.
  JobServer(const KernelRegistry& registry, Config cfg);

  /// Enqueue one job; returns its id (dense submission order). Rejected
  /// specs (unknown kernel, malformed fault/retry spec) are still assigned
  /// ids and surface as !ok records after run().
  std::uint64_t submit(JobSpec spec);

  /// Execute everything submitted so far to completion. May be called again
  /// after further submissions; the cache persists across rounds.
  void run();

  /// All records, by job id. Valid after run().
  const std::vector<JobRecord>& records() const { return records_; }

  /// Job ids in dispatch order (quota-bounded waves over tenants).
  /// Deterministic for a fixed submission sequence; independent of worker
  /// count.
  const std::vector<std::uint64_t>& dispatch_order() const {
    return dispatch_order_;
  }

  const ResultCache& cache() const { return cache_; }

  /// Per-tenant accounting, keyed by tenant name (sorted).
  std::map<std::string, TenantStats> tenant_stats() const;

  /// Per-ordinal health aggregated across the run, keyed by device ordinal.
  const std::map<int, DeviceHealth>& device_health() const { return health_; }

  /// True once any job completed degraded (a device was evicted).
  bool degraded() const { return degraded_; }

  /// Total simulated waiting charged to the shared host clock: every job's
  /// retry backoff plus quota queueing delay, in microseconds. An exact
  /// integer sum, so deterministic at any worker count.
  double simulated_wait_us() const { return clock_.now; }

  /// The canonical run report: config echo, per-job records sorted by id
  /// (result blobs embedded verbatim, attempt logs, degraded flags),
  /// per-tenant stats, device health, cache counters. Deliberately excludes
  /// wall-clock anything — byte-identical across runs.
  std::string report_json() const;

  /// The cache key `spec` resolves to. Exposed for byte-identity tests.
  std::string job_key(const JobSpec& spec) const;

  /// The options `spec` actually executes under: observability detached
  /// (prof/advise off — worker stdout must not interleave reports) and
  /// sim_threads pinned per Config::serialize_default_threads.
  RuntimeOptions exec_options(const JobSpec& spec) const;

 private:
  struct RunState;
  enum class Decision { kDone, kParked, kExecute };

  /// Claim-time triage, called under the run lock: reject, serve from
  /// cache, park behind the in-flight owner, or claim execution.
  Decision decide(JobRecord& rec, RunState& state);
  /// The retry engine: runs attempts until success, eviction-recovery or
  /// give-up. Called outside the lock.
  void execute(JobRecord& rec);
  /// Publish an executed record under the run lock: cache insert, parked
  /// duplicates, health aggregation, clock charge.
  void finish(JobRecord& rec, RunState& state);
  /// The policy `rec` retries under (config default, overridden by the
  /// job's retry_spec, attempts capped by its tenant quota). Throws on a
  /// malformed job spec.
  RetryPolicy policy_for(const JobRecord& rec) const;

  const KernelRegistry& registry_;
  Config cfg_;
  ResultCache cache_;
  std::vector<JobRecord> records_;
  std::vector<std::uint64_t> pending_;  ///< Submitted, not yet dispatched.
  std::vector<std::uint64_t> dispatch_order_;
  std::map<int, DeviceHealth> health_;
  bool degraded_ = false;
  /// Keys whose cached blob was computed degraded: duplicates served from
  /// cache inherit the flag deterministically, whether they parked behind
  /// the owner or arrived after it finished.
  std::set<std::string> degraded_keys_;
  HostClock clock_;  ///< Simulated backoff + quota wait accumulator.

  RunState* state_ = nullptr;  ///< run()-scoped (guarded by its mutex).
};

}  // namespace vgpu::serve
