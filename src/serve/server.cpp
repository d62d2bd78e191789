#include "serve/server.hpp"

#include <algorithm>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "fault/inject.hpp"
#include "grade/json.hpp"

namespace vgpu::serve {

/// Shared state of one run() round. One mutex serializes dispatch, the
/// claim-time triage (cache probe, parking), result publication and the
/// health/clock aggregates, so every counter is a pure function of the
/// dispatch sequence under any thread interleaving. Simulation itself —
/// including the whole retry loop — runs outside the lock.
struct JobServer::RunState {
  std::mutex mu;
  std::size_t next = 0;          ///< Next index into this round's order.
  std::size_t completed = 0;     ///< Records finished this round.
  std::size_t round_size = 0;
  /// Key → ids parked behind the in-flight owner of that key.
  std::map<std::string, std::vector<std::uint64_t>> inflight;
  const std::vector<std::uint64_t>* order = nullptr;
};

namespace {

/// A record that never executed (rejection, parked behind a failure) still
/// carries a structured error and a give-up entry so every !ok row satisfies
/// the same report invariants.
void mark_failed(JobRecord& rec, ErrorCode code, std::string error) {
  rec.ok = false;
  rec.error = std::move(error);
  rec.error_code = static_cast<int>(code);
  rec.error_name = error_name(code);
  if (rec.attempts == 0) rec.attempts = 1;
  rec.attempt_log.push_back(AttemptRecord{
      rec.attempts, rec.error_code, rec.error_name, "give_up"});
}

}  // namespace

JobServer::JobServer(const KernelRegistry& registry, Config cfg)
    : registry_(registry), cfg_(std::move(cfg)), cache_(cfg_.cache_capacity) {
  cfg_.workers = std::clamp(cfg_.workers, 1, 64);
  if (!cfg_.cache_dir.empty()) cache_.enable_persistence(cfg_.cache_dir);
}

std::uint64_t JobServer::submit(JobSpec spec) {
  JobRecord rec;
  rec.id = records_.size();
  rec.spec = std::move(spec);
  records_.push_back(std::move(rec));
  pending_.push_back(records_.back().id);
  return records_.back().id;
}

RuntimeOptions JobServer::exec_options(const JobSpec& spec) const {
  RuntimeOptions o = spec.options;
  // Workers must not interleave profiler/advisor reports on stdout, and both
  // knobs are observational (excluded from the cache key) — detach them.
  o.prof = ProfMode::kOff;
  o.advise = AdviseMode::kOff;
  o.trace_path.clear();
  o.advise_json_path.clear();
  if (o.sim_threads == 0 && cfg_.serialize_default_threads) o.sim_threads = 1;
  return o;
}

std::string JobServer::job_key(const JobSpec& spec) const {
  return spec.kernel + "|n=" +
         std::to_string(registry_.resolve_size(spec.kernel, spec.n)) + "|" +
         spec.options.canonical();
}

RetryPolicy JobServer::policy_for(const JobRecord& rec) const {
  RetryPolicy pol = cfg_.retry;
  if (!rec.spec.options.retry_spec.empty())
    pol = RetryPolicy::parse(rec.spec.options.retry_spec);
  auto q = cfg_.quotas.find(rec.spec.tenant);
  if (q != cfg_.quotas.end() && q->second.max_attempts > 0)
    pol.max_attempts = std::min(pol.max_attempts, q->second.max_attempts);
  return pol;
}

void JobServer::run() {
  // Quota-bounded fair dispatch: waves over tenants in name order, each
  // tenant contributing up to its max_in_flight jobs per wave (default 1 —
  // plain round-robin). A job dispatched in wave W waited W waves on its
  // tenant's quota; that wait is recorded in simulated microseconds. Pure
  // function of the submission sequence.
  std::map<std::string, std::vector<std::uint64_t>> by_tenant;
  for (std::uint64_t id : pending_)
    by_tenant[records_[id].spec.tenant].push_back(id);
  pending_.clear();
  std::vector<std::uint64_t> order;
  for (std::uint64_t wave = 0; !by_tenant.empty(); ++wave) {
    for (auto it = by_tenant.begin(); it != by_tenant.end();) {
      std::size_t slots = 1;
      auto q = cfg_.quotas.find(it->first);
      if (q != cfg_.quotas.end() && q->second.max_in_flight > 1)
        slots = static_cast<std::size_t>(q->second.max_in_flight);
      std::vector<std::uint64_t>& queue = it->second;
      std::size_t take = std::min(slots, queue.size());
      for (std::size_t i = 0; i < take; ++i) {
        order.push_back(queue[i]);
        records_[queue[i]].quota_wait_us = wave * cfg_.quota_wave_us;
      }
      queue.erase(queue.begin(),
                  queue.begin() + static_cast<std::ptrdiff_t>(take));
      it = queue.empty() ? by_tenant.erase(it) : std::next(it);
    }
  }
  dispatch_order_.insert(dispatch_order_.end(), order.begin(), order.end());

  RunState state;
  state.order = &order;
  state.round_size = order.size();
  state_ = &state;

  auto worker = [this, &state] {
    for (;;) {
      std::uint64_t id = 0;
      Decision d;
      {
        // Claim and triage under ONE lock acquisition: the claim and the
        // cache/park decision must be atomic, or a later duplicate could
        // start executing while an earlier one parks.
        std::lock_guard<std::mutex> lock(state.mu);
        if (state.next >= state.order->size()) return;
        id = (*state.order)[state.next++];
        d = decide(records_[id], state);
      }
      if (d == Decision::kExecute) {
        execute(records_[id]);
        std::lock_guard<std::mutex> lock(state.mu);
        finish(records_[id], state);
      }
    }
  };
  int nworkers = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(cfg_.workers),
                            order.size()));
  std::vector<std::thread> threads;
  for (int i = 0; i < std::max(nworkers - 1, 0); ++i)
    threads.emplace_back(worker);
  if (nworkers > 0) worker();
  for (std::thread& t : threads) t.join();
  // Workers only return once the dispatch list is drained, and every parked
  // job is completed by its key's owner before that owner picks new work, so
  // joining the pool is joining the round.
  state_ = nullptr;
}

JobServer::Decision JobServer::decide(JobRecord& rec, RunState& state) {
  if (!registry_.known(rec.spec.kernel)) {
    mark_failed(rec, ErrorCode::kInvalidValue,
                "unknown kernel: " + rec.spec.kernel);
    clock_.now += static_cast<double>(rec.quota_wait_us);
    ++state.completed;
    return Decision::kDone;
  }
  try {
    rec.resolved_n = registry_.resolve_size(rec.spec.kernel, rec.spec.n);
    rec.key = job_key(rec.spec);
    rec.key_hash = fnv1a64_hex(rec.key);
    rec.policy = policy_for(rec);
  } catch (const std::exception& e) {  // Oversized n, malformed spec, etc.
    mark_failed(rec, ErrorCode::kInvalidValue, e.what());
    clock_.now += static_cast<double>(rec.quota_wait_us);
    ++state.completed;
    return Decision::kDone;
  }

  if (cache_.probe(rec.key)) {  // Memory, or lazily paged in from disk.
    auto blob = cache_.lookup(rec.key);  // Counts the hit.
    rec.ok = true;
    rec.cached = true;
    rec.attempts = 1;
    rec.degraded = degraded_keys_.count(rec.key) != 0;
    rec.blob = std::move(*blob);
    clock_.now += static_cast<double>(rec.quota_wait_us);
    ++state.completed;
    return Decision::kDone;
  }
  auto it = state.inflight.find(rec.key);
  if (it != state.inflight.end()) {
    // Same key already simulating: park, uncounted — the owner completes
    // this record from the cache (one hit), so hit/miss totals are a pure
    // function of the dispatch sequence, not of worker interleaving.
    it->second.push_back(rec.id);
    return Decision::kParked;
  }
  (void)cache_.lookup(rec.key);  // Counts the one miss this key executes for.
  state.inflight[rec.key] = {};
  return Decision::kExecute;
}

void JobServer::execute(JobRecord& rec) {
  KernelKind kind = registry_.kind(rec.spec.kernel);
  RuntimeOptions opts = exec_options(rec.spec);
  // Grade jobs get exactly one attempt: their failures are structured
  // verdicts inside the blob, not execution faults.
  int max_attempts = kind == KernelKind::kGrade ? 1 : rec.policy.max_attempts;

  // Bench attempts share one injector so nth=/after= call counters persist
  // across the retry loop — a fresh Runtime per attempt would re-fire the
  // same deterministic fault forever.
  std::shared_ptr<FaultInjector> injector;
  if (kind == KernelKind::kBench && !opts.fault_spec.empty())
    injector = FaultInjector::from_spec(opts.fault_spec);

  // Multi: position-in-set → original ordinal, so trips stay attributed to
  // the real device across evictions (survivors renumber down).
  std::vector<int> ordinal_map;
  if (kind == KernelKind::kMulti) {
    ordinal_map.resize(static_cast<std::size_t>(std::max(opts.devices, 1)));
    std::iota(ordinal_map.begin(), ordinal_map.end(), 0);
  }

  std::uint64_t next_backoff = rec.policy.backoff_us;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    rec.attempts = attempt;
    RunOutcome out;
    ExecHooks hooks;
    hooks.injector = injector;
    hooks.outcome = &out;
    std::string blob, error;
    try {
      blob = registry_.run(rec.spec.kernel, rec.resolved_n, opts, hooks);
    } catch (const std::exception& e) {
      error = e.what();
    }
    bool failed = !error.empty() || out.code != ErrorCode::kSuccess ||
                  !out.verified;
    if (!failed) {
      rec.ok = true;
      rec.blob = std::move(blob);
      return;
    }
    ErrorCode code =
        out.code == ErrorCode::kSuccess ? ErrorCode::kUnknown : out.code;
    // Attribute multi trips to original ordinals for eviction decisions.
    for (std::size_t pos = 0;
         pos < out.device_errors.size() && pos < ordinal_map.size(); ++pos)
      if (out.device_errors[pos] != 0)
        ++rec.device_trips[ordinal_map[pos]];

    if (attempt == max_attempts) {
      rec.error = !error.empty()
                      ? error
                      : (out.code != ErrorCode::kSuccess
                             ? std::string(error_string(code))
                             : "result verification failed");
      mark_failed(rec, code, std::move(rec.error));
      return;
    }

    // Recovery for the next attempt, in preference order: evict a tripping
    // ordinal (multi), reset+replay (sticky — the fresh Runtime the next
    // attempt constructs IS cudaDeviceReset), or plain backoff retry.
    std::string action;
    bool evicted = false;
    if (kind == KernelKind::kMulti && ordinal_map.size() > 1 &&
        rec.spec.options.topology.empty()) {
      // An explicit topology names a fixed device count — not re-routable.
      for (std::size_t pos = 0; pos < ordinal_map.size(); ++pos) {
        int orig = ordinal_map[pos];
        auto trips = rec.device_trips.find(orig);
        if (trips == rec.device_trips.end() ||
            trips->second < rec.policy.evict_after)
          continue;
        if (!opts.fault_spec.empty())
          opts.fault_spec = FaultInjector::parse(opts.fault_spec)
                                .without_device(static_cast<int>(pos));
        ordinal_map.erase(ordinal_map.begin() +
                          static_cast<std::ptrdiff_t>(pos));
        opts.devices = static_cast<int>(ordinal_map.size());
        rec.evicted_devices.push_back(orig);
        rec.degraded = true;
        evicted = true;
        break;
      }
    }
    if (evicted) {
      action = "evict";
    } else if (is_sticky(code)) {
      action = "reset_replay";
    } else {
      action = "retry";
      rec.backoff_us += next_backoff;
      next_backoff *= static_cast<std::uint64_t>(rec.policy.multiplier);
    }
    rec.attempt_log.push_back(AttemptRecord{
        attempt, static_cast<int>(code), error_name(code), action});
  }
}

void JobServer::finish(JobRecord& rec, RunState& state) {
  std::vector<std::uint64_t> parked = std::move(state.inflight[rec.key]);
  state.inflight.erase(rec.key);

  for (const auto& [dev, trips] : rec.device_trips)
    health_[dev].trips += static_cast<std::uint64_t>(trips);
  for (int dev : rec.evicted_devices) {
    ++health_[dev].evicted_jobs;
    degraded_ = true;
  }
  // Exact integer sums in doubles: addition order cannot change the result,
  // so the clock is deterministic at any worker count.
  clock_.now +=
      static_cast<double>(rec.backoff_us + rec.quota_wait_us);

  if (rec.ok) {
    // Degraded blobs stay memory-only: a restarted server must recompute
    // them (and deterministically re-evict), not replay them as healthy.
    cache_.insert(rec.key, rec.blob, /*persist=*/!rec.degraded);
    if (rec.degraded) degraded_keys_.insert(rec.key);
    ++state.completed;
    for (std::uint64_t pid : parked) {
      JobRecord& p = records_[pid];
      // Served without re-simulating — a cache hit in every sense.
      auto served = cache_.lookup(p.key);
      p.ok = true;
      p.cached = true;
      p.attempts = 1;
      p.degraded = rec.degraded;
      p.blob = served ? std::move(*served) : rec.blob;
      clock_.now += static_cast<double>(p.quota_wait_us);
      ++state.completed;
    }
  } else {
    ++state.completed;
    for (std::uint64_t pid : parked) {
      JobRecord& p = records_[pid];
      p.attempts = 1;
      mark_failed(p, static_cast<ErrorCode>(rec.error_code), rec.error);
      clock_.now += static_cast<double>(p.quota_wait_us);
      ++state.completed;
    }
  }
}

std::map<std::string, TenantStats> JobServer::tenant_stats() const {
  std::map<std::string, TenantStats> out;
  for (const JobRecord& r : records_) {
    TenantStats& s = out[r.spec.tenant];
    ++s.submitted;
    if (r.ok) {
      ++s.completed;
      if (r.cached) ++s.cached;
    } else {
      ++s.failed;
    }
    if (r.attempts > 1) ++s.retried;
    s.quota_wait_us += r.quota_wait_us;
  }
  return out;
}

std::string JobServer::report_json() const {
  grade::JsonWriter w;
  w.begin_object();
  w.kv("schema", "vgpu-serve-report-v2");
  w.kv("schema_version", static_cast<std::uint64_t>(2));
  w.key("config");
  w.begin_object();
  w.kv("workers", cfg_.workers);
  w.kv("cache_capacity", static_cast<std::uint64_t>(cfg_.cache_capacity));
  w.key("retry");
  w.begin_object();
  w.kv("attempts", cfg_.retry.max_attempts);
  w.kv("backoff_us", cfg_.retry.backoff_us);
  w.kv("multiplier", cfg_.retry.multiplier);
  w.kv("evict_after", cfg_.retry.evict_after);
  w.end_object();
  w.kv("quota_wave_us", cfg_.quota_wave_us);
  // The flag, not the path: reports must not vary with scratch locations.
  w.kv("persistent_cache", !cfg_.cache_dir.empty());
  w.end_object();
  w.kv("degraded", degraded_);
  w.kv("simulated_wait_us", clock_.now);
  w.key("jobs");
  w.begin_array();
  for (const JobRecord& r : records_) {
    w.begin_object();
    w.kv("id", static_cast<std::uint64_t>(r.id));
    w.kv("tenant", r.spec.tenant);
    w.kv("kernel", r.spec.kernel);
    w.kv("n", static_cast<std::int64_t>(r.resolved_n));
    w.kv("key", r.key_hash);
    w.kv("ok", r.ok);
    w.kv("cached", r.cached);
    w.kv("attempts", r.attempts);
    w.kv("backoff_us", r.backoff_us);
    w.kv("quota_wait_us", r.quota_wait_us);
    w.kv("degraded", r.degraded);
    if (r.ok) {
      w.key("result");
      w.raw(r.blob);
    } else {
      w.kv("error", r.error);
      w.kv("error_code", r.error_code);
      w.kv("error_name", r.error_name);
    }
    w.key("attempt_log");
    w.begin_array();
    for (const AttemptRecord& a : r.attempt_log) {
      w.begin_object();
      w.kv("attempt", a.attempt);
      w.kv("error_code", a.error_code);
      w.kv("error_name", a.error_name);
      w.kv("action", a.action);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("tenants");
  w.begin_array();
  for (const auto& [name, s] : tenant_stats()) {
    w.begin_object();
    w.kv("tenant", name);
    w.kv("submitted", s.submitted);
    w.kv("completed", s.completed);
    w.kv("cached", s.cached);
    w.kv("failed", s.failed);
    w.kv("retried", s.retried);
    w.kv("quota_wait_us", s.quota_wait_us);
    auto q = cfg_.quotas.find(name);
    w.kv("max_in_flight",
         q != cfg_.quotas.end() ? std::max(q->second.max_in_flight, 1) : 1);
    w.kv("max_attempts", q != cfg_.quotas.end() ? q->second.max_attempts : 0);
    w.end_object();
  }
  w.end_array();
  w.key("device_health");
  w.begin_array();
  for (const auto& [dev, h] : health_) {
    w.begin_object();
    w.kv("device", dev);
    w.kv("trips", h.trips);
    w.kv("evicted_jobs", h.evicted_jobs);
    w.kv("healthy", h.evicted_jobs == 0);
    w.end_object();
  }
  w.end_array();
  w.key("cache");
  w.begin_object();
  w.kv("hits", cache_.hits());
  w.kv("misses", cache_.misses());
  w.kv("evictions", cache_.evictions());
  w.kv("entries", static_cast<std::uint64_t>(cache_.entries()));
  w.kv("capacity", static_cast<std::uint64_t>(cache_.capacity()));
  w.key("persistent");
  w.begin_object();
  const PersistentStore* store = cache_.store();
  w.kv("enabled", store != nullptr);
  w.kv("stores", store != nullptr ? store->stores() : 0);
  w.kv("loads", store != nullptr ? store->loads() : 0);
  w.kv("quarantined", store != nullptr ? store->quarantined() : 0);
  w.end_object();
  w.end_object();
  w.end_object();
  return w.str();
}

}  // namespace vgpu::serve
