// vgpu-serve fault-tolerance tests: RetryPolicy parsing, the crash-safe
// persistent cache (round-trip, restart replay, corruption quarantine), the
// retry/backoff engine across the injectable fault sites, multi-GPU device
// eviction, and quota-aware dispatch. The matrix mirrors the chaos harness
// (bench/serve_chaos.cpp) at unit scale: every fault recovers, every report
// is byte-identical at any worker count.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "serve/server.hpp"

namespace {

namespace fs = std::filesystem;
using namespace vgpu;
using serve::JobServer;
using serve::JobSpec;
using serve::KernelRegistry;
using serve::PersistentStore;
using serve::ResultCache;
using serve::RetryPolicy;

fs::path fresh_dir(const char* name) {
  fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir;
}

void flip_byte(const fs::path& path, std::ptrdiff_t offset_from_end) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.is_open());
  f.seekg(0, std::ios::end);
  std::streamoff size = f.tellg();
  ASSERT_GT(size, offset_from_end);
  f.seekp(size - offset_from_end);
  char c = 0;
  f.seekg(size - offset_from_end);
  f.get(c);
  f.seekp(size - offset_from_end);
  f.put(static_cast<char>(c ^ 0x40));
}

// --- RetryPolicy ------------------------------------------------------------

TEST(ServeRetryPolicy, DefaultsParseAndRoundTrip) {
  RetryPolicy def = RetryPolicy::parse("");
  EXPECT_EQ(def.max_attempts, 3);
  EXPECT_EQ(def.backoff_us, 50u);
  EXPECT_EQ(def.multiplier, 2);
  EXPECT_EQ(def.evict_after, 2);

  RetryPolicy p =
      RetryPolicy::parse("attempts=5,backoff=10,multiplier=3,evict=1");
  EXPECT_EQ(p.max_attempts, 5);
  EXPECT_EQ(p.backoff_us, 10u);
  EXPECT_EQ(p.multiplier, 3);
  EXPECT_EQ(p.evict_after, 1);
  EXPECT_EQ(RetryPolicy::parse(p.to_string()).to_string(), p.to_string());

  // Subsets and empty tokens are fine; junk is not.
  EXPECT_EQ(RetryPolicy::parse("attempts=1,").max_attempts, 1);
  EXPECT_THROW(RetryPolicy::parse("attempts=zero"), std::invalid_argument);
  EXPECT_THROW(RetryPolicy::parse("attempts=0"), std::invalid_argument);
  EXPECT_THROW(RetryPolicy::parse("lives=9"), std::invalid_argument);
}

// --- PersistentStore --------------------------------------------------------

TEST(ServePersistentStore, RoundTripOverwriteAndPlainMiss) {
  fs::path dir = fresh_dir("vgpu_store_roundtrip");
  PersistentStore store(dir.string());
  EXPECT_FALSE(store.load("k").has_value());  // Never stored: plain miss.
  EXPECT_EQ(store.quarantined(), 0u);
  EXPECT_TRUE(store.store("k", "hello"));
  ASSERT_TRUE(store.load("k").has_value());
  EXPECT_EQ(*store.load("k"), "hello");
  EXPECT_TRUE(store.store("k", "world"));  // Overwrite via temp + rename.
  EXPECT_EQ(*store.load("k"), "world");
  EXPECT_EQ(store.stores(), 2u);
  EXPECT_EQ(store.quarantined(), 0u);
}

TEST(ServePersistentStore, TruncationBitFlipAndBadMagicQuarantine) {
  fs::path dir = fresh_dir("vgpu_store_corrupt");
  PersistentStore store(dir.string());

  ASSERT_TRUE(store.store("truncated", "0123456789"));
  fs::resize_file(store.path_for("truncated"), 12);  // Mid-header crash.
  EXPECT_FALSE(store.load("truncated").has_value());
  EXPECT_EQ(store.quarantined(), 1u);
  EXPECT_TRUE(
      fs::exists(store.path_for("truncated") + std::string(".quarantined")));
  EXPECT_FALSE(fs::exists(store.path_for("truncated")));

  ASSERT_TRUE(store.store("flipped", "0123456789"));
  flip_byte(store.path_for("flipped"), 2);  // Bit rot in the blob bytes.
  EXPECT_FALSE(store.load("flipped").has_value());
  EXPECT_EQ(store.quarantined(), 2u);

  {
    std::ofstream bad(store.path_for("garbage"), std::ios::binary);
    bad << "not a vgpu cache entry at all";
  }
  EXPECT_FALSE(store.load("garbage").has_value());
  EXPECT_EQ(store.quarantined(), 3u);
  EXPECT_EQ(store.loads(), 0u);  // No corrupt bytes ever served.
}

TEST(ServeCache, ProbePagesInFromDiskUncounted) {
  fs::path dir = fresh_dir("vgpu_cache_pagein");
  {
    ResultCache cache(4);
    cache.enable_persistence(dir.string());
    cache.insert("k", "v");  // Spills to disk.
  }
  ResultCache fresh(4);
  fresh.enable_persistence(dir.string());
  EXPECT_FALSE(fresh.contains("k"));  // Memory-only view: empty.
  EXPECT_TRUE(fresh.probe("k"));      // Lazy page-in.
  EXPECT_EQ(fresh.hits(), 0u);        // Probe counts nothing...
  EXPECT_EQ(fresh.misses(), 0u);
  ASSERT_TRUE(fresh.lookup("k").has_value());  // ...the lookup counts the hit.
  EXPECT_EQ(*fresh.lookup("k"), "v");
  EXPECT_EQ(fresh.store()->loads(), 1u);
}

// --- Retry engine: the fault-site matrix ------------------------------------

// One queue covering every injectable single-device fault site; the clean
// job (index 0) is the reference blob every recovered job must reproduce
// byte-for-byte.
const char* kFaultMatrix[] = {
    "",                        // Clean reference.
    "oom:nth=1",               // Allocation failure (transient class).
    "h2d:nth=1",               // Upload dropped.
    "d2h:nth=1",               // Download dropped.
    "launch:transient,nth=2",  // Launch rejected, context healthy.
    "launch:nth=2",            // Sticky launch failure: reset + replay.
};

std::string run_fault_matrix(int workers, std::vector<std::string>* blobs) {
  KernelRegistry reg = KernelRegistry::builtin();
  JobServer server(reg, {.workers = workers, .cache_capacity = 32});
  for (const char* fault : kFaultMatrix) {
    JobSpec spec{"t", "bench:warpdiv", 0, RuntimeOptions::defaults()};
    spec.options.fault_spec = fault;
    server.submit(spec);
  }
  server.run();
  blobs->clear();
  for (const auto& rec : server.records()) {
    EXPECT_TRUE(rec.ok) << rec.spec.options.fault_spec << ": " << rec.error;
    blobs->push_back(rec.blob);
  }
  return server.report_json();
}

TEST(ServeFault, EveryFaultSiteRecoversToTheCleanBlob) {
  std::vector<std::string> blobs;
  run_fault_matrix(1, &blobs);
  ASSERT_EQ(blobs.size(), 6u);
  // A recovered job's final attempt ran on a fresh Runtime with the fault
  // counter consumed — its bytes must equal the never-faulted run's.
  for (std::size_t i = 1; i < blobs.size(); ++i)
    EXPECT_EQ(blobs[i], blobs[0]) << kFaultMatrix[i];
}

TEST(ServeFault, ReportIsByteIdenticalAtAnyWorkerCountUnderFaults) {
  std::vector<std::string> blobs1, blobs4, blobs8;
  std::string r1 = run_fault_matrix(1, &blobs1);
  std::string r4 = run_fault_matrix(4, &blobs4);
  std::string r8 = run_fault_matrix(8, &blobs8);
  auto tail = [](const std::string& s) { return s.substr(s.find("\"jobs\"")); };
  EXPECT_EQ(tail(r1), tail(r4));
  EXPECT_EQ(tail(r1), tail(r8));
  EXPECT_NE(r1.find("\"schema\": \"vgpu-serve-report-v2\""),
            std::string::npos);
}

TEST(ServeFault, TransientFaultsBackOffAndStickyFaultsResetReplay) {
  KernelRegistry reg = KernelRegistry::builtin();
  JobServer server(reg, {.workers = 1, .cache_capacity = 16});
  JobSpec transient{"t", "bench:warpdiv", 0, RuntimeOptions::defaults()};
  transient.options.fault_spec = "h2d:nth=1";  // Upload dropped: kUnknown.
  JobSpec sticky = transient;
  sticky.options.fault_spec = "launch:nth=2";
  std::uint64_t id_t = server.submit(transient);
  std::uint64_t id_s = server.submit(sticky);
  server.run();

  const auto& rt = server.records()[id_t];
  EXPECT_TRUE(rt.ok);
  EXPECT_EQ(rt.attempts, 2);
  EXPECT_EQ(rt.backoff_us, 50u);  // One backoff at the policy base.
  ASSERT_EQ(rt.attempt_log.size(), 1u);
  EXPECT_EQ(rt.attempt_log[0].action, "retry");
  EXPECT_EQ(rt.attempt_log[0].error_code, 999);
  EXPECT_EQ(rt.attempt_log[0].error_name, "cudaErrorUnknown");

  // The sticky launch failure parks on the stream until a sync point (the
  // classifying synchronize in the registry) surfaces cudaErrorLaunchFailure;
  // the engine answers with a device reset + full replay, not a backoff.
  const auto& rs = server.records()[id_s];
  EXPECT_TRUE(rs.ok);
  EXPECT_EQ(rs.attempts, 2);
  EXPECT_EQ(rs.backoff_us, 0u);
  ASSERT_EQ(rs.attempt_log.size(), 1u);
  EXPECT_EQ(rs.attempt_log[0].action, "reset_replay");
  EXPECT_EQ(rs.attempt_log[0].error_code, 719);
  EXPECT_EQ(rs.attempt_log[0].error_name, "cudaErrorLaunchFailure");

  // The shared simulated clock carries the one backoff plus the second
  // job's one-wave dispatch wait (a tenant holds one slot per wave).
  EXPECT_EQ(rt.quota_wait_us, 0u);
  EXPECT_EQ(rs.quota_wait_us, 100u);
  EXPECT_EQ(server.simulated_wait_us(), 150.0);
}

TEST(ServeFault, PerJobRetrySpecAndTenantCapLimitAttempts) {
  KernelRegistry reg = KernelRegistry::builtin();
  JobServer::Config cfg{.workers = 1, .cache_capacity = 16};
  cfg.quotas["capped"] = JobServer::TenantQuota{1, 1};
  JobServer server(reg, cfg);

  JobSpec no_retry{"t", "bench:warpdiv", 0, RuntimeOptions::defaults()};
  no_retry.options.fault_spec = "h2d:nth=1";
  no_retry.options.retry_spec = "attempts=1";  // Job-level override.
  JobSpec capped{"capped", "bench:warpdiv", 0, RuntimeOptions::defaults()};
  capped.options.fault_spec = "h2d:nth=1";  // Tenant quota caps attempts.
  JobSpec malformed{"t", "bench:warpdiv", 0, RuntimeOptions::defaults()};
  malformed.options.retry_spec = "attempts=zero";
  std::uint64_t id_n = server.submit(no_retry);
  std::uint64_t id_c = server.submit(capped);
  std::uint64_t id_m = server.submit(malformed);
  server.run();

  for (std::uint64_t id : {id_n, id_c}) {
    const auto& r = server.records()[id];
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.attempts, 1);
    EXPECT_EQ(r.error_code, 999);
    EXPECT_EQ(r.error_name, "cudaErrorUnknown");
    ASSERT_FALSE(r.attempt_log.empty());
    EXPECT_EQ(r.attempt_log.back().action, "give_up");
  }
  const auto& rm = server.records()[id_m];
  EXPECT_FALSE(rm.ok);
  EXPECT_EQ(rm.error_code, 1);  // Rejected spec: cudaErrorInvalidValue.
  EXPECT_EQ(rm.error_name, "cudaErrorInvalidValue");
  EXPECT_NE(rm.error.find("VGPU_RETRY"), std::string::npos);
}

TEST(ServeFault, RejectionsCarryStructuredErrorCode) {
  KernelRegistry reg = KernelRegistry::builtin();
  JobServer server(reg, {.workers = 1, .cache_capacity = 16});
  std::uint64_t id = server.submit(
      {"t", "bench:imaginary", 0, RuntimeOptions::defaults()});
  server.run();
  const auto& r = server.records()[id];
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error_code, 1);
  EXPECT_EQ(r.error_name, "cudaErrorInvalidValue");
  EXPECT_EQ(r.attempts, 1);
  ASSERT_EQ(r.attempt_log.size(), 1u);
  EXPECT_EQ(r.attempt_log[0].action, "give_up");
}

// --- Multi-GPU device eviction ----------------------------------------------

TEST(ServeFault, TrippingDeviceIsEvictedAndJobReplaysDegraded) {
  KernelRegistry reg = KernelRegistry::builtin();
  JobServer server(reg, {.workers = 1, .cache_capacity = 16});
  JobSpec spec{"m", "multi:halo", 0, RuntimeOptions::defaults()};
  spec.options.devices = 2;
  spec.options.fault_spec = "launch@dev1:fail";
  std::uint64_t id = server.submit(spec);
  server.run();

  const auto& r = server.records()[id];
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.attempts, 3);  // fail, fail (trips=2) -> evict -> clean.
  ASSERT_EQ(r.evicted_devices, std::vector<int>{1});
  ASSERT_EQ(r.attempt_log.size(), 2u);
  EXPECT_EQ(r.attempt_log[0].action, "reset_replay");  // Sticky, 1 trip.
  EXPECT_EQ(r.attempt_log[1].action, "evict");         // 2 trips: out.
  // The final blob ran on the surviving ordinal and verified.
  EXPECT_NE(r.blob.find("\"devices\": 1"), std::string::npos);
  EXPECT_NE(r.blob.find("\"verified\": true"), std::string::npos);

  EXPECT_TRUE(server.degraded());
  ASSERT_EQ(server.device_health().count(1), 1u);
  EXPECT_EQ(server.device_health().at(1).trips, 2u);
  EXPECT_EQ(server.device_health().at(1).evicted_jobs, 1u);
  std::string report = server.report_json();
  EXPECT_NE(report.find("\"degraded\": true"), std::string::npos);
  EXPECT_NE(report.find("\"healthy\": false"), std::string::npos);
}

TEST(ServeFault, PeerTransferFaultsEvictTheSourceDevice) {
  KernelRegistry reg = KernelRegistry::builtin();
  JobServer server(reg, {.workers = 1, .cache_capacity = 16});
  JobSpec spec{"m", "multi:halo", 0, RuntimeOptions::defaults()};
  spec.options.devices = 2;
  spec.options.fault_spec = "p2p@dev1:fail";
  std::uint64_t id = server.submit(spec);
  server.run();
  const auto& r = server.records()[id];
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.degraded);
  ASSERT_EQ(r.evicted_devices, std::vector<int>{1});
  EXPECT_NE(r.blob.find("\"verified\": true"), std::string::npos);
}

// --- Persistence through the server -----------------------------------------

TEST(ServeFault, PersistentCacheSurvivesRestartAndQuarantinesCorruption) {
  fs::path dir = fresh_dir("vgpu_serve_persist");
  KernelRegistry reg = KernelRegistry::builtin();
  JobSpec job{"t", "bench:warpdiv", 0, RuntimeOptions::defaults()};
  auto config = [&] {
    JobServer::Config cfg{.workers = 1, .cache_capacity = 16};
    cfg.cache_dir = dir.string();
    return cfg;
  };

  std::string blob0, key;
  {
    JobServer a(reg, config());
    std::uint64_t id = a.submit(job);
    a.run();
    ASSERT_TRUE(a.records()[id].ok);
    EXPECT_FALSE(a.records()[id].cached);
    blob0 = a.records()[id].blob;
    key = a.records()[id].key;
    EXPECT_EQ(a.cache().store()->stores(), 1u);
  }
  {
    // Restart: a fresh server over the same directory replays from disk.
    JobServer b(reg, config());
    std::uint64_t id = b.submit(job);
    b.run();
    EXPECT_TRUE(b.records()[id].ok);
    EXPECT_TRUE(b.records()[id].cached);
    EXPECT_EQ(b.records()[id].blob, blob0);
    EXPECT_EQ(b.cache().store()->loads(), 1u);
    EXPECT_EQ(b.cache().store()->stores(), 0u);
    EXPECT_EQ(b.cache().hits(), 1u);
  }
  {
    // Truncated entry (crash mid-disk): quarantined, recomputed, re-stored.
    JobServer c(reg, config());
    fs::resize_file(c.cache().store()->path_for(key), 10);
    std::uint64_t id = c.submit(job);
    c.run();
    EXPECT_TRUE(c.records()[id].ok);
    EXPECT_FALSE(c.records()[id].cached);  // Recomputed, not served corrupt.
    EXPECT_EQ(c.records()[id].blob, blob0);
    EXPECT_EQ(c.cache().store()->quarantined(), 1u);
    EXPECT_EQ(c.cache().store()->stores(), 1u);
  }
  {
    // Bit-flipped entry: same containment.
    JobServer d(reg, config());
    flip_byte(d.cache().store()->path_for(key), 3);
    std::uint64_t id = d.submit(job);
    d.run();
    EXPECT_TRUE(d.records()[id].ok);
    EXPECT_FALSE(d.records()[id].cached);
    EXPECT_EQ(d.records()[id].blob, blob0);
    EXPECT_EQ(d.cache().store()->quarantined(), 1u);
  }
}

TEST(ServeFault, DegradedResultsAreNeverPersisted) {
  fs::path dir = fresh_dir("vgpu_serve_degraded");
  KernelRegistry reg = KernelRegistry::builtin();
  JobSpec spec{"m", "multi:halo", 0, RuntimeOptions::defaults()};
  spec.options.devices = 2;
  spec.options.fault_spec = "launch@dev1:fail";
  auto config = [&] {
    JobServer::Config cfg{.workers = 1, .cache_capacity = 16};
    cfg.cache_dir = dir.string();
    return cfg;
  };
  std::string blob0;
  {
    JobServer a(reg, config());
    std::uint64_t id = a.submit(spec);
    a.run();
    ASSERT_TRUE(a.records()[id].ok);
    EXPECT_TRUE(a.records()[id].degraded);
    blob0 = a.records()[id].blob;
    EXPECT_EQ(a.cache().store()->stores(), 0u);  // Memory-only.
  }
  {
    // A restart recomputes (and deterministically re-evicts) instead of
    // replaying a reduced-device result as if it were healthy.
    JobServer b(reg, config());
    std::uint64_t id = b.submit(spec);
    b.run();
    EXPECT_TRUE(b.records()[id].ok);
    EXPECT_FALSE(b.records()[id].cached);
    EXPECT_TRUE(b.records()[id].degraded);
    EXPECT_EQ(b.records()[id].blob, blob0);
  }
}

// --- Quota-aware dispatch ---------------------------------------------------

TEST(ServeQuota, InFlightQuotaShapesWavesAndRecordsWait) {
  KernelRegistry reg = KernelRegistry::builtin();
  JobServer::Config cfg{.workers = 1, .cache_capacity = 16};
  cfg.quotas["alice"] = JobServer::TenantQuota{2, 0};  // 2 slots per wave.
  JobServer server(reg, cfg);
  std::uint64_t a0 = server.submit({"alice", "bench:warpdiv", 0, RuntimeOptions::defaults()});
  std::uint64_t a1 = server.submit({"alice", "bench:layout", 0, RuntimeOptions::defaults()});
  std::uint64_t a2 = server.submit({"alice", "bench:readonly", 0, RuntimeOptions::defaults()});
  std::uint64_t a3 = server.submit({"alice", "bench:shmem_mm", 0, RuntimeOptions::defaults()});
  std::uint64_t b0 = server.submit({"bob", "bench:warpdiv", 0, RuntimeOptions::defaults()});
  std::uint64_t b1 = server.submit({"bob", "bench:layout", 0, RuntimeOptions::defaults()});
  server.run();
  std::vector<std::uint64_t> want{a0, a1, b0, a2, a3, b1};
  EXPECT_EQ(server.dispatch_order(), want);
  // Wave 0 jobs waited nothing; wave 1 jobs one quantum.
  for (std::uint64_t id : {a0, a1, b0})
    EXPECT_EQ(server.records()[id].quota_wait_us, 0u) << id;
  for (std::uint64_t id : {a2, a3, b1})
    EXPECT_EQ(server.records()[id].quota_wait_us, 100u) << id;
  auto stats = server.tenant_stats();
  EXPECT_EQ(stats["alice"].quota_wait_us, 200u);
  EXPECT_EQ(stats["bob"].quota_wait_us, 100u);
  // Quota waits are charged to the shared simulated clock.
  EXPECT_EQ(server.simulated_wait_us(), 300.0);
}

}  // namespace
