// vgpu-serve tests: kernel registry, LRU result cache, and the JobServer's
// scheduling/caching/determinism contracts (PR 8 tentpole, part b).

#include <gtest/gtest.h>

#include <climits>
#include <set>
#include <string>
#include <vector>

#include "serve/server.hpp"

namespace {

using namespace vgpu;
using serve::JobServer;
using serve::JobSpec;
using serve::KernelRegistry;
using serve::ResultCache;

RuntimeOptions tiny_defaults() {
  // Bench kernels pick their own sizes; the profile just needs to exist.
  return RuntimeOptions::defaults();
}

// --- Registry ---------------------------------------------------------------

TEST(ServeRegistry, BuiltinCoversEveryBenchPair) {
  KernelRegistry reg = KernelRegistry::builtin();
  std::vector<std::string> ids = reg.ids();
  // 14 Table-I pairs + constpoly/histogram/layout + 3 multi-GPU ports.
  EXPECT_EQ(ids.size(), 20u);
  for (const char* id :
       {"bench:comem", "bench:warpdiv", "bench:memalign", "bench:shmem_mm",
        "bench:conkernels", "bench:taskgraph", "bench:hdoverlap",
        "bench:gsoverlap", "bench:bankredux", "bench:shuffle",
        "bench:readonly", "bench:constpoly", "bench:unimem",
        "bench:minitransfer", "bench:dynparallel", "bench:histogram",
        "bench:layout", "multi:halo", "multi:histogram", "multi:matmul"}) {
    EXPECT_TRUE(reg.known(id)) << id;
    EXPECT_GT(reg.default_size(id), 0) << id;
  }
  EXPECT_EQ(reg.kind("bench:comem"), serve::KernelKind::kBench);
  EXPECT_EQ(reg.kind("multi:halo"), serve::KernelKind::kMulti);
  EXPECT_FALSE(reg.known("bench:nope"));
  EXPECT_FALSE(reg.known("multi:nope"));
  EXPECT_FALSE(reg.known("grade:comem/comem_coalesced"));  // Not attached.
  EXPECT_THROW(reg.default_size("bench:nope"), std::invalid_argument);
  EXPECT_THROW(reg.run("bench:nope", 0, tiny_defaults()), std::invalid_argument);
}

TEST(ServeRegistry, RunIsByteDeterministic) {
  KernelRegistry reg = KernelRegistry::builtin();
  RuntimeOptions o = tiny_defaults();
  std::string a = reg.run("bench:warpdiv", 0, o);
  std::string b = reg.run("bench:warpdiv", 0, o);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"kernel\": \"bench:warpdiv\""), std::string::npos);
  EXPECT_NE(a.find("\"verified\": true"), std::string::npos);
}

// A size that does not fit an int must be rejected, not truncated: as an
// int, (1 << 32) + 4096 is 4096, a valid size that would run and be cached
// under the key of the huge one.
constexpr long long kHugeN = (1LL << 32) + 4096;

TEST(ServeRegistry, SizeAboveIntMaxIsRejectedNotTruncated) {
  KernelRegistry reg = KernelRegistry::builtin();
  RuntimeOptions o = tiny_defaults();
  for (const char* id : {"bench:warpdiv", "multi:halo"}) {
    EXPECT_THROW(reg.resolve_size(id, kHugeN), std::invalid_argument) << id;
    EXPECT_THROW(reg.run(id, kHugeN, o), std::invalid_argument) << id;
    EXPECT_EQ(reg.resolve_size(id, 0), reg.default_size(id)) << id;
    EXPECT_EQ(reg.resolve_size(id, INT_MAX), INT_MAX) << id;
  }
  EXPECT_THROW(reg.resolve_size("bench:nope", 1), std::invalid_argument);
}

TEST(ServeRegistry, Fnv1a64HexIsStable) {
  EXPECT_EQ(serve::fnv1a64_hex(""), "cbf29ce484222325");
  EXPECT_EQ(serve::fnv1a64_hex("a"), "af63dc4c8601ec8c");
  EXPECT_NE(serve::fnv1a64_hex("a"), serve::fnv1a64_hex("b"));
}

// --- ResultCache ------------------------------------------------------------

TEST(ServeCache, LruEvictionAndCounters) {
  ResultCache cache(2);
  EXPECT_FALSE(cache.lookup("k1").has_value());  // Miss.
  cache.insert("k1", "v1");
  cache.insert("k2", "v2");
  EXPECT_EQ(cache.lookup("k1").value(), "v1");   // Hit; k1 now most recent.
  cache.insert("k3", "v3");                      // Evicts k2 (LRU).
  EXPECT_FALSE(cache.lookup("k2").has_value());
  EXPECT_EQ(cache.lookup("k1").value(), "v1");
  EXPECT_EQ(cache.lookup("k3").value(), "v3");
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_TRUE(cache.contains("k1"));
  EXPECT_FALSE(cache.contains("k2"));
}

TEST(ServeCache, ZeroCapacityDisablesCaching) {
  ResultCache cache(0);
  cache.insert("k", "v");
  EXPECT_FALSE(cache.lookup("k").has_value());
  EXPECT_EQ(cache.entries(), 0u);
}

TEST(ServeCache, MetricsUseProfShape) {
  ResultCache cache(4);
  cache.insert("k", "v");
  (void)cache.lookup("k");
  (void)cache.lookup("missing");
  std::vector<Metric> m = cache.metrics();
  ASSERT_EQ(m.size(), 5u);
  EXPECT_EQ(m[0].name, "serve_cache_hits");
  EXPECT_EQ(m[0].value, 1.0);
  EXPECT_EQ(m[1].name, "serve_cache_misses");
  EXPECT_EQ(m[1].value, 1.0);
  EXPECT_EQ(m[4].name, "serve_cache_hit_rate");
  EXPECT_EQ(m[4].value, 50.0);
  EXPECT_STREQ(m[4].unit, "%");
}

// --- JobServer --------------------------------------------------------------

TEST(ServeServer, CacheKeyExcludesSimThreadsAndObservability) {
  KernelRegistry reg = KernelRegistry::builtin();
  JobServer server(reg, {.workers = 1, .cache_capacity = 16});
  JobSpec a{"t", "bench:warpdiv", 0, tiny_defaults()};
  JobSpec b = a;
  b.options.sim_threads = 8;
  b.options.prof = ProfMode::kFull;
  b.options.advise = AdviseMode::kFull;
  EXPECT_EQ(server.job_key(a), server.job_key(b));
  JobSpec c = a;
  c.options.fidelity = Fidelity::kFast;
  EXPECT_NE(server.job_key(a), server.job_key(c));
  // n=0 resolves to the registry default: same key as the explicit size.
  JobSpec d = a;
  d.n = reg.default_size("bench:warpdiv");
  EXPECT_EQ(server.job_key(a), server.job_key(d));
}

TEST(ServeServer, RepeatJobsServeByteIdenticalBlobsAtAnyThreadCount) {
  KernelRegistry reg = KernelRegistry::builtin();
  JobServer server(reg, {.workers = 2, .cache_capacity = 16});
  JobSpec first{"t", "bench:bankredux", 0, tiny_defaults()};
  JobSpec again = first;
  again.options.sim_threads = 4;  // Different host parallelism, same content.
  std::uint64_t id0 = server.submit(first);
  std::uint64_t id1 = server.submit(again);
  server.run();
  const auto& recs = server.records();
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_TRUE(recs[id0].ok);
  EXPECT_TRUE(recs[id1].ok);
  EXPECT_FALSE(recs[id0].cached);
  EXPECT_TRUE(recs[id1].cached);
  EXPECT_EQ(recs[id0].blob, recs[id1].blob);
  // And the served bytes equal a fresh uncached simulation.
  EXPECT_EQ(recs[id1].blob,
            reg.run("bench:bankredux", 0, server.exec_options(again)));
  EXPECT_EQ(server.cache().hits(), 1u);
  EXPECT_EQ(server.cache().misses(), 1u);
}

TEST(ServeServer, UnknownKernelIsAFailedRecordNotACrash) {
  KernelRegistry reg = KernelRegistry::builtin();
  JobServer server(reg, {.workers = 2, .cache_capacity = 16});
  server.submit({"t", "bench:imaginary", 0, tiny_defaults()});
  server.submit({"t", "bench:warpdiv", 0, tiny_defaults()});
  server.run();
  const auto& recs = server.records();
  EXPECT_FALSE(recs[0].ok);
  EXPECT_NE(recs[0].error.find("unknown kernel"), std::string::npos);
  EXPECT_TRUE(recs[1].ok);
}

TEST(ServeServer, SizeAboveIntMaxFailsTheJobWithoutRunningIt) {
  KernelRegistry reg = KernelRegistry::builtin();
  JobServer server(reg, {.workers = 1, .cache_capacity = 16});
  server.submit({"t", "bench:warpdiv", kHugeN, tiny_defaults()});
  server.submit({"t", "multi:halo", kHugeN, tiny_defaults()});
  server.submit({"t", "bench:warpdiv", 4096, tiny_defaults()});
  server.run();
  const auto& recs = server.records();
  for (int i : {0, 1}) {
    EXPECT_FALSE(recs[i].ok) << i;
    EXPECT_EQ(recs[i].error_code, static_cast<int>(ErrorCode::kInvalidValue));
    EXPECT_NE(recs[i].error.find("does not fit an int"), std::string::npos);
    EXPECT_TRUE(recs[i].key.empty()) << i;  // Rejected before the cache.
    EXPECT_TRUE(recs[i].blob.empty()) << i;
    ASSERT_EQ(recs[i].attempt_log.size(), 1u) << i;
    EXPECT_EQ(recs[i].attempt_log[0].action, "give_up");
  }
  EXPECT_TRUE(recs[2].ok);
  // Only the valid job reached the cache and executed.
  EXPECT_EQ(server.cache().misses(), 1u);
  EXPECT_EQ(server.cache().hits(), 0u);
}

TEST(ServeServer, MalformedFaultSpecFailsTheJobOnly) {
  KernelRegistry reg = KernelRegistry::builtin();
  JobServer server(reg, {.workers = 1, .cache_capacity = 16});
  JobSpec bad{"t", "bench:warpdiv", 0, tiny_defaults()};
  bad.options.fault_spec = "not-a-site:fail";
  server.submit(bad);
  server.submit({"t", "bench:warpdiv", 0, tiny_defaults()});
  server.run();
  EXPECT_FALSE(server.records()[0].ok);
  EXPECT_TRUE(server.records()[1].ok);
}

TEST(ServeServer, RoundRobinDispatchIsFairAcrossTenants) {
  KernelRegistry reg = KernelRegistry::builtin();
  JobServer server(reg, {.workers = 1, .cache_capacity = 16});
  // alice bursts 4 jobs before bob's 2; dispatch must interleave.
  std::uint64_t a0 = server.submit({"alice", "bench:warpdiv", 0, tiny_defaults()});
  std::uint64_t a1 = server.submit({"alice", "bench:layout", 0, tiny_defaults()});
  std::uint64_t a2 = server.submit({"alice", "bench:readonly", 0, tiny_defaults()});
  std::uint64_t a3 = server.submit({"alice", "bench:shmem_mm", 0, tiny_defaults()});
  std::uint64_t b0 = server.submit({"bob", "bench:warpdiv", 0, tiny_defaults()});
  std::uint64_t b1 = server.submit({"bob", "bench:layout", 0, tiny_defaults()});
  server.run();
  std::vector<std::uint64_t> want{a0, b0, a1, b1, a2, a3};
  EXPECT_EQ(server.dispatch_order(), want);
  auto stats = server.tenant_stats();
  EXPECT_EQ(stats["alice"].submitted, 4u);
  EXPECT_EQ(stats["alice"].completed, 4u);
  EXPECT_EQ(stats["bob"].submitted, 2u);
  // bob's jobs repeat alice's (same kernel, size, options): cache hits.
  EXPECT_EQ(stats["bob"].cached, 2u);
}

TEST(ServeServer, ReportIsDeterministicAcrossWorkerCounts) {
  auto run_report = [](int workers) {
    KernelRegistry reg = KernelRegistry::builtin();
    JobServer server(reg, {.workers = workers, .cache_capacity = 32});
    for (int round = 0; round < 2; ++round)
      for (const char* k : {"bench:warpdiv", "bench:layout", "bench:readonly"})
        for (const char* tenant : {"t1", "t2"}) {
          JobSpec spec{tenant, k, 0, RuntimeOptions::defaults()};
          if (std::string(tenant) == "t2")
            spec.options.fidelity = Fidelity::kFast;
          server.submit(spec);
        }
    server.run();
    return server.report_json();
  };
  std::string serial = run_report(1);
  std::string parallel = run_report(4);
  // The config echo differs ("workers": 1 vs 4); everything downstream of
  // the first jobs line must not.
  auto tail = [](const std::string& s) {
    return s.substr(s.find("\"jobs\""));
  };
  EXPECT_EQ(tail(serial), tail(parallel));
  EXPECT_NE(serial.find("\"schema\": \"vgpu-serve-report-v2\""),
            std::string::npos);
}

TEST(ServeServer, EvictionCountersSurfaceUnderPressure) {
  KernelRegistry reg = KernelRegistry::builtin();
  // Cache holds 2; 3 unique keys.
  JobServer server(reg, {.workers = 1, .cache_capacity = 2});
  server.submit({"t", "bench:warpdiv", 0, tiny_defaults()});
  server.submit({"t", "bench:layout", 0, tiny_defaults()});
  server.submit({"t", "bench:readonly", 0, tiny_defaults()});
  server.run();
  EXPECT_EQ(server.cache().evictions(), 1u);
  EXPECT_EQ(server.cache().entries(), 2u);
}

}  // namespace
