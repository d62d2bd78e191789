// serve_tour: three tenants sharing one vgpu-serve JobServer.
//
// Demonstrates the PR-8 API end to end:
//
//   * RuntimeOptions as an explicit value — each tenant runs under a
//     different configuration (exact+checked, fast, exact+unchecked) in the
//     SAME process, something the env-var-only configuration could never
//     express;
//   * fair multi-tenant scheduling — jobs dispatch round-robin across
//     tenants regardless of submission bursts;
//   * deterministic result caching — repeat jobs are served from the
//     content-addressed cache, and the served bytes are PROVEN identical to
//     a fresh uncached simulation by re-running each cached job directly
//     against the registry.
//
// Exit 0 when every job completed, at least 30% of repeat submissions were
// served from cache (the parking contract actually makes it 100%), and every
// cached blob is byte-identical to its uncached recomputation.

#include <cstdio>
#include <string>
#include <vector>

#include "serve/server.hpp"

using vgpu::serve::JobServer;
using vgpu::serve::JobSpec;
using vgpu::serve::KernelRegistry;

int main() {
  KernelRegistry registry = KernelRegistry::builtin();

  // Three tenants, three configurations sharing one process.
  vgpu::RuntimeOptions ci = vgpu::RuntimeOptions::defaults();
  ci.check = vgpu::CheckMode::kFull;

  vgpu::RuntimeOptions sweep = vgpu::RuntimeOptions::defaults();
  sweep.fidelity = vgpu::Fidelity::kFast;

  vgpu::RuntimeOptions batch = vgpu::RuntimeOptions::defaults();

  JobServer server(registry, {.workers = 3, .cache_capacity = 64});

  // Each tenant submits a burst; half of each burst repeats earlier work.
  const char* kernels[] = {"bench:comem", "bench:warpdiv", "bench:bankredux",
                           "bench:shuffle"};
  int repeats = 0;
  for (int round = 0; round < 3; ++round) {
    for (const char* k : kernels) {
      server.submit({"ci", k, 0, ci});
      server.submit({"sweep", k, 0, sweep});
      server.submit({"batch", k, 0, batch});
      if (round > 0) repeats += 3;  // Rounds 1-2 resubmit round 0's work.
    }
  }

  server.run();

  int completed = 0, cached = 0, byte_identical = 0, mismatched = 0;
  for (const auto& rec : server.records()) {
    if (rec.ok) ++completed;
    if (!rec.cached) continue;
    ++cached;
    // The headline property: a cache hit serves the same bytes a fresh
    // simulation would produce.
    std::string fresh = registry.run(rec.spec.kernel, rec.resolved_n,
                                     server.exec_options(rec.spec));
    if (fresh == rec.blob) ++byte_identical; else ++mismatched;
  }

  const auto& cache = server.cache();
  std::printf("serve_tour: %zu jobs from 3 tenants, %d repeats\n",
              server.records().size(), repeats);
  std::printf("  completed: %d, served from cache: %d (hits=%llu misses=%llu)\n",
              completed, cached,
              static_cast<unsigned long long>(cache.hits()),
              static_cast<unsigned long long>(cache.misses()));
  std::printf("  cached blobs byte-identical to uncached reruns: %d/%d\n",
              byte_identical, cached);
  for (const auto& [tenant, s] : server.tenant_stats())
    std::printf("  tenant %-6s submitted=%llu completed=%llu cached=%llu\n",
                tenant.c_str(), static_cast<unsigned long long>(s.submitted),
                static_cast<unsigned long long>(s.completed),
                static_cast<unsigned long long>(s.cached));

  bool ok = completed == static_cast<int>(server.records().size()) &&
            repeats > 0 && cached * 10 >= repeats * 3 &&  // >= 30% of repeats.
            mismatched == 0;
  std::printf("%s\n", ok ? "SERVE TOUR PASSED" : "SERVE TOUR FAILED");
  return ok ? 0 : 1;
}
