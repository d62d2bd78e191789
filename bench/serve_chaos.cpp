// vgpu-serve chaos harness: drive whole job queues through injected faults,
// worker-count sweeps, and a kill -> restart -> replay-from-disk cycle of the
// persistent cache, and assert the fault-tolerance contract end to end:
//
//   A. Single-device fault matrix - a bench queue under every injectable
//      fault site, at 1/4/8 workers. Every job must eventually complete with
//      bytes identical to the never-faulted run, and the report body must be
//      byte-identical at any worker count.
//   B. Multi-GPU eviction - device-scoped faults over the multi:* ports at
//      two devices. The tripping ordinal is evicted, the job replays
//      degraded-but-verified, and reports stay worker-count-invariant.
//   C. Crash/replay - a server persists its queue to --dir, "crashes" (is
//      destroyed), and a restarted server must serve every job from disk
//      byte-identically without re-simulating. Two entries are then
//      deliberately corrupted (truncation, bit flip); the next restart must
//      quarantine both and recompute, never serving corrupt bytes.
//
// Plain executable: prints one line per scenario, exits 0 only if every
// assertion held (the CI chaos job keys off the exit code). Deterministic:
// no wall clock, no randomness.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "serve/server.hpp"

namespace {

namespace fs = std::filesystem;
using vgpu::RuntimeOptions;
using vgpu::serve::JobServer;
using vgpu::serve::JobSpec;
using vgpu::serve::KernelRegistry;

int g_failures = 0;

#define CHECK(cond, ...)                                        \
  do {                                                          \
    if (!(cond)) {                                              \
      std::fprintf(stderr, "serve_chaos FAIL (line %d): ", __LINE__); \
      std::fprintf(stderr, __VA_ARGS__);                        \
      std::fprintf(stderr, "\n");                               \
      ++g_failures;                                             \
    }                                                           \
  } while (0)

const int kWorkerCounts[] = {1, 4, 8};

std::string report_tail(const std::string& report) {
  std::size_t at = report.find("\"jobs\"");
  return at == std::string::npos ? report : report.substr(at);
}

// --- Scenario A: single-device fault matrix ---------------------------------

const char* kBenchKernels[] = {"bench:warpdiv", "bench:layout",
                               "bench:readonly", "bench:bankredux"};
const char* kBenchFaults[] = {
    "",                        // Clean reference run.
    "oom:nth=1",               // Allocation failure.
    "h2d:nth=1",               // Upload dropped.
    "d2h:nth=1",               // Download dropped.
    "launch:transient,nth=2",  // Launch rejected, context stays healthy.
    "launch:nth=2",            // Sticky corruption: device reset + replay.
};

struct QueueResult {
  std::vector<std::string> blobs;  // One per job, submission order.
  std::string tail;                // Report body below the config echo.
  bool all_ok = true;
};

QueueResult run_bench_queue(const KernelRegistry& reg, const char* fault,
                            int workers) {
  JobServer server(reg, {.workers = workers, .cache_capacity = 64});
  for (const char* kernel : kBenchKernels) {
    JobSpec spec{"chaos", kernel, 0, RuntimeOptions::defaults()};
    spec.options.fault_spec = fault;
    server.submit(spec);
  }
  server.run();
  QueueResult out;
  for (const auto& rec : server.records()) {
    out.all_ok = out.all_ok && rec.ok;
    if (!rec.ok)
      std::fprintf(stderr, "serve_chaos: %s under '%s' failed: %s\n",
                   rec.spec.kernel.c_str(), fault, rec.error.c_str());
    out.blobs.push_back(rec.blob);
  }
  out.tail = report_tail(server.report_json());
  return out;
}

void scenario_fault_matrix(const KernelRegistry& reg) {
  QueueResult clean = run_bench_queue(reg, "", 1);
  CHECK(clean.all_ok, "clean reference queue failed");
  for (const char* fault : kBenchFaults) {
    QueueResult ref;
    for (std::size_t w = 0; w < 3; ++w) {
      QueueResult got = run_bench_queue(reg, fault, kWorkerCounts[w]);
      CHECK(got.all_ok, "queue under '%s' at %d workers did not recover",
            fault, kWorkerCounts[w]);
      // Recovered jobs must reproduce the never-faulted bytes exactly.
      for (std::size_t i = 0; i < got.blobs.size(); ++i)
        CHECK(got.blobs[i] == clean.blobs[i],
              "'%s' blob for %s differs from the clean run", fault,
              kBenchKernels[i]);
      if (w == 0)
        ref = got;
      else
        CHECK(got.tail == ref.tail,
              "report under '%s' differs between 1 and %d workers", fault,
              kWorkerCounts[w]);
    }
  }
  std::printf("serve_chaos: fault matrix ok (%zu faults x %zu kernels x 3 "
              "worker counts)\n",
              std::size(kBenchFaults), std::size(kBenchKernels));
}

// --- Scenario B: multi-GPU device eviction ----------------------------------

const char* kMultiKernels[] = {"multi:halo", "multi:histogram",
                               "multi:matmul"};
const char* kMultiFaults[] = {"launch@dev1:fail", "p2p@dev1:fail"};

void scenario_eviction(const KernelRegistry& reg) {
  for (const char* fault : kMultiFaults) {
    std::string ref_tail;
    for (std::size_t w = 0; w < 3; ++w) {
      JobServer server(reg, {.workers = kWorkerCounts[w], .cache_capacity = 64});
      for (const char* kernel : kMultiKernels) {
        JobSpec spec{"chaos", kernel, 0, RuntimeOptions::defaults()};
        spec.options.devices = 2;
        spec.options.fault_spec = fault;
        server.submit(spec);
      }
      server.run();
      for (const auto& rec : server.records()) {
        CHECK(rec.ok, "%s under '%s' at %d workers did not recover: %s",
              rec.spec.kernel.c_str(), fault, kWorkerCounts[w],
              rec.error.c_str());
        if (!rec.ok) continue;
        // A job that tripped must have shed the faulty ordinal and still
        // verified on the survivors; a job whose kernel never touches the
        // fault site completes healthy in one attempt - both are fine, but
        // a degraded job must say so.
        if (!rec.attempt_log.empty()) {
          CHECK(rec.degraded, "%s recovered via retries but not degraded?",
                rec.spec.kernel.c_str());
          CHECK(rec.blob.find("\"verified\": true") != std::string::npos,
                "%s degraded blob did not verify", rec.spec.kernel.c_str());
        }
      }
      std::string tail = report_tail(server.report_json());
      if (w == 0)
        ref_tail = tail;
      else
        CHECK(tail == ref_tail,
              "eviction report under '%s' differs between 1 and %d workers",
              fault, kWorkerCounts[w]);
    }
  }
  std::printf("serve_chaos: device eviction ok (%zu faults x %zu multi "
              "kernels x 3 worker counts)\n",
              std::size(kMultiFaults), std::size(kMultiKernels));
}

// --- Scenario C: kill -> restart -> replay from the persistent cache --------

void submit_persist_queue(JobServer* server) {
  for (const char* kernel : kBenchKernels)
    server->submit({"chaos", kernel, 0, RuntimeOptions::defaults()});
}

void scenario_crash_replay(const KernelRegistry& reg, const fs::path& dir) {
  fs::remove_all(dir);
  auto config = [&] {
    JobServer::Config cfg{.workers = 2, .cache_capacity = 64};
    cfg.cache_dir = dir.string();
    return cfg;
  };

  // Life 1: simulate everything, spill to disk, then "crash".
  std::vector<std::string> blobs, keys;
  {
    JobServer a(reg, config());
    submit_persist_queue(&a);
    a.run();
    for (const auto& rec : a.records()) {
      CHECK(rec.ok, "persist run failed: %s", rec.error.c_str());
      blobs.push_back(rec.blob);
      keys.push_back(rec.key);
    }
    CHECK(a.cache().store()->stores() == blobs.size(),
          "expected %zu spills, saw %llu", blobs.size(),
          static_cast<unsigned long long>(a.cache().store()->stores()));
  }

  // Life 2: a restarted server replays every job from disk, byte-identical,
  // without a single re-simulation.
  {
    JobServer b(reg, config());
    submit_persist_queue(&b);
    b.run();
    for (std::size_t i = 0; i < b.records().size(); ++i) {
      CHECK(b.records()[i].cached, "job %zu re-simulated after restart", i);
      CHECK(b.records()[i].blob == blobs[i],
            "job %zu replayed different bytes after restart", i);
    }
    CHECK(b.cache().store()->loads() == blobs.size(), "expected disk loads");
    CHECK(b.cache().store()->stores() == 0u, "restart should not re-spill");
  }

  // Life 3: two entries rot on disk - a truncation (crash mid-write of some
  // other process) and a bit flip. Both must be quarantined and recomputed;
  // the recomputed bytes must still match.
  {
    JobServer c(reg, config());
    fs::resize_file(c.cache().store()->path_for(keys[0]), 5);
    {
      const std::string path = c.cache().store()->path_for(keys[1]);
      std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
      f.seekg(-1, std::ios::end);
      char c = 0;
      f.get(c);
      f.seekp(-1, std::ios::end);
      f.put(static_cast<char>(c ^ 0x20));
    }
    submit_persist_queue(&c);
    c.run();
    for (std::size_t i = 0; i < c.records().size(); ++i) {
      CHECK(c.records()[i].ok, "job %zu failed after corruption", i);
      CHECK(c.records()[i].blob == blobs[i],
            "job %zu served wrong bytes after corruption", i);
      bool corrupted = i < 2;
      CHECK(c.records()[i].cached == !corrupted,
            "job %zu cached=%d after corruption", i, (int)c.records()[i].cached);
    }
    CHECK(c.cache().store()->quarantined() == 2u,
          "expected 2 quarantined entries, saw %llu",
          static_cast<unsigned long long>(c.cache().store()->quarantined()));
    CHECK(fs::exists(c.cache().store()->path_for(keys[0]) +
                     std::string(".quarantined")),
          "truncated entry was not quarantined aside");
  }
  std::printf("serve_chaos: crash/replay cycle ok (%zu jobs, 2 corruptions "
              "quarantined)\n",
              blobs.size());
}

}  // namespace

int main(int argc, char** argv) {
  fs::path dir = fs::temp_directory_path() / "vgpu_serve_chaos_cache";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--dir=", 6) == 0) {
      dir = argv[i] + 6;
    } else {
      std::fprintf(stderr, "usage: serve_chaos [--dir=CACHE_DIR]\n");
      return 2;
    }
  }

  KernelRegistry reg = KernelRegistry::builtin();
  scenario_fault_matrix(reg);
  scenario_eviction(reg);
  scenario_crash_replay(reg, dir);

  if (g_failures != 0) {
    std::fprintf(stderr, "serve_chaos: %d failures\n", g_failures);
    return 1;
  }
  std::printf("serve_chaos: all scenarios passed\n");
  return 0;
}
