// vgpu-serve driver: generate or replay a multi-tenant job queue against the
// JobServer and emit the deterministic run report.
//
//   vgpu-serve [--jobs=N] [--workers=N] [--cache=N] [--seed=N]
//              [--repeat-percent=P] [--report=FILE] [--list]
//              [--fault=SPEC] [--retry=SPEC] [--cache-dir=DIR]
//              [--devices=N] [--quota=TENANT=N]
//
// Fault-tolerance knobs: --fault overrides every generated job's VGPU_FAULT
// spec (the chaos harness drives whole queues through injected faults this
// way), --retry sets the server's RetryPolicy (default from VGPU_RETRY),
// --cache-dir enables the crash-safe persistent result cache (default from
// VGPU_SERVE_CACHE_DIR — a restarted server pointed at the same directory
// replays completed work from disk), --devices shapes generated jobs for
// multi:* kernels, and --quota=TENANT=N (repeatable) grants a tenant N
// in-flight dispatch slots per wave instead of 1.
//
// The queue is synthesized from a seeded LCG: three tenants with different
// RuntimeOptions tastes (exact+checked, fast, exact+faulty) draw kernels
// from the registry, and P percent of the draws re-submit an earlier job
// verbatim (same tenant, kernel, size, options) — the repeat traffic the
// result cache exists for. Everything downstream of the seed is
// deterministic: same seed, same queue, same report bytes.
//
// Exit status: 0 when every job completed ok AND every repeat was served
// from the cache; 1 otherwise; 2 on a bad flag.

#ifndef GRADE_BASELINES_PATH
#define GRADE_BASELINES_PATH ""
#endif

#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "fault/inject.hpp"
#include "serve/server.hpp"
#include "tasks/suite.hpp"

namespace {

using vgpu::serve::JobServer;
using vgpu::serve::JobSpec;
using vgpu::serve::KernelRegistry;

struct Cli {
  int jobs = 50;
  int workers = 4;
  std::size_t cache = 256;
  std::uint64_t seed = 1;
  int repeat_percent = 40;
  std::string report_path;
  bool list = false;
  std::string fault;      ///< Overrides every generated job's fault spec.
  std::string retry;      ///< RetryPolicy spec; default VGPU_RETRY.
  std::string cache_dir;  ///< Persistence dir; default VGPU_SERVE_CACHE_DIR.
  int devices = 0;        ///< 0 = leave each tenant's default (1).
  std::map<std::string, JobServer::TenantQuota> quotas;
};

/// Parse all of `text` as a base-10 integer in [lo, hi]; false on anything
/// else (empty, trailing characters, sign where T is unsigned, overflow).
template <typename T>
bool parse_whole(const char* text, T lo, T hi, T* out) {
  const char* last = text + std::strlen(text);
  T v{};
  auto [end, ec] = std::from_chars(text, last, v);
  if (ec != std::errc{} || end != last || v < lo || v > hi) return false;
  *out = v;
  return true;
}

bool parse_cli(int argc, char** argv, Cli* cli) {
  constexpr int kIntMax = std::numeric_limits<int>::max();
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    bool ok = true;
    if (std::strncmp(a, "--jobs=", 7) == 0) {
      ok = parse_whole(a + 7, 1, kIntMax, &cli->jobs);
    } else if (std::strncmp(a, "--workers=", 10) == 0) {
      ok = parse_whole(a + 10, 1, 64, &cli->workers);
    } else if (std::strncmp(a, "--cache=", 8) == 0) {
      ok = parse_whole(a + 8, std::size_t{0},
                       std::numeric_limits<std::size_t>::max(), &cli->cache);
    } else if (std::strncmp(a, "--seed=", 7) == 0) {
      ok = parse_whole(a + 7, std::uint64_t{0},
                       std::numeric_limits<std::uint64_t>::max(), &cli->seed);
    } else if (std::strncmp(a, "--repeat-percent=", 17) == 0) {
      ok = parse_whole(a + 17, 0, 100, &cli->repeat_percent);
    } else if (std::strncmp(a, "--report=", 9) == 0) {
      cli->report_path = a + 9;
    } else if (std::strcmp(a, "--list") == 0) {
      cli->list = true;
    } else if (std::strncmp(a, "--fault=", 8) == 0) {
      cli->fault = a + 8;
    } else if (std::strncmp(a, "--retry=", 8) == 0) {
      cli->retry = a + 8;
    } else if (std::strncmp(a, "--cache-dir=", 12) == 0) {
      cli->cache_dir = a + 12;
    } else if (std::strncmp(a, "--devices=", 10) == 0) {
      ok = parse_whole(a + 10, 0, 64, &cli->devices);
    } else if (std::strncmp(a, "--quota=", 8) == 0) {
      const char* eq = std::strchr(a + 8, '=');
      int n = 0;
      if (eq == nullptr || eq == a + 8 || !parse_whole(eq + 1, 1, kIntMax, &n)) {
        std::fprintf(stderr, "bad --quota (want TENANT=N, N >= 1): %s\n", a);
        return false;
      }
      cli->quotas[std::string(a + 8, eq)].max_in_flight = n;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a);
      return false;
    }
    if (!ok) {
      std::fprintf(stderr,
                   "bad value: %s (--jobs >= 1, --workers 1..64, "
                   "--repeat-percent 0..100, --devices 0..64)\n",
                   a);
      return false;
    }
  }
  return true;
}

/// Deterministic 64-bit LCG (MMIX constants); no std::random_device, no
/// wall clock — the queue must replay bit-identically from the seed.
struct Lcg {
  std::uint64_t s;
  std::uint64_t next() {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return s >> 16;
  }
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
};

/// The three synthetic tenants and their RuntimeOptions tastes.
vgpu::RuntimeOptions tenant_options(int tenant) {
  vgpu::RuntimeOptions o = vgpu::RuntimeOptions::defaults();
  switch (tenant) {
    case 0:  // "ci": exact fidelity, full checkers.
      o.check = vgpu::CheckMode::kFull;
      break;
    case 1:  // "sweep": fast fidelity, unchecked throughput.
      o.fidelity = vgpu::Fidelity::kFast;
      break;
    default:  // "chaos": exact, with the 5th launch of every job rejected
              // (transient, non-sticky) — exercises error paths determin-
              // istically without sinking the job.
      o.fault_spec = "launch:transient,nth=5";
      break;
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  if (!parse_cli(argc, argv, &cli)) return 2;

  vgpu::grade::TaskRegistry tasks;
  vgpu::grade::PluginRegistry plugins;
  cumb::gradetasks::register_all(tasks, plugins);
  auto baselines = vgpu::grade::load_baselines(GRADE_BASELINES_PATH);

  KernelRegistry registry = KernelRegistry::builtin();
  registry.attach_grade(&tasks, &plugins, &baselines);

  if (cli.list) {
    for (const std::string& id : registry.ids()) std::printf("%s\n", id.c_str());
    return 0;
  }

  static const char* kTenants[] = {"ci", "sweep", "chaos"};
  std::vector<std::string> kernels = registry.ids();

  // Env defaults for the fault-tolerance knobs (flags win; from_env is the
  // runtime's single env reader).
  vgpu::RuntimeOptions env = vgpu::RuntimeOptions::from_env();
  if (cli.retry.empty()) cli.retry = env.retry_spec;
  if (cli.cache_dir.empty()) cli.cache_dir = env.serve_cache_dir;

  JobServer::Config cfg{.workers = cli.workers, .cache_capacity = cli.cache};
  try {
    cfg.retry = vgpu::serve::RetryPolicy::parse(cli.retry);
    vgpu::FaultInjector::parse(cli.fault);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  cfg.quotas = cli.quotas;
  cfg.cache_dir = cli.cache_dir;
  JobServer server(registry, cfg);
  Lcg rng{cli.seed * 2654435761ull + 1};
  std::vector<JobSpec> issued;
  int repeats = 0;
  for (int i = 0; i < cli.jobs; ++i) {
    bool repeat = !issued.empty() &&
                  rng.below(100) < static_cast<std::uint64_t>(cli.repeat_percent);
    JobSpec spec;
    if (repeat) {
      spec = issued[rng.below(issued.size())];
      ++repeats;
    } else {
      int tenant = static_cast<int>(rng.below(3));
      spec.tenant = kTenants[tenant];
      spec.kernel = kernels[rng.below(kernels.size())];
      spec.n = 0;  // Registry default size.
      spec.options = tenant_options(tenant);
      if (!cli.fault.empty()) spec.options.fault_spec = cli.fault;
      if (cli.devices > 0) spec.options.devices = cli.devices;
    }
    server.submit(spec);
    issued.push_back(std::move(spec));
  }

  server.run();

  std::string report = server.report_json();
  if (!cli.report_path.empty()) {
    std::ofstream out(cli.report_path);
    out << report << "\n";
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", cli.report_path.c_str());
      return 2;
    }
  } else {
    std::printf("%s\n", report.c_str());
  }

  int failed = 0, cached = 0;
  for (const auto& rec : server.records()) {
    if (!rec.ok) ++failed;
    if (rec.cached) ++cached;
  }
  const auto& cache = server.cache();
  std::fprintf(stderr,
               "# vgpu-serve: %d jobs (%d repeats), %d cached, %d failed; "
               "cache hits=%llu misses=%llu evictions=%llu\n",
               cli.jobs, repeats, cached, failed,
               static_cast<unsigned long long>(cache.hits()),
               static_cast<unsigned long long>(cache.misses()),
               static_cast<unsigned long long>(cache.evictions()));
  // Every repeat submits an already-issued key, so the parking/caching
  // contract says all of them must have been served without re-simulation.
  return (failed == 0 && cached >= repeats) ? 0 : 1;
}
