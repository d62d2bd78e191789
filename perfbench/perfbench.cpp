// perfbench: the measuring program behind the repo benchmark (run.py).
//
//   perfbench --workload table1|grade_suite|serve_mix --seed N --seconds S
//             --trace 0|1 --goldens FILE --out-dir DIR [--size tiny]
//   perfbench --write-goldens FILE
//
// Two timelines, kept apart. Simulated GPU times and counters are the
// reproduction's results: every pass digests them and compares the digest
// with the pinned one in goldens.txt, so a host speed-up that moves a golden
// fails the run. Host wall-clock is what gets measured and optimised.
//
// One run = set-up followed by timed passes of one workload, repeated until
// --seconds have elapsed; the set-up is repeated between passes. setup_s,
// wall_s and cpu_s are medians. With --trace 1 the run instead alternates untraced and
// traced passes of the workload (the difference is the tracing overhead),
// then makes one traced pass of each other workload and the probes below,
// so that every traced run reports every per-layer metric.
//
// Every Runtime, GradeOptions and JobServer::Config is built from explicit
// values, and an ambient RuntimeOptions override is installed before any
// library call, so stray VGPU_* environment variables never reach a
// workload.
//
// The last line of stdout is one JSON object: correct, attempted, failed and
// the metrics with their units. The exit code is 0 only when correct.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/bankredux.hpp"
#include "core/comem.hpp"
#include "core/conkernels.hpp"
#include "core/dynparallel.hpp"
#include "core/gsoverlap.hpp"
#include "core/hdoverlap.hpp"
#include "core/memalign.hpp"
#include "core/minitransfer.hpp"
#include "core/readonly.hpp"
#include "core/report.hpp"
#include "core/shmem_mm.hpp"
#include "core/shuffle_reduce.hpp"
#include "core/taskgraph.hpp"
#include "core/unimem.hpp"
#include "core/warpdiv.hpp"
#include "grade/grade.hpp"
#include "grade/json.hpp"
#include "serve/server.hpp"
#include "tasks/suite.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using cumb::PairResult;
using cumb::Runtime;
using vgpu::DeviceProfile;
using vgpu::RuntimeOptions;
using vgpu::grade::json_escape;
using vgpu::grade::json_number;
using vgpu::serve::fnv1a64_hex;
using vgpu::serve::JobServer;
using vgpu::serve::JobSpec;
using vgpu::serve::KernelRegistry;

// Host threads: the simulator pool (table1, grade_suite) and the serve
// workers (serve_mix) each use up to 4, never more than the machine has.
int host_threads() {
  return std::clamp(static_cast<int>(std::thread::hardware_concurrency()), 1, 4);
}

// Set-up runs kSetupRepeats times before the first pass, then once more
// after every pass (outside the pass's timing). Host clock speed drifts over
// a run under sustained load, and a set-up taken only at process start
// sampled a different machine state than the passes: grade_suite's 3 ms
// set-up read anywhere from 2.9 to 8.1 ms across runs.
constexpr int kSetupRepeats = 3;
constexpr int kServeJobs = 600;  // Closed-loop queue length per pass.
constexpr int kServeJobsTiny = 40;
constexpr int kServeRepeatPercent = 40;
// serve_mix pass i runs queue i % kServeQueues of the run. Queue 0 is
// generated from --seed itself (so it is vgpu-serve's queue for that seed),
// queue i from seed + i * kServeQueueStride. Which keys a 600-job queue
// draws, and in what order, moves one pass's wall time by about 8%; the
// run's median over many queues does not depend on that draw.
constexpr std::size_t kServeQueues = 32;
constexpr std::uint64_t kServeQueueStride = 1000003;
constexpr int kGradeTinySubmissions = 4;
constexpr int kCtorProbeRepeats = 20;
constexpr int kObsProbeRounds = 3;
// Seeds whose whole serve_mix report digest is pinned (other seeds are
// checked per key, across passes and by the record invariants).
constexpr std::uint64_t kPinnedReportSeeds = 32;

// --- Small utilities -------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // Linux: KiB.
}

/// Named samples with a unit; a metric's value is the median of its samples.
class Metrics {
 public:
  void add(const std::string& name, double v, const char* unit) {
    Entry& e = entries_[name];
    e.unit = unit;
    e.samples.push_back(v);
  }
  double value(const std::string& name) const {
    auto it = entries_.find(name);
    return it == entries_.end() ? 0 : median(it->second.samples);
  }
  /// One "metric <name> = <value> <unit>" line each, then the JSON body.
  std::string print_and_render() const {
    std::string json = "{";
    for (const auto& [name, e] : entries_) {
      double v = median(e.samples);
      std::printf("metric %-34s = %-14.6g %s  (median of %zu)\n", name.c_str(), v,
                  e.unit.c_str(), e.samples.size());
      if (json.size() > 1) json += ", ";
      json += "\"" + json_escape(name) + "\": {\"value\": " + json_number(v) +
              ", \"unit\": \"" + json_escape(e.unit) + "\"}";
    }
    return json + "}";
  }

 private:
  struct Entry {
    std::string unit;
    std::vector<double> samples;
  };
  std::map<std::string, Entry> entries_;
};

/// Pinned digests of the deterministic outputs (goldens.txt). In writing
/// mode every expectation is recorded instead of checked.
class Goldens {
 public:
  static Goldens load(const std::string& path) {
    Goldens g;
    std::ifstream in(path);
    g.loaded_ = static_cast<bool>(in);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream ls(line);
      std::string key, digest;
      if (ls >> key >> digest) g.pins_[key] = digest;
    }
    return g;
  }
  static Goldens writer() {
    Goldens g;
    g.writing_ = true;
    return g;
  }

  bool loaded() const { return loaded_ || writing_; }
  bool moved() const { return moved_; }

  /// Check (or record) `digest` for `key`; false and a message when the
  /// pinned digest differs or is missing.
  bool expect(const std::string& key, const std::string& digest) {
    return check(key, digest, /*required=*/true);
  }
  /// As expect(), but a key with no pin passes.
  bool expect_if_pinned(const std::string& key, const std::string& digest) {
    return check(key, digest, /*required=*/false);
  }

  bool save(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    out << "# Pinned digests of the benchmark's simulated outputs (FNV-1a 64).\n"
           "# Regenerate with: perfbench --write-goldens FILE (see README.md).\n";
    for (const auto& [key, digest] : pins_) out << key << " " << digest << "\n";
    return static_cast<bool>(out);
  }

 private:
  bool check(const std::string& key, const std::string& digest, bool required) {
    auto it = pins_.find(key);
    if (writing_) {
      if (it != pins_.end() && it->second != digest) {
        std::printf("NONDETERMINISTIC %s: %s then %s\n", key.c_str(),
                    it->second.c_str(), digest.c_str());
        moved_ = true;
        return false;
      }
      pins_[key] = digest;
      return true;
    }
    if (it == pins_.end()) {
      if (!required) return true;
      std::printf("UNPINNED %s (digest %s)\n", key.c_str(), digest.c_str());
      moved_ = true;
      return false;
    }
    if (it->second == digest) return true;
    std::printf("GOLDEN MOVED %s: pinned %s, got %s\n", key.c_str(),
                it->second.c_str(), digest.c_str());
    moved_ = true;
    return false;
  }

  std::map<std::string, std::string> pins_;
  bool writing_ = false;
  bool loaded_ = false;
  bool moved_ = false;
};

/// Operations attempted and failed over the whole run.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// The explicit Runtime configuration of table1 and the probes: exact
/// fidelity, every observer off, no fault injection.
RuntimeOptions explicit_options(DeviceProfile p, int threads) {
  RuntimeOptions o = RuntimeOptions::defaults(std::move(p));
  o.sim_threads = threads;
  o.fidelity = vgpu::Fidelity::kExact;
  o.check = vgpu::CheckMode::kOff;
  o.prof = vgpu::ProfMode::kOff;
  o.advise = vgpu::AdviseMode::kOff;
  o.fault_spec.clear();
  o.trace_path.clear();
  o.advise_json_path.clear();
  return o;
}

// --- table1: the fourteen Table-I pairs --------------------------------------

/// One Table-I row: its device, the run at bench/table1_summary's full and
/// --smoke sizes, and the paper's claim printed beside the measurement.
struct PairDef {
  const char* id;
  DeviceProfile (*profile)();
  PairResult (*run)(Runtime&, bool tiny);
  const char* pattern;
  const char* technique;
  const char* paper;
  int programmability;
};

const PairDef kPairs[] = {
    {"warpdiv", &DeviceProfile::v100,
     [](Runtime& rt, bool t) -> PairResult { return cumb::run_warpdiv(rt, t ? 1 << 12 : 1 << 18); },
     "threads enter different branches", "take the warp size as the branch step",
     "1.1 (average)", 3},
    {"dynparallel", &DeviceProfile::rtx3080_scaled,
     [](Runtime& rt, bool t) -> PairResult {
       return cumb::run_dynparallel(rt, t ? 256 : 1024, t ? 256 : 1024);
     },
     "nested parallelism (adaptive grids)", "dynamic parallelism (device-side launch)",
     "3.26 (best)", 4},
    {"conkernels", &DeviceProfile::v100,
     [](Runtime& rt, bool t) -> PairResult {
       return cumb::run_conkernels(rt, t ? 4 : 8, t ? 2000 : 20000);
     },
     "multiple kernel instances on one GPU", "concurrent kernels on streams", "7 (average)", 4},
    {"taskgraph", &DeviceProfile::v100,
     [](Runtime& rt, bool t) -> PairResult {
       return t ? cumb::run_taskgraph(rt, 1024, 4, 2) : cumb::run_taskgraph(rt);
     },
     "repeated work submission", "pre-defined task graph, run repeatedly", "programmability", 3},
    {"shmem_mm", &DeviceProfile::v100,
     [](Runtime& rt, bool t) -> PairResult { return cumb::run_shmem_mm(rt, t ? 64 : 256); },
     "data accessed several times", "stage reused tiles in shared memory", "1.25 (average)", 2},
    {"comem", &DeviceProfile::v100,
     [](Runtime& rt, bool t) -> PairResult {
       return cumb::run_comem(rt, t ? 1 << 15 : 1 << 22, t ? 16 : 1024);
     },
     "strided/uncoalesced access across threads", "cyclic distribution (consecutive access)",
     "18 (average)", 3},
    {"memalign", &DeviceProfile::v100,
     [](Runtime& rt, bool t) -> PairResult {
       return cumb::run_memalign(rt, t ? 1 << 14 : 1 << 20);
     },
     "unaligned first address", "aligned allocation/indexing", "1.1 (average)", 1},
    {"gsoverlap", &DeviceProfile::rtx3080,
     [](Runtime& rt, bool t) -> PairResult {
       return cumb::run_gsoverlap(rt, t ? 1 << 14 : 1 << 20);
     },
     "global->shared copy takes much time", "memcpy_async (CUDA 11)", "1.04 (best)", 3},
    {"shuffle_reduce", &DeviceProfile::v100,
     [](Runtime& rt, bool t) -> PairResult {
       return cumb::run_shuffle_reduce(rt, t ? 1 << 14 : 1 << 20);
     },
     "data exchange between threads", "warp shuffle between registers", "1.25 (average)", 5},
    {"bankredux", &DeviceProfile::v100,
     [](Runtime& rt, bool t) -> PairResult {
       return cumb::run_bankredux(rt, t ? 1 << 14 : 1 << 20);
     },
     "threads hit different words of one bank", "sequential indexing (no conflicts)",
     "1.3 (average)", 5},
    {"hdoverlap", &DeviceProfile::v100,
     [](Runtime& rt, bool t) -> PairResult {
       return t ? cumb::run_hdoverlap(rt, 1 << 16, 2, 2) : cumb::run_hdoverlap(rt, 1 << 20);
     },
     "host-device copy takes much time", "cudaMemcpyAsync + streams", "1.036 (best)", 1},
    {"readonly", &DeviceProfile::k80,
     [](Runtime& rt, bool t) -> PairResult { return cumb::run_readonly(rt, t ? 128 : 512); },
     "large amount of read-only data", "constant/texture memory", "4.3 (best)", 1},
    {"unimem", &DeviceProfile::v100,
     [](Runtime& rt, bool t) -> PairResult {
       return cumb::run_unimem(rt, t ? 1 << 16 : 1 << 22, t ? 256 : 4096);
     },
     "low memory access density", "unified memory, copy only needed pages", "3 (average)", 3},
    {"minitransfer", &DeviceProfile::v100,
     [](Runtime& rt, bool t) -> PairResult {
       return cumb::run_minitransfer(rt, t ? 256 : 2048, t ? 1024 : 2048LL * 16);
     },
     "useless data transferred", "CSR layout, transfer only non-zeros", "190 (best)", 5},
};

/// Digest of everything a pair reports that the simulation determines:
/// simulated times, verification, and every KernelStats counter of both
/// variants.
std::string pair_digest(const PairResult& r) {
  std::string s = r.name + " " + json_number(r.naive_us) + " " + json_number(r.optimized_us) +
                  " " + (r.results_match ? "1" : "0") + " " + json_number(r.max_error);
  for (const vgpu::KernelStats* k : {&r.naive_stats, &r.optimized_stats})
    vgpu::KernelStats::for_each_field(
        *k, [&](const char* name, std::uint64_t v) {
          s += std::string(" ") + name + "=" + std::to_string(v);
        });
  return fnv1a64_hex(s);
}

// --- grade_suite -------------------------------------------------------------

struct GradeSetup {
  vgpu::grade::TaskRegistry tasks;
  vgpu::grade::PluginRegistry plugins;
  std::map<std::string, vgpu::grade::PerfBaseline> baselines;
  vgpu::grade::GradeOptions opts;
  std::vector<std::string> submissions;
};

std::unique_ptr<GradeSetup> make_grade_setup(bool tiny, int threads) {
  auto s = std::make_unique<GradeSetup>();
  cumb::gradetasks::register_all(s->tasks, s->plugins);
  s->baselines = vgpu::grade::load_baselines(PERFBENCH_BASELINES_PATH);
  s->opts.threads = threads;
  s->opts.fidelity = vgpu::Fidelity::kExact;
  s->opts.fault_spec.clear();
  s->opts.skip_perf = false;
  s->opts.baselines = &s->baselines;
  s->submissions = s->plugins.names();
  if (tiny && s->submissions.size() > kGradeTinySubmissions)
    s->submissions.resize(kGradeTinySubmissions);
  return s;
}

// --- serve_mix ---------------------------------------------------------------

/// vgpu-serve's queue generator (src/serve/main.cpp), reproduced so the
/// benchmark owns the seed and the server receives only the specs: a
/// deterministic LCG, three tenants with different RuntimeOptions tastes,
/// and repeat_percent of the draws re-submitting an earlier job verbatim.
struct Lcg {
  std::uint64_t s;
  std::uint64_t next() {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return s >> 16;
  }
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
};

const char* const kTenants[] = {"ci", "sweep", "chaos"};

RuntimeOptions tenant_options(int tenant) {
  RuntimeOptions o = RuntimeOptions::defaults();
  switch (tenant) {
    case 0:  // ci: exact fidelity, full checkers.
      o.check = vgpu::CheckMode::kFull;
      break;
    case 1:  // sweep: fast fidelity, unchecked.
      o.fidelity = vgpu::Fidelity::kFast;
      break;
    default:  // chaos: the 5th launch of every job rejected (transient).
      o.fault_spec = "launch:transient,nth=5";
      break;
  }
  return o;
}

struct ServeSetup {
  vgpu::grade::TaskRegistry tasks;
  vgpu::grade::PluginRegistry plugins;
  std::map<std::string, vgpu::grade::PerfBaseline> baselines;
  KernelRegistry registry;
  JobServer::Config cfg;
  struct Queue {
    std::uint64_t seed = 0;
    std::vector<JobSpec> jobs;
    std::size_t repeats = 0;
    std::string report_digest;  ///< Of the first pass that ran it.
  };
  std::vector<Queue> queues;
  std::size_t next = 0;  ///< Index of the next pass's queue (mod size).
};

std::vector<JobSpec> make_queue(const std::vector<std::string>& kernels, std::uint64_t seed,
                                int jobs, std::size_t* repeats) {
  Lcg rng{seed * 2654435761ull + 1};
  std::vector<JobSpec> issued;
  *repeats = 0;
  for (int i = 0; i < jobs; ++i) {
    bool repeat = !issued.empty() &&
                  rng.below(100) < static_cast<std::uint64_t>(kServeRepeatPercent);
    JobSpec spec;
    if (repeat) {
      spec = issued[rng.below(issued.size())];
      ++*repeats;
    } else {
      int tenant = static_cast<int>(rng.below(3));
      spec.tenant = kTenants[tenant];
      spec.kernel = kernels[rng.below(kernels.size())];
      spec.n = 0;  // Registry default size.
      spec.options = tenant_options(tenant);
    }
    issued.push_back(std::move(spec));
  }
  return issued;
}

std::unique_ptr<ServeSetup> make_serve_setup(bool tiny, int workers, std::uint64_t seed) {
  auto s = std::make_unique<ServeSetup>();
  cumb::gradetasks::register_all(s->tasks, s->plugins);
  s->baselines = vgpu::grade::load_baselines(PERFBENCH_BASELINES_PATH);
  s->registry = KernelRegistry::builtin();
  s->registry.attach_grade(&s->tasks, &s->plugins, &s->baselines);
  s->cfg.workers = workers;
  s->cfg.cache_capacity = 256;
  s->cfg.serialize_default_threads = true;
  s->cfg.retry = vgpu::serve::RetryPolicy{};
  s->cfg.quotas.clear();
  s->cfg.cache_dir.clear();
  std::vector<std::string> kernels = s->registry.ids();
  s->queues.resize(kServeQueues);
  for (std::size_t i = 0; i < kServeQueues; ++i) {
    ServeSetup::Queue& q = s->queues[i];
    q.seed = seed + i * kServeQueueStride;
    q.jobs = make_queue(kernels, q.seed, tiny ? kServeJobsTiny : kServeJobs, &q.repeats);
  }
  return s;
}

// --- The benchmark -------------------------------------------------------------

const char* const kWorkloads[] = {"table1", "grade_suite", "serve_mix"};

class Bench {
 public:
  Bench(bool tiny, std::uint64_t seed, Goldens& goldens)
      : tiny_(tiny), seed_(seed), threads_(host_threads()), goldens_(goldens) {}

  Outcome& outcome() { return outcome_; }
  Metrics& layers() { return layers_; }
  Tracer& tracer() { return tracer_; }

  /// Load everything a workload's passes need and warm it up.
  void setup(const std::string& w) {
    if (w == "table1") {
      // Warm-up: every pair at the --smoke sizes (checked against their own
      // pins, so a wrong warm-up also fails the run).
      for (const PairDef& p : kPairs) table1_item(p, /*tiny=*/true, nullptr);
    } else if (w == "grade_suite") {
      grade_ = make_grade_setup(tiny_, threads_);
      grade_item(grade_->submissions.front(), nullptr);
    } else {
      // A repeated set-up keeps the queue rotation where the passes left it.
      std::size_t next = serve_ ? serve_->next : 0;
      serve_ = make_serve_setup(tiny_, threads_, seed_);
      serve_->next = next;
      // Warm-up: the first id of each kernel family for the ci tenant,
      // the same whatever the seed.
      JobServer warm(serve_->registry, serve_->cfg);
      std::set<std::string> families;
      for (const std::string& id : serve_->registry.ids())
        if (families.insert(id.substr(0, id.find(':'))).second)
          warm.submit(JobSpec{kTenants[0], id, 0, tenant_options(0)});
      warm.run();
      for (const auto& rec : warm.records()) outcome_.record(check_serve_record(rec));
    }
  }

  /// One timed pass of workload `w`, traced when `tr` is set.
  void pass(const std::string& w, Tracer* tr) {
    Tracer::Scope root(tr, "bench." + w + ".pass");
    if (w == "table1")
      table1_pass(tr);
    else if (w == "grade_suite")
      grade_pass(tr);
    else
      serve_pass(tr);
  }

  /// Make the next pass run the same input as the last one (serve_mix
  /// otherwise moves on to its next queue).
  void repeat_last_input() {
    if (serve_ && serve_->next > 0) --serve_->next;
  }

  /// The traced-run probes: observability overhead ratios, Runtime
  /// construction cost, and per-family registry execution time.
  void probes(Tracer* tr) {
    obs_probe(tr);
    serve_probes(tr);
  }

  /// Print the Table-I reproduction (simulated speedups beside the paper's).
  void print_table1() const {
    if (rows_.empty()) return;
    std::printf("# Table I: paper speedup vs simulated speedup (reference results)\n%s",
                cumb::format_table1(rows_).c_str());
  }

 private:
  // table1 -----------------------------------------------------------------
  void table1_item(const PairDef& p, bool tiny, Tracer* tr) {
    std::optional<Runtime> rt;
    {
      Tracer::Scope s(tr, "rt.ctor", p.id);
      rt.emplace(explicit_options(p.profile(), threads_));
      if (tr) layers_.add("rt.ctor_ms", s.close(), "ms");
    }
    PairResult r;
    {
      std::string name = std::string("core.") + p.id;
      Tracer::Scope s(tr, name, p.id);
      r = p.run(*rt, tiny);
      vgpu::GpuExec::SimPhaseTimes ph = rt->gpu().phase_times();
      s.add_sim_ms(ph.execute_ms + ph.merge_ms);
      double ms = s.close();
      if (tr) {
        layers_.add(name + ".ms", ms, "ms");
        layers_.add(name + ".engine_ms", ph.execute_ms + ph.merge_ms, "ms");
        t1_.host_ms += ms - ph.execute_ms - ph.merge_ms;
        t1_.execute_ms += ph.execute_ms;
        t1_.merge_ms += ph.merge_ms;
        t1_.instructions += r.naive_stats.instructions + r.optimized_stats.instructions;
        t1_.hits += rt->gpu().coalesce_cache_hits();
        t1_.misses += rt->gpu().coalesce_cache_misses();
      }
    }
    {
      Tracer::Scope s(tr, "rt.dtor", p.id);
      rt.reset();
    }
    bool ok = r.results_match;
    if (!ok) std::printf("VERIFICATION FAILED table1 %s\n", p.id);
    ok = goldens_.expect(std::string(tiny ? "table1.tiny:" : "table1.full:") + p.id,
                         pair_digest(r)) && ok;
    outcome_.record(ok);
    if (tiny == tiny_ && rows_.size() < std::size(kPairs))
      rows_.push_back(cumb::Table1Row{r.name, p.pattern, p.technique, p.paper, r.speedup(),
                                      p.programmability});
  }

  void table1_pass(Tracer* tr) {
    t1_ = {};
    for (const PairDef& p : kPairs) table1_item(p, tiny_, tr);
    if (!tr) return;
    layers_.add("core.host_ms", t1_.host_ms, "ms");
    layers_.add("sim.execute_ms", t1_.execute_ms, "ms");
    layers_.add("sim.merge_ms", t1_.merge_ms, "ms");
    layers_.add("sim.instructions", static_cast<double>(t1_.instructions), "count");
    layers_.add("sim.inst_per_s", static_cast<double>(t1_.instructions) / (t1_.execute_ms * 1e-3),
                "1/s");
    double base = static_cast<double>(t1_.hits + t1_.misses);
    layers_.add("mem.coalesce_hit_ratio", static_cast<double>(t1_.hits) / base, "ratio");
    std::printf("base mem.coalesce_hit_ratio: %llu hits / %llu lookups\n",
                static_cast<unsigned long long>(t1_.hits),
                static_cast<unsigned long long>(t1_.hits + t1_.misses));
  }

  // grade_suite --------------------------------------------------------------
  /// Grade one submission; returns run_grade's wall ms (0 untraced).
  double grade_item(const std::string& name, Tracer* tr, double* to_json_ms = nullptr) {
    const vgpu::grade::PluginEntry* entry = grade_->plugins.find(name);
    vgpu::grade::Verdict v;
    double ms = 0;
    {
      Tracer::Scope s(tr, "grade.run_grade", name);
      v = vgpu::grade::run_grade(grade_->tasks, grade_->plugins, entry->task, name, grade_->opts);
      ms = s.close();
    }
    std::string json;
    {
      Tracer::Scope s(tr, "grade.to_json", name);
      json = vgpu::grade::to_json(v);
      double j = s.close();
      if (to_json_ms) *to_json_ms += j;
    }
    // The vgpu-grade --all --check contract.
    bool ok = v.status == "graded";
    if (entry->expect == vgpu::grade::Expectation::kMustPass && !v.pass) ok = false;
    if (entry->expect == vgpu::grade::Expectation::kMustFail && v.pass) ok = false;
    if (!ok)
      std::printf("EXPECTATION VIOLATED grade %s (status %s)\n", name.c_str(), v.status.c_str());
    ok = goldens_.expect("grade:" + name, fnv1a64_hex(json)) && ok;
    outcome_.record(ok);
    return ms;
  }

  void grade_pass(Tracer* tr) {
    std::vector<double> verdict_ms;
    double to_json_ms = 0;
    for (const std::string& name : grade_->submissions)
      verdict_ms.push_back(grade_item(name, tr, &to_json_ms));
    if (!tr) return;
    layers_.add("grade.verdict_ms.p50", median(verdict_ms), "ms");
    layers_.add("grade.verdict_ms.max", *std::max_element(verdict_ms.begin(), verdict_ms.end()),
                "ms");
    layers_.add("grade.to_json_ms", to_json_ms, "ms");
  }

  // serve_mix ----------------------------------------------------------------
  /// Per-key pins: every ok record's blob, and the attempt count of the
  /// record that executed the key.
  bool check_serve_record(const vgpu::serve::JobRecord& rec) {
    bool ok = rec.ok;
    if (!ok) std::printf("JOB FAILED %llu %s: %s\n", static_cast<unsigned long long>(rec.id),
                         rec.spec.kernel.c_str(), rec.error.c_str());
    ok = goldens_.expect("serve.blob:" + rec.key_hash, fnv1a64_hex(rec.blob)) && ok;
    if (!rec.cached)
      ok = goldens_.expect("serve.attempts:" + rec.key_hash, std::to_string(rec.attempts)) && ok;
    return ok;
  }

  void serve_pass(Tracer* tr) {
    ServeSetup& s = *serve_;
    std::size_t qi = s.next++ % s.queues.size();
    ServeSetup::Queue& q = s.queues[qi];
    JobServer server(s.registry, s.cfg);
    double submit_ms = 0;
    for (std::size_t i = 0; i < q.jobs.size(); ++i) {
      Tracer::Scope sc(tr, "serve.submit", tr ? "job " + std::to_string(i) : std::string());
      server.submit(q.jobs[i]);
      submit_ms += sc.close();
    }
    double run_ms = 0;
    {
      Tracer::Scope sc(tr, "serve.run");
      server.run();
      run_ms = sc.close();
    }
    std::string report;
    double report_ms = 0;
    {
      Tracer::Scope sc(tr, "serve.report_json");
      report = server.report_json();
      report_ms = sc.close();
    }

    std::size_t cached = 0, executed = 0, executed_ok = 0, attempts = 0, failed_attempts = 0;
    for (const auto& rec : server.records()) {
      outcome_.record(check_serve_record(rec));
      if (rec.cached) {
        ++cached;
        continue;
      }
      ++executed;
      if (rec.ok) ++executed_ok;
      attempts += static_cast<std::size_t>(rec.attempts);
      failed_attempts += rec.attempt_log.size();
    }
    // Every repeat re-submits an issued key, so it must come from the cache.
    if (cached < q.repeats) {
      std::printf("CACHE CONTRACT BROKEN: %zu cached < %zu repeats\n", cached, q.repeats);
      outcome_.record(false);
    }
    // The whole report is pinned for the low queue seeds; any queue run
    // twice in one run must reproduce it byte for byte.
    std::string digest = fnv1a64_hex(report);
    if (q.report_digest.empty()) {
      q.report_digest = digest;
      goldens_.expect_if_pinned(
          "serve.report:" + std::to_string(q.jobs.size()) + "/" + std::to_string(q.seed), digest);
    } else if (digest != q.report_digest) {
      std::printf("REPORT NOT REPRODUCED: queue seed %llu digest %s, first %s\n",
                  static_cast<unsigned long long>(q.seed), digest.c_str(), q.report_digest.c_str());
      outcome_.record(false);
    }
    if (!tr) return;
    layers_.add("serve.submit_ms", submit_ms, "ms");
    layers_.add("serve.run_ms", run_ms, "ms");
    layers_.add("serve.report_ms", report_ms, "ms");
    const auto& cache = server.cache();
    double lookups = static_cast<double>(cache.hits() + cache.misses());
    layers_.add("serve.cache_hit_ratio", static_cast<double>(cache.hits()) / lookups, "ratio");
    layers_.add("serve.useful_attempt_ratio",
                static_cast<double>(executed_ok) / static_cast<double>(attempts), "ratio");
    layers_.add("fault.failed_attempts", static_cast<double>(failed_attempts), "count");
    std::printf("base serve: %zu jobs, %zu executed (%zu ok) in %zu attempts, %zu cached; "
                "cache %llu hits / %.0f lookups\n",
                q.jobs.size(), executed, executed_ok, attempts, cached,
                static_cast<unsigned long long>(cache.hits()), lookups);
    last_run_ms_ = run_ms;
    last_queue_ = qi;
  }

  // Probes (traced runs only) ------------------------------------------------
  /// Rerun a fixed subset of pairs with nothing observing, then with only
  /// vgpu-san, only vgpu-prof, only vgpu-advise on; each ratio is the median
  /// time with that layer on over the median time with all of them off.
  void obs_probe(Tracer* tr) {
    struct ProbePair {
      const char* id;
      PairResult (*run)(Runtime&, bool tiny);
    };
    const ProbePair pairs[] = {
        {"warpdiv",
         [](Runtime& rt, bool t) -> PairResult {
           return cumb::run_warpdiv(rt, t ? 1 << 12 : 1 << 16);
         }},
        {"comem",
         [](Runtime& rt, bool t) -> PairResult {
           return cumb::run_comem(rt, t ? 1 << 15 : 1 << 18, t ? 16 : 64);
         }},
        {"bankredux",
         [](Runtime& rt, bool t) -> PairResult {
           return cumb::run_bankredux(rt, t ? 1 << 14 : 1 << 16);
         }},
        {"shuffle_reduce",
         [](Runtime& rt, bool t) -> PairResult {
           return cumb::run_shuffle_reduce(rt, t ? 1 << 14 : 1 << 16);
         }},
    };
    const std::string layers[] = {"off", "san", "prof", "advise"};
    std::map<std::string, std::vector<double>> ms;
    for (int round = 0; round < kObsProbeRounds; ++round) {
      for (const std::string& layer : layers) {
        Tracer::Scope s(tr, (layer == "off" ? "bench" : layer) + ".probe");
        for (const ProbePair& p : pairs) {
          RuntimeOptions o = explicit_options(DeviceProfile::v100(), threads_);
          if (layer == "san") o.check = vgpu::CheckMode::kFull;
          if (layer == "prof") o.prof = vgpu::ProfMode::kMetrics;
          if (layer == "advise") o.advise = vgpu::AdviseMode::kFull;
          Runtime rt(o);
          PairResult r;
          {
            Tracer::Scope c(tr, std::string("core.") + p.id, p.id);
            r = p.run(rt, tiny_);
          }
          // Detach before ~Runtime, which would print the reports.
          rt.set_prof_mode(vgpu::ProfMode::kOff);
          rt.set_advise_mode(vgpu::AdviseMode::kOff);
          if (!r.results_match)
            std::printf("VERIFICATION FAILED probe %s/%s\n", layer.c_str(), p.id);
          outcome_.record(r.results_match);
        }
        ms[layer].push_back(s.close());
      }
    }
    double off = median(ms["off"]);
    for (const char* layer : {"san", "prof", "advise"})
      layers_.add(std::string(layer) + ".overhead_ratio", median(ms[layer]) / off, "ratio");
    std::printf("base overhead ratios: all-off median %.3f ms over %d rounds of %zu pairs\n", off,
                kObsProbeRounds, std::size(pairs));
  }

  /// Runtime construction under each tenant's execution options, and every
  /// distinct key of the queue run once through KernelRegistry::run.
  void serve_probes(Tracer* tr) {
    ServeSetup& s = *serve_;
    JobServer server(s.registry, s.cfg);
    std::set<std::string> tenants_seen;
    std::set<std::string> keys_seen;
    std::map<std::string, double> family_ms = {{"bench", 0}, {"grade", 0}, {"multi", 0}};
    // The queue of the last traced pass, so exec_share compares like with like.
    for (const JobSpec& spec : s.queues[last_queue_].jobs) {
      RuntimeOptions opts = server.exec_options(spec);
      if (tenants_seen.insert(spec.tenant).second) {
        for (int i = 0; i < kCtorProbeRepeats; ++i) {
          Tracer::Scope c(tr, "rt.ctor", spec.tenant);
          Runtime rt(opts);
          layers_.add("rt.ctor_ms", c.close(), "ms");
        }
      }
      if (!keys_seen.insert(server.job_key(spec)).second) continue;
      std::string family = spec.kernel.substr(0, spec.kernel.find(':'));
      Tracer::Scope r(tr, "serve.registry." + family, spec.kernel);
      try {
        s.registry.run(spec.kernel, spec.n, opts);
      } catch (const std::exception&) {
        // Faulted attempts surface here; the server's retry engine owns
        // recovery, the probe only times the execution.
      }
      family_ms[family] += r.close();
    }
    double total = 0;
    for (const auto& [family, ms] : family_ms) {
      layers_.add("serve.registry." + family + "_ms", ms, "ms");
      total += ms;
    }
    layers_.add("serve.exec_share", total / (last_run_ms_ * s.cfg.workers), "ratio");
    std::printf("base serve.exec_share: %.3f registry ms / (%.3f run ms x %d workers), %zu keys\n",
                total, last_run_ms_, s.cfg.workers, keys_seen.size());
  }

  struct Table1Layer {
    double host_ms = 0, execute_ms = 0, merge_ms = 0;
    std::uint64_t instructions = 0, hits = 0, misses = 0;
  };

  bool tiny_;
  std::uint64_t seed_;
  int threads_;
  Goldens& goldens_;
  Outcome outcome_;
  Metrics layers_;
  Tracer tracer_;
  Table1Layer t1_;
  std::vector<cumb::Table1Row> rows_;
  std::unique_ptr<GradeSetup> grade_;
  std::unique_ptr<ServeSetup> serve_;
  double last_run_ms_ = 0;
  std::size_t last_queue_ = 0;
};

// --- Driver --------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string goldens;
  std::string out_dir = ".";
  std::string write_goldens;
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (i + 1 >= argc) return false;
    std::string v = argv[++i];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::stoull(v);
    else if (k == "--seconds") a->seconds = std::stod(v);
    else if (k == "--trace") a->trace = v == "1";
    else if (k == "--size") a->tiny = v == "tiny";
    else if (k == "--goldens") a->goldens = v;
    else if (k == "--out-dir") a->out_dir = v;
    else if (k == "--write-goldens") a->write_goldens = v;
    else return false;
  }
  if (!a->write_goldens.empty()) return true;
  return std::find(std::begin(kWorkloads), std::end(kWorkloads), a->workload) !=
             std::end(kWorkloads) &&
         !a->goldens.empty() && a->seconds > 0;
}

void print_config(const Args& a) {
#ifdef __OPTIMIZE__
  const char* optimised = "yes";
#else
  const char* optimised = "NO - timings from this build are not comparable";
#endif
  std::printf("config workload=%s seed=%llu seconds=%g trace=%d size=%s\n", a.workload.c_str(),
              static_cast<unsigned long long>(a.seed), a.seconds, a.trace ? 1 : 0,
              a.tiny ? "tiny" : "full");
  std::printf("config nproc=%u host_threads=%d compiler=\"%s\" build_type=%s optimised=%s\n",
              std::thread::hardware_concurrency(), host_threads(), PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE, optimised);
  std::printf("config fidelity=exact check=off prof=off advise=off (grade forces "
              "san/prof/advise on; serve uses per-tenant options)\n");
}

/// Record every pinned output from the current code: both table1 sizes, the
/// whole grade suite, every serve key (kernel x tenant) and the serve_mix
/// report for the pinned seeds at both queue sizes.
int write_goldens(const std::string& path) {
  Goldens g = Goldens::writer();
  Outcome total;
  auto one_pass = [&](const char* w, bool tiny, std::uint64_t seed) {
    Bench b(tiny, seed, g);
    b.setup(w);
    b.pass(w, nullptr);
    total.attempted += b.outcome().attempted;
    total.failed += b.outcome().failed;
  };
  one_pass("table1", false, 0);
  one_pass("table1", true, 0);
  one_pass("grade_suite", false, 0);
  {
    auto s = make_serve_setup(false, host_threads(), 0);
    JobServer server(s->registry, s->cfg);
    for (const std::string& kernel : s->registry.ids())
      for (int t = 0; t < 3; ++t) server.submit(JobSpec{kTenants[t], kernel, 0, tenant_options(t)});
    server.run();
    for (const auto& rec : server.records()) {
      total.record(rec.ok);
      g.expect("serve.blob:" + rec.key_hash, fnv1a64_hex(rec.blob));
      g.expect("serve.attempts:" + rec.key_hash, std::to_string(rec.attempts));
    }
  }
  for (bool tiny : {false, true})
    for (std::uint64_t seed = 0; seed < kPinnedReportSeeds; ++seed)
      one_pass("serve_mix", tiny, seed);
  if (total.failed > 0 || g.moved()) {
    std::printf("not writing goldens: %llu of %llu operations failed\n",
                static_cast<unsigned long long>(total.failed),
                static_cast<unsigned long long>(total.attempted));
    return 1;
  }
  if (!g.save(path)) {
    std::printf("cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s (%llu operations checked)\n", path.c_str(),
              static_cast<unsigned long long>(total.attempted));
  return 0;
}

int run(const Args& a) {
  Clock::time_point process_start = Clock::now();
  print_config(a);
  Goldens goldens = Goldens::load(a.goldens);
  if (!goldens.loaded()) {
    std::printf("cannot read goldens %s\n", a.goldens.c_str());
    return 1;
  }
  Bench bench(a.tiny, a.seed, goldens);
  Metrics e2e;

  // Set-up; the first repetition is timed from process start.
  std::vector<double> setup_s;
  auto timed_setup = [&](Clock::time_point t0) {
    bench.setup(a.workload);
    setup_s.push_back(ms_between(t0, Clock::now()) * 1e-3);
  };
  timed_setup(process_start);
  for (int i = 1; i < kSetupRepeats; ++i) timed_setup(Clock::now());

  auto timed_pass = [&](Tracer* tr, Metrics* m) {
    double c0 = cpu_seconds();
    Clock::time_point t0 = Clock::now();
    bench.pass(a.workload, tr);
    double wall = ms_between(t0, Clock::now()) * 1e-3;
    if (m) {
      m->add("wall_s", wall, "s");
      m->add("cpu_s", cpu_seconds() - c0, "s");
    }
    return wall;
  };

  Clock::time_point body_start = Clock::now();
  auto elapsed = [&] { return ms_between(body_start, Clock::now()) * 1e-3; };
  if (!a.trace) {
    int passes = 0;
    do {
      double wall = timed_pass(nullptr, &e2e);
      std::printf("pass %d wall %.4f s\n", ++passes, wall);
      timed_setup(Clock::now());
    } while (elapsed() < a.seconds);
    for (double s : setup_s) e2e.add("setup_s", s, "s");
    e2e.add("peak_rss_mb", peak_rss_mb(), "MB");
    if (a.workload == "serve_mix")
      std::printf("serve_mix jobs_per_s %.2f (%d jobs / median wall_s)\n",
                  (a.tiny ? kServeJobsTiny : kServeJobs) / e2e.value("wall_s"),
                  a.tiny ? kServeJobsTiny : kServeJobs);
  } else {
    // Alternate untraced and traced passes: the difference of their medians
    // is what recording the spans costs.
    std::vector<double> plain, traced;
    do {
      plain.push_back(timed_pass(nullptr, nullptr));
      bench.repeat_last_input();
      traced.push_back(timed_pass(&bench.tracer(), nullptr));
    } while (elapsed() < a.seconds);
    double overhead_ms = (median(traced) - median(plain)) * 1e3;
    bench.layers().add("trace.overhead_ms", overhead_ms, "ms");
    std::printf("base trace.overhead_ms: traced wall %.4f s - untraced wall %.4f s (%zu pairs)\n",
                median(traced), median(plain), plain.size());
    // Every traced run reports every layer: one traced pass of each other
    // workload, then the probes.
    for (const char* w : kWorkloads) {
      if (w == a.workload) continue;
      bench.setup(w);
      bench.pass(w, &bench.tracer());
    }
    bench.probes(&bench.tracer());

    std::printf("# where the wall time goes (self time per layer, mean per traced pass)\n");
    for (const char* w : kWorkloads) {
      std::map<std::string, double> self =
          bench.tracer().self_ms_by_layer(std::string("bench.") + w + ".pass");
      double total = 0;
      for (const auto& [layer, ms] : self) total += ms;
      for (const auto& [layer, ms] : self)
        std::printf("self %-12s %-8s %10.2f ms  %5.1f%%\n", w, layer.c_str(), ms, 100 * ms / total);
    }
    std::string trace_path = a.out_dir + "/trace-" + a.workload + ".json";
    if (bench.tracer().write_chrome(trace_path))
      std::printf("chrome trace: %s (%zu spans)\n", trace_path.c_str(),
                  bench.tracer().spans().size());
  }
  bench.print_table1();

  const Outcome& o = bench.outcome();
  bool correct = o.failed == 0 && !goldens.moved();
  std::printf("failed_ratio %llu/%llu = %.6f\n", static_cast<unsigned long long>(o.failed),
              static_cast<unsigned long long>(o.attempted),
              static_cast<double>(o.failed) /
                  static_cast<double>(std::max<std::uint64_t>(o.attempted, 1)));
  std::string metrics = a.trace ? bench.layers().print_and_render() : e2e.print_and_render();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(o.attempted),
              static_cast<unsigned long long>(o.failed), metrics.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
#ifdef __GLIBC__
  // Pin glibc's mmap threshold at its initial 128 KiB. By default glibc
  // raises it after the first large free, so how much freed memory stays
  // resident depends on which worker thread freed what first: serve_mix
  // peak_rss_mb moved between 52 and 70 MB across runs of one seed.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
  // Every Runtime the libraries construct through the legacy
  // Runtime(profile) path (run_grade does) resolves this override instead of
  // the VGPU_* environment; the workloads then set threads and fidelity
  // explicitly.
  vgpu::set_ambient_options(vgpu::RuntimeOptions::defaults());

  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload table1|grade_suite|serve_mix --seed N "
                 "--seconds S --trace 0|1 --goldens FILE [--out-dir DIR] [--size tiny]\n"
                 "       perfbench --write-goldens FILE\n");
    return 2;
  }
  if (!args.write_goldens.empty()) return perfbench::write_goldens(args.write_goldens);
  return perfbench::run(args);
}
