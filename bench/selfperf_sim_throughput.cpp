// Self-performance of the simulator itself: wall-clock simulated-blocks-per-
// second of the parallel grid engine at 1..N host threads (DESIGN.md,
// "Host-side parallelization" and section 11). Unlike every fig*_ benchmark,
// the numbers here are *host* wall-clock — the simulator is the system under
// test, the simulated timing model is just the workload.
//
// Three workloads exercise the paths the engine parallelizes: a tiled matmul
// grid (shared memory + barriers, fig_shmem_matmul's kernel), Mariani-Silver
// Mandelbrot (dynamic-parallelism child levels, fig05's kernel) and a
// global-atomics histogram (host-atomic integer adds). Each sample also
// reports the engine's phase split (block execution vs deterministic merge),
// the coalesce-memo hit rate, and a VGPU_FIDELITY=fast vs exact comparison
// at one thread. Results are printed and written to BENCH_selfperf.json in
// the working directory.
//
//   selfperf_sim_throughput [--threads=1,2,4]
//
// Without --threads the sweep is 1..clamp(hardware_concurrency, 4, 8).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/dynparallel.hpp"
#include "core/histogram.hpp"
#include "core/shmem_mm.hpp"
#include <vgpu.hpp>

namespace {

using namespace vgpu;
using Clock = std::chrono::steady_clock;

struct Sample {
  int threads = 0;
  std::uint64_t blocks = 0;
  double wall_ms = 0;
  double blocks_per_s = 0;
  double execute_ms = 0;     ///< Engine phase: running blocks (pool fan-out).
  double merge_ms = 0;       ///< Engine phase: deterministic result merge.
  double co_hit_rate = 0;    ///< Coalesce-memo hits / (hits + misses).
};

struct FidelitySample {
  double exact_ms = 0;
  double fast_ms = 0;
  double speedup = 0;  ///< exact_ms / fast_ms at one thread.
};

struct WorkloadReport {
  const char* name;
  std::vector<Sample> samples;
  FidelitySample fast;
};

/// Run `reps` kernels through a fresh Runtime at `threads` sim threads and
/// measure host wall-clock around the run_kernel calls only.
template <typename Launch>
Sample measure(int threads, int reps, Fidelity fid, Launch&& launch) {
  Runtime rt;
  rt.set_sim_threads(threads);
  rt.set_fidelity(fid);
  Sample s;
  s.threads = threads;
  // One untimed warm-up builds the worker pool and arenas.
  s.blocks = 0;
  (void)launch(rt);
  rt.gpu().clear_phase_times();
  const std::uint64_t h0 = rt.gpu().coalesce_cache_hits();
  const std::uint64_t m0 = rt.gpu().coalesce_cache_misses();
  auto t0 = Clock::now();
  for (int r = 0; r < reps; ++r) s.blocks += launch(rt);
  auto t1 = Clock::now();
  s.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  s.blocks_per_s = s.wall_ms > 0 ? 1e3 * static_cast<double>(s.blocks) / s.wall_ms : 0;
  GpuExec::SimPhaseTimes ph = rt.gpu().phase_times();
  s.execute_ms = ph.execute_ms;
  s.merge_ms = ph.merge_ms;
  const double hits = static_cast<double>(rt.gpu().coalesce_cache_hits() - h0);
  const double misses = static_cast<double>(rt.gpu().coalesce_cache_misses() - m0);
  s.co_hit_rate = hits + misses > 0 ? hits / (hits + misses) : 0;
  return s;
}

std::uint64_t run_matmul(Runtime& rt) {
  const int n = 96;  // 6x6 grid of 16x16 blocks.
  static std::vector<cumb::Real> ha, hb;
  if (ha.empty()) {
    ha.resize(n * n);
    hb.resize(n * n);
    for (int i = 0; i < n * n; ++i) {
      ha[i] = 0.5f * static_cast<float>(i % 9) - 1.0f;
      hb[i] = 0.25f * static_cast<float>(i % 5) + 0.1f;
    }
  }
  auto a = rt.malloc<cumb::Real>(n * n);
  auto b = rt.malloc<cumb::Real>(n * n);
  auto c = rt.malloc<cumb::Real>(n * n);
  rt.memcpy_h2d(a, std::span<const cumb::Real>(ha));
  rt.memcpy_h2d(b, std::span<const cumb::Real>(hb));
  KernelRun run = rt.gpu().run_kernel(
      {Dim3{n / cumb::kTile, n / cumb::kTile}, Dim3{cumb::kTile, cumb::kTile}, "mm"},
      [=](WarpCtx& w) { return cumb::mm_shared_kernel(w, a, b, c, n); });
  return run.stats.blocks;
}

std::uint64_t run_dynparallel(Runtime& rt) {
  const int size = 256;
  cumb::MandelFrame f;
  f.scale = 3.0f / static_cast<float>(size);
  auto dwell = rt.malloc<int>(size * size);
  const int init_size = size / cumb::kMsInitDiv;
  KernelRun run = rt.gpu().run_kernel(
      {Dim3{cumb::kMsInitDiv, cumb::kMsInitDiv}, Dim3{cumb::kMsTpb}, "ms"},
      [=](WarpCtx& w) {
        return cumb::mandel_ms_kernel(w, dwell, size, f, 128, 0, 0, init_size);
      });
  return run.stats.blocks;
}

std::uint64_t run_histogram(Runtime& rt) {
  const int n = 256 * 64;
  const int num_bins = 128;
  static std::vector<int> h;
  if (h.empty()) {
    h.resize(n);
    for (int i = 0; i < n; ++i) h[i] = (i * 11 + i / 5) % num_bins;
  }
  auto bins_in = rt.malloc<int>(n);
  auto hist = rt.malloc<int>(num_bins);
  rt.memcpy_h2d(bins_in, std::span<const int>(h));
  rt.memset(hist, 0);
  KernelRun run = rt.gpu().run_kernel(
      {Dim3{n / 256}, Dim3{256}, "hist"},
      [=](WarpCtx& w) { return cumb::hist_global_kernel(w, bins_in, hist, n); });
  return run.stats.blocks;
}

void emit_json(const std::vector<WorkloadReport>& reports,
               const std::vector<int>& threads) {
  grade::JsonWriter w;
  w.begin_object()
      .kv("bench", "selfperf_sim_throughput")
      .kv("unit", "simulated blocks per wall-clock second")
      .kv("hardware_concurrency",
          std::uint64_t{std::thread::hardware_concurrency()})
      .kv("max_threads", threads.back())
      .key("workloads").begin_array();
  for (const WorkloadReport& r : reports) {
    w.begin_object()
        .kv("name", r.name)
        .key("fidelity_fast").begin_object()
        .kv("exact_ms", r.fast.exact_ms)
        .kv("fast_ms", r.fast.fast_ms)
        .kv("speedup_vs_exact", r.fast.speedup)
        .end_object()
        .key("results").begin_array();
    double base = r.samples.empty() ? 0 : r.samples.front().blocks_per_s;
    for (const Sample& s : r.samples) {
      w.begin_object()
          .kv("threads", s.threads)
          .kv("blocks", s.blocks)
          .kv("wall_ms", s.wall_ms)
          .kv("blocks_per_s", s.blocks_per_s)
          .kv("speedup_vs_1", base > 0 ? s.blocks_per_s / base : 0.0)
          .kv("execute_ms", s.execute_ms)
          .kv("merge_ms", s.merge_ms)
          .kv("coalesce_hit_rate", s.co_hit_rate)
          .end_object();
    }
    w.end_array().end_object();
  }
  w.end_array().end_object();
  std::ofstream f("BENCH_selfperf.json");
  if (!(f << w.str() << "\n")) std::perror("BENCH_selfperf.json");
}

/// Parse "--threads=1,2,4" into an ascending positive list; empty on error.
std::vector<int> parse_threads_arg(const char* arg) {
  std::vector<int> out;
  std::string s(arg);
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    int v = std::atoi(s.substr(pos, comma - pos).c_str());
    if (v <= 0 || v > 256) return {};
    out.push_back(v);
    pos = comma + 1;
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const int hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<int> threads;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0)
      threads = parse_threads_arg(argv[i] + 10);
  }
  if (threads.empty()) {
    const int max_threads = std::clamp(hw, 4, 8);  // Always show the 4-thread target.
    for (int t = 1; t <= max_threads; ++t) threads.push_back(t);
  }
  std::printf("# selfperf_sim_throughput: simulator wall-clock throughput\n");
  std::printf("# host concurrency=%d, sim threads:", hw);
  for (int t : threads) std::printf(" %d", t);
  std::printf("\n");

  std::vector<WorkloadReport> reports = {
      {"shmem_matmul", {}, {}},
      {"dynparallel_mandel", {}, {}},
      {"histogram_atomics", {}, {}}};
  for (int t : threads) {
    reports[0].samples.push_back(measure(t, 6, Fidelity::kExact, run_matmul));
    reports[1].samples.push_back(measure(t, 2, Fidelity::kExact, run_dynparallel));
    reports[2].samples.push_back(measure(t, 6, Fidelity::kExact, run_histogram));
  }
  // Fast-fidelity comparison at one thread: the sampled replay is a
  // single-thread win, independent of pool scaling.
  auto fast_of = [](double exact_ms, double fast_ms) {
    FidelitySample fs;
    fs.exact_ms = exact_ms;
    fs.fast_ms = fast_ms;
    fs.speedup = fast_ms > 0 ? exact_ms / fast_ms : 0;
    return fs;
  };
  reports[0].fast = fast_of(measure(1, 6, Fidelity::kExact, run_matmul).wall_ms,
                            measure(1, 6, Fidelity::kFast, run_matmul).wall_ms);
  reports[1].fast =
      fast_of(measure(1, 2, Fidelity::kExact, run_dynparallel).wall_ms,
              measure(1, 2, Fidelity::kFast, run_dynparallel).wall_ms);
  reports[2].fast = fast_of(measure(1, 6, Fidelity::kExact, run_histogram).wall_ms,
                            measure(1, 6, Fidelity::kFast, run_histogram).wall_ms);

  for (const WorkloadReport& r : reports) {
    std::printf("\n%-20s %8s %10s %14s %12s %11s %9s %8s\n", r.name, "threads",
                "wall_ms", "blocks_per_s", "speedup", "execute_ms", "merge_ms",
                "co_hit");
    double base = r.samples.front().blocks_per_s;
    for (const Sample& s : r.samples)
      std::printf("%-20s %8d %10.2f %14.1f %11.2fx %11.2f %9.2f %7.1f%%\n", "",
                  s.threads, s.wall_ms, s.blocks_per_s,
                  base > 0 ? s.blocks_per_s / base : 0.0, s.execute_ms, s.merge_ms,
                  100.0 * s.co_hit_rate);
    std::printf("%-20s fast-fidelity @1t: exact %.2fms, fast %.2fms (%.2fx)\n", "",
                r.fast.exact_ms, r.fast.fast_ms, r.fast.speedup);
  }
  emit_json(reports, threads);
  std::printf("\nwrote BENCH_selfperf.json\n");
  return 0;
}
