#include "sim/gpu.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <exception>
#include <iostream>
#include <queue>
#include <stdexcept>
#include <utility>

namespace vgpu {

namespace {

/// Greedy list-scheduling makespan of `jobs` (cycles) on `slots` machines.
double makespan(const std::vector<double>& jobs, int slots) {
  if (jobs.empty()) return 0;
  slots = std::max(1, slots);
  // Min-heap of slot finish times.
  std::priority_queue<double, std::vector<double>, std::greater<>> pq;
  for (int i = 0; i < slots; ++i) pq.push(0.0);
  double end = 0;
  for (double j : jobs) {
    double t = pq.top();
    pq.pop();
    t += j;
    end = std::max(end, t);
    pq.push(t);
  }
  return end;
}

/// Row-major block index of linear job `j` within `grid` — the same order
/// the serial triple loop (z outer, y, x inner) visits blocks.
Dim3 unflatten_block(long long j, const Dim3& grid) {
  return Dim3{static_cast<int>(j % grid.x),
              static_cast<int>((j / grid.x) % grid.y),
              static_cast<int>(j / (static_cast<long long>(grid.x) * grid.y))};
}

}  // namespace

double KernelRun::duration_us(const DeviceProfile& p, int granted_sms) const {
  granted_sms = std::clamp(granted_sms, 1, p.sm_count);
  // One scheduling slot per SM: co-resident blocks add latency *hiding*
  // (already applied inside each block's cycle count), not issue throughput.
  int slots = granted_sms;
  double cycles = 0;
  for (const auto& level : level_block_cycles) cycles += makespan(level, slots);
  double compute_us = cycles / p.cycles_per_us();

  // DRAM roofline: bytes / bandwidth (GB/s == bytes/ns == 1e3 bytes/us).
  double dram_us = dram_bytes / (p.dram_bw_gbps * 1e3);
  double mem_us;
  if (p.tex_bw_factor > 1.0) {
    // Dedicated texture unit: a parallel path to DRAM.
    double tex_us = tex_bytes / (p.dram_bw_gbps * p.tex_bw_factor * 1e3);
    mem_us = std::max(dram_us, tex_us);
  } else {
    mem_us = (dram_bytes + tex_bytes) / (p.dram_bw_gbps * 1e3);
  }
  // Leaky roofline: compute and memory overlap, but not perfectly.
  return std::max(compute_us, mem_us) +
         p.roofline_interference * std::min(compute_us, mem_us);
}

double KernelRun::sm_slack(const DeviceProfile& p, int granted_sms) const {
  granted_sms = std::clamp(granted_sms, 1, p.sm_count);
  int slots = granted_sms;
  double total_mk = 0;
  double total_cycles = 0;
  for (const auto& level : level_block_cycles) {
    total_mk += makespan(level, slots);
    for (double j : level) total_cycles += j;
  }
  if (total_mk <= 0) return 0;
  double slack = 1.0 - total_cycles / (static_cast<double>(slots) * total_mk);
  return std::clamp(slack, 0.0, 1.0);
}

int GpuExec::occupancy(int threads_per_block, std::size_t shared_bytes) const {
  return max_resident_blocks_per_sm(profile_, threads_per_block, shared_bytes);
}

double GpuExec::block_time_cycles(const BlockOutcome& b, int threads_per_block,
                                  long long grid_blocks) const {
  const DeviceProfile& p = profile_;
  int warps_per_block = static_cast<int>(b.warps.size());
  int occ = occupancy(threads_per_block, b.shared_bytes);
  // Blocks actually co-resident on one SM: bounded by occupancy *and* by how
  // many blocks the grid supplies (a one-block grid has nothing to hide
  // behind, which is what makes the latency-ladder probe see raw latency).
  int co_resident = static_cast<int>(std::clamp<long long>(
      (grid_blocks + p.sm_count - 1) / p.sm_count, 1, occ));
  // Memory stalls overlap across the warps resident on the SM.
  double hiding =
      std::max(1, std::min(p.latency_hiding, co_resident * warps_per_block));

  double sum_issue = 0;
  double critical = 0;
  double max_warp_issue = 0;
  double um_us = 0;
  for (const WarpCost& w : b.warps) {
    sum_issue += w.issue;
    critical = std::max(critical, w.issue + w.stall / hiding + w.sync_stall);
    max_warp_issue = std::max(max_warp_issue, w.issue);
    um_us += w.um_us;
  }
  // A block occupies its SM slot for at least its longest warp's issue
  // chain; the stall/synchronization part of the critical path overlaps with
  // the other `occ` blocks resident on the same SM.
  double exposed_critical =
      max_warp_issue + (critical - max_warp_issue) / std::max(1, co_resident);
  double cycles = std::max(sum_issue / p.warp_schedulers, exposed_critical);
  // Page-fault servicing is driver work: partially concurrent, never hidden
  // by warp scheduling.
  constexpr double kUmFaultConcurrency = 4.0;
  cycles += (um_us / kUmFaultConcurrency) * p.cycles_per_us();
  return cycles;
}

GridPlan GpuExec::plan_grid(const LaunchConfig& cfg, const KernelFn& fn) const {
  if (cfg.grid.count() <= 0) throw std::invalid_argument("empty grid");
  long long threads = cfg.block.count();
  if (threads <= 0 || threads > profile_.max_threads_per_sm)
    throw std::invalid_argument("invalid block size");

  GridPlan plan;
  plan.cfg = &cfg;
  plan.fn = &fn;
  plan.threads_per_block = static_cast<int>(threads);
  plan.grid_blocks = cfg.grid.count();
  plan.num_warps = static_cast<int>((threads + kWarpSize - 1) / kWarpSize);
  // Occupancy/co-residency clamps for the per-block cache shares: identical
  // for every block of the grid, so computed exactly once here.
  int occ = occupancy(plan.threads_per_block, 0);
  plan.cache_co_residency = std::clamp(
      static_cast<int>((plan.grid_blocks + profile_.sm_count - 1) /
                       profile_.sm_count),
      1, occ);
  plan.cache_blocks_on_device = std::min<long long>(
      plan.grid_blocks,
      static_cast<long long>(occ) * profile_.sm_count);
  plan.check = check_;
  plan.fast = fidelity_ == Fidelity::kFast;
  return plan;
}

int GpuExec::effective_threads(long long total_blocks) const {
  if (threads_ <= 1 || total_blocks <= 1) return 1;
  // Managed-memory page residency mutates on first touch: which block pays a
  // fault is order-dependent, so UM kernels keep the serial block order.
  if (gmem_.um_hook() != nullptr && gmem_.um_hook()->any_managed()) return 1;
  // More workers than blocks would only mean idle arenas and wasted wakes.
  return static_cast<int>(std::min<long long>(threads_, total_blocks));
}

void GpuExec::ensure_arenas(int count) {
  while (static_cast<int>(arenas_.size()) < count)
    arenas_.push_back(std::make_unique<BlockRunner>(*this));
}

void GpuExec::set_sim_threads(int threads) {
  threads = threads <= 0 ? WorkerPool::default_thread_count()
                         : std::clamp(threads, 1, 256);
  if (threads == threads_) return;
  threads_ = threads;
  pool_.reset();  // Rebuilt lazily at the next parallel grid.
}

WorkerPool& GpuExec::pool() {
  if (!pool_ || pool_->size() != threads_)
    pool_ = std::make_unique<WorkerPool>(threads_);
  return *pool_;
}

void GpuExec::parallel_for(long long count,
                           const std::function<void(long long)>& body) {
  if (threads_ == 1 || count <= 1) {
    for (long long j = 0; j < count; ++j) body(j);
    return;
  }
  // One slot per index instead of the pool's abort-on-first-error, so the
  // rethrown exception does not depend on which worker got there first.
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(count));
  pool().run(count, 1, [&](int, long long j) {
    try {
      body(j);
    } catch (...) {
      errors[static_cast<std::size_t>(j)] = std::current_exception();
    }
  });
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
}

std::vector<std::vector<double>> GpuExec::run_grids(
    const std::vector<GridRef>& grids, KernelStats& stats,
    std::size_t* shared_bytes_out, CheckReport* check_out) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point t_begin = Clock::now();

  std::vector<GridPlan> plans;
  plans.reserve(grids.size());
  std::vector<long long> first_job;
  first_job.reserve(grids.size() + 1);
  first_job.push_back(0);
  for (const GridRef& g : grids) {
    plans.push_back(plan_grid(*g.cfg, *g.fn));
    plans.back().id = ++plan_epoch_;
    first_job.push_back(first_job.back() + plans.back().grid_blocks);
  }
  const long long total = first_job.back();

  const int threads = effective_threads(total);
  const bool parallel = threads > 1;
  ensure_arenas(threads);
  const bool checking = check_out != nullptr && check_ != CheckMode::kOff;

  // The only per-job array left is the cycle vector (it is the result).
  // Everything else lands in per-worker lanes: block-ordered outputs are
  // job-tagged and k-way merged below, so memory scales with workers and
  // actual output volume, not with grid size.
  cycles_scratch_.assign(static_cast<std::size_t>(total), 0.0);
  if (static_cast<int>(lanes_.size()) < threads)
    lanes_.resize(static_cast<std::size_t>(threads));
  for (int w = 0; w < threads; ++w) lanes_[static_cast<std::size_t>(w)].clear();

  auto run_job = [&](int worker, long long job) {
    BlockRunner& arena = *arenas_[static_cast<std::size_t>(worker)];
    WorkerLane& lane = lanes_[static_cast<std::size_t>(worker)];
    auto gi = static_cast<std::size_t>(
        std::upper_bound(first_job.begin(), first_job.end(), job) -
        first_job.begin() - 1);
    const GridPlan& plan = plans[gi];
    if (arena.plan_id() != plan.id) arena.prepare_grid(plan, parallel);

    Dim3 bidx = unflatten_block(job - first_job[gi], plan.cfg->grid);
    BlockOutcome out = arena.run(bidx, lane.stats);

    cycles_scratch_[static_cast<std::size_t>(job)] =
        block_time_cycles(out, plan.threads_per_block, plan.grid_blocks);
    lane.shared_max = std::max(lane.shared_max, out.shared_bytes);
    lane.co_hits += out.coalesce_hits;
    lane.co_misses += out.coalesce_misses;
    // Move the elements, keep the arena vectors' capacity for the next block.
    for (ChildLaunch& ch : arena.children())
      lane.children.emplace_back(job, std::move(ch));
    if (parallel)
      for (const FpCommit& c : arena.fp_commits())
        lane.fp_commits.emplace_back(job, c);
    if (checking) {
      CheckReport rep = arena.take_check_report();
      if (!rep.clean()) lane.checks.emplace_back(job, std::move(rep));
    }
  };

  if (parallel) {
    // The pool is sized once for the configured thread count and reused;
    // small levels engage fewer workers inside WorkerPool::run, so no
    // rebuild happens when effective_threads dips for a tiny grid.
    // Chunks keep workers on runs of consecutive blocks (fewer grid
    // switches) while still load-balancing ~8 handouts per worker.
    long long chunk = std::max<long long>(1, total / (8LL * threads));
    pool().run(total, chunk, run_job);
  } else {
    for (long long j = 0; j < total; ++j) run_job(0, j);
  }

  const Clock::time_point t_executed = Clock::now();

  // Deterministic merges. Counter deltas are unsigned sums, so worker order
  // is immaterial. Ordered outputs are replayed in ascending job (= block)
  // index: each lane's log is already job-ascending and a job ran on exactly
  // one worker, so a k-way front-merge reproduces the serial sequence.
  std::size_t shared_max = 0;
  for (int w = 0; w < threads; ++w) {
    WorkerLane& lane = lanes_[static_cast<std::size_t>(w)];
    stats += lane.stats;
    shared_max = std::max(shared_max, lane.shared_max);
    co_hits_total_ += lane.co_hits;
    co_misses_total_ += lane.co_misses;
  }

  auto merge_in_block_order = [&](auto&& log_of, auto&& apply) {
    std::array<std::size_t, 256> cur{};  // threads_ is clamped to [1, 256].
    for (;;) {
      int best = -1;
      long long best_job = 0;
      for (int w = 0; w < threads; ++w) {
        auto& log = log_of(lanes_[static_cast<std::size_t>(w)]);
        auto c = cur[static_cast<std::size_t>(w)];
        if (c >= log.size()) continue;
        if (best < 0 || log[c].first < best_job) {
          best = w;
          best_job = log[c].first;
        }
      }
      if (best < 0) break;
      auto& log = log_of(lanes_[static_cast<std::size_t>(best)]);
      apply(log[cur[static_cast<std::size_t>(best)]++].second);
    }
  };

  if (parallel) {
    merge_in_block_order(
        [](WorkerLane& l) -> auto& { return l.fp_commits; },
        [&](FpCommit& c) {
          if (c.is_double) {
            heap().store<double>(c.addr, heap().load<double>(c.addr) + c.value);
          } else {
            heap().store<float>(c.addr, heap().load<float>(c.addr) +
                                            static_cast<float>(c.value));
          }
        });
  }
  merge_in_block_order(
      [](WorkerLane& l) -> auto& { return l.children; },
      [&](ChildLaunch& ch) { pending_children_.push_back(std::move(ch)); });
  if (checking)
    merge_in_block_order([](WorkerLane& l) -> auto& { return l.checks; },
                         [&](CheckReport& c) { *check_out += c; });

  if (shared_bytes_out != nullptr) *shared_bytes_out = shared_max;

  std::vector<std::vector<double>> per_grid(grids.size());
  for (std::size_t gi = 0; gi < grids.size(); ++gi)
    per_grid[gi].assign(cycles_scratch_.begin() + first_job[gi],
                        cycles_scratch_.begin() + first_job[gi + 1]);

  const Clock::time_point t_merged = Clock::now();
  execute_ms_ +=
      std::chrono::duration<double, std::milli>(t_executed - t_begin).count();
  merge_ms_ +=
      std::chrono::duration<double, std::milli>(t_merged - t_executed).count();
  return per_grid;
}

KernelRun GpuExec::run_kernel(const LaunchConfig& cfg, const KernelFn& fn) {
  gmem_.begin_kernel();
  pending_children_.clear();

  KernelRun run;
  run.name = cfg.name;
  run.threads_per_block = static_cast<int>(cfg.block.count());

  std::uint64_t dram_before = 0;  // stats start at zero for this run
  const std::uint64_t co_hits_before = co_hits_total_;
  const std::uint64_t co_misses_before = co_misses_total_;

  std::size_t shared_bytes = 0;
  run.level_block_cycles.push_back(std::move(
      run_grids({GridRef{&cfg, &fn}}, run.stats, &shared_bytes, &run.check)
          .front()));
  run.blocks_per_sm = occupancy(run.threads_per_block, shared_bytes);
  run.shared_bytes = shared_bytes;

  // Dynamic parallelism: run children level by level (children enqueued by
  // level N form level N+1). Each level's blocks are pooled: on hardware the
  // child grids of many parent blocks execute concurrently — and here they
  // share one flattened block-job list, so many small child grids still
  // spread across the worker pool.
  int depth = 0;
  while (!pending_children_.empty()) {
    if (++depth > kMaxLaunchDepth)
      throw std::runtime_error("dynamic parallelism nesting exceeds depth limit");
    std::vector<ChildLaunch> level = std::move(pending_children_);
    pending_children_.clear();
    std::vector<GridRef> refs;
    refs.reserve(level.size());
    for (const ChildLaunch& c : level) refs.push_back(GridRef{&c.cfg, &c.fn});
    std::vector<std::vector<double>> per_grid =
        run_grids(refs, run.stats, nullptr, &run.check);
    std::vector<double> cycles;
    for (const auto& b : per_grid) cycles.insert(cycles.end(), b.begin(), b.end());
    run.level_block_cycles.push_back(std::move(cycles));
  }

  run.dram_bytes = static_cast<double>(run.stats.dram_read_bytes +
                                       run.stats.dram_write_bytes) -
                   static_cast<double>(dram_before);
  run.tex_bytes = static_cast<double>(run.stats.tex_dram_bytes);
  run.coalesce_hits = co_hits_total_ - co_hits_before;
  run.coalesce_misses = co_misses_total_ - co_misses_before;
  if (fidelity_ == Fidelity::kFast) {
    // Fast mode replays every kFastSampleEvery-th queued access, so the
    // replay-derived DRAM traffic is an unbiased 1/N sample. Rescale the
    // roofline inputs (not the stats counters — those report what actually
    // ran) so durations stay comparable to exact mode.
    run.dram_bytes *= kFastSampleEvery;
    run.tex_bytes *= kFastSampleEvery;
  }

  long long total_blocks = 0;
  for (const auto& l : run.level_block_cycles)
    total_blocks += static_cast<long long>(l.size());
  long long wanted =
      (total_blocks + run.blocks_per_sm - 1) / std::max(1, run.blocks_per_sm);
  run.preferred_sms = static_cast<int>(
      std::clamp<long long>(wanted, 1, profile_.sm_count));

  if (!run.check.clean()) {
    check_accum_ += run.check;
    // Under escalation the findings become a sticky cudaErrorIllegalAddress
    // (Runtime::launch converts them); the text report would be redundant.
    if (!check_has(check_, CheckMode::kEscalate))
      std::cerr << run.check.to_string();
  }
  return run;
}

}  // namespace vgpu
