// vgpu-prof tests: activity-stream determinism across VGPU_THREADS, summary
// reconciliation with LaunchInfo spans, hand-computed derived metrics on two
// golden kernels, chrome://tracing JSON well-formedness (also of the advise
// report for hostile kernel names), and the memset / overlap honesty the
// profiler timeline is meant to expose.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <vgpu.hpp>

#include "core/conkernels.hpp"
#include "json_check.hpp"
#include "suite_runners.hpp"

namespace {

using namespace vgpu;
using cumb_tests::json_well_formed;

// --- Workload kernels -------------------------------------------------------

/// Golden kernel 1: fully coalesced float loads/stores — one warp request
/// touches 32 consecutive floats = exactly one 128-byte line, i.e. one
/// transaction per request in the paper's coalescing model.
WarpTask copy_coalesced(WarpCtx& w, DevSpan<float> x, DevSpan<float> y) {
  LaneI i = w.global_tid_x();
  w.store(y, i, w.load(x, i));
  co_return;
}

/// Golden kernel 2: 2-way shared-memory bank conflict — lanes access
/// bank (2*lane) % 32, two lanes per bank, one extra serialized pass per
/// access.
WarpTask smem_conflict2(WarpCtx& w, DevSpan<float> x, DevSpan<float> y) {
  auto cache = w.shared_array<float>(64);
  LaneI tid = w.thread_linear();
  w.sh_store(cache, tid * 2 % 64, w.load(x, w.global_tid_x()));
  co_await w.syncthreads();
  w.store(y, w.global_tid_x(), w.sh_load(cache, tid * 2 % 64));
  co_return;
}

/// A multi-stream workload exercising kernels, async copies, memsets, events
/// and (deterministically) the worker pool.
std::vector<LaunchInfo> run_workload(Runtime& rt) {
  std::vector<LaunchInfo> launches;
  const int n = 1 << 12;
  auto x = rt.malloc<float>(n);
  auto y = rt.malloc<float>(n);
  std::vector<float> host(n, 1.5f);
  Stream& s1 = rt.create_stream();
  Stream& s2 = rt.create_stream();
  rt.memcpy_h2d_async(s1, x, std::span<const float>(host));
  rt.memset(s2, y, 0.0f);
  launches.push_back(rt.launch(s1, {Dim3{8}, Dim3{256}, "copy_coalesced"},
                               [=](WarpCtx& w) { return copy_coalesced(w, x, y); }));
  launches.push_back(rt.launch(s2, {Dim3{2}, Dim3{64}, "smem_conflict2"},
                               [=](WarpCtx& w) { return smem_conflict2(w, x, y); }));
  Event e = rt.record_event(s1);
  rt.stream_wait_event(s2, e);
  rt.memcpy_d2h_async(s2, std::span<float>(host), y);
  rt.synchronize();
  return launches;
}

TEST(Prof, OffByDefaultAndEnvParse) {
  // A fresh Runtime follows VGPU_PROF (off when unset).
  Runtime rt(DeviceProfile::test_tiny());
  EXPECT_EQ(rt.prof_mode(), RuntimeOptions::from_env().prof);
  EXPECT_EQ(rt.profiler() != nullptr,
            RuntimeOptions::from_env().prof != ProfMode::kOff);
  rt.set_prof_mode(ProfMode::kOff);
  EXPECT_EQ(rt.profiler(), nullptr);
  EXPECT_EQ(parse_prof_mode("summary"), ProfMode::kSummary);
  EXPECT_EQ(parse_prof_mode("trace,metrics"), ProfMode::kTrace | ProfMode::kMetrics);
  EXPECT_EQ(parse_prof_mode("full"), ProfMode::kFull);
  EXPECT_EQ(parse_prof_mode("off"), ProfMode::kOff);
  EXPECT_THROW(parse_prof_mode("sumary"), std::invalid_argument);
}

TEST(Prof, RecordsEveryActivityKind) {
  Runtime rt(DeviceProfile::test_tiny());
  rt.set_prof_mode(ProfMode::kFull);
  ASSERT_NE(rt.profiler(), nullptr);

  auto m = rt.malloc_managed<float>(2048);
  std::vector<float> host(2048, 2.0f);
  rt.managed_write(m, std::span<const float>(host));
  run_workload(rt);
  rt.launch({Dim3{1}, Dim3{32}, "touch_managed"}, [=](WarpCtx& w) -> WarpTask {
    LaneI i = w.thread_linear();
    w.store(m, i, w.load(m, i) + 1.0f);
    co_return;
  });
  rt.managed_read(std::span<float>(host), m);  // Faults pages back: UM record.

  bool saw[7] = {};
  for (const ActivityRecord& r : rt.profiler()->records())
    saw[static_cast<int>(r.kind)] = true;
  EXPECT_TRUE(saw[static_cast<int>(ActivityRecord::Kind::kKernel)]);
  EXPECT_TRUE(saw[static_cast<int>(ActivityRecord::Kind::kMemcpyH2D)]);
  EXPECT_TRUE(saw[static_cast<int>(ActivityRecord::Kind::kMemcpyD2H)]);
  EXPECT_TRUE(saw[static_cast<int>(ActivityRecord::Kind::kMemset)]);
  EXPECT_TRUE(saw[static_cast<int>(ActivityRecord::Kind::kUmMigration)]);
  EXPECT_TRUE(saw[static_cast<int>(ActivityRecord::Kind::kEventRecord)]);
}

TEST(Prof, RecordStreamBitwiseDeterministicAcrossThreads) {
  std::vector<std::vector<ActivityRecord>> streams;
  for (int threads : {1, 2, 7}) {
    Runtime rt(DeviceProfile::test_tiny());
    rt.set_sim_threads(threads);
    rt.set_prof_mode(ProfMode::kFull);
    run_workload(rt);
    streams.push_back(rt.profiler()->records());
  }
  ASSERT_FALSE(streams[0].empty());
  EXPECT_EQ(streams[0], streams[1]);
  EXPECT_EQ(streams[0], streams[2]);
}

TEST(Prof, StatsAndTimingIdenticalProfilingOnOrOff) {
  Runtime off(DeviceProfile::test_tiny());
  Runtime on(DeviceProfile::test_tiny());
  on.set_prof_mode(ProfMode::kFull);
  auto a = run_workload(off);
  auto b = run_workload(on);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].stats, b[i].stats);
    EXPECT_EQ(a[i].span.start, b[i].span.start);
    EXPECT_EQ(a[i].span.end, b[i].span.end);
  }
  EXPECT_EQ(off.now_us(), on.now_us());
}

TEST(Prof, SummaryTotalsReconcileWithLaunchInfoSpans) {
  Runtime rt(DeviceProfile::test_tiny());
  rt.set_prof_mode(ProfMode::kSummary);
  auto launches = run_workload(rt);

  double want_total = 0;
  for (const LaunchInfo& l : launches) want_total += l.duration_us();
  double got_total = 0;
  int kernel_records = 0;
  for (const ActivityRecord& r : rt.profiler()->records())
    if (r.kind == ActivityRecord::Kind::kKernel) {
      got_total += r.duration_us();
      ++kernel_records;
    }
  EXPECT_EQ(kernel_records, static_cast<int>(launches.size()));
  EXPECT_DOUBLE_EQ(got_total, want_total);

  std::string summary = rt.profiler()->summary();
  EXPECT_NE(summary.find("copy_coalesced"), std::string::npos);
  EXPECT_NE(summary.find("smem_conflict2"), std::string::npos);
  EXPECT_NE(summary.find("[CUDA memcpy HtoD]"), std::string::npos);
  EXPECT_NE(summary.find("[CUDA memcpy DtoH]"), std::string::npos);
  EXPECT_NE(summary.find("[CUDA memset]"), std::string::npos);
}

TEST(Prof, DerivedMetricsMatchHandComputedValues) {
  Runtime rt(DeviceProfile::test_tiny());
  rt.set_prof_mode(ProfMode::kMetrics);
  run_workload(rt);

  const ActivityRecord* coalesced = nullptr;
  const ActivityRecord* conflict = nullptr;
  for (const ActivityRecord& r : rt.profiler()->records()) {
    if (r.name == "copy_coalesced") coalesced = &r;
    if (r.name == "smem_conflict2") conflict = &r;
  }
  ASSERT_NE(coalesced, nullptr);
  ASSERT_NE(conflict, nullptr);

  auto metric = [](const ActivityRecord& r, const std::string& name) {
    for (const Metric& m : derived_metrics(r))
      if (m.name == name) return m.value;
    ADD_FAILURE() << "metric not found: " << name;
    return -1.0;
  };

  // Golden kernel 1: no divergence, and each fully active warp load/store
  // touches 32 consecutive floats = one 128-byte line = one transaction.
  EXPECT_DOUBLE_EQ(metric(*coalesced, "warp_execution_efficiency"), 100.0);
  EXPECT_DOUBLE_EQ(metric(*coalesced, "gld_transactions_per_request"), 1.0);
  EXPECT_DOUBLE_EQ(metric(*coalesced, "gst_transactions_per_request"), 1.0);
  EXPECT_DOUBLE_EQ(metric(*coalesced, "shared_bank_conflicts"), 0.0);
  // ...and the definitional identity against the raw counters.
  EXPECT_DOUBLE_EQ(metric(*coalesced, "gld_transactions_per_request"),
                   static_cast<double>(coalesced->stats.gld_transactions) /
                       static_cast<double>(coalesced->stats.gld_requests));

  // Golden kernel 2: stride-2 shared accesses hit every bank with two lanes
  // -> one extra pass per warp access -> 2 transactions per request.
  EXPECT_DOUBLE_EQ(metric(*conflict, "shared_transactions_per_request"), 2.0);
  EXPECT_GT(metric(*conflict, "shared_bank_conflicts"), 0.0);
  EXPECT_DOUBLE_EQ(metric(*conflict, "shared_bank_conflicts"),
                   static_cast<double>(conflict->stats.bank_conflicts));
  EXPECT_DOUBLE_EQ(metric(*conflict, "warp_execution_efficiency"),
                   conflict->stats.warp_execution_efficiency());

  std::string report = rt.profiler()->metrics_report();
  for (const char* name :
       {"warp_execution_efficiency", "gld_transactions_per_request",
        "shared_bank_conflicts", "achieved_occupancy"})
    EXPECT_NE(report.find(name), std::string::npos) << name;
}

TEST(Prof, ChromeTraceJsonIsWellFormed) {
  Runtime rt(DeviceProfile::test_tiny());
  rt.set_prof_mode(ProfMode::kTrace);
  run_workload(rt);
  std::string json = rt.profiler()->chrome_trace_json();
  ASSERT_FALSE(json.empty());
  EXPECT_TRUE(json_well_formed(json)) << json.substr(0, 400);
  // One row label per stream used plus the two copy engines.
  EXPECT_NE(json.find("\"Stream 1\""), std::string::npos);
  EXPECT_NE(json.find("\"Stream 2\""), std::string::npos);
  EXPECT_NE(json.find("MemCpy (HtoD)"), std::string::npos);
  EXPECT_NE(json.find("MemCpy (DtoH)"), std::string::npos);
}

TEST(Prof, TraceAndAdviceJsonEscapeHostileKernelNames) {
  // A kernel name with a quote, a backslash and control characters must come
  // out escaped in both JSON documents that carry it.
  Runtime rt(DeviceProfile::test_tiny());
  rt.set_prof_mode(ProfMode::kTrace);
  rt.set_advise_mode(AdviseMode::kFull);
  const std::string name = "say \"hi\" C:\\tmp\x01\tk";
  const std::string escaped = "say \\\"hi\\\" C:\\\\tmp\\u0001\\tk";
  auto x = rt.malloc<float>(32 * 256);
  auto y = rt.malloc<float>(256);
  // Stride-32 loads: every lane its own line, so uncoalesced-global fires
  // and the advise report names the kernel.
  rt.launch({Dim3{2}, Dim3{128}, name}, [=](WarpCtx& w) -> WarpTask {
    LaneI i = w.global_tid_x();
    w.store(y, i, w.load(x, i * 32));
    co_return;
  });
  rt.synchronize();

  std::string trace = rt.profiler()->chrome_trace_json();
  EXPECT_TRUE(json_well_formed(trace)) << trace;
  EXPECT_NE(trace.find(escaped), std::string::npos) << trace;

  std::string report = rt.advisor()->report_json();
  EXPECT_TRUE(json_well_formed(report)) << report;
  EXPECT_NE(report.find("uncoalesced-global"), std::string::npos) << report;
  EXPECT_NE(report.find(escaped), std::string::npos) << report;
  rt.set_advise_mode(AdviseMode::kOff);
}

TEST(Prof, ConcurrentKernelsOverlapOnDistinctStreamRows) {
  // The Fig. 6 picture: independent kernels on distinct streams co-resident
  // on disjoint SMs must produce overlapping intervals in the trace.
  Runtime rt(DeviceProfile::v100());
  rt.set_prof_mode(ProfMode::kTrace);
  cumb::run_conkernels(rt, /*kernels=*/4, /*iters=*/2000);

  std::vector<const ActivityRecord*> kernels;
  for (const ActivityRecord& r : rt.profiler()->records())
    if (r.kind == ActivityRecord::Kind::kKernel) kernels.push_back(&r);
  ASSERT_GE(kernels.size(), 4u);
  bool overlap = false;
  for (const auto* a : kernels)
    for (const auto* b : kernels)
      if (a->stream != b->stream && a->start_us < b->end_us &&
          b->start_us < a->end_us)
        overlap = true;
  EXPECT_TRUE(overlap);
}

TEST(Prof, MemsetIsADeviceOpThatOverlapsOtherStreams) {
  // The memset timeline fix: an async-stream memset must be recorded as a
  // memset activity on its own stream and may overlap another stream's
  // kernel, instead of serializing as host work.
  Runtime rt(DeviceProfile::test_tiny());
  rt.set_prof_mode(ProfMode::kTrace);
  auto big = rt.malloc<float>(1 << 20);
  auto x = rt.malloc<float>(1 << 14);
  Stream& s1 = rt.create_stream();
  Stream& s2 = rt.create_stream();
  rt.memset(s1, big, 0.0f);
  rt.launch(s2, {Dim3{16}, Dim3{256}, "busy"}, [=](WarpCtx& w) -> WarpTask {
    LaneI i = w.global_tid_x();
    w.store(x, i, LaneVec<float>(1.0f));
    for (int k = 0; k < 50; ++k) w.alu(10);
    co_return;
  });
  rt.synchronize();

  const ActivityRecord* memset_rec = nullptr;
  const ActivityRecord* kernel_rec = nullptr;
  for (const ActivityRecord& r : rt.profiler()->records()) {
    if (r.kind == ActivityRecord::Kind::kMemset) memset_rec = &r;
    if (r.kind == ActivityRecord::Kind::kKernel) kernel_rec = &r;
  }
  ASSERT_NE(memset_rec, nullptr);
  ASSERT_NE(kernel_rec, nullptr);
  EXPECT_EQ(memset_rec->stream, s1.id());
  EXPECT_EQ(memset_rec->bytes, static_cast<double>(big.bytes()));
  // Genuine overlap between the two streams.
  EXPECT_LT(kernel_rec->start_us, memset_rec->end_us);
  EXPECT_LT(memset_rec->start_us, kernel_rec->end_us);
}

TEST(Prof, FlushWritesTraceFileOnceAndSummaryToStream) {
  std::string path = ::testing::TempDir() + "vgpu_prof_flush_test.json";
  std::remove(path.c_str());
  {
    Runtime rt(DeviceProfile::test_tiny());
    rt.set_prof_mode(ProfMode::kSummary | ProfMode::kTrace);
    rt.profiler()->set_trace_path(path);
    run_workload(rt);
    std::ostringstream out;
    rt.flush_prof(out);
    EXPECT_NE(out.str().find("GPU activities"), std::string::npos);
    EXPECT_NE(out.str().find("wrote chrome://tracing"), std::string::npos);
    // Second flush with no new records is a no-op.
    std::ostringstream again;
    rt.flush_prof(again);
    EXPECT_TRUE(again.str().empty());
  }
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::stringstream buf;
  buf << f.rdbuf();
  EXPECT_TRUE(json_well_formed(buf.str()));
  std::remove(path.c_str());
}

TEST(Prof, MetricNamesReportedForAllSuitePairs) {
  // Acceptance: the nvprof metric names the paper quotes are reported for
  // every one of the 14 benchmark pairs.
  for (const auto& c : cumb_tests::suite_cases()) {
    cumb::Runtime rt(c.profile());
    rt.set_prof_mode(ProfMode::kMetrics);
    c.run(rt);
    ASSERT_NE(rt.profiler(), nullptr) << c.name;
    std::string report = rt.profiler()->metrics_report();
    EXPECT_NE(report.find("Kernel: "), std::string::npos) << c.name;
    for (const char* name :
         {"warp_execution_efficiency", "gld_transactions_per_request",
          "shared_bank_conflicts", "achieved_occupancy"})
      EXPECT_NE(report.find(name), std::string::npos) << c.name << " " << name;
  }
}

}  // namespace
