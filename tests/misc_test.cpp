// Odds and ends: stats aggregation, Dim3, device-profile invariants,
// trace interaction with graph launches, and failure injection through the
// graph path.

#include <gtest/gtest.h>

#include <vgpu.hpp>
#include "xfer/graph.hpp"

namespace {

using namespace vgpu;

TEST(Dim3, Count) {
  EXPECT_EQ(Dim3{}.count(), 1);
  EXPECT_EQ((Dim3{4, 3, 2}.count()), 24);
  EXPECT_EQ(Dim3{256}.count(), 256);
}

TEST(Stats, AggregationSums) {
  KernelStats a, b;
  a.instructions = 10;
  a.gld_transactions = 5;
  a.bank_conflicts = 2;
  a.atomic_ops = 1;
  b.instructions = 3;
  b.gld_transactions = 7;
  b.um_page_faults = 4;
  a += b;
  EXPECT_EQ(a.instructions, 13u);
  EXPECT_EQ(a.gld_transactions, 12u);
  EXPECT_EQ(a.bank_conflicts, 2u);
  EXPECT_EQ(a.atomic_ops, 1u);
  EXPECT_EQ(a.um_page_faults, 4u);
}

TEST(Stats, EfficiencyEdgeCases) {
  KernelStats s;
  EXPECT_DOUBLE_EQ(s.warp_execution_efficiency(), 100.0);  // No instructions.
  s.instructions = 2;
  s.useful_lane_ops = 32;
  EXPECT_DOUBLE_EQ(s.warp_execution_efficiency(), 50.0);
}

TEST(Profiles, InvariantsHoldForAllPresets) {
  for (const DeviceProfile& p :
       {DeviceProfile::v100(), DeviceProfile::k80(), DeviceProfile::rtx3080(),
        DeviceProfile::a100(), DeviceProfile::rtx3080_scaled(),
        DeviceProfile::test_tiny()}) {
    EXPECT_GT(p.sm_count, 0) << p.name;
    EXPECT_GT(p.clock_ghz, 0) << p.name;
    EXPECT_GT(p.dram_bw_gbps, 0) << p.name;
    EXPECT_GT(p.pcie_bw_gbps, 0) << p.name;
    EXPECT_GE(p.max_threads_per_sm, 1024) << p.name;
    EXPECT_GT(p.um_page_bytes, 0u) << p.name;
    EXPECT_GT(p.cycles_per_us(), 0) << p.name;
    // Launch overheads: device-side launches must be cheaper than host ones.
    EXPECT_LT(p.device_launch_us, p.kernel_launch_us) << p.name;
    // Graph launches amortize: per-node cost below a stream submission.
    EXPECT_LT(p.graph_per_node_us, p.kernel_launch_us) << p.name;
  }
}

TEST(Profiles, A100OutrunsV100OnBandwidth) {
  EXPECT_GT(DeviceProfile::a100().dram_bw_gbps, DeviceProfile::v100().dram_bw_gbps);
  EXPECT_GT(DeviceProfile::a100().sm_count, DeviceProfile::v100().sm_count);
  EXPECT_TRUE(DeviceProfile::a100().supports_memcpy_async);
}

TEST(Trace, GraphOpsAreRecorded) {
  Runtime rt(DeviceProfile::test_tiny());
  rt.set_prof_mode(ProfMode::kTrace);
  GraphBuilder b;
  auto k1 = b.add_kernel({Dim3{1}, Dim3{32}, "gk1"},
                         [](WarpCtx&) -> WarpTask { co_return; });
  auto k2 = b.add_kernel({Dim3{1}, Dim3{32}, "gk2"},
                         [](WarpCtx&) -> WarpTask { co_return; });
  b.add_dependency(k2, k1);
  ExecGraph g = b.instantiate();
  rt.launch_graph(g, rt.default_stream());
  const auto& ops = rt.profiler()->records();
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[0].name, "gk1");
  EXPECT_EQ(ops[1].name, "gk2");
  EXPECT_GE(ops[1].start_us, ops[0].end_us);
  // Rendering a trace with graph scratch streams must not crash.
  EXPECT_FALSE(rt.profiler()->gantt(50).empty());
}

TEST(FailureInjection, GraphKernelExceptionPropagates) {
  Runtime rt(DeviceProfile::test_tiny());
  // These tests exercise the *unchecked* fault path: under vgpu-san memcheck
  // the bad lanes would be reported and suppressed instead of throwing.
  rt.set_check_mode(CheckMode::kOff);
  auto tiny = rt.malloc<int>(2);
  GraphBuilder b;
  b.add_kernel({Dim3{1}, Dim3{32}, "oob"}, [=](WarpCtx& w) -> WarpTask {
    w.store(tiny, LaneI::iota(1000), LaneVec<int>(1));  // Out of range.
    co_return;
  });
  ExecGraph g = b.instantiate();
  EXPECT_THROW(rt.launch_graph(g, rt.default_stream()), std::out_of_range);
}

TEST(FailureInjection, ExceptionLeavesRuntimeUsable) {
  Runtime rt(DeviceProfile::test_tiny());
  rt.set_check_mode(CheckMode::kOff);
  auto tiny = rt.malloc<int>(2);
  EXPECT_THROW(rt.launch({Dim3{1}, Dim3{32}, "oob"},
                         [=](WarpCtx& w) -> WarpTask {
                           w.store(tiny, LaneI::iota(1000), LaneVec<int>(1));
                           co_return;
                         }),
               std::out_of_range);
  // The runtime must still execute correct work afterwards.
  auto ok = rt.malloc<int>(32);
  rt.launch({Dim3{1}, Dim3{32}, "fine"}, [=](WarpCtx& w) -> WarpTask {
    w.store(ok, LaneI::iota(), LaneI::iota());
    co_return;
  });
  std::vector<int> got(32);
  rt.memcpy_d2h(std::span<int>(got), ok);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(got[i], i);
}

TEST(FailureInjection, MidKernelExceptionAfterBarrier) {
  // A fault in the second phase of a multi-warp kernel (after a barrier)
  // must surface as an exception, not a hang.
  Runtime rt(DeviceProfile::test_tiny());
  rt.set_check_mode(CheckMode::kOff);
  auto tiny = rt.malloc<int>(2);
  EXPECT_THROW(rt.launch({Dim3{1}, Dim3{64}, "late-oob"},
                         [=](WarpCtx& w) -> WarpTask {
                           w.alu(1);
                           co_await w.syncthreads();
                           w.store(tiny, LaneI::iota(1000), LaneVec<int>(1));
                           co_return;
                         }),
               std::out_of_range);
}

}  // namespace
