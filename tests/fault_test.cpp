// vgpu-fault tests: the CUDA error model (per-call / last-error / sticky /
// deferred-async lifetimes) and the deterministic VGPU_FAULT injector.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include <vgpu.hpp>

namespace {

using vgpu::DeviceProfile;
using vgpu::DevSpan;
using vgpu::Dim3;
using vgpu::ErrorCode;
using vgpu::Event;
using vgpu::FaultInjector;
using vgpu::FaultSite;
using vgpu::LaneVec;
using vgpu::LaunchInfo;
using vgpu::Runtime;
using vgpu::Stream;
using vgpu::WarpCtx;
using vgpu::WarpTask;

// A trivially-correct kernel: every thread of the grid stores 1 into its own
// slot (indexed by global id, so blocks never write the same word).
vgpu::KernelFn fill_ones(DevSpan<int> d) {
  return [=](WarpCtx& w) -> WarpTask {
    w.store(d, w.global_tid_x(), LaneVec<int>(1));
    co_return;
  };
}

// --- Error-code plumbing -----------------------------------------------------

TEST(FaultError, NamesAndStrings) {
  EXPECT_STREQ(vgpu::error_name(ErrorCode::kSuccess), "cudaSuccess");
  EXPECT_STREQ(vgpu::error_name(ErrorCode::kIllegalAddress),
               "cudaErrorIllegalAddress");
  EXPECT_STREQ(vgpu::error_name(ErrorCode::kMemoryAllocation),
               "cudaErrorMemoryAllocation");
  EXPECT_NE(std::string(vgpu::error_string(ErrorCode::kLaunchFailure)), "");
  EXPECT_TRUE(vgpu::is_sticky(ErrorCode::kIllegalAddress));
  EXPECT_TRUE(vgpu::is_sticky(ErrorCode::kLaunchFailure));
  EXPECT_FALSE(vgpu::is_sticky(ErrorCode::kMemoryAllocation));
  EXPECT_FALSE(vgpu::is_sticky(ErrorCode::kLaunchOutOfResources));
}

// --- Fault-spec parser -------------------------------------------------------

TEST(FaultSpec, RoundTripsThroughParse) {
  for (const char* spec :
       {"oom:after=3", "h2d:nth=2", "launch:transient,p=0.1,seed=7",
        "um_migrate:fail", "oom:nth=1;d2h:after=5;memset:fail",
        "launch:p=0.25,seed=42"}) {
    std::string canon = FaultInjector::parse(spec).to_string();
    // Canonical form is a fixed point: parse(canon) renders back to canon.
    EXPECT_EQ(FaultInjector::parse(canon).to_string(), canon) << spec;
  }
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultInjector::parse("oops:fail"), std::invalid_argument);
  EXPECT_THROW(FaultInjector::parse("oom"), std::invalid_argument);
  EXPECT_THROW(FaultInjector::parse("oom:bogus"), std::invalid_argument);
  EXPECT_THROW(FaultInjector::parse("oom:nth=0"), std::invalid_argument);
  EXPECT_THROW(FaultInjector::parse("oom:nth=x"), std::invalid_argument);
  EXPECT_THROW(FaultInjector::parse("launch:p=1.5"), std::invalid_argument);
  EXPECT_THROW(FaultInjector::parse("h2d:transient"), std::invalid_argument);
  EXPECT_THROW(FaultInjector::parse("oom:fail;oom:nth=2"),
               std::invalid_argument);
  EXPECT_THROW(FaultInjector::parse("oom:fail,nth=2"), std::invalid_argument);
}

TEST(FaultSpec, TriggerSchedules) {
  FaultInjector after = FaultInjector::parse("oom:after=2");
  EXPECT_FALSE(after.fire(FaultSite::kOom));
  EXPECT_FALSE(after.fire(FaultSite::kOom));
  EXPECT_TRUE(after.fire(FaultSite::kOom));
  EXPECT_TRUE(after.fire(FaultSite::kOom));

  FaultInjector nth = FaultInjector::parse("h2d:nth=2");
  EXPECT_FALSE(nth.fire(FaultSite::kH2D));
  EXPECT_TRUE(nth.fire(FaultSite::kH2D));
  EXPECT_FALSE(nth.fire(FaultSite::kH2D));
  EXPECT_FALSE(nth.armed(FaultSite::kOom));
  EXPECT_FALSE(nth.fire(FaultSite::kOom));
}

TEST(FaultSpec, ProbabilityIsAPureFunctionOfSeedAndCall) {
  auto draw = [](int calls) {
    FaultInjector inj = FaultInjector::parse("launch:p=0.3,seed=9");
    std::vector<bool> fired;
    for (int i = 0; i < calls; ++i) fired.push_back(inj.fire(FaultSite::kLaunch));
    return fired;
  };
  EXPECT_EQ(draw(64), draw(64));  // Replay gives the identical sequence.
  std::vector<bool> fired = draw(256);
  int hits = 0;
  for (bool b : fired) hits += b ? 1 : 0;
  EXPECT_GT(hits, 0);
  EXPECT_LT(hits, 256);
}

// --- Injected non-sticky failures --------------------------------------------

TEST(FaultInject, OomIsRecordedAndNonSticky) {
  Runtime rt(DeviceProfile::test_tiny());
  rt.set_fault_spec("oom:nth=1");
  DevSpan<int> a = rt.malloc<int>(64);
  EXPECT_EQ(a.addr, 0u);
  EXPECT_EQ(rt.last_call_error(), ErrorCode::kMemoryAllocation);
  EXPECT_EQ(rt.get_last_error(), ErrorCode::kMemoryAllocation);
  EXPECT_EQ(rt.get_last_error(), ErrorCode::kSuccess);  // Read-and-clear.
  DevSpan<int> b = rt.malloc<int>(64);  // Non-sticky: the retry succeeds.
  EXPECT_NE(b.addr, 0u);
  EXPECT_EQ(rt.last_call_error(), ErrorCode::kSuccess);
}

TEST(FaultInject, RealCapacityOomWithoutInjection) {
  DeviceProfile p = DeviceProfile::test_tiny();
  p.gmem_bytes = 1 << 20;  // 1 MiB device.
  Runtime rt(p);
  DevSpan<float> ok = rt.malloc<float>(1024);
  EXPECT_NE(ok.addr, 0u);
  DevSpan<float> huge = rt.malloc<float>(1 << 22);  // 16 MiB > capacity.
  EXPECT_EQ(huge.addr, 0u);
  EXPECT_EQ(rt.get_last_error(), ErrorCode::kMemoryAllocation);
  // The failed allocation consumed nothing: a fitting one still succeeds.
  DevSpan<float> again = rt.malloc<float>(1024);
  EXPECT_NE(again.addr, 0u);
}

TEST(FaultInject, SyncCopyFailsImmediately) {
  Runtime rt(DeviceProfile::test_tiny());
  rt.set_fault_spec("h2d:nth=2");
  std::vector<int> h(16, 7);
  DevSpan<int> d = rt.malloc<int>(16);
  rt.memcpy_h2d(d, std::span<const int>(h));
  EXPECT_EQ(rt.last_call_error(), ErrorCode::kSuccess);
  rt.memcpy_h2d(d, std::span<const int>(h));  // 2nd copy: injected failure.
  EXPECT_EQ(rt.last_call_error(), ErrorCode::kUnknown);
  EXPECT_EQ(rt.get_last_error(), ErrorCode::kUnknown);
  EXPECT_EQ(rt.synchronize(), ErrorCode::kSuccess);  // Nothing deferred.
}

TEST(FaultInject, AsyncCopyFailureSurfacesOnlyAtItsStreamsSync) {
  Runtime rt(DeviceProfile::test_tiny());
  rt.set_fault_spec("h2d:nth=1");
  Stream& a = rt.create_stream();
  Stream& b = rt.create_stream();
  std::vector<int> h(16, 7);
  DevSpan<int> d = rt.malloc<int>(16);
  rt.memcpy_h2d_async(a, d, std::span<const int>(h));
  // The submission itself reports success; the error is parked on stream a.
  EXPECT_EQ(rt.last_call_error(), ErrorCode::kSuccess);
  EXPECT_EQ(rt.peek_last_error(), ErrorCode::kSuccess);
  EXPECT_EQ(rt.stream_synchronize(b), ErrorCode::kSuccess);  // Wrong stream.
  EXPECT_EQ(rt.stream_synchronize(a), ErrorCode::kUnknown);
  EXPECT_EQ(rt.get_last_error(), ErrorCode::kUnknown);
  EXPECT_EQ(rt.stream_synchronize(a), ErrorCode::kSuccess);  // Drained.
}

TEST(FaultInject, EventSynchronizeIsASyncPoint) {
  Runtime rt(DeviceProfile::test_tiny());
  rt.set_fault_spec("memset:nth=1");
  Stream& s = rt.create_stream();
  DevSpan<int> d = rt.malloc<int>(64);
  rt.memset(s, d, 1);  // Injected device-side failure, deferred on s.
  Event e = rt.record_event(s);
  EXPECT_EQ(rt.event_synchronize(e), ErrorCode::kUnknown);
  EXPECT_EQ(rt.synchronize(), ErrorCode::kSuccess);
}

// --- Launch faults -----------------------------------------------------------

TEST(FaultInject, TransientLaunchIsImmediateAndRetryable) {
  Runtime rt(DeviceProfile::test_tiny());
  rt.set_fault_spec("launch:transient,nth=1");
  DevSpan<int> d = rt.malloc<int>(256);
  LaunchInfo r1 = rt.launch({Dim3{1}, Dim3{256}, "t"}, fill_ones(d));
  EXPECT_EQ(r1.error, ErrorCode::kLaunchOutOfResources);
  EXPECT_EQ(rt.peek_last_error(), ErrorCode::kLaunchOutOfResources);
  LaunchInfo r2 = rt.launch({Dim3{1}, Dim3{256}, "t"}, fill_ones(d));  // Retry.
  EXPECT_EQ(r2.error, ErrorCode::kSuccess);
  EXPECT_EQ(rt.synchronize(), ErrorCode::kSuccess);
  std::vector<int> back(256);
  rt.memcpy_d2h(std::span<int>(back), d);
  EXPECT_EQ(back, std::vector<int>(256, 1));
}

TEST(FaultInject, FatalLaunchStickyLifecycle) {
  Runtime rt(DeviceProfile::test_tiny());
  rt.set_fault_spec("launch:nth=1");
  DevSpan<int> d = rt.malloc<int>(256);
  LaunchInfo r = rt.launch({Dim3{1}, Dim3{256}, "t"}, fill_ones(d));
  // Async failure: the submission succeeds and nothing is visible yet.
  EXPECT_EQ(r.error, ErrorCode::kSuccess);
  EXPECT_EQ(rt.peek_last_error(), ErrorCode::kSuccess);
  // The sync point surfaces the sticky cudaErrorLaunchFailure...
  EXPECT_EQ(rt.synchronize(), ErrorCode::kLaunchFailure);
  // ...and from here every call fails with it, doing no work.
  DevSpan<int> dead = rt.malloc<int>(16);
  EXPECT_EQ(dead.addr, 0u);
  EXPECT_EQ(rt.last_call_error(), ErrorCode::kLaunchFailure);
  std::vector<int> h(16, 9);
  rt.memcpy_h2d(d, std::span<const int>(h));
  EXPECT_EQ(rt.last_call_error(), ErrorCode::kLaunchFailure);
  LaunchInfo refused = rt.launch({Dim3{1}, Dim3{256}, "t"}, fill_ones(d));
  EXPECT_EQ(refused.error, ErrorCode::kLaunchFailure);
  EXPECT_EQ(rt.synchronize(), ErrorCode::kLaunchFailure);
  // get_last_error does NOT clear stickiness.
  EXPECT_EQ(rt.get_last_error(), ErrorCode::kLaunchFailure);
  EXPECT_EQ(rt.peek_last_error(), ErrorCode::kLaunchFailure);
  // Only device_reset recovers the context.
  rt.device_reset();
  EXPECT_EQ(rt.peek_last_error(), ErrorCode::kSuccess);
  LaunchInfo ok = rt.launch({Dim3{1}, Dim3{256}, "t"}, fill_ones(d));
  EXPECT_EQ(ok.error, ErrorCode::kSuccess);
  EXPECT_EQ(rt.synchronize(), ErrorCode::kSuccess);
  std::vector<int> back(256);
  rt.memcpy_d2h(std::span<int>(back), d);
  EXPECT_EQ(back, std::vector<int>(256, 1));
}

TEST(FaultInject, UmMigrateFaultIsStickyIllegalAddress) {
  Runtime rt(DeviceProfile::test_tiny());
  // nth=2: the prefetch migration (call 1) succeeds, the host-access
  // migration (call 2) fails. Accesses that migrate nothing don't count.
  rt.set_fault_spec("um_migrate:nth=2");
  DevSpan<int> m = rt.malloc_managed<int>(1024);
  ASSERT_NE(m.addr, 0u);
  std::vector<int> h(1024, 3);
  rt.managed_write(m, std::span<const int>(h));  // Host-resident: no migration.
  EXPECT_EQ(rt.last_call_error(), ErrorCode::kSuccess);
  rt.prefetch_to_device(rt.default_stream(), m);
  EXPECT_EQ(rt.last_call_error(), ErrorCode::kSuccess);
  // Faulting the pages back fails: a wild access — immediate sticky
  // illegal-address, and the functional bytes don't move.
  rt.managed_write(m, std::span<const int>(h));
  EXPECT_EQ(rt.last_call_error(), ErrorCode::kIllegalAddress);
  EXPECT_EQ(rt.malloc<int>(4).addr, 0u);  // Context poisoned.
  rt.device_reset();
  EXPECT_NE(rt.malloc<int>(4).addr, 0u);
}

// --- VGPU_CHECK escalation ---------------------------------------------------

TEST(FaultEscalate, SanFindingPoisonsContext) {
  Runtime rt(DeviceProfile::test_tiny());
  rt.set_check_mode(vgpu::parse_check_mode("memcheck,escalate"));
  DevSpan<int> x = rt.malloc<int>(64);
  // Classic off-by-one: one lane stores one element past the end.
  LaunchInfo r = rt.launch({Dim3{1}, Dim3{96}, "off-by-one"},
                           [=](WarpCtx& w) -> WarpTask {
                             vgpu::LaneI tid = w.global_tid_x();
                             w.branch(tid <= 64, [&] {
                               w.store(x, tid, LaneVec<int>(1));
                             });
                             co_return;
                           });
  EXPECT_EQ(r.error, ErrorCode::kSuccess);  // Async, like hardware memcheck.
  EXPECT_EQ(rt.synchronize(), ErrorCode::kIllegalAddress);
  EXPECT_EQ(rt.malloc<int>(4).addr, 0u);  // Sticky.
  rt.device_reset();
  LaunchInfo clean = rt.launch({Dim3{1}, Dim3{64}, "clean"}, fill_ones(x));
  EXPECT_EQ(clean.error, ErrorCode::kSuccess);
  EXPECT_EQ(rt.synchronize(), ErrorCode::kSuccess);
}

TEST(FaultEscalate, EscalateIsNotPartOfFull) {
  using vgpu::CheckMode;
  EXPECT_FALSE(vgpu::check_has(CheckMode::kFull, CheckMode::kEscalate));
  EXPECT_TRUE(vgpu::check_has(vgpu::parse_check_mode("full,escalate"),
                              CheckMode::kEscalate));
}

// --- Determinism -------------------------------------------------------------

// The injected sequence is decided at host API boundaries in program order,
// so it must be bit-identical no matter how many worker threads simulate the
// grid (the acceptance criterion for VGPU_THREADS={1,8}).
TEST(FaultDeterminism, InjectionSequenceIsThreadCountInvariant) {
  auto run = [](int threads) {
    Runtime rt(DeviceProfile::test_tiny());
    rt.set_sim_threads(threads);
    rt.set_fault_spec("launch:transient,p=0.1,seed=7");
    DevSpan<int> d = rt.malloc<int>(256);
    std::vector<ErrorCode> seq;
    for (int i = 0; i < 40; ++i) {
      LaunchInfo r = rt.launch({Dim3{4}, Dim3{64}, "t"}, fill_ones(d));
      seq.push_back(r.error);
    }
    EXPECT_EQ(rt.synchronize(), ErrorCode::kSuccess);
    return seq;
  };
  std::vector<ErrorCode> one = run(1);
  std::vector<ErrorCode> eight = run(8);
  EXPECT_EQ(one, eight);
  int rejected = 0;
  for (ErrorCode e : one) rejected += e == ErrorCode::kLaunchOutOfResources;
  EXPECT_GT(rejected, 0);   // p=0.1 over 40 launches: some must fire...
  EXPECT_LT(rejected, 40);  // ...and some must not.
}

// --- No-fault guard ----------------------------------------------------------

TEST(FaultOff, InjectorAbsentAndErrorsClean) {
  Runtime rt(DeviceProfile::test_tiny());
  rt.set_fault_spec("");  // Explicitly off, whatever the environment says.
  EXPECT_EQ(rt.fault_injector(), nullptr);
  DevSpan<int> d = rt.malloc<int>(256);
  LaunchInfo r = rt.launch({Dim3{1}, Dim3{256}, "t"}, fill_ones(d));
  EXPECT_EQ(r.error, ErrorCode::kSuccess);
  EXPECT_EQ(rt.synchronize(), ErrorCode::kSuccess);
  EXPECT_EQ(rt.get_last_error(), ErrorCode::kSuccess);
}

}  // namespace
