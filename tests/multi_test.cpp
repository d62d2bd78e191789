// vgpu-multi contracts: topology parsing/routing, the DeviceSet peer API,
// cross-device determinism of the scale-out ports, device-scoped fault
// injection, the host-staged-peer-transfer advisor rule, and the merged
// per-device chrome trace.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include <vgpu.hpp>
#include <vgpu/cuda_names.hpp>

#include "json_check.hpp"
#include "multi/ports.hpp"

namespace {

using vgpu::DeviceSet;
using vgpu::ErrorCode;
using vgpu::Link;
using vgpu::RuntimeOptions;
using vgpu::Topology;

// --- Topology ---------------------------------------------------------------

TEST(Topology, ParseRoundTripsThroughCanonicalSpelling) {
  for (const char* spec :
       {"pcie:4", "nvlink:4", "mesh:8", "nvlink:2,bw=25", "pcie:3,lat=1.5",
        "mesh:4,bw=100,lat=0.5"}) {
    Topology t = Topology::parse(spec);
    std::string canon = t.to_string();
    Topology again = Topology::parse(canon);
    EXPECT_EQ(canon, again.to_string()) << spec;
    EXPECT_EQ(t.devices(), again.devices());
    EXPECT_EQ(t.links().size(), again.links().size());
  }
}

TEST(Topology, CanonicalSpellingMakesDefaultsExplicit) {
  EXPECT_EQ(Topology::parse("nvlink:4").to_string(), "nvlink:4,bw=50,lat=1");
  EXPECT_EQ(Topology::parse("pcie:2").to_string(), "pcie:2,bw=12,lat=2");
  EXPECT_EQ(Topology::parse("pcie:2,bw=12").to_string(), "pcie:2,bw=12,lat=2");
  EXPECT_THROW(Topology::parse("PCIE:2"), std::invalid_argument);  // Lowercase.
}

TEST(Topology, ParseRejectsMalformedSpecs) {
  for (const char* bad : {"", "pcie", "pcie:", "pcie:0", "pcie:65", "ring:4",
                          "nvlink:4,bw=0", "nvlink:4,lat=-1", "nvlink:4,x=1",
                          "pcie:two"}) {
    EXPECT_THROW(Topology::parse(bad), std::invalid_argument) << bad;
  }
}

TEST(Topology, ShapesHaveTheRightLinkCounts) {
  EXPECT_EQ(Topology::pcie_switch(4).links().size(), 4u);  // One per root port.
  EXPECT_EQ(Topology::nvlink_ring(4).links().size(), 4u);  // Ring of 4.
  EXPECT_EQ(Topology::nvlink_ring(2).links().size(), 1u);  // Degenerate ring.
  EXPECT_EQ(Topology::mesh(4).links().size(), 6u);         // All pairs.
}

TEST(Topology, PcieRoutesCrossTheSwitch) {
  Topology t = Topology::pcie_switch(4);
  std::vector<std::size_t> r = t.route(1, 3);
  ASSERT_EQ(r.size(), 2u);  // Root port of 1, then root port of 3.
  EXPECT_EQ(r[0], 1u);
  EXPECT_EQ(r[1], 3u);
}

TEST(Topology, RingRoutesTakeTheShorterDirection) {
  Topology t = Topology::nvlink_ring(4);
  EXPECT_EQ(t.route(0, 1).size(), 1u);
  EXPECT_EQ(t.route(0, 3).size(), 1u);  // Wraps backwards, one hop.
  EXPECT_EQ(t.route(0, 2).size(), 2u);  // Tie: clockwise, two hops.
  EXPECT_EQ(t.route(3, 1).size(), 2u);
}

TEST(Topology, MeshRoutesAreOneHop) {
  Topology t = Topology::mesh(6);
  for (int a = 0; a < 6; ++a)
    for (int b = 0; b < 6; ++b) {
      if (a != b) {
        EXPECT_EQ(t.route(a, b).size(), 1u);
      }
    }
}

TEST(Topology, RouteValidatesOrdinals) {
  Topology t = Topology::mesh(2);
  EXPECT_THROW(t.route(0, 0), std::invalid_argument);
  EXPECT_THROW(t.route(0, 2), std::out_of_range);
  EXPECT_THROW(t.route(-1, 1), std::out_of_range);
}

TEST(Topology, IdealTransferSumsHopLatencyAndWireTime) {
  Topology t = Topology::parse("nvlink:4,bw=50,lat=1");
  // 0 -> 2: two hops of 1us latency, 1e6 bytes at 50 GB/s = 20us per hop.
  EXPECT_NEAR(t.ideal_transfer_us(0, 2, 1e6), 2.0 + 2 * 20.0, 1e-9);
}

// --- RuntimeOptions wiring --------------------------------------------------

TEST(MultiOptions, CanonicalIncludesDevicesAndNormalizedTopology) {
  RuntimeOptions a;
  a.devices = 4;
  a.topology = "nvlink:4";
  RuntimeOptions b;
  b.devices = 4;
  b.topology = "nvlink:4,bw=50";  // Equivalent spelling.
  EXPECT_EQ(a.canonical(), b.canonical());
  EXPECT_NE(a.canonical(), RuntimeOptions{}.canonical());
  EXPECT_NE(std::string::npos, a.canonical().find("devices=4"));
  EXPECT_NE(std::string::npos, a.canonical().find("topo=nvlink:4,bw=50,lat=1"));
}

TEST(MultiOptions, FromEnvReadsDevicesAndTopology) {
  ::setenv("VGPU_DEVICES", "3", 1);
  ::setenv("VGPU_TOPOLOGY", "mesh:3", 1);
  RuntimeOptions o = RuntimeOptions::from_env();
  ::unsetenv("VGPU_DEVICES");
  ::unsetenv("VGPU_TOPOLOGY");
  EXPECT_EQ(o.devices, 3);
  EXPECT_EQ(o.topology, "mesh:3");
  EXPECT_EQ(RuntimeOptions::from_env().devices, 1);
}

// --- DeviceSet peer lifecycle ----------------------------------------------

RuntimeOptions two_device_opts(const std::string& topo = "nvlink:2") {
  RuntimeOptions o;
  o.devices = 2;
  o.topology = topo;
  return o;
}

TEST(DeviceSetPeer, TopologyWinsAndMismatchThrows) {
  RuntimeOptions o;
  o.topology = "mesh:4";  // devices left at 1: topology decides.
  DeviceSet set(o);
  EXPECT_EQ(set.device_count(), 4);

  RuntimeOptions bad;
  bad.devices = 2;
  bad.topology = "mesh:4";
  EXPECT_THROW(DeviceSet{bad}, std::invalid_argument);
}

TEST(DeviceSetPeer, LifecycleErrorsMatchCuda) {
  DeviceSet set(two_device_opts());
  EXPECT_FALSE(set.peer_enabled(0, 1));
  EXPECT_EQ(set.enable_peer_access(0, 1), ErrorCode::kSuccess);
  EXPECT_TRUE(set.peer_enabled(0, 1));
  EXPECT_FALSE(set.peer_enabled(1, 0));  // Directional, like CUDA.
  EXPECT_EQ(set.enable_peer_access(0, 1),
            ErrorCode::kPeerAccessAlreadyEnabled);
  EXPECT_EQ(set.disable_peer_access(0, 1), ErrorCode::kSuccess);
  EXPECT_EQ(set.disable_peer_access(0, 1), ErrorCode::kPeerAccessNotEnabled);
  EXPECT_EQ(set.enable_peer_access(0, 0), ErrorCode::kInvalidDevice);
  EXPECT_EQ(set.enable_peer_access(0, 7), ErrorCode::kInvalidDevice);
  EXPECT_EQ(set.set_device(5), ErrorCode::kInvalidDevice);
  EXPECT_EQ(set.set_device(1), ErrorCode::kSuccess);
  EXPECT_EQ(set.current_device(), 1);
}

TEST(DeviceSetPeer, StagedAndDirectCopiesMoveBytesDirectCostsLess) {
  std::vector<int> src(1024);
  for (int i = 0; i < 1024; ++i) src[static_cast<std::size_t>(i)] = i * 3;

  auto run = [&](bool enable_peers) {
    DeviceSet set(two_device_opts());
    if (enable_peers) set.enable_peer_access(0, 1);
    auto a = set.device(0).malloc<int>(1024);
    auto b = set.device(1).malloc<int>(1024);
    set.device(0).memcpy_h2d(a, std::span<const int>(src));
    set.synchronize_all();
    double t0 = set.host_now();
    set.memcpy_peer(1, b, 0, a, 1024);
    double cost = set.host_now() - t0;
    std::vector<int> out(1024);
    set.device(1).memcpy_d2h(std::span<int>(out), b);
    EXPECT_EQ(out, src);
    return cost;
  };
  double staged = run(false);
  double direct = run(true);
  EXPECT_GT(staged, direct);  // The host bounce is strictly slower.
  EXPECT_GT(direct, 0.0);
}

TEST(DeviceSetPeer, DirectTransfersAppearAsLinkSpans) {
  DeviceSet set(two_device_opts());
  set.enable_peer_access(0, 1);
  auto a = set.device(0).malloc<int>(64);
  auto b = set.device(1).malloc<int>(64);
  EXPECT_TRUE(set.link_spans().empty());
  set.memcpy_peer(1, b, 0, a, 64);
  ASSERT_EQ(set.link_spans().size(), 1u);  // 2-device ring: one hop.
  EXPECT_EQ(set.link_spans()[0].src, 0);
  EXPECT_EQ(set.link_spans()[0].dst, 1);
  EXPECT_EQ(set.link_spans()[0].bytes, 64 * sizeof(int));
}

TEST(DeviceSetPeer, PeerAtomicAddRequiresPeerAccessAndReturnsOld) {
  DeviceSet set(two_device_opts());
  auto counter = set.device(1).malloc<int>(1);
  set.device(1).memset(counter, 5);
  set.device(1).synchronize();

  // Without peer access: refused, value untouched.
  EXPECT_EQ(set.peer_atomic_add(1, counter, 0, 7), 0);
  EXPECT_EQ(set.device(0).get_last_error(), ErrorCode::kPeerAccessNotEnabled);

  set.enable_peer_access(0, 1);
  EXPECT_EQ(set.peer_atomic_add(1, counter, 0, 7), 5);
  EXPECT_EQ(set.peer_atomic_add(1, counter, 0, 7), 12);
  std::vector<int> out(1);
  set.device(1).memcpy_d2h(std::span<int>(out), counter);
  EXPECT_EQ(out[0], 19);
}

// --- Merged chrome trace ----------------------------------------------------

TEST(DeviceSetTrace, OneProcessPerDevicePlusInterconnect) {
  for (int n : {2, 4}) {
    RuntimeOptions o;
    o.devices = n;
    o.prof = vgpu::ProfMode::kTrace;
    DeviceSet set(o);
    for (int d = 0; d < n; ++d) {
      auto x = set.device(d).malloc<float>(32);
      set.device(d).launch({vgpu::Dim3{1}, vgpu::Dim3{32}, "dev" + std::to_string(d)},
                           [=](vgpu::WarpCtx& w) -> vgpu::WarpTask {
                             w.store(x, w.global_tid_x(), vgpu::LaneVec<float>(1.0f));
                             co_return;
                           });
    }
    set.enable_peer_access(0, n - 1);
    auto a = set.device(0).malloc<int>(64);
    auto b = set.device(n - 1).malloc<int>(64);
    set.memcpy_peer(n - 1, b, 0, a, 64);
    set.synchronize_all();

    std::string json = set.chrome_trace_json();
    EXPECT_TRUE(cumb_tests::json_well_formed(json)) << json.substr(0, 400);
    auto count = [&json](const std::string& needle) {
      int c = 0;
      for (std::size_t p = json.find(needle); p != std::string::npos;
           p = json.find(needle, p + 1))
        ++c;
      return c;
    };
    EXPECT_EQ(count("\"process_name\""), n + 1) << n;
    EXPECT_EQ(count("\"interconnect\""), 1) << n;
    // One link span per hop of the PCIe route: d0 -> switch -> d(n-1).
    EXPECT_EQ(count("\"d0-d" + std::to_string(n - 1) + "\""), 2) << n;
    for (int d = 0; d < n; ++d) {
      EXPECT_EQ(count("\"device " + std::to_string(d) + "\""), 1) << n;
      // The device's kernel event sits in process `d`: its pid precedes the
      // name within the same event object.
      std::string kernel = "\"name\": \"dev" + std::to_string(d) + "\"";
      std::size_t at = json.find(kernel);
      ASSERT_NE(at, std::string::npos) << kernel;
      EXPECT_EQ(json.find(kernel, at + 1), std::string::npos) << kernel;
      std::size_t ph = json.rfind("\"ph\"", at);
      ASSERT_NE(ph, std::string::npos);
      EXPECT_NE(json.substr(ph, at - ph).find("\"pid\": " + std::to_string(d) + ","),
                std::string::npos)
          << json.substr(ph, at - ph);
    }
  }
}

// --- Fault injection: device scoping ----------------------------------------

TEST(MultiFault, P2PFaultScopedToSourceDevice) {
  RuntimeOptions o = two_device_opts();
  o.fault_spec = "p2p@dev1:nth=1";
  DeviceSet set(o);
  set.enable_peer_access(0, 1);
  set.enable_peer_access(1, 0);
  auto a = set.device(0).malloc<int>(8);
  auto b = set.device(1).malloc<int>(8);

  // Source device 0: not armed there, copy succeeds.
  set.memcpy_peer(1, b, 0, a, 8);
  EXPECT_EQ(set.device(0).get_last_error(), ErrorCode::kSuccess);

  // Source device 1: first copy fires.
  set.memcpy_peer(0, a, 1, b, 8);
  EXPECT_EQ(set.device(1).get_last_error(), ErrorCode::kUnknown);
}

TEST(MultiFault, FilteredSpecAppliesDeviceScopedOverride) {
  vgpu::FaultInjector inj =
      vgpu::FaultInjector::parse("launch:nth=3;launch@dev1:nth=5;oom@dev2:nth=1");
  EXPECT_EQ(inj.filtered_spec(0), "launch:nth=3");
  EXPECT_EQ(inj.filtered_spec(1), "launch:nth=5");  // Override, rendered local.
  EXPECT_EQ(inj.filtered_spec(2), "oom:nth=1;launch:nth=3");  // Site order.
  EXPECT_THROW(vgpu::FaultInjector::parse("launch@devx:nth=1"),
               std::invalid_argument);
  EXPECT_THROW(vgpu::FaultInjector::parse("launch@dev1:nth=1;launch@dev1:nth=2"),
               std::invalid_argument);
}

// --- The cuda_names multi-GPU surface ----------------------------------------

TEST(CudaNamesMulti, DeviceAndPeerEntryPoints) {
  namespace cn = vgpu::cuda;
  DeviceSet set(two_device_opts());
  cn::CudaMultiContext ctx(set);

  int count = 0, dev = -1, can = -1;
  EXPECT_EQ(cn::cudaGetDeviceCount(&count), cn::cudaSuccess);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(cn::cudaSetDevice(1), cn::cudaSuccess);
  EXPECT_EQ(cn::cudaGetDevice(&dev), cn::cudaSuccess);
  EXPECT_EQ(dev, 1);
  EXPECT_EQ(cn::cudaSetDevice(9), cn::cudaErrorInvalidDevice);
  EXPECT_EQ(cn::cudaDeviceCanAccessPeer(&can, 0, 1), cn::cudaSuccess);
  EXPECT_EQ(can, 1);

  // Current device is 1: enable 1 -> 0, then peer-copy 1 -> 0.
  EXPECT_EQ(cn::cudaDeviceEnablePeerAccess(0), cn::cudaSuccess);
  EXPECT_EQ(cn::cudaDeviceEnablePeerAccess(0),
            cn::cudaErrorPeerAccessAlreadyEnabled);
  auto src = set.device(1).malloc<int>(16);
  auto dst = set.device(0).malloc<int>(16);
  std::vector<int> host(16, 42);
  set.device(1).memcpy_h2d(src, std::span<const int>(host));
  EXPECT_EQ(cn::cudaMemcpyPeer(dst, 0, src, 1, 16 * sizeof(int)),
            cn::cudaSuccess);
  std::vector<int> out(16);
  set.device(0).memcpy_d2h(std::span<int>(out), dst);
  EXPECT_EQ(out, host);
  EXPECT_EQ(cn::cudaDeviceDisablePeerAccess(0), cn::cudaSuccess);
  EXPECT_EQ(cn::cudaDeviceDisablePeerAccess(0),
            cn::cudaErrorPeerAccessNotEnabled);
}

TEST(CudaNamesMulti, UnboundDefaultsDescribeOneDevice) {
  namespace cn = vgpu::cuda;
  int count = 0, dev = -1, can = -1;
  EXPECT_EQ(cn::cudaGetDeviceCount(&count), cn::cudaSuccess);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(cn::cudaGetDevice(&dev), cn::cudaSuccess);
  EXPECT_EQ(dev, 0);
  EXPECT_EQ(cn::cudaSetDevice(0), cn::cudaSuccess);
  EXPECT_EQ(cn::cudaSetDevice(1), cn::cudaErrorInvalidDevice);
  EXPECT_EQ(cn::cudaDeviceCanAccessPeer(&can, 0, 1), cn::cudaSuccess);
  EXPECT_EQ(can, 0);
  EXPECT_EQ(cn::cudaDeviceEnablePeerAccess(1), cn::cudaErrorInvalidDevice);
}

// --- Advisor closed loop ----------------------------------------------------

TEST(MultiAdvise, HostStagedPeerTransferFiresOnStagedTrafficOnly) {
  auto advice_rules = [](bool enable_peers) {
    RuntimeOptions o = two_device_opts();
    o.advise = vgpu::AdviseMode::kFull;
    DeviceSet set(o);
    if (enable_peers) set.enable_peer_access(0, 1);
    auto a = set.device(0).malloc<float>(1 << 16);
    auto b = set.device(1).malloc<float>(1 << 16);
    for (int i = 0; i < 4; ++i) set.memcpy_peer(1, b, 0, a, 1 << 16);
    std::vector<std::string> rules;
    for (const vgpu::Advice& ad : set.device(0).advisor()->analyze())
      rules.push_back(ad.rule);
    return rules;
  };

  std::vector<std::string> staged = advice_rules(false);
  EXPECT_NE(staged.end(),
            std::find(staged.begin(), staged.end(), "host-staged-peer-transfer"));
  std::vector<std::string> direct = advice_rules(true);
  EXPECT_EQ(direct.end(),
            std::find(direct.begin(), direct.end(), "host-staged-peer-transfer"));
}

// --- Determinism of the scale-out ports --------------------------------------

TEST(MultiPorts, AllPortsVerifyAcrossDeviceCounts) {
  RuntimeOptions base;
  for (int d : {1, 2, 4}) {
    auto halo = cumb::run_halo_exchange(base, d, 1 << 12, 4);
    EXPECT_TRUE(halo.results_match()) << "halo d=" << d;
    auto hist = cumb::run_sharded_histogram(base, d, 1 << 14, 64, 0.3);
    EXPECT_TRUE(hist.results_match()) << "hist d=" << d;
    auto mm = cumb::run_pipelined_matmul(base, d, 64, 64, 64);
    EXPECT_TRUE(mm.results_match()) << "matmul d=" << d;
    if (d > 1) {
      EXPECT_LT(halo.optimized_us, halo.naive_us);
      EXPECT_LT(hist.optimized_us, hist.naive_us);
      EXPECT_LT(mm.optimized_us, mm.naive_us);
    }
  }
}

TEST(MultiPorts, TwoDeviceHaloBitIdenticalAcrossSimThreads) {
  RuntimeOptions o1;
  o1.sim_threads = 1;
  auto r1 = cumb::run_halo_exchange(o1, 2, 1 << 13, 6);
  RuntimeOptions o8;
  o8.sim_threads = 8;
  auto r8 = cumb::run_halo_exchange(o8, 2, 1 << 13, 6);
  EXPECT_TRUE(r1.results_match());
  EXPECT_TRUE(r8.results_match());
  EXPECT_EQ(r1.checksum, r8.checksum);  // FNV over the result bytes.
  EXPECT_EQ(r1.naive_us, r8.naive_us);  // Simulated times too.
  EXPECT_EQ(r1.optimized_us, r8.optimized_us);
}

TEST(MultiPorts, SingleDevicePathKeepsItsOwnClock) {
  // A 1-device DeviceSet must time exactly like a bare Runtime: the shared
  // clock is installed but nothing else touches it.
  RuntimeOptions o;
  auto r = cumb::run_sharded_histogram(o, 1, 1 << 12, 32, 0.0);
  EXPECT_TRUE(r.results_match());
  EXPECT_EQ(r.naive_us, r.optimized_us);  // No transfers: variants identical.
  EXPECT_EQ(r.naive_transfers, 0);
}

}  // namespace
