// Multi-GPU scale-out ports (vgpu-multi): staged vs peer-to-peer pairs.
//
// Each row of kPorts is one pair, swept over strong scaling (the problem is
// fixed) and weak scaling (it grows with the device count):
//
// - Halo stencil. A 1-D 3-point diffusion stencil row-sharded across N
//   devices exchanges one-cell halos every step. The exchange is tiny and
//   latency-bound, so host-staging it (naive: peer access never enabled)
//   pays two PCIe traversals plus a host round-trip per boundary per step,
//   while the optimized variant rides the interconnect directly.
// - Sharded histogram. Each device bins its contiguous shard of the sample
//   stream and the partials are reduced onto device 0 in ordinal order. The
//   naive variant ships every partial through host memory; the optimized
//   one sends them peer-to-peer. Integer bins make both variants exact.
// - Pipelined matmul. C = A·B with A and C row-sharded and B split into
//   k-blocks cycled around the devices. The naive variant stops the pipeline
//   every round for a host-staged fetch; the optimized one prefetches the
//   next block peer-to-peer on a second stream, hiding it under the kernel.
//
// main exits 1 when any variant fails bitwise verification.

#include "bench_common.hpp"
#include "multi/ports.hpp"

namespace {

struct Port {
  const char* name;  ///< Benchmark name prefix; _Strong / _Weak is appended.
  cumb::MultiPairResult (*run)(int devices, bool weak);
};

const Port kPorts[] = {
    {"Multi_HaloStencil",
     [](int d, bool weak) {
       return cumb::run_halo_exchange(vgpu::ambient_options(), d,
                                      weak ? (1 << 16) * d : 1 << 18,
                                      /*steps=*/24);
     }},
    {"Multi_ShardHistogram",
     [](int d, bool weak) {
       return cumb::run_sharded_histogram(vgpu::ambient_options(), d,
                                          weak ? (1 << 18) * d : 1 << 20,
                                          /*bins=*/256, /*skew=*/0.25);
     }},
    {"Multi_PipelineMatmul",
     [](int d, bool weak) {
       // m = n = k = 256 for the fixed-size curve; 160 per device for weak.
       return weak ? cumb::run_pipelined_matmul(vgpu::ambient_options(), d,
                                                160 * d, 160, 160 * d)
                   : cumb::run_pipelined_matmul(vgpu::ambient_options(), d,
                                                256, 256, 256);
     }},
};

bool g_all_verified = true;

void run_port(benchmark::State& state, const Port* port, bool weak) {
  int devices = static_cast<int>(state.range(0));
  for (auto _ : state) {
    cumb::MultiPairResult r = port->run(devices, weak);
    if (!r.results_match()) g_all_verified = false;
    state.counters["devices"] = r.devices;
    state.counters["naive_sim_ms"] = r.naive_us * 1e-3;
    state.counters["optimized_sim_ms"] = r.optimized_us * 1e-3;
    state.counters["speedup"] = r.speedup();
    state.counters["verified"] = r.results_match() ? 1 : 0;
    state.counters["peer_transfers"] = r.optimized_transfers;
  }
}

}  // namespace

int main(int argc, char** argv) {
  cumbench::consume_prof_flags(&argc, argv);
  cumbench::banner(
      "Multi-GPU scale-out - halo stencil, sharded histogram, pipelined "
      "matmul (staged vs peer-to-peer)",
      "P2P transfers remove the host bounce from halos, partial reductions "
      "and pipelined block fetches");
  // --devices=N pins the sweep to one count; default sweeps the curve.
  std::vector<int> counts = cumbench::device_count() != 1
                                ? std::vector<int>{cumbench::device_count()}
                                : std::vector<int>{1, 2, 4};
  for (const Port& port : kPorts) {
    for (int d : counts) {
      for (bool weak : {false, true}) {
        std::string name = std::string(port.name) + (weak ? "_Weak" : "_Strong");
        benchmark::RegisterBenchmark(name.c_str(), run_port, &port, weak)
            ->Arg(d)
            ->Iterations(1);
      }
    }
  }
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  if (!g_all_verified) {
    std::fprintf(stderr, "multi_scaleout: a variant failed verification\n");
    return 1;
  }
  return 0;
}
