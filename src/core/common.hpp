#pragma once

// Shared vocabulary of the 14 microbenchmarks.
//
// Each benchmark module exposes (a) its kernels, written exactly in the shape
// of the paper's figures, and (b) a driver `run_<name>()` that executes the
// naive and optimized variants on a Runtime, verifies them functionally, and
// returns a PairResult with simulated times and profiler counters.

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "linalg/dense.hpp"
#include "linalg/generate.hpp"
#include "rt/runtime.hpp"
#include "sim/lanevec.hpp"

namespace cumb {

using vgpu::ConstSpan;
using vgpu::DevSpan;
using vgpu::Dim3;
using vgpu::KernelStats;
using vgpu::LaneF;
using vgpu::LaneI;
using vgpu::LaneVec;
using vgpu::LaunchConfig;
using vgpu::Mask;
using vgpu::Runtime;
using vgpu::SharedArray;
using vgpu::Stream;
using vgpu::Texture;
using vgpu::WarpCtx;
using vgpu::WarpTask;

/// Outcome of one naive-vs-optimized comparison.
struct PairResult {
  std::string name;
  double naive_us = 0;
  double optimized_us = 0;
  bool results_match = false;     ///< Functional verification passed.
  double max_error = 0;           ///< Largest deviation from the host reference.
  KernelStats naive_stats;
  KernelStats optimized_stats;

  double speedup() const { return optimized_us > 0 ? naive_us / optimized_us : 0; }
};

/// ceil(n / threads_per_block) — the usual 1-D grid size.
constexpr int blocks_for(long long n, int threads_per_block) {
  return static_cast<int>((n + threads_per_block - 1) / threads_per_block);
}

/// A pair's independently seeded inputs: random_vector(n, seeds[k]) for
/// every k, drawn concurrently on the simulation pool. Each vector equals its
/// serial call, at any sim thread count. `also`, if set, runs as one more
/// concurrent index: other host set-up that is independent of the draws.
template <std::size_t N>
std::array<std::vector<Real>, N> random_vectors(Runtime& rt, std::size_t n,
                                                const std::uint64_t (&seeds)[N],
                                                const std::function<void()>& also = {}) {
  std::array<std::vector<Real>, N> out;
  rt.gpu().parallel_for(static_cast<long long>(also ? N + 1 : N), [&](long long j) {
    const auto k = static_cast<std::size_t>(j);
    if (k < N) out[k] = random_vector(n, seeds[k]);
    else also();
  });
  return out;
}

}  // namespace cumb
