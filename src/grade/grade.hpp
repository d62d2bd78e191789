#pragma once

// vgpu-grade engine: run one submission against one task and produce a
// Verdict.
//
// The engine owns the Runtime lifecycle: it instantiates the task's device
// profile, forces vgpu-san (full), vgpu-prof (metrics) and vgpu-advise
// (full) on, drives the plugin's setup/launch/verify hooks in dedicated
// advise phases, harvests every gate's evidence, and detaches the observers
// before the Runtime flushes at destruction (so nothing but the verdict
// reaches the caller). Every failure mode — unknown ids, throwing hooks,
// CUDA errors raised by fault injection — becomes a structured error
// verdict, never a crash.

#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "grade/plugin.hpp"
#include "grade/task.hpp"
#include "grade/verdict.hpp"
#include "sim/fidelity.hpp"

namespace vgpu::grade {

struct GradeOptions {
  /// Simulator worker threads; 0 keeps the Runtime default (VGPU_THREADS).
  int threads = 0;
  /// Fidelity override; unset keeps the ambient options' (VGPU_FIDELITY, else
  /// exact).
  std::optional<Fidelity> fidelity;
  /// vgpu-fault injection spec applied to the run ("" = none).
  std::string fault_spec;
  /// Skip the perf gate (reports perf.gated=false, perf.pass=true). Used by
  /// --update-baselines, which measures before a baseline exists.
  bool skip_perf = false;
  /// Committed baselines by task id; nullptr behaves like an empty map.
  const std::map<std::string, PerfBaseline>* baselines = nullptr;
};

/// Grade `submission` against `task_id`. Always returns a verdict; see the
/// file comment for the error-verdict contract.
Verdict run_grade(const TaskRegistry& tasks, const PluginRegistry& plugins,
                  std::string_view task_id, std::string_view submission,
                  const GradeOptions& opts = {});

/// Baselines file I/O (tasks/baselines.txt): one "<task> <kernel_cycles>
/// <dram_bytes> <xfer_bytes> <sim_time_us>" line per task, '#' comments,
/// doubles in shortest round-trip form. load returns an empty map for a
/// missing file; it throws std::runtime_error on a malformed line.
std::map<std::string, PerfBaseline> load_baselines(const std::string& path);
bool save_baselines(const std::string& path,
                    const std::map<std::string, PerfBaseline>& baselines);

}  // namespace vgpu::grade
