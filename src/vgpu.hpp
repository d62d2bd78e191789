#pragma once

// vgpu — single public umbrella header.
//
//   #include <vgpu.hpp>
//
// is the documented entry point to the simulator: it provides the Runtime
// (CUDA-runtime-shaped host API), kernel authoring vocabulary (WarpCtx,
// LaneVec, DevSpan, LaunchConfig, warp-level collectives), streams/events/
// graphs, the vgpu-san dynamic checker, the vgpu-prof activity tracer, the
// vgpu-advise performance advisor (the profiler also draws the nvvp-style
// ASCII Gantt) and the library's JSON writer. The deep headers (rt/...,
// sim/..., xfer/...) stay valid for code that pokes at internals, but new
// code should include this one.
//
// For host code ported verbatim from CUDA, see <vgpu/cuda_names.hpp>.
// To grade an externally-authored kernel against a task spec (functional +
// san + advise + perf verdict as JSON), see the vgpu-grade harness:
// <grade/grade.hpp> for the KernelPlugin API and tasks/ for the shipped
// task suite and the `vgpu-grade` driver.

#include "advise/advise.hpp" // vgpu-advise: AdviseMode, Advisor, Advice.
#include "fault/error.hpp"   // vgpu-fault: ErrorCode, ErrorState.
#include "fault/inject.hpp"  // vgpu-fault: FaultInjector, FaultSite.
#include "grade/json.hpp"    // JsonWriter, json_escape, json_number.
#include "multi/device_set.hpp" // vgpu-multi: DeviceSet, peer transfers.
#include "multi/topology.hpp"   // vgpu-multi: Topology, Link.
#include "prof/prof.hpp"     // vgpu-prof: ProfMode, Profiler, ActivityRecord.
#include "rt/runtime.hpp"    // Runtime, LaunchInfo, streams, events, graphs.
#include "san/check.hpp"     // vgpu-san: CheckMode, CheckReport.
#include "sim/lanevec.hpp"   // LaneVec/LaneF/LaneI/Mask lane arithmetic.
#include "sim/warp_ops.hpp"  // Warp/block collectives (reduce, scan, ...).
