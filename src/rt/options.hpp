#pragma once

// vgpu::RuntimeOptions — the explicit configuration surface of a Runtime.
//
// Historically every mode knob was an environment variable read inside the
// subsystem that consumed it (VGPU_THREADS in the worker pool, VGPU_CHECK in
// the executor, VGPU_PROF/VGPU_ADVISE/VGPU_FAULT in the Runtime constructor),
// which made two differently-configured Runtime instances in one process
// impossible to express. RuntimeOptions gathers every knob into one value
// type; `RuntimeOptions::from_env()` is the ONLY place in src/ that reads
// the process environment, and `Runtime(RuntimeOptions)` is the only consumer.
//
// Precedence is explicit > env > default:
//
//   Runtime rt(opts);                 // explicit: env is never consulted
//   Runtime rt(profile);              // legacy shim: ambient_options(profile)
//   Runtime rt;                       //   = installed ambient override if any,
//                                     //     else RuntimeOptions::from_env()
//
// set_ambient_options() installs a process-wide override consumed by the
// legacy constructors — this is how a driver (bench flags, the job server)
// configures Runtimes constructed deep inside library code without setenv
// round-trips. With no override installed, the legacy constructors re-read
// the environment on every construction, preserving the historical behavior
// (tests that setenv/unsetenv between Runtimes keep working).
//
// canonical() renders the *result-affecting* subset as a stable text key:
// profile, fidelity, check mode and the (normalized) fault spec. Knobs the
// determinism contract proves observational — sim_threads (bit-identical
// merging at any thread count), prof/advise modes and output paths — are
// deliberately excluded, which is what lets the serve layer's result cache
// declare a job run at VGPU_THREADS=1 and VGPU_THREADS=8 the same content.

#include <optional>
#include <string>

#include "advise/advise.hpp"
#include "prof/prof.hpp"
#include "san/check.hpp"
#include "sim/device.hpp"
#include "sim/fidelity.hpp"

namespace vgpu {

struct RuntimeOptions {
  DeviceProfile profile = DeviceProfile::v100();
  /// Host worker threads for the block loop; 0 = hardware concurrency
  /// (clamped to [1, 256] either way). Observational: results are
  /// bit-identical at any value.
  int sim_threads = 0;
  Fidelity fidelity = Fidelity::kExact;
  CheckMode check = CheckMode::kOff;
  ProfMode prof = ProfMode::kOff;
  AdviseMode advise = AdviseMode::kOff;
  /// vgpu-fault injection spec (fault/inject.hpp grammar); "" = none.
  std::string fault_spec;
  /// Device count for a multi-GPU DeviceSet (VGPU_DEVICES). A Runtime
  /// ignores this — only src/multi consumes it. Clamped to [1, 64].
  int devices = 1;
  /// Interconnect spec for a DeviceSet (VGPU_TOPOLOGY, multi/topology.hpp
  /// grammar: "pcie:4" / "nvlink:4,bw=50,lat=1" / "mesh:2"); "" lets the
  /// DeviceSet default to a PCIe switch over `devices` devices.
  std::string topology;
  /// chrome://tracing JSON sink (VGPU_TRACE_OUT); "" = no file write.
  std::string trace_path;
  /// vgpu-advise JSON report sink (VGPU_ADVISE_OUT); "" = no file write.
  std::string advise_json_path;
  /// Serve retry policy spec (VGPU_RETRY, serve/retry.hpp grammar:
  /// "attempts=3,backoff=50,multiplier=2,evict=2"); "" = server default. A
  /// Runtime ignores this — only the serve layer's retry engine consumes
  /// it. Serving policy, not simulation content: deliberately excluded from
  /// canonical(), so a retried job's cache key (and blob) is identical to
  /// an unretried one.
  std::string retry_spec;
  /// Directory of the serve layer's crash-safe persistent result cache
  /// (VGPU_SERVE_CACHE_DIR); "" = in-memory only. Excluded from canonical()
  /// for the same reason as retry_spec.
  std::string serve_cache_dir;

  /// The compiled-in defaults, ignoring the environment entirely.
  static RuntimeOptions defaults(DeviceProfile p = DeviceProfile::v100());

  /// Defaults overlaid with the VGPU_* environment variables. The single
  /// environment-reading choke point of the library. Parse errors behave as the old
  /// per-subsystem readers did: VGPU_FIDELITY falls back to exact,
  /// VGPU_CHECK / VGPU_PROF / VGPU_ADVISE throw std::invalid_argument on a
  /// typo (silently disabling a checker would defeat its point), and
  /// VGPU_THREADS ignores non-positive or unparseable values.
  static RuntimeOptions from_env(DeviceProfile p = DeviceProfile::v100());

  /// Stable text form of the result-affecting knobs (see file comment):
  /// "profile{...};fidelity=...;check=...;fault=...;devices=...;topo=..."
  /// with the fault and topology specs normalized through their parsers.
  /// Two options values with equal canonical() produce bit-identical
  /// simulations of the same workload. Throws std::invalid_argument on a
  /// malformed fault or topology spec.
  std::string canonical() const;
};

/// Render a CheckMode as the comma-joined VGPU_CHECK spelling parse_check_mode
/// accepts ("off", "memcheck,racecheck", "full,escalate", ...).
std::string check_mode_name(CheckMode m);

/// Install / clear the process-wide ambient override consumed by the legacy
/// Runtime(DeviceProfile) constructor. Thread-safe; the profile field of the
/// installed value is ignored (each construction keeps its own profile).
void set_ambient_options(RuntimeOptions opts);
void clear_ambient_options();

/// What a legacy construction with `p` resolves to: the installed ambient
/// override (with `p` substituted as the profile) if one is installed, else
/// RuntimeOptions::from_env(p).
RuntimeOptions ambient_options(DeviceProfile p = DeviceProfile::v100());

}  // namespace vgpu
