#include "rt/options.hpp"

#include <cstdlib>
#include <mutex>
#include <sstream>
#include <utility>

#include "fault/inject.hpp"
#include "multi/topology.hpp"

namespace vgpu {

namespace {

std::mutex ambient_mu;
std::optional<RuntimeOptions>& ambient_slot() {
  static std::optional<RuntimeOptions> slot;
  return slot;
}

int parse_thread_count(const char* s) {
  char* end = nullptr;
  long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || v <= 0) return 0;
  return static_cast<int>(v > 256 ? 256 : v);
}

int parse_device_count(const char* s) {
  char* end = nullptr;
  long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || v <= 0) return 1;
  return static_cast<int>(v > 64 ? 64 : v);
}

}  // namespace

RuntimeOptions RuntimeOptions::defaults(DeviceProfile p) {
  RuntimeOptions o;
  o.profile = std::move(p);
  return o;
}

RuntimeOptions RuntimeOptions::from_env(DeviceProfile p) {
  RuntimeOptions o = defaults(std::move(p));
  if (const char* v = std::getenv("VGPU_THREADS")) o.sim_threads = parse_thread_count(v);
  if (const char* v = std::getenv("VGPU_FIDELITY")) {
    if (*v != '\0') {
      try {
        o.fidelity = fidelity_from_string(v);
      } catch (const std::invalid_argument&) {
        o.fidelity = Fidelity::kExact;  // Env knobs never throw at static init.
      }
    }
  }
  if (const char* v = std::getenv("VGPU_CHECK")) {
    if (*v != '\0') o.check = parse_check_mode(v);
  }
  if (const char* v = std::getenv("VGPU_PROF")) {
    if (*v != '\0') o.prof = parse_prof_mode(v);
  }
  if (const char* v = std::getenv("VGPU_ADVISE")) {
    if (*v != '\0') o.advise = parse_advise_mode(v);
  }
  if (const char* v = std::getenv("VGPU_FAULT")) o.fault_spec = v;
  if (const char* v = std::getenv("VGPU_DEVICES")) o.devices = parse_device_count(v);
  if (const char* v = std::getenv("VGPU_TOPOLOGY")) o.topology = v;
  if (const char* v = std::getenv("VGPU_TRACE_OUT")) o.trace_path = v;
  if (const char* v = std::getenv("VGPU_ADVISE_OUT")) o.advise_json_path = v;
  if (const char* v = std::getenv("VGPU_RETRY")) o.retry_spec = v;
  if (const char* v = std::getenv("VGPU_SERVE_CACHE_DIR")) o.serve_cache_dir = v;
  return o;
}

std::string check_mode_name(CheckMode m) {
  if (m == CheckMode::kOff) return "off";
  std::string out;
  auto append = [&out](const char* tok) {
    if (!out.empty()) out += ',';
    out += tok;
  };
  if (check_has(m, CheckMode::kMemcheck) && check_has(m, CheckMode::kRacecheck) &&
      check_has(m, CheckMode::kSynccheck)) {
    append("full");
  } else {
    if (check_has(m, CheckMode::kMemcheck)) append("memcheck");
    if (check_has(m, CheckMode::kRacecheck)) append("racecheck");
    if (check_has(m, CheckMode::kSynccheck)) append("synccheck");
  }
  if (check_has(m, CheckMode::kEscalate)) append("escalate");
  return out;
}

std::string RuntimeOptions::canonical() const {
  // Every architectural constant of the profile participates: a profile
  // tweaked in place (tests shrink sm_count, benches scale clocks) must not
  // collide with the preset sharing its name.
  std::ostringstream os;
  os.precision(17);
  const DeviceProfile& p = profile;
  os << "profile{" << p.name << ';' << p.sm_count << ';' << p.clock_ghz << ';'
     << p.warp_schedulers << ';' << p.max_threads_per_sm << ';'
     << p.max_blocks_per_sm << ';' << p.shared_mem_per_sm << ';'
     << p.shared_mem_per_block << ';' << p.latency_hiding << ';'
     << p.roofline_interference << ';' << p.l1_enabled_for_global << ';'
     << p.l1_size << ';' << p.l1_assoc << ';' << p.l2_size << ';' << p.l2_assoc
     << ';' << p.tex_cache_size << ';' << p.tex_assoc << ';' << p.tex_bw_factor
     << ';' << p.l1_latency << ';' << p.l2_latency << ';' << p.dram_latency
     << ';' << p.smem_latency << ';' << p.const_latency << ';'
     << p.barrier_latency << ';' << p.dram_bw_gbps << ';' << p.gmem_bytes << ';'
     << p.pcie_bw_gbps << ';' << p.pcie_latency_us << ';' << p.pageable_bw_factor
     << ';' << p.kernel_launch_us << ';' << p.device_launch_us << ';'
     << p.stream_op_us << ';' << p.graph_launch_us << ';' << p.graph_per_node_us
     << ';' << p.um_page_bytes << ';' << p.um_fault_us << ';'
     << p.um_host_fault_us << ';' << p.um_migrate_bw_gbps << ';'
     << p.supports_dynamic_parallelism << ';' << p.supports_memcpy_async << ';'
     << p.supports_graphs << ';' << p.supports_concurrent_kernels << '}';
  os << ";fidelity=" << fidelity_name(fidelity);
  os << ";check=" << check_mode_name(check);
  // Normalize the fault spec so equivalent spellings ("oom:nth=2" with
  // defaulted fields, reordered clauses) key identically.
  os << ";fault=";
  if (!fault_spec.empty()) os << FaultInjector::parse(fault_spec).to_string();
  // Multi-GPU shape. Normalized like the fault spec so equivalent topology
  // spellings ("nvlink:4" vs "nvlink:4,bw=50,lat=1") key identically.
  os << ";devices=" << devices << ";topo=";
  if (!topology.empty()) os << Topology::parse(topology).to_string();
  return os.str();
}

void set_ambient_options(RuntimeOptions opts) {
  std::lock_guard<std::mutex> lock(ambient_mu);
  ambient_slot() = std::move(opts);
}

void clear_ambient_options() {
  std::lock_guard<std::mutex> lock(ambient_mu);
  ambient_slot().reset();
}

RuntimeOptions ambient_options(DeviceProfile p) {
  {
    std::lock_guard<std::mutex> lock(ambient_mu);
    if (ambient_slot().has_value()) {
      RuntimeOptions o = *ambient_slot();
      o.profile = std::move(p);
      return o;
    }
  }
  return RuntimeOptions::from_env(std::move(p));
}

}  // namespace vgpu
