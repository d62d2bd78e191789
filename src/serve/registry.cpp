#include "serve/registry.hpp"

#include <climits>
#include <stdexcept>

#include "core/catalog.hpp"
#include "fault/inject.hpp"
#include "grade/json.hpp"
#include "grade/verdict.hpp"
#include "rt/runtime.hpp"

namespace vgpu::serve {

namespace {

std::string hex64(std::uint64_t h) {
  static const char* hex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = hex[h & 0xf];
    h >>= 4;
  }
  return out;
}

/// Render a naive/optimized pair as the bench blob. Field order is the
/// schema; values are shortest-round-trip (grade/json.hpp) so the blob is
/// byte-identical whenever the simulation is bit-identical.
std::string pair_blob(std::string_view kernel, long long n,
                      const cumb::PairResult& r) {
  grade::JsonWriter w;
  w.begin_object();
  w.kv("kernel", kernel);
  w.kv("n", static_cast<std::int64_t>(n));
  w.kv("naive_us", r.naive_us);
  w.kv("optimized_us", r.optimized_us);
  w.kv("speedup", r.speedup());
  w.kv("verified", r.results_match);
  w.kv("max_error", r.max_error);
  w.end_object();
  return w.str();
}

/// The multi-GPU blob: same shape plus scale-out observables. The checksum
/// is the ports layer's FNV over the optimized result bytes, rendered as 16
/// hex digits — the cross-run determinism probe.
std::string multi_blob(std::string_view kernel, long long n,
                       const cumb::MultiPairResult& r) {
  grade::JsonWriter w;
  w.begin_object();
  w.kv("kernel", kernel);
  w.kv("n", static_cast<std::int64_t>(n));
  w.kv("devices", static_cast<std::int64_t>(r.devices));
  w.kv("naive_us", r.naive_us);
  w.kv("optimized_us", r.optimized_us);
  w.kv("speedup", r.speedup());
  w.kv("verified", r.results_match());
  w.kv("checksum", hex64(r.checksum));
  w.kv("naive_transfers", static_cast<std::int64_t>(r.naive_transfers));
  w.kv("optimized_transfers", static_cast<std::int64_t>(r.optimized_transfers));
  w.end_object();
  return w.str();
}

}  // namespace

KernelRegistry KernelRegistry::builtin() {
  KernelRegistry reg;
  // Bench default sizes are the catalog smoke shapes.
  for (const cumb::PairDef& p : cumb::catalog())
    reg.bench_[std::string("bench:") + p.id] = &p;

  // Multi-GPU scaling pairs. The device count comes from the job's
  // RuntimeOptions (devices/topology), so one kernel id covers every
  // scale-out shape; default sizes are the multi_test smoke shapes.
  reg.multi_["multi:halo"] = MultiEntry{
      1 << 12, [](const RuntimeOptions& opts, int n) {
        return cumb::run_halo_exchange(opts, opts.devices, n, /*steps=*/4);
      }};
  reg.multi_["multi:histogram"] = MultiEntry{
      1 << 14, [](const RuntimeOptions& opts, int n) {
        return cumb::run_sharded_histogram(opts, opts.devices, n, /*bins=*/64,
                                           /*skew=*/0.25);
      }};
  reg.multi_["multi:matmul"] = MultiEntry{
      64, [](const RuntimeOptions& opts, int n) {
        return cumb::run_pipelined_matmul(opts, opts.devices, n, n, n);
      }};
  return reg;
}

void KernelRegistry::attach_grade(
    const grade::TaskRegistry* tasks, const grade::PluginRegistry* plugins,
    const std::map<std::string, grade::PerfBaseline>* baselines) {
  grade_tasks_ = tasks;
  grade_plugins_ = plugins;
  grade_baselines_ = baselines;
}

std::vector<std::string> KernelRegistry::ids() const {
  std::vector<std::string> out;
  for (const auto& [id, entry] : bench_) out.push_back(id);
  if (grade_tasks_ != nullptr && grade_plugins_ != nullptr) {
    // Every (task, submission) pair the plugin registry can actually grade.
    for (const std::string& name : grade_plugins_->names()) {
      const grade::PluginEntry* e = grade_plugins_->find(name);
      out.push_back("grade:" + e->task + "/" + e->name);
    }
  }
  for (const auto& [id, entry] : multi_) out.push_back(id);
  return out;
}

bool KernelRegistry::known(std::string_view kernel) const {
  if (bench_.count(std::string(kernel)) != 0) return true;
  if (multi_.count(std::string(kernel)) != 0) return true;
  if (kernel.rfind("grade:", 0) == 0 && grade_tasks_ != nullptr &&
      grade_plugins_ != nullptr) {
    std::string_view rest = kernel.substr(6);
    std::size_t slash = rest.find('/');
    if (slash == std::string_view::npos) return false;
    const grade::PluginEntry* e = grade_plugins_->find(rest.substr(slash + 1));
    return e != nullptr && e->task == rest.substr(0, slash) &&
           grade_tasks_->find(e->task) != nullptr;
  }
  return false;
}

KernelKind KernelRegistry::kind(std::string_view kernel) const {
  if (bench_.count(std::string(kernel)) != 0) return KernelKind::kBench;
  if (multi_.count(std::string(kernel)) != 0) return KernelKind::kMulti;
  if (known(kernel)) return KernelKind::kGrade;
  throw std::invalid_argument("vgpu-serve: unknown kernel: " +
                              std::string(kernel));
}

long long KernelRegistry::default_size(std::string_view kernel) const {
  auto it = bench_.find(std::string(kernel));
  if (it != bench_.end()) return it->second->smoke_n;
  auto mit = multi_.find(std::string(kernel));
  if (mit != multi_.end()) return mit->second.default_n;
  if (known(kernel)) return 0;  // grade: the task spec owns its inputs.
  throw std::invalid_argument("vgpu-serve: unknown kernel: " +
                              std::string(kernel));
}

long long KernelRegistry::resolve_size(std::string_view kernel,
                                       long long n) const {
  KernelKind k = kind(kernel);  // Throws for unknown kernels.
  long long size = n > 0 ? n : default_size(kernel);
  if (size > INT_MAX && k != KernelKind::kGrade)
    throw std::invalid_argument("vgpu-serve: size n=" + std::to_string(size) +
                                " of " + std::string(kernel) +
                                " does not fit an int");
  return size;
}

std::string KernelRegistry::run(std::string_view kernel, long long n,
                                const RuntimeOptions& opts) const {
  return run(kernel, n, opts, ExecHooks{});
}

std::string KernelRegistry::run(std::string_view kernel, long long n,
                                const RuntimeOptions& opts,
                                const ExecHooks& hooks) const {
  auto it = bench_.find(std::string(kernel));
  auto mit = multi_.find(std::string(kernel));
  if (it == bench_.end() && mit == multi_.end()) {
    if (!known(kernel))
      throw std::invalid_argument("vgpu-serve: unknown kernel: " +
                                  std::string(kernel));
    std::string_view rest = kernel.substr(6);
    std::size_t slash = rest.find('/');
    grade::GradeOptions gopts;
    gopts.threads = opts.sim_threads;
    gopts.fidelity = opts.fidelity;
    gopts.fault_spec = opts.fault_spec;
    gopts.baselines = grade_baselines_;
    grade::Verdict v =
        grade::run_grade(*grade_tasks_, *grade_plugins_, rest.substr(0, slash),
                         rest.substr(slash + 1), gopts);
    // Grade failures are structured verdicts in the blob, not retryable
    // execution faults: the outcome stays "success" so the retry engine
    // gives grade jobs exactly one attempt.
    if (hooks.outcome != nullptr) *hooks.outcome = RunOutcome{};
    return grade::to_json(v);
  }
  // The one narrowing of a job size: pairs take an int, and resolve_size
  // has thrown for sizes that do not fit one.
  long long size = resolve_size(kernel, n);
  int n32 = static_cast<int>(size);
  if (it != bench_.end()) {
    Runtime rt(opts);
    if (hooks.injector != nullptr) rt.adopt_fault_injector(hooks.injector);
    // Classify the attempt the way a careful CUDA host program would: peek
    // the last recorded error, then cudaDeviceSynchronize to surface any
    // deferred async error (a sticky launch failure parks on the stream
    // until the next sync — bench kernels themselves never sync, the
    // simulator runs their launches eagerly). Without the sync a killed
    // kernel whose output a later iteration overwrites would pass
    // verification with silently perturbed timings.
    auto classify = [&rt](ErrorCode fallback) {
      ErrorCode c = rt.peek_last_error();
      if (c == ErrorCode::kSuccess) c = rt.synchronize();
      return c == ErrorCode::kSuccess ? fallback : c;
    };
    try {
      cumb::PairResult r = it->second->run(rt, n32);
      if (hooks.outcome != nullptr) {
        hooks.outcome->verified = r.results_match;
        hooks.outcome->code = classify(ErrorCode::kSuccess);
        hooks.outcome->device_errors.clear();
      }
      return pair_blob(kernel, size, r);
    } catch (...) {
      // Fill the outcome before the exception leaves: the recorded device
      // error classifies the failure (sticky vs transient) for retries.
      if (hooks.outcome != nullptr) {
        hooks.outcome->verified = false;
        hooks.outcome->code = classify(ErrorCode::kUnknown);
        hooks.outcome->device_errors.clear();
      }
      throw;
    }
  }
  try {
    cumb::MultiPairResult r = mit->second.fn(opts, n32);
    if (hooks.outcome != nullptr) {
      hooks.outcome->verified = r.results_match();
      hooks.outcome->device_errors = r.device_errors;
      ErrorCode c = ErrorCode::kSuccess;
      for (int e : r.device_errors)
        if (e != 0) {
          c = static_cast<ErrorCode>(e);
          break;
        }
      hooks.outcome->code = c;
    }
    return multi_blob(kernel, size, r);
  } catch (...) {
    if (hooks.outcome != nullptr) {
      hooks.outcome->verified = false;
      hooks.outcome->code = ErrorCode::kUnknown;
      hooks.outcome->device_errors.clear();
    }
    throw;
  }
}

std::string fnv1a64_hex(std::string_view s) {
  std::uint64_t h = 14695981039346656037ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return hex64(h);
}

}  // namespace vgpu::serve
