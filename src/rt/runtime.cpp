#include "rt/runtime.hpp"

#include <algorithm>
#include <iostream>
#include <mutex>
#include <vector>

namespace vgpu {

namespace {

// Registry of live Runtimes backing Runtime::sole_instance() — the implicit
// default the cuda_names shim uses when no runtime was bound explicitly.
std::mutex instances_mu;
std::vector<Runtime*>& instances() {
  static std::vector<Runtime*> v;
  return v;
}

}  // namespace

Runtime::Runtime(RuntimeOptions opts)
    : opts_(std::move(opts)), profile_(opts_.profile),
      gpu_(profile_, opts_.sim_threads, opts_.fidelity, opts_.check),
      tl_(profile_), managed_(profile_),
      fault_(FaultInjector::from_spec(opts_.fault_spec)) {
  gpu_.gmem().set_um_hook(&managed_);
  streams_.emplace_back(0);  // Default stream.
  if (opts_.prof != ProfMode::kOff) {
    prof_ = std::make_unique<Profiler>(opts_.prof);
    prof_->set_trace_path(opts_.trace_path);
    tl_.set_profiler(prof_.get());
  }
  if (opts_.advise != AdviseMode::kOff) {
    advise_ = std::make_unique<Advisor>(opts_.advise, profile_);
    advise_->set_json_path(opts_.advise_json_path);
    tl_.set_advisor(advise_.get());
  }
  std::lock_guard<std::mutex> lock(instances_mu);
  instances().push_back(this);
}

Runtime::Runtime(DeviceProfile profile)
    : Runtime(ambient_options(std::move(profile))) {}

Runtime::~Runtime() {
  {
    std::lock_guard<std::mutex> lock(instances_mu);
    auto& v = instances();
    v.erase(std::remove(v.begin(), v.end(), this), v.end());
  }
  if (prof_ != nullptr) prof_->flush(std::cout);
  if (advise_ != nullptr) advise_->flush(std::cout);
}

Runtime* Runtime::sole_instance() {
  std::lock_guard<std::mutex> lock(instances_mu);
  auto& v = instances();
  return v.size() == 1 ? v.front() : nullptr;
}

ErrorCode Runtime::set_sim_threads(int threads) {
  if (launched_) return refuse_mutation();
  gpu_.set_sim_threads(threads);
  opts_.sim_threads = threads;
  return ErrorCode::kSuccess;
}

ErrorCode Runtime::set_fidelity(Fidelity f) {
  if (launched_ && f != gpu_.fidelity()) return refuse_mutation();
  gpu_.set_fidelity(f);
  opts_.fidelity = f;
  return ErrorCode::kSuccess;
}

ErrorCode Runtime::set_check_mode(CheckMode m) {
  if (launched_ && m != CheckMode::kOff && m != gpu_.check_mode())
    return refuse_mutation();
  gpu_.set_check_mode(m);
  opts_.check = m;
  return ErrorCode::kSuccess;
}

ErrorCode Runtime::set_prof_mode(ProfMode m) {
  if (m == ProfMode::kOff) {
    tl_.set_profiler(nullptr);
    prof_.reset();
    opts_.prof = m;
    return ErrorCode::kSuccess;
  }
  if (launched_ && m != prof_mode()) return refuse_mutation();
  if (prof_ == nullptr) {
    prof_ = std::make_unique<Profiler>(m);
    prof_->set_trace_path(opts_.trace_path);
    tl_.set_profiler(prof_.get());
  } else {
    prof_->set_mode(m);
  }
  opts_.prof = m;
  return ErrorCode::kSuccess;
}

void Runtime::flush_prof(std::ostream& out) {
  if (prof_ != nullptr) prof_->flush(out);
}

ErrorCode Runtime::set_advise_mode(AdviseMode m) {
  if (m == AdviseMode::kOff) {
    tl_.set_advisor(nullptr);
    advise_.reset();
    opts_.advise = m;
    return ErrorCode::kSuccess;
  }
  if (launched_ && m != advise_mode()) return refuse_mutation();
  if (advise_ == nullptr) {
    advise_ = std::make_unique<Advisor>(m, profile_);
    advise_->set_json_path(opts_.advise_json_path);
    tl_.set_advisor(advise_.get());
  } else {
    advise_->set_mode(m);
  }
  opts_.advise = m;
  return ErrorCode::kSuccess;
}

void Runtime::flush_advise(std::ostream& out) {
  if (advise_ != nullptr) advise_->flush(out);
}

Stream& Runtime::create_stream() {
  streams_.emplace_back(next_stream_id_++);
  return streams_.back();
}

LaunchInfo Runtime::launch(Stream& s, const LaunchConfig& cfg, KernelFn fn) {
  launched_ = true;
  LaunchInfo info;
  if (!begin_op()) {
    info.error = errors_.call();
    return info;
  }
  if (fault_ != nullptr && fault_->armed(FaultSite::kLaunch) &&
      fault_->fire(FaultSite::kLaunch)) {
    if (fault_->transient(FaultSite::kLaunch)) {
      // Rejected at submission (cudaErrorLaunchOutOfResources): immediate,
      // non-sticky, and a later retry of the same launch can succeed.
      errors_.fail(ErrorCode::kLaunchOutOfResources);
      info.error = errors_.call();
      return info;
    }
    // Fatal flavor: the submission "succeeds" — the host pays the launch
    // overhead and moves on — but the kernel dies on the device. The sticky
    // cudaErrorLaunchFailure surfaces at the next sync point touching this
    // stream; nothing executes functionally.
    tl_.host_advance(profile_.kernel_launch_us);
    s.defer_error(ErrorCode::kLaunchFailure);
    return info;
  }
  std::uint64_t um_faults_before = managed_.total_device_faults();
  KernelRun run = gpu_.run_kernel(cfg, fn);
  Timeline::Span span = tl_.kernel(s, run, profile_.kernel_launch_us);
  // An injected um_migrate failure during this kernel's page migrations is a
  // device-side wild access: sticky illegal-address, deferred to sync.
  if (fault_ != nullptr && fault_->armed(FaultSite::kUmMigrate) &&
      managed_.total_device_faults() > um_faults_before &&
      fault_->fire(FaultSite::kUmMigrate)) {
    s.defer_error(ErrorCode::kIllegalAddress);
  }
  // VGPU_CHECK escalation: vgpu-san findings poison the context instead of
  // printing reports, surfacing at the next sync point like any async error.
  if (check_has(gpu_.check_mode(), CheckMode::kEscalate) && !run.check.clean())
    s.defer_error(ErrorCode::kIllegalAddress);
  return LaunchInfo{span, std::move(run.stats), std::move(run.check),
                    ErrorCode::kSuccess};
}

Event Runtime::record_event(Stream& s) {
  Event e;
  if (!begin_op()) return e;
  tl_.record_event(s, e);
  e.src = &s;
  return e;
}

ErrorCode Runtime::synchronize() {
  errors_.begin_call();
  if (errors_.poisoned() == ErrorCode::kSuccess) {
    for (Stream& s : streams_) surface(s);
    tl_.device_synchronize();
  }
  return errors_.call();
}

ErrorCode Runtime::stream_synchronize(Stream& s) {
  errors_.begin_call();
  if (errors_.poisoned() == ErrorCode::kSuccess) {
    surface(s);
    tl_.stream_synchronize(s);
  }
  return errors_.call();
}

ErrorCode Runtime::event_synchronize(const Event& e) {
  errors_.begin_call();
  if (errors_.poisoned() == ErrorCode::kSuccess) {
    if (e.src != nullptr) surface(*e.src);
    tl_.event_synchronize(e);
  }
  return errors_.call();
}

void Runtime::device_reset() {
  errors_.reset();
  for (Stream& s : streams_) (void)s.take_pending_error();
}

ErrorCode Runtime::set_fault_spec(std::string_view spec) {
  if (launched_ && !spec.empty()) return refuse_mutation();
  fault_ = FaultInjector::from_spec(spec);
  opts_.fault_spec = std::string(spec);
  return ErrorCode::kSuccess;
}

ErrorCode Runtime::adopt_fault_injector(std::shared_ptr<FaultInjector> inj) {
  if (launched_ && inj != nullptr) return refuse_mutation();
  fault_ = std::move(inj);
  return ErrorCode::kSuccess;
}

}  // namespace vgpu
