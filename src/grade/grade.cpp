#include "grade/grade.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <optional>
#include <sstream>
#include <vector>

#include "fault/error.hpp"
#include "grade/json.hpp"
#include "rt/runtime.hpp"

namespace vgpu::grade {

namespace {

/// Detach the observers before ~Runtime, which would otherwise flush their
/// reports to stdout in the middle of the caller's JSON output.
struct ObserverGuard {
  Runtime& rt;
  ~ObserverGuard() {
    rt.set_prof_mode(ProfMode::kOff);
    rt.set_advise_mode(AdviseMode::kOff);
  }
};

Verdict error_verdict(Verdict v, std::string stage, std::string code,
                      std::string message) {
  v.status = "error";
  v.pass = false;
  v.error_stage = std::move(stage);
  v.error_code = std::move(code);
  v.error_message = std::move(message);
  return v;
}

Verdict cuda_error_verdict(Verdict v, std::string stage, ErrorCode e) {
  return error_verdict(std::move(v), std::move(stage), error_name(e),
                       error_string(e));
}

/// Run a hook, translating any exception into an error verdict.
template <typename Fn>
bool guarded(Fn&& fn, std::string* message) {
  try {
    fn();
    return true;
  } catch (const std::exception& e) {
    *message = e.what();
  } catch (...) {
    *message = "unknown exception";
  }
  return false;
}

bool within(double measured, double base, double margin) {
  if (base <= 0) return measured <= 0;
  return measured <= margin * base;
}

}  // namespace

Verdict run_grade(const TaskRegistry& tasks, const PluginRegistry& plugins,
                  std::string_view task_id, std::string_view submission,
                  const GradeOptions& opts) {
  Verdict v;
  v.task = task_id;
  v.submission = submission;
  // One options value for the graded Runtime: the ambient defaults, this
  // grade's overrides, and the observer modes every verdict needs.
  RuntimeOptions o = ambient_options();
  if (opts.threads > 0) o.sim_threads = opts.threads;
  if (opts.fidelity) o.fidelity = *opts.fidelity;
  if (!opts.fault_spec.empty()) o.fault_spec = opts.fault_spec;
  o.check = CheckMode::kFull;
  o.prof = ProfMode::kMetrics;
  o.advise = AdviseMode::kFull;
  v.fidelity = fidelity_name(o.fidelity);

  const TaskSpec* spec = tasks.find(task_id);
  if (!spec)
    return error_verdict(std::move(v), "spec", "",
                         "unknown task: " + std::string(task_id));
  v.device = spec->profile_name;
  v.tolerance = spec->tolerance;
  v.gating_rules = spec->gating_rules;
  v.margins = spec->margins;

  const PluginEntry* entry = plugins.find(submission);
  if (!entry)
    return error_verdict(std::move(v), "spec", "",
                         "unknown submission: " + std::string(submission));
  if (entry->task != spec->id)
    return error_verdict(std::move(v), "spec", "",
                         "submission " + entry->name + " targets task " +
                             entry->task + ", not " + spec->id);

  std::string msg;
  TaskData data;
  if (!guarded([&] { data = spec->make_inputs(); }, &msg))
    return error_verdict(std::move(v), "inputs", "", msg);
  std::vector<double> ref;
  if (!guarded([&] { ref = spec->reference(data); }, &msg))
    return error_verdict(std::move(v), "reference", "", msg);

  // A malformed option (a bad fault spec, say) is an error verdict, not an
  // exception out of run_grade.
  std::optional<Runtime> rt_slot;
  if (!guarded([&] {
        o.profile = spec->profile();
        rt_slot.emplace(o);
      }, &msg))
    return error_verdict(std::move(v), "spec", "", msg);
  Runtime& rt = *rt_slot;
  ObserverGuard guard{rt};

  std::unique_ptr<KernelPlugin> plugin;
  if (!guarded([&] { plugin = entry->make(); }, &msg) || !plugin)
    return error_verdict(std::move(v), "spec", "",
                         msg.empty() ? "plugin factory returned null" : msg);

  GradeContext ctx{rt, *spec, data};

  // Stage: setup (allocations + input staging, untimed for the perf bar).
  rt.advise_phase("grade.setup");
  if (!guarded([&] { plugin->setup(ctx); }, &msg))
    return error_verdict(std::move(v), "setup", "", msg);
  ErrorCode setup_sync = rt.synchronize();
  if (setup_sync != ErrorCode::kSuccess)
    return cuda_error_verdict(std::move(v), "setup", setup_sync);
  ErrorCode setup_err = rt.get_last_error();
  if (setup_err != ErrorCode::kSuccess)
    return cuda_error_verdict(std::move(v), "setup", setup_err);

  // Stage: launch — the graded region.
  std::size_t rec0 = rt.profiler()->records().size();
  rt.advise_phase("grade.submission");
  double t0 = rt.now_us();
  if (!guarded([&] { plugin->launch(ctx); }, &msg))
    return error_verdict(std::move(v), "launch", "", msg);
  ErrorCode sync = rt.synchronize();
  double t1 = rt.now_us();
  std::size_t rec1 = rt.profiler()->records().size();
  ErrorCode last = rt.get_last_error();

  // Stage: verify (readback; outside the graded region).
  rt.advise_phase("grade.verify");
  std::vector<double> out;
  if (!guarded([&] { out = plugin->verify(ctx); }, &msg))
    return error_verdict(std::move(v), "verify", "", msg);

  // Gate: functional.
  v.expected_values = ref.size();
  v.returned_values = out.size();
  double max_err = 0;
  bool finite = true;
  if (out.size() == ref.size()) {
    for (std::size_t i = 0; i < ref.size(); ++i) {
      double err = std::fabs(out[i] - ref[i]);
      if (std::isnan(err))
        finite = false;
      else if (err > max_err)
        max_err = err;
    }
  }
  v.max_error = finite ? max_err : std::nan("");
  v.functional_pass =
      out.size() == ref.size() && finite && max_err <= spec->tolerance;

  // Gate: CUDA error discipline over the graded region.
  v.sync_error = error_name(sync);
  v.last_error = error_name(last);
  v.errors_pass = sync == ErrorCode::kSuccess && last == ErrorCode::kSuccess;

  // Gate: vgpu-san (accumulated over every launch of the run).
  v.san = rt.check_report();
  v.san_pass = v.san.clean();

  // Gate: vgpu-advise, scoped to the submission phase.
  v.advise_pass = true;
  for (const Advice& a : rt.advisor()->analyze("grade.submission")) {
    bool gating = false;
    for (const std::string& r : spec->gating_rules)
      if (r == a.rule) gating = true;
    if (gating) v.advise_pass = false;
    v.fired.push_back(FiredRule{a, gating});
  }

  // Measurements + evidence from the graded region's activity records.
  const std::vector<ActivityRecord>& recs = rt.profiler()->records();
  std::vector<ActivityRecord> sub(recs.begin() + rec0, recs.begin() + rec1);
  double cycles_per_us = rt.profile().cycles_per_us();
  for (const ActivityRecord& r : sub) {
    if (r.kind == ActivityRecord::Kind::kKernel) {
      v.measured.kernel_cycles += r.duration_us() * cycles_per_us;
      v.measured.dram_bytes += static_cast<double>(
          r.stats.dram_read_bytes + r.stats.dram_write_bytes +
          r.stats.tex_dram_bytes + r.stats.um_migrated_bytes);
    } else if (r.kind != ActivityRecord::Kind::kEventRecord) {
      v.measured.xfer_bytes += r.bytes;
    }
  }
  v.measured.sim_time_us = t1 - t0;
  for (const KernelAggregate& ka : aggregate_kernel_records(sub))
    v.metrics.push_back(
        KernelMetricsEntry{ka.record.name, ka.calls, derived_metrics(ka.record)});

  // Gate: perf bar vs the committed baseline.
  if (opts.skip_perf) {
    v.perf_gated = false;
    v.perf_pass = true;
  } else {
    const PerfBaseline* base = nullptr;
    if (opts.baselines) {
      auto it = opts.baselines->find(spec->id);
      if (it != opts.baselines->end()) base = &it->second;
    }
    v.have_baseline = base != nullptr;
    if (base) {
      v.baseline = *base;
      double bytes_base = base->dram_bytes + base->xfer_bytes;
      double bytes_meas = v.measured.dram_bytes + v.measured.xfer_bytes;
      v.perf_pass =
          within(v.measured.kernel_cycles, base->kernel_cycles,
                 spec->margins.cycles) &&
          within(bytes_meas, bytes_base, spec->margins.bytes) &&
          within(v.measured.sim_time_us, base->sim_time_us, spec->margins.time);
    } else {
      v.perf_pass = false;  // No committed bar to clear: not gradable as pass.
    }
  }

  v.pass = v.functional_pass && v.errors_pass && v.san_pass && v.advise_pass &&
           v.perf_pass;
  return v;
}

std::map<std::string, PerfBaseline> load_baselines(const std::string& path) {
  std::map<std::string, PerfBaseline> out;
  std::ifstream in(path);
  if (!in) return out;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos || line[start] == '#') continue;
    std::istringstream fields(line);
    std::string task;
    std::string nums[4];
    if (!(fields >> task >> nums[0] >> nums[1] >> nums[2] >> nums[3]))
      throw std::runtime_error(path + ":" + std::to_string(lineno) +
                               ": malformed baseline line");
    PerfBaseline b;
    double* dst[4] = {&b.kernel_cycles, &b.dram_bytes, &b.xfer_bytes,
                      &b.sim_time_us};
    for (int i = 0; i < 4; ++i) {
      const char* first = nums[i].data();
      const char* last = first + nums[i].size();
      auto [p, ec] = std::from_chars(first, last, *dst[i]);
      if (ec != std::errc{} || p != last)
        throw std::runtime_error(path + ":" + std::to_string(lineno) +
                                 ": bad number: " + nums[i]);
    }
    out[task] = b;
  }
  return out;
}

bool save_baselines(const std::string& path,
                    const std::map<std::string, PerfBaseline>& baselines) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "# vgpu-grade committed perf baselines (VGPU_FIDELITY=exact).\n"
      << "# <task> <kernel_cycles> <dram_bytes> <xfer_bytes> <sim_time_us>\n"
      << "# Regenerate with: vgpu-grade --update-baselines\n";
  for (const auto& [task, b] : baselines)
    out << task << ' ' << json_number(b.kernel_cycles) << ' '
        << json_number(b.dram_bytes) << ' ' << json_number(b.xfer_bytes) << ' '
        << json_number(b.sim_time_us) << '\n';
  return static_cast<bool>(out);
}

}  // namespace vgpu::grade
