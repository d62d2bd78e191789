#include "trace.hpp"

#include <fstream>

#include "grade/json.hpp"

namespace perfbench {

Tracer::Scope::Scope(Tracer* t, std::string name, std::string item) : t_(t) {
  if (t_ == nullptr) return;
  Span s;
  s.name = std::move(name);
  s.item = std::move(item);
  s.start_ms = ms_between(t_->origin_, Clock::now());
  s.parent = t_->open_.empty() ? -1 : t_->open_.back();
  index_ = static_cast<int>(t_->spans_.size());
  t_->spans_.push_back(std::move(s));
  t_->open_.push_back(index_);
}

double Tracer::Scope::close() {
  if (t_ == nullptr || index_ < 0) return 0;
  Span& s = t_->spans_[index_];
  s.end_ms = ms_between(t_->origin_, Clock::now());
  // Scopes are lexically nested, so the closing span is the innermost one.
  t_->open_.pop_back();
  index_ = -1;
  return s.ms();
}

void Tracer::Scope::add_sim_ms(double ms) {
  if (t_ != nullptr && index_ >= 0) t_->spans_[index_].sim_ms += ms;
}

std::map<std::string, double> Tracer::self_ms_by_layer(const std::string& root) const {
  // Spans are recorded in start order and parents open before children, so
  // one forward pass decides which spans lie under a matching root.
  std::vector<char> inside(spans_.size(), 0);
  std::vector<double> child_ms(spans_.size(), 0);
  int roots = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    inside[i] = s.parent < 0 ? s.name == root : inside[s.parent];
    if (s.parent < 0 && inside[i]) ++roots;
    if (s.parent >= 0) child_ms[s.parent] += s.ms();
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (!inside[i]) continue;
    const Span& s = spans_[i];
    self[s.layer()] += (s.ms() - child_ms[i] - s.sim_ms) / roots;
    if (s.sim_ms > 0) self["sim"] += s.sim_ms / roots;
  }
  return self;
}

bool Tracer::write_chrome(const std::string& path) const {
  using vgpu::grade::json_escape;
  using vgpu::grade::json_number;
  std::ofstream out(path, std::ios::trunc);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << json_escape(s.name)
        << "\",\"cat\":\"" << json_escape(s.layer())
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << json_number(s.start_ms * 1e3)
        << ",\"dur\":" << json_number(s.ms() * 1e3) << ",\"args\":{\"id\":" << i
        << ",\"parent\":" << s.parent << ",\"item\":\"" << json_escape(s.item)
        << "\",\"sim_ms\":" << json_number(s.sim_ms) << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
