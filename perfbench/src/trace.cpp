#include "trace.hpp"

#include <cstdio>
#include <fstream>

#include "bench.hpp"

namespace perfbench {

std::int64_t Tracer::Begin(const std::string& name, std::uint64_t request) {
  SpanRecord span;
  span.name = name;
  span.request = request;
  span.parent = open_.empty() ? -1 : open_.back();
  const auto handle = static_cast<std::int64_t>(spans_.size());
  spans_.push_back(std::move(span));
  open_.push_back(handle);
  spans_.back().start = Now();
  return handle;
}

void Tracer::End(std::int64_t handle) {
  spans_[static_cast<std::size_t>(handle)].end = Now();
  if (!open_.empty() && open_.back() == handle) open_.pop_back();
}

std::map<std::string, Tracer::SelfTime> Tracer::SelfTimes() const {
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) child_time[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  }
  std::map<std::string, std::vector<double>> by_name;
  for (std::size_t k = 0; k < spans_.size(); ++k) {
    by_name[spans_[k].name].push_back(spans_[k].end - spans_[k].start - child_time[k]);
  }
  std::map<std::string, SelfTime> out;
  for (auto& [name, values] : by_name) {
    out[name] = SelfTime{Median(values), values.size()};
  }
  return out;
}

void Tracer::Write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  char line[400];
  for (std::size_t k = 0; k < spans_.size(); ++k) {
    const SpanRecord& s = spans_[k];
    std::snprintf(line, sizeof line,
                  "{\"id\": %zu, \"name\": \"%s\", \"request\": %llu, "
                  "\"parent\": %lld, \"start_s\": %.9f, \"end_s\": %.9f}\n",
                  k, s.name.c_str(), static_cast<unsigned long long>(s.request),
                  static_cast<long long>(s.parent), s.start, s.end);
    out << line;
  }
}

}  // namespace perfbench
