// In-memory span recorder for the traced run. Spans are recorded from the
// harness around its calls into each layer: name, start, end, parent and
// the request they belong to. Nothing is written until Write().
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  double start = 0.0;  ///< Now() seconds
  double end = 0.0;
  std::int64_t parent = -1;  ///< index into the span list, -1 = root
  std::uint64_t request = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Opens a span under the innermost open one; returns its handle.
  std::int64_t Begin(const std::string& name, std::uint64_t request);
  void End(std::int64_t handle);

  /// Median self time (duration minus the time its children cover) per
  /// span name, in seconds, with the sample count.
  struct SelfTime {
    double median_s = 0.0;
    std::size_t count = 0;
  };
  [[nodiscard]] std::map<std::string, SelfTime> SelfTimes() const;

  /// Writes one JSON object per span, one per line.
  void Write(const std::string& path) const;

  [[nodiscard]] bool Enabled() const { return enabled_; }

 private:
  bool enabled_;
  std::vector<SpanRecord> spans_;
  std::vector<std::int64_t> open_;
};

/// RAII span; a no-op when the tracer is disabled.
class Span {
 public:
  Span(Tracer& tracer, const std::string& name, std::uint64_t request)
      : tracer_(tracer),
        handle_(tracer.Enabled() ? tracer.Begin(name, request) : -1) {}
  ~Span() {
    if (handle_ >= 0) tracer_.End(handle_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  std::int64_t handle_;
};

}  // namespace perfbench
