// Shared types of the benchmark harness: run arguments, the result that
// becomes the last stdout line, timing and percentile helpers, and the
// seeded input generator every workload draws its scenarios from.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "testing/corpus.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds on the steady clock since the harness started.
double Now();

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string cli;        ///< fadesched_cli binary
  std::string work_dir;   ///< sockets and server logs
  std::string trace_out;  ///< span file written by a traced run
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  ///< checker findings (printed to stderr)

  void Add(const std::string& name, const std::string& unit, double value) {
    metrics.push_back({name, unit, value});
  }
  /// Records a correctness finding; an empty message means "passed".
  void Expect(const std::string& problem) {
    if (problem.empty()) return;
    correct = false;
    if (problems.size() < 20) problems.push_back(problem);
  }
};

/// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// The tail percentile a sample supports: p99 when at least ten samples
/// lie beyond it, otherwise the highest percentile that has ten beyond;
/// the median below forty samples. Stores the percentile used in *used.
double TailLatency(const std::vector<double>& values, double* used);

/// One workload input: a scenario in the paper's §V layout (senders
/// uniform in a 500×500 square, receivers 5..20 away, every λ = 1,
/// noise-free), pure in (seed, stream, index).
fadesched::testing::ScenarioCase MakeScenario(std::size_t num_links, std::uint64_t seed,
                      std::uint64_t stream, std::uint64_t index);

/// VmHWM of a process in MiB (0 when the process is gone).
double PeakRssMb(int pid);

}  // namespace perfbench
