#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "net/scenario.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xoshiro256.hpp"

namespace perfbench {

double Now() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t k = std::min(values.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(k),
                   values.end());
  return values[k];
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

double TailLatency(const std::vector<double>& values, double* used) {
  const std::size_t n = values.size();
  if (n < 40) {
    if (used != nullptr) *used = 0.5;
    return Median(values);
  }
  // 1-based nearest rank of p99, pulled down until ten samples lie beyond.
  const auto p99 = static_cast<std::size_t>(std::ceil(0.99 * static_cast<double>(n)));
  const std::size_t rank = std::min(p99, n - 10);
  if (used != nullptr) *used = static_cast<double>(rank) / static_cast<double>(n);
  std::vector<double> sorted = values;
  std::nth_element(sorted.begin(), sorted.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   sorted.end());
  return sorted[rank - 1];
}

fadesched::testing::ScenarioCase MakeScenario(std::size_t num_links, std::uint64_t seed,
                                              std::uint64_t stream, std::uint64_t index) {
  fadesched::rng::SplitMix64 mix(seed * 0x9e3779b97f4a7c15ull ^ (stream << 40) ^ index);
  fadesched::rng::Xoshiro256 gen(mix.Next());
  fadesched::testing::ScenarioCase scenario;
  scenario.links = fadesched::net::MakeUniformScenario(
      num_links, fadesched::net::UniformScenarioParams{}, gen);
  scenario.description = "perfbench seed=" + std::to_string(seed) + " stream=" +
                         std::to_string(stream) + " index=" + std::to_string(index);
  return scenario;
}

double PeakRssMb(int pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

}  // namespace perfbench
