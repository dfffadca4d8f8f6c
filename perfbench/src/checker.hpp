// Output checks written apart from the program: nothing here calls the
// library's feasibility, protocol or ledger code. Each check returns an
// empty string on success and a one-line finding otherwise.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The benchmark's own copy of a scenario: coordinates, rates and the
/// channel constants, taken from the inputs it generated.
struct Geometry {
  std::vector<double> sx, sy, rx, ry, rate;
  double alpha = 3.0;
  double gamma_th = 1.0;
  double epsilon = 0.01;
  double noise_power = 0.0;
  [[nodiscard]] std::size_t Size() const { return sx.size(); }
};

/// Corollary 3.1 recomputed from coordinates: for every scheduled j,
/// Σ_{i∈S, i≠j} ln(1 + γ_th (d_jj/d_ij)^α) ≤ ln(1/(1−ε)), accepting the
/// library's 1e-9 relative budget slack plus 16 ULP per summed factor.
/// Requires a noise-free scenario and uniform transmit power.
std::string CheckCorollary31(const Geometry& g,
                             const std::vector<std::size_t>& schedule);

/// A response line taken apart by the checker's own parser.
struct Reply {
  std::string id;
  double rate = 0.0;
  std::vector<std::size_t> schedule;
};

/// 64-bit FNV-1a, the wire checksum's hash.
std::uint64_t Fnv1a(const std::string& bytes);

/// Structural check of one response line against the request it answers:
/// status OK, a `sum=` that matches the line with its own token removed,
/// the echoed id, schedule ids distinct, ascending and in range, and
/// `rate=` equal to Σλ over them. With `fading_feasible` the schedule must
/// also pass CheckCorollary31.
std::string CheckReply(const std::string& line, const std::string& want_id,
                       const Geometry& g, bool fading_feasible,
                       Reply* out = nullptr);

/// One slot of a slotted run as the observer saw it.
struct SlotTally {
  std::uint64_t arrivals = 0;
  std::uint64_t scheduled = 0;
  std::uint64_t delivered = 0;
  std::uint64_t failed = 0;
  std::uint64_t backlog_after = 0;
};

/// What the simulator reported at the end of a run.
struct LedgerReport {
  std::uint64_t arrivals = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t residual = 0;
  std::uint64_t scheduled = 0;
  std::uint64_t failed = 0;
};

/// Packet conservation slot by slot (backlog_t = backlog_{t−1} + arrivals
/// − delivered, delivered + failed = scheduled) and against the totals
/// the simulator reported (arrivals = delivered + dropped + residual).
std::string CheckLedger(const std::vector<SlotTally>& slots,
                        const LedgerReport& reported);

/// Every scheduled link succeeds with probability at least 1−ε and the
/// links' fading draws are independent, so the failure count is
/// dominated by Binomial(n, ε). Rejects failed/n > ε + 5·sqrt(ε(1−ε)/n).
std::string CheckFailureBound(std::uint64_t failed, std::uint64_t scheduled,
                              double epsilon);

}  // namespace perfbench
