#include "checker.hpp"

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace perfbench {

std::string CheckCorollary31(const Geometry& g,
                             const std::vector<std::size_t>& schedule) {
  if (g.noise_power != 0.0) return "Corollary 3.1 check needs N0 = 0";
  const long double budget =
      -std::log1p(-static_cast<long double>(g.epsilon)) * (1.0L + 1e-9L);
  for (const std::size_t j : schedule) {
    if (j >= g.Size()) return "schedule id " + std::to_string(j) + " out of range";
    const long double djj = std::hypot(static_cast<long double>(g.sx[j] - g.rx[j]),
                                       static_cast<long double>(g.sy[j] - g.ry[j]));
    long double sum = 0.0L;
    for (const std::size_t i : schedule) {
      if (i == j) continue;
      const long double dij = std::hypot(static_cast<long double>(g.sx[i] - g.rx[j]),
                                         static_cast<long double>(g.sy[i] - g.ry[j]));
      if (dij == 0.0L) {
        return "sender " + std::to_string(i) + " sits on receiver " + std::to_string(j);
      }
      sum += std::log1p(static_cast<long double>(g.gamma_th) *
                        std::pow(djj / dij, static_cast<long double>(g.alpha)));
    }
    const long double tolerance = 16.0L * DBL_EPSILON * sum;
    if (sum > budget + tolerance) {
      char msg[200];
      std::snprintf(msg, sizeof msg,
                    "link %zu: sum f_ij = %.17Lg exceeds gamma_eps = %.17Lg "
                    "(schedule of %zu)",
                    j, sum, budget, schedule.size());
      return msg;
    }
  }
  return "";
}

std::uint64_t Fnv1a(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

namespace {

bool TokenValue(const std::string& token, const char* key, std::string* value) {
  const std::string prefix = std::string(key) + "=";
  if (token.compare(0, prefix.size(), prefix) != 0) return false;
  *value = token.substr(prefix.size());
  return true;
}

}  // namespace

std::string CheckReply(const std::string& line, const std::string& want_id,
                       const Geometry& g, bool fading_feasible, Reply* out) {
  std::istringstream in(line);
  std::vector<std::string> tokens;
  for (std::string t; in >> t;) tokens.push_back(t);
  const std::string head = "reply to " + want_id + ": ";
  if (tokens.size() != 5 || tokens[0] != "OK") {
    return head + "not an OK line: " + line.substr(0, 160);
  }
  std::string sum, id, rate, sched;
  if (!TokenValue(tokens[1], "sum", &sum) || !TokenValue(tokens[2], "id", &id) ||
      !TokenValue(tokens[3], "rate", &rate) ||
      !TokenValue(tokens[4], "schedule", &sched)) {
    return head + "tokens out of order: " + line.substr(0, 160);
  }
  // The checksum covers the line with " sum=<hex>" cut out.
  const std::string body = "OK" + line.substr(line.find(' ', 3));
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(Fnv1a(body)));
  if (sum != hex) return head + "sum=" + sum + " but the line hashes to " + hex;
  if (id != want_id) return head + "echoed id=" + id;

  Reply reply;
  reply.id = id;
  reply.rate = std::strtod(rate.c_str(), nullptr);
  if (sched != "-") {
    std::istringstream ids(sched);
    for (std::string item; std::getline(ids, item, ',');) {
      char* end = nullptr;
      const unsigned long long v = std::strtoull(item.c_str(), &end, 10);
      if (item.empty() || *end != '\0') return head + "bad schedule id '" + item + "'";
      reply.schedule.push_back(static_cast<std::size_t>(v));
    }
  }
  long double total = 0.0L;
  for (std::size_t k = 0; k < reply.schedule.size(); ++k) {
    const std::size_t v = reply.schedule[k];
    if (v >= g.Size()) return head + "schedule id " + std::to_string(v) + " out of range";
    if (k > 0 && v <= reply.schedule[k - 1]) {
      return head + "schedule ids not distinct and ascending at " + std::to_string(v);
    }
    total += g.rate[v];
  }
  if (std::fabs(static_cast<double>(total) - reply.rate) >
      1e-12 * std::max(1.0, static_cast<double>(total))) {
    return head + "rate=" + rate + " but the schedule's rates sum to " +
           std::to_string(static_cast<double>(total));
  }
  if (fading_feasible) {
    const std::string bad = CheckCorollary31(g, reply.schedule);
    if (!bad.empty()) return head + bad;
  }
  if (out != nullptr) *out = std::move(reply);
  return "";
}

std::string CheckLedger(const std::vector<SlotTally>& slots,
                        const LedgerReport& reported) {
  std::uint64_t backlog = 0, arrivals = 0, delivered = 0, scheduled = 0, failed = 0;
  for (std::size_t t = 0; t < slots.size(); ++t) {
    const SlotTally& s = slots[t];
    if (s.delivered + s.failed != s.scheduled) {
      return "slot " + std::to_string(t) + ": delivered + failed != scheduled";
    }
    if (backlog + s.arrivals < s.delivered ||
        backlog + s.arrivals - s.delivered != s.backlog_after) {
      return "slot " + std::to_string(t) + ": backlog " + std::to_string(backlog) +
             " + arrivals " + std::to_string(s.arrivals) + " - delivered " +
             std::to_string(s.delivered) + " != " + std::to_string(s.backlog_after);
    }
    backlog = s.backlog_after;
    arrivals += s.arrivals;
    delivered += s.delivered;
    scheduled += s.scheduled;
    failed += s.failed;
  }
  if (reported.arrivals != arrivals || reported.delivered != delivered ||
      reported.scheduled != scheduled || reported.failed != failed ||
      reported.residual != backlog) {
    return "reported ledger disagrees with the slot trace";
  }
  if (reported.arrivals != reported.delivered + reported.dropped + reported.residual) {
    return "ledger unbalanced: arrivals " + std::to_string(reported.arrivals) +
           " != delivered + dropped + residual";
  }
  return "";
}

std::string CheckFailureBound(std::uint64_t failed, std::uint64_t scheduled,
                              double epsilon) {
  if (scheduled == 0) return "";
  const double n = static_cast<double>(scheduled);
  const double limit = epsilon + 5.0 * std::sqrt(epsilon * (1.0 - epsilon) / n);
  const double observed = static_cast<double>(failed) / n;
  if (observed <= limit) return "";
  char msg[160];
  std::snprintf(msg, sizeof msg,
                "fading failures %llu/%llu = %.5f exceed eps + margin = %.5f",
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(scheduled), observed, limit);
  return msg;
}

}  // namespace perfbench
