#include "service/protocol.hpp"

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <optional>
#include <sstream>
#include <vector>

#include "testing/corpus.hpp"
#include "util/error.hpp"

namespace fadesched::service {

namespace {

// %.17g: to_chars with general format and a precision is specified as
// printf's conversion, byte for byte.
std::string FormatDouble(double value) {
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value,
                                    std::chars_format::general, 17);
  return std::string(buffer, result.ptr);
}

std::string FormatHash(std::uint64_t hash) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(hash));
  return buffer;
}

std::uint64_t ParseHash(const std::string& text, const char* what) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 16);
  if (text.empty() || end == nullptr || *end != '\0' || errno != 0) {
    throw util::FatalError(std::string("malformed ") + what + " '" + text +
                           "' (expected hex)");
  }
  return static_cast<std::uint64_t>(value);
}

double ParseDouble(const std::string& text, const char* what) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == nullptr || *end != '\0' || text.empty()) {
    throw util::FatalError(std::string("malformed ") + what + " '" + text +
                           "'");
  }
  return value;
}

bool IsToken(const std::string& text) {
  if (text.empty()) return false;
  for (const char c : text) {
    if (c == ' ' || c == '\n' || c == '\r' || c == '\t') return false;
  }
  return true;
}

std::string Flatten(const std::string& text) {
  std::string out = text;
  for (char& c : out) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return out;
}

std::vector<std::string> SplitTokens(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string token;
  while (in >> token) tokens.push_back(token);
  return tokens;
}

// Splits "key=value"; throws naming the frame line on missing '='.
std::pair<std::string, std::string> SplitKeyValue(const std::string& token,
                                                  std::size_t frame_line) {
  const std::size_t eq = token.find('=');
  if (eq == std::string::npos || eq == 0) {
    throw util::FatalError("request frame line " + std::to_string(frame_line) +
                           ": expected key=value, got '" + token + "'");
  }
  return {token.substr(0, eq), token.substr(eq + 1)};
}

ResponseStatus ParseStatusName(const std::string& name) {
  if (name == "shed") return ResponseStatus::kShed;
  if (name == "timeout") return ResponseStatus::kTimeout;
  if (name == "error") return ResponseStatus::kError;
  throw util::FatalError("malformed response status '" + name + "'");
}

util::ErrorKind ParseKindName(const std::string& name) {
  if (name == "transient") return util::ErrorKind::kTransient;
  if (name == "timeout") return util::ErrorKind::kTimeout;
  if (name == "interrupted") return util::ErrorKind::kInterrupted;
  if (name == "fatal") return util::ErrorKind::kFatal;
  throw util::FatalError("malformed error kind '" + name + "'");
}

}  // namespace

std::string FormatRequestFrame(const SchedulingRequest& request) {
  if (!IsToken(request.id)) {
    throw util::FatalError("request id must be a non-empty token without "
                           "whitespace, got '" + request.id + "'");
  }
  if (!IsToken(request.scheduler)) {
    throw util::FatalError("scheduler name must be a non-empty token without "
                           "whitespace, got '" + request.scheduler + "'");
  }
  std::string header = "REQUEST id=" + request.id +
                       " scheduler=" + request.scheduler;
  if (request.deadline_seconds > 0.0) {
    header += " deadline=" + FormatDouble(request.deadline_seconds);
  }
  std::string scenario = fadesched::testing::FormatScenario(request.scenario);
  if (!scenario.empty() && scenario.back() != '\n') scenario += '\n';
  // check= covers the whole frame body (header without the check token
  // itself, newline, payload) so a flipped bit anywhere — id, scheduler,
  // deadline, or scenario — is detected as wire corruption. FNV-1a is a
  // running hash, so chaining over the pieces equals hashing their
  // concatenation.
  const std::uint64_t check =
      Fnv1a64(scenario, Fnv1a64("\n", Fnv1a64(header)));
  std::string frame;
  frame.reserve(header.size() + 24 + scenario.size() + 4);
  frame += header;
  frame += " check=";
  frame += FormatHash(check);
  frame += '\n';
  frame += scenario;
  frame += kFrameEnd;
  frame += '\n';
  return frame;
}

namespace {

bool IsHexDigit(char c) {
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') ||
         (c >= 'A' && c <= 'F');
}

// True for bytes the istringstream tokenizer of ParseRequestFrame would
// split on; a header holding one outside the single ' ' separators is
// left to that parser.
bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

}  // namespace

std::optional<RequestFrameView> VerifyRequestFrame(std::string_view frame) {
  const std::size_t header_end = frame.find('\n');
  if (header_end == std::string_view::npos) return std::nullopt;
  const std::string_view header = frame.substr(0, header_end);
  constexpr std::string_view kVerb = "REQUEST ";
  if (header.substr(0, kVerb.size()) != kVerb) return std::nullopt;

  RequestFrameView view;
  view.payload = frame.substr(header_end + 1);
  std::optional<std::string_view> deadline;
  std::optional<std::uint64_t> check;
  std::size_t check_begin = 0;  // the ' ' before the check token
  std::size_t check_end = 0;
  std::size_t pos = kVerb.size();
  for (;;) {
    std::size_t end = header.find(' ', pos);
    if (end == std::string_view::npos) end = header.size();
    const std::string_view token = header.substr(pos, end - pos);
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos || eq == 0) return std::nullopt;
    for (const char c : token) {
      if (IsSpace(c)) return std::nullopt;
    }
    const std::string_view key = token.substr(0, eq);
    const std::string_view value = token.substr(eq + 1);
    if (key == "id" && view.id.empty()) {
      view.id = value;
    } else if (key == "scheduler" && view.scheduler.empty()) {
      view.scheduler = value;
    } else if (key == "deadline" && !deadline.has_value()) {
      deadline = value;
    } else if (key == "check" && !check.has_value() && !value.empty() &&
               value.size() <= 16) {
      std::uint64_t hash = 0;
      for (const char c : value) {
        if (!IsHexDigit(c)) return std::nullopt;
      }
      std::from_chars(value.data(), value.data() + value.size(), hash, 16);
      check = hash;
      check_begin = pos - 1;
      check_end = end;
    } else {
      return std::nullopt;  // unknown, repeated or malformed: full parse
    }
    if (end == header.size()) break;
    pos = end + 1;
  }
  if (view.id.empty() || view.scheduler.empty() || !check.has_value()) {
    return std::nullopt;
  }
  if (deadline.has_value()) {
    // Admission ignores the deadline on a hit, but ParseRequestFrame
    // rejects a malformed or negative one, so the fast path must too.
    // from_chars accepts a subset of strtod's syntax, with equal values.
    double seconds = 0.0;
    const auto [end, ec] = std::from_chars(
        deadline->data(), deadline->data() + deadline->size(), seconds);
    if (ec != std::errc() || end != deadline->data() + deadline->size() ||
        !(seconds >= 0.0)) {
      return std::nullopt;
    }
  }
  // The same bytes ParseRequestFrame hashes: the header with the check
  // token and its separator spliced out, the newline, the payload.
  std::uint64_t hash = Fnv1a64(header.substr(0, check_begin));
  hash = Fnv1a64(header.substr(check_end), hash);
  hash = Fnv1a64(view.payload, Fnv1a64("\n", hash));
  if (hash != *check) return std::nullopt;
  return view;
}

SchedulingRequest ParseRequestFrame(const std::string& frame) {
  const std::size_t header_end = frame.find('\n');
  if (header_end == std::string::npos) {
    throw util::FatalError(
        "request frame line 1: header is not newline-terminated");
  }
  const std::string header = frame.substr(0, header_end);
  const std::vector<std::string> tokens = SplitTokens(header);
  if (tokens.empty() || tokens[0] != "REQUEST") {
    throw util::FatalError(
        "request frame line 1: expected 'REQUEST id=... scheduler=...', got '" +
        header + "'");
  }

  SchedulingRequest request;
  request.scheduler.clear();
  std::optional<std::uint64_t> check;
  for (std::size_t t = 1; t < tokens.size(); ++t) {
    const auto [key, value] = SplitKeyValue(tokens[t], 1);
    if (key == "id") {
      request.id = value;
    } else if (key == "scheduler") {
      request.scheduler = value;
    } else if (key == "deadline") {
      try {
        request.deadline_seconds = ParseDouble(value, "deadline");
      } catch (const util::HarnessError& e) {
        // Prefixed so the retry client's corruption heuristic (fatal
        // errors naming the frame on a frame *we* formatted correctly)
        // covers a garbled deadline token too.
        throw util::FatalError(std::string("request frame line 1: ") +
                               e.what());
      }
      if (request.deadline_seconds < 0.0) {
        throw util::FatalError(
            "request frame line 1: deadline must be non-negative");
      }
    } else if (key == "check") {
      try {
        check = ParseHash(value, "check");
      } catch (const util::HarnessError& e) {
        throw util::FatalError(std::string("request frame line 1: ") +
                               e.what());
      }
    } else {
      throw util::FatalError("request frame line 1: unknown header key '" +
                             key + "'");
    }
  }
  if (request.id.empty()) {
    throw util::FatalError("request frame line 1: missing id=");
  }
  if (request.scheduler.empty()) {
    throw util::FatalError("request frame line 1: missing scheduler=");
  }
  if (!check.has_value()) {
    // Mandatory, and deliberately transient: every in-repo client sends
    // check=, so its absence on an otherwise well-formed frame is the
    // signature of a corrupted separator — a flipped space merges the
    // check token into its neighbour, which would otherwise disable
    // verification exactly when it is needed (found by the chaos soak).
    throw util::TransientError(
        "request frame line 1: missing check= integrity token (wire "
        "corruption, or a pre-checksum peer — retry with check=)");
  }

  const std::string payload = frame.substr(header_end + 1);
  try {
    request.scenario = fadesched::testing::ParseScenario(payload);
  } catch (const std::exception& e) {
    // ParseScenario's message already names its own 1-based line/row; the
    // payload starts at frame line 2.
    throw util::FatalError(
        std::string("request frame scenario payload (frame line 2 onward): ") +
        e.what());
  }
  // Verified after the parse on purpose: a corrupted payload that fails
  // to parse keeps its precise row diagnostic; one that still parses —
  // or a flipped header token that still splits as key=value — is caught
  // here instead of silently scheduling the wrong instance. The body is
  // the frame with the check token (and the one separator before it)
  // spliced out, mirroring the format side. The token is located by any
  // whitespace boundary, not just ' ': a space corrupted into a tab
  // still tokenizes, and must not silently disable verification.
  std::size_t pos = 0;
  for (;;) {
    pos = header.find("check=", pos);
    if (pos == std::string::npos || pos == 0) {
      // Unreachable when `check` parsed from a token, kept as a guard.
      throw util::TransientError(
          "request frame line 1: check= token lost during reparse (wire "
          "corruption — retry)");
    }
    const char before = header[pos - 1];
    if (before == ' ' || before == '\t') {
      --pos;  // splice the separator out together with the token
      break;
    }
    ++pos;
  }
  std::size_t token_end = header.find_first_of(" \t", pos + 1);
  if (token_end == std::string::npos) token_end = header.size();
  const std::string body =
      header.substr(0, pos) + header.substr(token_end) + '\n' + payload;
  if (*check != Fnv1a64(body)) {
    throw util::TransientError(
        "request frame checksum mismatch: " + std::to_string(body.size()) +
        " frame byte(s) hash to " + FormatHash(Fnv1a64(body)) +
        ", header claims check=" + FormatHash(*check) +
        " (wire corruption — retry)");
  }
  return request;
}

namespace {

// `sum=` is spliced in right after the status word so it never collides
// with msg=, which runs to end of line. The checksum covers the line
// with the sum token removed, so verification is splice-inverse.
std::string SpliceChecksum(const std::string& body) {
  const std::size_t space = body.find(' ');
  return body.substr(0, space) + " sum=" + FormatHash(Fnv1a64(body)) +
         body.substr(space);
}

// Returns the line with a leading sum token stripped, after verifying it.
// Lines without one (hand-written tests, pre-checksum peers) pass through.
std::string VerifyAndStripChecksum(const std::string& line) {
  const std::size_t space = line.find(' ');
  if (space == std::string::npos || line.compare(space, 5, " sum=") != 0) {
    return line;
  }
  std::size_t value_end = line.find(' ', space + 5);
  if (value_end == std::string::npos) value_end = line.size();
  const std::uint64_t claimed =
      ParseHash(line.substr(space + 5, value_end - (space + 5)), "sum");
  const std::string body = line.substr(0, space) + line.substr(value_end);
  if (Fnv1a64(body) != claimed) {
    throw util::TransientError(
        "response checksum mismatch: line hashes to " +
        FormatHash(Fnv1a64(body)) + ", carries sum=" + FormatHash(claimed) +
        " (wire corruption — retry)");
  }
  return body;
}

}  // namespace

std::string FormatResponseLine(const SchedulingResponse& response) {
  if (response.Ok()) {
    std::string line = "OK id=" + response.id +
                       " rate=" + FormatDouble(response.claimed_rate) +
                       " schedule=";
    if (response.schedule.empty()) {
      line += '-';
    } else {
      for (std::size_t i = 0; i < response.schedule.size(); ++i) {
        if (i > 0) line += ',';
        line += std::to_string(response.schedule[i]);
      }
    }
    return SpliceChecksum(line);
  }
  std::string line = "ERR id=" + response.id +
                     " status=" + ResponseStatusName(response.status) +
                     " kind=" + util::ErrorKindName(response.error_kind);
  // Before msg= on purpose: msg= runs to end of line, so any token after
  // it would be swallowed into the message.
  if (response.retry_after_ms > 0.0) {
    line += " retry_after_ms=" + FormatDouble(response.retry_after_ms);
  }
  return SpliceChecksum(line + " msg=" + Flatten(response.message));
}

SchedulingResponse ParseResponseLine(const std::string& raw_line) {
  const std::string line = VerifyAndStripChecksum(raw_line);
  SchedulingResponse response;
  const std::vector<std::string> tokens = SplitTokens(line);
  if (tokens.empty()) throw util::FatalError("empty response line");

  if (tokens[0] == "OK") {
    response.status = ResponseStatus::kOk;
    for (std::size_t t = 1; t < tokens.size(); ++t) {
      const auto [key, value] = SplitKeyValue(tokens[t], 1);
      if (key == "id") {
        response.id = value;
      } else if (key == "rate") {
        response.claimed_rate = ParseDouble(value, "rate");
      } else if (key == "schedule") {
        if (value != "-") {
          std::istringstream ids(value);
          std::string piece;
          while (std::getline(ids, piece, ',')) {
            response.schedule.push_back(
                static_cast<net::LinkId>(std::stoull(piece)));
          }
        }
      } else {
        throw util::FatalError("unknown response key '" + key + "'");
      }
    }
    return response;
  }

  if (tokens[0] == "ERR") {
    for (std::size_t t = 1; t < tokens.size(); ++t) {
      const auto [key, value] = SplitKeyValue(tokens[t], 1);
      if (key == "id") {
        response.id = value;
      } else if (key == "status") {
        response.status = ParseStatusName(value);
      } else if (key == "kind") {
        response.error_kind = ParseKindName(value);
      } else if (key == "retry_after_ms") {
        response.retry_after_ms = ParseDouble(value, "retry_after_ms");
        if (response.retry_after_ms < 0.0) {
          throw util::FatalError("retry_after_ms must be non-negative, got '" +
                                 value + "'");
        }
      } else if (key == "msg") {
        // msg= runs to end of line (it may contain spaces).
        const std::size_t pos = line.find(" msg=");
        response.message =
            pos == std::string::npos ? value : line.substr(pos + 5);
        break;
      } else {
        throw util::FatalError("unknown response key '" + key + "'");
      }
    }
    if (response.status == ResponseStatus::kOk) {
      throw util::FatalError("ERR response line missing status=: '" + line +
                             "'");
    }
    return response;
  }

  throw util::FatalError("response line must start with OK or ERR, got '" +
                         line + "'");
}

StatsSnapshot CaptureStats(const ServiceMetrics& metrics) {
  const auto get = [](const std::atomic<std::uint64_t>& counter) {
    return counter.load(std::memory_order_relaxed);
  };
  StatsSnapshot s;
  s.submitted = get(metrics.submitted);
  s.admitted = get(metrics.admitted);
  s.completed = get(metrics.completed);
  s.failed = get(metrics.failed);
  s.timed_out = get(metrics.timed_out);
  s.shed = get(metrics.shed);
  s.shed_overload = get(metrics.shed_overload);
  s.shed_cold = get(metrics.shed_cold);
  s.rejected_draining = get(metrics.rejected_draining);
  s.brownout_entries = get(metrics.brownout_entries);
  s.brownout_builds = get(metrics.brownout_builds);
  s.worker_restarts = get(metrics.worker_restarts);
  s.response_hits = get(metrics.response_hits);
  s.response_misses = get(metrics.response_misses);
  s.memo_hits = get(metrics.memo_hits);
  s.scenario_hits = get(metrics.scenario_hits);
  s.scenario_misses = get(metrics.scenario_misses);
  s.queue_depth = get(metrics.queue_depth);
  s.queue_delay_ewma_us = get(metrics.queue_delay_ewma_us);
  s.brownout_active = get(metrics.brownout_active);
  return s;
}

void AccumulateStats(StatsSnapshot& into, const StatsSnapshot& from) {
  into.submitted += from.submitted;
  into.admitted += from.admitted;
  into.completed += from.completed;
  into.failed += from.failed;
  into.timed_out += from.timed_out;
  into.shed += from.shed;
  into.shed_overload += from.shed_overload;
  into.shed_cold += from.shed_cold;
  into.rejected_draining += from.rejected_draining;
  into.brownout_entries += from.brownout_entries;
  into.brownout_builds += from.brownout_builds;
  into.worker_restarts += from.worker_restarts;
  into.response_hits += from.response_hits;
  into.response_misses += from.response_misses;
  into.memo_hits += from.memo_hits;
  into.scenario_hits += from.scenario_hits;
  into.scenario_misses += from.scenario_misses;
  into.queue_depth += from.queue_depth;
  into.queue_delay_ewma_us += from.queue_delay_ewma_us;
  into.brownout_active += from.brownout_active;
}

namespace {

// Field table driving both the format and the parse, so the two cannot
// drift. Order is the wire order.
struct StatsField {
  const char* key;
  std::uint64_t StatsSnapshot::* member;
};

constexpr StatsField kStatsFields[] = {
    {"submitted", &StatsSnapshot::submitted},
    {"admitted", &StatsSnapshot::admitted},
    {"completed", &StatsSnapshot::completed},
    {"failed", &StatsSnapshot::failed},
    {"timed_out", &StatsSnapshot::timed_out},
    {"shed", &StatsSnapshot::shed},
    {"shed_overload", &StatsSnapshot::shed_overload},
    {"shed_cold", &StatsSnapshot::shed_cold},
    {"rejected_draining", &StatsSnapshot::rejected_draining},
    {"brownout_entries", &StatsSnapshot::brownout_entries},
    {"brownout_builds", &StatsSnapshot::brownout_builds},
    {"worker_restarts", &StatsSnapshot::worker_restarts},
    {"response_hits", &StatsSnapshot::response_hits},
    {"response_misses", &StatsSnapshot::response_misses},
    {"memo_hits", &StatsSnapshot::memo_hits},
    {"scenario_hits", &StatsSnapshot::scenario_hits},
    {"scenario_misses", &StatsSnapshot::scenario_misses},
    {"queue_depth", &StatsSnapshot::queue_depth},
    {"queue_delay_ewma_us", &StatsSnapshot::queue_delay_ewma_us},
    {"brownout_active", &StatsSnapshot::brownout_active},
};

std::uint64_t ParseCounter(const std::string& text, const char* what) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || end == nullptr || *end != '\0' || errno != 0) {
    throw util::FatalError(std::string("malformed STATS counter ") + what +
                           "='" + text + "'");
  }
  return static_cast<std::uint64_t>(value);
}

}  // namespace

std::string FormatStatsLine(const StatsSnapshot& snapshot) {
  std::string line = kStatsVerb;
  for (const StatsField& field : kStatsFields) {
    line += ' ';
    line += field.key;
    line += '=';
    line += std::to_string(snapshot.*(field.member));
  }
  return SpliceChecksum(line);
}

StatsSnapshot ParseStatsLine(const std::string& raw_line) {
  const std::string line = VerifyAndStripChecksum(raw_line);
  const std::vector<std::string> tokens = SplitTokens(line);
  if (tokens.empty() || tokens[0] != kStatsVerb) {
    throw util::FatalError("expected a STATS response line, got '" + line +
                           "'");
  }
  StatsSnapshot snapshot;
  bool seen[std::size(kStatsFields)] = {};
  for (std::size_t t = 1; t < tokens.size(); ++t) {
    const auto [key, value] = SplitKeyValue(tokens[t], 1);
    bool known = false;
    for (std::size_t f = 0; f < std::size(kStatsFields); ++f) {
      if (key == kStatsFields[f].key) {
        snapshot.*(kStatsFields[f].member) = ParseCounter(value, key.c_str());
        seen[f] = true;
        known = true;
        break;
      }
    }
    // Unknown keys are tolerated so older clients can read stats lines
    // from newer workers.
    (void)known;
  }
  for (std::size_t f = 0; f < std::size(kStatsFields); ++f) {
    if (!seen[f]) {
      throw util::FatalError(std::string("STATS line missing ") +
                             kStatsFields[f].key + "=");
    }
  }
  return snapshot;
}

std::string StatsSnapshot::ToJson() const {
  std::string out = "{\n";
  for (const StatsField& field : kStatsFields) {
    out += "  \"";
    out += field.key;
    out += "\": ";
    out += std::to_string(this->*(field.member));
    out += ",\n";
  }
  char rate[64];
  std::snprintf(rate, sizeof(rate), "%.6f", WarmHitRate());
  out += std::string("  \"warm_hit_rate\": ") + rate + "\n}\n";
  return out;
}

}  // namespace fadesched::service
