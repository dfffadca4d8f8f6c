#include "service/shard/frame_scanner.hpp"

#include <cstring>

#include "service/request.hpp"

namespace fadesched::service::shard {

void FrameScanner::Feed(const char* data, std::size_t size) {
  buffer_.append(data, size);
}

std::string FrameScanner::Truncated() const {
  return "truncated request frame after " + std::to_string(lines_) +
         " line(s) — missing END terminator";
}

std::string FrameScanner::TakeFrame(std::size_t end) const {
  if (stripped_cr_ == 0) return buffer_.substr(frame_start_, end - frame_start_);
  std::string frame;
  frame.reserve(end - frame_start_ - stripped_cr_);
  for (std::size_t i = frame_start_; i < end; ++i) {
    if (buffer_[i] == '\r' && buffer_[i + 1] == '\n') continue;
    frame += buffer_[i];
  }
  return frame;
}

std::vector<ScanEvent> FrameScanner::Drain() {
  std::vector<ScanEvent> events;
  const char* const data = buffer_.data();
  while (const void* found = std::memchr(data + search_from_, '\n',
                                         buffer_.size() - search_from_)) {
    const std::size_t line_start = scan_;
    const std::size_t newline = static_cast<const char*>(found) - data;
    scan_ = search_from_ = newline + 1;
    const bool cr = newline > line_start && data[newline - 1] == '\r';
    const std::string_view line(data + line_start,
                                newline - line_start - (cr ? 1 : 0));
    if (lines_ == 0 && line == kStatsVerb) {
      events.push_back(ScanEvent{ScanEvent::Kind::kStats, {}});
      frame_start_ = scan_;
      continue;
    }
    if (line != kFrameEnd) {
      ++lines_;
      if (cr) ++stripped_cr_;
      continue;
    }
    // END: the frame is every line before it, each with its '\n'.
    events.push_back(ScanEvent{ScanEvent::Kind::kFrame, TakeFrame(line_start)});
    frame_start_ = scan_;
    lines_ = 0;
    stripped_cr_ = 0;
  }
  search_from_ = buffer_.size();
  // One compaction per drain: drop everything before the pending frame.
  buffer_.erase(0, frame_start_);
  scan_ -= frame_start_;
  search_from_ -= frame_start_;
  frame_start_ = 0;
  return events;
}

std::uint64_t RoutingKey(const std::string& frame) {
  // Header is the first line; payload is everything after it (including
  // the END terminator — constant across frames, so harmless to hash).
  const std::size_t header_end = frame.find('\n');
  if (header_end == std::string::npos) return Fnv1a64(frame);
  const std::string_view header(frame.data(), header_end);
  const std::string_view payload(frame.data() + header_end + 1,
                                 frame.size() - header_end - 1);
  // Extract the scheduler= token value from the header by scanning
  // space-separated tokens; no full parse — a malformed header must
  // still route somewhere deterministic.
  std::string_view scheduler;
  std::size_t pos = 0;
  while (pos < header.size()) {
    std::size_t end = header.find(' ', pos);
    if (end == std::string_view::npos) end = header.size();
    const std::string_view token = header.substr(pos, end - pos);
    constexpr std::string_view kKey = "scheduler=";
    if (token.size() > kKey.size() && token.substr(0, kKey.size()) == kKey) {
      scheduler = token.substr(kKey.size());
      break;
    }
    pos = end + 1;
  }
  if (scheduler.empty()) return Fnv1a64(frame);
  return Fnv1a64(payload, Fnv1a64(scheduler));
}

}  // namespace fadesched::service::shard
