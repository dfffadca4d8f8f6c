// Per-connection incremental frame reassembly for both front ends.
//
// The epoll router gets arbitrary byte chunks whenever a socket is
// readable and must carve frames out of them without blocking; the
// thread-per-connection Server carves its recv chunks the same way.
// FrameScanner is that state machine: feed bytes, drain events. Sharing
// it is what keeps the two front ends byte-identical, which the chaos
// suite asserts:
//
//   * lines end at '\n'; a trailing '\r' is stripped (telnet-friendly);
//   * a bare STATS line between frames is a metrics query, the same
//     bytes inside a frame are scenario payload;
//   * a frame runs from its header line through the END terminator;
//   * the max-frame guard counts assembled bytes plus unscanned buffer.
//
// Carving is linear in the bytes received: a read cursor walks the
// buffer with memchr, a pending frame stays in place until its END line
// lands and is then copied out once, and the buffer is compacted once
// per Drain — never per line.
//
// The scanner does NOT parse or validate frames — routing must not
// depend on validity (a corrupt frame still routes to one worker, whose
// ParseRequestFrame answers with the typed error; the router stays dumb
// and all protocol policy lives in exactly one place).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "service/protocol.hpp"

namespace fadesched::service::shard {

struct ScanEvent {
  enum class Kind {
    kFrame,  ///< a complete request frame; `frame` holds the raw bytes
    kStats,  ///< a bare STATS line between frames
  };
  Kind kind = Kind::kFrame;
  std::string frame;
};

class FrameScanner {
 public:
  /// Appends raw bytes from the socket; call Drain() afterwards.
  void Feed(const char* data, std::size_t size);

  /// Carves complete events out of the buffered bytes. Returns the
  /// events in arrival order; an incomplete trailing frame stays pending.
  std::vector<ScanEvent> Drain();

  /// True while a frame is partially assembled (or a partial line is
  /// buffered) — the idle-eviction and EOF-mid-frame guards key on this.
  [[nodiscard]] bool MidFrame() const {
    return lines_ > 0 || scan_ < buffer_.size();
  }

  /// Lines fed into the pending frame (named in guard errors).
  [[nodiscard]] std::size_t Lines() const { return lines_; }

  /// Assembled + unscanned bytes, the quantity the max-frame guard caps.
  /// Assembled bytes count each pending line without its stripped '\r'.
  [[nodiscard]] std::size_t PendingBytes() const {
    return buffer_.size() - frame_start_ - stripped_cr_;
  }

  /// Truncation error message for EOF mid-frame ("truncated request
  /// frame after N line(s) — missing END terminator").
  [[nodiscard]] std::string Truncated() const;

 private:
  /// Copies the pending frame's lines [frame_start_, end) out of the
  /// buffer, dropping each line's trailing '\r' if any line had one.
  std::string TakeFrame(std::size_t end) const;

  // buffer_[0, frame_start_) is consumed; [frame_start_, scan_) holds the
  // pending frame's complete lines; [scan_, size) is not yet a full line.
  std::string buffer_;
  std::size_t frame_start_ = 0;
  std::size_t scan_ = 0;
  std::size_t search_from_ = 0;  ///< memchr resumes here (partial line)
  std::size_t lines_ = 0;        ///< complete lines in the pending frame
  std::size_t stripped_cr_ = 0;  ///< '\r's stripped from those lines
};

/// Consistent-hash routing key of a raw request frame: FNV-1a over the
/// scheduler= header token chained over the scenario payload. The id=,
/// deadline= and check= tokens are deliberately excluded so repeat
/// requests for the same (scenario, scheduler) pair land on the same
/// shard — affinity is what turns N per-process caches into one warm
/// tier. Malformed headers hash the whole frame: still deterministic, so
/// the worker that answers the typed parse error is stable too.
std::uint64_t RoutingKey(const std::string& frame);

}  // namespace fadesched::service::shard
