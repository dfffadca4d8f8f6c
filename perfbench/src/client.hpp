// The benchmark's own load client: one thread driving a few non-blocking
// Unix-socket connections through epoll, open-loop (requests released on
// a fixed schedule whatever the server does) or closed-loop (each
// connection sends its next request when the previous reply lands). It
// keeps every request's raw timestamps and reply line.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/// One request as the client saw it. Times are Now() seconds.
struct Sample {
  std::size_t input = 0;  ///< index into the workload's input list
  double due = 0.0;       ///< open loop: scheduled release; closed: = sent
  double sent = 0.0;      ///< first byte written
  double done = 0.0;      ///< reply line complete (0 = never)
  std::string reply;
};

struct LoadSpec {
  std::string socket_path;
  std::size_t connections = 4;
  /// > 0: open loop at this many requests per second; 0: closed loop.
  double rate_per_s = 0.0;
  /// Requests are released (open) or started (closed) for this long;
  /// replies still in flight are then awaited.
  double duration_s = 1.0;
  /// Hard cap on requests (0 = none). A finite input list stops the
  /// phase early when it runs out.
  std::size_t max_requests = 0;
  /// Give up on replies this long after the last release.
  double drain_timeout_s = 60.0;
};

/// Returns the frame (and its input index) of the k-th request of the
/// phase, or false when the inputs are exhausted.
using NextInput =
    std::function<bool(std::size_t k, const std::string** frame, std::size_t* input)>;

/// Runs one phase. Throws std::runtime_error when a connection fails.
std::vector<Sample> RunLoad(const LoadSpec& spec, const NextInput& next);

/// Sends the bare STATS verb on a fresh connection and returns the reply.
std::string QueryStats(const std::string& socket_path);

}  // namespace perfbench
