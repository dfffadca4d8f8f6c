// The three workloads. Each returns the result whose metrics are the
// end-to-end set (untraced run) or the per-layer set (traced run).
#pragma once

#include "bench.hpp"

namespace perfbench {

/// Sharded server, a 32-scenario N=2000 rle pool replayed after a warm-up
/// pass: nearly every request is a response-cache hit.
Result RunWarmRepeat(const Args& args);

/// Classic server, every request a new scenario (N=600..2000, five
/// schedulers in rotation) against a cache that evicts on every insert.
Result RunColdUnique(const Args& args);

/// In-process slotted simulator on an N=2000 universe, rle and ldp in
/// alternation, Bernoulli arrivals below each scheduler's frontier.
Result RunSlottedDynamics(const Args& args);

}  // namespace perfbench
