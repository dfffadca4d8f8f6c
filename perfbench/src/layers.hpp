// The traced replay: a sample of a workload's own inputs pushed through
// each layer's public functions, one call per span, so every layer's self
// time is measured from outside the program.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "channel/batch_interference.hpp"
#include "service/request.hpp"
#include "trace.hpp"

namespace perfbench {

using fadesched::service::SchedulingRequest;

/// A per-layer figure and the number of samples behind it.
struct LayerValue {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};
using LayerValues = std::map<std::string, LayerValue>;

/// Replays `inputs` through protocol, shard, request, cache, service,
/// channel and sched functions under `tracer` and returns each layer's
/// median self time (and the byte, count and ratio figures measured on
/// the way). `subset_size` sizes the subset views cut from the universe
/// engine built over the largest input; `engine_backend` is the backend
/// whose engine size `channel.engine_bytes` reports. Figures only a live
/// server gives (hit ratio, queue delay, shard share, generator lateness)
/// are not measured here.
LayerValues ReplayLayers(const std::vector<const SchedulingRequest*>& inputs,
                         std::size_t subset_size,
                         fadesched::channel::FactorBackend engine_backend,
                         Tracer& tracer);

/// Busiest shard's share of `frames` over the mean, as the router's
/// consistent-hash ring (`num_shards`, default vnodes and seed) places them.
double MaxShardShare(const std::vector<const std::string*>& frames,
                     std::size_t num_shards);

/// Parses a STATS line into key → value (the sum= token is skipped).
std::map<std::string, double> ParseStats(const std::string& line);

}  // namespace perfbench
