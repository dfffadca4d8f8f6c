#include "layers.hpp"

#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "channel/batch_interference.hpp"
#include "sched/registry.hpp"
#include "service/protocol.hpp"
#include "service/scenario_cache.hpp"
#include "service/service.hpp"
#include "service/shard/frame_scanner.hpp"
#include "service/shard/hash_ring.hpp"
#include "service/shard/pipe.hpp"

namespace perfbench {

namespace svc = fadesched::service;
namespace shard = fadesched::service::shard;
namespace channel = fadesched::channel;

namespace {

// The schedulers the replay times on every input.
const std::vector<std::string>& ReplaySchedulers() {
  static const std::vector<std::string> names = {
      "ldp", "rle", "fading_greedy", "approx_logn", "approx_diversity"};
  return names;
}

}  // namespace

LayerValues ReplayLayers(const std::vector<const SchedulingRequest*>& inputs,
                         std::size_t subset_size, channel::FactorBackend engine_backend,
                         Tracer& tracer) {
  if (inputs.empty()) throw std::runtime_error("layer replay needs inputs");
  LayerValues out;
  svc::SchedulingService service;
  std::vector<double> frame_bytes, links_scheduled;
  std::map<std::size_t, std::vector<double>> scan_by_size;
  const fadesched::testing::ScenarioCase* largest = &inputs.front()->scenario;

  for (std::size_t r = 0; r < inputs.size(); ++r) {
    const SchedulingRequest& req = *inputs[r];
    const fadesched::testing::ScenarioCase& sc = req.scenario;
    if (sc.links.Size() > largest->links.Size()) largest = &sc;
    Span request(tracer, "request", r);

    std::string frame;
    {
      Span s(tracer, "protocol.format_request", r);
      frame = svc::FormatRequestFrame(req);
    }
    frame_bytes.push_back(static_cast<double>(frame.size()));

    std::vector<shard::ScanEvent> events;
    {
      const double t0 = Now();
      Span s(tracer, "shard.frame_scan", r);
      shard::FrameScanner scanner;
      scanner.Feed(frame.data(), frame.size());
      events = scanner.Drain();
      scan_by_size[sc.links.Size()].push_back(Now() - t0);
    }
    if (events.size() != 1) throw std::runtime_error("scanner did not yield one frame");
    const std::string& body = events.front().frame;
    {
      Span s(tracer, "shard.routing_key", r);
      (void)shard::RoutingKey(body);
    }
    svc::SchedulingRequest parsed;
    {
      Span s(tracer, "protocol.parse_request", r);
      parsed = svc::ParseRequestFrame(body);
    }
    svc::Fingerprint fp;
    {
      Span s(tracer, "request.fingerprint", r);
      fp = svc::FingerprintRequest(parsed);
    }
    {
      Span s(tracer, "service.handle_miss", r);
      (void)service.Execute(parsed);
    }
    {
      Span s(tracer, "cache.lookup_hit", r);
      svc::SchedulingResponse cached;
      if (!service.Cache().LookupResponse(fp, &cached)) {
        throw std::runtime_error("replayed response missing from the cache");
      }
    }
    svc::SchedulingResponse hit;
    {
      Span s(tracer, "service.handle_hit", r);
      hit = service.Execute(parsed);
    }
    if (!hit.Ok()) throw std::runtime_error("replayed request failed: " + hit.message);
    std::string line;
    {
      Span s(tracer, "protocol.format_response", r);
      line = svc::FormatResponseLine(hit);
    }
    {
      Span s(tracer, "shard.pipe_codec", r);
      std::string wire;
      shard::AppendPipeMsg(wire, {shard::PipeMsgKind::kRequest, r, body});
      shard::AppendPipeMsg(wire, {shard::PipeMsgKind::kResponse, r, line});
      shard::PipeDecoder decoder;
      decoder.Feed(wire.data(), wire.size());
      if (!decoder.Pop() || !decoder.Pop()) throw std::runtime_error("pipe codec lost a message");
    }

    std::shared_ptr<const channel::InterferenceEngine> engine;
    {
      Span s(tracer, "channel.engine_build", r);
      engine = std::make_shared<const channel::InterferenceEngine>(
          sc.links, sc.params, channel::EngineOptions{});
    }
    for (const std::string& name : ReplaySchedulers()) {
      channel::EngineOptions options = engine->Options();
      options.shared = engine;
      Span s(tracer, "sched." + name, r);
      const auto result =
          fadesched::sched::MakeScheduler(name, options)->Schedule(sc.links, sc.params);
      if (name == req.scheduler) {
        links_scheduled.push_back(static_cast<double>(result.schedule.size()));
      }
    }
  }

  // The simulator's default engine: kMatrix over the largest input, and
  // the per-slot subset views cut from it.
  channel::EngineOptions matrix;
  matrix.backend = channel::FactorBackend::kMatrix;
  std::shared_ptr<const channel::InterferenceEngine> universe;
  {
    Span s(tracer, "channel.universe_build", 0);
    universe = std::make_shared<const channel::InterferenceEngine>(
        largest->links, largest->params, matrix);
  }
  const std::size_t n = largest->links.Size();
  const std::size_t m = std::clamp<std::size_t>(subset_size, 1, n);
  for (std::size_t k = 0; k < 16; ++k) {
    std::vector<fadesched::net::LinkId> ids;
    for (std::size_t j = 0; j < m; ++j) ids.push_back((k + j * (n / m)) % n);
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    const fadesched::net::LinkSet subset = largest->links.Subset(ids);
    Span s(tracer, "channel.subset_view", k);
    (void)channel::MakeSubsetEngineView(universe, subset, ids);
  }

  if (!tracer.Enabled()) return out;
  const auto self = tracer.SelfTimes();
  auto put = [&](const std::string& span, const std::string& metric,
                 const std::string& unit, double scale) {
    const auto it = self.find(span);
    if (it == self.end()) return;
    out[metric] = LayerValue{it->second.median_s * scale, unit, it->second.count};
  };
  for (const char* span :
       {"protocol.format_request", "protocol.parse_request", "protocol.format_response",
        "shard.frame_scan", "shard.routing_key", "shard.pipe_codec",
        "request.fingerprint", "cache.lookup_hit", "service.handle_hit",
        "service.handle_miss", "channel.engine_build", "channel.subset_view"}) {
    put(span, std::string(span) + "_us", "us", 1e6);
  }
  for (const std::string& name : ReplaySchedulers()) {
    put("sched." + name, "sched." + name + "_us", "us", 1e6);
  }
  put("channel.universe_build", "channel.universe_build_ms", "ms", 1e3);
  out["protocol.frame_bytes"] = {Median(frame_bytes), "bytes", frame_bytes.size()};
  out["sched.links_scheduled"] = {Median(links_scheduled), "count", links_scheduled.size()};
  channel::EngineOptions sized;
  sized.backend = engine_backend;
  out["channel.engine_bytes"] = {
      static_cast<double>(svc::ScenarioCache::EstimateScenarioBytes(
          svc::ScenarioCache::Scenario{largest->links, largest->params, {}, {}, 0}, sized)),
      "bytes", 1};
  for (const auto& [size, times] : scan_by_size) {
    out["shard.frame_scan_us.n" + std::to_string(size)] = {Median(times) * 1e6, "us",
                                                           times.size()};
  }
  return out;
}

double MaxShardShare(const std::vector<const std::string*>& frames,
                     std::size_t num_shards) {
  shard::HashRingOptions options;
  options.num_shards = num_shards;
  const shard::HashRing ring(options);
  std::vector<double> load(num_shards, 0.0);
  for (const std::string* frame : frames) {
    // RoutingKey reads the frame as the router sees it: header through END.
    load[ring.ShardFor(shard::RoutingKey(*frame))] += 1.0;
  }
  const double mean = static_cast<double>(frames.size()) / static_cast<double>(num_shards);
  return mean > 0.0 ? *std::max_element(load.begin(), load.end()) / mean : 0.0;
}

std::map<std::string, double> ParseStats(const std::string& line) {
  std::map<std::string, double> out;
  std::istringstream in(line);
  for (std::string token; in >> token;) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || token.compare(0, eq, "sum") == 0) continue;
    out[token.substr(0, eq)] = std::strtod(token.c_str() + eq + 1, nullptr);
  }
  return out;
}

}  // namespace perfbench
