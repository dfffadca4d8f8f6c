#include "workloads.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "checker.hpp"
#include "client.hpp"
#include "dynamics/slotted_sim.hpp"
#include "layers.hpp"
#include "procs.hpp"
#include "sched/registry.hpp"
#include "service/protocol.hpp"

namespace perfbench {

namespace {

namespace svc = fadesched::service;

// Load generation: one client thread and this many connections (the
// reference machine's nproc).
constexpr std::size_t kConnections = 4;
// Set-up is repeated this often per untraced run; setup_s is the median.
constexpr int kSetupRepeats = 3;
// Inputs the traced replay pushes through the layer functions.
constexpr std::size_t kReplaySample = 4;
// Serving workloads: share of the run in the open loop; the closed loop
// takes the rest.
constexpr double kOpenShare = 0.8;
// Shards of the sharded server (and of the ring max_shard_share replays).
constexpr std::size_t kShards = 4;

// warm_repeat.
constexpr std::size_t kWarmPool = 64;
constexpr std::size_t kWarmLinks = 2000;
constexpr const char* kWarmWorkersPerShard = "2";
constexpr const char* kWarmCacheMb = "64";
constexpr double kWarmRatePerS = 30.0;

// cold_unique.
constexpr std::size_t kColdSizes[] = {600, 1000, 1400, 2000};
const char* const kColdSchedulers[] = {"ldp", "rle", "fading_greedy", "approx_logn",
                                       "approx_diversity"};
constexpr const char* kColdWorkers = "4";
constexpr const char* kColdCacheMb = "0";  // every insert evicts the previous entry
constexpr double kColdRatePerS = 50.0;
// Distinct scenarios (20 rounds of the size × scheduler mix). Requests
// cycle through them; the cache keeps only its newest entry, so every
// request still misses.
constexpr std::size_t kColdInputs = 400;

// slotted_dynamics.
constexpr std::size_t kSlotLinks = 2000;
constexpr std::size_t kSlotsPerCall = 5000;
struct SlotArm {
  const char* scheduler;
  double rate;  // Bernoulli packets per slot per link, below the arm's λ*
};
constexpr SlotArm kSlotArms[] = {{"rle", 0.0012}, {"ldp", 0.0006}};
// Traced runs only: length of the serving leg's open loop (ServeLeg).
constexpr double kServeLegSeconds = 2.0;

// Input streams of MakeScenario.
constexpr std::uint64_t kWarmStream = 1, kColdStream = 2, kSlotStream = 3;

struct Input {
  svc::SchedulingRequest request;
  std::string frame;
  bool fading_feasible = false;
  std::string first_reply;
  double rate = 0.0;
};

Input MakeInput(std::size_t links, std::uint64_t seed, std::uint64_t stream,
                std::uint64_t index, const std::string& scheduler, const std::string& id) {
  Input in;
  in.request.scenario = MakeScenario(links, seed, stream, index);
  in.request.scheduler = scheduler;
  in.request.id = id;
  in.fading_feasible = fadesched::sched::ContractFor(scheduler).fading_feasible;
  return in;
}

Geometry GeometryOf(const fadesched::testing::ScenarioCase& sc) {
  Geometry g;
  const auto& links = sc.links;
  for (std::size_t i = 0; i < links.Size(); ++i) {
    g.sx.push_back(links.Sender(i).x);
    g.sy.push_back(links.Sender(i).y);
    g.rx.push_back(links.Receiver(i).x);
    g.ry.push_back(links.Receiver(i).y);
    g.rate.push_back(links.Rate(i));
  }
  g.alpha = sc.params.alpha;
  g.gamma_th = sc.params.gamma_th;
  g.epsilon = sc.params.epsilon;
  g.noise_power = sc.params.noise_power;
  return g;
}

void FormatFrames(std::vector<Input>& inputs) {
  for (Input& in : inputs) in.frame = svc::FormatRequestFrame(in.request);
}

// Counts every sample; checks the first OK reply of each input with the
// independent checker and every later one for byte identity with it.
void CheckSamples(const std::vector<Sample>& samples, std::vector<Input>& inputs,
                  Result& res) {
  for (const Sample& s : samples) {
    ++res.attempted;
    if (s.done == 0.0 || s.reply.rfind("OK ", 0) != 0) {
      ++res.failed;
      if (res.failed <= 3) std::fprintf(stderr, "failed request: %s\n", s.reply.c_str());
      continue;
    }
    Input& in = inputs[s.input];
    if (in.first_reply.empty()) {
      Reply reply;
      const std::string bad = CheckReply(s.reply, in.request.id, GeometryOf(in.request.scenario),
                                         in.fading_feasible, &reply);
      res.Expect(bad);
      if (!bad.empty()) continue;
      in.first_reply = s.reply;
      in.rate = reply.rate;
    } else if (s.reply != in.first_reply) {
      res.Expect("reply to " + in.request.id + " is not byte-identical to its first reply");
    }
  }
}

double ScheduleRate(const std::vector<Input>& inputs) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const Input& in : inputs) {
    if (in.first_reply.empty()) continue;
    sum += in.rate;
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

std::vector<double> LatenciesMs(const std::vector<Sample>& samples) {
  std::vector<double> out;
  for (const Sample& s : samples) {
    if (s.done > 0.0) out.push_back((s.done - s.due) * 1e3);
  }
  return out;
}

double ThroughputPerS(const std::vector<Sample>& samples) {
  if (samples.empty()) return 0.0;
  double first = samples.front().sent, last = 0.0;
  for (const Sample& s : samples) {
    first = std::min(first, s.sent);
    last = std::max(last, s.done);
  }
  return last > first ? static_cast<double>(samples.size()) / (last - first) : 0.0;
}

void AddLatencyMetrics(const std::vector<Sample>& open, Result& res) {
  const std::vector<double> lat = LatenciesMs(open);
  double used = 0.0;
  const double tail = TailLatency(lat, &used);
  std::fprintf(stderr, "open loop: %zu samples, p50 %.3f ms, tail p%.2f %.3f ms\n", lat.size(),
               Median(lat), used * 100.0, tail);
  res.Add("p50_ms", "ms", Median(lat));
  res.Add("p99_ms", "ms", tail);
}

NextInput Cycle(const std::vector<Input>& inputs) {
  return [&inputs](std::size_t k, const std::string** frame, std::size_t* input) {
    *input = k % inputs.size();
    *frame = &inputs[*input].frame;
    return true;
  };
}

// ---- slotted runs ---------------------------------------------------------

// One call's per-slot records. They live only until FoldSlotCall has
// checked them, so the harness's memory does not grow with the number of
// calls a run fits.
struct SlotCall {
  double setup_s = 0.0;              // call → first slot complete
  double wall_s = 0.0;               // call → return
  std::vector<double> slot_ms;       // wall time of slots 1..n-1
  std::vector<SlotTally> tallies;
  std::vector<fadesched::net::Schedule> schedules;
  std::vector<double> backlogged;
  fadesched::dynamics::DynamicsResult result;
};

SlotCall RunSlotCall(const fadesched::testing::ScenarioCase& universe, const SlotArm& arm,
                     std::size_t slots, std::uint64_t seed) {
  SlotCall call;
  fadesched::dynamics::DynamicsOptions options;
  options.num_slots = slots;
  options.warmup_slots = 0;
  options.seed = seed;
  options.arrivals.rate = arm.rate;
  call.slot_ms.reserve(slots);
  call.tallies.reserve(slots);
  call.schedules.reserve(slots);
  call.backlogged.reserve(slots);
  double last = 0.0;
  const double start = Now();
  options.slot_observer = [&](const fadesched::dynamics::SlotRecord& r) {
    const double now = Now();
    if (r.slot == 0) {
      call.setup_s = now - start;
    } else {
      call.slot_ms.push_back((now - last) * 1e3);
    }
    last = now;
    call.tallies.push_back({r.arrivals, r.schedule.size(), r.delivered, r.failed, r.total_backlog});
    call.schedules.push_back(r.schedule);
    call.backlogged.push_back(static_cast<double>(r.backlogged));
  };
  call.result = fadesched::dynamics::RunSlottedSimulation(universe.links, universe.params,
                                                          arm.scheduler, options);
  call.wall_s = Now() - start;
  return call;
}

// What a run keeps of its calls: sums, one set-up time per call and a
// slot-time median and tail per call.
struct SlotTotals {
  struct Arm {
    std::vector<double> p50_ms, tail_ms;  // per call
    std::uint64_t failed = 0, scheduled = 0;  // transmissions, for the ε bound
  };
  std::map<std::string, Arm> arms;
  std::vector<double> setups;
  std::vector<double> backlogged;  // per-call median
  std::uint64_t slots_run = 0, scheduled_slots = 0, failed = 0;
  double timed_slots = 0.0, slot_time = 0.0, schedule_s = 0.0, other_s = 0.0;
  double rate_sum = 0.0, schedules = 0.0;  // Σλ over the nonempty slot schedules
};

// Checks one call (ledger, Corollary 3.1 on every slot's schedule) and
// folds it into `t`.
void FoldSlotCall(const SlotCall& c, const SlotArm& arm, const Geometry& g, SlotTotals& t,
                  Result& res) {
  const auto& r = c.result;
  res.Expect(CheckLedger(c.tallies, {r.ledger.arrivals, r.ledger.delivered,
                                     r.ledger.dropped_blocked + r.ledger.dropped_overflow,
                                     r.ledger.residual, r.scheduled_transmissions,
                                     r.failed_transmissions}));
  for (const auto& schedule : c.schedules) {
    if (schedule.empty()) continue;
    res.Expect(CheckCorollary31(g, schedule));
    for (const auto id : schedule) t.rate_sum += g.rate[id];
    t.schedules += 1.0;
  }
  SlotTotals::Arm& arm_totals = t.arms[arm.scheduler];
  arm_totals.p50_ms.push_back(Median(c.slot_ms));
  double used = 0.0;
  arm_totals.tail_ms.push_back(TailLatency(c.slot_ms, &used));
  arm_totals.failed += r.failed_transmissions;
  arm_totals.scheduled += r.scheduled_transmissions;
  t.setups.push_back(c.setup_s);
  t.backlogged.push_back(Median(c.backlogged));
  t.slots_run += r.slots_run;
  t.scheduled_slots += r.scheduled_slots;
  t.failed += r.failed_transmissions;
  t.timed_slots += static_cast<double>(c.slot_ms.size());
  t.slot_time += c.wall_s - c.setup_s;
  t.schedule_s += r.schedule_seconds;
  t.other_s += c.wall_s - r.schedule_seconds;
}

void CheckFailureBounds(const SlotTotals& t, double epsilon, Result& res) {
  for (const auto& [name, arm] : t.arms) {
    res.Expect(CheckFailureBound(arm.failed, arm.scheduled, epsilon));
  }
}

// Mean over the schedulers of the median, over that scheduler's calls, of
// a per-call slot-time figure. Each scheduler's calls are alike, and the
// two schedulers' slot times differ, so a median over all calls would sit
// between the two groups.
double ArmMeanOfMedians(const SlotTotals& t, std::vector<double> SlotTotals::Arm::*figure) {
  double sum = 0.0;
  for (const auto& [name, arm] : t.arms) sum += Median(arm.*figure);
  return t.arms.empty() ? 0.0 : sum / static_cast<double>(t.arms.size());
}

LayerValues DynamicsLayerValues(const SlotTotals& t) {
  const std::size_t slots = t.slots_run;
  const double per_scheduled =
      t.scheduled_slots > 0 ? 1e3 / static_cast<double>(t.scheduled_slots) : 0.0;
  const double per_slot = slots > 0 ? 1e3 / static_cast<double>(slots) : 0.0;
  double backlogged = 0.0;
  for (const double b : t.backlogged) backlogged += b;
  if (!t.backlogged.empty()) backlogged /= static_cast<double>(t.backlogged.size());
  return {{"dynamics.schedule_ms_per_slot",
           {t.schedule_s * per_scheduled, "ms", t.scheduled_slots}},
          {"dynamics.other_ms_per_slot", {t.other_s * per_slot, "ms", slots}},
          {"dynamics.backlogged_links", {backlogged, "count", slots}},
          {"dynamics.failed_transmissions", {static_cast<double>(t.failed), "count", slots}}};
}

// ---- traced replay --------------------------------------------------------

// Runs the layer replay untraced and traced, and adds every per-layer
// metric to `res`. `live` holds figures measured against the workload's
// own server or simulator; they replace the replay's in-process ones.
void AddLayerMetrics(const Args& a, const std::vector<const SchedulingRequest*>& sample,
                     std::size_t subset_size, fadesched::channel::FactorBackend backend,
                     const LayerValues& live, const std::vector<std::string>& blocking_path,
                     double p50_ms, Result& res) {
  // Three untraced and three traced passes, alternating; the overhead is
  // the difference of their median wall times.
  Tracer off(false), on(true);
  std::vector<double> untraced_s, traced_s;
  LayerValues values;
  for (int pass = 0; pass < 3; ++pass) {
    double t0 = Now();
    ReplayLayers(sample, subset_size, backend, off);
    untraced_s.push_back(Now() - t0);
    t0 = Now();
    values = ReplayLayers(sample, subset_size, backend, on);
    traced_s.push_back(Now() - t0);
  }
  on.Write(a.trace_out);

  for (const auto& [name, v] : live) values[name] = v;
  const double untraced = Median(untraced_s), traced = Median(traced_s);
  values["bench.trace_overhead_pct"] = {(traced - untraced) / untraced * 100.0, "%", 3};
  double path_us = 0.0;
  for (const std::string& stage : blocking_path) {
    const LayerValue& v = values.at(stage);
    path_us += v.unit == "ms" ? v.value * 1e3 : v.value;
  }
  values["transport_residual_us"] = {p50_ms * 1e3 - path_us, "us", 1};

  std::printf("%-36s %14s %-6s %s\n", "layer", "median", "unit", "samples");
  for (const auto& [name, v] : values) {
    std::printf("%-36s %14.3f %-6s n=%zu\n", name.c_str(), v.value, v.unit.c_str(), v.samples);
  }
  std::printf("blocking path:");
  for (const std::string& stage : blocking_path) std::printf(" %s", stage.c_str());
  std::printf(" + transport_residual_us = p50 %.3f ms\n", p50_ms);
  std::printf("replay median %.3f s untraced, %.3f s traced (3 passes each); spans in %s\n",
              untraced, traced, a.trace_out.c_str());
  for (const auto& [name, v] : values) {
    if (name.find(".n") != std::string::npos && name.rfind("shard.frame_scan_us.", 0) == 0) {
      continue;  // per-size scan costs are reported above, not as metrics
    }
    res.Add(name, v.unit, v.value);
  }
}

std::vector<const SchedulingRequest*> SampleOf(const std::vector<Input>& inputs) {
  std::vector<const SchedulingRequest*> out;
  for (std::size_t k = 0; k < std::min(kReplaySample, inputs.size()); ++k) {
    out.push_back(&inputs[k].request);
  }
  return out;
}

std::vector<std::string> ServerArgv(const Args& a, const std::string& sock,
                                    std::vector<std::string> extra) {
  std::vector<std::string> argv = {a.cli, "serve", "--unix", sock};
  argv.insert(argv.end(), extra.begin(), extra.end());
  return argv;
}

// Figures only a live server and the open loop driving it give.
LayerValues LiveServing(const std::vector<Input>& inputs, const std::vector<Sample>& open,
                        const std::map<std::string, double>& stats) {
  std::vector<double> late;
  std::vector<const std::string*> frames;
  for (const Sample& s : open) {
    late.push_back((s.sent - s.due) * 1e3);
    frames.push_back(&inputs[s.input].frame);
  }
  const auto stat = [&stats](const char* key) {
    return stats.count(key) ? stats.at(key) : 0.0;
  };
  const double lookups = stat("response_hits") + stat("response_misses");
  std::printf("STATS: %.0f response hits / %.0f lookups\n", stat("response_hits"), lookups);
  return {{"shard.warm_hit_ratio", {lookups > 0 ? stat("response_hits") / lookups : 0.0, "ratio",
                                    static_cast<std::size_t>(lookups)}},
          {"shard.max_shard_share", {MaxShardShare(frames, kShards), "ratio", frames.size()}},
          {"service.queue_delay_ewma_us", {stat("queue_delay_ewma_us"), "us", 1}},
          {"bench.generator_late_ms", {Median(late), "ms", late.size()}}};
}

// The traced part of a serving workload: live figures from its server and
// open loop, dynamics on one of its inputs, then the layer replay.
void AddServingLayerMetrics(const Args& a, const std::vector<Input>& inputs,
                            const std::vector<Sample>& open,
                            const std::map<std::string, double>& stats,
                            const fadesched::testing::ScenarioCase& largest,
                            const std::vector<std::string>& blocking_path, Result& res) {
  LayerValues live = LiveServing(inputs, open, stats);
  SlotTotals dynamics;
  FoldSlotCall(RunSlotCall(largest, kSlotArms[0], kSlotsPerCall / 4, a.seed), kSlotArms[0],
               GeometryOf(largest), dynamics, res);
  live.merge(DynamicsLayerValues(dynamics));
  AddLayerMetrics(a, SampleOf(inputs), kSlotLinks / 10, fadesched::channel::FactorBackend::kTables,
                  live, blocking_path, Median(LatenciesMs(open)), res);
}

void AddServingMetrics(const std::vector<double>& setups, double rss,
                       const std::vector<Sample>& open, const std::vector<Sample>& closed,
                       const std::vector<Input>& inputs, Result& res) {
  res.Add("setup_s", "s", Median(setups));
  res.Add("peak_rss_mb", "MiB", rss);
  AddLatencyMetrics(open, res);
  res.Add("req_per_s", "req/s", ThroughputPerS(closed));
  res.Add("schedule_rate", "links", ScheduleRate(inputs));
}

std::vector<std::string> WarmServerFlags() {
  return {"--shards", std::to_string(kShards), "--workers", kWarmWorkersPerShard,
          "--cache-mb", kWarmCacheMb, "--routing", "affinity"};
}

void ExpectDrained(int status, Result& res) {
  if (!(WIFEXITED(status) && WEXITSTATUS(status) == 0)) {
    res.Expect("server did not drain to exit 0 (wait status " + std::to_string(status) + ")");
  }
}

// slotted_dynamics has no server, open loop or shard. Its traced run
// serves the universe under each arm's scheduler through the sharded tier
// (warm_repeat's configuration) in a short open loop, so those layers'
// figures are measured on the workload's own inputs, as the dynamics
// figures of the serving workloads come from a simulator call on theirs.
LayerValues ServeLeg(const Args& a, std::vector<Input>& inputs, Result& res) {
  const std::string sock = a.work_dir + "/leg.sock";
  ServerProcess server(ServerArgv(a, sock, WarmServerFlags()), a.work_dir + "/leg.log", sock);
  FormatFrames(inputs);
  const std::vector<Sample> open =
      RunLoad({sock, kConnections, kWarmRatePerS, kServeLegSeconds}, Cycle(inputs));
  const auto stats = ParseStats(QueryStats(sock));
  ExpectDrained(server.Stop(), res);
  CheckSamples(open, inputs, res);
  return LiveServing(inputs, open, stats);
}

}  // namespace

Result RunWarmRepeat(const Args& a) {
  Result res;
  std::vector<Input> inputs;
  for (std::size_t k = 0; k < kWarmPool; ++k) {
    inputs.push_back(MakeInput(kWarmLinks, a.seed, kWarmStream, k, "rle",
                               std::string("w").append(std::to_string(k))));
  }
  const std::string sock = a.work_dir + "/warm.sock";
  const auto argv = ServerArgv(a, sock, WarmServerFlags());
  // Set-up: spawn until ready, format the pool, one warm-up pass.
  std::vector<double> setups;
  std::vector<Sample> all;
  std::unique_ptr<ServerProcess> server;
  for (int rep = 0; rep < (a.trace ? 1 : kSetupRepeats); ++rep) {
    server.reset();
    const double t0 = Now();
    server = std::make_unique<ServerProcess>(argv, a.work_dir + "/warm.log", sock);
    FormatFrames(inputs);
    const std::vector<Sample> warm =
        RunLoad({sock, kConnections, 0.0, 1e9, inputs.size()}, Cycle(inputs));
    setups.push_back(Now() - t0);
    all.insert(all.end(), warm.begin(), warm.end());
  }

  const std::vector<Sample> open =
      RunLoad({sock, kConnections, kWarmRatePerS, a.seconds * kOpenShare}, Cycle(inputs));
  all.insert(all.end(), open.begin(), open.end());
  std::vector<Sample> closed;
  if (!a.trace) {
    closed = RunLoad({sock, kConnections, 0.0, a.seconds * (1.0 - kOpenShare)}, Cycle(inputs));
    all.insert(all.end(), closed.begin(), closed.end());
  }
  const auto stats = ParseStats(QueryStats(sock));
  const double rss = server->PeakRssMb();
  ExpectDrained(server->Stop(), res);
  CheckSamples(all, inputs, res);

  if (!a.trace) {
    AddServingMetrics(setups, rss, open, closed, inputs, res);
  } else {
    AddServingLayerMetrics(a, inputs, open, stats, inputs.front().request.scenario,
                           {"shard.frame_scan_us", "shard.routing_key_us", "shard.pipe_codec_us",
                            "protocol.parse_request_us", "service.handle_hit_us",
                            "protocol.format_response_us"},
                           res);
  }
  return res;
}

Result RunColdUnique(const Args& a) {
  Result res;
  std::vector<Input> inputs;
  for (std::size_t k = 0; k < kColdInputs; ++k) {
    inputs.push_back(MakeInput(kColdSizes[k % std::size(kColdSizes)], a.seed, kColdStream, k,
                               kColdSchedulers[k % std::size(kColdSchedulers)],
                               std::string("c").append(std::to_string(k))));
  }
  const std::string sock = a.work_dir + "/cold.sock";
  const auto argv = ServerArgv(a, sock, {"--workers", kColdWorkers, "--cache-mb", kColdCacheMb,
                                         "--queue-capacity", "1024"});
  // Set-up: spawn until ready, format every frame.
  std::vector<double> setups;
  std::unique_ptr<ServerProcess> server;
  for (int rep = 0; rep < (a.trace ? 1 : kSetupRepeats); ++rep) {
    server.reset();
    const double t0 = Now();
    server = std::make_unique<ServerProcess>(argv, a.work_dir + "/cold.log", sock);
    FormatFrames(inputs);
    setups.push_back(Now() - t0);
  }

  std::vector<Sample> all;
  const std::vector<Sample> open =
      RunLoad({sock, kConnections, kColdRatePerS, a.seconds * kOpenShare}, Cycle(inputs));
  all.insert(all.end(), open.begin(), open.end());
  // Each repeat of an input is recomputed after eviction; its reply must
  // be byte-identical to the first computation.
  std::vector<Sample> closed;
  if (!a.trace) {
    closed = RunLoad({sock, kConnections, 0.0, a.seconds * (1.0 - kOpenShare)}, Cycle(inputs));
    all.insert(all.end(), closed.begin(), closed.end());
  }
  const auto stats = ParseStats(QueryStats(sock));
  const double rss = server->PeakRssMb();
  ExpectDrained(server->Stop(), res);
  CheckSamples(all, inputs, res);

  if (!a.trace) {
    AddServingMetrics(setups, rss, open, closed, inputs, res);
  } else {
    AddServingLayerMetrics(a, inputs, open, stats, inputs[std::size(kColdSizes) - 1].request.scenario,
                           {"protocol.parse_request_us", "service.handle_miss_us",
                            "protocol.format_response_us"},
                           res);
  }
  return res;
}

Result RunSlottedDynamics(const Args& a) {
  Result res;
  const fadesched::testing::ScenarioCase universe =
      MakeScenario(kSlotLinks, a.seed, kSlotStream, 0);
  const Geometry geometry = GeometryOf(universe);

  // Whole rounds of one call per arm until the run length is spent; each
  // call is checked and folded into the totals as soon as it returns.
  SlotTotals totals;
  const double start = Now();
  const double length = a.trace ? 0.0 : a.seconds;
  std::uint64_t call_seed = a.seed * 1000;
  do {
    for (const SlotArm& arm : kSlotArms) {
      FoldSlotCall(RunSlotCall(universe, arm, kSlotsPerCall, ++call_seed), arm, geometry, totals,
                   res);
    }
  } while (Now() - start < length);
  CheckFailureBounds(totals, geometry.epsilon, res);
  res.attempted += totals.slots_run;

  const double p50_ms = ArmMeanOfMedians(totals, &SlotTotals::Arm::p50_ms);
  if (!a.trace) {
    const double tail_ms = ArmMeanOfMedians(totals, &SlotTotals::Arm::tail_ms);
    std::fprintf(stderr, "slots: %.0f timed, p50 %.4f ms, p99 %.4f ms\n", totals.timed_slots,
                 p50_ms, tail_ms);
    res.Add("setup_s", "s", Median(totals.setups));
    res.Add("peak_rss_mb", "MiB", PeakRssMb(static_cast<int>(::getpid())));
    res.Add("p50_ms", "ms", p50_ms);
    res.Add("p99_ms", "ms", tail_ms);
    res.Add("req_per_s", "req/s", totals.timed_slots / totals.slot_time);
    res.Add("schedule_rate", "links",
            totals.schedules > 0 ? totals.rate_sum / totals.schedules : 0.0);
    return res;
  }

  // Traced: the slot's blocking path is the per-slot scheduling time plus
  // the rest of the slot (arrivals, fading draws, ledger).
  LayerValues live = DynamicsLayerValues(totals);
  std::vector<Input> sample;
  for (std::size_t k = 0; k < std::size(kSlotArms); ++k) {
    Input in;
    in.request.scenario = universe;
    in.request.scheduler = kSlotArms[k].scheduler;
    in.request.id = std::string("s").append(std::to_string(k));
    in.fading_feasible = fadesched::sched::ContractFor(in.request.scheduler).fading_feasible;
    sample.push_back(std::move(in));
  }
  live.merge(ServeLeg(a, sample, res));
  const double backlogged = live.at("dynamics.backlogged_links").value;
  AddLayerMetrics(a, SampleOf(sample), static_cast<std::size_t>(std::max(1.0, backlogged)),
                  fadesched::channel::FactorBackend::kMatrix, live,
                  {"dynamics.schedule_ms_per_slot", "dynamics.other_ms_per_slot"}, p50_ms, res);
  return res;
}

}  // namespace perfbench
