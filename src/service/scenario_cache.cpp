#include "service/scenario_cache.hpp"

#include <functional>
#include <utility>

#include "util/check.hpp"

namespace fadesched::service {

namespace {

// Fixed per-node bookkeeping (list/map nodes, small strings) — a floor so
// a cache of thousands of tiny responses still respects the budget.
constexpr std::size_t kNodeOverheadBytes = 512;

std::size_t EstimateResponseBytes(const Fingerprint& fp,
                                  const SchedulingResponse& response) {
  // The blob is charged even when shared with a scenario node: a response
  // node keeps it alive after that node is evicted.
  return kNodeOverheadBytes + fp.canonical_scenario.size() +
         response.schedule.size() * sizeof(net::LinkId) +
         response.message.size();
}

std::size_t EstimateMemoBytes(std::string_view scheduler,
                              std::string_view payload,
                              const SchedulingResponse& response) {
  return kNodeOverheadBytes + scheduler.size() + payload.size() +
         response.schedule.size() * sizeof(net::LinkId) +
         response.message.size();
}

}  // namespace

ScenarioCache::ScenarioCache(CacheOptions options, ServiceMetrics* metrics)
    : options_(std::move(options)), metrics_(metrics) {
  FS_CHECK_MSG(options_.engine.shared == nullptr,
               "CacheOptions::engine.shared must be empty — the cache fills "
               "it in per request");
}

void ScenarioCache::Bump(
    std::atomic<std::uint64_t> ServiceMetrics::* counter) const {
  if (metrics_ != nullptr) {
    (metrics_->*counter).fetch_add(1, std::memory_order_relaxed);
  }
}

ScenarioCache::LruList::iterator ScenarioCache::FindLocked(
    Level level, std::uint64_t hash, std::string_view scheduler,
    std::string_view bytes) {
  auto [begin, end] = index_.equal_range(hash);
  for (auto it = begin; it != end; ++it) {
    if (it->second->Matches(level, scheduler, bytes)) return it->second;
    Bump(&ServiceMetrics::cache_collisions);
  }
  return lru_.end();
}

void ScenarioCache::InsertLocked(Node node) {
  const std::uint64_t hash = node.hash;
  current_bytes_ += node.cost_bytes;
  lru_.push_front(std::move(node));
  index_.emplace(hash, lru_.begin());
  EvictLocked();
}

void ScenarioCache::TouchLocked(LruList::iterator it) {
  lru_.splice(lru_.begin(), lru_, it);
}

void ScenarioCache::EvictLocked() {
  while (current_bytes_ > options_.capacity_bytes && lru_.size() > 1) {
    const auto victim = std::prev(lru_.end());
    auto [begin, end] = index_.equal_range(victim->hash);
    for (auto it = begin; it != end; ++it) {
      if (it->second == victim) {
        index_.erase(it);
        break;
      }
    }
    current_bytes_ -= victim->cost_bytes;
    lru_.erase(victim);
    Bump(&ServiceMetrics::cache_evictions);
  }
}

std::size_t ScenarioCache::EstimateScenarioBytes(
    const Scenario& scenario, const channel::EngineOptions& engine) {
  const std::size_t n = scenario.links.Size();
  // LinkSet SoA (7 doubles/link) + the engine's per-link tables (another
  // 7 doubles/link) + the canonical bytes held for the collision guard.
  std::size_t bytes = kNodeOverheadBytes +
                      (scenario.canonical ? scenario.canonical->size() : 0) +
                      14 * sizeof(double) * n;
  if (engine.backend == channel::FactorBackend::kMatrix) {
    bytes += n * n * sizeof(double);  // the materialized factor matrix
  }
  return bytes;
}

bool ScenarioCache::IsWarm(const Fingerprint& fp) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto resident = [this, &fp](Level level, std::uint64_t hash,
                               std::string_view scheduler) {
    auto [begin, end] = index_.equal_range(hash);
    for (auto it = begin; it != end; ++it) {
      if (it->second->Matches(level, scheduler, fp.canonical_scenario)) {
        return true;
      }
    }
    return false;
  };
  return resident(Level::kResponse, fp.request_hash, fp.scheduler) ||
         resident(Level::kScenario, fp.scenario_hash, {});
}

ScenarioCache::ScenarioPtr ScenarioCache::ObtainScenario(
    const Fingerprint& fp, const SchedulingRequest& request, bool* hit,
    bool degrade_build) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it =
        FindLocked(Level::kScenario, fp.scenario_hash, {}, fp.canonical_scenario);
    if (it != lru_.end()) {
      TouchLocked(it);
      Bump(&ServiceMetrics::scenario_hits);
      if (hit != nullptr) *hit = true;
      return it->scenario;
    }
  }

  // Miss: build outside the lock. The entry sits behind a shared_ptr, so
  // `built->links` has its final address before the engine captures it.
  Bump(&ServiceMetrics::scenario_misses);
  if (hit != nullptr) *hit = false;
  auto built = std::make_shared<Scenario>();
  built->links = request.scenario.links;
  built->params = request.scenario.params;
  built->canonical = std::make_shared<const std::string>(fp.canonical_scenario);
  channel::EngineOptions engine_options = options_.engine;
  engine_options.shared.reset();
  if (degrade_build) {
    // Brownout: a matrix backend keeps matrix-speed queries but takes the
    // ~10× cheaper SIMD ladder build; everything else degrades to the
    // tables-only build as before.
    if (engine_options.backend == channel::FactorBackend::kMatrix) {
      engine_options.ladder.enabled = true;
    } else {
      engine_options.backend = channel::FactorBackend::kTables;
    }
  }
  built->engine.emplace(built->links, built->params, engine_options);
  built->cost_bytes = EstimateScenarioBytes(*built, engine_options);

  std::lock_guard<std::mutex> lock(mutex_);
  // Two threads may have raced the build; first insert wins and the loser
  // adopts it (both engines are bit-identical, so either is correct).
  const auto raced =
      FindLocked(Level::kScenario, fp.scenario_hash, {}, fp.canonical_scenario);
  if (raced != lru_.end()) {
    TouchLocked(raced);
    return raced->scenario;
  }
  Node node;
  node.level = Level::kScenario;
  node.hash = fp.scenario_hash;
  node.bytes = built->canonical;
  node.scenario = built;
  node.cost_bytes = built->cost_bytes;
  InsertLocked(std::move(node));
  return built;
}

bool ScenarioCache::LookupResponse(const Fingerprint& fp,
                                   SchedulingResponse* out,
                                   bool count_miss) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = FindLocked(Level::kResponse, fp.request_hash, fp.scheduler,
                             fp.canonical_scenario);
  if (it == lru_.end()) {
    if (count_miss) Bump(&ServiceMetrics::response_misses);
    return false;
  }
  TouchLocked(it);
  Bump(&ServiceMetrics::response_hits);
  if (out != nullptr) *out = *it->response;
  return true;
}

void ScenarioCache::StoreResponse(const Fingerprint& fp,
                                  const SchedulingResponse& response,
                                  std::shared_ptr<const std::string> canonical) {
  if (!response.Ok()) return;  // admission failures must not be replayed
  SchedulingResponse stored = response;
  stored.id.clear();          // correlation tag is per-request
  stored.cache_hit = false;   // stamped by the caller on each serve
  const std::size_t cost = EstimateResponseBytes(fp, stored);

  std::lock_guard<std::mutex> lock(mutex_);
  if (FindLocked(Level::kResponse, fp.request_hash, fp.scheduler,
                 fp.canonical_scenario) != lru_.end()) {
    return;
  }
  Node node;
  node.level = Level::kResponse;
  node.hash = fp.request_hash;
  node.scheduler = fp.scheduler;
  node.bytes = canonical != nullptr
                   ? std::move(canonical)
                   : std::make_shared<const std::string>(fp.canonical_scenario);
  node.response = std::move(stored);
  node.cost_bytes = cost;
  InsertLocked(std::move(node));
}

std::uint64_t ScenarioCache::MemoHash(std::string_view scheduler,
                                      std::string_view payload) {
  // Any cheap hash will do: every hit is confirmed by a full compare.
  const std::hash<std::string_view> hasher;
  return hasher(payload) ^ (hasher(scheduler) * 0x9e3779b97f4a7c15ull);
}

bool ScenarioCache::LookupMemo(std::uint64_t hash, std::string_view scheduler,
                               std::string_view payload,
                               SchedulingResponse* out) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = FindLocked(Level::kMemo, hash, scheduler, payload);
  if (it == lru_.end()) return false;
  TouchLocked(it);
  Bump(&ServiceMetrics::response_hits);
  Bump(&ServiceMetrics::memo_hits);
  if (out != nullptr) *out = *it->response;
  return true;
}

void ScenarioCache::StoreMemo(std::uint64_t hash, std::string_view scheduler,
                              std::string_view payload,
                              const SchedulingResponse& response) {
  if (!response.Ok()) return;
  SchedulingResponse stored = response;
  stored.id.clear();
  stored.cache_hit = false;
  const std::size_t cost = EstimateMemoBytes(scheduler, payload, stored);
  // The payload is copied outside the lock; of two racing stores of one
  // key the first insert wins.
  Node node;
  node.level = Level::kMemo;
  node.hash = hash;
  node.scheduler = std::string(scheduler);
  node.bytes = std::make_shared<const std::string>(payload);
  node.response = std::move(stored);
  node.cost_bytes = cost;
  std::lock_guard<std::mutex> lock(mutex_);
  if (FindLocked(Level::kMemo, hash, scheduler, payload) != lru_.end()) return;
  InsertLocked(std::move(node));
}

std::size_t ScenarioCache::CurrentBytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return current_bytes_;
}

std::size_t ScenarioCache::NumEntries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

void ScenarioCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  index_.clear();
  current_bytes_ = 0;
}

}  // namespace fadesched::service
