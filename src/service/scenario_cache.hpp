// Bounded-memory LRU cache of scheduling state, keyed by the canonical
// content fingerprint.
//
// Three levels share one byte budget and one recency list:
//
//   * scenario entries — the parsed LinkSet plus a built
//     channel::InterferenceEngine (the service's configured backend), so
//     a repeated or perturbed-then-repeated topology skips the O(N)
//     table / O(N²) matrix rebuild. Entries are handed out as
//     shared_ptr<const ...>, so eviction can never invalidate an engine a
//     worker is scheduling against.
//   * response entries — the completed SchedulingResponse for
//     (scenario, scheduler), so an identical repeat request skips
//     scheduling entirely.
//   * memo entries — the same response keyed by (scheduler, raw payload
//     bytes) of a verified request frame, so a byte-identical repeat
//     skips parsing and fingerprinting too (SchedulingService::SubmitFrame).
//
// Hash collisions are rejected, not served: every entry stores the bytes
// it was keyed by and a lookup compares them before declaring a hit (a
// 64-bit hash makes collisions rare; comparing makes serving a wrong
// schedule impossible). A scenario entry and the response entries stored
// against it share one copy of the canonical blob.
//
// All operations are thread-safe behind one mutex; engine builds happen
// OUTSIDE the lock so a large miss cannot stall concurrent hits. Two
// threads missing on the same key may both build — the first insert wins,
// which is harmless because engine construction is deterministic.
#pragma once

#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "channel/batch_interference.hpp"
#include "channel/params.hpp"
#include "net/link_set.hpp"
#include "service/metrics.hpp"
#include "service/request.hpp"

namespace fadesched::service {

struct CacheOptions {
  /// Total budget across scenario and response entries. Inserting an
  /// over-budget entry evicts from the LRU tail first; a single entry
  /// larger than the whole budget is still admitted (and evicted as soon
  /// as anything newer lands) so a giant scenario cannot wedge the
  /// service.
  std::size_t capacity_bytes = 256ull << 20;

  /// Backend configuration for memoized engines. `shared` must be empty;
  /// the cache is the thing that fills it in.
  channel::EngineOptions engine;
};

class ScenarioCache {
 public:
  /// Memoized per-scenario state. Immutable after construction; the
  /// engine's internal LinkSet pointer targets `links`, which lives and
  /// dies with the entry.
  struct Scenario {
    net::LinkSet links;
    channel::ChannelParams params;
    /// The canonical blob this entry is keyed by; the guards of its node
    /// and of the response nodes stored with it point at this one copy.
    std::shared_ptr<const std::string> canonical;
    std::optional<channel::InterferenceEngine> engine;
    std::size_t cost_bytes = 0;
  };
  using ScenarioPtr = std::shared_ptr<const Scenario>;

  /// `metrics` may be null (the cache then keeps no counters).
  explicit ScenarioCache(CacheOptions options = {},
                         ServiceMetrics* metrics = nullptr);

  /// Returns the memoized state for `fp`, building (links copied out of
  /// `request.scenario`, engine constructed with the configured backend)
  /// and inserting on miss. Sets *hit accordingly when non-null.
  /// `degrade_build` cheapens the engine build for this miss only (the
  /// brownout path): a kMatrix backend keeps its matrix but builds it
  /// through the SIMD precision ladder; any other backend drops to the
  /// kTables tables-only build. Safe because the ladder stays inside the
  /// backends' accuracy contract and schedules are identical, so
  /// whichever entry lands first serves everyone correctly.
  ScenarioPtr ObtainScenario(const Fingerprint& fp,
                             const SchedulingRequest& request,
                             bool* hit = nullptr, bool degrade_build = false);

  /// True when serving `fp` would be cheap: its response or its built
  /// scenario is resident. A pure peek — no LRU touch, no counters — so
  /// admission-time classification cannot perturb eviction order or the
  /// hit-rate metrics.
  [[nodiscard]] bool IsWarm(const Fingerprint& fp) const;

  /// Response memoization. Lookup copies the stored response into *out
  /// (id/cache_hit fields left for the caller to stamp). Store ignores
  /// non-kOk responses — admission failures must not be replayed.
  /// `count_miss=false` is for pre-handler probes (the Submit fast path):
  /// a probe that misses hands the request to HandleNow, whose own lookup
  /// is the authoritative miss — counting both would double every cold
  /// request in the warm-hit-rate denominator.
  /// StoreResponse's `canonical`, when given, is the resident scenario's
  /// blob for `fp` (ObtainScenario's entry->canonical); the response node
  /// then shares it instead of copying fp.canonical_scenario.
  bool LookupResponse(const Fingerprint& fp, SchedulingResponse* out,
                      bool count_miss = true);
  void StoreResponse(const Fingerprint& fp, const SchedulingResponse& response,
                     std::shared_ptr<const std::string> canonical = nullptr);

  /// Raw-frame memo, keyed by `hash` (MemoHash in production; tests pass
  /// their own to force collisions) and guarded by a full compare of
  /// scheduler and payload. A hit counts in response_hits and memo_hits
  /// and copies the response into *out; a miss counts nothing — the full
  /// path behind it does the authoritative lookup. Store is a no-op for
  /// non-kOk responses or a key already resident.
  static std::uint64_t MemoHash(std::string_view scheduler,
                                std::string_view payload);
  bool LookupMemo(std::uint64_t hash, std::string_view scheduler,
                  std::string_view payload, SchedulingResponse* out);
  void StoreMemo(std::uint64_t hash, std::string_view scheduler,
                 std::string_view payload, const SchedulingResponse& response);

  [[nodiscard]] std::size_t CurrentBytes() const;
  [[nodiscard]] std::size_t NumEntries() const;

  /// Drops everything (tests; administrative reset).
  void Clear();

  /// Cost model used for the byte budget, exposed for tests.
  static std::size_t EstimateScenarioBytes(const Scenario& scenario,
                                           const channel::EngineOptions& engine);

 private:
  enum class Level : std::uint8_t { kScenario, kResponse, kMemo };

  // One LRU node covers any level. The exact-match key is (level,
  // scheduler, *bytes): the canonical blob for scenario and response
  // nodes (scheduler empty on scenario nodes), the raw payload for memo
  // nodes. A scenario node carries `scenario`, the others `response`.
  struct Node {
    Level level = Level::kScenario;
    std::uint64_t hash = 0;
    std::string scheduler;
    std::shared_ptr<const std::string> bytes;
    ScenarioPtr scenario;
    std::optional<SchedulingResponse> response;
    std::size_t cost_bytes = 0;

    [[nodiscard]] bool Matches(Level l, std::string_view s,
                               std::string_view b) const {
      return level == l && scheduler == s && *bytes == b;
    }
  };
  using LruList = std::list<Node>;

  /// Moves the node to the front (most recent). Caller holds the mutex.
  void TouchLocked(LruList::iterator it);
  /// Evicts LRU tail nodes until the budget holds. Caller holds the mutex.
  void EvictLocked();
  /// The matching node, or lru_.end(); every same-hash node that does
  /// not match counts as a collision. Caller holds the mutex.
  LruList::iterator FindLocked(Level level, std::uint64_t hash,
                               std::string_view scheduler,
                               std::string_view bytes);
  /// Links a new node at the front and evicts to budget. Caller holds
  /// the mutex.
  void InsertLocked(Node node);

  void Bump(std::atomic<std::uint64_t> ServiceMetrics::* counter) const;

  CacheOptions options_;
  ServiceMetrics* metrics_;

  mutable std::mutex mutex_;
  LruList lru_;  // front = most recently used
  std::unordered_multimap<std::uint64_t, LruList::iterator> index_;
  std::size_t current_bytes_ = 0;
};

}  // namespace fadesched::service
