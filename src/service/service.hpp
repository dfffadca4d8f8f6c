// The scheduling service: fingerprint → response cache → scenario cache →
// registry-resolved scheduler, fronted by the RequestBatcher.
//
// Determinism contract: identical request content produces a byte-
// identical schedule whether it is computed fresh, recomputed after an
// eviction, or served from the response cache — the cache memoizes work,
// never changes answers. This holds because (a) the fingerprint is over
// canonical scenario bytes, (b) every scheduler is deterministic for a
// fixed instance, and (c) a cached engine is bit-identical to a rebuilt
// one (see channel::ObtainEngine).
//
// HandleNow() never throws: every failure is classified through the
// util::error taxonomy into a kError response, so a malformed or oversized
// instance poisons one response, not the worker thread.
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <string_view>

#include "service/batcher.hpp"
#include "service/metrics.hpp"
#include "service/request.hpp"
#include "service/scenario_cache.hpp"

namespace fadesched::service {

struct ServiceOptions {
  CacheOptions cache;
  BatcherOptions batcher;
};

class SchedulingService {
 public:
  explicit SchedulingService(ServiceOptions options = {});

  /// The full request pipeline, synchronously on the calling thread
  /// (workers call this; tests and the bench may too). Never throws.
  SchedulingResponse HandleNow(const SchedulingRequest& request);

  /// Admission-controlled path through the batcher (see batcher.hpp for
  /// the shed/timeout contract). The future is always fulfilled. Submit
  /// fingerprints the request; a response-cache hit is served inline on
  /// the calling thread (the future comes back already fulfilled), so
  /// warm latency never rides the worker queue. Misses are classified
  /// warm/cold (a pure cache peek) for the two-tier shedder; under
  /// overload, cold requests — the ones that would trigger a full engine
  /// build — are shed first.
  std::future<SchedulingResponse> Submit(SchedulingRequest request);

  /// The front ends' entry point: one carved request frame (header
  /// through the line before END), raw. In order, it
  ///   1. verifies check= over the frame's spans (VerifyRequestFrame);
  ///   2. falls through to ParseRequestFrame if that fails or the header
  ///      is not in canonical form — a parse error comes back as a typed
  ///      kError response with id "-", counted in checksum_failures
  ///      (kTransient) or protocol_errors, as before;
  ///   3. unless draining, looks up (scheduler, payload bytes) in the
  ///      cache's memo level;
  ///   4. on a hit, returns the memoized response stamped with the
  ///      frame's id — no parse, no fingerprint, ledgered like Submit's
  ///      inline hit.
  /// A miss parses and goes through Submit; when that request hits the
  /// response cache inline, its payload is memoized, so only frames that
  /// repeat pay the memo's bytes. The future is always fulfilled.
  std::future<SchedulingResponse> SubmitFrame(std::string frame);

  /// Submit + wait.
  SchedulingResponse Execute(SchedulingRequest request);

  /// Graceful shutdown: stop admission, finish queued + in-flight work.
  void Drain();

  [[nodiscard]] ServiceMetrics& Metrics() { return metrics_; }
  [[nodiscard]] ScenarioCache& Cache() { return *cache_; }
  [[nodiscard]] OverloadController& Overload() { return batcher_->Overload(); }

 private:
  /// Where a verified frame's payload can be memoized from.
  struct MemoSource {
    std::uint64_t hash = 0;
    std::string_view payload;
  };

  /// Submit, filling the memo from `memo` (may be null) on an inline hit.
  std::future<SchedulingResponse> SubmitParsed(SchedulingRequest request,
                                               const MemoSource* memo);

  ServiceMetrics metrics_;
  std::unique_ptr<ScenarioCache> cache_;
  std::unique_ptr<RequestBatcher> batcher_;
};

}  // namespace fadesched::service
