// The raw-frame response memo: SchedulingService::SubmitFrame and the
// cache's memo level. Contracts: a memo hit is byte-identical to an
// uncached HandleNow; the key is (scheduler, payload bytes) with a full
// compare behind the hash; a corrupted frame never hits; a draining
// service rejects instead of hitting; the admission ledger balances; and
// the fast header check accepts exactly what ParseRequestFrame accepts.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "service/protocol.hpp"
#include "service/scenario_cache.hpp"
#include "service/service.hpp"
#include "testing/fuzzer.hpp"
#include "util/error.hpp"

namespace fadesched::service {
namespace {

SchedulingRequest MakeRequest(const std::string& id,
                              const std::string& scheduler = "rle",
                              std::uint64_t case_index = 0) {
  fadesched::testing::ScenarioFuzzer fuzzer(31);
  SchedulingRequest request;
  request.scenario = fuzzer.Case(case_index);
  request.scheduler = scheduler;
  request.id = id;
  return request;
}

/// The frame as a front end hands it over: header through the line
/// before END.
std::string Body(const SchedulingRequest& request) {
  const std::string frame = FormatRequestFrame(request);
  return frame.substr(0, frame.size() - std::string("END\n").size());
}

std::string Line(SchedulingService& service, const std::string& body) {
  return FormatResponseLine(service.SubmitFrame(body).get());
}

/// The response line a fresh service computes for `request`.
std::string UncachedLine(const SchedulingRequest& request) {
  SchedulingService fresh;
  return FormatResponseLine(fresh.HandleNow(request));
}

TEST(ResponseMemoTest, FillsOnTheFirstCacheHitAndServesByteIdenticalLines) {
  SchedulingService service;
  const ServiceMetrics& m = service.Metrics();
  // 1st: computed. 2nd: parsed, a response-cache hit, which fills the
  // memo. 3rd and 4th: memo hits, never parsed.
  for (int i = 0; i < 4; ++i) {
    const SchedulingRequest request = MakeRequest("m" + std::to_string(i));
    const SchedulingResponse response = service.SubmitFrame(Body(request)).get();
    ASSERT_TRUE(response.Ok()) << response.message;
    EXPECT_EQ(response.id, request.id);
    EXPECT_EQ(FormatResponseLine(response), UncachedLine(request)) << i;
  }
  EXPECT_EQ(m.memo_hits.load(), 2u);
  EXPECT_EQ(m.response_hits.load(), 3u) << "memo hits count as response hits";
  EXPECT_EQ(m.submitted.load(), 4u);
  EXPECT_EQ(m.admitted.load(), 4u);
  EXPECT_EQ(m.completed.load(), 4u);
  EXPECT_EQ(m.failed.load(), 0u);
}

TEST(ResponseMemoTest, SamePayloadUnderAnotherSchedulerMisses) {
  SchedulingService service;
  for (int i = 0; i < 3; ++i) Line(service, Body(MakeRequest("r")));
  ASSERT_EQ(service.Metrics().memo_hits.load(), 1u);

  const SchedulingRequest ldp = MakeRequest("l", "ldp");
  EXPECT_EQ(Line(service, Body(ldp)), UncachedLine(ldp));
  EXPECT_EQ(service.Metrics().memo_hits.load(), 1u)
      << "the rle memo must not answer an ldp frame with the same payload";
  Line(service, Body(ldp));  // fills ldp's own memo entry
  EXPECT_EQ(Line(service, Body(ldp)), UncachedLine(ldp));
  EXPECT_EQ(service.Metrics().memo_hits.load(), 2u);
}

TEST(ResponseMemoTest, EqualKeysWithDifferentBytesMissAndCountACollision) {
  ServiceMetrics metrics;
  ScenarioCache cache({}, &metrics);
  SchedulingResponse stored;
  stored.schedule = {1, 4};
  stored.claimed_rate = 2.0;
  cache.StoreMemo(42, "rle", "payload-a\n", stored);

  SchedulingResponse out;
  EXPECT_FALSE(cache.LookupMemo(42, "rle", "payload-b\n", &out));
  EXPECT_EQ(metrics.cache_collisions.load(), 1u);
  EXPECT_FALSE(cache.LookupMemo(42, "ldp", "payload-a\n", &out));
  EXPECT_EQ(metrics.cache_collisions.load(), 2u);
  EXPECT_EQ(metrics.memo_hits.load(), 0u);

  ASSERT_TRUE(cache.LookupMemo(42, "rle", "payload-a\n", &out));
  EXPECT_EQ(out.schedule, stored.schedule);
  EXPECT_EQ(metrics.memo_hits.load(), 1u);
  EXPECT_EQ(metrics.response_hits.load(), 1u);
}

TEST(ResponseMemoTest, MemoEntriesShareTheByteBudgetAndLru) {
  const std::string payload(10'000, 'x');
  CacheOptions options;
  options.capacity_bytes = 25'000;  // room for two entries, not three
  ServiceMetrics metrics;
  ScenarioCache cache(options, &metrics);
  const SchedulingResponse ok;
  cache.StoreMemo(1, "rle", payload + "1", ok);
  EXPECT_GT(cache.CurrentBytes(), payload.size());
  cache.StoreMemo(2, "rle", payload + "2", ok);
  ASSERT_TRUE(cache.LookupMemo(1, "rle", payload + "1", nullptr));  // touch
  cache.StoreMemo(3, "rle", payload + "3", ok);
  EXPECT_EQ(cache.NumEntries(), 2u);
  EXPECT_EQ(metrics.cache_evictions.load(), 1u);
  EXPECT_TRUE(cache.LookupMemo(1, "rle", payload + "1", nullptr));
  EXPECT_FALSE(cache.LookupMemo(2, "rle", payload + "2", nullptr))
      << "the least recently used memo entry is the one evicted";
  EXPECT_LE(cache.CurrentBytes(), options.capacity_bytes);
}

TEST(ResponseMemoTest, AFlippedPayloadByteIsATransientErrorNeverAHit) {
  SchedulingService service;
  const std::string body = Body(MakeRequest("f"));
  for (int i = 0; i < 3; ++i) Line(service, body);
  ASSERT_EQ(service.Metrics().memo_hits.load(), 1u);

  // A digit changed in the last coordinate row: still a parseable
  // scenario, so only the checksum can catch it.
  std::string flipped = body;
  const std::size_t at = flipped.find_last_of("0123456789");
  flipped[at] = flipped[at] == '1' ? '2' : '1';
  std::string expected_message;
  try {
    (void)ParseRequestFrame(flipped);
  } catch (const util::HarnessError& e) {
    EXPECT_EQ(e.kind(), util::ErrorKind::kTransient);
    expected_message = e.what();
  }
  ASSERT_NE(expected_message.find("checksum mismatch"), std::string::npos);

  const SchedulingResponse response = service.SubmitFrame(flipped).get();
  EXPECT_EQ(response.status, ResponseStatus::kError);
  EXPECT_EQ(response.error_kind, util::ErrorKind::kTransient);
  EXPECT_EQ(response.message, expected_message);
  EXPECT_EQ(response.id, "-");
  EXPECT_EQ(service.Metrics().checksum_failures.load(), 1u);
  EXPECT_EQ(service.Metrics().protocol_errors.load(), 0u);
  EXPECT_EQ(service.Metrics().memo_hits.load(), 1u);
  EXPECT_EQ(service.Metrics().submitted.load(), 3u)
      << "a frame that fails to parse never reaches admission";
}

TEST(ResponseMemoTest, AMalformedFrameKeepsItsProtocolError) {
  SchedulingService service;
  const SchedulingResponse response =
      service.SubmitFrame("REQUEST id=a scheduler=rle bogus=1 check=00\n").get();
  EXPECT_EQ(response.status, ResponseStatus::kError);
  EXPECT_EQ(response.error_kind, util::ErrorKind::kFatal);
  EXPECT_NE(response.message.find("unknown header key 'bogus'"),
            std::string::npos)
      << response.message;
  EXPECT_EQ(service.Metrics().protocol_errors.load(), 1u);
  EXPECT_EQ(service.Metrics().checksum_failures.load(), 0u);
}

TEST(ResponseMemoTest, DrainingRejectsAMemoizedFrame) {
  SchedulingService service;
  const std::string body = Body(MakeRequest("d"));
  for (int i = 0; i < 3; ++i) Line(service, body);
  ASSERT_EQ(service.Metrics().memo_hits.load(), 1u);

  service.Drain();
  const SchedulingResponse response = service.SubmitFrame(body).get();
  EXPECT_EQ(response.status, ResponseStatus::kShed);
  EXPECT_EQ(response.error_kind, util::ErrorKind::kInterrupted);
  EXPECT_EQ(response.id, "d");
  EXPECT_EQ(service.Metrics().rejected_draining.load(), 1u);
  EXPECT_EQ(service.Metrics().memo_hits.load(), 1u);
}

TEST(ResponseMemoTest, NonCanonicalHeadersTakeTheParsePathAndNeverFill) {
  // A double space is legal to ParseRequestFrame but not the shape the
  // fast check accepts: the frame is served through the full parse, and
  // since it could never hit, it does not fill the memo either.
  const SchedulingRequest request = MakeRequest("n");
  const std::string body = Body(request);
  const std::string payload = body.substr(body.find('\n') + 1);
  const std::string header = "REQUEST  id=n scheduler=rle";
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(
                    Fnv1a64(payload, Fnv1a64("\n", Fnv1a64(header)))));
  const std::string odd = header + " check=" + hex + "\n" + payload;
  ASSERT_EQ(ParseRequestFrame(odd).id, "n");
  EXPECT_FALSE(VerifyRequestFrame(odd).has_value());

  SchedulingService service;
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(Line(service, odd), UncachedLine(request));
  }
  EXPECT_EQ(service.Metrics().memo_hits.load(), 0u);
  EXPECT_EQ(service.Metrics().response_hits.load(), 2u);
}

TEST(VerifyRequestFrameTest, AcceptsWhatFormatRequestFrameEmits) {
  SchedulingRequest request = MakeRequest("v1", "ldp");
  request.deadline_seconds = 2.5;
  const std::string body = Body(request);
  const auto view = VerifyRequestFrame(body);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->id, "v1");
  EXPECT_EQ(view->scheduler, "ldp");
  EXPECT_EQ(view->payload, body.substr(body.find('\n') + 1));
}

TEST(VerifyRequestFrameTest, RejectsWhatTheParserWouldRejectOrDiagnose) {
  const std::string body = Body(MakeRequest("v2"));
  const std::size_t header_end = body.find('\n');
  const std::string header = body.substr(0, header_end);
  const std::string rest = body.substr(header_end);
  const auto with_header = [&](std::string h) { return h + rest; };
  const std::size_t check_at = header.find(" check=");
  const std::string without_check = header.substr(0, check_at);
  const std::string check_token = header.substr(check_at);

  EXPECT_FALSE(VerifyRequestFrame(with_header(without_check)).has_value())
      << "missing check=";
  EXPECT_FALSE(VerifyRequestFrame(
                   with_header(without_check + " x=1" + check_token))
                   .has_value())
      << "unknown key";
  EXPECT_FALSE(VerifyRequestFrame(
                   with_header(without_check + " id=v3" + check_token))
                   .has_value())
      << "repeated key";
  EXPECT_FALSE(VerifyRequestFrame(
                   with_header(without_check + " deadline=-1" + check_token))
                   .has_value())
      << "negative deadline";
  EXPECT_FALSE(VerifyRequestFrame(
                   with_header(without_check + " check=0x" +
                               check_token.substr(7)))
                   .has_value())
      << "non-hex check";
  EXPECT_FALSE(VerifyRequestFrame(header).has_value()) << "no newline";
  std::string tab = body;
  tab[header.find(" scheduler=")] = '\t';
  EXPECT_FALSE(VerifyRequestFrame(tab).has_value()) << "tab separator";
}

}  // namespace
}  // namespace fadesched::service
