// The router's per-connection scanner: carves whole frames and bare
// STATS verbs out of arbitrary byte chunks without parsing anything, and
// derives the routing fingerprint. Contracts:
//
//   * frames survive any chunking byte-identically (the worker checksums
//     exactly what the client sent — the router must not reassemble
//     lossily);
//   * STATS is a verb only BETWEEN frames — inside a frame it's payload;
//   * the routing key depends on (scenario payload, scheduler) and
//     nothing else, so repeats of a scenario land on the same shard no
//     matter what id= or check= their headers carry.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "net/scenario.hpp"
#include "rng/xoshiro256.hpp"
#include "service/protocol.hpp"
#include "service/request.hpp"
#include "service/shard/frame_scanner.hpp"
#include "testing/fuzzer.hpp"

namespace fadesched::service::shard {
namespace {

std::string Frame(std::uint64_t case_index, const std::string& id,
                  const std::string& scheduler = "rle") {
  fadesched::testing::ScenarioFuzzer fuzzer(3);
  SchedulingRequest request;
  request.scenario = fuzzer.Case(case_index);
  request.scheduler = scheduler;
  request.id = id;
  return FormatRequestFrame(request);
}

TEST(FrameScannerTest, CarvesFramesByteIdenticallyUnderChunking) {
  const std::string f1 = Frame(0, "a");
  const std::string f2 = Frame(1, "b");
  const std::string wire = f1 + f2;

  for (const std::size_t chunk : {1UL, 3UL, 7UL, wire.size()}) {
    FrameScanner scanner;
    std::vector<ScanEvent> events;
    for (std::size_t at = 0; at < wire.size(); at += chunk) {
      const std::size_t n = std::min(chunk, wire.size() - at);
      scanner.Feed(wire.data() + at, n);
      for (auto& event : scanner.Drain()) events.push_back(std::move(event));
    }
    ASSERT_EQ(events.size(), 2u) << "chunk=" << chunk;
    EXPECT_EQ(events[0].kind, ScanEvent::Kind::kFrame);
    // The scanner's frame is the assembler body: every line up to (but
    // not including) the END terminator, LF-normalized. The serialized
    // frame is already LF-terminated, so the bytes must match the
    // formatted frame minus its "END\n" exactly — this is what lets the
    // worker verify the client's check= untouched.
    const auto body = [](const std::string& frame) {
      constexpr std::string_view kTerminator = "END\n";
      return frame.substr(0, frame.size() - kTerminator.size());
    };
    EXPECT_EQ(events[0].frame, body(f1)) << "chunk=" << chunk;
    EXPECT_EQ(events[1].frame, body(f2)) << "chunk=" << chunk;
    EXPECT_FALSE(scanner.MidFrame());
  }
}

TEST(FrameScannerTest, StatsIsAVerbOnlyBetweenFrames) {
  const std::string frame_with_stats_line =
      "not-a-header x=1\nSTATS\nEND\n";
  FrameScanner scanner;
  const std::string wire =
      std::string(kStatsVerb) + "\n" + frame_with_stats_line +
      std::string(kStatsVerb) + "\r\n";
  scanner.Feed(wire.data(), wire.size());
  const std::vector<ScanEvent> events = scanner.Drain();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, ScanEvent::Kind::kStats);
  EXPECT_EQ(events[1].kind, ScanEvent::Kind::kFrame);
  EXPECT_NE(events[1].frame.find("STATS\n"), std::string::npos)
      << "STATS inside a frame must stay payload";
  EXPECT_EQ(events[2].kind, ScanEvent::Kind::kStats);
}

TEST(FrameScannerTest, MidFrameTracksPartialInput) {
  FrameScanner scanner;
  EXPECT_FALSE(scanner.MidFrame());
  const std::string partial = "header line\nscenario";
  scanner.Feed(partial.data(), partial.size());
  EXPECT_TRUE(scanner.Drain().empty());
  EXPECT_TRUE(scanner.MidFrame()) << "buffered half-line counts";
  const std::string rest = " rest\nEND\n";
  scanner.Feed(rest.data(), rest.size());
  EXPECT_EQ(scanner.Drain().size(), 1u);
  EXPECT_FALSE(scanner.MidFrame());
}

TEST(FrameScannerTest, AssemblesFramesFedLineByLine) {
  const std::string frame = Frame(0, "r0");
  FrameScanner scanner;
  for (int pass = 0; pass < 2; ++pass) {
    std::vector<ScanEvent> events;
    for (std::size_t at = 0, nl; (nl = frame.find('\n', at)) != std::string::npos;
         at = nl + 1) {
      EXPECT_TRUE(events.empty()) << "no event before the END line";
      scanner.Feed(frame.data() + at, nl + 1 - at);
      for (auto& event : scanner.Drain()) events.push_back(std::move(event));
    }
    ASSERT_EQ(events.size(), 1u) << "pass " << pass;
    EXPECT_EQ(ParseRequestFrame(events[0].frame).id, "r0");
    EXPECT_FALSE(scanner.MidFrame()) << "reset after each frame";
    EXPECT_EQ(scanner.Lines(), 0u);
  }
}

TEST(FrameScannerTest, TruncatedFrameNamesHowFarItGot) {
  FrameScanner scanner;
  const std::string lines =
      "REQUEST id=a scheduler=rle\n# fadesched scenario v1\nalpha = 3\n";
  scanner.Feed(lines.data(), lines.size());
  EXPECT_TRUE(scanner.Drain().empty());
  EXPECT_TRUE(scanner.MidFrame());
  EXPECT_EQ(scanner.Lines(), 3u);
  EXPECT_NE(scanner.Truncated().find("after 3 line(s)"), std::string::npos);
  EXPECT_NE(scanner.Truncated().find("missing END"), std::string::npos);
}

// The line-by-line carve the scanner must reproduce: split at '\n',
// strip one trailing '\r', STATS between frames, END closes a frame. Fed
// the same chunks, it also tracks what Lines() and PendingBytes() must
// read after each drain.
class ReferenceCarve {
 public:
  std::vector<ScanEvent> Feed(const std::string& chunk) {
    unscanned_ += chunk;
    std::vector<ScanEvent> events;
    std::size_t start = 0;
    for (std::size_t nl; (nl = unscanned_.find('\n', start)) != std::string::npos;
         start = nl + 1) {
      std::string line = unscanned_.substr(start, nl - start);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (lines_ == 0 && line == kStatsVerb) {
        events.push_back({ScanEvent::Kind::kStats, {}});
        continue;
      }
      if (line == kFrameEnd) {
        events.push_back({ScanEvent::Kind::kFrame, frame_});
        frame_.clear();
        lines_ = 0;
        continue;
      }
      ++lines_;
      frame_ += line + '\n';
    }
    unscanned_.erase(0, start);
    return events;
  }
  std::size_t Lines() const { return lines_; }
  std::size_t PendingBytes() const { return frame_.size() + unscanned_.size(); }

 private:
  std::string unscanned_;
  std::string frame_;
  std::size_t lines_ = 0;
};

TEST(FrameScannerTest, MatchesLineByLineCarveUnderRandomChunking) {
  // N=2000 frames (~155 KB each), some sent with CRLF line ends (one with
  // a doubled '\r' the strip must keep half of), STATS between frames
  // and as a payload line inside one.
  rng::Xoshiro256 gen(77);
  std::string wire;
  for (int f = 0; f < 6; ++f) {
    SchedulingRequest request;
    request.scenario.links =
        net::MakeUniformScenario(2000, net::UniformScenarioParams{}, gen);
    request.id = "p" + std::to_string(f);
    std::string frame = FormatRequestFrame(request);
    if (f == 2) {
      frame.insert(frame.find('\n') + 1, std::string(kStatsVerb) + "\n");
    }
    if (f % 2 == 1) {
      std::string crlf;
      for (const char c : frame) crlf += c == '\n' ? "\r\n" : std::string(1, c);
      if (f == 3) crlf.insert(crlf.find("\r\n"), "\r");
      frame = crlf;
    }
    wire += frame;
    if (f % 3 == 0) wire += std::string(kStatsVerb) + (f == 0 ? "\n" : "\r\n");
  }
  ASSERT_GT(wire.size(), 6u * 150'000);

  for (std::uint64_t trial = 0; trial < 4; ++trial) {
    FrameScanner scanner;
    ReferenceCarve reference;
    std::size_t frames = 0;
    std::size_t stats = 0;
    for (std::size_t at = 0; at < wire.size();) {
      // Log-uniform in [1, 64 KiB]: byte-sized and socket-sized chunks.
      const std::size_t octave = std::size_t{1} << (gen.Next() % 17);
      const std::size_t size =
          std::min<std::size_t>(wire.size() - at, 1 + gen.Next() % octave);
      const std::string chunk = wire.substr(at, size);
      at += size;
      scanner.Feed(chunk.data(), chunk.size());
      const std::vector<ScanEvent> got = scanner.Drain();
      const std::vector<ScanEvent> want = reference.Feed(chunk);
      ASSERT_EQ(got.size(), want.size()) << "trial " << trial << " at " << at;
      for (std::size_t e = 0; e < got.size(); ++e) {
        ASSERT_EQ(got[e].kind, want[e].kind) << "trial " << trial << " at " << at;
        ASSERT_EQ(got[e].frame, want[e].frame) << "trial " << trial << " at " << at;
        (got[e].kind == ScanEvent::Kind::kFrame ? frames : stats) += 1;
      }
      ASSERT_EQ(scanner.Lines(), reference.Lines()) << "at " << at;
      ASSERT_EQ(scanner.PendingBytes(), reference.PendingBytes()) << "at " << at;
    }
    EXPECT_EQ(frames, 6u);
    EXPECT_EQ(stats, 2u);
    EXPECT_FALSE(scanner.MidFrame());
    EXPECT_EQ(scanner.PendingBytes(), 0u);
  }
}

TEST(RoutingKeyTest, IgnoresIdAndChecksum) {
  // Same scenario, same scheduler, different request ids (and therefore
  // different check= values): the fingerprint must coincide so repeat
  // traffic lands on the warm shard.
  EXPECT_EQ(RoutingKey(Frame(0, "first")), RoutingKey(Frame(0, "second")));
}

TEST(RoutingKeyTest, DependsOnScenarioAndScheduler) {
  EXPECT_NE(RoutingKey(Frame(0, "a")), RoutingKey(Frame(1, "a")))
      << "different scenarios must fingerprint differently";
  EXPECT_NE(RoutingKey(Frame(0, "a", "rle")), RoutingKey(Frame(0, "a", "ldp")))
      << "scheduler is part of the cache key, so also of the fingerprint";
}

TEST(RoutingKeyTest, MalformedFramesRouteDeterministically) {
  const std::string garbage = "no newline at all";
  EXPECT_EQ(RoutingKey(garbage), RoutingKey(garbage));
  const std::string no_scheduler = "header-without-token\nbody\nEND\n";
  EXPECT_EQ(RoutingKey(no_scheduler), RoutingKey(no_scheduler));
  EXPECT_NE(RoutingKey(garbage), RoutingKey(no_scheduler));
}

}  // namespace
}  // namespace fadesched::service::shard
