// The router↔worker pipe envelope: length-prefixed framing over a
// trusted SOCK_STREAM socketpair. Contracts: lossless round-trip of
// every message kind, correct reassembly under arbitrary byte-chunking,
// and loud kFatal failure on a torn stream (bad magic / kind / absurd
// length) — a framing bug is a worker bug, never retryable.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "service/shard/pipe.hpp"
#include "util/error.hpp"

namespace fadesched::service::shard {
namespace {

PipeMsg Msg(PipeMsgKind kind, std::uint64_t ticket, std::string payload) {
  PipeMsg msg;
  msg.kind = kind;
  msg.ticket = ticket;
  msg.payload = std::move(payload);
  return msg;
}

TEST(PipeTest, RoundTripsEveryKind) {
  const std::vector<PipeMsg> in = {
      Msg(PipeMsgKind::kRequest, 1, "REQUEST id=a\nbody\nEND\n"),
      Msg(PipeMsgKind::kResponse, 2, "OK sum=0 id=a"),
      Msg(PipeMsgKind::kStatsQuery, 3, ""),
      Msg(PipeMsgKind::kStatsReply, 0xffffffffffffffffULL, "STATS x=1"),
  };
  std::string wire;
  for (const PipeMsg& msg : in) AppendPipeMsg(wire, msg);

  PipeDecoder decoder;
  decoder.Feed(wire.data(), wire.size());
  for (const PipeMsg& want : in) {
    const auto got = decoder.Pop();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->kind, want.kind);
    EXPECT_EQ(got->ticket, want.ticket);
    EXPECT_EQ(got->payload, want.payload);
  }
  EXPECT_FALSE(decoder.Pop().has_value());
  EXPECT_FALSE(decoder.MidMessage());
}

TEST(PipeTest, ReassemblesAcrossArbitraryChunking) {
  std::string wire;
  for (int i = 0; i < 20; ++i) {
    AppendPipeMsg(wire, Msg(PipeMsgKind::kResponse,
                            static_cast<std::uint64_t>(i),
                            std::string(static_cast<std::size_t>(i) * 7,
                                        static_cast<char>('a' + i % 26))));
  }
  // Byte-at-a-time is the worst case every other chunking reduces to.
  PipeDecoder decoder;
  std::size_t seen = 0;
  for (const char byte : wire) {
    decoder.Feed(&byte, 1);
    while (const auto msg = decoder.Pop()) {
      EXPECT_EQ(msg->ticket, seen);
      EXPECT_EQ(msg->payload.size(), seen * 7);
      ++seen;
    }
  }
  EXPECT_EQ(seen, 20u);
}

TEST(PipeTest, SixtyFourBufferedEnvelopesDecodeInOrder) {
  // A burst the router reads in one go: every envelope must pop in order
  // and intact whether the bytes arrive at once (the read cursor walks
  // the buffer) or one at a time (each Feed compacts what was popped).
  std::vector<PipeMsg> in;
  std::string wire;
  for (std::uint64_t i = 0; i < 64; ++i) {
    in.push_back(Msg(i % 2 == 0 ? PipeMsgKind::kRequest : PipeMsgKind::kResponse,
                     1000 + i,
                     std::string(static_cast<std::size_t>(i * 37 % 500),
                                 static_cast<char>('A' + i % 26))));
    AppendPipeMsg(wire, in.back());
  }
  for (const std::size_t chunk : {std::size_t{1}, wire.size()}) {
    PipeDecoder decoder;
    std::vector<PipeMsg> out;
    for (std::size_t at = 0; at < wire.size(); at += chunk) {
      decoder.Feed(wire.data() + at, std::min(chunk, wire.size() - at));
      while (auto msg = decoder.Pop()) out.push_back(std::move(*msg));
    }
    ASSERT_EQ(out.size(), in.size()) << "chunk=" << chunk;
    for (std::size_t i = 0; i < in.size(); ++i) {
      EXPECT_EQ(out[i].kind, in[i].kind) << "chunk=" << chunk << " i=" << i;
      EXPECT_EQ(out[i].ticket, in[i].ticket) << "chunk=" << chunk << " i=" << i;
      EXPECT_EQ(out[i].payload, in[i].payload) << "chunk=" << chunk << " i=" << i;
    }
    EXPECT_FALSE(decoder.MidMessage());
    EXPECT_EQ(decoder.BufferedBytes(), 0u);
  }
}

TEST(PipeTest, MidMessageReportsPartialEnvelope) {
  std::string wire;
  AppendPipeMsg(wire, Msg(PipeMsgKind::kRequest, 9, "payload-bytes"));
  PipeDecoder decoder;
  decoder.Feed(wire.data(), wire.size() - 3);
  EXPECT_FALSE(decoder.Pop().has_value());
  EXPECT_TRUE(decoder.MidMessage());
  decoder.Feed(wire.data() + wire.size() - 3, 3);
  const auto msg = decoder.Pop();
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->payload, "payload-bytes");
  EXPECT_FALSE(decoder.MidMessage());
}

TEST(PipeTest, BadMagicIsFatal) {
  std::string wire;
  AppendPipeMsg(wire, Msg(PipeMsgKind::kRequest, 1, "x"));
  wire[0] ^= 0x40;  // corrupt the magic
  PipeDecoder decoder;
  decoder.Feed(wire.data(), wire.size());
  try {
    decoder.Pop();
    FAIL() << "torn stream decoded";
  } catch (const util::HarnessError& error) {
    EXPECT_EQ(error.kind(), util::ErrorKind::kFatal) << error.what();
  }
}

TEST(PipeTest, UnknownKindIsFatal) {
  std::string wire;
  AppendPipeMsg(wire, Msg(PipeMsgKind::kRequest, 1, "x"));
  wire[4] = 0x7f;  // kind field, little-endian low byte
  PipeDecoder decoder;
  decoder.Feed(wire.data(), wire.size());
  EXPECT_THROW(decoder.Pop(), util::HarnessError);
}

TEST(PipeTest, AbsurdLengthIsFatalNotAnAllocation) {
  std::string wire;
  AppendPipeMsg(wire, Msg(PipeMsgKind::kRequest, 1, "x"));
  // Length field sits after magic(4) + kind(4) + ticket(8).
  wire[16] = '\xff';
  wire[17] = '\xff';
  wire[18] = '\xff';
  wire[19] = '\x7f';
  PipeDecoder decoder;
  decoder.Feed(wire.data(), wire.size());
  EXPECT_THROW(decoder.Pop(), util::HarnessError);
}

TEST(PipeTest, OversizedPayloadRefusesToSerialize) {
  PipeMsg msg;
  msg.kind = PipeMsgKind::kRequest;
  msg.payload.resize(kMaxPipePayloadBytes + 1);
  std::string wire;
  EXPECT_THROW(AppendPipeMsg(wire, msg), util::HarnessError);
}

}  // namespace
}  // namespace fadesched::service::shard
