// The raw-frame response memo through both front ends over a real
// Unix-domain socket: `serve` (thread-per-connection Server) and
// `serve --shards 2` (epoll router + forked shard workers). On each, a
// memo hit answers byte-identically to an uncached computation, the same
// payload under another scheduler is not a hit, a flipped payload byte is
// the transient checksum error and never a hit, and the tier's STATS show
// memo hits inside response hits with the admission ledger balanced.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/service.hpp"
#include "service/shard/shard_server.hpp"
#include "testing/fuzzer.hpp"

namespace fadesched::service::shard {
namespace {

SchedulingRequest MakeRequest(const std::string& id,
                              const std::string& scheduler = "rle") {
  fadesched::testing::ScenarioFuzzer fuzzer(41);
  SchedulingRequest request;
  request.scenario = fuzzer.Case(2);
  request.scheduler = scheduler;
  request.id = id;
  return request;
}

std::string UncachedLine(const SchedulingRequest& request) {
  SchedulingService fresh;
  return FormatResponseLine(fresh.HandleNow(request));
}

/// 0 = `serve`, N > 0 = `serve --shards N`.
class MemoFrontEndTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("fs_memo_" + std::to_string(GetParam()) + "_" +
              std::to_string(::getpid()) + ".sock"))
                .string();
    ServerOptions server;
    server.unix_socket_path = path_;
    server.service.batcher.num_workers = 2;
    if (GetParam() == 0) {
      classic_ = std::make_unique<Server>(server);
      classic_->Start();
      serving_ = std::thread([this] { classic_->Serve(); });
    } else {
      ShardServerOptions options;
      options.server = server;
      options.num_shards = GetParam();
      options.supervisor.drain_grace_seconds = 5.0;
      sharded_ = std::make_unique<ShardServer>(options);
      sharded_->Start();
      serving_ = std::thread([this] { sharded_->Serve(); });
      // Serve() forks the shard workers on its own thread. Until every
      // fork has returned, this thread must not run anything that takes
      // a lock or a function-local static's init guard (UncachedLine
      // builds the scheduler registry): a fork landing mid-init leaves
      // the child blocked on that guard forever.
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      for (std::size_t slot = 0; slot < GetParam(); ++slot) {
        while (sharded_->WorkerPid(slot) <= 0) {
          ASSERT_LT(std::chrono::steady_clock::now(), deadline)
              << "shard " << slot << " never spawned";
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
      }
    }
  }

  void TearDown() override {
    if (classic_ != nullptr) classic_->Stop();
    if (sharded_ != nullptr) sharded_->Stop();
    if (serving_.joinable()) serving_.join();
  }

  std::string Send(Client& client, const std::string& frame) {
    client.SendRaw(frame);
    return client.ReadLine();
  }

  std::string path_;
  std::unique_ptr<Server> classic_;
  std::unique_ptr<ShardServer> sharded_;
  std::thread serving_;
};

TEST_P(MemoFrontEndTest, MemoHitsAreByteIdenticalAndNeverServeCorruption) {
  Client client;
  client.ConnectUnix(path_);

  // Computed, cache hit (fills the memo), then three memo hits.
  for (int i = 0; i < 5; ++i) {
    const SchedulingRequest request = MakeRequest("a" + std::to_string(i));
    EXPECT_EQ(Send(client, FormatRequestFrame(request)), UncachedLine(request))
        << "request " << i;
  }
  StatsSnapshot stats = client.Stats();
  EXPECT_EQ(stats.memo_hits, 3u);
  EXPECT_EQ(stats.response_hits, 4u);

  // Same payload, another scheduler: answered by ldp, not by rle's memo.
  const SchedulingRequest ldp = MakeRequest("l", "ldp");
  EXPECT_EQ(Send(client, FormatRequestFrame(ldp)), UncachedLine(ldp));
  EXPECT_EQ(client.Stats().memo_hits, 3u);

  // One flipped payload byte in a memoized frame: the transient checksum
  // error, exactly as before the memo existed.
  std::string flipped = FormatRequestFrame(MakeRequest("f"));
  const std::size_t at = flipped.find_last_of("0123456789");
  flipped[at] = flipped[at] == '1' ? '2' : '1';
  const SchedulingResponse corrupt = ParseResponseLine(Send(client, flipped));
  EXPECT_EQ(corrupt.status, ResponseStatus::kError);
  EXPECT_EQ(corrupt.error_kind, util::ErrorKind::kTransient);
  EXPECT_NE(corrupt.message.find("checksum mismatch"), std::string::npos)
      << corrupt.message;

  stats = client.Stats();
  EXPECT_EQ(stats.memo_hits, 3u);
  EXPECT_LE(stats.memo_hits, stats.response_hits);
  EXPECT_EQ(stats.submitted, 6u) << "the corrupt frame never reaches admission";
  EXPECT_EQ(stats.admitted, stats.submitted);
  EXPECT_EQ(stats.completed, stats.submitted);
}

INSTANTIATE_TEST_SUITE_P(FrontEnds, MemoFrontEndTest,
                         ::testing::Values(std::size_t{0}, std::size_t{2}),
                         [](const ::testing::TestParamInfo<std::size_t>& p) {
                           return p.param == 0
                                      ? std::string("Serve")
                                      : "Shards" + std::to_string(p.param);
                         });

}  // namespace
}  // namespace fadesched::service::shard
