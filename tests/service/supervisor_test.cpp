// Crash-only supervisor tests: seeded fault-plan determinism, crash
// restarts with backoff, the flap breaker, startup-crash injection,
// SIGHUP rolling restarts, and the end-to-end "worker killed mid-frame
// never acks — the idempotent re-send lands on a sibling with a
// byte-identical response" drill over a real shared listener.
//
// These tests fork real processes. Children run entirely inside
// Supervisor::SpawnWorker's child branch, which _exit()s after
// worker_main — they never return into gtest.
#include "service/supervisor.hpp"

#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "testing/fuzzer.hpp"
#include "util/error.hpp"
#include "util/signal_guard.hpp"

namespace fadesched::service {
namespace {

using std::chrono::milliseconds;

/// Worker that serves nothing: waits for the drain signal, exits 0.
int SleepyWorker(std::size_t /*slot*/, std::size_t /*ordinal*/) {
  util::ScopedSignalGuard guard;
  while (!util::ShutdownRequested()) {
    std::this_thread::sleep_for(milliseconds(5));
  }
  return 0;
}

/// Runs supervisor.Run() on a thread into `report`. Leaving scope stops
/// the supervisor and joins, so a failed ASSERT_* (which returns from the
/// test body) reports its message instead of destroying a joinable
/// std::thread and calling std::terminate.
class ScopedRunner {
 public:
  ScopedRunner(Supervisor& supervisor, SupervisorReport& report)
      : supervisor_(supervisor),
        thread_([&supervisor, &report] { report = supervisor.Run(); }) {}
  ~ScopedRunner() { join(); }

  ScopedRunner(const ScopedRunner&) = delete;
  ScopedRunner& operator=(const ScopedRunner&) = delete;

  /// Joins the runner thread; on the early-exit path also stops the
  /// supervisor first, since nothing else will.
  void join() {
    if (!thread_.joinable()) return;
    supervisor_.Stop();
    thread_.join();
  }

 private:
  Supervisor& supervisor_;
  std::thread thread_;
};

SupervisorOptions FastOptions(std::size_t workers) {
  SupervisorOptions options;
  options.num_workers = workers;
  options.backoff_initial_seconds = 0.01;
  options.backoff_max_seconds = 0.05;
  options.stable_seconds = 60.0;  // streaks never reset mid-test
  options.max_restarts_in_window = 100;
  options.restart_window_seconds = 60.0;
  options.drain_grace_seconds = 5.0;
  return options;
}

// ---------------------------------------------------------------------------
// Fault plan: pure functions, no processes.

TEST(ProcessFaultPlanTest, SameSeedSamePlan) {
  ProcessChaosOptions chaos;
  chaos.seed = 42;
  chaos.kills = 5;
  chaos.stalls = 3;
  chaos.startup_crashes = 2;
  const auto a = BuildProcessFaultPlan(chaos, 3);
  const auto b = BuildProcessFaultPlan(chaos, 3);
  EXPECT_EQ(FormatProcessFaultPlan(a), FormatProcessFaultPlan(b));
  EXPECT_EQ(a.size(), 10u);
}

TEST(ProcessFaultPlanTest, DifferentSeedsDiffer) {
  ProcessChaosOptions chaos;
  chaos.kills = 5;
  chaos.seed = 1;
  const auto a = BuildProcessFaultPlan(chaos, 3);
  chaos.seed = 2;
  const auto b = BuildProcessFaultPlan(chaos, 3);
  EXPECT_NE(FormatProcessFaultPlan(a), FormatProcessFaultPlan(b));
}

TEST(ProcessFaultPlanTest, AddingStallsDoesNotMoveKills) {
  ProcessChaosOptions chaos;
  chaos.seed = 7;
  chaos.kills = 4;
  const auto kills_only = BuildProcessFaultPlan(chaos, 2);
  chaos.stalls = 6;
  const auto mixed = BuildProcessFaultPlan(chaos, 2);
  // Per-kind derived streams: the kill events must be identical whether
  // or not stalls ride along (the shrink property — dropping one fault
  // family leaves the others untouched).
  std::vector<std::pair<double, std::size_t>> a, b;
  for (const auto& e : kills_only) {
    if (e.kind == ProcessFaultEvent::Kind::kKill) a.push_back({e.at_seconds, e.slot});
  }
  for (const auto& e : mixed) {
    if (e.kind == ProcessFaultEvent::Kind::kKill) b.push_back({e.at_seconds, e.slot});
  }
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 4u);
}

TEST(ProcessFaultPlanTest, PlanIsTimeSortedAndInsideWindow) {
  ProcessChaosOptions chaos;
  chaos.seed = 9;
  chaos.kills = 8;
  chaos.stalls = 8;
  chaos.window_seconds = 2.5;
  const auto plan = BuildProcessFaultPlan(chaos, 4);
  for (std::size_t i = 1; i < plan.size(); ++i) {
    EXPECT_LE(plan[i - 1].at_seconds, plan[i].at_seconds);
  }
  for (const auto& e : plan) {
    EXPECT_GE(e.at_seconds, 0.0);
    EXPECT_LT(e.at_seconds, chaos.window_seconds);
    EXPECT_LT(e.slot, 4u);
  }
}

TEST(ProcessFaultPlanTest, ValidateRejectsBadWindow) {
  ProcessChaosOptions chaos;
  chaos.window_seconds = 0.0;
  EXPECT_THROW(chaos.Validate(), util::HarnessError);
}

TEST(SupervisorOptionsTest, ValidateRejectsBadConfigs) {
  {
    SupervisorOptions bad = FastOptions(0);
    EXPECT_THROW(bad.Validate(), util::HarnessError);
  }
  {
    SupervisorOptions bad = FastOptions(1);
    bad.backoff_multiplier = 0.5;
    EXPECT_THROW(bad.Validate(), util::HarnessError);
  }
  {
    SupervisorOptions bad = FastOptions(1);
    bad.max_restarts_in_window = 0;
    EXPECT_THROW(bad.Validate(), util::HarnessError);
  }
}

// ---------------------------------------------------------------------------
// Process-level behaviour.

TEST(SupervisorTest, StopDrainsAllWorkersCleanly) {
  Supervisor supervisor(SleepyWorker, FastOptions(3));
  SupervisorReport report;
  ScopedRunner runner(supervisor, report);
  std::this_thread::sleep_for(milliseconds(200));
  supervisor.Stop();
  runner.join();
  EXPECT_EQ(report.spawned, 3u);
  EXPECT_EQ(report.restarts, 0u);
  EXPECT_EQ(report.crashes, 0u);
  EXPECT_FALSE(report.breaker_open);
}

TEST(SupervisorTest, CrashedWorkersAreRestartedUntilStable) {
  // Ordinals 0..2 crash on sight; ordinal 3 serves. One slot, so the
  // sequence is strictly: crash, backoff, crash, backoff, crash, stable.
  Supervisor supervisor(
      [](std::size_t slot, std::size_t ordinal) {
        return ordinal < 3 ? 1 : SleepyWorker(slot, ordinal);
      },
      FastOptions(1));
  SupervisorReport report;
  ScopedRunner runner(supervisor, report);
  std::this_thread::sleep_for(milliseconds(700));
  supervisor.Stop();
  runner.join();
  EXPECT_EQ(report.spawned, 4u);
  EXPECT_EQ(report.restarts, 3u);
  EXPECT_EQ(report.crashes, 3u);
  EXPECT_FALSE(report.breaker_open);
}

TEST(SupervisorTest, FlapBreakerOpensOnCrashLoop) {
  SupervisorOptions options = FastOptions(2);
  options.backoff_initial_seconds = 0.001;
  options.backoff_max_seconds = 0.005;
  options.max_restarts_in_window = 4;
  options.restart_window_seconds = 30.0;
  // Every spawn crashes instantly: Run must terminate on its own with
  // the breaker open (the test would time out if it looped forever).
  Supervisor supervisor([](std::size_t, std::size_t) { return 1; }, options);
  const SupervisorReport report = supervisor.Run();
  EXPECT_TRUE(report.breaker_open);
  EXPECT_GT(report.restarts, options.max_restarts_in_window);
}

TEST(SupervisorTest, StartupCrashInjectionIsCountedAndRecovered) {
  SupervisorOptions options = FastOptions(2);
  options.chaos.startup_crashes = 2;
  Supervisor supervisor(SleepyWorker, options);
  SupervisorReport report;
  ScopedRunner runner(supervisor, report);
  std::this_thread::sleep_for(milliseconds(400));
  supervisor.Stop();
  runner.join();
  // Both initial spawns _exit(77) before serving; the respawns are clean.
  EXPECT_EQ(report.startup_crashes, 2u);
  EXPECT_EQ(report.crashes, 2u);
  EXPECT_EQ(report.spawned, 4u);
  EXPECT_FALSE(report.breaker_open);
}

TEST(SupervisorTest, InjectedKillsAllLandAndRestart) {
  SupervisorOptions options = FastOptions(2);
  options.chaos.kills = 3;
  options.chaos.window_seconds = 0.4;
  options.chaos.seed = 5;
  Supervisor supervisor(SleepyWorker, options);
  SupervisorReport report;
  ScopedRunner runner(supervisor, report);
  // Window + backoffs + a margin: every planned kill must actually land
  // (held, not dropped, when its victim is mid-respawn).
  std::this_thread::sleep_for(milliseconds(1200));
  supervisor.Stop();
  runner.join();
  EXPECT_EQ(report.injected_kills, 3u);
  EXPECT_EQ(report.crashes, 3u);
  EXPECT_EQ(report.restarts, 3u);
  EXPECT_EQ(report.spawned, 5u);
}

TEST(SupervisorTest, StallsPauseWithoutRestarting) {
  SupervisorOptions options = FastOptions(2);
  options.chaos.stalls = 2;
  options.chaos.window_seconds = 0.3;
  options.chaos.stall_seconds = 0.05;
  Supervisor supervisor(SleepyWorker, options);
  SupervisorReport report;
  ScopedRunner runner(supervisor, report);
  std::this_thread::sleep_for(milliseconds(700));
  supervisor.Stop();
  runner.join();
  // A SIGSTOP/SIGCONT stall is not a crash: nothing restarts.
  EXPECT_EQ(report.injected_stalls, 2u);
  EXPECT_EQ(report.crashes, 0u);
  EXPECT_EQ(report.restarts, 0u);
}

TEST(SupervisorTest, SighupRollsEveryWorkerWithoutCrashCounts) {
  Supervisor supervisor(SleepyWorker, FastOptions(2));
  SupervisorReport report;
  ScopedRunner runner(supervisor, report);
  std::this_thread::sleep_for(milliseconds(150));
  ::kill(::getpid(), SIGHUP);
  std::this_thread::sleep_for(milliseconds(500));
  supervisor.Stop();
  runner.join();
  EXPECT_EQ(report.rolled, 2u);
  EXPECT_EQ(report.spawned, 4u);
  EXPECT_EQ(report.crashes, 0u);
  EXPECT_EQ(report.restarts, 0u);
}

// ---------------------------------------------------------------------------
// End-to-end: shared listener, real requests, a worker that dies at the
// worst possible instant (request executed, response never written).

std::string UniqueSocketPath(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          ("fs_sup_" + std::string(tag) + "_" + std::to_string(::getpid()) +
           ".sock"))
      .string();
}

SchedulingRequest MakeRequest(const std::string& id) {
  fadesched::testing::ScenarioFuzzer fuzzer(13);
  SchedulingRequest request;
  request.scenario = fuzzer.Case(0);
  request.scheduler = "rle";
  request.id = id;
  return request;
}

TEST(SupervisorLoopbackTest, KilledMidFrameNeverAcksAndSiblingServesByteIdentical) {
  ServerOptions bind_options;
  bind_options.unix_socket_path = UniqueSocketPath("midframe");
  const int listen_fd = BindListenSocket(bind_options, nullptr);

  ServerOptions worker_options = bind_options;
  worker_options.unix_socket_path.clear();  // workers never unlink
  worker_options.inherited_listen_fd = listen_fd;

  SupervisorOptions options = FastOptions(2);
  Supervisor supervisor(
      [worker_options](std::size_t, std::size_t ordinal) {
        ServerOptions mine = worker_options;
        // Both initial workers abort right before their first reply: the
        // request executes, the response line is never written. Respawns
        // (ordinal >= 2) are healthy.
        if (ordinal < 2) mine.chaos_abort_before_reply = 1;
        Server server(mine);
        server.Start();
        util::ScopedSignalGuard guard;
        server.Serve();
        return 0;
      },
      options);
  SupervisorReport report;
  ScopedRunner runner(supervisor, report);
  std::this_thread::sleep_for(milliseconds(150));

  const std::string frame = FormatRequestFrame(MakeRequest("once"));
  // Sends `frame` on fresh connections until some worker answers. Which
  // worker accepts is up to the kernel, so a send may land on a doomed
  // worker at any point — the first one or the re-send below.
  std::size_t aborted_attempts = 0;
  const auto send_until_answered = [&] {
    std::string line;
    for (int attempt = 0; attempt < 12 && line.empty(); ++attempt) {
      Client client;
      client.ConnectUnix(bind_options.unix_socket_path);
      try {
        client.SendRaw(frame);
        line = client.ReadLine();
      } catch (const util::HarnessError&) {
        // The worker died before acking: no response bytes, connection
        // closed. The re-send must be safe precisely because nothing
        // was acknowledged.
        ++aborted_attempts;
        std::this_thread::sleep_for(milliseconds(100));
      }
    }
    return line;
  };

  const std::string first_line = send_until_answered();
  ASSERT_FALSE(first_line.empty()) << "no worker ever answered";
  // Both initial workers were doomed, so the very first send cannot have
  // been acknowledged.
  EXPECT_GE(aborted_attempts, 1u);

  // Idempotent re-send of the identical frame on a fresh connection: a
  // sibling (or respawn) must produce the byte-identical response line.
  const std::string again = send_until_answered();
  ASSERT_FALSE(again.empty()) << "no worker answered the re-send";
  EXPECT_EQ(again, first_line);
  const SchedulingResponse parsed = ParseResponseLine(first_line);
  EXPECT_TRUE(parsed.Ok()) << parsed.message;

  supervisor.Stop();
  runner.join();
  EXPECT_GE(report.crashes, 1u);  // the doomed workers _Exit(137)ed
  ::close(listen_fd);
  ::unlink(bind_options.unix_socket_path.c_str());
}

}  // namespace
}  // namespace fadesched::service
