// The shard supervisor's policy table (harness/fabric.hpp), driven by a
// scripted fake transport and a scripted clock: no processes, no sockets,
// no sleeps. Outcomes (done / refused / crashed), the restart backoff, the
// attempt budget, the journal-growth watchdog, the fault-plan and resume
// flags of each launch, and the resume-time journal audit.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "harness/fabric.hpp"
#include "harness/spec_io.hpp"
#include "harness/sweep.hpp"

namespace {

using namespace dtn;
using harness::AttemptStatus;
using State = AttemptStatus::State;

/// Time advances only when the supervisor sleeps (recorded) or a fake
/// attempt waits (not recorded).
class FakeClock final : public harness::FabricClock {
 public:
  double now_s() override {
    const std::lock_guard<std::mutex> lock(mutex_);
    return now_;
  }
  void sleep_for(double seconds) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    now_ += seconds;
    sleeps_.push_back(seconds);
  }
  void advance(double seconds) {
    const std::lock_guard<std::mutex> lock(mutex_);
    now_ += seconds;
  }
  std::vector<double> sleeps() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return sleeps_;
  }

 private:
  std::mutex mutex_;
  double now_ = 0.0;
  std::vector<double> sleeps_;
};

/// Attempt `a`'s wait number `w` (both 0-based) -> what that wait reports.
using Script = std::function<AttemptStatus(int attempt, int poll)>;

AttemptStatus running(std::uint64_t progress) {
  return {State::kRunning, progress, ""};
}
AttemptStatus ended(State state) { return {state, 0, ""}; }

class FakeTransport final : public harness::ShardTransport {
 public:
  FakeTransport(FakeClock& clock, Script script)
      : clock_(clock), script_(std::move(script)) {}

  std::unique_ptr<harness::ShardAttempt> launch(const harness::ShardLaunch& launch) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    launches_.push_back(launch);
    const int attempt = static_cast<int>(launches_.size()) - 1;
    if (refuse_start_) return nullptr;
    return std::make_unique<Attempt>(*this, attempt);
  }

  std::vector<harness::ShardLaunch> launches() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return launches_;
  }
  int aborts() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return aborts_;
  }
  void refuse_start() { refuse_start_ = true; }

 private:
  class Attempt final : public harness::ShardAttempt {
   public:
    Attempt(FakeTransport& owner, int attempt) : owner_(owner), attempt_(attempt) {}
    /// A bounded wait passes its whole bound on the clock; an unbounded
    /// one passes no time.
    AttemptStatus wait(double max_wait_s) override {
      if (max_wait_s > 0) owner_.clock_.advance(max_wait_s);
      return owner_.script_(attempt_, waits_++);
    }
    void abort() override {
      const std::lock_guard<std::mutex> lock(owner_.mutex_);
      ++owner_.aborts_;
    }

   private:
    FakeTransport& owner_;
    int attempt_;
    int waits_ = 0;
  };

  FakeClock& clock_;
  Script script_;
  std::mutex mutex_;
  std::vector<harness::ShardLaunch> launches_;
  int aborts_ = 0;
  bool refuse_start_ = false;
};

harness::SpecSweepOptions fixture_campaign() {
  harness::SpecSweepOptions options;
  options.base = harness::parse_spec(R"(
scenario.name = fabric_fixture
scenario.duration = 400
scenario.seed = 7
map.kind = open_field
map.width = 120
map.height = 120
group.walkers.model = random_waypoint
group.walkers.count = 6
group.walkers.speed_min = 1
group.walkers.speed_max = 3
world.radio_range = 40
protocol.name = EER
protocol.copies = 4
communities.count = 2
traffic.interval_min = 20
traffic.interval_max = 30
traffic.ttl = 120
)");
  harness::SweepAxis axis;
  axis.key = "protocol.copies";
  axis.values = {"2", "4", "8"};
  options.axes.push_back(axis);
  options.seeds = 2;
  options.seed_base = 7;
  options.isolate_failures = true;
  return options;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class FabricTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "fabric_test";
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    campaign_ = fixture_campaign();
    campaign_.note = [this](const std::string& message) { notes_.push_back(message); };
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Runs a fleet whose every shard goes through `transports[i]`.
  std::vector<harness::SpecPointResult> run(std::vector<FakeTransport*> transports,
                                            int worker_retries = 2,
                                            double worker_timeout_s = 0.0) {
    harness::ShardFleet fleet;
    fleet.shard_dir = dir_;
    fleet.transports.assign(transports.begin(), transports.end());
    fleet.worker_retries = worker_retries;
    fleet.worker_timeout_s = worker_timeout_s;
    fleet.clock = &clock_;
    return harness::run_shard_fleet(campaign_, fleet, nullptr);
  }

  bool noted(const std::string& needle) const {
    for (const auto& n : notes_) {
      if (n.find(needle) != std::string::npos) return true;
    }
    return false;
  }

  std::string dir_;
  harness::SpecSweepOptions campaign_;
  std::vector<std::string> notes_;  ///< the fabric serializes note calls
  FakeClock clock_;
};

TEST(FabricBackoff, DoublesFromAQuarterSecondAndCapsAtFive) {
  const std::vector<double> expected = {0.25, 0.5, 1, 2, 4, 5, 5};
  for (int retry = 0; retry < static_cast<int>(expected.size()); ++retry) {
    EXPECT_DOUBLE_EQ(harness::restart_backoff_s(retry), expected[retry]) << retry;
  }
  EXPECT_DOUBLE_EQ(harness::restart_backoff_s(1000), 5.0);
}

TEST_F(FabricTest, DoneShardIsLaunchedOnce) {
  FakeTransport t(clock_, [](int, int) { return ended(State::kDone); });
  run({&t});
  ASSERT_EQ(t.launches().size(), 1u);
  EXPECT_FALSE(noted("restarting"));
  EXPECT_FALSE(noted("gave up"));
}

TEST_F(FabricTest, RefusedShardIsNeverRestarted) {
  FakeTransport t(clock_, [](int, int) { return ended(State::kRefused); });
  run({&t}, /*worker_retries=*/5);
  EXPECT_EQ(t.launches().size(), 1u);
  EXPECT_FALSE(noted("restarting"));
  EXPECT_FALSE(noted("gave up"));
}

TEST_F(FabricTest, CrashedShardRestartsWithResumeAndWithoutTheFault) {
  FakeTransport t(clock_, [](int attempt, int) {
    return ended(attempt == 0 ? State::kCrashed : State::kDone);
  });
  run({&t});
  const auto launches = t.launches();
  ASSERT_EQ(launches.size(), 2u);
  EXPECT_FALSE(launches[0].resume);  // a fresh campaign's first launch
  EXPECT_TRUE(launches[0].with_fault);
  EXPECT_TRUE(launches[1].resume);    // every restart resumes
  EXPECT_FALSE(launches[1].with_fault);
  EXPECT_EQ(launches[1].attempt, 1);
  EXPECT_EQ(launches[1].journal, harness::shard_journal_path(dir_, 0));
  EXPECT_TRUE(noted("restarting shard 0/1 in 0.25 s (attempt 2 of 3)"));
}

TEST_F(FabricTest, RestartBackoffSequenceAndGiveUpAfterOnePlusRetries) {
  FakeTransport t(clock_, [](int, int) { return ended(State::kCrashed); });
  run({&t}, /*worker_retries=*/7);
  EXPECT_EQ(t.launches().size(), 8u);
  EXPECT_EQ(clock_.sleeps(), (std::vector<double>{0.25, 0.5, 1, 2, 4, 5, 5}));
  EXPECT_TRUE(noted("shard 0/1 gave up after 8 attempt(s)"));
}

TEST_F(FabricTest, AStartThatFailsCountsAsAnAttempt) {
  FakeTransport t(clock_, [](int, int) { return ended(State::kDone); });
  t.refuse_start();
  run({&t}, /*worker_retries=*/1);
  EXPECT_EQ(t.launches().size(), 2u);
  EXPECT_TRUE(noted("gave up after 2 attempt(s)"));
}

TEST_F(FabricTest, StalledJournalIsAbortedAndRestartedWithResume) {
  FakeTransport t(clock_, [](int attempt, int) {
    return attempt == 0 ? running(100) : ended(State::kDone);
  });
  run({&t}, /*worker_retries=*/2, /*worker_timeout_s=*/1.0);
  EXPECT_EQ(t.aborts(), 1);
  const auto launches = t.launches();
  ASSERT_EQ(launches.size(), 2u);
  EXPECT_TRUE(launches[1].resume);
  EXPECT_TRUE(noted("shard 0/1 made no journal progress for 1.0 s"));
  // The abort came just after the timeout, then the 0.25 s backoff.
  EXPECT_EQ(clock_.sleeps(), std::vector<double>{0.25});
  EXPECT_GT(clock_.now_s(), 1.25);
  EXPECT_LT(clock_.now_s(), 1.35);
}

TEST_F(FabricTest, JournalGrowthResetsTheLivenessTimer) {
  // Grows every 40 waits (under the 1 s timeout at any liveness poll up to
  // 25 ms), 10 times in a row, then finishes.
  FakeTransport t(clock_, [](int, int wait) {
    return wait < 400 ? running(static_cast<std::uint64_t>(wait / 40 + 1))
                      : ended(State::kDone);
  });
  run({&t}, /*worker_retries=*/2, /*worker_timeout_s=*/1.0);
  EXPECT_EQ(t.aborts(), 0);
  EXPECT_EQ(t.launches().size(), 1u);
}

TEST_F(FabricTest, ZeroTimeoutDisablesTheWatchdog) {
  FakeTransport t(clock_, [](int, int wait) {
    return wait < 1000 ? running(100) : ended(State::kDone);  // no growth, ever
  });
  run({&t}, /*worker_retries=*/2, /*worker_timeout_s=*/0.0);
  EXPECT_EQ(t.aborts(), 0);
  EXPECT_EQ(t.launches().size(), 1u);
}

TEST_F(FabricTest, FreshCampaignRemovesStaleJournals) {
  const std::string stale = harness::shard_journal_path(dir_, 1);
  std::ofstream(stale) << "stale bytes of an older campaign";
  FakeTransport t(clock_, [](int, int) { return ended(State::kDone); });
  run({&t, &t});
  EXPECT_FALSE(std::filesystem::exists(stale));
  EXPECT_EQ(t.launches().size(), 2u);
}

TEST_F(FabricTest, ResumeSkipsCompleteShardsAndResumesTheFirstLaunch) {
  harness::SpecSweepOptions shard0 = fixture_campaign();
  shard0.shard_index = 0;
  shard0.shard_count = 2;
  shard0.journal_path = harness::shard_journal_path(dir_, 0);
  harness::run_spec_sweep(shard0);

  campaign_.resume = true;
  FakeTransport first(clock_, [](int, int) { return ended(State::kDone); });
  FakeTransport second(clock_, [](int, int) { return ended(State::kDone); });
  run({&first, &second});
  EXPECT_TRUE(first.launches().empty());
  ASSERT_EQ(second.launches().size(), 1u);
  EXPECT_TRUE(second.launches()[0].resume);
  EXPECT_TRUE(second.launches()[0].with_fault);
  EXPECT_TRUE(noted("shard 0/2 is already complete"));
}

TEST_F(FabricTest, ForeignJournalOnARemoteShardRefusesBeforeAnyLaunch) {
  // Shards 0-1 stand for local workers, shard 2 for a daemon: the audit is
  // the fabric's, so the refusal is the same whatever the transport.
  const std::string foreign = harness::shard_journal_path(dir_, 2);
  harness::SpecSweepOptions other = fixture_campaign();
  other.seed_base = 4242;
  other.shard_index = 2;
  other.shard_count = 3;
  other.journal_path = foreign;
  harness::run_spec_sweep(other);
  const std::string bytes = read_file(foreign);

  campaign_.resume = true;
  FakeTransport local(clock_, [](int, int) { return ended(State::kDone); });
  FakeTransport remote(clock_, [](int, int) { return ended(State::kDone); });
  try {
    run({&local, &local, &remote});
    FAIL() << "a foreign shard journal must refuse the resume";
  } catch (const harness::SweepJournalError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'" + foreign + "' was written by a different campaign"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("delete it or rerun without resume"), std::string::npos) << what;
  }
  EXPECT_TRUE(local.launches().empty());
  EXPECT_TRUE(remote.launches().empty());
  EXPECT_EQ(read_file(foreign), bytes);
}

TEST_F(FabricTest, UnrecordedPointsOfAGivenUpShardMergeAsFailed) {
  FakeTransport t(clock_, [](int, int) { return ended(State::kCrashed); });
  const auto results = run({&t}, /*worker_retries=*/0);
  ASSERT_EQ(results.size(), 3u);
  for (const auto& point : results) EXPECT_TRUE(point.exec.failed());
  EXPECT_TRUE(noted("gave up after 1 attempt(s)"));
}

}  // namespace
