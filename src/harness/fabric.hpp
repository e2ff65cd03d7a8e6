// Shard supervision for `dtnsim sweep --workers N` and `--hosts`: ONE
// policy (run_shard_fleet) that drives every shard of a campaign to
// completion over either transport —
//   - LocalShardTransport: a fork/exec'd `dtnsim sweep --shard i/N` child
//     per attempt; liveness = the size of its shard journal;
//   - RemoteShardTransport: the `%DTNW1` HELLO/ASSIGN/PROGRESS/JOURNAL/DONE
//     exchange with a `dtnsim serve` daemon; liveness = the journal length
//     it reports; failing hosts sit out a backoff, shards rotate hosts.
//
// The policy:
//   - a fresh campaign removes stale shard journals; `resume` audits every
//     shard journal before anything launches: another campaign's journal
//     refuses the campaign (nothing launched, nothing deleted), complete
//     shards are skipped;
//   - done (exit 0/1, DONE + JOURNAL) ends a shard; refused (exit 2, an
//     ERROR frame, a journal that cannot be stored) gives it up; anything
//     else — a signal, a lost or corrupt connection, DONE without a
//     journal, no journal growth for `worker_timeout_s` — restarts it
//     after restart_backoff_s, resuming its journal, for at most
//     1 + worker_retries attempts;
//   - the `--fault` plan rides only on a shard's first launch;
//   - the shard journals are merged (merge_sweep_journals): the points of
//     a shard that gave up come back failed-with-reason.
//
// Each shard is supervised on its own thread, which blocks in its attempt
// until the attempt ends — or, with a liveness timeout, wakes every 20 ms
// to check the journal. The clock (now, restart backoff) is a seam, so the
// policy is testable in-process with a fake transport and scripted time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness/sweep.hpp"

namespace dtn::harness {

/// Delay before restart number `retry` (0-based): 0.25 s doubling, capped
/// at 5 s. Also the dead-host window of the remote transport.
double restart_backoff_s(int retry);

/// `<shard_dir>/shard-<i>.journal`, where shard i's journal lands.
std::string shard_journal_path(const std::string& shard_dir, std::size_t shard);

/// Time as the supervisor sees it (attempts wait in their own time). The
/// default is the steady clock.
class FabricClock {
 public:
  virtual ~FabricClock() = default;
  virtual double now_s() = 0;
  virtual void sleep_for(double seconds) = 0;
};

/// One attempt at one shard, as the transport is asked to start it.
struct ShardLaunch {
  std::size_t shard = 0;
  std::size_t shard_count = 1;
  std::string journal;     ///< where the shard's journal must end up
  int attempt = 0;         ///< 0-based
  bool resume = false;     ///< continue the shard journal
  bool with_fault = false; ///< forward the test-only fault plan
  std::function<void(const std::string&)> note;  ///< diagnostics (may be empty)
};

/// What one wait on an attempt found.
struct AttemptStatus {
  enum class State { kRunning, kDone, kRefused, kCrashed };
  State state = State::kRunning;
  std::uint64_t progress = 0;  ///< kRunning: journal bytes (liveness probe)
  std::string origin;          ///< kDone: where the shard ran ("" = here)
};

/// A started attempt.
class ShardAttempt {
 public:
  virtual ~ShardAttempt() = default;
  /// Waits up to `max_wait_s` (< 0: unbounded) for the attempt to end or
  /// report progress, then returns its state.
  virtual AttemptStatus wait(double max_wait_s) = 0;
  /// Ends a stalled attempt.
  virtual void abort() = 0;
};

/// Starts attempts. Returns null (after a note) when the attempt could not
/// start; the supervisor treats that as a crash. Must be thread-safe.
class ShardTransport {
 public:
  virtual ~ShardTransport() = default;
  virtual std::unique_ptr<ShardAttempt> launch(const ShardLaunch& launch) = 0;
};

/// A child `dtnsim sweep` per attempt: `argv_prefix` is the executable and
/// everything up to the per-shard flags (--journal, --shard, --resume and,
/// on a first launch, --fault `fault`).
class LocalShardTransport final : public ShardTransport {
 public:
  LocalShardTransport(std::vector<std::string> argv_prefix, std::string fault);
  std::unique_ptr<ShardAttempt> launch(const ShardLaunch& launch) override;

 private:
  std::vector<std::string> argv_prefix_;
  std::string fault_;
};

/// One `--hosts` endpoint.
struct HostSpec {
  std::string host;
  int port = 0;
};

class HostBook;  ///< health of the remote hosts (fabric.cpp)

/// `dtnsim serve` daemons. Shard `first_shard + r` starts on host r (mod
/// the host count) and moves one host on with every attempt, skipping
/// hosts inside their backoff window.
class RemoteShardTransport final : public ShardTransport {
 public:
  RemoteShardTransport(const SpecSweepOptions& campaign, std::vector<HostSpec> hosts,
                       std::size_t first_shard);
  ~RemoteShardTransport() override;
  std::unique_ptr<ShardAttempt> launch(const ShardLaunch& launch) override;

 private:
  SpecSweepOptions assigned_;  ///< the campaign minus host-local choices
  std::size_t first_shard_;
  std::unique_ptr<HostBook> book_;
};

/// The fleet: one transport per shard (index = shard; the count is the
/// shard selector's N). Transports are borrowed.
struct ShardFleet {
  std::string shard_dir;
  std::vector<ShardTransport*> transports;
  int worker_retries = 2;         ///< attempts per shard = 1 + worker_retries
  double worker_timeout_s = 0.0;  ///< journal-growth liveness timeout; 0 = off
  FabricClock* clock = nullptr;   ///< null = steady clock
};

/// Supervises every shard of `campaign` (its resume flag and note channel
/// apply) to completion or give-up, then merges the shard journals.
/// Throws SweepJournalError when `resume` meets another campaign's journal.
std::vector<SpecPointResult> run_shard_fleet(const SpecSweepOptions& campaign,
                                             const ShardFleet& fleet,
                                             SweepMergeStats* stats);

}  // namespace dtn::harness
