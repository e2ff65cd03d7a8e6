#include "harness/fabric.hpp"

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <mutex>
#include <thread>
#include <utility>

#include "harness/journal.hpp"
#include "harness/remote.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "util/clock.hpp"
#include "util/subprocess.hpp"

namespace dtn::harness {

namespace {

using State = AttemptStatus::State;

/// How often the journal of a running attempt is checked when a liveness
/// timeout is set. Without one, an attempt is waited on until it ends.
constexpr double kLivenessPollS = 0.02;

/// printf-style message on the launch's diagnostics channel.
[[gnu::format(printf, 2, 3)]] void note(const ShardLaunch& launch, const char* fmt,
                                        ...) {
  if (!launch.note) return;
  char buf[1024];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  launch.note(buf);
}

AttemptStatus ended(State state, std::string origin = "") {
  return {state, 0, std::move(origin)};
}

class SteadyClock final : public FabricClock {
 public:
  double now_s() override { return util::monotonic_ms() / 1000.0; }
  void sleep_for(double seconds) override {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  }
};

class LocalAttempt final : public ShardAttempt {
 public:
  LocalAttempt(ShardLaunch launch, util::Subprocess proc)
      : launch_(std::move(launch)), proc_(std::move(proc)) {}

  AttemptStatus wait(double max_wait_s) override {
    if (max_wait_s >= 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(max_wait_s));
    }
    const util::ProcessStatus status = max_wait_s < 0 ? proc_.wait() : proc_.poll();
    const std::size_t shard = launch_.shard;
    const std::size_t count = launch_.shard_count;
    if (status.running) {
      // A shard journal only grows (one record per completed point), so
      // "the journal stopped growing" is the observable form of a hang.
      std::error_code error;
      const std::uintmax_t size = std::filesystem::file_size(launch_.journal, error);
      return {State::kRunning, error ? 0 : size, ""};
    }
    // Exit 1 = the worker already retried its failed points itself.
    if (status.exited && (status.exit_code == 0 || status.exit_code == 1)) {
      return ended(State::kDone);
    }
    if (status.exited && status.exit_code == 2) {
      note(launch_, "worker for shard %zu/%zu exited with a configuration error "
                    "(exit 2); not restarting", shard, count);
      return ended(State::kRefused);
    }
    if (status.signaled) {
      note(launch_, "worker for shard %zu/%zu died on signal %d", shard, count,
           status.term_signal);
    } else {
      note(launch_, "worker for shard %zu/%zu exited abnormally (code %d%s)", shard,
           count, status.exit_code, status.exit_code == 127 ? ", exec failed" : "");
    }
    return ended(State::kCrashed);
  }

  void abort() override {
    proc_.kill_hard();
    proc_.wait();
  }

 private:
  ShardLaunch launch_;
  util::Subprocess proc_;
};

}  // namespace

LocalShardTransport::LocalShardTransport(std::vector<std::string> argv_prefix,
                                         std::string fault)
    : argv_prefix_(std::move(argv_prefix)), fault_(std::move(fault)) {}

std::unique_ptr<ShardAttempt> LocalShardTransport::launch(const ShardLaunch& launch) {
  std::vector<std::string> argv = argv_prefix_;
  argv.insert(argv.end(), {"--journal", launch.journal, "--shard",
                           std::to_string(launch.shard) + "/" +
                               std::to_string(launch.shard_count)});
  if (launch.resume) argv.push_back("--resume");
  if (launch.with_fault && !fault_.empty()) argv.insert(argv.end(), {"--fault", fault_});
  util::Subprocess proc;
  std::string error;
  // Workers' stdout (their own tables) would corrupt the driver's output;
  // stderr stays inherited so worker diagnostics reach the operator.
  if (!proc.spawn(argv, /*discard_stdout=*/true, &error)) {
    note(launch, "cannot spawn worker for shard %zu/%zu: %s", launch.shard,
         launch.shard_count, error.c_str());
    return nullptr;
  }
  return std::make_unique<LocalAttempt>(launch, std::move(proc));
}

/// A failed connect, handshake or connection marks a host dead for
/// restart_backoff_s(consecutive failures), so every shard's rotation
/// skips it until the window expires.
class HostBook {
 public:
  explicit HostBook(std::vector<HostSpec> hosts) {
    for (auto& h : hosts) entries_.push_back(Entry{std::move(h), {}, 0});
  }

  /// First live host at or after `preferred` (round-robin), its endpoint
  /// in `spec`; -1 when every host is inside its backoff window.
  int pick(std::size_t preferred, HostSpec& spec) {
    const auto now = std::chrono::steady_clock::now();
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t k = 0; k < entries_.size(); ++k) {
      const std::size_t i = (preferred + k) % entries_.size();
      if (entries_[i].dead_until > now) continue;
      spec = entries_[i].spec;
      return static_cast<int>(i);
    }
    return -1;
  }

  void mark_dead(int index) {
    const std::lock_guard<std::mutex> lock(mutex_);
    Entry& e = entries_[static_cast<std::size_t>(index)];
    e.dead_until = std::chrono::steady_clock::now() +
                   std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                       std::chrono::duration<double>(restart_backoff_s(e.failures++)));
  }

  void mark_alive(int index) {
    const std::lock_guard<std::mutex> lock(mutex_);
    entries_[static_cast<std::size_t>(index)] = {
        entries_[static_cast<std::size_t>(index)].spec, {}, 0};
  }

 private:
  struct Entry {
    HostSpec spec;
    std::chrono::steady_clock::time_point dead_until{};
    int failures = 0;
  };
  std::vector<Entry> entries_;
  std::mutex mutex_;
};

namespace {

/// One assigned shard on one daemon, after a successful handshake.
class RemoteAttempt final : public ShardAttempt {
 public:
  RemoteAttempt(ShardLaunch launch, net::Stream conn, net::FrameDecoder decoder,
                HostBook& book, int host, std::string where)
      : launch_(std::move(launch)), conn_(std::move(conn)), decoder_(std::move(decoder)),
        book_(book), host_(host), where_(std::move(where)) {}

  AttemptStatus wait(double max_wait_s) override {
    const std::size_t shard = launch_.shard;
    const std::size_t count = launch_.shard_count;
    // Block for the first bytes, then drain whatever else has arrived.
    int wait_ms = max_wait_s < 0 ? -1 : static_cast<int>(max_wait_s * 1000);
    char buf[65536];
    std::size_t got = 0;
    net::RecvStatus received;
    while ((received = conn_.recv_some(buf, sizeof(buf), wait_ms, &got)) ==
           net::RecvStatus::kData) {
      decoder_.feed(buf, got);
      wait_ms = 0;
    }
    net::Message msg;
    for (;;) {
      const net::FrameDecoder::Result result = decoder_.next(&msg);
      if (result == net::FrameDecoder::Result::kNeedMore) break;
      if (result == net::FrameDecoder::Result::kCorrupt) {
        return lost(decoder_.corrupt_reason());
      }
      std::uint64_t records = 0;
      std::uint64_t bytes = 0;
      switch (msg.type) {
        case net::MessageType::kProgress:
          if (parse_sweep_progress(msg.payload, &records, &bytes)) progress_ = bytes;
          break;
        case net::MessageType::kJournal:
          journal_ = std::move(msg.payload);
          have_journal_ = true;
          break;
        case net::MessageType::kDone:
          return land_journal();
        case net::MessageType::kError:
          // Foreign fingerprint, unusable scratch, structural spec error:
          // another host would refuse the same way.
          note(launch_, "shard %zu/%zu: %s reported: %s", shard, count, where_.c_str(),
               msg.payload.c_str());
          return ended(State::kRefused);
        default:
          note(launch_, "shard %zu/%zu: unexpected %s message from %s", shard, count,
               net::message_type_token(msg.type), where_.c_str());
          return failed();
      }
    }
    if (received == net::RecvStatus::kEof) {
      return lost(decoder_.pending() > 0 ? "connection closed mid-frame" : "");
    }
    if (received == net::RecvStatus::kError) return lost(conn_.last_error());
    return {State::kRunning, progress_, ""};
  }

  void abort() override {
    book_.mark_dead(host_);
    conn_.close();
  }

 private:
  AttemptStatus failed() {
    abort();
    return ended(State::kCrashed);
  }

  AttemptStatus lost(const std::string& error) {
    note(launch_, "shard %zu/%zu: connection to %s lost%s%s", launch_.shard,
         launch_.shard_count, where_.c_str(), error.empty() ? "" : ": ", error.c_str());
    return failed();
  }

  /// DONE: publish the shipped journal via tmp + durable_replace, like --out.
  AttemptStatus land_journal() {
    if (!have_journal_) {
      note(launch_, "shard %zu/%zu: %s sent DONE without a journal", launch_.shard,
           launch_.shard_count, where_.c_str());
      return failed();
    }
    const std::string tmp = launch_.journal + ".tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    bool wrote = f != nullptr &&
                 std::fwrite(journal_.data(), 1, journal_.size(), f) == journal_.size();
    if (f != nullptr && std::fclose(f) != 0) wrote = false;
    std::string error;
    if (!wrote || !durable_replace(tmp, launch_.journal, &error)) {
      note(launch_, "shard %zu/%zu: cannot store received journal '%s'%s%s",
           launch_.shard, launch_.shard_count, launch_.journal.c_str(),
           error.empty() ? "" : ": ", error.c_str());
      std::remove(tmp.c_str());
      return ended(State::kRefused);  // a local disk problem; no host can fix it
    }
    return ended(State::kDone, where_);
  }

  ShardLaunch launch_;
  net::Stream conn_;
  net::FrameDecoder decoder_;
  HostBook& book_;
  int host_;
  std::string where_;
  std::uint64_t progress_ = 0;
  std::string journal_;
  bool have_journal_ = false;
};

}  // namespace

RemoteShardTransport::RemoteShardTransport(const SpecSweepOptions& campaign,
                                           std::vector<HostSpec> hosts,
                                           std::size_t first_shard)
    : assigned_(campaign),
      first_shard_(first_shard),
      book_(std::make_unique<HostBook>(std::move(hosts))) {
  // Daemon-local choices stay the daemon's.
  assigned_.journal_path.clear();
  assigned_.threads = 0;
  assigned_.progress = nullptr;
  assigned_.note = nullptr;
  assigned_.fault_plan = nullptr;
}

RemoteShardTransport::~RemoteShardTransport() = default;

std::unique_ptr<ShardAttempt> RemoteShardTransport::launch(const ShardLaunch& launch) {
  SpecSweepOptions assigned = assigned_;
  assigned.shard_index = launch.shard;
  assigned.shard_count = launch.shard_count;
  assigned.resume = launch.resume;
  const std::string hello = serialize_sweep_hello(sweep_campaign_fingerprint(assigned));
  HostSpec spec;
  int host = -1;
  while ((host = book_->pick(launch.shard - first_shard_ +
                                 static_cast<std::size_t>(launch.attempt),
                             spec)) < 0) {
    // Every host is inside its backoff window (at most 5 s).
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  const std::string where = spec.host + ":" + std::to_string(spec.port);
  std::string error;
  net::Stream conn = net::Stream::connect(spec.host, spec.port, 5000, &error);
  net::FrameDecoder decoder;
  net::Message msg;
  // The echo wait is generous on purpose: a busy daemon (one campaign at a
  // time) parks this connection in its listen backlog until its current
  // shard completes.
  if (!conn.open()) {
    note(launch, "shard %zu/%zu: %s", launch.shard, launch.shard_count, error.c_str());
  } else if (!net::send_message(conn, net::MessageType::kHello, hello) ||
             net::recv_message(conn, decoder, 30000, &msg, &error) !=
                 net::WireRecvStatus::kMessage ||
             msg.type != net::MessageType::kHello || msg.payload != hello ||
             !net::send_message(conn, net::MessageType::kAssign,
                                serialize_sweep_assignment(assigned))) {
    note(launch, "shard %zu/%zu: handshake with %s failed%s%s", launch.shard,
         launch.shard_count, where.c_str(), error.empty() ? "" : ": ", error.c_str());
  } else {
    book_->mark_alive(host);  // spoke the protocol; clear its backoff
    return std::make_unique<RemoteAttempt>(launch, std::move(conn), std::move(decoder),
                                           *book_, host, where);
  }
  book_->mark_dead(host);
  return nullptr;
}

double restart_backoff_s(int retry) {
  return std::min(5.0, 0.25 * static_cast<double>(1 << std::min(retry, 10)));
}

std::string shard_journal_path(const std::string& shard_dir, std::size_t shard) {
  return shard_dir + "/shard-" + std::to_string(shard) + ".journal";
}

namespace {

/// Waits for `attempt` to end, aborting it (as a crash) once its journal
/// has not grown for the fleet's liveness timeout.
AttemptStatus watch(ShardAttempt& attempt, const ShardFleet& fleet, FabricClock& clock,
                    const ShardLaunch& launch) {
  const bool liveness = fleet.worker_timeout_s > 0;
  std::uint64_t last_progress = 0;
  double last_growth = clock.now_s();
  for (;;) {
    AttemptStatus status = attempt.wait(liveness ? kLivenessPollS : -1.0);
    if (status.state != State::kRunning) return status;
    if (!liveness) continue;
    const double now = clock.now_s();
    if (status.progress != last_progress) {
      last_progress = status.progress;
      last_growth = now;
    } else if (now - last_growth > fleet.worker_timeout_s) {
      note(launch, "shard %zu/%zu made no journal progress for %.1f s; aborting the "
                   "attempt", launch.shard, launch.shard_count, fleet.worker_timeout_s);
      attempt.abort();
      return ended(State::kCrashed);
    }
  }
}

/// Drives one shard through at most 1 + worker_retries attempts. Returns
/// where it completed ("" = here, or nowhere).
std::string supervise_shard(const ShardFleet& fleet, FabricClock& clock,
                            ShardLaunch launch, bool campaign_resume) {
  const int attempts = 1 + fleet.worker_retries;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      const double delay_s = restart_backoff_s(attempt - 1);
      note(launch, "restarting shard %zu/%zu in %.2f s (attempt %d of %d)", launch.shard,
           launch.shard_count, delay_s, attempt + 1, attempts);
      clock.sleep_for(delay_s);
    }
    launch.attempt = attempt;
    // Restarts always resume (that is the point of the shard journal); a
    // first launch resumes only when the campaign does, and alone carries
    // the fault plan: a restart must not re-trip the fault it recovers from.
    launch.resume = campaign_resume || attempt > 0;
    launch.with_fault = attempt == 0;
    const auto started = fleet.transports[launch.shard]->launch(launch);
    if (!started) continue;
    const AttemptStatus status = watch(*started, fleet, clock, launch);
    if (status.state == State::kDone) return status.origin;
    if (status.state == State::kRefused) return "";
  }
  note(launch, "shard %zu/%zu gave up after %d attempt(s); its unrecorded points will "
               "be reported failed", launch.shard, launch.shard_count, attempts);
  return "";
}

}  // namespace

std::vector<SpecPointResult> run_shard_fleet(const SpecSweepOptions& campaign,
                                             const ShardFleet& fleet,
                                             SweepMergeStats* stats) {
  SteadyClock steady;
  FabricClock& clock = fleet.clock != nullptr ? *fleet.clock : steady;
  const std::size_t count = fleet.transports.size();
  std::mutex note_mutex;
  const auto serialized_note = [&campaign, &note_mutex](const std::string& message) {
    if (!campaign.note) return;
    const std::lock_guard<std::mutex> lock(note_mutex);
    campaign.note(message);
  };

  // Preparation, before anything launches.
  std::vector<std::string> journals;
  std::vector<ShardLaunch> pending;
  for (std::size_t s = 0; s < count; ++s) {
    journals.push_back(shard_journal_path(fleet.shard_dir, s));
    ShardLaunch launch;
    launch.shard = s;
    launch.shard_count = count;
    launch.journal = journals[s];
    launch.note = serialized_note;
    if (!campaign.resume) {
      // A stale journal of an older campaign must not leak into the merge.
      std::remove(launch.journal.c_str());
    } else if (const auto state = audit_shard_journal(campaign, s, count, launch.journal);
               state == ShardJournalState::kForeign) {
      throw SweepJournalError("cannot resume: shard journal '" + launch.journal +
                              "' was written by a different campaign (base spec, axes, "
                              "seeds, or seed base differ) — delete it or rerun without "
                              "resume");
    } else if (state == ShardJournalState::kComplete) {
      note(launch, "shard %zu/%zu is already complete in '%s'; not relaunching", s, count,
           launch.journal.c_str());
      continue;
    }
    pending.push_back(std::move(launch));
  }

  std::vector<std::string> origins(count);
  std::vector<std::exception_ptr> errors(count);
  std::vector<std::jthread> threads;  // joined on every exit path
  for (ShardLaunch& launch : pending) {
    threads.emplace_back([&, launch = std::move(launch)] {
      try {
        origins[launch.shard] = supervise_shard(fleet, clock, launch, campaign.resume);
      } catch (...) {
        errors[launch.shard] = std::current_exception();
      }
    });
  }
  threads.clear();
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return merge_sweep_journals(campaign, journals, stats, origins);
}

}  // namespace dtn::harness
