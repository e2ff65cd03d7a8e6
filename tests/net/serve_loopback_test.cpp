// End-to-end loopback acceptance of the multi-host campaign fabric: real
// `dtnsim serve` daemons (fork/exec'd from the build's own binary), a
// real `dtnsim sweep --hosts` driver, real TCP on 127.0.0.1.
//
// The properties proven here are the fabric's contract:
//   1. a two-daemon campaign produces aggregates BYTE-IDENTICAL to the
//      single-process run, modulo the documented volatile `"exec` lines;
//   2. SIGKILLing a daemon still converges (the driver reassigns the dead
//      daemon's shard to a surviving host) with identical bytes;
//   3. killing EVERY daemon degrades to exit 1 with received journals
//      kept, and a later `--resume` against restarted daemons closes
//      exactly the gap — same bytes again;
//   4. a daemon refuses an ASSIGN whose campaign does not match the HELLO
//      fingerprint digest (foreign campaign), loudly, with an ERROR frame;
//   5. a lying daemon (DONE without JOURNAL, an unexpected message type, a
//      CRC-corrupt frame, a heartbeat that never grows) costs the driver
//      an attempt, never a crash: reassignment, then give-up, exit 1.
//
// Compiled only when CMake bakes in DTNSIM_BINARY (the dtnsim tool path).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/remote.hpp"
#include "harness/spec_io.hpp"
#include "harness/sweep.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "util/subprocess.hpp"

#ifndef DTNSIM_BINARY
#error "serve_loopback_test needs -DDTNSIM_BINARY=\"...\" from CMake"
#endif
#ifndef DTNSIM_FIXTURE_DIR
#error "serve_loopback_test needs -DDTNSIM_FIXTURE_DIR=\"...\" from CMake"
#endif

namespace {

using namespace dtn;

const char* const kFixture = DTNSIM_FIXTURE_DIR "/resume.cfg";

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Drops every line containing `"exec` — the documented volatile-metadata
/// filter of the dtnsim-sweep/1 JSON schema (wall_ms, resumed, origin).
std::string filter_exec_lines(const std::string& text) {
  std::string kept;
  std::size_t at = 0;
  while (at < text.size()) {
    std::size_t nl = text.find('\n', at);
    if (nl == std::string::npos) nl = text.size() - 1;
    const std::string line = text.substr(at, nl - at + 1);
    if (line.find("\"exec") == std::string::npos) kept += line;
    at = nl + 1;
  }
  return kept;
}

/// One `dtnsim serve` daemon on an ephemeral loopback port.
struct Daemon {
  util::Subprocess proc;
  int port = 0;

  bool start(const std::string& scratch, const std::string& port_file) {
    std::remove(port_file.c_str());
    std::string error;
    if (!proc.spawn({DTNSIM_BINARY, "serve", "--port", "0", "--bind",
                     "127.0.0.1", "--scratch", scratch, "--port-file",
                     port_file},
                    /*discard_stdout=*/true, &error)) {
      ADD_FAILURE() << "cannot spawn daemon: " << error;
      return false;
    }
    // The daemon publishes its bound port via rename; poll for it.
    for (int tries = 0; tries < 250; ++tries) {
      const std::string text = read_file(port_file);
      if (!text.empty()) {
        port = std::stoi(text);
        return port > 0;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ADD_FAILURE() << "daemon never published its port";
    return false;
  }

  void stop() {
    proc.kill_hard();
    proc.wait();
  }
};

int run_driver(const std::vector<std::string>& extra_args) {
  std::vector<std::string> argv = {
      DTNSIM_BINARY, "sweep",  kFixture, "--axis", "protocol.copies=2,4",
      "--seeds",     "2",      "--quiet"};
  argv.insert(argv.end(), extra_args.begin(), extra_args.end());
  util::Subprocess driver;
  std::string error;
  if (!driver.spawn(argv, /*discard_stdout=*/true, &error)) {
    ADD_FAILURE() << "cannot spawn driver: " << error;
    return -1;
  }
  const util::ProcessStatus status = driver.wait();
  return status.exited ? status.exit_code : -status.term_signal;
}

std::string hosts_arg(const std::vector<const Daemon*>& daemons) {
  std::string joined;
  for (const Daemon* d : daemons) {
    if (!joined.empty()) joined += ",";
    joined += "127.0.0.1:" + std::to_string(d->port);
  }
  return joined;
}

class ServeLoopbackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "serve_loopback/";
    // Scrub state left by previous invocations: the campaign fingerprint
    // deliberately ignores the binary's version, so a daemon pointed at a
    // stale scratch dir would --resume metric bits computed by an OLDER
    // build and the byte-identity assertions would compare across builds.
    std::error_code scrub_error;
    std::filesystem::remove_all(dir_, scrub_error);
    std::filesystem::create_directories(dir_);
    std::remove((dir_ + "clean.json").c_str());
    ASSERT_EQ(run_driver({"--out", dir_ + "clean.json"}), 0);
    clean_ = filter_exec_lines(read_file(dir_ + "clean.json"));
    ASSERT_FALSE(clean_.empty());
  }

  std::string dir_;
  std::string clean_;  ///< single-process reference, volatile lines dropped
};

TEST_F(ServeLoopbackTest, TwoDaemonCampaignMatchesSingleProcessBytes) {
  Daemon a, b;
  ASSERT_TRUE(a.start(dir_ + "s_a", dir_ + "p_a"));
  ASSERT_TRUE(b.start(dir_ + "s_b", dir_ + "p_b"));
  const std::string out = dir_ + "multi.json";
  EXPECT_EQ(run_driver({"--out", out, "--hosts", hosts_arg({&a, &b})}), 0);
  EXPECT_EQ(filter_exec_lines(read_file(out)), clean_);
  // Origins are per-shard remote endpoints, on the volatile lines only.
  const std::string raw = read_file(out);
  EXPECT_NE(raw.find("\"origin\": \"127.0.0.1:"), std::string::npos);
  a.stop();
  b.stop();
}

TEST_F(ServeLoopbackTest, SigkilledDaemonShardIsReassigned) {
  Daemon a, b;
  ASSERT_TRUE(a.start(dir_ + "s_a2", dir_ + "p_a2"));
  ASSERT_TRUE(b.start(dir_ + "s_b2", dir_ + "p_b2"));
  const std::string out = dir_ + "killed.json";
  const std::string hosts = hosts_arg({&a, &b});

  // Kill daemon `a` shortly after the campaign starts. Wherever the kill
  // lands — before the connect, mid-shard, or after its shard completed —
  // the driver must converge to the same bytes: failover is allowed to
  // change WHO computes, never WHAT.
  std::thread killer([&a] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    a.stop();
  });
  EXPECT_EQ(run_driver({"--out", out, "--hosts", hosts}), 0);
  killer.join();
  EXPECT_EQ(filter_exec_lines(read_file(out)), clean_);
  b.stop();
}

TEST_F(ServeLoopbackTest, AllDaemonsDeadDegradesThenResumeConverges) {
  Daemon a, b;
  ASSERT_TRUE(a.start(dir_ + "s_a3", dir_ + "p_a3"));
  ASSERT_TRUE(b.start(dir_ + "s_b3", dir_ + "p_b3"));
  const std::string hosts = hosts_arg({&a, &b});
  a.stop();
  b.stop();  // every daemon dead before the campaign starts

  const std::string out = dir_ + "degraded.json";
  // Exhausted retries must degrade: exit 1, journals kept for --resume.
  EXPECT_EQ(run_driver({"--out", out, "--hosts", hosts, "--worker-retries",
                        "1"}),
            1);
  // Degradation still publishes (all points failed-with-reason) and keeps
  // the shard work dir as the resume anchor.
  EXPECT_NE(read_file(out).find("\"status\": \"failed\""), std::string::npos);
  EXPECT_TRUE(std::filesystem::exists(out + ".journal.shards"));

  // Fresh daemons (new ports), resume the same campaign: the gap — here
  // everything — is recomputed and the bytes converge.
  Daemon c, d;
  ASSERT_TRUE(c.start(dir_ + "s_c3", dir_ + "p_c3"));
  ASSERT_TRUE(d.start(dir_ + "s_d3", dir_ + "p_d3"));
  EXPECT_EQ(run_driver({"--out", out, "--hosts", hosts_arg({&c, &d}),
                        "--resume"}),
            0);
  EXPECT_EQ(filter_exec_lines(read_file(out)), clean_);
  c.stop();
  d.stop();
}

TEST_F(ServeLoopbackTest, ForeignFingerprintAssignIsRefused) {
  Daemon a;
  ASSERT_TRUE(a.start(dir_ + "s_a4", dir_ + "p_a4"));

  // Speak the protocol by hand: a HELLO advertising one campaign's digest,
  // then an ASSIGN carrying a DIFFERENT campaign.
  std::string error;
  net::Stream conn = net::Stream::connect("127.0.0.1", a.port, 5000, &error);
  ASSERT_TRUE(conn.open()) << error;
  const std::string hello =
      harness::serialize_sweep_hello("a fingerprint of some other campaign");
  ASSERT_TRUE(net::send_message(conn, net::MessageType::kHello, hello));
  net::FrameDecoder decoder;
  net::Message msg;
  ASSERT_EQ(net::recv_message(conn, decoder, 5000, &msg, &error),
            net::WireRecvStatus::kMessage)
      << error;
  ASSERT_EQ(msg.type, net::MessageType::kHello);  // echo ack

  harness::SpecSweepOptions options;
  options.base = harness::load_spec(kFixture);
  harness::SweepAxis axis;
  axis.key = "protocol.copies";
  axis.values = {"2", "4"};
  options.axes.push_back(axis);
  options.seeds = 2;
  options.seed_base = 7;
  options.shard_index = 0;
  options.shard_count = 1;
  ASSERT_TRUE(net::send_message(conn, net::MessageType::kAssign,
                                harness::serialize_sweep_assignment(options)));
  ASSERT_EQ(net::recv_message(conn, decoder, 5000, &msg, &error),
            net::WireRecvStatus::kMessage)
      << error;
  EXPECT_EQ(msg.type, net::MessageType::kError);
  EXPECT_NE(msg.payload.find("fingerprint mismatch"), std::string::npos)
      << msg.payload;

  // The refusal must not kill the daemon: a well-matched campaign on a
  // fresh connection still gets served (HELLO echo proves liveness).
  net::Stream again = net::Stream::connect("127.0.0.1", a.port, 5000, &error);
  ASSERT_TRUE(again.open()) << error;
  const std::string fingerprint = harness::sweep_campaign_fingerprint(options);
  ASSERT_TRUE(net::send_message(again, net::MessageType::kHello,
                                harness::serialize_sweep_hello(fingerprint)));
  net::FrameDecoder decoder2;
  ASSERT_EQ(net::recv_message(again, decoder2, 5000, &msg, &error),
            net::WireRecvStatus::kMessage)
      << error;
  EXPECT_EQ(msg.type, net::MessageType::kHello);
  a.stop();
}

enum class Lie { kDoneWithoutJournal, kUnexpectedMessage, kCorruptFrame, kStalledHeartbeat };

/// An in-test daemon on 127.0.0.1:0 that completes every handshake, takes
/// the ASSIGN, and then lies.
class LyingDaemon {
 public:
  explicit LyingDaemon(Lie lie) : lie_(lie) {
    std::string error;
    listener_ = net::Listener::open("127.0.0.1", 0, &error);
    EXPECT_TRUE(listener_.is_open()) << error;
    thread_ = std::thread([this] { serve(); });
  }
  ~LyingDaemon() {
    stop_ = true;
    thread_.join();
  }
  LyingDaemon(const LyingDaemon&) = delete;
  LyingDaemon& operator=(const LyingDaemon&) = delete;
  int port() const { return listener_.port(); }
  int assignments() const { return assignments_.load(); }

 private:
  void serve() {
    while (!stop_) {
      net::Stream conn = listener_.accept(100);
      if (!conn.open()) continue;
      net::FrameDecoder decoder;
      net::Message msg;
      std::string error;
      if (net::recv_message(conn, decoder, 5000, &msg, &error) !=
              net::WireRecvStatus::kMessage ||
          msg.type != net::MessageType::kHello ||
          !net::send_message(conn, net::MessageType::kHello, msg.payload) ||
          net::recv_message(conn, decoder, 5000, &msg, &error) !=
              net::WireRecvStatus::kMessage ||
          msg.type != net::MessageType::kAssign) {
        continue;
      }
      ++assignments_;
      tell_lie(conn);
      // Hold the connection until the driver hangs up.
      char buf[256];
      std::size_t got = 0;
      while (conn.recv_some(buf, sizeof(buf), 5000, &got) == net::RecvStatus::kData) {
      }
    }
  }

  void tell_lie(net::Stream& conn) {
    switch (lie_) {
      case Lie::kDoneWithoutJournal:
        net::send_message(conn, net::MessageType::kDone, "0");
        break;
      case Lie::kUnexpectedMessage:
        net::send_message(conn, net::MessageType::kAssign, "not a daemon's message");
        break;
      case Lie::kCorruptFrame: {
        std::string frame = net::encode_frame(net::MessageType::kProgress,
                                              harness::serialize_sweep_progress(1, 64));
        frame[frame.size() - 2] ^= 0x01;  // payload byte: the CRC no longer matches
        conn.send_all(frame.data(), frame.size());
        break;
      }
      case Lie::kStalledHeartbeat:
        for (int beat = 0; beat < 100 && !stop_; ++beat) {
          if (!net::send_message(conn, net::MessageType::kProgress,
                                 harness::serialize_sweep_progress(1, 64))) {
            break;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
        break;
    }
  }

  Lie lie_;
  net::Listener listener_;
  std::atomic<bool> stop_{false};
  std::atomic<int> assignments_{0};
  std::thread thread_;  // last: it uses every member above
};

class HostileDaemonTest : public ::testing::TestWithParam<Lie> {};

TEST_P(HostileDaemonTest, LieCostsAnAttemptThenTheShardDegrades) {
  const std::string dir = ::testing::TempDir() + "serve_hostile/";
  std::error_code scrub_error;
  std::filesystem::remove_all(dir, scrub_error);
  std::filesystem::create_directories(dir);
  const std::string out = dir + "lied.json";
  LyingDaemon daemon(GetParam());
  EXPECT_EQ(run_driver({"--out", out, "--hosts",
                        "127.0.0.1:" + std::to_string(daemon.port()),
                        "--worker-retries", "1", "--worker-timeout", "0.5"}),
            1);
  // One assignment, one reassignment after the lie, then give-up.
  EXPECT_EQ(daemon.assignments(), 2);
  EXPECT_NE(read_file(out).find("\"status\": \"failed\""), std::string::npos);
  EXPECT_TRUE(std::filesystem::exists(out + ".journal.shards"));
}

INSTANTIATE_TEST_SUITE_P(Lies, HostileDaemonTest,
                         ::testing::Values(Lie::kDoneWithoutJournal,
                                           Lie::kUnexpectedMessage, Lie::kCorruptFrame,
                                           Lie::kStalledHeartbeat));

}  // namespace
