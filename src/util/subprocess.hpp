// Minimal child-process supervision: fork/exec spawn, non-blocking status
// polls, SIGKILL, and self-executable resolution — the substrate of the
// local shard transport in harness/fabric.hpp (`dtnsim sweep --workers N`
// runs one `dtnsim sweep --shard i/N` child per shard attempt).
//
// Deliberately tiny: no pipes, no ptys, no environment surgery. Children
// inherit the parent's stderr (worker diagnostics interleave with the
// driver's), stdout is optionally discarded (worker tables would corrupt
// the driver's own output), and all coordination happens through the
// filesystem (per-shard journals), which is also what makes the fabric
// crash-safe — there is no in-memory state a dead worker could take with
// it.
//
// POSIX only; on _WIN32 every operation fails cleanly with an error
// string (the fabric is gated off there, matching journal truncation).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dtn::util {

/// Snapshot of a child's lifecycle, as reported by waitpid.
struct ProcessStatus {
  bool running = false;   ///< still alive (or never successfully spawned)
  bool exited = false;    ///< terminated via exit(); exit_code is valid
  bool signaled = false;  ///< terminated by a signal; term_signal is valid
  int exit_code = -1;
  int term_signal = 0;
};

/// One spawned child. Movable, not copyable; destroying a Subprocess with
/// a still-running child does NOT kill or reap it (the campaign driver
/// never abandons a live worker — it kills explicitly, then waits).
class Subprocess {
 public:
  Subprocess() = default;
  ~Subprocess() = default;
  Subprocess(const Subprocess&) = delete;
  Subprocess& operator=(const Subprocess&) = delete;
  Subprocess(Subprocess&& other) noexcept;
  Subprocess& operator=(Subprocess&& other) noexcept;

  /// fork/execs `argv` (argv[0] = executable path, PATH is not searched).
  /// `discard_stdout` redirects the child's stdout to /dev/null; stderr is
  /// always inherited. Returns false (with `error` filled) if the fork
  /// fails or a child is already being supervised; an exec failure inside
  /// the child surfaces as exit code 127 on the next poll/wait.
  bool spawn(const std::vector<std::string>& argv, bool discard_stdout,
             std::string* error);

  /// Non-blocking status check. Once the child is reaped the result is
  /// latched: further polls return the same terminal status.
  ProcessStatus poll();

  /// Blocks until the child terminates, then returns the terminal status.
  ProcessStatus wait();

  /// SIGKILL — the supervision path for a worker whose journal stopped
  /// growing (liveness timeout). The caller still polls/waits to reap.
  void kill_hard();

 private:
  long pid_ = -1;
  bool reaped_ = false;
  ProcessStatus last_{};
};

/// Absolute path of the currently running executable (/proc/self/exe on
/// Linux). When the platform offers no answer (procless chroots, most
/// BSDs without procfs), falls back to resolving `argv0_fallback` via
/// resolve_executable — callers that know their argv[0] thread it
/// through instead of failing. Empty only when both sources come up dry.
std::string self_exe_path(const std::string& argv0_fallback = "");

/// Resolves an argv[0]-style command name to an absolute executable path:
/// absolute paths pass through, relative paths containing '/' resolve
/// against the current directory (realpath), bare names search $PATH for
/// an executable entry. Empty string when nothing resolves.
std::string resolve_executable(const std::string& argv0);

}  // namespace dtn::util
