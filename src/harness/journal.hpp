// Append-only crash-safe record journal — the durability backbone of
// `dtnsim sweep` campaigns (harness/sweep.hpp) and, later, the sharded
// `dtnsim serve` fabric.
//
// File format ("dtnsim-journal/1"): a flat sequence of self-delimiting,
// individually checksummed records. Each record is framed as
//
//   %DTNJ1 <payload-bytes> <crc32-hex>\n
//   <payload bytes>\n
//
// where <crc32-hex> is the lowercase CRC-32 (util/checksum.hpp) of the
// payload bytes. Payloads are arbitrary bytes chosen by the layer above
// (the sweep engine writes line-oriented text; see sweep.cpp); the journal
// itself interprets nothing. The first record of a file is conventionally
// a campaign-identity payload that readers validate before trusting the
// rest (the sweep engine stores its campaign fingerprint there).
//
// Recovery contract: read_journal() returns the longest valid prefix. The
// first record that is truncated, mis-framed, or fails its checksum ends
// the replay — it and everything after it are reported as a dropped tail
// (bytes + whether any payload data was lost), NEVER as an error. A torn
// final write (the canonical crash shape: the process died mid-fwrite or
// the page cache lost the unsynced tail) therefore costs at most the
// records that had not reached the disk, and a bit flip inside the file
// costs the records from the flip onward; both are recomputable. The
// journal_property_test pins this at every byte offset.
//
// Durability: append() buffers through stdio, flushes every record to the
// OS (surviving process death), and fsync()s every `sync_every` records
// (surviving power loss). durable_replace() is the shared fsync'd
// tmp+rename used for final results files: flush + fsync the temp file,
// rename, then fsync the containing directory so the rename itself is on
// disk — the PR 5 tmp+rename path never synced either.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace dtn::harness {

/// Appends framed, checksummed records to a journal file. Not thread-safe;
/// callers serialize (the sweep engine holds one mutex per journal).
class JournalWriter {
 public:
  JournalWriter() = default;
  ~JournalWriter();
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Opens `path` for appending (creating it if absent). On failure
  /// returns false and fills `error`. An already-open writer is closed
  /// first.
  bool open(const std::string& path, std::string* error);

  /// Frames `payload`, appends it, flushes to the OS, and fsyncs when the
  /// record cadence says so. Returns false on write failure (disk full —
  /// the journal is then unusable and stays failed).
  bool append(const std::string& payload);

  /// Records between fsyncs: 1 (default) = every record survives power
  /// loss; N = at most the last N records ride on the page cache; 0 =
  /// never fsync (records still survive process death via the flush).
  void set_sync_every(int records) { sync_every_ = records; }

  /// Forces an fsync of everything appended so far.
  bool sync();

  /// Bytes appended by THIS writer plus the size the file had at open —
  /// i.e. the current journal length (used by fault plans keyed on byte
  /// offset).
  [[nodiscard]] std::uint64_t bytes() const noexcept { return bytes_; }

  [[nodiscard]] bool is_open() const noexcept { return file_ != nullptr; }
  [[nodiscard]] bool failed() const noexcept { return failed_; }

  void close();

 private:
  std::FILE* file_ = nullptr;
  std::uint64_t bytes_ = 0;
  int sync_every_ = 1;
  int since_sync_ = 0;
  bool failed_ = false;
};

/// Result of replaying a journal file: the payloads of the longest valid
/// record prefix, plus what (if anything) was dropped behind it.
struct JournalReadResult {
  std::vector<std::string> records;   ///< valid payloads, file order
  std::uint64_t valid_bytes = 0;      ///< length of the intact prefix
  std::uint64_t dropped_bytes = 0;    ///< bytes after the intact prefix
  bool missing = false;               ///< file does not exist (empty result)
  bool io_error = false;              ///< file exists but could not be read
  /// True when the dropped tail contained at least one non-empty byte
  /// run — i.e. data was actually lost, not just a clean EOF.
  [[nodiscard]] bool tail_dropped() const noexcept { return dropped_bytes > 0; }
};

/// Reads every valid record of `path` (see the recovery contract above).
/// A missing file yields `missing = true` with no records — resuming a
/// campaign that never started is just starting it.
JournalReadResult read_journal(const std::string& path);

/// Reads a whole file (binary) into `out`. False on any I/O problem, with
/// errno telling a missing file (ENOENT) from another failure.
bool read_file_bytes(const std::string& path, std::string& out);

/// Frames one record as written by JournalWriter (exposed for tests that
/// build journals by hand).
std::string frame_record(const std::string& payload);

/// Atomically replaces `final_path` with the fully-written `tmp_path`:
/// fsync(tmp) -> rename(tmp, final) -> fsync(parent dir). Returns false
/// (and removes tmp) on any failure. This is the crash-safe publish step
/// for results files; without the directory sync a power loss after
/// rename() can resurrect the old file.
bool durable_replace(const std::string& tmp_path, const std::string& final_path,
                     std::string* error);

/// fsyncs an open stdio stream (fflush + fsync). Exposed for the writer
/// and durable_replace; returns false on failure.
bool flush_and_sync(std::FILE* file);

/// Truncates `path` to exactly `size` bytes. The resume path cuts a
/// corrupt/truncated tail down to the valid prefix BEFORE appending new
/// records — appending after garbage would put the new records behind the
/// reader's valid-prefix stop and silently lose them on the next resume.
bool truncate_file(const std::string& path, std::uint64_t size);

}  // namespace dtn::harness
