#include "harness/journal.hpp"

#include <cerrno>
#include <cstring>

#include "util/checksum.hpp"

#if !defined(_WIN32)
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace dtn::harness {

namespace {

constexpr const char kMagic[] = "%DTNJ1 ";
constexpr std::size_t kMagicLen = sizeof(kMagic) - 1;

/// Parses one framed record starting at `at` in `data`. On success fills
/// `payload`, advances `at` past the record, and returns true. Returns
/// false on truncation, bad framing, or checksum mismatch (`at` is left at
/// the record start — the first invalid byte of the file).
bool parse_record(const std::string& data, std::size_t& at, std::string& payload) {
  const std::size_t start = at;
  if (data.size() - start < kMagicLen ||
      data.compare(start, kMagicLen, kMagic) != 0) {
    return false;
  }
  std::size_t p = start + kMagicLen;
  // <payload-bytes> — decimal, at least one digit.
  std::uint64_t len = 0;
  std::size_t digits = 0;
  while (p < data.size() && data[p] >= '0' && data[p] <= '9') {
    // A length this large is framing garbage, not a record; 10^12 also
    // cannot overflow below.
    if (len > 1000ull * 1000ull * 1000ull * 1000ull) return false;
    len = len * 10 + static_cast<std::uint64_t>(data[p] - '0');
    ++p;
    ++digits;
  }
  if (digits == 0 || p >= data.size() || data[p] != ' ') return false;
  ++p;
  // <crc32-hex> — exactly 8 lowercase hex digits.
  std::uint32_t want_crc = 0;
  if (data.size() - p < 8 ||
      !util::parse_crc32_hex(std::string_view(data).substr(p, 8), &want_crc)) {
    return false;
  }
  p += 8;
  if (p >= data.size() || data[p] != '\n') return false;
  ++p;
  // <payload>\n
  if (data.size() - p < len + 1) return false;
  if (data[p + len] != '\n') return false;
  std::string body = data.substr(p, len);
  if (util::crc32(body) != want_crc) return false;
  payload = std::move(body);
  at = p + len + 1;
  return true;
}

}  // namespace

std::string frame_record(const std::string& payload) {
  std::string out = kMagic;
  out += std::to_string(payload.size());
  out += ' ';
  out += util::crc32_hex(util::crc32(payload));
  out += '\n';
  out += payload;
  out += '\n';
  return out;
}

bool flush_and_sync(std::FILE* file) {
  if (file == nullptr) return false;
  if (std::fflush(file) != 0) return false;
#if !defined(_WIN32)
  if (::fsync(::fileno(file)) != 0) return false;
#endif
  return true;
}

JournalWriter::~JournalWriter() { close(); }

bool JournalWriter::open(const std::string& path, std::string* error) {
  close();
  failed_ = false;
  bytes_ = 0;
  since_sync_ = 0;
  file_ = std::fopen(path.c_str(), "ab");
  if (file_ == nullptr) {
    if (error != nullptr) {
      *error = "cannot open journal '" + path + "': " + std::strerror(errno);
    }
    return false;
  }
  // "ab" positions at EOF; ftell reports the pre-existing length so
  // bytes() is the absolute journal size.
  const long at = std::ftell(file_);
  bytes_ = at > 0 ? static_cast<std::uint64_t>(at) : 0;
  return true;
}

bool JournalWriter::append(const std::string& payload) {
  if (file_ == nullptr || failed_) return false;
  const std::string framed = frame_record(payload);
  if (std::fwrite(framed.data(), 1, framed.size(), file_) != framed.size() ||
      std::fflush(file_) != 0) {
    failed_ = true;
    return false;
  }
  bytes_ += framed.size();
  ++since_sync_;
  if (sync_every_ > 0 && since_sync_ >= sync_every_) return sync();
  return true;
}

bool JournalWriter::sync() {
  if (file_ == nullptr || failed_) return false;
  since_sync_ = 0;
  if (!flush_and_sync(file_)) {
    failed_ = true;
    return false;
  }
  return true;
}

void JournalWriter::close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

bool read_file_bytes(const std::string& path, std::string& out) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return false;
  char buf[1 << 16];
  out.clear();
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), file)) > 0) out.append(buf, got);
  const bool ok = std::ferror(file) == 0;
  std::fclose(file);
  if (!ok) errno = EIO;
  return ok;
}

JournalReadResult read_journal(const std::string& path) {
  JournalReadResult result;
  std::string data;
  if (!read_file_bytes(path, data)) {
    result.missing = errno == ENOENT;
    result.io_error = !result.missing;
    return result;
  }

  std::size_t at = 0;
  std::string payload;
  while (at < data.size() && parse_record(data, at, payload)) {
    result.records.push_back(std::move(payload));
    payload.clear();
  }
  result.valid_bytes = at;
  result.dropped_bytes = data.size() - at;
  return result;
}

bool truncate_file(const std::string& path, std::uint64_t size) {
#if !defined(_WIN32)
  return ::truncate(path.c_str(), static_cast<off_t>(size)) == 0;
#else
  (void)path;
  (void)size;
  return false;
#endif
}

bool durable_replace(const std::string& tmp_path, const std::string& final_path,
                     std::string* error) {
  const auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what + ": " + std::strerror(errno);
    std::remove(tmp_path.c_str());
    return false;
  };
#if !defined(_WIN32)
  // fsync the data before the rename: rename-then-crash must never leave a
  // complete-looking name pointing at an incomplete file.
  {
    const int fd = ::open(tmp_path.c_str(), O_RDONLY);
    if (fd < 0) return fail("cannot reopen '" + tmp_path + "'");
    const int rc = ::fsync(fd);
    ::close(fd);
    if (rc != 0) return fail("cannot sync '" + tmp_path + "'");
  }
#endif
  if (std::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    return fail("cannot rename '" + tmp_path + "' to '" + final_path + "'");
  }
#if !defined(_WIN32)
  // fsync the directory so the rename itself survives power loss.
  const std::size_t slash = final_path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : final_path.substr(0, slash + 1);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::fsync(fd);  // best effort: some filesystems reject directory fsync
    ::close(fd);
  }
#endif
  return true;
}

}  // namespace dtn::harness
