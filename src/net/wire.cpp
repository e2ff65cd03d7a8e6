#include "net/wire.hpp"

#include <array>
#include <chrono>
#include <cstdio>

#include "util/checksum.hpp"

namespace dtn::net {

namespace {

constexpr char kMagic[] = "%DTNW1";
constexpr std::size_t kMagicLen = sizeof(kMagic) - 1;
// Magic + type token + 20-digit length + space-separated 8-hex CRC fits
// comfortably; a header line longer than this is corrupt, not "pending".
constexpr std::size_t kMaxHeaderLine = 64;

constexpr std::array<const char*, 6> kTypeTokens = {
    "hello", "assign", "progress", "journal", "done", "error"};

bool token_to_type(const std::string& token, MessageType* out) {
  for (std::size_t i = 0; i < kTypeTokens.size(); ++i) {
    if (token == kTypeTokens[i]) {
      *out = static_cast<MessageType>(i);
      return true;
    }
  }
  return false;
}

bool parse_decimal_len(const std::string& text, std::size_t* out) {
  if (text.empty() || text.size() > 12) return false;
  std::size_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::size_t>(c - '0');
  }
  *out = value;
  return true;
}

}  // namespace

const char* message_type_token(MessageType type) {
  return kTypeTokens[static_cast<std::size_t>(type)];
}

std::string encode_frame(MessageType type, const std::string& payload) {
  std::string out;
  out.reserve(payload.size() + 48);
  out += kMagic;
  out += ' ';
  out += message_type_token(type);
  out += ' ';
  out += std::to_string(payload.size());
  out += ' ';
  out += dtn::util::crc32_hex(dtn::util::crc32(payload));
  out += '\n';
  out += payload;
  out += '\n';
  return out;
}

void FrameDecoder::feed(const char* data, std::size_t len) {
  if (corrupt_) return;
  // Drop the already-parsed prefix before growing, so a long session
  // doesn't accumulate every frame ever received.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(data, len);
}

FrameDecoder::Result FrameDecoder::fail(const std::string& reason) {
  corrupt_ = true;
  corrupt_reason_ = reason;
  buffer_.clear();
  consumed_ = 0;
  return Result::kCorrupt;
}

FrameDecoder::Result FrameDecoder::next(Message* out) {
  if (corrupt_) return Result::kCorrupt;
  const std::size_t avail = buffer_.size() - consumed_;
  // Reject a bad magic as soon as enough bytes exist to judge it, so a
  // foreign peer is detected without waiting for a newline.
  const std::size_t probe = avail < kMagicLen ? avail : kMagicLen;
  if (buffer_.compare(consumed_, probe, kMagic, probe) != 0) {
    return fail("bad frame magic");
  }
  std::size_t nl = buffer_.find('\n', consumed_);
  if (nl == std::string::npos) {
    if (avail > kMaxHeaderLine) return fail("unterminated frame header");
    return Result::kNeedMore;
  }
  const std::string header = buffer_.substr(consumed_, nl - consumed_);
  if (header.size() > kMaxHeaderLine) return fail("oversized frame header");
  // header: %DTNW1 <type> <len> <crc>
  std::size_t p1 = header.find(' ');
  std::size_t p2 = p1 == std::string::npos ? std::string::npos
                                           : header.find(' ', p1 + 1);
  std::size_t p3 = p2 == std::string::npos ? std::string::npos
                                           : header.find(' ', p2 + 1);
  if (p1 != kMagicLen || p2 == std::string::npos || p3 == std::string::npos ||
      header.find(' ', p3 + 1) != std::string::npos) {
    return fail("malformed frame header");
  }
  const std::string type_token = header.substr(p1 + 1, p2 - p1 - 1);
  const std::string len_token = header.substr(p2 + 1, p3 - p2 - 1);
  const std::string crc_token = header.substr(p3 + 1);
  MessageType type;
  if (!token_to_type(type_token, &type)) {
    return fail("unknown frame type '" + type_token + "'");
  }
  std::size_t payload_len = 0;
  if (!parse_decimal_len(len_token, &payload_len) ||
      payload_len > kMaxPayload) {
    return fail("bad frame length '" + len_token + "'");
  }
  std::uint32_t want_crc = 0;
  if (!dtn::util::parse_crc32_hex(crc_token, &want_crc)) {
    return fail("bad frame checksum field '" + crc_token + "'");
  }
  // Need payload + trailing '\n' after the header newline.
  if (buffer_.size() - (nl + 1) < payload_len + 1) return Result::kNeedMore;
  const char* payload = buffer_.data() + nl + 1;
  if (payload[payload_len] != '\n') {
    return fail("missing frame terminator");
  }
  std::uint32_t got_crc = dtn::util::crc32(
      std::string_view(payload, payload_len));
  if (got_crc != want_crc) {
    return fail("frame checksum mismatch");
  }
  out->type = type;
  out->payload.assign(payload, payload_len);
  consumed_ = nl + 1 + payload_len + 1;
  return Result::kMessage;
}

bool send_message(Stream& stream, MessageType type,
                  const std::string& payload) {
  const std::string frame = encode_frame(type, payload);
  return stream.send_all(frame.data(), frame.size());
}

WireRecvStatus recv_message(Stream& stream, FrameDecoder& decoder,
                            int timeout_ms, Message* out,
                            std::string* error) {
  using Clock = std::chrono::steady_clock;
  const auto deadline = Clock::now() + std::chrono::milliseconds(
                                           timeout_ms < 0 ? 0 : timeout_ms);
  for (;;) {
    switch (decoder.next(out)) {
      case FrameDecoder::Result::kMessage:
        return WireRecvStatus::kMessage;
      case FrameDecoder::Result::kCorrupt:
        if (error) *error = decoder.corrupt_reason();
        return WireRecvStatus::kCorrupt;
      case FrameDecoder::Result::kNeedMore:
        break;
    }
    int wait_ms = -1;
    if (timeout_ms >= 0) {
      auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                      deadline - Clock::now())
                      .count();
      if (left <= 0) return WireRecvStatus::kTimeout;
      wait_ms = static_cast<int>(left);
    }
    char buf[16384];
    std::size_t got = 0;
    switch (stream.recv_some(buf, sizeof(buf), wait_ms, &got)) {
      case RecvStatus::kData:
        decoder.feed(buf, got);
        break;
      case RecvStatus::kTimeout:
        return WireRecvStatus::kTimeout;
      case RecvStatus::kEof:
        if (decoder.pending() > 0) {
          if (error) *error = "connection closed mid-frame";
          return WireRecvStatus::kCorrupt;
        }
        return WireRecvStatus::kEof;
      case RecvStatus::kError:
        if (error) *error = stream.last_error();
        return WireRecvStatus::kError;
    }
  }
}

}  // namespace dtn::net
