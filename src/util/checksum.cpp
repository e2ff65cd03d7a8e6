#include "util/checksum.hpp"

#include <array>
#include <cstdio>

namespace dtn::util {

namespace {

constexpr std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[n] = c;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kCrc32Table = make_crc32_table();

}  // namespace

std::uint32_t crc32_update(std::uint32_t crc, const void* data, std::size_t size) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    crc = kCrc32Table[(crc ^ bytes[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

std::uint32_t crc32(std::string_view data) noexcept {
  return crc32_final(crc32_update(crc32_init(), data.data(), data.size()));
}

std::string crc32_hex(std::uint32_t crc) {
  char buf[9];
  std::snprintf(buf, sizeof(buf), "%08x", static_cast<unsigned>(crc));
  return buf;
}

bool parse_crc32_hex(std::string_view text, std::uint32_t* out) noexcept {
  if (text.size() != 8) return false;
  std::uint32_t value = 0;
  for (const char c : text) {
    const bool digit = c >= '0' && c <= '9';
    if (!digit && !(c >= 'a' && c <= 'f')) return false;
    value = (value << 4) | static_cast<std::uint32_t>(digit ? c - '0' : c - 'a' + 10);
  }
  *out = value;
  return true;
}

}  // namespace dtn::util
