// CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant) for framing
// integrity checks — the sweep journal checksums every record so a torn
// write or bit flip in a crash-recovered file is detected instead of
// replayed as data. Table-driven, allocation-free, resumable (feed chunks
// through the running form).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace dtn::util {

/// Running form: `crc = crc32_update(crc, chunk)` over successive chunks,
/// starting from crc32_init(). Finalize with crc32_final().
[[nodiscard]] constexpr std::uint32_t crc32_init() noexcept { return 0xFFFFFFFFu; }
[[nodiscard]] std::uint32_t crc32_update(std::uint32_t crc, const void* data,
                                         std::size_t size) noexcept;
[[nodiscard]] constexpr std::uint32_t crc32_final(std::uint32_t crc) noexcept {
  return crc ^ 0xFFFFFFFFu;
}

/// One-shot CRC-32 of a buffer (crc32("") == 0; crc32("123456789") ==
/// 0xCBF43926 — the standard check value, pinned by util_checksum_test).
[[nodiscard]] std::uint32_t crc32(std::string_view data) noexcept;

/// The 8-digit lowercase hex form every journal record, wire frame and
/// fingerprint digest carries, and its strict inverse (exactly 8 digits).
[[nodiscard]] std::string crc32_hex(std::uint32_t crc);
[[nodiscard]] bool parse_crc32_hex(std::string_view text, std::uint32_t* out) noexcept;

}  // namespace dtn::util
