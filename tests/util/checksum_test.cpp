// CRC-32 (util/checksum.hpp): reference vectors, incremental == one-shot,
// and sensitivity properties the journal recovery path depends on.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "util/checksum.hpp"

namespace dtn::util {
namespace {

TEST(Checksum, ReferenceVectors) {
  // The canonical CRC-32/ISO-HDLC check value.
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0x00000000u);
  EXPECT_EQ(crc32("a"), 0xE8B7BE43u);
  EXPECT_EQ(crc32("abc"), 0x352441C2u);
}

TEST(Checksum, IncrementalMatchesOneShot) {
  const std::string data = "the journal frames records with %DTNJ1 headers";
  std::uint32_t crc = crc32_init();
  // Feed byte by byte — worst-case chunking.
  for (const char c : data) crc = crc32_update(crc, &c, 1);
  EXPECT_EQ(crc32_final(crc), crc32(data));

  // And in two uneven chunks.
  crc = crc32_init();
  crc = crc32_update(crc, data.data(), 7);
  crc = crc32_update(crc, data.data() + 7, data.size() - 7);
  EXPECT_EQ(crc32_final(crc), crc32(data));
}

TEST(Checksum, DetectsSingleBitFlips) {
  // The journal uses the CRC to reject corrupt records; every single-bit
  // flip of a small payload must change the checksum (CRC-32 guarantees
  // this for messages far longer than we test here).
  const std::string base = "point 3 ok 2 1.5";
  const std::uint32_t want = crc32(base);
  for (std::size_t i = 0; i < base.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = base;
      mutated[i] = static_cast<char>(mutated[i] ^ (1 << bit));
      EXPECT_NE(crc32(mutated), want) << "byte " << i << " bit " << bit;
    }
  }
}

TEST(Checksum, EmbeddedNulBytesParticipate) {
  const char with_nul[] = {'a', '\0', 'b'};
  const char without[] = {'a', 'b'};
  EXPECT_NE(crc32(std::string_view(with_nul, 3)),
            crc32(std::string_view(without, 2)));
}

TEST(Checksum, HexFormRoundTripsAndParsesStrictly) {
  EXPECT_EQ(crc32_hex(0xCBF43926u), "cbf43926");
  EXPECT_EQ(crc32_hex(0x0000000Au), "0000000a");
  std::uint32_t value = 0;
  ASSERT_TRUE(parse_crc32_hex(crc32_hex(0xDEADBEEFu), &value));
  EXPECT_EQ(value, 0xDEADBEEFu);
  for (const char* bad : {"", "cbf4392", "cbf439260", "CBF43926", "cbf4392g", " bf43926"}) {
    EXPECT_FALSE(parse_crc32_hex(bad, &value)) << "'" << bad << "'";
  }
}

}  // namespace
}  // namespace dtn::util
