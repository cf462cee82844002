// Pins the CRC32 implementation to the IEEE/zlib polynomial, and its hex8
// field codec, so journal lines and protocol frames written by one build are
// always verifiable by another.
#include "sim/checksum.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace pert::sim {
namespace {

TEST(Crc32, MatchesKnownVectors) {
  // The canonical check value for CRC-32/ISO-HDLC (zlib, PNG, gzip).
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0x00000000u);
  EXPECT_EQ(crc32("a"), 0xE8B7BE43u);
  EXPECT_EQ(crc32("abc"), 0x352441C2u);
  EXPECT_EQ(crc32("The quick brown fox jumps over the lazy dog"),
            0x414FA339u);
}

TEST(Crc32, IsConstexpr) {
  static_assert(crc32("123456789") == 0xCBF43926u);
  static_assert(crc32("") == 0u);
}

TEST(Crc32, ChunkedContinuationEqualsOneShot) {
  const std::string msg =
      "PERTJ1 R deadbeef {\"key\":\"cell/3\",\"seed\":42}";
  const std::uint32_t whole = crc32(msg);
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    const std::uint32_t part = crc32(msg.substr(split), crc32(msg.substr(0, split)));
    EXPECT_EQ(part, whole) << "split at " << split;
  }
}

TEST(Crc32, DetectsSingleBitFlip) {
  std::string msg = "{\"utilization\":0.97,\"drops\":12}";
  const std::uint32_t good = crc32(msg);
  for (std::size_t i = 0; i < msg.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bad = msg;
      bad[i] = static_cast<char>(bad[i] ^ (1 << bit));
      EXPECT_NE(crc32(bad), good) << "byte " << i << " bit " << bit;
    }
  }
}

TEST(Crc32, EmbeddedNulBytesParticipate) {
  const std::string with_nul("ab\0cd", 5);
  const std::string without_nul("abcd", 4);
  EXPECT_NE(crc32(with_nul), crc32(without_nul));
}

TEST(CrcHex8, EncodesFixedWidthLowercase) {
  EXPECT_EQ(crc_hex8(0xCBF43926u), "cbf43926");
  EXPECT_EQ(crc_hex8(0u), "00000000");
  EXPECT_EQ(crc_hex8(0xAu), "0000000a");
  EXPECT_EQ(crc_hex8(0xFFFFFFFFu), "ffffffff");
}

TEST(CrcHex8, ParseInvertsEncode) {
  for (std::uint32_t v : {0u, 1u, 0xAu, 0x10u, 0xDEADBEEFu, 0xCBF43926u,
                          0x80000000u, 0xFFFFFFFFu})
    EXPECT_EQ(parse_crc_hex8(crc_hex8(v)), v) << crc_hex8(v);
  static_assert(parse_crc_hex8("cbf43926") == 0xCBF43926u);
}

TEST(CrcHex8, ParseRejectsUppercaseNonHexAndWrongLength) {
  EXPECT_EQ(parse_crc_hex8("CBF43926"), std::nullopt);  // uppercase
  EXPECT_EQ(parse_crc_hex8("cbf4392F"), std::nullopt);
  EXPECT_EQ(parse_crc_hex8("cbf4392g"), std::nullopt);  // non-hex
  EXPECT_EQ(parse_crc_hex8("cbf4 926"), std::nullopt);
  EXPECT_EQ(parse_crc_hex8("-bf43926"), std::nullopt);
  EXPECT_EQ(parse_crc_hex8(std::string_view("cbf4\0926", 8)), std::nullopt);
  EXPECT_EQ(parse_crc_hex8(""), std::nullopt);          // short
  EXPECT_EQ(parse_crc_hex8("cbf4392"), std::nullopt);
  EXPECT_EQ(parse_crc_hex8("cbf439260"), std::nullopt);  // long
}

}  // namespace
}  // namespace pert::sim
