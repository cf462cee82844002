// CRC32 (IEEE 802.3, reflected, polynomial 0xEDB88320) for framing
// durable on-disk records and wire messages, plus the one codec for its
// 8-character lowercase-hex field.
//
// The experiment runner's crash-safe journal checksums every record so a
// torn tail (process killed mid-write) or a flipped byte (disk corruption)
// is detected on replay instead of silently poisoning a resumed sweep. The
// implementation is table-driven, the table is computed at compile time, and
// the result matches the ubiquitous zlib/PNG/gzip CRC-32
// (crc32("123456789") == 0xCBF43926, pinned by tests/sim/checksum_test.cc).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace pert::sim {

namespace detail {

constexpr std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit)
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    table[i] = c;
  }
  return table;
}

inline constexpr std::array<std::uint32_t, 256> kCrc32Table =
    make_crc32_table();

}  // namespace detail

/// CRC32 of `data`, continuing from `crc` (pass the previous return value to
/// checksum a message in chunks; start from the default for a fresh message).
constexpr std::uint32_t crc32(std::string_view data, std::uint32_t crc = 0) {
  crc = ~crc;
  for (char ch : data)
    crc = detail::kCrc32Table[(crc ^ static_cast<unsigned char>(ch)) & 0xffu] ^
          (crc >> 8);
  return ~crc;
}

/// Fixed-width lowercase hex of a CRC32 ("cbf43926"): the checksum field of
/// runner journal lines and dist protocol frames.
inline std::string crc_hex8(std::uint32_t crc) {
  std::string out(8, '0');
  for (std::size_t i = 8; i-- > 0; crc >>= 4)
    out[i] = "0123456789abcdef"[crc & 0xfu];
  return out;
}

/// Inverse of crc_hex8: exactly eight characters of [0-9a-f]. Uppercase,
/// any other character, and any other length give nullopt.
constexpr std::optional<std::uint32_t> parse_crc_hex8(std::string_view s) {
  if (s.size() != 8) return std::nullopt;
  std::uint32_t crc = 0;
  for (char c : s) {
    std::uint32_t nibble;
    if (c >= '0' && c <= '9')
      nibble = static_cast<std::uint32_t>(c - '0');
    else if (c >= 'a' && c <= 'f')
      nibble = static_cast<std::uint32_t>(c - 'a') + 10;
    else
      return std::nullopt;
    crc = (crc << 4) | nibble;
  }
  return crc;
}

}  // namespace pert::sim
