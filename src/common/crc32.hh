/**
 * @file
 * CRC-32 (IEEE 802.3 polynomial, reflected) for integrity-checking
 * persistent structures — undo-log entries, pool images.
 *
 * Table-driven slicing-by-8: eight bytes per step through eight
 * 256-entry tables, then at most one four-byte step through four of
 * them (the 12-byte log control block takes one of each), then one
 * byte per step for the last fewer than four. The tables are built at
 * compile time so the header stays dependency-free. Byte order is
 * explicit (the multi-byte steps assemble their words little-endian
 * from bytes), so the values do not depend on the host.
 */

#ifndef UPR_COMMON_CRC32_HH
#define UPR_COMMON_CRC32_HH

#include <array>
#include <cstddef>
#include <cstdint>

namespace upr
{

namespace detail
{

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/**
 * tables[0] is the classic byte-at-a-time table; tables[k][b] is the
 * CRC state of byte b followed by k zero bytes, so eight lookups
 * advance the CRC over eight bytes at once.
 */
constexpr Crc32Tables
makeCrc32Tables()
{
    Crc32Tables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? (0xEDB8'8320u ^ (c >> 1)) : (c >> 1);
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < t.size(); ++k) {
        for (std::uint32_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
    return t;
}

inline constexpr Crc32Tables kCrc32Tables = makeCrc32Tables();

/** Little-endian 32-bit load from unaligned bytes. */
inline std::uint32_t
loadLe32(const std::uint8_t *p)
{
    return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
           std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24;
}

} // namespace detail

/**
 * Continue a CRC-32 over @p n bytes at @p data.
 *
 * @param crc the running checksum (pass the previous return value to
 *            chain several buffers into one checksum)
 */
inline std::uint32_t
crc32Update(std::uint32_t crc, const void *data, std::size_t n)
{
    const auto &t = detail::kCrc32Tables;
    const auto *p = static_cast<const std::uint8_t *>(data);
    crc = ~crc;
    for (; n >= 8; p += 8, n -= 8) {
        const std::uint32_t lo = detail::loadLe32(p) ^ crc;
        const std::uint32_t hi = detail::loadLe32(p + 4);
        crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^
              t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^
              t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
              t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
    }
    if (n >= 4) {
        const std::uint32_t lo = detail::loadLe32(p) ^ crc;
        crc = t[3][lo & 0xFF] ^ t[2][(lo >> 8) & 0xFF] ^
              t[1][(lo >> 16) & 0xFF] ^ t[0][lo >> 24];
        p += 4;
        n -= 4;
    }
    for (std::size_t i = 0; i < n; ++i)
        crc = t[0][(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
    return ~crc;
}

/** CRC-32 of one buffer. */
inline std::uint32_t
crc32(const void *data, std::size_t n)
{
    return crc32Update(0, data, n);
}

} // namespace upr

#endif // UPR_COMMON_CRC32_HH
