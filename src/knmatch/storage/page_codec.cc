#include "knmatch/storage/page_codec.h"

#include <array>
#include <cassert>
#include <cstring>

namespace knmatch {

namespace {

/// Slice-by-8 tables for the reflected IEEE polynomial: table 0 is the
/// classic bytewise table, and table j advances table j-1's entry by one
/// more zero byte, so eight lookups fold eight input bytes at once.
using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

Crc32Tables MakeCrc32Tables() {
  Crc32Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
    t[0][i] = crc;
  }
  for (size_t j = 1; j < 8; ++j) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[j][i] = (t[j - 1][i] >> 8) ^ t[0][t[j - 1][i] & 0xFFu];
    }
  }
  return t;
}

}  // namespace

uint32_t Crc32(std::span<const std::byte> data) {
  static const Crc32Tables kT = MakeCrc32Tables();
  uint32_t crc = 0xFFFFFFFFu;
  const std::byte* p = data.data();
  size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    uint32_t lo, hi;
    std::memcpy(&lo, p, sizeof(lo));  // little-endian host, as the frame
    std::memcpy(&hi, p + 4, sizeof(hi));
    lo ^= crc;
    crc = kT[7][lo & 0xFFu] ^ kT[6][(lo >> 8) & 0xFFu] ^
          kT[5][(lo >> 16) & 0xFFu] ^ kT[4][lo >> 24] ^
          kT[3][hi & 0xFFu] ^ kT[2][(hi >> 8) & 0xFFu] ^
          kT[1][(hi >> 16) & 0xFFu] ^ kT[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = (crc >> 8) ^ kT[0][(crc ^ static_cast<uint8_t>(*p)) & 0xFFu];
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<std::byte> FrameChecksummedPage(
    std::span<const std::byte> payload, size_t page_size) {
  assert(page_size > kPageFrameOverhead && "page too small for a frame");
  assert(payload.size() <= page_size - kPageFrameOverhead &&
         "payload exceeds framed page capacity");
  std::vector<std::byte> page(page_size, std::byte{0});
  const auto len = static_cast<uint32_t>(payload.size());
  std::memcpy(page.data(), &len, sizeof(len));
  std::memcpy(page.data() + sizeof(len), payload.data(), payload.size());
  const uint32_t crc = Crc32(
      std::span<const std::byte>(page.data(), page_size - sizeof(uint32_t)));
  std::memcpy(page.data() + page_size - sizeof(crc), &crc, sizeof(crc));
  return page;
}

Result<std::span<const std::byte>> VerifyAndUnframePage(
    std::span<const std::byte> page) {
  if (page.size() <= kPageFrameOverhead) {
    return Status::DataLoss("framed page truncated");
  }
  uint32_t stored_crc;
  std::memcpy(&stored_crc, page.data() + page.size() - sizeof(stored_crc),
              sizeof(stored_crc));
  const uint32_t computed = Crc32(
      std::span<const std::byte>(page.data(),
                                 page.size() - sizeof(uint32_t)));
  if (stored_crc != computed) {
    return Status::DataLoss("page checksum mismatch");
  }
  uint32_t len;
  std::memcpy(&len, page.data(), sizeof(len));
  if (len > page.size() - kPageFrameOverhead) {
    // The checksum matched a frame whose header claims an impossible
    // payload: a malformed write, not transfer damage.
    return Status::DataLoss("framed page length out of bounds");
  }
  return std::span<const std::byte>(page.data() + sizeof(uint32_t), len);
}

}  // namespace knmatch
