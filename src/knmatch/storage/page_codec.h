#ifndef KNMATCH_STORAGE_PAGE_CODEC_H_
#define KNMATCH_STORAGE_PAGE_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "knmatch/common/status.h"

namespace knmatch {

/// Checksummed page framing. Every page image on the simulated disk is
/// wrapped in a fixed-layout frame so that damage anywhere in the page
/// — payload, padding, length header, or the checksum itself — is
/// detected on read:
///
///   offset 0                4            4 + len          size-4   size
///   +----------------------+------------+-----------------+--------+
///   | payload length (u32) | payload    | zero padding    | CRC32  |
///   +----------------------+------------+-----------------+--------+
///                          |<-- len --->|
///   |<------------ CRC32 covers bytes [0, size-4) ------->|
///
/// The frame occupies the full page; payload capacity is therefore
/// page_size - kPageFrameOverhead bytes. Little-endian host layout is
/// assumed (x86-64), matching PutScalar/GetScalar.

/// Header (u32 payload length) plus trailer (u32 CRC32).
constexpr size_t kPageFrameOverhead = 2 * sizeof(uint32_t);

/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) of `data`,
/// eight bytes per step (slice-by-8). Not CRC-32C: the SSE4.2 `crc32`
/// instruction would change every stored checksum.
uint32_t Crc32(std::span<const std::byte> data);

/// Frames `payload` into a full page image of exactly `page_size`
/// bytes. Requires payload.size() <= page_size - kPageFrameOverhead
/// (asserted).
std::vector<std::byte> FrameChecksummedPage(
    std::span<const std::byte> payload, size_t page_size);

/// Verifies a framed page image and returns a view of its payload
/// (pointing into `page`). Returns kDataLoss when the stored CRC does
/// not match the recomputed one or the frame itself is malformed.
Result<std::span<const std::byte>> VerifyAndUnframePage(
    std::span<const std::byte> page);

}  // namespace knmatch

#endif  // KNMATCH_STORAGE_PAGE_CODEC_H_
