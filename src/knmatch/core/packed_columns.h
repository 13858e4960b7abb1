#ifndef KNMATCH_CORE_PACKED_COLUMNS_H_
#define KNMATCH_CORE_PACKED_COLUMNS_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "knmatch/common/types.h"
#include "knmatch/core/sorted_columns.h"

namespace knmatch {

/// Delta-encoded, bit-packed rendering of SortedColumns. Each dimension
/// is cut into fixed-size blocks of kBlock entries; within a block the
/// values are stored as bit-packed deltas between consecutive order-
/// preserving integer keys (see OrderKey), and the pids as bit-packed
/// offsets from the block's minimum pid. Sorted runs compress well
/// under this scheme: adjacent values are close, so deltas need few
/// bits, and typical datasets land at 3-6x smaller than the raw SoA
/// columns.
///
/// The packed form is the page codec of the packed disk store
/// (storage/packed_column_store.h): decoding reproduces every value
/// bit-for-bit (one deliberate exception: -0.0 is canonicalized to
/// +0.0, which no comparison or difference arithmetic can distinguish),
/// so answers, pop order and attribute counts match the uncompressed
/// columns exactly.
class PackedColumns {
 public:
  /// Entries per block. A power of two; chosen >= 2 * kAdRunBlock so a
  /// kernel run (<= 64 entries) touches at most two blocks.
  static constexpr size_t kBlock = 128;

  PackedColumns() = default;

  /// Packs the already-sorted columns. O(total entries).
  explicit PackedColumns(const SortedColumns& columns);

  /// Dimensionality d.
  size_t dims() const { return cols_.size(); }
  /// Cardinality c (entries per column).
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Decodes `len` entries of dimension `dim` in cursor walk order:
  /// descending visits idx, idx-1, ... (the down cursor), ascending
  /// visits idx, idx+1, ... (the up cursor). The caller guarantees the
  /// walk stays inside [0, size()), mirroring the in-memory accessor's
  /// ReadRun contract.
  void DecodeRun(size_t dim, size_t idx, size_t len, bool descending,
                 Value* values, PointId* pids) const;

  /// Random-access decode of one entry (cold paths and tests; costs a
  /// partial block decode).
  ColumnEntry entry(size_t dim, size_t idx) const;

  /// Index of the first entry in `dim` whose value is >= v. Binary
  /// search over the per-block first values, then one block decode.
  size_t LowerBound(size_t dim, Value v) const;

  /// Bytes held by the packed representation (payload + directories).
  size_t packed_bytes() const;
  /// Bytes the equivalent uncompressed SoA columns occupy.
  size_t unpacked_bytes() const {
    return dims() * size_ * (sizeof(Value) + sizeof(PointId));
  }

  /// Order-preserving double -> uint64 key: for a <= b (as doubles),
  /// OrderKey(a) <= OrderKey(b), and FromOrderKey inverts it exactly.
  /// -0.0 canonicalizes to +0.0 so equal values map to equal keys
  /// regardless of sign-of-zero (the columns tie-break equal values by
  /// pid, not by bit pattern).
  static uint64_t OrderKey(Value v) {
    const uint64_t b = std::bit_cast<uint64_t>(v + 0.0);
    return (b & kSignBit) != 0 ? ~b : (b | kSignBit);
  }
  static Value FromOrderKey(uint64_t key) {
    const uint64_t b = (key & kSignBit) != 0 ? (key ^ kSignBit) : ~key;
    return std::bit_cast<Value>(b);
  }

 private:
  static constexpr uint64_t kSignBit = 1ull << 63;

  /// Directory entry for one block. Offsets index into the owning
  /// dimension's shared bit arrays.
  struct Block {
    uint64_t first_key = 0;   // order key of the block's first value
    uint64_t value_off = 0;   // bit offset of the packed value deltas
    uint64_t pid_off = 0;     // bit offset of the packed pid offsets
    PointId pid_base = 0;     // minimum pid in the block
    uint8_t value_bits = 0;   // width of each value delta
    uint8_t pid_bits = 0;     // width of each pid offset
  };

  struct DimColumn {
    std::vector<Block> blocks;
    std::vector<uint64_t> value_words;  // packed deltas, all blocks
    std::vector<uint64_t> pid_words;    // packed pid offsets, all blocks
    std::vector<Value> first_values;    // blocks[i]'s first value, for
                                        // the LowerBound directory
  };

  size_t BlockLength(size_t block) const {
    const size_t begin = block * kBlock;
    return size_ - begin < kBlock ? size_ - begin : kBlock;
  }

  /// Decodes block `block` of `col` in full (BlockLength entries) into
  /// the caller's arrays.
  void DecodeBlock(const DimColumn& col, size_t block, Value* values,
                   PointId* pids) const;

  std::vector<DimColumn> cols_;
  size_t size_ = 0;
};

}  // namespace knmatch

#endif  // KNMATCH_CORE_PACKED_COLUMNS_H_
