#ifndef KNMATCH_CORE_SORTED_COLUMNS_H_
#define KNMATCH_CORE_SORTED_COLUMNS_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "knmatch/common/dataset.h"
#include "knmatch/common/types.h"

namespace knmatch {

/// Order-preserving double -> uint64 key: for a <= b (as doubles),
/// OrderKey(a) <= OrderKey(b), and FromOrderKey inverts it exactly.
/// -0.0 canonicalizes to +0.0 so equal values map to equal keys
/// regardless of sign-of-zero (the columns tie-break equal values by
/// pid, not by bit pattern).
inline uint64_t OrderKey(Value v) {
  constexpr uint64_t kSignBit = uint64_t{1} << 63;
  const uint64_t b = std::bit_cast<uint64_t>(v + 0.0);
  return (b & kSignBit) != 0 ? ~b : (b | kSignBit);
}
inline Value FromOrderKey(uint64_t key) {
  constexpr uint64_t kSignBit = uint64_t{1} << 63;
  const uint64_t b = (key & kSignBit) != 0 ? (key ^ kSignBit) : ~key;
  return std::bit_cast<Value>(b);
}

/// One attribute inside a sorted dimension: the value and the id of the
/// point it belongs to. This is the "(point ID, attribute) pair" of the
/// paper's Figure 5.
struct ColumnEntry {
  Value value = 0;
  PointId pid = kInvalidPointId;

  friend bool operator==(const ColumnEntry& a, const ColumnEntry& b) {
    return a.value == b.value && a.pid == b.pid;
  }
};

/// The paper's data organization for the AD algorithm: every dimension
/// of the dataset sorted independently by attribute value (ties broken
/// by point id, for determinism). Equivalently, the "scores sorted by
/// each system" of the multiple-system IR model [Fagin 96].
///
/// Storage is structure-of-arrays: each dimension keeps a values[]
/// array and a parallel pids[] array instead of packed (value, pid)
/// pairs. The AD ascend loop is comparison-bound on values alone —
/// splitting the columns halves the bytes the comparisons drag through
/// cache and lets the kernel's run scans walk a dense Value array; the
/// pid is only touched for entries that actually pop.
class SortedColumns {
 public:
  SortedColumns() = default;

  /// Builds the d sorted columns from a dataset: one stable radix sort
  /// per dimension, O(d * c).
  explicit SortedColumns(const Dataset& db);

  /// Dimensionality d.
  size_t dims() const { return values_.size(); }
  /// Cardinality c (entries per column).
  size_t size() const { return values_.empty() ? 0 : values_[0].size(); }

  /// The sorted attribute values of dimension `dim`.
  std::span<const Value> values(size_t dim) const { return values_[dim]; }
  /// The point ids of dimension `dim`, parallel to values(dim).
  std::span<const PointId> pids(size_t dim) const { return pids_[dim]; }

  /// The idx-th smallest entry of dimension `dim`, reassembled from the
  /// two parallel arrays (for cold paths and tests; hot loops should
  /// read values()/pids() directly).
  ColumnEntry entry(size_t dim, size_t idx) const {
    return ColumnEntry{values_[dim][idx], pids_[dim][idx]};
  }

  /// Index of the first entry in `dim` whose value is >= v (i.e.,
  /// std::lower_bound). Entries at smaller indices are strictly < v.
  /// Defined in-header (like the column reads above) so the AD hot
  /// path inlines it.
  size_t LowerBound(size_t dim, Value v) const {
    const auto& col = values_[dim];
    auto it = std::lower_bound(col.begin(), col.end(), v);
    return static_cast<size_t>(it - col.begin());
  }

 private:
  std::vector<std::vector<Value>> values_;
  std::vector<std::vector<PointId>> pids_;
};

}  // namespace knmatch

#endif  // KNMATCH_CORE_SORTED_COLUMNS_H_
