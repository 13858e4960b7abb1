#include "knmatch/core/sorted_columns.h"

#include <array>

namespace knmatch {

SortedColumns::SortedColumns(const Dataset& db) {
  const size_t c = db.size();
  const size_t d = db.dims();
  // One row-major pass lays every column out contiguously, in pid order.
  values_.assign(d, std::vector<Value>(c));
  pids_.assign(d, std::vector<PointId>(c));
  for (size_t pid = 0; pid < c; ++pid) {
    const auto row = db.point(static_cast<PointId>(pid));
    for (size_t dim = 0; dim < d; ++dim) values_[dim][pid] = row[dim];
  }

  std::vector<uint64_t> keys(c), keys_out(c);
  std::vector<PointId> pids_out(c);
  std::vector<Value> sorted(c);
  for (size_t dim = 0; dim < d; ++dim) {
    std::vector<Value>& column = values_[dim];
    std::vector<PointId>& ids = pids_[dim];
    for (size_t i = 0; i < c; ++i) {
      keys[i] = OrderKey(column[i]);
      ids[i] = static_cast<PointId>(i);
    }
    // Stable LSD radix sort on OrderKey, one byte per pass, starting
    // from pid order: equal values (−0.0 and +0.0 included) keep
    // ascending pid, so ties break by pid exactly as a (value, pid)
    // comparator sort would, and every AD answer derived from the order
    // is deterministic. A byte every key shares is skipped.
    std::array<std::array<size_t, 256>, 8> counts{};
    for (const uint64_t key : keys) {
      for (size_t pass = 0; pass < 8; ++pass) {
        ++counts[pass][(key >> (8 * pass)) & 0xFFu];
      }
    }
    for (size_t pass = 0; pass < 8; ++pass) {
      std::array<size_t, 256>& count = counts[pass];
      const unsigned shift = 8 * pass;
      if (c == 0 || count[(keys[0] >> shift) & 0xFFu] == c) continue;
      size_t offset = 0;
      for (size_t& n : count) {
        const size_t here = n;
        n = offset;
        offset += here;
      }
      for (size_t i = 0; i < c; ++i) {
        const size_t at = count[(keys[i] >> shift) & 0xFFu]++;
        keys_out[at] = keys[i];
        pids_out[at] = ids[i];
      }
      keys.swap(keys_out);
      ids.swap(pids_out);
    }
    // Values come from the column, not the key, so a −0.0 keeps its sign.
    for (size_t i = 0; i < c; ++i) sorted[i] = column[ids[i]];
    column.swap(sorted);
  }
}

}  // namespace knmatch
