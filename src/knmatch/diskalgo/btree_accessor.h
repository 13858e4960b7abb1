#ifndef KNMATCH_DISKALGO_BTREE_ACCESSOR_H_
#define KNMATCH_DISKALGO_BTREE_ACCESSOR_H_

#include <cassert>
#include <span>
#include <vector>

#include "knmatch/common/status.h"
#include "knmatch/common/types.h"
#include "knmatch/core/sorted_columns.h"
#include "knmatch/storage/bplus_tree.h"
#include "knmatch/storage/disk_simulator.h"

namespace knmatch::internal {

/// AD-engine accessor over per-dimension B+-tree columns. Each cursor
/// direction owns a tree iterator and an I/O stream; the engine's
/// strictly sequential per-slot access pattern (one step outward per
/// refill) maps to Prev()/Next() leaf walks. Every stream is released
/// when the accessor goes away.
///
/// ReadRun serves the kernel's block refills one leaf at a time: it
/// steps the cursor once (a leaf crossing is charged here, when the
/// kernel needs the next entry, exactly as on the per-entry path) and
/// copies the rest of the leaf in the walk direction, up to the
/// requested length. ReadEntry stays for the reference heap engine.
///
/// `Columns` is BTreeColumns (live trees) or SnapshotColumns (frozen
/// epoch of the ingest index) — both expose dims()/column_size() and a
/// tree(dim) whose seeks and iterators share one interface.
template <typename Columns>
class BTreeColumnAccessor {
 public:
  BTreeColumnAccessor(const Columns& columns,
                      std::span<const Value> query)
      : columns_(columns),
        query_(query),
        cursors_(2 * columns.dims()) {}

  size_t dims() const { return columns_.dims(); }
  size_t column_size() const { return columns_.column_size(); }
  size_t pid_bound() const {
    if constexpr (requires { columns_.pid_bound(); }) {
      return columns_.pid_bound();
    } else {
      return columns_.column_size();
    }
  }

  ColumnEntry ReadEntry(size_t dim, size_t idx, uint32_t slot) {
    (void)idx;
    if (!Step(dim, slot)) return ColumnEntry{};  // discarded on status()
    return cursors_[slot].it.Get();
  }

  size_t ReadRun(size_t dim, size_t idx, size_t len, uint32_t slot,
                 Value* values, PointId* pids) {
    (void)idx;
    if (!Step(dim, slot)) return 0;
    return cursors_[slot].it.CopyRun(slot % 2 == 0, len, values, pids);
  }

  size_t LocateLowerBound(size_t dim, Value v) {
    // A real root-to-leaf index traversal, charged to a per-query
    // locate stream (unlike the ColumnStore's free in-memory
    // directory).
    if (!locate_stream_.is_open()) {
      locate_stream_ = columns_.tree(dim).OpenStream();
    }
    Result<size_t> rank = columns_.tree(dim).RankOf(locate_stream_.id(), v);
    if (!rank.ok()) {
      status_ = rank.status();
      return 0;
    }
    return rank.value();
  }

  /// First traversal failure, latched; the engine stops once non-OK.
  const Status& status() const { return status_; }

 private:
  struct Cursor {
    bool started = false;
    DiskStream stream;
    BPlusTree::Iterator it;
  };

  /// Moves `slot`'s cursor onto the next entry outward: the first call
  /// seeks from the query value, later ones step once. Returns false
  /// (with status() latched) when a page could not be read.
  bool Step(size_t dim, uint32_t slot) {
    Cursor& cursor = cursors_[slot];
    if (!cursor.started) {
      cursor.started = true;
      cursor.stream = columns_.tree(dim).OpenStream();
      cursor.it = slot % 2 == 0
                      ? columns_.tree(dim).SeekBefore(cursor.stream.id(),
                                                      query_[dim])
                      : columns_.tree(dim).SeekLowerBound(
                            cursor.stream.id(), query_[dim]);
    } else if (slot % 2 == 0) {
      cursor.it.Prev();
    } else {
      cursor.it.Next();
    }
    if (!cursor.it.status().ok()) {
      status_ = cursor.it.status();
      return false;
    }
    assert(cursor.it.Valid() && "engine asked past the column end");
    return true;
  }

  const Columns& columns_;
  std::span<const Value> query_;
  std::vector<Cursor> cursors_;
  DiskStream locate_stream_;
  Status status_;
};

}  // namespace knmatch::internal

#endif  // KNMATCH_DISKALGO_BTREE_ACCESSOR_H_
