#ifndef KNMATCH_STORAGE_COLUMN_STORE_H_
#define KNMATCH_STORAGE_COLUMN_STORE_H_

#include <vector>

#include "knmatch/common/dataset.h"
#include "knmatch/common/status.h"
#include "knmatch/common/types.h"
#include "knmatch/core/sorted_columns.h"
#include "knmatch/storage/paged_file.h"

namespace knmatch {

/// The disk layout of Section 4.1: every dimension sorted by attribute
/// value and stored sequentially on disk as (value, pid) entries, one
/// dimension after another. A small in-memory index (the first value of
/// every page, as a B+-tree inner level would cache) supports locating
/// the query's attribute without charged I/O — the two direction
/// cursors charge the located page on their first read anyway, which is
/// exactly the paper's accounting.
class ColumnStore {
 public:
  /// Builds the sorted, paged columns for `db` on the simulated disk.
  ColumnStore(const Dataset& db, DiskSimulator* disk);

  /// Pages already-sorted columns onto the simulated disk, so a caller
  /// that holds the in-memory AD columns does not sort a second time.
  /// The pages are byte-identical to ColumnStore(db, disk)'s.
  ColumnStore(const SortedColumns& sorted, DiskSimulator* disk);

  /// Dimensionality d.
  size_t dims() const { return dims_; }
  /// Cardinality c (entries per column).
  size_t column_size() const { return size_; }
  /// Total pages across all columns.
  size_t num_pages() const { return file_.num_pages(); }
  /// Entries stored per page.
  size_t entries_per_page() const { return entries_per_page_; }
  /// The paged file behind the store (for tests that compare images).
  const PagedFile& file() const { return file_; }

  /// Opens an I/O accounting stream (one per cursor direction),
  /// released when the handle goes away.
  DiskStream OpenStream() const;

  /// The simulator this store charges its I/O to (for page-budget
  /// accounting via QueryContext::ArmPages).
  const DiskSimulator* disk() const { return disk_; }

  /// Reads the idx-th smallest entry of `dim`, charging the page access
  /// to `stream`. Adjacent reads on the same stream touch the same page
  /// and cost nothing extra. Fails (kDataLoss / kUnavailable) when the
  /// underlying page cannot be read intact.
  Result<ColumnEntry> ReadEntry(size_t stream, size_t dim,
                                size_t idx) const;

  /// Reads up to `len` consecutive entries of `dim` starting at `idx`
  /// and walking toward smaller indices (`descending`, a downward AD
  /// cursor) or larger ones, into the SoA output arrays in walk order.
  /// Deliberately bounded to the single page holding `idx`: one charged
  /// ReadPage serves every entry returned, so the I/O accounting
  /// (pattern classification, buffer-pool recency, fault opportunities)
  /// is bit-identical to reading the same entries one ReadEntry at a
  /// time — the per-entry path's same-page re-reads on one stream are
  /// free. Returns how many entries were produced (>= 1).
  Result<size_t> ReadRun(size_t stream, size_t dim, size_t idx, size_t len,
                         bool descending, Value* values,
                         PointId* pids) const;

  /// Index of the first entry of `dim` whose value is >= v. Uses the
  /// in-memory page index plus an uncharged peek at one leaf page (see
  /// class comment). Infallible by design: if the peeked page is
  /// damaged, the page-directory bound (the page's first entry) is
  /// returned — conservative, and the cursor's first charged ReadEntry
  /// of that page surfaces the error before any result is produced.
  size_t LowerBound(size_t dim, Value v) const;

 private:
  ColumnEntry DecodeEntry(std::span<const std::byte> image,
                          size_t slot) const;
  /// File-level page index holding entry `idx` of `dim`.
  size_t PageOf(size_t dim, size_t idx) const;

  size_t dims_;
  size_t size_;
  size_t entries_per_page_;
  size_t pages_per_dim_;
  DiskSimulator* disk_;
  PagedFile file_;
  /// first_values_[dim][p] = value of the first entry in the p-th page
  /// of that dimension.
  std::vector<std::vector<Value>> first_values_;
};

}  // namespace knmatch

#endif  // KNMATCH_STORAGE_COLUMN_STORE_H_
