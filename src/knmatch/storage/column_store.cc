#include "knmatch/storage/column_store.h"

#include <algorithm>
#include <cassert>

namespace knmatch {

namespace {
constexpr size_t kEntryBytes = sizeof(Value) + sizeof(PointId);
}  // namespace

ColumnStore::ColumnStore(const Dataset& db, DiskSimulator* disk)
    : ColumnStore(SortedColumns(db), disk) {}

ColumnStore::ColumnStore(const SortedColumns& sorted, DiskSimulator* disk)
    : dims_(sorted.dims()), size_(sorted.size()), disk_(disk), file_(disk) {
  entries_per_page_ = file_.payload_capacity() / kEntryBytes;
  assert(entries_per_page_ > 0 && "page too small for one entry");
  pages_per_dim_ = (size_ + entries_per_page_ - 1) / entries_per_page_;
  first_values_.resize(dims_);

  // Serialize the sorted columns page by page.
  std::vector<std::byte> image;
  image.reserve(file_.page_size());
  for (size_t dim = 0; dim < dims_; ++dim) {
    auto vals = sorted.values(dim);
    auto ids = sorted.pids(dim);
    first_values_[dim].reserve(pages_per_dim_);
    for (size_t i = 0; i < vals.size(); ++i) {
      if (i % entries_per_page_ == 0) {
        first_values_[dim].push_back(vals[i]);
      }
      PutScalar(&image, vals[i]);
      PutScalar(&image, ids[i]);
      if ((i + 1) % entries_per_page_ == 0) {
        file_.AppendPage(image);
        image.clear();
      }
    }
    if (!image.empty()) {
      file_.AppendPage(image);
      image.clear();
    }
  }
}

DiskStream ColumnStore::OpenStream() const { return DiskStream(disk_); }

ColumnEntry ColumnStore::DecodeEntry(std::span<const std::byte> image,
                                     size_t slot) const {
  ColumnEntry e;
  e.value = GetScalar<Value>(image, slot * kEntryBytes);
  e.pid = GetScalar<PointId>(image, slot * kEntryBytes + sizeof(Value));
  return e;
}

size_t ColumnStore::PageOf(size_t dim, size_t idx) const {
  return dim * pages_per_dim_ + idx / entries_per_page_;
}

Result<ColumnEntry> ColumnStore::ReadEntry(size_t stream, size_t dim,
                                           size_t idx) const {
  assert(dim < dims_ && idx < size_);
  auto image = file_.ReadPage(stream, PageOf(dim, idx));
  if (!image.ok()) return image.status();
  return DecodeEntry(image.value(), idx % entries_per_page_);
}

Result<size_t> ColumnStore::ReadRun(size_t stream, size_t dim, size_t idx,
                                    size_t len, bool descending,
                                    Value* values, PointId* pids) const {
  assert(dim < dims_ && idx < size_ && len >= 1);
  auto image = file_.ReadPage(stream, PageOf(dim, idx));
  if (!image.ok()) return image.status();
  const size_t slot = idx % entries_per_page_;
  size_t n;
  if (descending) {
    n = std::min(len, slot + 1);
    for (size_t i = 0; i < n; ++i) {
      const ColumnEntry e = DecodeEntry(image.value(), slot - i);
      values[i] = e.value;
      pids[i] = e.pid;
    }
  } else {
    const size_t page_base = idx - slot;
    const size_t in_page = std::min(entries_per_page_, size_ - page_base);
    n = std::min(len, in_page - slot);
    for (size_t i = 0; i < n; ++i) {
      const ColumnEntry e = DecodeEntry(image.value(), slot + i);
      values[i] = e.value;
      pids[i] = e.pid;
    }
  }
  return n;
}

size_t ColumnStore::LowerBound(size_t dim, Value v) const {
  const auto& firsts = first_values_[dim];
  // Find the last page whose first value is < v; the lower bound lives
  // there or at the start of the next page.
  auto it = std::lower_bound(firsts.begin(), firsts.end(), v);
  size_t page;  // page index within the dimension
  if (it == firsts.begin()) {
    page = 0;
  } else {
    page = static_cast<size_t>(it - firsts.begin()) - 1;
  }
  // In-page binary search over the peeked (uncharged) page image.
  auto image_or = file_.PeekPage(dim * pages_per_dim_ + page);
  const size_t base = page * entries_per_page_;
  if (!image_or.ok()) {
    // The page is damaged. Fall back to the directory's bound (the
    // page's first entry): never past the true lower bound, and the
    // first charged read of this page will report the loss.
    return base;
  }
  std::span<const std::byte> image = image_or.value();
  const size_t count = std::min(entries_per_page_, size_ - base);
  size_t lo = 0, hi = count;
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (DecodeEntry(image, mid).value < v) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return base + lo;
}

}  // namespace knmatch
