#include "knmatch/storage/row_store.h"

#include <cassert>

namespace knmatch {

RowStore::RowStore(const Dataset& db, DiskSimulator* disk)
    : size_(db.size()), dims_(db.dims()), disk_(disk), file_(disk) {
  const size_t row_bytes = dims_ * sizeof(Value);
  assert(row_bytes <= file_.payload_capacity() &&
         "row wider than a page's payload");
  rows_per_page_ = file_.payload_capacity() / row_bytes;

  std::vector<std::byte> image;
  image.reserve(file_.page_size());
  for (PointId pid = 0; pid < size_; ++pid) {
    for (const Value v : db.point(pid)) PutScalar(&image, v);
    if ((pid + 1) % rows_per_page_ == 0) {
      file_.AppendPage(image);
      image.clear();
    }
  }
  if (!image.empty()) file_.AppendPage(image);
}

DiskStream RowStore::OpenStream() const { return DiskStream(disk_); }

Result<std::span<const Value>> RowStore::ReadRow(
    size_t stream, PointId pid, std::vector<Value>* buf) const {
  assert(pid < size_);
  const size_t page = pid / rows_per_page_;
  const size_t slot = pid % rows_per_page_;
  auto image = file_.ReadPage(stream, page);
  if (!image.ok()) return image.status();
  buf->resize(dims_);
  for (size_t dim = 0; dim < dims_; ++dim) {
    (*buf)[dim] = GetScalar<Value>(
        image.value(), (slot * dims_ + dim) * sizeof(Value));
  }
  return std::span<const Value>(buf->data(), buf->size());
}

Status RowStore::ForEachRow(
    size_t stream,
    const std::function<void(PointId, std::span<const Value>)>& fn) const {
  return ForEachRowWhile(stream,
                         [&fn](PointId pid, std::span<const Value> row) {
                           fn(pid, row);
                           return true;
                         });
}

Status RowStore::ForEachRowWhile(
    size_t stream,
    const std::function<bool(PointId, std::span<const Value>)>& fn) const {
  std::vector<Value> buf(dims_);
  PointId pid = 0;
  for (size_t page = 0; page < file_.num_pages(); ++page) {
    auto image = file_.ReadPage(stream, page);
    if (!image.ok()) return image.status();
    for (size_t slot = 0; slot < rows_per_page_ && pid < size_;
         ++slot, ++pid) {
      for (size_t dim = 0; dim < dims_; ++dim) {
        buf[dim] = GetScalar<Value>(
            image.value(), (slot * dims_ + dim) * sizeof(Value));
      }
      if (!fn(pid, std::span<const Value>(buf.data(), buf.size()))) {
        return Status::OK();
      }
    }
  }
  return Status::OK();
}

}  // namespace knmatch
