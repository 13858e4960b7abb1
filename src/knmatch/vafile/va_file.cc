#include "knmatch/vafile/va_file.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace knmatch {

namespace {

/// ORs the `bits` low bits of `code` into `out` at bit offset `bit_pos`
/// (least significant bit first), a byte-sized chunk per step. `out`
/// must already cover the field.
void PutBits(std::span<std::byte> out, size_t bit_pos, uint32_t code,
             unsigned bits) {
  while (bits > 0) {
    const unsigned shift = bit_pos % 8;
    const unsigned take = std::min(bits, 8 - shift);
    const uint32_t chunk = code & ((1u << take) - 1);
    out[bit_pos / 8] |= static_cast<std::byte>(chunk << shift);
    code >>= take;
    bit_pos += take;
    bits -= take;
  }
}

/// Reads `bits` bits from the image at bit offset `bit_pos`.
uint32_t GetBits(std::span<const std::byte> in, size_t bit_pos,
                 unsigned bits) {
  uint32_t code = 0;
  unsigned done = 0;
  while (done < bits) {
    const unsigned shift = bit_pos % 8;
    const unsigned take = std::min(bits - done, 8 - shift);
    const uint32_t byte = static_cast<uint8_t>(in[bit_pos / 8]);
    code |= ((byte >> shift) & ((1u << take) - 1)) << done;
    bit_pos += take;
    done += take;
  }
  return code;
}

}  // namespace

VaFile::VaFile(const Dataset& db, DiskSimulator* disk, unsigned bits)
    : size_(db.size()),
      dims_(db.dims()),
      bits_(bits),
      cells_(1u << bits),
      disk_(disk),
      file_(disk) {
  assert(bits >= 1 && bits <= 16);
  row_bytes_ = (dims_ * bits_ + 7) / 8;
  assert(row_bytes_ <= file_.payload_capacity());
  rows_per_page_ = file_.payload_capacity() / row_bytes_;

  // Per-dimension ranges for the equi-width grid.
  dim_lo_.assign(dims_, std::numeric_limits<Value>::infinity());
  dim_width_.assign(dims_, 0);
  std::vector<Value> dim_hi(dims_,
                            -std::numeric_limits<Value>::infinity());
  for (PointId pid = 0; pid < size_; ++pid) {
    auto p = db.point(pid);
    for (size_t dim = 0; dim < dims_; ++dim) {
      dim_lo_[dim] = std::min(dim_lo_[dim], p[dim]);
      dim_hi[dim] = std::max(dim_hi[dim], p[dim]);
    }
  }
  for (size_t dim = 0; dim < dims_; ++dim) {
    dim_width_[dim] = dim_hi[dim] - dim_lo_[dim];
  }

  // Quantize and serialize, page by page.
  std::vector<std::byte> image;
  image.reserve(file_.page_size());
  size_t rows_in_page = 0;
  for (PointId pid = 0; pid < size_; ++pid) {
    auto p = db.point(pid);
    image.resize((rows_in_page + 1) * row_bytes_, std::byte{0});
    std::span<std::byte> row(image.data() + rows_in_page * row_bytes_,
                             row_bytes_);
    for (size_t dim = 0; dim < dims_; ++dim) {
      PutBits(row, dim * bits_, Quantize(dim, p[dim]), bits_);
    }
    if (++rows_in_page == rows_per_page_) {
      file_.AppendPage(image);
      image.clear();
      rows_in_page = 0;
    }
  }
  if (!image.empty()) file_.AppendPage(image);
}

Value VaFile::CellLower(size_t dim, uint32_t code) const {
  return dim_lo_[dim] +
         dim_width_[dim] * static_cast<Value>(code) / cells_;
}

Value VaFile::CellUpper(size_t dim, uint32_t code) const {
  return dim_lo_[dim] +
         dim_width_[dim] * static_cast<Value>(code + 1) / cells_;
}

uint32_t VaFile::Quantize(size_t dim, Value v) const {
  if (dim_width_[dim] <= 0) return 0;
  const Value frac = (v - dim_lo_[dim]) / dim_width_[dim];
  const auto code = static_cast<int64_t>(frac * cells_);
  return static_cast<uint32_t>(
      std::clamp<int64_t>(code, 0, cells_ - 1));
}

std::vector<VaFile::CellBound> VaFile::BoundsFor(
    std::span<const Value> query) const {
  std::vector<CellBound> bounds(dims_ * cells_);
  for (size_t dim = 0; dim < dims_; ++dim) {
    const Value q = query[dim];
    for (uint32_t code = 0; code < cells_; ++code) {
      const Value lo = CellLower(dim, code);
      const Value hi = CellUpper(dim, code);
      CellBound& b = bounds[dim * cells_ + code];
      b.lower = q < lo ? lo - q : (q > hi ? q - hi : 0);
      b.upper = std::max(std::abs(q - lo), std::abs(q - hi));
    }
  }
  return bounds;
}

DiskStream VaFile::OpenStream() const { return DiskStream(disk_); }

Status VaFile::ForEachApprox(
    size_t stream,
    const std::function<void(PointId, std::span<const uint32_t>)>& fn)
    const {
  return ForEachApproxWhile(
      stream, [&fn](PointId pid, std::span<const uint32_t> codes) {
        fn(pid, codes);
        return true;
      });
}

Status VaFile::ForEachApproxWhile(
    size_t stream,
    const std::function<bool(PointId, std::span<const uint32_t>)>& fn)
    const {
  std::vector<uint32_t> codes(dims_);
  PointId pid = 0;
  for (size_t page = 0; page < file_.num_pages(); ++page) {
    auto image = file_.ReadPage(stream, page);
    if (!image.ok()) return image.status();
    for (size_t row = 0; row < rows_per_page_ && pid < size_;
         ++row, ++pid) {
      const size_t row_base_bits = row * row_bytes_ * 8;
      for (size_t dim = 0; dim < dims_; ++dim) {
        codes[dim] =
            GetBits(image.value(), row_base_bits + dim * bits_, bits_);
      }
      if (!fn(pid, std::span<const uint32_t>(codes.data(), codes.size()))) {
        return Status::OK();
      }
    }
  }
  return Status::OK();
}

}  // namespace knmatch
