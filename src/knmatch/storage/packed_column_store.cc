#include "knmatch/storage/packed_column_store.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>

#include "knmatch/core/bitpack.h"

namespace knmatch {

namespace {

constexpr size_t kBlock = PackedColumns::kBlock;

/// Per-block page header: first_key(8) + pid_base(4) + len(2) +
/// payload_off(2) + value_bits(1) + pid_bits(1).
constexpr size_t kBlockHeaderBytes = 18;
/// Page preamble: u16 block count.
constexpr size_t kPagePreambleBytes = 2;

/// Worst-case packed stream of one block: 64-bit value deltas plus
/// 32-bit pid offsets, in whole words with the writer's padding.
constexpr size_t kMaxBlockBits = (kBlock - 1) * 64 + kBlock * 32;
constexpr size_t kMaxBlockWords = kMaxBlockBits / 64 + 3;

/// One block, encoded and ready for page placement.
struct EncodedBlock {
  uint64_t first_key = 0;
  PointId pid_base = 0;
  uint16_t len = 0;
  uint8_t value_bits = 0;
  uint8_t pid_bits = 0;
  std::vector<std::byte> stream;  // packed deltas then pid offsets
};

EncodedBlock EncodeBlock(std::span<const Value> vals,
                         std::span<const PointId> ids) {
  assert(!vals.empty() && vals.size() == ids.size() &&
         vals.size() <= kBlock);
  EncodedBlock blk;
  blk.len = static_cast<uint16_t>(vals.size());
  blk.first_key = OrderKey(vals[0]);
  uint64_t prev = blk.first_key;
  uint64_t max_delta = 0;
  PointId pid_min = ids[0];
  PointId pid_max = ids[0];
  for (size_t i = 1; i < vals.size(); ++i) {
    const uint64_t key = OrderKey(vals[i]);
    assert(key >= prev && "columns must be sorted");
    max_delta = std::max(max_delta, key - prev);
    prev = key;
  }
  for (const PointId pid : ids) {
    pid_min = std::min(pid_min, pid);
    pid_max = std::max(pid_max, pid);
  }
  blk.pid_base = pid_min;
  blk.value_bits = static_cast<uint8_t>(internal::BitsFor(max_delta));
  blk.pid_bits = static_cast<uint8_t>(
      internal::BitsFor(static_cast<uint64_t>(pid_max - pid_min)));

  std::vector<uint64_t> words;
  internal::BitWriter writer(&words);
  prev = blk.first_key;
  for (size_t i = 1; i < vals.size(); ++i) {
    const uint64_t key = OrderKey(vals[i]);
    writer.Append(key - prev, blk.value_bits);
    prev = key;
  }
  for (const PointId pid : ids) {
    writer.Append(pid - pid_min, blk.pid_bits);
  }
  writer.Finish();
  const size_t total_bits = (vals.size() - 1) * blk.value_bits +
                            vals.size() * blk.pid_bits;
  const size_t nbytes = (total_bits + 7) / 8;
  blk.stream.resize(nbytes);
  std::memcpy(blk.stream.data(), words.data(), nbytes);
  return blk;
}

/// A block located inside a parsed page image.
struct BlockRef {
  size_t first = 0;  // dim-relative index of the block's first entry
  size_t len = 0;
  uint64_t first_key = 0;
  PointId pid_base = 0;
  uint8_t value_bits = 0;
  uint8_t pid_bits = 0;
  size_t stream_at = 0;  // byte offset of the packed stream in the image
};

size_t PageBlockCount(std::span<const std::byte> image) {
  return GetScalar<uint16_t>(image, 0);
}

BlockRef ParseBlockHeader(std::span<const std::byte> image, size_t nblocks,
                          size_t index, size_t page_first_entry,
                          size_t entries_before) {
  const size_t at = kPagePreambleBytes + index * kBlockHeaderBytes;
  BlockRef ref;
  ref.first = page_first_entry + entries_before;
  ref.first_key = GetScalar<uint64_t>(image, at);
  ref.pid_base = GetScalar<PointId>(image, at + 8);
  ref.len = GetScalar<uint16_t>(image, at + 12);
  ref.stream_at = kPagePreambleBytes + nblocks * kBlockHeaderBytes +
                  GetScalar<uint16_t>(image, at + 14);
  ref.value_bits = GetScalar<uint8_t>(image, at + 16);
  ref.pid_bits = GetScalar<uint8_t>(image, at + 17);
  return ref;
}

/// Walks the page's headers to the block containing dim-relative entry
/// `idx`. The caller guarantees `idx` lives in this page.
BlockRef FindBlock(std::span<const std::byte> image, size_t page_first_entry,
                   size_t idx) {
  const size_t nblocks = PageBlockCount(image);
  size_t before = 0;
  for (size_t b = 0; b < nblocks; ++b) {
    BlockRef ref =
        ParseBlockHeader(image, nblocks, b, page_first_entry, before);
    if (idx < ref.first + ref.len) return ref;
    before += ref.len;
  }
  assert(false && "entry index beyond the page's blocks");
  return BlockRef{};
}

/// Decodes `ref`'s full entry run into the caller's arrays.
void DecodeBlockStream(std::span<const std::byte> image, const BlockRef& ref,
                       Value* values, PointId* pids) {
  const size_t total_bits =
      (ref.len - 1) * ref.value_bits + ref.len * ref.pid_bits;
  const size_t nbytes = (total_bits + 7) / 8;
  assert(ref.stream_at + nbytes <= image.size());
  std::array<uint64_t, kMaxBlockWords> words;
  const size_t nwords = (nbytes + 7) / 8;
  if (nwords > 0) words[nwords - 1] = 0;
  words[nwords] = 0;  // straddle-overread slack for the reader
  std::memcpy(words.data(), image.data() + ref.stream_at, nbytes);

  internal::BitReader reader(words.data(), 0);
  uint64_t key = ref.first_key;
  values[0] = FromOrderKey(key);
  for (size_t i = 1; i < ref.len; ++i) {
    key += reader.Read(ref.value_bits);
    values[i] = FromOrderKey(key);
  }
  for (size_t i = 0; i < ref.len; ++i) {
    pids[i] = ref.pid_base + static_cast<PointId>(reader.Read(ref.pid_bits));
  }
}

}  // namespace

PackedColumnStore::PackedColumnStore(const Dataset& db, DiskSimulator* disk)
    : dims_(db.dims()), size_(db.size()), disk_(disk), file_(disk) {
  pages_.resize(dims_);
  page_base_.resize(dims_);
  SortedColumns sorted(db);
  const size_t cap = file_.payload_capacity();
  assert(cap >= kPagePreambleBytes + kBlockHeaderBytes +
                    (kMaxBlockBits + 7) / 8 &&
         "page too small for one worst-case packed block");

  std::vector<EncodedBlock> pending;  // blocks of the page being filled
  std::vector<std::byte> image;
  for (size_t dim = 0; dim < dims_; ++dim) {
    page_base_[dim] = file_.num_pages();
    const auto vals = sorted.values(dim);
    const auto ids = sorted.pids(dim);

    size_t page_first = 0;   // dim-relative first entry of pending page
    size_t page_bytes = kPagePreambleBytes;
    size_t page_entries = 0;
    pending.clear();

    auto flush = [&]() {
      if (pending.empty()) return;
      image.clear();
      PutScalar(&image, static_cast<uint16_t>(pending.size()));
      size_t stream_off = 0;
      for (const EncodedBlock& blk : pending) {
        PutScalar(&image, blk.first_key);
        PutScalar(&image, blk.pid_base);
        PutScalar(&image, blk.len);
        PutScalar(&image, static_cast<uint16_t>(stream_off));
        PutScalar(&image, blk.value_bits);
        PutScalar(&image, blk.pid_bits);
        stream_off += blk.stream.size();
      }
      for (const EncodedBlock& blk : pending) {
        image.insert(image.end(), blk.stream.begin(), blk.stream.end());
      }
      file_.AppendPage(image);
      pages_[dim].push_back(
          PageInfo{page_first,
                   FromOrderKey(pending[0].first_key)});
      page_first += page_entries;
      page_bytes = kPagePreambleBytes;
      page_entries = 0;
      pending.clear();
    };

    for (size_t begin = 0; begin < size_; begin += kBlock) {
      const size_t len = std::min(kBlock, size_ - begin);
      EncodedBlock blk = EncodeBlock(vals.subspan(begin, len),
                                     ids.subspan(begin, len));
      const size_t need = kBlockHeaderBytes + blk.stream.size();
      if (page_bytes + need > cap) flush();
      page_bytes += need;
      page_entries += blk.len;
      pending.push_back(std::move(blk));
    }
    flush();
  }
}

DiskStream PackedColumnStore::OpenStream() const {
  return DiskStream(disk_);
}

size_t PackedColumnStore::PageOf(size_t dim, size_t idx) const {
  const auto& infos = pages_[dim];
  // Last page whose first entry is <= idx.
  auto it = std::upper_bound(
      infos.begin(), infos.end(), idx,
      [](size_t i, const PageInfo& p) { return i < p.first_entry; });
  assert(it != infos.begin());
  return page_base_[dim] + static_cast<size_t>(it - infos.begin()) - 1;
}

Result<ColumnEntry> PackedColumnStore::ReadEntry(size_t stream, size_t dim,
                                                 size_t idx) const {
  assert(dim < dims_ && idx < size_);
  const size_t page = PageOf(dim, idx);
  auto image = file_.ReadPage(stream, page);
  if (!image.ok()) return image.status();
  const size_t page_first =
      pages_[dim][page - page_base_[dim]].first_entry;
  const BlockRef ref = FindBlock(image.value(), page_first, idx);
  Value values[kBlock];
  PointId pids[kBlock];
  DecodeBlockStream(image.value(), ref, values, pids);
  return ColumnEntry{values[idx - ref.first], pids[idx - ref.first]};
}

Result<size_t> PackedColumnStore::ReadRun(size_t stream, size_t dim,
                                          size_t idx, size_t len,
                                          bool descending, Value* values,
                                          PointId* pids) const {
  assert(dim < dims_ && idx < size_ && len >= 1);
  const size_t page = PageOf(dim, idx);
  auto image = file_.ReadPage(stream, page);
  if (!image.ok()) return image.status();
  const size_t page_rel = page - page_base_[dim];
  const size_t page_first = pages_[dim][page_rel].first_entry;
  const size_t page_end = page_rel + 1 < pages_[dim].size()
                              ? pages_[dim][page_rel + 1].first_entry
                              : size_;
  // Page-granular bound, mirroring ColumnStore::ReadRun.
  const size_t n = descending ? std::min(len, idx - page_first + 1)
                              : std::min(len, page_end - idx);

  Value block_values[kBlock];
  PointId block_pids[kBlock];
  const size_t lo = descending ? idx - (n - 1) : idx;
  const size_t hi = descending ? idx : idx + (n - 1);
  size_t at = lo;
  while (at <= hi) {
    const BlockRef ref = FindBlock(image.value(), page_first, at);
    DecodeBlockStream(image.value(), ref, block_values, block_pids);
    const size_t to = std::min(hi, ref.first + ref.len - 1);
    for (size_t i = at; i <= to; ++i) {
      const size_t out = descending ? idx - i : i - idx;
      values[out] = block_values[i - ref.first];
      pids[out] = block_pids[i - ref.first];
    }
    at = to + 1;
  }
  return n;
}

size_t PackedColumnStore::LowerBound(size_t dim, Value v) const {
  const auto& infos = pages_[dim];
  // Last page whose first value is < v (the bound lives there or at the
  // start of the next page), as in ColumnStore::LowerBound.
  auto it = std::lower_bound(
      infos.begin(), infos.end(), v,
      [](const PageInfo& p, Value x) { return p.first_value < x; });
  const size_t page_rel =
      it == infos.begin() ? 0 : static_cast<size_t>(it - infos.begin()) - 1;
  const PageInfo& info = infos[page_rel];
  auto image_or = file_.PeekPage(page_base_[dim] + page_rel);
  if (!image_or.ok()) {
    // Damaged page: the directory's bound is never past the true lower
    // bound, and the first charged read reports the loss.
    return info.first_entry;
  }
  std::span<const std::byte> image = image_or.value();
  const uint64_t key_v = OrderKey(v);

  // Last block in the page whose first key is < key_v.
  const size_t nblocks = PageBlockCount(image);
  size_t target = 0;
  size_t before = 0;
  size_t target_before = 0;
  for (size_t b = 0; b < nblocks; ++b) {
    const BlockRef ref =
        ParseBlockHeader(image, nblocks, b, info.first_entry, before);
    if (b > 0 && ref.first_key >= key_v) break;
    target = b;
    target_before = before;
    before += ref.len;
  }
  const BlockRef ref = ParseBlockHeader(image, nblocks, target,
                                        info.first_entry, target_before);
  Value block_values[kBlock];
  PointId block_pids[kBlock];
  DecodeBlockStream(image, ref, block_values, block_pids);
  const Value* const begin = block_values;
  const Value* const end = block_values + ref.len;
  const Value* pos = std::lower_bound(begin, end, v);
  // Not found in the block: the bound is the next block's first entry
  // (== ref.first + ref.len, also correct across page and dim ends).
  return ref.first + static_cast<size_t>(pos - begin);
}

}  // namespace knmatch
