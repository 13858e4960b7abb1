#include "knmatch/storage/paged_file.h"

#include <atomic>
#include <cassert>
#include <string>

#include "knmatch/obs/catalog.h"
#include "knmatch/obs/trace.h"

namespace knmatch {

PagedFile::PagedFile(DiskSimulator* disk)
    : disk_(disk), page_size_(disk->config().page_size) {}

size_t PagedFile::AppendPage(std::span<const std::byte> payload) {
  assert(payload.size() <= payload_capacity() &&
         "payload exceeds the framed page capacity");
  // Pages are allocated from the simulator one at a time. Bulk builds
  // (nothing else allocating) get a contiguous run; a live-ingest file
  // growing while other files allocate records each page's global id.
  const uint64_t global = disk_->AllocatePages(1);
  if (pages_.empty()) {
    first_global_page_ = global;
  }
  pages_.push_back(FrameChecksummedPage(payload, page_size_));
  global_of_.push_back(global);
  verified_.push_back(false);
  return pages_.size() - 1;
}

void PagedFile::WritePage(size_t index,
                          std::span<const std::byte> payload) {
  assert(index < pages_.size());
  assert(payload.size() <= payload_capacity() &&
         "payload exceeds the framed page capacity");
  pages_[index] = FrameChecksummedPage(payload, page_size_);
  verified_[index] = false;
  // The pool may hold the old image; the head position is untouched
  // (writes are not I/O-modelled).
  disk_->EvictPage(global_of_[index]);
}

void PagedFile::WritePageTorn(size_t index,
                              std::span<const std::byte> payload,
                              size_t valid_bytes) {
  assert(payload.size() <= payload_capacity());
  std::vector<std::byte> frame = FrameChecksummedPage(payload, page_size_);
  if (valid_bytes >= frame.size()) valid_bytes = frame.size() - 1;
  if (index == pages_.size()) {
    const uint64_t global = disk_->AllocatePages(1);
    if (pages_.empty()) first_global_page_ = global;
    pages_.emplace_back(page_size_, std::byte{0});
    global_of_.push_back(global);
    verified_.push_back(false);
  }
  assert(index < pages_.size());
  // Old image keeps its tail; only the first valid_bytes of the new
  // frame landed before the crash.
  std::memcpy(pages_[index].data(), frame.data(), valid_bytes);
  verified_[index] = false;
  disk_->EvictPage(global_of_[index]);
}

Result<std::span<const std::byte>> PagedFile::VerifyStored(
    size_t index) const {
  const std::vector<std::byte>& page = pages_[index];
  std::atomic_ref<uint8_t> verified(verified_[index]);
  if (verified.load() != 0) {
    // Already proven intact; re-derive the payload view from the
    // header without recomputing the checksum.
    uint32_t len;
    std::memcpy(&len, page.data(), sizeof(len));
    return std::span<const std::byte>(page.data() + sizeof(uint32_t),
                                      len);
  }
  obs::TraceSpan span(obs::Phase::kVerify);
  auto payload = VerifyAndUnframePage(page);
  if (payload.ok()) {
    verified.store(1);
  } else {
    obs::Cat().checksum_failures->Add();
  }
  return payload;
}

Result<std::span<const std::byte>> PagedFile::ReadPage(
    size_t stream, size_t index) const {
  if (index >= pages_.size()) {
    return Status::OutOfRange("page index " + std::to_string(index) +
                              " >= file size " +
                              std::to_string(pages_.size()));
  }
  const uint64_t global = global_of_[index];
  if (disk_->IsQuarantined(global)) {
    return Status::DataLoss("page " + std::to_string(global) +
                            " is quarantined");
  }
  for (int attempt = 0; attempt < DiskSimulator::kMaxReadAttempts;
       ++attempt) {
    if (attempt > 0) {
      obs::Cat().read_retries->Add();
      if (obs::QueryTrace* trace = obs::CurrentTrace()) {
        ++trace->counters().retries;
      }
    }
    switch (disk_->ReadAttempt(stream, global)) {
      case DiskSimulator::ReadOutcome::kOk:
        break;
      case DiskSimulator::ReadOutcome::kTransientError:
        continue;
      case DiskSimulator::ReadOutcome::kCorruption: {
        // The transfer delivered a damaged image. Run it through the
        // codec — the checksum is what actually detects the damage.
        std::vector<std::byte> damaged = pages_[index];
        damaged[index % damaged.size()] ^= std::byte{0x40};
        auto verdict = VerifyAndUnframePage(damaged);
        assert(!verdict.ok() && "checksum must catch a flipped bit");
        obs::Cat().checksum_failures->Add();
        disk_->QuarantinePage(global);
        return verdict.ok()
                   ? Status::DataLoss("corrupt transfer")  // unreachable
                   : verdict.status();
      }
    }
    // Successful transfer: verify the stored image (detects at-rest
    // damage such as bit rot).
    auto payload = VerifyStored(index);
    if (!payload.ok()) {
      // The cached copy is garbage too; quarantine so later readers
      // are refused cheaply.
      disk_->QuarantinePage(global);
    }
    return payload;
  }
  return Status::Unavailable(
      "page " + std::to_string(global) + " unreadable after " +
      std::to_string(DiskSimulator::kMaxReadAttempts) + " attempts");
}

Result<std::span<const std::byte>> PagedFile::PeekPage(
    size_t index) const {
  if (index >= pages_.size()) {
    return Status::OutOfRange("page index " + std::to_string(index) +
                              " >= file size " +
                              std::to_string(pages_.size()));
  }
  return VerifyStored(index);
}

void PagedFile::CorruptStoredByte(size_t index, size_t offset,
                                  uint8_t mask) {
  assert(index < pages_.size());
  assert(offset < page_size_);
  pages_[index][offset] ^= std::byte{mask};
  verified_[index] = false;
}

}  // namespace knmatch
