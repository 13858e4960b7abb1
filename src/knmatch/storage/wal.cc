#include "knmatch/storage/wal.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <unordered_set>

#include "knmatch/obs/catalog.h"
#include "knmatch/storage/page_codec.h"
#include "knmatch/storage/paged_file.h"

namespace knmatch {

namespace {

/// Fixed body prefix: type (u8) + lsn + txn + page (u64 each).
constexpr size_t kBodyHeader = 1 + 3 * sizeof(uint64_t);
/// Frame overhead around the body: length header + CRC trailer.
constexpr size_t kFrameOverhead = 2 * sizeof(uint32_t);

bool KnownType(uint8_t t) {
  return t >= static_cast<uint8_t>(WriteAheadLog::RecordType::kBegin) &&
         t <= static_cast<uint8_t>(WriteAheadLog::RecordType::kCheckpoint);
}

}  // namespace

uint64_t WriteAheadLog::Append(RecordType type, uint64_t txn, uint64_t page,
                               std::span<const std::byte> payload) {
  assert(payload.size() <= config_.max_record_payload &&
         "WAL record payload exceeds the configured bound");
  const uint64_t lsn = next_lsn_++;

  std::vector<std::byte> body;
  body.reserve(kBodyHeader + payload.size());
  PutScalar<uint8_t>(&body, static_cast<uint8_t>(type));
  PutScalar<uint64_t>(&body, lsn);
  PutScalar<uint64_t>(&body, txn);
  PutScalar<uint64_t>(&body, page);
  body.insert(body.end(), payload.begin(), payload.end());

  const uint32_t crc = Crc32(body);
  const size_t frame_bytes = body.size() + kFrameOverhead;
  PutScalar<uint32_t>(&log_, static_cast<uint32_t>(body.size()));
  log_.insert(log_.end(), body.begin(), body.end());
  PutScalar<uint32_t>(&log_, crc);

  ++appends_;
  bytes_appended_ += frame_bytes;
  obs::Cat().wal_appends->Add();
  obs::Cat().wal_bytes->Add(frame_bytes);
  return lsn;
}

uint64_t WriteAheadLog::Begin() {
  const uint64_t txn = next_txn_++;
  Append(RecordType::kBegin, txn, 0, {});
  return txn;
}

uint64_t WriteAheadLog::AppendPageImage(uint64_t txn, uint64_t page,
                                        std::span<const std::byte> image) {
  return Append(RecordType::kPageImage, txn, page, image);
}

uint64_t WriteAheadLog::AppendRow(RecordType type, uint64_t txn,
                                  std::span<const std::byte> row) {
  assert(type == RecordType::kRowInsert || type == RecordType::kRowErase);
  return Append(type, txn, 0, row);
}

WriteAheadLog::CommitTicket WriteAheadLog::AppendCommit(uint64_t txn) {
  CommitTicket ticket;
  ticket.lsn = Append(RecordType::kCommit, txn, 0, {});
  ++commits_;
  ++pending_commits_;
  obs::Cat().wal_commits->Add();
  ticket.group_full = pending_commits_ >= config_.group_commit_window;
  return ticket;
}

uint64_t WriteAheadLog::AppendCheckpoint() {
  const uint64_t lsn = Append(RecordType::kCheckpoint, 0, 0, {});
  ++checkpoints_;
  obs::Cat().wal_checkpoints->Add();
  return lsn;
}

void WriteAheadLog::Sync() {
  durable_size_ = log_.size();
  pending_commits_ = 0;
  ++fsyncs_;
  obs::Cat().wal_fsyncs->Add();
}

void WriteAheadLog::SyncPartial(size_t bytes) {
  durable_size_ = std::min(log_.size(), durable_size_ + bytes);
  // Deliberately no fsync count, no pending-commit reset: the sync
  // never completed, so nothing was acknowledged.
}

void WriteAheadLog::LoseVolatileTail() {
  log_.resize(durable_size_);
  pending_commits_ = 0;
}

Status WriteAheadLog::TruncateToLastCheckpoint() {
  std::vector<Record> records;
  ScanImage(DurableImage(), &records);
  // Walk the frames again to find the byte offset where the last
  // checkpoint record starts.
  size_t off = 0;
  size_t last_checkpoint_off = static_cast<size_t>(-1);
  for (const Record& rec : records) {
    const size_t frame_bytes =
        kFrameOverhead + kBodyHeader + rec.payload.size();
    if (rec.type == RecordType::kCheckpoint) last_checkpoint_off = off;
    off += frame_bytes;
  }
  if (last_checkpoint_off == static_cast<size_t>(-1)) {
    return Status::NotFound("no durable checkpoint record to truncate to");
  }
  if (last_checkpoint_off == 0) return Status::OK();  // already truncated
  log_.erase(log_.begin(),
             log_.begin() + static_cast<ptrdiff_t>(last_checkpoint_off));
  durable_size_ -= last_checkpoint_off;
  ++truncations_;
  return Status::OK();
}

void WriteAheadLog::Reset() {
  log_.clear();
  durable_size_ = 0;
  pending_commits_ = 0;
  next_lsn_ = 1;
  next_txn_ = 1;
}

bool WriteAheadLog::ScanImage(std::span<const std::byte> image,
                              std::vector<Record>* out) const {
  size_t off = 0;
  while (off + sizeof(uint32_t) <= image.size()) {
    const uint32_t body_len = GetScalar<uint32_t>(image, off);
    if (body_len < kBodyHeader ||
        body_len > kBodyHeader + config_.max_record_payload) {
      return true;  // implausible length header: torn or corrupt
    }
    const size_t frame_end = off + kFrameOverhead + body_len;
    if (frame_end > image.size()) return true;  // partial frame at tail
    const auto body = image.subspan(off + sizeof(uint32_t), body_len);
    const uint32_t stored_crc =
        GetScalar<uint32_t>(image, off + sizeof(uint32_t) + body_len);
    if (stored_crc != Crc32(body)) return true;  // damaged frame

    Record rec;
    const uint8_t type = GetScalar<uint8_t>(body, 0);
    if (!KnownType(type)) return true;
    rec.type = static_cast<RecordType>(type);
    rec.lsn = GetScalar<uint64_t>(body, 1);
    rec.txn = GetScalar<uint64_t>(body, 1 + sizeof(uint64_t));
    rec.page = GetScalar<uint64_t>(body, 1 + 2 * sizeof(uint64_t));
    rec.payload.assign(body.begin() + kBodyHeader, body.end());
    out->push_back(std::move(rec));
    off = frame_end;
  }
  // A clean image ends exactly at a frame boundary; leftover bytes
  // (fewer than a length header) are a torn tail too.
  return off != image.size();
}

WriteAheadLog::RecoveryResult WriteAheadLog::Recover() const {
  RecoveryResult result;
  std::vector<Record> records;
  result.torn_tail = ScanImage(DurableImage(), &records);

  std::unordered_set<uint64_t> committed;
  std::unordered_set<uint64_t> begun;
  for (const Record& rec : records) {
    result.max_lsn = std::max(result.max_lsn, rec.lsn);
    if (rec.type == RecordType::kBegin) begun.insert(rec.txn);
    if (rec.type == RecordType::kCommit) committed.insert(rec.txn);
  }
  result.committed_txns = committed.size();
  for (const uint64_t txn : begun) {
    if (!committed.contains(txn)) ++result.discarded_txns;
  }

  for (Record& rec : records) {
    const bool redo = rec.type == RecordType::kPageImage ||
                      rec.type == RecordType::kRowInsert ||
                      rec.type == RecordType::kRowErase;
    if (redo && committed.contains(rec.txn)) {
      result.committed.push_back(std::move(rec));
    }
  }
  return result;
}

WriteAheadLog::Stats WriteAheadLog::stats() const {
  Stats s;
  s.appends = appends_;
  s.commits = commits_;
  s.fsyncs = fsyncs_;
  s.bytes_appended = bytes_appended_;
  s.checkpoints = checkpoints_;
  s.truncations = truncations_;
  s.log_bytes = log_.size();
  s.durable_bytes = durable_size_;
  s.pending_commits = pending_commits_;
  s.next_lsn = next_lsn_;
  return s;
}

}  // namespace knmatch
