#include "knmatch/storage/ingest.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <map>
#include <string>
#include <utility>

#include "knmatch/core/sorted_columns.h"
#include "knmatch/obs/catalog.h"

namespace knmatch {

LiveColumnIndex::LiveColumnIndex(const Dataset& base, DiskSimulator* disk)
    : LiveColumnIndex(base, disk, Config()) {}

LiveColumnIndex::LiveColumnIndex(const Dataset& base, DiskSimulator* disk,
                                 Config config)
    : disk_(disk),
      config_(config),
      wal_(WriteAheadLog::Config{
          /*group_commit_window=*/config.group_commit_window}),
      file_(disk) {
  dims_ = base.dims();
  base_size_ = base.size();
  base_flat_.resize(base_size_ * dims_);
  for (size_t pid = 0; pid < base_size_; ++pid) {
    const auto point = base.point(static_cast<PointId>(pid));
    std::copy(point.begin(), point.end(),
              base_flat_.begin() + static_cast<ptrdiff_t>(pid * dims_));
  }

  // Bulk load one tree per dimension from the shared column sort,
  // exactly like BTreeColumns.
  const SortedColumns sorted(base);
  std::vector<ColumnEntry> column(base_size_);
  trees_.reserve(dims_);
  for (size_t dim = 0; dim < dims_; ++dim) {
    for (size_t i = 0; i < base_size_; ++i) column[i] = sorted.entry(dim, i);
    auto tree = std::make_unique<BPlusTree>(disk_);
    tree->EnableReclamation();
    tree->BulkLoad(column);
    tree->EnableDirtyTracking();
    trees_.push_back(std::move(tree));
  }
  live_count_ = base_size_;
  pid_bound_ = base_size_;

  // Initial full checkpoint: every node + meta page durable before the
  // first transaction, so recovery always finds a complete base image.
  for (size_t dim = 0; dim < dims_; ++dim) {
    for (uint32_t slot = 0;
         slot < static_cast<uint32_t>(trees_[dim]->num_nodes()); ++slot) {
      dirty_since_checkpoint_.insert(NodeKey(dim, slot));
    }
    dirty_since_checkpoint_.insert(MetaKey(dim));
  }
  Status s = CheckpointInternal(/*during_recovery=*/true);
  assert(s.ok() && "initial checkpoint cannot fail without an injector");
  (void)s;
  PublishSnapshot();
}

size_t LiveColumnIndex::live_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_ == nullptr ? 0 : snapshot_->size;
}

uint64_t LiveColumnIndex::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

std::shared_ptr<const LiveColumnIndex::ColumnSnapshot>
LiveColumnIndex::PinSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_;
}

size_t LiveColumnIndex::free_slots() const {
  size_t total = 0;
  for (const auto& tree : trees_) total += tree->free_slots();
  return total;
}

Result<std::vector<Value>> LiveColumnIndex::CoordsOf(PointId pid) const {
  auto it = inserted_.find(pid);
  if (it != inserted_.end()) return it->second;
  if (pid < base_size_ && !erased_.contains(pid)) {
    const auto at = base_flat_.begin() + static_cast<ptrdiff_t>(pid * dims_);
    return std::vector<Value>(at, at + static_cast<ptrdiff_t>(dims_));
  }
  return Status::NotFound("point " + std::to_string(pid) + " is not live");
}

std::vector<PointId> LiveColumnIndex::LivePids() const {
  std::vector<PointId> pids;
  pids.reserve(live_count_);
  for (size_t pid = 0; pid < base_size_; ++pid) {
    const PointId p = static_cast<PointId>(pid);
    if (!erased_.contains(p) && !inserted_.contains(p)) pids.push_back(p);
  }
  for (const auto& [pid, coords] : inserted_) pids.push_back(pid);
  std::sort(pids.begin(), pids.end());
  return pids;
}

std::vector<ColumnEntry> LiveColumnIndex::CommittedColumn(
    size_t dim) const {
  // Committed = applied minus pending; rebuild from base + committed
  // ops so the column is exactly what a quiesced bulk load would hold.
  std::unordered_map<PointId, Value> live;
  live.reserve(base_size_ + ops_tail_.size());
  for (size_t pid = 0; pid < base_size_; ++pid) {
    live.emplace(static_cast<PointId>(pid), base_flat_[pid * dims_ + dim]);
  }
  for (const RowOp& op : ops_tail_) {
    if (op.insert) {
      live[op.pid] = op.coords[dim];
    } else {
      live.erase(op.pid);
    }
  }
  std::vector<ColumnEntry> column;
  column.reserve(live.size());
  for (const auto& [pid, value] : live) {
    column.push_back(ColumnEntry{value, pid});
  }
  std::sort(column.begin(), column.end(),
            [](const ColumnEntry& a, const ColumnEntry& b) {
              if (a.value != b.value) return a.value < b.value;
              return a.pid < b.pid;
            });
  return column;
}

bool LiveColumnIndex::ShouldCrash(FaultInjector::CrashPoint point) {
  return injector_ != nullptr && injector_->ShouldCrash(point);
}

Status LiveColumnIndex::Crashed(const char* where) {
  return Status::FailedPrecondition(
      std::string("live index crashed; Recover() before ") + where);
}

Status LiveColumnIndex::Insert(PointId pid, std::span<const Value> coords) {
  if (crashed_) return Crashed("Insert");
  if (coords.size() != dims_) {
    return Status::InvalidArgument("coordinate count mismatch");
  }
  const bool live = inserted_.contains(pid) ||
                    (pid < base_size_ && !erased_.contains(pid));
  if (live) {
    return Status::InvalidArgument("point " + std::to_string(pid) +
                                   " is already live");
  }
  for (auto& tree : trees_) tree->BeginPendingNotifications();
  for (size_t dim = 0; dim < dims_; ++dim) {
    Status s = trees_[dim]->Insert(ColumnEntry{coords[dim], pid});
    if (!s.ok()) {
      // Failstop: earlier dimensions are already mutated in memory and
      // nothing reached the WAL — exactly a crash before the commit.
      crashed_ = true;
      return s;
    }
  }
  inserted_[pid] = std::vector<Value>(coords.begin(), coords.end());
  erased_.erase(pid);
  ++live_count_;
  pid_bound_ = std::max<size_t>(pid_bound_, static_cast<size_t>(pid) + 1);
  RowOp op;
  op.insert = true;
  op.pid = pid;
  op.coords.assign(coords.begin(), coords.end());
  return LogAndMaybeSync(std::move(op));
}

Result<bool> LiveColumnIndex::Erase(PointId pid) {
  if (crashed_) return Crashed("Erase");
  auto coords = CoordsOf(pid);
  if (!coords.ok()) return false;
  for (auto& tree : trees_) tree->BeginPendingNotifications();
  for (size_t dim = 0; dim < dims_; ++dim) {
    auto found =
        trees_[dim]->Erase(ColumnEntry{coords.value()[dim], pid});
    if (!found.ok() || !found.value()) {
      // A live point must be present in every tree; anything else is
      // an unreadable page or a cross-dimension inconsistency.
      crashed_ = true;
      return found.ok() ? Status::Internal(
                              "live point missing from dimension tree")
                        : found.status();
    }
  }
  inserted_.erase(pid);
  if (pid < base_size_) erased_.insert(pid);
  --live_count_;
  RowOp op;
  op.insert = false;
  op.pid = pid;
  op.coords = std::move(coords.value());
  Status s = LogAndMaybeSync(std::move(op));
  if (!s.ok()) return s;
  return true;
}

Status LiveColumnIndex::LogAndMaybeSync(RowOp op) {
  const uint64_t txn = wal_.Begin();
  op.seq = next_op_seq_++;
  for (size_t dim = 0; dim < dims_; ++dim) {
    for (const uint32_t slot : trees_[dim]->TakeDirty()) {
      const uint64_t key = NodeKey(dim, slot);
      dirty_since_checkpoint_.insert(key);
      wal_.AppendPageImage(txn, key, trees_[dim]->SerializeNode(slot));
    }
    // The meta page (size, root, free list) changes on every op.
    const uint64_t meta_key = MetaKey(dim);
    dirty_since_checkpoint_.insert(meta_key);
    wal_.AppendPageImage(txn, meta_key, trees_[dim]->SerializeMeta());
  }
  wal_.AppendRow(op.insert ? WriteAheadLog::RecordType::kRowInsert
                           : WriteAheadLog::RecordType::kRowErase,
                 txn, SerializeOp(op));
  if (ShouldCrash(FaultInjector::CrashPoint::kAfterWalAppend)) {
    wal_.LoseVolatileTail();
    crashed_ = true;
    return Status::Unavailable("simulated crash after WAL append");
  }
  const WriteAheadLog::CommitTicket ticket = wal_.AppendCommit(txn);
  if (ShouldCrash(FaultInjector::CrashPoint::kAfterCommitAppend)) {
    wal_.LoseVolatileTail();
    crashed_ = true;
    return Status::Unavailable(
        "simulated crash after commit append, before fsync");
  }
  pending_.push_back(std::move(op));
  obs::Cat().ingest_txns->Add();
  if (ticket.group_full) return SyncGroup();
  return Status::OK();
}

Status LiveColumnIndex::Flush() {
  if (crashed_) return Crashed("Flush");
  return SyncGroup();
}

Status LiveColumnIndex::SyncGroup() {
  if (pending_.empty() && wal_.pending_commits() == 0) return Status::OK();
  if (ShouldCrash(FaultInjector::CrashPoint::kMidFsync)) {
    const WriteAheadLog::Stats st = wal_.stats();
    const size_t tail = st.log_bytes - st.durable_bytes;
    // All but the final CRC word landed: the last record is torn and
    // its transaction must be discarded by recovery.
    wal_.SyncPartial(tail > sizeof(uint32_t) ? tail - sizeof(uint32_t)
                                             : tail / 2);
    wal_.LoseVolatileTail();
    crashed_ = true;
    return Status::Unavailable("simulated crash mid-fsync");
  }
  wal_.Sync();
  if (ShouldCrash(FaultInjector::CrashPoint::kAfterFsync)) {
    // Durable but unpublished: recovery must land on the post state.
    crashed_ = true;
    return Status::Unavailable("simulated crash after fsync");
  }
  Publish();
  return Status::OK();
}

void LiveColumnIndex::Publish() {
  for (auto& tree : trees_) tree->CommitPendingNotifications();
  std::vector<RowOp> batch = std::move(pending_);
  pending_.clear();
  for (RowOp& op : batch) ops_tail_.push_back(op);
  PublishSnapshot();
  if (commit_callback_ && !batch.empty()) commit_callback_(batch);
}

void LiveColumnIndex::PublishSnapshot() {
  auto snap = std::make_shared<ColumnSnapshot>();
  snap->trees.reserve(dims_);
  for (auto& tree : trees_) snap->trees.push_back(tree->CreateSnapshot());
  snap->size = live_count_;
  snap->pid_bound = pid_bound_;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snap->epoch = ++epoch_;
    snapshot_ = std::move(snap);
    obs::Cat().snapshot_epoch->Set(static_cast<int64_t>(epoch_));
  }
  obs::Cat().ingest_free_slots->Set(static_cast<int64_t>(free_slots()));
}

Status LiveColumnIndex::FlushPage(uint64_t key,
                                  std::span<const std::byte> image,
                                  bool during_recovery) {
  std::vector<std::byte> payload;
  payload.reserve(sizeof(uint64_t) + image.size());
  PutScalar<uint64_t>(&payload, key);
  payload.insert(payload.end(), image.begin(), image.end());
  assert(payload.size() <= file_.payload_capacity() &&
         "page image outgrew the checkpoint file's page size");

  const auto it = page_index_.find(key);
  if (!during_recovery &&
      ShouldCrash(FaultInjector::CrashPoint::kMidPageFlush)) {
    // The write tears: the stored frame gets only a prefix of the new
    // image and fails its CRC. Recovery must restore this page from
    // the WAL (whose records for it are still untruncated).
    const size_t index =
        it == page_index_.end() ? file_.num_pages() : it->second;
    file_.WritePageTorn(index, payload,
                        sizeof(uint32_t) + payload.size() / 2);
    if (it == page_index_.end()) page_index_[key] = index;
    crashed_ = true;
    return Status::Unavailable("simulated crash mid page flush");
  }
  if (it == page_index_.end()) {
    page_index_[key] = file_.AppendPage(payload);
  } else {
    file_.WritePage(it->second, payload);
  }
  obs::Cat().ingest_pages_flushed->Add();
  if (!during_recovery &&
      ShouldCrash(FaultInjector::CrashPoint::kAfterPageFlush)) {
    crashed_ = true;
    return Status::Unavailable(
        "simulated crash after page flush, before checkpoint record");
  }
  return Status::OK();
}

Status LiveColumnIndex::Checkpoint() {
  if (crashed_) return Crashed("Checkpoint");
  return CheckpointInternal(/*during_recovery=*/false);
}

Status LiveColumnIndex::CheckpointInternal(bool during_recovery) {
  if (!during_recovery) {
    Status s = SyncGroup();  // the flushed state must be committed state
    if (!s.ok()) return s;
  }

  // Dirty tree pages, in deterministic key order.
  std::vector<uint64_t> keys(dirty_since_checkpoint_.begin(),
                             dirty_since_checkpoint_.end());
  std::sort(keys.begin(), keys.end());
  for (const uint64_t key : keys) {
    const size_t dim = key >> 32;
    const uint64_t slot = key & 0xFFFFFFFFull;
    assert(dim < dims_);
    std::vector<std::byte> image;
    if (slot == kMetaSlot) {
      image = trees_[dim]->SerializeMeta();
    } else {
      assert(slot < trees_[dim]->num_nodes());
      image = trees_[dim]->SerializeNode(static_cast<uint32_t>(slot));
    }
    Status s = FlushPage(key, image, during_recovery);
    if (!s.ok()) return s;
  }

  // Committed ops since the last checkpoint, packed into append-only
  // row pages (never rewritten, so older checkpoints' rows cannot be
  // torn by this flush).
  const size_t cap = file_.payload_capacity() - sizeof(uint64_t);
  size_t at = ops_flushed_;
  while (at < ops_tail_.size()) {
    std::vector<std::byte> body;
    PutScalar<uint32_t>(&body, 0);  // count, patched below
    uint32_t count = 0;
    while (at < ops_tail_.size()) {
      const std::vector<std::byte> op_bytes = SerializeOp(ops_tail_[at]);
      if (body.size() + op_bytes.size() > cap) break;
      body.insert(body.end(), op_bytes.begin(), op_bytes.end());
      ++count;
      ++at;
    }
    if (count == 0) {
      return Status::Internal("row op larger than a checkpoint page");
    }
    std::memcpy(body.data(), &count, sizeof(count));
    Status s =
        FlushPage(kRowSpace | next_row_page_++, body, during_recovery);
    if (!s.ok()) return s;
  }

  // The checkpoint record seals the flush; only once it is durable may
  // the log be truncated.
  wal_.AppendCheckpoint();
  if (!during_recovery &&
      ShouldCrash(FaultInjector::CrashPoint::kMidCheckpoint)) {
    const WriteAheadLog::Stats st = wal_.stats();
    const size_t tail = st.log_bytes - st.durable_bytes;
    wal_.SyncPartial(tail > sizeof(uint32_t) ? tail - sizeof(uint32_t)
                                             : tail / 2);
    wal_.LoseVolatileTail();
    crashed_ = true;
    return Status::Unavailable("simulated crash mid checkpoint fsync");
  }
  wal_.Sync();
  (void)wal_.TruncateToLastCheckpoint();
  dirty_since_checkpoint_.clear();
  ops_flushed_ = ops_tail_.size();
  return Status::OK();
}

Status LiveColumnIndex::Recover() {
  if (!crashed_) {
    // Healthy recovery drill: publish what is pending so the in-memory
    // and durable states agree, then prove the durable state rebuilds.
    (void)SyncGroup();  // may itself hit a scheduled crash — proceed
  }
  obs::Cat().recoveries->Add();

  // 1. Surviving checkpoint-file pages. A torn page (crash mid-flush)
  //    is skipped: the WAL still holds its redo image.
  std::unordered_map<uint64_t, std::vector<std::byte>> images;
  std::map<uint64_t, std::vector<std::byte>> row_pages;  // seq -> body
  for (size_t idx = 0; idx < file_.num_pages(); ++idx) {
    auto page = file_.PeekPage(idx);
    if (!page.ok()) continue;
    const std::span<const std::byte> payload = page.value();
    if (payload.size() < sizeof(uint64_t)) continue;
    const uint64_t key = GetScalar<uint64_t>(payload, 0);
    const auto body = payload.subspan(sizeof(uint64_t));
    if (key & kRowSpace) {
      row_pages[key & ~kRowSpace] =
          std::vector<std::byte>(body.begin(), body.end());
    } else {
      images[key] = std::vector<std::byte>(body.begin(), body.end());
    }
  }

  // 2. WAL redo: committed transactions only, in LSN order — a later
  //    image of the same page simply overwrites (idempotent replay).
  const WriteAheadLog::RecoveryResult rr = wal_.Recover();
  std::vector<RowOp> wal_ops;
  uint64_t replayed = 0;
  for (const WriteAheadLog::Record& rec : rr.committed) {
    if (rec.type == WriteAheadLog::RecordType::kPageImage) {
      images[rec.page] = rec.payload;
      ++replayed;
    } else {
      RowOp op;
      size_t off = 0;
      Status s = ParseOp(rec.payload, &off, &op);
      if (!s.ok()) return s;
      wal_ops.push_back(std::move(op));
    }
  }
  obs::Cat().recovery_replayed_pages->Add(replayed);
  obs::Cat().recovery_discarded_txns->Add(rr.discarded_txns);

  // 3. Rebuild every dimension tree in place (listeners survive).
  for (size_t dim = 0; dim < dims_; ++dim) {
    const auto meta_it = images.find(MetaKey(dim));
    if (meta_it == images.end()) {
      return Status::DataLoss("no durable meta page for dimension " +
                              std::to_string(dim));
    }
    const std::span<const std::byte> meta(meta_it->second);
    if (meta.size() < 28) {
      return Status::DataLoss("meta image too small");
    }
    const uint32_t node_count = GetScalar<uint32_t>(meta, 24);
    std::vector<std::optional<std::vector<std::byte>>> slots(node_count);
    for (uint32_t slot = 0; slot < node_count; ++slot) {
      const auto it = images.find(NodeKey(dim, slot));
      if (it != images.end()) slots[slot] = it->second;
    }
    trees_[dim]->DropPendingNotifications();
    Status s = trees_[dim]->RestoreFromImages(meta, slots);
    if (!s.ok()) return s;
  }

  // 4. Committed row ops, merged by op sequence number. A crash after
  //    the row-page flush but before the log truncation leaves the same
  //    ops durable in BOTH the row pages and the WAL; keying by seq
  //    applies each exactly once, in original order.
  std::map<uint64_t, RowOp> ops_by_seq;
  for (const auto& [seq, body] : row_pages) {
    const std::span<const std::byte> in(body);
    if (in.size() < sizeof(uint32_t)) {
      return Status::DataLoss("row page too small");
    }
    const uint32_t count = GetScalar<uint32_t>(in, 0);
    size_t off = sizeof(uint32_t);
    for (uint32_t i = 0; i < count; ++i) {
      RowOp op;
      Status s = ParseOp(in, &off, &op);
      if (!s.ok()) return s;
      const uint64_t op_seq = op.seq;
      ops_by_seq.insert_or_assign(op_seq, std::move(op));
    }
  }
  for (RowOp& op : wal_ops) {
    const uint64_t op_seq = op.seq;
    ops_by_seq.insert_or_assign(op_seq, std::move(op));
  }
  std::vector<RowOp> ops;
  ops.reserve(ops_by_seq.size());
  next_op_seq_ =
      ops_by_seq.empty() ? 1 : ops_by_seq.rbegin()->first + 1;
  for (auto& [seq, op] : ops_by_seq) ops.push_back(std::move(op));

  // 5. Adopt: overlay and counters from the committed ops.
  inserted_.clear();
  erased_.clear();
  live_count_ = base_size_;
  pid_bound_ = base_size_;
  for (const RowOp& op : ops) {
    if (op.insert) {
      inserted_[op.pid] = op.coords;
      erased_.erase(op.pid);
      ++live_count_;
      pid_bound_ =
          std::max<size_t>(pid_bound_, static_cast<size_t>(op.pid) + 1);
    } else {
      inserted_.erase(op.pid);
      if (op.pid < base_size_) erased_.insert(op.pid);
      --live_count_;
    }
  }
  ops_tail_ = std::move(ops);
  pending_.clear();

  // 6. Fresh durable era: a full checkpoint into a new file and a
  //    reset log, so the torn remains of the crashed era are retired.
  file_ = PagedFile(disk_);
  page_index_.clear();
  next_row_page_ = 0;
  wal_.Reset();
  dirty_since_checkpoint_.clear();
  for (size_t dim = 0; dim < dims_; ++dim) {
    for (uint32_t slot = 0;
         slot < static_cast<uint32_t>(trees_[dim]->num_nodes()); ++slot) {
      dirty_since_checkpoint_.insert(NodeKey(dim, slot));
    }
    dirty_since_checkpoint_.insert(MetaKey(dim));
  }
  ops_flushed_ = 0;
  Status s = CheckpointInternal(/*during_recovery=*/true);
  if (!s.ok()) return s;
  crashed_ = false;
  PublishSnapshot();
  return Status::OK();
}

std::vector<std::byte> LiveColumnIndex::SerializeOp(const RowOp& op) {
  std::vector<std::byte> out;
  out.reserve(sizeof(uint64_t) + 1 + 2 * sizeof(uint32_t) +
              op.coords.size() * sizeof(Value));
  PutScalar<uint64_t>(&out, op.seq);
  PutScalar<uint8_t>(&out, op.insert ? 1 : 0);
  PutScalar<uint32_t>(&out, op.pid);
  PutScalar<uint32_t>(&out, static_cast<uint32_t>(op.coords.size()));
  for (const Value v : op.coords) PutScalar<Value>(&out, v);
  return out;
}

Status LiveColumnIndex::ParseOp(std::span<const std::byte> in,
                                size_t* offset, RowOp* out) {
  constexpr size_t kHeader = sizeof(uint64_t) + 1 + 2 * sizeof(uint32_t);
  if (*offset + kHeader > in.size()) {
    return Status::DataLoss("row op truncated");
  }
  out->seq = GetScalar<uint64_t>(in, *offset);
  const uint8_t kind = GetScalar<uint8_t>(in, *offset + 8);
  if (kind > 1) return Status::DataLoss("unknown row op kind");
  out->insert = kind == 1;
  out->pid = GetScalar<uint32_t>(in, *offset + 9);
  const uint32_t count = GetScalar<uint32_t>(in, *offset + 13);
  if (*offset + kHeader + count * sizeof(Value) > in.size()) {
    return Status::DataLoss("row op coordinates truncated");
  }
  out->coords.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    out->coords[i] =
        GetScalar<Value>(in, *offset + kHeader + i * sizeof(Value));
  }
  *offset += kHeader + count * sizeof(Value);
  return Status::OK();
}

}  // namespace knmatch
