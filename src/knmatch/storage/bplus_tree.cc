#include "knmatch/storage/bplus_tree.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>
#include <utility>

#include "knmatch/obs/catalog.h"

namespace knmatch {

BPlusTree::BPlusTree(DiskSimulator* disk) : disk_(disk) {}

BPlusTree::Node* BPlusTree::Mutable(uint32_t id) {
  if (!owned_[id]) {
    // A snapshot may still reference this node: copy on write.
    cur_.nodes[id] = std::make_shared<Node>(*cur_.nodes[id]);
    owned_[id] = true;
  }
  MarkDirty(id);
  return const_cast<Node*>(cur_.nodes[id].get());
}

uint32_t BPlusTree::NewNode(bool leaf) {
  uint32_t id;
  if (auto slot = fsm_.Acquire()) {
    // Reuse a reclaimed slot (and its modelled disk page).
    id = static_cast<uint32_t>(*slot);
    cur_.nodes[id] = std::make_shared<Node>();
    owned_[id] = true;
  } else {
    cur_.nodes.push_back(std::make_shared<Node>());
    cur_.page_of.push_back(disk_->AllocatePages(1));
    owned_.push_back(true);
    id = static_cast<uint32_t>(cur_.nodes.size() - 1);
  }
  const_cast<Node*>(cur_.nodes[id].get())->leaf = leaf;
  MarkDirty(id);
  return id;
}

void BPlusTree::MarkDirty(uint32_t id) {
  if (!track_dirty_) return;
  if (dirty_mark_.size() < cur_.nodes.size()) {
    dirty_mark_.resize(cur_.nodes.size(), false);
  }
  if (!dirty_mark_[id]) {
    dirty_mark_[id] = true;
    dirty_.push_back(id);
  }
}

void BPlusTree::EnableDirtyTracking() {
  track_dirty_ = true;
  dirty_mark_.assign(cur_.nodes.size(), false);
  dirty_.clear();
}

std::vector<uint32_t> BPlusTree::TakeDirty() {
  std::sort(dirty_.begin(), dirty_.end());
  std::vector<uint32_t> out = std::move(dirty_);
  dirty_.clear();
  for (const uint32_t id : out) dirty_mark_[id] = false;
  return out;
}

void BPlusTree::BeginPendingNotifications() {
  buffer_notifications_ = true;
}

void BPlusTree::CommitPendingNotifications() {
  buffer_notifications_ = false;
  std::vector<std::pair<bool, ColumnEntry>> pending =
      std::move(pending_notifications_);
  pending_notifications_.clear();
  if (listener_ == nullptr) return;
  for (const auto& [is_insert, entry] : pending) {
    if (is_insert) {
      listener_->OnInsert(entry);
    } else {
      listener_->OnErase(entry);
    }
  }
}

void BPlusTree::DropPendingNotifications() {
  buffer_notifications_ = false;
  pending_notifications_.clear();
}

void BPlusTree::NotifyInsert(const ColumnEntry& entry) {
  if (buffer_notifications_) {
    if (listener_ != nullptr) {
      pending_notifications_.emplace_back(true, entry);
    }
    return;
  }
  if (listener_ != nullptr) listener_->OnInsert(entry);
}

void BPlusTree::NotifyErase(const ColumnEntry& entry) {
  if (buffer_notifications_) {
    if (listener_ != nullptr) {
      pending_notifications_.emplace_back(false, entry);
    }
    return;
  }
  if (listener_ != nullptr) listener_->OnErase(entry);
}

BPlusTree::Snapshot BPlusTree::CreateSnapshot() {
  auto frozen = std::make_shared<const Version>(cur_);
  // Everything the frozen version references must now be copied before
  // mutation.
  owned_.assign(cur_.nodes.size(), false);
  return Snapshot(std::move(frozen), disk_);
}

Status BPlusTree::ChargeVisit(const Version& v, DiskSimulator* disk,
                              size_t stream, uint32_t node) {
  // Nodes live in memory; the page read is modelled. ChargedRead
  // applies the standard fault policy: bounded retry of transient
  // errors, quarantine on corruption (the node's modelled page image
  // is what got damaged — indistinguishable, for the caller, from a
  // checksum failure on a real page).
  obs::Cat().btree_node_visits->Add();
  return disk->ChargedRead(stream, v.page_of[node]);
}

void BPlusTree::BulkLoad(std::span<const ColumnEntry> sorted_entries) {
  cur_ = Version{};
  owned_.clear();
  fsm_.Clear();
  dirty_.clear();
  dirty_mark_.clear();
  cur_.size = sorted_entries.size();
  if (sorted_entries.empty()) return;
  assert(std::is_sorted(sorted_entries.begin(), sorted_entries.end(),
                        EntryLess));

  // Leaf level.
  std::vector<uint32_t> level;
  std::vector<ColumnEntry> level_min;  // smallest key per node
  std::vector<uint64_t> level_count;   // entries per subtree
  for (size_t at = 0; at < sorted_entries.size(); at += kLeafCapacity) {
    const size_t count =
        std::min(kLeafCapacity, sorted_entries.size() - at);
    const uint32_t id = NewNode(/*leaf=*/true);
    Mutable(id)->entries.assign(sorted_entries.begin() + at,
                                sorted_entries.begin() + at + count);
    if (!level.empty()) {
      Mutable(level.back())->next = id;
      Mutable(id)->prev = level.back();
    }
    level.push_back(id);
    level_min.push_back(sorted_entries[at]);
    level_count.push_back(count);
  }
  cur_.first_leaf = level.front();
  cur_.height = 1;

  // Internal levels, bottom-up.
  while (level.size() > 1) {
    std::vector<uint32_t> parent_level;
    std::vector<ColumnEntry> parent_min;
    std::vector<uint64_t> parent_count;
    for (size_t at = 0; at < level.size(); at += kInternalCapacity) {
      const size_t fanout =
          std::min(kInternalCapacity, level.size() - at);
      const uint32_t id = NewNode(/*leaf=*/false);
      Node* node = Mutable(id);
      uint64_t total = 0;
      for (size_t i = 0; i < fanout; ++i) {
        node->children.push_back(level[at + i]);
        node->counts.push_back(level_count[at + i]);
        total += level_count[at + i];
        if (i > 0) node->keys.push_back(level_min[at + i]);
      }
      parent_level.push_back(id);
      parent_min.push_back(level_min[at]);
      parent_count.push_back(total);
    }
    level = std::move(parent_level);
    level_min = std::move(parent_min);
    level_count = std::move(parent_count);
    ++cur_.height;
  }
  cur_.root = level.front();
}

Result<uint32_t> BPlusTree::DescendToLeaf(const Version& v,
                                          DiskSimulator* disk,
                                          size_t stream,
                                          const ColumnEntry& key,
                                          std::vector<uint32_t>* path) {
  uint32_t id = v.root;
  for (;;) {
    Status s = ChargeVisit(v, disk, stream, id);
    if (!s.ok()) return s;
    if (path != nullptr) path->push_back(id);
    const Node& n = *v.nodes[id];
    if (n.leaf) return id;
    // Child index = number of separators <= key.
    const size_t idx = static_cast<size_t>(
        std::upper_bound(n.keys.begin(), n.keys.end(), key, EntryLess) -
        n.keys.begin());
    id = n.children[idx];
  }
}

DiskStream BPlusTree::OpenStream() const { return DiskStream(disk_); }

ColumnEntry BPlusTree::Iterator::Get() const {
  assert(Valid());
  return v_->nodes[node_]->entries[slot_];
}

void BPlusTree::Iterator::Next() {
  assert(Valid());
  const Node* n = v_->nodes[node_].get();
  if (slot_ + 1 < n->entries.size()) {
    ++slot_;
    return;
  }
  // Cross to the next non-empty leaf (lazily erased leaves may be
  // empty).
  uint32_t next = n->next;
  while (next != kInvalid) {
    Status s = BPlusTree::ChargeVisit(*v_, disk_, stream_, next);
    if (!s.ok()) {
      status_ = std::move(s);
      node_ = kInvalid;
      return;
    }
    if (!v_->nodes[next]->entries.empty()) {
      node_ = next;
      slot_ = 0;
      return;
    }
    next = v_->nodes[next]->next;
  }
  node_ = kInvalid;
}

void BPlusTree::Iterator::Prev() {
  assert(Valid());
  if (slot_ > 0) {
    --slot_;
    return;
  }
  uint32_t prev = v_->nodes[node_]->prev;
  while (prev != kInvalid) {
    Status s = BPlusTree::ChargeVisit(*v_, disk_, stream_, prev);
    if (!s.ok()) {
      status_ = std::move(s);
      node_ = kInvalid;
      return;
    }
    if (!v_->nodes[prev]->entries.empty()) {
      node_ = prev;
      slot_ = v_->nodes[prev]->entries.size() - 1;
      return;
    }
    prev = v_->nodes[prev]->prev;
  }
  node_ = kInvalid;
}

size_t BPlusTree::Iterator::CopyRun(bool descending, size_t len,
                                    Value* values, PointId* pids) {
  assert(Valid() && len >= 1);
  const std::vector<ColumnEntry>& entries = v_->nodes[node_]->entries;
  if (descending) {
    const size_t count = std::min(len, slot_ + 1);
    for (size_t i = 0; i < count; ++i) {
      values[i] = entries[slot_ - i].value;
      pids[i] = entries[slot_ - i].pid;
    }
    slot_ -= count - 1;
    return count;
  }
  const size_t count = std::min(len, entries.size() - slot_);
  for (size_t i = 0; i < count; ++i) {
    values[i] = entries[slot_ + i].value;
    pids[i] = entries[slot_ + i].pid;
  }
  slot_ += count - 1;
  return count;
}

BPlusTree::Iterator BPlusTree::SeekLowerBoundIn(const Version& v,
                                                DiskSimulator* disk,
                                                size_t stream,
                                                Value value) {
  Iterator it;
  it.v_ = &v;
  it.disk_ = disk;
  it.stream_ = stream;
  if (v.root == kInvalid) return it;
  const ColumnEntry key{value, 0};
  auto leaf_or = DescendToLeaf(v, disk, stream, key, nullptr);
  if (!leaf_or.ok()) {
    it.status_ = leaf_or.status();
    return it;
  }
  const uint32_t leaf = leaf_or.value();
  const Node& n = *v.nodes[leaf];
  const size_t slot = static_cast<size_t>(
      std::lower_bound(n.entries.begin(), n.entries.end(), key,
                       EntryLess) -
      n.entries.begin());
  it.node_ = leaf;
  it.slot_ = slot;
  if (slot == n.entries.size()) {
    // Walk to the next non-empty leaf, if any.
    if (n.entries.empty()) {
      uint32_t next = n.next;
      while (next != kInvalid && v.nodes[next]->entries.empty()) {
        if (Status s = ChargeVisit(v, disk, stream, next); !s.ok()) {
          it.status_ = std::move(s);
          it.node_ = kInvalid;
          return it;
        }
        next = v.nodes[next]->next;
      }
      if (next == kInvalid) {
        it.node_ = kInvalid;
      } else {
        if (Status s = ChargeVisit(v, disk, stream, next); !s.ok()) {
          it.status_ = std::move(s);
          it.node_ = kInvalid;
          return it;
        }
        it.node_ = next;
        it.slot_ = 0;
      }
    } else {
      it.slot_ = n.entries.size() - 1;
      it.Next();
    }
  }
  return it;
}

BPlusTree::Iterator BPlusTree::SeekBeforeIn(const Version& v,
                                            DiskSimulator* disk,
                                            size_t stream, Value value) {
  Iterator it;
  it.v_ = &v;
  it.disk_ = disk;
  it.stream_ = stream;
  if (v.root == kInvalid) return it;
  const ColumnEntry key{value, 0};
  auto leaf_or = DescendToLeaf(v, disk, stream, key, nullptr);
  if (!leaf_or.ok()) {
    it.status_ = leaf_or.status();
    return it;
  }
  const uint32_t leaf = leaf_or.value();
  const Node& n = *v.nodes[leaf];
  const size_t slot = static_cast<size_t>(
      std::lower_bound(n.entries.begin(), n.entries.end(), key,
                       EntryLess) -
      n.entries.begin());
  if (slot > 0) {
    it.node_ = leaf;
    it.slot_ = slot - 1;
    return it;
  }
  // Everything in this leaf is >= key; step to the previous non-empty
  // leaf's last entry.
  uint32_t prev = n.prev;
  while (prev != kInvalid && v.nodes[prev]->entries.empty()) {
    if (Status s = ChargeVisit(v, disk, stream, prev); !s.ok()) {
      it.status_ = std::move(s);
      return it;
    }
    prev = v.nodes[prev]->prev;
  }
  if (prev != kInvalid) {
    if (Status s = ChargeVisit(v, disk, stream, prev); !s.ok()) {
      it.status_ = std::move(s);
      return it;
    }
    it.node_ = prev;
    it.slot_ = v.nodes[prev]->entries.size() - 1;
  }
  return it;
}

Result<size_t> BPlusTree::RankOfIn(const Version& v, DiskSimulator* disk,
                                   size_t stream, Value value) {
  if (v.root == kInvalid) return size_t{0};
  const ColumnEntry key{value, 0};
  size_t rank = 0;
  uint32_t id = v.root;
  for (;;) {
    if (Status s = ChargeVisit(v, disk, stream, id); !s.ok()) return s;
    const Node& n = *v.nodes[id];
    if (n.leaf) {
      rank += static_cast<size_t>(
          std::lower_bound(n.entries.begin(), n.entries.end(), key,
                           EntryLess) -
          n.entries.begin());
      return rank;
    }
    const size_t idx = static_cast<size_t>(
        std::upper_bound(n.keys.begin(), n.keys.end(), key, EntryLess) -
        n.keys.begin());
    for (size_t i = 0; i < idx; ++i) rank += n.counts[i];
    id = n.children[idx];
  }
}

BPlusTree::Iterator BPlusTree::SeekLowerBound(size_t stream,
                                              Value v) const {
  return SeekLowerBoundIn(cur_, disk_, stream, v);
}

BPlusTree::Iterator BPlusTree::SeekBefore(size_t stream, Value v) const {
  return SeekBeforeIn(cur_, disk_, stream, v);
}

Result<size_t> BPlusTree::RankOf(size_t stream, Value v) const {
  return RankOfIn(cur_, disk_, stream, v);
}

BPlusTree::Iterator BPlusTree::Snapshot::SeekLowerBound(size_t stream,
                                                        Value value) const {
  if (v_ == nullptr) return Iterator{};
  return BPlusTree::SeekLowerBoundIn(*v_, disk_, stream, value);
}

BPlusTree::Iterator BPlusTree::Snapshot::SeekBefore(size_t stream,
                                                    Value value) const {
  if (v_ == nullptr) return Iterator{};
  return BPlusTree::SeekBeforeIn(*v_, disk_, stream, value);
}

Result<size_t> BPlusTree::Snapshot::RankOf(size_t stream,
                                           Value value) const {
  if (v_ == nullptr) return size_t{0};
  return BPlusTree::RankOfIn(*v_, disk_, stream, value);
}

Status BPlusTree::Insert(ColumnEntry entry) {
  if (cur_.root == kInvalid) {
    const uint32_t id = NewNode(/*leaf=*/true);
    cur_.root = id;
    cur_.first_leaf = id;
    cur_.height = 1;
  }
  std::vector<uint32_t> path;
  const DiskStream stream(disk_);
  auto leaf_or = DescendToLeaf(cur_, disk_, stream.id(), entry, &path);
  if (!leaf_or.ok()) return leaf_or.status();
  const uint32_t leaf = leaf_or.value();
  {
    Node* n = Mutable(leaf);
    auto it = std::upper_bound(n->entries.begin(), n->entries.end(),
                               entry, EntryLess);
    n->entries.insert(it, entry);
  }
  ++cur_.size;
  // Update subtree counts along the path.
  for (size_t depth = 0; depth + 1 < path.size(); ++depth) {
    Node* parent = Mutable(path[depth]);
    for (size_t i = 0; i < parent->children.size(); ++i) {
      if (parent->children[i] == path[depth + 1]) {
        ++parent->counts[i];
        break;
      }
    }
  }
  if (node(leaf).entries.size() > kLeafCapacity) {
    SplitUpward(path, leaf);
  }
  NotifyInsert(entry);
  return Status::OK();
}

void BPlusTree::SplitUpward(std::vector<uint32_t>& path,
                            uint32_t overflowed) {
  // Split the overflowed node; insert the separator into its parent;
  // recurse if the parent overflows as well. Node pointers are
  // re-acquired after every NewNode/Mutable (copy-on-write may clone).
  for (size_t depth = path.size(); depth-- > 0;) {
    if (path[depth] != overflowed) continue;

    uint32_t right_id;
    ColumnEntry separator;
    uint64_t right_count;
    if (node(overflowed).leaf) {
      right_id = NewNode(/*leaf=*/true);
      Node* left = Mutable(overflowed);
      Node* right = Mutable(right_id);
      const size_t mid = left->entries.size() / 2;
      right->entries.assign(left->entries.begin() + mid,
                            left->entries.end());
      left->entries.resize(mid);
      separator = right->entries.front();
      right_count = right->entries.size();
      // Fix the leaf chain.
      const uint32_t old_next = left->next;
      right->next = old_next;
      right->prev = overflowed;
      left->next = right_id;
      if (old_next != kInvalid) Mutable(old_next)->prev = right_id;
    } else {
      right_id = NewNode(/*leaf=*/false);
      Node* left = Mutable(overflowed);
      Node* right = Mutable(right_id);
      const size_t mid = left->children.size() / 2;  // promote keys[mid-1]
      separator = left->keys[mid - 1];
      right->children.assign(left->children.begin() + mid,
                             left->children.end());
      right->counts.assign(left->counts.begin() + mid,
                           left->counts.end());
      right->keys.assign(left->keys.begin() + mid, left->keys.end());
      left->children.resize(mid);
      left->counts.resize(mid);
      left->keys.resize(mid - 1);
      right_count = 0;
      for (const uint64_t c : right->counts) right_count += c;
    }

    if (depth == 0) {
      // Grow a new root.
      const uint32_t new_root = NewNode(/*leaf=*/false);
      uint64_t left_count = 0;
      {
        const Node& left = node(overflowed);
        if (left.leaf) {
          left_count = left.entries.size();
        } else {
          for (const uint64_t c : left.counts) left_count += c;
        }
      }
      Node* root = Mutable(new_root);
      root->children = {overflowed, right_id};
      root->counts = {left_count, right_count};
      root->keys = {separator};
      cur_.root = new_root;
      ++cur_.height;
      return;
    }

    // Insert (separator, right_id) into the parent after the left
    // child's position, and carve the right subtree's count out of the
    // left's.
    Node* parent = Mutable(path[depth - 1]);
    for (size_t i = 0; i < parent->children.size(); ++i) {
      if (parent->children[i] == overflowed) {
        parent->keys.insert(parent->keys.begin() + i, separator);
        parent->children.insert(parent->children.begin() + i + 1,
                                right_id);
        parent->counts[i] -= right_count;
        parent->counts.insert(parent->counts.begin() + i + 1,
                              right_count);
        break;
      }
    }
    if (parent->children.size() <= kInternalCapacity) return;
    overflowed = path[depth - 1];
  }
}

Result<bool> BPlusTree::Erase(ColumnEntry entry) {
  if (cur_.root == kInvalid) return false;
  std::vector<uint32_t> path;
  const DiskStream stream(disk_);
  auto leaf_or = DescendToLeaf(cur_, disk_, stream.id(), entry, &path);
  if (!leaf_or.ok()) return leaf_or.status();
  const uint32_t leaf = leaf_or.value();
  {
    // Probe read-only first: a miss must not clone the leaf.
    const Node& n = node(leaf);
    auto it = std::lower_bound(n.entries.begin(), n.entries.end(), entry,
                               EntryLess);
    if (it == n.entries.end() || !(it->value == entry.value) ||
        it->pid != entry.pid) {
      return false;
    }
  }
  {
    Node* n = Mutable(leaf);
    auto it = std::lower_bound(n->entries.begin(), n->entries.end(),
                               entry, EntryLess);
    n->entries.erase(it);
  }
  --cur_.size;
  for (size_t depth = 0; depth + 1 < path.size(); ++depth) {
    Node* parent = Mutable(path[depth]);
    for (size_t i = 0; i < parent->children.size(); ++i) {
      if (parent->children[i] == path[depth + 1]) {
        --parent->counts[i];
        break;
      }
    }
  }
  if (reclaim_ && node(leaf).entries.empty()) {
    ReclaimEmpty(path);
  }
  NotifyErase(entry);
  return true;
}

void BPlusTree::ReclaimEmpty(const std::vector<uint32_t>& path) {
  uint32_t victim = path.back();
  // Unlink the emptied leaf from the chain.
  {
    const uint32_t prev = node(victim).prev;
    const uint32_t next = node(victim).next;
    if (prev != kInvalid) Mutable(prev)->next = next;
    if (next != kInvalid) Mutable(next)->prev = prev;
    if (cur_.first_leaf == victim) cur_.first_leaf = next;
  }
  // Remove it from its parent; cascade when the parent empties too.
  // Removing children[i] drops separator keys[i-1] (or keys[0] for
  // i == 0): the neighbor's routing range absorbs the victim's
  // now-empty range, so upper_bound descents stay correct.
  for (size_t depth = path.size() - 1; depth-- > 0;) {
    const uint32_t parent_id = path[depth];
    Node* parent = Mutable(parent_id);
    size_t i = 0;
    while (i < parent->children.size() && parent->children[i] != victim) {
      ++i;
    }
    assert(i < parent->children.size() && "victim not under its parent");
    parent->children.erase(parent->children.begin() +
                           static_cast<ptrdiff_t>(i));
    parent->counts.erase(parent->counts.begin() +
                         static_cast<ptrdiff_t>(i));
    if (!parent->keys.empty()) {
      parent->keys.erase(parent->keys.begin() +
                         static_cast<ptrdiff_t>(i == 0 ? 0 : i - 1));
    }
    fsm_.Free(victim);
    if (!parent->children.empty()) return;
    victim = parent_id;
  }
  // The root itself emptied: the tree is empty now.
  fsm_.Free(victim);
  cur_.root = kInvalid;
  cur_.first_leaf = kInvalid;
  cur_.height = 0;
}

std::vector<std::byte> BPlusTree::SerializeNode(uint32_t slot) const {
  // Layouts (little-endian scalars):
  //   leaf:     [1u8][prev u32][next u32][n u32][n x (value f64, pid u32)]
  //   internal: [0u8][c u32][c x child u32][c x count u64]
  //             [(c-1) x (value f64, pid u32)]
  // Worst cases (n = kLeafCapacity, c = kInternalCapacity) fit a
  // framed 4 KB page with the ingest layer's 8-byte page-key prefix.
  static_assert(1 + 3 * sizeof(uint32_t) +
                        kLeafCapacity * (sizeof(Value) + sizeof(PointId)) <=
                    4096 - kPageFrameOverhead - sizeof(uint64_t),
                "serialized leaf must fit one framed page");
  static_assert(1 + sizeof(uint32_t) +
                        kInternalCapacity *
                            (sizeof(uint32_t) + sizeof(uint64_t)) +
                        (kInternalCapacity - 1) *
                            (sizeof(Value) + sizeof(PointId)) <=
                    4096 - kPageFrameOverhead - sizeof(uint64_t),
                "serialized internal node must fit one framed page");
  const Node& n = node(slot);
  std::vector<std::byte> out;
  PutScalar<uint8_t>(&out, n.leaf ? 1 : 0);
  if (n.leaf) {
    PutScalar<uint32_t>(&out, n.prev);
    PutScalar<uint32_t>(&out, n.next);
    PutScalar<uint32_t>(&out, static_cast<uint32_t>(n.entries.size()));
    for (const ColumnEntry& e : n.entries) {
      PutScalar<Value>(&out, e.value);
      PutScalar<PointId>(&out, e.pid);
    }
  } else {
    PutScalar<uint32_t>(&out, static_cast<uint32_t>(n.children.size()));
    for (const uint32_t c : n.children) PutScalar<uint32_t>(&out, c);
    for (const uint64_t c : n.counts) PutScalar<uint64_t>(&out, c);
    for (const ColumnEntry& k : n.keys) {
      PutScalar<Value>(&out, k.value);
      PutScalar<PointId>(&out, k.pid);
    }
  }
  return out;
}

std::vector<std::byte> BPlusTree::SerializeMeta() const {
  // [root u32][first_leaf u32][size u64][height u64][node_count u32]
  // [free_count u32][free_count x slot u32]
  std::vector<std::byte> out;
  PutScalar<uint32_t>(&out, cur_.root);
  PutScalar<uint32_t>(&out, cur_.first_leaf);
  PutScalar<uint64_t>(&out, cur_.size);
  PutScalar<uint64_t>(&out, cur_.height);
  PutScalar<uint32_t>(&out, static_cast<uint32_t>(cur_.nodes.size()));
  const std::vector<uint64_t> free_slots = fsm_.ToSortedList();
  PutScalar<uint32_t>(&out, static_cast<uint32_t>(free_slots.size()));
  for (const uint64_t s : free_slots) {
    PutScalar<uint32_t>(&out, static_cast<uint32_t>(s));
  }
  assert(out.size() <=
             4096 - kPageFrameOverhead - sizeof(uint64_t) &&
         "free list outgrew the meta page; checkpoint more often");
  return out;
}

Status BPlusTree::RestoreFromImages(
    std::span<const std::byte> meta,
    const std::vector<std::optional<std::vector<std::byte>>>& images) {
  constexpr size_t kMetaHeader = 2 * sizeof(uint32_t) +
                                 2 * sizeof(uint64_t) +
                                 2 * sizeof(uint32_t);
  if (meta.size() < kMetaHeader) {
    return Status::DataLoss("meta image too small");
  }
  Version v;
  v.root = GetScalar<uint32_t>(meta, 0);
  v.first_leaf = GetScalar<uint32_t>(meta, 4);
  v.size = static_cast<size_t>(GetScalar<uint64_t>(meta, 8));
  v.height = static_cast<size_t>(GetScalar<uint64_t>(meta, 16));
  const uint32_t node_count = GetScalar<uint32_t>(meta, 24);
  const uint32_t free_count = GetScalar<uint32_t>(meta, 28);
  if (meta.size() < kMetaHeader + free_count * sizeof(uint32_t)) {
    return Status::DataLoss("meta image truncated free list");
  }
  std::vector<uint64_t> free_slots;
  std::unordered_set<uint32_t> free_set;
  free_slots.reserve(free_count);
  for (uint32_t i = 0; i < free_count; ++i) {
    const uint32_t slot =
        GetScalar<uint32_t>(meta, kMetaHeader + i * sizeof(uint32_t));
    if (slot >= node_count) {
      return Status::DataLoss("free slot beyond node count");
    }
    free_slots.push_back(slot);
    free_set.insert(slot);
  }

  v.nodes.resize(node_count);
  for (uint32_t slot = 0; slot < node_count; ++slot) {
    if (free_set.contains(slot)) {
      // A freed slot needs no contents even if a stale image survives
      // (e.g. the emptied node logged by the reclaiming transaction);
      // park an empty placeholder.
      v.nodes[slot] = std::make_shared<Node>();
      continue;
    }
    const std::optional<std::vector<std::byte>>* image =
        slot < images.size() ? &images[slot] : nullptr;
    if (image == nullptr || !image->has_value()) {
      return Status::DataLoss("missing page image for live node slot " +
                              std::to_string(slot));
    }
    const std::span<const std::byte> img(**image);
    if (img.size() < 1) return Status::DataLoss("empty node image");
    auto parsed = std::make_shared<Node>();
    const uint8_t leaf_flag = GetScalar<uint8_t>(img, 0);
    if (leaf_flag == 1) {
      constexpr size_t kLeafHeader = 1 + 3 * sizeof(uint32_t);
      if (img.size() < kLeafHeader) {
        return Status::DataLoss("truncated leaf image");
      }
      parsed->leaf = true;
      parsed->prev = GetScalar<uint32_t>(img, 1);
      parsed->next = GetScalar<uint32_t>(img, 5);
      const uint32_t n = GetScalar<uint32_t>(img, 9);
      constexpr size_t kEntryBytes = sizeof(Value) + sizeof(PointId);
      if (n > kLeafCapacity ||
          img.size() < kLeafHeader + n * kEntryBytes) {
        return Status::DataLoss("leaf image entry count implausible");
      }
      parsed->entries.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        const size_t at = kLeafHeader + i * kEntryBytes;
        parsed->entries.push_back(
            ColumnEntry{GetScalar<Value>(img, at),
                        GetScalar<PointId>(img, at + sizeof(Value))});
      }
    } else if (leaf_flag == 0) {
      constexpr size_t kIntHeader = 1 + sizeof(uint32_t);
      if (img.size() < kIntHeader) {
        return Status::DataLoss("truncated internal image");
      }
      parsed->leaf = false;
      const uint32_t c = GetScalar<uint32_t>(img, 1);
      constexpr size_t kKeyBytes = sizeof(Value) + sizeof(PointId);
      if (c == 0 || c > kInternalCapacity + 1 ||
          img.size() < kIntHeader +
                           c * (sizeof(uint32_t) + sizeof(uint64_t)) +
                           (c - 1) * kKeyBytes) {
        return Status::DataLoss("internal image fanout implausible");
      }
      size_t at = kIntHeader;
      parsed->children.reserve(c);
      for (uint32_t i = 0; i < c; ++i, at += sizeof(uint32_t)) {
        const uint32_t child = GetScalar<uint32_t>(img, at);
        if (child >= node_count) {
          return Status::DataLoss("child index beyond node count");
        }
        parsed->children.push_back(child);
      }
      parsed->counts.reserve(c);
      for (uint32_t i = 0; i < c; ++i, at += sizeof(uint64_t)) {
        parsed->counts.push_back(GetScalar<uint64_t>(img, at));
      }
      parsed->keys.reserve(c - 1);
      for (uint32_t i = 0; i + 1 < c; ++i, at += kKeyBytes) {
        parsed->keys.push_back(
            ColumnEntry{GetScalar<Value>(img, at),
                        GetScalar<PointId>(img, at + sizeof(Value))});
      }
    } else {
      return Status::DataLoss("unknown node kind byte");
    }
    v.nodes[slot] = std::move(parsed);
  }

  if (v.root != kInvalid && v.root >= node_count) {
    return Status::DataLoss("root index beyond node count");
  }
  if (v.first_leaf != kInvalid && v.first_leaf >= node_count) {
    return Status::DataLoss("first-leaf index beyond node count");
  }

  // Fresh modelled disk pages for every slot (the page ids are I/O
  // accounting handles; query answers do not depend on them).
  const uint64_t first = disk_->AllocatePages(node_count);
  v.page_of.resize(node_count);
  for (uint32_t slot = 0; slot < node_count; ++slot) {
    v.page_of[slot] = first + slot;
  }

  if (Status s = CheckInvariantsOf(v); !s.ok()) return s;

  cur_ = std::move(v);
  owned_.assign(cur_.nodes.size(), true);
  fsm_.Restore(free_slots);
  dirty_.clear();
  dirty_mark_.assign(cur_.nodes.size(), false);
  pending_notifications_.clear();
  buffer_notifications_ = false;
  return Status::OK();
}

Status BPlusTree::CheckInvariants() const {
  return CheckInvariantsOf(cur_);
}

Status BPlusTree::CheckInvariantsOf(const Version& v) {
  if (v.root == kInvalid) {
    return v.size == 0 ? Status::OK()
                       : Status::Internal("empty tree with nonzero size");
  }
  const size_t node_count = v.nodes.size();
  if (v.root >= node_count) return Status::Internal("root out of range");
  // Walk the leaf chain: sortedness and total size.
  size_t seen = 0;
  ColumnEntry last{-1e300, 0};
  uint32_t leaf = v.first_leaf;
  uint32_t prev = kInvalid;
  while (leaf != kInvalid) {
    if (leaf >= node_count) {
      return Status::Internal("leaf chain index out of range");
    }
    const Node& n = *v.nodes[leaf];
    if (!n.leaf) return Status::Internal("leaf chain hit internal node");
    if (n.prev != prev) return Status::Internal("broken prev link");
    for (const ColumnEntry& e : n.entries) {
      if (EntryLess(e, last)) {
        return Status::Internal("entries out of order");
      }
      last = e;
      ++seen;
    }
    prev = leaf;
    leaf = n.next;
  }
  if (seen != v.size) return Status::Internal("leaf chain size mismatch");

  // Check internal counts recursively.
  struct Checker {
    const Version* v;
    Status status = Status::OK();
    uint64_t Count(uint32_t id) {
      if (id >= v->nodes.size()) {
        status = Status::Internal("child index out of range");
        return 0;
      }
      const Node& n = *v->nodes[id];
      if (n.leaf) return n.entries.size();
      if (n.keys.size() + 1 != n.children.size() ||
          n.counts.size() != n.children.size()) {
        status = Status::Internal("internal node arity mismatch");
        return 0;
      }
      uint64_t total = 0;
      for (size_t i = 0; i < n.children.size(); ++i) {
        const uint64_t c = Count(n.children[i]);
        if (c != n.counts[i]) {
          status = Status::Internal("stale subtree count");
        }
        total += c;
      }
      return total;
    }
  } checker{&v};
  const uint64_t total = checker.Count(v.root);
  if (!checker.status.ok()) return checker.status;
  if (total != v.size) return Status::Internal("root count mismatch");
  return Status::OK();
}

}  // namespace knmatch
