#include "knmatch/baselines/rtree.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <queue>

#include "knmatch/baselines/knn_scan.h"
#include "knmatch/common/top_k.h"
#include "knmatch/core/nmatch.h"

namespace knmatch {

RTree::RTree(size_t dims, DiskSimulator* disk)
    : dims_(dims), disk_(disk) {
  // One node per 4 KB page: an entry is a rectangle (2 * d values)
  // plus a child pointer / point id.
  const size_t page = disk != nullptr ? disk->config().page_size : 4096;
  const size_t entry_bytes = 2 * dims * sizeof(Value) + sizeof(uint32_t);
  capacity_ = std::max<size_t>(4, page / entry_bytes);
  min_fill_ = std::max<size_t>(2, capacity_ * 2 / 5);
}

RTree RTree::Build(const Dataset& db, DiskSimulator* disk) {
  RTree tree(db.dims(), disk);
  for (PointId pid = 0; pid < db.size(); ++pid) {
    tree.Insert(pid, db.point(pid));
  }
  return tree;
}

uint32_t RTree::NewNode(bool leaf) {
  Node node;
  node.leaf = leaf;
  nodes_.push_back(std::move(node));
  page_of_.push_back(disk_ != nullptr ? disk_->AllocatePages(1)
                                      : page_of_.size());
  return static_cast<uint32_t>(nodes_.size() - 1);
}

void RTree::ChargeVisit(size_t stream, uint32_t node) const {
  if (disk_ != nullptr) disk_->RecordRead(stream, page_of_[node]);
}

double RTree::Area(const Rect& rect) {
  double area = 1;
  for (size_t i = 0; i < rect.lo.size(); ++i) {
    area *= rect.hi[i] - rect.lo[i];
  }
  return area;
}

void RTree::Extend(Rect* rect, const Rect& add) {
  for (size_t i = 0; i < rect->lo.size(); ++i) {
    rect->lo[i] = std::min(rect->lo[i], add.lo[i]);
    rect->hi[i] = std::max(rect->hi[i], add.hi[i]);
  }
}

double RTree::Enlargement(const Rect& rect, const Rect& add) {
  Rect extended = rect;
  Extend(&extended, add);
  return Area(extended) - Area(rect);
}

bool RTree::Intersects(const Rect& a, std::span<const Value> lo,
                       std::span<const Value> hi) {
  for (size_t i = 0; i < lo.size(); ++i) {
    if (a.hi[i] < lo[i] || a.lo[i] > hi[i]) return false;
  }
  return true;
}

double RTree::MinDist(const Rect& rect, std::span<const Value> q) const {
  double sum = 0;
  for (size_t i = 0; i < dims_; ++i) {
    double diff = 0;
    if (q[i] < rect.lo[i]) {
      diff = rect.lo[i] - q[i];
    } else if (q[i] > rect.hi[i]) {
      diff = q[i] - rect.hi[i];
    }
    sum += diff * diff;
  }
  return std::sqrt(sum);
}

RTree::Rect RTree::BoundingRect(const Node& node) const {
  Rect rect = node.entries.front().rect;
  for (size_t i = 1; i < node.entries.size(); ++i) {
    Extend(&rect, node.entries[i].rect);
  }
  return rect;
}

uint32_t RTree::ChooseLeaf(const Rect& rect) const {
  uint32_t node = root_;
  while (!nodes_[node].leaf) {
    const Node& n = nodes_[node];
    double best_enlargement = std::numeric_limits<double>::infinity();
    double best_area = std::numeric_limits<double>::infinity();
    uint32_t best_child = kInvalid;
    for (const Entry& e : n.entries) {
      const double enlargement = Enlargement(e.rect, rect);
      const double area = Area(e.rect);
      if (enlargement < best_enlargement ||
          (enlargement == best_enlargement && area < best_area)) {
        best_enlargement = enlargement;
        best_area = area;
        best_child = e.child;
      }
    }
    node = best_child;
  }
  return node;
}

uint32_t RTree::SplitNode(uint32_t node_id) {
  // Guttman's quadratic split.
  std::vector<Entry> entries = std::move(nodes_[node_id].entries);
  nodes_[node_id].entries.clear();
  const uint32_t sibling_id = NewNode(nodes_[node_id].leaf);
  nodes_[sibling_id].parent = nodes_[node_id].parent;

  // Pick seeds: the pair wasting the most area.
  size_t seed_a = 0, seed_b = 1;
  double worst_waste = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < entries.size(); ++i) {
    for (size_t j = i + 1; j < entries.size(); ++j) {
      Rect combined = entries[i].rect;
      Extend(&combined, entries[j].rect);
      const double waste = Area(combined) - Area(entries[i].rect) -
                           Area(entries[j].rect);
      if (waste > worst_waste) {
        worst_waste = waste;
        seed_a = i;
        seed_b = j;
      }
    }
  }

  Node& left = nodes_[node_id];
  Node& right = nodes_[sibling_id];
  Rect left_rect = entries[seed_a].rect;
  Rect right_rect = entries[seed_b].rect;
  std::vector<bool> assigned(entries.size(), false);
  left.entries.push_back(entries[seed_a]);
  right.entries.push_back(entries[seed_b]);
  assigned[seed_a] = assigned[seed_b] = true;
  size_t remaining = entries.size() - 2;

  while (remaining > 0) {
    // Honor the minimum fill: if one side must take everything left,
    // give it everything.
    if (left.entries.size() + remaining == min_fill_) {
      for (size_t i = 0; i < entries.size(); ++i) {
        if (!assigned[i]) {
          left.entries.push_back(entries[i]);
          Extend(&left_rect, entries[i].rect);
          assigned[i] = true;
        }
      }
      break;
    }
    if (right.entries.size() + remaining == min_fill_) {
      for (size_t i = 0; i < entries.size(); ++i) {
        if (!assigned[i]) {
          right.entries.push_back(entries[i]);
          Extend(&right_rect, entries[i].rect);
          assigned[i] = true;
        }
      }
      break;
    }
    // PickNext: the entry with the greatest preference difference.
    size_t pick = entries.size();
    double best_diff = -1;
    double pick_left_enl = 0, pick_right_enl = 0;
    for (size_t i = 0; i < entries.size(); ++i) {
      if (assigned[i]) continue;
      const double left_enl = Enlargement(left_rect, entries[i].rect);
      const double right_enl = Enlargement(right_rect, entries[i].rect);
      const double diff = std::abs(left_enl - right_enl);
      if (diff > best_diff) {
        best_diff = diff;
        pick = i;
        pick_left_enl = left_enl;
        pick_right_enl = right_enl;
      }
    }
    assert(pick < entries.size());
    const bool to_left =
        pick_left_enl < pick_right_enl ||
        (pick_left_enl == pick_right_enl &&
         left.entries.size() <= right.entries.size());
    if (to_left) {
      left.entries.push_back(entries[pick]);
      Extend(&left_rect, entries[pick].rect);
    } else {
      right.entries.push_back(entries[pick]);
      Extend(&right_rect, entries[pick].rect);
    }
    assigned[pick] = true;
    --remaining;
  }

  // Re-parent the sibling's children.
  if (!right.leaf) {
    for (const Entry& e : right.entries) {
      nodes_[e.child].parent = sibling_id;
    }
  }
  return sibling_id;
}

void RTree::AdjustTree(uint32_t node, uint32_t split_sibling) {
  while (true) {
    const uint32_t parent = nodes_[node].parent;
    if (parent == kInvalid) {
      if (split_sibling != kInvalid) {
        // Grow a new root.
        const uint32_t new_root = NewNode(/*leaf=*/false);
        nodes_[new_root].entries.push_back(
            Entry{BoundingRect(nodes_[node]), node, kInvalidPointId});
        nodes_[new_root].entries.push_back(
            Entry{BoundingRect(nodes_[split_sibling]), split_sibling,
                  kInvalidPointId});
        nodes_[node].parent = new_root;
        nodes_[split_sibling].parent = new_root;
        root_ = new_root;
        ++height_;
      }
      return;
    }
    // Refresh this node's MBR in the parent.
    Node& p = nodes_[parent];
    for (Entry& e : p.entries) {
      if (e.child == node) {
        e.rect = BoundingRect(nodes_[node]);
        break;
      }
    }
    if (split_sibling != kInvalid) {
      p.entries.push_back(Entry{BoundingRect(nodes_[split_sibling]),
                                split_sibling, kInvalidPointId});
      nodes_[split_sibling].parent = parent;
      if (p.entries.size() > capacity_) {
        split_sibling = SplitNode(parent);
      } else {
        split_sibling = kInvalid;
      }
    }
    node = parent;
  }
}

void RTree::Insert(PointId pid, std::span<const Value> point) {
  assert(point.size() == dims_);
  Rect rect;
  rect.lo.assign(point.begin(), point.end());
  rect.hi.assign(point.begin(), point.end());

  if (root_ == kInvalid) {
    root_ = NewNode(/*leaf=*/true);
    height_ = 1;
  }
  const uint32_t leaf = ChooseLeaf(rect);
  nodes_[leaf].entries.push_back(Entry{std::move(rect), kInvalid, pid});
  ++size_;

  uint32_t sibling = kInvalid;
  if (nodes_[leaf].entries.size() > capacity_) {
    sibling = SplitNode(leaf);
  }
  AdjustTree(leaf, sibling);
}

Result<KnMatchResult> RTree::Knn(std::span<const Value> query,
                                 size_t k) const {
  Status s = ValidateMatchParams(std::max<size_t>(size_, 1), dims_,
                                 query.size(), 1, 1, k);
  if (!s.ok()) return s;
  if (k > size_) {
    return Status::InvalidArgument("k exceeds the number of points");
  }

  const DiskStream stream =
      disk_ != nullptr ? DiskStream(disk_) : DiskStream();
  size_t nodes_visited = 0;

  struct QueueItem {
    double mindist;
    bool is_node;
    uint32_t node;
    PointId pid;
    double exact;  // for points
  };
  struct Greater {
    bool operator()(const QueueItem& a, const QueueItem& b) const {
      if (a.mindist != b.mindist) return a.mindist > b.mindist;
      return a.pid > b.pid;
    }
  };
  std::priority_queue<QueueItem, std::vector<QueueItem>, Greater> queue;
  queue.push(QueueItem{0, true, root_, kInvalidPointId, 0});

  KnMatchResult result;
  while (!queue.empty() && result.matches.size() < k) {
    const QueueItem item = queue.top();
    queue.pop();
    if (!item.is_node) {
      result.matches.push_back(Neighbor{item.pid, item.exact});
      continue;
    }
    ChargeVisit(stream.id(), item.node);
    ++nodes_visited;
    const Node& n = nodes_[item.node];
    for (const Entry& e : n.entries) {
      if (n.leaf) {
        const double dist =
            MetricDistance({e.rect.lo.data(), dims_}, query,
                           Metric::kEuclidean);
        queue.push(QueueItem{dist, false, kInvalid, e.pid, dist});
      } else {
        queue.push(QueueItem{MinDist(e.rect, query), true, e.child,
                             kInvalidPointId, 0});
      }
    }
  }
  result.attributes_retrieved = nodes_visited * capacity_ * dims_;
  return result;
}

std::vector<PointId> RTree::RangeQuery(std::span<const Value> lo,
                                       std::span<const Value> hi) const {
  std::vector<PointId> result;
  if (root_ == kInvalid) return result;
  const DiskStream stream =
      disk_ != nullptr ? DiskStream(disk_) : DiskStream();
  std::vector<uint32_t> stack = {root_};
  while (!stack.empty()) {
    const uint32_t id = stack.back();
    stack.pop_back();
    ChargeVisit(stream.id(), id);
    const Node& n = nodes_[id];
    for (const Entry& e : n.entries) {
      if (!Intersects(e.rect, lo, hi)) continue;
      if (n.leaf) {
        result.push_back(e.pid);
      } else {
        stack.push_back(e.child);
      }
    }
  }
  std::sort(result.begin(), result.end());
  return result;
}

Status RTree::CheckInvariants() const {
  if (root_ == kInvalid) {
    return size_ == 0 ? Status::OK()
                      : Status::Internal("empty tree with points");
  }
  size_t points = 0;
  struct Frame {
    uint32_t node;
    bool is_root;
  };
  std::vector<Frame> stack = {{root_, true}};
  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    const Node& n = nodes_[frame.node];
    if (n.entries.empty() && !frame.is_root) {
      return Status::Internal("empty non-root node");
    }
    if (n.entries.size() > capacity_) {
      return Status::Internal("node over capacity");
    }
    if (!frame.is_root && n.entries.size() < min_fill_ && size_ > min_fill_) {
      return Status::Internal("node under minimum fill");
    }
    for (const Entry& e : n.entries) {
      if (n.leaf) {
        ++points;
        continue;
      }
      // Child MBR must be contained and match the child's real extent.
      const Rect actual = BoundingRect(nodes_[e.child]);
      for (size_t i = 0; i < dims_; ++i) {
        if (actual.lo[i] < e.rect.lo[i] || actual.hi[i] > e.rect.hi[i]) {
          return Status::Internal("stale child MBR");
        }
      }
      if (nodes_[e.child].parent != frame.node) {
        return Status::Internal("broken parent link");
      }
      stack.push_back({e.child, false});
    }
  }
  if (points != size_) return Status::Internal("point count mismatch");
  return Status::OK();
}

}  // namespace knmatch
