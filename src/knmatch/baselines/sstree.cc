#include "knmatch/baselines/sstree.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <queue>

#include "knmatch/core/nmatch.h"

namespace knmatch {

SsTree::SsTree(size_t dims, DiskSimulator* disk)
    : dims_(dims), disk_(disk) {
  const size_t page = disk != nullptr ? disk->config().page_size : 4096;
  // An entry is a center (d values), a radius and a child/pid.
  const size_t entry_bytes =
      dims * sizeof(Value) + sizeof(double) + sizeof(uint32_t);
  capacity_ = std::max<size_t>(4, page / entry_bytes);
  min_fill_ = std::max<size_t>(2, capacity_ * 2 / 5);
}

SsTree SsTree::Build(const Dataset& db, DiskSimulator* disk) {
  SsTree tree(db.dims(), disk);
  for (PointId pid = 0; pid < db.size(); ++pid) {
    tree.Insert(pid, db.point(pid));
  }
  return tree;
}

uint32_t SsTree::NewNode(bool leaf) {
  Node node;
  node.leaf = leaf;
  nodes_.push_back(std::move(node));
  page_of_.push_back(disk_ != nullptr ? disk_->AllocatePages(1)
                                      : page_of_.size());
  return static_cast<uint32_t>(nodes_.size() - 1);
}

void SsTree::ChargeVisit(size_t stream, uint32_t node) const {
  if (disk_ != nullptr) disk_->RecordRead(stream, page_of_[node]);
}

double SsTree::Distance(std::span<const Value> a,
                        std::span<const Value> b) {
  double sum = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double diff = a[i] - b[i];
    sum += diff * diff;
  }
  return std::sqrt(sum);
}

SsTree::Sphere SsTree::BoundingSphere(const Node& node) const {
  Sphere sphere;
  sphere.center.assign(dims_, 0);
  for (const Entry& e : node.entries) {
    for (size_t i = 0; i < dims_; ++i) {
      sphere.center[i] += e.sphere.center[i];
    }
  }
  for (size_t i = 0; i < dims_; ++i) {
    sphere.center[i] /= static_cast<double>(node.entries.size());
  }
  for (const Entry& e : node.entries) {
    sphere.radius =
        std::max(sphere.radius,
                 Distance(sphere.center, e.sphere.center) + e.sphere.radius);
  }
  return sphere;
}

uint32_t SsTree::ChooseLeaf(std::span<const Value> point) const {
  uint32_t node = root_;
  while (!nodes_[node].leaf) {
    const Node& n = nodes_[node];
    double best = std::numeric_limits<double>::infinity();
    uint32_t best_child = kInvalid;
    for (const Entry& e : n.entries) {
      const double dist = Distance(e.sphere.center, point);
      if (dist < best) {
        best = dist;
        best_child = e.child;
      }
    }
    node = best_child;
  }
  return node;
}

uint32_t SsTree::SplitNode(uint32_t node_id) {
  // SS-tree split: along the coordinate with maximal variance of the
  // entry centers, partitioning at the median.
  std::vector<Entry> entries = std::move(nodes_[node_id].entries);
  nodes_[node_id].entries.clear();
  const uint32_t sibling_id = NewNode(nodes_[node_id].leaf);
  nodes_[sibling_id].parent = nodes_[node_id].parent;

  size_t split_dim = 0;
  double best_variance = -1;
  for (size_t dim = 0; dim < dims_; ++dim) {
    double mean = 0;
    for (const Entry& e : entries) mean += e.sphere.center[dim];
    mean /= static_cast<double>(entries.size());
    double variance = 0;
    for (const Entry& e : entries) {
      const double diff = e.sphere.center[dim] - mean;
      variance += diff * diff;
    }
    if (variance > best_variance) {
      best_variance = variance;
      split_dim = dim;
    }
  }

  std::sort(entries.begin(), entries.end(),
            [split_dim](const Entry& a, const Entry& b) {
              return a.sphere.center[split_dim] <
                     b.sphere.center[split_dim];
            });
  const size_t mid =
      std::clamp(entries.size() / 2, min_fill_, entries.size() - min_fill_);

  Node& left = nodes_[node_id];
  Node& right = nodes_[sibling_id];
  left.entries.assign(entries.begin(), entries.begin() + mid);
  right.entries.assign(entries.begin() + mid, entries.end());
  if (!right.leaf) {
    for (const Entry& e : right.entries) {
      nodes_[e.child].parent = sibling_id;
    }
  }
  return sibling_id;
}

void SsTree::AdjustTree(uint32_t node, uint32_t split_sibling) {
  while (true) {
    const uint32_t parent = nodes_[node].parent;
    if (parent == kInvalid) {
      if (split_sibling != kInvalid) {
        const uint32_t new_root = NewNode(/*leaf=*/false);
        nodes_[new_root].entries.push_back(
            Entry{BoundingSphere(nodes_[node]), node, kInvalidPointId});
        nodes_[new_root].entries.push_back(
            Entry{BoundingSphere(nodes_[split_sibling]), split_sibling,
                  kInvalidPointId});
        nodes_[node].parent = new_root;
        nodes_[split_sibling].parent = new_root;
        root_ = new_root;
        ++height_;
      }
      return;
    }
    Node& p = nodes_[parent];
    for (Entry& e : p.entries) {
      if (e.child == node) {
        e.sphere = BoundingSphere(nodes_[node]);
        break;
      }
    }
    if (split_sibling != kInvalid) {
      p.entries.push_back(Entry{BoundingSphere(nodes_[split_sibling]),
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

void SsTree::Insert(PointId pid, std::span<const Value> point) {
  assert(point.size() == dims_);
  if (root_ == kInvalid) {
    root_ = NewNode(/*leaf=*/true);
    height_ = 1;
  }
  const uint32_t leaf = ChooseLeaf(point);
  Entry entry;
  entry.sphere.center.assign(point.begin(), point.end());
  entry.sphere.radius = 0;
  entry.pid = pid;
  nodes_[leaf].entries.push_back(std::move(entry));
  ++size_;

  uint32_t sibling = kInvalid;
  if (nodes_[leaf].entries.size() > capacity_) {
    sibling = SplitNode(leaf);
  }
  AdjustTree(leaf, sibling);
}

Result<KnMatchResult> SsTree::Knn(std::span<const Value> query,
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
  };
  struct Greater {
    bool operator()(const QueueItem& a, const QueueItem& b) const {
      if (a.mindist != b.mindist) return a.mindist > b.mindist;
      return a.pid > b.pid;
    }
  };
  std::priority_queue<QueueItem, std::vector<QueueItem>, Greater> queue;
  queue.push(QueueItem{0, true, root_, kInvalidPointId});

  KnMatchResult result;
  while (!queue.empty() && result.matches.size() < k) {
    const QueueItem item = queue.top();
    queue.pop();
    if (!item.is_node) {
      result.matches.push_back(Neighbor{item.pid, item.mindist});
      continue;
    }
    ChargeVisit(stream.id(), item.node);
    ++nodes_visited;
    const Node& n = nodes_[item.node];
    for (const Entry& e : n.entries) {
      const double center_dist = Distance(e.sphere.center, query);
      if (n.leaf) {
        queue.push(QueueItem{center_dist, false, kInvalid, e.pid});
      } else {
        queue.push(QueueItem{std::max(0.0, center_dist - e.sphere.radius),
                             true, e.child, kInvalidPointId});
      }
    }
  }
  result.attributes_retrieved = nodes_visited * capacity_ * dims_;
  return result;
}

Status SsTree::CheckInvariants() const {
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
    for (const Entry& e : n.entries) {
      if (n.leaf) {
        ++points;
        continue;
      }
      // The recorded sphere must cover the child's true extent.
      const Sphere actual = BoundingSphere(nodes_[e.child]);
      const double offset = Distance(actual.center, e.sphere.center);
      if (offset + actual.radius > e.sphere.radius + 1e-9) {
        return Status::Internal("stale child sphere");
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
