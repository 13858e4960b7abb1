#ifndef KNMATCH_BASELINES_RTREE_H_
#define KNMATCH_BASELINES_RTREE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "knmatch/common/dataset.h"
#include "knmatch/common/status.h"
#include "knmatch/core/match_types.h"
#include "knmatch/storage/disk_simulator.h"

namespace knmatch {

/// A classic R-tree (Guttman insert with quadratic split) with
/// best-first exact kNN search.
///
/// This is the family of access methods (SS-tree, X-tree, ...) the
/// paper's related work cites as the early approach to kNN, noting
/// that "R-tree-like structures all suffer from the dimensionality
/// curse" and cannot index the k-n-match query at all (the matching
/// dimensions are chosen per point, so no fixed-space MBR bounds the
/// score). It is included (a) as an exact-kNN baseline, and (b) to
/// regenerate that curse: the ablation bench shows the fraction of
/// nodes a kNN visit touches approaching 100% as d grows, while the
/// AD algorithm's attribute fraction stays moderate.
class RTree {
 public:
  /// An empty tree for `dims`-dimensional points. Node capacity is
  /// derived from the disk page size (one node per page); pass a
  /// simulator to charge node visits during queries.
  explicit RTree(size_t dims, DiskSimulator* disk = nullptr);

  /// Builds a tree over a whole dataset by repeated insertion.
  static RTree Build(const Dataset& db, DiskSimulator* disk = nullptr);

  /// Inserts one point.
  void Insert(PointId pid, std::span<const Value> point);

  /// Exact k nearest neighbors by best-first (priority queue on MBR
  /// minimum distance), under the Euclidean metric. Charges one page
  /// read per visited node when a simulator is attached. The answer's
  /// attributes_retrieved is (nodes visited) x capacity x d.
  Result<KnMatchResult> Knn(std::span<const Value> query, size_t k) const;

  /// All points inside the axis-aligned box [lo, hi] (inclusive).
  std::vector<PointId> RangeQuery(std::span<const Value> lo,
                                  std::span<const Value> hi) const;

  /// Number of points stored.
  size_t size() const { return size_; }
  /// Tree height (0 when empty, 1 for a single leaf).
  size_t height() const { return height_; }
  /// Number of nodes (== pages).
  size_t num_nodes() const { return nodes_.size(); }
  /// Max entries per node (derived from the page size).
  size_t node_capacity() const { return capacity_; }

  /// Validates MBR containment, fill factors and entry counts.
  Status CheckInvariants() const;

 private:
  static constexpr uint32_t kInvalid = 0xFFFFFFFFu;

  /// An axis-aligned box stored as interleaved lo/hi per dimension.
  struct Rect {
    std::vector<Value> lo;
    std::vector<Value> hi;
  };

  struct Entry {
    Rect rect;          // for leaf entries lo == hi == the point
    uint32_t child = kInvalid;  // internal: node id
    PointId pid = kInvalidPointId;  // leaf: point id
  };

  struct Node {
    bool leaf = true;
    uint32_t parent = kInvalid;
    std::vector<Entry> entries;
  };

  uint32_t NewNode(bool leaf);
  void ChargeVisit(size_t stream, uint32_t node) const;
  Rect BoundingRect(const Node& node) const;
  static double Enlargement(const Rect& rect, const Rect& add);
  static double Area(const Rect& rect);
  static void Extend(Rect* rect, const Rect& add);
  static bool Intersects(const Rect& a, std::span<const Value> lo,
                         std::span<const Value> hi);
  double MinDist(const Rect& rect, std::span<const Value> q) const;

  /// Chooses the leaf whose MBR needs least enlargement.
  uint32_t ChooseLeaf(const Rect& rect) const;
  /// Quadratic split of an overflowing node; returns the new sibling.
  uint32_t SplitNode(uint32_t node);
  /// Updates MBRs upward and splits overflowing ancestors.
  void AdjustTree(uint32_t node, uint32_t split_sibling);

  size_t dims_;
  size_t capacity_;
  size_t min_fill_;
  DiskSimulator* disk_;
  std::vector<Node> nodes_;
  std::vector<uint64_t> page_of_;
  uint32_t root_ = kInvalid;
  size_t size_ = 0;
  size_t height_ = 0;
};

}  // namespace knmatch

#endif  // KNMATCH_BASELINES_RTREE_H_
