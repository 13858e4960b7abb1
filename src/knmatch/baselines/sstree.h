#ifndef KNMATCH_BASELINES_SSTREE_H_
#define KNMATCH_BASELINES_SSTREE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "knmatch/common/dataset.h"
#include "knmatch/common/status.h"
#include "knmatch/core/match_types.h"
#include "knmatch/storage/disk_simulator.h"

namespace knmatch {

/// The SS-tree [White & Jain, ICDE'96] — the paper's reference [22] and
/// the other member of the "early kNN access methods" family its
/// related work discusses: like the R-tree but with bounding *spheres*
/// (centroid + radius) instead of rectangles, inserting into the
/// subtree with the nearest centroid and splitting along the dimension
/// of highest coordinate variance.
///
/// Spheres overlap even more than rectangles as dimensionality grows,
/// so the SS-tree exhibits the same dimensionality curse — reproduced
/// alongside the R-tree in bench_rtree_curse-style comparisons.
class SsTree {
 public:
  /// An empty tree for `dims`-dimensional points; one node per page
  /// when a simulator is attached.
  explicit SsTree(size_t dims, DiskSimulator* disk = nullptr);

  /// Builds a tree over a dataset by repeated insertion.
  static SsTree Build(const Dataset& db, DiskSimulator* disk = nullptr);

  /// Inserts one point.
  void Insert(PointId pid, std::span<const Value> point);

  /// Exact k nearest neighbors (best-first on sphere mindist,
  /// Euclidean metric). Charges one page per visited node. The answer's
  /// attributes_retrieved is (nodes visited) x capacity x d.
  Result<KnMatchResult> Knn(std::span<const Value> query, size_t k) const;

  /// Number of points stored.
  size_t size() const { return size_; }
  /// Tree height (0 when empty).
  size_t height() const { return height_; }
  /// Number of nodes.
  size_t num_nodes() const { return nodes_.size(); }
  /// Max entries per node.
  size_t node_capacity() const { return capacity_; }

  /// Validates sphere containment and fill invariants.
  Status CheckInvariants() const;

 private:
  static constexpr uint32_t kInvalid = 0xFFFFFFFFu;

  struct Sphere {
    std::vector<Value> center;
    double radius = 0;
  };

  struct Entry {
    Sphere sphere;                  // points: radius == 0
    uint32_t child = kInvalid;      // internal only
    PointId pid = kInvalidPointId;  // leaf only
  };

  struct Node {
    bool leaf = true;
    uint32_t parent = kInvalid;
    std::vector<Entry> entries;
  };

  uint32_t NewNode(bool leaf);
  void ChargeVisit(size_t stream, uint32_t node) const;
  /// Smallest sphere centered at the entries' centroid covering all
  /// child spheres.
  Sphere BoundingSphere(const Node& node) const;
  static double Distance(std::span<const Value> a, std::span<const Value> b);
  uint32_t ChooseLeaf(std::span<const Value> point) const;
  uint32_t SplitNode(uint32_t node);
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

#endif  // KNMATCH_BASELINES_SSTREE_H_
