#ifndef KNMATCH_BASELINES_IDISTANCE_H_
#define KNMATCH_BASELINES_IDISTANCE_H_

#include <span>
#include <vector>

#include "knmatch/common/dataset.h"
#include "knmatch/common/status.h"
#include "knmatch/core/match_types.h"
#include "knmatch/storage/bplus_tree.h"

namespace knmatch {

/// iDistance [Ooi, Yu, Tan et al.] — the one-dimensional-transform kNN
/// index from the same group as the paper: every point is keyed by
/// `partition * C + distance(point, reference_partition)` and stored in
/// a single B+-tree; a kNN query grows a search radius, scanning the
/// key intervals each partition's shell maps to, until the k-th best
/// exact distance falls inside the radius.
///
/// Included as a further exact-kNN baseline on top of this
/// repository's B+-tree substrate: unlike the R-tree it degrades
/// gracefully with dimensionality (one-dimensional keys never
/// "curse"), which makes the contrast in bench_rtree_curse sharper.
/// Like every kNN method it still aggregates all d differences, so it
/// inherits the effectiveness problems the paper's matching model
/// addresses.
class IDistanceIndex {
 public:
  struct Options {
    /// Number of reference points (k-means centers).
    size_t partitions = 32;
    /// Lloyd iterations for picking the references.
    size_t kmeans_iterations = 8;
    /// Search-radius increment per round, as a fraction of the space
    /// diagonal.
    double radius_step = 0.02;
  };

  /// Builds the index over `db` (must outlive the index). Pass a
  /// simulator to charge the B+-tree's page I/O during queries.
  IDistanceIndex(const Dataset& db, DiskSimulator* disk, Options options);
  IDistanceIndex(const Dataset& db, DiskSimulator* disk)
      : IDistanceIndex(db, disk, Options{}) {}

  /// Exact k nearest neighbors under the Euclidean metric. The answer's
  /// attributes_retrieved is (candidates examined) x d.
  Result<KnMatchResult> Knn(std::span<const Value> query, size_t k) const;

  /// Partitions actually used (empty ones are dropped).
  size_t num_partitions() const { return centers_.rows(); }

 private:
  Value KeyOf(uint32_t partition, double dist) const;

  const Dataset& db_;
  Options options_;
  Matrix centers_;
  std::vector<double> partition_radius_;  // max dist to center, per part.
  double c_stride_;                       // the constant C
  BPlusTree tree_;
};

}  // namespace knmatch

#endif  // KNMATCH_BASELINES_IDISTANCE_H_
