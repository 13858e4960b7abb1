#include "knmatch/baselines/idistance.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "knmatch/baselines/knn_scan.h"
#include "knmatch/common/kmeans.h"
#include "knmatch/common/top_k.h"
#include "knmatch/core/nmatch.h"

namespace knmatch {

IDistanceIndex::IDistanceIndex(const Dataset& db, DiskSimulator* disk,
                               Options options)
    : db_(db), options_(options), tree_(disk) {
  const size_t d = db.dims();
  // Key stride: strictly larger than any possible distance in the
  // normalized space, so partitions never overlap in key space.
  c_stride_ = 2.0 * std::sqrt(static_cast<double>(d)) + 1.0;

  KMeansResult clusters =
      KMeans(db, options.partitions, /*seed=*/0xD15,
             options.kmeans_iterations);

  // Drop empty partitions and remap.
  std::vector<int> remap(clusters.centers.rows(), -1);
  std::vector<size_t> members(clusters.centers.rows(), 0);
  for (const uint32_t a : clusters.assignment) ++members[a];
  size_t kept = 0;
  for (size_t i = 0; i < members.size(); ++i) {
    if (members[i] > 0) remap[i] = static_cast<int>(kept++);
  }
  centers_ = Matrix(kept, d);
  partition_radius_.assign(kept, 0.0);
  for (size_t i = 0; i < members.size(); ++i) {
    if (remap[i] < 0) continue;
    auto src = clusters.centers.row(i);
    std::copy(src.begin(), src.end(),
              centers_.row(static_cast<size_t>(remap[i])).begin());
  }

  // Build (key, pid) entries and bulk load.
  std::vector<ColumnEntry> entries(db.size());
  for (PointId pid = 0; pid < db.size(); ++pid) {
    const auto part =
        static_cast<uint32_t>(remap[clusters.assignment[pid]]);
    const double dist =
        MetricDistance(db.point(pid), centers_.row(part),
                       Metric::kEuclidean);
    partition_radius_[part] = std::max(partition_radius_[part], dist);
    entries[pid] = ColumnEntry{KeyOf(part, dist), pid};
  }
  std::sort(entries.begin(), entries.end(),
            [](const ColumnEntry& a, const ColumnEntry& b) {
              if (a.value != b.value) return a.value < b.value;
              return a.pid < b.pid;
            });
  tree_.BulkLoad(entries);
}

Value IDistanceIndex::KeyOf(uint32_t partition, double dist) const {
  return static_cast<Value>(partition) * c_stride_ + dist;
}

Result<KnMatchResult> IDistanceIndex::Knn(std::span<const Value> query,
                                          size_t k) const {
  Status s =
      ValidateMatchParams(db_.size(), db_.dims(), query.size(), 1, 1, k);
  if (!s.ok()) return s;

  const size_t parts = centers_.rows();
  const double diagonal = std::sqrt(static_cast<double>(db_.dims()));
  const double step = std::max(1e-6, options_.radius_step * diagonal);

  std::vector<double> dist_to_center(parts);
  for (size_t i = 0; i < parts; ++i) {
    dist_to_center[i] =
        MetricDistance(query, centers_.row(i), Metric::kEuclidean);
  }

  // Scanned key interval per partition; lo > hi means "none yet".
  std::vector<std::pair<Value, Value>> scanned(
      parts, {Value{1}, Value{0}});

  BoundedTopK<PointId, Value, PointId> top(k);
  uint64_t points_examined = 0;
  const DiskStream stream = tree_.OpenStream();

  auto scan_keys = [&](Value lo, Value hi) {
    // Examine every entry with lo <= key <= hi.
    auto it = tree_.SeekLowerBound(stream.id(), lo);
    while (it.Valid() && it.Get().value <= hi) {
      const PointId pid = it.Get().pid;
      ++points_examined;
      top.Offer(MetricDistance(db_.point(pid), query, Metric::kEuclidean),
                pid, pid);
      it.Next();
    }
  };

  for (double r = step;; r += step) {
    for (size_t i = 0; i < parts; ++i) {
      if (dist_to_center[i] - r > partition_radius_[i]) continue;
      const double lo_dist = std::max(0.0, dist_to_center[i] - r);
      const double hi_dist =
          std::min(partition_radius_[i], dist_to_center[i] + r);
      if (lo_dist > hi_dist) continue;
      const Value lo = KeyOf(static_cast<uint32_t>(i), lo_dist);
      const Value hi = KeyOf(static_cast<uint32_t>(i), hi_dist);
      auto& [prev_lo, prev_hi] = scanned[i];
      if (prev_lo > prev_hi) {
        scan_keys(lo, hi);
      } else {
        // Extend only the fresh shell on each side.
        if (lo < prev_lo) {
          auto it = tree_.SeekLowerBound(stream.id(), lo);
          while (it.Valid() && it.Get().value < prev_lo) {
            ++points_examined;
            top.Offer(MetricDistance(db_.point(it.Get().pid), query,
                                     Metric::kEuclidean),
                      it.Get().pid, it.Get().pid);
            it.Next();
          }
        }
        if (hi > prev_hi) {
          auto it = tree_.SeekLowerBound(stream.id(), prev_hi);
          while (it.Valid() && it.Get().value <= prev_hi) it.Next();
          while (it.Valid() && it.Get().value <= hi) {
            ++points_examined;
            top.Offer(MetricDistance(db_.point(it.Get().pid), query,
                                     Metric::kEuclidean),
                      it.Get().pid, it.Get().pid);
            it.Next();
          }
        }
      }
      if (prev_lo > prev_hi) {
        prev_lo = lo;
        prev_hi = hi;
      } else {
        prev_lo = std::min(prev_lo, lo);
        prev_hi = std::max(prev_hi, hi);
      }
    }
    // Correct termination: every unexamined point is farther than r;
    // once the k-th best distance is <= r, nothing can improve it.
    if (top.full() && top.threshold() <= r) break;
    if (r > 2 * diagonal) break;  // everything has been scanned
  }

  KnMatchResult result;
  for (auto& e : top.TakeSorted()) {
    result.matches.push_back(Neighbor{e.item, e.score});
  }
  result.attributes_retrieved = points_examined * db_.dims();
  return result;
}

}  // namespace knmatch
