#ifndef KNMATCH_CORE_MATCH_TYPES_H_
#define KNMATCH_CORE_MATCH_TYPES_H_

#include <cstdint>
#include <vector>

#include "knmatch/common/types.h"

namespace knmatch {

/// One answer of a (k-)n-match or kNN query: a point and its score.
/// For k-n-match queries `distance` is the point's n-match difference
/// (the epsilon at which it matched); for kNN it is the metric distance.
struct Neighbor {
  PointId pid = kInvalidPointId;
  Value distance = 0;

  friend bool operator==(const Neighbor& a, const Neighbor& b) {
    return a.pid == b.pid && a.distance == b.distance;
  }
};

/// Result of a k-n-match query (Definition 3 of the paper).
struct KnMatchResult {
  /// The k matches, ascending by (n-match difference, point id).
  std::vector<Neighbor> matches;
  /// Number of individual attributes retrieved to answer the query —
  /// the cost metric of the paper's multiple-system IR model. Scan-based
  /// algorithms report c*d; the AD algorithm reports its optimal count.
  uint64_t attributes_retrieved = 0;
};

/// Result of a frequent k-n-match query (Definition 4).
struct FrequentKnMatchResult {
  /// The k points appearing most frequently across the k-n-match answer
  /// sets for n in [n0, n1]; descending by (frequency, then ascending
  /// point id).
  std::vector<Neighbor> matches;  // distance field = best n-match diff seen
  /// matches[i].pid appeared in `frequencies[i]` of the answer sets.
  std::vector<uint32_t> frequencies;
  /// The underlying k-n-match answer sets; index 0 corresponds to n0.
  /// Each is capped at k entries, ascending by n-match difference.
  std::vector<std::vector<Neighbor>> per_n_sets;
  /// Cost metric, as in KnMatchResult.
  uint64_t attributes_retrieved = 0;
};

}  // namespace knmatch

#endif  // KNMATCH_CORE_MATCH_TYPES_H_
