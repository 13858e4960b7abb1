#ifndef KNMATCH_VAFILE_VA_KNN_H_
#define KNMATCH_VAFILE_VA_KNN_H_

#include <span>

#include "knmatch/common/status.h"
#include "knmatch/core/match_types.h"
#include "knmatch/storage/row_store.h"
#include "knmatch/vafile/va_file.h"

namespace knmatch {

/// Classic VA-SSA exact kNN under the Euclidean distance [Weber et al.,
/// VLDB'98]. Included both as a completeness check of the VA-file
/// substrate and as the historical point of comparison the paper builds
/// its Section 4.2 competitor from.
///
/// Phase 1 scans the approximation, keeping candidates whose lower
/// bound does not exceed the running k-th smallest upper bound. Phase 2
/// visits candidates in ascending lower-bound order, fetching exact
/// points until the next lower bound exceeds the k-th best exact
/// distance.
class VaKnnSearcher {
 public:
  VaKnnSearcher(const VaFile& va, const RowStore& rows)
      : va_(va), rows_(rows) {}

  /// Exact k nearest neighbors of `query`. The answer's
  /// attributes_retrieved is (N + candidates refined) x d: the whole
  /// approximation plus each refined row.
  Result<KnMatchResult> Knn(std::span<const Value> query, size_t k) const;

 private:
  const VaFile& va_;
  const RowStore& rows_;
};

}  // namespace knmatch

#endif  // KNMATCH_VAFILE_VA_KNN_H_
