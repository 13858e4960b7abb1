#ifndef KNMATCH_CORE_NMATCH_NAIVE_H_
#define KNMATCH_CORE_NMATCH_NAIVE_H_

#include <span>

#include "knmatch/common/dataset.h"
#include "knmatch/common/status.h"
#include "knmatch/core/match_types.h"

namespace knmatch {

/// Scan-based k-n-match (the "naive algorithm" of Section 3): computes
/// the n-match difference of every point and keeps the k smallest.
/// Retrieves every attribute of every point (cost c*d). Optional
/// per-dimension `weights` (empty, or one positive entry per dimension)
/// scale each |p_i - q_i| before ranking, as the AD searcher's weighted
/// queries do — the scan is their independent oracle.
Result<KnMatchResult> KnMatchNaive(const Dataset& db,
                                   std::span<const Value> query, size_t n,
                                   size_t k,
                                   std::span<const Value> weights = {});

/// Scan-based frequent k-n-match over the n-range [n0, n1]: one pass
/// computes each point's sorted difference array, from which its
/// n-match difference for every n in the range is read off; a top-k
/// accumulator per n maintains the answer sets. `weights` as for
/// KnMatchNaive.
Result<FrequentKnMatchResult> FrequentKnMatchNaive(
    const Dataset& db, std::span<const Value> query, size_t n0, size_t n1,
    size_t k, std::span<const Value> weights = {});

/// Aggregates the per-n answer sets of a frequent k-n-match query into
/// the final top-k-by-frequency list (descending frequency, ties broken
/// by ascending best n-match difference, then point id). Shared by the
/// naive, AD, disk, and VA-file implementations so all four rank
/// identically. Fills `result->matches` and `result->frequencies` from
/// `result->per_n_sets`.
void RankByFrequency(size_t k, FrequentKnMatchResult* result);

}  // namespace knmatch

#endif  // KNMATCH_CORE_NMATCH_NAIVE_H_
