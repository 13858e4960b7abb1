#ifndef KNMATCH_CACHE_CACHED_SEARCH_H_
#define KNMATCH_CACHE_CACHED_SEARCH_H_

#include <span>

#include "knmatch/baselines/knn_scan.h"
#include "knmatch/cache/query_cache.h"
#include "knmatch/common/dataset.h"
#include "knmatch/common/status.h"
#include "knmatch/core/ad_algorithm.h"
#include "knmatch/core/match_types.h"

namespace knmatch {
class QueryContext;
}  // namespace knmatch

namespace knmatch::cache {

/// A cache handle plus the dataset epoch it is keyed under. The engine
/// owns both; the batch executor receives a binding per call so the
/// sequential and fanned-out paths share one cache and one epoch.
/// A null `cache` means "caching disabled" and every helper below
/// degrades to the plain cold call.
struct CacheBinding {
  QueryResultCache* cache = nullptr;
  uint64_t epoch = 0;
};

/// Cache-through k-n-match: exact hit, else warm-start from a
/// near-miss entry (ungoverned queries only — a governed query's
/// trip accounting must come from the real kernel), else cold; OK cold
/// and warm results are stored. Answers are bit-identical to the cold
/// call in every branch (see QueryResultCache and core/ad_warm.h for
/// the respective arguments).
Result<KnMatchResult> CachedKnMatch(const CacheBinding& binding,
                                    const AdSearcher& searcher,
                                    std::span<const Value> query, size_t n,
                                    size_t k, std::span<const Value> weights,
                                    internal::AdScratch* scratch,
                                    QueryContext* ctx);

/// Cache-through frequent k-n-match; same contract as CachedKnMatch.
Result<FrequentKnMatchResult> CachedFrequentKnMatch(
    const CacheBinding& binding, const AdSearcher& searcher,
    std::span<const Value> query, size_t n0, size_t n1, size_t k,
    std::span<const Value> weights, internal::AdScratch* scratch,
    QueryContext* ctx);

/// Cache-through exact kNN by scan. Exact hits only: a neighboring
/// query's k-n-match answer pids say nothing useful about a metric
/// scan's pruning, so there is no warm path.
Result<KnMatchResult> CachedKnn(const CacheBinding& binding,
                                const Dataset& db,
                                std::span<const Value> query, size_t k,
                                Metric metric, QueryContext* ctx);

}  // namespace knmatch::cache

#endif  // KNMATCH_CACHE_CACHED_SEARCH_H_
