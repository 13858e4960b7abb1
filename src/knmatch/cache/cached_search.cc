#include "knmatch/cache/cached_search.h"

#include <optional>
#include <utility>

#include "knmatch/core/ad_scratch.h"
#include "knmatch/obs/catalog.h"

namespace knmatch::cache {

namespace {

void CountWarm(bool hit) {
  if (!obs::Enabled()) return;
  if (hit) {
    obs::Cat().cache_warm_hits->Add();
  } else {
    obs::Cat().cache_warm_fallbacks->Add();
  }
}

}  // namespace

Result<KnMatchResult> CachedKnMatch(const CacheBinding& binding,
                                    const AdSearcher& searcher,
                                    std::span<const Value> query, size_t n,
                                    size_t k, std::span<const Value> weights,
                                    internal::AdScratch* scratch,
                                    QueryContext* ctx) {
  QueryResultCache* cache = binding.cache;
  if (cache == nullptr) {
    return searcher.KnMatch(query, n, k, weights, scratch, ctx);
  }
  if (std::optional<KnMatchResult> hit =
          cache->LookupKnMatch(binding.epoch, query, n, k, weights);
      hit.has_value()) {
    return std::move(*hit);
  }
  // Warm-start only ungoverned queries: the seeded path has no trip
  // points, so a deadline/budget context must reach the real kernel.
  if (ctx == nullptr && cache->config().warm_radius > 0) {
    if (std::optional<WarmSeeds> seeds = cache->FindWarmSeeds(
            binding.epoch, CachedMethod::kKnMatch, query, n, n, k, weights);
        seeds.has_value()) {
      std::optional<KnMatchResult> warm =
          searcher.KnMatchSeeded(query, n, k, weights, seeds->pids, scratch);
      CountWarm(warm.has_value());
      if (warm.has_value()) {
        cache->StoreKnMatch(binding.epoch, query, n, k, weights, *warm);
        return std::move(*warm);
      }
    }
  }
  Result<KnMatchResult> r =
      searcher.KnMatch(query, n, k, weights, scratch, ctx);
  if (r.ok()) {
    cache->StoreKnMatch(binding.epoch, query, n, k, weights, r.value());
  }
  return r;
}

Result<FrequentKnMatchResult> CachedFrequentKnMatch(
    const CacheBinding& binding, const AdSearcher& searcher,
    std::span<const Value> query, size_t n0, size_t n1, size_t k,
    std::span<const Value> weights, internal::AdScratch* scratch,
    QueryContext* ctx) {
  QueryResultCache* cache = binding.cache;
  if (cache == nullptr) {
    return searcher.FrequentKnMatch(query, n0, n1, k, weights, scratch, ctx);
  }
  if (std::optional<FrequentKnMatchResult> hit = cache->LookupFrequent(
          binding.epoch, query, n0, n1, k, weights);
      hit.has_value()) {
    return std::move(*hit);
  }
  if (ctx == nullptr && cache->config().warm_radius > 0) {
    if (std::optional<WarmSeeds> seeds = cache->FindWarmSeeds(
            binding.epoch, CachedMethod::kFrequentKnMatch, query, n0, n1, k,
            weights);
        seeds.has_value()) {
      std::optional<FrequentKnMatchResult> warm =
          searcher.FrequentKnMatchSeeded(query, n0, n1, k, weights,
                                         seeds->pids, scratch);
      CountWarm(warm.has_value());
      if (warm.has_value()) {
        cache->StoreFrequent(binding.epoch, query, n0, n1, k, weights, *warm);
        return std::move(*warm);
      }
    }
  }
  Result<FrequentKnMatchResult> r =
      searcher.FrequentKnMatch(query, n0, n1, k, weights, scratch, ctx);
  if (r.ok()) {
    cache->StoreFrequent(binding.epoch, query, n0, n1, k, weights, r.value());
  }
  return r;
}

Result<KnMatchResult> CachedKnn(const CacheBinding& binding,
                                const Dataset& db,
                                std::span<const Value> query, size_t k,
                                Metric metric, QueryContext* ctx) {
  QueryResultCache* cache = binding.cache;
  if (cache == nullptr) return KnnScan(db, query, k, metric, ctx);
  if (std::optional<KnMatchResult> hit =
          cache->LookupKnn(binding.epoch, query, k, metric);
      hit.has_value()) {
    return std::move(*hit);
  }
  Result<KnMatchResult> r = KnnScan(db, query, k, metric, ctx);
  if (r.ok()) {
    cache->StoreKnn(binding.epoch, query, k, metric, r.value());
  }
  return r;
}

}  // namespace knmatch::cache
