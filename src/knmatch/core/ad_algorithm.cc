#include "knmatch/core/ad_algorithm.h"

#include <chrono>
#include <utility>

#include "knmatch/core/ad_engine.h"
#include "knmatch/core/ad_warm.h"
#include "knmatch/core/nmatch.h"
#include "knmatch/core/query_context.h"
#include "knmatch/core/nmatch_naive.h"
#include "knmatch/obs/catalog.h"
#include "knmatch/obs/trace.h"

namespace knmatch {

namespace {

// One registry interaction per query: the AD engine tallies locally and
// the totals land here, which is what keeps instrumentation overhead on
// the in-memory hot path under the bench_obs_overhead budget.
void RecordMemoryAdQuery(const internal::AdOutput& out,
                         obs::Counter* queries, obs::Histogram* latency,
                         std::chrono::steady_clock::time_point start) {
  if (!obs::Enabled()) return;
  const obs::Catalog& cat = obs::Cat();
  queries->Add();
  cat.attrs_ad_memory->Add(out.attributes_retrieved);
  cat.pops_ad_memory->Add(out.heap_pops);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  latency->Observe(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
          .count()));
}

}  // namespace

Status ValidateAdWeights(std::span<const Value> weights, size_t dims) {
  if (weights.empty()) return Status::OK();
  if (weights.size() != dims) {
    return Status::InvalidArgument(
        "weights must be empty or have one entry per dimension");
  }
  for (const Value w : weights) {
    if (!(w > 0)) {
      return Status::InvalidArgument(
          "AD weights must be strictly positive (a zero weight would "
          "make an entire column pop at difference 0; model an ignored "
          "dimension by dropping it instead)");
    }
  }
  return Status::OK();
}

Result<KnMatchResult> AdSearcher::KnMatch(
    std::span<const Value> query, size_t n, size_t k,
    std::span<const Value> weights, internal::AdScratch* scratch,
    QueryContext* ctx) const {
  Status s =
      ValidateMatchParams(db_.size(), db_.dims(), query.size(), n, n, k);
  if (!s.ok()) return s;
  s = ValidateAdWeights(weights, db_.dims());
  if (!s.ok()) return s;

  // Memory queries read no pages; re-arm so a context reused after a
  // disk query does not count that query's reads against this one.
  if (ctx != nullptr) ctx->ArmPages(nullptr);
  const auto start = std::chrono::steady_clock::now();
  internal::MemoryColumnAccessor acc(columns_);
  internal::AdOutput out =
      internal::RunAdSearch(acc, query, n, n, k, weights, scratch, ctx);
  RecordMemoryAdQuery(out, obs::Cat().queries_knmatch,
                      obs::Cat().latency_knmatch, start);
  if (ctx != nullptr && ctx->tripped()) return ctx->trip_status();

  KnMatchResult result;
  result.matches = std::move(out.per_n_sets[0]);
  result.attributes_retrieved = out.attributes_retrieved;
  return result;
}

std::optional<KnMatchResult> AdSearcher::KnMatchSeeded(
    std::span<const Value> query, size_t n, size_t k,
    std::span<const Value> weights, std::span<const PointId> seeds,
    internal::AdScratch* scratch) const {
  const auto start = std::chrono::steady_clock::now();
  std::optional<internal::AdOutput> out = internal::RunAdSearchSeeded(
      db_, columns_, query, n, n, k, weights, seeds, scratch);
  if (!out.has_value()) return std::nullopt;
  RecordMemoryAdQuery(*out, obs::Cat().queries_knmatch,
                      obs::Cat().latency_knmatch, start);
  KnMatchResult result;
  result.matches = std::move(out->per_n_sets[0]);
  result.attributes_retrieved = out->attributes_retrieved;
  return result;
}

std::optional<FrequentKnMatchResult> AdSearcher::FrequentKnMatchSeeded(
    std::span<const Value> query, size_t n0, size_t n1, size_t k,
    std::span<const Value> weights, std::span<const PointId> seeds,
    internal::AdScratch* scratch) const {
  const auto start = std::chrono::steady_clock::now();
  std::optional<internal::AdOutput> out = internal::RunAdSearchSeeded(
      db_, columns_, query, n0, n1, k, weights, seeds, scratch);
  if (!out.has_value()) return std::nullopt;
  FrequentKnMatchResult result;
  result.per_n_sets = std::move(out->per_n_sets);
  result.attributes_retrieved = out->attributes_retrieved;
  {
    obs::TraceSpan span(obs::Phase::kRank);
    RankByFrequency(k, &result);
  }
  RecordMemoryAdQuery(*out, obs::Cat().queries_fknmatch,
                      obs::Cat().latency_fknmatch, start);
  return result;
}

Result<FrequentKnMatchResult> AdSearcher::FrequentKnMatch(
    std::span<const Value> query, size_t n0, size_t n1, size_t k,
    std::span<const Value> weights, internal::AdScratch* scratch,
    QueryContext* ctx) const {
  Status s =
      ValidateMatchParams(db_.size(), db_.dims(), query.size(), n0, n1, k);
  if (!s.ok()) return s;
  s = ValidateAdWeights(weights, db_.dims());
  if (!s.ok()) return s;

  if (ctx != nullptr) ctx->ArmPages(nullptr);
  const auto start = std::chrono::steady_clock::now();
  internal::MemoryColumnAccessor acc(columns_);
  internal::AdOutput out =
      internal::RunAdSearch(acc, query, n0, n1, k, weights, scratch, ctx);
  if (ctx != nullptr && ctx->tripped()) {
    RecordMemoryAdQuery(out, obs::Cat().queries_fknmatch,
                        obs::Cat().latency_fknmatch, start);
    return ctx->trip_status();
  }

  FrequentKnMatchResult result;
  result.per_n_sets = std::move(out.per_n_sets);
  result.attributes_retrieved = out.attributes_retrieved;
  {
    obs::TraceSpan span(obs::Phase::kRank);
    RankByFrequency(k, &result);
  }
  RecordMemoryAdQuery(out, obs::Cat().queries_fknmatch,
                      obs::Cat().latency_fknmatch, start);
  return result;
}

}  // namespace knmatch
