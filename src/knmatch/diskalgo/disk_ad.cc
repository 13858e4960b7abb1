#include "knmatch/diskalgo/disk_ad.h"

#include <utility>
#include <vector>

#include "knmatch/core/ad_engine.h"
#include "knmatch/core/nmatch.h"
#include "knmatch/core/query_context.h"
#include "knmatch/core/nmatch_naive.h"
#include "knmatch/obs/catalog.h"
#include "knmatch/obs/trace.h"

namespace knmatch {

namespace {

/// AD-engine accessor over the paged column store. One I/O stream per
/// direction cursor (2 per dimension), identified by the engine-supplied
/// slot, so each direction's page buffer and sequential-run detection
/// are independent.
class DiskColumnAccessor {
 public:
  explicit DiskColumnAccessor(const ColumnStore& columns)
      : columns_(columns) {
    streams_.reserve(2 * columns.dims());
    for (size_t i = 0; i < 2 * columns.dims(); ++i) {
      streams_.push_back(columns.OpenStream());
    }
  }

  size_t dims() const { return columns_.dims(); }
  size_t column_size() const { return columns_.column_size(); }

  ColumnEntry ReadEntry(size_t dim, size_t idx, uint32_t slot) {
    Result<ColumnEntry> e = columns_.ReadEntry(streams_[slot].id(), dim, idx);
    if (!e.ok()) {
      status_ = e.status();
      return ColumnEntry{};  // the engine discards it once status() trips
    }
    return e.value();
  }

  /// Kernel block refill: page-granular — ColumnStore bounds the run to
  /// the page holding `idx`, so the one charged ReadPage here costs
  /// exactly what the per-entry path's first read of that page would,
  /// and every further entry served is one the per-entry path would
  /// have re-read from the same page for free.
  size_t ReadRun(size_t dim, size_t idx, size_t len, uint32_t slot,
                 Value* values, PointId* pids) {
    Result<size_t> n = columns_.ReadRun(streams_[slot].id(), dim, idx, len,
                                        slot % 2 == 0, values, pids);
    if (!n.ok()) {
      status_ = n.status();
      return 0;
    }
    return n.value();
  }

  size_t LocateLowerBound(size_t dim, Value v) const {
    return columns_.LowerBound(dim, v);
  }

  /// First read failure, latched; the engine stops once this is non-OK.
  const Status& status() const { return status_; }

 private:
  const ColumnStore& columns_;
  std::vector<DiskStream> streams_;
  Status status_;
};

}  // namespace

Result<KnMatchResult> DiskAdSearcher::KnMatch(std::span<const Value> query,
                                              size_t n, size_t k,
                                              QueryContext* ctx) const {
  Status s = ValidateMatchParams(columns_.column_size(), columns_.dims(),
                                 query.size(), n, n, k);
  if (!s.ok()) return s;

  if (ctx != nullptr) ctx->ArmPages(columns_.disk());
  DiskColumnAccessor acc(columns_);
  internal::AdOutput out =
      internal::RunAdSearch(acc, query, n, n, k, {}, nullptr, ctx);
  obs::Cat().attrs_ad_disk->Add(out.attributes_retrieved);
  obs::Cat().pops_ad_disk->Add(out.heap_pops);
  if (ctx != nullptr && ctx->tripped()) return ctx->trip_status();
  if (!acc.status().ok()) return acc.status();

  KnMatchResult result;
  result.matches = std::move(out.per_n_sets[0]);
  result.attributes_retrieved = out.attributes_retrieved;
  return result;
}

Result<FrequentKnMatchResult> DiskAdSearcher::FrequentKnMatch(
    std::span<const Value> query, size_t n0, size_t n1, size_t k,
    QueryContext* ctx) const {
  Status s = ValidateMatchParams(columns_.column_size(), columns_.dims(),
                                 query.size(), n0, n1, k);
  if (!s.ok()) return s;

  if (ctx != nullptr) ctx->ArmPages(columns_.disk());
  DiskColumnAccessor acc(columns_);
  internal::AdOutput out =
      internal::RunAdSearch(acc, query, n0, n1, k, {}, nullptr, ctx);
  obs::Cat().attrs_ad_disk->Add(out.attributes_retrieved);
  obs::Cat().pops_ad_disk->Add(out.heap_pops);
  if (ctx != nullptr && ctx->tripped()) return ctx->trip_status();
  if (!acc.status().ok()) return acc.status();

  FrequentKnMatchResult result;
  result.per_n_sets = std::move(out.per_n_sets);
  result.attributes_retrieved = out.attributes_retrieved;
  {
    obs::TraceSpan span(obs::Phase::kRank);
    RankByFrequency(k, &result);
  }
  return result;
}

}  // namespace knmatch
