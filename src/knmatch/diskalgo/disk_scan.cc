#include "knmatch/diskalgo/disk_scan.h"

#include <cmath>
#include <vector>

#include "knmatch/common/top_k.h"
#include "knmatch/core/nmatch.h"
#include "knmatch/core/nmatch_naive.h"
#include "knmatch/core/query_context.h"
#include "knmatch/obs/catalog.h"
#include "knmatch/obs/trace.h"

namespace knmatch {

namespace {

// Scan cost is fixed at c*d attributes per query (Sec. 5's baseline);
// charge it to the scan's own algo label and the installed trace. A
// governed scan that trips early charges only the rows it read.
void RecordScanCost(uint64_t attributes) {
  obs::Cat().attrs_scan->Add(attributes);
  if (obs::QueryTrace* trace = obs::CurrentTrace()) {
    trace->counters().attributes_retrieved += attributes;
  }
}

// Rows between governance rechecks. Shorter than the pop stride: a row
// costs d attribute reads, so this still rechecks every few thousand
// attributes.
constexpr uint64_t kRowStride = 64;

using Accumulator = BoundedTopK<PointId, Value, PointId>;

// Snapshots running top-k accumulators into the context's trip record
// and charges the partially-scanned cost.
Status HarvestScanTrip(QueryContext* ctx, std::span<Accumulator> per_n,
                       uint64_t rows_seen, size_t dims) {
  const uint64_t attributes = rows_seen * dims;
  std::vector<std::vector<Neighbor>> partial(per_n.size());
  for (size_t i = 0; i < per_n.size(); ++i) {
    for (auto& e : per_n[i].TakeSorted()) {
      partial[i].push_back(Neighbor{e.item, e.score});
    }
  }
  ctx->trip().attributes_retrieved = attributes;
  ctx->StorePartialSets(&partial);
  RecordScanCost(attributes);
  return ctx->trip_status();
}

}  // namespace

Result<KnMatchResult> DiskScan::KnMatch(std::span<const Value> query,
                                        size_t n, size_t k,
                                        QueryContext* ctx) const {
  Status s = ValidateMatchParams(rows_.size(), rows_.dims(), query.size(), n,
                                 n, k);
  if (!s.ok()) return s;

  const bool governed = ctx != nullptr && ctx->governed();
  if (governed) ctx->ArmPages(rows_.disk());
  const DiskStream stream = rows_.OpenStream();
  BoundedTopK<PointId, Value, PointId> top(k);
  std::vector<Value> diffs;
  uint64_t rows_seen = 0;
  Status io = rows_.ForEachRowWhile(
      stream.id(), [&](PointId pid, std::span<const Value> p) {
        SortedAbsDifferences(p, query, &diffs);
        top.Offer(diffs[n - 1], pid, pid);
        ++rows_seen;
        if (governed && rows_seen % kRowStride == 0) {
          return ctx->Recheck(rows_seen * rows_.dims(), 0);
        }
        return true;
      });
  if (!io.ok()) return io;
  if (governed && ctx->tripped()) {
    return HarvestScanTrip(ctx, {&top, 1}, rows_seen, rows_.dims());
  }

  KnMatchResult result;
  for (auto& e : top.TakeSorted()) {
    result.matches.push_back(Neighbor{e.item, e.score});
  }
  result.attributes_retrieved =
      static_cast<uint64_t>(rows_.size()) * rows_.dims();
  RecordScanCost(result.attributes_retrieved);
  return result;
}

Result<FrequentKnMatchResult> DiskScan::FrequentKnMatch(
    std::span<const Value> query, size_t n0, size_t n1, size_t k,
    QueryContext* ctx) const {
  Status s = ValidateMatchParams(rows_.size(), rows_.dims(), query.size(),
                                 n0, n1, k);
  if (!s.ok()) return s;

  std::vector<Accumulator> per_n;
  per_n.reserve(n1 - n0 + 1);
  for (size_t n = n0; n <= n1; ++n) per_n.emplace_back(k);

  const bool governed = ctx != nullptr && ctx->governed();
  if (governed) ctx->ArmPages(rows_.disk());
  const DiskStream stream = rows_.OpenStream();
  std::vector<Value> diffs;
  uint64_t rows_seen = 0;
  Status io = rows_.ForEachRowWhile(
      stream.id(), [&](PointId pid, std::span<const Value> p) {
        SortedAbsDifferences(p, query, &diffs);
        for (size_t n = n0; n <= n1; ++n) {
          per_n[n - n0].Offer(diffs[n - 1], pid, pid);
        }
        ++rows_seen;
        if (governed && rows_seen % kRowStride == 0) {
          return ctx->Recheck(rows_seen * rows_.dims(), 0);
        }
        return true;
      });
  if (!io.ok()) return io;
  if (governed && ctx->tripped()) {
    return HarvestScanTrip(ctx, per_n, rows_seen, rows_.dims());
  }

  FrequentKnMatchResult result;
  result.per_n_sets.resize(per_n.size());
  for (size_t i = 0; i < per_n.size(); ++i) {
    for (auto& e : per_n[i].TakeSorted()) {
      result.per_n_sets[i].push_back(Neighbor{e.item, e.score});
    }
  }
  result.attributes_retrieved =
      static_cast<uint64_t>(rows_.size()) * rows_.dims();
  RecordScanCost(result.attributes_retrieved);
  {
    obs::TraceSpan span(obs::Phase::kRank);
    RankByFrequency(k, &result);
  }
  return result;
}

Result<std::vector<FrequentKnMatchResult>> DiskScan::FrequentKnMatchBatch(
    std::span<const std::vector<Value>> queries, size_t n0, size_t n1,
    size_t k) const {
  for (const auto& q : queries) {
    Status s = ValidateMatchParams(rows_.size(), rows_.dims(), q.size(),
                                   n0, n1, k);
    if (!s.ok()) return s;
  }

  using Accumulator = BoundedTopK<PointId, Value, PointId>;
  const size_t range = n1 - n0 + 1;
  std::vector<std::vector<Accumulator>> per_query(queries.size());
  for (auto& per_n : per_query) {
    per_n.reserve(range);
    for (size_t i = 0; i < range; ++i) per_n.emplace_back(k);
  }

  const DiskStream stream = rows_.OpenStream();
  std::vector<Value> diffs;
  Status io = rows_.ForEachRow(
      stream.id(), [&](PointId pid, std::span<const Value> p) {
        for (size_t qi = 0; qi < queries.size(); ++qi) {
          SortedAbsDifferences(p, queries[qi], &diffs);
          for (size_t n = n0; n <= n1; ++n) {
            per_query[qi][n - n0].Offer(diffs[n - 1], pid, pid);
          }
        }
      });
  if (!io.ok()) return io;

  std::vector<FrequentKnMatchResult> results(queries.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    results[qi].per_n_sets.resize(range);
    for (size_t i = 0; i < range; ++i) {
      for (auto& e : per_query[qi][i].TakeSorted()) {
        results[qi].per_n_sets[i].push_back(Neighbor{e.item, e.score});
      }
    }
    results[qi].attributes_retrieved =
        static_cast<uint64_t>(rows_.size()) * rows_.dims();
    RecordScanCost(results[qi].attributes_retrieved);
    RankByFrequency(k, &results[qi]);
  }
  return results;
}

Result<KnMatchResult> DiskScan::KnnEuclidean(std::span<const Value> query,
                                             size_t k,
                                             QueryContext* ctx) const {
  Status s = ValidateMatchParams(rows_.size(), rows_.dims(), query.size(), 1,
                                 1, k);
  if (!s.ok()) return s;

  const bool governed = ctx != nullptr && ctx->governed();
  if (governed) ctx->ArmPages(rows_.disk());
  const DiskStream stream = rows_.OpenStream();
  BoundedTopK<PointId, Value, PointId> top(k);
  uint64_t rows_seen = 0;
  Status io = rows_.ForEachRowWhile(
      stream.id(), [&](PointId pid, std::span<const Value> p) {
        Value sum = 0;
        for (size_t i = 0; i < p.size(); ++i) {
          const Value diff = p[i] - query[i];
          sum += diff * diff;
        }
        top.Offer(std::sqrt(sum), pid, pid);
        ++rows_seen;
        if (governed && rows_seen % kRowStride == 0) {
          return ctx->Recheck(rows_seen * rows_.dims(), 0);
        }
        return true;
      });
  if (!io.ok()) return io;
  if (governed && ctx->tripped()) {
    return HarvestScanTrip(ctx, {&top, 1}, rows_seen, rows_.dims());
  }

  KnMatchResult result;
  for (auto& e : top.TakeSorted()) {
    result.matches.push_back(Neighbor{e.item, e.score});
  }
  result.attributes_retrieved =
      static_cast<uint64_t>(rows_.size()) * rows_.dims();
  RecordScanCost(result.attributes_retrieved);
  return result;
}

}  // namespace knmatch
