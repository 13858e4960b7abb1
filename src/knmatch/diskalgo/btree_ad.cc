#include "knmatch/diskalgo/btree_ad.h"

#include <utility>
#include <vector>

#include "knmatch/core/ad_engine.h"
#include "knmatch/core/nmatch.h"
#include "knmatch/core/query_context.h"
#include "knmatch/core/nmatch_naive.h"
#include "knmatch/core/sorted_columns.h"
#include "knmatch/diskalgo/btree_accessor.h"
#include "knmatch/obs/catalog.h"
#include "knmatch/obs/trace.h"

namespace knmatch {

BTreeColumns::BTreeColumns(const Dataset& db, DiskSimulator* disk) {
  // Reuse the in-memory sort, then bulk load each tree. BulkLoad wants
  // packed (value, pid) entries, so reassemble them from the SoA
  // columns into a per-dimension staging vector (build-time only).
  SortedColumns sorted(db);
  trees_.reserve(db.dims());
  std::vector<ColumnEntry> column(db.size());
  for (size_t dim = 0; dim < db.dims(); ++dim) {
    for (size_t i = 0; i < column.size(); ++i) {
      column[i] = sorted.entry(dim, i);
    }
    auto tree = std::make_unique<BPlusTree>(disk);
    tree->BulkLoad(column);
    trees_.push_back(std::move(tree));
  }
}

Status BTreeColumns::InsertPoint(PointId pid,
                                 std::span<const Value> coords) {
  assert(coords.size() == trees_.size());
  for (size_t dim = 0; dim < trees_.size(); ++dim) {
    Status s = trees_[dim]->Insert(ColumnEntry{coords[dim], pid});
    if (!s.ok()) return s;
  }
  return Status::OK();
}

namespace {

using internal::BTreeColumnAccessor;

/// Shared implementation of the two public searchers over either
/// columns type.
template <typename Columns>
Result<KnMatchResult> KnMatchOver(const Columns& columns,
                                  std::span<const Value> query, size_t n,
                                  size_t k, QueryContext* ctx) {
  Status s = ValidateMatchParams(columns.column_size(), columns.dims(),
                                 query.size(), n, n, k);
  if (!s.ok()) return s;

  if (ctx != nullptr) ctx->ArmPages(columns.tree(0).disk());
  BTreeColumnAccessor<Columns> acc(columns, query);
  internal::AdOutput out =
      internal::RunAdSearch(acc, query, n, n, k, {}, nullptr, ctx);
  obs::Cat().attrs_ad_btree->Add(out.attributes_retrieved);
  obs::Cat().pops_ad_btree->Add(out.heap_pops);
  if (ctx != nullptr && ctx->tripped()) return ctx->trip_status();
  if (!acc.status().ok()) return acc.status();

  KnMatchResult result;
  result.matches = std::move(out.per_n_sets[0]);
  result.attributes_retrieved = out.attributes_retrieved;
  return result;
}

template <typename Columns>
Result<FrequentKnMatchResult> FrequentKnMatchOver(
    const Columns& columns, std::span<const Value> query, size_t n0,
    size_t n1, size_t k, QueryContext* ctx) {
  Status s = ValidateMatchParams(columns.column_size(), columns.dims(),
                                 query.size(), n0, n1, k);
  if (!s.ok()) return s;

  if (ctx != nullptr) ctx->ArmPages(columns.tree(0).disk());
  BTreeColumnAccessor<Columns> acc(columns, query);
  internal::AdOutput out =
      internal::RunAdSearch(acc, query, n0, n1, k, {}, nullptr, ctx);
  obs::Cat().attrs_ad_btree->Add(out.attributes_retrieved);
  obs::Cat().pops_ad_btree->Add(out.heap_pops);
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

}  // namespace

Result<KnMatchResult> BTreeAdSearcher::KnMatch(std::span<const Value> query,
                                               size_t n, size_t k,
                                               QueryContext* ctx) const {
  return KnMatchOver(columns_, query, n, k, ctx);
}

Result<FrequentKnMatchResult> BTreeAdSearcher::FrequentKnMatch(
    std::span<const Value> query, size_t n0, size_t n1, size_t k,
    QueryContext* ctx) const {
  return FrequentKnMatchOver(columns_, query, n0, n1, k, ctx);
}

Result<KnMatchResult> SnapshotAdSearcher::KnMatch(
    std::span<const Value> query, size_t n, size_t k,
    QueryContext* ctx) const {
  return KnMatchOver(columns_, query, n, k, ctx);
}

Result<FrequentKnMatchResult> SnapshotAdSearcher::FrequentKnMatch(
    std::span<const Value> query, size_t n0, size_t n1, size_t k,
    QueryContext* ctx) const {
  return FrequentKnMatchOver(columns_, query, n0, n1, k, ctx);
}

}  // namespace knmatch
