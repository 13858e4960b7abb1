#include "knmatch/core/nmatch_naive.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <vector>

#include "knmatch/common/top_k.h"
#include "knmatch/core/ad_algorithm.h"
#include "knmatch/core/nmatch.h"

namespace knmatch {

namespace {

/// The Delta' array under per-dimension weights: w_i * |p_i - q_i|,
/// sorted ascending (plain SortedAbsDifferences when unweighted).
void SortedDifferences(std::span<const Value> p, std::span<const Value> q,
                       std::span<const Value> weights,
                       std::vector<Value>* out) {
  if (weights.empty()) {
    SortedAbsDifferences(p, q, out);
    return;
  }
  out->resize(p.size());
  for (size_t i = 0; i < p.size(); ++i) {
    (*out)[i] = std::abs(p[i] - q[i]) * weights[i];
  }
  std::sort(out->begin(), out->end());
}

}  // namespace

Result<KnMatchResult> KnMatchNaive(const Dataset& db,
                                   std::span<const Value> query, size_t n,
                                   size_t k, std::span<const Value> weights) {
  Status s = ValidateMatchParams(db.size(), db.dims(), query.size(), n, n, k);
  if (!s.ok()) return s;
  s = ValidateAdWeights(weights, db.dims());
  if (!s.ok()) return s;

  BoundedTopK<PointId, Value, PointId> top(k);
  std::vector<Value> diffs;
  for (PointId pid = 0; pid < db.size(); ++pid) {
    SortedDifferences(db.point(pid), query, weights, &diffs);
    top.Offer(diffs[n - 1], pid, pid);
  }

  KnMatchResult result;
  for (auto& e : top.TakeSorted()) {
    result.matches.push_back(Neighbor{e.item, e.score});
  }
  result.attributes_retrieved =
      static_cast<uint64_t>(db.size()) * db.dims();
  return result;
}

Result<FrequentKnMatchResult> FrequentKnMatchNaive(
    const Dataset& db, std::span<const Value> query, size_t n0, size_t n1,
    size_t k, std::span<const Value> weights) {
  Status s =
      ValidateMatchParams(db.size(), db.dims(), query.size(), n0, n1, k);
  if (!s.ok()) return s;
  s = ValidateAdWeights(weights, db.dims());
  if (!s.ok()) return s;

  using Accumulator = BoundedTopK<PointId, Value, PointId>;
  std::vector<Accumulator> per_n;
  per_n.reserve(n1 - n0 + 1);
  for (size_t n = n0; n <= n1; ++n) per_n.emplace_back(k);

  std::vector<Value> diffs;
  for (PointId pid = 0; pid < db.size(); ++pid) {
    SortedDifferences(db.point(pid), query, weights, &diffs);
    for (size_t n = n0; n <= n1; ++n) {
      per_n[n - n0].Offer(diffs[n - 1], pid, pid);
    }
  }

  FrequentKnMatchResult result;
  result.per_n_sets.resize(per_n.size());
  for (size_t i = 0; i < per_n.size(); ++i) {
    for (auto& e : per_n[i].TakeSorted()) {
      result.per_n_sets[i].push_back(Neighbor{e.item, e.score});
    }
  }
  result.attributes_retrieved =
      static_cast<uint64_t>(db.size()) * db.dims();
  RankByFrequency(k, &result);
  return result;
}

void RankByFrequency(size_t k, FrequentKnMatchResult* result) {
  struct Tally {
    uint32_t count = 0;
    Value best_diff = kInfValue;
  };
  std::unordered_map<PointId, Tally> tallies;
  for (const auto& set : result->per_n_sets) {
    for (const Neighbor& nb : set) {
      Tally& t = tallies[nb.pid];
      ++t.count;
      t.best_diff = std::min(t.best_diff, nb.distance);
    }
  }

  struct Row {
    PointId pid;
    uint32_t count;
    Value best_diff;
  };
  std::vector<Row> rows;
  rows.reserve(tallies.size());
  for (const auto& [pid, t] : tallies) {
    rows.push_back(Row{pid, t.count, t.best_diff});
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.count != b.count) return a.count > b.count;
    if (a.best_diff != b.best_diff) return a.best_diff < b.best_diff;
    return a.pid < b.pid;
  });
  if (rows.size() > k) rows.resize(k);

  result->matches.clear();
  result->frequencies.clear();
  for (const Row& r : rows) {
    result->matches.push_back(Neighbor{r.pid, r.best_diff});
    result->frequencies.push_back(r.count);
  }
}

}  // namespace knmatch
