#include "knmatch/vafile/va_knn.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "knmatch/common/top_k.h"
#include "knmatch/core/nmatch.h"
#include "knmatch/obs/catalog.h"
#include "knmatch/obs/trace.h"

namespace knmatch {

Result<KnMatchResult> VaKnnSearcher::Knn(std::span<const Value> query,
                                         size_t k) const {
  Status s =
      ValidateMatchParams(va_.size(), va_.dims(), query.size(), 1, 1, k);
  if (!s.ok()) return s;

  const size_t d = va_.dims();

  struct Candidate {
    Value lb;
    PointId pid;
  };
  std::vector<Candidate> candidates;
  BoundedTopK<PointId, Value, PointId> ub_heap(k);

  const std::vector<VaFile::CellBound> bounds = va_.BoundsFor(query);
  const size_t cells = va_.cells();
  const DiskStream va_stream = va_.OpenStream();
  Status io = va_.ForEachApprox(va_stream.id(), [&](PointId pid,
                                               std::span<const uint32_t>
                                                   codes) {
    Value lb2 = 0, ub2 = 0;
    for (size_t dim = 0; dim < d; ++dim) {
      const VaFile::CellBound& b = bounds[dim * cells + codes[dim]];
      lb2 += b.lower * b.lower;
      ub2 += b.upper * b.upper;
    }
    const Value lb = std::sqrt(lb2);
    if (!ub_heap.full() || lb <= ub_heap.threshold()) {
      candidates.push_back(Candidate{lb, pid});
    }
    ub_heap.Offer(std::sqrt(ub2), pid, pid);
  });
  if (!io.ok()) return io;

  // Phase 2: ascending lower bound with early termination.
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.lb != b.lb) return a.lb < b.lb;
              return a.pid < b.pid;
            });

  BoundedTopK<PointId, Value, PointId> top(k);
  const DiskStream row_stream = rows_.OpenStream();
  std::vector<Value> buf;
  uint64_t points_refined = 0;
  {
    obs::TraceSpan span(obs::Phase::kVerify);
    for (const Candidate& cand : candidates) {
      if (top.full() && cand.lb > top.threshold()) break;
      Result<std::span<const Value>> row =
          rows_.ReadRow(row_stream.id(), cand.pid, &buf);
      if (!row.ok()) return row.status();
      std::span<const Value> p = row.value();
      Value sum = 0;
      for (size_t dim = 0; dim < d; ++dim) {
        const Value diff = p[dim] - query[dim];
        sum += diff * diff;
      }
      top.Offer(std::sqrt(sum), cand.pid, cand.pid);
      ++points_refined;
    }
  }

  KnMatchResult result;
  for (auto& e : top.TakeSorted()) {
    result.matches.push_back(Neighbor{e.item, e.score});
  }
  result.attributes_retrieved =
      static_cast<uint64_t>(va_.size()) * d + points_refined * d;
  obs::Cat().attrs_va->Add(result.attributes_retrieved);
  obs::Cat().va_points_refined->Add(points_refined);
  if (obs::QueryTrace* trace = obs::CurrentTrace()) {
    trace->counters().attributes_retrieved += result.attributes_retrieved;
    trace->counters().points_refined += points_refined;
  }
  return result;
}

}  // namespace knmatch
